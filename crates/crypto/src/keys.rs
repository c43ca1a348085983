//! Per-AS key material and the shared key registry ("simulated control-plane PKI").
//!
//! SCION's control-plane PKI lets every AS verify every other AS's PCB signatures. For the
//! purposes of this reproduction we model that trust infrastructure as a registry mapping
//! each AS to a symmetric signing key; all control services hold a handle to the registry
//! and can therefore verify any hop signature. The accept/reject behaviour (and the cost
//! being dominated by hashing the signed payload) matches what the paper's design needs.

use crate::hash::sha256;
use crate::hmac::HmacSha256;
use irec_types::AsId;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Signing key of a single AS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsKey {
    /// The AS this key belongs to.
    pub asn: AsId,
    /// Symmetric key bytes.
    pub key: [u8; 32],
}

impl AsKey {
    /// Deterministically derives the key for `asn` from a registry seed.
    ///
    /// Determinism keeps simulations reproducible; the derivation is still collision-free
    /// across ASes because the AS number is part of the hashed material.
    pub fn derive(seed: u64, asn: AsId) -> Self {
        let mut material = Vec::with_capacity(24);
        material.extend_from_slice(b"irec-as-key");
        material.extend_from_slice(&seed.to_be_bytes());
        material.extend_from_slice(&asn.value().to_be_bytes());
        let digest = sha256(&material);
        AsKey {
            asn,
            key: *digest.as_bytes(),
        }
    }
}

/// Shared registry of per-AS signing keys.
///
/// Cloning the registry is cheap (it is an `Arc` internally); every control-plane component
/// of the simulation holds a clone.
#[derive(Debug, Clone, Default)]
pub struct KeyRegistry {
    inner: Arc<RwLock<RegistryInner>>,
}

#[derive(Debug, Default)]
struct RegistryInner {
    seed: u64,
    keys: HashMap<AsId, KeyEntry>,
}

/// One registered key plus its HMAC key state, built on the first MAC under the key so
/// registries that only hand out keys never pay for it.
#[derive(Debug)]
struct KeyEntry {
    key: AsKey,
    mac: OnceLock<HmacSha256>,
}

impl KeyEntry {
    fn derive(seed: u64, asn: AsId) -> Self {
        KeyEntry {
            key: AsKey::derive(seed, asn),
            mac: OnceLock::new(),
        }
    }

    fn mac(&self) -> HmacSha256 {
        self.mac
            .get_or_init(|| HmacSha256::new(&self.key.key))
            .clone()
    }
}

impl KeyRegistry {
    /// Creates an empty registry with the given derivation seed.
    pub fn new(seed: u64) -> Self {
        KeyRegistry {
            inner: Arc::new(RwLock::new(RegistryInner {
                seed,
                keys: HashMap::new(),
            })),
        }
    }

    /// Creates a registry pre-populated with keys for ASes `0..count`.
    pub fn with_ases(seed: u64, count: u64) -> Self {
        let registry = Self::new(seed);
        {
            let mut inner = registry.inner.write();
            for i in 0..count {
                let asn = AsId(i);
                inner.keys.insert(asn, KeyEntry::derive(seed, asn));
            }
        }
        registry
    }

    /// Registers (or re-derives) the key for `asn` and returns it.
    pub fn register(&self, asn: AsId) -> AsKey {
        let mut inner = self.inner.write();
        let seed = inner.seed;
        inner
            .keys
            .entry(asn)
            .or_insert_with(|| KeyEntry::derive(seed, asn))
            .key
            .clone()
    }

    /// Looks up the key for `asn`, registering it lazily if missing.
    ///
    /// Lazy registration models the fact that in the real system any AS participating in the
    /// control plane has a verifiable certificate chain.
    pub fn key_for(&self, asn: AsId) -> AsKey {
        {
            let inner = self.inner.read();
            if let Some(entry) = inner.keys.get(&asn) {
                return entry.key.clone();
            }
        }
        self.register(asn)
    }

    /// A MAC instance keyed with `asn`'s key, ready for message data; registers the AS
    /// lazily like [`KeyRegistry::key_for`]. The key's ipad/opad blocks are compressed
    /// once per AS, on first use, and every later call clones that state.
    pub fn mac_for(&self, asn: AsId) -> HmacSha256 {
        if let Some(entry) = self.inner.read().keys.get(&asn) {
            return entry.mac();
        }
        self.register(asn);
        self.inner.read().keys[&asn].mac()
    }

    /// Returns the key for `asn` only if it has been registered explicitly.
    pub fn existing_key_for(&self, asn: AsId) -> Option<AsKey> {
        self.inner
            .read()
            .keys
            .get(&asn)
            .map(|entry| entry.key.clone())
    }

    /// Number of registered ASes.
    pub fn len(&self) -> usize {
        self.inner.read().keys.len()
    }

    /// Whether no AS is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_deterministic_and_distinct() {
        let a1 = AsKey::derive(42, AsId(1));
        let a1_again = AsKey::derive(42, AsId(1));
        let a2 = AsKey::derive(42, AsId(2));
        let a1_other_seed = AsKey::derive(43, AsId(1));
        assert_eq!(a1, a1_again);
        assert_ne!(a1.key, a2.key);
        assert_ne!(a1.key, a1_other_seed.key);
    }

    #[test]
    fn registry_prepopulation() {
        let reg = KeyRegistry::with_ases(7, 10);
        assert_eq!(reg.len(), 10);
        assert!(!reg.is_empty());
        assert!(reg.existing_key_for(AsId(9)).is_some());
        assert!(reg.existing_key_for(AsId(10)).is_none());
    }

    #[test]
    fn lazy_registration() {
        let reg = KeyRegistry::new(1);
        assert!(reg.is_empty());
        let k = reg.key_for(AsId(55));
        assert_eq!(k.asn, AsId(55));
        assert_eq!(reg.len(), 1);
        // Subsequent lookups return the same key.
        assert_eq!(reg.key_for(AsId(55)), k);
    }

    #[test]
    fn mac_for_is_keyed_like_the_registered_key() {
        let reg = KeyRegistry::new(5);
        // Lazy registration on first MAC, and every call starts from the same key state.
        for _ in 0..2 {
            let mut mac = reg.mac_for(AsId(8));
            mac.update(b"message");
            assert_eq!(
                mac.finalize(),
                crate::hmac::hmac_sha256(&AsKey::derive(5, AsId(8)).key, b"message")
            );
        }
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn clones_share_state() {
        let reg = KeyRegistry::new(1);
        let clone = reg.clone();
        reg.register(AsId(3));
        assert!(clone.existing_key_for(AsId(3)).is_some());
    }

    #[test]
    fn register_is_idempotent() {
        let reg = KeyRegistry::new(9);
        let k1 = reg.register(AsId(4));
        let k2 = reg.register(AsId(4));
        assert_eq!(k1, k2);
        assert_eq!(reg.len(), 1);
    }
}
