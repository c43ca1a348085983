//! Hop-entry signatures.
//!
//! In SCION/IREC every AS signs the hop information it appends to a PCB, and the origin AS's
//! signature additionally covers the on-demand algorithm hash (§V-C of the paper). This
//! module provides [`Signer`]/[`Verifier`] handles bound to a [`KeyRegistry`], producing
//! HMAC-SHA-256 [`Signature`]s over arbitrary byte strings.

use crate::hash::{Digest, DIGEST_LEN};
use crate::hmac::HmacSha256;
use crate::keys::KeyRegistry;
use core::fmt;
use irec_types::{AsId, IrecError, Result};
use std::sync::OnceLock;

/// A signature over a byte string, attributable to an AS.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    /// The AS that produced the signature.
    pub signer: AsId,
    /// The MAC tag.
    pub tag: Digest,
}

impl Signature {
    /// A placeholder signature (all-zero tag) used by unsigned test fixtures.
    pub fn placeholder(signer: AsId) -> Self {
        Signature {
            signer,
            tag: Digest::ZERO,
        }
    }

    /// Serialized length of a signature on the wire (8-byte AS + tag).
    pub const WIRE_LEN: usize = 8 + DIGEST_LEN;
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Signature({}, {})",
            self.signer,
            &self.tag.to_hex()[..12]
        )
    }
}

/// Signs byte strings on behalf of one AS.
#[derive(Clone)]
pub struct Signer {
    asn: AsId,
    registry: KeyRegistry,
    /// The AS's keyed MAC state, fetched from the registry on the first signature (so
    /// building a signer registers nothing) and cloned for every signature after it. A
    /// registered key never changes, so neither does this.
    key_state: OnceLock<HmacSha256>,
}

impl Signer {
    /// Creates a signer for `asn` using keys from `registry`.
    pub fn new(asn: AsId, registry: KeyRegistry) -> Self {
        Signer {
            asn,
            registry,
            key_state: OnceLock::new(),
        }
    }

    /// The AS this signer signs for.
    pub fn asn(&self) -> AsId {
        self.asn
    }

    /// Signs `message`.
    pub fn sign(&self, message: &[u8]) -> Signature {
        self.sign_parts(&[message])
    }

    /// Signs the concatenation of `parts` without materializing it: callers stream slices
    /// of a buffer they already hold into the MAC.
    pub fn sign_parts(&self, parts: &[&[u8]]) -> Signature {
        let mut mac = self.key_state().clone();
        for part in parts {
            mac.update(part);
        }
        Signature {
            signer: self.asn,
            tag: mac.finalize(),
        }
    }

    fn key_state(&self) -> &HmacSha256 {
        self.key_state
            .get_or_init(|| self.registry.mac_for(self.asn))
    }

    /// Starts a signature whose message is fed piecewise. Messages that share a beginning
    /// absorb it once and are then signed with [`PartialSignature::sign_with_tail`].
    pub fn begin(&self) -> PartialSignature {
        PartialSignature {
            signer: self.asn,
            mac: self.key_state().clone(),
        }
    }
}

/// A signature in the making: the signer's keyed MAC state plus whatever part of the
/// message it has absorbed so far.
#[derive(Clone)]
pub struct PartialSignature {
    signer: AsId,
    mac: HmacSha256,
}

impl PartialSignature {
    /// Absorbs the next part of the message.
    pub fn update(&mut self, data: &[u8]) {
        self.mac.update(data);
    }

    /// The signature over everything absorbed.
    pub fn finish(self) -> Signature {
        Signature {
            signer: self.signer,
            tag: self.mac.finalize(),
        }
    }

    /// The signature over everything absorbed so far followed by `tail`, leaving this
    /// state as it is — so one absorbed beginning serves any number of endings.
    pub fn sign_with_tail(&self, tail: &[u8]) -> Signature {
        let mut signing = self.clone();
        signing.update(tail);
        signing.finish()
    }
}

/// The MAC of the concatenation of `parts` under `asn`'s key.
fn mac_of(registry: &KeyRegistry, asn: AsId, parts: &[&[u8]]) -> Digest {
    let mut mac = registry.mac_for(asn);
    for part in parts {
        mac.update(part);
    }
    mac.finalize()
}

/// Verifies signatures from any registered AS.
#[derive(Clone)]
pub struct Verifier {
    registry: KeyRegistry,
}

impl Verifier {
    /// Creates a verifier backed by `registry`.
    pub fn new(registry: KeyRegistry) -> Self {
        Verifier { registry }
    }

    /// Verifies that `signature` is a valid signature by `signature.signer` over `message`.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> Result<()> {
        self.verify_parts(&[message], signature)
    }

    /// [`Verifier::verify`] over the concatenation of `parts`, streamed into the MAC
    /// without materializing it.
    fn verify_parts(&self, parts: &[&[u8]], signature: &Signature) -> Result<()> {
        if mac_of(&self.registry, signature.signer, parts) == signature.tag {
            Ok(())
        } else {
            Err(IrecError::verification(format!(
                "invalid signature from {}",
                signature.signer
            )))
        }
    }

    /// Checks the claimed signer, then verifies the signature over the concatenation of
    /// `parts`.
    pub fn verify_from(
        &self,
        expected_signer: AsId,
        parts: &[&[u8]],
        signature: &Signature,
    ) -> Result<()> {
        if signature.signer != expected_signer {
            return Err(IrecError::verification(format!(
                "signature claims {} but hop belongs to {}",
                signature.signer, expected_signer
            )));
        }
        self.verify_parts(parts, signature)
    }
}

/// One-shot convenience: sign `message` as `asn` with keys from `registry`.
pub fn sign(registry: &KeyRegistry, asn: AsId, message: &[u8]) -> Signature {
    Signer::new(asn, registry.clone()).sign(message)
}

/// One-shot convenience: verify `signature` over `message` with keys from `registry`.
pub fn verify(registry: &KeyRegistry, message: &[u8], signature: &Signature) -> Result<()> {
    Verifier::new(registry.clone()).verify(message, signature)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn registry() -> KeyRegistry {
        KeyRegistry::with_ases(2024, 16)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let reg = registry();
        let sig = sign(&reg, AsId(3), b"hop entry bytes");
        assert!(verify(&reg, b"hop entry bytes", &sig).is_ok());
    }

    #[test]
    fn tampered_message_fails() {
        let reg = registry();
        let sig = sign(&reg, AsId(3), b"hop entry bytes");
        let err = verify(&reg, b"hop entry bytez", &sig).unwrap_err();
        assert_eq!(err.category(), "verification");
    }

    #[test]
    fn wrong_claimed_signer_fails() {
        let reg = registry();
        let mut sig = sign(&reg, AsId(3), b"msg");
        sig.signer = AsId(4);
        assert!(verify(&reg, b"msg", &sig).is_err());
    }

    #[test]
    fn verify_from_checks_identity() {
        let reg = registry();
        let verifier = Verifier::new(reg.clone());
        let sig = sign(&reg, AsId(5), b"msg");
        assert!(verifier.verify_from(AsId(5), &[b"msg"], &sig).is_ok());
        assert!(verifier.verify_from(AsId(6), &[b"msg"], &sig).is_err());
    }

    #[test]
    fn parts_are_signed_and_verified_as_their_concatenation() {
        let reg = registry();
        let signer = Signer::new(AsId(3), reg.clone());
        let verifier = Verifier::new(reg);
        let whole = signer.sign(b"hop entry bytes");
        assert_eq!(signer.sign_parts(&[b"hop ", b"", b"entry bytes"]), whole);
        assert!(verifier
            .verify_parts(&[b"hop entry", b" bytes"], &whole)
            .is_ok());
        assert!(verifier
            .verify_parts(&[b"hop entry", b"bytes"], &whole)
            .is_err());
    }

    #[test]
    fn one_absorbed_beginning_serves_many_endings() {
        let signer = Signer::new(AsId(3), registry());
        let mut shared = signer.begin();
        shared.update(b"beacon ");
        shared.update(b"prefix ");
        let long = [0x5au8; 150];
        for tail in [&b"hop a"[..], b"", &long] {
            let whole = [&b"beacon prefix "[..], tail].concat();
            assert_eq!(shared.sign_with_tail(tail), signer.sign(&whole));
        }
        assert_eq!(shared.finish(), signer.sign(b"beacon prefix "));
    }

    #[test]
    fn a_signer_resolves_its_key_on_the_first_signature() {
        let reg = KeyRegistry::new(1);
        let signer = Signer::new(AsId(9), reg.clone());
        assert!(reg.is_empty(), "building a signer registers nothing");
        let first = signer.sign(b"msg");
        assert_eq!(reg.len(), 1);
        // Clones carry the resolved state and sign alike.
        assert_eq!(signer.clone().sign(b"msg"), first);
        assert_eq!(sign(&reg, AsId(9), b"msg"), first);
        assert!(verify(&reg, b"msg", &first).is_ok());
    }

    #[test]
    fn placeholder_signature_does_not_verify() {
        let reg = registry();
        let sig = Signature::placeholder(AsId(1));
        assert!(verify(&reg, b"anything", &sig).is_err());
    }

    #[test]
    fn signer_reports_its_as() {
        let reg = registry();
        let signer = Signer::new(AsId(7), reg);
        assert_eq!(signer.asn(), AsId(7));
        assert_eq!(signer.sign(b"x").signer, AsId(7));
    }

    #[test]
    fn signatures_differ_across_ases() {
        let reg = registry();
        let s1 = sign(&reg, AsId(1), b"same message");
        let s2 = sign(&reg, AsId(2), b"same message");
        assert_ne!(s1.tag, s2.tag);
    }

    proptest! {
        #[test]
        fn prop_roundtrip_arbitrary_messages(msg in proptest::collection::vec(any::<u8>(), 0..512),
                                             asn in 0u64..64) {
            let reg = KeyRegistry::with_ases(1, 64);
            let sig = sign(&reg, AsId(asn), &msg);
            prop_assert!(verify(&reg, &msg, &sig).is_ok());
        }

        #[test]
        fn prop_bitflip_breaks_signature(msg in proptest::collection::vec(any::<u8>(), 1..256),
                                         flip in 0usize..256) {
            let reg = KeyRegistry::with_ases(1, 4);
            let sig = sign(&reg, AsId(0), &msg);
            let mut tampered = msg.clone();
            let idx = flip % tampered.len();
            tampered[idx] ^= 0x80;
            prop_assert!(verify(&reg, &tampered, &sig).is_err());
        }
    }
}
