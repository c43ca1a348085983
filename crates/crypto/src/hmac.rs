//! HMAC-SHA-256 (RFC 2104 / FIPS 198-1), built on the from-scratch SHA-256.

use crate::hash::{Digest, Sha256, DIGEST_LEN};

const BLOCK_LEN: usize = 64;
const IPAD: u8 = 0x36;
const OPAD: u8 = 0x5c;

/// An incremental HMAC-SHA-256 computation.
///
/// A freshly keyed instance is the key's precomputed state: the ipad and opad blocks are
/// already absorbed into the inner and outer hashers, so cloning it starts a new MAC under
/// the same key without recompressing either block. [`crate::KeyRegistry`] keeps one such
/// instance per AS; it is a pure function of the key.
#[derive(Clone)]
pub struct HmacSha256 {
    /// Inner hasher, holding `key ^ ipad` and then the message.
    inner: Sha256,
    /// Outer hasher, holding `key ^ opad`; absorbs the inner digest at finalization.
    outer: Sha256,
}

impl core::fmt::Debug for HmacSha256 {
    /// Opaque: the hasher states are key material.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("HmacSha256(..)")
    }
}

impl HmacSha256 {
    /// Creates a new MAC instance keyed with `key`.
    ///
    /// Keys longer than the block size are first hashed, per RFC 2104.
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let hashed = crate::hash::sha256(key);
            key_block[..DIGEST_LEN].copy_from_slice(hashed.as_bytes());
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }

        let mut inner = Sha256::new();
        inner.update(&key_block.map(|b| b ^ IPAD));
        let mut outer = Sha256::new();
        outer.update(&key_block.map(|b| b ^ OPAD));
        HmacSha256 { inner, outer }
    }

    /// Feeds message data into the MAC.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finalizes the MAC and returns the tag.
    pub fn finalize(self) -> Digest {
        let inner_digest = self.inner.finalize();
        let mut outer = self.outer;
        outer.update(inner_digest.as_bytes());
        outer.finalize()
    }
}

/// One-shot HMAC-SHA-256 of `data` under `key`.
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> Digest {
    let mut mac = HmacSha256::new(key);
    mac.update(data);
    mac.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn incremental_equals_oneshot() {
        let key = b"secret key";
        let data = b"a somewhat longer message split into pieces";
        let oneshot = hmac_sha256(key, data);
        let mut mac = HmacSha256::new(key);
        mac.update(&data[..10]);
        mac.update(&data[10..]);
        assert_eq!(mac.finalize(), oneshot);
    }

    #[test]
    fn different_keys_give_different_tags() {
        let data = b"message";
        assert_ne!(hmac_sha256(b"key-a", data), hmac_sha256(b"key-b", data));
    }

    /// The RFC 4231 test vectors for HMAC-SHA-256 (cases 1–4, 6, 7), one-shot and through
    /// a clone of a keyed state that has already produced an unrelated tag — the way the
    /// key registry reuses one state per AS.
    #[test]
    fn rfc4231_vectors_oneshot_and_through_a_reused_key_state() {
        let cases: [(Vec<u8>, Vec<u8>, &str); 6] = [
            (
                vec![0x0b; 20],
                b"Hi There".to_vec(),
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            (
                b"Jefe".to_vec(),
                b"what do ya want for nothing?".to_vec(),
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            (
                vec![0xaa; 20],
                vec![0xdd; 50],
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            (
                (1..=25u8).collect(),
                vec![0xcd; 50],
                "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
            ),
            (
                vec![0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First".to_vec(),
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
            (
                vec![0xaa; 131],
                b"This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.".to_vec(),
                "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
            ),
        ];
        for (key, data, expected) in cases {
            assert_eq!(hmac_sha256(&key, &data).to_hex(), expected);
            let state = HmacSha256::new(&key);
            let mut warmup = state.clone();
            warmup.update(b"an unrelated message under the same key");
            let _ = warmup.finalize();
            let mut mac = state.clone();
            mac.update(&data);
            assert_eq!(mac.finalize().to_hex(), expected);
        }
    }

    /// HMAC straight from the definition, `H((K ^ opad) || H((K ^ ipad) || m))`, sharing
    /// only SHA-256 with the implementation under test.
    fn definitional_hmac(key: &[u8], data: &[u8]) -> Digest {
        let mut block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            block[..DIGEST_LEN].copy_from_slice(crate::hash::sha256(key).as_bytes());
        } else {
            block[..key.len()].copy_from_slice(key);
        }
        let mut inner: Vec<u8> = block.iter().map(|b| b ^ IPAD).collect();
        inner.extend_from_slice(data);
        let mut outer: Vec<u8> = block.iter().map(|b| b ^ OPAD).collect();
        outer.extend_from_slice(crate::hash::sha256(&inner).as_bytes());
        crate::hash::sha256(&outer)
    }

    proptest! {
        #[test]
        fn prop_reused_key_state_matches_oneshot(key in proptest::collection::vec(any::<u8>(), 0..200),
                                                 data in proptest::collection::vec(any::<u8>(), 0..512),
                                                 cuts in proptest::collection::vec(0usize..512, 0..4)) {
            // Keys on both sides of the 64-byte block size, messages split into up to five
            // parts, three MACs from one keyed state.
            let expected = definitional_hmac(&key, &data);
            prop_assert_eq!(hmac_sha256(&key, &data), expected);
            let state = HmacSha256::new(&key);
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
            cuts.sort_unstable();
            for _ in 0..3 {
                let mut mac = state.clone();
                let mut from = 0;
                for &cut in &cuts {
                    mac.update(&data[from..cut]);
                    from = cut;
                }
                mac.update(&data[from..]);
                prop_assert_eq!(mac.finalize(), expected);
            }
        }

        #[test]
        fn prop_incremental_matches_oneshot(key in proptest::collection::vec(any::<u8>(), 0..128),
                                            data in proptest::collection::vec(any::<u8>(), 0..512),
                                            split in 0usize..512) {
            let oneshot = hmac_sha256(&key, &data);
            let split = split.min(data.len());
            let mut mac = HmacSha256::new(&key);
            mac.update(&data[..split]);
            mac.update(&data[split..]);
            prop_assert_eq!(mac.finalize(), oneshot);
        }

        #[test]
        fn prop_tag_depends_on_message(key in proptest::collection::vec(any::<u8>(), 1..64),
                                       data in proptest::collection::vec(any::<u8>(), 1..256),
                                       flip in 0usize..256) {
            let flip = flip % data.len();
            let mut tampered = data.clone();
            tampered[flip] ^= 0x01;
            prop_assert_ne!(hmac_sha256(&key, &data), hmac_sha256(&key, &tampered));
        }
    }
}
