//! The IREC PCB extensions of §IV-F: Target, Algorithm and Interface group.
//!
//! All three extensions are added by the *origin* AS when it originates a PCB and are covered
//! by the origin's signature; on-path ASes never modify them.

use core::fmt;
use core::hash::{Hash, Hasher};
use irec_crypto::Digest;
use irec_types::{AlgorithmId, AsId, InterfaceGroupId, Result};
use irec_wire::{Decode, Encode, WireReader, WireWriter};

/// Reference to an on-demand routing algorithm: its identifier (a caching hint) and the
/// collision-resistant hash of its executable code (the integrity anchor).
///
/// An on-demand RAC fetches the executable from the origin AS, verifies that its hash equals
/// `code_hash`, caches it by `(origin, id)`, and executes it in a sandbox (§V-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AlgorithmRef {
    /// Identifier chosen by the origin AS.
    pub id: AlgorithmId,
    /// SHA-256 of the algorithm's executable (IRVM module bytes).
    pub code_hash: Digest,
}

impl AlgorithmRef {
    /// Creates an algorithm reference.
    pub const fn new(id: AlgorithmId, code_hash: Digest) -> Self {
        AlgorithmRef { id, code_hash }
    }

    /// Creates an algorithm reference by hashing the given module bytes.
    pub fn for_code(id: AlgorithmId, code: &[u8]) -> Self {
        AlgorithmRef {
            id,
            code_hash: irec_crypto::sha256(code),
        }
    }

    /// Verifies that `code` matches the pinned hash.
    pub fn matches(&self, code: &[u8]) -> bool {
        irec_crypto::sha256(code) == self.code_hash
    }
}

impl Encode for AlgorithmRef {
    #[inline]
    fn encode(&self, writer: &mut WireWriter) {
        writer.put_varint(self.id.0);
        writer.put_raw(self.code_hash.as_bytes());
    }
}

impl Decode for AlgorithmRef {
    #[inline]
    fn decode(reader: &mut WireReader<'_>) -> Result<Self> {
        Ok(AlgorithmRef {
            id: AlgorithmId(reader.get_varint()?),
            code_hash: Digest(reader.get_array()?),
        })
    }
}

/// Presence bits of a [`PcbExtensions`].
const TARGET: u8 = 1;
const ALGORITHM: u8 = 2;
const INTERFACE_GROUP: u8 = 4;

/// The origin-controlled PCB extensions introduced by IREC (§IV-F).
///
/// Each extension is optional and appears at most once per PCB:
///
/// * `target` enables pull-based routing: non-target ASes keep propagating the PCB until it
///   reaches the target AS, which returns it to the origin.
/// * `algorithm` enables on-demand routing: every participating AS runs the referenced
///   algorithm on the PCBs carrying it.
/// * `interface_group` sets the optimization granularity for this beacon's origin interface.
///
/// Every stored beacon carries one, so it is packed: the three values side by side and one
/// byte of presence bits, 56 bytes where three `Option`s took 72. An absent value is held
/// as zero, so the derived `==` compares what is present; `Debug` and `Hash` read through
/// the accessors and are those of the three `Option`s.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct PcbExtensions {
    target: AsId,
    algorithm_id: AlgorithmId,
    code_hash: Digest,
    interface_group: InterfaceGroupId,
    present: u8,
}

impl PcbExtensions {
    /// Extensions of a plain (legacy-style) beacon: none set.
    #[inline]
    pub const fn none() -> Self {
        PcbExtensions {
            target: AsId(0),
            algorithm_id: AlgorithmId(0),
            code_hash: Digest([0; irec_crypto::DIGEST_LEN]),
            interface_group: InterfaceGroupId(0),
            present: 0,
        }
    }

    /// Extensions with exactly the given values present.
    #[inline]
    pub fn new(
        target: Option<AsId>,
        algorithm: Option<AlgorithmRef>,
        interface_group: Option<InterfaceGroupId>,
    ) -> Self {
        let mut extensions = PcbExtensions::none();
        if let Some(target) = target {
            extensions = extensions.with_target(target);
        }
        if let Some(algorithm) = algorithm {
            extensions = extensions.with_algorithm(algorithm);
        }
        if let Some(group) = interface_group {
            extensions = extensions.with_interface_group(group);
        }
        extensions
    }

    /// Target AS for pull-based routing (§IV-B).
    #[inline]
    pub fn target(&self) -> Option<AsId> {
        (self.present & TARGET != 0).then_some(self.target)
    }

    /// On-demand routing algorithm reference (§IV-C).
    #[inline]
    pub fn algorithm(&self) -> Option<AlgorithmRef> {
        (self.present & ALGORITHM != 0)
            .then_some(AlgorithmRef::new(self.algorithm_id, self.code_hash))
    }

    /// Origin interface group (§IV-D).
    #[inline]
    pub fn interface_group(&self) -> Option<InterfaceGroupId> {
        (self.present & INTERFACE_GROUP != 0).then_some(self.interface_group)
    }

    /// Whether no extension is present (the PCB is processable by legacy control services).
    pub fn is_empty(&self) -> bool {
        self.present == 0
    }

    /// Builder-style: sets the pull-based routing target.
    #[inline]
    #[must_use]
    pub fn with_target(mut self, target: AsId) -> Self {
        self.target = target;
        self.present |= TARGET;
        self
    }

    /// Builder-style: sets the on-demand algorithm.
    #[inline]
    #[must_use]
    pub fn with_algorithm(mut self, algorithm: AlgorithmRef) -> Self {
        self.algorithm_id = algorithm.id;
        self.code_hash = algorithm.code_hash;
        self.present |= ALGORITHM;
        self
    }

    /// Builder-style: sets the interface group.
    #[inline]
    #[must_use]
    pub fn with_interface_group(mut self, group: InterfaceGroupId) -> Self {
        self.interface_group = group;
        self.present |= INTERFACE_GROUP;
        self
    }
}

impl Default for PcbExtensions {
    fn default() -> Self {
        PcbExtensions::none()
    }
}

impl fmt::Debug for PcbExtensions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PcbExtensions")
            .field("target", &self.target())
            .field("algorithm", &self.algorithm())
            .field("interface_group", &self.interface_group())
            .finish()
    }
}

impl Hash for PcbExtensions {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.target().hash(state);
        self.algorithm().hash(state);
        self.interface_group().hash(state);
    }
}

impl Encode for PcbExtensions {
    #[inline]
    fn encode(&self, writer: &mut WireWriter) {
        match self.target() {
            None => writer.put_bool(false),
            Some(t) => {
                writer.put_bool(true);
                writer.put_varint(t.value());
            }
        }
        match &self.algorithm() {
            None => writer.put_bool(false),
            Some(a) => {
                writer.put_bool(true);
                a.encode(writer);
            }
        }
        match self.interface_group() {
            None => writer.put_bool(false),
            Some(g) => {
                writer.put_bool(true);
                writer.put_u32v(g.value());
            }
        }
    }
}

impl Decode for PcbExtensions {
    #[inline]
    fn decode(reader: &mut WireReader<'_>) -> Result<Self> {
        let target = if reader.get_bool()? {
            Some(AsId(reader.get_varint()?))
        } else {
            None
        };
        let algorithm = if reader.get_bool()? {
            Some(AlgorithmRef::decode(reader)?)
        } else {
            None
        };
        let interface_group = if reader.get_bool()? {
            Some(InterfaceGroupId(reader.get_u32v()?))
        } else {
            None
        };
        Ok(PcbExtensions::new(target, algorithm, interface_group))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irec_wire::{from_bytes, to_bytes};
    use proptest::prelude::*;

    #[test]
    fn empty_extensions() {
        let e = PcbExtensions::none();
        assert!(e.is_empty());
        let decoded: PcbExtensions = from_bytes(&to_bytes(&e)).unwrap();
        assert_eq!(decoded, e);
    }

    #[test]
    fn builder_style_extensions() {
        let alg = AlgorithmRef::for_code(AlgorithmId(7), b"module bytes");
        let e = PcbExtensions::none()
            .with_target(AsId(42))
            .with_algorithm(alg)
            .with_interface_group(InterfaceGroupId(3));
        assert!(!e.is_empty());
        assert_eq!(e.target(), Some(AsId(42)));
        assert_eq!(e.algorithm(), Some(alg));
        assert_eq!(e.interface_group(), Some(InterfaceGroupId(3)));
    }

    #[test]
    fn full_extensions_roundtrip() {
        let e = PcbExtensions::none()
            .with_target(AsId(100))
            .with_algorithm(AlgorithmRef::for_code(AlgorithmId(1), b"code"))
            .with_interface_group(InterfaceGroupId(9));
        let decoded: PcbExtensions = from_bytes(&to_bytes(&e)).unwrap();
        assert_eq!(decoded, e);
    }

    #[test]
    fn partial_extensions_roundtrip() {
        let e = PcbExtensions::none().with_interface_group(InterfaceGroupId(1));
        let decoded: PcbExtensions = from_bytes(&to_bytes(&e)).unwrap();
        assert_eq!(decoded, e);
    }

    #[test]
    fn algorithm_ref_hash_verification() {
        let code = b"the algorithm";
        let r = AlgorithmRef::for_code(AlgorithmId(5), code);
        assert!(r.matches(code));
        assert!(!r.matches(b"tampered algorithm"));
    }

    /// The type the packed one replaced, as it was: three public `Option`s, every trait
    /// derived, the same encoder.
    mod derived {
        use super::{AlgorithmRef, AsId, Encode, InterfaceGroupId, WireWriter};

        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub struct PcbExtensions {
            pub target: Option<AsId>,
            pub algorithm: Option<AlgorithmRef>,
            pub interface_group: Option<InterfaceGroupId>,
        }

        impl Encode for PcbExtensions {
            fn encode(&self, writer: &mut WireWriter) {
                writer.put_bool(self.target.is_some());
                if let Some(t) = self.target {
                    writer.put_varint(t.value());
                }
                writer.put_bool(self.algorithm.is_some());
                if let Some(a) = &self.algorithm {
                    a.encode(writer);
                }
                writer.put_bool(self.interface_group.is_some());
                if let Some(g) = self.interface_group {
                    writer.put_u32v(g.value());
                }
            }
        }
    }

    /// A hasher that keeps every byte it is fed, so two `Hash` impls compare write for write.
    #[derive(Default)]
    struct Recorder(Vec<u8>);

    impl Hasher for Recorder {
        fn write(&mut self, bytes: &[u8]) {
            self.0.extend_from_slice(bytes);
        }
        fn finish(&self) -> u64 {
            0
        }
    }

    fn hashed(value: &impl Hash) -> Vec<u8> {
        let mut recorder = Recorder::default();
        value.hash(&mut recorder);
        recorder.0
    }

    #[test]
    fn packed_extensions_read_like_the_derived_ones_in_every_presence_combination() {
        assert_eq!(size_of::<PcbExtensions>(), 56);
        assert_eq!(size_of::<derived::PcbExtensions>(), 72);
        // Two value sets, one of them all zeros — what the packed form holds for an absent
        // value — so "present with value 0" must still differ from "absent".
        let values = [
            (
                AsId(0),
                AlgorithmRef::new(AlgorithmId(0), Digest([0; 32])),
                InterfaceGroupId(0),
            ),
            (
                AsId(300),
                AlgorithmRef::for_code(AlgorithmId(7), b"module"),
                InterfaceGroupId(70_000),
            ),
        ];
        let mut cases = Vec::new();
        for (target, algorithm, group) in values {
            for presence in 0..8u8 {
                let target = (presence & 1 != 0).then_some(target);
                let algorithm = (presence & 2 != 0).then_some(algorithm);
                let interface_group = (presence & 4 != 0).then_some(group);
                let packed = PcbExtensions::new(target, algorithm, interface_group);
                let old = derived::PcbExtensions {
                    target,
                    algorithm,
                    interface_group,
                };
                assert_eq!(format!("{packed:?}"), format!("{old:?}"));
                assert_eq!(format!("{packed:#?}"), format!("{old:#?}"));
                assert_eq!(hashed(&packed), hashed(&old), "{old:?}");
                assert_eq!(to_bytes(&packed), to_bytes(&old), "{old:?}");
                assert_eq!(
                    from_bytes::<PcbExtensions>(&to_bytes(&old)).unwrap(),
                    packed
                );
                assert_eq!(packed.is_empty(), presence == 0);
                cases.push((packed, old));
            }
        }
        for (packed, old) in &cases {
            for (other_packed, other_old) in &cases {
                assert_eq!(
                    packed == other_packed,
                    old == other_old,
                    "{old:?} / {other_old:?}"
                );
            }
        }
    }

    #[test]
    fn algorithm_ref_roundtrip() {
        let r = AlgorithmRef::for_code(AlgorithmId(1234), b"xyz");
        let decoded: AlgorithmRef = from_bytes(&to_bytes(&r)).unwrap();
        assert_eq!(decoded, r);
    }

    proptest! {
        #[test]
        fn prop_extensions_roundtrip(target in proptest::option::of(any::<u64>()),
                                     group in proptest::option::of(any::<u32>()),
                                     code in proptest::option::of(proptest::collection::vec(any::<u8>(), 0..64))) {
            let mut e = PcbExtensions::none();
            if let Some(t) = target { e = e.with_target(AsId(t)); }
            if let Some(g) = group { e = e.with_interface_group(InterfaceGroupId(g)); }
            if let Some(c) = &code { e = e.with_algorithm(AlgorithmRef::for_code(AlgorithmId(1), c)); }
            let decoded: PcbExtensions = from_bytes(&to_bytes(&e)).unwrap();
            prop_assert_eq!(decoded, e);
        }
    }
}
