//! The IREC PCB extensions of §IV-F: Target, Algorithm and Interface group.
//!
//! All three extensions are added by the *origin* AS when it originates a PCB and are covered
//! by the origin's signature; on-path ASes never modify them.

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

/// The origin-controlled PCB extensions introduced by IREC (§IV-F).
///
/// Each extension is optional and appears at most once per PCB:
///
/// * `target` enables pull-based routing: non-target ASes keep propagating the PCB until it
///   reaches the target AS, which returns it to the origin.
/// * `algorithm` enables on-demand routing: every participating AS runs the referenced
///   algorithm on the PCBs carrying it.
/// * `interface_group` sets the optimization granularity for this beacon's origin interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PcbExtensions {
    /// Target AS for pull-based routing (§IV-B).
    pub target: Option<AsId>,
    /// On-demand routing algorithm reference (§IV-C).
    pub algorithm: Option<AlgorithmRef>,
    /// Origin interface group (§IV-D).
    pub interface_group: Option<InterfaceGroupId>,
}

impl PcbExtensions {
    /// Extensions of a plain (legacy-style) beacon: none set.
    pub const fn none() -> Self {
        PcbExtensions {
            target: None,
            algorithm: None,
            interface_group: None,
        }
    }

    /// Whether no extension is present (the PCB is processable by legacy control services).
    pub fn is_empty(&self) -> bool {
        self.target.is_none() && self.algorithm.is_none() && self.interface_group.is_none()
    }

    /// Builder-style: sets the pull-based routing target.
    #[must_use]
    pub fn with_target(mut self, target: AsId) -> Self {
        self.target = Some(target);
        self
    }

    /// Builder-style: sets the on-demand algorithm.
    #[must_use]
    pub fn with_algorithm(mut self, algorithm: AlgorithmRef) -> Self {
        self.algorithm = Some(algorithm);
        self
    }

    /// Builder-style: sets the interface group.
    #[must_use]
    pub fn with_interface_group(mut self, group: InterfaceGroupId) -> Self {
        self.interface_group = Some(group);
        self
    }
}

impl Encode for PcbExtensions {
    #[inline]
    fn encode(&self, writer: &mut WireWriter) {
        match self.target {
            None => writer.put_bool(false),
            Some(t) => {
                writer.put_bool(true);
                writer.put_varint(t.value());
            }
        }
        match &self.algorithm {
            None => writer.put_bool(false),
            Some(a) => {
                writer.put_bool(true);
                a.encode(writer);
            }
        }
        match self.interface_group {
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
        Ok(PcbExtensions {
            target,
            algorithm,
            interface_group,
        })
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
        assert_eq!(e.target, Some(AsId(42)));
        assert_eq!(e.algorithm, Some(alg));
        assert_eq!(e.interface_group, Some(InterfaceGroupId(3)));
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
