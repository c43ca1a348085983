//! Per-AS hop entries of a PCB: hop information, static-info extensions and signatures.

use irec_crypto::Signature;
use irec_types::{AsId, Bandwidth, GeoCoord, IfId, IrecError, Latency, Result};
use irec_wire::{Decode, Encode, WireReader, WireWriter};

/// Hop information of one on-path AS: the interface where the beacon entered the AS and the
/// interface through which it was propagated further.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HopInfo {
    /// The AS that appended this entry.
    pub asn: AsId,
    /// Interface where the PCB entered the AS ([`IfId::NONE`] for the origin AS).
    pub ingress: IfId,
    /// Interface through which the PCB left the AS towards the next AS.
    pub egress: IfId,
}

impl HopInfo {
    /// Creates hop information for an origin AS entry (no ingress interface).
    pub const fn origin(asn: AsId, egress: IfId) -> Self {
        HopInfo {
            asn,
            ingress: IfId::NONE,
            egress,
        }
    }

    /// Creates hop information for a transit AS entry.
    pub const fn transit(asn: AsId, ingress: IfId, egress: IfId) -> Self {
        HopInfo {
            asn,
            ingress,
            egress,
        }
    }

    /// Whether this is an origin hop (no ingress interface).
    pub const fn is_origin(&self) -> bool {
        self.ingress.is_none()
    }
}

impl Encode for HopInfo {
    // `always`, like the two other encoders of an entry's parts below: left to its cost
    // model the compiler keeps them as calls inside `Pcb::encode`'s loop over the entries.
    #[inline(always)]
    fn encode(&self, writer: &mut WireWriter) {
        writer.put_varint(self.asn.value());
        writer.put_u32v(self.ingress.value());
        writer.put_u32v(self.egress.value());
    }
}

impl Decode for HopInfo {
    #[inline]
    fn decode(reader: &mut WireReader<'_>) -> Result<Self> {
        Ok(HopInfo {
            asn: AsId(reader.get_varint()?),
            ingress: IfId(reader.get_u32v()?),
            egress: IfId(reader.get_u32v()?),
        })
    }
}

/// Static-info extension of a hop entry: the performance metadata an AS is willing to share.
///
/// The semantics follow §IV-E of the paper: `intra_latency` is the crossing latency from the
/// hop's ingress interface to its egress interface (zero for the origin AS), and
/// `link_latency`/`link_bandwidth` describe the inter-domain link attached to the egress
/// interface (the link over which the PCB is propagated to the next AS). Accumulating
/// `intra_latency + link_latency` over all entries therefore yields the propagation delay
/// from the origin to the ingress interface of the AS currently holding the beacon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaticInfo {
    /// Propagation latency of the egress inter-domain link.
    pub link_latency: Latency,
    /// Capacity of the egress inter-domain link.
    pub link_bandwidth: Bandwidth,
    /// Intra-AS crossing latency from the ingress to the egress interface.
    pub intra_latency: Latency,
    /// Geolocation of the egress interface, if the AS shares it.
    pub egress_location: Option<GeoCoord>,
}

impl StaticInfo {
    /// Static info for an origin hop: no intra-AS crossing.
    pub fn origin(
        link_latency: Latency,
        link_bandwidth: Bandwidth,
        location: Option<GeoCoord>,
    ) -> Self {
        StaticInfo {
            link_latency,
            link_bandwidth,
            intra_latency: Latency::ZERO,
            egress_location: location,
        }
    }

    /// An "empty" static info (no metadata shared): zero latencies, unbounded bandwidth.
    pub const fn empty() -> Self {
        StaticInfo {
            link_latency: Latency::ZERO,
            link_bandwidth: Bandwidth::MAX,
            intra_latency: Latency::ZERO,
            egress_location: None,
        }
    }

    /// Total latency contributed by this hop (intra-AS crossing plus egress link).
    pub fn hop_latency(&self) -> Latency {
        self.intra_latency + self.link_latency
    }
}

impl Default for StaticInfo {
    fn default() -> Self {
        StaticInfo::empty()
    }
}

impl Encode for StaticInfo {
    #[inline(always)]
    fn encode(&self, writer: &mut WireWriter) {
        writer.put_varint(self.link_latency.as_micros());
        writer.put_varint(self.link_bandwidth.as_kbps());
        writer.put_varint(self.intra_latency.as_micros());
        match self.egress_location {
            None => writer.put_bool(false),
            Some(loc) => {
                writer.put_bool(true);
                // Fixed-point encoding with 1e-6 degree resolution keeps the format integral.
                writer.put_u64_fixed(encode_coord(loc.lat));
                writer.put_u64_fixed(encode_coord(loc.lon));
            }
        }
    }
}

impl Decode for StaticInfo {
    #[inline]
    fn decode(reader: &mut WireReader<'_>) -> Result<Self> {
        let link_latency = Latency::from_micros(reader.get_varint()?);
        let link_bandwidth = Bandwidth(reader.get_varint()?);
        let intra_latency = Latency::from_micros(reader.get_varint()?);
        let egress_location = if reader.get_bool()? {
            let lat = decode_coord(reader.get_u64_fixed()?)?;
            let lon = decode_coord(reader.get_u64_fixed()?)?;
            Some(GeoCoord::new(lat, lon))
        } else {
            None
        };
        Ok(StaticInfo {
            link_latency,
            link_bandwidth,
            intra_latency,
            egress_location,
        })
    }
}

/// The offset that keeps an encoded coordinate non-negative, in micro-degrees.
const COORD_OFFSET_MICRO_DEGREES: u64 = 360_000_000;

/// Encodes a coordinate in fixed-point micro-degrees, offset to stay non-negative.
#[inline]
fn encode_coord(value: f64) -> u64 {
    ((value + 360.0) * 1_000_000.0).round() as u64
}

/// Decodes a fixed-point micro-degree coordinate in `[-360°, 360°]` to the `f64` nearest to
/// it: the offset is taken off in integers and the one division is correctly rounded, so a
/// coordinate on the micro-degree grid comes back as the value it was written from.
#[inline]
fn decode_coord(raw: u64) -> Result<f64> {
    if raw > 2 * COORD_OFFSET_MICRO_DEGREES {
        return Err(coordinate_out_of_range());
    }
    Ok((raw as i64 - COORD_OFFSET_MICRO_DEGREES as i64) as f64 / 1_000_000.0)
}

#[cold]
#[inline(never)]
fn coordinate_out_of_range() -> IrecError {
    IrecError::decode("coordinate out of range")
}

/// A complete per-AS entry of a PCB: hop info, static info and the AS's signature over the
/// beacon prefix up to and including this entry.
#[derive(Debug, Clone, PartialEq)]
pub struct AsEntry {
    /// Hop information.
    pub hop: HopInfo,
    /// Shared performance metadata.
    pub static_info: StaticInfo,
    /// Signature by `hop.asn` over the canonical beacon prefix.
    pub signature: Signature,
}

impl AsEntry {
    /// Appends the entry's signature (signer and tag) — the part of the entry its own
    /// signature does not cover.
    #[inline]
    pub(crate) fn encode_signature(&self, writer: &mut WireWriter) {
        writer.put_varint(self.signature.signer.value());
        writer.put_raw(self.signature.tag.as_bytes());
    }

    /// The byte string a signature of this entry covers, given the canonical encoding of the
    /// preceding beacon content (`prefix`), built the pre-streaming way. Test oracle for
    /// the single-buffer construction in `Pcb::verify` / `Pcb::extend`.
    #[cfg(test)]
    pub(crate) fn signed_payload(
        prefix: &[u8],
        hop: &HopInfo,
        static_info: &StaticInfo,
    ) -> Vec<u8> {
        let mut w = WireWriter::with_capacity(prefix.len() + 64);
        w.put_bytes(prefix);
        hop.encode(&mut w);
        static_info.encode(&mut w);
        w.into_bytes()
    }
}

impl Encode for AsEntry {
    #[inline(always)]
    fn encode(&self, writer: &mut WireWriter) {
        self.hop.encode(writer);
        self.static_info.encode(writer);
        self.encode_signature(writer);
    }
}

impl Decode for AsEntry {
    #[inline]
    fn decode(reader: &mut WireReader<'_>) -> Result<Self> {
        Ok(AsEntry {
            hop: HopInfo::decode(reader)?,
            static_info: StaticInfo::decode(reader)?,
            signature: Signature {
                signer: AsId(reader.get_varint()?),
                tag: irec_crypto::Digest(reader.get_array()?),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irec_wire::{from_bytes, to_bytes};
    use proptest::prelude::*;

    #[test]
    fn hop_info_constructors() {
        let o = HopInfo::origin(AsId(1), IfId(2));
        assert!(o.is_origin());
        assert_eq!(o.ingress, IfId::NONE);
        let t = HopInfo::transit(AsId(2), IfId(3), IfId(4));
        assert!(!t.is_origin());
    }

    #[test]
    fn hop_info_roundtrip() {
        let h = HopInfo::transit(AsId(77), IfId(5), IfId(9));
        let decoded: HopInfo = from_bytes(&to_bytes(&h)).unwrap();
        assert_eq!(decoded, h);
    }

    #[test]
    fn static_info_roundtrip_with_location() {
        let s = StaticInfo {
            link_latency: Latency::from_millis(12),
            link_bandwidth: Bandwidth::from_gbps(40),
            intra_latency: Latency::from_micros(350),
            egress_location: Some(GeoCoord::new(47.3769, 8.5417)),
        };
        let decoded: StaticInfo = from_bytes(&to_bytes(&s)).unwrap();
        assert_eq!(decoded.link_latency, s.link_latency);
        assert_eq!(decoded.link_bandwidth, s.link_bandwidth);
        assert_eq!(decoded.intra_latency, s.intra_latency);
        let loc = decoded.egress_location.unwrap();
        assert!((loc.lat - 47.3769).abs() < 1e-5);
        assert!((loc.lon - 8.5417).abs() < 1e-5);
    }

    #[test]
    fn static_info_roundtrip_without_location() {
        let s = StaticInfo::origin(Latency::from_millis(10), Bandwidth::from_mbps(100), None);
        let decoded: StaticInfo = from_bytes(&to_bytes(&s)).unwrap();
        assert_eq!(decoded, s);
    }

    #[test]
    fn hop_latency_sums_intra_and_link() {
        let s = StaticInfo {
            link_latency: Latency::from_millis(10),
            link_bandwidth: Bandwidth::MAX,
            intra_latency: Latency::from_millis(2),
            egress_location: None,
        };
        assert_eq!(s.hop_latency(), Latency::from_millis(12));
    }

    #[test]
    fn empty_static_info_defaults() {
        let s = StaticInfo::default();
        assert_eq!(s.link_latency, Latency::ZERO);
        assert_eq!(s.link_bandwidth, Bandwidth::MAX);
        assert_eq!(s.egress_location, None);
    }

    #[test]
    fn as_entry_roundtrip() {
        let entry = AsEntry {
            hop: HopInfo::transit(AsId(9), IfId(1), IfId(2)),
            static_info: StaticInfo::origin(
                Latency::from_millis(5),
                Bandwidth::from_mbps(250),
                Some(GeoCoord::new(-33.9, 151.2)),
            ),
            signature: Signature::placeholder(AsId(9)),
        };
        let decoded: AsEntry = from_bytes(&to_bytes(&entry)).unwrap();
        assert_eq!(decoded.hop, entry.hop);
        assert_eq!(decoded.signature, entry.signature);
        assert_eq!(
            decoded.static_info.link_latency,
            entry.static_info.link_latency
        );
        assert_eq!(
            decoded.static_info.link_bandwidth,
            entry.static_info.link_bandwidth
        );
        // Geolocation survives with micro-degree precision (the codec is fixed-point).
        let (d, o) = (
            decoded.static_info.egress_location.unwrap(),
            entry.static_info.egress_location.unwrap(),
        );
        assert!((d.lat - o.lat).abs() < 1e-5);
        assert!((d.lon - o.lon).abs() < 1e-5);
    }

    #[test]
    fn signed_payload_differs_for_different_prefixes() {
        let hop = HopInfo::origin(AsId(1), IfId(1));
        let si = StaticInfo::empty();
        let p1 = AsEntry::signed_payload(b"prefix-a", &hop, &si);
        let p2 = AsEntry::signed_payload(b"prefix-b", &hop, &si);
        assert_ne!(p1, p2);
    }

    #[test]
    fn coordinate_codec_bounds() {
        assert!(decode_coord(encode_coord(180.0)).is_ok());
        assert!(decode_coord(encode_coord(-180.0)).is_ok());
        // The range is [-360°, 360°], to the micro-degree.
        assert_eq!(decode_coord(0).unwrap(), -360.0);
        assert_eq!(decode_coord(720_000_000).unwrap(), 360.0);
        for raw in [720_000_001, 1 << 53, 1 << 63, u64::MAX] {
            assert_eq!(decode_coord(raw).unwrap_err().category(), "decode");
        }
    }

    #[test]
    fn a_coordinate_on_the_micro_degree_grid_decodes_to_itself() {
        // Dividing first and subtracting 360.0 afterwards rounds twice: 0.123456 came back
        // as 0.12345599999997603, and no beacon with a location decoded to itself.
        for value in [0.123456, -0.123456, 47.3769, 8.5417, -33.8688, 151.2093] {
            assert_eq!(decode_coord(encode_coord(value)).unwrap(), value);
        }
        for micro_degrees in (-180_000_000i64..=180_000_000).step_by(999_983) {
            let value = micro_degrees as f64 / 1e6;
            assert_eq!(decode_coord(encode_coord(value)).unwrap(), value);
        }
        let info = StaticInfo::origin(
            Latency::from_millis(5),
            Bandwidth::from_mbps(250),
            Some(GeoCoord::new(0.123456, -151.2093)),
        );
        assert_eq!(from_bytes::<StaticInfo>(&to_bytes(&info)).unwrap(), info);
    }

    proptest! {
        #[test]
        fn prop_static_info_roundtrip(lat_us in 0u64..10_000_000,
                                      bw in 0u64..u64::MAX / 2,
                                      intra_us in 0u64..1_000_000,
                                      lat in -90.0f64..90.0,
                                      lon in -180.0f64..180.0,
                                      with_loc in any::<bool>()) {
            let s = StaticInfo {
                link_latency: Latency::from_micros(lat_us),
                link_bandwidth: Bandwidth(bw),
                intra_latency: Latency::from_micros(intra_us),
                egress_location: with_loc.then(|| GeoCoord::new(lat, lon)),
            };
            let decoded: StaticInfo = from_bytes(&to_bytes(&s)).unwrap();
            prop_assert_eq!(decoded.link_latency, s.link_latency);
            prop_assert_eq!(decoded.link_bandwidth, s.link_bandwidth);
            prop_assert_eq!(decoded.intra_latency, s.intra_latency);
            prop_assert_eq!(decoded.egress_location.is_some(), with_loc);
            if let (Some(d), Some(o)) = (decoded.egress_location, s.egress_location) {
                prop_assert!((d.lat - o.lat).abs() < 1e-5);
                prop_assert!((d.lon - o.lon).abs() < 1e-5);
            }
        }

        #[test]
        fn prop_a_decoded_location_encodes_to_the_bytes_it_came_from(lat in -90.0f64..90.0,
                                                                     lon in -180.0f64..180.0) {
            let off_grid = StaticInfo::origin(
                Latency::ZERO,
                Bandwidth::MAX,
                Some(GeoCoord::new(lat, lon)),
            );
            let bytes = to_bytes(&off_grid);
            let on_grid: StaticInfo = from_bytes(&bytes).unwrap();
            prop_assert_eq!(&to_bytes(&on_grid), &bytes);
        }

        #[test]
        fn prop_hop_info_roundtrip(asn in any::<u64>(), ing in any::<u32>(), egr in any::<u32>()) {
            let h = HopInfo { asn: AsId(asn), ingress: IfId(ing), egress: IfId(egr) };
            let decoded: HopInfo = from_bytes(&to_bytes(&h)).unwrap();
            prop_assert_eq!(decoded, h);
        }
    }
}
