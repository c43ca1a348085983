//! The oracle of the wire codec: the codec as it was before it became one inlinable kernel
//! — a writer that encodes every varint into a stack array with `write_varint` and copies
//! it out, a reader that re-slices its input and walks it with the byte-by-byte
//! `decode_varint`, a field-by-field decoder per type that zeroes a tag and copies into it
//! — kept here, from the primitives up to the candidate envelope, with nothing in common
//! with the codec under test but the types it fills in, `write_varint` and
//! [`bounded_reservation`].
//!
//! The properties demand identical bytes from both encoders and, from both decoders, the
//! same value (capacities included: both reserve by `bounded_reservation`) or an error of
//! the same category, over valid beacons and what a hostile sender can make of them: every
//! truncation, single-byte and single-bit mutations, over-long, overflowing and 11-byte
//! varints spliced over every integer field, boolean bytes 2–255, entry and candidate
//! counts at and past their caps, and seeded random bytes. Beacons are unsigned — decoding
//! checks no signature, so any tag must decode the same.
//!
//! One thing is shared on purpose: a coordinate is converted the way `irec_pcb` converts it
//! now (offset subtracted in integers, one division). That conversion is a fix this codec
//! change carries, not part of how bytes are moved; `irec_pcb::hop` pins it on its own.

use super::*;
use irec_crypto::{Digest, Signature, DIGEST_LEN};
use irec_pcb::{bounded_reservation, AsEntry, HopInfo, Pcb, PcbExtensions, StaticInfo};
use irec_types::{Bandwidth, GeoCoord, IsdId, Latency};
use irec_wire::{from_bytes, to_bytes, write_varint, MAX_VARINT_LEN};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// What a span of the oracle's output holds, for the splices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Field {
    /// A varint, whatever width it is read back as.
    Varint,
    /// The entry count of a beacon or the candidate count of an envelope.
    Count,
    /// A boolean byte.
    Bool,
    /// Fixed-width integers and raw bytes.
    Opaque,
}

/// The old writer, which also notes where every field it wrote starts.
#[derive(Default)]
struct OldWriter {
    buf: Vec<u8>,
    fields: Vec<(usize, Field)>,
}

impl OldWriter {
    fn mark(&mut self, field: Field) {
        self.fields.push((self.buf.len(), field));
    }

    fn put_varint_as(&mut self, value: u64, field: Field) {
        self.mark(field);
        let mut tmp = [0u8; MAX_VARINT_LEN];
        let len = write_varint(value, &mut tmp);
        self.buf.extend_from_slice(&tmp[..len]);
    }

    fn put_varint(&mut self, value: u64) {
        self.put_varint_as(value, Field::Varint);
    }

    fn put_u32v(&mut self, value: u32) {
        self.put_varint(u64::from(value));
    }

    fn put_bool(&mut self, value: bool) {
        self.mark(Field::Bool);
        self.buf.extend_from_slice(&[u8::from(value)]);
    }

    fn put_u64_fixed(&mut self, value: u64) {
        self.mark(Field::Opaque);
        self.buf.extend_from_slice(&value.to_be_bytes());
    }

    fn put_raw(&mut self, bytes: &[u8]) {
        self.mark(Field::Opaque);
        self.buf.extend_from_slice(bytes);
    }

    /// The bytes of field `index`.
    fn span(&self, index: usize) -> std::ops::Range<usize> {
        let end = self
            .fields
            .get(index + 1)
            .map_or(self.buf.len(), |&(start, _)| start);
        self.fields[index].0..end
    }
}

/// The old `decode_varint`.
fn old_decode_varint(input: &[u8]) -> Result<(u64, usize)> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    for (i, &byte) in input.iter().enumerate() {
        if i >= MAX_VARINT_LEN {
            return Err(IrecError::decode("varint longer than 10 bytes"));
        }
        let chunk = (byte & 0x7f) as u64;
        // The 10th byte may only contribute a single bit.
        if shift == 63 && chunk > 1 {
            return Err(IrecError::decode("varint overflows u64"));
        }
        value |= chunk << shift;
        if byte & 0x80 == 0 {
            return Ok((value, i + 1));
        }
        shift += 7;
    }
    Err(IrecError::decode("truncated varint"))
}

/// The old reader.
struct OldReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> OldReader<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn finish(&self) -> Result<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(IrecError::decode("trailing bytes after message"))
        }
    }

    fn get_varint(&mut self) -> Result<u64> {
        let (value, used) = old_decode_varint(&self.buf[self.pos..])?;
        self.pos += used;
        Ok(value)
    }

    fn get_u32v(&mut self) -> Result<u32> {
        let v = self.get_varint()?;
        u32::try_from(v).map_err(|_| IrecError::decode("varint does not fit in u32"))
    }

    fn get_u8(&mut self) -> Result<u8> {
        if self.remaining() < 1 {
            return Err(IrecError::decode("unexpected end of input reading u8"));
        }
        let b = self.buf[self.pos];
        self.pos += 1;
        Ok(b)
    }

    fn get_u64_fixed(&mut self) -> Result<u64> {
        if self.remaining() < 8 {
            return Err(IrecError::decode("unexpected end of input reading u64"));
        }
        let bytes: [u8; 8] = self.buf[self.pos..self.pos + 8]
            .try_into()
            .expect("slice is 8 bytes");
        self.pos += 8;
        Ok(u64::from_be_bytes(bytes))
    }

    fn get_bool(&mut self) -> Result<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(IrecError::decode("invalid boolean byte")),
        }
    }

    fn get_raw(&mut self, len: usize) -> Result<&'a [u8]> {
        if self.remaining() < len {
            return Err(IrecError::decode("unexpected end of input"));
        }
        let slice = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(slice)
    }
}

/// The old `from_bytes`, over one of the decoders below.
fn old_from_bytes<T>(
    bytes: &[u8],
    decode: impl FnOnce(&mut OldReader<'_>) -> Result<T>,
) -> Result<T> {
    let mut reader = OldReader { buf: bytes, pos: 0 };
    let value = decode(&mut reader)?;
    reader.finish()?;
    Ok(value)
}

fn old_encode_coord(value: f64) -> u64 {
    ((value + 360.0) * 1_000_000.0).round() as u64
}

/// The conversion as `irec_pcb` does it now (see the module comment); the range it accepts
/// is the old one.
fn decode_coord(raw: u64) -> Result<f64> {
    if !(-360.0..=360.0).contains(&(raw as f64 / 1_000_000.0 - 360.0)) {
        return Err(IrecError::decode("coordinate out of range"));
    }
    Ok((raw as i64 - 360_000_000) as f64 / 1_000_000.0)
}

fn old_encode_extensions(extensions: &PcbExtensions, w: &mut OldWriter) {
    match extensions.target {
        None => w.put_bool(false),
        Some(t) => {
            w.put_bool(true);
            w.put_varint(t.value());
        }
    }
    match &extensions.algorithm {
        None => w.put_bool(false),
        Some(a) => {
            w.put_bool(true);
            w.put_varint(a.id.0);
            w.put_raw(a.code_hash.as_bytes());
        }
    }
    match extensions.interface_group {
        None => w.put_bool(false),
        Some(g) => {
            w.put_bool(true);
            w.put_u32v(g.value());
        }
    }
}

fn old_encode_entry(entry: &AsEntry, w: &mut OldWriter) {
    w.put_varint(entry.hop.asn.value());
    w.put_u32v(entry.hop.ingress.value());
    w.put_u32v(entry.hop.egress.value());
    w.put_varint(entry.static_info.link_latency.as_micros());
    w.put_varint(entry.static_info.link_bandwidth.as_kbps());
    w.put_varint(entry.static_info.intra_latency.as_micros());
    match entry.static_info.egress_location {
        None => w.put_bool(false),
        Some(loc) => {
            w.put_bool(true);
            w.put_u64_fixed(old_encode_coord(loc.lat));
            w.put_u64_fixed(old_encode_coord(loc.lon));
        }
    }
    w.put_varint(entry.signature.signer.value());
    w.put_raw(entry.signature.tag.as_bytes());
}

fn old_encode_pcb(pcb: &Pcb, w: &mut OldWriter) {
    w.put_varint(pcb.origin_isd.0 as u64);
    w.put_varint(pcb.origin.value());
    w.put_varint(pcb.sequence);
    w.put_varint(pcb.created_at.as_micros());
    w.put_varint(pcb.expires_at.as_micros());
    old_encode_extensions(&pcb.extensions, w);
    w.put_varint_as(pcb.entries.len() as u64, Field::Count);
    for entry in &pcb.entries {
        old_encode_entry(entry, w);
    }
}

fn old_encode_candidates(beacons: &[Arc<StoredBeacon>], w: &mut OldWriter) {
    w.put_varint_as(beacons.len() as u64, Field::Count);
    for beacon in beacons {
        old_encode_pcb(&beacon.pcb, w);
        w.put_u32v(beacon.ingress.value());
    }
}

fn old_decode_extensions(reader: &mut OldReader<'_>) -> Result<PcbExtensions> {
    let target = if reader.get_bool()? {
        Some(AsId(reader.get_varint()?))
    } else {
        None
    };
    let algorithm = if reader.get_bool()? {
        let id = AlgorithmId(reader.get_varint()?);
        let hash_bytes = reader.get_raw(DIGEST_LEN)?;
        let mut hash = [0u8; DIGEST_LEN];
        hash.copy_from_slice(hash_bytes);
        Some(AlgorithmRef {
            id,
            code_hash: Digest(hash),
        })
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

fn old_decode_entry(reader: &mut OldReader<'_>) -> Result<AsEntry> {
    let hop = HopInfo {
        asn: AsId(reader.get_varint()?),
        ingress: IfId(reader.get_u32v()?),
        egress: IfId(reader.get_u32v()?),
    };
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
    let signer = AsId(reader.get_varint()?);
    let tag_bytes = reader.get_raw(DIGEST_LEN)?;
    let mut tag = [0u8; DIGEST_LEN];
    tag.copy_from_slice(tag_bytes);
    Ok(AsEntry {
        hop,
        static_info: StaticInfo {
            link_latency,
            link_bandwidth,
            intra_latency,
            egress_location,
        },
        signature: Signature {
            signer,
            tag: Digest(tag),
        },
    })
}

fn old_decode_pcb(reader: &mut OldReader<'_>) -> Result<Pcb> {
    let origin_isd = IsdId(
        u16::try_from(reader.get_varint()?)
            .map_err(|_| IrecError::decode("ISD id out of range"))?,
    );
    let origin = AsId(reader.get_varint()?);
    let sequence = reader.get_varint()?;
    let created_at = SimTime::from_micros(reader.get_varint()?);
    let expires_at = SimTime::from_micros(reader.get_varint()?);
    let extensions = old_decode_extensions(reader)?;
    let count = usize::try_from(reader.get_varint()?)
        .ok()
        .filter(|&count| count <= 1024)
        .ok_or_else(|| IrecError::decode("implausible entry count"))?;
    let mut entries = Vec::with_capacity(bounded_reservation(count, reader.remaining()));
    for _ in 0..count {
        entries.push(old_decode_entry(reader)?);
    }
    Ok(Pcb {
        origin_isd,
        origin,
        sequence,
        created_at,
        expires_at,
        extensions,
        entries: entries.into(),
    })
}

fn old_decode_candidates(reader: &mut OldReader<'_>) -> Result<Vec<Candidate>> {
    let n = usize::try_from(reader.get_varint()?)
        .ok()
        .filter(|&n| n <= 1_000_000)
        .ok_or_else(|| IrecError::decode("implausible candidate count"))?;
    let mut candidates = Vec::with_capacity(bounded_reservation(n, reader.remaining()));
    for _ in 0..n {
        let pcb = old_decode_pcb(reader)?;
        let ingress = IfId(reader.get_u32v()?);
        candidates.push(Candidate::new(pcb, ingress));
    }
    Ok(candidates)
}

/// A `u64` whose varint is any of the ten lengths, each about as likely as the others.
fn any_length_u64(rng: &mut TestRng) -> u64 {
    rng.next_u64() >> rng.below(64)
}

/// A `u32` whose varint is any of its five lengths.
fn any_length_u32(rng: &mut TestRng) -> u32 {
    (rng.next_u64() >> 32) as u32 >> rng.below(32)
}

fn digest(rng: &mut TestRng) -> Digest {
    let mut bytes = [0u8; DIGEST_LEN];
    for chunk in bytes.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    Digest(bytes)
}

/// A coordinate pair: on the micro-degree grid when `on_grid`, anywhere in range otherwise.
fn location(rng: &mut TestRng, on_grid: bool) -> GeoCoord {
    if on_grid {
        let lat = rng.below(180_000_001) as i64 - 90_000_000;
        let lon = rng.below(360_000_001) as i64 - 180_000_000;
        GeoCoord::new(lat as f64 / 1e6, lon as f64 / 1e6)
    } else {
        GeoCoord::new(
            rng.unit_f64() * 180.0 - 90.0,
            rng.unit_f64() * 360.0 - 180.0,
        )
    }
}

/// An unsigned beacon of 0 to `max_hops` hops: every integer of any encoded length its
/// type allows, each extension and each location present or not.
fn beacon(rng: &mut TestRng, max_hops: u64, on_grid: bool) -> Pcb {
    let mut extensions = PcbExtensions::none();
    if rng.below(2) == 0 {
        extensions = extensions.with_target(AsId(any_length_u64(rng)));
    }
    if rng.below(2) == 0 {
        extensions = extensions.with_algorithm(AlgorithmRef::new(
            AlgorithmId(any_length_u64(rng)),
            digest(rng),
        ));
    }
    if rng.below(2) == 0 {
        extensions = extensions.with_interface_group(InterfaceGroupId(any_length_u32(rng)));
    }
    let entries = (0..rng.below(max_hops + 1))
        .map(|_| AsEntry {
            hop: HopInfo {
                asn: AsId(any_length_u64(rng)),
                ingress: IfId(any_length_u32(rng)),
                egress: IfId(any_length_u32(rng)),
            },
            static_info: StaticInfo {
                link_latency: Latency::from_micros(any_length_u64(rng)),
                link_bandwidth: Bandwidth(any_length_u64(rng)),
                intra_latency: Latency::from_micros(any_length_u64(rng)),
                egress_location: (rng.below(2) == 0).then(|| location(rng, on_grid)),
            },
            signature: Signature {
                signer: AsId(any_length_u64(rng)),
                tag: digest(rng),
            },
        })
        .collect();
    Pcb {
        origin_isd: IsdId(any_length_u32(rng) as u16),
        origin: AsId(any_length_u64(rng)),
        sequence: any_length_u64(rng),
        created_at: SimTime::from_micros(any_length_u64(rng)),
        expires_at: SimTime::from_micros(any_length_u64(rng)),
        extensions,
        entries,
    }
}

/// `count` stored beacons of 0–3 hops: an envelope adds nothing to how a long beacon is
/// read, and every one of its bytes is cut at, spliced over and mutated below.
fn stored(rng: &mut TestRng, count: u64, on_grid: bool) -> Vec<Arc<StoredBeacon>> {
    (0..count)
        .map(|_| {
            Arc::new(StoredBeacon {
                pcb: beacon(rng, 3, on_grid),
                ingress: IfId(any_length_u32(rng)),
                received_at: SimTime::ZERO,
            })
        })
        .collect()
}

/// What both decoders made of `bytes`: the same value — returned from both, for the caller
/// to compare what `==` does not see — or errors of the same category.
fn agreed<T: PartialEq + std::fmt::Debug>(
    bytes: &[u8],
    new: Result<T>,
    old: Result<T>,
) -> Option<(T, T)> {
    match (new, old) {
        (Ok(new), Ok(old)) => {
            assert_eq!(new, old, "input {bytes:02x?}");
            Some((new, old))
        }
        (Err(new), Err(old)) => {
            assert_eq!(new.category(), old.category(), "input {bytes:02x?}");
            assert_eq!(new.category(), "decode");
            None
        }
        (new, old) => panic!("input {bytes:02x?}: codec {new:?}, oracle {old:?}"),
    }
}

/// Both decoders over `bytes` as a top-level beacon: the same beacon — owning every entry,
/// entry capacity included, and never beyond what `bounded_reservation` allows — or errors
/// of the same category. Returns what they agreed on.
fn beacons_agree(bytes: &[u8]) -> Option<Pcb> {
    let old = old_from_bytes(bytes, old_decode_pcb);
    let (new, old) = agreed(bytes, from_bytes::<Pcb>(bytes), old)?;
    owns_the_same_entries(&new, &old);
    assert!(new.entries.owned().capacity() <= bounded_reservation(new.entries.len(), bytes.len()));
    Some(new)
}

/// A decoded beacon is one contiguous candidate: nothing shared, reserved as the oracle's.
fn owns_the_same_entries(new: &Pcb, old: &Pcb) {
    assert!(new.entries.upstream().is_none());
    assert_eq!(new.entries.owned().len(), new.entries.len());
    assert_eq!(
        new.entries.owned().capacity(),
        old.entries.owned().capacity()
    );
}

/// [`beacons_agree`] for a candidate envelope.
fn envelopes_agree(bytes: &[u8]) -> Option<Vec<Candidate>> {
    let new = from_bytes::<CandidateEnvelope>(bytes).map(|envelope| envelope.candidates);
    let (new, old) = agreed(bytes, new, old_from_bytes(bytes, old_decode_candidates))?;
    assert_eq!(new.capacity(), old.capacity());
    for (new, old) in new.iter().zip(&old) {
        owns_the_same_entries(&new.pcb, &old.pcb);
    }
    Some(new)
}

fn canonical_varint(value: u64) -> Vec<u8> {
    let mut tmp = [0u8; MAX_VARINT_LEN];
    let len = write_varint(value, &mut tmp);
    tmp[..len].to_vec()
}

/// What a hostile sender can write where a varint belongs: the same value one byte longer
/// than it needs to be, ten `ff`s (a 10th byte worth more than the one bit left), nine
/// `ff`s and a 10th byte of 2, an 11th byte, a varint that never ends, and the largest
/// values each width admits and the first it does not.
fn hostile_varints(canonical: &[u8]) -> Vec<Vec<u8>> {
    let mut padded = canonical.to_vec();
    *padded.last_mut().expect("a varint has a byte") |= 0x80;
    padded.push(0x00);
    let mut eleven = vec![0x80; MAX_VARINT_LEN];
    eleven.push(0x00);
    let mut overflowing = vec![0xff; MAX_VARINT_LEN - 1];
    overflowing.push(0x02);
    let mut ten_long_and_continued = vec![0xff; MAX_VARINT_LEN - 1];
    ten_long_and_continued.push(0x81);
    vec![
        padded,
        vec![0x80, 0x00],
        vec![0xff; MAX_VARINT_LEN],
        overflowing,
        eleven,
        ten_long_and_continued,
        canonical_varint(u64::from(u16::MAX)),
        canonical_varint(u64::from(u16::MAX) + 1),
        canonical_varint(u64::from(u32::MAX)),
        canonical_varint(u64::from(u32::MAX) + 1),
        canonical_varint(u64::MAX),
    ]
}

/// Every input made from the encoding in `w` by replacing one field with a hostile form of
/// it: varints by [`hostile_varints`], counts also by the caps and what lies just past
/// them, booleans by a byte that is not one (every such byte: `every_boolean_byte_…`).
fn splices(w: &OldWriter, rng: &mut TestRng) -> Vec<Vec<u8>> {
    let mut inputs = Vec::new();
    for (index, &(_, field)) in w.fields.iter().enumerate() {
        let span = w.span(index);
        let replacements: Vec<Vec<u8>> = match field {
            Field::Varint => hostile_varints(&w.buf[span.clone()]),
            Field::Count => {
                let mut forms = hostile_varints(&w.buf[span.clone()]);
                forms.extend([1024, 1025, 1_000_000, 1_000_001].map(canonical_varint));
                forms
            }
            Field::Bool => vec![vec![2 + rng.below(254) as u8]],
            Field::Opaque => Vec::new(),
        };
        for replacement in replacements {
            let mut input = w.buf[..span.start].to_vec();
            input.extend_from_slice(&replacement);
            input.extend_from_slice(&w.buf[span.end..]);
            inputs.push(input);
        }
    }
    inputs
}

/// Everything a hostile sender can make of the valid encoding in `w`, through `decodes`
/// (one of the `…_agree` checks, reduced to whether the input decoded): every truncation
/// and a trailing byte, which must not decode; every splice; 256 single-byte and single-bit
/// mutations anywhere.
fn hostile_inputs_agree(w: &OldWriter, rng: &mut TestRng, decodes: impl Fn(&[u8]) -> bool) {
    for cut in 0..w.buf.len() {
        assert!(!decodes(&w.buf[..cut]), "prefix of {cut} bytes decoded");
    }
    let mut trailing = w.buf.clone();
    trailing.push(rng.next_u64() as u8);
    assert!(!decodes(&trailing), "trailing byte accepted");
    for input in splices(w, rng) {
        decodes(&input);
    }
    for _ in 0..256 {
        let mut mutated = w.buf.clone();
        let at = rng.below(mutated.len() as u64) as usize;
        if rng.below(2) == 0 {
            mutated[at] = rng.next_u64() as u8;
        } else {
            mutated[at] ^= 1 << rng.below(8);
        }
        decodes(&mutated);
    }
}

proptest! {
    #[test]
    fn prop_beacons_encode_and_decode_like_the_oracle(seed in any::<u64>(), on_grid in any::<bool>()) {
        let mut rng = TestRng::new(seed);
        let pcb = beacon(&mut rng, 12, on_grid);
        let mut w = OldWriter::default();
        old_encode_pcb(&pcb, &mut w);
        // Same bytes from every way of encoding a beacon...
        prop_assert_eq!(&to_bytes(&pcb), &w.buf);
        prop_assert_eq!(&pcb.wire_bytes(), &w.buf);
        let mut appended = WireWriter::with_capacity(3);
        appended.put_u8(0xaa);
        pcb.encode(&mut appended);
        prop_assert_eq!(&appended.as_slice()[1..], &w.buf[..]);
        prop_assert!(w.buf.starts_with(&pcb.header_bytes()));
        // ...which both decoders read back to the same beacon: the beacon itself when its
        // coordinates are on the wire's grid, and in any case one that encodes to the same
        // bytes.
        let decoded = beacons_agree(&w.buf).expect("a valid encoding decodes");
        if on_grid {
            prop_assert_eq!(&decoded, &pcb);
        }
        prop_assert_eq!(&to_bytes(&decoded), &w.buf);
        hostile_inputs_agree(&w, &mut rng, |input| beacons_agree(input).is_some());
    }

    #[test]
    fn prop_envelopes_encode_and_decode_like_the_oracle(seed in any::<u64>(), count in 0u64..7, on_grid in any::<bool>()) {
        let mut rng = TestRng::new(seed);
        let beacons = stored(&mut rng, count, on_grid);
        let mut w = OldWriter::default();
        old_encode_candidates(&beacons, &mut w);
        let bytes = encode_candidates(&beacons);
        prop_assert_eq!(&bytes, &w.buf);
        let candidates = envelopes_agree(&bytes).expect("a valid envelope decodes");
        prop_assert_eq!(candidates.len(), beacons.len());
        for (candidate, stored) in candidates.iter().zip(&beacons) {
            if on_grid {
                prop_assert_eq!(&candidate.pcb, &stored.pcb);
            }
            prop_assert_eq!(candidate.pcb.wire_bytes(), stored.pcb.wire_bytes());
            prop_assert_eq!(candidate.ingress, stored.ingress);
        }
        hostile_inputs_agree(&w, &mut rng, |input| envelopes_agree(input).is_some());
    }

    #[test]
    fn prop_random_bytes_decode_like_the_oracle(seed in any::<u64>(), len in 0usize..600, shape in 0u8..4) {
        let mut rng = TestRng::new(seed);
        // Uniform bytes die in the first fields; small bytes (mostly one-byte varints and
        // valid booleans) and bytes with the continuation bit set get further in.
        let bytes: Vec<u8> = (0..len)
            .map(|_| {
                let byte = rng.next_u64() as u8;
                match shape {
                    0 => byte,
                    1 => byte & 0x01,
                    2 => byte & 0x83,
                    _ => byte | 0x80,
                }
            })
            .collect();
        beacons_agree(&bytes);
        envelopes_agree(&bytes);
    }
}

/// A valid encoding with each boolean in turn replaced by every byte from 2 to 255.
#[test]
fn every_boolean_byte_but_0_and_1_is_refused() {
    let mut rng = TestRng::new(19);
    let beacons = stored(&mut rng, 2, true);
    let mut w = OldWriter::default();
    old_encode_candidates(&beacons, &mut w);
    let booleans: Vec<usize> = w
        .fields
        .iter()
        .filter(|&&(_, field)| field == Field::Bool)
        .map(|&(at, _)| at)
        .collect();
    assert!(booleans.len() >= 6, "three extension flags per beacon");
    for at in booleans {
        for byte in 2..=255u8 {
            let mut input = w.buf.clone();
            input[at] = byte;
            assert!(
                envelopes_agree(&input).is_none(),
                "boolean byte {byte} accepted"
            );
        }
    }
}

/// Counts the input cannot back, at and past both caps, in front of nothing and in front
/// of bytes that could hold a few entries: refused by both, whatever follows.
#[test]
fn hostile_counts_are_refused_like_the_oracle() {
    let mut rng = TestRng::new(23);
    let header = {
        let mut w = OldWriter::default();
        old_encode_pcb(&beacon(&mut rng, 2, true), &mut w);
        let count = w
            .fields
            .iter()
            .position(|&(_, field)| field == Field::Count)
            .expect("a beacon has an entry count");
        w.buf[..w.fields[count].0].to_vec()
    };
    for count in [1024u64, 1025, 1_000_000, 1_000_001, u64::MAX] {
        for tail in [0usize, 1, 39, 40, 200] {
            let mut as_envelope = canonical_varint(count);
            as_envelope.extend(std::iter::repeat_n(0x01, tail));
            let mut as_beacon = header.clone();
            as_beacon.extend_from_slice(&as_envelope);
            assert!(beacons_agree(&as_beacon).is_none());
            assert!(envelopes_agree(&as_envelope).is_none());
        }
    }
}

/// Fixed-width coordinates at the edges of the accepted range and far outside it, written
/// over both coordinates of a located hop: both decoders draw the line at the same
/// micro-degree.
#[test]
fn coordinates_at_the_edge_of_the_range_decode_like_the_oracle() {
    let mut rng = TestRng::new(29);
    let mut pcb = beacon(&mut rng, 0, true);
    pcb.entries.push(AsEntry {
        hop: HopInfo::origin(pcb.origin, IfId(1)),
        static_info: StaticInfo::origin(
            Latency::from_millis(1),
            Bandwidth::from_mbps(1),
            Some(GeoCoord::new(47.3769, 8.5417)),
        ),
        signature: Signature::placeholder(pcb.origin),
    });
    let mut w = OldWriter::default();
    old_encode_pcb(&pcb, &mut w);
    let coordinates: Vec<std::ops::Range<usize>> = (0..w.fields.len())
        .filter(|&index| w.fields[index].1 == Field::Opaque)
        .map(|index| w.span(index))
        .filter(|span| span.len() == 8)
        .collect();
    assert_eq!(coordinates.len(), 2);
    for span in coordinates {
        for (raw, accepted) in [
            (0u64, true),
            (1, true),
            (360_000_000, true),
            (719_999_999, true),
            (720_000_000, true),
            (720_000_001, false),
            (720_000_002, false),
            (1 << 53, false),
            (1 << 63, false),
            (u64::MAX, false),
        ] {
            let mut input = w.buf.clone();
            input[span.clone()].copy_from_slice(&raw.to_be_bytes());
            assert_eq!(
                beacons_agree(&input).is_some(),
                accepted,
                "coordinate {raw}"
            );
        }
    }
}

/// A beacon of exactly 1 024 entries decodes; one more entry — all of them present on the
/// wire — is refused by both decoders.
#[test]
fn the_entry_count_cap_holds_with_every_entry_present() {
    let entry = AsEntry {
        hop: HopInfo::origin(AsId(1), IfId(1)),
        static_info: StaticInfo::empty(),
        signature: Signature::placeholder(AsId(1)),
    };
    let mut pcb = beacon(&mut TestRng::new(31), 0, true);
    pcb.entries = vec![entry.clone(); 1024].into();
    let at_the_cap = beacons_agree(&to_bytes(&pcb)).expect("1 024 entries are accepted");
    assert_eq!(at_the_cap.entries.len(), 1024);
    pcb.entries.push(entry);
    assert!(beacons_agree(&to_bytes(&pcb)).is_none());
}
