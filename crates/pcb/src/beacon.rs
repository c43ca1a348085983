//! The path-construction beacon itself.

use crate::chain::HopChain;
use crate::extensions::PcbExtensions;
use crate::hop::{AsEntry, HopInfo, StaticInfo};
use irec_crypto::{Digest, PartialSignature, Sha256, Signer, Verifier};
use irec_types::{AsId, IfId, IrecError, IsdId, PathMetrics, Result, SimTime};
use irec_wire::{write_varint, Decode, Encode, WireReader, WireWriter, MAX_VARINT_LEN};
use std::sync::Arc;

/// Wire size the encoders reserve for a beacon header (measured headers are 10–60 bytes).
const HEADER_WIRE_HINT: usize = 64;
/// Wire size the encoders reserve per AS entry (measured entries are 50–70 bytes).
const ENTRY_WIRE_HINT: usize = 96;
/// The smallest possible wire size of one AS entry: seven one-byte fields (hop AS, ingress,
/// egress, three static-info integers, the location flag), a one-byte signer and the tag.
const MIN_ENTRY_WIRE_LEN: usize = 8 + irec_crypto::DIGEST_LEN;

/// How many elements a decoder may reserve for when the input claims `claimed` of them
/// and `remaining` bytes are left, each element holding at least one AS entry: never more
/// than the input could still contain, so a hostile count cannot buy an allocation.
pub fn bounded_reservation(claimed: usize, remaining: usize) -> usize {
    claimed.min(remaining / MIN_ENTRY_WIRE_LEN)
}

/// Identifier of a PCB: the SHA-256 digest of its canonical wire encoding.
///
/// The egress database deduplicates on this id (the paper stores "only their hashes" there).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PcbId(pub Digest);

impl core::hash::Hash for PcbId {
    /// Feeds the hasher 64 bits of the id instead of all 256: the id is a SHA-256 digest,
    /// so any 64 of its bits are as well spread as the whole, and a map keyed by ids — one
    /// probe per selected beacon per round at the egress gateway — spends its time on the
    /// hasher. Maps keep their keyed default hasher on top of this, and two ids that are
    /// to collide under every key must agree in these 64 bits.
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.short());
    }
}

impl PcbId {
    /// A short (64-bit) form of the id, convenient for logs and maps in tests.
    pub fn short(&self) -> u64 {
        self.0.short()
    }
}

/// A beacon's signing buffer: `header ‖ entry_0 ‖ … ‖ entry_{n-1}`, i.e. the canonical
/// encoding without the entry count. Every signed payload is a prefix of it (see
/// [`SigningBuffer::with_signed_payload`]) and the [`PcbId`] is a hash over its two halves,
/// so one encode serves every signature and the id.
struct SigningBuffer {
    writer: WireWriter,
    header_len: usize,
}

impl SigningBuffer {
    /// Starts the buffer with `pcb`'s header, reserving room for `entries` entries.
    fn with_header(pcb: &Pcb, entries: usize) -> Self {
        let mut writer = WireWriter::with_capacity(HEADER_WIRE_HINT + entries * ENTRY_WIRE_HINT);
        pcb.encode_header(&mut writer);
        let header_len = writer.len();
        SigningBuffer { writer, header_len }
    }

    /// Appends the signed content of the next entry (hop and static info) and hands `f`
    /// what that entry's signature covers — `varint(len(prefix)) ‖ prefix ‖ hop ‖
    /// static_info`, where `prefix` is everything appended before — as two parts: the
    /// length prefix from the stack and the buffer itself. The caller appends the entry's
    /// signature afterwards.
    fn with_signed_payload<R>(
        &mut self,
        hop: &HopInfo,
        static_info: &StaticInfo,
        f: impl FnOnce(&[&[u8]]) -> R,
    ) -> R {
        let mut prefix_len = [0u8; MAX_VARINT_LEN];
        let used = write_varint(self.writer.len() as u64, &mut prefix_len);
        hop.encode(&mut self.writer);
        static_info.encode(&mut self.writer);
        f(&[&prefix_len[..used], self.writer.as_slice()])
    }

    /// The id of a beacon with `entries` entries whose header and entries this buffer
    /// holds: the hash of `header ‖ varint(entries) ‖ entries`, streamed from the buffer.
    fn id(&self, entries: usize) -> PcbId {
        let (header, body) = self.writer.as_slice().split_at(self.header_len);
        let mut count = [0u8; MAX_VARINT_LEN];
        let used = write_varint(entries as u64, &mut count);
        let mut hasher = Sha256::new();
        hasher.update(header);
        hasher.update(&count[..used]);
        hasher.update(body);
        PcbId(hasher.finalize())
    }
}

/// A path-construction beacon.
///
/// The beacon starts empty at the origin AS (only header + extensions) and grows by one
/// signed [`AsEntry`] per traversed AS. An AS holding a PCB with entries
/// `E1 (origin), …, Ek` knows a path from the origin's beacon interface to its own ingress
/// interface (the far end of `Ek`'s egress link).
#[derive(Debug, Clone, PartialEq)]
pub struct Pcb {
    /// Isolation domain of the origin AS.
    pub origin_isd: IsdId,
    /// The AS that originated the beacon.
    pub origin: AsId,
    /// Origin-assigned sequence number, distinguishing beacons originated in the same round.
    pub sequence: u64,
    /// Origination time.
    pub created_at: SimTime,
    /// Expiry time; expired beacons are dropped by ingress/egress databases.
    pub expires_at: SimTime,
    /// IREC extensions (target, algorithm, interface group).
    pub extensions: PcbExtensions,
    /// One signed entry per traversed AS, in propagation order (origin first).
    pub entries: HopChain,
}

impl Pcb {
    /// Creates a beacon at the origin AS with no AS entries yet.
    pub fn originate(
        origin: AsId,
        sequence: u64,
        created_at: SimTime,
        expires_at: SimTime,
        extensions: PcbExtensions,
    ) -> Self {
        Pcb {
            origin_isd: IsdId(1),
            origin,
            sequence,
            created_at,
            expires_at,
            extensions,
            entries: HopChain::new(),
        }
    }

    /// Number of AS entries (equals the number of traversed inter-domain links).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the beacon has no AS entries yet (it has not left the origin).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The AS that appended the last entry (the AS "closest" to the holder), or the origin if
    /// no entry exists yet.
    pub fn last_as(&self) -> AsId {
        self.entries
            .last()
            .map(|e| e.hop.asn)
            .unwrap_or(self.origin)
    }

    /// The egress interface of the last entry (the interface over which the beacon was sent
    /// to its current holder).
    pub fn last_egress(&self) -> Option<IfId> {
        self.entries.last().map(|e| e.hop.egress)
    }

    /// The beacon interface at the origin: the egress interface of the first entry.
    pub fn origin_interface(&self) -> Option<IfId> {
        self.entries.first().map(|e| e.hop.egress)
    }

    /// All on-path AS ids in propagation order (origin first).
    pub fn hop_asns(&self) -> Vec<AsId> {
        self.entries.iter().map(|e| e.hop.asn).collect()
    }

    /// Whether `asn` already appears on the path (loop check).
    pub fn contains_as(&self, asn: AsId) -> bool {
        let (upstream, owned) = self.entries.slices();
        let on = |entries: &[AsEntry]| entries.iter().any(|e| e.hop.asn == asn);
        on(upstream) || on(owned)
    }

    /// Whether any AS appears more than once (a malformed/looping beacon).
    ///
    /// Runs on every verification, so it compares each hop with the ones before it instead
    /// of allocating a set: real beacons have a handful of hops, and a decoded one at most
    /// 1 024, whose signatures cost far more to check than this scan.
    pub fn has_loop(&self) -> bool {
        let (upstream, owned) = self.entries.slices();
        let among = |seen: &[AsEntry], e: &AsEntry| seen.iter().any(|p| p.hop.asn == e.hop.asn);
        let repeats = |entries: &[AsEntry], before: &[AsEntry]| {
            entries
                .iter()
                .enumerate()
                .any(|(i, e)| among(before, e) || among(&entries[..i], e))
        };
        repeats(upstream, &[]) || repeats(owned, upstream)
    }

    /// Whether the beacon is expired at `now`.
    pub fn is_expired(&self, now: SimTime) -> bool {
        now.is_at_or_after(self.expires_at)
    }

    /// The accumulated performance metrics of the path described by this beacon, from the
    /// origin's beacon interface to the ingress interface of the beacon's current holder.
    pub fn path_metrics(&self) -> PathMetrics {
        let (upstream, owned) = self.entries.slices();
        let mut metrics = PathMetrics::EMPTY;
        for entries in [upstream, owned] {
            for entry in entries {
                metrics = metrics.extend_intra(irec_types::LinkMetrics::new(
                    entry.static_info.intra_latency,
                    irec_types::Bandwidth::MAX,
                ));
                metrics = metrics.extend(irec_types::LinkMetrics::new(
                    entry.static_info.link_latency,
                    entry.static_info.link_bandwidth,
                ));
            }
        }
        metrics
    }

    /// Identifies every inter-domain link on the path by `(AS, egress interface)` of the
    /// entry that crossed it. Because an interface attaches exactly one link, this uniquely
    /// identifies links and is the basis of the disjointness metrics (TLF) and of the
    /// pull-based disjointness algorithm's link-avoidance sets.
    pub fn link_keys(&self) -> Vec<(AsId, IfId)> {
        self.links().collect()
    }

    /// [`Pcb::link_keys`] read in place, for callers that only compare or hash the sequence.
    pub fn links(&self) -> impl ExactSizeIterator<Item = (AsId, IfId)> + '_ {
        self.entries.iter().map(|e| (e.hop.asn, e.hop.egress))
    }

    /// Canonical encoding of the beacon header (everything the origin signs besides its own
    /// hop entry: origin, sequence, validity, extensions).
    pub fn header_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::with_capacity(HEADER_WIRE_HINT);
        self.encode_header(&mut w);
        w.into_bytes()
    }

    #[inline]
    fn encode_header(&self, w: &mut WireWriter) {
        w.put_varint(self.origin_isd.0 as u64);
        w.put_varint(self.origin.value());
        w.put_varint(self.sequence);
        w.put_varint(self.created_at.as_micros());
        w.put_varint(self.expires_at.as_micros());
        self.extensions.encode(w);
    }

    /// The entries back to back, without their count. Two loops, not one over both halves:
    /// the single loop encodes a candidate set ≈ 10 % slower.
    #[inline]
    fn encode_entries(&self, w: &mut WireWriter) {
        let (upstream, owned) = self.entries.slices();
        for entry in upstream {
            entry.encode(w);
        }
        for entry in owned {
            entry.encode(w);
        }
    }

    /// Appends a signed AS entry: the AS `signer.asn()` propagates the beacon from ingress
    /// interface `ingress` out of egress interface `egress`, sharing `static_info`.
    ///
    /// Fails if the AS is already on the path (which would create a loop). This is the
    /// one-interface use of [`HopExtender`].
    pub fn extend(
        &mut self,
        ingress: IfId,
        egress: IfId,
        static_info: StaticInfo,
        signer: &Signer,
    ) -> Result<()> {
        let entry = HopExtender::new(self, ingress, signer)?.entry(egress, static_info)?;
        self.entries.push(entry);
        Ok(())
    }

    /// Verifies every entry's signature and basic well-formedness (origin entry first, no
    /// loops, monotone structure). This is what the ingress gateway runs on received PCBs.
    ///
    /// The beacon is encoded once: each entry's signed payload is a prefix of one growing
    /// buffer and is streamed into the MAC from there, so `n` hops cost O(n) encoded bytes
    /// and no per-hop allocation. (The bytes *hashed* stay O(n²) — every hop signs the
    /// whole prefix before it, which is the format, not the implementation.)
    pub fn verify(&self, verifier: &Verifier) -> Result<()> {
        self.verify_into_buffer(verifier).map(|_| ())
    }

    /// [`Pcb::verify`], returning the beacon's id hashed from the buffer the verification
    /// built — the one place a receiving AS needs to compute the identity of a beacon.
    pub fn verify_with_id(&self, verifier: &Verifier) -> Result<PcbId> {
        let buffer = self.verify_into_buffer(verifier)?;
        Ok(buffer.id(self.entries.len()))
    }

    fn verify_into_buffer(&self, verifier: &Verifier) -> Result<SigningBuffer> {
        if self.has_loop() {
            return Err(IrecError::policy("beacon path contains a loop"));
        }
        if self.expires_at <= self.created_at {
            return Err(IrecError::policy("beacon expires before it was created"));
        }
        let mut buffer = SigningBuffer::with_header(self, self.entries.len());
        for (i, entry) in self.entries.iter().enumerate() {
            if i == 0 {
                if entry.hop.asn != self.origin || !entry.hop.is_origin() {
                    return Err(IrecError::verification(
                        "first entry is not a valid origin entry",
                    ));
                }
            } else if entry.hop.is_origin() {
                return Err(IrecError::verification(format!(
                    "transit entry {i} is missing an ingress interface"
                )));
            }
            buffer.with_signed_payload(&entry.hop, &entry.static_info, |parts| {
                verifier.verify_from(entry.hop.asn, parts, &entry.signature)
            })?;
            entry.encode_signature(&mut buffer.writer);
        }
        Ok(buffer)
    }

    /// The content digest of the beacon (hash of its canonical wire encoding).
    ///
    /// Encodes and hashes on every call and is deliberately not memoised — the fields are
    /// public and mutable, so a cached value could go stale. Code that touches a beacon
    /// repeatedly carries the id computed once: `irec_core` and the simulator's delivery
    /// carry the one [`Pcb::verify_with_id`] returned at ingress, whether it ran inline or
    /// ahead of delivery. A received beacon is hashed here only where no verification
    /// precedes: a pull return its origin registers (`IrecNode::handle_pull_return`) and a
    /// beacon stored without an id (`IngressDb::insert`).
    pub fn digest(&self) -> PcbId {
        PcbId(irec_crypto::sha256(&self.wire_bytes()))
    }

    /// The canonical wire encoding of the beacon — what [`Pcb::digest`] hashes.
    pub fn wire_bytes(&self) -> Vec<u8> {
        let mut w =
            WireWriter::with_capacity(HEADER_WIRE_HINT + self.entries.len() * ENTRY_WIRE_HINT);
        self.encode(&mut w);
        w.into_bytes()
    }
}

/// Extends one beacon through one AS onto any number of egress interfaces.
///
/// Every entry an AS appends to one beacon signs `varint(len(prefix)) ‖ prefix ‖ hop ‖
/// static_info` with the same `prefix = header ‖ entries`; only the hop's egress interface
/// and its static info differ per interface. The extender runs the checks, encodes the
/// prefix and absorbs `varint(len(prefix)) ‖ prefix` into the signer's keyed MAC state
/// once; each interface then costs a copy of that state, the few bytes of its own
/// `hop ‖ static_info`, and the finalization.
///
/// The beacons it hands out share the extended beacon's entries the same way: its chain
/// becomes one allocation the first time [`HopExtender::extended`] is called, and every
/// beacon leaving through any interface refers to it and owns only its own new entry.
pub struct HopExtender<'a> {
    pcb: &'a Pcb,
    /// `pcb`'s whole chain as the upstream half of the beacons handed out, once built.
    upstream: Option<Arc<[AsEntry]>>,
    asn: AsId,
    ingress: IfId,
    /// The signature every entry starts from: `varint(len(prefix)) ‖ prefix` absorbed.
    prefix: PartialSignature,
    /// The buffer the prefix was encoded in, reused for each entry's `hop ‖ static_info`.
    tail: WireWriter,
}

impl<'a> HopExtender<'a> {
    /// Prepares extending `pcb`, received on `ingress`, through the AS of `signer`.
    ///
    /// Fails if the AS is already on the path (which would create a loop), if the first
    /// entry is not the origin's own or names an ingress interface, or if a transit entry
    /// names none.
    pub fn new(pcb: &'a Pcb, ingress: IfId, signer: &Signer) -> Result<Self> {
        let asn = signer.asn();
        if pcb.contains_as(asn) {
            return Err(IrecError::policy(format!(
                "extending PCB through {asn} would create a loop"
            )));
        }
        if pcb.is_empty() {
            // The first entry must come from the origin AS itself, with no ingress.
            if asn != pcb.origin {
                return Err(IrecError::policy(format!(
                    "first entry must be appended by the origin {} (got {asn})",
                    pcb.origin
                )));
            }
            if !ingress.is_none() {
                return Err(IrecError::policy(
                    "origin entry must not have an ingress interface",
                ));
            }
        } else if ingress.is_none() {
            return Err(IrecError::policy(
                "transit entry requires an ingress interface",
            ));
        }

        let mut buffer =
            WireWriter::with_capacity(HEADER_WIRE_HINT + pcb.entries.len() * ENTRY_WIRE_HINT);
        pcb.encode_header(&mut buffer);
        pcb.encode_entries(&mut buffer);
        let mut prefix_len = [0u8; MAX_VARINT_LEN];
        let used = write_varint(buffer.len() as u64, &mut prefix_len);
        let mut prefix = signer.begin();
        prefix.update(&prefix_len[..used]);
        prefix.update(buffer.as_slice());
        Ok(HopExtender {
            pcb,
            upstream: None,
            asn,
            ingress,
            prefix,
            tail: buffer,
        })
    }

    /// The signed entry with which the beacon leaves through `egress`.
    pub fn entry(&mut self, egress: IfId, static_info: StaticInfo) -> Result<AsEntry> {
        if egress.is_none() {
            return Err(IrecError::policy("an entry requires an egress interface"));
        }
        let hop = HopInfo {
            asn: self.asn,
            ingress: self.ingress,
            egress,
        };
        self.tail.clear();
        hop.encode(&mut self.tail);
        static_info.encode(&mut self.tail);
        Ok(AsEntry {
            hop,
            static_info,
            signature: self.prefix.sign_with_tail(self.tail.as_slice()),
        })
    }

    /// The beacon as it leaves through `egress`: the header, a reference to the chain all
    /// beacons of this extender share, and the one entry of [`HopExtender::entry`] in an
    /// allocation of exactly that size — the receiver stores this very value, and a stored
    /// beacon never grows, so spare capacity would be carried unused by every one of them.
    pub fn extended(&mut self, egress: IfId, static_info: StaticInfo) -> Result<Pcb> {
        let entry = self.entry(egress, static_info)?;
        if self.upstream.is_none() {
            self.upstream = self.pcb.entries.shared();
        }
        let entries = HopChain::extending(self.upstream.clone(), entry);
        Ok(Pcb {
            origin_isd: self.pcb.origin_isd,
            origin: self.pcb.origin,
            sequence: self.pcb.sequence,
            created_at: self.pcb.created_at,
            expires_at: self.pcb.expires_at,
            extensions: self.pcb.extensions,
            entries,
        })
    }
}

impl Encode for Pcb {
    fn encode(&self, writer: &mut WireWriter) {
        self.encode_header(writer);
        writer.put_varint(self.entries.len() as u64);
        self.encode_entries(writer);
    }
}

impl Decode for Pcb {
    // Inlined into its two callers (the candidate envelope's decoder and `from_bytes`):
    // returned through memory, the 152-byte beacon is copied out of the `Result` and again
    // into the caller's `Vec` by calls the compiler no longer expands in place at this
    // size — ≈ 30 ns per candidate that assembling the beacon where it ends up avoids.
    #[inline]
    fn decode(reader: &mut WireReader<'_>) -> Result<Self> {
        // The whole beacon is read through a copy of the cursor: a local whose address is
        // never taken stays in registers, where the caller's reader would be loaded and
        // stored back around every field. The caller's reader moves once, past a beacon
        // that decoded.
        let mut cursor = reader.clone();
        let origin_isd =
            IsdId(u16::try_from(cursor.get_varint()?).map_err(|_| isd_out_of_range())?);
        let origin = AsId(cursor.get_varint()?);
        let sequence = cursor.get_varint()?;
        let created_at = SimTime::from_micros(cursor.get_varint()?);
        let expires_at = SimTime::from_micros(cursor.get_varint()?);
        let extensions = PcbExtensions::decode(&mut cursor)?;
        let count = usize::try_from(cursor.get_varint()?)
            .ok()
            .filter(|&count| count <= 1024)
            .ok_or_else(implausible_entry_count)?;
        let mut entries = Vec::with_capacity(bounded_reservation(count, cursor.remaining()));
        for _ in 0..count {
            entries.push(AsEntry::decode(&mut cursor)?);
        }
        *reader = cursor;
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
}

#[cold]
#[inline(never)]
fn isd_out_of_range() -> IrecError {
    IrecError::decode("ISD id out of range")
}

#[cold]
#[inline(never)]
fn implausible_entry_count() -> IrecError {
    IrecError::decode("implausible entry count")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatPcb;
    use irec_crypto::{KeyRegistry, Signer, Verifier};
    use irec_types::{Bandwidth, GeoCoord, InterfaceGroupId, Latency, SimDuration};
    use irec_wire::{from_bytes, to_bytes};
    use proptest::prelude::*;

    fn registry() -> KeyRegistry {
        KeyRegistry::with_ases(1, 32)
    }

    fn static_info(link_ms: u64, bw_mbps: u64, intra_ms: u64) -> StaticInfo {
        StaticInfo {
            link_latency: Latency::from_millis(link_ms),
            link_bandwidth: Bandwidth::from_mbps(bw_mbps),
            intra_latency: Latency::from_millis(intra_ms),
            egress_location: None,
        }
    }

    /// Builds a 3-AS beacon: AS1 (origin) -> AS2 -> AS3 (holder not yet appended).
    fn sample_pcb(reg: &KeyRegistry) -> Pcb {
        let mut pcb = Pcb::originate(
            AsId(1),
            7,
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_hours(6),
            PcbExtensions::none(),
        );
        let s1 = Signer::new(AsId(1), reg.clone());
        let s2 = Signer::new(AsId(2), reg.clone());
        pcb.extend(IfId::NONE, IfId(1), static_info(10, 100, 0), &s1)
            .unwrap();
        pcb.extend(IfId(4), IfId(5), static_info(5, 40, 2), &s2)
            .unwrap();
        pcb
    }

    #[test]
    fn originate_and_extend() {
        let reg = registry();
        let pcb = sample_pcb(&reg);
        assert_eq!(pcb.len(), 2);
        assert_eq!(pcb.hop_asns(), vec![AsId(1), AsId(2)]);
        assert_eq!(pcb.last_as(), AsId(2));
        assert_eq!(pcb.last_egress(), Some(IfId(5)));
        assert_eq!(pcb.origin_interface(), Some(IfId(1)));
        assert!(!pcb.is_empty());
    }

    #[test]
    fn path_metrics_accumulate() {
        let reg = registry();
        let pcb = sample_pcb(&reg);
        let m = pcb.path_metrics();
        // 10ms + (2ms intra + 5ms link) = 17ms, bottleneck 40 Mbps, 2 hops.
        assert_eq!(m.latency, Latency::from_millis(17));
        assert_eq!(m.bandwidth, Bandwidth::from_mbps(40));
        assert_eq!(m.hops, 2);
    }

    #[test]
    fn verify_accepts_valid_beacon() {
        let reg = registry();
        let pcb = sample_pcb(&reg);
        let verifier = Verifier::new(reg);
        assert!(pcb.verify(&verifier).is_ok());
    }

    #[test]
    fn verify_rejects_tampered_static_info() {
        let reg = registry();
        let mut pcb = sample_pcb(&reg);
        pcb.entries.to_mut()[1].static_info.link_latency = Latency::from_millis(1);
        let verifier = Verifier::new(reg);
        assert!(pcb.verify(&verifier).is_err());
    }

    #[test]
    fn verify_rejects_tampered_extensions() {
        let reg = registry();
        let mut pcb = sample_pcb(&reg);
        pcb.extensions = PcbExtensions::none().with_target(AsId(9));
        let verifier = Verifier::new(reg);
        assert!(pcb.verify(&verifier).is_err());
    }

    #[test]
    fn verify_rejects_reordered_entries() {
        let reg = registry();
        let mut pcb = sample_pcb(&reg);
        pcb.entries.to_mut().swap(0, 1);
        let verifier = Verifier::new(reg);
        assert!(pcb.verify(&verifier).is_err());
    }

    #[test]
    fn loop_detection_finds_a_repeat_anywhere() {
        let reg = registry();
        let entry = |asn: u64| AsEntry {
            hop: HopInfo::transit(AsId(asn), IfId(1), IfId(2)),
            static_info: StaticInfo::empty(),
            signature: irec_crypto::Signature::placeholder(AsId(asn)),
        };
        let mut pcb = sample_pcb(&reg);
        assert!(!pcb.has_loop());
        pcb.entries = (0..40).map(|i| entry(1_000 + i)).collect();
        assert!(!pcb.has_loop());
        for repeated in [0, 17, 39] {
            pcb.entries.push(entry(1_000 + repeated));
            assert!(pcb.has_loop(), "repeat of hop {repeated}");
            pcb.entries.to_mut().pop();
        }
    }

    #[test]
    fn loop_prevention_on_extend() {
        let reg = registry();
        let mut pcb = sample_pcb(&reg);
        let s1 = Signer::new(AsId(1), reg);
        let err = pcb.extend(IfId(9), IfId(10), StaticInfo::empty(), &s1);
        assert!(err.is_err());
        assert_eq!(err.unwrap_err().category(), "policy");
    }

    #[test]
    fn first_entry_must_be_origin() {
        let reg = registry();
        let mut pcb = Pcb::originate(
            AsId(1),
            0,
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_hours(1),
            PcbExtensions::none(),
        );
        let s2 = Signer::new(AsId(2), reg.clone());
        assert!(pcb
            .extend(IfId::NONE, IfId(1), StaticInfo::empty(), &s2)
            .is_err());
        // Origin with an ingress interface is also invalid.
        let s1 = Signer::new(AsId(1), reg.clone());
        assert!(pcb
            .extend(IfId(3), IfId(1), StaticInfo::empty(), &s1)
            .is_err());
        // Missing egress is invalid.
        assert!(pcb
            .extend(IfId::NONE, IfId::NONE, StaticInfo::empty(), &s1)
            .is_err());
        // Correct origin entry works.
        assert!(pcb
            .extend(IfId::NONE, IfId(1), StaticInfo::empty(), &s1)
            .is_ok());
        // Transit entry without ingress is invalid.
        assert!(pcb
            .extend(IfId::NONE, IfId(1), StaticInfo::empty(), &s2)
            .is_err());
    }

    #[test]
    fn expiry_check() {
        let reg = registry();
        let pcb = sample_pcb(&reg);
        assert!(!pcb.is_expired(SimTime::ZERO + SimDuration::from_hours(1)));
        assert!(pcb.is_expired(SimTime::ZERO + SimDuration::from_hours(7)));
    }

    #[test]
    fn verify_rejects_invalid_validity_window() {
        let reg = registry();
        let mut pcb = sample_pcb(&reg);
        pcb.expires_at = SimTime::ZERO;
        let verifier = Verifier::new(reg);
        assert!(pcb.verify(&verifier).is_err());
    }

    #[test]
    fn wire_roundtrip_preserves_everything() {
        let reg = registry();
        let mut pcb = sample_pcb(&reg);
        pcb.extensions = PcbExtensions::none()
            .with_target(AsId(30))
            .with_interface_group(irec_types::InterfaceGroupId(2));
        let decoded: Pcb = from_bytes(&to_bytes(&pcb)).unwrap();
        assert_eq!(decoded, pcb);
        assert_eq!(decoded.digest(), pcb.digest());
    }

    #[test]
    fn a_beacon_with_locations_decodes_to_itself() {
        let reg = registry();
        let mut pcb = sample_pcb(&reg);
        let located = StaticInfo {
            egress_location: Some(GeoCoord::new(0.123456, 8.5417)),
            ..static_info(7, 10, 1)
        };
        pcb.extend(
            IfId(2),
            IfId(3),
            located,
            &Signer::new(AsId(3), reg.clone()),
        )
        .unwrap();
        let decoded: Pcb = from_bytes(&to_bytes(&pcb)).unwrap();
        assert_eq!(decoded, pcb);
        assert!(decoded.verify(&Verifier::new(reg)).is_ok());
    }

    #[test]
    fn decoding_moves_the_reader_past_a_beacon_that_decoded_and_only_then() {
        let reg = registry();
        let mut bytes = to_bytes(&sample_pcb(&reg));
        let len = bytes.len();
        bytes.extend_from_slice(&[0xaa, 0xbb]);
        let mut reader = WireReader::new(&bytes);
        assert!(Pcb::decode(&mut reader).is_ok());
        assert_eq!(reader.remaining(), 2);
        // A beacon that does not decode leaves the reader where it was.
        let mut reader = WireReader::new(&bytes[..len - 1]);
        assert!(Pcb::decode(&mut reader).is_err());
        assert_eq!(reader.remaining(), len - 1);
    }

    #[test]
    fn digest_changes_with_content() {
        let reg = registry();
        let pcb = sample_pcb(&reg);
        let mut other = pcb.clone();
        other.sequence += 1;
        assert_ne!(pcb.digest(), other.digest());
        assert_ne!(pcb.digest().short(), other.digest().short());
    }

    #[test]
    fn link_keys_identify_traversed_links() {
        let reg = registry();
        let pcb = sample_pcb(&reg);
        assert_eq!(
            pcb.link_keys(),
            vec![(AsId(1), IfId(1)), (AsId(2), IfId(5))]
        );
    }

    #[test]
    fn decode_rejects_absurd_entry_count() {
        let reg = registry();
        let pcb = sample_pcb(&reg);
        let mut bytes = Vec::new();
        // header
        bytes.extend_from_slice(&pcb.header_bytes());
        // entry count: huge
        let mut w = irec_wire::WireWriter::new();
        w.put_varint(1_000_000);
        bytes.extend_from_slice(w.as_slice());
        assert!(from_bytes::<Pcb>(&bytes).is_err());
    }

    #[test]
    fn entry_count_beyond_the_input_fails_without_reserving_for_it() {
        let reg = registry();
        let mut bytes = sample_pcb(&reg).header_bytes();
        let mut w = irec_wire::WireWriter::new();
        w.put_varint(1024);
        bytes.extend_from_slice(w.as_slice());
        // The largest accepted count followed by nothing: nothing is reserved, and
        // decoding the first entry fails.
        assert_eq!(bounded_reservation(1024, 0), 0);
        assert!(from_bytes::<Pcb>(&bytes).is_err());
        // Trailing garbage buys a reservation only for the entries it could hold.
        assert_eq!(bounded_reservation(1024, 3 * MIN_ENTRY_WIRE_LEN + 5), 3);
        assert_eq!(bounded_reservation(2, 10 * MIN_ENTRY_WIRE_LEN), 2);
        bytes.extend_from_slice(&[0xff; 3 * MIN_ENTRY_WIRE_LEN + 5]);
        assert!(from_bytes::<Pcb>(&bytes).is_err());
    }

    #[test]
    fn min_entry_wire_len_is_a_lower_bound() {
        let entry = AsEntry {
            hop: HopInfo::origin(AsId(0), IfId(0)),
            static_info: StaticInfo {
                link_latency: Latency::ZERO,
                link_bandwidth: Bandwidth(0),
                intra_latency: Latency::ZERO,
                egress_location: None,
            },
            signature: irec_crypto::Signature::placeholder(AsId(0)),
        };
        assert_eq!(to_bytes(&entry).len(), MIN_ENTRY_WIRE_LEN);
    }

    #[test]
    fn truncated_pcb_decoding_fails_gracefully() {
        let reg = registry();
        let pcb = sample_pcb(&reg);
        let bytes = to_bytes(&pcb);
        for cut in [1usize, bytes.len() / 2, bytes.len() - 1] {
            assert!(from_bytes::<Pcb>(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn empty_beacon_metrics_are_identity() {
        let pcb = Pcb::originate(
            AsId(1),
            0,
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_hours(1),
            PcbExtensions::none(),
        );
        assert!(pcb.is_empty());
        assert_eq!(pcb.path_metrics(), PathMetrics::EMPTY);
        assert_eq!(pcb.last_as(), AsId(1));
        assert_eq!(pcb.last_egress(), None);
        assert_eq!(pcb.origin_interface(), None);
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Golden vectors generated at the commit before the single-buffer rewrite (registry
    /// seed 7): the wire bytes, every hop's tag and the id of one fixed 3-hop beacon with
    /// target, algorithm and interface-group extensions and geo-coordinates. Signed bytes
    /// and `PcbId` are implementation-independent; this pins them.
    #[test]
    fn golden_vectors_are_frozen() {
        let registry = KeyRegistry::with_ases(7, 64);
        let start = SimTime::from_micros(1_500_000);
        let mut pcb = Pcb::originate(
            AsId(11),
            300,
            start,
            start + SimDuration::from_hours(6),
            PcbExtensions::none()
                .with_target(AsId(44))
                .with_algorithm(crate::AlgorithmRef::for_code(
                    irec_types::AlgorithmId(9),
                    b"golden module",
                ))
                .with_interface_group(InterfaceGroupId(2)),
        );
        type Hop = (u64, u32, u32, u64, u64, u64, Option<(f64, f64)>);
        let hops: [Hop; 3] = [
            (11, 0, 3, 12_000, 10_000, 0, Some((47.3769, 8.5417))),
            (22, 5, 130, 7_500, 400, 350, None),
            (
                33,
                70_000,
                2,
                20_000,
                2_500,
                1_200,
                Some((-33.8688, 151.2093)),
            ),
        ];
        for (asn, ingress, egress, lat_us, bw_mbps, intra_us, loc) in hops {
            pcb.extend(
                IfId(ingress),
                IfId(egress),
                StaticInfo {
                    link_latency: Latency::from_micros(lat_us),
                    link_bandwidth: Bandwidth::from_mbps(bw_mbps),
                    intra_latency: Latency::from_micros(intra_us),
                    egress_location: loc.map(|(lat, lon)| GeoCoord::new(lat, lon)),
                },
                &Signer::new(AsId(asn), registry.clone()),
            )
            .unwrap();
        }

        assert_eq!(
            hex(&to_bytes(&pcb)),
            "010bac02e0c65be0f6b2bc50012c01096a95d58aa2b144a2cac27ebd0d1c8235f8b56896f7f83f9c\
             ff4bac5318201ecc0102030b0003e05d80ade204000100000000184814040000000015f780040bd8\
             a7bc3ee5b4fc674133ab2a691523986cef1dd2a5024457820552958f516a5a16058201cc3a80b518\
             de0200167f1c450797ee95d832a5d394651bbd749cc5708ba693437239407911da97b56f21f0a204\
             02a09c01a0cb9801b009010000000013705e00000000001e786f54214af9faf0c7afaca19ba5c0cf\
             cd5c0725103117aa885843dfc57916788424165c"
        );
        let tags: Vec<String> = pcb
            .entries
            .iter()
            .map(|e| e.signature.tag.to_hex())
            .collect();
        assert_eq!(
            tags,
            [
                "d8a7bc3ee5b4fc674133ab2a691523986cef1dd2a5024457820552958f516a5a",
                "7f1c450797ee95d832a5d394651bbd749cc5708ba693437239407911da97b56f",
                "4af9faf0c7afaca19ba5c0cfcd5c0725103117aa885843dfc57916788424165c",
            ]
        );
        let id = "034328d1bc898bcec9899f7578b5c9fb32673aee0750ed98e9d277fa1c34657f";
        assert_eq!(pcb.digest().0.to_hex(), id);
        let verifier = Verifier::new(registry);
        assert_eq!(pcb.verify_with_id(&verifier).unwrap().0.to_hex(), id);
    }

    /// One generated hop: static-info fields plus whether a location is shared.
    type HopSpec = (u64, u64, u64, bool, f64, f64);

    /// A signed beacon of `hops.len()` hops through ASes 1, 2, … built with the streaming
    /// `extend`.
    fn generated_pcb(
        reg: &KeyRegistry,
        sequence: u64,
        group: Option<u32>,
        hops: &[HopSpec],
    ) -> Pcb {
        let mut extensions = PcbExtensions::none();
        if let Some(group) = group {
            extensions = extensions.with_interface_group(InterfaceGroupId(group));
        }
        let mut pcb = Pcb::originate(
            AsId(1),
            sequence,
            SimTime::from_micros(10),
            SimTime::from_micros(10) + SimDuration::from_hours(6),
            extensions,
        );
        for (i, &(lat_us, bw, intra_us, with_loc, lat, lon)) in hops.iter().enumerate() {
            let info = StaticInfo {
                link_latency: Latency::from_micros(lat_us),
                link_bandwidth: Bandwidth(bw),
                intra_latency: Latency::from_micros(intra_us),
                egress_location: with_loc.then(|| GeoCoord::new(lat, lon)),
            };
            let ingress = if i == 0 { IfId::NONE } else { IfId(7) };
            let signer = Signer::new(AsId(1 + i as u64), reg.clone());
            pcb.extend(ingress, IfId(8 + i as u32), info, &signer)
                .unwrap();
        }
        pcb
    }

    /// Flips one bit (or otherwise minimally changes one field) of the beacon; `field`
    /// walks the header fields, then every field of entry `field / 9`.
    fn tamper(pcb: &mut Pcb, field: usize, bit: u32) {
        let entry_fields = 9;
        let header_fields = 7;
        if field < header_fields {
            match field {
                0 => pcb.origin_isd.0 ^= 1 << (bit % 16),
                1 => pcb.origin.0 ^= 1 << (bit % 64),
                2 => pcb.sequence ^= 1 << (bit % 64),
                3 => {
                    pcb.created_at =
                        SimTime::from_micros(pcb.created_at.as_micros() ^ (1 << (bit % 40)))
                }
                4 => {
                    pcb.expires_at =
                        SimTime::from_micros(pcb.expires_at.as_micros() ^ (1 << (bit % 40)))
                }
                5 => {
                    let e = pcb.extensions;
                    let target = match e.target() {
                        None => Some(AsId(u64::from(bit))),
                        Some(_) => None,
                    };
                    pcb.extensions = PcbExtensions::new(target, e.algorithm(), e.interface_group());
                }
                _ => {
                    let e = pcb.extensions;
                    let group = match e.interface_group() {
                        None => InterfaceGroupId(bit),
                        Some(g) => InterfaceGroupId(g.value() ^ (1 << (bit % 32))),
                    };
                    pcb.extensions = e.with_interface_group(group);
                }
            }
            return;
        }
        let field = field - header_fields;
        let entry = &mut pcb.entries.to_mut()[field / entry_fields];
        match field % entry_fields {
            0 => entry.hop.asn.0 ^= 1 << (bit % 64),
            1 => entry.hop.ingress.0 ^= 1 << (bit % 32),
            2 => entry.hop.egress.0 ^= 1 << (bit % 32),
            3 => {
                let flipped = entry.static_info.link_latency.as_micros() ^ (1 << (bit % 40));
                entry.static_info.link_latency = Latency::from_micros(flipped);
            }
            4 => entry.static_info.link_bandwidth.0 ^= 1 << (bit % 60),
            5 => {
                let flipped = entry.static_info.intra_latency.as_micros() ^ (1 << (bit % 40));
                entry.static_info.intra_latency = Latency::from_micros(flipped);
            }
            6 => {
                // A whole degree: below the codec's micro-degree resolution a change would
                // not reach the wire at all.
                entry.static_info.egress_location = match entry.static_info.egress_location {
                    None => Some(GeoCoord::new(1.0, 2.0)),
                    Some(loc) => Some(GeoCoord::new(loc.lat + 1.0, loc.lon)),
                }
            }
            7 => entry.signature.signer.0 ^= 1 << (bit % 64),
            _ => entry.signature.tag.0[(bit as usize / 8) % 32] ^= 1 << (bit % 8),
        }
    }

    fn hop_specs() -> impl Strategy<Value = Vec<HopSpec>> {
        proptest::collection::vec(
            (
                0u64..10_000_000,
                0u64..(1 << 50),
                0u64..1_000_000,
                any::<bool>(),
                -60.0f64..60.0,
                -179.0f64..179.0,
            ),
            1..13,
        )
    }

    proptest! {
        #[test]
        fn prop_streaming_sign_and_verify_match_the_oracle(hops in hop_specs(),
                                                           sequence in any::<u64>(),
                                                           group in proptest::option::of(any::<u32>())) {
            let reg = registry();
            let verifier = Verifier::new(reg.clone());
            let pcb = generated_pcb(&reg, sequence, group, &hops);
            // `extend` signed exactly the bytes the old construction builds...
            let flat = FlatPcb::of(&pcb);
            for (i, entry) in pcb.entries.iter().enumerate() {
                let signer = Signer::new(entry.hop.asn, reg.clone());
                prop_assert_eq!(signer.sign(&flat.signed_payload(i)), entry.signature);
            }
            // ...both verifiers accept it, and the id hashed from verify's buffer is the
            // hash of the canonical encoding.
            prop_assert!(flat.verify(&verifier).is_ok());
            prop_assert!(pcb.verify(&verifier).is_ok());
            let id = pcb.verify_with_id(&verifier).unwrap();
            prop_assert_eq!(id, pcb.digest());
            prop_assert_eq!(id, PcbId(irec_crypto::sha256(&to_bytes(&pcb))));
            let decoded: Pcb = from_bytes(&to_bytes(&pcb)).unwrap();
            prop_assert_eq!(decoded.digest(), id);
        }

        #[test]
        fn prop_any_tampered_field_is_rejected_like_the_oracle(hops in hop_specs(),
                                                               field in 0usize..1000,
                                                               bit in 0u32..256) {
            let reg = registry();
            let verifier = Verifier::new(reg.clone());
            let mut pcb = generated_pcb(&reg, 5, Some(3), &hops);
            let fields = 7 + 9 * pcb.entries.len();
            tamper(&mut pcb, field % fields, bit);
            let streaming = pcb.verify(&verifier);
            let oracle = FlatPcb::of(&pcb).verify(&verifier);
            prop_assert!(streaming.is_err(), "tampered field {} accepted", field % fields);
            prop_assert_eq!(streaming.unwrap_err().category(), oracle.unwrap_err().category());
            prop_assert!(pcb.verify_with_id(&verifier).is_err());
        }

        #[test]
        fn prop_fan_out_extender_matches_clone_and_extend(
            hops in hop_specs(),
            egresses in proptest::collection::vec((1u32..40, 0u64..10_000_000, any::<bool>()), 1..17),
            fault in 0u8..8,
            at in 0usize..16,
        ) {
            let reg = registry();
            let verifier = Verifier::new(reg.clone());
            let mut pcb = generated_pcb(&reg, 9, Some(2), &hops);
            // Faults the extender must refuse exactly as `extend` always did: the local AS
            // already on the path, a transit entry without ingress, a first entry that is
            // not the origin's or names an ingress, an entry without egress.
            let mut signer = Signer::new(AsId(20), reg.clone());
            let mut ingress = IfId(3);
            let mut egresses = egresses;
            match fault {
                0 => signer = Signer::new(AsId(1 + (at % hops.len()) as u64), reg.clone()),
                1 => ingress = IfId::NONE,
                2 => pcb.entries.to_mut().clear(),
                3 => {
                    pcb.entries.to_mut().clear();
                    signer = Signer::new(pcb.origin, reg.clone());
                }
                4 => {
                    pcb.entries.to_mut().clear();
                    signer = Signer::new(pcb.origin, reg.clone());
                    ingress = IfId::NONE;
                }
                5 => {
                    let missing = at % egresses.len();
                    egresses[missing].0 = IfId::NONE.value();
                }
                _ => {}
            }

            let mut extender = HopExtender::new(&pcb, ingress, &signer);
            // The upstream half of the first beacon the extender hands out.
            let mut shared: Option<Option<Arc<[AsEntry]>>> = None;
            for (egress, latency_us, with_location) in egresses {
                let egress = IfId(egress);
                let info = StaticInfo {
                    link_latency: Latency::from_micros(latency_us),
                    link_bandwidth: Bandwidth(latency_us ^ 0x55),
                    intra_latency: Latency::from_micros(latency_us / 3),
                    egress_location: with_location.then(|| GeoCoord::new(1.5, f64::from(egress.value()))),
                };
                let mut expected = FlatPcb::of(&pcb);
                let reference = expected.extend(ingress, egress, info, &signer);
                let mut in_place = pcb.clone();
                let one_shot = in_place.extend(ingress, egress, info, &signer);
                let fanned = match extender.as_mut() {
                    Ok(extender) => extender.extended(egress, info),
                    Err(error) => Err(error.clone()),
                };
                match reference {
                    Ok(()) => {
                        let fanned = fanned.unwrap();
                        one_shot.unwrap();
                        for produced in [&fanned, &in_place] {
                            prop_assert_eq!(&FlatPcb::of(produced), &expected);
                            prop_assert_eq!(produced.digest(), expected.digest());
                            prop_assert_eq!(
                                produced.verify(&verifier).is_ok(),
                                expected.verify(&verifier).is_ok()
                            );
                            prop_assert!(produced.verify(&verifier).is_ok());
                        }
                        // A fanned-out beacon owns its own entry, in room for exactly that
                        // one, and shares the rest with every other beacon of the extender.
                        let owned = fanned.entries.owned();
                        prop_assert_eq!((owned.len(), owned.capacity()), (1, 1));
                        let upstream = fanned.entries.upstream().cloned();
                        prop_assert_eq!(upstream.as_ref().map_or(0, |u| u.len()), pcb.len());
                        match (&upstream, shared.get_or_insert_with(|| upstream.clone())) {
                            (Some(this), Some(first)) => prop_assert!(Arc::ptr_eq(this, first)),
                            (this, first) => prop_assert!(this.is_none() && first.is_none()),
                        }
                    }
                    Err(refused) => {
                        prop_assert_eq!(fanned.unwrap_err().category(), refused.category());
                        prop_assert_eq!(one_shot.unwrap_err().category(), refused.category());
                        prop_assert_eq!(&in_place, &pcb);
                    }
                }
            }
        }

        #[test]
        fn prop_swapped_entries_are_rejected(hops in hop_specs(), a in 0usize..12, b in 0usize..12) {
            let reg = registry();
            let verifier = Verifier::new(reg.clone());
            let mut pcb = generated_pcb(&reg, 5, None, &hops);
            let (a, b) = (a % pcb.entries.len(), b % pcb.entries.len());
            if a != b {
                pcb.entries.to_mut().swap(a, b);
                prop_assert!(pcb.verify(&verifier).is_err());
                prop_assert!(FlatPcb::of(&pcb).verify(&verifier).is_err());
            }
        }

        /// Where a chain is split is storage only: split at every length, a beacon —
        /// valid, looping or tampered with — reads exactly as the flat beacon does.
        #[test]
        fn prop_a_chain_reads_like_the_flat_beacon_wherever_it_is_split(
            hops in hop_specs(),
            sequence in any::<u64>(),
            group in proptest::option::of(any::<u32>()),
            repeat in proptest::option::of((0usize..12, 0usize..12)),
            tampered in proptest::option::of((0usize..1000, 0u32..256)),
        ) {
            let reg = registry();
            let verifier = Verifier::new(reg.clone());
            let mut pcb = generated_pcb(&reg, sequence, group, &hops);
            if let Some((from, to)) = repeat {
                let asn = pcb.entries.iter().nth(from % pcb.len()).unwrap().hop.asn;
                let to = to % pcb.len();
                pcb.entries.to_mut()[to].hop.asn = asn;
            }
            if let Some((field, bit)) = tampered {
                let fields = 7 + 9 * pcb.entries.len();
                tamper(&mut pcb, field % fields, bit);
            }
            let flat = FlatPcb::of(&pcb);
            let wire = flat.wire_bytes();
            let verdict = flat.verify_with_id(&verifier).map_err(|e| e.category());
            let on_the_grid = FlatPcb::decode(&wire).unwrap();
            for upstream in 0..=flat.entries.len() {
                let chained = flat.chained(upstream);
                prop_assert_eq!(chained.entries.upstream().map_or(0, |u| u.len()), upstream);
                prop_assert_eq!(chained.len(), flat.entries.len());
                prop_assert_eq!(chained.entries.iter().len(), flat.entries.len());
                prop_assert_eq!(&chained.wire_bytes(), &wire, "split at {}", upstream);
                prop_assert_eq!(to_bytes(&chained), wire.clone());
                prop_assert_eq!(chained.digest(), flat.digest());
                prop_assert_eq!(
                    chained.verify_with_id(&verifier).map_err(|e| e.category()),
                    verdict.clone(),
                    "split at {}", upstream
                );
                prop_assert_eq!(chained.path_metrics(), flat.path_metrics());
                prop_assert_eq!(chained.link_keys(), flat.link_keys());
                prop_assert_eq!(chained.hop_asns().len(), flat.entries.len());
                prop_assert_eq!(chained.has_loop(), flat.has_loop(), "split at {}", upstream);
                for asn in flat.entries.iter().map(|e| e.hop.asn).chain([AsId(10_000)]) {
                    prop_assert_eq!(chained.contains_as(asn), flat.contains_as(asn));
                }
                prop_assert_eq!(chained.entries.first(), flat.entries.first());
                prop_assert_eq!(chained.entries.last(), flat.entries.last());
                prop_assert_eq!(chained.last_as(), pcb.last_as());
                prop_assert!(chained.entries.iter().eq(flat.entries.iter()));
                // Equal to the same beacon split anywhere else, unequal to a longer one.
                prop_assert_eq!(&chained, &pcb);
                prop_assert_eq!(&chained, &flat.chained(flat.entries.len() - upstream));
                let mut longer = chained.clone();
                longer.entries.push(flat.entries[0].clone());
                prop_assert_ne!(&longer, &chained);
                // The codec: what the flat decoder reads, and a round trip for a beacon whose
                // coordinates are on the wire's micro-degree grid, as a decoded one's are.
                let decoded: Pcb = from_bytes(&to_bytes(&chained)).unwrap();
                prop_assert!(decoded.entries.upstream().is_none());
                prop_assert_eq!(&FlatPcb::of(&decoded), &on_the_grid);
                let chained_on_the_grid = on_the_grid.chained(upstream);
                prop_assert_eq!(&decoded, &chained_on_the_grid);
                let again: Pcb = from_bytes(&to_bytes(&chained_on_the_grid)).unwrap();
                prop_assert_eq!(&again, &chained_on_the_grid);
                // Flattening and sharing keep the content.
                let shared = chained.entries.shared().unwrap();
                prop_assert_eq!(&shared[..], &flat.entries[..]);
                let mut flattened = chained.clone();
                prop_assert_eq!(&flattened.entries.to_mut()[..], &flat.entries[..]);
                prop_assert!(flattened.entries.upstream().is_none());
                prop_assert_eq!(&flattened, &chained);
            }
        }
    }
}
