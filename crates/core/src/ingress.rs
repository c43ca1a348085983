//! The ingress gateway: verification, policy checks and storage of received PCBs (§V-B).

use crate::beacon_db::ShardedIngressDb;
use irec_crypto::Verifier;
use irec_pcb::{Pcb, PcbId};
use irec_types::{AsId, IfId, IrecError, Result, SimTime};
use parking_lot::Mutex;

/// What [`IngressGateway::verify`] concluded about one received beacon: the rejection, or
/// — for an accepted beacon — the id this AS computed for it while verifying. The id is
/// hashed from the buffer the signature check built and then carried with the stored
/// beacon; it is never taken from the sender.
pub type Verdict = Result<PcbId>;

/// Statistics kept by the ingress gateway.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngressStats {
    /// PCBs accepted and stored.
    pub accepted: u64,
    /// PCBs rejected (signature, policy or expiry failures) or dropped as duplicates.
    pub rejected: u64,
    /// Accepted-then-deduplicated PCBs (valid but already known).
    pub duplicates: u64,
}

impl IngressStats {
    /// Adds another stats record into this one (the per-shard reduction).
    fn accumulate(&mut self, other: &IngressStats) {
        self.accepted += other.accepted;
        self.rejected += other.rejected;
        self.duplicates += other.duplicates;
    }
}

/// The ingress gateway of one AS.
///
/// "When receiving a PCB from a neighboring AS, the ingress gateway verifies the included
/// signatures and whether the path constructed by the PCB complies with the local AS'
/// policies. The ingress gateway then stores the PCB in its ingress database."
///
/// The database is sharded by origin-AS hash ([`ShardedIngressDb`]) and the statistics are
/// kept per shard, so commits targeting different shards can proceed concurrently through
/// the `&self` [`IngressGateway::commit_in_shard`] entry point (the delivery plane's
/// sharded apply stage). [`IngressGateway::stats`] reduces the per-shard counters in fixed
/// shard order, which — with commutative `u64` sums — makes the aggregate independent of
/// shard count and commit interleaving.
pub struct IngressGateway {
    local_as: AsId,
    db: ShardedIngressDb,
    verifier: Verifier,
    /// Per-shard statistics, indexed like the database's shards. A rejected beacon never
    /// touches the database but is still attributed to its origin's shard so concurrent
    /// shard commits account without contending.
    stats: Vec<Mutex<IngressStats>>,
}

impl Clone for IngressGateway {
    /// Deep-clones the gateway: database shards and per-shard statistics are copied, so
    /// the clone evolves independently (used by `Simulation`'s snapshot clone).
    fn clone(&self) -> Self {
        IngressGateway {
            local_as: self.local_as,
            db: self.db.clone(),
            verifier: self.verifier.clone(),
            stats: self
                .stats
                .iter()
                .map(|shard| Mutex::new(*shard.lock()))
                .collect(),
        }
    }
}

impl IngressGateway {
    /// A copy-on-write clone: the database shards are structurally shared via
    /// [`ShardedIngressDb::cow_clone`] (O(shards) pointer copies; a shard is materialized
    /// only when one side writes to it), while the small per-shard statistics are copied
    /// eagerly. Used by `Simulation::snapshot` for the PD campaign's per-pair snapshots.
    pub fn cow_clone(&self) -> Self {
        IngressGateway {
            local_as: self.local_as,
            db: self.db.cow_clone(),
            verifier: self.verifier.clone(),
            stats: self
                .stats
                .iter()
                .map(|shard| Mutex::new(*shard.lock()))
                .collect(),
        }
    }

    /// Creates a single-shard ingress gateway for `local_as` using `verifier` for signature
    /// checks — observably identical to the pre-sharding gateway.
    pub fn new(local_as: AsId, verifier: Verifier) -> Self {
        Self::with_shards(local_as, verifier, 1)
    }

    /// Creates an ingress gateway whose database is split into `shards` shards (clamped to
    /// `1..=`[`crate::beacon_db::MAX_INGRESS_SHARDS`]).
    pub fn with_shards(local_as: AsId, verifier: Verifier, shards: usize) -> Self {
        let db = ShardedIngressDb::new(shards);
        let stats = (0..db.shard_count())
            .map(|_| Mutex::new(IngressStats::default()))
            .collect();
        IngressGateway {
            local_as,
            db,
            verifier,
            stats,
        }
    }

    /// Access to the ingress database (RACs read candidate batches from here; eviction and
    /// insertion go through the shards' interior locks).
    pub fn db(&self) -> &ShardedIngressDb {
        &self.db
    }

    /// The gateway statistics, reduced over the shards in fixed index order.
    pub fn stats(&self) -> IngressStats {
        let mut total = IngressStats::default();
        for shard in &self.stats {
            total.accumulate(&shard.lock());
        }
        total
    }

    /// Number of stored beacons still valid at `now` — the occupancy figure to report
    /// between eviction sweeps (`db().len()` would overcount expired-but-unevicted
    /// beacons).
    pub fn live_beacons(&self, now: SimTime) -> usize {
        self.db.live_len(now)
    }

    /// Handles a PCB received on local interface `ingress` at time `now`.
    ///
    /// Verification failures and policy violations reject the beacon; duplicates are counted
    /// but not an error. Equivalent to [`IngressGateway::verify`] followed by
    /// [`IngressGateway::commit`] — the delivery plane runs the two stages separately so
    /// verification can fan out over worker threads.
    pub fn receive(&self, pcb: Pcb, ingress: IfId, now: SimTime) -> Result<()> {
        let verdict = self.verify(&pcb, now);
        self.commit(pcb, ingress, now, verdict)
    }

    /// The pure verification stage: signature, expiry and policy checks, without touching
    /// the database or the statistics.
    ///
    /// This is the expensive per-message work, and it is deliberately independent of all
    /// mutable gateway state (the ingress database, dedup set and counters): the parallel
    /// delivery plane verifies a whole epoch of messages concurrently against a `&self`
    /// snapshot **before** any of them commits, so a verdict must not depend on the order
    /// other messages of the same epoch are applied in.
    ///
    /// Every check runs on every received beacon — nothing is cached across beacons, nodes
    /// or rounds. The beacon is encoded once for all its hop signatures, and the id of an
    /// accepted beacon is hashed from that same buffer ([`Pcb::verify_with_id`]): this is
    /// the only place the receiving AS computes it.
    pub fn verify(&self, pcb: &Pcb, now: SimTime) -> Verdict {
        if pcb.is_empty() {
            return Err(IrecError::policy("received beacon carries no AS entries"));
        }
        if pcb.is_expired(now) {
            return Err(IrecError::policy("received beacon is expired"));
        }
        if pcb.contains_as(self.local_as) {
            return Err(IrecError::policy(
                "received beacon already contains the local AS (loop)",
            ));
        }
        pcb.verify_with_id(&self.verifier)
    }

    /// The apply stage: accounts a precomputed `verdict` and, on success, stores the beacon
    /// under the id the verdict carries (deduplicating by it — the beacon is not hashed
    /// again). `verdict` must be what [`IngressGateway::verify`] returned for this `pcb`.
    /// Messages of one origin must commit in delivery order — this is where the dedup set
    /// and the statistics of the origin's shard mutate; commits for *different* shards are
    /// independent and may interleave freely.
    pub fn commit(&self, pcb: Pcb, ingress: IfId, now: SimTime, verdict: Verdict) -> Result<()> {
        let shard = self.db.shard_of(pcb.origin);
        self.commit_in_shard(shard, pcb, ingress, now, verdict)
    }

    /// [`IngressGateway::commit`] with the shard precomputed by the caller (the delivery
    /// plane partitions whole epochs into per-shard inboxes before fanning the commits out
    /// over worker threads).
    pub fn commit_in_shard(
        &self,
        shard: usize,
        pcb: Pcb,
        ingress: IfId,
        now: SimTime,
        verdict: Verdict,
    ) -> Result<()> {
        let id = match verdict {
            Ok(id) => id,
            Err(e) => {
                self.stats[shard].lock().rejected += 1;
                return Err(e);
            }
        };
        if self
            .db
            .insert_with_id_in_shard(shard, id, pcb, ingress, now)
        {
            self.stats[shard].lock().accepted += 1;
        } else {
            self.stats[shard].lock().duplicates += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irec_crypto::{KeyRegistry, Signer};
    use irec_pcb::{PcbExtensions, StaticInfo};
    use irec_types::{Bandwidth, Latency, SimDuration};

    fn registry() -> KeyRegistry {
        KeyRegistry::with_ases(5, 64)
    }

    fn beacon(reg: &KeyRegistry, origin: u64, through: &[u64], validity_h: u64) -> Pcb {
        let mut pcb = Pcb::originate(
            AsId(origin),
            0,
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_hours(validity_h),
            PcbExtensions::none(),
        );
        let info = StaticInfo::origin(Latency::from_millis(10), Bandwidth::from_mbps(100), None);
        pcb.extend(
            IfId::NONE,
            IfId(1),
            info,
            &Signer::new(AsId(origin), reg.clone()),
        )
        .unwrap();
        for asn in through {
            pcb.extend(
                IfId(2),
                IfId(3),
                info,
                &Signer::new(AsId(*asn), reg.clone()),
            )
            .unwrap();
        }
        pcb
    }

    #[test]
    fn accepts_valid_beacon() {
        let reg = registry();
        let gw = IngressGateway::new(AsId(10), Verifier::new(reg.clone()));
        gw.receive(beacon(&reg, 1, &[2, 3], 6), IfId(7), SimTime::ZERO)
            .unwrap();
        assert_eq!(gw.stats().accepted, 1);
        assert_eq!(gw.db().len(), 1);
    }

    #[test]
    fn rejects_expired_beacon() {
        let reg = registry();
        let gw = IngressGateway::new(AsId(10), Verifier::new(reg.clone()));
        let pcb = beacon(&reg, 1, &[], 1);
        let late = SimTime::ZERO + SimDuration::from_hours(2);
        assert!(gw.receive(pcb, IfId(7), late).is_err());
        assert_eq!(gw.stats().rejected, 1);
        assert!(gw.db().is_empty());
    }

    #[test]
    fn rejects_loop_through_local_as() {
        let reg = registry();
        let gw = IngressGateway::new(AsId(3), Verifier::new(reg.clone()));
        let pcb = beacon(&reg, 1, &[2, 3], 6);
        let err = gw.receive(pcb, IfId(7), SimTime::ZERO).unwrap_err();
        assert_eq!(err.category(), "policy");
    }

    #[test]
    fn rejects_tampered_signature() {
        let reg = registry();
        let gw = IngressGateway::new(AsId(10), Verifier::new(reg.clone()));
        let mut pcb = beacon(&reg, 1, &[2], 6);
        pcb.entries.to_mut()[1].static_info.link_latency = Latency::from_millis(1);
        let err = gw.receive(pcb, IfId(7), SimTime::ZERO).unwrap_err();
        assert_eq!(err.category(), "verification");
    }

    #[test]
    fn rejects_empty_beacon() {
        let reg = registry();
        let gw = IngressGateway::new(AsId(10), Verifier::new(reg.clone()));
        let pcb = Pcb::originate(
            AsId(1),
            0,
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_hours(1),
            PcbExtensions::none(),
        );
        assert!(gw.receive(pcb, IfId(1), SimTime::ZERO).is_err());
    }

    #[test]
    fn duplicates_counted_not_errored() {
        let reg = registry();
        let gw = IngressGateway::new(AsId(10), Verifier::new(reg.clone()));
        let pcb = beacon(&reg, 1, &[2], 6);
        gw.receive(pcb.clone(), IfId(7), SimTime::ZERO).unwrap();
        gw.receive(pcb, IfId(7), SimTime::ZERO).unwrap();
        assert_eq!(gw.stats().accepted, 1);
        assert_eq!(gw.stats().duplicates, 1);
        assert_eq!(gw.db().len(), 1);
    }

    #[test]
    fn split_verify_commit_matches_receive() {
        let reg = registry();
        // Two gateways fed the same traffic: one through `receive`, one through the split
        // verify/commit pipeline. Stats and database contents must be identical.
        let whole = IngressGateway::new(AsId(10), Verifier::new(reg.clone()));
        let split = IngressGateway::new(AsId(10), Verifier::new(reg.clone()));
        let valid = beacon(&reg, 1, &[2, 3], 6);
        let mut tampered = beacon(&reg, 2, &[3], 6);
        tampered.entries.to_mut()[0].static_info.link_latency = Latency::from_millis(1);
        let traffic = vec![valid.clone(), tampered, valid];

        for pcb in traffic {
            let a = whole.receive(pcb.clone(), IfId(7), SimTime::ZERO);
            let verdict = split.verify(&pcb, SimTime::ZERO);
            let b = split.commit(pcb, IfId(7), SimTime::ZERO, verdict);
            assert_eq!(a.is_ok(), b.is_ok());
        }
        assert_eq!(whole.stats(), split.stats());
        assert_eq!(whole.db().len(), split.db().len());
        assert_eq!(split.stats().accepted, 1);
        assert_eq!(split.stats().rejected, 1);
        assert_eq!(split.stats().duplicates, 1);
    }

    #[test]
    fn verify_is_pure() {
        let reg = registry();
        let gw = IngressGateway::new(AsId(10), Verifier::new(reg.clone()));
        let pcb = beacon(&reg, 1, &[2], 6);
        // Verifying repeatedly mutates nothing: no stats, no storage.
        for _ in 0..3 {
            gw.verify(&pcb, SimTime::ZERO).unwrap();
        }
        assert_eq!(gw.stats(), IngressStats::default());
        assert!(gw.db().is_empty());
    }

    #[test]
    fn sharded_gateway_matches_single_shard_for_any_shard_count() {
        let reg = registry();
        // The same traffic — valid beacons from several origins, one tampered, one
        // duplicate — through gateways with different shard counts: aggregate stats and
        // database contents must be identical.
        let mut traffic = Vec::new();
        for origin in 1..=4u64 {
            traffic.push(beacon(&reg, origin, &[], 6));
        }
        let mut tampered = beacon(&reg, 2, &[3], 6);
        tampered.entries.to_mut()[0].static_info.link_latency = Latency::from_millis(1);
        traffic.push(tampered);
        traffic.push(traffic[0].clone());

        let reference = IngressGateway::new(AsId(10), Verifier::new(reg.clone()));
        for pcb in &traffic {
            let _ = reference.receive(pcb.clone(), IfId(7), SimTime::ZERO);
        }
        for shards in [2usize, 4, 7, 16] {
            let gw = IngressGateway::with_shards(AsId(10), Verifier::new(reg.clone()), shards);
            assert_eq!(gw.db().shard_count(), shards);
            for pcb in &traffic {
                let shard = gw.db().shard_of(pcb.origin);
                let verdict = gw.verify(pcb, SimTime::ZERO);
                let _ = gw.commit_in_shard(shard, pcb.clone(), IfId(7), SimTime::ZERO, verdict);
            }
            assert_eq!(gw.stats(), reference.stats(), "stats at {shards} shards");
            assert_eq!(gw.db().len(), reference.db().len());
            assert_eq!(gw.db().batch_keys(), reference.db().batch_keys());
        }
        assert_eq!(reference.stats().accepted, 4);
        assert_eq!(reference.stats().rejected, 1);
        assert_eq!(reference.stats().duplicates, 1);
    }

    #[test]
    fn verdict_carries_the_id_the_database_dedups_on() {
        let reg = registry();
        let gw = IngressGateway::new(AsId(10), Verifier::new(reg.clone()));
        let pcb = beacon(&reg, 1, &[2, 3], 6);
        let id = gw.verify(&pcb, SimTime::ZERO).unwrap();
        assert_eq!(id, pcb.digest());
        gw.commit(pcb.clone(), IfId(7), SimTime::ZERO, Ok(id))
            .unwrap();
        // The stored view carries that id, and the hashing insert path dedups against it.
        let key = gw.db().batch_keys()[0];
        let view = gw.db().batch_view(&key, SimTime::ZERO).unwrap();
        assert_eq!(view.ids(), &[id]);
        assert!(!gw.db().insert(pcb, IfId(7), SimTime::ZERO));
    }
}
