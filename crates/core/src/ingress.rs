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

/// The one verification body of a received beacon: signature, expiry and policy checks
/// for the receiving AS `local_as`, with the beacon received at `now`.
///
/// It is a function of what it reads and nothing else: the receiver, the key registry
/// behind `verifier`, the beacon and its receipt time — no database, dedup index or
/// counter. So a verdict can be computed anywhere, any time before the beacon commits:
/// the simulator verifies a round's beacons on a helper thread while the node phase still
/// runs, and the gateway commits the verdict on delivery.
///
/// Every check runs on every received beacon — nothing is cached across beacons, nodes
/// or rounds. The beacon is encoded once for all its hop signatures, and the id of an
/// accepted beacon is hashed from that same buffer ([`Pcb::verify_with_id`]). The
/// simulator carries the id of a beacon verified ahead to its commit, so the beacon is
/// hashed once; the id is never taken from the sender.
pub fn verify_received(local_as: AsId, verifier: &Verifier, pcb: &Pcb, now: SimTime) -> Verdict {
    if pcb.is_empty() {
        return Err(IrecError::policy("received beacon carries no AS entries"));
    }
    if pcb.is_expired(now) {
        return Err(IrecError::policy("received beacon is expired"));
    }
    if pcb.contains_as(local_as) {
        return Err(IrecError::policy(
            "received beacon already contains the local AS (loop)",
        ));
    }
    pcb.verify_with_id(verifier)
}

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

/// The ingress gateway of one AS.
///
/// "When receiving a PCB from a neighboring AS, the ingress gateway verifies the included
/// signatures and whether the path constructed by the PCB complies with the local AS'
/// policies. The ingress gateway then stores the PCB in its ingress database."
///
/// Commits take `&self`: the database keeps its map behind an interior lock and the
/// statistics behind a mutex, so the gateway is shared the way its database is.
pub struct IngressGateway {
    local_as: AsId,
    db: ShardedIngressDb,
    verifier: Verifier,
    stats: Mutex<IngressStats>,
}

impl Clone for IngressGateway {
    /// Deep-clones the gateway: the database and the statistics are copied, so the clone
    /// evolves independently (used by `Simulation`'s snapshot clone).
    fn clone(&self) -> Self {
        IngressGateway {
            local_as: self.local_as,
            db: self.db.clone(),
            verifier: self.verifier.clone(),
            stats: Mutex::new(self.stats()),
        }
    }
}

impl IngressGateway {
    /// A copy-on-write clone: the database is structurally shared via
    /// [`ShardedIngressDb::cow_clone`] (one pointer copy; it is materialized only when one
    /// side writes to it), while the small statistics are copied eagerly. Used by
    /// `Simulation::snapshot` for the PD campaign's per-pair snapshots.
    pub fn cow_clone(&self) -> Self {
        IngressGateway {
            local_as: self.local_as,
            db: self.db.cow_clone(),
            verifier: self.verifier.clone(),
            stats: Mutex::new(self.stats()),
        }
    }

    /// Creates an ingress gateway for `local_as` using `verifier` for signature checks.
    pub fn new(local_as: AsId, verifier: Verifier) -> Self {
        IngressGateway {
            local_as,
            db: ShardedIngressDb::default(),
            verifier,
            stats: Mutex::default(),
        }
    }

    /// Access to the ingress database (RACs read candidate batches from here; eviction and
    /// insertion go through its interior lock).
    pub fn db(&self) -> &ShardedIngressDb {
        &self.db
    }

    /// The gateway statistics.
    pub fn stats(&self) -> IngressStats {
        *self.stats.lock()
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
    /// [`IngressGateway::commit`] — the simulator runs the two stages apart, so a beacon
    /// can be verified ahead of its delivery.
    pub fn receive(&self, pcb: Pcb, ingress: IfId, now: SimTime) -> Result<()> {
        let verdict = self.verify(&pcb, now);
        self.commit(pcb, ingress, now, verdict)
    }

    /// The pure verification stage: [`verify_received`] for this gateway's AS, without
    /// touching the database or the statistics.
    pub fn verify(&self, pcb: &Pcb, now: SimTime) -> Verdict {
        verify_received(self.local_as, &self.verifier, pcb, now)
    }

    /// The apply stage: accounts a precomputed `verdict` and, on success, stores the beacon
    /// under the id the verdict carries (deduplicating by it — the beacon is not hashed
    /// again). `verdict` must be what [`IngressGateway::verify`] returned for this `pcb`.
    /// Messages of one origin must commit in delivery order — this is where the dedup index
    /// and the statistics mutate.
    pub fn commit(&self, pcb: Pcb, ingress: IfId, now: SimTime, verdict: Verdict) -> Result<()> {
        let id = match verdict {
            Ok(id) => id,
            Err(e) => {
                self.stats.lock().rejected += 1;
                return Err(e);
            }
        };
        let stored = self.db.insert_with_id(id, pcb, ingress, now);
        let mut stats = self.stats.lock();
        if stored {
            stats.accepted += 1;
        } else {
            stats.duplicates += 1;
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
