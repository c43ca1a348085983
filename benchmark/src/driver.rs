//! The bench-owned round driver of the traced beacon workloads.
//!
//! `Simulation::run_rounds` gives the outside no place to put a span, so the traced run
//! drives the same public pieces itself — `IrecNode::new`, `DeliveryPlane::{drain_due,
//! schedule}`, `verify_message`, `apply_message`, `handle_pull_return`,
//! `beaconing_round_core`, `round_housekeeping` — with a span around each call. It shares
//! no code with `Simulation`'s drivers, which makes it a second opinion as well: both must
//! produce the same [`PlaneOutputs`] digest.
//!
//! Two things are mirrored from `Simulation` because the outputs depend on them: the key
//! registry derivation of `Simulation::new` (beacon digests order the ingress database)
//! and the delivery-delay rule of `account_and_schedule`.

use crate::digest::PlaneOutputs;
use crate::trace::{Recorder, SpanId, NO_PARENT};
use irec_core::{
    execute_racs, IrecNode, NodeConfig, Rac, RacTiming, RoundOutput, SharedAlgorithmStore,
};
use irec_crypto::KeyRegistry;
use irec_metrics::overhead::OverheadCounter;
use irec_sim::delivery::MAX_EPOCH_EVENTS;
use irec_sim::{DeliveryPlane, DeliveryStats, Event, SimulationConfig};
use irec_topology::Topology;
use irec_types::{AsId, IfId, Result, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Span names, one per layer boundary the driver crosses. The probe is the only span
/// that is not part of a round's own work.
pub mod span {
    pub const ROUND: &str = "sim.simulation.round";
    pub const DRAIN: &str = "sim.delivery.drain";
    pub const SCHEDULE: &str = "sim.delivery.schedule";
    pub const VERIFY: &str = "core.ingress.verify";
    pub const COMMIT: &str = "core.ingress.commit";
    pub const PULL_RETURN: &str = "core.egress.pull_return";
    pub const ROUND_CORE: &str = "core.node.round_core";
    pub const HOUSEKEEPING: &str = "core.node.housekeeping";
    pub const PROBE: &str = "core.engine.replay";
}

/// What one round did, for the steady-state ratios.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundTally {
    /// Wall time of the round with the probe taken out.
    pub wall_ns: u64,
    pub probe_ns: u64,
    /// Candidates the nodes' RACs evaluated.
    pub candidates: u64,
    /// PCBs sent that were not originations: selections that told a neighbour something.
    pub propagated: u64,
    /// Registrations that added a path (refreshes of a known path do not count).
    pub new_paths: u64,
}

/// Exact counts taken at the same boundaries as the spans.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub events: u64,
    pub verified: u64,
    pub sent: u64,
    pub pull_returns: u64,
    /// Σ of the `RacTiming` every node round returned.
    pub rac: RacTiming,
    /// Σ of the `RacTiming` the probe's replays returned.
    pub probe_rac: RacTiming,
    pub rounds: Vec<RoundTally>,
}

/// A beaconing plane driven from the benchmark's side.
pub struct TracedPlane {
    topology: Arc<Topology>,
    config: SimulationConfig,
    nodes: BTreeMap<AsId, IrecNode>,
    plane: DeliveryPlane,
    overhead: OverheadCounter,
    /// Bench-owned copies of the nodes' (static) RAC catalog, replayed by the probe.
    probe_racs: Vec<Rac>,
    probe_parallelism: usize,
    clock: SimTime,
    round: u64,
    pub rec: Recorder,
    pub tally: Tally,
}

impl TracedPlane {
    /// One node per AS, every node with `node_config`, everything else at its default.
    pub fn new(topology: Arc<Topology>, node_config: &NodeConfig) -> Result<Self> {
        let config = SimulationConfig::default();
        let registry = KeyRegistry::with_ases(42, topology.num_ases() as u64 + 1);
        for asn in topology.as_ids() {
            registry.register(asn);
        }
        let store = SharedAlgorithmStore::new();
        let mut nodes = BTreeMap::new();
        let mut overhead = OverheadCounter::new();
        for asn in topology.as_ids() {
            let node = IrecNode::new(
                asn,
                node_config.clone(),
                Arc::clone(&topology),
                registry.clone(),
                store.clone(),
            )?;
            for ifid in topology.as_node(asn)?.interfaces.keys() {
                overhead.register_interface(asn, *ifid);
            }
            nodes.insert(asn, node);
        }
        let probe_racs = node_config
            .racs
            .iter()
            .map(|rac| Rac::new_static(rac.clone()))
            .collect::<Result<Vec<_>>>()?;
        Ok(TracedPlane {
            topology,
            config,
            nodes,
            plane: DeliveryPlane::default(),
            overhead,
            probe_racs,
            probe_parallelism: node_config.parallelism,
            clock: SimTime::ZERO,
            round: 0,
            rec: Recorder::new(),
            tally: Tally::default(),
        })
    }

    /// One beaconing round followed by the flush of everything it sent — what
    /// `Simulation::run_rounds(1)` does.
    pub fn run_round(&mut self) -> Result<()> {
        let round = self.round as u32;
        let now = SimTime::from_micros(self.round * self.config.beacon_interval.as_micros());
        self.clock = now;
        let round_span = self.rec.open(span::ROUND, NO_PARENT, round, 0);
        let mut tally = RoundTally::default();

        self.deliver(now, round_span, round);

        let as_ids: Vec<AsId> = self.nodes.keys().copied().collect();
        for asn in as_ids {
            let local_as = self.topology.as_node(asn)?;
            let interfaces: Vec<IfId> = local_as.interfaces.keys().copied().collect();
            let node = self.nodes.get_mut(&asn).expect("node exists");

            // Probe: replay the RAC engine over the database the node is about to read.
            // The replay's wall minus the RAC timings it returns is the engine's own
            // overhead (snapshot, fingerprint, merge), which no public call exposes.
            let probe = self.rec.open(span::PROBE, round_span, round, asn.value());
            let (_, probe_timing) = execute_racs(
                &self.probe_racs,
                node.ingress().db(),
                local_as,
                &interfaces,
                now,
                self.probe_parallelism,
            )?;
            tally.probe_ns += self.rec.close(probe);
            self.tally.probe_rac.accumulate(&probe_timing);

            let paths = node.path_service();
            let paths_before = paths.len() as u64 + paths.evictions();
            let core = self
                .rec
                .open(span::ROUND_CORE, round_span, round, asn.value());
            let output = node.beaconing_round_core(now);
            self.rec.close(core);
            let output = output?;
            let paths = node.path_service();
            tally.new_paths +=
                (paths.len() as u64 + paths.evictions()).saturating_sub(paths_before);

            let housekeeping = self
                .rec
                .open(span::HOUSEKEEPING, round_span, round, asn.value());
            let _ = node.round_housekeeping(now);
            self.rec.close(housekeeping);

            tally.candidates += output.timing.candidates as u64;
            tally.propagated += output
                .messages
                .iter()
                .filter(|message| message.pcb.origin != message.from_as)
                .count() as u64;
            self.tally.rac.accumulate(&output.timing);
            self.tally.sent += output.messages.len() as u64;
            self.tally.pull_returns += output.pull_returns.len() as u64;

            let schedule = self
                .rec
                .open(span::SCHEDULE, round_span, round, asn.value());
            self.account_and_schedule(now, output);
            self.rec.close(schedule);
        }
        self.round += 1;

        self.deliver(SimTime::MAX, round_span, round);
        tally.wall_ns = self.rec.close(round_span) - tally.probe_ns;
        self.tally.rounds.push(tally);
        Ok(())
    }

    /// Delivers everything due at or before `until`, in `(SimTime, seq)` order.
    fn deliver(&mut self, until: SimTime, parent: SpanId, round: u32) {
        loop {
            let drain = self.rec.open(span::DRAIN, parent, round, 0);
            let due = self.plane.drain_due(until, MAX_EPOCH_EVENTS);
            self.rec.close(drain);
            if due.is_empty() {
                return;
            }
            let mut delta = DeliveryStats::default();
            for (at, _seq, event) in due {
                self.tally.events += 1;
                match event {
                    Event::DeliverPcb(message)
                        if self
                            .plane
                            .is_endpoint_down(message.from_as, message.from_if) =>
                    {
                        delta.dropped_link_down += 1;
                    }
                    Event::DeliverPcb(message) => match self.nodes.get_mut(&message.to_as) {
                        Some(node) => {
                            let asn = message.to_as.value();
                            let verify = self.rec.open(span::VERIFY, parent, round, asn);
                            let verdict = node.verify_message(&message, at);
                            self.rec.close(verify);
                            self.tally.verified += 1;
                            let commit = self.rec.open(span::COMMIT, parent, round, asn);
                            let outcome = node.apply_message(message, at, verdict);
                            self.rec.close(commit);
                            match outcome {
                                Ok(()) => delta.delivered += 1,
                                Err(_) => delta.rejected += 1,
                            }
                        }
                        None => delta.dropped_no_node += 1,
                    },
                    Event::DeliverPullReturn(ret) => match self.nodes.get(&ret.to_as) {
                        Some(node) => {
                            let asn = ret.to_as.value();
                            let span = self.rec.open(span::PULL_RETURN, parent, round, asn);
                            node.handle_pull_return(ret, at);
                            self.rec.close(span);
                            delta.delivered += 1;
                        }
                        None => delta.dropped_no_node += 1,
                    },
                }
            }
            self.plane.add_stats(delta);
        }
    }

    /// Accounts one node's output in the overhead counter and schedules its deliveries:
    /// a PCB arrives after its link's latency plus the processing delay, a pull return
    /// after the latency of the path it describes.
    fn account_and_schedule(&mut self, now: SimTime, output: RoundOutput) {
        for message in output.messages {
            self.overhead
                .record(message.from_as, message.from_if, self.round, 1);
            let delay = self
                .topology
                .link_at(message.from_as, message.from_if)
                .map(|link| link.metrics.latency)
                .unwrap_or_default();
            let at =
                now + SimDuration::from_micros(delay.as_micros()) + self.config.processing_delay;
            self.plane.schedule(at, Event::DeliverPcb(message));
        }
        for ret in output.pull_returns {
            let delay = ret.pcb.path_metrics().latency;
            let at =
                now + SimDuration::from_micros(delay.as_micros()) + self.config.processing_delay;
            self.plane.schedule(at, Event::DeliverPullReturn(ret));
        }
    }

    pub fn nodes(&self) -> &BTreeMap<AsId, IrecNode> {
        &self.nodes
    }

    pub fn delivery_stats(&self) -> DeliveryStats {
        self.plane.stats()
    }

    pub fn outputs(&self) -> PlaneOutputs {
        PlaneOutputs::of_nodes(
            &self.nodes,
            self.plane.stats(),
            self.overhead.samples(),
            self.clock,
        )
    }
}
