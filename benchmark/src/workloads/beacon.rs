//! `beacon_5sp` and `beacon_mix`: converge a generated topology from a cold start.
//!
//! `beacon_5sp` is the paper's Fig. 8 unit — every AS runs one static 5SP RAC. The
//! propagation burst of rounds 2–3 makes ingress verify/commit and egress extend-and-sign
//! a large share of its wall time; RAC execution is small. It is also the memory workload.
//!
//! `beacon_mix` is the paper's core scenario — every AS runs `{1SP, 5SP, HD, DO}` side by
//! side. HD's pairwise disjointness dominates and delivery is minor, so an engine,
//! algorithm or marshalling change shows here and hardly on `beacon_5sp`.

use super::{median, ns, simulation_layers, IngressCounts, Layers, Pass, TracedPass};
use crate::digest::PlaneOutputs;
use crate::driver::{span, TracedPlane};
use crate::{gen, host};
use irec_core::{NodeConfig, RacConfig};
use irec_sim::{Simulation, SimulationConfig};
use irec_types::Result;
use std::sync::Arc;
use std::time::Instant;

/// Rounds at the end of a pass that count as steady state.
pub const STEADY_ROUNDS: usize = 3;

#[derive(Debug, Clone)]
pub struct Size {
    pub ases: usize,
    /// Rounds from the cold start; each ends with the flush of what it sent.
    pub rounds: usize,
    /// The static RACs every AS runs, by catalog name.
    pub racs: &'static [&'static str],
}

fn node_config(size: &Size) -> NodeConfig {
    NodeConfig::default().with_racs(
        size.racs
            .iter()
            .map(|name| RacConfig::static_rac(*name, *name))
            .collect(),
    )
}

pub fn pass(seed: u64, size: &Size) -> Result<Pass> {
    let setup = Instant::now();
    let topology = Arc::new(gen::topology(size.ases, seed));
    let config = node_config(size);
    let mut sim = Simulation::new(topology, SimulationConfig::default(), move |_| {
        config.clone()
    })?;
    let setup_s = setup.elapsed().as_secs_f64();
    let rss_after_setup_mb = host::rss_mb();

    let timed = Instant::now();
    let mut rounds_ms = Vec::with_capacity(size.rounds);
    for _ in 0..size.rounds {
        let round = Instant::now();
        sim.run_rounds(1)?;
        rounds_ms.push(round.elapsed().as_secs_f64() * 1e3);
    }
    let wall_s = timed.elapsed().as_secs_f64();

    let outputs = PlaneOutputs::of_simulation(&sim);
    let mut layers = Layers::new();
    simulation_layers(&mut layers, &sim);
    let steady_from = rounds_ms.len().saturating_sub(STEADY_ROUNDS);
    Ok(Pass {
        setup_s,
        wall_s,
        steps_ms: rounds_ms.split_off(steady_from),
        failed: 0,
        digest: outputs.digest(),
        layers,
        rss_after_setup_mb,
    })
}

pub fn traced_pass(seed: u64, size: &Size) -> Result<TracedPass> {
    let topology = Arc::new(gen::topology(size.ases, seed));
    let mut plane = TracedPlane::new(topology, &node_config(size))?;
    for _ in 0..size.rounds {
        plane.run_round()?;
    }

    let outputs = plane.outputs();
    let totals = plane.rec.totals();
    let total = |name: &str| totals.get(name).copied().unwrap_or(0) as f64;
    let tally = &plane.tally;
    let wall_ns: u64 = tally.rounds.iter().map(|round| round.wall_ns).sum();
    // Everything a round does happens inside one of these spans; what is left is the
    // driver's own bookkeeping and the cost of taking the spans.
    let covered_ns = total(span::DRAIN)
        + total(span::SCHEDULE)
        + total(span::VERIFY)
        + total(span::COMMIT)
        + total(span::PULL_RETURN)
        + total(span::ROUND_CORE)
        + total(span::HOUSEKEEPING);

    let mut layers = Layers::new();
    layers.insert("core.ingress.verify_ns", total(span::VERIFY));
    layers.insert("core.ingress.verify_count", tally.verified as f64);
    layers.insert("core.ingress.commit_ns", total(span::COMMIT));
    IngressCounts::of(plane.nodes().values()).insert_into(&mut layers);
    layers.insert("core.node.round_core_ns", total(span::ROUND_CORE));
    layers.insert("core.node.housekeeping_ns", total(span::HOUSEKEEPING));
    layers.insert("core.rac.setup_ns", ns(tally.rac.setup));
    layers.insert("core.rac.marshal_ns", ns(tally.rac.marshal));
    layers.insert("core.rac.execute_ns", ns(tally.rac.execute));
    layers.insert("core.rac.candidates", tally.rac.candidates as f64);
    let steady = &tally.rounds[tally.rounds.len().saturating_sub(STEADY_ROUNDS)..];
    let useful: u64 = steady.iter().map(|r| r.propagated + r.new_paths).sum();
    let candidates: u64 = steady.iter().map(|r| r.candidates).sum();
    layers.insert(
        "core.rac.useful_share",
        useful as f64 / candidates.max(1) as f64,
    );
    layers.insert("core.engine.replay_ns", total(span::PROBE));
    layers.insert(
        "core.engine.overhead_ns",
        (total(span::PROBE) - ns(tally.probe_rac.total())).max(0.0),
    );
    layers.insert(
        "core.egress.derived_ns",
        (total(span::ROUND_CORE) - total(span::PROBE)).max(0.0),
    );
    layers.insert("core.egress.sent", tally.sent as f64);
    layers.insert(
        "core.egress.registered",
        plane
            .nodes()
            .values()
            .map(|node| node.path_service().len())
            .sum::<usize>() as f64,
    );
    layers.insert("core.egress.pull_returns", tally.pull_returns as f64);
    layers.insert("core.beacon_db.occupancy", outputs.occupancy as f64);
    layers.insert("sim.delivery.drain_ns", total(span::DRAIN));
    layers.insert("sim.delivery.schedule_ns", total(span::SCHEDULE));
    layers.insert("sim.delivery.events", tally.events as f64);
    let delivery = plane.delivery_stats();
    layers.insert(
        "sim.delivery.dropped_no_node",
        delivery.dropped_no_node as f64,
    );
    layers.insert(
        "sim.delivery.dropped_link_down",
        delivery.dropped_link_down as f64,
    );
    layers.insert(
        "sim.simulation.round_ns",
        median(tally.rounds.iter().map(|round| round.wall_ns as f64)),
    );
    layers.insert(
        "sim.simulation.self_ns",
        (wall_ns as f64 - covered_ns).max(0.0),
    );

    Ok(TracedPass {
        wall_s: wall_ns as f64 / 1e9,
        failed: 0,
        digest: outputs.digest(),
        layers,
        budget_share: Some(covered_ns / wall_ns.max(1) as f64),
        recorder: plane.rec,
    })
}
