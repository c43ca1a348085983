//! The fixture catalog: every named simulation scenario whose output is pinned byte for
//! byte under `tests/goldens/`, one builder per scenario.
//!
//! A [`Fixture`] is a name — the stem of its golden file — and a function from verify width
//! to what the scenario printed. `tests/fixture_matrix.rs` renders every fixture at verify
//! widths 1 and 2 and compares both with the committed bytes, so the goldens pin the output
//! across commits and the width-2 run pins verify-ahead against the inline reference in
//! the same test. The `determinism` binary prints the same builders' text for its
//! arguments ([`crate::determinism::render`]).
//!
//! Each builder takes the [`SimulationConfig`] it runs under and the scenario's workload
//! parameters, runs the scenario once and returns its [`Rendered`] output. Builders assert
//! what makes their scenario worth pinning (a PD campaign that never pulled pins nothing of
//! the pull pipeline); how-it-ran reporting — the selection-table counters — goes to
//! stderr and into [`Rendered::selections`], never into the compared text.

use crate::workload::{self, generated_topology};
use irec_algorithms::incremental::IncrementalStats;
use irec_core::{NodeConfig, PropagationPolicy, RacConfig};
use irec_sim::{ChurnConfig, PdCampaign, PdPairResult, Simulation, SimulationConfig};
use irec_topology::builder::{figure1, figure1_topology};
use std::fmt::Write;
use std::sync::Arc;

/// Writes one line of a scenario's output; a `String` sink cannot fail.
macro_rules! outln {
    ($out:expr, $($arg:tt)*) => {
        writeln!($out, $($arg)*).expect("writing to a String cannot fail")
    };
}

/// What one run of a scenario produced.
#[derive(Debug, Default)]
pub struct Rendered {
    /// The scenario's output: every registered path, counter and PD result, as the golden
    /// file holds it.
    pub text: String,
    /// How the run's `(RAC, batch)` selections were made — reused, extended, recomputed.
    /// Not part of the text, which is the same whichever pass made a selection, but
    /// plane-independent all the same: what a round reuses is decided per node from its
    /// own database. For a PD campaign, the warmed base's counters.
    pub selections: IncrementalStats,
    /// What the text rounds or leaves out: every registered path in full (the text prints
    /// bandwidths rounded, and PD paths without holder, origin and interfaces) and every
    /// overhead sample, the zeros of silent periods included. One item per line; compared
    /// across verify widths, not against a golden.
    pub unprinted: String,
}

/// A named scenario of the catalog.
pub struct Fixture {
    /// The scenario's golden: `tests/goldens/<name>.txt`.
    pub name: &'static str,
    /// Runs the scenario at the given verify width.
    pub render: fn(usize) -> Rendered,
}

/// Every fixture, in the order the goldens were recorded.
pub const CATALOG: &[Fixture] = &[
    Fixture {
        name: "figure1",
        render: |width| figure1(config(width)),
    },
    Fixture {
        name: "generated-a12-r3-s5",
        render: |width| generated(config(width), 12, 5, 3),
    },
    Fixture {
        name: "pd-campaign-figure1",
        render: |width| pd_campaign_figure1(config(width)),
    },
    Fixture {
        name: "churn-a12-r3-s5-cs2",
        render: |width| churn(config(width), 12, 5, churn_timeline(2)),
    },
    Fixture {
        name: "churn-a12-r3-s5-cs7",
        render: |width| churn(config(width), 12, 5, churn_timeline(7)),
    },
    Fixture {
        name: "algorithm-5sp-a12-r10-s5",
        render: |width| algorithm(config(width), 12, 5, 10, "5SP"),
    },
    Fixture {
        name: "algorithm-hd-a12-r10-s5",
        render: |width| algorithm(config(width), 12, 5, 10, "HD"),
    },
    Fixture {
        name: "pd-campaign-a8-s5",
        render: |width| pd_campaign_generated(config(width), 8, 5, 4),
    },
    Fixture {
        name: "figure1-paper-r5",
        render: |width| figure1_paper(config(width), 5),
    },
    Fixture {
        name: "algorithm-5yen-a12-r3-s5",
        render: |width| algorithm(config(width), 12, 5, 3, "5YEN"),
    },
    Fixture {
        name: "algorithm-aco-s7-b4-a12-r3-s5",
        render: |width| algorithm(config(width), 12, 5, 3, "aco:7:4"),
    },
];

/// The fixture named `name`.
pub fn fixture(name: &str) -> Option<&'static Fixture> {
    CATALOG.iter().find(|fixture| fixture.name == name)
}

fn config(width: usize) -> SimulationConfig {
    SimulationConfig::default().with_delivery_parallelism(width)
}

/// The churn fixtures' timeline: rate 1.5 with every delta kind enabled. Seed 2 draws
/// link-down, link-up, node-leave and catalog swaps; seed 7 re-joins the ASes it removed.
fn churn_timeline(churn_seed: u64) -> ChurnConfig {
    ChurnConfig::default().with_rate(1.5).with_seed(churn_seed)
}

/// The quickstart setup on the paper's Fig. 1 topology: DO and widest, 6 rounds.
pub fn figure1(config: SimulationConfig) -> Rendered {
    let sim = Simulation::new(Arc::new(figure1_topology()), config, |_| {
        NodeConfig::default()
            .with_policy(PropagationPolicy::All)
            .with_racs(vec![
                RacConfig::static_rac("DO", "DO"),
                RacConfig::static_rac("widest", "widest"),
            ])
    })
    .expect("figure-1 simulation setup");
    dump("figure1", sim, 6)
}

/// Fig. 1 under the paper's five-RAC deployment, on-demand RAC included, with every
/// beacon propagated: `rounds` rounds.
pub fn figure1_paper(config: SimulationConfig, rounds: usize) -> Rendered {
    let sim = Simulation::new(Arc::new(figure1_topology()), config, |_| {
        NodeConfig::paper_simulation(false).with_policy(PropagationPolicy::All)
    })
    .expect("figure-1 paper simulation setup");
    dump("figure1-paper", sim, rounds)
}

/// A generated valley-free topology with the paper's static RAC set (1SP, 5SP, HD, DON).
pub fn generated(config: SimulationConfig, ases: usize, seed: u64, rounds: usize) -> Rendered {
    dump(
        "generated",
        generated_simulation(config, ases, seed),
        rounds,
    )
}

/// The plane [`generated`] renders, before its first round.
pub fn generated_simulation(config: SimulationConfig, ases: usize, seed: u64) -> Simulation {
    Simulation::new(generated_topology(ases, seed), config, |_| {
        NodeConfig::default().with_racs(vec![
            RacConfig::static_rac("1SP", "1SP"),
            RacConfig::static_rac("5SP", "5SP"),
            RacConfig::static_rac("HD", "HD"),
            RacConfig::static_rac("DON", "DO"),
        ])
    })
    .expect("generated simulation setup")
}

/// A generated topology where every AS runs one RAC with the catalog spec `spec` (e.g.
/// `5SP`, `5YEN` or a seeded `aco:<seed>:<iters>`). For a fixed spec the output is the
/// same at every verify width — ACO's randomness comes entirely from seeded
/// per-(origin, group, egress, iteration, ant) streams, never from execution order.
pub fn algorithm(
    config: SimulationConfig,
    ases: usize,
    seed: u64,
    rounds: usize,
    spec: &str,
) -> Rendered {
    let sim = workload::algorithm_workload(spec, ases, config, seed);
    dump(&format!("algorithm {spec}"), sim, rounds)
}

/// The churn engine on a generated topology running 5SP with every beacon propagated
/// (the churn workload of `fig_churn`): four steps of the seeded timeline `churn`, each
/// step's deltas and settle accounting, then the final plane.
pub fn churn(config: SimulationConfig, ases: usize, seed: u64, churn: ChurnConfig) -> Rendered {
    let (churn_steps, sim) = workload::churn_run(ases, 4, churn, config, seed);
    let mut steps = String::new();
    outln!(steps, "## scenario: churn");
    for step in &churn_steps {
        let deltas: Vec<String> = step.deltas.iter().map(|d| d.to_string()).collect();
        outln!(
            steps,
            "churn-step\t{}\tround={}\tdeltas=[{}]\tsettle={}\tdropped_no_node={}\tdropped_link_down={}\tdelivered={}",
            step.step,
            step.round,
            deltas.join(","),
            step.settle_rounds,
            step.dropped_no_node,
            step.dropped_link_down,
            step.delivered
        );
    }
    let mut rendered = dump_state("churn-final", &sim);
    rendered.text.insert_str(0, &steps);
    rendered
}

/// The PD campaign on Fig. 1 (HD plus an on-demand RAC, 6 warm-up rounds): three pairs,
/// one of them twice, each pulling for up to 6 paths at 3 rounds per iteration.
pub fn pd_campaign_figure1(config: SimulationConfig) -> Rendered {
    let mut base = Simulation::new(Arc::new(figure1_topology()), config, |_| {
        NodeConfig::default()
            .with_policy(PropagationPolicy::All)
            .with_racs(vec![
                RacConfig::static_rac("HD", "HD"),
                RacConfig::on_demand_rac("on-demand"),
            ])
    })
    .expect("PD base simulation setup");
    base.run_rounds(6).expect("PD warm-up rounds");
    // `max_paths` must exceed the HD seed count of the warmed base, or every workflow
    // finishes on its seeds alone and never originates a single pull beacon — the
    // assertion in `dump_pd_campaign` keeps the scenario honest.
    let results = PdCampaign::new(
        vec![
            (figure1::SRC, figure1::DST),
            (figure1::DST, figure1::SRC),
            (figure1::SRC, figure1::DST),
        ],
        6,
    )
    .with_rounds_per_iteration(3)
    .run(&base)
    .expect("PD campaign run");
    dump_pd_campaign("pd-campaign", &base, &results)
}

/// A PD campaign on a generated topology, shaped like the benchmark's `pd_pull`: HD plus
/// an on-demand RAC on every AS, `rounds` warm-up rounds, then the first two pairs in
/// AS-id order whose origin holds fewer than 20 HD paths to the target, each pulling for
/// up to 20 paths at 3 rounds per iteration. Where the Fig. 1 campaign pins five ASes,
/// this one pins the on-demand path over origins that carry several pull iterations'
/// algorithms at once.
pub fn pd_campaign_generated(
    config: SimulationConfig,
    ases: usize,
    seed: u64,
    rounds: usize,
) -> Rendered {
    const MAX_PATHS: usize = 20;
    const PAIRS: usize = 2;
    let mut base = Simulation::new(generated_topology(ases, seed), config, |_| {
        NodeConfig::default().with_racs(vec![
            RacConfig::static_rac("HD", "HD"),
            RacConfig::on_demand_rac("on-demand"),
        ])
    })
    .expect("generated PD base simulation setup");
    base.run_rounds(rounds)
        .expect("generated PD warm-up rounds");
    let ids = base.topology().as_ids();
    let pairs: Vec<_> = ids
        .iter()
        .flat_map(|&origin| ids.iter().map(move |&target| (origin, target)))
        .filter(|&(origin, target)| {
            origin != target
                && base
                    .node(origin)
                    .expect("every AS has a node")
                    .path_service()
                    .paths_to_by(target, "HD")
                    .len()
                    < MAX_PATHS
        })
        .take(PAIRS)
        .collect();
    let results = PdCampaign::new(pairs, MAX_PATHS)
        .with_rounds_per_iteration(3)
        .run(&base)
        .expect("generated PD campaign run");
    dump_pd_campaign("pd-campaign generated", &base, &results)
}

/// Writes every pair of a PD campaign — iteration counts, pull overhead, every path —
/// after asserting that some pair actually pulled: a campaign that finishes on its HD
/// seeds alone would pin nothing of the pull pipeline.
fn dump_pd_campaign(label: &str, base: &Simulation, results: &[PdPairResult]) -> Rendered {
    assert!(
        results
            .iter()
            .any(|pair| pair.result.iterations > 0 && !pair.pull_overhead.is_empty()),
        "PD scenario {label} ran zero pull iterations — it no longer exercises the pull pipeline"
    );
    let mut rendered = Rendered {
        selections: base.incremental_stats(),
        ..Rendered::default()
    };
    let out = &mut rendered.text;
    outln!(out, "## scenario: {label}");
    for (index, pair) in results.iter().enumerate() {
        outln!(
            out,
            "pd-pair\t{index}\t{}\t{}\titerations={}\tempty={}\tpull_overhead={:?}",
            pair.origin,
            pair.target,
            pair.result.iterations,
            pair.result.empty_iterations,
            pair.pull_overhead
        );
        for p in &pair.result.paths {
            outln!(
                out,
                "pd-path\t{index}\t{}\t{}\t{}\t{}\t{:?}",
                p.algorithm,
                p.metrics.latency,
                p.metrics.bandwidth,
                p.metrics.hops,
                p.links
            );
            outln!(rendered.unprinted, "pd-path\t{index}\t{p:?}");
        }
    }
    rendered
}

/// Runs `rounds` beaconing rounds and writes every observable output of the simulation in
/// its natural (deterministic) order — registration order included, so any scheduling
/// nondeterminism shows up as a diff.
fn dump(label: &str, mut sim: Simulation, rounds: usize) -> Rendered {
    sim.run_rounds(rounds).expect("beaconing rounds");
    dump_state(label, &sim)
}

/// Writes every observable output of an already-run simulation.
fn dump_state(label: &str, sim: &Simulation) -> Rendered {
    let mut rendered = Rendered {
        selections: sim.incremental_stats(),
        ..Rendered::default()
    };
    let out = &mut rendered.text;
    outln!(out, "## scenario: {label}");
    outln!(
        out,
        "counters\tdelivered={}\tdropped_no_node={}\tdropped_link_down={}\trejected={}\toccupancy={}\tconnectivity={:.6}",
        sim.delivered_messages(),
        sim.dropped_no_node(),
        sim.dropped_link_down(),
        sim.rejected_messages(),
        sim.ingress_occupancy(),
        sim.connectivity()
    );
    outln!(
        out,
        "overhead\ttotal={}\tsamples={:?}",
        sim.overhead().total(),
        sim.overhead().nonzero_samples()
    );
    outln!(
        rendered.unprinted,
        "overhead\tsamples={:?}",
        sim.overhead().samples()
    );
    for p in sim.registered_paths() {
        outln!(
            out,
            "path\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:?}",
            p.holder,
            p.origin,
            p.algorithm,
            p.group,
            p.origin_interface,
            p.holder_interface,
            p.metrics.latency,
            p.metrics.bandwidth,
            p.metrics.hops,
            p.links
        );
        outln!(rendered.unprinted, "path\t{p:?}");
    }
    // How-it-ran reporting, like `SchedulerStats`: stderr only, never part of the
    // compared text.
    let inc = rendered.selections;
    eprintln!(
        "selections\tscenario={label}\treused={}\textended={}\trecomputed={}\trefused={}\tinvalidated={}",
        inc.reused, inc.extended, inc.recomputed, inc.refused, inc.invalidated
    );
    rendered
}
