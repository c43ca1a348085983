//! The determinism probe's scenarios, rendered to a string: three fixed simulation
//! scenarios — two beaconing scenarios plus a PD campaign — with every registered path,
//! every overhead counter and every per-pair PD result in full. With `--churn-rate > 0` a
//! fourth scenario appends a churn run (per-step deltas plus the final plane state); with
//! `--algorithm` a fifth appends a run where every AS deploys the requested catalog spec
//! (e.g. `5YEN` or a seeded `aco` family).
//!
//! The text is **byte-identical for every `--delivery-parallelism` value** — that is the
//! determinism guarantee of verify-ahead, the simulator's one helper thread. The
//! `determinism` binary prints it so CI can diff a run at verify width 1 against one at
//! width 2; `tests/determinism_goldens.rs` compares it with the outputs committed
//! under `tests/goldens/`, which pin the bytes across commits as well: a change that only
//! makes the simulator faster must leave them alone. The churn and algorithm knobs are
//! different: they are *workload* knobs, so runs are compared with runs of the same
//! workload knobs.
//!
//! How-it-ran reporting — the selection-table counters — goes to **stderr**, so it never
//! pollutes the compared text.

use crate::BenchArgs;
use irec_core::{NodeConfig, PropagationPolicy, RacConfig};
use irec_sim::{ChurnConfig, ChurnEngine, PdCampaign, PdPairResult, Simulation};
use irec_topology::builder::{figure1, figure1_topology};
use irec_topology::{GeneratorConfig, TopologyGenerator};
use std::fmt::Write;
use std::sync::Arc;

/// Writes one line of the probe's output; a `String` sink cannot fail.
macro_rules! outln {
    ($out:expr, $($arg:tt)*) => {
        writeln!($out, $($arg)*).expect("writing to a String cannot fail")
    };
}

/// Runs the scenarios `args` select and returns everything they would print.
pub fn render(args: &BenchArgs) -> String {
    let mut out = String::new();

    // Scenario 1: the quickstart setup on the paper's Fig. 1 topology.
    let figure1_sim = Simulation::new(Arc::new(figure1_topology()), args.to_sim_config(), |_| {
        NodeConfig::default()
            .with_policy(PropagationPolicy::All)
            .with_racs(vec![
                RacConfig::static_rac("DO", "DO"),
                RacConfig::static_rac("widest", "widest"),
            ])
    })
    .expect("figure-1 simulation setup");
    dump(&mut out, "figure1", figure1_sim, 6);

    // Scenario 2: a generated internet topology with the paper's static RAC set.
    let config = GeneratorConfig {
        num_ases: args.ases,
        seed: args.seed,
        ..Default::default()
    };
    let generated = Simulation::new(
        Arc::new(TopologyGenerator::new(config).generate()),
        args.to_sim_config(),
        |_| {
            NodeConfig::default().with_racs(vec![
                RacConfig::static_rac("1SP", "1SP"),
                RacConfig::static_rac("5SP", "5SP"),
                RacConfig::static_rac("HD", "HD"),
                RacConfig::static_rac("DON", "DO"),
            ])
        },
    )
    .expect("generated simulation setup");
    dump(&mut out, "generated", generated, args.rounds);

    // Scenario 3: the PD campaign on Fig. 1 — exercises the campaign's snapshots and the
    // delivery of pull returns end to end.
    let mut base = Simulation::new(Arc::new(figure1_topology()), args.to_sim_config(), |_| {
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
    // finishes on its seeds alone and the probe never originates a single pull beacon —
    // the assertion below keeps the scenario honest.
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
    dump_pd_campaign(&mut out, "pd-campaign", &results);

    // Scenario 4 (only with `--churn-rate > 0`): the churn engine on a generated
    // topology. Churn knobs are *workload* knobs — they change this scenario's output
    // deliberately (and deterministically), unlike the verify width, which must leave it
    // byte-identical. The CI churn rows therefore diff churn runs against each other
    // (same churn knobs, different verify widths), never against a churn-free run. The scenario is appended after the three fixed ones so enabling
    // churn leaves their bytes untouched.
    if args.churn_rate > 0.0 {
        let node_config = move |_| {
            NodeConfig::default()
                .with_policy(PropagationPolicy::All)
                .with_racs(vec![RacConfig::static_rac("5SP", "5SP")])
        };
        let config = GeneratorConfig {
            num_ases: args.ases,
            seed: args.seed,
            ..Default::default()
        };
        let mut sim = Simulation::new(
            Arc::new(TopologyGenerator::new(config).generate()),
            args.to_sim_config(),
            node_config,
        )
        .expect("churn simulation setup");
        let mut engine = ChurnEngine::new(
            ChurnConfig::default()
                .with_rate(args.churn_rate)
                .with_seed(args.churn_seed)
                .with_kinds(args.churn_kinds),
            node_config,
        );
        let report = engine.run(&mut sim, 4).expect("churn scenario converges");
        outln!(out, "## scenario: churn");
        for step in &report.steps {
            let deltas: Vec<String> = step.deltas.iter().map(|d| d.to_string()).collect();
            outln!(
                out,
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
        dump_state(&mut out, "churn-final", &sim);
    }

    // Scenario 5 (only with `--algorithm`), appended last so enabling it leaves every
    // other scenario's bytes untouched.
    out.push_str(&render_algorithm(args));
    out
}

/// Scenario 5 alone, as [`render`] appends it — empty without `--algorithm`: every AS runs
/// a single RAC with the requested catalog spec on the generated topology. Like the churn
/// knobs this is a *workload* knob — `--algorithm 5YEN` or `--algorithm aco` (seeded via
/// `--aco-seed`/`--aco-budget`) changes the selection plane deliberately, but for a fixed
/// spec the output must stay byte-identical at every verify width: ACO's randomness comes
/// entirely from seeded per-(origin, group, egress, iteration, ant) streams, never from
/// execution order. The CI algorithm rows diff runs with the same spec across verify
/// widths.
pub fn render_algorithm(args: &BenchArgs) -> String {
    let mut out = String::new();
    if let Some((label, sim)) = algorithm_simulation(args) {
        dump(&mut out, &label, sim, args.rounds);
    }
    out
}

/// The simulation [`render_algorithm`] runs, not yet run, with its scenario label; `None`
/// without `--algorithm`.
pub fn algorithm_simulation(args: &BenchArgs) -> Option<(String, Simulation)> {
    let spec = args.algorithm_spec()?;
    let rac_spec = spec.clone();
    let config = GeneratorConfig {
        num_ases: args.ases,
        seed: args.seed,
        ..Default::default()
    };
    let sim = Simulation::new(
        Arc::new(TopologyGenerator::new(config).generate()),
        args.to_sim_config(),
        move |_| {
            NodeConfig::default()
                .with_policy(PropagationPolicy::All)
                .with_racs(vec![RacConfig::static_rac(&rac_spec, &rac_spec)])
        },
    )
    .expect("algorithm scenario setup");
    Some((format!("algorithm {spec}"), sim))
}

/// A PD campaign on a generated topology, shaped like the benchmark's `pd_pull`: HD plus
/// an on-demand RAC on every AS, `args.rounds` warm-up rounds, then the first two pairs in
/// AS-id order whose origin holds fewer than 20 HD paths to the target, each pulling for
/// up to 20 paths at 3 rounds per iteration. Where the Fig. 1 campaign of [`render`] pins
/// five ASes, this one pins the on-demand path over origins that carry several pull
/// iterations' algorithms at once. Not part of [`render`] and no knob of its own: it is
/// compared by `tests/determinism_goldens.rs`, on every execution plane `args` describes.
pub fn render_pd_generated(args: &BenchArgs) -> String {
    const MAX_PATHS: usize = 20;
    const PAIRS: usize = 2;
    let config = GeneratorConfig {
        num_ases: args.ases,
        seed: args.seed,
        ..Default::default()
    };
    let mut base = Simulation::new(
        Arc::new(TopologyGenerator::new(config).generate()),
        args.to_sim_config(),
        move |_| {
            NodeConfig::default().with_racs(vec![
                RacConfig::static_rac("HD", "HD"),
                RacConfig::on_demand_rac("on-demand"),
            ])
        },
    )
    .expect("generated PD base simulation setup");
    base.run_rounds(args.rounds)
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
    let mut out = String::new();
    dump_pd_campaign(&mut out, "pd-campaign generated", &results);
    out
}

/// Writes every pair of a PD campaign — iteration counts, pull overhead, every path —
/// after asserting that some pair actually pulled: a campaign that finishes on its HD
/// seeds alone would pin nothing of the pull pipeline.
fn dump_pd_campaign(out: &mut String, label: &str, results: &[PdPairResult]) {
    assert!(
        results
            .iter()
            .any(|pair| pair.result.iterations > 0 && !pair.pull_overhead.is_empty()),
        "PD scenario {label} ran zero pull iterations — it no longer exercises the pull pipeline"
    );
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
        }
    }
}

/// Runs `rounds` beaconing rounds and writes every observable output of the simulation in
/// its natural (deterministic) order — registration order included, so any scheduling
/// nondeterminism shows up as a diff.
fn dump(out: &mut String, label: &str, mut sim: Simulation, rounds: usize) {
    sim.run_rounds(rounds).expect("beaconing rounds");
    dump_state(out, label, &sim);
}

/// Writes every observable output of an already-run simulation.
fn dump_state(out: &mut String, label: &str, sim: &Simulation) {
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
    }
    // How-it-ran reporting, like `SchedulerStats`: stderr only, never part of the
    // compared text.
    let inc = sim.incremental_stats();
    eprintln!(
        "selections\tscenario={label}\treused={}\textended={}\trecomputed={}\trefused={}\tinvalidated={}",
        inc.reused, inc.extended, inc.recomputed, inc.refused, inc.invalidated
    );
}
