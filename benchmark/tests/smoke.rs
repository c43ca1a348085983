//! Every workload at toy size: each metric is emitted exactly once, finite, with a unit
//! and a well-formed name; the result line parses back; the metric tables agree with
//! `BENCHMARK.json`; and the workloads keep to their own layers.

use irec_benchmark::json::Json;
use irec_benchmark::metrics::{END_TO_END, KERNEL_ONLY, PER_LAYER};
use irec_benchmark::run::{run, Report};
use irec_benchmark::workloads::{Sizes, Workload};
use std::collections::BTreeSet;

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The result line must carry exactly the contract's keys and every metric of `names`
/// once, finite and with a unit.
fn check_result_line(report: &Report, names: &[&str], never_zero: bool) {
    let line = report.contract_json().to_string();
    assert!(!line.contains('\n'));
    let parsed = Json::parse(&line).expect("the result line parses back");
    let keys: Vec<&str> = parsed
        .as_obj()
        .expect("an object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(
        parsed.get("correct").and_then(Json::as_bool),
        Some(true),
        "{}: {:?}",
        report.workload,
        report.notes
    );
    assert_eq!(parsed.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(parsed.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);

    let metrics = parsed.get("metrics").and_then(Json::as_obj).unwrap();
    let emitted: BTreeSet<&str> = metrics.keys().map(String::as_str).collect();
    let expected: BTreeSet<&str> = names.iter().copied().collect();
    assert_eq!(emitted, expected, "{}", report.workload);
    assert_eq!(metrics.len(), names.len(), "a metric was emitted twice");
    for (name, metric) in metrics {
        assert!(well_formed(name), "{name}");
        let value = metric.get("value").and_then(Json::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{}: {name} = {value:?}",
            report.workload
        );
        if never_zero {
            assert!(value.unwrap() > 0.0, "{}: {name} is 0", report.workload);
        }
        let unit = metric.get("unit").and_then(Json::as_str).unwrap_or("");
        assert!(
            !unit.is_empty() && unit.len() <= 16,
            "{name}: unit {unit:?}"
        );
    }
}

#[test]
fn every_workload_emits_every_metric_once() {
    let sizes = Sizes::toy();
    let end_to_end: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    let per_layer: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    for workload in Workload::ALL {
        let untraced = run(workload, 7, 0.0, false, &sizes, None);
        check_result_line(&untraced, &end_to_end, true);
        assert!(Json::parse(&untraced.full_json().to_string()).is_ok());

        let traced = run(workload, 7, 0.0, true, &sizes, None);
        check_result_line(&traced, &per_layer, false);
        let value = |name: &str| {
            traced
                .per_layer
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert!(value("host.cpu_share") > 0.0);
        match workload {
            Workload::Beacon5sp | Workload::BeaconMix => {
                assert!(value("core.ingress.verify_ns") > 0.0);
                assert!(value("core.node.round_core_ns") > 0.0);
                assert!(value("trace_budget_share") > 0.9);
            }
            Workload::PdPull => assert!(value("sim.pd.snapshot_ns") > 0.0),
            Workload::Churn5sp => assert!(value("sim.churn.settle_ns") > 0.0),
            Workload::RacKernel => {
                // The kernel bypasses the simulator: its layers must record nothing.
                for (name, layer_value) in &traced.per_layer {
                    let simulator_layer = ["core.ingress.", "core.egress.", "sim."]
                        .iter()
                        .any(|prefix| name.starts_with(prefix));
                    assert!(!simulator_layer || *layer_value == 0.0, "{name}");
                }
                for name in KERNEL_ONLY {
                    assert!(value(name) > 0.0, "{name}");
                }
                assert!(value("crypto.sign_ns") > 0.0);
            }
        }
    }
}

#[test]
fn same_seed_same_digest_other_seed_other_digest() {
    let sizes = Sizes::toy();
    let first = run(Workload::Beacon5sp, 7, 0.0, false, &sizes, None);
    let again = run(Workload::Beacon5sp, 7, 0.0, false, &sizes, None);
    let other = run(Workload::Beacon5sp, 8, 0.0, false, &sizes, None);
    assert_eq!(first.digest(), again.digest());
    assert_ne!(first.digest(), other.digest());
}

#[test]
fn metric_tables_agree_with_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let spec = Json::parse(&text).expect("BENCHMARK.json is JSON");
    let keys: Vec<&str> = spec.as_obj().unwrap().keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );

    let field =
        |entry: &Json, key: &str| entry.get(key).and_then(Json::as_str).unwrap().to_string();
    let workloads: Vec<String> = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, expected);

    let listed = spec.get("end_to_end").and_then(Json::as_arr).unwrap();
    assert_eq!(listed.len(), END_TO_END.len());
    for (entry, metric) in listed.iter().zip(END_TO_END) {
        assert_eq!(field(entry, "name"), metric.name);
        assert_eq!(field(entry, "unit"), metric.unit);
        assert_eq!(field(entry, "better"), metric.better.as_str());
        assert_eq!(
            entry.get("bound").and_then(Json::as_f64),
            Some(metric.bound)
        );
        assert!(metric.bound <= 0.25);
    }
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));

    let listed = spec.get("per_layer").and_then(Json::as_arr).unwrap();
    assert_eq!(listed.len(), PER_LAYER.len());
    assert!(listed.len() <= 128);
    for (entry, metric) in listed.iter().zip(PER_LAYER) {
        assert_eq!(field(entry, "name"), metric.name);
        assert_eq!(field(entry, "unit"), metric.unit);
        assert_eq!(field(entry, "better"), metric.better.as_str());
    }
}
