//! A tiny `--key value` argument parser shared by the figure binaries (no external
//! dependencies). It is strict: a key it does not know or a value it cannot parse is an
//! error naming the key, never a silent fallback to the default — a script that still
//! passes a removed knob, or misspells a value, must not run (and pass its diff)
//! vacuously.

use irec_sim::{ChurnKinds, SimulationConfig};
use irec_types::{IrecError, Result};

/// Parsed benchmark arguments with defaults suitable for a laptop-scale run.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchArgs {
    /// Number of ASes of the generated topology (`--ases`, default 60; the paper uses 500).
    pub ases: usize,
    /// Number of beaconing rounds to simulate (`--rounds`, default 8).
    pub rounds: usize,
    /// PRNG seed (`--seed`, default 7).
    pub seed: u64,
    /// Number of (origin, target) AS pairs sampled for the PD workflow (`--pd-pairs`,
    /// default 10).
    pub pd_pairs: usize,
    /// Repetitions per measurement point for the micro-benchmarks (`--reps`, default 5).
    pub reps: usize,
    /// Maximum number of parallel RACs for the throughput scan (`--max-racs`,
    /// default = available parallelism capped at 16).
    pub max_racs: usize,
    /// Worker threads of the parallel execution engines (`--parallelism`, default 1 =
    /// sequential). Threaded into the simulation's node phase, each node's RAC engine, and
    /// the Fig. 6 engine-scaling section.
    pub parallelism: usize,
    /// Worker threads of the message-delivery plane's verify stage
    /// (`--delivery-parallelism`, default 1 = sequential). Threaded into every simulation
    /// the binaries build and into the delivery-scaling sections of fig6/fig7.
    pub delivery_parallelism: usize,
    /// Shard count of every node's ingress database (`--ingress-shards`, default 0 = auto:
    /// the next power of two of `--parallelism`). Threaded into every simulation the
    /// binaries build, the engine workloads and the `ingress_sharding` criterion bench;
    /// the simulation output is byte-identical for every value.
    pub ingress_shards: usize,
    /// Worker threads of the PD campaign (`--pd-parallelism`, default 1 = sequential):
    /// how many `(origin, target)` pull workflows run concurrently, each on its own
    /// simulation snapshot. Campaign results are byte-identical for every value.
    pub pd_parallelism: usize,
    /// Shard count of every node's path service (`--path-shards`, default 0 = auto: the
    /// next power of two of `--parallelism`). Threaded into every simulation the binaries
    /// build; the simulation output is byte-identical for every value.
    pub path_shards: usize,
    /// Expected churn deltas per step of the churn engine (`--churn-rate`, default 0 =
    /// churn disabled). A *workload* knob: it changes what is simulated — deterministically
    /// for a fixed `--churn-seed` — unlike the parallelism/shard knobs, which never change
    /// the output.
    pub churn_rate: f64,
    /// PRNG seed of the churn timeline (`--churn-seed`, default 11), deliberately separate
    /// from `--seed` so the same topology can be churned with different timelines.
    pub churn_seed: u64,
    /// Enabled churn delta kinds with optional weights (`--churn-kinds`, default `all`;
    /// e.g. `link-down,link-up` or `link-down=3,node-leave`).
    pub churn_kinds: ChurnKinds,
    /// Selection algorithm of every RAC the binaries deploy (`--algorithm`, default none =
    /// each binary's built-in mix). Any catalog spec: `5SP`, `5YEN`, `HD`,
    /// `aco[:<seed>[:<iterations>]]`, ... A *workload* knob, like the churn family: it
    /// changes what is computed, deterministically for a fixed spec.
    pub algorithm: Option<String>,
    /// PRNG seed of the ant-colony algorithm family (`--aco-seed`, default 1). Only
    /// consulted when `--algorithm aco` is given without an explicit `:<seed>` suffix.
    pub aco_seed: u64,
    /// Iteration budget of the ant-colony algorithm family (`--aco-budget`, default 16,
    /// cap 1024). Only consulted when `--algorithm aco` is given without an explicit
    /// iteration suffix.
    pub aco_budget: usize,
}

impl Default for BenchArgs {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        BenchArgs {
            ases: 60,
            rounds: 8,
            seed: 7,
            pd_pairs: 10,
            reps: 5,
            max_racs: cores.min(16),
            parallelism: 1,
            delivery_parallelism: 1,
            ingress_shards: 0,
            pd_parallelism: 1,
            path_shards: 0,
            churn_rate: 0.0,
            churn_seed: 11,
            churn_kinds: ChurnKinds::default(),
            algorithm: None,
            aco_seed: 1,
            aco_budget: 16,
        }
    }
}

impl BenchArgs {
    /// Parses `--key value` pairs from an iterator of arguments. Every argument must be
    /// a known `--key` followed by its value; anything else — an unknown key, a missing
    /// or unparsable value, a stray word — is an error naming the offender. Out-of-range
    /// numbers are still clamped, as [`BenchArgs::help_text`] documents per knob.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self> {
        let mut parsed = BenchArgs::default();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            let key = arg.strip_prefix("--").ok_or_else(|| {
                IrecError::config(format!(
                    "unexpected argument {arg:?} (expected --key value)"
                ))
            })?;
            let value = iter.next_if(|next| !next.starts_with("--"));
            parsed.set(key, value.as_deref())?;
        }
        Ok(parsed)
    }

    /// Applies one `--key value` pair (`value` is `None` where the key stood last or
    /// before another `--key`).
    fn set(&mut self, key: &str, value: Option<&str>) -> Result<()> {
        /// The value of `--key`, parsed; missing and unparsable values are errors.
        fn parsed<T: std::str::FromStr>(key: &str, value: Option<&str>) -> Result<T>
        where
            T::Err: std::fmt::Display,
        {
            let raw = value.ok_or_else(|| IrecError::config(format!("--{key} needs a value")))?;
            raw.parse()
                .map_err(|err| IrecError::config(format!("--{key}: cannot parse {raw:?}: {err}")))
        }
        match key {
            "ases" => self.ases = parsed::<usize>(key, value)?.max(5),
            "rounds" => self.rounds = parsed::<usize>(key, value)?.max(1),
            "seed" => self.seed = parsed(key, value)?,
            "pd-pairs" => self.pd_pairs = parsed(key, value)?,
            "reps" => self.reps = parsed::<usize>(key, value)?.max(1),
            "max-racs" => self.max_racs = parsed::<usize>(key, value)?.clamp(1, 64),
            "parallelism" => self.parallelism = parsed::<usize>(key, value)?.clamp(1, 64),
            "delivery-parallelism" => {
                self.delivery_parallelism = parsed::<usize>(key, value)?.clamp(1, 64);
            }
            "ingress-shards" => self.ingress_shards = parsed::<usize>(key, value)?.min(256),
            "pd-parallelism" => self.pd_parallelism = parsed::<usize>(key, value)?.clamp(1, 64),
            "path-shards" => self.path_shards = parsed::<usize>(key, value)?.min(256),
            "churn-rate" => {
                let rate: f64 = parsed(key, value)?;
                if !rate.is_finite() {
                    return Err(IrecError::config(format!("--{key}: {rate} is not a rate")));
                }
                self.churn_rate = rate.max(0.0);
            }
            "churn-seed" => self.churn_seed = parsed(key, value)?,
            "churn-kinds" => self.churn_kinds = parsed(key, value)?,
            "algorithm" => {
                let spec: String = parsed(key, value)?;
                if spec.is_empty() {
                    return Err(IrecError::config(format!("--{key} needs a value")));
                }
                self.algorithm = Some(spec);
            }
            "aco-seed" => self.aco_seed = parsed(key, value)?,
            "aco-budget" => self.aco_budget = parsed::<usize>(key, value)?.clamp(1, 1024),
            _ => {
                return Err(IrecError::config(format!(
                    "unknown argument --{key} (see --help for the knobs this binary takes)"
                )))
            }
        }
        Ok(())
    }

    /// The effective `--algorithm` catalog spec, with the bare `aco` family name expanded
    /// to `aco:<--aco-seed>:<--aco-budget>`. Explicit suffixes (`aco:9`, `aco:9:4`) win
    /// over the dedicated knobs, like every other spec.
    pub fn algorithm_spec(&self) -> Option<String> {
        self.algorithm.as_deref().map(|name| {
            if name.eq_ignore_ascii_case("aco") {
                format!("aco:{}:{}", self.aco_seed, self.aco_budget)
            } else {
                name.to_string()
            }
        })
    }

    /// The [`SimulationConfig`] these arguments describe: the one place the figure
    /// binaries and campaign runner translate knobs into a simulation, so no caller
    /// hand-rolls the plumbing (or misses a knob added later). Node-level shard counts
    /// ride along — [`SimulationConfig::with_ingress_shards`] /
    /// [`SimulationConfig::with_path_shards`] push them into every node the simulation
    /// builds, including mid-run churn joins.
    pub fn to_sim_config(&self) -> SimulationConfig {
        SimulationConfig::default()
            .with_parallelism(self.parallelism)
            .with_delivery_parallelism(self.delivery_parallelism)
            .with_ingress_shards(self.ingress_shards)
            .with_path_shards(self.path_shards)
    }

    /// One-screen summary of every `--key value` knob shared by the figure binaries.
    ///
    /// The full table — auto-default rules, determinism guarantees, and the
    /// `IREC_CRITERION_*` environment hooks — lives in `docs/KNOBS.md`.
    pub fn help_text() -> &'static str {
        "Shared figure-binary knobs (all `--key value`; an unknown key or an unparsable\n\
         value is an error):\n\
         \n\
         \x20 --ases N                  topology size in ASes (default 60, min 5)\n\
         \x20 --rounds N                beaconing rounds to simulate (default 8)\n\
         \x20 --seed N                  PRNG seed (default 7)\n\
         \x20 --reps N                  repetitions per measurement point (default 5)\n\
         \x20 --pd-pairs N              (origin, target) pairs of the PD campaign (default 10)\n\
         \x20 --max-racs N              upper bound of the RAC-count scan (default cores, cap 16)\n\
         \x20 --parallelism N           node-phase + RAC-engine workers (default 1 = sequential)\n\
         \x20 --delivery-parallelism N  delivery-plane verify/apply workers (default 1)\n\
         \x20 --pd-parallelism N        concurrent PD campaign pairs (default 1)\n\
         \x20 --ingress-shards N        ingress-DB shards per node (default 0 = auto)\n\
         \x20 --path-shards N           path-service shards per node (default 0 = auto)\n\
         \x20 --churn-rate R            expected churn deltas per step (default 0 = off)\n\
         \x20 --churn-seed N            churn-timeline PRNG seed (default 11)\n\
         \x20 --churn-kinds K           delta kinds, e.g. all or link-down=3,node-leave\n\
         \x20 --algorithm A             RAC selection algorithm spec, e.g. 5SP, 5YEN, HD,\n\
         \x20                           aco[:<seed>[:<iters>]] (default: binary's own mix)\n\
         \x20 --aco-seed N              ant-colony PRNG seed for a bare --algorithm aco\n\
         \x20                           (default 1)\n\
         \x20 --aco-budget N            ant-colony iteration budget for a bare\n\
         \x20                           --algorithm aco (default 16, cap 1024)\n\
         \n\
         Every parallelism/shard value yields byte-identical simulation output.\n\
         Churn knobs are workload knobs: they change the timeline, deterministically.\n\
         So is --algorithm: it changes the selection plane, deterministically per spec.\n\
         Full table with auto-default rules and IREC_CRITERION_* env hooks: docs/KNOBS.md\n"
    }

    /// Parses the current process arguments (skipping the binary name).
    ///
    /// `--help`/`-h` print [`BenchArgs::help_text`] and exit; arguments
    /// [`BenchArgs::parse`] rejects print the reason and exit with status 2.
    pub fn from_env() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if args.iter().any(|a| a == "--help" || a == "-h") {
            print!("{}", Self::help_text());
            std::process::exit(0);
        }
        Self::parse(args).unwrap_or_else(|err| {
            eprintln!("{err}\nrun with --help for the list of knobs");
            std::process::exit(2);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn try_parse(s: &[&str]) -> Result<BenchArgs> {
        BenchArgs::parse(s.iter().map(|s| s.to_string()))
    }

    fn parse(s: &[&str]) -> BenchArgs {
        try_parse(s).expect("arguments parse")
    }

    /// The message `s` is rejected with.
    fn rejection(s: &[&str]) -> String {
        try_parse(s)
            .expect_err("arguments are rejected")
            .to_string()
    }

    #[test]
    fn defaults_without_arguments() {
        let a = parse(&[]);
        assert_eq!(a.ases, 60);
        assert_eq!(a.rounds, 8);
        assert!(a.max_racs >= 1);
        assert_eq!(a.parallelism, 1);
        assert_eq!(a.delivery_parallelism, 1);
        assert_eq!(a.ingress_shards, 0);
        assert_eq!(a.pd_parallelism, 1);
        assert_eq!(a.path_shards, 0);
    }

    #[test]
    fn unknown_keys_are_errors_naming_the_key() {
        // A script still passing a knob that was removed must fail, not run vacuously.
        let message = rejection(&["--rounds", "3", "--retired-knob", "on"]);
        assert!(message.contains("--retired-knob"), "{message}");
        assert!(rejection(&["--bogus", "x"]).contains("--bogus"));
        assert!(rejection(&["--verbose"]).contains("--verbose"));
        for args in [
            &["--pd-deep-clone"][..],
            &["--pd-deep-clone", "true"],
            &["--round-scheduler", "dag"],
        ] {
            let key = args[0];
            assert!(rejection(args).contains(&format!("unknown argument {key}")));
        }
        // So must a stray word that is no `--key` at all.
        assert!(rejection(&["rounds", "3"]).contains("\"rounds\""));
    }

    #[test]
    fn unparsable_and_missing_values_are_errors_naming_the_key() {
        for (key, value) in [
            ("--ases", "twelve"),
            ("--seed", "-1"),
            ("--parallelism", "4.5"),
            ("--churn-rate", "fast"),
            ("--churn-rate", "inf"),
            ("--churn-kinds", "bogus-kind"),
            ("--aco-budget", ""),
        ] {
            let message = rejection(&[key, value]);
            assert!(message.contains(key), "{key} {value}: {message}");
        }
        for key in ["--rounds", "--algorithm", "--churn-seed"] {
            assert!(rejection(&[key]).contains(key));
            assert!(rejection(&[key, "--seed", "1"]).contains(key));
        }
    }

    #[test]
    fn to_sim_config_carries_every_simulation_knob() {
        let a = parse(&[
            "--parallelism",
            "4",
            "--delivery-parallelism",
            "3",
            "--ingress-shards",
            "7",
            "--path-shards",
            "5",
        ]);
        let config = a.to_sim_config();
        assert_eq!(config.parallelism, 4);
        assert_eq!(config.delivery_parallelism, 3);
        assert_eq!(config.ingress_shards, 7);
        assert_eq!(config.path_shards, 5);
        // Defaults translate to the default simulation config.
        assert_eq!(parse(&[]).to_sim_config(), SimulationConfig::default());
    }

    #[test]
    fn parses_known_keys() {
        let a = parse(&[
            "--ases",
            "120",
            "--rounds",
            "12",
            "--seed",
            "99",
            "--pd-pairs",
            "3",
            "--reps",
            "2",
            "--max-racs",
            "4",
            "--parallelism",
            "6",
            "--delivery-parallelism",
            "3",
            "--ingress-shards",
            "7",
            "--pd-parallelism",
            "5",
            "--path-shards",
            "9",
        ]);
        assert_eq!(a.ases, 120);
        assert_eq!(a.rounds, 12);
        assert_eq!(a.seed, 99);
        assert_eq!(a.pd_pairs, 3);
        assert_eq!(a.reps, 2);
        assert_eq!(a.max_racs, 4);
        assert_eq!(a.parallelism, 6);
        assert_eq!(a.delivery_parallelism, 3);
        assert_eq!(a.ingress_shards, 7);
        assert_eq!(a.pd_parallelism, 5);
        assert_eq!(a.path_shards, 9);
    }

    #[test]
    fn out_of_range_numbers_clamp() {
        let a = parse(&["--ases", "1", "--max-racs", "1000"]);
        assert_eq!(a.ases, 5);
        assert_eq!(a.max_racs, 64);
        let p = parse(&["--parallelism", "0"]);
        assert_eq!(p.parallelism, 1);
        let d = parse(&["--delivery-parallelism", "500"]);
        assert_eq!(d.delivery_parallelism, 64);
        let i = parse(&["--ingress-shards", "9000"]);
        assert_eq!(i.ingress_shards, 256);
        let p = parse(&["--pd-parallelism", "0", "--path-shards", "9000"]);
        assert_eq!(p.pd_parallelism, 1);
        assert_eq!(p.path_shards, 256);
    }

    #[test]
    fn churn_knobs_parse_clamp_and_default_to_off() {
        let a = parse(&[]);
        assert_eq!(a.churn_rate, 0.0);
        assert_eq!(a.churn_seed, 11);
        assert_eq!(a.churn_kinds, ChurnKinds::default());
        let a = parse(&[
            "--churn-rate",
            "1.5",
            "--churn-seed",
            "42",
            "--churn-kinds",
            "link-down=3,link-up",
        ]);
        assert_eq!(a.churn_rate, 1.5);
        assert_eq!(a.churn_seed, 42);
        assert_eq!(a.churn_kinds.link_down, 3);
        assert_eq!(a.churn_kinds.link_up, 1);
        assert_eq!(a.churn_kinds.node_leave, 0);
        // A negative rate clamps to off.
        assert_eq!(parse(&["--churn-rate", "-2"]).churn_rate, 0.0);
    }

    #[test]
    fn algorithm_knobs_parse_and_compose_specs() {
        let a = parse(&[]);
        assert_eq!(a.algorithm, None);
        assert_eq!(a.aco_seed, 1);
        assert_eq!(a.aco_budget, 16);
        assert_eq!(a.algorithm_spec(), None);

        let a = parse(&["--algorithm", "5YEN"]);
        assert_eq!(a.algorithm.as_deref(), Some("5YEN"));
        assert_eq!(a.algorithm_spec().as_deref(), Some("5YEN"));

        // A bare `aco` composes the dedicated seed/budget knobs into the spec.
        let a = parse(&[
            "--algorithm",
            "aco",
            "--aco-seed",
            "42",
            "--aco-budget",
            "8",
        ]);
        assert_eq!(a.algorithm_spec().as_deref(), Some("aco:42:8"));

        // An explicit spec suffix wins over the dedicated knobs.
        let a = parse(&["--algorithm", "aco:9:4", "--aco-seed", "42"]);
        assert_eq!(a.algorithm_spec().as_deref(), Some("aco:9:4"));

        // The budget clamps to the catalog's iteration cap.
        assert_eq!(parse(&["--aco-budget", "0"]).aco_budget, 1);
        assert_eq!(parse(&["--aco-budget", "90000"]).aco_budget, 1024);
    }

    /// The keys [`BenchArgs::set`] matches, read off this file's own source: every line
    /// of the non-test part that opens with a string literal followed by `=>`.
    fn parsed_keys() -> BTreeSet<&'static str> {
        let source = include_str!("args.rs");
        let code = &source[..source
            .find("#[cfg(test)]")
            .expect("the tests follow the code")];
        let keys: BTreeSet<&str> = code
            .lines()
            .filter_map(|line| line.trim_start().strip_prefix('"')?.split_once("\" =>"))
            .map(|(key, _)| key)
            .collect();
        for key in &keys {
            // Whatever a dummy value makes of it, the parser knows the key.
            if let Err(err) = try_parse(&[&format!("--{key}"), "1"]) {
                assert!(
                    !err.to_string().contains("unknown argument"),
                    "{key}: {err}"
                );
            }
        }
        keys
    }

    /// Every `--key` `docs/KNOBS.md` names in the first cell of a table row.
    fn documented_keys() -> BTreeSet<&'static str> {
        include_str!("../../../docs/KNOBS.md")
            .lines()
            .filter_map(|line| line.strip_prefix("| "))
            .filter_map(|row| row.split(" |").next())
            .flat_map(|cell| cell.split("`--").skip(1))
            .map(|knob| {
                knob.split([' ', '`'])
                    .next()
                    .expect("split yields a first part")
            })
            .collect()
    }

    #[test]
    fn the_knobs_table_lists_exactly_the_keys_the_parser_takes() {
        let parsed = parsed_keys();
        assert!(parsed.len() >= 17 && parsed.contains("ases") && parsed.contains("aco-budget"));
        // A knob deleted from the parser cannot linger in the docs, and a new one must be
        // documented.
        assert_eq!(documented_keys(), parsed);
    }

    #[test]
    fn help_text_covers_every_knob_and_points_at_the_docs_table() {
        let help = BenchArgs::help_text();
        for key in parsed_keys() {
            assert!(
                help.contains(&format!("--{key} ")),
                "help text is missing --{key}"
            );
        }
        assert!(help.contains("docs/KNOBS.md"));
        assert!(help.contains("IREC_CRITERION_"));
    }
}
