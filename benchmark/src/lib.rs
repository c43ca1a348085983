//! The repo benchmark: five workloads timed from outside through public functions only,
//! with end-to-end metrics, an outside-in layer budget and output checks. See `README.md`
//! for what each workload and metric is for.

pub mod digest;
pub mod driver;
pub mod gen;
pub mod host;
pub mod json;
pub mod metrics;
pub mod run;
pub mod trace;
pub mod workloads;
