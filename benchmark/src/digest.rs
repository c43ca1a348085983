//! Output digests: what a run computed, independent of how fast or in which order it was
//! computed. A change that only speeds the simulator up must leave every digest identical.

use irec_core::IrecNode;
use irec_metrics::RegisteredPath;
use irec_sim::{DeliveryStats, Simulation};
use irec_types::{AsId, SimTime};
use std::collections::BTreeMap;
use std::fmt::Debug;

/// SHA-256 (the repo's own implementation) over the parts, length-prefixed so part
/// boundaries cannot shift, as lowercase hex.
pub fn digest_of(parts: &[String]) -> String {
    let mut bytes = Vec::new();
    for part in parts {
        bytes.extend_from_slice(&(part.len() as u64).to_le_bytes());
        bytes.extend_from_slice(part.as_bytes());
    }
    irec_crypto::sha256(&bytes).to_hex()
}

/// The `Debug` renderings of `items`, sorted, so the digest does not depend on the order a
/// driver happened to visit them in.
pub fn sorted_debug<T: Debug>(items: &[T]) -> String {
    let mut lines: Vec<String> = items.iter().map(|item| format!("{item:?}")).collect();
    lines.sort_unstable();
    lines.join("\n")
}

/// Everything a converged beaconing plane is judged by.
#[derive(Debug, Clone, PartialEq)]
pub struct PlaneOutputs {
    pub paths: Vec<RegisteredPath>,
    pub delivery: DeliveryStats,
    /// Live beacons over all ingress databases.
    pub occupancy: usize,
    /// Per-interface-per-period PCB overhead samples.
    pub overhead: Vec<u64>,
    pub connectivity: f64,
}

impl PlaneOutputs {
    pub fn of_simulation(sim: &Simulation) -> Self {
        PlaneOutputs {
            paths: sim.registered_paths(),
            delivery: sim.delivery_stats(),
            occupancy: sim.ingress_occupancy(),
            overhead: sim.overhead().samples(),
            connectivity: sim.connectivity(),
        }
    }

    /// The same outputs read off a bare node map, for the bench-owned round driver.
    pub fn of_nodes(
        nodes: &BTreeMap<AsId, IrecNode>,
        delivery: DeliveryStats,
        overhead: Vec<u64>,
        clock: SimTime,
    ) -> Self {
        let mut paths = Vec::new();
        let mut reachable = 0usize;
        for (asn, node) in nodes {
            for path in node.path_service().all() {
                paths.push(RegisteredPath {
                    holder: *asn,
                    origin: path.destination,
                    algorithm: path.algorithm,
                    group: path.group,
                    origin_interface: path.destination_interface,
                    holder_interface: path.local_interface,
                    metrics: path.metrics,
                    links: path.links,
                });
            }
            let destinations = node.path_service().destinations();
            reachable += destinations.iter().filter(|d| *d != asn).count();
        }
        let n = nodes.len();
        PlaneOutputs {
            paths,
            delivery,
            occupancy: nodes
                .values()
                .map(|node| node.ingress().live_beacons(clock))
                .sum(),
            overhead,
            connectivity: if n < 2 {
                1.0
            } else {
                reachable as f64 / (n * (n - 1)) as f64
            },
        }
    }

    pub fn digest(&self) -> String {
        digest_of(&[
            sorted_debug(&self.paths),
            format!("{:?}", self.delivery),
            self.occupancy.to_string(),
            format!("{:?}", self.overhead),
            format!("{:?}", self.connectivity),
        ])
    }
}
