//! Seeded input generators. The `--seed` argument feeds only what is in this file: the
//! topology, the PD pairs and the synthetic candidate sets. The same seed always yields the
//! same inputs; the system under test sees only the inputs.
//!
//! The seed decides *which* inputs, never *how much* input: counts (links per AS, hops per
//! beacon) are pinned and only wiring, locations and link metadata are drawn, so two seeds
//! give different inputs of the same size and a run's time does not depend on the draw.

use irec_core::StoredBeacon;
use irec_crypto::{KeyRegistry, Signer};
use irec_pcb::{AlgorithmRef, Pcb, PcbExtensions, StaticInfo};
use irec_topology::{AsNode, GeneratorConfig, Interface, Tier, Topology, TopologyGenerator};
use irec_types::{AsId, Bandwidth, GeoCoord, IfId, Latency, LinkId, SimDuration, SimTime};
use std::sync::Arc;

/// SplitMix64: a tiny, well-mixed PRNG, so the benchmark depends on no RNG crate.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }

    /// Uniform in `lo..hi`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
    }
}

/// The generated Internet-like topology every simulation workload runs on: the
/// generator's default tier shares at `ases` ASes, with every count range (PoPs, providers,
/// peers, parallel links) pinned near the middle of the generator's default range. The
/// seed still draws who connects to whom, where, and with what capacity.
pub fn topology(ases: usize, seed: u64) -> Topology {
    TopologyGenerator::new(GeneratorConfig {
        num_ases: ases,
        seed,
        tier1_pops: (8, 8),
        tier2_pops: (4, 4),
        tier3_pops: (2, 2),
        tier2_providers: (3, 3),
        tier3_providers: (2, 2),
        tier2_peers: (2, 2),
        parallel_links: (2, 2),
        ..Default::default()
    })
    .generate()
}

/// Every ordered non-self `(origin, target)` pair over `ases`, in a seeded order. The
/// caller takes pairs off the front.
pub fn pd_pair_order(ases: &[AsId], seed: u64) -> Vec<(AsId, AsId)> {
    let mut pairs: Vec<(AsId, AsId)> = ases
        .iter()
        .flat_map(|&origin| ases.iter().map(move |&target| (origin, target)))
        .filter(|(origin, target)| origin != target)
        .collect();
    let mut rng = SplitMix64::new(seed ^ 0x7064_5f70_6169_7273);
    for index in (1..pairs.len()).rev() {
        pairs.swap(index, rng.range(0, index as u64 + 1) as usize);
    }
    pairs
}

/// The AS the kernel workload's RACs run in.
pub const KERNEL_LOCAL_AS: AsId = AsId(9_000);

/// The kernel workload's local AS: four interfaces at distinct locations.
pub fn kernel_local_as() -> AsNode {
    let mut node = AsNode::new(KERNEL_LOCAL_AS, Tier::Tier2);
    let sites = [(47.4, 8.5), (52.4, 4.9), (40.7, -74.0), (35.7, 139.7)];
    for (index, (lat, lon)) in sites.into_iter().enumerate() {
        let id = IfId(index as u32 + 1);
        node.interfaces.insert(
            id,
            Interface {
                id,
                owner: node.id,
                location: GeoCoord::new(lat, lon),
                link: LinkId(index as u64),
            },
        );
    }
    node
}

/// A synthetic candidate set of `phi` signed beacons from `origin`, as one ingress database
/// batch would hold them: 2–6 AS hops each (cycling, so every set of a given size has
/// the same number of hop entries), random link metadata, received on one of two local
/// interfaces. With `algorithm` set, every beacon carries that on-demand algorithm
/// reference in its signed header, so an on-demand RAC processes the set.
pub fn candidates(
    origin: AsId,
    phi: usize,
    seed: u64,
    registry: &KeyRegistry,
    algorithm: Option<AlgorithmRef>,
) -> Vec<Arc<StoredBeacon>> {
    let mut rng = SplitMix64::new(seed ^ origin.value().wrapping_mul(0x6361_6e64));
    let extensions = match algorithm {
        Some(reference) => PcbExtensions::none().with_algorithm(reference),
        None => PcbExtensions::none(),
    };
    (0..phi)
        .map(|index| {
            let mut pcb = Pcb::originate(
                origin,
                index as u64,
                SimTime::ZERO,
                SimTime::ZERO + SimDuration::from_hours(6),
                extensions,
            );
            let hops = 2 + index as u64 % 5;
            for hop in 0..hops {
                // Transit AS ids step by 8 per hop with a per-beacon offset below 8, so no
                // beacon visits an AS twice and none visits the local AS.
                let asn = if hop == 0 {
                    origin
                } else {
                    AsId(100_000 + hop * 8 + rng.range(0, 8))
                };
                let info = StaticInfo {
                    link_latency: Latency::from_micros(rng.range(500, 50_000)),
                    link_bandwidth: Bandwidth::from_mbps(rng.range(10, 40_000)),
                    intra_latency: Latency::from_micros(rng.range(0, 3_000)),
                    egress_location: Some(GeoCoord::new(
                        rng.range_f64(-60.0, 60.0),
                        rng.range_f64(-180.0, 180.0),
                    )),
                };
                let ingress = if hop == 0 { IfId::NONE } else { IfId(1) };
                let egress = IfId(2 + rng.range(0, 6) as u32);
                pcb.extend(ingress, egress, info, &Signer::new(asn, registry.clone()))
                    .expect("generated hop chains are loop-free and well-formed");
            }
            Arc::new(StoredBeacon {
                pcb,
                ingress: IfId(1 + (index % 2) as u32),
                received_at: SimTime::ZERO,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let registry = KeyRegistry::new(1);
        let a = candidates(AsId(5), 8, 3, &registry, None);
        let b = candidates(AsId(5), 8, 3, &registry, None);
        let c = candidates(AsId(5), 8, 4, &registry, None);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let ases: Vec<AsId> = (1..=6).map(AsId).collect();
        let order = pd_pair_order(&ases, 9);
        assert_eq!(order, pd_pair_order(&ases, 9));
        assert_ne!(order, pd_pair_order(&ases, 10));
        assert_eq!(order.len(), 30);
        assert!(order.iter().all(|(o, t)| o != t));
    }
}
