//! What the verify-ahead tests compare a finished run by: everything observable about it,
//! and the reference each plane's run is held to, recorded with every PCB verified inline
//! at delivery.

use irec_metrics::RegisteredPath;
use irec_sim::{DeliveryStats, Simulation};

/// Everything observable about a finished run, for exact comparison.
#[derive(PartialEq, Debug)]
pub struct RunFingerprint {
    pub paths: Vec<RegisteredPath>,
    pub overhead_samples: Vec<u64>,
    pub overhead_total: u64,
    pub stats: DeliveryStats,
    pub occupancy: usize,
}

impl RunFingerprint {
    pub fn of(sim: &Simulation) -> Self {
        RunFingerprint {
            paths: sim.registered_paths(),
            overhead_samples: sim.overhead().samples(),
            overhead_total: sim.overhead().total(),
            stats: sim.delivery_stats(),
            occupancy: sim.ingress_occupancy(),
        }
    }

    /// FNV-1a over the run's `Debug` text: every registered path in order, every overhead
    /// sample, the delivery counters and the ingress occupancy.
    pub fn digest(&self) -> u64 {
        format!("{self:?}")
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
                (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
            })
    }
}

/// A run's fingerprint as recorded on the inline reference plane: the readable counters,
/// so a mismatch shows where the run moved, and the digest of the whole fingerprint.
#[derive(PartialEq, Debug)]
pub struct Reference {
    pub paths: usize,
    pub overhead_total: u64,
    pub stats: DeliveryStats,
    pub occupancy: usize,
    pub digest: u64,
}

impl Reference {
    pub fn of(run: &RunFingerprint) -> Self {
        Reference {
            paths: run.paths.len(),
            overhead_total: run.overhead_total,
            stats: run.stats,
            occupancy: run.occupancy,
            digest: run.digest(),
        }
    }
}

/// Holds `run` to `inline`, the reference recorded with every PCB verified inline.
pub fn assert_matches_inline(run: &RunFingerprint, inline: Reference) {
    assert_eq!(
        Reference::of(run),
        inline,
        "the verify-ahead run diverged from the inline reference"
    );
}
