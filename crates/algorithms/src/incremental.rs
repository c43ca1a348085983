//! The neutral vocabulary of delta-driven re-selection.
//!
//! The RAC engine (`irec_core::engine`) keeps, per `(RAC, origin, group, target)`, the
//! winners of the last round and re-selects only over *winners ∪ arrivals* when the
//! ingress database proves the batch was append-only since. This module holds the two
//! pieces of that vocabulary the layers above and below the engine share: the
//! [`SelectionDelta`] a structural change of the simulated network is announced as — to
//! observers that keep selection-derived state of their own; the engine's tables need no
//! telling — and the [`IncrementalStats`] counters the selection tables report. Which algorithms
//! may be fed *winners ∪ arrivals* at all is declared by
//! [`RoutingAlgorithm::union_composable`](crate::RoutingAlgorithm::union_composable).

use irec_types::{AsId, IfId};

/// A topology delta in selection terms: which hop-chain footprints are stale. The simulator
/// maps its churn deltas (`link-down`, `node-leave`, ...) into this neutral form so the
/// algorithms crate stays independent of the simulation layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectionDelta {
    /// A link changed state; the payload is its `(AS, interface)` endpoint keys as they
    /// appear in PCB hop entries.
    Link(Vec<(AsId, IfId)>),
    /// An AS joined or left the topology.
    As(AsId),
    /// A change that can affect every batch (e.g. a RAC catalog swap).
    All,
}

/// Counters exposing how the selection tables behaved, one count per `(RAC, batch)` pair
/// and round: served verbatim, re-selected over *winners ∪ arrivals*, or computed from
/// scratch — plus how many kept entries were dropped outright.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Selections served from the table unchanged.
    pub reused: usize,
    /// Selections that ran the full from-scratch pass.
    pub recomputed: usize,
    /// Kept entries dropped because their context went away (a RAC catalog swap).
    pub invalidated: usize,
    /// Selections re-run over the previous winners plus the batch's new arrivals only.
    pub extended: usize,
}

impl IncrementalStats {
    /// Adds `other`'s counters into `self` — for summing per-table stats into one report.
    pub fn accumulate(&mut self, other: IncrementalStats) {
        self.reused += other.reused;
        self.recomputed += other.recomputed;
        self.invalidated += other.invalidated;
        self.extended += other.extended;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_accumulate_sums_counters() {
        let mut total = IncrementalStats::default();
        total.accumulate(IncrementalStats {
            reused: 1,
            recomputed: 2,
            invalidated: 3,
            extended: 4,
        });
        total.accumulate(IncrementalStats {
            reused: 10,
            recomputed: 20,
            invalidated: 30,
            extended: 40,
        });
        assert_eq!(
            total,
            IncrementalStats {
                reused: 11,
                recomputed: 22,
                invalidated: 33,
                extended: 44,
            }
        );
    }
}
