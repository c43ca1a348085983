//! # irec-sim
//!
//! The discrete-event control-plane simulator — this reproduction's substitute for the
//! ns-3-based SCION simulator the paper uses for its large-scale evaluation (§VIII).
//!
//! The simulator drives one [`irec_core::IrecNode`] per AS of an [`irec_topology::Topology`]:
//!
//! * every AS runs a **beaconing round** periodically (every 10 simulated minutes in the
//!   paper's setup): it originates fresh PCBs, runs all its RACs over the ingress database,
//!   and hands the selections to the egress gateway;
//! * the resulting PCB messages are delivered to the neighboring ASes through the
//!   [`delivery::DeliveryPlane`] — a discrete [`event::EventQueue`] drained in
//!   `(SimTime, seq)` order, whose PCBs were verified ahead on a helper thread —
//!   delayed by the propagation latency of the traversed link (plus a small processing
//!   delay);
//! * pull-based beacons reaching their target are returned to the origin AS as
//!   [`irec_core::PullReturn`] events, delayed by the latency of the discovered path;
//! * per-interface, per-period send counters feed the Fig. 8c overhead metric, and the
//!   registered paths of every node feed the Fig. 8a/8b metrics.
//!
//! [`pd::PdWorkflow`] implements the iterative pull-based disjointness (PD) workflow of
//! §VIII-B on top of the simulator: seed with HD paths, then repeatedly originate on-demand +
//! pull-based beacons that avoid all links discovered so far, adding one new disjoint path
//! per iteration. [`pd::PdCampaign`] runs N independent `(origin, target)` workflows in
//! pair order, each on its own copy-on-write [`SimSnapshot`] (restricted to the origin's
//! reachable component; see [`Simulation::snapshot_reachable_from`]), byte-identical to
//! the deep-clone loop `tests/pd_determinism.rs` keeps as its oracle.
//!
//! [`churn::ChurnEngine`] layers live reconfiguration on top: a seeded generator emits a
//! deterministic timeline of topology deltas (link flaps, AS leaves/joins, RAC-catalog
//! swaps) applied between rounds, with convergence and no-blackhole invariants checked
//! after every step (see [`churn`]). Node rounds keep the previous round's RAC selections
//! and re-select only where their ingress database changed (see
//! [`irec_core::SelectionTables`]), so structural mutations need no invalidation protocol.
//!
//! Every round delivers what is due, runs the nodes one after the other in `AsId` order and
//! schedules their outputs in that order. One helper thread verifies each finished node's
//! PCBs while the next nodes run — the simulator's only concurrency, which never changes
//! the output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod delivery;
pub mod event;
pub mod pd;
pub mod simulation;

pub use churn::{
    ChurnConfig, ChurnDelta, ChurnEngine, ChurnGenerator, ChurnKinds, ChurnReport, ChurnStep,
    InvariantChecker,
};
pub use delivery::{DeliveryPlane, DeliveryStats};
pub use event::{Event, EventQueue};
pub use pd::{PdCampaign, PdPairResult, PdResult, PdWorkflow};
pub use simulation::{SchedulerStats, SimSnapshot, Simulation, SimulationConfig};
