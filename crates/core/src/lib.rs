//! # irec-core
//!
//! The IREC intra-AS architecture of §V of the paper: everything one autonomous system runs
//! to participate in IREC routing.
//!
//! ```text
//!            PCBs from neighbors                      PCBs to neighbors
//!                   │                                        ▲
//!                   ▼                                        │
//!            ┌──────────────┐   GetPCBs(...)   ┌────────────────────────┐
//!            │   Ingress    │◄─────────────────│   RAC 1 … RAC N        │
//!            │   Gateway    │──────────────────►  (static / on-demand)  │
//!            │ + ingress DB │      PCBs        └───────────┬────────────┘
//!            └──────────────┘                        optimal PCBs
//!                                                          ▼
//!                                              ┌────────────────────────┐
//!                                              │ Egress gateway         │
//!                                              │ + egress (dedup) DB    │
//!                                              │ + path registration    │
//!                                              └────────────────────────┘
//! ```
//!
//! * [`ingress::IngressGateway`] verifies and stores received PCBs ([`beacon_db::IngressDb`]).
//! * [`rac::Rac`] wraps one routing algorithm — native ([`irec_algorithms`]) or an IRVM
//!   module — together with the marshalling boundary and (for on-demand RACs) the
//!   fetch-verify-cache pipeline for algorithms referenced in PCBs.
//! * [`egress::EgressGateway`] originates new PCBs (with IREC extensions), deduplicates RAC
//!   selections ([`beacon_db::EgressDb`]), appends the local signed hop entry, propagates
//!   PCBs to neighbors, returns pull-based PCBs to their origin, and registers paths at the
//!   [`path_service::ShardedPathService`] (sharded per destination AS).
//! * [`node::IrecNode`] ties all components of one AS together; the discrete-event simulator
//!   (`irec-sim`) drives a collection of nodes.
//!
//! The components only touch the control plane; the data plane (packet forwarding) is out of
//! scope exactly as in the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod beacon_db;
pub mod config;
#[cfg(test)]
mod delta_oracle;
pub mod egress;
pub mod engine;
pub mod ingress;
pub mod messages;
pub mod node;
pub mod path_service;
pub mod rac;

pub use beacon_db::{
    BatchChange, BatchCursor, BatchView, EgressDb, IngressDb, ShardedIngressDb, StoreBytes,
    StoreLedger, StoredBeacon,
};
pub use config::{NodeConfig, PropagationPolicy, RacConfig, RacKind};
pub use egress::{EgressGateway, OriginationSpec};
pub use engine::{
    execute_racs, execute_racs_cached, execute_racs_with, run_claimed, BatchOutputs,
    BatchSelection, SelectedBeacon, SelectionTables, BATCH_SPLIT_THRESHOLD,
};
pub use ingress::{IngressGateway, IngressStats, Verdict};
pub use messages::{PcbMessage, PullReturn};
pub use node::{IrecNode, RoundOutput};
pub use path_service::{PathService, RegisteredPath, ShardedPathService, MAX_PATH_SHARDS};
pub use rac::{AlgorithmFetcher, Rac, RacOutput, RacTiming, SharedAlgorithmStore};
