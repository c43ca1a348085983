//! # irec-pcb
//!
//! Path-construction beacons (PCBs), the routing messages of the SCION/IREC control plane.
//!
//! A PCB describes one inter-domain path from an *origin AS* to the AS currently holding the
//! beacon, at the granularity of ingress/egress interfaces of every on-path AS. Each on-path
//! AS appends a signed [`AsEntry`] when it propagates the beacon, carrying
//!
//! * the hop information (ingress interface, egress interface),
//! * [`StaticInfo`] performance metadata: the latency/bandwidth of the egress link, the
//!   intra-AS crossing latency from ingress to egress, and the geolocation of the egress
//!   interface (the paper's "static info extensions"),
//! * a signature over the beacon prefix, so downstream ASes can verify authenticity.
//!
//! IREC adds three origin-controlled extensions (§IV-F of the paper), carried in
//! [`PcbExtensions`]:
//!
//! * **Target** — the target AS of pull-based routing (§IV-B),
//! * **Algorithm** — the identifier and code hash of an on-demand routing algorithm
//!   (§IV-C),
//! * **Interface group** — the origin interface group for flexible optimization granularity
//!   (§IV-D).
//!
//! All types implement the [`irec_wire`] codec; the canonical byte encoding is also what
//! gets hashed ([`Pcb::digest`]) for egress-database deduplication and what signatures cover.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod beacon;
pub mod chain;
pub mod extensions;
#[cfg(test)]
mod flat;
pub mod hop;

pub use beacon::{bounded_reservation, HopExtender, Pcb, PcbId};
pub use chain::HopChain;
pub use extensions::{AlgorithmRef, PcbExtensions};
pub use hop::{AsEntry, HopInfo, StaticInfo};
