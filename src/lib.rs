//! # universal-networks
//!
//! A full reproduction of *"Optimal Trade-Offs Between Size and Slowdown for
//! Universal Parallel Networks"* (F. Meyer auf der Heide, M. Storch,
//! R. Wanka; SPAA 1995 / ICSI TR-96-052) as a usable Rust system:
//! network topologies, the pebble-game simulation model, packet routing,
//! universal simulation algorithms, and the lower-bound machinery — all
//! executable and machine-checked.
//!
//! This facade crate re-exports the member crates:
//!
//! * [`topology`] — graphs and generators (meshes, tori, multitori,
//!   butterflies, CCC, shuffle-exchange, de Bruijn, expanders, …);
//! * [`pebble`] — the Section 3.1 simulation model: protocols, validity
//!   checking, traces, fragments, dependency graphs/trees;
//! * [`routing`] — `h–h` routing: greedy, Valiant, Beneš/Waksman offline,
//!   sorting networks;
//! * [`core`] — universal simulations (Theorem 2.1 engine, Galil–Paul,
//!   flooding, tree hosts) and bound predictions;
//! * [`lowerbound`] — Theorem 3.1 executable: `G₀`, averaging, wavefronts,
//!   counting, audits;
//! * [`obs`] — zero-cost instrumentation: recorders, JSONL run traces
//!   (`unet trace`), and report rendering (`unet report`);
//! * [`faults`] — fault injection and degraded-mode simulation: seeded
//!   fault plans, faulty host views, fault-aware rerouting, and
//!   crash-surviving simulation with re-embedding and pebble replay;
//! * [`mod@bench`] — the declarative experiment registry behind `unet bench`:
//!   parameter grids, sharded sweeps into versioned `BENCH.json`
//!   artifacts, and the shape-predicate regression gate (`unet bench
//!   diff`);
//! * [`serve`] — simulation-as-a-service: the `unet-serve/3` TCP server
//!   behind `unet serve` (admission control, shared route-plan cache,
//!   request deadlines, graceful drain) plus its wire protocol, one-shot
//!   client, and deterministic closed-loop load generator.
//!
//! README.md's quickstart is a three-minute tour; it runs as a doctest.

pub use unet_core::spec;

/// Compiles and runs every `rust` block in `README.md` as a doctest, so the
/// README's quickstart and engine-API examples can never drift from the
/// real API. Exists only under `cargo test --doc`.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

pub use unet_bench as bench;
pub use unet_core as core;
pub use unet_faults as faults;
pub use unet_lowerbound as lowerbound;
pub use unet_obs as obs;
pub use unet_pebble as pebble;
pub use unet_routing as routing;
pub use unet_serve as serve;
pub use unet_topology as topology;

/// Everything most programs need.
pub mod prelude {
    pub use unet_core::prelude::*;
    pub use unet_faults::{DegradedSimulator, DegradedTuning, FaultPlan, FaultyView};
    pub use unet_pebble::{check, Op, Pebble, Protocol, ProtocolBuilder};
    pub use unet_routing::{RoutingProblem, ShortestPath};
    pub use unet_topology::prelude::*;
}
