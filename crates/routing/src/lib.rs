//! # unet-routing — the routing substrate of Section 2
//!
//! Theorem 2.1 reduces universal simulation (for `m ≤ n`) to `h–h` packet
//! routing: any host `M` is `n`-universal with slowdown `O(route_M(n/m))`.
//! This crate provides everything behind `route_M(h)`:
//!
//! * [`packet`] — a synchronous store-and-forward engine enforcing the
//!   paper's one-send/one-receive-per-step port model;
//! * [`problem`] — `h–h` routing problems and classic adversarial patterns;
//! * [`greedy`] — dimension-order routing on meshes/tori;
//! * [`butterfly`] — greedy bit-fixing and Valiant's randomized routing;
//! * [`benes`] — the Beneš network and Waksman's looping algorithm: offline
//!   permutation routing with stage-congestion 1, pipelined into offline
//!   `h–h` schedules (the Waksman \[19\] citation of Section 2);
//! * [`decompose`] — `h–h` relations → permutations by Euler splits;
//! * [`metrics`] — empirical `route_G(h)` measurement;
//! * [`plan`] — replayable route plans: the step-invariant matching
//!   decomposition extracted once and replayed with fresh payloads.
//!
//! ```
//! use unet_routing::benes::{waksman_paths, verify_waksman};
//!
//! // Waksman's looping algorithm realizes any permutation on the Beneš
//! // network with stage-congestion 1 — the offline routing of Section 2.
//! let perm = vec![3, 0, 2, 1];
//! let paths = waksman_paths(&perm);
//! verify_waksman(&perm, &paths).expect("congestion-1 realization");
//! assert_eq!(paths[0][0], 0);              // packet 0 enters at row 0…
//! assert_eq!(*paths[0].last().unwrap(), 3); // …and exits at row perm[0].
//! ```

#![deny(missing_docs)]

pub mod benes;
pub mod butterfly;
pub mod decompose;
pub mod greedy;
pub mod metrics;
pub mod packet;
pub mod plan;
pub mod problem;

pub use packet::{
    route, Discipline, Outcome, Packet, PathSelector, RouteError, ShortestPath, Transfer,
};
pub use plan::{extract_plan, RoutePlan};
pub use problem::RoutingProblem;
