//! # unet-core — universal network simulations
//!
//! The paper's subject as a usable system: simulate any constant-degree
//! guest network on any host network, with a machine-checked pebble-game
//! protocol and measured slowdown, for every simulation strategy the paper
//! discusses:
//!
//! * [`sim`] — the **public front door**: `Simulation::builder()`, fallible
//!   via [`SimError`], with thread/cache execution knobs;
//! * [`simulate`] — the **Theorem 2.1 engine**: static embedding +
//!   pluggable `h–h` routing; slowdown `O(route_M(n/m))`, with a
//!   step-invariant route-plan cache and parallel phases;
//! * [`galil_paul`] — the sorting-based universal machine of Galil & Paul;
//! * [`flooding`] — the fully redundant baseline (slowdown `n`);
//! * [`treesim`] — constant slowdown for short computations on
//!   `2^{O(T)}·n`-size tree hosts (the Section 1 remark);
//! * [`guest`] / [`embedding`] / [`routers`] — the moving parts;
//! * [`cache`] / [`cancel`] — cross-run route-plan sharing and
//!   cooperative cancellation, the substrate of long-lived servers
//!   (`unet-serve`);
//! * [`spec`] — textual `family:params` graph specifications;
//! * [`bounds`] — closed-form upper/lower bound shapes of the trade-off;
//! * [`verify`] — end-to-end certification (protocol validity + bit-exact
//!   states).
//!
//! ```
//! use unet_core::prelude::*;
//! use unet_topology::generators::{ring, torus};
//!
//! // Simulate a 16-node ring guest on a 4-node torus host (m ≤ n).
//! let guest = ring(16);
//! let host = torus(2, 2);
//! let comp = GuestComputation::random(guest, 7);
//! let router = presets::bfs();
//! let run = Simulation::builder()
//!     .guest(&comp)
//!     .host(&host)
//!     .embedding(Embedding::block(16, 4))
//!     .router(&router)
//!     .steps(3)
//!     .seed(1)
//!     .run()
//!     .expect("misconfigurations surface as SimError, not panics");
//! let verified = run.verify(&comp, &host, 3).expect("certified");
//! assert!(verified.metrics.slowdown >= 4.0); // ≥ load n/m
//! ```

#![deny(missing_docs)]

pub mod async_sim;
pub mod bounds;
pub mod cache;
pub mod cancel;
pub mod embedding;
pub mod error;
pub mod flooding;
pub mod galil_paul;
pub mod guest;
pub mod routers;
pub mod sim;
pub mod simulate;
pub mod spec;
pub mod treesim;
pub mod verify;

pub use cache::SharedPlanCache;
pub use cancel::CancelToken;
pub use embedding::Embedding;
pub use error::SimError;
pub use guest::GuestComputation;
pub use routers::Router;
pub use sim::{CachePolicy, Simulation, SimulationBuilder};
pub use simulate::SimulationRun;
pub use verify::{verify_run, VerifiedRun, VerifyError};

/// Glob-import surface.
pub mod prelude {
    pub use crate::bounds;
    pub use crate::cache::SharedPlanCache;
    pub use crate::cancel::CancelToken;
    pub use crate::embedding::Embedding;
    pub use crate::error::SimError;
    pub use crate::guest::GuestComputation;
    pub use crate::routers::{presets, Router};
    pub use crate::sim::{CachePolicy, Simulation, SimulationBuilder};
    pub use crate::simulate::SimulationRun;
    pub use crate::verify::{verify_run, VerifiedRun};
}
