//! # unet-pebble — the pebble-game simulation model
//!
//! Executable version of the simulation model of Section 3.1 of *"Optimal
//! Trade-Offs Between Size and Slowdown for Universal Parallel Networks"*
//! (Meyer auf der Heide, Storch, Wanka; SPAA 1995): the most general dynamic
//! simulation model known, in which a host processor per step may generate a
//! pebble `(P_i, t)` (the configuration of guest `P_i` at guest time `t`)
//! from locally held predecessor pebbles, send a copy of a pebble to a
//! neighbour, or receive one.
//!
//! * [`protocol`] — the protocol format and builder;
//! * [`check`](fn@crate::check) — full validity checking (every rule of the model) and the
//!   custody [`check::Trace`] exposing `Q_S(i,t)` / `Q'_S(i,t)`;
//! * [`analysis`] — weights, metrics, heavy-processor accounting
//!   (Definition 3.11, Lemma 3.15);
//! * [`fragment`] — fragments `(B, B', D)` and the multiplicity bound
//!   (Definition 3.2, Lemma 3.3);
//! * [`deptree`] — constructive, machine-verified dependency trees
//!   (Lemma 3.10, Figure 1).
//!
//! ```
//! use unet_pebble::{check, Op, Pebble, ProtocolBuilder};
//! use unet_topology::generators::{complete, ring};
//!
//! // Simulate one step of a 3-ring guest on a 2-processor host: host 0
//! // holds all initial pebbles, so it can generate every (P_i, 1).
//! let guest = ring(3);
//! let host = complete(2);
//! let mut b = ProtocolBuilder::new(3, 1, 2);
//! for i in 0..3 {
//!     b.set_op(0, Op::Generate(Pebble::new(i, 1)));
//!     b.end_step();
//! }
//! let proto = b.finish();
//! let trace = check(&guest, &host, &proto).expect("valid pebble protocol");
//! assert_eq!(trace.weight(0, 1), 1);          // q_{0,1}: one representative
//! assert_eq!(proto.inefficiency(), 2.0);      // k = T'·m/(T·n) = 3·2/3
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod check;
pub mod deptree;
pub mod fragment;
pub mod io;
pub mod optimize;
pub mod protocol;

pub use check::{check, check_recorded, CheckError, RepresentativeSet, Trace};
pub use protocol::{Op, Pebble, Protocol, ProtocolBuilder, Step, StepIter};

/// Helpers shared by tests across this crate (not part of the public API).
#[doc(hidden)]
pub mod test_support {
    use unet_topology::Graph;

    /// A path host 0–1–…–(k−1).
    pub fn path_host(k: usize) -> Graph {
        unet_topology::generators::path(k)
    }
}
