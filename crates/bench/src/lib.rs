//! The experiment harness for the paper reproduction: shared fixtures, the
//! declarative experiment registry, and the shape-regression gate.
//!
//! The crate has two layers:
//!
//! * **Fixtures** (this module): seeded guests and the certified
//!   lower-bound trace the registry runners share.
//! * **The registry** ([`registry`]): one declarative [`registry::Experiment`]
//!   per experiment, E1–E22 — the paper's theorems and lower-bound chain
//!   (E1–E15, the E3–E15 tables in [`paper`]) and the engineering claims on
//!   the engine and the serving tier (E16–E22) — swept in parallel shards
//!   ([`sweep`]), serialized to the versioned `BENCH.json` artifact
//!   ([`schema`]), rendered to markdown ([`report_md`]), and
//!   regression-gated by expected-shape predicates ([`shape`], [`diff`]) —
//!   `k` affine in `log m` (Thm 2.1), every point above the `Ω(log m)`
//!   floor (Thm 3.1), dependency trees within `48a²` (Lemma 3.10),
//!   bit-for-bit engine determinism — rather than absolute timings.
//!
//! Everything here drives the engines with explicit seeds, so rows are
//! reproducible and parallel-shard-safe.

#![deny(missing_docs)]

use unet_core::prelude::*;
use unet_pebble::check::Trace;
use unet_topology::generators::{random_regular, random_supergraph, torus};
use unet_topology::util::seeded_rng;
use unet_topology::Graph;

pub mod diff;
pub mod paper;
pub mod registry;
pub mod report_md;
pub mod schema;
pub mod shape;
pub mod sweep;

/// A random 4-regular guest of size `n` with its computation.
pub fn standard_guest(n: usize, seed: u64) -> (Graph, GuestComputation) {
    let mut r = seeded_rng(seed);
    let g = random_regular(n, 4, &mut r);
    let c = GuestComputation::random(g.clone(), seed ^ 0xff);
    (g, c)
}

/// A verified trace of a `U[G₀]` guest on a torus host — the shared input
/// for the lower-bound analysis rows (E4, E7).
pub struct LowerBoundFixture {
    /// The fixed subgraph.
    pub g0: unet_lowerbound::G0,
    /// The sampled guest ⊇ G₀.
    pub guest: Graph,
    /// The host.
    pub host: Graph,
    /// The certified trace.
    pub trace: Trace,
}

/// Build the standard lower-bound fixture: `n = 144`, `m = 16`, `T = 8`.
/// The analyses downstream (E4 averaging, E7 counting) are
/// properties of *any* certified trace (Thm 3.1 holds per protocol), so
/// the fixture just needs one — produced by the builder engine with the
/// fixture's own rng threaded through for the route seed.
pub fn lowerbound_fixture() -> LowerBoundFixture {
    let mut r = seeded_rng(77);
    let g0 = unet_lowerbound::build_g0(144, 1, &mut r);
    let guest = random_supergraph(&g0.graph, 12, &mut r);
    let comp = GuestComputation::random(guest.clone(), 78);
    let host = torus(4, 4);
    let router = presets::torus_xy(4, 4);
    let run = Simulation::builder()
        .guest(&comp)
        .host(&host)
        .embedding(Embedding::block(144, 16))
        .router(&router)
        .steps(8)
        .run_with_rng(&mut r)
        .expect("torus fixture is valid");
    let trace = unet_pebble::check(&guest, &host, &run.protocol).expect("certifies");
    LowerBoundFixture { g0, guest, host, trace }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_builds() {
        let f = lowerbound_fixture();
        assert_eq!(f.trace.guest_n, 144);
        assert_eq!(f.trace.host_m, 16);
    }
}
