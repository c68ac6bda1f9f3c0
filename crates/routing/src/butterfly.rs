//! Routing on the butterfly: greedy bit-fixing and Valiant's randomized
//! two-phase scheme.
//!
//! The butterfly is the paper's canonical good host: its `h–h` routing time
//! is `O(h·log m)` (offline — Section 2 cites Waksman; online — Valiant's
//! trick gives the same bound w.h.p.), so by Theorem 2.1 a size-`m` butterfly
//! is `n`-universal with slowdown `O((n/m)·log m)`.

use crate::packet::{PathSelector, RouteError};
use rand::Rng;
use unet_topology::generators::butterfly::{bf_coords, bf_index};
use unet_topology::{Graph, Node};

/// Greedy bit-fixing selector on a `dim`-dimensional butterfly
/// (`(dim+1)·2^dim` nodes): ascend to level 0 keeping the row, then descend
/// fixing one destination-row bit per level (a cross edge exactly where the
/// rows differ), then continue straight to the destination level.
#[derive(Debug, Clone, Copy)]
pub struct GreedyButterfly {
    /// Butterfly dimension.
    pub dim: usize,
}

impl GreedyButterfly {
    /// Deterministic bit-fixing walk between arbitrary butterfly nodes,
    /// using the **minimal level span**: ascend only to the lowest level
    /// whose cross edges are needed, descend fixing the differing row bits,
    /// then move straight to the destination level. (Always detouring
    /// through level 0 — the naive walk — funnels every packet through the
    /// `2^dim` level-0 nodes and destroys the `O(h·log m)` routing shape.)
    pub fn walk(&self, src: Node, dst: Node) -> Vec<Node> {
        let d = self.dim;
        let (sl, sr) = bf_coords(d, src);
        let (dl, dr) = bf_coords(d, dst);
        let diff = sr ^ dr;
        // Bit b is fixed on the edge between levels b and b+1, so the walk
        // must dip down to level `lo = min(sl, dl, lowest set bit of diff)`
        // and reach at least `hi = max(sl?, dl, highest set bit + 1)`.
        let lo =
            if diff == 0 { sl.min(dl) } else { sl.min(dl).min(diff.trailing_zeros() as usize) };
        let hi = if diff == 0 {
            dl.max(lo)
        } else {
            dl.max(usize::BITS as usize - 1 - diff.leading_zeros() as usize + 1)
        };
        let mut path = vec![src];
        // Ascend straight to `lo` on the source row.
        let mut level = sl;
        while level > lo {
            level -= 1;
            path.push(bf_index(d, level, sr));
        }
        // Descend to `hi`, fixing bit ℓ on the edge (ℓ, ℓ+1).
        let mut row = sr;
        while level < hi {
            let bit = 1usize << level;
            if (row ^ dr) & bit != 0 {
                row ^= bit;
            }
            level += 1;
            path.push(bf_index(d, level, row));
        }
        debug_assert_eq!(row, dr);
        // Straight to the destination level (hi ≥ dl, so ascend).
        while level > dl {
            level -= 1;
            path.push(bf_index(d, level, row));
        }
        path
    }
}

impl PathSelector for GreedyButterfly {
    fn path<R: Rng>(
        &self,
        _g: &Graph,
        src: Node,
        dst: Node,
        _rng: &mut R,
    ) -> Result<Vec<Node>, RouteError> {
        Ok(self.walk(src, dst))
    }
}

/// Valiant's two-phase randomized selector: route to a uniformly random
/// intermediate row first, then to the destination. Converts any permutation
/// into two random-destination problems, defeating adversarial patterns like
/// bit reversal w.h.p.
#[derive(Debug, Clone, Copy)]
pub struct ValiantButterfly {
    /// Butterfly dimension.
    pub dim: usize,
}

impl PathSelector for ValiantButterfly {
    fn path<R: Rng>(
        &self,
        _g: &Graph,
        src: Node,
        dst: Node,
        rng: &mut R,
    ) -> Result<Vec<Node>, RouteError> {
        let d = self.dim;
        let greedy = GreedyButterfly { dim: d };
        // Uniformly random intermediate node (level *and* row — pinning the
        // level would recreate a single-level bottleneck).
        let mid_row = rng.gen_range(0..(1usize << d));
        let mid_level = rng.gen_range(0..=d);
        let mid = bf_index(d, mid_level, mid_row);
        let mut first = greedy.walk(src, mid);
        let second = greedy.walk(mid, dst);
        first.extend_from_slice(&second[1..]);
        Ok(first)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{make_packets, route, Discipline};
    use crate::problem::{bit_reversal, random_h_h};
    use unet_topology::generators::butterfly as bf;
    use unet_topology::util::seeded_rng;

    #[test]
    fn greedy_walk_is_valid_path() {
        let dim = 4;
        let g = bf::butterfly(dim);
        let sel = GreedyButterfly { dim };
        for (src, dst) in [(0u32, 79u32), (79, 0), (5, 5), (17, 62)] {
            let p = sel.walk(src, dst);
            assert_eq!(p[0], src);
            assert_eq!(*p.last().unwrap(), dst);
            for w in p.windows(2) {
                assert!(g.has_edge(w[0], w[1]), "hop {:?} invalid", w);
            }
            // Path length ≤ 3·dim.
            assert!(p.len() <= 3 * dim + 1);
        }
    }

    #[test]
    fn greedy_routes_random_h_h() {
        let dim = 4;
        let g = bf::butterfly(dim);
        let m = g.n();
        let sel = GreedyButterfly { dim };
        let mut rng = seeded_rng(7);
        let prob = random_h_h(m, 2, &mut rng);
        let packets = make_packets(&g, &prob.pairs, &sel, &mut rng).unwrap();
        let out = route(&g, &packets, Discipline::FarthestFirst, 100_000).unwrap();
        assert!(out.delivered_at.iter().all(|&d| d != u32::MAX));
    }

    #[test]
    fn valiant_beats_greedy_on_bit_reversal_congestion() {
        // Bit reversal on level-d rows: route row r at level 0 to rev(r) at
        // level d. Greedy bit-fixing funnels everything through few middle
        // nodes; Valiant's random intermediates spread it out. Compare
        // makespans on a dim where the effect is visible.
        let dim = 6;
        let g = bf::butterfly(dim);
        let rows = 1usize << dim;
        let rev = bit_reversal(rows);
        let pairs: Vec<(Node, Node)> = rev
            .pairs
            .iter()
            .map(|&(s, t)| (bf::bf_index(dim, 0, s as usize), bf::bf_index(dim, dim, t as usize)))
            .collect();
        let mut rng = seeded_rng(11);
        let greedy_pkts = make_packets(&g, &pairs, &GreedyButterfly { dim }, &mut rng).unwrap();
        let greedy_out = route(&g, &greedy_pkts, Discipline::FarthestFirst, 1 << 20).unwrap();
        let val_pkts = make_packets(&g, &pairs, &ValiantButterfly { dim }, &mut rng).unwrap();
        let val_out = route(&g, &val_pkts, Discipline::FarthestFirst, 1 << 20).unwrap();
        assert!(val_out.delivered_at.iter().all(|&d| d != u32::MAX));
        assert!(greedy_out.delivered_at.iter().all(|&d| d != u32::MAX));
        // Valiant's path lengths are ≈ 2× greedy, but its makespan must not
        // blow up the way greedy's does on the adversarial pattern; allow
        // generous slack while still asserting the qualitative relation:
        // greedy suffers at least √rows congestion on bit reversal.
        assert!(
            greedy_out.steps as usize >= (rows as f64).sqrt() as usize,
            "greedy makespan {} suspiciously small",
            greedy_out.steps
        );
        assert!(
            (val_out.steps as usize) < 8 * dim * dim,
            "valiant makespan {} too large",
            val_out.steps
        );
    }

    #[test]
    fn valiant_path_valid() {
        let dim = 3;
        let g = bf::butterfly(dim);
        let sel = ValiantButterfly { dim };
        let mut rng = seeded_rng(5);
        for _ in 0..20 {
            let src = rng.gen_range(0..g.n() as Node);
            let dst = rng.gen_range(0..g.n() as Node);
            let p = sel.path(&g, src, dst, &mut rng).unwrap();
            assert_eq!(p[0], src);
            assert_eq!(*p.last().unwrap(), dst);
            for w in p.windows(2) {
                assert!(w[0] == w[1] || g.has_edge(w[0], w[1]));
            }
        }
    }

    use rand::Rng;
}
