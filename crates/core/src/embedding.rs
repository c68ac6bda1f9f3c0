//! Static embeddings `f : [n] → [m]` of guest processors onto host
//! processors (the mapping of Theorem 2.1's proof: each host gets at most
//! `⌈n/m⌉` guests).

use rand::seq::SliceRandom;
use rand::Rng;
use unet_topology::Node;

/// A static guest→host placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Embedding {
    /// `f[i]` = host of guest `i`.
    pub f: Vec<Node>,
    /// Host size `m`.
    pub m: usize,
}

impl Embedding {
    /// Validate and wrap an explicit mapping.
    pub fn new(f: Vec<Node>, m: usize) -> Self {
        assert!(f.iter().all(|&q| (q as usize) < m), "host index out of range");
        Embedding { f, m }
    }

    /// Balanced block embedding: guest `i` to host `⌊i·m/n⌋` — consecutive
    /// guests share hosts, every host receives `⌊n/m⌋` or `⌈n/m⌉` guests
    /// (and for `m ≥ n` the mapping is injective).
    pub fn block(n: usize, m: usize) -> Self {
        let f = (0..n).map(|i| ((i * m) / n) as Node).collect();
        Embedding { f, m }
    }

    /// Balanced random embedding: a random permutation of guests, then
    /// block-mapped. Destroys guest locality — the worst reasonable case for
    /// communication, useful as an adversarial placement.
    pub fn random<R: Rng>(n: usize, m: usize, rng: &mut R) -> Self {
        let mut perm: Vec<usize> = (0..n).collect();
        perm.shuffle(rng);
        let mut f = vec![0 as Node; n];
        for (slot, &guest) in perm.iter().enumerate() {
            f[guest] = ((slot * m) / n) as Node;
        }
        Embedding { f, m }
    }

    /// Locality-preserving tile embedding of an `G × G` grid guest onto an
    /// `H × H` grid host (`H` divides `G`): guest `(x, y)` maps to host
    /// `(x / t, y / t)` with tile side `t = G/H`. Guest grid edges then only
    /// ever cross to an adjacent host — the embedding that makes mesh-on-
    /// mesh simulations pay only the load, not the diameter.
    pub fn grid_tiles(guest_side: usize, host_side: usize) -> Self {
        assert!(
            host_side > 0 && guest_side.is_multiple_of(host_side),
            "host side must divide guest side"
        );
        let t = guest_side / host_side;
        let f = (0..guest_side * guest_side)
            .map(|v| {
                let (x, y) = (v / guest_side, v % guest_side);
                ((x / t) * host_side + (y / t)) as Node
            })
            .collect();
        Embedding { f, m: host_side * host_side }
    }

    /// Number of guests.
    pub fn n(&self) -> usize {
        self.f.len()
    }

    /// The load: max guests per host (Theorem 2.1 requires `≤ ⌈n/m⌉`).
    pub fn load(&self) -> usize {
        let mut cnt = vec![0usize; self.m];
        for &q in &self.f {
            cnt[q as usize] += 1;
        }
        cnt.into_iter().max().unwrap_or(0)
    }

    /// Guests per host, as lists (index = host).
    pub fn guests_by_host(&self) -> Vec<Vec<Node>> {
        let mut by = vec![Vec::new(); self.m];
        for (i, &q) in self.f.iter().enumerate() {
            by[q as usize].push(i as Node);
        }
        by
    }

    /// Whether the embedding is balanced (`load ≤ ⌈n/m⌉`).
    pub fn is_balanced(&self) -> bool {
        self.load() <= self.n().div_ceil(self.m)
    }

    /// **Dilation**: the maximum host distance spanned by a guest edge —
    /// the classic embedding cost measure (see Monien & Sudborough \[16\]).
    /// An embedding-based simulation cannot have slowdown below its
    /// dilation; this is the quantity the `embedding_bound` counting in
    /// `unet-lowerbound` charges for.
    ///
    /// `O(m·(m + E_host) + E_guest)` via per-host BFS. Panics if some guest
    /// edge maps to disconnected hosts.
    pub fn dilation(&self, guest: &unet_topology::Graph, host: &unet_topology::Graph) -> u32 {
        let dists: Vec<Vec<u32>> = (0..host.n() as Node)
            .map(|q| unet_topology::analysis::bfs_distances(host, q))
            .collect();
        let mut max = 0;
        for (u, v) in guest.edges() {
            let d = dists[self.f[u as usize] as usize][self.f[v as usize] as usize];
            assert_ne!(d, u32::MAX, "guest edge maps across disconnected hosts");
            max = max.max(d);
        }
        max
    }

    /// **Edge congestion**: route every guest edge along a BFS shortest path
    /// in the host; the maximum number of guest edges crossing any single
    /// host edge. Together with dilation this lower-bounds the cost of
    /// *any* embedding-based simulation (each guest step must move one
    /// message per guest edge through the congested link).
    ///
    /// The paths come from one [`bfs_paths`](unet_routing::packet::bfs_paths)
    /// call (one BFS per distinct source host), and are the ones a BFS per
    /// guest edge would find.
    pub fn edge_congestion(
        &self,
        guest: &unet_topology::Graph,
        host: &unet_topology::Graph,
    ) -> usize {
        use unet_topology::util::FxHashMap;
        let pairs: Vec<(Node, Node)> = guest
            .edges()
            .map(|(u, v)| (self.f[u as usize], self.f[v as usize]))
            .filter(|&(a, b)| a != b)
            .collect();
        let paths = unet_routing::packet::bfs_paths(host, &pairs).expect("host must be connected");
        let mut per_edge: FxHashMap<(Node, Node), usize> = FxHashMap::default();
        for path in &paths {
            for w in path.windows(2) {
                let key = if w[0] < w[1] { (w[0], w[1]) } else { (w[1], w[0]) };
                *per_edge.entry(key).or_insert(0) += 1;
            }
        }
        per_edge.values().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unet_topology::util::seeded_rng;

    #[test]
    fn block_is_balanced() {
        for (n, m) in [(12usize, 4usize), (13, 4), (4, 4), (5, 8), (100, 7)] {
            let e = Embedding::block(n, m);
            assert!(e.is_balanced(), "n={n} m={m} load={}", e.load());
            assert_eq!(e.n(), n);
        }
    }

    #[test]
    fn block_injective_when_m_ge_n() {
        let e = Embedding::block(4, 8);
        let mut hosts = e.f.clone();
        hosts.dedup();
        assert_eq!(hosts.len(), 4);
        assert_eq!(e.load(), 1);
    }

    #[test]
    fn random_is_balanced() {
        let e = Embedding::random(100, 7, &mut seeded_rng(3));
        assert!(e.is_balanced());
    }

    #[test]
    fn guests_by_host_partitions() {
        let e = Embedding::block(10, 3);
        let by = e.guests_by_host();
        let total: usize = by.iter().map(|v| v.len()).sum();
        assert_eq!(total, 10);
        for (q, guests) in by.iter().enumerate() {
            for &g in guests {
                assert_eq!(e.f[g as usize] as usize, q);
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        Embedding::new(vec![5], 4);
    }

    #[test]
    fn dilation_and_congestion() {
        use unet_topology::generators::{ring, torus};
        // Ring(16) tiled 4-per-host onto ring(4): consecutive blocks land on
        // consecutive hosts ⇒ dilation 1.
        let guest = ring(16);
        let host = ring(4);
        let e = Embedding::block(16, 4);
        assert_eq!(e.dilation(&guest, &host), 1);
        assert!(e.edge_congestion(&guest, &host) >= 1);
        // On the 2×2 torus the host ordering 0,1,2,3 is not a cycle
        // (1 = (0,1) and 2 = (1,0) are antipodal), so the block embedding
        // pays dilation 2.
        let host2 = torus(2, 2);
        assert_eq!(e.dilation(&guest, &host2), 2);
        // Identity embedding of a graph on itself: dilation exactly 1,
        // congestion exactly 1.
        let t = torus(4, 4);
        let id = Embedding::block(16, 16);
        assert_eq!(id.dilation(&t, &t), 1);
        assert_eq!(id.edge_congestion(&t, &t), 1);
    }

    /// The batched BFS gives the congestion a BFS per guest edge gives.
    #[test]
    fn edge_congestion_equals_the_per_edge_loop() {
        use unet_routing::{PathSelector, ShortestPath};
        use unet_topology::generators::{butterfly, random_regular, torus};
        use unet_topology::util::FxHashMap;
        fn per_edge_loop(
            e: &Embedding,
            guest: &unet_topology::Graph,
            host: &unet_topology::Graph,
        ) -> usize {
            let mut per_edge: FxHashMap<(Node, Node), usize> = FxHashMap::default();
            for (u, v) in guest.edges() {
                let (a, b) = (e.f[u as usize], e.f[v as usize]);
                if a == b {
                    continue;
                }
                let path = ShortestPath.path(host, a, b, &mut seeded_rng(0)).expect("connected");
                for w in path.windows(2) {
                    *per_edge.entry((w[0].min(w[1]), w[0].max(w[1]))).or_insert(0) += 1;
                }
            }
            per_edge.values().copied().max().unwrap_or(0)
        }
        for seed in 0..12u64 {
            let mut rng = seeded_rng(seed);
            let guest = random_regular(64, 4, &mut rng);
            for host in [torus(3, 4), butterfly(3)] {
                for e in [Embedding::random(64, host.n(), &mut rng), Embedding::block(64, host.n())]
                {
                    let got = e.edge_congestion(&guest, &host);
                    assert_eq!(got, per_edge_loop(&e, &guest, &host), "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn grid_tiles_locality() {
        // 6×6 guest on 3×3 host: 2×2 tiles.
        let e = Embedding::grid_tiles(6, 3);
        assert_eq!(e.load(), 4);
        assert!(e.is_balanced());
        // Guest (0,0)..(1,1) all on host 0.
        assert_eq!(e.f[0], 0);
        assert_eq!(e.f[7], 0); // (1,1)
        assert_eq!(e.f[2], 1); // (0,2) → host (0,1)
                               // Grid-adjacent guests map to grid-adjacent (or equal) hosts.
        for x in 0..6usize {
            for y in 0..5usize {
                let a = e.f[x * 6 + y] as usize;
                let b = e.f[x * 6 + y + 1] as usize;
                let (ax, ay) = (a / 3, a % 3);
                let (bx, by) = (b / 3, b % 3);
                assert!(ax.abs_diff(bx) + ay.abs_diff(by) <= 1);
            }
        }
    }
}
