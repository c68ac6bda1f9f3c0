//! The router abstraction used by the simulation engine.
//!
//! Theorem 2.1 is parametric in the host's routing capability: the slowdown
//! is `O(route_M(n/m))`. A [`Router`] takes an `h–h` problem on the host and
//! returns a synchronous transfer schedule; the simulator converts it into
//! pebble-protocol sends/receives. Implementations cover the paper's whole
//! spectrum: online greedy, online randomized (Valiant), and offline
//! (Beneš/Waksman).

use rand::rngs::StdRng;
use unet_obs::{NoopRecorder, Recorder};
use unet_routing::packet::{
    generous_step_limit, make_packets, route_recorded, Discipline, Outcome, PathSelector,
};
use unet_routing::problem::RoutingProblem;
use unet_topology::{Graph, Node};

/// A routing strategy on a fixed host.
pub trait Router {
    /// Produce a transfer schedule solving `prob` on `host`.
    fn route(&self, host: &Graph, prob: &RoutingProblem, rng: &mut StdRng) -> Outcome;

    /// [`Router::route`] with instrumentation. The recorder is a trait
    /// object because `Router` itself is used as one. The default just
    /// ignores the recorder; engine-backed routers override it to thread
    /// the recorder into [`unet_routing::packet::route_recorded`].
    fn route_recorded(
        &self,
        host: &Graph,
        prob: &RoutingProblem,
        rng: &mut StdRng,
        rec: &mut (dyn Recorder + '_),
    ) -> Outcome {
        let _ = rec;
        self.route(host, prob, rng)
    }

    /// Human-readable strategy name (for experiment tables).
    fn name(&self) -> &'static str;

    /// Check that this router can operate on `host` **before** any routing
    /// is attempted. The builder front door calls this and converts a
    /// rejection into `SimError::Router`, replacing the panics that
    /// topology-bound routers (Beneš) used to raise mid-run.
    /// The default accepts every host.
    fn validate(&self, host: &Graph) -> Result<(), String> {
        let _ = host;
        Ok(())
    }
}

/// Wrap any [`PathSelector`] (BFS, dimension-order, butterfly greedy,
/// Valiant, …) into a router via the store-and-forward engine.
pub struct SelectorRouter<S: PathSelector> {
    /// The path selector.
    pub selector: S,
    /// Strategy name.
    pub label: &'static str,
}

impl<S: PathSelector> SelectorRouter<S> {
    /// Construct with a label.
    pub fn new(selector: S, label: &'static str) -> Self {
        SelectorRouter { selector, label }
    }
}

impl<S: PathSelector> SelectorRouter<S> {
    fn route_inner<REC: Recorder + ?Sized>(
        &self,
        host: &Graph,
        prob: &RoutingProblem,
        rng: &mut StdRng,
        rec: &mut REC,
    ) -> Outcome {
        let packets = make_packets(host, &prob.pairs, &self.selector, rng)
            .expect("embedding maps guests onto a connected host");
        route_recorded(
            host,
            &packets,
            Discipline::FarthestFirst,
            generous_step_limit(&packets),
            rec,
        )
        .expect("engine progress guarantee under generous limit")
    }
}

impl<S: PathSelector> Router for SelectorRouter<S> {
    fn route(&self, host: &Graph, prob: &RoutingProblem, rng: &mut StdRng) -> Outcome {
        self.route_inner(host, prob, rng, &mut NoopRecorder)
    }

    fn route_recorded(
        &self,
        host: &Graph,
        prob: &RoutingProblem,
        rng: &mut StdRng,
        rec: &mut (dyn Recorder + '_),
    ) -> Outcome {
        self.route_inner(host, prob, rng, rec)
    }

    fn name(&self) -> &'static str {
        self.label
    }

    fn validate(&self, host: &Graph) -> Result<(), String> {
        // Path selection panics on unreachable targets; reject up front so
        // the builder can return `SimError::Router` instead.
        if unet_topology::analysis::is_connected(host) {
            Ok(())
        } else {
            Err("store-and-forward path selection requires a connected host".into())
        }
    }
}

/// Offline router for the Beneš-network host: sources/destinations must be
/// column-0 nodes; uses Waksman's algorithm with wave pipelining
/// (`route(h) = O(h + log m)` — the Section 2 offline bound).
pub struct OfflineBenesRouter {
    /// Beneš dimension (`2^dim` rows, `2·dim` columns).
    pub dim: usize,
}

impl Router for OfflineBenesRouter {
    fn route(&self, host: &Graph, prob: &RoutingProblem, _rng: &mut StdRng) -> Outcome {
        let rows = 1usize << self.dim;
        assert_eq!(host.n(), 2 * self.dim * rows, "host must be benes_network(dim)");
        // Map column-0 node ids to rows.
        let pairs: Vec<(u32, u32)> = prob
            .pairs
            .iter()
            .map(|&(s, t)| {
                assert!(
                    (s as usize) < rows && (t as usize) < rows,
                    "offline Beneš routing expects column-0 endpoints"
                );
                (s, t)
            })
            .collect();
        if pairs.is_empty() {
            return Outcome { steps: 0, delivered_at: vec![], transfers: vec![], max_queue: 0 };
        }
        let (makespan, transfers, delivered_at) =
            unet_routing::benes::benes_h_h_schedule(self.dim, &pairs);
        Outcome { steps: makespan, delivered_at, transfers, max_queue: 1 }
    }

    fn name(&self) -> &'static str {
        "offline-benes-waksman"
    }

    fn validate(&self, host: &Graph) -> Result<(), String> {
        let rows = 1usize << self.dim;
        if host.n() == 2 * self.dim * rows {
            Ok(())
        } else {
            Err(format!(
                "host has {} nodes but benes_network({}) has {}",
                host.n(),
                self.dim,
                2 * self.dim * rows
            ))
        }
    }
}

/// Convenience constructors for the standard router/host pairings used in
/// the experiments.
pub mod presets {
    use super::*;
    use unet_routing::butterfly::{GreedyButterfly, ValiantButterfly};
    use unet_routing::greedy::DimensionOrder;
    use unet_routing::packet::ShortestPath;

    /// BFS shortest-path router (any connected host).
    pub fn bfs() -> SelectorRouter<ShortestPath> {
        SelectorRouter::new(ShortestPath, "bfs-shortest-path")
    }

    /// Greedy bit-fixing router for a `dim`-dimensional butterfly host.
    pub fn butterfly_greedy(dim: usize) -> SelectorRouter<GreedyButterfly> {
        SelectorRouter::new(GreedyButterfly { dim }, "butterfly-greedy")
    }

    /// Valiant randomized router for a `dim`-dimensional butterfly host.
    pub fn butterfly_valiant(dim: usize) -> SelectorRouter<ValiantButterfly> {
        SelectorRouter::new(ValiantButterfly { dim }, "butterfly-valiant")
    }

    /// Dimension-order router for a `rows × cols` mesh host.
    pub fn mesh_xy(rows: usize, cols: usize) -> SelectorRouter<DimensionOrder> {
        SelectorRouter::new(DimensionOrder::mesh(rows, cols), "mesh-xy")
    }

    /// Dimension-order router for a `rows × cols` torus host.
    pub fn torus_xy(rows: usize, cols: usize) -> SelectorRouter<DimensionOrder> {
        SelectorRouter::new(DimensionOrder::torus(rows, cols), "torus-xy")
    }
}

/// The column-0 node ids of a Beneš host — the natural embedding targets for
/// [`OfflineBenesRouter`].
pub fn benes_column0(dim: usize) -> Vec<Node> {
    (0..(1u32 << dim)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use unet_routing::benes::benes_network;
    use unet_topology::generators::torus;
    use unet_topology::util::seeded_rng;

    #[test]
    fn selector_router_delivers() {
        let host = torus(4, 4);
        let prob = RoutingProblem::new(16, vec![(0, 15), (15, 0), (3, 3)]);
        let r = presets::bfs();
        let out = r.route(&host, &prob, &mut seeded_rng(1));
        assert!(out.delivered_at.iter().all(|&d| d != u32::MAX));
        assert_eq!(r.name(), "bfs-shortest-path");
    }

    #[test]
    fn benes_router_round_trip() {
        let dim = 3;
        let host = benes_network(dim);
        let prob = RoutingProblem::new(host.n(), vec![(0, 5), (5, 0), (2, 2)]);
        let r = OfflineBenesRouter { dim };
        let out = r.route(&host, &prob, &mut seeded_rng(2));
        assert_eq!(out.delivered_at.len(), 3);
        assert!(out.steps >= 2 * (2 * dim as u32 - 1));
    }

    #[test]
    fn benes_router_empty_problem() {
        let dim = 2;
        let host = benes_network(dim);
        let prob = RoutingProblem::new(host.n(), vec![]);
        let out = OfflineBenesRouter { dim }.route(&host, &prob, &mut seeded_rng(3));
        assert_eq!(out.steps, 0);
    }

    #[test]
    #[should_panic(expected = "column-0")]
    fn benes_router_rejects_off_column_endpoints() {
        let dim = 2;
        let host = benes_network(dim);
        let prob = RoutingProblem::new(host.n(), vec![(9, 0)]);
        OfflineBenesRouter { dim }.route(&host, &prob, &mut seeded_rng(4));
    }

    #[test]
    fn column0_ids() {
        assert_eq!(benes_column0(2), vec![0, 1, 2, 3]);
    }

    #[test]
    fn validate_accepts_and_rejects() {
        // Selector router: connected host OK, disconnected host rejected.
        let r = presets::bfs();
        assert!(r.validate(&torus(3, 3)).is_ok());
        let mut b = unet_topology::GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(2, 3);
        assert!(r.validate(&b.build()).is_err());
        // Beneš router: exact size or nothing.
        let b = OfflineBenesRouter { dim: 2 };
        assert!(b.validate(&benes_network(2)).is_ok());
        let err = b.validate(&torus(3, 3)).unwrap_err();
        assert!(err.contains("benes_network(2)"), "{err}");
    }
}
