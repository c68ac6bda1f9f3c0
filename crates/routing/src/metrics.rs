//! Measuring `route_G(h)` — the routing-time function of Section 2.

use crate::packet::{
    generous_step_limit, make_packets, route_recorded, Discipline, PathSelector, ShortestPath,
};
use crate::problem::random_h_h;
use rand::Rng;
use unet_obs::{Histogram, InMemoryRecorder};
use unet_topology::Graph;

/// Measured routing statistics for a family of problems.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteStats {
    /// `h` of the problems routed.
    pub h: usize,
    /// Worst makespan observed.
    pub max_steps: u32,
    /// Mean makespan.
    pub mean_steps: f64,
    /// Worst queue length observed.
    pub max_queue: usize,
    /// Mean occupancy of non-empty queues over all routing rounds and
    /// trials, from the same `route.queue_occupancy` histogram the trace
    /// analyzer reads — the two surfaces agree by construction.
    pub mean_queue: f64,
    /// Number of trials.
    pub trials: usize,
}

/// Empirically estimate `route_G(h)` by routing `trials` random `h–h`
/// problems with the given path selector. This is a lower-bound style
/// estimate of the worst case (random problems are near-worst-case for the
/// topologies we study); offline schedules should be measured with
/// [`crate::benes::pipeline_schedule`] instead.
///
/// # Panics
/// Panics if the selector cannot connect a sampled pair (measurement only
/// makes sense on connected hosts; use [`crate::packet::make_packets`]
/// directly for fallible path selection).
pub fn measure_route_time<S: PathSelector, R: Rng>(
    g: &Graph,
    h: usize,
    selector: &S,
    trials: usize,
    rng: &mut R,
) -> RouteStats {
    let mut max_steps = 0u32;
    let mut sum_steps = 0u64;
    let mut max_queue = 0usize;
    let mut rec = InMemoryRecorder::new();
    for _ in 0..trials {
        let prob = random_h_h(g.n(), h, rng);
        let packets =
            make_packets(g, &prob.pairs, selector, rng).expect("measurement host is connected");
        let out = route_recorded(
            g,
            &packets,
            Discipline::FarthestFirst,
            generous_step_limit(&packets),
            &mut rec,
        )
        .expect("progress guarantee makes the sum-of-paths limit generous");
        max_steps = max_steps.max(out.steps);
        sum_steps += out.steps as u64;
        max_queue = max_queue.max(out.max_queue);
    }
    let queue_hist = rec.histogram_data("route.queue_occupancy");
    debug_assert_eq!(
        queue_hist.map_or(0, |h| h.max),
        max_queue as u64,
        "recorder and Outcome must agree on the worst queue"
    );
    RouteStats {
        h,
        max_steps,
        mean_steps: sum_steps as f64 / trials.max(1) as f64,
        max_queue,
        mean_queue: queue_hist.and_then(Histogram::mean).unwrap_or(0.0),
        trials,
    }
}

/// Shortest-path baseline measurement (works on any connected host).
pub fn measure_route_time_bfs<R: Rng>(
    g: &Graph,
    h: usize,
    trials: usize,
    rng: &mut R,
) -> RouteStats {
    measure_route_time(g, h, &ShortestPath, trials, rng)
}

/// Static congestion of a path set: the maximum number of paths through any
/// single (undirected) edge and through any node. Congestion + dilation
/// lower-bound any schedule's makespan: `steps ≥ max(edge congestion,
/// longest path)` — the classic decomposition of routing cost.
pub fn path_congestion(paths: &[Vec<unet_topology::Node>]) -> (usize, usize) {
    use unet_topology::util::FxHashMap;
    let mut edge: FxHashMap<(u32, u32), usize> = FxHashMap::default();
    let mut node: FxHashMap<u32, usize> = FxHashMap::default();
    for path in paths {
        for &v in path {
            *node.entry(v).or_insert(0) += 1;
        }
        for w in path.windows(2) {
            if w[0] != w[1] {
                let key = if w[0] < w[1] { (w[0], w[1]) } else { (w[1], w[0]) };
                *edge.entry(key).or_insert(0) += 1;
            }
        }
    }
    (edge.values().copied().max().unwrap_or(0), node.values().copied().max().unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use unet_topology::generators::{mesh, torus};
    use unet_topology::util::seeded_rng;

    #[test]
    fn route_time_grows_with_h() {
        let g = torus(6, 6);
        let mut rng = seeded_rng(23);
        let s1 = measure_route_time_bfs(&g, 1, 3, &mut rng);
        let s4 = measure_route_time_bfs(&g, 4, 3, &mut rng);
        assert!(s4.max_steps > s1.max_steps);
        assert_eq!(s1.h, 1);
        assert!(s1.mean_steps <= s1.max_steps as f64);
    }

    #[test]
    fn mean_queue_bounded_by_max_and_agrees_with_recorder() {
        let g = torus(6, 6);
        let mut rng = seeded_rng(31);
        let s = measure_route_time_bfs(&g, 4, 3, &mut rng);
        // Non-empty queues have length ≥ 1, and the mean cannot exceed the
        // worst queue the router itself reported.
        assert!(s.mean_queue >= 1.0, "{}", s.mean_queue);
        assert!(s.mean_queue <= s.max_queue as f64, "{} > {}", s.mean_queue, s.max_queue);
        // An h=1 problem on a big torus keeps queues near 1.
        let mut rng = seeded_rng(31);
        let s1 = measure_route_time_bfs(&g, 1, 3, &mut rng);
        assert!(s1.mean_queue <= s.mean_queue + 1e-9);
    }

    #[test]
    fn congestion_of_disjoint_and_overlapping_paths() {
        // Two node-disjoint paths: congestion 1/1.
        let disjoint = vec![vec![0u32, 1, 2], vec![3, 4, 5]];
        assert_eq!(path_congestion(&disjoint), (1, 1));
        // Three paths sharing edge (1,2): edge congestion 3.
        let shared = vec![vec![0u32, 1, 2], vec![3, 1, 2], vec![4, 1, 2]];
        assert_eq!(path_congestion(&shared), (3, 3));
        // Lazy segments don't count as edges.
        let lazy = vec![vec![0u32, 0, 1]];
        assert_eq!(path_congestion(&lazy), (1, 2));
        assert_eq!(path_congestion(&[]), (0, 0));
    }

    #[test]
    fn congestion_lower_bounds_makespan() {
        use crate::butterfly::GreedyButterfly;
        use crate::packet::{make_packets, route, Discipline};
        use unet_topology::generators::butterfly;
        let dim = 4;
        let g = butterfly(dim);
        let mut rng = seeded_rng(77);
        let prob = crate::problem::random_h_h(g.n(), 4, &mut rng);
        let pk = make_packets(&g, &prob.pairs, &GreedyButterfly { dim }, &mut rng).unwrap();
        let paths: Vec<_> = pk.iter().map(<[_]>::to_vec).collect();
        let (edge_c, _) = path_congestion(&paths);
        let lim: u32 = pk.iter().map(|p| p.len() as u32 + 1).sum::<u32>() + 64;
        let out = route(&g, &pk, Discipline::FarthestFirst, lim).unwrap();
        assert!(
            out.steps as usize >= edge_c,
            "makespan {} below edge congestion {edge_c}",
            out.steps
        );
    }

    #[test]
    fn mesh_slower_than_torus() {
        // Same node count; torus halves distances, so mean routing time
        // should not be worse.
        let gm = mesh(8, 8);
        let gt = torus(8, 8);
        let mut rng = seeded_rng(29);
        let sm = measure_route_time_bfs(&gm, 2, 3, &mut rng);
        let mut rng = seeded_rng(29);
        let st = measure_route_time_bfs(&gt, 2, 3, &mut rng);
        assert!(st.mean_steps <= sm.mean_steps + 1.0);
    }
}
