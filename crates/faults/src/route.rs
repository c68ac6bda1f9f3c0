//! Fault-aware packet routing.
//!
//! Routes `(src, dst)` pairs against a [`FaultyView`]: each packet first
//! tries its canonical path (whatever [`PathSelector`] the healthy host
//! would use — greedy bit-fixing on a butterfly, X-Y on a mesh); if any hop
//! of that path is dead, the packet **retries** with a BFS path over the
//! surviving edges; if no live path exists (or an endpoint is dead) the
//! packet is **dropped**. Surviving packets then run through the standard
//! store-and-forward engine, so the port discipline and all downstream
//! pebble-protocol conversion are identical to the healthy case.
//!
//! Delivered / dropped / retried totals surface both in the returned
//! [`FaultyOutcome`] and as `faults.route.*` counters on the [`Recorder`].

use crate::view::FaultyView;
use rand::Rng;
use unet_obs::{NoopRecorder, Recorder};
use unet_routing::packet::{
    generous_step_limit, route_recorded, Discipline, Outcome, PathSelector, Paths, ShortestPath,
};
use unet_topology::Node;

/// Result of a fault-aware routing run.
#[derive(Debug, Clone)]
pub struct FaultyOutcome {
    /// Engine outcome over the routed (non-dropped) packets, or `None` when
    /// every pair was dropped.
    pub outcome: Option<Outcome>,
    /// For each routed packet (by packet id), the index of its original
    /// pair.
    pub routed: Vec<usize>,
    /// Original indices of the dropped pairs.
    pub dropped_pairs: Vec<usize>,
    /// Packets delivered.
    pub delivered: u64,
    /// Packets dropped (dead endpoint or no live path).
    pub dropped: u64,
    /// Packets rerouted after their canonical path died.
    pub retried: u64,
}

/// [`route_faulty_recorded`] with BFS-only planning, default discipline, and
/// no instrumentation — the deterministic entry point (no RNG involved).
pub fn route_faulty(view: &FaultyView, pairs: &[(Node, Node)]) -> FaultyOutcome {
    let mut rng = unet_topology::util::seeded_rng(0);
    route_faulty_recorded::<ShortestPath, _, _>(
        view,
        pairs,
        None,
        Discipline::FarthestFirst,
        &mut rng,
        &mut NoopRecorder,
    )
}

/// Route `pairs` against the live view.
///
/// With `selector = Some(s)`, each packet first asks `s` for its canonical
/// path on the **base** graph; a path that only uses live nodes and edges is
/// kept, anything else falls back to BFS over the live view (counted in
/// `retried`). With `selector = None`, planning is BFS-only and `retried`
/// stays 0 (there is no canonical path to die).
///
/// The canonical paths of the pairs whose endpoints are up come from one
/// [`PathSelector::paths`] call (one BFS per source for [`ShortestPath`]),
/// drawing from `rng` in pair order. When some pair has no path on the base
/// graph, `rng` is restored and the paths are asked for pair by pair, so
/// the draws are the same either way.
///
/// Emits the `faults.route` span and `faults.route.delivered` /
/// `faults.route.dropped` / `faults.route.retried` counters.
pub fn route_faulty_recorded<S: PathSelector, R: Rng + Clone, REC: Recorder + ?Sized>(
    view: &FaultyView,
    pairs: &[(Node, Node)],
    selector: Option<&S>,
    discipline: Discipline,
    rng: &mut R,
    rec: &mut REC,
) -> FaultyOutcome {
    rec.span_start("faults.route");
    let mut paths = Paths::default();
    let mut routed: Vec<usize> = Vec::new();
    let mut dropped_pairs: Vec<usize> = Vec::new();
    let mut retried = 0u64;

    let up = |&(src, dst): &(Node, Node)| view.is_node_up(src) && view.is_node_up(dst);
    // The canonical walk of each pair whose endpoints are up, in order; an
    // empty walk where the selector found none.
    let canonical: Paths = match selector {
        None => Paths::default(),
        Some(s) => {
            let live: Vec<(Node, Node)> = pairs.iter().copied().filter(up).collect();
            let before = rng.clone();
            s.paths(view.base(), &live, rng).unwrap_or_else(|_| {
                *rng = before;
                live.iter()
                    .map(|&(src, dst)| s.path(view.base(), src, dst, rng).unwrap_or_default())
                    .collect()
            })
        }
    };
    let mut canonical = canonical.iter();

    for (i, pair) in pairs.iter().enumerate() {
        let (src, dst) = *pair;
        if !up(pair) {
            dropped_pairs.push(i);
            continue;
        }
        match canonical.next().filter(|p| !p.is_empty() && path_is_live(view, p)) {
            Some(p) => paths.push(p),
            None => {
                if selector.is_some() {
                    retried += 1;
                }
                match view.bfs_path(src, dst) {
                    Some(p) => paths.push(&p),
                    None => {
                        if selector.is_some() {
                            retried -= 1; // never even started: dropped, not retried
                        }
                        dropped_pairs.push(i);
                        continue;
                    }
                }
            }
        }
        routed.push(i);
    }

    let outcome = if paths.is_empty() {
        None
    } else {
        // Paths use only live edges (⊆ base edges), so the base graph
        // validates them and the engine needs no fault awareness.
        Some(
            route_recorded(view.base(), &paths, discipline, generous_step_limit(&paths), rec)
                .expect("generous limit"),
        )
    };

    let delivered = routed.len() as u64;
    let dropped = dropped_pairs.len() as u64;
    rec.span_end("faults.route");
    rec.counter("faults.route.delivered", delivered);
    rec.counter("faults.route.dropped", dropped);
    rec.counter("faults.route.retried", retried);
    FaultyOutcome { outcome, routed, dropped_pairs, delivered, dropped, retried }
}

/// Whether every node and hop of `path` is live in `view` (lazy repeats
/// `w[0] == w[1]` count as staying put, which is always allowed).
fn path_is_live(view: &FaultyView, path: &[Node]) -> bool {
    path.iter().all(|&v| view.is_node_up(v))
        && path.windows(2).all(|w| w[0] == w[1] || view.is_edge_up(w[0], w[1]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FaultEvent, FaultKind, FaultPlan};
    use unet_routing::butterfly::GreedyButterfly;
    use unet_topology::generators::{butterfly::butterfly, ring, torus};
    use unet_topology::util::seeded_rng;

    #[test]
    fn healthy_view_routes_everything() {
        let g = torus(4, 4);
        let view = FaultyView::new(&g, &FaultPlan::none());
        let pairs: Vec<(Node, Node)> = (0..16).map(|i| (i, (i + 5) % 16)).collect();
        let out = route_faulty(&view, &pairs);
        assert_eq!(out.delivered, 16);
        assert_eq!(out.dropped, 0);
        assert_eq!(out.retried, 0);
        let eng = out.outcome.unwrap();
        assert!(eng.delivered_at.iter().all(|&d| d != u32::MAX));
    }

    #[test]
    fn dead_endpoints_drop_and_survivors_reroute() {
        let g = ring(8);
        let plan =
            FaultPlan::new(vec![FaultEvent { at: 1, kind: FaultKind::NodeCrash { node: 1 } }]);
        let mut view = FaultyView::new(&g, &plan);
        view.advance_to(1);
        // 0→2 must go the long way (through 7..3); 1 is dead so (1, 4) drops.
        let out = route_faulty(&view, &[(0, 2), (1, 4)]);
        assert_eq!(out.delivered, 1);
        assert_eq!(out.dropped, 1);
        assert_eq!(out.dropped_pairs, vec![1]);
        assert_eq!(out.routed, vec![0]);
        let eng = out.outcome.unwrap();
        // Detour length: 0→7→6→5→4→3→2 = 6 hops.
        assert_eq!(eng.steps, 6);
    }

    #[test]
    fn canonical_butterfly_path_dies_and_bfs_rescues() {
        let dim = 3;
        let g = butterfly(dim);
        let sel = GreedyButterfly { dim };
        // Find a pair whose greedy path is long enough to cut in the middle.
        let src = 0u32;
        let dst = (g.n() - 1) as u32;
        let canonical = sel.walk(src, dst);
        assert!(canonical.len() >= 3);
        let (u, v) = (canonical[1], canonical[2]);
        let plan = FaultPlan::new(vec![FaultEvent { at: 1, kind: FaultKind::LinkCut { u, v } }]);
        let mut view = FaultyView::new(&g, &plan);
        view.advance_to(1);
        let mut rng = seeded_rng(3);
        let mut rec = unet_obs::InMemoryRecorder::new();
        let out = route_faulty_recorded(
            &view,
            &[(src, dst)],
            Some(&sel),
            Discipline::FarthestFirst,
            &mut rng,
            &mut rec,
        );
        assert_eq!(out.retried, 1, "canonical path died, BFS fallback must count as retry");
        assert_eq!(out.delivered, 1);
        assert_eq!(rec.counter_value("faults.route.retried"), 1);
        assert_eq!(rec.counter_value("faults.route.delivered"), 1);
        assert!(rec.open_spans().is_empty());
        // The engine path avoids the cut link.
        let eng = out.outcome.unwrap();
        assert!(eng.transfers.iter().all(|t| view.is_edge_up(t.from, t.to)));
    }

    #[test]
    fn partitioned_pairs_drop_instead_of_panicking() {
        let g = ring(4);
        let plan = FaultPlan::new(vec![
            FaultEvent { at: 1, kind: FaultKind::LinkCut { u: 0, v: 1 } },
            FaultEvent { at: 1, kind: FaultKind::LinkCut { u: 2, v: 3 } },
        ]);
        let mut view = FaultyView::new(&g, &plan);
        view.advance_to(1);
        let out = route_faulty(&view, &[(0, 1), (0, 3), (1, 2)]);
        assert_eq!(out.dropped, 1);
        assert_eq!(out.dropped_pairs, vec![0]);
        assert_eq!(out.delivered, 2);
    }

    #[test]
    fn all_dropped_yields_no_engine_outcome() {
        let g = ring(4);
        let plan =
            FaultPlan::new(vec![FaultEvent { at: 0, kind: FaultKind::NodeCrash { node: 2 } }]);
        let mut view = FaultyView::new(&g, &plan);
        view.advance_to(0);
        let out = route_faulty(&view, &[(2, 0), (1, 2)]);
        assert!(out.outcome.is_none());
        assert_eq!(out.dropped, 2);
        assert_eq!(out.delivered, 0);
    }
}
