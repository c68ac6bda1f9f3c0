//! A live view of a host graph under a fault plan.
//!
//! [`FaultyView`] wraps a base [`Graph`] and a [`FaultPlan`] and answers
//! "which nodes and edges are up at boundary `t`?". It never invents
//! topology: every edge it yields is an edge of the base graph (a property
//! the crate's proptests pin down), so it composes with any generator —
//! build a butterfly, a torus, or a random regular host and degrade it.

use crate::plan::{FaultEvent, FaultKind, FaultPlan};
use unet_topology::util::FxHashSet;
use unet_topology::{Graph, GraphBuilder, Node};

/// A state change applied by [`FaultyView::advance_to`], with the boundary
/// at which it fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppliedFault {
    /// A node crashed (crash-stop: permanent).
    NodeDown {
        /// Boundary at which it fired.
        at: u32,
        /// The crashed node.
        node: Node,
    },
    /// A link went down (cut or flap).
    LinkDown {
        /// Boundary at which it fired.
        at: u32,
        /// Lower endpoint.
        u: Node,
        /// Upper endpoint.
        v: Node,
        /// Whether the link will come back (flap) or not (cut).
        transient: bool,
    },
    /// A flapped link came back up.
    LinkRepaired {
        /// Boundary at which it fired.
        at: u32,
        /// Lower endpoint.
        u: Node,
        /// Upper endpoint.
        v: Node,
    },
}

/// The base graph as seen through the faults applied so far.
#[derive(Debug, Clone)]
pub struct FaultyView<'g> {
    base: &'g Graph,
    events: Vec<FaultEvent>,
    cursor: usize,
    time: u32,
    node_up: Vec<bool>,
    cut: FxHashSet<(Node, Node)>,
    flap_down: FxHashSet<(Node, Node)>,
    /// Outstanding repairs, sorted by repair time.
    pending_repairs: Vec<(u32, Node, Node)>,
    /// Monotone topology-change counter (see [`FaultyView::epoch`]).
    epoch: u64,
}

impl<'g> FaultyView<'g> {
    /// View `base` under `plan`, at boundary 0 with nothing applied yet
    /// (call [`FaultyView::advance_to`] to fire events, including any at
    /// boundary 0).
    ///
    /// # Panics
    /// Panics if the plan references nodes or edges outside `base`.
    pub fn new(base: &'g Graph, plan: &FaultPlan) -> Self {
        plan.validate(base).expect("fault plan must target the base graph");
        FaultyView {
            base,
            events: plan.events().to_vec(),
            cursor: 0,
            time: 0,
            node_up: vec![true; base.n()],
            cut: FxHashSet::default(),
            flap_down: FxHashSet::default(),
            pending_repairs: Vec::new(),
            epoch: 0,
        }
    }

    /// Topology epoch: bumped once per applied fault or repair, starting at
    /// 0. Two calls observing the same epoch are guaranteed to see the same
    /// live topology, which is exactly the invalidation key the degraded
    /// simulator's held route plan needs: it keeps a schedule tagged with
    /// the epoch it was computed under, and any fault or repair firing in
    /// between forces a reroute.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The underlying healthy graph.
    pub fn base(&self) -> &'g Graph {
        self.base
    }

    /// Current boundary.
    pub fn time(&self) -> u32 {
        self.time
    }

    /// Fire every plan event and pending repair with time `≤ t`, in time
    /// order, and return what changed. Idempotent re-faults (crashing a dead
    /// node, cutting a cut edge) are skipped silently.
    ///
    /// # Panics
    /// Panics if `t` is before the current boundary (time flows forward).
    pub fn advance_to(&mut self, t: u32) -> Vec<AppliedFault> {
        assert!(t >= self.time, "view time flows forward ({} → {t})", self.time);
        let mut applied = Vec::new();
        loop {
            // Next event vs. next repair, merged in time order (repairs at
            // the same boundary fire before new injections — a flap that
            // ends exactly when another starts leaves the link down).
            let next_event = self.events.get(self.cursor).map(|e| e.at);
            let next_repair = self.pending_repairs.first().map(|&(at, ..)| at);
            let take_repair = match (next_event, next_repair) {
                (_, None) => false,
                (None, Some(r)) => r <= t,
                (Some(e), Some(r)) => r <= t && r <= e,
            };
            if take_repair {
                let (at, u, v) = self.pending_repairs.remove(0);
                if self.flap_down.remove(&(u, v)) {
                    applied.push(AppliedFault::LinkRepaired { at, u, v });
                }
                continue;
            }
            match self.events.get(self.cursor) {
                Some(e) if e.at <= t => {
                    let e = *e;
                    self.cursor += 1;
                    match e.kind {
                        FaultKind::NodeCrash { node } => {
                            if std::mem::replace(&mut self.node_up[node as usize], false) {
                                applied.push(AppliedFault::NodeDown { at: e.at, node });
                            }
                        }
                        FaultKind::LinkCut { u, v } => {
                            if self.cut.insert((u, v)) {
                                applied.push(AppliedFault::LinkDown {
                                    at: e.at,
                                    u,
                                    v,
                                    transient: false,
                                });
                            }
                        }
                        FaultKind::LinkFlap { u, v, repair_at } => {
                            if self.flap_down.insert((u, v)) {
                                applied.push(AppliedFault::LinkDown {
                                    at: e.at,
                                    u,
                                    v,
                                    transient: true,
                                });
                            }
                            let pos =
                                self.pending_repairs.partition_point(|&(at, ..)| at <= repair_at);
                            self.pending_repairs.insert(pos, (repair_at, u, v));
                        }
                    }
                }
                _ => break,
            }
        }
        self.time = t;
        self.epoch += applied.len() as u64;
        applied
    }

    /// Whether `v` is up.
    pub fn is_node_up(&self, v: Node) -> bool {
        self.node_up[v as usize]
    }

    /// Whether the edge `{u, v}` exists in the base graph and is currently
    /// up (both endpoints alive, not cut, not flapped down).
    pub fn is_edge_up(&self, u: Node, v: Node) -> bool {
        let key = if u < v { (u, v) } else { (v, u) };
        self.node_up[u as usize]
            && self.node_up[v as usize]
            && self.base.has_edge(u, v)
            && !self.cut.contains(&key)
            && !self.flap_down.contains(&key)
    }

    /// Live neighbours of `v` (empty if `v` itself is down), in the base
    /// graph's sorted order — a subset of `base.neighbors(v)` by
    /// construction.
    pub fn neighbors_up(&self, v: Node) -> Vec<Node> {
        if !self.is_node_up(v) {
            return Vec::new();
        }
        self.base.neighbors(v).iter().copied().filter(|&w| self.is_edge_up(v, w)).collect()
    }

    /// The surviving nodes, sorted.
    pub fn surviving(&self) -> Vec<Node> {
        (0..self.base.n() as Node).filter(|&v| self.is_node_up(v)).collect()
    }

    /// Number of surviving nodes (`m'`).
    pub fn m_surviving(&self) -> usize {
        self.node_up.iter().filter(|&&up| up).count()
    }

    /// Materialize the surviving subnetwork as a standalone [`Graph`] over
    /// the live nodes (renamed to `0..m'`), plus the rename table mapping
    /// new ids back to base ids. Composes with everything that takes a
    /// `Graph` — generators, routing measurements, lower-bound audits.
    pub fn alive_graph(&self) -> (Graph, Vec<Node>) {
        let keep = self.surviving();
        let mut rename = vec![u32::MAX; self.base.n()];
        for (new, &old) in keep.iter().enumerate() {
            rename[old as usize] = new as u32;
        }
        let mut b = GraphBuilder::new(keep.len());
        for (u, v) in self.base.edges() {
            if self.is_edge_up(u, v) {
                b.add_edge(rename[u as usize], rename[v as usize]);
            }
        }
        (b.build(), keep)
    }

    /// BFS shortest path between live nodes over live edges, if one exists.
    /// Deterministic (neighbours visited in sorted base order).
    pub fn bfs_path(&self, src: Node, dst: Node) -> Option<Vec<Node>> {
        if !self.is_node_up(src) || !self.is_node_up(dst) {
            return None;
        }
        if src == dst {
            return Some(vec![src]);
        }
        let mut prev = vec![u32::MAX; self.base.n()];
        let mut queue = std::collections::VecDeque::new();
        prev[src as usize] = src;
        queue.push_back(src);
        while let Some(v) = queue.pop_front() {
            for &w in self.base.neighbors(v) {
                if prev[w as usize] == u32::MAX && self.is_edge_up(v, w) {
                    prev[w as usize] = v;
                    if w == dst {
                        let mut path = vec![dst];
                        let mut cur = dst;
                        while cur != src {
                            cur = prev[cur as usize];
                            path.push(cur);
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push_back(w);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FaultEvent, FaultKind};
    use unet_topology::generators::{ring, torus};

    fn plan(events: Vec<FaultEvent>) -> FaultPlan {
        FaultPlan::new(events)
    }

    #[test]
    fn crash_removes_node_and_incident_edges() {
        let g = torus(3, 3);
        let p = plan(vec![FaultEvent { at: 1, kind: FaultKind::NodeCrash { node: 4 } }]);
        let mut view = FaultyView::new(&g, &p);
        assert!(view.is_node_up(4));
        let applied = view.advance_to(1);
        assert_eq!(applied, vec![AppliedFault::NodeDown { at: 1, node: 4 }]);
        assert!(!view.is_node_up(4));
        assert_eq!(view.m_surviving(), 8);
        for &w in g.neighbors(4) {
            assert!(!view.is_edge_up(4, w));
        }
        assert!(view.neighbors_up(4).is_empty());
        // Idempotent: advancing further applies nothing new.
        assert!(view.advance_to(5).is_empty());
    }

    #[test]
    fn flap_goes_down_and_repairs() {
        let g = ring(6);
        let p = plan(vec![FaultEvent {
            at: 1,
            kind: FaultKind::LinkFlap { u: 0, v: 1, repair_at: 3 },
        }]);
        let mut view = FaultyView::new(&g, &p);
        view.advance_to(1);
        assert!(!view.is_edge_up(0, 1));
        // Path 0→1 must detour the long way round.
        assert_eq!(view.bfs_path(0, 1).unwrap().len(), 6);
        assert!(view.advance_to(2).is_empty());
        let healed = view.advance_to(3);
        assert_eq!(healed, vec![AppliedFault::LinkRepaired { at: 3, u: 0, v: 1 }]);
        assert!(view.is_edge_up(0, 1));
        assert_eq!(view.bfs_path(0, 1).unwrap(), vec![0, 1]);
    }

    #[test]
    fn cut_partitions_ring_and_bfs_reports_none() {
        let g = ring(4);
        let p = plan(vec![
            FaultEvent { at: 1, kind: FaultKind::LinkCut { u: 0, v: 1 } },
            FaultEvent { at: 1, kind: FaultKind::LinkCut { u: 2, v: 3 } },
        ]);
        let mut view = FaultyView::new(&g, &p);
        view.advance_to(1);
        // {0,3} and {1,2} are now separate components.
        assert!(view.bfs_path(0, 1).is_none());
        assert!(view.bfs_path(0, 3).is_some());
        let (alive, rename) = view.alive_graph();
        assert_eq!(alive.n(), 4);
        assert_eq!(alive.num_edges(), 2);
        assert_eq!(rename, vec![0, 1, 2, 3]);
    }

    #[test]
    fn alive_graph_renames_after_crashes() {
        let g = torus(3, 3);
        let p = plan(vec![
            FaultEvent { at: 0, kind: FaultKind::NodeCrash { node: 0 } },
            FaultEvent { at: 0, kind: FaultKind::NodeCrash { node: 5 } },
        ]);
        let mut view = FaultyView::new(&g, &p);
        view.advance_to(0);
        let (alive, rename) = view.alive_graph();
        assert_eq!(alive.n(), 7);
        assert_eq!(rename.len(), 7);
        // Every alive edge maps back to a live base edge.
        for (a, b) in alive.edges() {
            assert!(view.is_edge_up(rename[a as usize], rename[b as usize]));
        }
    }

    #[test]
    fn epoch_counts_applied_changes_only() {
        let g = ring(6);
        let p = plan(vec![
            FaultEvent { at: 1, kind: FaultKind::LinkFlap { u: 0, v: 1, repair_at: 3 } },
            FaultEvent { at: 2, kind: FaultKind::NodeCrash { node: 4 } },
            FaultEvent { at: 2, kind: FaultKind::NodeCrash { node: 4 } }, // idempotent
        ]);
        let mut view = FaultyView::new(&g, &p);
        assert_eq!(view.epoch(), 0);
        view.advance_to(0);
        assert_eq!(view.epoch(), 0, "nothing fired yet");
        view.advance_to(1);
        assert_eq!(view.epoch(), 1, "flap down");
        view.advance_to(2);
        assert_eq!(view.epoch(), 2, "crash applied once, re-crash skipped");
        view.advance_to(3);
        assert_eq!(view.epoch(), 3, "repair bumps too");
        view.advance_to(9);
        assert_eq!(view.epoch(), 3, "quiet advance leaves the epoch alone");
    }

    #[test]
    #[should_panic(expected = "flows forward")]
    fn time_cannot_rewind() {
        let g = ring(4);
        let p = FaultPlan::none();
        let mut view = FaultyView::new(&g, &p);
        view.advance_to(3);
        view.advance_to(2);
    }

    #[test]
    #[should_panic(expected = "must target the base graph")]
    fn foreign_plan_rejected() {
        let g = ring(4);
        let p = plan(vec![FaultEvent { at: 0, kind: FaultKind::NodeCrash { node: 40 } }]);
        FaultyView::new(&g, &p);
    }
}
