//! Synchronous store-and-forward packet routing.
//!
//! The engine enforces exactly the communication discipline of the paper's
//! network model (Section 2: "each processor is allowed to communicate with
//! at most one of its neighboring processors during a single time step"):
//! per step every node transmits at most one packet to one neighbour and
//! accepts at most one incoming packet. Everything else (path choice, queue
//! discipline) is pluggable, so the same engine measures `route_M(h)` for
//! greedy, randomized (Valiant), and offline (Beneš/Waksman) strategies.

use rand::Rng;
use std::collections::BinaryHeap;
use unet_obs::{edge_key, NoopRecorder, Recorder};
use unet_topology::{Graph, Node};

/// One packet of an `h–h` routing problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Index into the problem's packet list.
    pub id: u32,
    /// Origin node.
    pub src: Node,
    /// Destination node.
    pub dst: Node,
    /// The full path this packet will follow (`path[0] = src`, last = dst).
    pub path: Vec<Node>,
}

/// Typed routing failure. Routing never panics on bad topology: a host that
/// cannot connect a packet's endpoints (disconnected generator input, or a
/// fault-partitioned surviving subnetwork) surfaces here instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteError {
    /// No path exists from `src` to `dst` in the (possibly faulted) host.
    Unreachable {
        /// Origin node.
        src: Node,
        /// Destination node.
        dst: Node,
    },
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::Unreachable { src, dst } => {
                write!(f, "no path from {src} to {dst}: host is partitioned between them")
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// Chooses a path for each packet before routing starts (oblivious or
/// offline routing). Randomized selectors draw from the provided RNG.
pub trait PathSelector {
    /// A walk from `src` to `dst` along edges of `g` (consecutive entries
    /// must be neighbours; `path[0] = src`, `path.last() = dst`), or
    /// [`RouteError::Unreachable`] when no such walk exists.
    fn path<R: Rng>(
        &self,
        g: &Graph,
        src: Node,
        dst: Node,
        rng: &mut R,
    ) -> Result<Vec<Node>, RouteError>;

    /// One [`PathSelector::path`] per pair, in input order, failing with
    /// the first pair (in input order) that cannot be connected. The
    /// default calls `path` pair by pair, so a randomized selector draws
    /// from `rng` in pair order; a selector that can share work between
    /// pairs overrides it with the same result.
    fn paths<R: Rng>(
        &self,
        g: &Graph,
        pairs: &[(Node, Node)],
        rng: &mut R,
    ) -> Result<Vec<Vec<Node>>, RouteError> {
        pairs.iter().map(|&(src, dst)| self.path(g, src, dst, rng)).collect()
    }
}

/// Shortest-path (BFS) selector — works on any host; reports
/// [`RouteError::Unreachable`] across disconnected components. Deterministic.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShortestPath;

impl PathSelector for ShortestPath {
    fn path<R: Rng>(
        &self,
        g: &Graph,
        src: Node,
        dst: Node,
        _rng: &mut R,
    ) -> Result<Vec<Node>, RouteError> {
        let mut paths = bfs_paths(g, &[(src, dst)])?;
        Ok(paths.pop().expect("one path per pair"))
    }

    fn paths<R: Rng>(
        &self,
        g: &Graph,
        pairs: &[(Node, Node)],
        _rng: &mut R,
    ) -> Result<Vec<Vec<Node>>, RouteError> {
        bfs_paths(g, pairs)
    }
}

/// BFS paths for `(src, dst)` pairs, in input order.
///
/// One BFS per distinct source, stopped once the last of that source's
/// destinations is discovered; every BFS reuses the same parent array. A
/// parent is fixed when its node is first discovered, so each path is the
/// one a BFS from `src` that stops at `dst` finds: shortest, and ties
/// broken the same way. A self pair gets `[src]`. Fails with
/// [`RouteError::Unreachable`] for the first pair, in input order, that no
/// path connects.
pub fn bfs_paths(g: &Graph, pairs: &[(Node, Node)]) -> Result<Vec<Vec<Node>>, RouteError> {
    const UNSEEN: Node = Node::MAX;
    let n = g.n();
    let mut by_source: Vec<u32> = (0..pairs.len() as u32).collect();
    by_source.sort_unstable_by_key(|&i| pairs[i as usize].0);
    let mut prev = vec![UNSEEN; n];
    let mut dist = vec![0u32; n];
    // wanted[v] == s: v is a destination of the BFS from s (sources are
    // distinct across groups, so the array never needs clearing).
    let mut wanted = vec![UNSEEN; n];
    // Every discovered node, in discovery order: the BFS queue, and the
    // list of `prev` entries to reset before the next source.
    let mut order: Vec<Node> = Vec::with_capacity(n);
    let mut paths: Vec<Vec<Node>> = vec![Vec::new(); pairs.len()];
    let mut first_unreachable = usize::MAX;
    for group in by_source.chunk_by(|&a, &b| pairs[a as usize].0 == pairs[b as usize].0) {
        let src = pairs[group[0] as usize].0;
        let mut left = 0usize;
        for &i in group {
            let dst = pairs[i as usize].1;
            if dst != src && wanted[dst as usize] != src {
                wanted[dst as usize] = src;
                left += 1;
            }
        }
        prev[src as usize] = src;
        dist[src as usize] = 0;
        order.push(src);
        let mut head = 0;
        while left > 0 && head < order.len() {
            let v = order[head];
            head += 1;
            for &w in g.neighbors(v) {
                if prev[w as usize] == UNSEEN {
                    prev[w as usize] = v;
                    dist[w as usize] = dist[v as usize] + 1;
                    order.push(w);
                    if wanted[w as usize] == src {
                        left -= 1;
                        if left == 0 {
                            break;
                        }
                    }
                }
            }
        }
        for &i in group {
            let dst = pairs[i as usize].1;
            if prev[dst as usize] == UNSEEN {
                first_unreachable = first_unreachable.min(i as usize);
                continue;
            }
            let mut path = vec![dst; dist[dst as usize] as usize + 1];
            let mut cur = dst;
            for slot in path.iter_mut().rev().skip(1) {
                cur = prev[cur as usize];
                *slot = cur;
            }
            paths[i as usize] = path;
        }
        for &v in &order {
            prev[v as usize] = UNSEEN;
        }
        order.clear();
    }
    match pairs.get(first_unreachable) {
        Some(&(src, dst)) => Err(RouteError::Unreachable { src, dst }),
        None => Ok(paths),
    }
}

/// Queue discipline: which waiting packet a node offers first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Discipline {
    /// Farthest-to-go first (the classic choice for greedy mesh routing).
    #[default]
    FarthestFirst,
    /// First come, first served (by packet id as a proxy for arrival).
    Fifo,
}

impl Discipline {
    /// The key a node's queue orders packet `id` by, `remaining` hops from
    /// its destination: the largest key is offered first. FarthestFirst
    /// offers the most remaining hops, then the lowest id; Fifo the lowest
    /// id. The id sits in the low 32 bits as `u32::MAX − id`.
    #[inline]
    fn offer_key(self, id: u32, remaining: usize) -> u64 {
        let id_key = u64::from(u32::MAX - id);
        match self {
            Discipline::FarthestFirst => (remaining as u64) << 32 | id_key,
            Discipline::Fifo => id_key,
        }
    }
}

/// One recorded transfer: at `step`, `from` sent packet `packet_id` to `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// Host step (0-based).
    pub step: u32,
    /// Sender.
    pub from: Node,
    /// Receiver.
    pub to: Node,
    /// Packet index.
    pub packet_id: u32,
}

/// Result of a routing run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Number of synchronous steps until the last delivery.
    pub steps: u32,
    /// Delivery step per packet (same order as the input packets).
    pub delivered_at: Vec<u32>,
    /// Every transfer, in step order (the raw material for converting a
    /// routing run into pebble-protocol send/receive pairs).
    pub transfers: Vec<Transfer>,
    /// Maximum queue length observed at any node.
    pub max_queue: usize,
}

impl Outcome {
    /// Transfers grouped by step (each inner slice is one synchronous step).
    pub fn transfers_by_step(&self) -> Vec<&[Transfer]> {
        let mut out = Vec::new();
        let mut lo = 0;
        for s in 0..self.steps {
            let hi = self.transfers[lo..]
                .iter()
                .position(|t| t.step != s)
                .map(|p| lo + p)
                .unwrap_or(self.transfers.len());
            out.push(&self.transfers[lo..hi]);
            lo = hi;
        }
        out
    }
}

/// Route `packets` (with pre-selected paths) on `g` under the
/// one-send/one-receive-per-node-per-step discipline. Returns `None` if the
/// step limit is exceeded (which, for finite paths, can only happen when the
/// limit is too small — the engine guarantees progress every step).
///
/// Uninstrumented entry point; identical to
/// [`route_recorded`] with a [`NoopRecorder`] (same monomorphization, so
/// instrumentation costs nothing here).
pub fn route(
    g: &Graph,
    packets: &[Packet],
    discipline: Discipline,
    max_steps: u32,
) -> Option<Outcome> {
    route_recorded(g, packets, discipline, max_steps, &mut NoopRecorder)
}

/// [`route`] with instrumentation. Emits, per synchronous round, the number
/// of packets still in flight and the occupancy of every non-empty queue;
/// per run, the hop count of each delivered packet and totals for steps and
/// transfers — all under the `route` span:
///
/// * span `route` — the whole run (closed even on step-limit failure);
/// * histogram `route.packets_in_flight` — undelivered packets, one sample
///   per round;
/// * histogram `route.queue_occupancy` — length of each non-empty queue,
///   sampled every round (counted locally, flushed once per distinct
///   length through [`Recorder::histogram_n`]);
/// * histogram `route.hops` — per delivered packet, `path.len() − 1`;
/// * counters `route.steps`, `route.transfers`, `route.packets`.
///
/// Each node's queue is a max-heap of [`Discipline`] offer keys. A waiting
/// packet's key never changes, so the heap top is the packet the node
/// offers. Each round, every non-empty node offers its top packet to the
/// packet's next hop, and each receiver takes the offer with the most
/// remaining hops, then the lowest packet id. Winners move in ascending
/// receiver order (the order [`crate::plan::extract_plan`] decomposes);
/// every sender pops before any receiver pushes, since a node may do both
/// in one round. A lazy segment (`w[0] == w[1]`) is an offer to the node
/// itself.
pub fn route_recorded<REC: Recorder + ?Sized>(
    g: &Graph,
    packets: &[Packet],
    discipline: Discipline,
    max_steps: u32,
    rec: &mut REC,
) -> Option<Outcome> {
    let n = g.n();
    // Validate paths.
    for p in packets {
        assert!(!p.path.is_empty(), "packet {} has empty path", p.id);
        assert_eq!(p.path[0], p.src);
        assert_eq!(*p.path.last().unwrap(), p.dst);
        for w in p.path.windows(2) {
            assert!(
                w[0] == w[1] || g.has_edge(w[0], w[1]),
                "packet {} path uses non-edge ({}, {})",
                p.id,
                w[0],
                w[1]
            );
        }
    }
    assert!(packets.len() <= u32::MAX as usize, "packet ids must fit in u32");
    // progress[i]: index into packets[i].path of the current position.
    let mut progress = vec![0usize; packets.len()];
    let mut delivered_at = vec![u32::MAX; packets.len()];
    let remaining = |i: usize, progress: &[usize]| packets[i].path.len() - 1 - progress[i];
    // queue[v]: offer keys of the packets stored at v and not yet delivered.
    let mut queue: Vec<BinaryHeap<u64>> = vec![BinaryHeap::new(); n];
    // The nodes whose queue is non-empty (`listed[v]` ⇔ v is in `active`).
    let mut active: Vec<Node> = Vec::new();
    let mut listed = vec![false; n];
    let mut undelivered = 0usize;
    for (i, p) in packets.iter().enumerate() {
        if p.path.len() == 1 {
            delivered_at[i] = 0;
        } else {
            let v = p.src as usize;
            queue[v].push(discipline.offer_key(i as u32, p.path.len() - 1));
            if !listed[v] {
                listed[v] = true;
                active.push(p.src);
            }
            undelivered += 1;
        }
    }
    let mut transfers = Vec::new();
    let mut max_queue = queue.iter().map(BinaryHeap::len).max().unwrap_or(0);
    // best_at_receiver[to] = (remaining, from, packet): the best offer to
    // `to` this round. `offered` is the set of `to`s holding one (a
    // bitset, so it lists them in ascending order), `receivers` that list.
    let mut best_at_receiver: Vec<Option<(usize, Node, u32)>> = vec![None; n];
    let mut offered: Vec<u64> = vec![0; n.div_ceil(64)];
    let mut receivers: Vec<Node> = Vec::new();
    // occupancy[len]: rounds × queues that entered a round holding `len`.
    let mut occupancy: Vec<u64> = Vec::new();

    rec.span_start("route");
    let mut step = 0u32;
    while undelivered > 0 {
        if step >= max_steps {
            flush_counts(rec, "route.queue_occupancy", &occupancy);
            rec.span_end("route");
            return None;
        }
        rec.histogram("route.packets_in_flight", undelivered as u64);
        // Phase 1: each non-empty node offers its top packet. Queue
        // telemetry covers the state *entering* this round, so the
        // initial backlog is sampled too and the histogram max agrees
        // exactly with the Outcome's `max_queue`.
        for &v in &active {
            let qv = &queue[v as usize];
            let len = qv.len();
            tally(&mut occupancy, len);
            rec.sample("route.queue_depth", step as u64, v as u64, len as u64);
            let pid = u32::MAX - *qv.peek().expect("active queues are non-empty") as u32;
            let i = pid as usize;
            let next = packets[i].path[progress[i] + 1];
            let prio = remaining(i, &progress);
            let slot = &mut best_at_receiver[next as usize];
            match slot {
                None => {
                    offered[next as usize / 64] |= 1 << (next % 64);
                    *slot = Some((prio, v, pid));
                }
                Some((p, _, old_pid)) => {
                    if prio > *p || (prio == *p && pid < *old_pid) {
                        *slot = Some((prio, v, pid));
                    }
                }
            }
        }
        // Phase 2: winners move, in receiver order. A winner is its
        // sender's heap top; pop them all before pushing any.
        for (w, word) in offered.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                receivers.push((w * 64) as Node + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
        debug_assert!(!receivers.is_empty(), "engine must make progress every step");
        for &to in &receivers {
            let (_, from, _) = best_at_receiver[to as usize].expect("receivers hold an offer");
            queue[from as usize].pop();
        }
        for &to in &receivers {
            let (_, from, pid) = best_at_receiver[to as usize].take().expect("offer");
            let i = pid as usize;
            progress[i] += 1;
            transfers.push(Transfer { step, from, to, packet_id: pid });
            rec.sample("route.edge_util", step as u64, edge_key(from, to), 1);
            let left = remaining(i, &progress);
            if left == 0 {
                delivered_at[i] = step + 1;
                undelivered -= 1;
            } else {
                let q = &mut queue[to as usize];
                q.push(discipline.offer_key(pid, left));
                max_queue = max_queue.max(q.len());
                if !listed[to as usize] {
                    listed[to as usize] = true;
                    active.push(to);
                }
            }
        }
        receivers.clear();
        active.retain(|&v| {
            let keep = !queue[v as usize].is_empty();
            listed[v as usize] = keep;
            keep
        });
        step += 1;
    }
    flush_counts(rec, "route.queue_occupancy", &occupancy);
    rec.span_end("route");
    let mut hops: Vec<u64> = Vec::new();
    for p in packets {
        tally(&mut hops, p.path.len() - 1);
    }
    flush_counts(rec, "route.hops", &hops);
    rec.counter("route.steps", step as u64);
    rec.counter("route.transfers", transfers.len() as u64);
    rec.counter("route.packets", packets.len() as u64);
    Some(Outcome { steps: step, delivered_at, transfers, max_queue })
}

/// Count one more sample of `value` in `counts` (indexed by value).
fn tally(counts: &mut Vec<u64>, value: usize) {
    if counts.len() <= value {
        counts.resize(value + 1, 0);
    }
    counts[value] += 1;
}

/// Record `counts[value]` samples of each `value` into histogram `name`,
/// one [`Recorder::histogram_n`] call per value seen.
fn flush_counts<REC: Recorder + ?Sized>(rec: &mut REC, name: &'static str, counts: &[u64]) {
    for (value, &k) in counts.iter().enumerate() {
        if k > 0 {
            rec.histogram_n(name, value as u64, k);
        }
    }
}

/// Build packets from `(src, dst)` pairs using a path selector (through
/// [`PathSelector::paths`]). Fails with the selector's [`RouteError`] on
/// the first pair it cannot connect.
pub fn make_packets<S: PathSelector, R: Rng>(
    g: &Graph,
    pairs: &[(Node, Node)],
    selector: &S,
    rng: &mut R,
) -> Result<Vec<Packet>, RouteError> {
    let paths = selector.paths(g, pairs, rng)?;
    Ok(pairs
        .iter()
        .zip(paths)
        .enumerate()
        .map(|(i, (&(src, dst), path))| Packet { id: i as u32, src, dst, path })
        .collect())
}

/// Convenience: route `(src, dst)` pairs with BFS paths and default
/// discipline. Returns [`RouteError::Unreachable`] on a partitioned host;
/// panics only on step-limit overflow (limit = generous bound, so never for
/// valid inputs).
pub fn route_simple(g: &Graph, pairs: &[(Node, Node)]) -> Result<Outcome, RouteError> {
    let mut rng = unet_topology::util::seeded_rng(0);
    let packets = make_packets(g, pairs, &ShortestPath, &mut rng)?;
    Ok(route(g, &packets, Discipline::FarthestFirst, generous_step_limit(&packets))
        .expect("generous limit"))
}

/// A step limit no valid run can exceed: sum of path lengths (each step
/// moves ≥ 1 packet forward) plus slack. Accumulated in u64 and saturated
/// so huge problem sets can't wrap u32 into a spuriously small limit.
pub fn generous_step_limit(packets: &[Packet]) -> u32 {
    step_limit_for_lengths(packets.iter().map(|p| p.path.len()))
}

fn step_limit_for_lengths(lens: impl Iterator<Item = usize>) -> u32 {
    let total: u64 = lens.map(|l| l as u64 + 1).sum();
    u32::try_from(total.saturating_add(64)).unwrap_or(u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use unet_obs::InMemoryRecorder;
    use unet_topology::generators::{mesh, path, ring, torus};
    use unet_topology::GraphBuilder;

    /// Reference for [`bfs_paths`]: the per-pair BFS `ShortestPath` ran
    /// before, a fresh search from `src` that stops when `dst` is found.
    fn bfs_path(g: &Graph, src: Node, dst: Node) -> Option<Vec<Node>> {
        if src == dst {
            return Some(vec![src]);
        }
        let mut prev = vec![u32::MAX; g.n()];
        let mut queue = std::collections::VecDeque::new();
        prev[src as usize] = src;
        queue.push_back(src);
        while let Some(v) = queue.pop_front() {
            for &w in g.neighbors(v) {
                if prev[w as usize] == u32::MAX {
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

    /// Reference for [`route_recorded`]: the engine before heap-ordered
    /// queues. Every round it scans all `n` queues, picks each offer by a
    /// linear scan, finds the winner in its queue by position and records
    /// one histogram sample per non-empty queue.
    fn route_recorded_reference<REC: Recorder + ?Sized>(
        g: &Graph,
        packets: &[Packet],
        discipline: Discipline,
        max_steps: u32,
        rec: &mut REC,
    ) -> Option<Outcome> {
        let n = g.n();
        let mut progress: Vec<usize> = packets.iter().map(|_| 0usize).collect();
        let mut delivered_at = vec![u32::MAX; packets.len()];
        let mut queue: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut undelivered = 0usize;
        for (i, p) in packets.iter().enumerate() {
            if p.path.len() == 1 {
                delivered_at[i] = 0;
            } else {
                queue[p.src as usize].push(i as u32);
                undelivered += 1;
            }
        }
        let mut transfers = Vec::new();
        let mut max_queue = queue.iter().map(|q| q.len()).max().unwrap_or(0);
        let remaining =
            |i: u32, progress: &[usize]| packets[i as usize].path.len() - 1 - progress[i as usize];

        rec.span_start("route");
        let mut step = 0u32;
        while undelivered > 0 {
            if step >= max_steps {
                rec.span_end("route");
                return None;
            }
            rec.histogram("route.packets_in_flight", undelivered as u64);
            for (v, q) in queue.iter().enumerate() {
                if !q.is_empty() {
                    rec.histogram("route.queue_occupancy", q.len() as u64);
                    rec.sample("route.queue_depth", step as u64, v as u64, q.len() as u64);
                }
            }
            let mut best_at_receiver: Vec<Option<(usize, Node, u32)>> = vec![None; n];
            for (v, qv) in queue.iter().enumerate() {
                if qv.is_empty() {
                    continue;
                }
                let &pid = match discipline {
                    Discipline::FarthestFirst => qv
                        .iter()
                        .max_by_key(|&&i| (remaining(i, &progress), std::cmp::Reverse(i)))
                        .unwrap(),
                    Discipline::Fifo => qv.iter().min().unwrap(),
                };
                let next = packets[pid as usize].path[progress[pid as usize] + 1];
                let prio = remaining(pid, &progress);
                let slot = &mut best_at_receiver[next as usize];
                let better = match slot {
                    None => true,
                    Some((p, _, old_pid)) => prio > *p || (prio == *p && pid < *old_pid),
                };
                if better {
                    *slot = Some((prio, v as Node, pid));
                }
            }
            for to in 0..n {
                if let Some((_, from, pid)) = best_at_receiver[to] {
                    let q = &mut queue[from as usize];
                    let pos = q.iter().position(|&x| x == pid).unwrap();
                    q.swap_remove(pos);
                    progress[pid as usize] += 1;
                    transfers.push(Transfer { step, from, to: to as Node, packet_id: pid });
                    rec.sample("route.edge_util", step as u64, edge_key(from, to as Node), 1);
                    if progress[pid as usize] + 1 == packets[pid as usize].path.len() {
                        delivered_at[pid as usize] = step + 1;
                        undelivered -= 1;
                    } else {
                        queue[to].push(pid);
                    }
                }
            }
            max_queue = max_queue.max(queue.iter().map(|q| q.len()).max().unwrap_or(0));
            step += 1;
        }
        rec.span_end("route");
        for p in packets {
            rec.histogram("route.hops", (p.path.len() - 1) as u64);
        }
        rec.counter("route.steps", step as u64);
        rec.counter("route.transfers", transfers.len() as u64);
        rec.counter("route.packets", packets.len() as u64);
        Some(Outcome { steps: step, delivered_at, transfers, max_queue })
    }

    /// A random graph on `n` nodes with `edges` random edges, optionally
    /// threaded by a ring so it is connected.
    fn random_graph(rng: &mut impl Rng, n: usize, edges: usize, connected: bool) -> Graph {
        let mut b = GraphBuilder::new(n);
        if connected && n > 1 {
            for v in 0..n {
                let w = (v + 1) % n;
                if v != w {
                    b.add_edge(v as Node, w as Node);
                }
            }
        }
        for _ in 0..edges {
            let (u, v) = (rng.gen_range(0..n) as Node, rng.gen_range(0..n) as Node);
            if u != v {
                b.add_edge(u, v);
            }
        }
        b.build()
    }

    /// Every counter, histogram, sample series and span count a recorder
    /// holds (span durations are timings and may differ).
    #[allow(clippy::type_complexity)]
    fn records(
        rec: &InMemoryRecorder,
    ) -> (
        Vec<(&'static str, u64)>,
        Vec<(&'static str, unet_obs::Histogram)>,
        Vec<(&'static str, std::collections::BTreeMap<(u64, u64), u64>)>,
        Vec<(&'static str, u64)>,
    ) {
        (
            rec.counters().collect(),
            rec.histograms().map(|(k, h)| (k, h.clone())).collect(),
            rec.samples().map(|(k, m)| (k, m.clone())).collect(),
            rec.span_totals().map(|(k, _, count)| (k, count)).collect(),
        )
    }

    #[test]
    fn bfs_path_endpoints_and_length() {
        let g = mesh(4, 4);
        let paths = bfs_paths(&g, &[(0, 15), (3, 3), (0, 15)]).unwrap();
        let p = &paths[0];
        assert_eq!(p[0], 0);
        assert_eq!(*p.last().unwrap(), 15);
        assert_eq!(p.len(), 7); // distance 6
        assert_eq!(Some(p.clone()), bfs_path(&g, 0, 15));
        assert_eq!(paths[1], vec![3]);
        assert_eq!(paths[2], paths[0], "a repeated pair gets the same path");
    }

    #[test]
    fn bfs_path_disconnected_none() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        let g = b.build();
        assert!(bfs_path(&g, 0, 3).is_none());
        // The first unreachable pair in input order is the error, even
        // when a lower source fails later in the list.
        assert_eq!(
            bfs_paths(&g, &[(0, 1), (2, 3), (0, 3)]),
            Err(RouteError::Unreachable { src: 2, dst: 3 })
        );
        assert_eq!(
            ShortestPath.path(&g, 1, 3, &mut unet_topology::util::seeded_rng(0)),
            Err(RouteError::Unreachable { src: 1, dst: 3 })
        );
    }

    #[test]
    fn partitioned_host_yields_typed_error() {
        // Two components: {0,1} and {2,3}. Routing across them must surface
        // RouteError::Unreachable, not panic.
        let mut b = unet_topology::GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(2, 3);
        let g = b.build();
        assert!(matches!(
            route_simple(&g, &[(0, 3)]),
            Err(RouteError::Unreachable { src: 0, dst: 3 })
        ));
        // Pairs within one component still route fine.
        let ok = route_simple(&g, &[(0, 1), (3, 2)]).unwrap();
        assert!(ok.delivered_at.iter().all(|&d| d != u32::MAX));
        // The error is displayable (typed, not a panic string).
        let msg = RouteError::Unreachable { src: 0, dst: 3 }.to_string();
        assert!(msg.contains("partitioned"));
    }

    #[test]
    fn single_packet_travels_path_length() {
        let g = path(5);
        let out = route_simple(&g, &[(0, 4)]).unwrap();
        assert_eq!(out.steps, 4);
        assert_eq!(out.delivered_at, vec![4]);
        assert_eq!(out.transfers.len(), 4);
    }

    #[test]
    fn self_packet_is_free() {
        let g = path(3);
        let out = route_simple(&g, &[(1, 1)]).unwrap();
        assert_eq!(out.steps, 0);
        assert_eq!(out.delivered_at, vec![0]);
    }

    #[test]
    fn contention_serializes_receives() {
        // Two packets into the same destination on a star-free path graph:
        // 0→1 and 2→1 can both deliver only one per step.
        let g = path(3);
        let out = route_simple(&g, &[(0, 1), (2, 1)]).unwrap();
        assert_eq!(out.steps, 2);
        let mut d = out.delivered_at.clone();
        d.sort_unstable();
        assert_eq!(d, vec![1, 2]);
    }

    #[test]
    fn transfers_respect_port_model() {
        // No node sends twice or receives twice in the same step.
        let g = torus(4, 4);
        let pairs: Vec<(Node, Node)> =
            (0..16).map(|i| (i as Node, ((i * 7 + 3) % 16) as Node)).collect();
        let out = route_simple(&g, &pairs).unwrap();
        for step_transfers in out.transfers_by_step() {
            let mut senders = std::collections::HashSet::new();
            let mut receivers = std::collections::HashSet::new();
            for t in step_transfers {
                assert!(senders.insert(t.from), "double send at step {}", t.step);
                assert!(receivers.insert(t.to), "double recv at step {}", t.step);
                assert!(g.has_edge(t.from, t.to));
            }
        }
    }

    #[test]
    fn all_packets_delivered_random_problem() {
        use rand::Rng;
        let g = torus(6, 6);
        let mut rng = unet_topology::util::seeded_rng(3);
        let pairs: Vec<(Node, Node)> =
            (0..72).map(|_| (rng.gen_range(0..36), rng.gen_range(0..36))).collect();
        let out = route_simple(&g, &pairs).unwrap();
        assert!(out.delivered_at.iter().all(|&d| d != u32::MAX));
        assert!(out.steps > 0);
        assert!(out.max_queue >= 1);
    }

    #[test]
    fn fifo_discipline_also_delivers() {
        let g = ring(8);
        let pairs: Vec<(Node, Node)> = (0..8).map(|i| (i as Node, ((i + 4) % 8) as Node)).collect();
        let mut rng = unet_topology::util::seeded_rng(0);
        let packets = make_packets(&g, &pairs, &ShortestPath, &mut rng).unwrap();
        let out = route(&g, &packets, Discipline::Fifo, 1000).unwrap();
        assert!(out.delivered_at.iter().all(|&d| d != u32::MAX));
    }

    #[test]
    fn step_limit_enforced() {
        let g = path(5);
        let mut rng = unet_topology::util::seeded_rng(0);
        let packets = make_packets(&g, &[(0, 4)], &ShortestPath, &mut rng).unwrap();
        assert!(route(&g, &packets, Discipline::Fifo, 2).is_none());
    }

    #[test]
    #[should_panic(expected = "non-edge")]
    fn invalid_path_rejected() {
        let g = path(4); // 0-1-2-3
        let pkt = Packet { id: 0, src: 0, dst: 3, path: vec![0, 3] };
        route(&g, &[pkt], Discipline::Fifo, 10);
    }

    #[test]
    fn recorded_route_matches_and_balances() {
        use unet_obs::InMemoryRecorder;
        let g = torus(4, 4);
        let pairs: Vec<(Node, Node)> =
            (0..16).map(|i| (i as Node, ((i * 5 + 1) % 16) as Node)).collect();
        let mut rng = unet_topology::util::seeded_rng(0);
        let packets = make_packets(&g, &pairs, &ShortestPath, &mut rng).unwrap();
        let plain = route(&g, &packets, Discipline::FarthestFirst, 1000).unwrap();
        let mut rec = InMemoryRecorder::new();
        let recorded =
            route_recorded(&g, &packets, Discipline::FarthestFirst, 1000, &mut rec).unwrap();
        // Instrumentation must not change the outcome.
        assert_eq!(plain.steps, recorded.steps);
        assert_eq!(plain.delivered_at, recorded.delivered_at);
        assert_eq!(plain.transfers, recorded.transfers);
        // Spans balanced; metrics consistent with the outcome.
        assert!(rec.open_spans().is_empty());
        assert_eq!(rec.counter_value("route.steps"), recorded.steps as u64);
        assert_eq!(rec.counter_value("route.transfers"), recorded.transfers.len() as u64);
        assert_eq!(rec.counter_value("route.packets"), packets.len() as u64);
        let hops = rec.histogram_data("route.hops").unwrap();
        assert_eq!(hops.count, packets.len() as u64);
        let flight = rec.histogram_data("route.packets_in_flight").unwrap();
        assert_eq!(flight.count, recorded.steps as u64); // one sample per round
        let occ = rec.histogram_data("route.queue_occupancy").unwrap();
        assert!(occ.max as usize <= recorded.max_queue);
    }

    #[test]
    fn recorded_route_step_limit_failure_closes_span() {
        use unet_obs::InMemoryRecorder;
        let g = path(5);
        let mut rng = unet_topology::util::seeded_rng(0);
        let packets = make_packets(&g, &[(0, 4)], &ShortestPath, &mut rng).unwrap();
        let mut rec = InMemoryRecorder::new();
        assert!(route_recorded(&g, &packets, Discipline::Fifo, 2, &mut rec).is_none());
        assert!(rec.open_spans().is_empty(), "span must close on failure too");
    }

    #[test]
    fn generous_step_limit_saturates() {
        // Path lengths whose u32 sum would wrap; the limit must saturate to
        // u32::MAX instead of wrapping into a tiny bound.
        let huge = u32::MAX as usize / 2;
        assert_eq!(step_limit_for_lengths([huge, huge, huge].into_iter()), u32::MAX);
        // Small problems keep a tight limit.
        assert_eq!(step_limit_for_lengths([4usize, 4].into_iter()), 74);
    }

    #[test]
    fn lazy_path_segments_allowed() {
        // Paths may contain stationary repeats (used by offline schedules).
        let g = path(3);
        let pkt = Packet { id: 0, src: 0, dst: 2, path: vec![0, 0, 1, 2] };
        let out = route(&g, &[pkt], Discipline::Fifo, 10);
        // A stationary "hop" is a send-to-self, which the engine treats as a
        // real transfer to the same node — disallowed by has_edge, so the
        // path validation accepts (w[0] == w[1]) but the move is to itself…
        // it must still deliver.
        let out = out.expect("delivers");
        assert!(out.delivered_at[0] != u32::MAX);
    }

    #[test]
    fn self_pairs_record_no_queue_occupancy() {
        // Queues that are never non-empty leave no empty histogram behind.
        let g = path(3);
        let mut rec = InMemoryRecorder::new();
        let mut rng = unet_topology::util::seeded_rng(0);
        let packets = make_packets(&g, &[(0, 0), (2, 2), (1, 1)], &ShortestPath, &mut rng).unwrap();
        let out = route_recorded(&g, &packets, Discipline::FarthestFirst, 10, &mut rec).unwrap();
        assert_eq!(out.steps, 0);
        assert!(rec.histogram_data("route.queue_occupancy").is_none());
        assert!(rec.histogram_data("route.packets_in_flight").is_none());
        assert_eq!(rec.histogram_data("route.hops").map(|h| (h.count, h.max)), Some((3, 0)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// `bfs_paths` returns per-pair `bfs_path`'s paths, in input order,
        /// on random graphs that may be disconnected, with self pairs and
        /// repeated pairs; on failure it names the same first pair.
        #[test]
        fn bfs_paths_equal_per_pair_bfs(
            seed in any::<u64>(),
            n in 1usize..20,
            edges in 0usize..40,
            connected in any::<bool>(),
            count in 0usize..40,
        ) {
            let mut rng = unet_topology::util::seeded_rng(seed);
            let g = random_graph(&mut rng, n, edges, connected);
            let mut pairs: Vec<(Node, Node)> = Vec::new();
            for _ in 0..count {
                let pair = match rng.gen_range(0..4) {
                    0 if !pairs.is_empty() => pairs[rng.gen_range(0..pairs.len())],
                    1 => {
                        let v = rng.gen_range(0..n) as Node;
                        (v, v)
                    }
                    _ => (rng.gen_range(0..n) as Node, rng.gen_range(0..n) as Node),
                };
                pairs.push(pair);
            }
            let reference: Result<Vec<Vec<Node>>, RouteError> = pairs
                .iter()
                .map(|&(src, dst)| bfs_path(&g, src, dst).ok_or(RouteError::Unreachable { src, dst }))
                .collect();
            prop_assert_eq!(bfs_paths(&g, &pairs), reference.clone());
            let mut rng = unet_topology::util::seeded_rng(0);
            prop_assert_eq!(ShortestPath.paths(&g, &pairs, &mut rng), reference);
        }

        /// The heap-ordered engine equals the scanning reference under both
        /// disciplines, with lazy (`w[0] == w[1]`) segments, and on the
        /// step-limit failure path: the same `Outcome` and the same
        /// counters, histograms, sample series and span counts.
        #[test]
        fn heap_engine_equals_reference(
            seed in any::<u64>(),
            n in 2usize..24,
            edges in 0usize..30,
            count in 0usize..60,
            fifo in any::<bool>(),
            lazy in 0u32..3,
            limit in 0u32..4,
        ) {
            let mut rng = unet_topology::util::seeded_rng(seed);
            let g = random_graph(&mut rng, n, edges, true);
            let pairs: Vec<(Node, Node)> = (0..count)
                .map(|_| (rng.gen_range(0..n) as Node, rng.gen_range(0..n) as Node))
                .collect();
            let mut packets = make_packets(&g, &pairs, &ShortestPath, &mut rng).unwrap();
            for p in &mut packets {
                // Stay put on some hops: a lazy segment repeats a node.
                for _ in 0..lazy {
                    let at = rng.gen_range(0..p.path.len());
                    p.path.insert(at, p.path[at]);
                }
            }
            let discipline = if fifo { Discipline::Fifo } else { Discipline::FarthestFirst };
            let generous = generous_step_limit(&packets);
            let steps = route(&g, &packets, discipline, generous).expect("generous limit").steps;
            // Generous, exactly enough, one short (fails) or anything up to
            // enough (usually fails).
            let max_steps = match limit {
                0 => generous,
                1 => steps,
                2 => steps.saturating_sub(1),
                _ => rng.gen_range(0..=steps),
            };
            let mut heap_rec = InMemoryRecorder::new();
            let mut scan_rec = InMemoryRecorder::new();
            let heap = route_recorded(&g, &packets, discipline, max_steps, &mut heap_rec);
            let scan = route_recorded_reference(&g, &packets, discipline, max_steps, &mut scan_rec);
            prop_assert_eq!(&heap, &scan);
            prop_assert_eq!(records(&heap_rec), records(&scan_rec));
            prop_assert!(heap_rec.open_spans().is_empty());
            // Behind the `dyn Recorder` boundary the router crosses, too.
            let mut dyn_rec = InMemoryRecorder::new();
            let via_dyn =
                route_recorded(&g, &packets, discipline, max_steps, &mut (&mut dyn_rec as &mut dyn Recorder));
            prop_assert_eq!(&via_dyn, &scan);
            prop_assert_eq!(records(&dyn_rec), records(&scan_rec));
        }
    }
}
