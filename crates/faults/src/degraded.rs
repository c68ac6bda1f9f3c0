//! Degraded-mode universal simulation: the Theorem 2.1 engine surviving
//! crash-stop host faults.
//!
//! The healthy [`Simulation`](unet_core::Simulation) engine fixes a
//! static embedding and alternates communication and computation phases.
//! This simulator runs the same phases against a [`FaultyView`], applying
//! fault events at guest-step boundaries:
//!
//! * **Re-embedding** — when a host crashes, its guest processors remap to
//!   the nearest live host (BFS over the base graph, deterministic
//!   tie-break), so every guest always has a live home.
//! * **Pebble replay** — a crashed host's custody is gone, so before a guest
//!   step runs, every required predecessor pebble `(u, t−1)` is either
//!   *shipped* from the nearest surviving holder (the paper's `Q_S(i,t)`
//!   representative machinery makes "who still holds a copy" precise) or,
//!   when no live holder is reachable, *regenerated* recursively from its
//!   own predecessors — bottoming out at the universally-held level-0
//!   pebbles. Pebbles are never destroyed in the game, only custody at dead
//!   hosts becomes unusable; regeneration is therefore always possible, so
//!   the simulation survives any fault pattern that leaves at least one
//!   host alive.
//!
//! The emitted protocol is an ordinary pebble protocol over the **full**
//! host graph (dead hosts simply go idle forever), so `unet_pebble::check`
//! certifies the degraded run end-to-end and the final configurations can
//! be compared bit-for-bit against direct guest execution.

use crate::plan::FaultPlan;
use crate::route::route_faulty_recorded;
use crate::view::{AppliedFault, FaultyView};
use rand::Rng;
use unet_core::embedding::Embedding;
use unet_core::guest::GuestComputation;
use unet_core::simulate::{advance_states, replay_plan, SimulationRun};
use unet_obs::trace::{FaultOp, FaultRecord};
use unet_obs::Recorder;
use unet_pebble::protocol::{Op, Pebble, ProtocolBuilder};
use unet_routing::packet::{Discipline, PathSelector, ShortestPath};
use unet_routing::plan::{extract_plan, RoutePlan};
use unet_topology::par::default_threads;
use unet_topology::util::{seeded_rng, FxHashSet};
use unet_topology::{Graph, Node};

/// Why a degraded simulation could not continue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradedError {
    /// Every host is dead at the given boundary — nobody left to simulate.
    AllHostsDead {
        /// The boundary at which the last host died.
        at: u32,
    },
}

impl std::fmt::Display for DegradedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradedError::AllHostsDead { at } => {
                write!(f, "all hosts dead at boundary {at}: nothing left to simulate on")
            }
        }
    }
}

impl std::error::Error for DegradedError {}

/// Result of a degraded run: the ordinary [`SimulationRun`] plus the fault
/// story around it.
#[derive(Debug, Clone)]
pub struct DegradedRun {
    /// The certified-protocol run (check it, verify it, measure it — same
    /// as a healthy run).
    pub run: SimulationRun,
    /// Every fault event that fired, in application order, ready for
    /// `unet-trace/1` export.
    pub fault_log: Vec<FaultRecord>,
    /// `(host, protocol step)` per crashed host: from that step on the host
    /// emits only [`Op::Idle`].
    pub dead_at: Vec<(Node, u32)>,
    /// Guests re-embedded after their host crashed.
    pub remapped: u64,
    /// Pebbles regenerated from predecessors (no live holder reachable).
    pub replayed: u64,
    /// Pebble-carrying packets delivered by fault-aware routing.
    pub delivered: u64,
    /// Routing requests dropped (partitioned or holder lost) and satisfied
    /// by regeneration instead.
    pub dropped: u64,
    /// Packets rerouted after a canonical path died.
    pub retried: u64,
    /// Hosts still alive at the end (`m'`).
    pub m_surviving: usize,
}

impl DegradedRun {
    /// Inefficiency measured against the *surviving* size:
    /// `k' = s · m' / n` — the quantity experiment E16 compares against the
    /// Theorem 3.1 bound on `m'`.
    pub fn surviving_inefficiency(&self) -> f64 {
        self.run.slowdown() * self.m_surviving as f64 / self.run.protocol.guest_n as f64
    }
}

/// Execution knobs for [`DegradedSimulator::simulate_tuned`].
#[derive(Debug, Clone, Copy)]
pub struct DegradedTuning {
    /// Worker threads for the host-side state computation.
    pub threads: usize,
    /// Whether to cache the route plan across steps (invalidated whenever
    /// the [`FaultyView`] epoch moves, and re-validated against the exact
    /// pair set because holder drift can reshape the problem even between
    /// faults).
    pub cache: bool,
}

impl Default for DegradedTuning {
    fn default() -> Self {
        DegradedTuning { threads: default_threads(), cache: true }
    }
}

/// One routed communication phase: the pair set it is valid for, the
/// replayable rounds (over routed-packet indices), and the bookkeeping the
/// routing pass produced.
struct CachedDegradedComm {
    pairs: Vec<(Node, Node)>,
    plan: RoutePlan,
    /// Routed packet index → pair index (payload lookup at replay time).
    routed: Vec<usize>,
    delivered: u64,
    retried: u64,
    dropped_pairs: Vec<usize>,
}

/// The degraded-mode simulator.
///
/// `selector` is the canonical path strategy of the healthy host (e.g.
/// greedy bit-fixing on a butterfly); `None` routes by BFS over the live
/// view directly. Fault times in `plan` are guest-step boundaries.
pub struct DegradedSimulator<S: PathSelector = ShortestPath> {
    /// Initial guest→host placement (re-embedded as hosts die).
    pub embedding: Embedding,
    /// The fault script.
    pub plan: FaultPlan,
    /// Canonical path selector to try before the BFS fallback.
    pub selector: Option<S>,
}

impl<S: PathSelector> DegradedSimulator<S> {
    /// Simulate `steps` guest steps of `comp` on `host` under the plan,
    /// with route-plan caching (invalidated on every [`FaultyView`] epoch
    /// change, so fresh faults always reroute) and a parallel
    /// state-computation phase.
    ///
    /// Records the healthy engine's `sim.comm` / `sim.compute` spans and
    /// `sim.*` counters, plus the `faults.route.*` counters from
    /// fault-aware routing and `faults.replayed` / `faults.remapped`
    /// totals.
    ///
    /// Output is **bit-for-bit identical** across all tunings for a given
    /// seed: like `Simulation::builder()`, this draws one route seed from
    /// `rng` up front and reseeds the router each phase, so cached and
    /// uncached runs see the same schedules.
    ///
    /// # Panics
    /// Panics if sizes disagree or the plan targets elements outside `host`.
    pub fn simulate_tuned<R: Rng, REC: Recorder>(
        &self,
        comp: &GuestComputation,
        host: &Graph,
        steps: u32,
        tuning: &DegradedTuning,
        rng: &mut R,
        rec: &mut REC,
    ) -> Result<DegradedRun, DegradedError> {
        let route_seed: u64 = rng.gen();
        let threads = tuning.threads.max(1);
        let n = comp.n();
        let m = host.n();
        assert_eq!(self.embedding.n(), n, "embedding covers every guest");
        assert_eq!(self.embedding.m, m, "embedding targets this host");
        assert!(steps >= 1, "simulate at least one guest step");

        let mut view = FaultyView::new(host, &self.plan);
        let mut f: Vec<Node> = self.embedding.f.clone();
        // held[q]: pebble keys at host q (t ≥ 1; level 0 is universal).
        // Cleared on crash: the checker's custody is monotone, but a dead
        // host can never *use* custody again, so forgetting it is the
        // conservative model of crash-stop.
        let mut held: Vec<FxHashSet<u64>> = vec![FxHashSet::default(); m];
        let mut builder = ProtocolBuilder::new(n, steps, m);

        let mut st = Stats::default();
        let mut fault_log: Vec<FaultRecord> = Vec::new();
        let mut dead_at: Vec<(Node, u32)> = Vec::new();
        // The route plan held across guest steps, tagged with its epoch.
        let mut held_plan: Option<(u64, CachedDegradedComm)> = None;
        let (mut hits, mut misses) = (0u64, 0u64);

        let mut prev_states: Vec<u64> = comp.init.clone();

        for gt in 1..=steps {
            // ---- Fault boundary ------------------------------------------
            for a in view.advance_to(gt) {
                fault_log.push(fault_record(&a));
                if let AppliedFault::NodeDown { node, .. } = a {
                    held[node as usize].clear();
                    dead_at.push((node, st.total_steps));
                }
            }
            if view.m_surviving() == 0 {
                return Err(DegradedError::AllHostsDead { at: gt });
            }
            // ---- Re-embedding --------------------------------------------
            for (v, home) in f.iter_mut().enumerate() {
                if !view.is_node_up(*home) {
                    let target = nearest_live(&view, *home);
                    *home = target;
                    st.remapped += 1;
                    fault_log.push(FaultRecord {
                        at: gt as u64,
                        op: FaultOp::Remap,
                        kind: "guest".into(),
                        subject: format!("guest:{v}->host:{target}"),
                    });
                }
            }
            // ---- Communication + replay phase ----------------------------
            rec.span_start("sim.comm");
            if gt > 1 {
                // Every pebble a guest's generation will need, not yet held
                // by its (possibly new) home host.
                let mut seen: FxHashSet<(Node, u64)> = FxHashSet::default();
                let mut pairs: Vec<(Node, Node)> = Vec::new();
                let mut payloads: Vec<Pebble> = Vec::new();
                let mut replay: Vec<(Node, Pebble)> = Vec::new();
                for v in 0..n as Node {
                    let h = f[v as usize];
                    for p in closed_preds(comp, v, gt) {
                        if !held[h as usize].contains(&p.key()) && seen.insert((h, p.key())) {
                            match nearest_holder(&view, &held, h, p) {
                                Some(src) => {
                                    pairs.push((src, h));
                                    payloads.push(p);
                                }
                                None => replay.push((h, p)),
                            }
                        }
                    }
                }
                rec.histogram("sim.routing_problem_size", pairs.len() as u64);
                if !pairs.is_empty() {
                    // The held schedule is valid only if no fault fired
                    // since it was computed (same view epoch) AND the
                    // induced problem is literally the same pairs — holder
                    // custody drifts as pebbles ship, so the epoch alone is
                    // not sufficient in degraded mode.
                    let epoch = view.epoch();
                    let valid =
                        matches!(&held_plan, Some((e, c)) if *e == epoch && c.pairs == pairs);
                    if tuning.cache && valid {
                        hits += 1;
                    } else {
                        if tuning.cache {
                            misses += 1;
                        }
                        let fo = route_faulty_recorded(
                            &view,
                            &pairs,
                            self.selector.as_ref(),
                            Discipline::FarthestFirst,
                            &mut seeded_rng(route_seed),
                            &mut *rec,
                        );
                        let plan = fo.outcome.as_ref().map(|out| extract_plan(&out.transfers));
                        let comm = CachedDegradedComm {
                            pairs,
                            plan: plan.unwrap_or_default(),
                            routed: fo.routed,
                            delivered: fo.delivered,
                            retried: fo.retried,
                            dropped_pairs: fo.dropped_pairs,
                        };
                        held_plan = Some((epoch, comm));
                    }
                    let (_, c) = held_plan.as_ref().expect("held or just built");
                    st.delivered += c.delivered;
                    st.retried += c.retried;
                    let routed_payloads: Vec<Pebble> =
                        c.routed.iter().map(|&i| payloads[i]).collect();
                    let emitted = replay_plan(&mut builder, &c.plan, &routed_payloads);
                    st.comm_steps += emitted;
                    st.total_steps += emitted as u32;
                    // Self-transfers (dropped from the plan) never reach a
                    // node that doesn't already hold the pebble — the source
                    // holds it and every later stop was reached by a real
                    // hop — so custody moves along the plan rounds.
                    for round in c.plan.rounds() {
                        for &(_, to, pid) in round {
                            held[to as usize].insert(routed_payloads[pid as usize].key());
                        }
                    }
                    // A planned source can still fail to route (defensive —
                    // planning and routing see the same static view, so this
                    // is unreachable today): regenerate instead.
                    for &i in &c.dropped_pairs {
                        st.dropped += 1;
                        replay.push((c.pairs[i].1, payloads[i]));
                    }
                }
                for (h, p) in replay {
                    ensure_pebble(comp, &view, &mut held, &mut builder, h, p, &mut st);
                }
            } else {
                rec.histogram("sim.routing_problem_size", 0);
            }
            rec.span_end("sim.comm");
            // ---- Computation phase ---------------------------------------
            rec.span_start("sim.compute");
            let mut guests_by_host: Vec<Vec<Node>> = vec![Vec::new(); m];
            for (v, &q) in f.iter().enumerate() {
                guests_by_host[q as usize].push(v as Node);
            }
            let load = guests_by_host.iter().map(Vec::len).max().unwrap_or(0);
            for round in 0..load {
                for (q, guests) in guests_by_host.iter().enumerate() {
                    if let Some(&v) = guests.get(round) {
                        let p = Pebble::new(v, gt);
                        builder.set_op(q as Node, Op::Generate(p));
                        held[q].insert(p.key());
                    }
                }
                builder.end_step();
                st.compute_steps += 1;
                st.total_steps += 1;
            }
            // ---- Host-side state computation -----------------------------
            prev_states = advance_states(comp, &prev_states, threads);
            rec.span_end("sim.compute");
        }

        rec.counter("sim.guest_steps", steps as u64);
        rec.counter("sim.comm_steps", st.comm_steps as u64);
        rec.counter("sim.compute_steps", st.compute_steps as u64);
        rec.counter("sim.cache.hits", hits);
        rec.counter("sim.cache.misses", misses);
        rec.gauge("sim.par.threads", threads as f64);
        rec.counter("faults.remapped", st.remapped);
        rec.counter("faults.replayed", st.replayed);

        Ok(DegradedRun {
            run: SimulationRun {
                protocol: builder.finish(),
                final_states: prev_states,
                comm_steps: st.comm_steps,
                compute_steps: st.compute_steps,
            },
            fault_log,
            dead_at,
            remapped: st.remapped,
            replayed: st.replayed,
            delivered: st.delivered,
            dropped: st.dropped,
            retried: st.retried,
            m_surviving: view.m_surviving(),
        })
    }
}

/// Running totals threaded through the phases.
#[derive(Default)]
struct Stats {
    comm_steps: usize,
    compute_steps: usize,
    total_steps: u32,
    remapped: u64,
    replayed: u64,
    delivered: u64,
    dropped: u64,
    retried: u64,
}

fn fault_record(a: &AppliedFault) -> FaultRecord {
    match *a {
        AppliedFault::NodeDown { at, node } => FaultRecord {
            at: at as u64,
            op: FaultOp::Inject,
            kind: "crash".into(),
            subject: format!("node:{node}"),
        },
        AppliedFault::LinkDown { at, u, v, transient } => FaultRecord {
            at: at as u64,
            op: FaultOp::Inject,
            kind: if transient { "flap" } else { "cut" }.into(),
            subject: format!("link:{u}-{v}"),
        },
        AppliedFault::LinkRepaired { at, u, v } => FaultRecord {
            at: at as u64,
            op: FaultOp::Repair,
            kind: "flap".into(),
            subject: format!("link:{u}-{v}"),
        },
    }
}

/// Predecessor pebbles of guest `v`'s step-`gt` generation: the closed
/// neighbourhood at level `gt − 1`.
fn closed_preds(comp: &GuestComputation, v: Node, gt: u32) -> Vec<Pebble> {
    let mut out = vec![Pebble::new(v, gt - 1)];
    out.extend(comp.graph.neighbors(v).iter().map(|&u| Pebble::new(u, gt - 1)));
    out
}

/// Nearest live host to `from` by BFS over the **base** graph (dead nodes
/// may be traversed — the dead host's rack neighbours are the natural
/// re-embedding targets even if intermediate nodes died too). Falls back to
/// the smallest live id when nothing is reachable. Deterministic.
fn nearest_live(view: &FaultyView, from: Node) -> Node {
    let base = view.base();
    let mut seen = vec![false; base.n()];
    let mut queue = std::collections::VecDeque::new();
    seen[from as usize] = true;
    queue.push_back(from);
    while let Some(v) = queue.pop_front() {
        if view.is_node_up(v) {
            return v;
        }
        for &w in base.neighbors(v) {
            if !seen[w as usize] {
                seen[w as usize] = true;
                queue.push_back(w);
            }
        }
    }
    view.surviving().first().copied().expect("caller checked m_surviving > 0")
}

/// Nearest live holder of `p` reachable from `h` over live edges, if any.
fn nearest_holder(view: &FaultyView, held: &[FxHashSet<u64>], h: Node, p: Pebble) -> Option<Node> {
    let base = view.base();
    let mut seen = vec![false; base.n()];
    let mut queue = std::collections::VecDeque::new();
    seen[h as usize] = true;
    queue.push_back(h);
    while let Some(v) = queue.pop_front() {
        if held[v as usize].contains(&p.key()) {
            return Some(v);
        }
        for &w in base.neighbors(v) {
            if !seen[w as usize] && view.is_edge_up(v, w) {
                seen[w as usize] = true;
                queue.push_back(w);
            }
        }
    }
    None
}

/// Make `h` hold `p`: ship it from the nearest live holder along live
/// edges, or regenerate it recursively from its predecessors (level-0
/// pebbles are universal, so the recursion always bottoms out). Each hop
/// and each generate is its own protocol step — replay is rare, so clarity
/// beats packing here.
fn ensure_pebble(
    comp: &GuestComputation,
    view: &FaultyView,
    held: &mut [FxHashSet<u64>],
    builder: &mut ProtocolBuilder,
    h: Node,
    p: Pebble,
    st: &mut Stats,
) {
    if p.t == 0 || held[h as usize].contains(&p.key()) {
        return;
    }
    if let Some(src) = nearest_holder(view, held, h, p) {
        let path = view.bfs_path(h, src).expect("holder found by BFS is reachable");
        // path runs h → src; ship src → h.
        for w in path.windows(2).rev() {
            builder.transfer(w[1], w[0], p);
            builder.end_step();
            held[w[0] as usize].insert(p.key());
            st.comm_steps += 1;
            st.total_steps += 1;
            st.delivered += 1;
        }
    } else {
        for pred in closed_preds(comp, p.node, p.t) {
            ensure_pebble(comp, view, held, builder, h, pred, st);
        }
        builder.set_op(h, Op::Generate(p));
        builder.end_step();
        held[h as usize].insert(p.key());
        st.replayed += 1;
        st.compute_steps += 1;
        st.total_steps += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FaultEvent, FaultKind};
    use unet_obs::NoopRecorder;
    use unet_pebble::check;
    use unet_topology::generators::{random_regular, ring, torus};
    use unet_topology::util::seeded_rng;

    fn bfs_sim(n: usize, m: usize, plan: FaultPlan) -> DegradedSimulator {
        DegradedSimulator { embedding: Embedding::block(n, m), plan, selector: Some(ShortestPath) }
    }

    /// One run with the default tuning and no recorder.
    fn run(
        sim: &DegradedSimulator,
        comp: &GuestComputation,
        host: &Graph,
        steps: u32,
        seed: u64,
    ) -> Result<DegradedRun, DegradedError> {
        let tuning = DegradedTuning::default();
        sim.simulate_tuned(comp, host, steps, &tuning, &mut seeded_rng(seed), &mut NoopRecorder)
    }

    #[test]
    fn healthy_plan_matches_healthy_invariants() {
        let guest = ring(12);
        let comp = GuestComputation::random(guest.clone(), 99);
        let host = torus(2, 2);
        let sim = bfs_sim(12, 4, FaultPlan::none());
        let run = run(&sim, &comp, &host, 3, 1).unwrap();
        check(&guest, &host, &run.run.protocol).expect("certifies");
        assert_eq!(run.run.final_states, comp.run_final(3));
        assert_eq!(run.m_surviving, 4);
        assert_eq!(run.remapped, 0);
        assert_eq!(run.replayed, 0);
        assert_eq!(run.dropped, 0);
        assert!(run.fault_log.is_empty());
    }

    #[test]
    fn crash_mid_run_certifies_and_reproduces() {
        let guest = random_regular(24, 4, &mut seeded_rng(5));
        let comp = GuestComputation::random(guest.clone(), 7);
        let host = torus(3, 3);
        let plan = FaultPlan::new(vec![
            FaultEvent { at: 2, kind: FaultKind::NodeCrash { node: 4 } },
            FaultEvent { at: 3, kind: FaultKind::NodeCrash { node: 0 } },
        ]);
        let sim = bfs_sim(24, 9, plan);
        let run = run(&sim, &comp, &host, 4, 2).unwrap();
        check(&guest, &host, &run.run.protocol).expect("degraded protocol certifies");
        assert_eq!(run.run.final_states, comp.run_final(4));
        assert_eq!(run.m_surviving, 7);
        assert!(run.remapped > 0, "guests of hosts 4 and 0 must move");
        // Hosts stay idle after death.
        for &(q, step) in &run.dead_at {
            let proto = &run.run.protocol;
            for tau in step as usize..proto.host_steps() {
                assert_eq!(proto.op(tau, q), Op::Idle, "host {q} acted after dying");
            }
        }
    }

    #[test]
    fn link_faults_survive_too() {
        let guest = ring(16);
        let comp = GuestComputation::random(guest.clone(), 3);
        let host = torus(3, 3);
        let plan = FaultPlan::link_cuts(&host, 0.2, 2, 11)
            .merge(FaultPlan::link_flaps(&host, 0.1, 1, 2, 12));
        let sim = bfs_sim(16, 9, plan);
        let run = run(&sim, &comp, &host, 4, 3).unwrap();
        check(&guest, &host, &run.run.protocol).expect("certifies");
        assert_eq!(run.run.final_states, comp.run_final(4));
        assert_eq!(run.m_surviving, 9, "link faults kill no nodes");
        let repairs = run.fault_log.iter().filter(|r| r.op == FaultOp::Repair).count();
        assert!(repairs > 0, "flaps must heal within the run");
    }

    #[test]
    fn correlated_rack_failure_survives() {
        let guest = random_regular(32, 4, &mut seeded_rng(8));
        let comp = GuestComputation::random(guest.clone(), 9);
        let host = torus(4, 4);
        let plan = FaultPlan::correlated_crashes(&host, 1, 2, 21);
        let sim = bfs_sim(32, 16, plan);
        let run = run(&sim, &comp, &host, 3, 4).unwrap();
        check(&guest, &host, &run.run.protocol).expect("certifies");
        assert_eq!(run.run.final_states, comp.run_final(3));
        assert_eq!(run.m_surviving, 11);
        assert!(run.surviving_inefficiency() > 0.0);
    }

    #[test]
    fn all_hosts_dead_is_a_typed_error() {
        let guest = ring(4);
        let comp = GuestComputation::random(guest, 1);
        let host = torus(2, 2);
        let plan = FaultPlan::crashes(&host, 1.0, 2, 0);
        let sim = bfs_sim(4, 4, plan);
        let err = run(&sim, &comp, &host, 3, 5).unwrap_err();
        assert_eq!(err, DegradedError::AllHostsDead { at: 2 });
        assert!(err.to_string().contains("all hosts dead"));
    }

    #[test]
    fn tuned_cached_parallel_matches_tuned_sequential_uncached() {
        // The tentpole equivalence, degraded edition: same seed, any
        // (threads × cache) tuning → identical protocol bytes, states,
        // and fault stats, still certified.
        let guest = random_regular(24, 4, &mut seeded_rng(5));
        let comp = GuestComputation::random(guest.clone(), 7);
        let host = torus(3, 3);
        let plan = FaultPlan::crashes(&host, 0.25, 2, 17);
        let sim = bfs_sim(24, 9, plan);
        let baseline_tuning = DegradedTuning { threads: 1, cache: false };
        let fast_tuning = DegradedTuning { threads: 4, cache: true };
        let base = sim
            .simulate_tuned(
                &comp,
                &host,
                5,
                &baseline_tuning,
                &mut seeded_rng(6),
                &mut NoopRecorder,
            )
            .unwrap();
        let fast = sim
            .simulate_tuned(&comp, &host, 5, &fast_tuning, &mut seeded_rng(6), &mut NoopRecorder)
            .unwrap();
        assert_eq!(base.run.protocol, fast.run.protocol, "bit-for-bit protocols");
        assert_eq!(base.run.final_states, fast.run.final_states);
        assert_eq!(base.fault_log, fast.fault_log);
        assert_eq!(base.delivered, fast.delivered);
        assert_eq!(base.dropped, fast.dropped);
        assert_eq!(base.replayed, fast.replayed);
        check(&guest, &host, &fast.run.protocol).expect("cached degraded run certifies");
        assert_eq!(fast.run.final_states, comp.run_final(5));
    }

    #[test]
    fn tuned_cache_reroutes_after_epoch_bump() {
        use unet_obs::InMemoryRecorder;
        // Crash at boundary 3 of a 6-step run: the cache must invalidate at
        // the fault and rebuild, i.e. at least two misses.
        let guest = random_regular(24, 4, &mut seeded_rng(5));
        let comp = GuestComputation::random(guest.clone(), 7);
        let host = torus(3, 3);
        let plan = FaultPlan::new(vec![crate::plan::FaultEvent {
            at: 3,
            kind: crate::plan::FaultKind::NodeCrash { node: 4 },
        }]);
        let sim = bfs_sim(24, 9, plan);
        let mut rec = InMemoryRecorder::new();
        let run = sim
            .simulate_tuned(
                &comp,
                &host,
                6,
                &DegradedTuning::default(),
                &mut seeded_rng(2),
                &mut rec,
            )
            .unwrap();
        check(&guest, &host, &run.run.protocol).expect("certifies");
        assert_eq!(run.run.final_states, comp.run_final(6));
        assert!(rec.counter_value("sim.cache.misses") >= 2, "fault must force a reroute");
        assert!(rec.counter_value("sim.cache.hits") >= 1, "quiet steps replay the plan");
    }

    #[test]
    fn determinism_same_seed_same_run() {
        let guest = random_regular(24, 4, &mut seeded_rng(5));
        let comp = GuestComputation::random(guest.clone(), 7);
        let host = torus(3, 3);
        let plan = FaultPlan::crashes(&host, 0.25, 2, 17);
        let sim = bfs_sim(24, 9, plan);
        let a = run(&sim, &comp, &host, 3, 6).unwrap();
        let b = run(&sim, &comp, &host, 3, 6).unwrap();
        assert_eq!(a.run.protocol, b.run.protocol);
        assert_eq!(a.fault_log, b.fault_log);
        assert_eq!(a.run.final_states, b.run.final_states);
        assert_eq!(a.replayed, b.replayed);
    }
}
