//! The Theorem 2.1 universal simulation engine.
//!
//! Simulates `T` steps of an arbitrary guest on an arbitrary host: guests are
//! statically embedded (`f : [n] → [m]`, load `≤ ⌈n/m⌉`); each guest step is
//! (a) a **communication phase** — the guest's cross-host edges induce an
//! `O(n/m)–O(n/m)` routing problem, solved by a pluggable [`Router`] — and
//! (b) a **computation phase** — each host generates its guests' next
//! configurations.
//!
//! The engine emits a full pebble-game [`Protocol`] (so the Section 3.1
//! checker can certify the run) plus the host-computed final states (so the
//! simulation can be verified bit-for-bit against direct execution).
//!
//! Two execution optimizations live here, both **bit-for-bit invisible** in
//! the emitted protocol and final states:
//!
//! * **Route-plan cache** — for a static embedding the induced routing
//!   problem is identical at every guest step `gt > 1`, so the pair set and
//!   the router's matching decomposition ([`unet_routing::plan::RoutePlan`])
//!   are computed once and replayed with fresh pebble payloads each step.
//!   From `gt = 3` on, a cached step's host steps are the previous step's
//!   with every pebble one level later, so they are emitted as a bulk copy
//!   ([`ProtocolBuilder::repeat_later`]); the uncached path replays the
//!   plan every step and is the reference the copies must equal.
//! * **Parallel phases** — pair extraction shards by guest range and the
//!   host-side state computation shards by node range, both on
//!   [`unet_topology::par`] with order-preserving merges.
//!
//! The public front door is [`crate::sim::Simulation`]. (The legacy
//! `EmbeddingSimulator` wrappers, deprecated since the builder landed, are
//! gone; the builder's fixed per-run route seed subsumes their threaded-RNG
//! mode for every deterministic router and makes randomized routers
//! cacheable besides.)

use crate::cache::{plan_fingerprint, Acquire, LeadGuard, SharedPlanCache};
use crate::cancel::CancelToken;
use crate::embedding::Embedding;
use crate::error::SimError;
use crate::guest::{transition, GuestComputation};
use crate::routers::Router;
use unet_obs::{edge_key, Recorder};
use unet_pebble::protocol::{Op, Pebble, Protocol, ProtocolBuilder};
use unet_routing::plan::{extract_plan, PlanCache, RoutePlan};
use unet_routing::problem::RoutingProblem;
use unet_topology::par::par_chunks;
use unet_topology::util::{seeded_rng, FxHashSet};
use unet_topology::{Graph, Node};

/// Result of a universal simulation run.
#[derive(Debug, Clone)]
pub struct SimulationRun {
    /// The emitted pebble protocol (feed to [`unet_pebble::check`](fn@unet_pebble::check)).
    pub protocol: Protocol,
    /// Host-computed final guest states (compare against
    /// [`GuestComputation::run_final`]).
    pub final_states: Vec<u64>,
    /// Host steps spent in communication phases.
    pub comm_steps: usize,
    /// Host steps spent in computation phases.
    pub compute_steps: usize,
}

impl SimulationRun {
    /// Measured slowdown `T'/T`.
    pub fn slowdown(&self) -> f64 {
        self.protocol.slowdown()
    }

    /// Measured inefficiency `k = s·m/n`.
    pub fn inefficiency(&self) -> f64 {
        self.protocol.inefficiency()
    }
}

/// Execution knobs threaded through the engine core (see
/// [`crate::sim::SimulationBuilder`] for the public surface).
///
/// `route_seed` fixes the router's randomness per run: every communication
/// phase sees an identically seeded generator, the schedule becomes
/// step-invariant, and the route-plan cache is pure memoization (cached and
/// uncached runs are bit-for-bit identical even for randomized routers).
#[derive(Debug, Clone, Copy)]
pub(crate) struct EngineConfig<'e> {
    pub threads: usize,
    pub cache: bool,
    /// Seed for the per-phase route RNG (drawn once by the builder).
    pub route_seed: u64,
    /// Cross-run plan cache to pre-seed from / publish to (serve workers).
    pub shared: Option<&'e SharedPlanCache>,
    /// Cooperative cancellation, checked at phase boundaries.
    pub cancel: Option<&'e CancelToken>,
}

/// The step-invariant skeleton of one communication phase: payload sources
/// (guest per packet), problem size, and the replayable transfer rounds.
#[derive(Debug, Clone, Default)]
pub(crate) struct CachedComm {
    guests: Vec<Node>,
    pair_count: usize,
    plan: RoutePlan,
}

/// Build the induced `h–h` routing problem: one packet per
/// `(guest u, remote host of a neighbour of u)`, in ascending guest order.
///
/// Sharded by guest range. The dedup key `(u, fv)` involves only the shard's
/// own `u`, so shard-local `seen` sets plus an in-order concatenation yield
/// exactly the sequential pair list.
fn induced_pairs(
    comp: &GuestComputation,
    f: &[Node],
    threads: usize,
) -> (Vec<(Node, Node)>, Vec<Node>) {
    let n = comp.n();
    let found: Vec<((Node, Node), Node)> = par_chunks(n, threads, |range| {
        let mut seen: FxHashSet<(Node, Node)> = FxHashSet::default();
        let mut out = Vec::new();
        for u in range {
            let u = u as Node;
            let fu = f[u as usize];
            for &v in comp.graph.neighbors(u) {
                let fv = f[v as usize];
                if fu != fv && seen.insert((u, fv)) {
                    out.push(((fu, fv), u));
                }
            }
        }
        out
    });
    let mut pairs = Vec::with_capacity(found.len());
    let mut guests = Vec::with_capacity(found.len());
    for (pair, u) in found {
        pairs.push(pair);
        guests.push(u);
    }
    (pairs, guests)
}

/// Host-side state computation, sharded by node range (each node reads only
/// `prev_states`, so the parallel result equals the sequential one exactly).
///
/// Public so degraded-mode simulators (`unet-faults`) can share the exact
/// transition loop (and its parallel/sequential equivalence guarantee).
pub fn advance_states(comp: &GuestComputation, prev_states: &[u64], threads: usize) -> Vec<u64> {
    par_chunks(comp.n(), threads, |range| {
        let mut out = Vec::with_capacity(range.len());
        let mut nb_buf: Vec<u64> = Vec::new();
        for i in range {
            nb_buf.clear();
            nb_buf.extend(comp.graph.neighbors(i as Node).iter().map(|&j| prev_states[j as usize]));
            out.push(transition(prev_states[i], &nb_buf));
        }
        out
    })
}

/// The engine core behind [`crate::sim::SimulationBuilder::run`].
pub(crate) fn run_engine<REC: Recorder>(
    embedding: &Embedding,
    router: &dyn Router,
    comp: &GuestComputation,
    host: &Graph,
    steps: u32,
    cfg: &EngineConfig<'_>,
    rec: &mut REC,
) -> Result<SimulationRun, SimError> {
    let n = comp.n();
    let m = host.n();
    if steps == 0 {
        return Err(SimError::ZeroSteps);
    }
    if m == 0 {
        return Err(SimError::EmptyHost);
    }
    if embedding.n() != n {
        return Err(SimError::GuestMismatch { embedding_n: embedding.n(), guest_n: n });
    }
    if embedding.m != m {
        return Err(SimError::HostMismatch { embedding_m: embedding.m, host_m: m });
    }
    router.validate(host).map_err(|reason| SimError::Router { router: router.name(), reason })?;

    let f = &embedding.f;
    let guests_by_host = embedding.guests_by_host();
    let load = embedding.load();

    let mut builder = ProtocolBuilder::new(n, steps, m);
    let mut comm_steps = 0usize;
    let mut compute_steps = 0usize;
    // The core engine never changes topology mid-run, so the cache epoch is
    // constant; degraded-mode simulators key their caches on the live
    // `FaultyView::epoch` instead.
    let mut cache: PlanCache<CachedComm> = PlanCache::new();

    // Cross-run sharing: pre-seed the per-run cache from the process-wide
    // one when the workload fingerprint matches. A miss takes the
    // single-flight build lease: concurrent runs of the same workload block
    // on this run's compile instead of duplicating it, and get woken the
    // moment `publish` fires below (right after the gt = 2 compile, not at
    // the end of the run). If this run errors or is cancelled before
    // compiling, dropping the lease promotes a blocked follower to leader.
    let mut lease: Option<LeadGuard<'_>> = None;
    if cfg.cache {
        if let Some(shared) = cfg.shared {
            let key = plan_fingerprint(&comp.graph, host, embedding, router.name(), cfg.route_seed);
            // Time the acquire: an instant hit or a fresh lease is ~0, a
            // single-flight follower blocked on another run's compile shows
            // its real wait here (`singleflight_wait` in request spans).
            let acquire_started = std::time::Instant::now();
            let acquired = shared.acquire(key, cfg.cancel)?;
            rec.histogram("sim.plan.acquire_us", acquire_started.elapsed().as_micros() as u64);
            match acquired {
                Acquire::Hit(entry) => {
                    rec.counter("sim.cache.shared.hits", 1);
                    cache.store(0, entry);
                }
                Acquire::Lead(guard) => {
                    rec.counter("sim.cache.shared.misses", 1);
                    lease = Some(guard);
                }
            }
        }
    }

    let mut prev_states: Vec<u64> = comp.init.clone();
    // Global communication-round index across the whole run: the time
    // axis of the `sim.edge_util` congestion series. Cached phases replay
    // the same plan over fresh rounds, so they are sampled too — the
    // telemetry reflects actual edge traffic, not just route() calls.
    let mut comm_round = 0u64;

    // Host steps where the previous guest step's block and its computation
    // phase began. The cached path emits each block from gt = 3 on as a
    // copy of the previous one with every pebble one level later: the plan
    // and the embedding are the same, only the payload level moves.
    let mut prev = (0usize, 0usize);

    for gt in 1..=steps {
        let start = comm_steps + compute_steps;
        let mut copied = false;
        // Cooperative cancellation is checked at phase boundaries only:
        // phases are the engine's units of progress, and a branch inside
        // the routing/compute loops would tax uncancellable runs too.
        if cfg.cancel.is_some_and(CancelToken::is_cancelled) {
            return Err(SimError::Cancelled);
        }
        // ---- Communication phase -------------------------------------
        // One packet per (guest u, remote host of a neighbour of u).
        // Level-0 pebbles are initial and held by every host, so the
        // first guest step needs no communication at all.
        rec.span_start("sim.comm");
        if gt > 1 {
            let hit = cfg.cache && cache.lookup(0, |_| true).is_some();
            if hit {
                let c = cache.peek().expect("hit implies entry");
                rec.histogram("sim.routing_problem_size", c.pair_count as u64);
                for round in &c.plan.rounds {
                    for &(from, to, _) in round {
                        rec.sample("sim.edge_util", comm_round, edge_key(from, to), 1);
                    }
                    comm_round += 1;
                }
                if gt > 2 {
                    if gt == 3 {
                        builder.reserve_copies(prev.0..start, (steps - 2) as usize);
                    }
                    builder.repeat_later(prev.0..prev.1);
                    comm_steps += prev.1 - prev.0;
                    copied = true;
                } else {
                    let payloads: Vec<Pebble> =
                        c.guests.iter().map(|&u| Pebble::new(u, gt - 1)).collect();
                    comm_steps += replay_plan(&mut builder, &c.plan, &payloads);
                }
            } else {
                let build_started = std::time::Instant::now();
                let (pairs, guests) = induced_pairs(comp, f, cfg.threads);
                rec.histogram("sim.routing_problem_size", pairs.len() as u64);
                let pair_count = pairs.len();
                let plan = if pairs.is_empty() {
                    RoutePlan::default()
                } else {
                    let prob = RoutingProblem::new(m, pairs);
                    let out = router.route_recorded(
                        host,
                        &prob,
                        &mut seeded_rng(cfg.route_seed),
                        &mut *rec,
                    );
                    extract_plan(&out.transfers)
                };
                // Pair extraction through route + plan extraction is the
                // plan build (`plan_build` in request spans).
                rec.histogram("sim.plan.build_us", build_started.elapsed().as_micros() as u64);
                let payloads: Vec<Pebble> =
                    guests.iter().map(|&u| Pebble::new(u, gt - 1)).collect();
                for round in &plan.rounds {
                    for &(from, to, _) in round {
                        rec.sample("sim.edge_util", comm_round, edge_key(from, to), 1);
                    }
                    comm_round += 1;
                }
                comm_steps += replay_plan(&mut builder, &plan, &payloads);
                if cfg.cache {
                    let entry = CachedComm { guests, pair_count, plan };
                    // Publish to the shared cache the moment the plan
                    // exists: single-flight followers wake here and replay
                    // it while this run is still simulating.
                    if let Some(mut guard) = lease.take() {
                        guard.publish(entry.clone());
                    }
                    cache.store(0, entry);
                }
            }
        } else {
            rec.histogram("sim.routing_problem_size", 0);
        }
        rec.span_end("sim.comm");
        if cfg.cancel.is_some_and(CancelToken::is_cancelled) {
            return Err(SimError::Cancelled);
        }
        // ---- Computation phase ---------------------------------------
        rec.span_start("sim.compute");
        let compute_start = comm_steps + compute_steps;
        if copied {
            builder.repeat_later(prev.1..start);
            compute_steps += start - prev.1;
        } else {
            for round in 0..load {
                for (q, guests) in guests_by_host.iter().enumerate() {
                    if let Some(&v) = guests.get(round) {
                        builder.set_op(q as Node, Op::Generate(Pebble::new(v, gt)));
                    }
                }
                builder.end_step();
                compute_steps += 1;
            }
        }
        // ---- Host-side state computation -----------------------------
        // (data availability is certified separately by the pebble
        // checker; values are copies, so computing from the global table
        // is equivalent to computing from the delivered copies)
        prev_states = advance_states(comp, &prev_states, cfg.threads);
        rec.span_end("sim.compute");
        prev = (start, compute_start);
    }
    rec.counter("sim.guest_steps", steps as u64);
    rec.counter("sim.comm_steps", comm_steps as u64);
    rec.counter("sim.compute_steps", compute_steps as u64);
    rec.counter("sim.cache.hits", cache.hits());
    rec.counter("sim.cache.misses", cache.misses());
    rec.gauge("sim.load", load as f64);
    rec.gauge("sim.par.threads", cfg.threads as f64);

    Ok(SimulationRun {
        protocol: builder.finish(),
        final_states: prev_states,
        comm_steps,
        compute_steps,
    })
}

/// Replay an extracted [`RoutePlan`] into pebble protocol steps with the
/// given payload table (`payloads[packet_id]`). Returns the number of pebble
/// steps emitted (`plan.rounds.len()`).
pub fn replay_plan(builder: &mut ProtocolBuilder, plan: &RoutePlan, payloads: &[Pebble]) -> usize {
    for round in &plan.rounds {
        for &(from, to, pid) in round {
            builder.transfer(from, to, payloads[pid as usize]);
        }
        builder.end_step();
    }
    plan.rounds.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routers::presets;
    use crate::sim::Simulation;
    use unet_pebble::check;
    use unet_routing::packet::Transfer;
    use unet_topology::generators::{mesh, random_regular, ring, torus};
    use unet_topology::util::seeded_rng;

    fn run(
        comp: &GuestComputation,
        host: &Graph,
        embedding: Embedding,
        router: &dyn Router,
        steps: u32,
        seed: u64,
    ) -> SimulationRun {
        Simulation::builder()
            .guest(comp)
            .host(host)
            .embedding(embedding)
            .router(router)
            .steps(steps)
            .seed(seed)
            .run()
            .expect("valid configuration")
    }

    /// End-to-end: guest ring(12) on torus(2,2) host via BFS routing;
    /// protocol must check and states must match direct execution.
    #[test]
    fn ring_on_tiny_torus_end_to_end() {
        let guest = ring(12);
        let host = torus(2, 2);
        let comp = GuestComputation::random(guest.clone(), 99);
        let router = presets::bfs();
        let run = run(&comp, &host, Embedding::block(12, 4), &router, 3, 1);
        // Pebble-game certification.
        let trace = check(&guest, &host, &run.protocol).expect("protocol must verify");
        assert_eq!(trace.host_steps, run.protocol.host_steps());
        // Bit-for-bit correctness.
        assert_eq!(run.final_states, comp.run_final(3));
        // Slowdown ≥ load.
        assert!(run.slowdown() >= 3.0);
        assert_eq!(run.comm_steps + run.compute_steps, run.protocol.host_steps());
    }

    #[test]
    fn random_regular_guest_on_mesh() {
        let guest = random_regular(24, 4, &mut seeded_rng(7));
        let host = mesh(3, 3);
        let comp = GuestComputation::random(guest.clone(), 5);
        let router = presets::mesh_xy(3, 3);
        let run = run(&comp, &host, Embedding::block(24, 9), &router, 2, 2);
        check(&guest, &host, &run.protocol).expect("verify");
        assert_eq!(run.final_states, comp.run_final(2));
    }

    #[test]
    fn injective_embedding_when_m_exceeds_n() {
        // m > n: every guest on its own host; slowdown dominated by routing.
        let guest = ring(8);
        let host = torus(4, 4);
        let comp = GuestComputation::random(guest.clone(), 1);
        let router = presets::torus_xy(4, 4);
        let run = run(&comp, &host, Embedding::block(8, 16), &router, 2, 3);
        check(&guest, &host, &run.protocol).expect("verify");
        assert_eq!(run.final_states, comp.run_final(2));
    }

    #[test]
    fn guest_equal_host_identity_embedding() {
        // Simulating a torus on itself: communication only with neighbours'
        // hosts; still must verify.
        let guest = torus(3, 3);
        let host = torus(3, 3);
        let comp = GuestComputation::random(guest.clone(), 2);
        let router = presets::bfs();
        let run = run(&comp, &host, Embedding::block(9, 9), &router, 2, 4);
        check(&guest, &host, &run.protocol).expect("verify");
        assert_eq!(run.final_states, comp.run_final(2));
    }

    #[test]
    fn random_embedding_still_correct() {
        let guest = ring(16);
        let host = torus(2, 2);
        let comp = GuestComputation::random(guest.clone(), 3);
        let router = presets::bfs();
        let run = run(&comp, &host, Embedding::random(16, 4, &mut seeded_rng(5)), &router, 2, 6);
        check(&guest, &host, &run.protocol).expect("verify");
        assert_eq!(run.final_states, comp.run_final(2));
    }

    #[test]
    fn recorded_simulation_matches_and_nests() {
        use unet_obs::InMemoryRecorder;
        let guest = ring(12);
        let host = torus(2, 2);
        let comp = GuestComputation::random(guest.clone(), 99);
        let router = presets::bfs();
        let plain = run(&comp, &host, Embedding::block(12, 4), &router, 3, 1);
        let mut rec = InMemoryRecorder::new();
        let recorded = Simulation::builder()
            .guest(&comp)
            .host(&host)
            .embedding(Embedding::block(12, 4))
            .router(&router)
            .steps(3)
            .seed(1)
            .recorder(&mut rec)
            .run()
            .expect("recorded run");
        // Instrumentation must not perturb the run (same route seed).
        assert_eq!(plain.final_states, recorded.final_states);
        assert_eq!(plain.comm_steps, recorded.comm_steps);
        assert_eq!(plain.compute_steps, recorded.compute_steps);
        assert_eq!(plain.protocol.host_steps(), recorded.protocol.host_steps());
        // Spans balanced; phase totals present for both phases.
        assert!(rec.open_spans().is_empty());
        let totals: Vec<_> = rec.span_totals().collect();
        assert!(totals.iter().any(|&(n, ns, _)| n == "sim.comm" && ns > 0));
        assert!(totals.iter().any(|&(n, ..)| n == "sim.compute"));
        // Router metrics nested under the simulation via the dyn boundary.
        assert!(totals.iter().any(|&(n, ..)| n == "route"));
        assert!(rec.counter_value("route.steps") > 0);
        // Run totals agree with the result.
        assert_eq!(rec.counter_value("sim.guest_steps"), 3);
        assert_eq!(rec.counter_value("sim.comm_steps"), recorded.comm_steps as u64);
        assert_eq!(rec.counter_value("sim.compute_steps"), recorded.compute_steps as u64);
        // One routing-problem-size sample per guest step.
        assert_eq!(rec.histogram_data("sim.routing_problem_size").unwrap().count, 3);
        // Per-run cache: gt=2 compiles, gt=3 replays.
        assert_eq!(rec.counter_value("sim.cache.hits"), 1);
        assert_eq!(rec.counter_value("sim.cache.misses"), 1);
    }

    /// The server and `unet simulate` record through a `SummaryRecorder`:
    /// on a cold run it must see the same counters, histograms and spans as
    /// an `InMemoryRecorder` (only the sample series are gone), and the run
    /// itself must not change.
    #[test]
    fn summary_recorder_matches_in_memory_recorder_on_a_cold_run() {
        use crate::cache::SharedPlanCache;
        use crate::sim::CachePolicy;
        use unet_obs::{InMemoryRecorder, Recorder, SummaryRecorder};
        let guest = random_regular(32, 4, &mut seeded_rng(5));
        let host = torus(2, 3);
        let comp = GuestComputation::random(guest.clone(), 8);
        let router = presets::bfs();
        fn cold<R: Recorder>(
            comp: &GuestComputation,
            host: &Graph,
            router: &dyn Router,
            rec: &mut R,
        ) -> SimulationRun {
            Simulation::builder()
                .guest(comp)
                .host(host)
                .embedding(Embedding::block(32, 6))
                .router(router)
                .steps(6)
                .seed(3)
                .cache_policy(CachePolicy::Enabled)
                .shared_cache(&SharedPlanCache::new())
                .recorder(rec)
                .run()
                .expect("valid configuration")
        }
        let mut full = InMemoryRecorder::new();
        let mut summary = SummaryRecorder::new();
        let a = cold(&comp, &host, &router, &mut full);
        let b = cold(&comp, &host, &router, &mut summary);
        assert_eq!(a.protocol, b.protocol);
        assert_eq!(a.final_states, b.final_states);
        assert_eq!(b.final_states, comp.run_final(6));
        assert!(full.sample_data("sim.edge_util").is_some());
        assert_eq!(summary.samples().count(), 0);
        assert_eq!(summary.counters().collect::<Vec<_>>(), full.counters().collect::<Vec<_>>());
        assert_eq!(summary.counter_value("sim.cache.shared.misses"), 1, "a cold run");
        let hists = |r: &InMemoryRecorder| -> Vec<(&str, u64, Option<u128>)> {
            // Timings (`*_us`) differ run to run; their counts may not.
            r.histograms()
                .map(|(n, h)| (n, h.count, (!n.ends_with("_us")).then_some(h.sum)))
                .collect()
        };
        assert_eq!(hists(&summary), hists(&full));
        assert!(summary.histogram_data("sim.plan.build_us").is_some());
        let spans = |r: &InMemoryRecorder| -> Vec<(&str, u64)> {
            r.span_totals().map(|(n, _, count)| (n, count)).collect()
        };
        assert_eq!(spans(&summary), spans(&full));
        assert!(summary.open_spans().is_empty());
    }

    /// From gt = 3 the cached path copies the previous block a level
    /// later. Cached, uncached and shared-cache-hit runs must give `==`
    /// protocols and the same engine records, and the checker must take
    /// the copied blocks by its shift scan.
    #[test]
    fn copied_blocks_equal_replayed_blocks() {
        use crate::cache::SharedPlanCache;
        use crate::sim::CachePolicy;
        use unet_obs::InMemoryRecorder;
        let guest = random_regular(32, 4, &mut seeded_rng(11));
        let host = torus(2, 3);
        let comp = GuestComputation::random(guest.clone(), 4);
        let router = presets::bfs();
        for steps in 4..=8 {
            let shared = SharedPlanCache::new();
            let run = |policy: CachePolicy, shared: Option<&SharedPlanCache>| {
                let mut rec = InMemoryRecorder::new();
                let mut b = Simulation::builder()
                    .guest(&comp)
                    .host(&host)
                    .embedding(Embedding::block(32, 6))
                    .router(&router)
                    .steps(steps)
                    .seed(9)
                    .cache_policy(policy);
                if let Some(shared) = shared {
                    b = b.shared_cache(shared);
                }
                let run = b.recorder(&mut rec).run().expect("valid configuration");
                (run, rec)
            };
            let (uncached, base) = run(CachePolicy::Disabled, None);
            let (cached, rec) = run(CachePolicy::Enabled, None);
            run(CachePolicy::Enabled, Some(&shared));
            let (warm, warm_rec) = run(CachePolicy::Enabled, Some(&shared));
            assert_eq!(warm_rec.counter_value("sim.cache.shared.hits"), 1, "T = {steps}");
            assert_eq!(cached.protocol, uncached.protocol, "T = {steps}");
            assert_eq!(warm.protocol, uncached.protocol, "T = {steps}");
            assert_eq!(cached.final_states, uncached.final_states);
            for r in [&rec, &warm_rec] {
                assert!(r.open_spans().is_empty());
                for name in ["sim.comm_steps", "sim.compute_steps"] {
                    assert_eq!(r.counter_value(name), base.counter_value(name), "{name}");
                }
                let size = "sim.routing_problem_size";
                assert_eq!(r.histogram_data(size), base.histogram_data(size));
                assert_eq!(r.sample_data("sim.edge_util"), base.sample_data("sim.edge_util"));
                let phases = |r: &InMemoryRecorder| {
                    r.span_totals()
                        .filter(|&(n, ..)| n == "sim.comm" || n == "sim.compute")
                        .map(|(n, _, count)| (n, count))
                        .collect::<Vec<_>>()
                };
                assert_eq!(phases(r), phases(&base));
            }
            let mut check_rec = InMemoryRecorder::new();
            unet_pebble::check_recorded(&guest, &host, &cached.protocol, &mut check_rec)
                .expect("protocol must verify");
            assert!(check_rec.counter_value("pebble.check.shifted_steps") > 0, "T = {steps}");
        }
    }

    #[test]
    fn simulation_run_carries_no_instrumentation_state() {
        // The zero-cost claim in struct form: a run is exactly its four
        // payload fields; recording state lives in the Recorder, never here.
        use std::mem::size_of;
        assert_eq!(
            size_of::<SimulationRun>(),
            size_of::<Protocol>() + size_of::<Vec<u64>>() + 2 * size_of::<usize>()
        );
    }

    #[test]
    fn replay_plan_emits_one_pebble_step_per_round() {
        // Node 1 receives and sends in engine step 0, which therefore needs
        // two pebble steps; the lazy 2 -> 2 segment in step 1 adds none.
        let transfers = vec![
            Transfer { step: 0, from: 0, to: 1, packet_id: 0 },
            Transfer { step: 0, from: 1, to: 2, packet_id: 1 },
            Transfer { step: 1, from: 2, to: 2, packet_id: 0 },
            Transfer { step: 1, from: 2, to: 3, packet_id: 1 },
        ];
        let payloads = vec![Pebble::new(4, 1), Pebble::new(5, 1)];
        let plan = extract_plan(&transfers);
        let mut builder = ProtocolBuilder::new(8, 1, 4);
        let emitted = replay_plan(&mut builder, &plan, &payloads);
        assert_eq!(emitted, plan.pebble_steps());
        assert_eq!(emitted, 3);
        assert_eq!(builder.finish().host_steps(), emitted);
    }
}
