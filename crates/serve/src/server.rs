//! The long-running simulation server.
//!
//! Architecture, front to back:
//!
//! * **Connection front** — the acceptor, connection slots (`queue_cap`
//!   open connections; beyond that a typed `overloaded`), one thread per
//!   connection and the drain live in the crate's `conn` module, shared
//!   with the shard router; this module supplies the request handler.
//! * **Engine threads** — [`Server::start`] starts `workers` long-lived
//!   `unet-engine` threads that take simulations from one FIFO queue, so
//!   `workers` bounds the engine work in flight however many connections
//!   are open, and simulations start in arrival order (the wait is the
//!   `queue_wait` span). A connection thread only parses and does I/O. A
//!   run that panics is caught on its engine thread and answered with a
//!   typed `internal` error (counted in `serve.engine.panics`); the engine
//!   thread and the connection keep serving. [`Server::drain`] joins the
//!   engine threads.
//! * **Plan coalescing** — cold requests for one workload racing on
//!   different connections block on the [`SharedPlanCache`] build lease:
//!   the first builds and publishes the route plan, the rest wait for it
//!   (their `singleflight_wait` span) instead of recomputing.
//! * **Deadlines** — each simulation runs under a
//!   [`CancelToken::with_deadline`]; the engine checks it at phase
//!   boundaries (and while waiting on a build lease), and
//!   [`SimError::Cancelled`] becomes a `deadline-exceeded` error.
//! * **Graceful drain** — [`Server::drain`] stops the acceptor, answers
//!   every request already in flight, and returns once every connection
//!   has closed. No admitted request is dropped.
//! * **Request tracing** — every request gets a trace id at first ingress
//!   (propagated from the client's trace context, else minted here) and a
//!   stage-span breakdown: `accept` (request parse), `admit` (spec parse
//!   and guest init), `queue_wait`, `singleflight_wait`,
//!   `plan_build`, `simulate`, `serialize`. Responses
//!   carry `trace_id` and `stages` inline; a
//!   [`TailSampler`](unet_obs::TailSampler) keeps every errored request, a
//!   deterministic head sample, and the slowest tail as `request` records
//!   in the drain trace, and the slowest request's trace id rides the
//!   latency histogram's `max` gauge as an exemplar.

use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub use crate::conn::RequestTrace;
use crate::conn::{start_acceptor, Acceptor, Front, ReqInfo, Tier, SERVE_NAMES};
use crate::protocol::{
    error_line, mint_trace_id, parse_request, result_line, Request, SimulateReq,
};
use unet_core::cancel::CancelToken;
use unet_core::spec::parse_graph;
use unet_core::{CachePolicy, Embedding, GuestComputation, SharedPlanCache, SimError, Simulation};
use unet_obs::json::Value;
use unet_obs::tailsample::DEFAULT_HEAD_PERMILLE;
use unet_obs::{InMemoryRecorder, Recorder, SummaryRecorder};
use unet_topology::par::default_threads;
use unet_topology::Graph;

/// Server configuration (all fields have serviceable defaults).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (the default).
    pub addr: String,
    /// Engine threads: how many simulations run at once across all
    /// connections (default: [`default_threads`]).
    pub workers: usize,
    /// Open-connection bound; 0 rejects every connection (default 64).
    pub queue_cap: usize,
    /// Deadline applied to `simulate` requests that do not carry their own
    /// `deadline_ms` (default 10 000 ms).
    pub default_deadline_ms: u64,
    /// Head-sampling rate for per-request stage records, in permille
    /// (default [`DEFAULT_HEAD_PERMILLE`]). Errors and the slowest tail
    /// are always kept regardless.
    pub head_sample_permille: u32,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: default_threads(),
            queue_cap: 64,
            default_deadline_ms: 10_000,
            head_sample_permille: DEFAULT_HEAD_PERMILLE,
        }
    }
}

/// Counter snapshot of a running (or drained) server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections admitted (given a connection slot).
    pub admitted: u64,
    /// Connections rejected with `overloaded`.
    pub rejected: u64,
    /// Answers produced (any response kind except `overloaded`), counted
    /// before the answer is written.
    pub completed: u64,
    /// Shared route-plan cache hits (process totals).
    pub shared_hits: u64,
    /// Shared route-plan cache misses.
    pub shared_misses: u64,
    /// Runs that waited on another run's build lease.
    pub singleflight_followers: u64,
}

impl ServerStats {
    /// Shared-cache hit ratio (`None` before the first simulate request).
    pub fn hit_ratio(&self) -> Option<f64> {
        let total = self.shared_hits + self.shared_misses;
        if total == 0 {
            None
        } else {
            Some(self.shared_hits as f64 / total as f64)
        }
    }
}

/// What a graceful drain hands back.
#[derive(Debug, Clone)]
pub struct DrainReport {
    /// Final counter snapshot.
    pub stats: ServerStats,
    /// Final Prometheus text exposition of the server registry.
    pub exposition: String,
    /// The server's request trace: final aggregates plus the tail-sampled
    /// request records, rendered as `unet trace` JSONL (which feeds the
    /// streaming analyzer) by [`RequestTrace::write_to`].
    pub trace: RequestTrace,
}

/// A simulate unit of work: the parsed inputs of one request.
struct Job {
    comp: GuestComputation,
    host: Graph,
    guest_spec: String,
    host_spec: String,
    steps: u32,
    seed: u64,
    deadline_ms: u64,
    token: CancelToken,
}

/// A job's outcome: result payload fields, or a typed `(code, message)`.
type Payload = Result<Vec<(String, Value)>, (String, String)>;

struct Shared {
    front: Front,
    cache: Arc<SharedPlanCache>,
    engines: Engines,
    default_deadline_ms: u64,
}

/// Work for an engine thread.
type Task = Box<dyn FnOnce() + Send>;

/// Long-lived engine threads fed from one FIFO queue. A task owns what it
/// reads, so the threads hold nothing of the server between tasks and no
/// reference keeps [`Shared`] alive.
struct Engines {
    /// The queue's sending end; `None` once stopped.
    queue: Mutex<Option<Sender<Task>>>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Engines {
    /// Start `workers` engine threads.
    fn start(workers: usize) -> std::io::Result<Engines> {
        let (queue, tasks) = mpsc::channel::<Task>();
        let tasks = Arc::new(Mutex::new(tasks));
        let threads = (0..workers)
            .map(|_| {
                let tasks = Arc::clone(&tasks);
                std::thread::Builder::new().name("unet-engine".into()).spawn(move || loop {
                    // The lock is held only while waiting, so the next idle
                    // thread takes the oldest task.
                    let Ok(task) = tasks.lock().expect("engine queue poisoned").recv() else {
                        return;
                    };
                    task();
                })
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(Engines { queue: Mutex::new(Some(queue)), threads: Mutex::new(threads) })
    }

    /// Run `f` on the next free engine thread and wait for its value;
    /// `None` when `f` panicked (the thread catches the panic and goes on
    /// serving) or the engines are stopped.
    fn run<R: Send + 'static>(&self, f: impl FnOnce() -> R + Send + 'static) -> Option<R> {
        let (reply, answer) = mpsc::sync_channel(1);
        let task: Task = Box::new(move || {
            let _ = reply.send(catch_unwind(AssertUnwindSafe(f)).ok());
        });
        self.queue.lock().expect("engine queue poisoned").as_ref()?.send(task).ok()?;
        answer.recv().ok().flatten()
    }

    /// Close the queue, let the threads finish what is queued, and join
    /// them.
    fn stop(&self) {
        self.queue.lock().expect("engine queue poisoned").take();
        for thread in std::mem::take(&mut *self.threads.lock().expect("engines poisoned")) {
            let _ = thread.join();
        }
    }
}

impl Tier for Shared {
    fn front(&self) -> &Front {
        &self.front
    }

    fn handle(&self, line: &str) -> (String, ReqInfo) {
        handle_request(self, line)
    }
}

/// A running server; construct with [`Server::start`], stop with
/// [`Server::drain`].
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<Acceptor>,
}

impl Server {
    /// Bind, start the engine threads and the acceptor, and return
    /// immediately.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let workers = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            front: Front::new(&SERVE_NAMES, cfg.queue_cap, workers, cfg.head_sample_permille),
            cache: Arc::new(SharedPlanCache::new()),
            engines: Engines::start(workers)?,
            default_deadline_ms: cfg.default_deadline_ms,
        });
        let acceptor = start_acceptor(listener, &shared)?;
        Ok(Server { addr, shared, acceptor: Some(acceptor) })
    }

    /// The bound address (resolve port 0 through this).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live counter snapshot.
    pub fn stats(&self) -> ServerStats {
        let rec = self.shared.front.recorder.lock().expect("recorder poisoned");
        stats_of(&rec, &self.shared.cache)
    }

    /// Graceful drain: stop accepting, answer everything admitted or in
    /// flight, wait for every connection to close, join the engine
    /// threads, and return the final metrics.
    pub fn drain(mut self) -> DrainReport {
        self.shared.front.stop(&mut self.acceptor);
        self.shared.engines.stop();
        let shared = &self.shared;
        let ((stats, exposition), trace) = shared
            .front
            .drain_trace(|rec| (stats_of(rec, &shared.cache), exposition_of(shared, rec)));
        DrainReport { stats, exposition, trace }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Not drained: still stop the threads so tests that merely start a
        // server cannot leak a spinning acceptor or idle engine threads.
        self.shared.front.stop(&mut self.acceptor);
        self.shared.engines.stop();
    }
}

fn stats_of(rec: &InMemoryRecorder, cache: &SharedPlanCache) -> ServerStats {
    ServerStats {
        admitted: rec.counter_value("serve.conns.admitted"),
        rejected: rec.counter_value("serve.conns.rejected"),
        completed: rec.counter_value("serve.requests.completed"),
        shared_hits: cache.hits(),
        shared_misses: cache.misses(),
        singleflight_followers: cache.singleflight_followers(),
    }
}

fn exposition_of(shared: &Shared, rec: &InMemoryRecorder) -> String {
    let cache = &shared.cache;
    let mut reg = shared.front.registry(rec);
    // The cache atomics are authoritative process totals (per-request
    // recorder merges could lag mid-flight).
    reg.set_counter("serve.cache.shared.hits", cache.hits());
    reg.set_counter("serve.cache.shared.misses", cache.misses());
    reg.set_counter("serve.planbuild_singleflight_followers", cache.singleflight_followers());
    if let Some(ratio) = cache.hit_ratio() {
        reg.set_gauge("serve.cache.hit_ratio", ratio);
    }
    reg.expose()
}

/// The wire form of a stage-span list: `{"queue_wait":1.5,...}`.
fn stages_value(stages: &[(&'static str, f64)]) -> Value {
    Value::Obj(stages.iter().map(|&(s, ms)| (s.to_string(), Value::Float(ms))).collect())
}

fn handle_request(shared: &Shared, line: &str) -> (String, ReqInfo) {
    let parse_started = Instant::now();
    let parsed = parse_request(line);
    let accept_ms = parse_started.elapsed().as_secs_f64() * 1e3;
    let (wire_trace, req) = match parsed {
        Ok(parsed) => parsed,
        Err(e) => {
            let info = ReqInfo {
                trace_id: mint_trace_id(),
                kind: "unparsed",
                ok: false,
                stages: vec![("accept", accept_ms)],
            };
            return (error_line(e.code(), &e.to_string(), None), info);
        }
    };
    // First ingress: a client (or the shard router) propagates its trace
    // context; requests without one get a server-assigned trace id.
    let trace_id = wire_trace.unwrap_or_else(mint_trace_id);
    let trace_hex = format!("{trace_id:016x}");
    let kind = req.kind();
    let mut stages = vec![("accept", accept_ms)];
    let (response, ok) = match req {
        Request::Simulate(req) => {
            let admit_started = Instant::now();
            let built = build_job(shared, &req);
            stages.push(("admit", admit_started.elapsed().as_secs_f64() * 1e3));
            match built.and_then(|job| execute_job(shared, job, &mut stages)) {
                Ok(mut payload) => {
                    payload.push(("trace_id".to_string(), Value::Str(trace_hex)));
                    payload.push(("stages".to_string(), stages_value(&stages)));
                    (result_line("simulate", req.id, payload), true)
                }
                Err((code, message)) => (error_line(&code, &message, req.id), false),
            }
        }
        Request::Metrics { id } => {
            let rec = shared.front.recorder.lock().expect("recorder poisoned");
            let exposition = exposition_of(shared, &rec);
            drop(rec);
            (
                result_line(
                    "metrics",
                    id,
                    vec![("exposition".to_string(), Value::Str(exposition))],
                ),
                true,
            )
        }
    };
    (response, ReqInfo { trace_id, kind, ok, stages })
}

/// Parse one spec into a runnable [`Job`] (the request's `admit` stage).
/// A spec that does not parse is the request's typed `bad-spec`.
fn build_job(shared: &Shared, req: &SimulateReq) -> Result<Job, (String, String)> {
    let guest =
        parse_graph(&req.guest).map_err(|e| ("bad-spec".to_string(), format!("guest: {e}")))?;
    let host =
        parse_graph(&req.host).map_err(|e| ("bad-spec".to_string(), format!("host: {e}")))?;
    let comp = GuestComputation::random(guest, req.seed);
    let deadline_ms = req.deadline_ms.unwrap_or(shared.default_deadline_ms);
    Ok(Job {
        comp,
        host,
        guest_spec: req.guest.clone(),
        host_spec: req.host.clone(),
        steps: req.steps,
        seed: req.seed,
        deadline_ms,
        token: CancelToken::with_deadline(Duration::from_millis(deadline_ms)),
    })
}

/// Run one job on an engine thread, appending its `queue_wait` (admission
/// to the start of its run) and the engine-side spans to `stages`.
///
/// Disjoint spans: the plan acquire (single-flight wait) and the plan
/// build are carved out of the engine's wall clock so a stage sum never
/// double-counts, and `simulate` is the rest — closed once the result is
/// back on the connection thread, with the run's protocol and recorder
/// freed on the engine thread.
///
/// The engine runs on an engine thread, so the connection thread only
/// parses and does I/O. A thread that just ran a simulation is last in
/// line for a busy core: had the connection thread run it, its next
/// request would sit unread until a core freed up (about 3 ms median in
/// E22 on two cores, outside every span).
fn execute_job(shared: &Shared, job: Job, stages: &mut Vec<(&'static str, f64)>) -> Payload {
    let admitted_at = Instant::now();
    let cache = Arc::clone(&shared.cache);
    let Some(run) = shared.engines.run(move || run_verified(&cache, job)) else {
        let mut rec = shared.front.recorder.lock().expect("recorder poisoned");
        rec.counter("serve.engine.panics", 1);
        return Err(("internal".to_string(), "the simulation panicked".to_string()));
    };
    let total_ms = run.started.elapsed().as_secs_f64() * 1e3;
    stages.push(("queue_wait", run.started.duration_since(admitted_at).as_secs_f64() * 1e3));
    if run.acquire_ms > 0.0 {
        stages.push(("singleflight_wait", run.acquire_ms));
    }
    if run.build_ms > 0.0 {
        stages.push(("plan_build", run.build_ms));
    }
    stages.push(("simulate", (total_ms - run.acquire_ms - run.build_ms).max(0.0)));
    // Fold the request's engine counters into the server-level registry
    // (recorder counters accumulate, so sim.* become process totals).
    let mut rec = shared.front.recorder.lock().expect("recorder poisoned");
    for (name, v) in run.counters {
        rec.counter(name, v);
    }
    run.payload
}

/// What [`run_verified`] hands back to the connection thread.
struct EngineRun {
    payload: Payload,
    /// When the engine thread took the job.
    started: Instant,
    /// Plan acquire and build times in milliseconds.
    acquire_ms: f64,
    build_ms: f64,
    /// The run's engine counters.
    counters: Vec<(&'static str, u64)>,
}

/// Run and verify one job on an engine thread. The payload's `wall_ms` is
/// run plus verify.
///
/// The run records into a [`SummaryRecorder`]: only its counters and the
/// `sim.plan.*` histogram sums are read here, so it builds no per-transfer
/// congestion series (about 45% of a cold request's plan build and
/// simulate time, measured on perfbench's `shard-cold`).
fn run_verified(cache: &SharedPlanCache, job: Job) -> EngineRun {
    let started = Instant::now();
    let router = unet_core::routers::presets::bfs();
    let mut local = SummaryRecorder::new();
    let run = Simulation::builder()
        .guest(&job.comp)
        .host(&job.host)
        .embedding(Embedding::block(job.comp.n(), job.host.n()))
        .router(&router)
        .steps(job.steps)
        .seed(job.seed)
        .threads(1)
        .cache_policy(CachePolicy::Enabled)
        .shared_cache(cache)
        .cancel_token(job.token.clone())
        .recorder(&mut local)
        .run();
    // Verification replays the protocol against the guest/host contract —
    // part of serving the request, so it happens inside the timed region
    // the `simulate` span is carved from.
    let verify_err =
        run.as_ref().ok().and_then(|r| r.verify(&job.comp, &job.host, job.steps).err());
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let shared_hit = local.counter_value("sim.cache.shared.hits") > 0;
    let acquire_ms =
        local.histogram_data("sim.plan.acquire_us").map_or(0.0, |h| h.sum as f64 / 1e3);
    let build_ms = local.histogram_data("sim.plan.build_us").map_or(0.0, |h| h.sum as f64 / 1e3);
    let payload = match (run, verify_err) {
        (Err(SimError::Cancelled), _) => Err((
            "deadline-exceeded".to_string(),
            format!("deadline of {} ms passed at a phase boundary", job.deadline_ms),
        )),
        (Err(e), _) => Err(("sim-error".to_string(), e.to_string())),
        (Ok(_), Some(e)) => Err(("verify-failed".to_string(), e.to_string())),
        (Ok(run), None) => Ok(vec![
            ("guest".to_string(), Value::Str(job.guest_spec)),
            ("host".to_string(), Value::Str(job.host_spec)),
            ("steps".to_string(), Value::UInt(job.steps as u64)),
            ("host_steps".to_string(), Value::UInt(run.protocol.host_steps() as u64)),
            ("comm_steps".to_string(), Value::UInt(run.comm_steps as u64)),
            ("compute_steps".to_string(), Value::UInt(run.compute_steps as u64)),
            ("slowdown".to_string(), Value::Float(run.slowdown())),
            ("inefficiency".to_string(), Value::Float(run.inefficiency())),
            ("shared_cache_hit".to_string(), Value::Bool(shared_hit)),
            ("verified".to_string(), Value::Bool(true)),
            ("wall_ms".to_string(), Value::Float(wall_ms)),
        ]),
    };
    EngineRun { payload, started, acquire_ms, build_ms, counters: local.counters().collect() }
}

#[cfg(test)]
mod tests {
    use super::Engines;
    use crate::conn::{retry_after_hint, RETRY_AFTER_FLOOR_MS};
    use unet_obs::{InMemoryRecorder, Recorder};

    #[test]
    fn an_engine_thread_survives_a_panicking_task() {
        let engines = Engines::start(1).expect("spawn");
        let first = std::thread::current().id();
        let engine = engines.run(|| std::thread::current().id()).expect("runs");
        assert_ne!(engine, first, "tasks run off the caller's thread");
        assert_eq!(engines.run(|| -> u32 { panic!("the run dies") }), None);
        // The same long-lived thread takes the next task.
        assert_eq!(engines.run(|| (std::thread::current().id(), 6 * 7)), Some((engine, 42)));
        engines.stop();
        assert_eq!(engines.run(|| 1), None, "a stopped pool runs nothing");
    }

    /// Regression: before any request latency lands, the hint used to be
    /// the 100 ms floor *multiplied by the drain rounds* — the very first
    /// rejected clients were told to back off for seconds based on no
    /// measurement at all. The zero-sample window now reports the bare
    /// floor.
    #[test]
    fn retry_after_hint_startup_window_reports_the_bare_floor() {
        let rec = InMemoryRecorder::new();
        assert_eq!(retry_after_hint(&rec, 64, 2), RETRY_AFTER_FLOOR_MS);
        assert_eq!(retry_after_hint(&rec, 1024, 1), RETRY_AFTER_FLOOR_MS);
        assert_eq!(retry_after_hint(&rec, 0, 4), RETRY_AFTER_FLOOR_MS);
    }

    #[test]
    fn retry_after_hint_scales_with_measured_latency_and_depth() {
        let mut rec = InMemoryRecorder::new();
        rec.histogram("serve.request.latency_ms", 10);
        // 8 queued through 2 workers = 4 rounds of ~10 ms each.
        assert_eq!(retry_after_hint(&rec, 8, 2), 40);
        // Depth 0 still suggests one round.
        assert_eq!(retry_after_hint(&rec, 0, 2), 10);
        // Sub-millisecond means still hint at least 1 ms.
        let mut fast = InMemoryRecorder::new();
        fast.histogram("serve.request.latency_ms", 0);
        assert_eq!(retry_after_hint(&fast, 4, 4), 1);
    }
}
