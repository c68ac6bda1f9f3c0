//! The sharding front-end behind `unet shard`: spec-affine routing
//! across a pool of backend `unet serve` shards.
//!
//! The paper routes arbitrary guest workloads onto a fixed host with
//! bounded slowdown; this module mirrors that one level up, routing
//! arbitrary request streams across a fixed pool of backend processes with
//! bounded tail latency. The design constraints, front to back:
//!
//! * **Spec affinity** — every `simulate` request is keyed by
//!   [`simulate_fingerprint`], a hash of its guest
//!   spec, host spec and seed as written, and the [`Ring`]
//!   consistent-hashes that key to a home shard. Repeats of a workload
//!   always land on the shard that already compiled its route plan, so
//!   cache hit ratios and build-lease coalescing survive the scale-out
//!   unchanged. The router parses no spec and runs no generator; a bad
//!   spec gets its typed `bad-spec` from the backend it lands on.
//! * **Health and failover** — the forwards themselves are the health
//!   checks; no thread probes in the background. A backend's first failed
//!   forward ejects it (its [`Client`] has already dialed three times and
//!   reconnected once). Once an ejected backend's backoff has run out, the
//!   next forward or `metrics` fan-out that reaches it tries it again, and
//!   an answer reinstates it. A request whose backend dies mid-flight (or
//!   answers `overloaded`) retries on the next shard in ring order, so a
//!   dead shard's keys spill onto its ring successor and nowhere else.
//! * **Connection front** — the acceptor, `queue_cap` connection slots,
//!   one thread per connection and the drain are the ones `unet serve`
//!   uses. A parsed request then takes one of `workers` forward permits
//!   (the wait is its `queue_wait` span), so an idle persistent connection
//!   holds nothing but its slot.
//! * **Aggregated metrics** — a `metrics` request fans out to every healthy
//!   backend (and to an ejected one whose backoff has run out) and merges
//!   the expositions under a `shard` label (the router's own counters
//!   appear as `shard="router"`).
//!
//! # Operating a sharded deployment
//!
//! The runbook below is executable: start two shards and a router, route
//! traffic through it, drain one shard mid-deployment, and watch the ring
//! fail over to the survivor with zero lost requests.
//!
//! ```
//! use unet_serve::{Server, ServeConfig};
//! use unet_serve::router::{Router, ShardConfig};
//! use unet_serve::client::Client;
//! use unet_serve::protocol::SimulateReq;
//!
//! // 1. Start the backend shards (in production: `unet serve`, or let
//! //    `unet shard --shards N` spawn and supervise them).
//! let shard_a = Server::start(ServeConfig::default()).expect("bind shard a");
//! let shard_b = Server::start(ServeConfig::default()).expect("bind shard b");
//!
//! // 2. Start the router in front of them (`unet shard --backend ...`).
//! let router = Router::start(ShardConfig {
//!     backends: vec![shard_a.addr().to_string(), shard_b.addr().to_string()],
//!     ..ShardConfig::default()
//! })
//! .expect("bind router");
//!
//! // 3. Clients talk to the router exactly as they would to one server.
//! let mut client = Client::connect(&router.addr().to_string()).expect("connect");
//! let spec = SimulateReq {
//!     guest: "ring:12".into(), host: "torus:2x2".into(),
//!     steps: 2, seed: 7, deadline_ms: None, id: None,
//! };
//! let before = client.simulate(&spec).expect("routed to the home shard");
//!
//! // 4. Drain one shard. Its in-flight requests are answered by the
//! //    drain; everything after fails over to the ring successor.
//! shard_a.drain();
//! let after = client.simulate(&spec).expect("absorbed by the surviving shard");
//! assert_eq!(before.host_steps, after.host_steps, "failover preserves results");
//!
//! // 5. Observe the deployment: the aggregated exposition labels every
//! //    series with the shard that produced it.
//! let exposition = client.metrics().expect("aggregated metrics");
//! assert!(exposition.contains("shard=\""), "series carry shard labels");
//!
//! drop(client);
//! router.drain();
//! shard_b.drain();
//! ```

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::client::Client;
use crate::conn::{
    start_acceptor, Acceptor, Front, Permits, ReqInfo, RequestTrace, Tier, SHARD_NAMES,
};
use crate::protocol::{
    error_line, metrics_request_line, mint_trace_id, parse_request, parse_response, result_line,
    simulate_request_line, Request, Response, SimulateReq,
};
use crate::ring::{fnv1a, Ring};
use unet_obs::json::Value;
use unet_obs::tailsample::DEFAULT_HEAD_PERMILLE;
use unet_obs::{InMemoryRecorder, Recorder};
use unet_topology::par::default_threads;

/// Router configuration (all fields except `backends` have serviceable
/// defaults; `backends` must name at least one `unet serve` address).
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Bind address of the router; port 0 picks a free port (the default).
    pub addr: String,
    /// Forward permits: how many client requests are forwarded at once
    /// across all connections (default: [`default_threads`]).
    pub workers: usize,
    /// Open-connection bound; 0 rejects every connection (default 64).
    pub queue_cap: usize,
    /// Backend shard addresses, in ring order. Position in this vector is
    /// the shard's identity (the `shard` metrics label and ring index).
    pub backends: Vec<String>,
    /// Head-sampling rate for the router's per-request stage records, in
    /// permille (default [`DEFAULT_HEAD_PERMILLE`]). The same trace id
    /// hashes to the same coin on router and backends, so a head-sampled
    /// request is kept on every tier.
    pub head_sample_permille: u32,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: default_threads(),
            queue_cap: 64,
            backends: Vec::new(),
            head_sample_permille: DEFAULT_HEAD_PERMILLE,
        }
    }
}

/// Counter snapshot of a running (or drained) router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterStats {
    /// Requests forwarded to a backend (first attempts, not retries).
    pub forwarded: u64,
    /// Answers produced for clients (any response kind except the
    /// router's own `overloaded` admission rejection), counted before the
    /// answer is written.
    pub completed: u64,
    /// Forwards that had to retry on a ring successor (backend dead or
    /// overloaded mid-request).
    pub failovers: u64,
    /// `overloaded` rejections from one shard absorbed by a healthier
    /// ring successor.
    pub overloads_absorbed: u64,
    /// Backends ejected by a failed forward.
    pub ejected: u64,
    /// Ejected backends reinstated by an answer once their backoff ran out.
    pub reinstated: u64,
    /// Configured backend count.
    pub backends: u64,
    /// Backends currently in rotation.
    pub healthy: u64,
}

/// What a router drain hands back.
#[derive(Debug, Clone)]
pub struct RouterDrainReport {
    /// Final counter snapshot.
    pub stats: RouterStats,
    /// Final Prometheus exposition of the router's own registry (backend
    /// registries are live-aggregated by the `metrics` request kind, not
    /// replayed here).
    pub exposition: String,
    /// The router's request trace, including the tail-sampled per-request
    /// stage records (`forward`, `retry`, `failover`, …), rendered by
    /// [`RequestTrace::write_to`] — merge it with backend drain traces in
    /// `unet trace-requests` to see one trace id's full waterfall across
    /// the tier.
    pub trace: RequestTrace,
}

/// Reinstatement backoff starts here and doubles per failed retry...
const BACKOFF_BASE: Duration = Duration::from_millis(100);
/// ...up to this cap.
const MAX_BACKOFF: Duration = Duration::from_millis(5_000);

/// Reinstatement backoff state of one ejected backend.
struct Backoff {
    /// Doublings applied so far.
    exp: u32,
    /// Earliest instant a forward may try the backend again.
    until: Instant,
}

impl Backoff {
    /// Hold retries off for the next doubling step (capped at
    /// [`MAX_BACKOFF`]), then advance the step.
    fn arm(&mut self) {
        let wait = BACKOFF_BASE
            .checked_mul(1u32 << self.exp.min(16))
            .unwrap_or(MAX_BACKOFF)
            .min(MAX_BACKOFF);
        self.until = Instant::now() + wait;
        self.exp = self.exp.saturating_add(1);
    }
}

/// One backend shard: its address, its idle connections, and its health
/// state.
struct Backend {
    addr: String,
    /// Open connections checked in between forwards. Reusing them spares
    /// every forward a connect and a backend connection thread.
    idle: Mutex<Vec<Client>>,
    healthy: AtomicBool,
    backoff: Mutex<Backoff>,
}

impl Backend {
    /// Whether a forward that reaches this backend tries it: always while
    /// it is healthy, and once per backoff period while it is ejected. The
    /// forward that finds the backoff run out re-arms it, doubled, before
    /// it dials, so concurrent forwards do not all try a dead backend.
    fn admits_forward(&self) -> bool {
        if self.healthy.load(Ordering::SeqCst) {
            return true;
        }
        let mut backoff = self.backoff.lock().expect("backoff poisoned");
        if Instant::now() < backoff.until {
            return false;
        }
        backoff.arm();
        true
    }
}

struct RouterShared {
    front: Front,
    backends: Vec<Backend>,
    ring: Ring,
    /// One permit per client request being forwarded (`workers` of them).
    forwards: Arc<Permits>,
}

impl Tier for RouterShared {
    fn front(&self) -> &Front {
        &self.front
    }

    fn handle(&self, line: &str) -> (String, ReqInfo) {
        route_request(self, line)
    }
}

/// A running shard router; construct with [`Router::start`], stop with
/// [`Router::drain`].
pub struct Router {
    addr: SocketAddr,
    shared: Arc<RouterShared>,
    acceptor: Option<Acceptor>,
}

impl Router {
    /// Bind, spawn the acceptor, and return immediately. Fails if
    /// `cfg.backends` is empty.
    pub fn start(cfg: ShardConfig) -> std::io::Result<Router> {
        if cfg.backends.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a shard router needs at least one --backend address",
            ));
        }
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let workers = cfg.workers.max(1);
        let now = Instant::now();
        let backends: Vec<Backend> = cfg
            .backends
            .iter()
            .map(|addr| Backend {
                addr: addr.clone(),
                idle: Mutex::new(Vec::new()),
                healthy: AtomicBool::new(true),
                backoff: Mutex::new(Backoff { exp: 0, until: now }),
            })
            .collect();
        let shared = Arc::new(RouterShared {
            front: Front::new(&SHARD_NAMES, cfg.queue_cap, workers, cfg.head_sample_permille),
            ring: Ring::new(backends.len()),
            backends,
            forwards: Permits::new(workers),
        });
        {
            let mut rec = shared.front.recorder.lock().expect("recorder poisoned");
            rec.gauge("shard.backends", shared.backends.len() as f64);
        }
        let acceptor = start_acceptor(listener, &shared)?;
        Ok(Router { addr, shared, acceptor: Some(acceptor) })
    }

    /// The bound address (resolve port 0 through this).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live counter snapshot.
    pub fn stats(&self) -> RouterStats {
        let rec = self.shared.front.recorder.lock().expect("recorder poisoned");
        router_stats_of(&rec, &self.shared)
    }

    /// Graceful drain: stop accepting, answer everything admitted or in
    /// flight, join all threads, and return the final counters. The
    /// backends are left running — draining them is their owner's call
    /// (the `unet shard` CLI drains the shards it spawned itself).
    pub fn drain(mut self) -> RouterDrainReport {
        self.shared.front.stop(&mut self.acceptor);
        let shared = &self.shared;
        let ((stats, exposition), trace) = shared.front.drain_trace(|rec| {
            (
                router_stats_of(rec, shared),
                // Labeled `shard="router"` like the live aggregation, so
                // drain output concatenates cleanly with backend
                // expositions in one scrape namespace.
                merge_expositions(&[("router".to_string(), router_exposition_of(rec, shared))]),
            )
        });
        RouterDrainReport { stats, exposition, trace }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        // Not drained: still stop the threads so tests that merely start a
        // router cannot leak a spinning acceptor.
        self.shared.front.stop(&mut self.acceptor);
    }
}

fn router_stats_of(rec: &InMemoryRecorder, shared: &RouterShared) -> RouterStats {
    RouterStats {
        forwarded: rec.counter_value("shard.requests.forwarded"),
        completed: rec.counter_value("shard.requests.completed"),
        failovers: rec.counter_value("shard.failovers"),
        overloads_absorbed: rec.counter_value("shard.overloads.absorbed"),
        ejected: rec.counter_value("shard.backends.ejected"),
        reinstated: rec.counter_value("shard.backends.reinstated"),
        backends: shared.backends.len() as u64,
        healthy: shared.backends.iter().filter(|b| b.healthy.load(Ordering::SeqCst)).count() as u64,
    }
}

/// The router's own registry, unlabeled — `handle_metrics` and
/// [`Router::drain`] both label it `shard="router"` when they emit it.
/// The per-stage `shard.stage.*_us` histograms recorded by every handled
/// request surface here as the router's stage breakdown.
fn router_exposition_of(rec: &InMemoryRecorder, shared: &RouterShared) -> String {
    let mut reg = shared.front.registry(rec);
    reg.set_gauge(
        "shard.backends.healthy",
        shared.backends.iter().filter(|b| b.healthy.load(Ordering::SeqCst)).count() as f64,
    );
    reg.expose()
}

/// The ring key of a spec: FNV-1a over its seed, guest spec and host spec
/// as written. Placing a request parses nothing and runs no generator, so
/// it never returns `Err`. Two spellings of one graph (`random:16x4` and
/// `random:16x4:0`) may land on different shards, and each then builds
/// that plan once.
pub fn simulate_fingerprint(req: &SimulateReq) -> Result<u64, String> {
    Ok(spec_key(req))
}

pub(crate) fn spec_key(req: &SimulateReq) -> u64 {
    // The seed goes first: FNV-1a only spreads a byte into the high bits
    // (which pick the ring point) through the multiplications after it.
    // 0xff never occurs in UTF-8, so it separates the fields unambiguously.
    fnv1a(&[&req.seed.to_le_bytes(), req.guest.as_bytes(), &[0xff], req.host.as_bytes()])
}

/// Outcome of one forward attempt to one backend.
enum ForwardOutcome {
    /// The backend answered (any kind except `overloaded`), with the
    /// payload when the answer is a `result`.
    Answered(String, Option<Value>),
    /// The backend rejected the connection with `overloaded`; the raw
    /// line is kept so it can pass through if every shard is saturated.
    Overloaded(String),
}

/// One round trip to backend `i` on an idle connection (dialing when none
/// is idle): forward the line, classify, and update the backend's health.
/// An `overloaded` answer closes the backend side and a transport error
/// burns the connection, so only a connection that answered is checked
/// back in.
fn try_forward(shared: &RouterShared, i: usize, line: &str) -> Result<ForwardOutcome, ()> {
    let backend = &shared.backends[i];
    let idle = backend.idle.lock().expect("pool poisoned").pop();
    let answered = idle
        .map_or_else(|| Client::connect(&backend.addr), Ok)
        .and_then(|mut client| client.request_raw(line).map(|resp| (client, resp)));
    let Ok((client, resp)) = answered else {
        record_failure(shared, i);
        return Err(());
    };
    let result = match parse_response(&resp) {
        // Saturation is not sickness: an overloaded shard is alive and
        // explicitly shedding, so its health stays as it was.
        Ok(Response::Overloaded { .. }) => return Ok(ForwardOutcome::Overloaded(resp)),
        Ok(Response::Result(v)) => Some(v),
        _ => None,
    };
    backend.idle.lock().expect("pool poisoned").push(client);
    record_success(shared, i);
    Ok(ForwardOutcome::Answered(resp, result))
}

/// Note a failed forward. The first one ejects a healthy backend (its
/// [`Client`] already retried the dial) and arms the reinstatement
/// backoff; a failed retry of an ejected backend changes nothing, since
/// its backoff was re-armed before the dial.
fn record_failure(shared: &RouterShared, i: usize) {
    let backend = &shared.backends[i];
    if backend.healthy.swap(false, Ordering::SeqCst) {
        backend.backoff.lock().expect("backoff poisoned").arm();
        // A dead backend's pooled connections are dead too.
        backend.idle.lock().expect("pool poisoned").clear();
        let mut rec = shared.front.recorder.lock().expect("recorder poisoned");
        rec.counter("shard.backends.ejected", 1);
    }
}

/// Note an answered forward; reinstates the backend if it was ejected.
fn record_success(shared: &RouterShared, i: usize) {
    let backend = &shared.backends[i];
    if !backend.healthy.swap(true, Ordering::SeqCst) {
        backend.backoff.lock().expect("backoff poisoned").exp = 0;
        let mut rec = shared.front.recorder.lock().expect("recorder poisoned");
        rec.counter("shard.backends.reinstated", 1);
    }
}

/// Forward `line` along the failover order of `key` (ring successor
/// order). The first pass skips the backends that do not
/// [admit the forward](Backend::admits_forward); the second tries them
/// anyway if nothing in the first pass answered. Bounded: every backend
/// is attempted at most once.
///
/// Attempt wall time lands in `spans`: the first attempt is the
/// `forward` span; later attempts are `retry` when the previous shard
/// shed the request (overload) and `failover` when it was unreachable.
/// Returns the answer and whether it is a `result`.
fn forward_with_failover(
    shared: &RouterShared,
    key: u64,
    line: &str,
    id: Option<u64>,
    spans: &mut Vec<(&'static str, f64)>,
) -> (String, bool) {
    let order = shared.ring.successors(key);
    {
        let mut rec = shared.front.recorder.lock().expect("recorder poisoned");
        rec.counter("shard.requests.forwarded", 1);
    }
    let mut last_overloaded: Option<String> = None;
    let mut attempts = 0u64;
    let (mut forward_ms, mut retry_ms, mut failover_ms) = (0.0f64, 0.0f64, 0.0f64);
    let mut next_is_retry = false;
    let mut response: Option<(String, bool)> = None;
    let mut tried = vec![false; shared.backends.len()];
    'order: for pass in 0..2 {
        for &i in &order {
            // Pass 0 trusts the health view; pass 1 is the last resort
            // when nothing in pass 0 answered — it tries the ejected
            // shards pass 0 skipped rather than failing a request on
            // stale health data.
            if tried[i] || (pass == 0 && !shared.backends[i].admits_forward()) {
                continue;
            }
            tried[i] = true;
            attempts += 1;
            let attempt_started = Instant::now();
            let outcome = try_forward(shared, i, line);
            let attempt_ms = attempt_started.elapsed().as_secs_f64() * 1e3;
            if attempts == 1 {
                forward_ms += attempt_ms;
            } else if next_is_retry {
                retry_ms += attempt_ms;
            } else {
                failover_ms += attempt_ms;
            }
            match outcome {
                Ok(ForwardOutcome::Answered(resp, result)) => {
                    if attempts > 1 {
                        let mut rec = shared.front.recorder.lock().expect("recorder poisoned");
                        rec.counter("shard.failovers", 1);
                        if last_overloaded.is_some() {
                            rec.counter("shard.overloads.absorbed", 1);
                        }
                    }
                    response = Some((resp, result.is_some()));
                    break 'order;
                }
                Ok(ForwardOutcome::Overloaded(resp)) => {
                    // The shard keeps its health but loses this request
                    // to a ring successor.
                    last_overloaded = Some(resp);
                    next_is_retry = true;
                }
                Err(()) => next_is_retry = false,
            }
        }
    }
    if forward_ms > 0.0 {
        spans.push(("forward", forward_ms));
    }
    if retry_ms > 0.0 {
        spans.push(("retry", retry_ms));
    }
    if failover_ms > 0.0 {
        spans.push(("failover", failover_ms));
    }
    if let Some(answer) = response {
        return answer;
    }
    if let Some(resp) = last_overloaded {
        // Every shard is saturated: pass the typed backpressure through
        // so the client's `retry_after_ms` loop takes over.
        return (resp, false);
    }
    let message = "no backend shard answered (all ejected or unreachable)";
    (error_line("unavailable", message, id), false)
}

/// Dispatch one client line. A parsed request first takes a forward
/// permit (its `queue_wait` span). A `simulate` is forwarded under the
/// request's trace id (the client's, else one minted here), so the
/// backend records its stage spans under the id the router samples.
/// A line that does not parse gets the same typed error a single server
/// would answer, without a forward.
fn route_request(shared: &RouterShared, line: &str) -> (String, ReqInfo) {
    let parse_started = Instant::now();
    let parsed = parse_request(line);
    let accept_ms = parse_started.elapsed().as_secs_f64() * 1e3;
    let mut stages = vec![("accept", accept_ms)];
    let (response, ok, trace_id, kind) = match parsed {
        Ok((wire_trace, req)) => {
            let trace_id = wire_trace.unwrap_or_else(mint_trace_id);
            let trace_hex = format!("{trace_id:016x}");
            let wait_started = Instant::now();
            let _permit = shared.forwards.acquire();
            stages.push(("queue_wait", wait_started.elapsed().as_secs_f64() * 1e3));
            let ((response, ok), kind) = match req {
                Request::Metrics { id } => ((handle_metrics(shared, id), true), "metrics"),
                Request::Simulate(req) => {
                    let fwd = simulate_request_line(&req, Some(&trace_hex));
                    let key = spec_key(&req);
                    (forward_with_failover(shared, key, &fwd, req.id, &mut stages), "simulate")
                }
            };
            (response, ok, trace_id, kind)
        }
        Err(e) => {
            let response = error_line(e.code(), &e.to_string(), None);
            (response, false, mint_trace_id(), "unparsed")
        }
    };
    (response, ReqInfo { trace_id, kind, ok, stages })
}

/// Serve `metrics` by fanning out to every backend that
/// [admits the forward](Backend::admits_forward) and merging the
/// expositions under a `shard` label; the router's own registry rides
/// along as `shard="router"`.
fn handle_metrics(shared: &RouterShared, id: Option<u64>) -> String {
    let mut sections: Vec<(String, String)> = Vec::new();
    let line = metrics_request_line(None, None);
    for (i, backend) in shared.backends.iter().enumerate() {
        if !backend.admits_forward() {
            continue;
        }
        if let Ok(ForwardOutcome::Answered(_, Some(v))) = try_forward(shared, i, &line) {
            if let Some(expo) = v.get("exposition").and_then(Value::as_str) {
                sections.push((i.to_string(), expo.to_string()));
            }
        }
    }
    let own = {
        let rec = shared.front.recorder.lock().expect("recorder poisoned");
        router_exposition_of(&rec, shared)
    };
    sections.push(("router".to_string(), own));
    result_line(
        "metrics",
        id,
        vec![("exposition".to_string(), Value::Str(merge_expositions(&sections)))],
    )
}

/// Merge per-shard Prometheus expositions into one: every series gains a
/// `shard="<label>"` label, families keep one `# TYPE` header (the first
/// seen wins), and output order is deterministic — families sorted by
/// name, series within a family in section order. `# EXEMPLAR` comment
/// lines survive the merge with the same shard label so exemplar
/// trace_ids stay addressable from the aggregated exposition.
pub fn merge_expositions(sections: &[(String, String)]) -> String {
    /// Inject `shard="<label>"` as the first label of `series`.
    fn shard_labeled(series: &str, label: &str) -> String {
        match series.find('{') {
            Some(brace) => {
                format!("{}{{shard=\"{label}\",{}", &series[..brace], &series[brace + 1..])
            }
            None => format!("{series}{{shard=\"{label}\"}}"),
        }
    }
    // family -> (type, series lines in arrival order, exemplar lines)
    let mut families: BTreeMap<String, (String, Vec<String>, Vec<String>)> = BTreeMap::new();
    for (label, exposition) in sections {
        for line in exposition.lines() {
            if let Some(header) = line.strip_prefix("# TYPE ") {
                let mut parts = header.splitn(2, ' ');
                let (Some(name), Some(kind)) = (parts.next(), parts.next()) else { continue };
                families
                    .entry(name.to_string())
                    .or_insert_with(|| (kind.to_string(), Vec::new(), Vec::new()));
            } else if let Some(exemplar) = line.strip_prefix("# EXEMPLAR ") {
                let mut parts = exemplar.rsplitn(2, ' ');
                let (Some(value), Some(series)) = (parts.next(), parts.next()) else { continue };
                let name = series.split('{').next().unwrap_or(series).to_string();
                let labeled = shard_labeled(series, label);
                families
                    .entry(name)
                    .or_insert_with(|| ("untyped".to_string(), Vec::new(), Vec::new()))
                    .2
                    .push(format!("# EXEMPLAR {labeled} {value}"));
            } else if !line.trim().is_empty() && !line.starts_with('#') {
                let mut parts = line.rsplitn(2, ' ');
                let (Some(value), Some(series)) = (parts.next(), parts.next()) else { continue };
                let name = series.split('{').next().unwrap_or(series).to_string();
                let labeled = shard_labeled(series, label);
                families
                    .entry(name)
                    .or_insert_with(|| ("untyped".to_string(), Vec::new(), Vec::new()))
                    .1
                    .push(format!("{labeled} {value}"));
            }
        }
    }
    let mut out = String::new();
    for (name, (kind, series, exemplars)) in &families {
        out.push_str(&format!("# TYPE {name} {kind}\n"));
        for line in series {
            out.push_str(line);
            out.push('\n');
        }
        for line in exemplars {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merged_expositions_label_every_series_and_keep_one_header() {
        let a = "# TYPE unet_serve_conns_admitted counter\nunet_serve_conns_admitted 3\n";
        let b = "# TYPE unet_serve_conns_admitted counter\nunet_serve_conns_admitted 5\n\
                 # TYPE unet_phase_seconds_total counter\n\
                 unet_phase_seconds_total{phase=\"sim.comm\"} 0.25\n";
        let merged = merge_expositions(&[("0".into(), a.into()), ("1".into(), b.into())]);
        assert_eq!(
            merged.matches("# TYPE unet_serve_conns_admitted counter").count(),
            1,
            "one header per family:\n{merged}"
        );
        assert!(merged.contains("unet_serve_conns_admitted{shard=\"0\"} 3"), "{merged}");
        assert!(merged.contains("unet_serve_conns_admitted{shard=\"1\"} 5"), "{merged}");
        assert!(
            merged.contains("unet_phase_seconds_total{shard=\"1\",phase=\"sim.comm\"} 0.25"),
            "existing labels keep their places:\n{merged}"
        );
        // Deterministic: same input, same bytes.
        assert_eq!(merged, merge_expositions(&[("0".into(), a.into()), ("1".into(), b.into())]));
    }

    #[test]
    fn fingerprint_matches_across_identical_specs_and_separates_seeds() {
        let spec = |seed| SimulateReq {
            guest: "ring:12".into(),
            host: "torus:2x2".into(),
            steps: 2,
            seed,
            deadline_ms: None,
            id: None,
        };
        let key = |req: &SimulateReq| simulate_fingerprint(req).expect("every spec has a key");
        assert_eq!(key(&spec(7)), key(&spec(7)));
        // Guest, host and seed each change the key; a spec no generator
        // accepts still gets one (its backend answers `bad-spec`).
        let mut guest = spec(7);
        guest.guest = "blah:9".into();
        let mut host = spec(7);
        host.host = "torus:3x3".into();
        for other in [guest, host, spec(8)] {
            assert_ne!(key(&spec(7)), key(&other), "{other:?}");
        }
    }
}
