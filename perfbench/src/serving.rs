//! The serving workloads: an in-process `Server` (and, for `shard-cold`, an
//! in-process `Router` over two of them) driven by one closed-loop client.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use unet_core::CachePolicy;
use unet_serve::protocol::{parse_request, parse_response, simulate_request_line, SimulateReq};
use unet_serve::router::simulate_fingerprint;
use unet_serve::{Client, ClientError, Router, ServeConfig, Server, ShardConfig, SimulateResult};

use crate::engine::{self, Built, Spec};
use crate::layers::Layers;
use crate::speed::Speed;
use crate::stats::{mean, peak_rss_mb, Tally};
use crate::{Outcome, RunConfig, BLOCK, MIN_ITEMS, WARMUP};

/// No round trip on these workloads comes near this; a hung server fails
/// the run instead of stalling it.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// `serve-oneshot` times one more set-up every this many blocks (2 s), so
/// the median `setup_s` spans the same stretch of the run as the items.
/// Set-ups timed only at process start moved by a fifth between the
/// medians of two ten-run sets.
const SETUP_EVERY: usize = 4;

/// Requests in a set-up's warm-up, after the first (cold) one: about 60 ms
/// of round trips, so the 0–5 ms the first accept waits for the accept
/// loop's poll moves `setup_s` by a few percent, not twofold.
const WARM_ONESHOT: usize = 12;

/// Repetitions of the outside-in parse timers.
const PARSE_REPS: u32 = 2000;

/// One backend as `unet serve --workers 1` configures it.
fn backend_config() -> ServeConfig {
    ServeConfig { workers: 1, ..ServeConfig::default() }
}

fn request(spec: &Spec) -> SimulateReq {
    SimulateReq {
        guest: spec.guest.clone(),
        host: spec.host.clone(),
        steps: spec.steps,
        seed: spec.seed,
        deadline_ms: None,
        id: None,
    }
}

fn connect(addr: &str) -> Result<Client, String> {
    Client::connect(addr).map(|c| c.timeout(CLIENT_TIMEOUT)).map_err(|e| e.to_string())
}

/// A served result counts only when it is certified and matches the
/// in-process run of the same spec.
fn accepted(res: Result<SimulateResult, ClientError>, host_steps: u64) -> Option<SimulateResult> {
    res.ok().filter(|r| r.verified && r.host_steps == host_steps)
}

/// Per-stage sums over the traced items of a run.
#[derive(Debug, Default)]
struct StageSums {
    items: u64,
    item_ms: f64,
    connect_ms: f64,
    stages: BTreeMap<String, f64>,
}

impl StageSums {
    fn add(&mut self, r: &SimulateResult, item_ms: f64, connect_ms: f64) {
        self.items += 1;
        self.item_ms += item_ms;
        self.connect_ms += connect_ms;
        for (stage, ms) in &r.stages {
            *self.stages.entry(stage.clone()).or_default() += ms;
        }
    }

    /// Mean stage times, the wire remainder (item − connect − Σ stages) and
    /// their shares of the mean item time.
    fn record(&self, layers: &mut Layers) -> f64 {
        let n = self.items.max(1) as f64;
        let item_ms = self.item_ms / n;
        let staged: f64 = self.stages.values().sum::<f64>() / n;
        // `serialize` is timed after the response is written, so it never
        // reaches the client; the wire remainder absorbs it.
        for stage in
            ["accept", "queue_wait", "dispatch", "singleflight_wait", "plan_build", "simulate"]
        {
            let ms = self.stages.get(stage).copied().unwrap_or(0.0) / n;
            layers.set(&format!("serve.stage.{stage}_ms"), ms);
        }
        layers.set("serve.connect_ms", self.connect_ms / n);
        layers.set("serve.wire_ms", item_ms - self.connect_ms / n - staged);
        layers.set("obs.item_ms", item_ms);
        item_ms
    }
}

/// Mean microseconds of `f` over [`PARSE_REPS`] calls.
fn time_us(mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..PARSE_REPS {
        f();
    }
    t.elapsed().as_secs_f64() * 1e6 / PARSE_REPS as f64
}

/// Outside-in timers shared by the serving workloads: the engine layers on
/// the workload's own spec, and the wire parsers on its request and a
/// response line it received.
fn record_common(
    layers: &mut Layers,
    spec: &Spec,
    reps: usize,
    response: &str,
) -> Result<(), String> {
    engine::profile(&Built::new(spec)?, spec, reps, layers)?;
    let line = simulate_request_line(&request(spec), Some("00000000000000aa"));
    layers.set(
        "serve.parse_request_us",
        time_us(|| {
            std::hint::black_box(parse_request(std::hint::black_box(&line)).is_ok());
        }),
    );
    layers.set(
        "serve.parse_response_us",
        time_us(|| {
            std::hint::black_box(parse_response(std::hint::black_box(response)).is_ok());
        }),
    );
    Ok(())
}

/// The workload spec of `serve-oneshot`: a small guest whose route plan
/// every request after the first finds in the shared cache.
pub fn small_spec(seed: u64) -> Spec {
    Spec::served("ring:24".to_string(), "torus:3x3".to_string(), 3, seed)
}

/// One item as `unet request` does it: a round trip on a fresh connection,
/// closed afterwards. Returns the item's wall time and connect time in ms
/// with the judged result.
fn round_trip(
    addr: &str,
    req: &SimulateReq,
    host_steps: u64,
) -> (f64, f64, Option<SimulateResult>) {
    let t = Instant::now();
    let mut fresh = match connect(addr) {
        Ok(c) => c,
        Err(_) => return (t.elapsed().as_secs_f64() * 1e3, 0.0, None),
    };
    let connect_ms = t.elapsed().as_secs_f64() * 1e3;
    let r = accepted(fresh.simulate(req), host_steps);
    drop(fresh);
    (t.elapsed().as_secs_f64() * 1e3, connect_ms, r)
}

pub fn serve_oneshot(cfg: &RunConfig) -> Result<Outcome, String> {
    let spec = small_spec(cfg.seed);
    let want = engine::reference(&spec)?;
    let pinned = engine::pins_hold("serve-oneshot", cfg.seed)?;
    let req = request(&spec);

    let set_up = || -> Result<(Server, String), String> {
        let server = Server::start(backend_config()).map_err(|e| e.to_string())?;
        let addr = server.addr().to_string();
        for _ in 0..=WARM_ONESHOT {
            if round_trip(&addr, &req, want.host_steps).2.is_none() {
                return Err("a warm-up request failed".to_string());
            }
        }
        Ok((server, addr))
    };
    // serve-oneshot mostly waits on the accept poll's sleep, which the
    // machine's speed does not stretch, so its times stay wall times; the
    // traced run still reports the speed seen (see `speed`).
    let mut speed = Speed::start();
    let t = Instant::now();
    let (server, addr) = set_up()?;
    let mut setups = vec![t.elapsed().as_secs_f64()];

    let warm_until = Instant::now() + WARMUP;
    while Instant::now() < warm_until {
        round_trip(&addr, &req, want.host_steps);
    }

    let mut tally = Tally::default();
    let mut items = Vec::new();
    let mut sums = StageSums::default();
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    let mut traced = false;
    let started = Instant::now();
    for n in 1.. {
        if started.elapsed().as_secs_f64() >= cfg.seconds
            && items.len() >= MIN_ITEMS
            && (!cfg.trace || sums.items > 0)
        {
            break;
        }
        if n % SETUP_EVERY == 0 {
            // A fresh server beside the idle measured one: start, warm up,
            // then drain it outside any block.
            let t = Instant::now();
            let (extra, _) = set_up()?;
            setups.push(t.elapsed().as_secs_f64());
            extra.drain();
        }
        let block = Instant::now();
        while block.elapsed() < BLOCK {
            let (ms, connect_ms, r) = round_trip(&addr, &req, want.host_steps);
            tally.record(r.is_some());
            match r {
                Some(r) if traced => sums.add(&r, ms, connect_ms),
                Some(_) => items.push(ms),
                None => {}
            }
        }
        *if traced { &mut traced_s } else { &mut plain_s } += block.elapsed().as_secs_f64();
        traced = cfg.trace && !traced;
    }
    let mut out = Outcome::new(tally, pinned);
    if !cfg.trace {
        server.drain();
        out.end_to_end(&items, plain_s, &setups, peak_rss_mb()?)?;
        return Ok(out);
    }
    let line = simulate_request_line(&req, None);
    let response = connect(&addr)?.request_raw(&line).map_err(|e| e.to_string())?;
    let stats = server.stats();
    server.drain();
    let mut layers = Layers::default();
    speed.segment();
    layers.set("obs.speed_factor", speed.median_factor());
    record_common(&mut layers, &spec, 50, &response)?;
    let item_ms = sums.record(&mut layers);
    let plain_ips = items.len() as f64 / plain_s;
    layers.set("obs.trace_overhead", 1.0 - sums.items as f64 / traced_s / plain_ips);
    layers.set("serve.cache_hit_ratio", stats.hit_ratio().unwrap_or(0.0));
    layers.set("serve.singleflight_followers", stats.singleflight_followers as f64);
    layers.set("serve.rejected", stats.rejected as f64);
    layers.shares(item_ms);
    out.per_layer(layers);
    Ok(out)
}

/// Requests per `shard-cold` epoch. Every epoch runs on
/// a freshly started router and backends, so the plan caches — which never
/// evict — hold one epoch of distinct workloads at most, and peak memory
/// does not depend on how many requests a faster build fits in a run.
const EPOCH: usize = 400;

/// Requests per measured segment: the machine's speed is probed between
/// segments (about half a second apart), outside their timed region.
const SEGMENT: usize = 50;

/// Fresh-seed warm-up requests at the start of an epoch.
const EPOCH_WARM: u64 = 8;

/// Seed of request `k` in stream `stream` (0: warm-up, 1: measured).
pub fn request_seed(seed: u64, stream: u64, k: u64) -> u64 {
    let mut z =
        seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) >> 1
}

pub fn cold_spec(seed: u64) -> Spec {
    Spec::served(format!("random:256x4:{seed}"), "butterfly:4".to_string(), 3, seed)
}

/// A served result before the in-process comparison: request seed, wall
/// ms, and the reported host steps (`None` for a failed request).
struct Served {
    seed: u64,
    ms: f64,
    host_steps: Option<u64>,
}

/// How many served results `shard-cold` re-runs in-process to compare
/// host steps, spread evenly over the run. Every result is also certified
/// by the backend's own checker (`verified`).
const CROSS_CHECKS: usize = 200;

struct Tier {
    backends: Vec<Server>,
    router: Router,
}

impl Tier {
    fn start() -> Result<Tier, String> {
        let backends = (0..2)
            .map(|_| Server::start(backend_config()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let router = Router::start(ShardConfig {
            workers: 2,
            backends: backends.iter().map(|b| b.addr().to_string()).collect(),
            ..ShardConfig::default()
        })
        .map_err(|e| e.to_string())?;
        Ok(Tier { backends, router })
    }

    fn drain(self) {
        self.router.drain();
        for b in self.backends {
            b.drain();
        }
    }
}

/// Counters summed over a run's epochs.
#[derive(Debug, Default)]
struct TierCounts {
    forwarded: u64,
    retries: u64,
    failovers: u64,
    per_shard: [u64; 2],
    hits: u64,
    misses: u64,
    followers: u64,
    rejected: u64,
}

pub fn shard_cold(cfg: &RunConfig) -> Result<Outcome, String> {
    let first = cold_spec(request_seed(cfg.seed, 1, 0));
    let pinned = engine::pins_hold("shard-cold", cfg.seed)?;

    let mut setups = Vec::new();
    let mut served: Vec<Served> = Vec::new();
    let mut sums = StageSums::default();
    let mut counts = TierCounts::default();
    let (mut untraced, mut untraced_s, mut traced_s) = (0usize, 0.0, 0.0);
    // Wall seconds measured: the run's length follows the wall clock, not
    // the reference-speed time.
    let mut wall_s = 0.0;
    let mut response = String::new();
    let mut epoch = 0u64;
    let mut first_epoch_rss_mb = 0.0;
    let mut speed = Speed::start();
    // A traced run alternates untraced and traced epochs and needs both.
    while wall_s < cfg.seconds || served.len() < MIN_ITEMS || (cfg.trace && epoch < 2) {
        let t = Instant::now();
        let tier = Tier::start()?;
        let addr = tier.router.addr().to_string();
        let mut client = connect(&addr)?;
        for k in 0..EPOCH_WARM {
            let spec = cold_spec(request_seed(cfg.seed, 0, epoch * 64 + k));
            let r = client.simulate(&request(&spec)).map_err(|e| e.to_string())?;
            if !r.verified {
                return Err("a warm-up request was not verified".to_string());
            }
        }

        let setup_s = t.elapsed().as_secs_f64();
        setups.push(setup_s * speed.segment());

        let traced = cfg.trace && epoch % 2 == 1;
        for segment in 0..(EPOCH / SEGMENT) as u64 {
            let mut done = Vec::with_capacity(SEGMENT);
            let started = Instant::now();
            for k in 0..SEGMENT as u64 {
                let seed =
                    request_seed(cfg.seed, 1, epoch * EPOCH as u64 + segment * SEGMENT as u64 + k);
                let req = request(&cold_spec(seed));
                let t = Instant::now();
                let r = client.simulate(&req);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                done.push((seed, ms, r.ok().filter(|r| r.verified)));
            }
            let segment_s = started.elapsed().as_secs_f64();
            wall_s += segment_s;
            // Client-observed times in reference-speed time (see `speed`);
            // the stage breakdown of traced items stays in wall time.
            let f = speed.segment();
            *if traced { &mut traced_s } else { &mut untraced_s } += segment_s * f;
            for (seed, ms, r) in done {
                match &r {
                    Some(r) if traced => sums.add(r, ms, 0.0),
                    Some(_) => untraced += 1,
                    None => {}
                }
                served.push(Served { seed, ms: ms * f, host_steps: r.map(|r| r.host_steps) });
            }
        }
        if cfg.trace && response.is_empty() {
            let spec = cold_spec(request_seed(cfg.seed, 0, epoch * 64 + 63));
            response = client
                .request_raw(&simulate_request_line(&request(&spec), None))
                .map_err(|e| e.to_string())?;
        }

        if epoch == 0 {
            // The plan caches never evict, so memory grows with the
            // requests served: take the peak after a fixed count of them.
            first_epoch_rss_mb = peak_rss_mb()?;
        }
        let r = tier.router.stats();
        counts.forwarded += r.forwarded;
        counts.retries += r.overloads_absorbed;
        counts.failovers += r.failovers;
        for (i, b) in tier.backends.iter().enumerate() {
            let s = b.stats();
            counts.per_shard[i] += s.completed;
            counts.hits += s.shared_hits;
            counts.misses += s.shared_misses;
            counts.followers += s.singleflight_followers;
            counts.rejected += s.rejected;
        }
        drop(client);
        tier.drain();
        epoch += 1;
    }

    // Outside the timed loop: re-run an even spread of the served specs
    // in-process and compare host steps.
    let stride = served.len().div_ceil(CROSS_CHECKS).max(1);
    for r in served.iter_mut().step_by(stride) {
        if let Some(steps) = r.host_steps {
            let spec = cold_spec(r.seed);
            let run = Built::new(&spec)?.run(&spec, CachePolicy::Enabled)?;
            if run.protocol.host_steps() as u64 != steps {
                r.host_steps = None;
            }
        }
    }
    let mut tally = Tally::default();
    for r in &served {
        tally.record(r.host_steps.is_some());
    }

    let mut out = Outcome::new(tally, pinned);
    if !cfg.trace {
        let items: Vec<f64> =
            served.iter().filter(|r| r.host_steps.is_some()).map(|r| r.ms).collect();
        out.end_to_end(&items, untraced_s, &setups, first_epoch_rss_mb)?;
        return Ok(out);
    }

    let mut layers = Layers::default();
    record_common(&mut layers, &first, 10, &response)?;
    let item_ms = sums.record(&mut layers);
    let fingerprint_ms = mean(
        &served
            .iter()
            .take(CROSS_CHECKS)
            .map(|r| {
                let req = request(&cold_spec(r.seed));
                let t = Instant::now();
                std::hint::black_box(simulate_fingerprint(&req).is_ok());
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect::<Vec<_>>(),
    )
    .unwrap_or(0.0);
    layers.set("router.fingerprint_ms", fingerprint_ms);
    let plain_ips = untraced as f64 / untraced_s;
    layers.set("obs.trace_overhead", 1.0 - sums.items as f64 / traced_s / plain_ips);
    layers.set("obs.speed_factor", speed.median_factor());
    layers.set("router.forwarded", counts.forwarded as f64);
    layers.set("router.retries", counts.retries as f64);
    layers.set("router.failovers", counts.failovers as f64);
    let total: u64 = counts.per_shard.iter().sum();
    let min = counts.per_shard.iter().min().copied().unwrap_or(0);
    layers.set("router.min_shard_share", min as f64 / total.max(1) as f64);
    let lookups = counts.hits + counts.misses;
    layers.set("serve.cache_hit_ratio", counts.hits as f64 / lookups.max(1) as f64);
    layers.set("serve.singleflight_followers", counts.followers as f64);
    layers.set("serve.rejected", counts.rejected as f64);
    layers.shares(item_ms);
    out.per_layer(layers);
    Ok(out)
}
