//! Deterministic closed-loop load generator.
//!
//! `clients` concurrent connections each issue `requests_per_client`
//! identical round trips back-to-back (closed loop: the next request
//! leaves only after the previous response arrives). Each round trip
//! carries `batch` simulate specs — 1 sends a plain `simulate` request,
//! more sends one `batch` request — so offered load in *items* is
//! `clients × requests_per_client × batch`. The item count and workload
//! are fully deterministic — only wall-clock latency varies — which is
//! what the E19/E20 offered-load sweeps need: saturation throughput
//! ordered by worker count and batch size, with the shared route-plan
//! cache absorbing every repeat of the workload.
//!
//! An optional warm-up request is issued before the clients start so the
//! one unavoidable shared-cache miss happens deterministically up front
//! (`hit_ratio = R·C / (R·C + 1)` on a repeated workload with `batch = 1`).
//!
//! When driving a `unet shard` router, set [`LoadgenConfig::shards`] to
//! the ring size: the generator derives one seed per shard — the smallest
//! seeds at or above `seed` whose spec keys home to each shard
//! on the same [`Ring`] the router uses — and spreads
//! clients round-robin across those seeds. Offered load is then *exactly*
//! balanced per shard (no stochastic consistent-hash skew), each shard's
//! plan cache sees exactly one distinct workload, and the warm-up issues
//! one request per seed so every shard's unavoidable miss happens up
//! front: `hit_ratio = R·C / (R·C + N)` globally for `N` shards.

use std::io;
use std::time::Instant;

use crate::client::{Client, ClientError};
use crate::protocol::{parse_response, simulate_request_line, Response, SimulateReq};
use crate::ring::Ring;
use crate::router::spec_key;

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Round trips each client issues.
    pub requests_per_client: usize,
    /// Simulate specs per round trip (1 = plain `simulate` requests,
    /// ≥ 2 = `batch` requests).
    pub batch: usize,
    /// Guest graph spec.
    pub guest: String,
    /// Host graph spec.
    pub host: String,
    /// Guest steps per item.
    pub steps: u32,
    /// Seed (identical across items — that is the point: a repeated
    /// workload exercises the shared plan cache).
    pub seed: u64,
    /// Per-request deadline override.
    pub deadline_ms: Option<u64>,
    /// Issue one warm-up request before the clients start (one per
    /// distinct seed when `shards > 1`).
    pub warmup: bool,
    /// Ring size of the `unet shard` router being driven (1 = a plain
    /// server). Values above 1 switch the generator to one
    /// key-searched seed per shard with clients spread
    /// round-robin, so per-shard offered load is exactly balanced.
    pub shards: usize,
}

/// What a load-generator run measured.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Simulate items issued (including the warm-up when enabled).
    pub sent: usize,
    /// Items answered successfully.
    pub completed: usize,
    /// Items rejected with `overloaded`.
    pub rejected: usize,
    /// Items answered with `error` (or a failed batch slot) or lost to
    /// I/O failures.
    pub errors: usize,
    /// Wall time of the measured (post-warm-up) phase in milliseconds.
    pub wall_ms: f64,
    /// Per-round-trip latencies in milliseconds, sorted ascending
    /// (warm-up excluded). A batch round trip is one sample. These are
    /// the typed client's own end-to-end measurements
    /// ([`SimulateResult::e2e_ms`](crate::client::SimulateResult::e2e_ms)),
    /// not a second stopwatch around the socket.
    pub latencies_ms: Vec<f64>,
    /// Stage-span totals in milliseconds, summed across every successful
    /// plain-`simulate` round trip, in first-seen stage order: the
    /// server-reported stages and the client's own `client.write` and
    /// `client.parse` ([`ClientSpans`](crate::client::ClientSpans)). Empty
    /// for a batched loop.
    pub stage_totals_ms: Vec<(String, f64)>,
}

impl LoadgenReport {
    /// Mean round-trip latency (`None` when nothing completed).
    pub fn mean_ms(&self) -> Option<f64> {
        if self.latencies_ms.is_empty() {
            None
        } else {
            Some(self.latencies_ms.iter().sum::<f64>() / self.latencies_ms.len() as f64)
        }
    }

    /// Nearest-rank latency percentile, `p` in `[0, 100]`.
    pub fn percentile_ms(&self, p: f64) -> Option<f64> {
        if self.latencies_ms.is_empty() {
            return None;
        }
        let idx = ((p / 100.0) * (self.latencies_ms.len() - 1) as f64).round() as usize;
        Some(self.latencies_ms[idx.min(self.latencies_ms.len() - 1)])
    }

    /// Completed items per second over the measured phase.
    pub fn throughput_rps(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            0.0
        } else {
            self.completed as f64 / (self.wall_ms / 1e3)
        }
    }

    /// Total milliseconds attributed to `stage` across the run.
    pub fn stage_total_ms(&self, stage: &str) -> f64 {
        self.stage_totals_ms.iter().find(|(s, _)| s == stage).map_or(0.0, |(_, ms)| *ms)
    }

    /// Fraction of the summed client-measured latency that the stage
    /// spans (server and client) account for (`None` without latency
    /// samples). The E22 span-accounting gate: close to 1.0 means the
    /// waterfall explains the latency a caller actually saw; the remainder
    /// is the wire, the wakeups and the server's `serialize`, which is
    /// timed after the answer has left.
    pub fn span_coverage(&self) -> Option<f64> {
        let e2e: f64 = self.latencies_ms.iter().sum();
        if e2e <= 0.0 {
            return None;
        }
        let spans: f64 = self.stage_totals_ms.iter().map(|(_, ms)| ms).sum();
        Some(spans / e2e)
    }

    /// `stage`'s share of the total stage-span time (`None` when no
    /// stages were reported). `queue_wait`'s share crossing 0.5 is the
    /// E22 signature of offered load passing capacity.
    pub fn stage_share(&self, stage: &str) -> Option<f64> {
        let total: f64 = self.stage_totals_ms.iter().map(|(_, ms)| ms).sum();
        if total <= 0.0 {
            None
        } else {
            Some(self.stage_total_ms(stage) / total)
        }
    }
}

/// Outcome counters of a single client's closed loop.
#[derive(Debug, Default)]
struct ClientTally {
    completed: usize,
    rejected: usize,
    errors: usize,
    latencies_ms: Vec<f64>,
    stage_totals_ms: Vec<(String, f64)>,
}

impl ClientTally {
    fn add_stages<'a>(&mut self, stages: impl IntoIterator<Item = (&'a str, f64)>) {
        for (stage, ms) in stages {
            match self.stage_totals_ms.iter_mut().find(|(s, _)| s == stage) {
                Some(slot) => slot.1 += ms,
                None => self.stage_totals_ms.push((stage.to_string(), ms)),
            }
        }
    }
}

/// One client's closed loop, on the typed [`Client`]: latency samples are
/// the client's own `e2e_ms` (no second stopwatch here), and the
/// server-reported stage spans and the client's own spans accumulate into
/// the tally.
fn run_client(addr: &str, spec: &SimulateReq, batch: usize, requests: usize) -> ClientTally {
    let mut tally = ClientTally::default();
    let mut client: Option<Client> = None;
    for _ in 0..requests {
        if client.is_none() {
            match Client::connect(addr) {
                Ok(c) => client = Some(c),
                Err(_) => {
                    tally.errors += batch;
                    continue;
                }
            }
        }
        let conn = client.as_mut().expect("connected above");
        if batch == 1 {
            match conn.simulate(spec) {
                Ok(res) => {
                    tally.completed += 1;
                    tally.latencies_ms.push(res.e2e_ms);
                    let server = res.stages.iter().map(|(s, ms)| (s.as_str(), *ms));
                    tally.add_stages(server.chain(res.client.stages()));
                }
                Err(ClientError::Server(_)) => tally.errors += 1,
                // The server answers overloaded before reading and drops
                // the connection; reconnect and keep going.
                Err(ClientError::Overloaded { .. }) => {
                    tally.rejected += 1;
                    client = None;
                }
                Err(_) => {
                    tally.errors += 1;
                    client = None; // reconnect and keep going
                }
            }
        } else {
            match conn.simulate_batch(&vec![spec.clone(); batch], spec.deadline_ms) {
                Ok(items) => {
                    let mut e2e = None;
                    for item in items {
                        match item {
                            Ok(res) => {
                                tally.completed += 1;
                                e2e = Some(res.e2e_ms);
                            }
                            Err(_) => tally.errors += 1,
                        }
                    }
                    // One sample per batch round trip with a completion.
                    if let Some(e2e_ms) = e2e {
                        tally.latencies_ms.push(e2e_ms);
                    }
                }
                Err(ClientError::Server(_)) => tally.errors += batch,
                Err(ClientError::Overloaded { .. }) => {
                    tally.rejected += batch;
                    client = None;
                }
                Err(_) => {
                    tally.errors += batch;
                    client = None;
                }
            }
        }
    }
    tally
}

/// The spec a client driving seed `seed` repeats.
fn spec_for_seed(cfg: &LoadgenConfig, seed: u64) -> SimulateReq {
    SimulateReq {
        guest: cfg.guest.clone(),
        host: cfg.host.clone(),
        steps: cfg.steps,
        seed,
        deadline_ms: cfg.deadline_ms,
        id: None,
    }
}

/// One seed per shard, indexed by home shard: the smallest seeds at or
/// above `cfg.seed` whose spec keys land on each shard of
/// `Ring::new(shards)`. Deterministic (pure search, no clock or RNG), so
/// repeated runs offer the identical per-shard workload. Expected search
/// length is `N·H_N` seeds for `N` shards — a handful.
fn seeds_for_shards(cfg: &LoadgenConfig, shards: usize) -> Vec<u64> {
    if shards <= 1 {
        return vec![cfg.seed];
    }
    let ring = Ring::new(shards);
    let mut seeds: Vec<Option<u64>> = vec![None; shards];
    let mut found = 0usize;
    for delta in 0..100_000u64 {
        let seed = cfg.seed.wrapping_add(delta);
        let shard = ring.shard_of(spec_key(&spec_for_seed(cfg, seed)));
        if seeds[shard].is_none() {
            seeds[shard] = Some(seed);
            found += 1;
            if found == shards {
                break;
            }
        }
    }
    seeds.into_iter().map(|s| s.unwrap_or(cfg.seed)).collect()
}

/// Run the closed loop and aggregate every client's tally.
pub fn run(cfg: &LoadgenConfig) -> io::Result<LoadgenReport> {
    let batch = cfg.batch.max(1);
    let seeds = seeds_for_shards(cfg, cfg.shards.max(1));
    let specs: Vec<SimulateReq> = seeds.iter().map(|&seed| spec_for_seed(cfg, seed)).collect();
    let mut sent = 0usize;
    let mut warm_completed = 0usize;
    let mut warm_errors = 0usize;
    if cfg.warmup {
        // One warm-up per distinct seed: every shard takes its one
        // unavoidable plan-cache miss before the measured phase starts.
        for &seed in &seeds {
            sent += 1;
            let warm_line = simulate_request_line(&spec_for_seed(cfg, seed), None);
            let outcome = Client::connect(&cfg.addr).and_then(|mut c| c.request_raw(&warm_line));
            match outcome {
                Ok(resp) => match parse_response(resp.trim()) {
                    Ok(Response::Result(_)) => warm_completed += 1,
                    _ => warm_errors += 1,
                },
                Err(_) => warm_errors += 1,
            }
        }
    }
    let started = Instant::now();
    let tallies: Vec<ClientTally> = crossbeam::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|i| {
                let addr = &cfg.addr;
                let spec = &specs[i % specs.len()];
                s.spawn(move |_| run_client(addr, spec, batch, cfg.requests_per_client))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client panicked")).collect()
    })
    .expect("loadgen scope");
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    sent += cfg.clients * cfg.requests_per_client * batch;
    let mut report = LoadgenReport {
        sent,
        completed: warm_completed,
        rejected: 0,
        errors: warm_errors,
        wall_ms,
        latencies_ms: Vec::new(),
        stage_totals_ms: Vec::new(),
    };
    for t in tallies {
        report.completed += t.completed;
        report.rejected += t.rejected;
        report.errors += t.errors;
        report.latencies_ms.extend(t.latencies_ms);
        for (stage, ms) in t.stage_totals_ms {
            match report.stage_totals_ms.iter_mut().find(|(s, _)| *s == stage) {
                Some(slot) => slot.1 += ms,
                None => report.stage_totals_ms.push((stage, ms)),
            }
        }
    }
    report.latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let report = LoadgenReport {
            sent: 4,
            completed: 4,
            rejected: 0,
            errors: 0,
            wall_ms: 100.0,
            latencies_ms: vec![1.0, 2.0, 3.0, 10.0],
            stage_totals_ms: Vec::new(),
        };
        assert_eq!(report.percentile_ms(0.0), Some(1.0));
        assert_eq!(report.percentile_ms(50.0), Some(3.0));
        assert_eq!(report.percentile_ms(100.0), Some(10.0));
        assert_eq!(report.mean_ms(), Some(4.0));
        assert_eq!(report.throughput_rps(), 40.0);
    }

    #[test]
    fn empty_report_has_no_percentiles() {
        let report = LoadgenReport {
            sent: 0,
            completed: 0,
            rejected: 0,
            errors: 0,
            wall_ms: 0.0,
            latencies_ms: Vec::new(),
            stage_totals_ms: Vec::new(),
        };
        assert_eq!(report.percentile_ms(99.0), None);
        assert_eq!(report.mean_ms(), None);
        assert_eq!(report.throughput_rps(), 0.0);
        assert_eq!(report.span_coverage(), None);
        assert_eq!(report.stage_share("queue_wait"), None);
    }

    #[test]
    fn shard_seed_search_balances_every_shard() {
        let cfg = LoadgenConfig {
            addr: String::new(),
            clients: 8,
            requests_per_client: 4,
            batch: 1,
            guest: "ring:12".into(),
            host: "torus:2x2".into(),
            steps: 2,
            seed: 0xE21,
            deadline_ms: None,
            warmup: true,
            shards: 4,
        };
        let seeds = seeds_for_shards(&cfg, 4);
        assert_eq!(seeds.len(), 4);
        let ring = Ring::new(4);
        for (shard, &seed) in seeds.iter().enumerate() {
            let key = spec_key(&spec_for_seed(&cfg, seed));
            assert_eq!(ring.shard_of(key), shard, "seed {seed} homes to its shard");
        }
        let mut distinct = seeds.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 4, "one distinct seed per shard: {seeds:?}");
        // Deterministic and degenerate-safe.
        assert_eq!(seeds, seeds_for_shards(&cfg, 4));
        assert_eq!(seeds_for_shards(&cfg, 1), vec![0xE21]);
    }

    #[test]
    fn stage_totals_accumulate_and_expose_coverage() {
        use crate::client::ClientSpans;
        let mut tally = ClientTally::default();
        tally.add_stages([("queue_wait", 6.0), ("simulate", 2.0)]);
        tally.add_stages([("queue_wait", 4.0), ("serialize", 0.5)]);
        assert_eq!(
            tally.stage_totals_ms,
            vec![
                ("queue_wait".to_string(), 10.0),
                ("simulate".to_string(), 2.0),
                ("serialize".to_string(), 0.5)
            ]
        );
        let mut client = ClientTally::default();
        client.add_stages(ClientSpans { write_ms: 0.25, parse_ms: 0.5 }.stages());
        client.add_stages(ClientSpans { write_ms: 0.25, parse_ms: 0.0 }.stages());
        assert_eq!(
            client.stage_totals_ms,
            vec![("client.write".to_string(), 0.5), ("client.parse".to_string(), 0.5)]
        );
        let report = LoadgenReport {
            sent: 2,
            completed: 2,
            rejected: 0,
            errors: 0,
            wall_ms: 20.0,
            latencies_ms: vec![5.0, 20.0],
            stage_totals_ms: tally.stage_totals_ms,
        };
        assert_eq!(report.stage_total_ms("queue_wait"), 10.0);
        assert_eq!(report.stage_total_ms("unknown"), 0.0);
        assert_eq!(report.span_coverage(), Some(12.5 / 25.0));
        assert_eq!(report.stage_share("queue_wait"), Some(10.0 / 12.5));
    }
}
