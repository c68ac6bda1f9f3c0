//! The engine path, called in-process: spec → graphs → `Simulation::run` →
//! `verify`, plus outside-in timers around each engine layer's public
//! functions and the pinned correctness digests.

use std::time::Instant;

use unet_core::prelude::*;
use unet_core::routers::SelectorRouter;
use unet_core::simulate::advance_states;
use unet_core::spec::parse_graph;
use unet_pebble::check;
use unet_pebble::io::to_text;
use unet_routing::plan::extract_plan;
use unet_routing::problem::guest_induced;
use unet_routing::ShortestPath;
use unet_topology::util::seeded_rng;
use unet_topology::Graph;

use crate::layers::Layers;
use crate::serving;
use crate::speed::Speed;
use crate::stats::{fnv1a, mean, median, peak_rss_mb, Tally};
use crate::{Outcome, RunConfig, BLOCK, WARMUP};

/// One simulation request: guest and host specs, guest steps, the guest
/// computation's seed and the builder's route seed.
#[derive(Debug, Clone)]
pub struct Spec {
    pub guest: String,
    pub host: String,
    pub steps: u32,
    pub seed: u64,
    pub route_seed: u64,
}

impl Spec {
    /// What `unet serve` runs for a `simulate` request: the request seed is
    /// both the guest seed and the route seed.
    pub fn served(guest: String, host: String, steps: u32, seed: u64) -> Spec {
        Spec { guest, host, steps, seed, route_seed: seed }
    }
}

/// A spec's graphs and guest computation, built once (the set-up work).
pub struct Built {
    pub comp: GuestComputation,
    pub host: Graph,
    router: SelectorRouter<ShortestPath>,
}

impl Built {
    /// Parse both specs and draw the guest's initial states.
    pub fn new(spec: &Spec) -> Result<Built, String> {
        let guest = parse_graph(&spec.guest).map_err(|e| format!("guest: {e}"))?;
        let host = parse_graph(&spec.host).map_err(|e| format!("host: {e}"))?;
        let comp = GuestComputation::random(guest, spec.seed);
        Ok(Built { comp, host, router: presets::bfs() })
    }

    fn embedding(&self) -> Embedding {
        Embedding::block(self.comp.n(), self.host.n())
    }

    /// One `Simulation::run` with a per-run plan cache on one thread (the
    /// `unet simulate --threads 1` path), or uncached as the reference.
    pub fn run(&self, spec: &Spec, cache: CachePolicy) -> Result<SimulationRun, String> {
        Simulation::builder()
            .guest(&self.comp)
            .host(&self.host)
            .embedding(self.embedding())
            .router(&self.router)
            .steps(spec.steps)
            .seed(spec.route_seed)
            .threads(1)
            .cache_policy(cache)
            .run()
            .map_err(|e| e.to_string())
    }
}

/// The correctness digests of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pin {
    pub protocol_hash: u64,
    pub states_hash: u64,
    pub host_steps: u64,
}

impl Pin {
    pub fn of(run: &SimulationRun) -> Pin {
        Pin {
            protocol_hash: fnv1a(to_text(&run.protocol).bytes()),
            states_hash: states_hash(&run.final_states),
            host_steps: run.protocol.host_steps() as u64,
        }
    }
}

fn states_hash(states: &[u64]) -> u64 {
    fnv1a(states.iter().flat_map(|s| s.to_le_bytes()))
}

/// Digests of each workload's first spec on seeds 1–12 and 1009, as the
/// program produced them when this benchmark was introduced. Regenerate
/// with `cargo test --release -- --ignored --nocapture print_pins` only
/// when a change is meant to alter results.
#[rustfmt::skip]
const PINS: &[(&str, u64, Pin)] = &[
    ("engine-replay", 1, Pin { protocol_hash: 0x8ed852b5b3e0d3f5, states_hash: 0xc4e19e5b04fadb77, host_steps: 13427 }),
    ("engine-replay", 2, Pin { protocol_hash: 0x6f3e89455ae4f490, states_hash: 0xafc3bd9c0bb61761, host_steps: 13582 }),
    ("engine-replay", 3, Pin { protocol_hash: 0x519b8f6aa8c45c2e, states_hash: 0x72b8ac72d9ec065c, host_steps: 12869 }),
    ("engine-replay", 4, Pin { protocol_hash: 0x5176cacbe456f7ec, states_hash: 0x2797502f0b820b06, host_steps: 12776 }),
    ("engine-replay", 5, Pin { protocol_hash: 0x7f633c215944198f, states_hash: 0xde47c85e24709a42, host_steps: 12218 }),
    ("engine-replay", 6, Pin { protocol_hash: 0x44449c07c3ae8663, states_hash: 0x03bca6d162d64d9e, host_steps: 13334 }),
    ("engine-replay", 7, Pin { protocol_hash: 0xe383b0217f1bcc7e, states_hash: 0x36c356a428bc0699, host_steps: 12683 }),
    ("engine-replay", 8, Pin { protocol_hash: 0x4e82083620c10553, states_hash: 0x00600fe49fcb8e64, host_steps: 13706 }),
    ("engine-replay", 9, Pin { protocol_hash: 0xfb3f60f2c13ff985, states_hash: 0x78802461a86791cd, host_steps: 12311 }),
    ("engine-replay", 10, Pin { protocol_hash: 0xb142e4103da4db81, states_hash: 0xf8839c5960da7aea, host_steps: 13799 }),
    ("engine-replay", 11, Pin { protocol_hash: 0xe90c9db77936a930, states_hash: 0x4bd5fd5eaffd97ab, host_steps: 14667 }),
    ("engine-replay", 12, Pin { protocol_hash: 0x8057968344e00a73, states_hash: 0x71fde6acb2c22d94, host_steps: 12404 }),
    ("engine-replay", 1009, Pin { protocol_hash: 0x77ed24df634c1de0, states_hash: 0xdcbdb9d8acb36c08, host_steps: 12311 }),
    ("serve-oneshot", 1, Pin { protocol_hash: 0x77036c4b6d3a8a46, states_hash: 0x4389274f552e4cae, host_steps: 29 }),
    ("serve-oneshot", 2, Pin { protocol_hash: 0x77036c4b6d3a8a46, states_hash: 0x9f7f57f0e57ecf89, host_steps: 29 }),
    ("serve-oneshot", 3, Pin { protocol_hash: 0x77036c4b6d3a8a46, states_hash: 0xbb3ad78eb78bac32, host_steps: 29 }),
    ("serve-oneshot", 4, Pin { protocol_hash: 0x77036c4b6d3a8a46, states_hash: 0xa9edc50f976b235d, host_steps: 29 }),
    ("serve-oneshot", 5, Pin { protocol_hash: 0x77036c4b6d3a8a46, states_hash: 0x8f0da459c9610ce3, host_steps: 29 }),
    ("serve-oneshot", 6, Pin { protocol_hash: 0x77036c4b6d3a8a46, states_hash: 0xf0df4f43fafce4df, host_steps: 29 }),
    ("serve-oneshot", 7, Pin { protocol_hash: 0x77036c4b6d3a8a46, states_hash: 0x9077199a5c7c30f1, host_steps: 29 }),
    ("serve-oneshot", 8, Pin { protocol_hash: 0x77036c4b6d3a8a46, states_hash: 0xc7266a7d8eb27308, host_steps: 29 }),
    ("serve-oneshot", 9, Pin { protocol_hash: 0x77036c4b6d3a8a46, states_hash: 0x92fa327422213c73, host_steps: 29 }),
    ("serve-oneshot", 10, Pin { protocol_hash: 0x77036c4b6d3a8a46, states_hash: 0xb2bbbdc2badf7abc, host_steps: 29 }),
    ("serve-oneshot", 11, Pin { protocol_hash: 0x77036c4b6d3a8a46, states_hash: 0xdd9e1b25ec291299, host_steps: 29 }),
    ("serve-oneshot", 12, Pin { protocol_hash: 0x77036c4b6d3a8a46, states_hash: 0x7aeee147d6d928bd, host_steps: 29 }),
    ("serve-oneshot", 1009, Pin { protocol_hash: 0x77036c4b6d3a8a46, states_hash: 0x119aac6cc122e2ae, host_steps: 29 }),
    ("shard-cold", 1, Pin { protocol_hash: 0xa0fe4d9c02eb380a, states_hash: 0xaaf13b79939c1f1a, host_steps: 884 }),
    ("shard-cold", 2, Pin { protocol_hash: 0x12b4c3e7559c5120, states_hash: 0xed2b4a8e0b820246, host_steps: 842 }),
    ("shard-cold", 3, Pin { protocol_hash: 0xb980d70336997bc2, states_hash: 0x92cd11ef59983807, host_steps: 814 }),
    ("shard-cold", 4, Pin { protocol_hash: 0xc0c56413225b4cc5, states_hash: 0xd7d247b66b11fe78, host_steps: 882 }),
    ("shard-cold", 5, Pin { protocol_hash: 0xeeef88c45ca081d0, states_hash: 0xea8512de01af5a64, host_steps: 916 }),
    ("shard-cold", 6, Pin { protocol_hash: 0xadce2f50eb7fed05, states_hash: 0x17417b249d47e10d, host_steps: 824 }),
    ("shard-cold", 7, Pin { protocol_hash: 0xbb6cffbc16fe6b5c, states_hash: 0x18d07881e0f38eed, host_steps: 836 }),
    ("shard-cold", 8, Pin { protocol_hash: 0xd1a418fb92092afc, states_hash: 0xbca5905bb8a442c9, host_steps: 808 }),
    ("shard-cold", 9, Pin { protocol_hash: 0x4f45a3b8387e559f, states_hash: 0x422d79b11839f0e1, host_steps: 912 }),
    ("shard-cold", 10, Pin { protocol_hash: 0xf84355043ed60f51, states_hash: 0x10f0a18e807cf81e, host_steps: 880 }),
    ("shard-cold", 11, Pin { protocol_hash: 0x3a2037c0c6cc7547, states_hash: 0x667e9a3109c48575, host_steps: 878 }),
    ("shard-cold", 12, Pin { protocol_hash: 0xd238aa6051b964a5, states_hash: 0x27765f7b1ea9a615, host_steps: 838 }),
    ("shard-cold", 1009, Pin { protocol_hash: 0xa9683d5b6c99a896, states_hash: 0x2d4bb74a9f6e6d03, host_steps: 884 }),
];

/// The digests of a verified run of `spec` with the plan cache off.
pub fn reference(spec: &Spec) -> Result<Pin, String> {
    let built = Built::new(spec)?;
    let run = built.run(spec, CachePolicy::Disabled)?;
    run.verify(&built.comp, &built.host, spec.steps).map_err(|e| e.to_string())?;
    Ok(Pin::of(&run))
}

/// Whether `pin` equals the table's entry for `(workload, seed)`; false
/// for a seed the table does not list.
pub fn matches_pins(workload: &str, seed: u64, pin: &Pin) -> bool {
    let found = PINS.iter().find(|(w, s, _)| *w == workload && *s == seed);
    let ok = found.is_some_and(|(_, _, want)| want == pin);
    if !ok {
        eprintln!("{workload} seed {seed}: digests {pin:?} differ from the pinned {found:?}");
    }
    ok
}

/// The spec whose digests `workload` pins for `seed`: its first spec.
pub fn pinned_spec(workload: &str, seed: u64) -> Spec {
    match workload {
        "engine-replay" => specs_for(seed).swap_remove(0),
        "shard-cold" => serving::cold_spec(serving::request_seed(seed, 1, 0)),
        _ => serving::small_spec(seed),
    }
}

/// Whether a verified run of `workload`'s pinned spec still gives the
/// pinned digests: for `seed` when the table lists it, otherwise for seed
/// 1, so that every run checks a pin whatever its seed.
pub fn pins_hold(workload: &str, seed: u64) -> Result<bool, String> {
    let listed = PINS.iter().any(|(w, s, _)| *w == workload && *s == seed);
    let seed = if listed { seed } else { 1 };
    Ok(matches_pins(workload, seed, &reference(&pinned_spec(workload, seed))?))
}

/// Guest graphs per `engine-replay` run. Host steps differ by up to ±10%
/// between single `random:256x4` graphs, so a run cycles through several
/// and a run's figures do not hinge on one draw.
pub const GUESTS: u64 = 16;

/// `engine-replay`'s specs for `seed`: `random:256x4:<16·seed + i>` for
/// `i < GUESTS` on `butterfly:4`, T = 32, with the CLI's route seed.
pub fn specs_for(seed: u64) -> Vec<Spec> {
    (0..GUESTS)
        .map(|i| {
            let g = seed.wrapping_mul(GUESTS).wrapping_add(i);
            Spec {
                guest: format!("random:256x4:{g}"),
                host: "butterfly:4".to_string(),
                steps: 32,
                seed: g,
                route_seed: g ^ 0xAA,
            }
        })
        .collect()
}

/// The digests every timed item is compared against: host steps and the
/// final-states hash (cheap, unlike the protocol text).
type Digest = (u64, u64);

fn digest(run: &SimulationRun) -> Digest {
    (run.protocol.host_steps() as u64, states_hash(&run.final_states))
}

/// One verified item split at the layer boundaries: (simulate, check,
/// run_final) milliseconds, or why it failed.
fn traced_item(built: &Built, spec: &Spec, want: &Digest) -> Result<[f64; 3], String> {
    let t0 = Instant::now();
    let run = built.run(spec, CachePolicy::Enabled)?;
    let t1 = Instant::now();
    check(&built.comp.graph, &built.host, &run.protocol).map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    let reference = built.comp.run_final(spec.steps);
    let t3 = Instant::now();
    if reference != run.final_states {
        return Err("final states differ from direct execution".to_string());
    }
    same_result(&run, want)?;
    let ms = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1e3;
    Ok([ms(t0, t1), ms(t1, t2), ms(t2, t3)])
}

fn same_result(run: &SimulationRun, want: &Digest) -> Result<(), String> {
    let got = digest(run);
    if got != *want {
        return Err(format!("result {got:?} differs from the reference {want:?}"));
    }
    Ok(())
}

/// One item exactly as `unet simulate` does it: run, then verify.
fn item(built: &Built, spec: &Spec, want: &Digest) -> Result<(), String> {
    let run = built.run(spec, CachePolicy::Enabled)?;
    run.verify(&built.comp, &built.host, spec.steps).map_err(|e| e.to_string())?;
    same_result(&run, want)
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let specs = specs_for(cfg.seed);
    let pin = reference(&specs[0])?;
    let build_all = || specs.iter().map(Built::new).collect::<Result<Vec<_>, _>>();
    let built = build_all()?;
    // The other guests' digests come from one verified run each.
    let mut wants = vec![(pin.host_steps, pin.states_hash)];
    for (b, spec) in built.iter().zip(&specs).skip(1) {
        let run = b.run(spec, CachePolicy::Enabled)?;
        run.verify(&b.comp, &b.host, spec.steps).map_err(|e| e.to_string())?;
        wants.push(digest(&run));
    }
    let jobs: Vec<(&Built, &Spec, &Digest)> =
        built.iter().zip(&specs).zip(&wants).map(|((b, s), w)| (b, s, w)).collect();

    let warm_until = Instant::now() + WARMUP;
    for &(b, spec, want) in jobs.iter().cycle() {
        item(b, spec, want)?;
        if Instant::now() >= warm_until {
            break;
        }
    }

    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut items = Vec::new();
    let mut traced = Vec::new();
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    let mut next = 0;
    let mut speed = Speed::start();
    let started = Instant::now();
    // Traced runs alternate plain and split items block by block, so slow
    // drift on the machine hits both halves alike.
    let mut split = false;
    while started.elapsed().as_secs_f64() < cfg.seconds
        || items.len() < crate::MIN_ITEMS
        || (cfg.trace && traced.is_empty())
    {
        // Set-up is repeated before every block, so its median spans the
        // same stretch of the run as the items. Timed only at process
        // start, the sub-millisecond build moved by a third between the
        // medians of two ten-run sets.
        let t = Instant::now();
        let rebuilt = build_all()?;
        let setup_s = t.elapsed().as_secs_f64();
        drop(rebuilt);

        let mut block_ms = Vec::new();
        let block = Instant::now();
        while block.elapsed() < BLOCK {
            let (b, spec, want) = jobs[next % jobs.len()];
            next += 1;
            if split {
                let outcome = traced_item(b, spec, want);
                tally.record(outcome.is_ok());
                traced.extend(outcome.ok());
                continue;
            }
            let t = Instant::now();
            let ok = item(b, spec, want).is_ok();
            tally.record(ok);
            if ok {
                block_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
        let block_s = block.elapsed().as_secs_f64();
        // Set-up and block in reference-speed time (see `speed`).
        let f = speed.segment();
        setups.push(setup_s * f);
        items.extend(block_ms.iter().map(|ms| ms * f));
        *if split { &mut traced_s } else { &mut plain_s } += block_s * f;
        split = cfg.trace && !split;
    }

    // A cached run must reproduce the uncached reference's protocol text
    // exactly (checked outside the timed loop: `to_text` costs about as
    // much as a run).
    let correct = Pin::of(&built[0].run(&specs[0], CachePolicy::Enabled)?) == pin
        && pins_hold("engine-replay", cfg.seed)?;
    let mut out = Outcome::new(tally, correct);
    if !cfg.trace {
        out.end_to_end(&items, plain_s, &setups, peak_rss_mb()?)?;
        return Ok(out);
    }

    let mut layers = Layers::default();
    let items_ms: Vec<f64> = traced.iter().map(|t| t.iter().sum()).collect();
    let item_ms = mean(&items_ms).ok_or("no traced items")?;
    let col = |i: usize| mean(&traced.iter().map(|t| t[i]).collect::<Vec<_>>()).unwrap_or(0.0);
    let plain_ips = items.len() as f64 / plain_s;
    let traced_ips = traced.len() as f64 / traced_s;
    layers.set("obs.item_ms", item_ms);
    layers.set("obs.trace_overhead", 1.0 - traced_ips / plain_ips);
    layers.set("obs.speed_factor", speed.median_factor());
    profile(&built[0], &specs[0], 7, &mut layers)?;
    // The item path's own layers, as split inside the traced items.
    layers.set("core.simulate_ms", col(0));
    layers.set("pebble.check_ms", col(1));
    layers.set("core.run_final_ms", col(2));
    layers.shares(item_ms);
    out.per_layer(layers);
    Ok(out)
}

/// Outside-in timings of each engine layer on one spec (medians over
/// `reps` repetitions of each public call) and the protocol's counts.
pub fn profile(built: &Built, spec: &Spec, reps: usize, layers: &mut Layers) -> Result<(), String> {
    let mut t: [Vec<f64>; 7] = Default::default();
    let embedding = built.embedding();
    let m = built.host.n();
    let mut last = None;
    for _ in 0..reps {
        let s = Instant::now();
        parse_graph(&spec.guest)?;
        parse_graph(&spec.host)?;
        t[0].push(s.elapsed().as_secs_f64() * 1e3);

        let s = Instant::now();
        let run = built.run(spec, CachePolicy::Enabled)?;
        t[1].push(s.elapsed().as_secs_f64() * 1e3);

        let s = Instant::now();
        let mut states = built.comp.init.clone();
        for _ in 0..spec.steps {
            states = advance_states(&built.comp, &states, 1);
        }
        t[2].push(s.elapsed().as_secs_f64() * 1e3);

        let s = Instant::now();
        check(&built.comp.graph, &built.host, &run.protocol).map_err(|e| e.to_string())?;
        t[3].push(s.elapsed().as_secs_f64() * 1e3);

        let s = Instant::now();
        let reference = built.comp.run_final(spec.steps);
        t[4].push(s.elapsed().as_secs_f64() * 1e3);
        if reference != states || reference != run.final_states {
            return Err("advance_states / run_final disagree with the run".to_string());
        }

        let s = Instant::now();
        let prob = guest_induced(&built.comp.graph, &embedding.f, m);
        let outcome = built.router.route(&built.host, &prob, &mut seeded_rng(spec.route_seed));
        let plan = extract_plan(&outcome.transfers);
        t[5].push(s.elapsed().as_secs_f64() * 1e3);

        let s = Instant::now();
        let text_bytes = to_text(&run.protocol).len();
        t[6].push(s.elapsed().as_secs_f64() * 1e3);
        last = Some((run, plan, text_bytes));
    }
    let (run, plan, text_bytes) = last.ok_or("no profile repetitions")?;
    let timed = [
        "topology.parse_graph_ms",
        "core.simulate_ms",
        "core.advance_states_ms",
        "pebble.check_ms",
        "core.run_final_ms",
        "routing.route_ms",
        "pebble.to_text_ms",
    ];
    for (name, samples) in timed.iter().zip(&t) {
        layers.set(name, median(samples).unwrap_or(0.0));
    }
    let (generate, send, recv, idle) = run.protocol.op_histogram();
    layers.set("routing.plan_rounds", plan.pebble_steps() as f64);
    layers.set("routing.plan_transfers", plan.transfer_count() as f64);
    layers.set("pebble.text_bytes", text_bytes as f64);
    layers.set("pebble.ops_total", (generate + send + recv + idle) as f64);
    layers.set("pebble.ops_idle", idle as f64);
    layers.set("pebble.host_steps", run.protocol.host_steps() as f64);
    Ok(())
}
