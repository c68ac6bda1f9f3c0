//! The declarative experiment registry.
//!
//! One [`Experiment`] descriptor per machine-checked experiment: its id,
//! the paper claim it instantiates, its parameter grid (full and `--quick`
//! variants), a pure runner mapping one grid point to one measured row,
//! and the expected-shape predicates ([`crate::shape`]) the rows must
//! satisfy. This module holds E1, E2 and the engine and serving
//! experiments E16–E22; the E3–E15 tables live in [`crate::paper`]. The
//! sweep runner ([`crate::sweep`]), the regression gate ([`crate::diff`]),
//! and the markdown report ([`crate::report_md`]) all consume the same
//! registry.
//!
//! Runners are **pure functions of their grid point**: every parameter —
//! sizes, step counts, seeds — is in the [`GridPoint`], so points can run
//! in parallel shards ([`unet_topology::par`]) and resumed rows merge
//! deterministically. (This is why the registry drives the
//! `Simulation::builder()` engine with an explicit per-row seed rather
//! than threading one RNG through a whole sweep.)

use std::time::Instant;
use unet_core::prelude::{bounds, presets, Embedding, Simulation};
use unet_core::routers::SelectorRouter;
use unet_core::verify::verify_run;
use unet_core::CachePolicy;
use unet_faults::{DegradedSimulator, DegradedTuning, FaultPlan};
use unet_lowerbound::tradeoff_table;
use unet_obs::json::Value;
use unet_obs::{InMemoryRecorder, NoopRecorder};
use unet_routing::butterfly::{GreedyButterfly, ValiantButterfly};
use unet_routing::greedy::DimensionOrder;
use unet_routing::PathSelector;
use unet_serve::loadgen::{self, LoadgenConfig};
use unet_serve::router::{Router as ShardRouter, ShardConfig};
use unet_serve::{ServeConfig, Server};
use unet_topology::generators::{butterfly, torus};
use unet_topology::util::seeded_rng;
use unet_topology::Graph;

use crate::shape::Shape;
use crate::standard_guest;

/// One point of an experiment's parameter grid: named parameters, in a
/// fixed order. Runners read sizes/seeds out of it; the sweep runner uses
/// the projection onto [`Experiment::grid_keys`] to match rows against
/// resumed partial artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct GridPoint {
    /// Named parameter values (grid keys first, auxiliary constants after).
    pub params: Vec<(&'static str, Value)>,
}

impl GridPoint {
    /// Build a point from `(name, value)` pairs.
    pub fn new(params: Vec<(&'static str, Value)>) -> Self {
        GridPoint { params }
    }

    /// Look up a parameter by name.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.params.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Required `u64` parameter (panics on absence — a registry bug, not
    /// a user error).
    pub fn u64(&self, key: &str) -> u64 {
        self.get(key).and_then(Value::as_u64).unwrap_or_else(|| panic!("grid point lacks {key}"))
    }

    /// Required `f64` parameter.
    pub fn f64(&self, key: &str) -> f64 {
        self.get(key).and_then(Value::as_f64).unwrap_or_else(|| panic!("grid point lacks {key}"))
    }

    /// Required string parameter.
    pub fn str(&self, key: &str) -> &str {
        self.get(key).and_then(Value::as_str).unwrap_or_else(|| panic!("grid point lacks {key}"))
    }

    /// Canonical identity of this point under the experiment's grid keys:
    /// the JSON of the key-restricted parameter object.
    pub fn key(&self, grid_keys: &[&str]) -> String {
        project(|k| self.get(k).cloned(), grid_keys)
    }
}

fn project(get: impl Fn(&str) -> Option<Value>, grid_keys: &[&str]) -> String {
    Value::Obj(grid_keys.iter().map(|&k| (k.to_string(), get(k).unwrap_or(Value::Null))).collect())
        .to_json()
}

/// The grid-key projection of a measured **row** (rows embed their grid
/// parameters), for matching against [`GridPoint::key`]. Returns `None`
/// when the row is missing a key — such rows never match and are re-run.
pub fn row_key(row: &Value, grid_keys: &[&str]) -> Option<String> {
    if grid_keys.iter().any(|k| row.get(k).is_none()) {
        return None;
    }
    Some(project(|k| row.get(k).cloned(), grid_keys))
}

/// A declarative experiment: everything the sweep runner, the regression
/// gate, and the report renderer need to know about one paper claim.
pub struct Experiment {
    /// Stable id (`"E1"`).
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// The paper claim instantiated, with its section/theorem reference.
    pub claim: &'static str,
    /// The parameter names that identify a grid point (resume matching).
    pub grid_keys: &'static [&'static str],
    /// Experiment-level constants for the artifact header.
    pub meta: fn(quick: bool) -> Vec<(String, Value)>,
    /// The parameter grid (full or `--quick` CI-smoke sizes; the small
    /// E3–E15 tables ignore the flag).
    pub grid: fn(quick: bool) -> Vec<GridPoint>,
    /// Run one grid point → one measured row (pure; parallel-safe).
    pub run: fn(&GridPoint) -> Value,
    /// The expected-shape predicates the rows must satisfy.
    pub shapes: fn() -> Vec<Shape>,
}

/// The full registry, in canonical order.
pub fn registry() -> Vec<Experiment> {
    let mut all = vec![e1(), e2()];
    all.extend(crate::paper::experiments());
    all.extend([e16(), e17(), e18(), e19(), e20(), e21(), e22()]);
    all
}

/// The registry's base seed, recorded in the artifact header; every row
/// seed below is a fixed constant derived independently of it so that
/// shards are order-independent.
pub const BASE_SEED: u64 = 0x5EED;

pub(crate) fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// FNV-1a over a byte stream: the stable 64-bit fingerprint used for the
/// `protocol_hash` / `states_hash` columns (bit-for-bit equality across
/// rows without embedding whole protocols in the artifact).
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

// --- E1: Theorem 2.1 upper bound on butterfly hosts --------------------

fn e1_sizes(quick: bool) -> (usize, u32) {
    if quick {
        (96, 2)
    } else {
        (512, 3)
    }
}

fn e1() -> Experiment {
    Experiment {
        id: "E1",
        title: "Theorem 2.1 upper bound: butterfly hosts",
        claim: "Thm 2.1 + butterfly corollary: inefficiency k = s*m/n is Theta(log m) \
                (affine in log m, never below the Thm 3.1 floor)",
        grid_keys: &["dim"],
        meta: |quick| {
            let (n, steps) = e1_sizes(quick);
            vec![
                ("guest".into(), Value::Str(format!("random-regular n={n} d=4"))),
                ("guest_n".into(), Value::UInt(n as u64)),
                ("guest_steps".into(), Value::UInt(steps as u64)),
                ("router".into(), Value::Str("butterfly-valiant".into())),
            ]
        },
        grid: |quick| {
            let (n, steps) = e1_sizes(quick);
            (2..=4usize)
                .map(|dim| {
                    GridPoint::new(vec![
                        ("dim", Value::UInt(dim as u64)),
                        ("guest_n", Value::UInt(n as u64)),
                        ("guest_steps", Value::UInt(steps as u64)),
                        ("seed", Value::UInt(0xE100 + dim as u64)),
                    ])
                })
                .collect()
        },
        run: |p| {
            let dim = p.u64("dim") as usize;
            let n = p.u64("guest_n") as usize;
            let steps = p.u64("guest_steps") as u32;
            let (guest, comp) = standard_guest(n, 0xE1);
            let host = butterfly(dim);
            let router: SelectorRouter<ValiantButterfly> = presets::butterfly_valiant(dim);
            let wall_start = Instant::now();
            let run = Simulation::builder()
                .guest(&comp)
                .host(&host)
                .embedding(Embedding::block(guest.n(), host.n()))
                .router(&router)
                .steps(steps)
                .seed(p.u64("seed"))
                .threads(1) // the sweep itself shards across rows
                .run()
                .expect("E1 configuration is valid");
            let m = verify_run(&comp, &host, &run, steps).expect("certifies").metrics;
            let wall_ms = wall_start.elapsed().as_secs_f64() * 1e3;
            obj(vec![
                ("dim", Value::UInt(dim as u64)),
                ("guest_n", Value::UInt(m.guest_n as u64)),
                ("host_m", Value::UInt(m.host_m as u64)),
                ("guest_steps", Value::UInt(m.guest_t as u64)),
                ("makespan", Value::UInt(m.host_steps as u64)),
                ("load_bound", Value::Float(bounds::load_bound(m.guest_n, m.host_m))),
                ("slowdown", Value::Float(m.slowdown)),
                ("inefficiency", Value::Float(m.inefficiency)),
                ("k_upper", Value::Float(bounds::upper_bound_butterfly(m.guest_n, m.host_m))),
                ("avg_weight", Value::Float(m.avg_weight)),
                ("wall_ms", Value::Float(wall_ms)),
            ])
        },
        shapes: || {
            vec![
                // Thm 2.1: k grows affinely in log m (constant Δk per dim).
                Shape::AffineInLog { x: "host_m", y: "inefficiency", max_slope_ratio: 2.5 },
                // Thm 3.1: no measured point below the Ω(log m) curve.
                Shape::FloorLog { x: "host_m", y: "inefficiency", alpha: 1.0 },
                // Any simulation: slowdown dominates the load bound n/m.
                Shape::AtLeastColumn { y: "slowdown", floor: "load_bound" },
            ]
        },
    }
}

// --- E2: Theorem 3.1 lower-bound trade-off ------------------------------

const E2_GAMMA: f64 = 0.125;

fn e2_exp(quick: bool) -> u32 {
    if quick {
        8
    } else {
        14
    }
}

fn e2() -> Experiment {
    Experiment {
        id: "E2",
        title: "Theorem 3.1 lower-bound trade-off",
        claim: "Thm 3.1: m*s = Omega(n*log m); k_min grows with m and the lower \
                curve stays below the Thm 2.1 upper curve everywhere",
        grid_keys: &["host_m"],
        meta: |quick| {
            vec![
                ("guest_n".into(), Value::UInt(1u64 << e2_exp(quick))),
                ("gamma".into(), Value::Float(E2_GAMMA)),
            ]
        },
        grid: |quick| {
            let exp = e2_exp(quick);
            let n = 1u64 << exp;
            (3..=exp)
                .map(|e| {
                    GridPoint::new(vec![
                        ("host_m", Value::UInt(1u64 << e)),
                        ("guest_n", Value::UInt(n)),
                    ])
                })
                .collect()
        },
        run: |p| {
            let n = p.u64("guest_n");
            let m = p.u64("host_m");
            let wall_start = Instant::now();
            let table = tradeoff_table(n, &[m], E2_GAMMA, 4);
            let row = &table[0];
            let wall_ms = wall_start.elapsed().as_secs_f64() * 1e3;
            obj(vec![
                ("host_m", Value::UInt(row.m)),
                ("guest_n", Value::UInt(n)),
                ("inefficiency_ideal", Value::Float(row.k_ideal)),
                ("inefficiency_shape", Value::Float(row.k_shape)),
                ("inefficiency_paper", Value::Float(row.k_paper)),
                ("slowdown_shape", Value::Float(row.s_shape)),
                ("slowdown_upper", Value::Float(row.s_upper)),
                ("ms_product", Value::Float(row.ms_product)),
                ("wall_ms", Value::Float(wall_ms)),
            ])
        },
        shapes: || {
            vec![
                // k_min(m) grows with m (the Ω(log m) inefficiency floor).
                Shape::MonotoneInLog { x: "host_m", y: "inefficiency_ideal" },
                // The idealized solution of k + log2 k = log2 m stays a
                // constant fraction of log2 m.
                Shape::FloorLog { x: "host_m", y: "inefficiency_ideal", alpha: 0.5 },
                // Lower bound below upper bound everywhere (else one of the
                // two curves is mis-computed).
                Shape::AtLeastColumn { y: "slowdown_upper", floor: "slowdown_shape" },
                // The trade-off invariant: m*s_shape >= n (log m >= 1 here).
                Shape::AtLeastColumn { y: "ms_product", floor: "guest_n" },
            ]
        },
    }
}

// --- E16: degraded-mode fault sweep -------------------------------------

struct E16Sizes {
    n: usize,
    dim: usize,
    side: usize,
    steps: u32,
    rates: &'static [f64],
}

fn e16_sizes(quick: bool) -> E16Sizes {
    if quick {
        // Rate 0.2 so that ⌊rate·m⌋ ≥ 1 even on the 9-node mesh — a
        // "faulty" row that kills nobody would test nothing.
        E16Sizes { n: 48, dim: 2, side: 3, steps: 2, rates: &[0.0, 0.2] }
    } else {
        E16Sizes { n: 256, dim: 3, side: 6, steps: 3, rates: &[0.0, 0.05, 0.1, 0.2] }
    }
}

/// One degraded run on `host`: crash-stop `rate` of the nodes at boundary
/// 2, simulate, certify, and report the measured numbers against the
/// Theorem 3.1 shape on the **surviving** size `m'`.
fn e16_run_on<S: PathSelector>(
    label: &str,
    host: &Graph,
    selector: S,
    guest_n: usize,
    steps: u32,
    rate: f64,
) -> Value {
    let (guest, comp) = standard_guest(guest_n, 0xE16);
    let plan = FaultPlan::crashes(host, rate, 2, 0xE16);
    let sim = DegradedSimulator {
        embedding: Embedding::block(guest_n, host.n()),
        plan,
        selector: Some(selector),
    };
    let wall_start = Instant::now();
    let tuning = DegradedTuning { threads: 1, cache: true }; // the sweep shards across rows
    let run = sim
        .simulate_tuned(&comp, host, steps, &tuning, &mut seeded_rng(0xE16), &mut NoopRecorder)
        .expect("faults leave survivors at these rates");
    unet_pebble::check(&guest, host, &run.run.protocol).expect("degraded protocol certifies");
    assert_eq!(run.run.final_states, comp.run_final(steps), "bit-for-bit");
    let wall_ms = wall_start.elapsed().as_secs_f64() * 1e3;
    let k = run.surviving_inefficiency();
    let bound = bounds::lower_bound_inefficiency(run.m_surviving, 1.0);
    obj(vec![
        ("host", Value::Str(label.into())),
        ("fault_rate", Value::Float(rate)),
        ("host_m", Value::UInt(host.n() as u64)),
        ("m_surviving", Value::UInt(run.m_surviving as u64)),
        ("guest_n", Value::UInt(guest_n as u64)),
        ("slowdown", Value::Float(run.run.slowdown())),
        ("k", Value::Float(k)),
        ("k_bound", Value::Float(bound)),
        ("dropped", Value::UInt(run.dropped)),
        ("retried", Value::UInt(run.retried)),
        ("replayed", Value::UInt(run.replayed)),
        ("remapped", Value::UInt(run.remapped)),
        ("wall_ms", Value::Float(wall_ms)),
    ])
}

fn e16() -> Experiment {
    Experiment {
        id: "E16",
        title: "Degraded-mode simulation: slowdown vs crash-stop fault rate",
        claim: "Extrapolated from §3.1: a degraded host of surviving size m' is still \
                universal, and the Thm 3.1 trade-off holds on m' — measured \
                k' = s*m'/n >= Omega(log m') at every fault rate",
        grid_keys: &["host", "fault_rate"],
        meta: |quick| {
            let s = e16_sizes(quick);
            vec![
                ("guest".into(), Value::Str(format!("random-regular n={} d=4", s.n))),
                ("guest_n".into(), Value::UInt(s.n as u64)),
                ("guest_steps".into(), Value::UInt(s.steps as u64)),
                ("fault_boundary".into(), Value::UInt(2)),
            ]
        },
        grid: |quick| {
            let s = e16_sizes(quick);
            let mut points = Vec::new();
            for &rate in s.rates {
                for host in ["butterfly", "mesh"] {
                    points.push(GridPoint::new(vec![
                        ("host", Value::Str(host.into())),
                        ("fault_rate", Value::Float(rate)),
                        ("guest_n", Value::UInt(s.n as u64)),
                        ("guest_steps", Value::UInt(s.steps as u64)),
                        ("dim", Value::UInt(s.dim as u64)),
                        ("side", Value::UInt(s.side as u64)),
                    ]));
                }
            }
            points
        },
        run: |p| {
            let n = p.u64("guest_n") as usize;
            let steps = p.u64("guest_steps") as u32;
            let rate = p.f64("fault_rate");
            match p.str("host") {
                "butterfly" => {
                    let dim = p.u64("dim") as usize;
                    e16_run_on(
                        "butterfly",
                        &butterfly(dim),
                        GreedyButterfly { dim },
                        n,
                        steps,
                        rate,
                    )
                }
                "mesh" => {
                    let side = p.u64("side") as usize;
                    e16_run_on(
                        "mesh",
                        &torus(side, side),
                        DimensionOrder::torus(side, side),
                        n,
                        steps,
                        rate,
                    )
                }
                other => panic!("unknown E16 host {other:?}"),
            }
        },
        shapes: || {
            vec![
                // The claim itself: k on m' never dips below the Thm 3.1
                // curve (evaluated per row, stored as k_bound).
                Shape::AtLeastColumn { y: "k", floor: "k_bound" },
                // Crashes only remove hosts: m' <= m.
                Shape::AtLeastColumn { y: "host_m", floor: "m_surviving" },
            ]
        },
    }
}

// --- E17: engine thread/cache sweep -------------------------------------

fn e17_sizes(quick: bool) -> (usize, usize, u32) {
    if quick {
        (96, 2, 3)
    } else {
        (512, 3, 8)
    }
}

const E17_CONFIGS: [(&str, u64, bool); 4] = [
    ("seq-uncached", 1, false),
    ("seq-cached", 1, true),
    ("par-uncached", 4, false),
    ("par-cached", 4, true),
];

fn e17() -> Experiment {
    Experiment {
        id: "E17",
        title: "Engine thread/cache sweep: identical protocols, wall time",
        claim: "Engineering claim on the Thm 2.1 engine: the route-plan cache and \
                parallel phases change wall time only — protocol and final states \
                are bit-for-bit identical for every (threads, cache) setting",
        grid_keys: &["config"],
        meta: |quick| {
            let (n, _, steps) = e17_sizes(quick);
            vec![
                ("guest".into(), Value::Str(format!("random-regular n={n} d=4"))),
                ("guest_n".into(), Value::UInt(n as u64)),
                ("guest_steps".into(), Value::UInt(steps as u64)),
                ("router".into(), Value::Str("butterfly-valiant".into())),
            ]
        },
        grid: |quick| {
            let (n, dim, steps) = e17_sizes(quick);
            E17_CONFIGS
                .iter()
                .map(|&(label, threads, cache)| {
                    GridPoint::new(vec![
                        ("config", Value::Str(label.into())),
                        ("threads", Value::UInt(threads)),
                        ("cache", Value::Bool(cache)),
                        ("guest_n", Value::UInt(n as u64)),
                        ("dim", Value::UInt(dim as u64)),
                        ("guest_steps", Value::UInt(steps as u64)),
                        // One shared seed: rows must agree bit-for-bit.
                        ("seed", Value::UInt(0xE17)),
                    ])
                })
                .collect()
        },
        run: |p| {
            let n = p.u64("guest_n") as usize;
            let dim = p.u64("dim") as usize;
            let steps = p.u64("guest_steps") as u32;
            let threads = p.u64("threads") as usize;
            let cache = matches!(p.get("cache"), Some(Value::Bool(true)));
            let (guest, comp) = standard_guest(n, 0xE1);
            let host = butterfly(dim);
            let router: SelectorRouter<ValiantButterfly> = presets::butterfly_valiant(dim);
            let mut rec = InMemoryRecorder::new();
            let wall_start = Instant::now();
            let run = Simulation::builder()
                .guest(&comp)
                .host(&host)
                .embedding(Embedding::block(guest.n(), host.n()))
                .router(&router)
                .steps(steps)
                .seed(p.u64("seed"))
                .threads(threads)
                .cache_policy(if cache { CachePolicy::Enabled } else { CachePolicy::Disabled })
                .recorder(&mut rec)
                .run()
                .expect("E17 configuration is valid");
            let wall_ms = wall_start.elapsed().as_secs_f64() * 1e3;
            let trace = unet_pebble::check(&guest, &host, &run.protocol)
                .unwrap_or_else(|e| panic!("E17 {} failed to certify: {e}", p.str("config")));
            assert_eq!(run.final_states, comp.run_final(steps), "states bit-for-bit");
            let protocol_hash = fnv1a(unet_pebble::io::to_text(&run.protocol).bytes());
            let states_hash = fnv1a(run.final_states.iter().flat_map(|s| s.to_le_bytes()));
            obj(vec![
                ("config", Value::Str(p.str("config").into())),
                ("threads", Value::UInt(threads as u64)),
                ("cache", Value::Bool(cache)),
                ("guest_n", Value::UInt(n as u64)),
                ("host_m", Value::UInt(host.n() as u64)),
                ("guest_steps", Value::UInt(steps as u64)),
                ("makespan", Value::UInt(trace.host_steps as u64)),
                ("cache_hits", Value::UInt(rec.counter_value("sim.cache.hits"))),
                ("cache_misses", Value::UInt(rec.counter_value("sim.cache.misses"))),
                ("protocol_hash", Value::UInt(protocol_hash)),
                ("states_hash", Value::UInt(states_hash)),
                ("wall_ms", Value::Float(wall_ms)),
            ])
        },
        shapes: || {
            vec![
                // The bit-for-bit claim, at artifact level: every row emits
                // the identical protocol and states.
                Shape::ConstantColumn { col: "protocol_hash" },
                Shape::ConstantColumn { col: "states_hash" },
                Shape::ConstantColumn { col: "makespan" },
                // Deterministic cache behaviour: one cold phase, then replays.
                Shape::CacheCounters { cache: "cache", hits: "cache_hits", misses: "cache_misses" },
                // The cached row must not lose its speedup ordering (loose,
                // and skipped below the noise floor — see Shape docs).
                Shape::SpeedupOrdering {
                    key: "config",
                    fast: "seq-cached",
                    slow: "seq-uncached",
                    wall: "wall_ms",
                    factor: 1.5,
                    min_wall_ms: 5.0,
                },
            ]
        },
    }
}

// --- E18: congestion telemetry vs load factor ---------------------------

struct E18Sizes {
    dims: &'static [usize],
    loads: &'static [u64],
    steps: u32,
}

fn e18_sizes(quick: bool) -> E18Sizes {
    if quick {
        E18Sizes { dims: &[2, 3], loads: &[1, 2], steps: 2 }
    } else {
        E18Sizes { dims: &[2, 3, 4], loads: &[1, 2, 4], steps: 3 }
    }
}

/// The symbolic constant of E18's `O(load · log m)` congestion envelope.
/// Measured per-phase hot-edge utilization on the full grid sits at
/// `3–4.5 · load · log₂ m` (each host forwards ~`4·load` weighted guest
/// messages per phase, and Valiant spreads them over `Θ(log m)`-length
/// paths); 10 leaves ~2× headroom for routing noise while still failing
/// loudly if congestion ever turns polynomial in `m`.
const E18_C: f64 = 10.0;

fn e18() -> Experiment {
    Experiment {
        id: "E18",
        title: "Congestion telemetry: hot-edge utilization vs load factor",
        claim: "Engineering claim on the Thm 2.1 engine telemetry: with Valiant \
                routing, the per-phase utilization of the hottest host edge stays \
                within an O(load * log m) envelope as the load factor n/m scales \
                — at every load, the max-congestion curve keeps the O(log m) shape",
        grid_keys: &["dim", "load"],
        meta: |quick| {
            let s = e18_sizes(quick);
            vec![
                ("guest".into(), Value::Str("random-regular d=4, n = load*m".into())),
                ("guest_steps".into(), Value::UInt(s.steps as u64)),
                ("router".into(), Value::Str("butterfly-valiant".into())),
                ("congestion_c".into(), Value::Float(E18_C)),
            ]
        },
        grid: |quick| {
            let s = e18_sizes(quick);
            let mut points = Vec::new();
            for &dim in s.dims {
                for &load in s.loads {
                    points.push(GridPoint::new(vec![
                        ("dim", Value::UInt(dim as u64)),
                        ("load", Value::UInt(load)),
                        ("guest_steps", Value::UInt(s.steps as u64)),
                        ("seed", Value::UInt(0xE1800 + (dim as u64) * 16 + load)),
                    ]));
                }
            }
            points
        },
        run: |p| {
            use std::collections::BTreeMap;
            let dim = p.u64("dim") as usize;
            let load = p.u64("load");
            let steps = p.u64("guest_steps") as u32;
            let host = butterfly(dim);
            let m = host.n();
            let n = load as usize * m;
            let (guest, comp) = standard_guest(n, 0xE18);
            let router: SelectorRouter<ValiantButterfly> = presets::butterfly_valiant(dim);
            let mut rec = InMemoryRecorder::new();
            let wall_start = Instant::now();
            let run = Simulation::builder()
                .guest(&comp)
                .host(&host)
                .embedding(Embedding::block(guest.n(), host.n()))
                .router(&router)
                .steps(steps)
                .seed(p.u64("seed"))
                .threads(1) // the sweep itself shards across rows
                .recorder(&mut rec)
                .run()
                .expect("E18 configuration is valid");
            let wall_ms = wall_start.elapsed().as_secs_f64() * 1e3;
            assert_eq!(run.final_states, comp.run_final(steps), "states bit-for-bit");
            // Fold the per-(round, edge) telemetry into per-edge totals; the
            // hottest edge divided by the number of comm phases is the
            // measured per-phase congestion the envelope must dominate.
            let cells =
                rec.sample_data("sim.edge_util").expect("engine emits edge-utilization telemetry");
            let mut per_edge: BTreeMap<u64, u64> = BTreeMap::new();
            let mut comm_rounds = 0u64;
            for (&(round, edge), &v) in cells {
                *per_edge.entry(edge).or_insert(0) += v;
                comm_rounds = comm_rounds.max(round + 1);
            }
            let max_edge_total = per_edge.values().copied().max().unwrap_or(0);
            let max_edge_util = max_edge_total as f64 / steps as f64;
            let queue = rec.histogram_data("route.queue_occupancy");
            obj(vec![
                ("dim", Value::UInt(dim as u64)),
                ("load", Value::UInt(load)),
                ("guest_n", Value::UInt(n as u64)),
                ("host_m", Value::UInt(m as u64)),
                ("guest_steps", Value::UInt(steps as u64)),
                ("comm_rounds", Value::UInt(comm_rounds)),
                ("hot_edges", Value::UInt(per_edge.len() as u64)),
                ("max_edge_total", Value::UInt(max_edge_total)),
                ("max_edge_util", Value::Float(max_edge_util)),
                ("congestion_bound", Value::Float(E18_C * load as f64 * (m as f64).log2())),
                ("max_queue", Value::UInt(queue.map_or(0, |h| h.max))),
                ("mean_queue", Value::Float(queue.and_then(|h| h.mean()).unwrap_or(0.0))),
                ("wall_ms", Value::Float(wall_ms)),
            ])
        },
        shapes: || {
            vec![
                // The claim itself: measured per-phase hot-edge utilization
                // never escapes the O(load · log m) envelope (evaluated per
                // row, stored as congestion_bound).
                Shape::AtLeastColumn { y: "congestion_bound", floor: "max_edge_util" },
                // Structural invariant of the round schedule: an edge moves
                // at most one packet per comm round, so the hottest edge's
                // total cannot exceed the number of rounds.
                Shape::AtLeastColumn { y: "comm_rounds", floor: "max_edge_total" },
                // The queue telemetry agrees with itself: the mean occupancy
                // of non-empty queues cannot exceed the worst queue.
                Shape::AtLeastColumn { y: "max_queue", floor: "mean_queue" },
            ]
        },
    }
}

// --- E19: serving layer offered-load sweep ------------------------------

struct E19Sizes {
    guest_n: usize,
    dim: usize,
    steps: u32,
    requests: u64,
}

fn e19_sizes(quick: bool) -> E19Sizes {
    if quick {
        E19Sizes { guest_n: 96, dim: 3, steps: 4, requests: 10 }
    } else {
        E19Sizes { guest_n: 192, dim: 4, steps: 4, requests: 16 }
    }
}

/// `(label, workers, clients)` — one closed-loop offered-load point per
/// row. `w1-c4` is the saturation point for one worker; `w4-c4` offers the
/// same load to four workers.
const E19_CONFIGS: [(&str, u64, u64); 3] = [("w1-c1", 1, 1), ("w1-c4", 1, 4), ("w4-c4", 4, 4)];

fn e19() -> Experiment {
    Experiment {
        id: "E19",
        title: "Serving layer: closed-loop offered-load sweep over worker counts",
        claim: "Engineering claim on unet-serve: under a repeated closed-loop workload, \
                per-request wall time at saturation is ordered by worker count, p99 \
                latency stays bounded by the request deadline below the knee, the \
                shared route-plan cache hit ratio approaches 1, and no admitted \
                request is dropped across the graceful drain",
        grid_keys: &["config"],
        meta: |quick| {
            let s = e19_sizes(quick);
            vec![
                ("guest".into(), Value::Str(format!("ring:{}", s.guest_n))),
                ("host".into(), Value::Str(format!("butterfly:{}", s.dim))),
                ("guest_steps".into(), Value::UInt(s.steps as u64)),
                ("requests_per_client".into(), Value::UInt(s.requests)),
                ("protocol".into(), Value::Str(unet_serve::PROTOCOL.into())),
            ]
        },
        grid: |quick| {
            let s = e19_sizes(quick);
            E19_CONFIGS
                .iter()
                .map(|&(label, workers, clients)| {
                    GridPoint::new(vec![
                        ("config", Value::Str(label.into())),
                        ("workers", Value::UInt(workers)),
                        ("clients", Value::UInt(clients)),
                        ("guest_n", Value::UInt(s.guest_n as u64)),
                        ("dim", Value::UInt(s.dim as u64)),
                        ("guest_steps", Value::UInt(s.steps as u64)),
                        ("requests_per_client", Value::UInt(s.requests)),
                        // One seed for every client: the whole sweep is one
                        // repeated workload, so exactly one plan compile.
                        ("seed", Value::UInt(0xE19)),
                    ])
                })
                .collect()
        },
        run: |p| {
            let workers = p.u64("workers") as usize;
            let deadline_ms = ServeConfig::default().default_deadline_ms;
            // Each row runs its own server on an ephemeral port, so rows
            // are parallel-shard-safe like every other runner.
            let server =
                Server::start(ServeConfig { workers, queue_cap: 64, ..ServeConfig::default() })
                    .expect("bind 127.0.0.1:0");
            let report = loadgen::run(&LoadgenConfig {
                addr: server.addr().to_string(),
                clients: p.u64("clients") as usize,
                requests_per_client: p.u64("requests_per_client") as usize,
                batch: 1,
                guest: format!("ring:{}", p.u64("guest_n")),
                host: format!("butterfly:{}", p.u64("dim")),
                steps: p.u64("guest_steps") as u32,
                seed: p.u64("seed"),
                deadline_ms: None,
                warmup: true,
                shards: 1,
            })
            .expect("loadgen against a live server");
            let drained = server.drain();
            assert_eq!(report.completed, report.sent, "closed loop loses no request");
            assert_eq!(report.errors, 0, "no error responses at this load");
            obj(vec![
                ("config", Value::Str(p.str("config").into())),
                ("workers", Value::UInt(workers as u64)),
                ("clients", Value::UInt(p.u64("clients"))),
                ("requests", Value::UInt(report.sent as u64)),
                ("completed", Value::UInt(drained.stats.completed)),
                ("rejected", Value::UInt(drained.stats.rejected)),
                ("ms_per_req", Value::Float(report.wall_ms / report.sent.max(1) as f64)),
                ("p99_ms", Value::Float(report.percentile_ms(99.0).unwrap_or(0.0))),
                ("p99_cap_ms", Value::Float(deadline_ms as f64)),
                ("throughput_rps", Value::Float(report.throughput_rps())),
                ("hit_ratio", Value::Float(drained.stats.hit_ratio().unwrap_or(0.0))),
                ("hit_ratio_floor", Value::Float(0.9)),
                ("wall_ms", Value::Float(report.wall_ms)),
            ])
        },
        shapes: || {
            vec![
                // Saturation throughput ordered by worker count: four
                // workers serve the four-client load with less wall time
                // per request than one worker (loose factor, skipped below
                // the timing-noise floor like E17's ordering check).
                Shape::SpeedupOrdering {
                    key: "config",
                    fast: "w4-c4",
                    slow: "w1-c4",
                    wall: "ms_per_req",
                    factor: 1.75,
                    min_wall_ms: 2.0,
                },
                // Below the knee nothing times out: p99 stays under the
                // request deadline.
                Shape::AtLeastColumn { y: "p99_cap_ms", floor: "p99_ms" },
                // Repeated workload → hit ratio approaches 1 (one cold
                // compile, then every request replays the shared plan).
                Shape::AtLeastColumn { y: "hit_ratio", floor: "hit_ratio_floor" },
                // Zero dropped in-flight requests across the drain: the
                // server answered every request the clients sent.
                Shape::AtLeastColumn { y: "completed", floor: "requests" },
            ]
        },
    }
}

// --- E20: batched execution, offered load x batch size ------------------

struct E20Sizes {
    guest_n: usize,
    dim: usize,
    steps: u32,
    items_per_client: u64,
}

fn e20_sizes(quick: bool) -> E20Sizes {
    if quick {
        E20Sizes { guest_n: 96, dim: 3, steps: 4, items_per_client: 8 }
    } else {
        E20Sizes { guest_n: 192, dim: 4, steps: 4, items_per_client: 16 }
    }
}

/// `(label, clients, batch)` at a fixed four permits. Each client issues
/// the same number of simulate *items*; the batch size only changes how
/// many ride one round trip, so `c1-b4` vs `c1-b1` isolates the win from
/// batched execution at equal workers and equal offered load.
const E20_CONFIGS: [(&str, u64, u64); 4] =
    [("c1-b1", 1, 1), ("c1-b4", 1, 4), ("c4-b1", 4, 1), ("c4-b4", 4, 4)];

/// Simulation permits shared by every E20 row.
const E20_WORKERS: usize = 4;

fn e20() -> Experiment {
    Experiment {
        id: "E20",
        title: "Serving layer: batched execution across offered load x batch size",
        claim: "Engineering claim on unet-serve/3: grouping simulate items into batch \
                requests lets the server run them concurrently under its simulation \
                permits, so at equal \
                workers and equal offered load, batch >= 4 beats batch = 1 on wall time \
                per item; cold batches coalesce their route-plan build through the \
                single-flight cache (batchmates counted as followers), p99 round-trip \
                latency stays under the request deadline, and no item is lost",
        grid_keys: &["config"],
        meta: |quick| {
            let s = e20_sizes(quick);
            vec![
                ("guest".into(), Value::Str(format!("ring:{}", s.guest_n))),
                ("host".into(), Value::Str(format!("butterfly:{}", s.dim))),
                ("guest_steps".into(), Value::UInt(s.steps as u64)),
                ("items_per_client".into(), Value::UInt(s.items_per_client)),
                ("workers".into(), Value::UInt(E20_WORKERS as u64)),
                ("protocol".into(), Value::Str(unet_serve::PROTOCOL.into())),
            ]
        },
        grid: |quick| {
            let s = e20_sizes(quick);
            E20_CONFIGS
                .iter()
                .map(|&(label, clients, batch)| {
                    GridPoint::new(vec![
                        ("config", Value::Str(label.into())),
                        ("clients", Value::UInt(clients)),
                        ("batch", Value::UInt(batch)),
                        ("guest_n", Value::UInt(s.guest_n as u64)),
                        ("dim", Value::UInt(s.dim as u64)),
                        ("guest_steps", Value::UInt(s.steps as u64)),
                        ("items_per_client", Value::UInt(s.items_per_client)),
                        // One seed everywhere: one fingerprint, one plan
                        // compile, coalesced by the single-flight layer.
                        ("seed", Value::UInt(0xE20)),
                    ])
                })
                .collect()
        },
        run: |p| {
            let batch = p.u64("batch") as usize;
            let clients = p.u64("clients") as usize;
            let items = p.u64("items_per_client") * p.u64("clients");
            let deadline_ms = ServeConfig::default().default_deadline_ms;
            let server = Server::start(ServeConfig {
                workers: E20_WORKERS,
                queue_cap: 64,
                ..ServeConfig::default()
            })
            .expect("bind 127.0.0.1:0");
            // No warm-up: the cold first batch is part of the claim — its
            // plan build must coalesce, not multiply.
            let report = loadgen::run(&LoadgenConfig {
                addr: server.addr().to_string(),
                clients,
                requests_per_client: (p.u64("items_per_client") as usize) / batch,
                batch,
                guest: format!("ring:{}", p.u64("guest_n")),
                host: format!("butterfly:{}", p.u64("dim")),
                steps: p.u64("guest_steps") as u32,
                seed: p.u64("seed"),
                deadline_ms: None,
                warmup: false,
                shards: 1,
            })
            .expect("loadgen against a live server");
            let drained = server.drain();
            assert_eq!(report.sent as u64, items, "grid arithmetic covers every item");
            assert_eq!(report.errors, 0, "no error responses at this load");
            // Every cold batchmate must have ridden the leader's build.
            let followers_floor = if batch > 1 { batch as u64 - 1 } else { 0 };
            obj(vec![
                ("config", Value::Str(p.str("config").into())),
                ("workers", Value::UInt(E20_WORKERS as u64)),
                ("clients", Value::UInt(clients as u64)),
                ("batch", Value::UInt(batch as u64)),
                ("items", Value::UInt(items)),
                ("completed", Value::UInt(report.completed as u64)),
                ("ms_per_item", Value::Float(report.wall_ms / items.max(1) as f64)),
                ("p99_ms", Value::Float(report.percentile_ms(99.0).unwrap_or(0.0))),
                ("p99_cap_ms", Value::Float(deadline_ms as f64)),
                ("throughput_rps", Value::Float(report.throughput_rps())),
                ("singleflight_followers", Value::UInt(drained.stats.singleflight_followers)),
                ("followers_floor", Value::UInt(followers_floor)),
                ("wall_ms", Value::Float(report.wall_ms)),
            ])
        },
        shapes: || {
            vec![
                // The tentpole claim: at equal workers and equal offered
                // load, batched execution beats one-at-a-time round trips
                // (loose factor, skipped below the timing-noise floor).
                Shape::SpeedupOrdering {
                    key: "config",
                    fast: "c1-b4",
                    slow: "c1-b1",
                    wall: "ms_per_item",
                    factor: 1.75,
                    min_wall_ms: 2.0,
                },
                // Round-trip p99 stays under the request deadline.
                Shape::AtLeastColumn { y: "p99_cap_ms", floor: "p99_ms" },
                // Cold batchmates coalesce: each batch's plan build is
                // shared, counted via the single-flight follower counter.
                Shape::AtLeastColumn { y: "singleflight_followers", floor: "followers_floor" },
                // No item lost: every spec sent came back answered.
                Shape::AtLeastColumn { y: "completed", floor: "items" },
            ]
        },
    }
}

// --- E21: sharded serving tier, fingerprint-affine scale-out ------------

struct E21Sizes {
    guest_n: usize,
    dim: usize,
    steps: u32,
    clients: u64,
    requests: u64,
}

fn e21_sizes(quick: bool) -> E21Sizes {
    if quick {
        E21Sizes { guest_n: 96, dim: 3, steps: 4, clients: 4, requests: 4 }
    } else {
        E21Sizes { guest_n: 192, dim: 4, steps: 4, clients: 8, requests: 8 }
    }
}

/// `(label, shards)` — one `unet shard` deployment per row, every backend
/// with one worker so the shard count is the only parallelism knob.
const E21_CONFIGS: [(&str, u64); 3] = [("s1", 1), ("s2", 2), ("s4", 4)];

/// Cores available when a row is measured — recorded *into the row* so the
/// wall-clock scaling gate arms itself only where shards truly run in
/// parallel (a committed single-core artifact stays honest on any checker).
fn cores_now() -> u64 {
    std::thread::available_parallelism().map(|n| n.get() as u64).unwrap_or(1)
}

fn e21() -> Experiment {
    Experiment {
        id: "E21",
        title: "Sharded serving tier: fingerprint-affine scale-out across backend shards",
        claim: "Engineering claim on unet shard: consistent-hashing workload fingerprints \
                to backend shards preserves plan-cache locality through scale-out — each \
                shard absorbs exactly its share of a balanced closed-loop workload with \
                one cold compile, the global hit ratio stays within 5% of the \
                single-shard ratio for the same workload set, zero requests are lost or \
                failed over, and (given one core per shard plus one for the router) \
                4 shards sustain at least 3x the single-shard offered load",
        grid_keys: &["config"],
        meta: |quick| {
            let s = e21_sizes(quick);
            vec![
                ("guest".into(), Value::Str(format!("ring:{}", s.guest_n))),
                ("host".into(), Value::Str(format!("butterfly:{}", s.dim))),
                ("guest_steps".into(), Value::UInt(s.steps as u64)),
                ("clients".into(), Value::UInt(s.clients)),
                ("requests_per_client".into(), Value::UInt(s.requests)),
                ("workers_per_shard".into(), Value::UInt(1)),
                ("protocol".into(), Value::Str(unet_serve::PROTOCOL.into())),
            ]
        },
        grid: |quick| {
            let s = e21_sizes(quick);
            E21_CONFIGS
                .iter()
                .map(|&(label, shards)| {
                    GridPoint::new(vec![
                        ("config", Value::Str(label.into())),
                        ("shards", Value::UInt(shards)),
                        ("clients", Value::UInt(s.clients)),
                        ("guest_n", Value::UInt(s.guest_n as u64)),
                        ("dim", Value::UInt(s.dim as u64)),
                        ("guest_steps", Value::UInt(s.steps as u64)),
                        ("requests_per_client", Value::UInt(s.requests)),
                        // Base seed; the load generator searches upward from
                        // it for one fingerprint per shard, so every shard
                        // sees exactly one distinct workload.
                        ("seed", Value::UInt(0xE21)),
                    ])
                })
                .collect()
        },
        run: |p| {
            let shards = p.u64("shards") as usize;
            let clients = p.u64("clients") as usize;
            let requests = p.u64("requests_per_client");
            let deadline_ms = ServeConfig::default().default_deadline_ms;
            // One worker per backend: the shard count is the only
            // parallelism in the row. Everything runs in-process on
            // ephemeral ports, like E19/E20.
            let backends: Vec<Server> = (0..shards)
                .map(|_| {
                    Server::start(ServeConfig {
                        workers: 1,
                        queue_cap: 64,
                        ..ServeConfig::default()
                    })
                    .expect("bind backend on 127.0.0.1:0")
                })
                .collect();
            let router = ShardRouter::start(ShardConfig {
                backends: backends.iter().map(|b| b.addr().to_string()).collect(),
                workers: clients.max(2),
                ..ShardConfig::default()
            })
            .expect("bind router on 127.0.0.1:0");
            let report = loadgen::run(&LoadgenConfig {
                addr: router.addr().to_string(),
                clients,
                requests_per_client: requests as usize,
                batch: 1,
                guest: format!("ring:{}", p.u64("guest_n")),
                host: format!("butterfly:{}", p.u64("dim")),
                steps: p.u64("guest_steps") as u32,
                seed: p.u64("seed"),
                deadline_ms: None,
                warmup: true,
                shards,
            })
            .expect("loadgen against a live router");
            let router_drained = router.drain();
            let backend_drains: Vec<_> = backends.into_iter().map(Server::drain).collect();
            assert_eq!(report.completed, report.sent, "closed loop loses no request");
            assert_eq!(report.errors, 0, "no error responses at this load");
            // Per-shard simulate executions, counted by the one signal the
            // prober's metrics probes cannot inflate: plan-cache touches.
            let executed: Vec<u64> = backend_drains
                .iter()
                .map(|d| d.stats.shared_hits + d.stats.shared_misses)
                .collect();
            let min_shard = executed.iter().copied().min().unwrap_or(0);
            let hits: u64 = backend_drains.iter().map(|d| d.stats.shared_hits).sum();
            let misses: u64 = backend_drains.iter().map(|d| d.stats.shared_misses).sum();
            let hit_ratio = hits as f64 / (hits + misses).max(1) as f64;
            // The single-shard ratio for the same N distinct workloads is
            // C·R/(C·R + N) — one cold compile per workload either way.
            // Affinity means sharding adds no misses beyond that; 0.95 is
            // slack for a failover-induced recompile.
            let cr = (clients as u64 * requests) as f64;
            let single_shard_ratio = cr / (cr + shards as f64);
            obj(vec![
                ("config", Value::Str(p.str("config").into())),
                ("shards", Value::UInt(shards as u64)),
                ("clients", Value::UInt(clients as u64)),
                ("requests", Value::UInt(report.sent as u64)),
                ("completed", Value::UInt(report.completed as u64)),
                ("min_shard_executed", Value::UInt(min_shard)),
                // Exact per-shard share of the measured phase: the seed
                // search pins one workload per shard and clients spread
                // round-robin, so balance is arithmetic, not stochastic.
                ("balance_floor", Value::UInt(clients as u64 / shards as u64 * requests)),
                ("hit_ratio", Value::Float(hit_ratio)),
                ("hit_ratio_floor", Value::Float(0.95 * single_shard_ratio)),
                ("failovers", Value::UInt(router_drained.stats.failovers)),
                ("failover_cap", Value::UInt(0)),
                ("p99_ms", Value::Float(report.percentile_ms(99.0).unwrap_or(0.0))),
                ("p99_cap_ms", Value::Float(deadline_ms as f64)),
                ("ms_per_req", Value::Float(report.wall_ms / report.sent.max(1) as f64)),
                ("throughput_rps", Value::Float(report.throughput_rps())),
                ("wall_ms", Value::Float(report.wall_ms)),
                ("cores", Value::UInt(cores_now())),
                ("cores_needed", Value::UInt(shards as u64 + 1)),
            ])
        },
        shapes: || {
            vec![
                // The scale-out claim, armed only where the shards can
                // actually run in parallel (cores recorded per row).
                Shape::ThroughputScaling {
                    key: "config",
                    fast: "s4",
                    slow: "s1",
                    throughput: "throughput_rps",
                    factor: 3.0,
                    cores: "cores",
                    cores_needed: "cores_needed",
                },
                // Affinity keeps every shard's cache warm: the global hit
                // ratio stays within 5% of the single-shard ratio.
                Shape::AtLeastColumn { y: "hit_ratio", floor: "hit_ratio_floor" },
                // The balanced workload lands exactly (C/N)·R measured
                // requests on every shard — machine-independent.
                Shape::AtLeastColumn { y: "min_shard_executed", floor: "balance_floor" },
                // Healthy backends: nothing failed over.
                Shape::AtLeastColumn { y: "failover_cap", floor: "failovers" },
                // Below the knee nothing times out.
                Shape::AtLeastColumn { y: "p99_cap_ms", floor: "p99_ms" },
                // Zero lost requests through the router and the drain.
                Shape::AtLeastColumn { y: "completed", floor: "requests" },
            ]
        },
    }
}

// --- E22: request tracing, stage-span accounting under offered load -----

struct E22Sizes {
    guest_n: usize,
    dim: usize,
    steps: u32,
    requests: u64,
}

fn e22_sizes(quick: bool) -> E22Sizes {
    // Step counts are chosen so the simulate span dwarfs the fixed
    // per-request residue the spans cannot cover (the wire and the
    // wakeups) — the 95% accounting gate needs service time, not load.
    if quick {
        E22Sizes { guest_n: 96, dim: 3, steps: 256, requests: 4 }
    } else {
        E22Sizes { guest_n: 192, dim: 4, steps: 64, requests: 12 }
    }
}

/// `(label, clients, queue_share_floor)` — closed-loop offered load against
/// a one-worker server. `c1` is below capacity (no queue to speak of);
/// `c4` offers 4x the service rate, so nearly every request spends most of
/// its life in `queue_wait` — the dominance floor arms only there.
const E22_CONFIGS: [(&str, u64, f64); 3] = [("c1", 1, 0.0), ("c2", 2, 0.0), ("c4", 4, 0.5)];

fn e22() -> Experiment {
    Experiment {
        id: "E22",
        title: "Request tracing: stage spans account for end-to-end latency",
        claim: "Engineering claim on unet-serve/3 tracing: the per-request stage spans \
                the server returns (accept, admit, queue_wait, singleflight_wait, \
                plan_build, simulate) and the client's own spans (client.write, \
                client.parse) account for at least 95% of the client-measured \
                end-to-end latency on every offered-load point, queue_wait becomes the \
                dominant stage once the closed-loop load crosses the one-permit \
                capacity, and the tail sampler keeps at least one request record \
                through the drain at the default head-sampling rate",
        grid_keys: &["config"],
        meta: |quick| {
            let s = e22_sizes(quick);
            vec![
                ("guest".into(), Value::Str(format!("ring:{}", s.guest_n))),
                ("host".into(), Value::Str(format!("butterfly:{}", s.dim))),
                ("guest_steps".into(), Value::UInt(s.steps as u64)),
                ("requests_per_client".into(), Value::UInt(s.requests)),
                ("workers".into(), Value::UInt(1)),
                ("protocol".into(), Value::Str(unet_serve::PROTOCOL.into())),
            ]
        },
        grid: |quick| {
            let s = e22_sizes(quick);
            E22_CONFIGS
                .iter()
                .map(|&(label, clients, queue_floor)| {
                    GridPoint::new(vec![
                        ("config", Value::Str(label.into())),
                        ("clients", Value::UInt(clients)),
                        ("queue_share_floor", Value::Float(queue_floor)),
                        ("guest_n", Value::UInt(s.guest_n as u64)),
                        ("dim", Value::UInt(s.dim as u64)),
                        ("guest_steps", Value::UInt(s.steps as u64)),
                        ("requests_per_client", Value::UInt(s.requests)),
                        // One seed for every client: one repeated workload,
                        // so plan_build shows up exactly once per row.
                        ("seed", Value::UInt(0xE22)),
                    ])
                })
                .collect()
        },
        run: |p| {
            let clients = p.u64("clients") as usize;
            // One simulation permit, one thread per client connection:
            // every connection is served concurrently, so the client count
            // alone decides whether the row sits below or beyond capacity
            // and the excess shows up as permit wait (`queue_wait`).
            let server =
                Server::start(ServeConfig { workers: 1, queue_cap: 64, ..ServeConfig::default() })
                    .expect("bind 127.0.0.1:0");
            let report = loadgen::run(&LoadgenConfig {
                addr: server.addr().to_string(),
                clients,
                requests_per_client: p.u64("requests_per_client") as usize,
                batch: 1,
                guest: format!("ring:{}", p.u64("guest_n")),
                host: format!("butterfly:{}", p.u64("dim")),
                steps: p.u64("guest_steps") as u32,
                seed: p.u64("seed"),
                deadline_ms: None,
                warmup: true,
                shards: 1,
            })
            .expect("loadgen against a live server");
            let drained = server.drain();
            assert_eq!(report.completed, report.sent, "closed loop loses no request");
            assert_eq!(report.errors, 0, "no error responses at this load");
            // The drained trace is the tail sampler's verdict: at the
            // default head rate with slow-tail keeps, a loaded row must
            // flush at least one request record.
            let mut trace = Vec::new();
            drained.trace.write_to(&mut trace).expect("writing to a Vec");
            let sampled = std::str::from_utf8(&trace)
                .map_err(|e| e.to_string())
                .and_then(unet_obs::analysis::analyze_str)
                .map(|a| a.requests.count)
                .unwrap_or(0);
            obj(vec![
                ("config", Value::Str(p.str("config").into())),
                ("clients", Value::UInt(clients as u64)),
                ("requests", Value::UInt(report.sent as u64)),
                ("completed", Value::UInt(drained.stats.completed)),
                ("span_coverage", Value::Float(report.span_coverage().unwrap_or(0.0))),
                ("coverage_floor", Value::Float(0.95)),
                ("queue_share", Value::Float(report.stage_share("queue_wait").unwrap_or(0.0))),
                ("queue_share_floor", Value::Float(p.f64("queue_share_floor"))),
                ("sampled_requests", Value::UInt(sampled)),
                ("sampled_floor", Value::UInt(1)),
                ("ms_per_req", Value::Float(report.wall_ms / report.sent.max(1) as f64)),
                ("wall_ms", Value::Float(report.wall_ms)),
            ])
        },
        shapes: || {
            vec![
                // The accounting claim: the server's stage spans and the
                // client's write and parse spans explain (almost) all of
                // the latency the client observed — the wire, the wakeups
                // and the server's `serialize` are the only residue.
                Shape::AtLeastColumn { y: "span_coverage", floor: "coverage_floor" },
                // Past the knee the request's life is the queue: queue_wait
                // is the dominant stage on the over-capacity row (the floor
                // is 0 below the knee, so under-loaded rows gate trivially).
                Shape::AtLeastColumn { y: "queue_share", floor: "queue_share_floor" },
                // Tail sampling never goes dark: every row flushes at least
                // one request record through the drain.
                Shape::AtLeastColumn { y: "sampled_requests", floor: "sampled_floor" },
                // Zero lost requests, same closed-loop contract as E19.
                Shape::AtLeastColumn { y: "completed", floor: "requests" },
            ]
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{run_sweep, SweepOptions};

    fn find(id: &str) -> Experiment {
        registry().into_iter().find(|e| e.id == id).expect("registered")
    }

    /// Run an experiment's quick grid and check the registry contract:
    /// every row embeds its grid point's key, and the rows satisfy the
    /// experiment's own shape predicates.
    fn quick_rows(id: &str) -> Vec<Value> {
        let exp = find(id);
        let grid = (exp.grid)(true);
        let rows: Vec<Value> = grid.iter().map(|p| (exp.run)(p)).collect();
        for (p, row) in grid.iter().zip(&rows) {
            assert_eq!(
                row_key(row, exp.grid_keys).as_deref(),
                Some(p.key(exp.grid_keys).as_str()),
                "{id}: row does not embed its grid point"
            );
        }
        for shape in (exp.shapes)() {
            shape.check(&rows).unwrap_or_else(|v| panic!("{id}: {v}"));
        }
        rows
    }

    fn col<'a>(row: &'a Value, name: &str) -> &'a Value {
        row.get(name).unwrap_or_else(|| panic!("row lacks {name}: {}", row.to_json()))
    }

    fn config_row<'a>(rows: &'a [Value], config: &str) -> &'a Value {
        rows.iter()
            .find(|r| r.get("config").and_then(Value::as_str) == Some(config))
            .unwrap_or_else(|| panic!("{config} row"))
    }

    #[test]
    fn registry_is_canonical() {
        let reg = registry();
        let ids: Vec<&str> = reg.iter().map(|e| e.id).collect();
        assert_eq!(
            ids,
            [
                "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12a", "E12b",
                "E12c", "E12d", "E12e", "E13", "E14", "E15", "E16", "E17", "E18", "E19", "E20",
                "E21", "E22"
            ]
        );
        for exp in &reg {
            assert!(!(exp.shapes)().is_empty(), "{} has no shape predicates", exp.id);
            for quick in [true, false] {
                let grid = (exp.grid)(quick);
                assert!(!grid.is_empty(), "{} has an empty grid", exp.id);
                // Grid keys identify points uniquely.
                let mut keys: Vec<String> = grid.iter().map(|p| p.key(exp.grid_keys)).collect();
                keys.sort();
                keys.dedup();
                assert_eq!(keys.len(), grid.len(), "{} grid keys collide", exp.id);
            }
        }
    }

    #[test]
    fn artifacts_round_trip_with_required_fields() {
        // E1 exercises the builder engine; E2 the trade-off table.
        let opts = SweepOptions {
            quick: true,
            filter: Some(SweepOptions::parse_filter("e1,e2")),
            threads: 2,
        };
        let doc = crate::schema::BenchDoc::parse(&run_sweep(&opts).to_json()).expect("parses");
        for exp in &doc.experiments {
            assert!(!exp.rows.is_empty());
            for row in &exp.rows {
                assert!(col(row, "host_m").as_u64().is_some());
                assert!(col(row, "guest_n").as_u64().is_some());
            }
            assert!(exp.wall_ms_total >= 0.0);
        }
        // E1 rows carry measured slowdown + wall time (the regression signal).
        for row in &doc.experiment("E1").expect("E1 present").rows {
            assert!(col(row, "slowdown").as_f64().unwrap() >= 1.0);
            assert!(col(row, "inefficiency").as_f64().unwrap() > 0.0);
            assert!(col(row, "makespan").as_u64().unwrap() > 0);
            assert!(col(row, "wall_ms").as_f64().unwrap() >= 0.0);
        }
        quick_rows("E2");
    }

    #[test]
    fn e16_rows_respect_the_surviving_size_bound() {
        // The shapes check k >= k_bound; the fault story is checked here.
        let rows = quick_rows("E16");
        assert_eq!(rows.len(), 4, "2 rates x 2 hosts in quick mode");
        let mut faulted = 0;
        for row in &rows {
            let m = col(row, "host_m").as_u64().unwrap();
            let m_surv = col(row, "m_surviving").as_u64().unwrap();
            assert!(m_surv > 0);
            let rate = col(row, "fault_rate").as_f64().unwrap();
            if rate > 0.0 {
                faulted += 1;
                assert!(m_surv < m, "crashes at rate {rate} must kill someone");
            } else {
                assert_eq!(m_surv, m);
                assert_eq!(col(row, "dropped").as_u64(), Some(0));
            }
        }
        assert_eq!(faulted, 2);
    }

    #[test]
    fn e17_rows_agree_bit_for_bit() {
        // ConstantColumn shapes pin the hashes; at least one cached row
        // must exist for them to mean anything.
        let rows = quick_rows("E17");
        assert!(rows.iter().any(|r| col(r, "cache") == &Value::Bool(true)));
    }

    #[test]
    fn e18_congestion_stays_inside_the_envelope() {
        for row in quick_rows("E18") {
            let util = col(&row, "max_edge_util").as_f64().unwrap();
            assert!(util > 0.0, "telemetry must see at least one transfer: {}", row.to_json());
        }
    }

    #[test]
    fn e19_rows_saturate_the_shared_cache() {
        for row in quick_rows("E19") {
            let ratio = col(&row, "hit_ratio").as_f64().unwrap();
            assert!(ratio > 0.9, "repeated workload must hit: {}", row.to_json());
        }
    }

    #[test]
    fn e20_batches_coalesce_and_lose_no_item() {
        // The wall-time ordering shape may be skipped under the noise
        // floor, but the follower and completeness claims are exact.
        let rows = quick_rows("E20");
        let b4 = config_row(&rows, "c1-b4");
        let followers = col(b4, "singleflight_followers").as_u64().unwrap();
        assert!(followers >= 3, "a cold batch of 4 must ride one plan build: {}", b4.to_json());
    }

    #[test]
    fn e21_shards_stay_balanced_warm_and_lossless() {
        // The throughput-scaling shape may disarm on a small machine, but
        // balance, hit ratio, failover and completeness gates are exact.
        let rows = quick_rows("E21");
        let s4 = config_row(&rows, "s4");
        assert_eq!(col(s4, "failovers").as_u64(), Some(0), "healthy shards never fail over");
        // Affinity held: exactly one cold compile per shard, so the global
        // ratio equals the single-shard ideal for the same workload set.
        let ratio = col(s4, "hit_ratio").as_f64().unwrap();
        let floor = col(s4, "hit_ratio_floor").as_f64().unwrap();
        assert!(ratio >= floor, "sharded hit ratio {ratio} under floor {floor}");
    }

    #[test]
    fn e22_spans_account_for_latency_and_queueing_dominates_past_the_knee() {
        // Coverage, queue dominance, sampling, and completeness gates are
        // all machine-independent ratios or exact counts — none disarm.
        let rows = quick_rows("E22");
        let c4 = config_row(&rows, "c4");
        let queue = col(c4, "queue_share").as_f64().unwrap();
        assert!(queue >= 0.5, "past the knee the queue is the request's life: {}", c4.to_json());
    }

    #[test]
    fn paper_tables_hold_their_claims() {
        // E3–E14 are deterministic and cheap; E15 is a timing gate, which
        // an unoptimized test build cannot speak for.
        for exp in crate::paper::experiments() {
            if exp.id != "E15" {
                quick_rows(exp.id);
            }
        }
    }

    #[test]
    fn fnv1a_is_stable_and_sensitive() {
        assert_eq!(fnv1a([]), 0xcbf29ce484222325);
        assert_ne!(fnv1a(*b"protocol"), fnv1a(*b"protocoL"));
    }

    #[test]
    fn grid_point_key_is_order_insensitive_to_extras() {
        let a = GridPoint::new(vec![("dim", Value::UInt(3)), ("seed", Value::UInt(7))]);
        let b = GridPoint::new(vec![
            ("dim", Value::UInt(3)),
            ("seed", Value::UInt(99)), // non-key params don't matter
        ]);
        assert_eq!(a.key(&["dim"]), b.key(&["dim"]));
        assert_ne!(a.key(&["dim", "seed"]), b.key(&["dim", "seed"]));
    }
}
