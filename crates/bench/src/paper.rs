//! E3–E15: the paper's lower-bound chain, its host and routing tables, and
//! the related-work bounds, as registry experiments.
//!
//! Each descriptor's grid is the table the experiment reports, one row per
//! table line, and its shapes restate the claim that table supports: the
//! Lemma 3.10 dependency trees stay within `48a²` (E3), the Lemma 3.12
//! certificates within their `4/s²` bounds (E4), the Prop. 3.17 wavefront
//! stays monotone and expanding (E5), offline Beneš routing takes exactly
//! `2(h−1) + 2(2d−1)` steps (E6), and so on. These tables are small (every
//! one runs in well under two seconds in release), so `--quick` and full
//! sweeps share one grid.

use std::time::Instant;
use unet_core::async_sim::{AsyncSimulator, SchedulePolicy};
use unet_core::flooding::flooding_protocol;
use unet_core::prelude::*;
use unet_core::treesim::{build_tree_host, tree_host_size, tree_protocol};
use unet_lowerbound::averaging::analyze;
use unet_lowerbound::bandwidth::best_bandwidth_bound;
use unet_lowerbound::counting::{crossover_k, log2_d_k, log2_u_g0};
use unet_lowerbound::embedding_bound::embedding_vs_dynamic;
use unet_lowerbound::fragments::fragment_costs;
use unet_lowerbound::wavefront::audit;
use unet_lowerbound::CountingParams;
use unet_obs::json::Value;
use unet_obs::{InMemoryRecorder, NoopRecorder};
use unet_pebble::deptree::{dependency_tree, tree_depth, verify_tree, BlockTorus};
use unet_pebble::optimize::prune;
use unet_routing::benes::benes_h_h_schedule;
use unet_routing::butterfly::{GreedyButterfly, ValiantButterfly};
use unet_routing::greedy::DimensionOrder;
use unet_routing::metrics::measure_route_time;
use unet_routing::packet::ShortestPath;
use unet_routing::packet::{make_packets, route, route_recorded, Discipline, Outcome, Packet};
use unet_routing::problem::{guest_induced, random_h_h};
use unet_topology::analysis::spreading_function;
use unet_topology::generators::{
    butterfly, complete, kautz, mesh, mesh_of_trees, multibutterfly, multitorus,
    random_hamiltonian_union, random_regular, random_supergraph, ring, torus,
};
use unet_topology::util::seeded_rng;
use unet_topology::{Graph, Node};

use crate::registry::{obj, Experiment, GridPoint};
use crate::shape::Shape;
use crate::{lowerbound_fixture, standard_guest};

/// E3–E15 in canonical order (E12's five ablations as E12a–E12e).
pub fn experiments() -> Vec<Experiment> {
    vec![
        e3(),
        e4(),
        e5(),
        e6(),
        e7(),
        e8(),
        e9(),
        e10(),
        e11(),
        e12a(),
        e12b(),
        e12c(),
        e12d(),
        e12e(),
        e13(),
        e14(),
        e15(),
    ]
}

fn uint(v: usize) -> Value {
    Value::UInt(v as u64)
}

fn float(v: f64) -> Value {
    Value::Float(v)
}

/// 1 for a verdict that held, 0 otherwise — gated against a `verdict_floor`
/// column of 1, so a boolean claim reads as `verdict >= verdict_floor`.
fn verdict(holds: bool) -> Value {
    Value::UInt(holds as u64)
}

/// One grid point per value of a single numeric key.
fn points(key: &'static str, values: &[u64]) -> Vec<GridPoint> {
    values.iter().map(|&v| GridPoint::new(vec![(key, Value::UInt(v))])).collect()
}

/// One grid point per label of a single string key.
fn labels(key: &'static str, values: &[&str]) -> Vec<GridPoint> {
    values.iter().map(|&v| GridPoint::new(vec![(key, Value::Str(v.into()))])).collect()
}

/// `y == x` as the pair of `AtLeastColumn` shapes it is.
fn equal(y: &'static str, x: &'static str) -> [Shape; 2] {
    [Shape::AtLeastColumn { y, floor: x }, Shape::AtLeastColumn { y: x, floor: y }]
}

/// Row `fast` has `col ≤ factor · col(slow)` — a lower-is-better ordering
/// between two labelled rows, with no noise floor.
fn below(
    key: &'static str,
    fast: &'static str,
    slow: &'static str,
    col: &'static str,
    factor: f64,
) -> Shape {
    Shape::SpeedupOrdering { key, fast, slow, wall: col, factor, min_wall_ms: 0.0 }
}

/// One builder-engine run, certified by the pebble checker and compared
/// bit-for-bit against direct guest execution.
fn certified(
    comp: &GuestComputation,
    host: &Graph,
    embedding: Embedding,
    router: &dyn Router,
    steps: u32,
    seed: u64,
) -> SimulationRun {
    let run = Simulation::builder()
        .guest(comp)
        .host(host)
        .embedding(embedding)
        .router(router)
        .steps(steps)
        .seed(seed)
        .threads(1) // the sweep itself shards across rows
        .run()
        .expect("table configuration is valid");
    verify_run(comp, host, &run, steps).expect("certifies");
    run
}

// --- E3: Figure 1 / Lemma 3.10 dependency trees -------------------------

fn e3() -> Experiment {
    Experiment {
        id: "E3",
        title: "Figure 1 / Lemma 3.10: dependency trees",
        claim: "Lemma 3.10: for every root of a 2a x 2a block torus, Gamma_G0 contains a \
                binary tree whose leaves are exactly block x {t}, of size <= 48a^2 \
                (every tree machine-verified)",
        grid_keys: &["a"],
        meta: |_| Vec::new(),
        grid: |_| points("a", &[1, 2, 3, 4, 8]),
        run: |p| {
            let a = p.u64("a") as usize;
            let side = 2 * a;
            let cells = side * side;
            let block = BlockTorus::new(side, (0..cells as Node).collect());
            let g0 = multitorus(side, cells); // one block = the whole torus
            let depth = tree_depth(side);
            let mut max_size = 0;
            for root in 0..cells as Node {
                let tree = dependency_tree(&block, root, depth);
                verify_tree(&tree, &g0, &block).expect("Lemma 3.10 invariants");
                max_size = max_size.max(tree.size());
            }
            obj(vec![
                ("a", uint(a)),
                ("side", uint(side)),
                ("depth", Value::UInt(depth as u64)),
                ("max_size", uint(max_size)),
                ("size_bound", uint(48 * a * a)),
                ("leaves", uint(cells)),
            ])
        },
        shapes: || vec![Shape::AtLeastColumn { y: "size_bound", floor: "max_size" }],
    }
}

// --- E4: Lemma 3.12 averaging --------------------------------------------

fn e4() -> Experiment {
    Experiment {
        id: "E4",
        title: "Lemma 3.12: averaging on a certified protocol",
        claim: "Lemma 3.12: at least half the candidate steps t0 are critical (Z_S), and \
                each has per-block representative roots with sum q and sum w within their \
                4/s^2 Markov bounds; total work sum q <= m*T'",
        grid_keys: &["t0"],
        meta: |_| vec![("fixture".into(), Value::Str("U[G0] guest n=144, torus 4x4, T=8".into()))],
        grid: |_| points("t0", &[2, 3, 4, 5, 6, 7, 8]),
        run: |p| {
            let t0 = p.u64("t0") as u32;
            let f = lowerbound_fixture();
            let a = analyze(&f.trace, &f.g0);
            let candidates = (a.depth..=f.trace.guest_t).count();
            let cert = a.certificates.iter().find(|c| c.t0 == t0);
            obj(vec![
                ("t0", Value::UInt(t0 as u64)),
                ("in_z_s", Value::Bool(cert.is_some())),
                ("sum_root_q", uint(cert.map_or(0, |c| c.sum_root_q))),
                ("bound_root_q", float(cert.map_or(0.0, |c| c.bound_root_q))),
                ("sum_root_w", uint(cert.map_or(0, |c| c.sum_root_w))),
                ("bound_root_w", float(cert.map_or(0.0, |c| c.bound_root_w))),
                ("z_s_len", uint(a.z_s.len())),
                ("z_s_needed", uint(candidates.div_ceil(2))),
                ("total_weight", uint(a.total_weight)),
                ("work_bound", uint(a.work_bound)),
            ])
        },
        shapes: || {
            vec![
                Shape::AtLeastColumn { y: "bound_root_q", floor: "sum_root_q" },
                Shape::AtLeastColumn { y: "bound_root_w", floor: "sum_root_w" },
                Shape::AtLeastColumn { y: "z_s_len", floor: "z_s_needed" },
                Shape::AtLeastColumn { y: "work_bound", floor: "total_weight" },
            ]
        },
    }
}

// --- E5: Prop. 3.17 wavefront ---------------------------------------------

fn e5() -> Experiment {
    Experiment {
        id: "E5",
        title: "Proposition 3.17: the generating-pebble wavefront",
        claim: "Def. 3.16 / Prop. 3.17 on asynchronous protocols of a U[G0] guest (n=144, \
                T=8, K8 host): dependency monotonicity holds, every expansion step holds \
                for the certified (alpha, beta), and every level reaches alpha*n at a \
                strictly later step tau_j than the one before",
        grid_keys: &["policy"],
        meta: |_| Vec::new(),
        grid: |_| labels("policy", &["random", "deepest-first"]),
        run: |p| {
            let policy = match p.str("policy") {
                "random" => SchedulePolicy::Random,
                _ => SchedulePolicy::DeepestFirst,
            };
            let mut r = seeded_rng(55);
            let g0 = unet_lowerbound::build_g0(144, 1, &mut r);
            let guest = random_supergraph(&g0.graph, 12, &mut r);
            let comp = GuestComputation::random(guest.clone(), 56);
            let host = complete(8);
            let sim = AsyncSimulator { embedding: Embedding::block(144, 8), policy };
            let run = sim.simulate(&comp, &host, 8, &mut r);
            let trace = unet_pebble::check(&guest, &host, &run.protocol).expect("certifies");
            let w = audit(&guest, &trace, g0.alpha, g0.beta);
            let taus: Vec<u32> = w.taus.iter().flatten().copied().collect();
            obj(vec![
                ("policy", Value::Str(p.str("policy").into())),
                ("threshold", uint((g0.alpha * 144.0).ceil() as usize)),
                ("guest_t", Value::UInt(trace.guest_t as u64)),
                ("levels_reached", uint(taus.len())),
                ("first_tau", Value::UInt(taus.first().map_or(0, |&t| t as u64))),
                ("last_tau", Value::UInt(taus.last().map_or(0, |&t| t as u64))),
                ("min_gap", Value::UInt(w.min_gap.unwrap_or(0) as u64)),
                ("gap_floor", Value::UInt(1)),
                ("monotone", verdict(w.monotone)),
                ("expansion_ok", verdict(w.expansion_ok)),
                ("verdict_floor", Value::UInt(1)),
            ])
        },
        shapes: || {
            vec![
                Shape::AtLeastColumn { y: "monotone", floor: "verdict_floor" },
                Shape::AtLeastColumn { y: "expansion_ok", floor: "verdict_floor" },
                Shape::AtLeastColumn { y: "levels_reached", floor: "guest_t" },
                Shape::AtLeastColumn { y: "min_gap", floor: "gap_floor" },
            ]
        },
    }
}

// --- E6: route_M(h) ---------------------------------------------------------

fn e6() -> Experiment {
    Experiment {
        id: "E6",
        title: "Section 2's routing engine: route_M(h) across strategies",
        claim: "Offline Benes/Waksman routing of an h-h relation takes exactly \
                2(h-1) + 2(2d-1) steps (additive in h); online butterfly (greedy, \
                Valiant) and torus dimension-order routing grow with h",
        grid_keys: &["h"],
        meta: |_| {
            vec![
                ("butterfly_m".into(), Value::UInt(butterfly(5).n() as u64)),
                ("torus_m".into(), Value::UInt(196)),
                ("benes_rows".into(), Value::UInt(32)),
            ]
        },
        grid: |_| points("h", &[1, 2, 4, 8]),
        run: |p| {
            use rand::seq::SliceRandom;
            let h = p.u64("h") as usize;
            let dim = 5;
            let mut r = seeded_rng(0xE600 + h as u64);
            let (bf, tor) = (butterfly(dim), torus(14, 14));
            let greedy = measure_route_time(&bf, h, &GreedyButterfly { dim }, 2, &mut r);
            let valiant = measure_route_time(&bf, h, &ValiantButterfly { dim }, 2, &mut r);
            let xy = measure_route_time(&tor, h, &DimensionOrder::torus(14, 14), 2, &mut r);
            let mut pairs = Vec::new();
            for _ in 0..h {
                let mut perm: Vec<u32> = (0..32).collect();
                perm.shuffle(&mut r);
                pairs.extend(perm.iter().enumerate().map(|(s, &d)| (s as u32, d)));
            }
            let (offline, _, _) = benes_h_h_schedule(dim, &pairs);
            obj(vec![
                ("h", uint(h)),
                ("bf_greedy", Value::UInt(greedy.max_steps as u64)),
                ("bf_valiant", Value::UInt(valiant.max_steps as u64)),
                ("torus_xy", Value::UInt(xy.max_steps as u64)),
                ("benes_offline", Value::UInt(offline as u64)),
                ("benes_formula", uint(2 * (h - 1) + 2 * (2 * dim - 1))),
            ])
        },
        shapes: || {
            let mut shapes = equal("benes_offline", "benes_formula").to_vec();
            for y in ["bf_greedy", "bf_valiant", "torus_xy"] {
                shapes.push(Shape::MonotoneInLog { x: "h", y });
            }
            shapes
        },
    }
}

// --- E7: counting internals -------------------------------------------------

fn e7() -> Experiment {
    Experiment {
        id: "E7",
        title: "The counting argument's internals",
        claim: "Thm 3.1's counting (n=4096, m=1024, shape constants): log2 D(k) grows with \
                k and covers log2 |U[G0]| exactly from the crossover k on; a live \
                protocol's Prop. 3.14 fragment encoding fits the r*n*k budget",
        grid_keys: &["k"],
        meta: |_| vec![("guest_n".into(), Value::UInt(4096)), ("host_m".into(), Value::UInt(1024))],
        grid: |_| {
            [0.5, 1.0, 2.0, 4.0, 8.0]
                .iter()
                .map(|&k| GridPoint::new(vec![("k", float(k))]))
                .collect()
        },
        run: |p| {
            let (n, m, k) = (1u64 << 12, 1u64 << 10, p.f64("k"));
            let params = CountingParams::shape(0.125);
            let resid = (params.c as f64 - 12.0) / 2.0;
            let universe = resid * n as f64 * (n as f64).log2() - params.delta * n as f64;
            let d = log2_d_k(n, m, k, &params);
            let crossover = crossover_k(n, m, &params);
            let f = lowerbound_fixture();
            let a = analyze(&f.trace, &f.g0);
            let frag = fragment_costs(&f.trace, &f.g0, &a, f.host.max_degree())[0];
            obj(vec![
                ("k", float(k)),
                ("log2_d_k", float(d)),
                ("log2_universe", float(universe)),
                ("log2_universe_bc", float(log2_u_g0(n, 16))),
                ("crossover_k", float(crossover)),
                ("covers", verdict(d >= universe)),
                ("past_crossover", verdict(k >= crossover)),
                ("fragment_bits", float(frag.total())),
                ("fragment_budget_bits", float(frag.budget_bits)),
            ])
        },
        shapes: || {
            let mut shapes = equal("covers", "past_crossover").to_vec();
            shapes.push(Shape::MonotoneInLog { x: "k", y: "log2_d_k" });
            shapes.push(Shape::AtLeastColumn { y: "fragment_budget_bits", floor: "fragment_bits" });
            shapes
        },
    }
}

// --- E8: the host zoo -------------------------------------------------------

const E8_HOSTS: [&str; 8] = [
    "butterfly+valiant",
    "torus+xy",
    "mesh+xy",
    "ring+bfs",
    "expander+bfs",
    "mesh-of-trees+bfs",
    "multibutterfly+bfs",
    "kautz+bfs",
];

fn e8() -> Experiment {
    Experiment {
        id: "E8",
        title: "Good vs bad universal hosts at equal size",
        claim: "Section 2: hosts with good h-h routing make good universal hosts. One \
                guest (n=512, T=2) on hosts of m ~ 80: slowdown orders torus < mesh < ring \
                like their diameters (8 < 16 < 40) with the ring >= 2x the torus, and a \
                random expander matches the torus within 25%; the Valiant butterfly and \
                the multibutterfly pay routing constants that E1's log m growth only \
                amortizes at far larger m",
        grid_keys: &["host"],
        meta: |_| vec![("guest".into(), Value::Str("random-regular n=512 d=4".into()))],
        grid: |_| labels("host", &E8_HOSTS),
        run: |p| {
            let (guest, comp) = standard_guest(512, 0xE8);
            let bfs = presets::bfs();
            let (host, router): (Graph, Box<dyn Router>) = match p.str("host") {
                "butterfly+valiant" => (butterfly(4), Box::new(presets::butterfly_valiant(4))),
                "torus+xy" => (torus(9, 9), Box::new(presets::torus_xy(9, 9))),
                "mesh+xy" => (mesh(9, 9), Box::new(presets::mesh_xy(9, 9))),
                "ring+bfs" => (ring(80), Box::new(bfs)),
                "expander+bfs" => {
                    (random_hamiltonian_union(80, 2, &mut seeded_rng(0xE8)), Box::new(bfs))
                }
                "mesh-of-trees+bfs" => (mesh_of_trees(8), Box::new(bfs)),
                "multibutterfly+bfs" => (multibutterfly(4, &mut seeded_rng(0xE8)), Box::new(bfs)),
                _ => (kautz(3, 3), Box::new(bfs)),
            };
            let m = host.n();
            let run = certified(&comp, &host, Embedding::block(guest.n(), m), &*router, 2, 0xE8);
            obj(vec![
                ("host", Value::Str(p.str("host").into())),
                ("host_m", uint(m)),
                ("slowdown", float(run.slowdown())),
                ("k", float(run.inefficiency())),
                ("load_bound", float(bounds::load_bound(guest.n(), m))),
            ])
        },
        shapes: || {
            vec![
                Shape::AtLeastColumn { y: "slowdown", floor: "load_bound" },
                below("host", "torus+xy", "mesh+xy", "slowdown", 1.0),
                below("host", "mesh+xy", "ring+bfs", "slowdown", 1.0),
                below("host", "torus+xy", "ring+bfs", "slowdown", 0.5),
                below("host", "expander+bfs", "torus+xy", "slowdown", 1.25),
            ]
        },
    }
}

// --- E9: dynamic redundancy vs the static embedding ---------------------------

fn e9() -> Experiment {
    Experiment {
        id: "E9",
        title: "Dynamic redundancy vs static embedding for m <= n",
        claim: "Conclusions: full redundancy (flooding) has inefficiency exactly k = m, so \
                for m <= n it loses to the static embedding by a gap k_flood - k_embed that \
                widens with m",
        grid_keys: &["host_m"],
        meta: |_| vec![("guest".into(), Value::Str("random-regular n=512 d=4".into()))],
        grid: |_| points("host_m", &[4, 16, 64, 256]),
        run: |p| {
            let m = p.u64("host_m") as usize;
            let side = (m as f64).sqrt() as usize;
            let (guest, comp) = standard_guest(512, 0xE9);
            let host = torus(side, side);
            let router = presets::torus_xy(side, side);
            let run = certified(&comp, &host, Embedding::block(512, m), &router, 2, 0xE9);
            let flood = flooding_protocol(&comp, m, 2);
            unet_pebble::check(&guest, &host, &flood).expect("flooding certifies");
            obj(vec![
                ("host_m", uint(m)),
                ("k_embed", float(run.inefficiency())),
                ("k_flood", float(flood.inefficiency())),
                ("k_gap", float(flood.inefficiency() - run.inefficiency())),
                ("s_embed", float(run.slowdown())),
                ("s_flood", float(flood.slowdown())),
            ])
        },
        shapes: || {
            let mut shapes = equal("k_flood", "host_m").to_vec();
            shapes.push(Shape::MonotoneInLog { x: "host_m", y: "k_gap" });
            shapes
        },
    }
}

// --- E10: tree hosts for short computations -----------------------------------

fn e10() -> Experiment {
    Experiment {
        id: "E10",
        title: "2^O(T)*n tree hosts for short computations",
        claim: "Section 1 remark: length-T computations run with constant slowdown \
                (c + 2 = 6 for c = 4) on unfolding-tree hosts of size exactly \
                tree_host_size(n, c, T) = 2^O(T)*n — why Thm 3.1 needs T >= 2*sqrt(log m)",
        grid_keys: &["guest_steps"],
        meta: |_| vec![("guest".into(), Value::Str("random-regular n=64 d=4".into()))],
        grid: |_| points("guest_steps", &[1, 2, 3, 4]),
        run: |p| {
            let t = p.u64("guest_steps") as u32;
            let (guest, comp) = standard_guest(64, 0xE10);
            let host = build_tree_host(&guest, t);
            let proto = tree_protocol(&comp, &host, t);
            unet_pebble::check(&guest, &host.graph, &proto).expect("certifies");
            obj(vec![
                ("guest_steps", Value::UInt(t as u64)),
                ("host_size", uint(host.graph.n())),
                ("size_formula", uint(tree_host_size(64, 4, t))),
                ("slowdown", float(proto.slowdown())),
                ("k", float(proto.inefficiency())),
            ])
        },
        shapes: || {
            let mut shapes = equal("host_size", "size_formula").to_vec();
            shapes.push(Shape::ConstantColumn { col: "slowdown" });
            shapes
        },
    }
}

// --- E11: complete-network guests ----------------------------------------------

fn e11() -> Experiment {
    Experiment {
        id: "E11",
        title: "Complete-network guests K_n on torus hosts",
        claim: "[14] setting: K_n guests are communication-bound. Every host needs all n \
                values per step and a torus bisection is O(sqrt m) wide, so slowdown grows \
                with n*sqrt(m) (not with the n^2/m volume per host), and every point sits \
                far above the [14] floor s = Omega(log n)",
        grid_keys: &["n", "host_m"],
        meta: |_| Vec::new(),
        grid: |_| {
            [(32u64, 16u64), (64, 16), (64, 64), (128, 64)]
                .iter()
                .map(|&(n, m)| {
                    GridPoint::new(vec![("n", Value::UInt(n)), ("host_m", Value::UInt(m))])
                })
                .collect()
        },
        run: |p| {
            let (n, m) = (p.u64("n") as usize, p.u64("host_m") as usize);
            let side = (m as f64).sqrt() as usize;
            let comp = GuestComputation::random(complete(n), 0xE11);
            let host = torus(side, side);
            let router = presets::torus_xy(side, side);
            let run = certified(&comp, &host, Embedding::block(n, m), &router, 2, 0xE11);
            obj(vec![
                ("n", uint(n)),
                ("host_m", uint(m)),
                ("slowdown", float(run.slowdown())),
                ("k", float(run.inefficiency())),
                ("log_n", float((n as f64).log2())),
                ("n2_over_m", float((n * n) as f64 / m as f64)),
                ("n_sqrt_m", float(n as f64 * (m as f64).sqrt())),
            ])
        },
        shapes: || {
            vec![
                Shape::MonotoneInLog { x: "n_sqrt_m", y: "slowdown" },
                Shape::AtLeastColumn { y: "slowdown", floor: "log_n" },
            ]
        },
    }
}

// --- E12: ablations -------------------------------------------------------------

fn e12a() -> Experiment {
    Experiment {
        id: "E12a",
        title: "Ablation: queue discipline (torus 8x8, random h-h)",
        claim: "Greedy-routing folklore: farthest-first queueing never loses to FIFO on \
                the same packets",
        grid_keys: &["h"],
        meta: |_| Vec::new(),
        grid: |_| points("h", &[1, 4, 8]),
        run: |p| {
            let h = p.u64("h") as usize;
            let g = torus(8, 8);
            let mut r = seeded_rng(0xE12A + h as u64);
            let prob = random_h_h(64, h, &mut r);
            let pk = make_packets(&g, &prob.pairs, &ShortestPath, &mut r).expect("connected");
            let lim: u32 = pk.iter().map(|p| p.path.len() as u32 + 1).sum::<u32>() + 64;
            let steps = |d| route(&g, &pk, d, lim).expect("within the limit").steps;
            obj(vec![
                ("h", uint(h)),
                ("farthest_first", Value::UInt(steps(Discipline::FarthestFirst) as u64)),
                ("fifo", Value::UInt(steps(Discipline::Fifo) as u64)),
            ])
        },
        shapes: || vec![Shape::AtLeastColumn { y: "fifo", floor: "farthest_first" }],
    }
}

fn e12b() -> Experiment {
    Experiment {
        id: "E12b",
        title: "Ablation: embedding choice (torus 16x16 guest on torus 4x4 host)",
        claim: "Locality is the whole game for mesh-like guests: dilation and edge \
                congestion of the embedding order the slowdown (tiles < block < random)",
        grid_keys: &["embed"],
        meta: |_| Vec::new(),
        grid: |_| labels("embed", &["tiles", "block", "random"]),
        run: |p| {
            let (guest, host) = (torus(16, 16), torus(4, 4));
            let comp = GuestComputation::random(guest.clone(), 0xE12);
            let e = match p.str("embed") {
                "tiles" => Embedding::grid_tiles(16, 4),
                "block" => Embedding::block(256, 16),
                _ => Embedding::random(256, 16, &mut seeded_rng(0xE12B)),
            };
            let (dilation, congestion) =
                (e.dilation(&guest, &host), e.edge_congestion(&guest, &host));
            let run = certified(&comp, &host, e, &presets::torus_xy(4, 4), 2, 0xE12);
            obj(vec![
                ("embed", Value::Str(p.str("embed").into())),
                ("dilation", Value::UInt(dilation as u64)),
                ("congestion", Value::UInt(congestion as u64)),
                ("slowdown", float(run.slowdown())),
            ])
        },
        shapes: || {
            vec![
                Shape::MonotoneInLog { x: "dilation", y: "slowdown" },
                Shape::MonotoneInLog { x: "congestion", y: "slowdown" },
            ]
        },
    }
}

fn e12c() -> Experiment {
    Experiment {
        id: "E12c",
        title: "Ablation: greedy vs Valiant inside the full simulation (butterfly dim 4)",
        claim: "On random traffic greedy bit-fixing beats Valiant's two-phase routing by \
                at least 25% of slowdown (Valiant pays ~2x stretch; its insurance only \
                pays on adversarial patterns)",
        grid_keys: &["router"],
        meta: |_| vec![("guest".into(), Value::Str("random-regular n=512 d=4".into()))],
        grid: |_| labels("router", &["greedy", "valiant"]),
        run: |p| {
            let (_, comp) = standard_guest(512, 0xE12C);
            let host = butterfly(4);
            let router: Box<dyn Router> = match p.str("router") {
                "greedy" => Box::new(presets::butterfly_greedy(4)),
                _ => Box::new(presets::butterfly_valiant(4)),
            };
            let run = certified(&comp, &host, Embedding::block(512, 80), &*router, 2, 0xE12C);
            obj(vec![
                ("router", Value::Str(p.str("router").into())),
                ("slowdown", float(run.slowdown())),
            ])
        },
        shapes: || vec![below("router", "greedy", "valiant", "slowdown", 0.75)],
    }
}

fn e12d() -> Experiment {
    Experiment {
        id: "E12d",
        title: "Ablation: essential work after dead-op pruning",
        claim: "Pruning keeps every guest pebble's generation (busy_after >= n*T) and only \
                removes work; most of the embedding simulator's work is essential while \
                flooding keeps about 1/m of its own (at most half the embedding's share)",
        grid_keys: &["simulator"],
        meta: |_| {
            vec![("guest".into(), Value::Str("random-regular n=128 d=4, torus 3x3, T=2".into()))]
        },
        grid: |_| labels("simulator", &["embedding", "flooding"]),
        run: |p| {
            let (guest, comp) = standard_guest(128, 0xE12D);
            let proto = match p.str("simulator") {
                "embedding" => {
                    let host = torus(3, 3);
                    let router = presets::torus_xy(3, 3);
                    certified(&comp, &host, Embedding::block(128, 9), &router, 2, 0xE12D).protocol
                }
                _ => flooding_protocol(&comp, 9, 2),
            };
            let (_, st) = prune(&guest, &proto);
            obj(vec![
                ("simulator", Value::Str(p.str("simulator").into())),
                ("busy_before", uint(st.busy_before)),
                ("busy_after", uint(st.busy_after)),
                ("guest_ops", uint(128 * 2)),
                ("essential_share", float(st.busy_after as f64 / st.busy_before as f64)),
                ("steps_before", uint(st.steps_before)),
                ("steps_after", uint(st.steps_after)),
            ])
        },
        shapes: || {
            vec![
                Shape::AtLeastColumn { y: "busy_before", floor: "busy_after" },
                Shape::AtLeastColumn { y: "busy_after", floor: "guest_ops" },
                below("simulator", "flooding", "embedding", "essential_share", 0.5),
            ]
        },
    }
}

fn e12e() -> Experiment {
    Experiment {
        id: "E12e",
        title: "Embedding-universal vs dynamic-universal size ([13] vs [14])",
        claim: "Constant-slowdown universality by embeddings needs n^Omega(c) processors, \
                dynamic simulation n^(1+eps): the exponent ratio grows with n without \
                bound (d = 4, s = 4)",
        grid_keys: &["n"],
        meta: |_| Vec::new(),
        grid: |_| points("n", &[1 << 10, 1 << 16, 1 << 24, 1 << 32]),
        run: |p| {
            let row = embedding_vs_dynamic(&[p.u64("n")], 4, 4)[0];
            obj(vec![
                ("n", Value::UInt(row.n)),
                ("log2_m_embedding", float(row.log2_m_embedding)),
                ("log2_m_dynamic", float(row.log2_m_dynamic)),
                ("exponent_ratio", float(row.exponent_ratio)),
            ])
        },
        shapes: || vec![Shape::MonotoneInLog { x: "n", y: "exponent_ratio" }],
    }
}

// --- E13: bandwidth lower bounds ---------------------------------------------------

fn e13() -> Experiment {
    Experiment {
        id: "E13",
        title: "Bandwidth (cut) lower bounds: expander guest on torus hosts",
        claim: "[10]: a host cut of capacity C crossed by D guest edges forces slowdown \
                >= D/(2C); no measured run of an expander guest (n=256) on a torus dips \
                below the best KL-refined cut bound or the load bound n/m",
        grid_keys: &["host_m"],
        meta: |_| vec![("guest".into(), Value::Str("hamiltonian-union expander n=256 d=4".into()))],
        grid: |_| points("host_m", &[9, 16, 36, 64]),
        run: |p| {
            let m = p.u64("host_m") as usize;
            let side = (m as f64).sqrt() as usize;
            let guest = random_hamiltonian_union(256, 2, &mut seeded_rng(0xE13));
            let comp = GuestComputation::random(guest.clone(), 0xE13);
            let host = torus(side, side);
            let e = Embedding::block(256, m);
            let (cut, _) =
                best_bandwidth_bound(&guest, &host, &e, 3, &mut seeded_rng(0xE130 + m as u64));
            let run = certified(&comp, &host, e, &presets::torus_xy(side, side), 2, 0xE13);
            obj(vec![
                ("host_m", uint(m)),
                ("load_bound", float(bounds::load_bound(256, m))),
                ("cut_bound", float(cut)),
                ("slowdown", float(run.slowdown())),
            ])
        },
        shapes: || {
            vec![
                Shape::AtLeastColumn { y: "slowdown", floor: "cut_bound" },
                Shape::AtLeastColumn { y: "slowdown", floor: "load_bound" },
            ]
        },
    }
}

// --- E14: spreading functions --------------------------------------------------------

fn e14() -> Experiment {
    Experiment {
        id: "E14",
        title: "Spreading functions vs communication demand (n=256, torus 4x4 host)",
        claim: "[15]: a polynomially spreading guest under a locality-preserving placement \
                induces at most half the packets, half the relation size h, and half the \
                slowdown of an exponentially spreading (expander) guest",
        grid_keys: &["guest"],
        meta: |_| Vec::new(),
        grid: |_| labels("guest", &["torus16x16", "rand-4reg", "expander"]),
        run: |p| {
            let mut r = seeded_rng(0xE14);
            let (guest, e) = match p.str("guest") {
                "torus16x16" => (torus(16, 16), Embedding::grid_tiles(16, 4)),
                "rand-4reg" => (random_regular(256, 4, &mut r), Embedding::block(256, 16)),
                _ => (random_hamiltonian_union(256, 2, &mut r), Embedding::block(256, 16)),
            };
            let spread = |t| uint(spreading_function(&guest, t, 64));
            let prob = guest_induced(&guest, &e.f, 16);
            let comp = GuestComputation::random(guest.clone(), 0xE14);
            let run = certified(&comp, &torus(4, 4), e, &presets::torus_xy(4, 4), 2, 0xE14);
            obj(vec![
                ("guest", Value::Str(p.str("guest").into())),
                ("s2", spread(2)),
                ("s4", spread(4)),
                ("s8", spread(8)),
                ("packets", uint(prob.pairs.len())),
                ("h", uint(prob.h())),
                ("slowdown", float(run.slowdown())),
            ])
        },
        shapes: || {
            ["packets", "h", "slowdown"]
                .into_iter()
                .map(|col| below("guest", "torus16x16", "expander", col, 0.5))
                .collect()
        },
    }
}

// --- E15: instrumentation overhead ----------------------------------------------------

/// Local mirror of the library's `route()` — same body, but compiled in
/// this crate so it shares E15's `route_recorded::<NoopRecorder>`
/// monomorphization instead of linking a second copy of identical code.
fn route_uninstrumented(
    g: &Graph,
    packets: &[Packet],
    discipline: Discipline,
    max_steps: u32,
) -> Option<Outcome> {
    route_recorded(g, packets, discipline, max_steps, &mut NoopRecorder)
}

/// One timed run of `f`, in nanoseconds.
fn time_ns(f: impl FnOnce()) -> u128 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos()
}

fn e15() -> Experiment {
    Experiment {
        id: "E15",
        title: "Instrumentation overhead of the routing engine",
        claim: "Zero-cost instrumentation: routing with NoopRecorder (a ZST) costs the same \
                as routing without instrumentation — median ABBA block ratio overhead \
                below 2% — while InMemoryRecorder shows what full recording costs",
        grid_keys: &["packets"],
        meta: |_| vec![("host".into(), Value::Str("torus 16x16".into()))],
        grid: |_| {
            vec![GridPoint::new(vec![("packets", Value::UInt(512)), ("blocks", Value::UInt(49))])]
        },
        run: |p| {
            // A recorder carrying state would force real work into the
            // monomorphized hot loop.
            assert_eq!(std::mem::size_of::<NoopRecorder>(), 0, "NoopRecorder must be a ZST");
            let g = torus(16, 16);
            let n = g.n() as u32;
            let pairs: Vec<(u32, u32)> =
                (0..2 * n).map(|i| ((i * 37 + 5) % n, (i * 101 + 13) % n)).collect();
            let packets = make_packets(&g, &pairs, &ShortestPath, &mut seeded_rng(0xE15)).unwrap();
            let ff = Discipline::FarthestFirst;
            let plain = || time_ns(|| drop(route_uninstrumented(&g, &packets, ff, u32::MAX)));
            let noop =
                || time_ns(|| drop(route_recorded(&g, &packets, ff, u32::MAX, &mut NoopRecorder)));
            // Warm up caches and page in both code paths.
            for _ in 0..3 {
                plain();
                noop();
            }
            // Each block times the two sides in ABBA order (plain, noop,
            // noop, plain) and compares the per-block sums: back-to-back
            // runs make the ratio immune to frequency drift across blocks,
            // and the mirrored order cancels the position penalty of the
            // second call in a pair. The median over blocks shrugs off
            // preemption spikes that hit a single block.
            let blocks = p.u64("blocks") as usize;
            let (mut plain_ns, mut noop_ns, mut ratios) = (u128::MAX, u128::MAX, Vec::new());
            for _ in 0..blocks {
                let (p1, n1, n2, p2) = (plain(), noop(), noop(), plain());
                plain_ns = plain_ns.min(p1.min(p2));
                noop_ns = noop_ns.min(n1.min(n2));
                ratios.push((n1 + n2) as f64 / (p1 + p2) as f64);
            }
            ratios.sort_by(f64::total_cmp);
            let live = (0..blocks)
                .map(|_| {
                    time_ns(|| {
                        let mut rec = InMemoryRecorder::new();
                        drop(route_recorded(&g, &packets, ff, u32::MAX, &mut rec));
                    })
                })
                .min()
                .expect("blocks > 0");
            obj(vec![
                ("packets", uint(packets.len())),
                ("blocks", uint(blocks)),
                ("plain_ns", Value::UInt(plain_ns as u64)),
                ("noop_ns", Value::UInt(noop_ns as u64)),
                ("inmemory_ns", Value::UInt(live as u64)),
                ("overhead_pct", float((ratios[blocks / 2] - 1.0) * 100.0)),
                ("overhead_cap_pct", float(2.0)),
            ])
        },
        shapes: || vec![Shape::AtLeastColumn { y: "overhead_cap_pct", floor: "overhead_pct" }],
    }
}
