//! Cross-crate integration: guest → embedding → routing → pebble protocol →
//! checker → lower-bound analyses, end to end.

use universal_networks::core::prelude::*;
use universal_networks::core::routers::OfflineBenesRouter;
use universal_networks::pebble::check;
use universal_networks::routing::benes::benes_network;
use universal_networks::topology::generators::*;
use universal_networks::topology::util::seeded_rng;
use universal_networks::topology::Graph;

/// Simulate `guest` on `host` and certify everything; returns slowdown.
fn simulate_and_certify(
    guest: &Graph,
    host: &Graph,
    embedding: Embedding,
    router: &dyn universal_networks::core::Router,
    steps: u32,
    seed: u64,
) -> f64 {
    let comp = GuestComputation::random(guest.clone(), seed);
    let run = Simulation::builder()
        .guest(&comp)
        .host(host)
        .embedding(embedding)
        .router(router)
        .steps(steps)
        .seed(seed ^ 1)
        .run()
        .expect("configuration is valid");
    let v = verify_run(&comp, host, &run, steps).expect("simulation certifies");
    assert!(v.metrics.slowdown >= bounds::load_bound(guest.n(), host.n()));
    v.metrics.slowdown
}

#[test]
fn every_classic_guest_simulates_on_butterfly() {
    let host = butterfly(3); // m = 32
    let router = presets::butterfly_valiant(3);
    let guests: Vec<(&str, Graph)> = vec![
        ("ring", ring(64)),
        ("torus", torus(8, 8)),
        ("ccc", cube_connected_cycles(4)),
        ("shuffle-exchange", shuffle_exchange(6)),
        ("de-bruijn", de_bruijn(6)),
        ("x-tree", x_tree(5)),
        ("random-regular", random_regular(64, 4, &mut seeded_rng(1))),
    ];
    for (name, guest) in guests {
        let n = guest.n();
        let s = simulate_and_certify(&guest, &host, Embedding::block(n, 32), &router, 3, 0xabc);
        assert!(s.is_finite(), "{name}");
    }
}

#[test]
fn every_classic_host_simulates_the_same_guest() {
    let guest = random_regular(128, 4, &mut seeded_rng(2));
    let hosts: Vec<(&str, Graph)> = vec![
        ("torus", torus(4, 4)),
        ("mesh", mesh(4, 4)),
        ("ring", ring(16)),
        ("expander", random_hamiltonian_union(16, 2, &mut seeded_rng(3))),
        ("binary-tree", binary_tree(3)),
        ("shuffle-exchange", shuffle_exchange(4)),
    ];
    let router = presets::bfs();
    for (name, host) in hosts {
        let m = host.n();
        let s = simulate_and_certify(&guest, &host, Embedding::block(128, m), &router, 2, 0xdef);
        assert!(s >= 8.0, "{name}: slowdown {s} below load 8");
    }
}

#[test]
fn benes_host_with_offline_routing_end_to_end() {
    let dim = 4;
    let host = benes_network(dim); // m = 128, guests on the 16 column-0 rows
    let n = 64;
    let guest = random_regular(n, 4, &mut seeded_rng(4));
    let f: Vec<u32> = (0..n).map(|i| (i * 16 / n) as u32).collect();
    let router = OfflineBenesRouter { dim };
    let s = simulate_and_certify(&guest, &host, Embedding::new(f, host.n()), &router, 3, 0x777);
    assert!(s.is_finite());
}

#[test]
fn slowdown_improves_with_host_size() {
    // Same guest, butterflies of increasing size: slowdown must decrease
    // (more processors, same work).
    let n = 512;
    let guest = random_regular(n, 4, &mut seeded_rng(5));
    let mut prev = f64::INFINITY;
    for dim in 2..=4usize {
        let host = butterfly(dim);
        let router = presets::butterfly_valiant(dim);
        let s =
            simulate_and_certify(&guest, &host, Embedding::block(n, host.n()), &router, 2, 0x123);
        assert!(s < prev, "dim {dim}: slowdown {s} ≥ previous {prev}");
        prev = s;
    }
}

#[test]
fn identity_simulation_costs_only_constant_overhead() {
    // Simulating a torus on itself with the locality embedding: slowdown is
    // a small constant (communication only with adjacent hosts).
    let guest = torus(8, 8);
    let host = torus(8, 8);
    let router = presets::torus_xy(8, 8);
    let s = simulate_and_certify(&guest, &host, Embedding::grid_tiles(8, 8), &router, 3, 0x9);
    // Each guest exchanges with 4 adjacent hosts; the one-op-per-step pebble
    // model serializes the 4 receives and the coloring splits engine steps,
    // so the constant is ≈ 2·(c + recv) + 1 ≈ 20, independent of n.
    assert!(s <= 24.0, "identity-ish simulation slowdown {s} too large");
}

#[test]
fn locality_beats_random_embedding_on_mesh_guest() {
    let guest = torus(16, 16);
    let host = torus(4, 4);
    let router = presets::torus_xy(4, 4);
    let comp = GuestComputation::random(guest.clone(), 6);
    let builder = |embedding: Embedding, seed: u64| {
        Simulation::builder()
            .guest(&comp)
            .host(&host)
            .embedding(embedding)
            .router(&router)
            .steps(2)
            .seed(seed)
            .run()
            .expect("configuration is valid")
    };
    let run_t = builder(Embedding::grid_tiles(16, 4), 8);
    let run_r = builder(Embedding::random(256, 16, &mut seeded_rng(7)), 9);
    verify_run(&comp, &host, &run_t, 2).unwrap();
    verify_run(&comp, &host, &run_r, 2).unwrap();
    assert!(
        run_t.slowdown() < run_r.slowdown(),
        "locality {} should beat random {}",
        run_t.slowdown(),
        run_r.slowdown()
    );
}

#[test]
fn universality_composes() {
    // Two-level simulation: a guest on host1, then host1 (as a guest
    // network running its own computation) on host2. Universality is
    // transitive; the composed slowdown is ≈ the product of the levels'
    // slowdowns — each host1 step becomes ≈ s2 host2 steps.
    let guest = ring(64);
    let host1 = torus(4, 4);
    let host2 = torus(2, 2);
    let comp = GuestComputation::random(guest.clone(), 0xC0);
    let router1 = presets::torus_xy(4, 4);
    let run1 = Simulation::builder()
        .guest(&comp)
        .host(&host1)
        .embedding(Embedding::block(64, 16))
        .router(&router1)
        .steps(2)
        .seed(1)
        .run()
        .expect("level-1 configuration is valid");
    verify_run(&comp, &host1, &run1, 2).unwrap();
    let s1 = run1.slowdown();
    let t1 = run1.protocol.host_steps() as u32;

    // Level 2: host1 itself as a guest running t1 steps of some computation.
    let comp2 = GuestComputation::random(host1.clone(), 0xC1);
    let router2 = presets::torus_xy(2, 2);
    let run2 = Simulation::builder()
        .guest(&comp2)
        .host(&host2)
        .embedding(Embedding::block(16, 4))
        .router(&router2)
        .steps(t1)
        .seed(2)
        .run()
        .expect("level-2 configuration is valid");
    verify_run(&comp2, &host2, &run2, t1).unwrap();
    let s2 = run2.slowdown();

    // Composed: T guest steps cost t1·s2 host2 steps = T·s1·s2.
    let composed = run2.protocol.host_steps() as f64 / 2.0;
    assert!((composed - s1 * s2).abs() < 1e-9, "composed {composed} vs {s1}·{s2}");
    // And the composed slowdown respects the trade-off on the final host.
    assert!(universal_networks::core::bounds::consistent_with_lower_bound(64, 4, composed, 0.05));
}

#[test]
fn exotic_hosts_also_work() {
    // The reference-list topologies serve as hosts too: mesh of trees [1],
    // Kautz, multibutterfly [17].
    let guest = random_regular(96, 4, &mut seeded_rng(21));
    let router = presets::bfs();
    let hosts: Vec<(&str, Graph)> = vec![
        ("mesh-of-trees", mesh_of_trees(4)),
        ("kautz", kautz(2, 3)),
        ("multibutterfly", multibutterfly(3, &mut seeded_rng(22))),
    ];
    for (name, host) in hosts {
        let m = host.n();
        let s = simulate_and_certify(&guest, &host, Embedding::block(96, m), &router, 2, 0x5e);
        assert!(s.is_finite(), "{name}");
    }
}

#[test]
fn protocol_mutations_are_caught() {
    // Failure injection: take a valid protocol and corrupt it in every
    // structural way; the checker must reject each mutation.
    use universal_networks::pebble::{Op, Pebble, Protocol, ProtocolBuilder};
    let guest = ring(16);
    let host = torus(2, 2);
    let comp = GuestComputation::random(guest.clone(), 10);
    let router = presets::bfs();
    let run = Simulation::builder()
        .guest(&comp)
        .host(&host)
        .embedding(Embedding::block(16, 4))
        .router(&router)
        .steps(2)
        .seed(11)
        .run()
        .expect("configuration is valid");
    assert!(check(&guest, &host, &run.protocol).is_ok());

    // Each forgery re-emits the valid protocol through the builder, passing
    // every stored op through an edit (`Op::Idle` drops it).
    fn forge(p: &Protocol, first: Option<Op>, mut edit: impl FnMut(Op) -> Op) -> Protocol {
        let mut b = ProtocolBuilder::new(p.guest_n, p.guest_t, p.host_m);
        if let Some(op) = first {
            b.set_op(0, op);
            b.end_step();
        }
        for row in p.steps() {
            for &(q, op) in row {
                b.set_op(q, edit(op));
            }
            b.end_step();
        }
        b.finish()
    }

    // 1. Drop a receive (orphans its paired send).
    let mut dropped = false;
    let p1 = forge(&run.protocol, None, |op| match op {
        Op::Recv { .. } if !dropped => {
            dropped = true;
            Op::Idle
        }
        op => op,
    });
    assert!(check(&guest, &host, &p1).is_err(), "dropped recv must fail");

    // 2. Forge a generate with missing predecessors: prepend a step that
    //    generates (P0, 2) before any level-1 pebble exists.
    let p2 = forge(&run.protocol, Some(Op::Generate(Pebble::new(0, 2))), |op| op);
    assert!(check(&guest, &host, &p2).is_err(), "forged generate must fail");

    // 3. Remove a final generation entirely.
    let p3 = forge(&run.protocol, None, |op| match op {
        Op::Generate(p) if p.t == 2 && p.node == 5 => Op::Idle,
        op => op,
    });
    assert!(check(&guest, &host, &p3).is_err(), "missing final must fail");

    // 4. Redirect a send to a non-neighbour. Torus(2,2) is 2-regular with
    //    edges 0-1 and 0-2; 0-3 is NOT an edge.
    let mut redirected = false;
    let p4 = forge(&run.protocol, None, |op| match op {
        Op::Send { pebble, .. } if !redirected => {
            redirected = true;
            Op::Send { pebble, to: 3 }
        }
        op => op,
    });
    // Either unmatched or non-neighbour — both are rejections.
    assert!(check(&guest, &host, &p4).is_err(), "redirected send must fail");
}

#[test]
fn flooding_crossover_matches_theory() {
    // Flooding has inefficiency k = m exactly; the embedding pays
    // k ≈ c·stretch ≈ O(log m). So flooding *wins* below the crossover
    // m ≈ c·stretch and loses above it — check both regimes.
    use universal_networks::core::flooding::flooding_protocol;
    let comp_of = |n: usize, seed: u64| {
        let guest = random_regular(n, 4, &mut seeded_rng(seed));
        let comp = GuestComputation::random(guest.clone(), seed + 1);
        (guest, comp)
    };
    // Small host (m = 9): redundancy is competitive.
    {
        let (guest, comp) = comp_of(128, 12);
        let host = torus(3, 3);
        let router = presets::torus_xy(3, 3);
        let run = Simulation::builder()
            .guest(&comp)
            .host(&host)
            .embedding(Embedding::block(128, 9))
            .router(&router)
            .steps(2)
            .seed(14)
            .run()
            .expect("configuration is valid");
        verify_run(&comp, &host, &run, 2).unwrap();
        let flood = flooding_protocol(&comp, 9, 2);
        check(&guest, &host, &flood).unwrap();
        assert_eq!(flood.inefficiency(), 9.0); // k = m exactly
    }
    // Larger host (m = 64 > crossover): the embedding must win clearly.
    {
        let (guest, comp) = comp_of(256, 15);
        let host = torus(8, 8);
        let router = presets::torus_xy(8, 8);
        let run = Simulation::builder()
            .guest(&comp)
            .host(&host)
            .embedding(Embedding::block(256, 64))
            .router(&router)
            .steps(2)
            .seed(16)
            .run()
            .expect("configuration is valid");
        verify_run(&comp, &host, &run, 2).unwrap();
        let flood = flooding_protocol(&comp, 64, 2);
        check(&guest, &host, &flood).unwrap();
        assert!(
            run.slowdown() < flood.slowdown(),
            "embedding {} vs flooding {}",
            run.slowdown(),
            flood.slowdown()
        );
    }
}
