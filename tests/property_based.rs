//! Property-based tests (proptest) on the core invariants.

use proptest::prelude::*;
use universal_networks::core::prelude::*;
use universal_networks::pebble::check;
use universal_networks::routing::decompose::{decompose_into_permutations, verify_decomposition};
use universal_networks::routing::packet::route_simple;
use universal_networks::routing::problem::RoutingProblem;
use universal_networks::topology::generators::*;
use universal_networks::topology::util::seeded_rng;
use universal_networks::topology::Node;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any random regular guest on any torus host: the simulation certifies
    /// and reproduces the direct run.
    #[test]
    fn simulation_always_correct(
        seed in 0u64..1000,
        guest_scale in 2usize..5,   // n = 16·scale
        host_side in 2usize..4,     // m = side²
        steps in 1u32..4,
    ) {
        let n = 16 * guest_scale;
        let mut rng = seeded_rng(seed);
        let guest = random_regular(n, 4, &mut rng);
        let host = torus(host_side, host_side);
        let comp = GuestComputation::random(guest.clone(), seed ^ 0x55);
        let router = presets::bfs();
        let run = Simulation::builder()
            .guest(&comp)
            .host(&host)
            .embedding(Embedding::block(n, host.n()))
            .router(&router)
            .steps(steps)
            .run_with_rng(&mut rng)
            .expect("configuration is valid");
        let trace = check(&guest, &host, &run.protocol).expect("certifies");
        prop_assert_eq!(run.final_states, comp.run_final(steps));
        // Custody invariant: Q'_S(i,t) ⊆ Q_S(i,t).
        for i in 0..n as Node {
            for t in 0..steps {
                for &g in trace.generators(i, t) {
                    prop_assert!(trace.representatives(i, t).contains(g));
                }
            }
        }
        // Work bound: Σ q ≤ m·T'.
        prop_assert!(trace.total_weight() <= host.n() * trace.host_steps);
    }

    /// Random h–h problems always deliver under BFS + farthest-first, and
    /// the port discipline is never violated.
    #[test]
    fn routing_always_delivers(
        seed in 0u64..1000,
        side in 3usize..7,
        h in 1usize..5,
    ) {
        let g = torus(side, side);
        let mut rng = seeded_rng(seed);
        let prob = universal_networks::routing::problem::random_h_h(g.n(), h, &mut rng);
        let out = route_simple(&g, &prob.pairs).unwrap();
        prop_assert!(out.delivered_at.iter().all(|&d| d != u32::MAX));
        for step in out.transfers_by_step() {
            let mut from = std::collections::HashSet::new();
            let mut to = std::collections::HashSet::new();
            for t in step {
                prop_assert!(from.insert(t.from));
                prop_assert!(to.insert(t.to));
            }
        }
    }

    /// h–h decomposition: always bijections covering all pairs.
    #[test]
    fn decomposition_always_valid(
        seed in 0u64..1000,
        m_exp in 2u32..5,
        h in 1usize..6,
    ) {
        let m = 1usize << m_exp;
        let mut rng = seeded_rng(seed);
        let prob = universal_networks::routing::problem::random_h_h(m, h, &mut rng);
        let perms = decompose_into_permutations(&prob);
        prop_assert!(verify_decomposition(&prob, &perms).is_ok());
        prop_assert!(perms.len() <= h.next_power_of_two());
    }

    /// Waksman realizes arbitrary permutations with verified congestion 1.
    #[test]
    fn waksman_always_verifies(seed in 0u64..1000, d in 1usize..6) {
        use rand::seq::SliceRandom;
        let n = 1usize << d;
        let mut rng = seeded_rng(seed);
        let mut perm: Vec<u32> = (0..n as u32).collect();
        perm.shuffle(&mut rng);
        let paths = universal_networks::routing::benes::waksman_paths(&perm);
        prop_assert!(universal_networks::routing::benes::verify_waksman(&perm, &paths).is_ok());
    }

    /// Random regular generator: always simple, always regular.
    #[test]
    fn random_regular_invariants(seed in 0u64..1000, n in 6usize..40, d in 1usize..6) {
        prop_assume!(n * d % 2 == 0 && d < n);
        let mut rng = seeded_rng(seed);
        let g = random_regular(n, d, &mut rng);
        prop_assert_eq!(g.is_regular(), Some(d));
        prop_assert_eq!(g.n(), n);
    }

    /// Guest-induced routing problems respect the Theorem 2.1 h bound:
    /// h ≤ c·⌈n/m⌉ for a c-regular guest.
    #[test]
    fn induced_problem_h_bounded(seed in 0u64..1000, n_scale in 2usize..6, m in 2usize..9) {
        let n = 8 * n_scale;
        let mut rng = seeded_rng(seed);
        let guest = random_regular(n, 4, &mut rng);
        let f: Vec<Node> = (0..n).map(|i| ((i * m) / n) as Node).collect();
        let prob = universal_networks::routing::problem::guest_induced(&guest, &f, m);
        prop_assert!(prob.h() <= 4 * n.div_ceil(m));
    }

    /// Fragments of valid traces always capture guest adjacency (Lemma 3.3).
    #[test]
    fn fragments_always_structural(seed in 0u64..200, steps in 2u32..5) {
        use universal_networks::pebble::fragment::{extract_fragment, GeneratorChoice};
        let n = 32;
        let mut rng = seeded_rng(seed);
        let guest = random_regular(n, 4, &mut rng);
        let host = torus(2, 2);
        let comp = GuestComputation::random(guest.clone(), seed);
        let router = presets::bfs();
        let run = Simulation::builder()
            .guest(&comp)
            .host(&host)
            .embedding(Embedding::block(n, 4))
            .router(&router)
            .steps(steps)
            .run_with_rng(&mut rng)
            .expect("configuration is valid");
        let trace = check(&guest, &host, &run.protocol).unwrap();
        for t0 in 0..steps {
            let frag = extract_fragment(&trace, t0, GeneratorChoice::First).unwrap();
            prop_assert!(frag.verify_against_guest(&guest).is_ok());
        }
    }

    /// Empty-problem and self-loop-free invariants of the problem generators.
    #[test]
    fn problem_generators_within_range(seed in 0u64..1000, m_exp in 2u32..7, h in 1usize..4) {
        let m = 1usize << m_exp;
        let mut rng = seeded_rng(seed);
        let p = RoutingProblem::new(m, universal_networks::routing::problem::random_h_h(m, h, &mut rng).pairs);
        prop_assert_eq!(p.h(), h);
    }

    /// Pruned protocols remain valid and never grow.
    #[test]
    fn pruning_preserves_validity(seed in 0u64..300, steps in 1u32..4) {
        use universal_networks::pebble::optimize::prune;
        let n = 24;
        let mut rng = seeded_rng(seed);
        let guest = random_regular(n, 4, &mut rng);
        let host = torus(2, 2);
        let comp = GuestComputation::random(guest.clone(), seed);
        let router = presets::bfs();
        let run = Simulation::builder()
            .guest(&comp)
            .host(&host)
            .embedding(Embedding::block(n, 4))
            .router(&router)
            .steps(steps)
            .run_with_rng(&mut rng)
            .expect("configuration is valid");
        let (pruned, stats) = prune(&guest, &run.protocol);
        prop_assert!(check(&guest, &host, &pruned).is_ok());
        prop_assert!(stats.busy_after <= stats.busy_before);
        prop_assert!(stats.steps_after <= stats.steps_before);
        // Pruning is idempotent.
        let (pruned2, stats2) = prune(&guest, &pruned);
        prop_assert_eq!(pruned2, pruned);
        prop_assert_eq!(stats2.busy_after, stats2.busy_before);
    }

    /// The asynchronous simulator certifies and matches direct execution
    /// for every scheduling policy.
    #[test]
    fn async_simulator_always_correct(
        seed in 0u64..200,
        steps in 1u32..4,
        policy_idx in 0usize..3,
    ) {
        use universal_networks::core::async_sim::{AsyncSimulator, SchedulePolicy};
        let policy = [
            SchedulePolicy::Random,
            SchedulePolicy::LowestLevel,
            SchedulePolicy::DeepestFirst,
        ][policy_idx];
        let n = 24;
        let mut rng = seeded_rng(seed);
        let guest = random_regular(n, 4, &mut rng);
        let host = complete(4);
        let comp = GuestComputation::random(guest.clone(), seed ^ 1);
        let sim = AsyncSimulator { embedding: Embedding::block(n, 4), policy };
        let run = sim.simulate(&comp, &host, steps, &mut rng);
        let trace = check(&guest, &host, &run.protocol).expect("certifies");
        prop_assert_eq!(run.final_states, comp.run_final(steps));
        prop_assert!(trace.total_weight() <= 4 * trace.host_steps);
    }

    /// Checker robustness fuzz: arbitrary mutations of a valid protocol
    /// never panic the checker; it cleanly accepts or rejects, and its
    /// verdict is deterministic.
    #[test]
    fn checker_never_panics_on_mutations(
        seed in 0u64..500,
        mutations in prop::collection::vec((0usize..10_000, 0u8..4, 0u32..64, 0u32..8), 1..6),
    ) {
        use universal_networks::pebble::{Op, Pebble, Protocol};
        let n = 16;
        let guest = ring(n);
        let host = torus(2, 2);
        let comp = GuestComputation::random(guest.clone(), seed);
        let router = presets::bfs();
        let run = Simulation::builder()
            .guest(&comp)
            .host(&host)
            .embedding(Embedding::block(n, 4))
            .router(&router)
            .steps(2)
            .seed(seed)
            .run()
            .expect("configuration is valid");
        // Mutate dense rows, then rebuild the protocol from them.
        let valid = run.protocol;
        let steps = valid.host_steps();
        let mut rows: Vec<Vec<Op>> =
            (0..steps).map(|s| (0..4).map(|q| valid.op(s, q)).collect()).collect();
        for &(pos, kind, a, b) in &mutations {
            let row = pos % steps;
            let q = (pos / steps) % 4;
            rows[row][q] = match kind {
                0 => Op::Idle,
                1 => Op::Generate(Pebble::new(a % 20, b % 4)), // may be out of range
                2 => Op::Send { pebble: Pebble::new(a % 20, b % 4), to: (a % 5) % 4 },
                _ => Op::Recv { from: (b % 4) },
            };
        }
        let mut proto = Protocol::new(valid.guest_n, valid.guest_t, valid.host_m);
        for row in &rows {
            proto.push_step(row);
        }
        let v1 = check(&guest, &host, &proto).is_ok();
        let v2 = check(&guest, &host, &proto).is_ok();
        prop_assert_eq!(v1, v2, "checker verdict must be deterministic");
    }
}
