//! Property-based tests (proptest) on the fault subsystem: determinism of
//! plans, views, fault-aware routing, and whole degraded runs, plus the
//! structural guarantee that a faulty view never invents edges.

use proptest::prelude::*;
use universal_networks::core::prelude::*;
use universal_networks::faults::{
    route_faulty, DegradedSimulator, DegradedTuning, FaultPlan, FaultyView,
};
use universal_networks::obs::NoopRecorder;
use universal_networks::pebble::check;
use universal_networks::routing::ShortestPath;
use universal_networks::topology::generators::{random_regular, torus};
use universal_networks::topology::util::seeded_rng;
use universal_networks::topology::Node;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same seed + parameters ⇒ identical plan, identical view evolution,
    /// identical surviving graph.
    #[test]
    fn fault_plans_and_views_are_deterministic(
        seed in 0u64..1000,
        side in 3usize..6,
        rate in 0u32..40,
    ) {
        let host = torus(side, side);
        let rate = rate as f64 / 100.0;
        let plan_a = FaultPlan::crashes(&host, rate, 1, seed)
            .merge(FaultPlan::link_cuts(&host, rate, 2, seed ^ 1))
            .merge(FaultPlan::link_flaps(&host, rate, 1, 2, seed ^ 2));
        let plan_b = FaultPlan::crashes(&host, rate, 1, seed)
            .merge(FaultPlan::link_cuts(&host, rate, 2, seed ^ 1))
            .merge(FaultPlan::link_flaps(&host, rate, 1, 2, seed ^ 2));
        prop_assert_eq!(&plan_a, &plan_b);

        let mut va = FaultyView::new(&host, &plan_a);
        let mut vb = FaultyView::new(&host, &plan_b);
        for t in 0..5 {
            prop_assert_eq!(va.advance_to(t), vb.advance_to(t));
            prop_assert_eq!(va.surviving(), vb.surviving());
            let (ga, relabel_a) = va.alive_graph();
            let (gb, relabel_b) = vb.alive_graph();
            prop_assert_eq!(relabel_a, relabel_b);
            prop_assert_eq!(ga.n(), gb.n());
            prop_assert_eq!(
                ga.edges().collect::<Vec<_>>(),
                gb.edges().collect::<Vec<_>>()
            );
        }
    }

    /// A faulty view only ever removes: every live edge is a base edge and
    /// joins live endpoints, at every boundary.
    #[test]
    fn faulty_view_never_yields_non_base_edges(
        seed in 0u64..1000,
        side in 3usize..6,
        t_max in 1u32..5,
    ) {
        let host = torus(side, side);
        let plan = FaultPlan::crashes(&host, 0.2, 1, seed)
            .merge(FaultPlan::link_cuts(&host, 0.2, 1, seed ^ 9))
            .merge(FaultPlan::link_flaps(&host, 0.2, 2, 1, seed ^ 7));
        let mut view = FaultyView::new(&host, &plan);
        for t in 0..=t_max {
            view.advance_to(t);
            let m = host.n() as Node;
            for u in 0..m {
                for v in 0..m {
                    if view.is_edge_up(u, v) {
                        prop_assert!(host.has_edge(u, v), "invented edge ({u}, {v})");
                        prop_assert!(view.is_node_up(u) && view.is_node_up(v));
                    }
                }
            }
            let (alive, relabel) = view.alive_graph();
            for (a, b) in alive.edges() {
                prop_assert!(host.has_edge(relabel[a as usize], relabel[b as usize]));
            }
        }
    }

    /// Fault-aware routing is a pure function of (view, pairs): identical
    /// inputs give identical outcomes, including the engine schedule.
    #[test]
    fn fault_aware_routing_is_deterministic(
        seed in 0u64..1000,
        side in 3usize..6,
    ) {
        let host = torus(side, side);
        let m = host.n() as Node;
        let plan = FaultPlan::crashes(&host, 0.15, 1, seed);
        let pairs: Vec<(Node, Node)> = (0..m).map(|i| (i, (i * 7 + 3) % m)).collect();
        let mut va = FaultyView::new(&host, &plan);
        let mut vb = FaultyView::new(&host, &plan);
        va.advance_to(1);
        vb.advance_to(1);
        let a = route_faulty(&va, &pairs);
        let b = route_faulty(&vb, &pairs);
        prop_assert_eq!(a.delivered, b.delivered);
        prop_assert_eq!(a.dropped_pairs, b.dropped_pairs);
        prop_assert_eq!(a.retried, b.retried);
        match (a.outcome, b.outcome) {
            (Some(oa), Some(ob)) => {
                prop_assert_eq!(oa.steps, ob.steps);
                prop_assert_eq!(oa.transfers, ob.transfers);
                prop_assert_eq!(oa.delivered_at, ob.delivered_at);
            }
            (None, None) => {}
            _ => prop_assert!(false, "one run routed, the other dropped everything"),
        }
    }

    /// Whole degraded runs are reproducible: same seed + plan ⇒ identical
    /// certified protocol, identical fault log, identical final states —
    /// and both certify and match direct execution.
    #[test]
    fn degraded_runs_are_deterministic_and_certified(
        seed in 0u64..500,
        side in 3usize..5,
        steps in 2u32..4,
    ) {
        let host = torus(side, side);
        let n = host.n() * 3;
        let guest = random_regular(n, 4, &mut seeded_rng(seed));
        let comp = GuestComputation::random(guest.clone(), seed ^ 0xC);
        let sim = DegradedSimulator {
            embedding: Embedding::block(n, host.n()),
            plan: FaultPlan::crashes(&host, 0.2, 2, seed ^ 0xD),
            selector: Some(ShortestPath),
        };
        let tuning = DegradedTuning::default();
        let mut run = || {
            sim.simulate_tuned(&comp, &host, steps, &tuning, &mut seeded_rng(seed), &mut NoopRecorder)
                .unwrap()
        };
        let (a, b) = (run(), run());
        prop_assert_eq!(&a.run.protocol, &b.run.protocol);
        prop_assert_eq!(&a.fault_log, &b.fault_log);
        prop_assert_eq!(&a.run.final_states, &b.run.final_states);
        prop_assert_eq!(a.replayed, b.replayed);
        prop_assert_eq!(a.retried, b.retried);
        check(&guest, &host, &a.run.protocol).expect("certifies");
        prop_assert_eq!(a.run.final_states, comp.run_final(steps));
    }
}
