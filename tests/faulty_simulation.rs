//! End-to-end degraded-mode simulation: the ISSUE acceptance scenario.
//!
//! A crash-stop run on a butterfly host with 10% node faults must complete,
//! certify under `unet_pebble::check`, and reproduce the guest bit-for-bit;
//! dead hosts must stay idle forever; routing on a partitioned host must
//! return a typed error instead of panicking.

use universal_networks::core::prelude::*;
use universal_networks::faults::{DegradedSimulator, DegradedTuning, FaultPlan};
use universal_networks::obs::NoopRecorder;
use universal_networks::pebble::{check, Op};
use universal_networks::routing::packet::{route_simple, RouteError};
use universal_networks::routing::ShortestPath;
use universal_networks::topology::generators::{butterfly::butterfly, random_regular};
use universal_networks::topology::util::seeded_rng;
use universal_networks::topology::{Graph, GraphBuilder};

#[test]
fn ten_percent_crashes_on_butterfly_certify_and_reproduce() {
    let dim = 3;
    let host = butterfly(dim); // m = 32
    let n = 96;
    let steps = 4;
    let guest = random_regular(n, 4, &mut seeded_rng(0xF1));
    let comp = GuestComputation::random(guest.clone(), 0xF2);
    let plan = FaultPlan::crashes(&host, 0.10, 2, 0xF3);
    assert_eq!(plan.len(), 3, "10% of 32 hosts = 3 crashes");

    let sim = DegradedSimulator {
        embedding: Embedding::block(n, host.n()),
        plan,
        selector: Some(ShortestPath),
    };
    let tuning = DegradedTuning::default();
    let run = sim
        .simulate_tuned(&comp, &host, steps, &tuning, &mut seeded_rng(0xF4), &mut NoopRecorder)
        .expect("survivors remain at 10% faults");

    // The degraded protocol is an ordinary pebble protocol over the full
    // host — the Section 3.1 checker certifies it end-to-end.
    check(&guest, &host, &run.run.protocol).expect("degraded protocol certifies");

    // Bit-for-bit: the degraded run computes exactly what the guest would.
    assert_eq!(run.run.final_states, comp.run_final(steps));

    // The fault story is visible: hosts died, guests moved, pebbles were
    // shipped or replayed around the dead custody.
    assert_eq!(run.m_surviving, 29);
    assert_eq!(run.dead_at.len(), 3);
    assert!(run.remapped >= 3, "each dead host had guests to move");
    assert!(run.delivered > 0);

    // Crash-stop means *stop*: from its death step on, a dead host only
    // ever holds Idle ops.
    let proto = &run.run.protocol;
    for &(q, step) in &run.dead_at {
        for i in step as usize..proto.host_steps() {
            assert_eq!(
                proto.op(i, q),
                Op::Idle,
                "dead host {q} acted at protocol step {i} (died at {step})"
            );
        }
    }
}

#[test]
fn degraded_run_slowdown_stays_above_surviving_size_bound() {
    let host = butterfly(3);
    let n = 96;
    let guest = random_regular(n, 4, &mut seeded_rng(1));
    let comp = GuestComputation::random(guest.clone(), 2);
    let sim = DegradedSimulator {
        embedding: Embedding::block(n, host.n()),
        plan: FaultPlan::crashes(&host, 0.2, 2, 3),
        selector: Some(ShortestPath),
    };
    let run = sim
        .simulate_tuned(
            &comp,
            &host,
            3,
            &DegradedTuning::default(),
            &mut seeded_rng(4),
            &mut NoopRecorder,
        )
        .expect("survivors remain");
    check(&guest, &host, &run.run.protocol).expect("certifies");
    // Theorem 3.1 on the surviving machine: k' = s·m'/n ≥ Ω(log m').
    let bound = bounds::lower_bound_inefficiency(run.m_surviving, 1.0);
    assert!(
        run.surviving_inefficiency() >= bound,
        "k' = {:.2} below the Thm 3.1 shape {:.2} on m' = {}",
        run.surviving_inefficiency(),
        bound,
        run.m_surviving
    );
}

#[test]
fn partitioned_host_routing_is_a_typed_error_not_a_panic() {
    // Two disjoint edges: {0–1} and {2–3}. No path crosses the gap.
    let mut b = GraphBuilder::new(4);
    b.add_edge(0, 1);
    b.add_edge(2, 3);
    let g: Graph = b.build();
    match route_simple(&g, &[(0, 2)]) {
        Err(RouteError::Unreachable { src: 0, dst: 2 }) => {}
        other => panic!("expected Unreachable, got {other:?}"),
    }
    let err = route_simple(&g, &[(1, 3)]).unwrap_err();
    assert!(err.to_string().contains("partitioned"));
}
