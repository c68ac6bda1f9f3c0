//! Cross-crate observability: record a full simulation + certification run
//! into an `InMemoryRecorder`, export it as a JSONL trace, read it back
//! through the streaming analyzer, and check that every recorded signal
//! survives the round trip.

use universal_networks::core::prelude::*;
use universal_networks::obs::analysis::analyze_str;
use universal_networks::obs::trace::{export, RunMeta, RunSummary};
use universal_networks::obs::InMemoryRecorder;
use universal_networks::pebble::check_recorded;
use universal_networks::topology::generators::{ring, torus};

#[test]
fn recorded_run_round_trips_through_jsonl() {
    let guest = ring(24);
    let host = torus(3, 3);
    let steps = 4u32;
    let comp = GuestComputation::random(guest.clone(), 0xBEEF);
    let router = presets::bfs();

    let mut rec = InMemoryRecorder::new();
    let run = Simulation::builder()
        .guest(&comp)
        .host(&host)
        .embedding(Embedding::block(guest.n(), host.n()))
        .router(&router)
        .steps(steps)
        .seed(1)
        .recorder(&mut rec)
        .run()
        .expect("configuration is valid");
    check_recorded(&guest, &host, &run.protocol, &mut rec).expect("run certifies");

    let meta = RunMeta {
        command: "test".into(),
        guest: "ring:24".into(),
        host: "torus:3x3".into(),
        n: guest.n() as u64,
        m: host.n() as u64,
        guest_steps: steps as u64,
    };
    let summary = RunSummary {
        host_steps: run.protocol.host_steps() as u64,
        comm_steps: run.comm_steps as u64,
        compute_steps: run.compute_steps as u64,
        slowdown: run.slowdown(),
        inefficiency: run.protocol.inefficiency(),
        wall_ms: 0.0,
    };
    let text = export(&rec, &meta, Some(&summary));

    // Every line is standalone JSON (the JSONL contract).
    for line in text.lines() {
        universal_networks::obs::json::parse(line)
            .unwrap_or_else(|e| panic!("invalid JSONL line {line:?}: {e}"));
    }

    let doc = analyze_str(&text).expect("trace parses with balanced spans");

    // Meta and summary survive verbatim.
    assert_eq!(doc.meta.guest, "ring:24");
    assert_eq!(doc.meta.n, 24);
    assert_eq!(doc.meta.m, 9);
    let s = doc.summary.as_ref().expect("summary line present");
    assert_eq!(s.host_steps, run.protocol.host_steps() as u64);
    assert!((s.slowdown - run.slowdown()).abs() < 1e-12);

    // Counters from both the simulator and the checker survive.
    assert_eq!(doc.counter("sim.guest_steps"), Some(steps as u64));
    assert_eq!(
        doc.counter("sim.comm_steps").unwrap() + doc.counter("sim.compute_steps").unwrap(),
        run.protocol.host_steps() as u64
    );
    assert!(doc.counter("route.packets").unwrap() > 0);
    assert!(doc.counter("pebble.acquisitions").unwrap() > 0);

    // Histograms survive exactly: one routing-problem-size sample per
    // guest step, and the in-memory copy matches the parsed one.
    let parsed = &doc.histograms["sim.routing_problem_size"];
    let live = rec.histogram_data("sim.routing_problem_size").unwrap();
    assert_eq!(parsed.count, steps as u64);
    assert_eq!(parsed.count, live.count);
    assert_eq!(parsed.min, live.min);
    assert_eq!(parsed.max, live.max);
    assert_eq!(parsed.buckets, live.buckets);

    // Span phases survive with sane nesting totals: the checker ran once,
    // the comm phase once per guest step.
    let (_, comm_count) = doc.span_totals["sim.comm"];
    assert_eq!(comm_count, steps as u64);
    let (check_ns, check_count) = doc.span_totals["pebble.check"];
    assert_eq!(check_count, 1);
    assert!(check_ns > 0);
}
