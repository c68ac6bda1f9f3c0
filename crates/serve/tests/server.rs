//! End-to-end tests of the serving layer: admission control, deadlines,
//! graceful drain, shared-cache behaviour, build-lease coalescing, and the
//! metrics round trip.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use unet_obs::json::Value;
use unet_obs::trace::RequestRecord;
use unet_obs::{MetricsRegistry, TraceAnalyzer};
use unet_serve::client::Client;
use unet_serve::loadgen::{self, LoadgenConfig};
use unet_serve::protocol::{
    metrics_request_line, parse_response, simulate_request_line, Response, SimulateReq, PROTOCOL,
};
use unet_serve::router::{Router, ShardConfig};
use unet_serve::{ClientError, RequestTrace, ServeConfig, Server, MAX_LINE_BYTES};

fn sim_req(seed: u64) -> SimulateReq {
    SimulateReq {
        guest: "ring:24".into(),
        host: "torus:3x3".into(),
        steps: 3,
        seed,
        deadline_ms: None,
        id: Some(seed),
    }
}

fn start(workers: usize, queue_cap: usize) -> Server {
    Server::start(ServeConfig { workers, queue_cap, ..ServeConfig::default() })
        .expect("bind on 127.0.0.1:0")
}

/// A drained request trace rendered to text.
fn rendered(trace: &RequestTrace) -> String {
    let mut out = Vec::new();
    trace.write_to(&mut out).expect("writing to a Vec");
    String::from_utf8(out).expect("UTF-8 JSONL")
}

/// The `request` records of a drain trace, as the analyzer hands them
/// back while it validates every line.
fn request_records(text: &str) -> Vec<RequestRecord> {
    let mut analyzer = TraceAnalyzer::new();
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        records.extend(analyzer.feed_line(line, i + 1).expect("valid drain trace"));
    }
    analyzer.finish().expect("complete drain trace");
    records
}

/// One raw round trip on a fresh connection.
fn raw(addr: &str, line: &str) -> String {
    Client::connect(addr).expect("connect").request_raw(line).expect("round trip")
}

#[test]
fn simulate_request_round_trips_and_verifies() {
    let server = start(2, 8);
    let addr = server.addr().to_string();
    let resp = raw(&addr, &simulate_request_line(&sim_req(7), None));
    match parse_response(&resp).expect("valid response") {
        Response::Result(v) => {
            assert_eq!(v.get("req").and_then(Value::as_str), Some("simulate"));
            assert_eq!(v.get("id").and_then(Value::as_u64), Some(7));
            assert_eq!(v.get("verified"), Some(&Value::Bool(true)));
            assert!(v.get("slowdown").and_then(Value::as_f64).unwrap() >= 1.0);
            assert!(v.get("host_steps").and_then(Value::as_u64).unwrap() > 0);
        }
        other => panic!("expected result, got {other:?}"),
    }
    let report = server.drain();
    assert_eq!(report.stats.admitted, 1);
    assert_eq!(report.stats.completed, 1);
    assert_eq!(report.stats.rejected, 0);
}

#[test]
fn completed_counts_every_answer_a_client_has_read() {
    let server = start(1, 8);
    let mut client = Client::connect(&server.addr().to_string()).expect("connect");
    let line = simulate_request_line(&sim_req(7), None);
    for i in 1..=20 {
        client.request_raw(&line).expect("round trip");
        assert_eq!(server.stats().completed, i, "read after round trip {i}");
    }
    drop(client);
    server.drain();
}

#[test]
fn typed_client_returns_typed_results_and_errors() {
    let server = start(2, 8);
    let mut client = Client::connect(&server.addr().to_string())
        .expect("connect")
        .timeout(std::time::Duration::from_secs(30));
    let result = client.simulate(&sim_req(7)).expect("simulate");
    assert!(result.verified);
    assert!(result.slowdown >= 1.0);
    assert!(result.host_steps > 0);
    let mut bad = sim_req(1);
    bad.guest = "blah:3".into();
    match client.simulate(&bad) {
        Err(unet_serve::ClientError::Server(e)) => {
            assert_eq!(e.code, "bad-spec");
            assert!(e.message.contains("unknown graph family"));
        }
        other => panic!("expected typed server error, got {other:?}"),
    }
    // The connection survives the error and keeps serving.
    assert!(client.simulate(&sim_req(7)).is_ok());
    assert!(client.metrics().expect("metrics").contains("unet_serve_conns_admitted"));
    drop(client);
    server.drain();
}

#[test]
fn bad_specs_and_bad_requests_get_typed_errors() {
    let server = start(1, 8);
    let addr = server.addr().to_string();
    let mut bad_spec = sim_req(1);
    bad_spec.guest = "blah:3".into();
    let resp = raw(&addr, &simulate_request_line(&bad_spec, None));
    match parse_response(&resp).expect("valid") {
        Response::Error { code, message, id } => {
            assert_eq!(code, "bad-spec");
            assert!(message.contains("unknown graph family"));
            assert_eq!(id, Some(1));
        }
        other => panic!("expected error, got {other:?}"),
    }
    let resp = raw(&addr, "this is not json");
    match parse_response(&resp).expect("valid") {
        Response::Error { code, .. } => assert_eq!(code, "bad-request"),
        other => panic!("expected error, got {other:?}"),
    }
    // The retired `batch` and `analyze` kinds and a line nested past the
    // JSON parser's depth cap each get one `bad-request`, from a server and
    // from a router over it, and the same connection then runs a
    // simulation.
    let router = Router::start(ShardConfig {
        workers: 1,
        backends: vec![addr.clone()],
        ..ShardConfig::default()
    })
    .expect("bind router");
    let batch = format!(
        "{{\"proto\":{PROTOCOL:?},\"kind\":\"batch\",\"items\":[\
         {{\"guest\":\"ring:24\",\"host\":\"torus:3x3\",\"steps\":3,\"seed\":7}}]}}"
    );
    let analyze =
        format!("{{\"proto\":{PROTOCOL:?},\"kind\":\"analyze\",\"trace_lines\":[\"{{}}\"]}}");
    let bad_lines = [
        (batch, "unknown request kind \"batch\""),
        (analyze, "unknown request kind \"analyze\""),
        ("[".repeat(5_000), "nesting deeper than 64 levels"),
    ];
    for target in [addr, router.addr().to_string()] {
        for (bad, why) in &bad_lines {
            let got = answers(&target, &[bad.clone(), simulate_request_line(&sim_req(7), None)]);
            assert_eq!(got.len(), 2, "one answer per line from {target}: {got:?}");
            match parse_response(&got[0]).expect("typed") {
                Response::Error { code, message, .. } => {
                    assert_eq!(code, "bad-request", "{target}");
                    assert!(message.contains(why), "{message}");
                }
                other => panic!("expected bad-request from {target}, got {other:?}"),
            }
            assert!(
                matches!(parse_response(&got[1]), Ok(Response::Result(_))),
                "{target}: {got:?}"
            );
        }
    }
    router.drain();
    server.drain();
}

/// A shed connection is answered and closed before its request is read,
/// so a request written late meets a reset connection. The client still
/// reads the typed answer instead of failing with a broken pipe.
#[test]
fn a_request_written_after_the_shed_answer_still_reads_overloaded() {
    let server = start(1, 0);
    // Whether the reset lands between the request's two writes is a
    // race, so run the scenario enough times to hit it.
    for _ in 0..50 {
        let mut client = Client::connect(&server.addr().to_string()).expect("connect");
        std::thread::sleep(Duration::from_millis(5));
        let resp = client.request_raw(&metrics_request_line(None, None)).expect("a typed answer");
        assert!(
            matches!(parse_response(&resp), Ok(Response::Overloaded { queue_cap: 0, .. })),
            "{resp}"
        );
    }
    server.drain();
}

/// A zero connection bound answers every connection with the typed
/// `overloaded` and its retry hint, at a server and at a router.
#[test]
fn zero_queue_cap_rejects_with_typed_overloaded() {
    let server = start(1, 0);
    let backend = start(1, 8);
    let router = Router::start(ShardConfig {
        queue_cap: 0,
        backends: vec![backend.addr().to_string()],
        ..ShardConfig::default()
    })
    .expect("bind router");
    for addr in [server.addr().to_string(), router.addr().to_string()] {
        match parse_response(&raw(&addr, &metrics_request_line(None, None))).expect("valid") {
            Response::Overloaded { queue_cap: 0, retry_after_ms: Some(hint) } => assert!(hint >= 1),
            other => panic!("expected overloaded with retry hint via {addr}, got {other:?}"),
        }
    }
    let report = server.drain();
    assert_eq!(report.stats.rejected, 1);
    assert_eq!(report.stats.admitted, 0);
    let routed = router.drain();
    assert_eq!(routed.stats.completed, 0);
    assert!(
        routed.exposition.contains("unet_shard_conns_rejected{shard=\"router\"} 1"),
        "{}",
        routed.exposition
    );
    backend.drain();
}

#[test]
fn zero_deadline_is_cancelled_at_a_phase_boundary() {
    let server = start(1, 8);
    let addr = server.addr().to_string();
    let mut req = sim_req(3);
    req.deadline_ms = Some(0);
    let resp = raw(&addr, &simulate_request_line(&req, None));
    match parse_response(&resp).expect("valid") {
        Response::Error { code, .. } => assert_eq!(code, "deadline-exceeded"),
        other => panic!("expected deadline error, got {other:?}"),
    }
    server.drain();
}

#[test]
fn repeated_workload_hits_shared_cache_and_drains_clean() {
    let server = start(2, 32);
    let addr = server.addr().to_string();
    let report = loadgen::run(&LoadgenConfig {
        addr,
        clients: 2,
        requests_per_client: 8,
        guest: "ring:24".into(),
        host: "torus:3x3".into(),
        steps: 3,
        seed: 7,
        deadline_ms: None,
        warmup: true,
        shards: 1,
    })
    .expect("loadgen run");
    assert_eq!(report.sent, 17, "warm-up + 2 clients x 8");
    assert_eq!(report.completed, 17, "nothing rejected or errored");
    assert_eq!(report.rejected, 0);
    assert_eq!(report.errors, 0);
    assert!(report.percentile_ms(99.0).is_some());

    let drained = server.drain();
    // Zero dropped in-flight requests across the drain.
    assert_eq!(drained.stats.completed, 17);
    assert_eq!(drained.stats.admitted, 3, "warm-up + one connection per client");
    // One workload, one compile: everything after the warm-up hits.
    assert_eq!(drained.stats.shared_misses, 1);
    assert_eq!(drained.stats.shared_hits, 16);
    assert!(drained.stats.hit_ratio().unwrap() > 0.9, "route-plan cache hit ratio > 0.9");
}

/// Cold clients racing on one workload build its route plan once: the
/// first to reach the shared cache takes the build lease and counts the
/// only miss, and every other run hits — having waited on the lease or
/// arrived after the plan was published. That holds however the clients
/// interleave.
#[test]
fn racing_cold_clients_build_the_plan_once() {
    let server = start(4, 32);
    let report = loadgen::run(&LoadgenConfig {
        addr: server.addr().to_string(),
        clients: 4,
        requests_per_client: 3,
        guest: "ring:24".into(),
        host: "torus:3x3".into(),
        steps: 3,
        seed: 11,
        deadline_ms: None,
        warmup: false,
        shards: 1,
    })
    .expect("loadgen run");
    assert_eq!(report.sent, 12, "4 clients x 3 requests");
    assert_eq!(report.completed, 12);
    assert_eq!(report.errors, 0);
    let drained = server.drain();
    assert_eq!(drained.stats.shared_misses, 1, "plan built exactly once");
    assert_eq!(drained.stats.shared_hits, report.sent as u64 - 1);
    assert!(drained.exposition.contains("unet_serve_planbuild_singleflight_followers"));
}

#[test]
fn unknown_protocol_version_gets_typed_error_not_hangup() {
    let server = start(1, 8);
    let addr = server.addr().to_string();
    let resp = raw(&addr, "{\"proto\":\"unet-serve/9\",\"kind\":\"metrics\"}");
    match parse_response(&resp).expect("a typed response, not a hangup") {
        Response::Error { code, message, .. } => {
            assert_eq!(code, "unsupported-protocol");
            assert!(message.contains("unet-serve/9"));
        }
        other => panic!("expected typed error, got {other:?}"),
    }
    // A future client (trace context and all) against this server: still a
    // typed error naming the version we do speak, and the connection
    // stays open for a corrected request — never a hangup.
    {
        use std::io::{BufRead, BufReader, Write};
        let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let future = "{\"proto\":\"unet-serve/4\",\"kind\":\"metrics\",\
                      \"trace\":{\"id\":\"deadbeefdeadbeef\"}}";
        writeln!(stream, "{future}").expect("send");
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("typed error, not a hangup");
        match parse_response(resp.trim()).expect("parseable by an old client") {
            Response::Error { code, message, .. } => {
                assert_eq!(code, "unsupported-protocol");
                assert!(message.contains("unet-serve/3"), "names supported versions: {message}");
            }
            other => panic!("expected typed error, got {other:?}"),
        }
        // Same connection, supported version: serves fine.
        writeln!(stream, "{}", metrics_request_line(None, None)).expect("send");
        resp.clear();
        reader.read_line(&mut resp).expect("connection survived the version error");
        assert!(matches!(parse_response(resp.trim()), Ok(Response::Result(_))));
    }
    // The retired /1 and /2 versions are unknown versions too: a typed
    // error naming the one version spoken, whatever the kind.
    for old in [
        "{\"proto\":\"unet-serve/1\",\"kind\":\"simulate\",\"guest\":\"ring:24\",\
         \"host\":\"torus:3x3\",\"steps\":3,\"seed\":7,\"id\":41}",
        "{\"proto\":\"unet-serve/1\",\"kind\":\"batch\",\"items\":[\
         {\"guest\":\"ring:8\",\"host\":\"torus:2x2\",\"steps\":1}]}",
        "{\"proto\":\"unet-serve/2\",\"kind\":\"metrics\",\"id\":9}",
    ] {
        match parse_response(&raw(&addr, old)).expect("typed") {
            Response::Error { code, message, .. } => {
                assert_eq!(code, "unsupported-protocol", "{old}");
                assert!(message.contains("unet-serve/3"), "names the spoken version: {message}");
            }
            other => panic!("expected typed error for {old}, got {other:?}"),
        }
    }
    server.drain();
}

/// Regression: `random:5x3` trips a generator `assert!` (`n·d` must be
/// even). It used to kill the thread serving the request, so neither that
/// request nor the next valid one on a `workers: 1` server was answered.
/// Now it is a typed `bad-spec` carrying the assertion message — directly
/// and through a router, which forwards the spec unparsed. A guest without
/// nodes (`ring:0`) is a `bad-spec` the same way.
#[test]
fn generator_panic_is_a_typed_bad_spec_and_the_next_request_answers() {
    let server = start(1, 8);
    let addr = server.addr().to_string();
    let router =
        Router::start(ShardConfig { backends: vec![addr.clone()], ..ShardConfig::default() })
            .expect("bind router");
    for target in [addr, router.addr().to_string()] {
        let mut client =
            Client::connect(&target).expect("connect").timeout(Duration::from_secs(10));
        for (guest, why) in [("random:5x3", "n·d must be even"), ("ring:0", "has no nodes")] {
            let mut bad = sim_req(1);
            bad.guest = guest.into();
            match client.simulate(&bad) {
                Err(ClientError::Server(e)) => {
                    assert_eq!(e.code, "bad-spec", "{guest} via {target}");
                    assert!(e.message.contains(why), "{guest} via {target}: {}", e.message);
                }
                other => {
                    panic!("expected a typed bad-spec for {guest} via {target}, got {other:?}")
                }
            }
            let next = client.simulate(&sim_req(7)).expect("the next valid request is answered");
            assert!(next.verified);
        }
    }
    router.drain();
    server.drain();
}

/// One permit does not pin a tier to one connection: two clients on
/// persistent connections take turns and both are answered while both
/// connections stay open — at a server with one simulation permit, and
/// through a router with one forward permit.
#[test]
fn one_permit_serves_two_persistent_connections_in_turn() {
    let take_turns = |addr: &str| {
        let connect = || Client::connect(addr).expect("connect").timeout(Duration::from_secs(10));
        let (mut a, mut b) = (connect(), connect());
        for seed in 0..3 {
            assert!(a.simulate(&sim_req(seed)).expect("first client answered").verified);
            assert!(b.simulate(&sim_req(seed)).expect("second client answered").verified);
        }
    };
    let server = start(1, 8);
    take_turns(&server.addr().to_string());
    let report = server.drain();
    assert_eq!(report.stats.admitted, 2, "no reconnects: both connections stayed open");
    assert_eq!(report.stats.completed, 6);

    let backend = start(1, 8);
    let router = Router::start(ShardConfig {
        workers: 1,
        backends: vec![backend.addr().to_string()],
        ..ShardConfig::default()
    })
    .expect("bind router");
    take_turns(&router.addr().to_string());
    let routed = router.drain();
    assert_eq!(routed.stats.completed, 6);
    assert!(
        routed.exposition.contains("unet_shard_conns_admitted{shard=\"router\"} 2"),
        "no reconnects through the router:\n{}",
        routed.exposition
    );
    backend.drain();
}

#[test]
fn responses_survive_a_drain_started_after_send() {
    // A request answered while the server drains must still reach the
    // client: send, drain, *then* read.
    use std::io::{BufRead, BufReader, Write};
    let server = start(1, 8);
    let addr = server.addr().to_string();
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    writeln!(stream, "{}", simulate_request_line(&sim_req(5), None)).expect("send");
    stream.flush().expect("flush");
    // Wait until the request is admitted so drain cannot race the accept.
    while server.stats().admitted == 0 {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let report = server.drain();
    assert_eq!(report.stats.completed, 1, "in-flight request answered during drain");
    let mut response = String::new();
    BufReader::new(stream).read_line(&mut response).expect("response readable after drain");
    assert!(matches!(parse_response(response.trim()), Ok(Response::Result(_))));
}

#[test]
fn metrics_requests_expose_prometheus_text() {
    let server = start(2, 8);
    let addr = server.addr().to_string();
    raw(&addr, &simulate_request_line(&sim_req(2), None));
    let resp = raw(&addr, &metrics_request_line(Some(9), None));
    let exposition = match parse_response(&resp).expect("valid") {
        Response::Result(v) => v.get("exposition").and_then(Value::as_str).unwrap().to_string(),
        other => panic!("expected result, got {other:?}"),
    };
    assert!(exposition.contains("# TYPE unet_serve_conns_admitted counter"));
    assert!(exposition.contains("unet_sim_guest_steps 3"));
    assert!(exposition.contains("unet_serve_cache_shared_misses 1"));
    assert!(exposition.contains("unet_serve_planbuild_singleflight_followers"));

    server.drain();
}

#[test]
fn trace_context_threads_through_payload_drain_trace_and_exemplar() {
    let server = start(2, 8);
    let addr = server.addr().to_string();
    // An explicit client-assigned trace id is echoed in the payload
    // together with the server's stage breakdown.
    let line = simulate_request_line(&sim_req(7), Some("00c0ffee00c0ffee"));
    let resp = raw(&addr, &line);
    let v = match parse_response(&resp).expect("valid") {
        Response::Result(v) => v,
        other => panic!("expected result, got {other:?}"),
    };
    assert_eq!(v.get("trace_id").and_then(Value::as_str), Some("00c0ffee00c0ffee"));
    let stages = v.get("stages").expect("stage breakdown in the payload");
    assert!(stages.get("simulate").and_then(Value::as_f64).is_some(), "{}", v.to_json());
    assert!(stages.get("queue_wait").and_then(Value::as_f64).is_some(), "{}", v.to_json());

    let report = server.drain();
    // The drain trace carries the request record under the same id...
    let records = request_records(&rendered(&report.trace));
    let rec = records
        .iter()
        .find(|r| r.trace_id == "00c0ffee00c0ffee")
        .expect("the traced request was sampled (errors+head+slow cover a 1-request run)");
    assert!(rec.ok);
    assert_eq!(rec.kind, "simulate");
    assert!(rec.stage_ms("serialize").is_some(), "record includes the write span");
    assert!(rec.e2e_ms > 0.0);
    assert!(
        rec.stage_total_ms() <= rec.e2e_ms * 1.05,
        "disjoint spans cannot exceed e2e: {} vs {}",
        rec.stage_total_ms(),
        rec.e2e_ms
    );
    // ...and the exposition links its slowest-latency series to the same
    // trace id as an exemplar.
    assert!(
        report.exposition.contains("# EXEMPLAR") && report.exposition.contains("00c0ffee00c0ffee"),
        "exemplar line present:\n{}",
        report.exposition
    );
}

#[test]
fn typed_client_reports_e2e_latency_and_server_stage_breakdown() {
    let server = start(2, 8);
    let mut client = Client::connect(&server.addr().to_string()).expect("connect");
    let result = client.simulate(&sim_req(3)).expect("simulate");
    let trace_id = result.trace_id.as_deref().expect("client stamps a trace id");
    assert_eq!(trace_id.len(), 16, "16 hex digits: {trace_id:?}");
    assert!(trace_id.bytes().all(|b| b.is_ascii_hexdigit()));
    assert!(result.e2e_ms > 0.0, "client-measured end-to-end latency");
    assert!(
        result.stages.iter().any(|(s, _)| s == "simulate"),
        "server stage breakdown rode the payload: {:?}",
        result.stages
    );
    let span_sum: f64 = result.stages.iter().map(|(_, ms)| ms).sum();
    assert!(span_sum <= result.e2e_ms * 1.05, "spans within e2e: {span_sum} vs {}", result.e2e_ms);
    drop(client);
    server.drain();
}

#[test]
fn zero_head_rate_still_keeps_the_slow_tail() {
    // head_sample_permille: 0 turns off the head coin entirely; the tail
    // rule must still retain the slowest requests so a drain trace is
    // never empty on a quiet server.
    let server = Server::start(ServeConfig {
        workers: 1,
        queue_cap: 8,
        head_sample_permille: 0,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.addr().to_string();
    for seed in 0..3 {
        raw(&addr, &simulate_request_line(&sim_req(seed), None));
    }
    let report = server.drain();
    let records = request_records(&rendered(&report.trace));
    assert!(!records.is_empty(), "slow tail kept despite 0-permille head rate");
    assert!(
        records.iter().all(|r| r.sampled == unet_obs::trace::SampleReason::Slow),
        "every keep is a tail keep: {:?}",
        records.iter().map(|r| r.sampled).collect::<Vec<_>>()
    );
}

#[test]
fn drained_exposition_parses_back_through_the_streaming_analyzer() {
    // A MetricsRegistry built from a live serve run must parse back with
    // the analyzer's line discipline — the drain trace is valid JSONL and
    // from_analysis reproduces the server counters.
    let server = start(1, 8);
    let addr = server.addr().to_string();
    for seed in 0..3 {
        raw(&addr, &simulate_request_line(&sim_req(seed), None));
    }
    let report = server.drain();
    assert_eq!(report.stats.completed, 3);

    let mut analyzer = TraceAnalyzer::new();
    for (i, line) in rendered(&report.trace).lines().enumerate() {
        analyzer.feed_line(line, i + 1).expect("drain trace is valid JSONL");
    }
    let analysis = analyzer.finish().expect("complete trace");
    let reg = MetricsRegistry::from_analysis(&analysis);
    assert_eq!(reg.counter("serve.requests.completed"), Some(3));
    assert_eq!(reg.counter("serve.conns.admitted"), Some(3));
    assert_eq!(reg.counter("sim.guest_steps"), Some(9), "3 runs x 3 steps merged");
    // The re-derived exposition carries the same server series the live
    // one did (the live one additionally overlays cache atomics).
    let expo = reg.expose();
    assert!(expo.contains("unet_serve_requests_completed 3"));
    assert!(report.exposition.contains("unet_serve_requests_completed 3"));
    assert!(report.exposition.contains("unet_serve_cache_hit_ratio"));
}

/// Every accepted connection used to wait up to 5 ms for a polling
/// acceptor, so 200 one-shot round trips took at least about a second.
/// The acceptor now blocks in `accept`.
#[test]
fn one_shot_round_trips_do_not_wait_for_an_accept_poll() {
    let server = start(1, 8);
    let addr = server.addr().to_string();
    let line = simulate_request_line(&sim_req(7), None);
    raw(&addr, &line); // builds the route plan; the rest hit the cache
    let started = Instant::now();
    for _ in 0..200 {
        assert!(matches!(parse_response(&raw(&addr, &line)), Ok(Response::Result(_))));
    }
    let elapsed = started.elapsed();
    assert!(elapsed < Duration::from_secs(1), "200 one-shot round trips took {elapsed:?}");
    server.drain();
}

/// Run `drain` on its own thread and fail unless it returns within 2 s.
fn drains_within_two_seconds<R: Send + 'static>(
    what: &str,
    drain: impl FnOnce() -> R + Send + 'static,
) -> R {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(drain());
    });
    rx.recv_timeout(Duration::from_secs(2))
        .unwrap_or_else(|_| panic!("{what} did not drain within 2 s"))
}

/// A tier bound to the unspecified address wakes its acceptor through
/// loopback, and an idle client connection does not hold the drain up.
#[test]
fn tiers_bound_to_the_unspecified_address_drain_with_an_idle_client_open() {
    let any = |cfg_addr: SocketAddr| SocketAddr::from(([127, 0, 0, 1], cfg_addr.port()));
    let server = Server::start(ServeConfig {
        addr: "0.0.0.0:0".into(),
        workers: 1,
        queue_cap: 8,
        ..ServeConfig::default()
    })
    .expect("bind 0.0.0.0:0");
    let backend = any(server.addr()).to_string();
    let router = Router::start(ShardConfig {
        addr: "0.0.0.0:0".into(),
        workers: 1,
        backends: vec![backend.clone()],
        ..ShardConfig::default()
    })
    .expect("bind 0.0.0.0:0");
    let front = any(router.addr()).to_string();
    let mut client = Client::connect(&front).expect("connect through loopback");
    assert!(client.simulate(&sim_req(3)).expect("routed").verified);
    let _idle_router_client = TcpStream::connect(&front).expect("idle connection");
    let _idle_server_client = TcpStream::connect(&backend).expect("idle connection");
    let report = drains_within_two_seconds("the router", move || router.drain());
    assert_eq!(report.stats.completed, 1);
    let report = drains_within_two_seconds("the server", move || server.drain());
    assert_eq!(report.stats.completed, 1);
    drop(client);
}

/// The open-connection depth is a bounded histogram: one count per
/// admission, and no per-admission sample series in the drain trace.
#[test]
fn admission_depth_is_a_histogram_not_a_sample_series() {
    let server = start(1, 8);
    let addr = server.addr().to_string();
    let line = metrics_request_line(None, None);
    for _ in 0..2000 {
        raw(&addr, &line);
    }
    let report = server.drain();
    let text = rendered(&report.trace);
    let a = unet_obs::analysis::analyze_str(&text).expect("valid drain trace");
    assert!(!a.series.contains_key("serve.queue.depth"));
    assert!(!text.contains("\"type\":\"sample\""), "no sample lines at all");
    let depth = a.histograms.get("serve.queue.depth").expect("a depth histogram");
    assert_eq!(depth.count, 2000);
    assert!(text
        .lines()
        .any(|l| l.contains("\"type\":\"hist\"") && l.contains("serve.queue.depth")));
}

/// Send `lines` on one connection, half-close it, and read every answer
/// until the far side closes.
fn answers(addr: &str, lines: &[String]) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    for line in lines {
        writeln!(stream, "{line}").expect("send");
    }
    stream.shutdown(std::net::Shutdown::Write).expect("half-close");
    reader.lines().map(|l| l.expect("read an answer")).collect()
}

/// A trace id is kept by the sampler and the latency exemplar, so only
/// the minted form (16 lowercase hex digits) is accepted: a 1 MB id, an
/// upper-case one and an empty one each get exactly one `bad-request`,
/// and a valid request on the same connection is still answered — by a
/// server and by a router over it.
#[test]
fn trace_ids_outside_the_minted_form_get_one_typed_error_each() {
    let server = start(1, 8);
    let router = Router::start(ShardConfig {
        workers: 1,
        backends: vec![server.addr().to_string()],
        ..ShardConfig::default()
    })
    .expect("bind");
    let huge = "a".repeat(1 << 20);
    let mut lines: Vec<String> = [huge.as_str(), "ABCDEF0123456789", ""]
        .into_iter()
        .map(|id| simulate_request_line(&sim_req(5), Some(id)))
        .collect();
    lines.push(simulate_request_line(&sim_req(5), Some("00c0ffee00c0ffee")));
    for addr in [server.addr().to_string(), router.addr().to_string()] {
        let got = answers(&addr, &lines);
        assert_eq!(got.len(), 4, "one answer per line from {addr}");
        for bad in &got[..3] {
            match parse_response(bad).expect("typed") {
                Response::Error { code, message, .. } => {
                    assert_eq!(code, "bad-request");
                    assert!(message.contains("trace.id"), "{message}");
                }
                other => panic!("expected bad-request, got {other:?}"),
            }
        }
        match parse_response(&got[3]).expect("typed") {
            Response::Result(v) => {
                assert_eq!(v.get("trace_id").and_then(Value::as_str), Some("00c0ffee00c0ffee"));
            }
            other => panic!("expected a result, got {other:?}"),
        }
    }
    router.drain();
    server.drain();
}

/// The per-request engine run records into a summary recorder, which keeps
/// no sample series: a cold request must still report its `plan_build`
/// stage, and the engine and routing counters must still reach the
/// exposition.
#[test]
fn a_cold_request_still_reports_plan_build_and_engine_counters() {
    let server = start(1, 8);
    let mut client = Client::connect(&server.addr().to_string()).expect("connect");
    let result = client.simulate(&sim_req(11)).expect("simulate");
    assert!(!result.shared_cache_hit, "the first request builds the plan");
    let mut stages: Vec<&str> = result.stages.iter().map(|(s, _)| s.as_str()).collect();
    // `singleflight_wait` shows only when acquiring the build lease took
    // a measurable time.
    stages.retain(|&s| s != "singleflight_wait");
    assert_eq!(stages, ["accept", "admit", "queue_wait", "plan_build", "simulate"]);
    let expo = client.metrics().expect("metrics");
    for series in ["unet_route_steps ", "unet_sim_guest_steps 3", "unet_sim_cache_misses "] {
        assert!(expo.contains(series), "{series:?} in the exposition:\n{expo}");
    }
    drop(client);
    server.drain();
}

/// The server's stages and the client's `client.write` / `client.parse`
/// spans are disjoint, so per request they never sum past the
/// client-measured `e2e_ms`.
#[test]
fn server_and_client_spans_never_sum_past_e2e() {
    let server = start(1, 8);
    let mut client = Client::connect(&server.addr().to_string()).expect("connect");
    for seed in [1, 1, 2, 2, 3] {
        let r = client.simulate(&sim_req(seed)).expect("simulate");
        assert!(r.client.write_ms > 0.0 && r.client.parse_ms > 0.0, "{:?}", r.client);
        let server_ms: f64 = r.stages.iter().map(|(_, ms)| ms).sum();
        let client_ms: f64 = r.client.stages().iter().map(|(_, ms)| ms).sum();
        assert!(
            server_ms + client_ms <= r.e2e_ms,
            "seed {seed}: {server_ms} ms server + {client_ms} ms client > {} ms e2e ({:?})",
            r.e2e_ms,
            r.stages
        );
    }
    drop(client);
    server.drain();
}

/// A request line past `MAX_LINE_BYTES` gets exactly one `bad-request` and
/// its connection is closed, before the rest of it is buffered; a valid
/// request on a new connection is answered afterwards — by a server and by
/// a router in front of it.
#[test]
fn an_over_long_request_line_gets_one_bad_request_and_the_tier_keeps_serving() {
    let server = start(1, 8);
    let router = Router::start(ShardConfig {
        workers: 1,
        backends: vec![server.addr().to_string()],
        ..ShardConfig::default()
    })
    .expect("bind");
    let long = 2 << 20;
    assert!(long > MAX_LINE_BYTES);
    let mut line = vec![b'x'; long];
    line.push(b'\n');
    for addr in [server.addr().to_string(), router.addr().to_string()] {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        // The tier stops reading at the cap, so the tail of the write can
        // meet a closed connection.
        let writer = std::thread::spawn(move || {
            let _ = stream.write_all(&line);
            line
        });
        let got: Vec<String> = reader.lines().map_while(Result::ok).collect();
        line = writer.join().expect("writer thread");
        assert_eq!(got.len(), 1, "exactly one answer from {addr}: {got:?}");
        match parse_response(&got[0]).expect("typed") {
            Response::Error { code, message, .. } => {
                assert_eq!(code, "bad-request");
                assert!(message.contains(&MAX_LINE_BYTES.to_string()), "{message}");
            }
            other => panic!("expected bad-request, got {other:?}"),
        }
        let ok = raw(&addr, &simulate_request_line(&sim_req(5), None));
        assert!(matches!(parse_response(&ok), Ok(Response::Result(_))), "{addr}: {ok}");
    }
    router.drain();
    server.drain();
}

/// Bytes that are not UTF-8 get the tier's typed answer like any other
/// malformed line, and the connection keeps serving.
#[test]
fn a_request_line_that_is_not_utf8_gets_a_typed_answer() {
    let server = start(1, 8);
    let router = Router::start(ShardConfig {
        workers: 1,
        backends: vec![server.addr().to_string()],
        ..ShardConfig::default()
    })
    .expect("bind");
    for addr in [server.addr().to_string(), router.addr().to_string()] {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        stream.write_all(b"{\"proto\":\"unet-serve/3\",\xff\xfe}\n").expect("send");
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("a typed answer, not a hangup");
        match parse_response(resp.trim()).expect("typed") {
            Response::Error { code, .. } => assert_eq!(code, "bad-request", "{addr}"),
            other => panic!("expected bad-request from {addr}, got {other:?}"),
        }
        writeln!(stream, "{}", simulate_request_line(&sim_req(5), None)).expect("send");
        resp.clear();
        reader.read_line(&mut resp).expect("the connection kept serving");
        assert!(matches!(parse_response(resp.trim()), Ok(Response::Result(_))), "{addr}: {resp}");
    }
    router.drain();
    server.drain();
}
