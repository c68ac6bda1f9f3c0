//! The sharded serving tier must be observationally equivalent to a single
//! backend: the same specs sent through a `unet shard` router over N
//! backends produce the same stats — bit-for-bit, wall time aside — as
//! sending them to one plain server, *including* the shared-cache hit
//! pattern (fingerprint affinity means the first occurrence of each
//! fingerprint is the one plan build, exactly as on a single server). A
//! backend killed
//! between a client's requests must cost nothing observable either: the
//! ring fails the dead shard's keys over to its successor, every request
//! is answered, and the simulation outputs stay bit-for-bit identical
//! (only the hit flag may recool, since the surviving shard compiles the
//! migrated plan once). The forwards are the router's only health
//! checks: a failed one ejects its backend, and the first forward to reach
//! it after the backoff brings it back.

use std::time::Duration;

use proptest::prelude::*;
use universal_networks::serve::client::Client;
use universal_networks::serve::protocol::SimulateReq;
use universal_networks::serve::ring::Ring;
use universal_networks::serve::router::{simulate_fingerprint, Router, ShardConfig};
use universal_networks::serve::{ClientError, ServeConfig, Server, SimulateResult};

const GUESTS: [&str; 3] = ["ring:12", "ring:16", "ring:24"];
const HOSTS: [&str; 2] = ["torus:2x2", "torus:3x3"];

fn spec(guest_i: usize, host_i: usize, steps: u32, seed: u64) -> SimulateReq {
    SimulateReq {
        guest: GUESTS[guest_i % GUESTS.len()].into(),
        host: HOSTS[host_i % HOSTS.len()].into(),
        steps,
        seed,
        deadline_ms: None,
        id: None,
    }
}

fn backend() -> Server {
    Server::start(ServeConfig { workers: 2, queue_cap: 32, ..ServeConfig::default() })
        .expect("bind backend on 127.0.0.1:0")
}

/// N backends plus a router in front of them.
fn deployment(shards: usize) -> (Vec<Server>, Router) {
    let backends: Vec<Server> = (0..shards).map(|_| backend()).collect();
    let router = Router::start(ShardConfig {
        backends: backends.iter().map(|b| b.addr().to_string()).collect(),
        workers: 2,
        ..ShardConfig::default()
    })
    .expect("bind router on 127.0.0.1:0");
    (backends, router)
}

/// The deterministic projection of a result: every stat except wall time.
fn stats(r: &SimulateResult) -> (u64, u64, u64, f64, f64, bool, bool) {
    (
        r.host_steps,
        r.comm_steps,
        r.compute_steps,
        r.slowdown,
        r.inefficiency,
        r.shared_cache_hit,
        r.verified,
    )
}

/// Same projection minus the cache-hit flag, for runs where a failover
/// legitimately recools one fingerprint.
fn sim_stats(r: &SimulateResult) -> (u64, u64, u64, f64, f64, bool) {
    (r.host_steps, r.comm_steps, r.compute_steps, r.slowdown, r.inefficiency, r.verified)
}

type Outcome = Result<SimulateResult, (String, String)>;

/// Send `specs` one at a time on one connection, answers in order.
fn drive(addr: &str, specs: &[SimulateReq]) -> Vec<Outcome> {
    let mut client = Client::connect(addr).expect("connect");
    specs
        .iter()
        .map(|s| match client.simulate(s) {
            Ok(r) => Ok(r),
            Err(ClientError::Server(e)) => Err((e.code, e.message)),
            Err(e) => panic!("transport failed: {e}"),
        })
        .collect()
}

/// Reference execution: one plain server, no router.
fn run_single(specs: &[SimulateReq]) -> Vec<Outcome> {
    let server = backend();
    let out = drive(&server.addr().to_string(), specs);
    server.drain();
    out
}

/// The same specs through a router over `shards` backends.
fn run_sharded(specs: &[SimulateReq], shards: usize) -> Vec<Outcome> {
    let (backends, router) = deployment(shards);
    let out = drive(&router.addr().to_string(), specs);
    let report = router.drain();
    assert_eq!(report.stats.failovers, 0, "healthy backends never fail over");
    for b in backends {
        b.drain();
    }
    out
}

/// Run `specs` on one server and through `shards` backends, assert every
/// answer matches in order, and hand back the sharded answers.
fn assert_equivalent(specs: &[SimulateReq], shards: usize) -> Vec<Outcome> {
    let single = run_single(specs);
    let sharded = run_sharded(specs, shards);
    assert_eq!(single.len(), sharded.len());
    for (i, (s, r)) in single.iter().zip(&sharded).enumerate() {
        match (s, r) {
            (Ok(sr), Ok(rr)) => assert_eq!(
                stats(sr),
                stats(rr),
                "item {i} ({} on {}, {shards} shards): \
                 sharded stats diverge from single-backend",
                specs[i].guest,
                specs[i].host
            ),
            (Err(se), Err(re)) => {
                assert_eq!(se.0, re.0, "item {i}: error codes diverge");
            }
            _ => panic!("item {i}: one side succeeded, the other failed: {s:?} vs {r:?}"),
        }
    }
    sharded
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random workload mixes — duplicate fingerprints and all — come back
    /// with identical stats and identical cache-hit patterns whether they
    /// cross a sharded router or hit one server directly.
    #[test]
    fn sharded_equals_single_backend(
        items in prop::collection::vec((0usize..3, 0usize..2, 1u32..4, 0u64..3), 1..5),
        shards in 1usize..4,
    ) {
        let specs: Vec<SimulateReq> =
            items.iter().map(|&(g, h, t, s)| spec(g, h, t, s)).collect();
        assert_equivalent(&specs, shards);
    }
}

#[test]
fn specs_sent_one_at_a_time_through_the_router_answer_like_one_server() {
    // Specs that spread across shards, with a bad spec and a repeated
    // fingerprint mixed in: every answer equals the single-server answer in
    // order, the bad spec alone fails, and the hit pattern matches.
    let mut bad = spec(0, 0, 2, 1);
    bad.guest = "blah:9".into();
    let specs = vec![spec(0, 0, 2, 7), bad, spec(1, 1, 2, 7), spec(0, 0, 2, 7), spec(2, 1, 3, 0)];
    let sharded = assert_equivalent(&specs, 3);
    assert_eq!(sharded[1].as_ref().err().map(|e| e.0.as_str()), Some("bad-spec"));
    let hits: Vec<bool> = [0usize, 2, 3, 4]
        .iter()
        .map(|&i| sharded[i].as_ref().expect("valid item").shared_cache_hit)
        .collect();
    assert_eq!(hits, [false, false, true, false], "first occurrence per fingerprint misses");
}

#[test]
fn killed_backend_fails_over_with_zero_lost_requests() {
    let shards = 2;
    let (mut backends, router) = deployment(shards);
    let addr = router.addr().to_string();
    let probe = spec(0, 0, 2, 7);
    let home = Ring::new(shards).shard_of(simulate_fingerprint(&probe).expect("fingerprint"));

    let mut client = Client::connect(&addr).expect("connect");
    let before = client.simulate(&probe).expect("request before the kill");
    assert!(!before.shared_cache_hit, "cold fingerprint compiles once");

    // Kill the home shard: in-flight work is answered by its drain, the
    // router's pooled connection to it goes stale, and the next request
    // for this fingerprint dies mid-forward — the failover path.
    backends.remove(home).drain();

    for _ in 0..4 {
        let after = client.simulate(&probe).expect("absorbed by the ring successor");
        assert_eq!(
            sim_stats(&before),
            sim_stats(&after),
            "failover preserves simulation outputs bit-for-bit"
        );
    }
    // The migrated fingerprint recompiles once on the survivor, then hits.
    let warm = client.simulate(&probe).expect("warm on the successor");
    assert!(warm.shared_cache_hit, "successor cache is warm after the migration");

    drop(client);
    let report = router.drain();
    assert!(report.stats.failovers >= 1, "the kill must surface as a failover");
    assert_eq!(report.stats.completed, 6, "zero lost requests across the kill");
    for b in backends {
        b.drain();
    }
}

#[test]
fn a_failed_forward_ejects_and_the_first_forward_after_the_backoff_reinstates() {
    let shards = 2;
    let (mut backends, router) = deployment(shards);
    let req = spec(0, 0, 2, 7);
    let home = Ring::new(shards).shard_of(simulate_fingerprint(&req).expect("fingerprint"));
    let mut client = Client::connect(&router.addr().to_string()).expect("connect");
    client.simulate(&req).expect("served by the home shard");

    // Drain the home shard: the next request's forward fails, ejects it,
    // and the ring successor answers.
    let home_addr = backends[home].addr();
    backends.remove(home).drain();
    client.simulate(&req).expect("absorbed by the ring successor");
    // The successor answered, building the migrated plan.
    let successor = backends[0].stats();
    assert_eq!((successor.completed, successor.shared_misses), (1, 1), "{successor:?}");
    let stats = router.stats();
    assert_eq!((stats.failovers, stats.ejected, stats.healthy), (1, 1, 1), "{stats:?}");

    // A backend restarted on the drained address is retried by the first
    // request that reaches it once the 100 ms backoff has run out.
    let restarted = Server::start(ServeConfig {
        addr: home_addr.to_string(),
        workers: 2,
        queue_cap: 32,
        ..ServeConfig::default()
    })
    .expect("rebind the drained address");
    std::thread::sleep(Duration::from_millis(300));
    client.simulate(&req).expect("answered by the restarted backend");
    assert_eq!(restarted.stats().completed, 1, "the restarted backend answered");
    assert_eq!(backends[0].stats().completed, 1, "the successor answered once");
    let stats = router.stats();
    assert_eq!(
        (stats.reinstated, stats.healthy, stats.ejected, stats.failovers),
        (1, 2, 1, 1),
        "{stats:?}"
    );

    drop(client);
    router.drain();
    restarted.drain();
    backends.remove(0).drain();
}
