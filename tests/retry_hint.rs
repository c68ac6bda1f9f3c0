//! The `retry_after_ms` backpressure hint must stay safe at both ends:
//! whatever the server suggests, the client never sleeps past the
//! [`MAX_RETRY_SLEEP`] cap, and a sharded deployment turns an overloaded
//! shard's rejection into a successful answer from a healthy one instead
//! of bouncing it back to the caller.

use std::time::Duration;

use proptest::prelude::*;
use universal_networks::serve::client::{retry_sleep, Client, MAX_RETRY_SLEEP};
use universal_networks::serve::protocol::SimulateReq;
use universal_networks::serve::ring::Ring;
use universal_networks::serve::router::{simulate_fingerprint, Router, ShardConfig};
use universal_networks::serve::{ClientError, ServeConfig, Server};

fn probe_spec() -> SimulateReq {
    SimulateReq {
        guest: "ring:12".into(),
        host: "torus:2x2".into(),
        steps: 2,
        seed: 7,
        deadline_ms: None,
        id: None,
    }
}

fn server(queue_cap: usize) -> Server {
    Server::start(ServeConfig { workers: 2, queue_cap, ..ServeConfig::default() })
        .expect("bind 127.0.0.1:0")
}

proptest! {
    /// No hint the server can emit — absent, zero, or u64::MAX — makes the
    /// client sleep longer than the cap, and small hints are honored
    /// exactly.
    #[test]
    fn retry_sleep_never_exceeds_the_cap(present in any::<bool>(), ms in any::<u64>()) {
        let hint = present.then_some(ms);
        let slept = retry_sleep(hint);
        prop_assert!(slept <= MAX_RETRY_SLEEP, "{slept:?} exceeds {MAX_RETRY_SLEEP:?}");
        let suggested = Duration::from_millis(hint.unwrap_or(10));
        if suggested <= MAX_RETRY_SLEEP {
            prop_assert_eq!(slept, suggested);
        } else {
            prop_assert_eq!(slept, MAX_RETRY_SLEEP);
        }
    }
}

/// A shard that rejects everything (`queue_cap: 0`) must not cost the
/// caller anything when a healthy shard exists: the router absorbs the
/// `overloaded` rejection by failing the request over, and keeps the
/// overloaded shard marked healthy (overload is backpressure, not death).
#[test]
fn healthy_shard_absorbs_requests_rejected_by_an_overloaded_one() {
    let spec = probe_spec();
    let home = Ring::new(2).shard_of(simulate_fingerprint(&spec).expect("fingerprint"));

    // Place the always-overloaded backend exactly where the probe homes.
    let mut backends = vec![server(32), server(32)];
    backends[home] = server(0);
    let router = Router::start(ShardConfig {
        backends: backends.iter().map(|b| b.addr().to_string()).collect(),
        workers: 2,
        ..ShardConfig::default()
    })
    .expect("bind router");

    let mut client = Client::connect(&router.addr().to_string()).expect("connect");
    for _ in 0..3 {
        client.simulate(&spec).expect("healthy shard answers the failover");
    }
    drop(client);

    let report = router.drain();
    assert!(report.stats.overloads_absorbed >= 3, "every rejection was absorbed");
    assert!(report.stats.failovers >= 3, "absorption rides the failover path");
    assert_eq!(report.stats.healthy, 2, "overload never ejects a shard");
    assert_eq!(report.stats.completed, 3, "no request bounced back to the caller");
    for b in backends {
        b.drain();
    }
}

/// When every shard is overloaded the router passes the rejection — hint
/// and all — through to the client, and the hint it carries sleeps under
/// the cap.
#[test]
fn all_shards_overloaded_propagates_a_capped_hint() {
    let backend = server(0);
    let router = Router::start(ShardConfig {
        backends: vec![backend.addr().to_string()],
        workers: 2,
        ..ShardConfig::default()
    })
    .expect("bind router");

    let mut client = Client::connect(&router.addr().to_string()).expect("connect");
    match client.simulate(&probe_spec()) {
        Err(ClientError::Overloaded { retry_after_ms, .. }) => {
            assert!(retry_sleep(retry_after_ms) <= MAX_RETRY_SLEEP);
        }
        other => panic!("expected an overloaded rejection, got {other:?}"),
    }
    drop(client);
    router.drain();
    backend.drain();
}
