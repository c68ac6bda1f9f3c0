//! A server's threads end with it: every `Server::start`/`drain` cycle
//! joins the engine threads and the acceptor it started. Alone in its test
//! binary, so no other test's threads move the count.

#[cfg(target_os = "linux")]
#[test]
fn start_drain_cycles_leave_the_thread_count_where_it_started() {
    use unet_serve::{ServeConfig, Server};

    let threads = || -> usize {
        let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
        let line = status.lines().find(|l| l.starts_with("Threads:")).expect("Threads line");
        line["Threads:".len()..].trim().parse().expect("a count")
    };
    let before = threads();
    for _ in 0..50 {
        let server =
            Server::start(ServeConfig { workers: 2, ..ServeConfig::default() }).expect("bind");
        assert!(threads() >= before + 3, "two engine threads and the acceptor");
        server.drain();
    }
    // `join` returns once a thread has run its last instruction; the
    // kernel drops it from the count a moment later.
    let settled = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while threads() != before && std::time::Instant::now() < settled {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert_eq!(threads(), before);
}
