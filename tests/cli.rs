//! Integration tests for the `unet` CLI binary.

use std::process::Command;

fn unet(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_unet")).args(args).output().expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn topo_reports_graph_facts() {
    let (ok, stdout, _) = unet(&["topo", "torus:4x4"]);
    assert!(ok);
    assert!(stdout.contains("nodes:      16"));
    assert!(stdout.contains("regular:    Some(4)"));
    assert!(stdout.contains("diameter:   4"));
}

#[test]
fn simulate_save_check_roundtrip() {
    let dir = std::env::temp_dir().join("unet-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let proto = dir.join("p.unetproto");
    let proto_s = proto.to_str().unwrap();
    let (ok, stdout, stderr) = unet(&["simulate", "ring:32", "torus:2x2", "2", "--save", proto_s]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("protocol certified"));
    assert!(proto.exists());
    // Re-check the saved artifact.
    let (ok2, stdout2, stderr2) = unet(&["check", "ring:32", "torus:2x2", proto_s]);
    assert!(ok2, "stderr: {stderr2}");
    assert!(stdout2.contains("OK: valid protocol"));
    // Checking against the wrong guest must fail.
    let (ok3, _, stderr3) = unet(&["check", "ring:16", "torus:2x2", proto_s]);
    assert!(!ok3);
    assert!(stderr3.contains("GuestSizeMismatch { protocol: 32, graph: 16 }"), "{stderr3}");
}

#[test]
fn check_rejects_malformed_files_without_panicking() {
    let dir = std::env::temp_dir().join(format!("unet-cli-malformed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // Each body is a valid ring:3 run on complete:2 had its numbers been
    // cut to 32 bits (2^32 + 1 → 1, 2^32 → 0); the first file's host count
    // does not match the host graph.
    let cases = [
        (
            "sizes",
            "n 3 t 1 m 5\nstep\ng 0 0 1\nstep\ng 0 1 1\nstep\ng 0 2 1\n",
            "INVALID protocol: HostSizeMismatch { protocol: 5, graph: 2 }",
        ),
        (
            "level",
            "n 3 t 4294967297 m 2\nstep\ng 0 0 1\nstep\ng 0 1 1\nstep\ng 0 2 1\n",
            "line 2: number 4294967297 out of range for u32",
        ),
        (
            "node",
            "n 3 t 1 m 2\nstep\ng 0 4294967296 1\nstep\ng 0 1 1\nstep\ng 0 2 1\n",
            "line 4: number 4294967296 out of range for u32",
        ),
    ];
    for (name, body, want) in cases {
        let path = dir.join(format!("{name}.proto"));
        std::fs::write(&path, format!("unetproto 1\n{body}")).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_unet"))
            .args(["check", "ring:3", "complete:2", path.to_str().unwrap()])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(stderr.contains(want), "{name}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn check_tests_the_header_against_the_graphs_before_the_body() {
    let dir = std::env::temp_dir().join(format!("unet-cli-header-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // `m 4000000` would size the parser's scratch row at 64 MB. The second
    // body does not parse: the header's mismatch is still what is reported.
    let want = "INVALID protocol: HostSizeMismatch { protocol: 4000000, graph: 2 }";
    for (name, body) in [("valid", "g 0 0 1\nstep\ng 0 1 1\nstep\ng 0 2 1"), ("broken", "x 0")] {
        let path = dir.join(format!("{name}.proto"));
        std::fs::write(&path, format!("unetproto 1\nn 3 t 1 m 4000000\nstep\n{body}\n")).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_unet"))
            .args(["check", "ring:3", "complete:2", path.to_str().unwrap()])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(stderr.contains(want), "{name}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn closed_stdout_is_an_error_not_a_panic() {
    use std::process::Stdio;
    let dir = std::env::temp_dir().join(format!("unet-cli-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (proto, trace) = (dir.join("run.proto"), dir.join("run.jsonl"));
    let (proto, trace) = (proto.to_str().unwrap(), trace.to_str().unwrap());
    let (ok, _, stderr) = unet(&["simulate", "ring:24", "torus:3x3", "3", "--save", proto]);
    assert!(ok, "{stderr}");
    let (ok, _, stderr) = unet(&["trace", "ring:24", "torus:3x3", "3", "--out", trace]);
    assert!(ok, "{stderr}");
    for args in [
        &["simulate", "random:256x4:3", "butterfly:4", "3"][..],
        &["check", "ring:24", "torus:3x3", proto],
        &["report", trace],
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_unet"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs");
        // Close the reading end before the command has printed anything.
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("binary exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("writing stdout: Broken pipe"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_spec_is_an_error_not_a_panic() {
    // `random:5x3` trips a generator assert (n·d must be even).
    let out = Command::new(env!("CARGO_BIN_EXE_unet"))
        .args(["simulate", "random:5x3", "torus:2x2", "2"])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("rejected by its generator"), "{stderr}");
    assert!(stderr.contains("n·d must be even"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn simulate_threads_and_no_cache_flags() {
    let (ok, stdout, stderr) =
        unet(&["sim", "ring:32", "torus:2x2", "3", "--threads", "2", "--no-cache"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("route-plan cache: 0 hits / 0 misses   (2 threads)"), "{stdout}");
    assert!(stdout.contains("protocol certified"));
}

#[test]
fn simulate_reports_cache_hits() {
    let (ok, stdout, stderr) = unet(&["simulate", "ring:32", "torus:2x2", "3", "--threads", "1"]);
    assert!(ok, "stderr: {stderr}");
    // 3 guest steps with comm phases at gt = 2, 3: one miss then one replay.
    assert!(stdout.contains("route-plan cache: 1 hits / 1 misses   (1 threads)"), "{stdout}");
}

#[test]
fn simulate_zero_steps_is_a_graceful_error() {
    let (ok, _, stderr) = unet(&["simulate", "ring:32", "torus:2x2", "0"]);
    assert!(!ok);
    assert!(stderr.contains("error:"), "{stderr}");
    assert!(stderr.contains("at least one guest step"), "{stderr}");
    // A graceful SimError, not a panic.
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn tradeoff_prints_table() {
    let (ok, stdout, _) = unet(&["tradeoff", "1024"]);
    assert!(ok);
    assert!(stdout.contains("k_ideal"));
    // Rows for m = 8 .. 1024.
    assert!(stdout.lines().count() >= 8);
}

#[test]
fn route_reports_stats() {
    let (ok, stdout, _) = unet(&["route", "torus:4x4", "2", "--trials", "2"]);
    assert!(ok);
    assert!(stdout.contains("route_M(2)"));
}

#[test]
fn bench_diff_passes_honest_baseline_and_fails_bent_curve() {
    use universal_networks::obs::json::{parse, Value};

    let dir = std::env::temp_dir().join("unet-cli-bench-diff");
    std::fs::create_dir_all(&dir).unwrap();
    let baseline = dir.join("BENCH.json");
    let baseline_s = baseline.to_str().unwrap();

    // Produce a quick-grid baseline for E1 only.
    let (ok, stdout, stderr) =
        unet(&["bench", "run", "--quick", "--filter", "e1", "--out", baseline_s]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("E1"), "{stdout}");
    assert!(baseline.exists());

    // The honest baseline must pass the gate.
    let (ok2, stdout2, stderr2) = unet(&["bench", "diff", baseline_s, "--filter", "e1"]);
    assert!(ok2, "stdout: {stdout2}\nstderr: {stderr2}");
    assert!(stdout2.contains("all claim shapes hold"), "{stdout2}");

    // Bend E1's inefficiency curve below the Theorem 3.1 floor and the
    // gate must exit nonzero, naming the broken shape.
    let text = std::fs::read_to_string(&baseline).unwrap();
    let mut doc = parse(&text).expect("baseline parses");
    {
        let exps = match &mut doc {
            Value::Obj(fields) => fields
                .iter_mut()
                .find(|(k, _)| k == "experiments")
                .map(|(_, v)| v)
                .expect("has experiments"),
            _ => panic!("baseline is not an object"),
        };
        let rows = match exps {
            Value::Arr(items) => match &mut items[0] {
                Value::Obj(fields) => {
                    fields.iter_mut().find(|(k, _)| k == "rows").map(|(_, v)| v).expect("has rows")
                }
                _ => panic!("experiment is not an object"),
            },
            _ => panic!("experiments is not an array"),
        };
        if let Value::Arr(items) = rows {
            for row in items {
                if let Value::Obj(fields) = row {
                    for (k, v) in fields.iter_mut() {
                        if k == "inefficiency" {
                            *v = Value::Float(0.01);
                        }
                    }
                }
            }
        }
    }
    let bent = dir.join("BENCH-bent.json");
    let bent_s = bent.to_str().unwrap();
    std::fs::write(&bent, doc.to_json()).unwrap();

    let (ok3, stdout3, _) = unet(&["bench", "diff", bent_s, "--filter", "e1"]);
    assert!(!ok3, "bent baseline must fail the gate: {stdout3}");
    assert!(stdout3.contains("FAIL"), "{stdout3}");
    assert!(stdout3.contains("inefficiency"), "{stdout3}");
}

#[test]
fn trace_quick_analyze_metrics_pipeline() {
    let dir = std::env::temp_dir().join("unet-cli-analyze");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("quick.jsonl");
    let trace_s = trace.to_str().unwrap();

    let (ok, _, stderr) = unet(&["trace", "--quick", "--out", trace_s]);
    assert!(ok, "stderr: {stderr}");
    assert!(trace.exists());

    // The streaming analyzer surfaces congestion, queue percentiles, and
    // the critical path, deterministically for the fixed default seed.
    let (ok2, stdout2, stderr2) = unet(&["report", trace_s]);
    assert!(ok2, "stderr: {stderr2}");
    for section in ["Summary", "Congestion", "Queue depth", "Critical path"] {
        assert!(stdout2.contains(section), "missing {section:?} in:\n{stdout2}");
    }
    assert!(stdout2.contains("sim.edge_util"), "{stdout2}");
    let (ok2b, again, _) = unet(&["report", trace_s]);
    assert!(ok2b);
    assert_eq!(stdout2, again, "analysis must be deterministic");

    // Markdown mode swaps the section headers.
    let (ok3, stdout3, _) = unet(&["report", trace_s, "--markdown"]);
    assert!(ok3);
    assert!(stdout3.contains("## Congestion"), "{stdout3}");

    // The metrics exposition is Prometheus-shaped.
    let (ok4, stdout4, stderr4) = unet(&["metrics", trace_s]);
    assert!(ok4, "stderr: {stderr4}");
    assert!(stdout4.contains("# TYPE unet_"), "{stdout4}");
    assert!(stdout4.contains("unet_sim_cache_hits"), "{stdout4}");

    // A degraded run's trace reports its fault timeline next to the phase
    // totals, gauges and histograms.
    let faulty = dir.join("faulty.jsonl");
    let faulty_s = faulty.to_str().unwrap();
    let (ok6, stdout6, stderr6) =
        unet(&["faults", "ring:24", "torus:3x3", "4", "--rate", "0.2", "--out", faulty_s]);
    assert!(ok6, "stderr: {stderr6}");
    let lines = std::fs::read_to_string(&faulty).unwrap().lines().count();
    assert!(stdout6.contains(&format!("({lines} lines)")), "{stdout6}");
    let (ok7, stdout7, stderr7) = unet(&["report", faulty_s]);
    assert!(ok7, "stderr: {stderr7}");
    for section in
        ["=== Fault timeline ===", "=== Phases ===", "=== Gauges ===", "=== Histograms ==="]
    {
        assert!(stdout7.contains(section), "missing {section:?} in:\n{stdout7}");
    }
    assert!(stdout7.contains("inject  crash"), "{stdout7}");
    assert!(stdout7.contains("sim.comm"), "{stdout7}");
}

/// The routing engine counts queue occupancies and hop counts locally and
/// flushes one histogram call per distinct value; the trace must still
/// carry the histograms one call per sample wrote, byte for byte.
#[test]
fn trace_pins_the_routing_histograms() {
    let dir = std::env::temp_dir().join("unet-cli-route-hists");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("ring24.jsonl");
    let trace_s = trace.to_str().unwrap();
    let (ok, _, stderr) =
        unet(&["trace", "ring:24", "torus:3x3", "4", "--seed", "7", "--out", trace_s]);
    assert!(ok, "stderr: {stderr}");
    let text = std::fs::read_to_string(&trace).unwrap();
    let hist = |name: &str| {
        let key = format!("{{\"type\":\"hist\",\"name\":\"{name}\",");
        text.lines().find(|l| l.starts_with(&key)).unwrap_or_else(|| panic!("no {name} line"))
    };
    assert_eq!(
        hist("route.queue_occupancy"),
        r#"{"type":"hist","name":"route.queue_occupancy","count":36,"sum":61,"min":1,"max":3,"buckets":[[1,13],[2,23]]}"#
    );
    assert_eq!(
        hist("route.hops"),
        r#"{"type":"hist","name":"route.hops","count":18,"sum":24,"min":1,"max":2,"buckets":[[1,12],[2,6]]}"#
    );
}

/// `report --markdown` renders a `BENCH.json` artifact as tables and any
/// other file as the markdown trace report, wherever the flag stands (it
/// used to parse every file as an artifact and fail on a trace with
/// `trailing content at byte …`).
#[test]
fn report_markdown_renders_a_trace_or_a_bench_artifact() {
    let dir = std::env::temp_dir().join("unet-cli-report-markdown");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("quick.jsonl");
    let trace_s = trace.to_str().unwrap();
    let (ok, _, stderr) = unet(&["trace", "--quick", "--out", trace_s]);
    assert!(ok, "stderr: {stderr}");
    let (ok, analyzed, stderr) = unet(&["report", trace_s, "--markdown"]);
    assert!(ok, "stderr: {stderr}");
    let (ok, reported, stderr) = unet(&["report", "--markdown", trace_s]);
    assert!(ok, "stderr: {stderr}");
    assert_eq!(reported, analyzed, "the flag's position does not change the report");
    assert!(analyzed.contains("## Congestion"), "{analyzed}");

    let bench = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH.json");
    let (ok, tables, stderr) = unet(&["report", "--markdown", bench.to_str().unwrap()]);
    assert!(ok, "stderr: {stderr}");
    assert!(tables.starts_with("<!-- generated by `unet report --markdown`"), "{tables}");
    assert!(tables.contains("### E1 — "), "{tables}");
}

#[test]
fn analyze_and_report_fail_on_malformed_lines_with_line_numbers() {
    let dir = std::env::temp_dir().join("unet-cli-analyze-bad");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("quick.jsonl");
    let trace_s = trace.to_str().unwrap();
    let (ok, _, _) = unet(&["trace", "--quick", "--out", trace_s]);
    assert!(ok);

    // Truncate the last line mid-record, as a crashed writer would.
    let text = std::fs::read_to_string(&trace).unwrap();
    let truncated: String = text.trim_end().to_string();
    let cut = truncated.len() - 10;
    let bad = dir.join("truncated.jsonl");
    let bad_s = bad.to_str().unwrap();
    std::fs::write(&bad, &truncated[..cut]).unwrap();
    let bad_lineno = format!("line {}", truncated.lines().count());

    for cmd in ["report", "trace-requests"] {
        let (ok, _, stderr) = unet(&[cmd, bad_s]);
        assert!(!ok, "{cmd} must exit nonzero on a truncated trace");
        assert!(stderr.contains(&bad_lineno), "{cmd} must name the bad line: {stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
    let (ok_m, _, stderr_m) = unet(&["metrics", bad_s]);
    assert!(!ok_m, "metrics must exit nonzero on a truncated trace");
    assert!(stderr_m.contains(&bad_lineno), "{stderr_m}");
}

/// Arguments no run can use — a graph without nodes, a crash rate outside
/// [0, 1], a degraded run of zero steps, the retired `analyze` — exit 1
/// with one `error:` line and never reach a panic.
#[test]
fn unusable_arguments_exit_1_without_panicking() {
    for args in [
        &["topo", "ring:0"][..],
        &["topo", "mesh:0x0"],
        &["topo", "complete:0"],
        &["simulate", "ring:0", "ring:4", "2"],
        &["faults", "ring:8", "ring:4", "3", "--rate", "2"],
        &["faults", "ring:8", "ring:4", "3", "--rate", "-1"],
        &["faults", "ring:8", "ring:4", "3", "--rate", "NaN"],
        &["faults", "ring:8", "ring:4", "0"],
        &["analyze", "trace.jsonl"],
    ] {
        let out =
            Command::new(env!("CARGO_BIN_EXE_unet")).args(args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error:"), "{args:?}: {stderr}");
        assert_eq!(stderr.matches("error:").count(), 1, "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    let (_, _, stderr) = unet(&["analyze", "trace.jsonl"]);
    assert!(stderr.contains("unknown subcommand \"analyze\""), "{stderr}");
    let (_, _, stderr) = unet(&["topo", "ring:0"]);
    assert!(stderr.starts_with("error: \"ring:0\" has no nodes"), "{stderr}");
}

#[test]
fn metrics_live_run_exposes_phase_timings() {
    let (ok, stdout, stderr) = unet(&["metrics", "ring:24", "torus:3x3", "3"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("unet_phase_seconds_total"), "{stdout}");
    assert!(stdout.contains("unet_sim_guest_steps 3"), "{stdout}");
}

#[test]
fn bench_diff_rejects_missing_baseline_file() {
    let (ok, _, stderr) = unet(&["bench", "diff", "/nonexistent/BENCH.json"]);
    assert!(!ok);
    assert!(stderr.contains("error:"), "{stderr}");
}

#[test]
fn unparsable_unet_threads_warns_on_stderr_naming_the_value() {
    let run = |threads: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_unet"))
            .args(["bench", "list"])
            .env("UNET_THREADS", threads)
            .output()
            .expect("binary runs");
        (out.status.success(), String::from_utf8_lossy(&out.stderr).into_owned())
    };
    // A typo'd override warns once, naming the bad value, and still runs.
    let (ok, stderr) = run("lots");
    assert!(ok, "fallback keeps the command working: {stderr}");
    assert!(stderr.contains("UNET_THREADS=\"lots\""), "must name the bad value: {stderr}");
    assert_eq!(stderr.matches("UNET_THREADS").count(), 1, "warn once per process: {stderr}");
    // A valid override and the documented zero-means-unset stay silent.
    for quiet in ["3", "0"] {
        let (ok, stderr) = run(quiet);
        assert!(ok);
        assert!(!stderr.contains("UNET_THREADS"), "{quiet:?} must not warn: {stderr}");
    }
}

#[test]
fn serve_request_round_trip_and_graceful_drain() {
    use std::io::{BufRead, BufReader, Read};
    use std::process::Stdio;

    let mut server = Command::new(env!("CARGO_BIN_EXE_unet"))
        .args(["serve", "--workers", "2", "--queue", "8"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("server starts");
    let mut stdout = BufReader::new(server.stdout.take().unwrap());
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("banner");
    assert!(banner.starts_with("unet-serve/3 listening on "), "{banner}");
    let addr = banner.trim().rsplit(' ').next().unwrap().to_string();

    let (ok, stdout1, stderr1) =
        unet(&["request", &addr, "simulate", "ring:24", "torus:3x3", "3", "--seed", "5"]);
    assert!(ok, "stderr: {stderr1}");
    assert!(stdout1.contains("\"verified\":true"), "{stdout1}");
    // The same workload again reuses the route plan the first one built.
    let (okr, stdoutr, stderrr) =
        unet(&["request", &addr, "simulate", "ring:24", "torus:3x3", "3", "--seed", "5"]);
    assert!(okr, "stderr: {stderrr}");
    assert!(stdoutr.contains("\"shared_cache_hit\":true"), "{stdoutr}");
    // `batch` is no request kind: the CLI refuses it before connecting.
    let (okb, _, stderrb) = unet(&["request", &addr, "batch", "ring:24,torus:3x3,3,5"]);
    assert!(!okb);
    assert!(stderrb.contains("\"batch\""), "{stderrb}");
    let (ok2, stdout2, _) = unet(&["request", &addr, "metrics"]);
    assert!(ok2);
    assert!(stdout2.contains("# TYPE unet_serve_conns_admitted counter"), "{stdout2}");

    // Closing stdin triggers the graceful drain: exit 0, final exposition
    // on stdout, stats line on stderr.
    drop(server.stdin.take());
    let out = server.wait_with_output().expect("server exits");
    assert!(out.status.success(), "drain must exit 0");
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).unwrap();
    assert!(rest.contains("unet_serve_requests_completed 3"), "{rest}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("drained: 3 conns admitted"), "{stderr}");
}

#[test]
fn request_raw_surfaces_typed_overloaded_with_exit_zero() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    // --queue 0 rejects every connection with the typed response.
    let mut server = Command::new(env!("CARGO_BIN_EXE_unet"))
        .args(["serve", "--workers", "1", "--queue", "0"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("server starts");
    let mut stdout = BufReader::new(server.stdout.take().unwrap());
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("banner");
    let addr = banner.trim().rsplit(' ').next().unwrap().to_string();

    // --raw passes the wire response through verbatim and exits 0 so
    // scripts can grep the kind themselves.
    let (ok, stdout_raw, _) = unet(&["request", &addr, "metrics", "--raw"]);
    assert!(ok, "--raw never maps responses to exit codes");
    assert!(stdout_raw.contains("\"kind\":\"overloaded\""), "{stdout_raw}");
    // Without --raw, overload is a hard error naming the queue bound.
    let (ok2, _, stderr2) = unet(&["request", &addr, "metrics"]);
    assert!(!ok2);
    assert!(stderr2.contains("overloaded"), "{stderr2}");
    assert!(stderr2.contains("queue cap 0"), "{stderr2}");

    drop(server.stdin.take());
    assert!(server.wait().expect("server exits").success());
}

/// Connections a fresh `unet serve --queue 0` rejected while one `unet
/// request` ran with `args`, read from its drain line on stderr.
fn rejected_connections(args: &[&str]) -> u64 {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let mut server = Command::new(env!("CARGO_BIN_EXE_unet"))
        .args(["serve", "--workers", "1", "--queue", "0"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("server starts");
    let mut stdout = BufReader::new(server.stdout.take().unwrap());
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("banner");
    let addr = banner.trim().rsplit(' ').next().unwrap().to_string();
    let mut request = vec!["request", &addr, "metrics"];
    request.extend_from_slice(args);
    let (ok, stdout_req, _) = unet(&request);
    assert_eq!(ok, args.contains(&"--raw"), "{args:?}");
    drop(server.stdin.take());
    let out = server.wait_with_output().expect("server exits");
    assert!(out.status.success(), "drain must exit 0");
    if args.contains(&"--raw") {
        assert!(stdout_req.contains("\"kind\":\"overloaded\""), "{stdout_req}");
    }
    let stderr = String::from_utf8_lossy(&out.stderr);
    let drained = stderr.lines().find(|l| l.starts_with("drained: ")).expect("drain line");
    let rejected = drained.split(", ").find_map(|part| part.strip_suffix(" rejected"));
    rejected.and_then(|n| n.parse().ok()).unwrap_or_else(|| panic!("{drained}"))
}

#[test]
fn request_retries_make_one_more_attempt_per_retry_with_or_without_raw() {
    for mode in [&[][..], &["--raw"][..]] {
        let attempts = |retries: &str| {
            let mut args = vec!["--retries", retries];
            args.extend_from_slice(mode);
            rejected_connections(&args)
        };
        let (none, one) = (attempts("0"), attempts("1"));
        assert_eq!(one, none + 1, "{mode:?}: --retries 0 dialed {none}, --retries 1 {one}");
    }
}

#[test]
fn bad_usage_fails_with_usage_text() {
    let (ok, _, stderr) = unet(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("usage:"));
    let (ok2, _, stderr2) = unet(&["topo", "nosuch:3"]);
    assert!(!ok2);
    assert!(stderr2.contains("unknown graph family"));
}
