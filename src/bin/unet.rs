//! `unet` — the command-line face of the universal-networks workspace.
//!
//! ```text
//! unet topo     <spec>                        graph facts (degree, diameter, expansion)
//! unet simulate <guest> <host> <T> [opts]     run + certify a universal simulation
//! unet check    <guest> <host> <proto-file>   re-check a saved protocol
//! unet route    <host> <h> [--trials N]       measure route_M(h)
//! unet tradeoff <n> [--gamma G]               print the Theorem 3.1 trade-off table
//! unet audit    <n-hint> <host> <T>           full lower-bound audit on a U[G0] guest
//! unet trace    <guest> <host> <T> [opts]     instrumented run → JSONL trace
//! unet trace    --quick [opts]                same, with stock quick-smoke parameters
//! unet report   <trace-file> [opts]           the streaming trace report (congestion, critical path, ...)
//! unet report   --markdown <BENCH.json>       markdown tables from a bench artifact
//! unet metrics  <trace-file | g h T>          Prometheus-style metrics exposition
//! unet faults   <guest> <host> <T> [opts]     degraded run under crash-stop faults
//! unet bench    run|diff|list [opts]          experiment registry + regression gate
//! unet serve    [opts]                        long-running simulation server (unet-serve/3)
//! unet shard    [opts]                        spec-affine router over N backend servers
//! unet request  <addr> <kind> [args]          typed client for a running server
//! unet trace-requests <trace-file>...         per-request waterfalls, merged by trace_id
//! ```
//!
//! Graph specs: `torus:8x8`, `butterfly:4`, `random:256x4:7`, … (see
//! `universal_networks::spec`).

use std::io::Write as _;
use std::process::ExitCode;
use universal_networks::core::prelude::*;
use universal_networks::core::routers::SelectorRouter;
use universal_networks::lowerbound;
use universal_networks::pebble;
use universal_networks::routing::metrics::measure_route_time_bfs;
use universal_networks::spec::parse_graph;
use universal_networks::topology::analysis::{diameter_exact, is_connected};
use universal_networks::topology::generators::random_supergraph;
use universal_networks::topology::spectral::certify_expander;
use universal_networks::topology::util::seeded_rng;
use universal_networks::topology::Graph;

/// `println!` for a command's output: a failed write (a reader such as
/// `head` closed the pipe) ends the command with `writing stdout: …`
/// instead of a panic.
macro_rules! outln {
    ($($arg:tt)*) => {
        writeln!(std::io::stdout(), $($arg)*).map_err(|e| format!("writing stdout: {e}"))?
    };
}

/// `print!` with the error handling of [`outln!`].
macro_rules! out {
    ($($arg:tt)*) => {
        write!(std::io::stdout(), $($arg)*).map_err(|e| format!("writing stdout: {e}"))?
    };
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  unet topo     <spec>
  unet simulate <guest-spec> <host-spec> <steps> [--seed S] [--save FILE]
                [--threads N] [--no-cache]
  unet check    <guest-spec> <host-spec> <protocol-file>
  unet route    <host-spec> <h> [--trials N]
  unet tradeoff <n> [--gamma G]
  unet audit    <n-hint> <host-spec> <steps>
  unet trace    <guest-spec> <host-spec> <steps> [--seed S] [--out FILE]
  unet trace    --quick [--seed S] [--out FILE]
  unet report   <trace-file> [--markdown] [--top K]
  unet report   --markdown <BENCH.json>
  unet metrics  <trace-file>
  unet metrics  <guest-spec> <host-spec> <steps> [--seed S]
  unet faults   <guest-spec> <host-spec> <steps> [--rate R] [--at T0] [--seed S] [--out FILE]
  unet bench    run  [--quick] [--filter IDS] [--out FILE] [--resume] [--threads N]
  unet bench    diff <baseline-BENCH.json> [--full] [--filter IDS] [--threads N]
  unet bench    list
  unet serve    [--addr A] [--workers N] [--queue N] [--deadline-ms MS]
                [--sample-permille P] [--trace-out FILE]
  unet shard    (--shards N | --backend ADDR ...) [--addr A] [--workers N]
                [--queue N] [--backend-workers N] [--sample-permille P]
                [--trace-out FILE] [--backend-trace-dir DIR]
  unet request  <addr> simulate <guest-spec> <host-spec> <steps>
                [--seed S] [--deadline-ms MS] [--retries N] [--raw]
  unet request  <addr> metrics [--raw]
  unet trace-requests <trace-file>... [--trace ID]... [--markdown]";

fn run(args: &[String]) -> Result<(), String> {
    let cmd = args.first().ok_or("missing subcommand")?;
    match cmd.as_str() {
        "topo" => topo(args.get(1).ok_or("missing spec")?),
        "simulate" | "sim" => simulate(&args[1..]),
        "check" => check_cmd(&args[1..]),
        "route" => route_cmd(&args[1..]),
        "tradeoff" => tradeoff(&args[1..]),
        "audit" => audit(&args[1..]),
        "trace" => trace_cmd(&args[1..]),
        "report" => report_cmd(&args[1..]),
        "metrics" => metrics_cmd(&args[1..]),
        "faults" => faults_cmd(&args[1..]),
        "bench" => bench_cmd(&args[1..]),
        "serve" => serve_cmd(&args[1..]),
        "shard" => shard_cmd(&args[1..]),
        "request" => request_cmd(&args[1..]),
        "trace-requests" => trace_requests_cmd(&args[1..]),
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Every value of a repeatable flag (`--backend a --backend b` → `[a, b]`).
fn flag_values(args: &[String], name: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == name {
            if let Some(v) = it.next() {
                out.push(v.clone());
            }
        }
    }
    out
}

/// Positional arguments: everything that is not a flag or the value of one
/// of the listed value-taking flags.
fn positionals<'a>(args: &'a [String], value_flags: &[&str]) -> Vec<&'a String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if value_flags.contains(&a.as_str()) {
            it.next();
        } else if !a.starts_with("--") {
            out.push(a);
        }
    }
    out
}

fn topo(spec: &str) -> Result<(), String> {
    let g = parse_graph(spec)?;
    outln!("spec:       {spec}");
    outln!("nodes:      {}", g.n());
    outln!("edges:      {}", g.num_edges());
    outln!("degree:     {}..{}", g.min_degree(), g.max_degree());
    outln!("regular:    {:?}", g.is_regular());
    outln!("connected:  {}", is_connected(&g));
    if g.n() <= 4096 && is_connected(&g) {
        outln!("diameter:   {}", diameter_exact(&g));
    }
    if let Some(d) = g.is_regular() {
        if d >= 3 && g.n() >= 8 {
            let mut rng = seeded_rng(1);
            match certify_expander(&g, 0.5, 400, &mut rng) {
                Some((a, b, gm)) => outln!("expander:   certified (α={a}, β={b:.3}, γ={gm:.4})"),
                None => outln!("expander:   not certified at α=0.5"),
            }
        }
    }
    Ok(())
}

fn simulate(args: &[String]) -> Result<(), String> {
    use universal_networks::obs::SummaryRecorder;
    use universal_networks::topology::par::default_threads;

    let guest_spec = args.first().ok_or("missing guest spec")?;
    let host_spec = args.get(1).ok_or("missing host spec")?;
    let steps: u32 = args.get(2).ok_or("missing steps")?.parse().map_err(|_| "bad steps")?;
    let seed: u64 = flag(args, "--seed").map_or(Ok(0), |s| s.parse().map_err(|_| "bad seed"))?;
    let threads: usize = flag(args, "--threads")
        .map_or(Ok(default_threads()), |s| s.parse().map_err(|_| "bad threads"))?;
    let cache =
        if has_flag(args, "--no-cache") { CachePolicy::Disabled } else { CachePolicy::Enabled };
    let guest = parse_graph(guest_spec)?;
    let host = parse_graph(host_spec)?;
    let (n, m) = (guest.n(), host.n());
    let comp = GuestComputation::random(guest.clone(), seed);
    let router: SelectorRouter<universal_networks::routing::ShortestPath> = presets::bfs();
    // Only the cache counters are printed: a summary recorder builds no
    // per-transfer congestion series (`unet trace` keeps those).
    let mut rec = SummaryRecorder::new();
    let run = Simulation::builder()
        .guest(&comp)
        .host(&host)
        .embedding(Embedding::block(n, m))
        .router(&router)
        .steps(steps)
        .seed(seed ^ 0xAA)
        .threads(threads)
        .cache_policy(cache)
        .recorder(&mut rec)
        .run()
        .map_err(|e| e.to_string())?;
    let v = run.verify(&comp, &host, steps).map_err(|e| e.to_string())?;
    outln!("guest {guest_spec} (n={n})  →  host {host_spec} (m={m}),  T = {steps}");
    outln!("host steps T' = {}", v.metrics.host_steps);
    outln!(
        "slowdown  s  = {:.2}   (load bound {:.2})",
        v.metrics.slowdown,
        bounds::load_bound(n, m)
    );
    outln!(
        "inefficy  k  = {:.2}   (Thm 3.1 floor Ω(log m) ~ {:.2})",
        v.metrics.inefficiency,
        (m as f64).log2()
    );
    outln!(
        "route-plan cache: {} hits / {} misses   ({} threads)",
        rec.counter_value("sim.cache.hits"),
        rec.counter_value("sim.cache.misses"),
        threads
    );
    outln!("protocol certified; states match direct execution bit-for-bit");
    if let Some(path) = flag(args, "--save") {
        let file = std::fs::File::create(&path).map_err(|e| format!("writing {path}: {e}"))?;
        let mut out = std::io::BufWriter::new(file);
        pebble::io::write_text(&run.protocol, &mut out)
            .and_then(|()| out.flush())
            .map_err(|e| format!("writing {path}: {e}"))?;
        outln!("protocol saved to {path}");
    }
    Ok(())
}

fn check_cmd(args: &[String]) -> Result<(), String> {
    let guest = parse_graph(args.first().ok_or("missing guest spec")?)?;
    let host = parse_graph(args.get(1).ok_or("missing host spec")?)?;
    let path = args.get(2).ok_or("missing protocol file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    // The header's sizes are tested before the body is parsed: the parser
    // sizes its scratch by `m`.
    let (n, _, m) = pebble::io::read_header(&text).map_err(|e| e.to_string())?;
    let invalid = |e| format!("INVALID protocol: {e}");
    pebble::check::check_sizes(&guest, &host, n, m).map_err(invalid)?;
    let proto = pebble::io::from_text(&text).map_err(|e| e.to_string())?;
    match pebble::check(&guest, &host, &proto) {
        Ok(trace) => {
            outln!(
                "OK: valid protocol ({} steps, {} busy ops, slowdown {:.2}, inefficiency {:.2})",
                trace.host_steps,
                proto.busy_ops(),
                proto.slowdown(),
                proto.inefficiency()
            );
            Ok(())
        }
        Err(e) => Err(invalid(e)),
    }
}

fn route_cmd(args: &[String]) -> Result<(), String> {
    let host = parse_graph(args.first().ok_or("missing host spec")?)?;
    let h: usize = args.get(1).ok_or("missing h")?.parse().map_err(|_| "bad h")?;
    let trials: usize =
        flag(args, "--trials").map_or(Ok(5), |s| s.parse().map_err(|_| "bad trials"))?;
    let mut rng = seeded_rng(7);
    let stats = measure_route_time_bfs(&host, h, trials, &mut rng);
    outln!(
        "route_M({h}) over {trials} random problems on m = {}: max {} steps, mean {:.1}, max queue {}",
        host.n(),
        stats.max_steps,
        stats.mean_steps,
        stats.max_queue
    );
    Ok(())
}

/// Run an instrumented simulation (same setup as `simulate`) and emit the
/// JSONL trace: simulator phase spans, routing metrics, the pebble-checker
/// custody stats, and the slowdown/inefficiency summary.
fn trace_cmd(args: &[String]) -> Result<(), String> {
    use universal_networks::obs::trace::{RunMeta, RunSummary};
    use universal_networks::obs::InMemoryRecorder;
    use universal_networks::pebble::check_recorded;

    // `--quick` is the CI-smoke shorthand: a stock small run whose trace
    // exercises every record type (spans, samples, histograms, summary).
    let (guest_spec, host_spec, steps): (String, String, u32) = if has_flag(args, "--quick") {
        ("ring:24".into(), "torus:3x3".into(), 4)
    } else {
        (
            args.first().ok_or("missing guest spec (or use --quick)")?.clone(),
            args.get(1).ok_or("missing host spec")?.clone(),
            args.get(2).ok_or("missing steps")?.parse().map_err(|_| "bad steps")?,
        )
    };
    let seed: u64 = flag(args, "--seed").map_or(Ok(0), |s| s.parse().map_err(|_| "bad seed"))?;
    let guest = parse_graph(&guest_spec)?;
    let host = parse_graph(&host_spec)?;
    let (n, m) = (guest.n(), host.n());
    let comp = GuestComputation::random(guest.clone(), seed);
    let router: SelectorRouter<universal_networks::routing::ShortestPath> = presets::bfs();

    let mut rec = InMemoryRecorder::new();
    let wall_start = std::time::Instant::now();
    let run = Simulation::builder()
        .guest(&comp)
        .host(&host)
        .embedding(Embedding::block(n, m))
        .router(&router)
        .steps(steps)
        .seed(seed ^ 0xAA)
        .recorder(&mut rec)
        .run()
        .map_err(|e| e.to_string())?;
    check_recorded(&guest, &host, &run.protocol, &mut rec)
        .map_err(|e| format!("emitted protocol failed to verify: {e}"))?;
    let wall_ms = wall_start.elapsed().as_secs_f64() * 1e3;

    let meta = RunMeta {
        command: "trace".into(),
        guest: guest_spec.clone(),
        host: host_spec.clone(),
        n: n as u64,
        m: m as u64,
        guest_steps: steps as u64,
    };
    let summary = RunSummary {
        host_steps: run.protocol.host_steps() as u64,
        comm_steps: run.comm_steps as u64,
        compute_steps: run.compute_steps as u64,
        slowdown: run.slowdown(),
        inefficiency: run.inefficiency(),
        wall_ms,
    };
    let out = flag(args, "--out");
    let lines = write_run_trace(out.as_deref(), &rec, &meta, &[], &summary)?;
    if let Some(path) = out {
        eprintln!(
            "trace written to {path} ({lines} lines, T' = {}, s = {:.2}, k = {:.2})",
            summary.host_steps, summary.slowdown, summary.inefficiency
        );
    }
    Ok(())
}

/// Stream a recorded run's JSONL trace through `trace::write_full` to
/// `path` (stdout when `None`), one line at a time; returns the number of
/// lines written.
fn write_run_trace(
    path: Option<&str>,
    rec: &universal_networks::obs::InMemoryRecorder,
    meta: &universal_networks::obs::trace::RunMeta,
    faults: &[universal_networks::obs::trace::FaultRecord],
    summary: &universal_networks::obs::trace::RunSummary,
) -> Result<u64, String> {
    use std::io::Write;
    use universal_networks::obs::trace::{write_full, RequestRecord};
    let name = path.unwrap_or("stdout");
    let err = |e: std::io::Error| format!("writing {name}: {e}");
    let mut out: std::io::BufWriter<Box<dyn Write>> = std::io::BufWriter::new(match path {
        Some(path) => Box::new(std::fs::File::create(path).map_err(err)?),
        None => Box::new(std::io::stdout().lock()),
    });
    let requests = std::iter::empty::<RequestRecord>();
    let lines = write_full(&mut out, rec, meta, faults, requests, Some(summary)).map_err(err)?;
    out.flush().map_err(err)?;
    Ok(lines)
}

/// Run a degraded simulation under seeded crash-stop faults, certify it,
/// verify bit-for-bit reproduction, and print (or trace) the fault story.
fn faults_cmd(args: &[String]) -> Result<(), String> {
    use universal_networks::faults::{DegradedSimulator, DegradedTuning, FaultPlan};
    use universal_networks::obs::trace::{RunMeta, RunSummary};
    use universal_networks::obs::InMemoryRecorder;
    use universal_networks::routing::ShortestPath;

    let guest_spec = args.first().ok_or("missing guest spec")?;
    let host_spec = args.get(1).ok_or("missing host spec")?;
    let steps: u32 = args.get(2).ok_or("missing steps")?.parse().map_err(|_| "bad steps")?;
    if steps == 0 {
        return Err("bad steps 0: a degraded run simulates at least one guest step".into());
    }
    let rate: f64 = flag(args, "--rate").map_or(Ok(0.1), |s| s.parse().map_err(|_| "bad rate"))?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("bad rate {rate}: the crash rate must be in [0, 1]"));
    }
    let at: u32 = flag(args, "--at").map_or(Ok(2), |s| s.parse().map_err(|_| "bad at"))?;
    let seed: u64 = flag(args, "--seed").map_or(Ok(0), |s| s.parse().map_err(|_| "bad seed"))?;
    let guest = parse_graph(guest_spec)?;
    let host = parse_graph(host_spec)?;
    let (n, m) = (guest.n(), host.n());
    let comp = GuestComputation::random(guest.clone(), seed);
    let sim = DegradedSimulator {
        embedding: Embedding::block(n, m),
        plan: FaultPlan::crashes(&host, rate, at, seed ^ 0xF417),
        selector: Some(ShortestPath),
    };
    let mut rng = seeded_rng(seed ^ 0xAA);
    let mut rec = InMemoryRecorder::new();
    let wall_start = std::time::Instant::now();
    let run = sim
        .simulate_tuned(&comp, &host, steps, &DegradedTuning::default(), &mut rng, &mut rec)
        .map_err(|e| e.to_string())?;
    pebble::check(&guest, &host, &run.run.protocol)
        .map_err(|e| format!("degraded protocol failed to verify: {e}"))?;
    if run.run.final_states != comp.run_final(steps) {
        return Err("degraded run diverged from direct guest execution".into());
    }
    let wall_ms = wall_start.elapsed().as_secs_f64() * 1e3;

    outln!("guest {guest_spec} (n={n})  →  host {host_spec} (m={m}),  T = {steps}");
    outln!("fault plan: crash-stop rate {rate} at boundary {at} ({} events)", sim.plan.len());
    outln!("surviving  m' = {} / {m}", run.m_surviving);
    outln!("host steps T' = {}", run.run.protocol.host_steps());
    outln!("slowdown   s  = {:.2}", run.run.slowdown());
    outln!(
        "inefficy   k' = {:.2} on m'   (Thm 3.1 floor Ω(log m') ~ {:.2})",
        run.surviving_inefficiency(),
        (run.m_surviving as f64).log2()
    );
    outln!(
        "routing: delivered {}, dropped {}, retried {};  remapped {}, replayed {}",
        run.delivered,
        run.dropped,
        run.retried,
        run.remapped,
        run.replayed
    );
    outln!("protocol certified; states match direct execution bit-for-bit");
    if let Some(path) = flag(args, "--out") {
        let meta = RunMeta {
            command: "faults".into(),
            guest: guest_spec.clone(),
            host: host_spec.clone(),
            n: n as u64,
            m: m as u64,
            guest_steps: steps as u64,
        };
        let summary = RunSummary {
            host_steps: run.run.protocol.host_steps() as u64,
            comm_steps: run.run.comm_steps as u64,
            compute_steps: run.run.compute_steps as u64,
            slowdown: run.run.slowdown(),
            inefficiency: run.surviving_inefficiency(),
            wall_ms,
        };
        let lines = write_run_trace(Some(&path), &rec, &meta, &run.fault_log, &summary)?;
        outln!("trace with fault timeline written to {path} ({lines} lines)");
    }
    Ok(())
}

/// Stream a JSONL trace written by `unet trace` through the bounded-memory
/// analyzer and print the congestion / critical-path report (human by
/// default, `--markdown` for GFM) — or, when the file is a `BENCH.json`
/// artifact and `--markdown` is given, render the markdown tables
/// EXPERIMENTS.md embeds.
fn report_cmd(args: &[String]) -> Result<(), String> {
    use universal_networks::bench::{report_md, schema::BenchDoc};
    use universal_networks::obs::analysis::render;

    let pos = positionals(args, &["--top"]);
    let path = pos.first().ok_or("missing trace file")?;
    let markdown = has_flag(args, "--markdown");
    // An artifact is one JSON document on one line (`bench run --out`
    // writes it so); a trace's first line is its `meta` record. Only that
    // line is read, so a trace of any size still streams through the
    // analyzer.
    if markdown {
        if let Some(doc) = first_line(path)?.and_then(|l| BenchDoc::parse(&l).ok()) {
            out!("{}", report_md::render(&doc));
            return Ok(());
        }
    }
    let top: usize = flag(args, "--top").map_or(Ok(5), |s| s.parse().map_err(|_| "bad --top"))?;
    let analysis = analyze_file(path, drop)?;
    out!("{}", render(&analysis, top, markdown));
    Ok(())
}

/// The first line of the file at `path` (`None` when the file is empty).
fn first_line(path: &str) -> Result<Option<String>, String> {
    use std::io::BufRead;
    let file = std::fs::File::open(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut line = String::new();
    match std::io::BufReader::new(file).read_line(&mut line) {
        Ok(0) => Ok(None),
        Ok(_) => Ok(Some(line)),
        // Not UTF-8: neither an artifact nor a trace; let the analyzer
        // name the line.
        Err(e) if e.kind() == std::io::ErrorKind::InvalidData => Ok(None),
        Err(e) => Err(format!("reading {path}: {e}")),
    }
}

/// Stream a JSONL trace file through the bounded-memory analyzer, handing
/// each `request` record to `on_request`. The trace is read line by line —
/// a multi-million-event trace is never materialized in memory — and
/// malformed or truncated input is a hard error naming the offending line
/// (`{path}: line N: {err}`).
fn analyze_file(
    path: &str,
    mut on_request: impl FnMut(universal_networks::obs::trace::RequestRecord),
) -> Result<universal_networks::obs::analysis::Analysis, String> {
    use std::io::{BufRead, BufReader};
    use universal_networks::obs::analysis::TraceAnalyzer;
    let file = std::fs::File::open(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut analyzer = TraceAnalyzer::new();
    for (i, line) in BufReader::new(file).lines().enumerate() {
        let line = line.map_err(|e| format!("{path}: line {}: {e}", i + 1))?;
        if let Some(r) = analyzer.feed_line(&line, i + 1).map_err(|e| format!("{path}: {e}"))? {
            on_request(r);
        }
    }
    analyzer.finish().map_err(|e| format!("{path}: {e}"))
}

/// Print the unified metrics registry in Prometheus text exposition
/// format. Two sources: a trace file (one positional argument) streams
/// through the analyzer; a `<guest> <host> <steps>` triple runs a fresh
/// instrumented simulation through `Simulation::builder()` and exposes the
/// live recorder.
fn metrics_cmd(args: &[String]) -> Result<(), String> {
    use universal_networks::obs::{InMemoryRecorder, MetricsRegistry};

    let pos = positionals(args, &["--seed"]);
    let reg = match pos.as_slice() {
        [path] => MetricsRegistry::from_analysis(&analyze_file(path, drop)?),
        [guest_spec, host_spec, steps] => {
            let steps: u32 = steps.parse().map_err(|_| "bad steps")?;
            let seed: u64 =
                flag(args, "--seed").map_or(Ok(0), |s| s.parse().map_err(|_| "bad seed"))?;
            let guest = parse_graph(guest_spec)?;
            let host = parse_graph(host_spec)?;
            let (n, m) = (guest.n(), host.n());
            let comp = GuestComputation::random(guest, seed);
            let router: SelectorRouter<universal_networks::routing::ShortestPath> = presets::bfs();
            let mut rec = InMemoryRecorder::new();
            Simulation::builder()
                .guest(&comp)
                .host(&host)
                .embedding(Embedding::block(n, m))
                .router(&router)
                .steps(steps)
                .seed(seed ^ 0xAA)
                .recorder(&mut rec)
                .run()
                .map_err(|e| e.to_string())?;
            MetricsRegistry::from_recorder(&rec)
        }
        _ => return Err("expected a trace file or <guest-spec> <host-spec> <steps>".into()),
    };
    out!("{}", reg.expose());
    Ok(())
}

/// The experiment registry: `run` sweeps grids into a versioned
/// `BENCH.json`, `diff` re-checks every paper claim's *shape* (Thm 2.1
/// affinity in log m, the Thm 3.1 floor, E17's bit-for-bit invariants)
/// against a committed baseline plus a fresh run, `list` shows what is
/// registered.
fn bench_cmd(args: &[String]) -> Result<(), String> {
    use universal_networks::bench::diff::diff;
    use universal_networks::bench::registry::registry;
    use universal_networks::bench::sweep::{check_shapes, run_to_file, SweepOptions};
    use universal_networks::topology::par::default_threads;

    let sub = args.first().ok_or("missing bench subcommand (run | diff | list)")?;
    let threads: usize = flag(args, "--threads")
        .map_or(Ok(default_threads()), |s| s.parse().map_err(|_| "bad threads"))?;
    let filter = flag(args, "--filter").map(|f| SweepOptions::parse_filter(&f));
    match sub.as_str() {
        "list" => {
            for exp in registry() {
                outln!("{}: {}", exp.id, exp.title);
                outln!("    claim: {}", exp.claim);
                for shape in (exp.shapes)() {
                    outln!("    shape: {}", shape.describe());
                }
            }
            Ok(())
        }
        "run" => {
            let opts = SweepOptions { quick: has_flag(args, "--quick"), filter, threads };
            let out = flag(args, "--out").unwrap_or_else(|| "BENCH.json".into());
            let (doc, progress) = run_to_file(&out, &opts, has_flag(args, "--resume"))?;
            for line in &progress {
                outln!("{line}");
            }
            outln!("wrote {out} ({} experiments)", doc.experiments.len());
            let mut bent = Vec::new();
            for o in check_shapes(&doc) {
                match o.violation {
                    None => outln!("  ok    {} {}", o.exp, o.shape),
                    Some(v) => bent.push(format!("  FAIL  {} {v}", o.exp)),
                }
            }
            for line in &bent {
                outln!("{line}");
            }
            if bent.is_empty() {
                Ok(())
            } else {
                Err(format!("{} shape predicate(s) violated by the fresh sweep", bent.len()))
            }
        }
        "diff" => {
            // First positional after `diff`, skipping flags and their values.
            let mut rest = args.iter().skip(1);
            let mut path = None;
            while let Some(a) = rest.next() {
                if a == "--filter" || a == "--threads" {
                    rest.next();
                } else if !a.starts_with("--") {
                    path = Some(a);
                    break;
                }
            }
            let path = path.ok_or("missing baseline BENCH.json path")?;
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            // Quick grids by default: the gate checks shapes, not absolute
            // numbers, so the CI-smoke sizes are comparable to a committed
            // full-size baseline. `--full` opts into full grids.
            let opts = SweepOptions { quick: !has_flag(args, "--full"), filter, threads };
            let report = diff(&text, &opts)?;
            for line in &report.lines {
                outln!("{line}");
            }
            if report.passed() {
                outln!("bench diff: all claim shapes hold");
                Ok(())
            } else {
                Err(format!("bench diff: {} shape check(s) failed", report.failures))
            }
        }
        other => Err(format!("unknown bench subcommand {other:?} (run | diff | list)")),
    }
}

/// Block until stdin reaches EOF (pipe closed, ctrl-d) or one of `flags`
/// is set, polling every 50 ms; whatever arrives on stdin before EOF is
/// ignored. `unet serve` and `unet shard` drain once this returns.
fn wait_for_drain(flags: &[&std::sync::atomic::AtomicBool]) {
    use std::io::Read;
    use std::sync::atomic::{AtomicBool, Ordering};
    static STDIN_CLOSED: AtomicBool = AtomicBool::new(false);
    std::thread::spawn(|| {
        let mut sink = [0u8; 4096];
        let mut stdin = std::io::stdin();
        while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
        STDIN_CLOSED.store(true, Ordering::SeqCst);
    });
    while !STDIN_CLOSED.load(Ordering::SeqCst) && !flags.iter().any(|f| f.load(Ordering::SeqCst)) {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
}

/// Run the long-running simulation server (`unet-serve/3`). Prints the
/// bound address on stdout and then blocks; SIGTERM or stdin reaching EOF
/// triggers a graceful drain — stop accepting, answer everything in
/// flight, then print the final Prometheus exposition on stdout and a
/// one-line stats summary on stderr. `--trace-out FILE` additionally
/// streams the tail-sampled per-request trace to FILE (`unet
/// trace-requests` reads it back).
fn serve_cmd(args: &[String]) -> Result<(), String> {
    use universal_networks::serve::{signal, ServeConfig, Server};

    let defaults = ServeConfig::default();
    let cfg = ServeConfig {
        addr: flag(args, "--addr").unwrap_or(defaults.addr),
        workers: flag(args, "--workers")
            .map_or(Ok(defaults.workers), |s| s.parse().map_err(|_| "bad --workers"))?,
        queue_cap: flag(args, "--queue")
            .map_or(Ok(defaults.queue_cap), |s| s.parse().map_err(|_| "bad --queue"))?,
        default_deadline_ms: flag(args, "--deadline-ms")
            .map_or(Ok(defaults.default_deadline_ms), |s| {
                s.parse().map_err(|_| "bad --deadline-ms")
            })?,
        head_sample_permille: flag(args, "--sample-permille")
            .map_or(Ok(defaults.head_sample_permille), |s| {
                s.parse().map_err(|_| "bad --sample-permille")
            })?,
    };
    let server = Server::start(cfg).map_err(|e| format!("bind: {e}"))?;
    outln!("unet-serve/3 listening on {}", server.addr());
    {
        use std::io::Write;
        std::io::stdout().flush().ok();
    }

    // Ctrl-C keeps its abrupt default here (see `serve::signal`).
    wait_for_drain(&[signal::install_sigterm_flag()]);

    let report = server.drain();
    eprintln!(
        "drained: {} conns admitted, {} rejected, {} requests completed, cache hit ratio {}",
        report.stats.admitted,
        report.stats.rejected,
        report.stats.completed,
        report.stats.hit_ratio().map_or_else(|| "-".into(), |r| format!("{r:.3}")),
    );
    if let Some(path) = flag(args, "--trace-out") {
        write_request_trace(&path, &report.trace)?;
    }
    out!("{}", report.exposition);
    Ok(())
}

/// Stream a drained tier's request trace to `path`, one line at a time.
fn write_request_trace(
    path: &str,
    trace: &universal_networks::serve::RequestTrace,
) -> Result<(), String> {
    use std::io::Write;
    let err = |e: std::io::Error| format!("writing {path}: {e}");
    let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(err)?);
    let lines = trace.write_to(&mut out).map_err(err)?;
    out.flush().map_err(err)?;
    eprintln!("request trace written to {path} ({lines} lines)");
    Ok(())
}

/// `unet shard` — the spec-affine front-end router. `--shards N`
/// spawns and supervises N backend `unet serve` child processes on
/// ephemeral ports (their graceful drain rides the child-stdin pipe);
/// `--backend ADDR` (repeatable) attaches externally managed ones. Prints
/// the bound address on stdout and blocks; SIGTERM, SIGINT, or stdin EOF
/// drains the router first (answer everything in flight), then the
/// spawned backends, then prints the router's final exposition.
fn shard_cmd(args: &[String]) -> Result<(), String> {
    use std::io::{BufRead, BufReader, Write};
    use std::process::{Child, Command, Stdio};
    use universal_networks::serve::router::{Router, ShardConfig};
    use universal_networks::serve::signal;

    let defaults = ShardConfig::default();
    let spawn_n: usize =
        flag(args, "--shards").map_or(Ok(0), |s| s.parse().map_err(|_| "bad --shards"))?;
    let mut backends = flag_values(args, "--backend");
    if spawn_n > 0 && !backends.is_empty() {
        return Err("use either --shards (spawn) or --backend (attach), not both".into());
    }
    if spawn_n == 0 && backends.is_empty() {
        return Err("need --shards N (spawn backends) or --backend ADDR (attach)".into());
    }
    let backend_workers: usize = flag(args, "--backend-workers")
        .map_or(Ok(1), |s| s.parse().map_err(|_| "bad --backend-workers"))?;

    let mut children: Vec<Child> = Vec::new();
    if spawn_n > 0 {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        for i in 0..spawn_n {
            let mut spawn_args = vec![
                "serve".to_string(),
                "--addr".to_string(),
                "127.0.0.1:0".to_string(),
                "--workers".to_string(),
                backend_workers.to_string(),
            ];
            // With a trace dir, each backend writes its tail-sampled
            // request trace there at drain — `unet trace-requests` merges
            // them with the router's own `--trace-out` by trace_id.
            if let Some(dir) = flag(args, "--backend-trace-dir") {
                spawn_args.push("--trace-out".to_string());
                spawn_args.push(format!("{dir}/backend-{i}.jsonl"));
            }
            // Backends must share the router's head-sampling rate: the
            // per-trace-id coin is deterministic, so equal rates mean the
            // tiers keep the same requests and a merged waterfall is
            // never half-missing.
            if let Some(p) = flag(args, "--sample-permille") {
                spawn_args.push("--sample-permille".to_string());
                spawn_args.push(p);
            }
            let mut child = Command::new(&exe)
                .args(&spawn_args)
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()
                .map_err(|e| format!("spawn backend {i}: {e}"))?;
            let mut reader = BufReader::new(child.stdout.take().expect("stdout piped"));
            let mut banner = String::new();
            reader.read_line(&mut banner).map_err(|e| format!("backend {i} banner: {e}"))?;
            let addr = banner
                .trim()
                .rsplit(' ')
                .next()
                .filter(|a| a.contains(':'))
                .ok_or_else(|| format!("backend {i} printed no address: {banner:?}"))?
                .to_string();
            // Keep the child's stdout pipe drained (its final exposition
            // arrives there at drain time) so it can never fill and block.
            std::thread::spawn(move || {
                let mut sink = String::new();
                while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
                    sink.clear();
                }
            });
            backends.push(addr);
            children.push(child);
        }
    }

    let cfg = ShardConfig {
        addr: flag(args, "--addr").unwrap_or(defaults.addr),
        workers: flag(args, "--workers")
            .map_or(Ok(defaults.workers), |s| s.parse().map_err(|_| "bad --workers"))?,
        queue_cap: flag(args, "--queue")
            .map_or(Ok(defaults.queue_cap), |s| s.parse().map_err(|_| "bad --queue"))?,
        backends,
        head_sample_permille: flag(args, "--sample-permille")
            .map_or(Ok(defaults.head_sample_permille), |s| {
                s.parse().map_err(|_| "bad --sample-permille")
            })?,
    };
    let router = Router::start(cfg).map_err(|e| format!("bind: {e}"))?;
    outln!("unet-shard listening on {} ({} backends)", router.addr(), router.stats().backends);
    std::io::stdout().flush().ok();

    wait_for_drain(&[signal::install_sigterm_flag(), signal::install_sigint_flag()]);

    let report = router.drain();
    eprintln!(
        "drained: {} forwarded, {} completed, {} failovers, {} overloads absorbed, \
         {}/{} backends healthy",
        report.stats.forwarded,
        report.stats.completed,
        report.stats.failovers,
        report.stats.overloads_absorbed,
        report.stats.healthy,
        report.stats.backends,
    );
    // Supervised children drain in turn: closing a child's stdin is its
    // graceful-drain trigger (same contract as running `unet serve` under
    // a pipe), then reap every exit status.
    for child in &mut children {
        drop(child.stdin.take());
    }
    for (i, mut child) in children.into_iter().enumerate() {
        match child.wait() {
            Ok(status) => eprintln!("backend {i} exited: {status}"),
            Err(e) => eprintln!("backend {i} wait failed: {e}"),
        }
    }
    if let Some(path) = flag(args, "--trace-out") {
        write_request_trace(&path, &report.trace)?;
    }
    out!("{}", report.exposition);
    Ok(())
}

/// Typed client for a running `unet serve`: build a `unet-serve/3` request
/// line, send it over a [`Client`](universal_networks::serve::Client)
/// connection, render the response. `--raw` prints the raw JSON response
/// line verbatim and always exits 0 — even for `overloaded` — so scripts
/// can branch on `\"kind\"` themselves; without it, error and overloaded
/// responses map to a non-zero exit. `--retries N` re-sends after an
/// `overloaded` rejection, sleeping the server's `retry_after_ms` hint:
/// at most N + 1 attempts, with or without `--raw`, which prints the last
/// answer.
fn request_cmd(args: &[String]) -> Result<(), String> {
    use universal_networks::obs::json::Value;
    use universal_networks::serve::protocol::{
        gen_trace_id, metrics_request_line, parse_response, simulate_request_line, SimulateReq,
    };
    use universal_networks::serve::{Client, Response};

    let pos = positionals(args, &["--seed", "--deadline-ms", "--retries"]);
    let (addr, kind) = match pos.as_slice() {
        [addr, kind, ..] => (addr.as_str(), kind.as_str()),
        _ => return Err("usage: unet request <addr> simulate|metrics [args]".into()),
    };
    let deadline_ms = flag(args, "--deadline-ms")
        .map(|s| s.parse::<u64>().map_err(|_| "bad --deadline-ms"))
        .transpose()?;
    let retries: u32 =
        flag(args, "--retries").map_or(Ok(0), |s| s.parse().map_err(|_| "bad --retries"))?;
    // The CLI is this request's first ingress: stamp the trace context
    // here so the router and backend record their spans under one id.
    let trace_id = gen_trace_id();
    let line = match (kind, &pos[2..]) {
        ("simulate", [guest, host, steps]) => {
            let steps: u32 = steps.parse().map_err(|_| "bad steps")?;
            let seed: u64 =
                flag(args, "--seed").map_or(Ok(0), |s| s.parse().map_err(|_| "bad seed"))?;
            simulate_request_line(
                &SimulateReq {
                    guest: (*guest).clone(),
                    host: (*host).clone(),
                    steps,
                    seed,
                    deadline_ms,
                    id: None,
                },
                Some(&trace_id),
            )
        }
        ("metrics", []) => metrics_request_line(None, Some(&trace_id)),
        _ => return Err(format!("bad arguments for request kind {kind:?} (see usage)")),
    };
    let mut client = match Client::connect(addr) {
        Ok(c) => c.retries(retries),
        Err(e) => return Err(format!("{addr}: {e}")),
    };
    let resp = client.request_raw_retrying(&line).map_err(|e| format!("{addr}: {e}"))?;
    if has_flag(args, "--raw") {
        outln!("{resp}");
        return Ok(());
    }
    match parse_response(&resp).map_err(|e| format!("{addr}: bad response: {e}"))? {
        Response::Result(v) => {
            // A metrics result prints its Prometheus text; a simulate
            // result prints the JSON payload.
            if let Some(expo) = v.get("exposition").and_then(Value::as_str) {
                out!("{expo}");
            } else {
                outln!("{}", v.to_json());
            }
            Ok(())
        }
        Response::Error { code, message, .. } => Err(format!("{code}: {message}")),
        Response::Overloaded { queue_cap, retry_after_ms } => Err(format!(
            "server overloaded (queue cap {queue_cap}, retry after {} ms)",
            retry_after_ms.unwrap_or(0)
        )),
    }
}

/// `unet trace-requests` — merge the sampled per-request records of one or
/// more trace files (a router's `--trace-out` plus its backends', say) by
/// `trace_id` and print one waterfall per traced request: each tier's
/// end-to-end latency, outcome, sampling reason, and stage spans with
/// scaled bars (`--markdown` for GFM tables, `--trace ID` to filter).
fn trace_requests_cmd(args: &[String]) -> Result<(), String> {
    use universal_networks::obs::report::render_waterfalls;

    let paths = positionals(args, &["--trace"]);
    if paths.is_empty() {
        return Err("missing trace file(s)".into());
    }
    let only = flag_values(args, "--trace");
    let mut sources = Vec::new();
    for path in paths {
        let mut records = Vec::new();
        let analysis = analyze_file(path, |r| records.push(r))?;
        sources.push((path.clone(), analysis.meta.command, records));
    }
    out!("{}", render_waterfalls(&sources, &only, has_flag(args, "--markdown")));
    Ok(())
}

fn tradeoff(args: &[String]) -> Result<(), String> {
    let n: u64 = args.first().ok_or("missing n")?.parse().map_err(|_| "bad n")?;
    let gamma: f64 =
        flag(args, "--gamma").map_or(Ok(0.125), |s| s.parse().map_err(|_| "bad gamma"))?;
    let max_exp = (n as f64).log2() as u32;
    let ms: Vec<u64> = (3..=max_exp).map(|e| 1u64 << e).collect();
    outln!(
        "{:>8} {:>9} {:>9} {:>9} {:>9} {:>12}",
        "m",
        "k_ideal",
        "k_shape",
        "s_shape",
        "s_upper",
        "m*s"
    );
    for row in lowerbound::tradeoff_table(n, &ms, gamma, 4) {
        outln!(
            "{:>8} {:>9.2} {:>9.2} {:>9.1} {:>9.1} {:>12.0}",
            row.m,
            row.k_ideal,
            row.k_shape,
            row.s_shape,
            row.s_upper,
            row.ms_product
        );
    }
    Ok(())
}

fn audit(args: &[String]) -> Result<(), String> {
    let n_hint: usize = args.first().ok_or("missing n-hint")?.parse().map_err(|_| "bad n")?;
    let host: Graph = parse_graph(args.get(1).ok_or("missing host spec")?)?;
    let steps: u32 = args.get(2).ok_or("missing steps")?.parse().map_err(|_| "bad steps")?;
    let mut rng = seeded_rng(3);
    let (g0, n) = lowerbound::build_g0_for_host(n_hint, host.n(), &mut rng);
    let c = (g0.graph.max_degree() + 2).div_ceil(2) * 2; // even c ≥ deg(G0)
    let guest = random_supergraph(&g0.graph, c.max(12), &mut rng);
    outln!(
        "G0: n = {n}, a = {}, blocks = {}, certified (α, β, γ) = ({:.2}, {:.3}, {:.4})",
        g0.a,
        g0.h(),
        g0.alpha,
        g0.beta,
        g0.gamma
    );
    let steps = if steps < g0.min_steps() {
        outln!(
            "note: raising T from {steps} to {} (the analysis needs T > tree depth; \
             the paper's T ≥ 2√(log m))",
            g0.min_steps()
        );
        g0.min_steps()
    } else {
        steps
    };
    let router = presets::bfs();
    let report = lowerbound::run_audit(
        &g0,
        &guest,
        &host,
        Embedding::block(n, host.n()),
        &router,
        steps,
        0.05,
        &mut seeded_rng(4),
    );
    outln!(
        "metrics: T' = {}, s = {:.1}, k = {:.2}",
        report.metrics.host_steps,
        report.metrics.slowdown,
        report.metrics.inefficiency
    );
    outln!(
        "averaging: |Z_S| = {} (ok: {}), bounds hold: {}",
        report.averaging.z_s.len(),
        report.averaging.z_s_large_enough,
        report.averaging.all_bounds_hold()
    );
    outln!(
        "wavefront: monotone {}, expansion {}, min gap {:?}",
        report.wavefront.monotone,
        report.wavefront.expansion_ok,
        report.wavefront.min_gap
    );
    outln!(
        "fragments: structural {}, small-D fraction {:.3}",
        report.fragments_structurally_valid,
        report.small_d_fraction
    );
    outln!("AUDIT {}", if report.passed() { "PASSED" } else { "FAILED" });
    report.passed().then_some(()).ok_or_else(|| "audit failed".into())
}
