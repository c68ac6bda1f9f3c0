//! Text blocks of the trace report that stand on their own: a
//! histogram's summary line and log₂ bar chart (printed by
//! [`crate::analysis::render`], the one trace report), and the
//! per-request waterfalls of `unet trace-requests`.

use crate::recorder::Histogram;
use crate::trace::RequestRecord;

pub(crate) fn hist_line(name: &str, h: &Histogram) -> String {
    if h.count == 0 {
        return format!("  {name:<28} (empty)");
    }
    format!(
        "  {name:<28} n={:<8} mean={:<10.2} min={:<8} max={}",
        h.count,
        h.mean().unwrap_or(0.0),
        h.min,
        h.max
    )
}

/// ASCII bar chart of a histogram's occupied log₂ buckets.
pub(crate) fn hist_chart(h: &Histogram) -> Vec<String> {
    const WIDTH: usize = 32;
    let peak = h.buckets.iter().copied().max().unwrap_or(0);
    if peak == 0 {
        return Vec::new();
    }
    let (lo, hi) = (
        h.buckets.iter().position(|&c| c > 0).unwrap(),
        h.buckets.iter().rposition(|&c| c > 0).unwrap(),
    );
    (lo..=hi)
        .map(|i| {
            let c = h.buckets[i];
            let bar = "#".repeat(((c as u128 * WIDTH as u128).div_ceil(peak as u128)) as usize);
            let (b_lo, b_hi) = Histogram::bucket_range(i);
            let label = if b_lo == b_hi {
                format!("{b_lo}")
            } else if b_hi == u64::MAX {
                format!("{b_lo}..")
            } else {
                format!("{b_lo}..{b_hi}")
            };
            format!("    {label:>22} | {bar:<WIDTH$} {c}")
        })
        .collect()
}

/// Render per-request waterfalls for the sampled request records of one or
/// more traces, merged by `trace_id` — the body of `unet trace-requests`.
///
/// `sources` holds one `(label, tier, records)` triple per trace file: a
/// label (usually the path), the recording tier's `meta.command`, and the
/// `request` records [`crate::analysis::TraceAnalyzer::feed_line`] handed
/// back, in file order. A request that crossed several tiers (router +
/// backend) shows one block per tier under a single `trace` heading, in
/// source order.
/// `only` restricts output to the named trace ids (empty = all, ordered
/// by the slowest tier's `e2e_ms`, descending). `markdown` switches from
/// the scaled ASCII bars to GFM tables.
pub fn render_waterfalls(
    sources: &[(String, String, Vec<RequestRecord>)],
    only: &[String],
    markdown: bool,
) -> String {
    // (tier command, source label, record) — one row per tier a request crossed.
    type TierRow<'a> = (&'a str, &'a str, &'a RequestRecord);
    // trace_id -> tier rows, merged across files.
    let mut groups: Vec<(&str, Vec<TierRow>)> = Vec::new();
    for (label, tier, records) in sources {
        for r in records {
            if !only.is_empty() && !only.contains(&r.trace_id) {
                continue;
            }
            match groups.iter_mut().find(|(id, _)| *id == r.trace_id) {
                Some((_, rows)) => rows.push((tier, label, r)),
                None => groups.push((&r.trace_id, vec![(tier, label, r)])),
            }
        }
    }
    // Slowest requests first: the records a reader is hunting for.
    groups.sort_by(|a, b| {
        let peak = |rows: &[TierRow]| rows.iter().map(|(.., r)| r.e2e_ms).fold(0.0f64, f64::max);
        peak(&b.1).partial_cmp(&peak(&a.1)).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(b.0))
    });
    let mut out = String::new();
    if groups.is_empty() {
        out.push_str(if only.is_empty() {
            "no sampled request records in the given trace(s)\n"
        } else {
            "no sampled request records match the requested trace id(s)\n"
        });
        return out;
    }
    for (trace_id, rows) in groups {
        if markdown {
            out.push_str(&format!("### trace `{trace_id}`\n\n"));
            out.push_str("| tier | kind | outcome | sampled | stage | ms |\n");
            out.push_str("|---|---|---|---|---|---:|\n");
            for (tier, label, r) in rows {
                let outcome = if r.ok { "ok" } else { "error" };
                out.push_str(&format!(
                    "| {tier} ({label}) | {} | {outcome} | {} | e2e | {:.3} |\n",
                    r.kind,
                    r.sampled.as_str(),
                    r.e2e_ms
                ));
                for s in &r.stages {
                    out.push_str(&format!("| | | | | {} | {:.3} |\n", s.stage, s.ms));
                }
            }
            out.push('\n');
        } else {
            const WIDTH: usize = 24;
            out.push_str(&format!("trace {trace_id}\n"));
            let peak = rows
                .iter()
                .flat_map(|(.., r)| r.stages.iter().map(|s| s.ms))
                .fold(0.0f64, f64::max)
                .max(f64::MIN_POSITIVE);
            for (tier, label, r) in rows {
                let outcome = if r.ok { "ok" } else { "ERROR" };
                out.push_str(&format!(
                    "  {tier:<8} {:<10} {outcome:<5} e2e {:>9.3} ms  [{}]  ({label})\n",
                    r.kind,
                    r.e2e_ms,
                    r.sampled.as_str()
                ));
                for s in &r.stages {
                    let bar = "#".repeat(((s.ms / peak) * WIDTH as f64).ceil() as usize);
                    out.push_str(&format!("    {:<24} {:>9.3} ms  {bar}\n", s.stage, s.ms));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    //! The trace report as `unet report` prints it — [`render`] over the one
    //! reader — and the stand-alone blocks of this module.
    use super::*;
    use crate::analysis::{analyze_str, render, Analysis, TraceAnalyzer};
    use crate::recorder::{InMemoryRecorder, Recorder};
    use crate::trace::{
        export, write_full, FaultOp, FaultRecord, RunMeta, RunSummary, SampleReason, StageSpan,
    };

    fn meta(command: &str) -> RunMeta {
        RunMeta {
            command: command.into(),
            guest: "ring:8".into(),
            host: "mesh:4".into(),
            n: 8,
            m: 4,
            guest_steps: 2,
        }
    }

    /// A recorder-free trace carrying only fault and request records.
    fn records_trace(command: &str, faults: &[FaultRecord], requests: &[RequestRecord]) -> String {
        let mut out = Vec::new();
        let rec = InMemoryRecorder::new();
        write_full(&mut out, &rec, &meta(command), faults, requests, None).unwrap();
        String::from_utf8(out).unwrap()
    }

    fn sample_analysis() -> Analysis {
        let mut rec = InMemoryRecorder::new();
        rec.span_start("sim.comm");
        rec.counter("route.transfers", 42);
        rec.histogram("route.hops", 1);
        rec.histogram("route.hops", 5);
        rec.histogram("route.hops", 5);
        rec.gauge("sim.load", 2.5);
        rec.span_end("sim.comm");
        let summary = RunSummary {
            host_steps: 20,
            comm_steps: 14,
            compute_steps: 6,
            slowdown: 10.0,
            inefficiency: 5.0,
            wall_ms: 0.5,
        };
        analyze_str(&export(&rec, &meta("simulate"), Some(&summary))).unwrap()
    }

    #[test]
    fn render_mentions_headline_metrics() {
        let text = render(&sample_analysis(), 5, false);
        assert!(text.contains("slowdown"));
        assert!(text.contains("inefficiency"));
        assert!(text.contains("10.000"));
        assert!(text.contains("5.000"));
        assert!(text.contains("wall 0.500ms"), "{text}");
        assert!(text.contains("route.transfers"));
        assert!(text.contains("sim.comm"));
        assert!(text.contains("route.hops"));
        assert!(text.contains("sim.load"));
        for section in ["=== Phases ===", "=== Gauges ===", "=== Histograms ==="] {
            assert!(text.contains(section), "missing {section}:\n{text}");
        }
        // The histogram's bar chart follows its summary line.
        assert!(text.contains("4..7 | "), "{text}");
    }

    #[test]
    fn congestion_section_rendered_from_samples() {
        use crate::recorder::edge_key;
        let mut rec = InMemoryRecorder::new();
        rec.sample("route.edge_util", 0, edge_key(1, 2), 1);
        rec.sample("route.edge_util", 3, edge_key(4, 5), 7);
        rec.sample("route.queue_depth", 1, 9, 2);
        let a = analyze_str(&export(&rec, &meta("trace"), None)).unwrap();
        let text = render(&a, 5, false);
        assert!(text.contains("Congestion"), "{text}");
        assert!(text.contains("route.edge_util"), "{text}");
        assert!(text.contains("peak cell 7 at step 3 (edge 4->5)"), "{text}");
        assert!(text.contains("node 9"), "{text}");
        // A sample-free trace says so instead of listing series.
        assert!(render(&sample_analysis(), 5, false).contains("no sample series"));
    }

    #[test]
    fn fault_timeline_rendered_in_time_order() {
        let faults = vec![
            FaultRecord {
                at: 3,
                op: FaultOp::Repair,
                kind: "flap".into(),
                subject: "link:1-2".into(),
            },
            FaultRecord {
                at: 1,
                op: FaultOp::Inject,
                kind: "crash".into(),
                subject: "node:7".into(),
            },
        ];
        let a = analyze_str(&records_trace("faults", &faults, &[])).unwrap();
        for md in [false, true] {
            let text = render(&a, 5, md);
            assert!(text.contains("Fault timeline"), "{text}");
            assert!(text.contains("2 events: inject 1, repair 1"), "{text}");
            let inject = text.find("node:7").unwrap();
            let repair = text.find("link:1-2").unwrap();
            assert!(inject < repair, "timeline must be sorted by time:\n{text}");
        }
        // A fault-free trace has no timeline.
        assert!(!render(&sample_analysis(), 5, false).contains("Fault timeline"));
    }

    #[test]
    fn request_stage_section_rendered_from_request_records() {
        let requests = vec![RequestRecord {
            trace_id: "00000000000000aa".into(),
            kind: "simulate".into(),
            ok: true,
            e2e_ms: 10.0,
            sampled: SampleReason::Head,
            stages: vec![
                StageSpan { stage: "queue_wait".into(), ms: 2.0 },
                StageSpan { stage: "simulate".into(), ms: 7.5 },
            ],
        }];
        let a = analyze_str(&records_trace("serve", &[], &requests)).unwrap();
        let text = render(&a, 5, false);
        assert!(text.contains("Request stages"), "{text}");
        assert!(text.contains("1 sampled requests (0 errors)"), "{text}");
        // Ranked by total time: simulate before queue_wait.
        assert!(text.find("  simulate ").unwrap() < text.find("  queue_wait").unwrap(), "{text}");
        // Request-free traces have no section.
        assert!(!render(&sample_analysis(), 5, false).contains("Request stages"));
    }

    #[test]
    fn waterfalls_merge_tiers_by_trace_id_across_files() {
        let record = |trace_id: &str, ok: bool, e2e_ms: f64, stage: &str, ms: f64| RequestRecord {
            trace_id: trace_id.into(),
            kind: "simulate".into(),
            ok,
            e2e_ms,
            sampled: if ok { SampleReason::Head } else { SampleReason::Error },
            stages: vec![StageSpan { stage: stage.into(), ms }],
        };
        // Each file read back the way `unet trace-requests` reads it.
        let source = |label: &str, text: String| {
            let mut analyzer = TraceAnalyzer::new();
            let mut records = Vec::new();
            for (i, line) in text.lines().enumerate() {
                records.extend(analyzer.feed_line(line, i + 1).unwrap());
            }
            let tier = analyzer.finish().unwrap().meta.command;
            (label.to_string(), tier, records)
        };
        let router =
            records_trace("shard", &[], &[record("00000000000000aa", true, 12.0, "forward", 11.5)]);
        let backend = records_trace(
            "serve",
            &[],
            &[
                record("00000000000000aa", true, 11.0, "simulate", 10.0),
                record("00000000000000bb", false, 40.0, "queue_wait", 39.0),
            ],
        );
        let sources = vec![source("router.jsonl", router), source("backend.jsonl", backend)];
        let text = render_waterfalls(&sources, &[], false);
        // Both tiers appear under one heading for the shared id.
        let heading = text.find("trace 00000000000000aa").expect("merged trace heading");
        assert_eq!(text.matches("trace 00000000000000aa").count(), 1, "{text}");
        assert!(text.contains("shard"), "{text}");
        assert!(text.contains("serve"), "{text}");
        assert!(text.contains("forward"), "{text}");
        // Slowest trace first: bb (40 ms, an error) precedes aa (12 ms).
        let slow = text.find("trace 00000000000000bb").expect("slow trace heading");
        assert!(slow < heading, "slowest-first ordering:\n{text}");
        assert!(text.contains("ERROR"), "{text}");
        // The filter keeps only the named id.
        let only = render_waterfalls(&sources, &["00000000000000bb".to_string()], false);
        assert!(!only.contains("00000000000000aa"), "{only}");
        assert!(only.contains("00000000000000bb"), "{only}");
        // Markdown mode emits a table per trace.
        let md = render_waterfalls(&sources, &[], true);
        assert!(md.contains("### trace `00000000000000aa`"), "{md}");
        assert!(md.contains("| tier | kind | outcome | sampled | stage | ms |"), "{md}");
        // Unmatched filters say so instead of printing nothing.
        let none = render_waterfalls(&sources, &["ffffffffffffffff".to_string()], false);
        assert!(none.contains("no sampled request records"), "{none}");
    }

    #[test]
    fn hist_chart_spans_occupied_buckets() {
        let mut h = Histogram::default();
        h.record(1);
        h.record(8);
        h.record(8);
        let lines = hist_chart(&h);
        // Buckets 1 (value 1) through 4 (8..15) inclusive → 4 rows.
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("1 |"));
        assert!(lines[3].contains("8..15"));
    }

    #[test]
    fn empty_histogram_renders_without_panic() {
        let h = Histogram::default();
        assert!(hist_line("empty", &h).contains("(empty)"));
        assert!(hist_chart(&h).is_empty());
    }
}
