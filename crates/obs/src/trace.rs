//! JSONL run traces: the machine-readable artifact behind `unet trace`
//! and `unet report`.
//!
//! One JSON object per line. The first line is the `meta` record; span
//! events follow in chronological order (balanced, LIFO-nested); counter /
//! gauge / histogram aggregates and the final `summary` close the file:
//!
//! ```text
//! {"type":"meta","schema":"unet-trace/4","command":"simulate","guest":"ring:12","host":"torus:2x2","n":12,"m":4,"guest_steps":3}
//! {"type":"span","op":"start","name":"sim.comm","ns":1200}
//! {"type":"span","op":"end","name":"sim.comm","ns":58000}
//! {"type":"counter","name":"route.transfers","value":831}
//! {"type":"gauge","name":"sim.load","value":3.0}
//! {"type":"hist","name":"route.queue_occupancy","count":96,"sum":310,"min":1,"max":9,"buckets":[[1,40],[2,30],[3,20],[4,6]]}
//! {"type":"sample","name":"route.edge_util","step":4,"key":12884901893,"value":2}
//! {"type":"request","trace_id":"00000000c0ffee42","kind":"simulate","ok":true,"e2e_ms":12.5,"sampled":"head","stages":[["queue_wait",1.5],["simulate",10.0]]}
//! {"type":"summary","host_steps":61,"comm_steps":40,"compute_steps":21,"slowdown":20.3,"inefficiency":6.8,"wall_ms":1.9}
//! ```
//!
//! Histogram buckets are sparse `[index, count]` pairs over the log₂
//! bucketing of [`Histogram`]. This module holds the record types and the
//! writer ([`write_full`], [`export`]); the one reader is the streaming
//! [`crate::analysis::TraceAnalyzer`], which validates structure line by
//! line: every line must parse, span events must balance under stack
//! discipline, and timestamps must be non-decreasing.
//!
//! Schema history: `unet-trace/1` was the original record set, `/2` added
//! `fault` records, `/3` added per-step `sample` records (edge
//! utilization and queue depth, keyed by [`crate::recorder::edge_key`] or
//! node id), and `/4` adds per-request `request` records (one traced
//! request's stage spans through the serving tier). The reader accepts
//! only the current [`SCHEMA`], which writers always emit; a document
//! declaring any other schema, the older three included, gets a typed
//! `unsupported schema` error.

use crate::json::Value;
use crate::recorder::{Histogram, InMemoryRecorder, SpanEvent};

/// Trace schema identifier written into `meta` lines.
pub const SCHEMA: &str = "unet-trace/4";

/// Identity of a traced run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunMeta {
    /// Which subcommand/driver produced the trace.
    pub command: String,
    /// Guest graph spec.
    pub guest: String,
    /// Host graph spec.
    pub host: String,
    /// Guest size `n`.
    pub n: u64,
    /// Host size `m`.
    pub m: u64,
    /// Guest steps `T`.
    pub guest_steps: u64,
}

/// Headline metrics of a traced run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunSummary {
    /// Host steps `T'`.
    pub host_steps: u64,
    /// Host steps spent in communication phases.
    pub comm_steps: u64,
    /// Host steps spent in computation phases.
    pub compute_steps: u64,
    /// Measured slowdown `s = T'/T`.
    pub slowdown: f64,
    /// Measured inefficiency `k = s·m/n`.
    pub inefficiency: f64,
    /// Wall-clock time of the run in milliseconds.
    pub wall_ms: f64,
}

/// What a [`FaultRecord`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// A fault fired: a node crashed, a link was cut or flapped down.
    Inject,
    /// A transient fault healed (link flap repaired).
    Repair,
    /// A guest processor was re-embedded onto a live host after its host
    /// crashed.
    Remap,
}

impl FaultOp {
    /// Wire name of the op.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultOp::Inject => "inject",
            FaultOp::Repair => "repair",
            FaultOp::Remap => "remap",
        }
    }

    /// Parse a wire name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "inject" => Some(FaultOp::Inject),
            "repair" => Some(FaultOp::Repair),
            "remap" => Some(FaultOp::Remap),
            _ => None,
        }
    }
}

/// One fault event in a traced run — the `unet-trace/2` record
/// `{"type":"fault","op":...,"at":...,"kind":...,"subject":...}`. The schema
/// addition is backwards-compatible: readers of fault-free traces see no
/// `fault` lines at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// Guest-step boundary at which the event fired.
    pub at: u64,
    /// Event class.
    pub op: FaultOp,
    /// Fault kind: `"crash"`, `"cut"`, `"flap"` for inject/repair;
    /// `"guest"` for remap events.
    pub kind: String,
    /// Affected element, e.g. `"node:5"`, `"link:3-7"`, or
    /// `"guest:12->host:4"`.
    pub subject: String,
}

/// One keyed time-series point from a parsed trace — the `unet-trace/3`
/// record `{"type":"sample","name":...,"step":...,"key":...,"value":...}`.
/// `key` packs an edge ([`crate::recorder::edge_key`]) or a node id;
/// `value` is the aggregated sum for `(name, step, key)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleRecord {
    /// Series name, e.g. `"route.edge_util"` or `"route.queue_depth"`.
    pub name: String,
    /// Time index (routing round or communication round).
    pub step: u64,
    /// Spatial key: packed edge or node id.
    pub key: u64,
    /// Summed value at `(step, key)`.
    pub value: u64,
}

/// One named stage of a traced request, with its measured duration.
///
/// Stage names are the serving tier's fixed vocabulary — backend-side
/// `accept`, `queue_wait`, `singleflight_wait`, `plan_build`, `simulate`,
/// `serialize` and router-side `forward`, `retry`, `failover` — but
/// readers treat them as opaque strings so the vocabulary can grow without
/// another schema bump.
#[derive(Debug, Clone, PartialEq)]
pub struct StageSpan {
    /// Stage name (e.g. `"queue_wait"`).
    pub stage: String,
    /// Wall time spent in the stage, milliseconds.
    pub ms: f64,
}

/// Why the tail sampler kept a request record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleReason {
    /// Head-sampled: the deterministic per-trace coin came up heads.
    Head,
    /// Always kept: the request errored.
    Error,
    /// Always kept: among the slowest requests seen (the p99 tail).
    Slow,
}

impl SampleReason {
    /// Wire name of the reason.
    pub fn as_str(self) -> &'static str {
        match self {
            SampleReason::Head => "head",
            SampleReason::Error => "error",
            SampleReason::Slow => "slow",
        }
    }

    /// Parse a wire name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "head" => Some(SampleReason::Head),
            "error" => Some(SampleReason::Error),
            "slow" => Some(SampleReason::Slow),
            _ => None,
        }
    }
}

/// One traced request through the serving tier — the `unet-trace/4` record
/// `{"type":"request","trace_id":...,"kind":...,"ok":...,"e2e_ms":...,
/// "sampled":...,"stages":[["queue_wait",1.5],...]}`. The schema addition
/// is backwards-compatible: readers of older traces see no `request`
/// lines at all.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestRecord {
    /// The request's end-to-end trace id, 16 lowercase hex digits,
    /// identical on every tier the request crossed.
    pub trace_id: String,
    /// Request kind as seen by the recording tier, e.g. `"simulate"`,
    /// `"metrics"`, or the router's `"forward"`.
    pub kind: String,
    /// Did the request produce a `result` response?
    pub ok: bool,
    /// End-to-end latency measured by the recording tier, milliseconds.
    pub e2e_ms: f64,
    /// Why the tail sampler kept this record.
    pub sampled: SampleReason,
    /// Stage spans in chronological order.
    pub stages: Vec<StageSpan>,
}

impl RequestRecord {
    /// Duration of the named stage, if recorded.
    pub fn stage_ms(&self, stage: &str) -> Option<f64> {
        self.stages.iter().find(|s| s.stage == stage).map(|s| s.ms)
    }

    /// Sum of all stage durations — the span-accounting numerator E22
    /// checks against `e2e_ms`.
    pub fn stage_total_ms(&self) -> f64 {
        self.stages.iter().map(|s| s.ms).sum()
    }
}

/// Serialize a recorded run to JSONL: [`write_full`] with no fault or
/// request records, into a `String`. Panics (debug) if spans are still
/// open — finish every phase before exporting.
pub fn export(rec: &InMemoryRecorder, meta: &RunMeta, summary: Option<&RunSummary>) -> String {
    let mut out = Vec::new();
    write_full(&mut out, rec, meta, &[], std::iter::empty::<RequestRecord>(), summary)
        .expect("writing to a Vec");
    String::from_utf8(out).expect("JSON text is UTF-8")
}

/// Stream a recorded run to `out` one line at a time: the span events and
/// aggregates, then the fault timeline, then the request records, taken
/// from any iterator (the serving tier's drain path renders its compact
/// tail-sampled records this way, one at a time), then the summary. Empty
/// `faults` and `requests` write exactly the [`export`] bytes. Returns the
/// number of lines written.
pub fn write_full<W, I>(
    out: &mut W,
    rec: &InMemoryRecorder,
    meta: &RunMeta,
    faults: &[FaultRecord],
    requests: I,
    summary: Option<&RunSummary>,
) -> std::io::Result<u64>
where
    W: std::io::Write + ?Sized,
    I: IntoIterator,
    I::Item: std::borrow::Borrow<RequestRecord>,
{
    use std::borrow::Borrow;
    debug_assert!(rec.open_spans().is_empty(), "exporting with open spans: {:?}", rec.open_spans());
    let mut lines = 0u64;
    let mut line = |v: Value| {
        lines += 1;
        writeln!(out, "{}", v.to_json())
    };
    line(meta_value(meta))?;
    for ev in rec.events() {
        let (op, name, ns) = match *ev {
            SpanEvent::Start { name, ns } => ("start", name, ns),
            SpanEvent::End { name, ns } => ("end", name, ns),
        };
        line(Value::Obj(vec![
            ("type".into(), Value::Str("span".into())),
            ("op".into(), Value::Str(op.into())),
            ("name".into(), Value::Str(name.into())),
            ("ns".into(), Value::UInt(ns)),
        ]))?;
    }
    for (name, v) in rec.counters() {
        line(Value::Obj(vec![
            ("type".into(), Value::Str("counter".into())),
            ("name".into(), Value::Str(name.into())),
            ("value".into(), Value::UInt(v)),
        ]))?;
    }
    for (name, v) in rec.gauges() {
        line(Value::Obj(vec![
            ("type".into(), Value::Str("gauge".into())),
            ("name".into(), Value::Str(name.into())),
            ("value".into(), Value::Float(v)),
        ]))?;
    }
    for (name, h) in rec.histograms() {
        line(hist_value(name, h))?;
    }
    for (name, series) in rec.samples() {
        for (&(step, key), &value) in series {
            line(Value::Obj(vec![
                ("type".into(), Value::Str("sample".into())),
                ("name".into(), Value::Str(name.into())),
                ("step".into(), Value::UInt(step)),
                ("key".into(), Value::UInt(key)),
                ("value".into(), Value::UInt(value)),
            ]))?;
        }
    }
    for f in faults {
        line(Value::Obj(vec![
            ("type".into(), Value::Str("fault".into())),
            ("op".into(), Value::Str(f.op.as_str().into())),
            ("at".into(), Value::UInt(f.at)),
            ("kind".into(), Value::Str(f.kind.clone())),
            ("subject".into(), Value::Str(f.subject.clone())),
        ]))?;
    }
    for r in requests {
        line(request_value(r.borrow()))?;
    }
    if let Some(s) = summary {
        line(summary_value(s))?;
    }
    Ok(lines)
}

fn meta_value(meta: &RunMeta) -> Value {
    Value::Obj(vec![
        ("type".into(), Value::Str("meta".into())),
        ("schema".into(), Value::Str(SCHEMA.into())),
        ("command".into(), Value::Str(meta.command.clone())),
        ("guest".into(), Value::Str(meta.guest.clone())),
        ("host".into(), Value::Str(meta.host.clone())),
        ("n".into(), Value::UInt(meta.n)),
        ("m".into(), Value::UInt(meta.m)),
        ("guest_steps".into(), Value::UInt(meta.guest_steps)),
    ])
}

fn hist_value(name: &str, h: &Histogram) -> Value {
    let buckets: Vec<Value> = h
        .buckets
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(i, &c)| Value::Arr(vec![Value::UInt(i as u64), Value::UInt(c)]))
        .collect();
    // `sum` is u128 internally; saturate to u64 for the wire (a real run
    // cannot reach it: 2⁶⁴ ns ≈ 585 years of samples).
    let sum = u64::try_from(h.sum).unwrap_or(u64::MAX);
    Value::Obj(vec![
        ("type".into(), Value::Str("hist".into())),
        ("name".into(), Value::Str(name.into())),
        ("count".into(), Value::UInt(h.count)),
        ("sum".into(), Value::UInt(sum)),
        ("min".into(), Value::UInt(if h.count == 0 { 0 } else { h.min })),
        ("max".into(), Value::UInt(h.max)),
        ("buckets".into(), Value::Arr(buckets)),
    ])
}

fn request_value(r: &RequestRecord) -> Value {
    let stages: Vec<Value> = r
        .stages
        .iter()
        .map(|s| Value::Arr(vec![Value::Str(s.stage.clone()), Value::Float(s.ms)]))
        .collect();
    Value::Obj(vec![
        ("type".into(), Value::Str("request".into())),
        ("trace_id".into(), Value::Str(r.trace_id.clone())),
        ("kind".into(), Value::Str(r.kind.clone())),
        ("ok".into(), Value::Bool(r.ok)),
        ("e2e_ms".into(), Value::Float(r.e2e_ms)),
        ("sampled".into(), Value::Str(r.sampled.as_str().into())),
        ("stages".into(), Value::Arr(stages)),
    ])
}

fn summary_value(s: &RunSummary) -> Value {
    Value::Obj(vec![
        ("type".into(), Value::Str("summary".into())),
        ("host_steps".into(), Value::UInt(s.host_steps)),
        ("comm_steps".into(), Value::UInt(s.comm_steps)),
        ("compute_steps".into(), Value::UInt(s.compute_steps)),
        ("slowdown".into(), Value::Float(s.slowdown)),
        ("inefficiency".into(), Value::Float(s.inefficiency)),
        ("wall_ms".into(), Value::Float(s.wall_ms)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{analyze_str, Analysis, TraceAnalyzer};
    use crate::recorder::Recorder;

    fn sample_meta() -> RunMeta {
        RunMeta {
            command: "simulate".into(),
            guest: "ring:12".into(),
            host: "torus:2x2".into(),
            n: 12,
            m: 4,
            guest_steps: 3,
        }
    }

    fn sample_recorder() -> InMemoryRecorder {
        let mut rec = InMemoryRecorder::new();
        rec.span_start("sim.step");
        rec.span_start("sim.comm");
        rec.histogram("route.hops", 0);
        rec.histogram("route.hops", 3);
        rec.histogram("route.hops", u64::MAX);
        rec.counter("route.transfers", 17);
        rec.span_end("sim.comm");
        rec.span_start("sim.compute");
        rec.gauge("sim.load", 3.0);
        rec.span_end("sim.compute");
        rec.span_end("sim.step");
        rec
    }

    /// [`write_full`] into a `String`.
    fn write_string(
        rec: &InMemoryRecorder,
        faults: &[FaultRecord],
        requests: &[RequestRecord],
    ) -> String {
        let mut out = Vec::new();
        let lines = write_full(&mut out, rec, &sample_meta(), faults, requests, None).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(lines, text.lines().count() as u64);
        text
    }

    /// Read `text` back through the trace reader, keeping the request
    /// records [`TraceAnalyzer::feed_line`] hands back.
    fn read_back(text: &str) -> (Analysis, Vec<RequestRecord>) {
        let mut a = TraceAnalyzer::new();
        let mut requests = Vec::new();
        for (i, line) in text.lines().enumerate() {
            requests.extend(a.feed_line(line, i + 1).expect("line validates"));
        }
        (a.finish().expect("trace validates"), requests)
    }

    #[test]
    fn export_parse_round_trip() {
        let rec = sample_recorder();
        let summary = RunSummary {
            host_steps: 61,
            comm_steps: 40,
            compute_steps: 21,
            slowdown: 20.33,
            inefficiency: 6.78,
            wall_ms: 1.25,
        };
        let text = export(&rec, &sample_meta(), Some(&summary));
        // Every line parses as standalone JSON.
        for line in text.lines() {
            crate::json::parse(line).expect("line parses");
        }
        let a = analyze_str(&text).expect("trace validates");
        assert_eq!(a.meta, sample_meta());
        assert_eq!(a.summary, Some(summary));
        assert_eq!(a.counter("route.transfers"), Some(17));
        assert_eq!(a.gauges["sim.load"], 3.0);
        let h = &a.histograms["route.hops"];
        assert_eq!(h.count, 3);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, u64::MAX);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[2], 1);
        assert_eq!(h.buckets[64], 1);
        // meta + 6 span events + counter + gauge + hist + summary.
        assert_eq!(a.lines, 11);
        // Totals replay: sim.step once, children once each.
        let names: Vec<&str> = a.span_totals.keys().map(String::as_str).collect();
        assert_eq!(names, ["sim.comm", "sim.compute", "sim.step"]);
        assert!(a.span_totals.values().all(|&(_, count)| count == 1));
    }

    #[test]
    fn histograms_survive_round_trip_exactly() {
        let mut rec = InMemoryRecorder::new();
        for v in [0u64, 1, 1, 7, 8, 1 << 40, u64::MAX] {
            rec.histogram("h", v);
        }
        let mut expected = rec.histogram_data("h").unwrap().clone();
        // The wire format carries `sum` as u64 (saturating); this sample set
        // deliberately overflows it to pin that behaviour down.
        expected.sum = expected.sum.min(u64::MAX as u128);
        let text = export(&rec, &sample_meta(), None);
        let a = analyze_str(&text).unwrap();
        assert_eq!(a.histograms.get("h"), Some(&expected));
    }

    #[test]
    fn fault_records_round_trip() {
        let rec = sample_recorder();
        let faults = vec![
            FaultRecord {
                at: 2,
                op: FaultOp::Inject,
                kind: "crash".into(),
                subject: "node:5".into(),
            },
            FaultRecord {
                at: 2,
                op: FaultOp::Remap,
                kind: "guest".into(),
                subject: "guest:12->host:4".into(),
            },
            FaultRecord {
                at: 4,
                op: FaultOp::Repair,
                kind: "flap".into(),
                subject: "link:3-7".into(),
            },
        ];
        let (a, _) = read_back(&write_string(&rec, &faults, &[]));
        assert_eq!(a.faults, faults);
        assert_eq!(a.fault_counts(), [("inject", 1), ("remap", 1), ("repair", 1)].into());
        // A trace with no faults and no requests is byte-identical to the
        // plain export (each schema addition is backwards-compatible).
        assert_eq!(export(&rec, &sample_meta(), None), write_string(&rec, &[], &[]));
    }

    #[test]
    fn samples_round_trip_and_legacy_schemas_accepted() {
        use crate::recorder::edge_key;
        let mut rec = sample_recorder();
        rec.sample("route.edge_util", 0, edge_key(3, 5), 1);
        rec.sample("route.edge_util", 0, edge_key(3, 5), 1);
        rec.sample("route.queue_depth", 1, 5, 4);
        let text = export(&rec, &sample_meta(), None);
        assert!(text.lines().next().unwrap().contains("unet-trace/4"));
        let a = analyze_str(&text).expect("v4 trace validates");
        let util = &a.series["route.edge_util"];
        assert_eq!(util.keys.len(), 1, "aggregated to one (step, key) cell");
        assert_eq!((util.max_cell, util.max_cell_at), (2, (0, edge_key(3, 5))));
        let depth = &a.series["route.queue_depth"];
        assert_eq!((depth.max_cell, depth.max_cell_at), (4, (1, 5)));
    }

    fn sample_requests() -> Vec<RequestRecord> {
        vec![
            RequestRecord {
                trace_id: "00000000c0ffee42".into(),
                kind: "simulate".into(),
                ok: true,
                e2e_ms: 12.5,
                sampled: SampleReason::Head,
                stages: vec![
                    StageSpan { stage: "accept".into(), ms: 0.25 },
                    StageSpan { stage: "queue_wait".into(), ms: 1.5 },
                    StageSpan { stage: "simulate".into(), ms: 10.0 },
                    StageSpan { stage: "serialize".into(), ms: 0.5 },
                ],
            },
            RequestRecord {
                trace_id: "deadbeefdeadbeef".into(),
                kind: "forward".into(),
                ok: false,
                e2e_ms: 3.0,
                sampled: SampleReason::Error,
                stages: vec![StageSpan { stage: "forward".into(), ms: 3.0 }],
            },
        ]
    }

    #[test]
    fn request_records_round_trip() {
        let rec = sample_recorder();
        let requests = sample_requests();
        let (a, read) = read_back(&write_string(&rec, &[], &requests));
        assert_eq!(read, requests);
        assert_eq!(a.requests.count, 2);
        let kept: Vec<_> = read.iter().filter(|r| r.trace_id == "00000000c0ffee42").collect();
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].stage_ms("queue_wait"), Some(1.5));
        assert!((kept[0].stage_total_ms() - 12.25).abs() < 1e-9);
    }
}
