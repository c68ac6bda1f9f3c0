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
//! bucketing of [`Histogram`]. [`parse_trace`] validates structure:
//! every line must parse, span events must balance under stack discipline,
//! and timestamps must be non-decreasing.
//!
//! Schema history: `unet-trace/1` was the original record set, `/2` added
//! `fault` records, `/3` added per-step `sample` records (edge
//! utilization and queue depth, keyed by [`crate::recorder::edge_key`] or
//! node id), and `/4` adds per-request `request` records (one traced
//! request's stage spans through the serving tier). [`parse_trace`] reads
//! only the current [`SCHEMA`], which writers always emit; a document
//! declaring any other schema, the older three included, gets a typed
//! `unsupported schema` error.

use crate::json::{parse, Value};
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
    /// `"batch"`, or the router's `"forward"`.
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

/// An owned span event from a parsed trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceSpan {
    /// Phase opened.
    Start {
        /// Phase name.
        name: String,
        /// Nanoseconds since trace epoch.
        ns: u64,
    },
    /// Phase closed.
    End {
        /// Phase name.
        name: String,
        /// Nanoseconds since trace epoch.
        ns: u64,
    },
}

/// A fully parsed and validated trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDoc {
    /// The `meta` record.
    pub meta: RunMeta,
    /// Chronological, balanced span events.
    pub spans: Vec<TraceSpan>,
    /// Counter totals, in file order.
    pub counters: Vec<(String, u64)>,
    /// Final gauge values, in file order.
    pub gauges: Vec<(String, f64)>,
    /// Histograms, in file order.
    pub histograms: Vec<(String, Histogram)>,
    /// Fault events, in file order.
    pub faults: Vec<FaultRecord>,
    /// Time-series sample points, in file order (empty for `/1`//`2`
    /// traces).
    pub samples: Vec<SampleRecord>,
    /// Sampled per-request stage records, in file order (empty for
    /// pre-`/4` traces).
    pub requests: Vec<RequestRecord>,
    /// The `summary` record, if present.
    pub summary: Option<RunSummary>,
}

impl TraceDoc {
    /// Counter total by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }

    /// Histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.iter().find(|(k, _)| k == name).map(|(_, h)| h)
    }

    /// All sample points of the named series, in file order.
    pub fn samples_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SampleRecord> {
        self.samples.iter().filter(move |s| s.name == name)
    }

    /// All request records carrying the given trace id, in file order.
    pub fn requests_for<'a>(
        &'a self,
        trace_id: &'a str,
    ) -> impl Iterator<Item = &'a RequestRecord> {
        self.requests.iter().filter(move |r| r.trace_id == trace_id)
    }

    /// `(name, total ns, completions)` per span name, by replaying the
    /// event stream (which [`parse_trace`] already validated as balanced).
    pub fn span_totals(&self) -> Vec<(String, u64, u64)> {
        let mut stack: Vec<(&str, u64)> = Vec::new();
        let mut totals: Vec<(String, u64, u64)> = Vec::new();
        for ev in &self.spans {
            match ev {
                TraceSpan::Start { name, ns } => stack.push((name, *ns)),
                TraceSpan::End { ns, .. } => {
                    let (name, started) = stack.pop().expect("validated balanced");
                    match totals.iter_mut().find(|(k, ..)| k == name) {
                        Some(t) => {
                            t.1 += ns - started;
                            t.2 += 1;
                        }
                        None => totals.push((name.to_string(), ns - started, 1)),
                    }
                }
            }
        }
        totals
    }
}

/// Serialize a recorded run to JSONL. Panics (debug) if spans are still
/// open — finish every phase before exporting.
pub fn export(rec: &InMemoryRecorder, meta: &RunMeta, summary: Option<&RunSummary>) -> String {
    export_with_faults(rec, meta, &[], summary)
}

/// [`export`] plus a fault timeline: one `fault` record per event, emitted
/// after the aggregate records and before the summary.
pub fn export_with_faults(
    rec: &InMemoryRecorder,
    meta: &RunMeta,
    faults: &[FaultRecord],
    summary: Option<&RunSummary>,
) -> String {
    export_full(rec, meta, faults, &[], summary)
}

/// [`export_with_faults`] plus the sampled per-request stage records,
/// emitted after the fault timeline and before the summary. An empty
/// `requests` slice keeps the output byte-identical to the plain exports
/// (the `/4` schema addition is strictly backwards-compatible).
pub fn export_full(
    rec: &InMemoryRecorder,
    meta: &RunMeta,
    faults: &[FaultRecord],
    requests: &[RequestRecord],
    summary: Option<&RunSummary>,
) -> String {
    let mut out = Vec::new();
    write_full(&mut out, rec, meta, faults, requests, summary).expect("writing to a Vec");
    String::from_utf8(out).expect("JSON text is UTF-8")
}

/// [`export_full`] streamed to `out` one line at a time, with the request
/// records taken from any iterator (the serving tier's drain path renders
/// its compact tail-sampled records this way, one at a time). Returns the
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

pub(crate) fn field_u64(v: &Value, key: &str, line: usize) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("line {line}: missing/invalid u64 field {key:?}"))
}

pub(crate) fn field_f64(v: &Value, key: &str, line: usize) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("line {line}: missing/invalid number field {key:?}"))
}

pub(crate) fn field_str(v: &Value, key: &str, line: usize) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("line {line}: missing/invalid string field {key:?}"))
}

/// Reject every schema but the current one.
pub(crate) fn check_schema(schema: &str) -> Result<(), String> {
    if schema != SCHEMA {
        return Err(format!("unsupported schema {schema:?} (expected {SCHEMA:?})"));
    }
    Ok(())
}

/// Parse a `meta` record into `(schema, RunMeta)`, validating the schema.
pub(crate) fn parse_meta(head: &Value, lno: usize) -> Result<(String, RunMeta), String> {
    let schema = field_str(head, "schema", lno)?;
    check_schema(&schema)?;
    let meta = RunMeta {
        command: field_str(head, "command", lno)?,
        guest: field_str(head, "guest", lno)?,
        host: field_str(head, "host", lno)?,
        n: field_u64(head, "n", lno)?,
        m: field_u64(head, "m", lno)?,
        guest_steps: field_u64(head, "guest_steps", lno)?,
    };
    Ok((schema, meta))
}

/// Parse a `hist` record into `(name, Histogram)`, validating bucket
/// totals against the count.
pub(crate) fn parse_hist(v: &Value, lno: usize) -> Result<(String, Histogram), String> {
    let name = field_str(v, "name", lno)?;
    let mut h = Histogram {
        count: field_u64(v, "count", lno)?,
        sum: field_u64(v, "sum", lno)? as u128,
        min: field_u64(v, "min", lno)?,
        max: field_u64(v, "max", lno)?,
        buckets: [0; 65],
    };
    if h.count == 0 {
        h.min = u64::MAX;
    }
    let buckets = v
        .get("buckets")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("line {lno}: missing buckets array"))?;
    let mut total = 0u64;
    for b in buckets {
        let pair = b
            .as_arr()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| format!("line {lno}: bucket entries must be [index, count] pairs"))?;
        let idx = pair[0]
            .as_u64()
            .filter(|&i| i < 65)
            .ok_or_else(|| format!("line {lno}: bucket index out of range"))?;
        let c = pair[1].as_u64().ok_or_else(|| format!("line {lno}: bad bucket count"))?;
        h.buckets[idx as usize] = c;
        total += c;
    }
    if total != h.count {
        return Err(format!(
            "line {lno}: histogram {name:?} bucket total {total} != count {}",
            h.count
        ));
    }
    Ok((name, h))
}

/// Parse a `sample` record.
pub(crate) fn parse_sample(v: &Value, lno: usize) -> Result<SampleRecord, String> {
    Ok(SampleRecord {
        name: field_str(v, "name", lno)?,
        step: field_u64(v, "step", lno)?,
        key: field_u64(v, "key", lno)?,
        value: field_u64(v, "value", lno)?,
    })
}

/// Parse a `request` record, validating the sample reason and the
/// `[stage, ms]` pair structure.
pub(crate) fn parse_request(v: &Value, lno: usize) -> Result<RequestRecord, String> {
    let reason_name = field_str(v, "sampled", lno)?;
    let sampled = SampleReason::parse(&reason_name)
        .ok_or_else(|| format!("line {lno}: bad sample reason {reason_name:?}"))?;
    let ok = v
        .get("ok")
        .and_then(Value::as_bool)
        .ok_or_else(|| format!("line {lno}: missing/invalid bool field \"ok\""))?;
    let stage_arr = v
        .get("stages")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("line {lno}: missing stages array"))?;
    let mut stages = Vec::with_capacity(stage_arr.len());
    for s in stage_arr {
        let pair = s
            .as_arr()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| format!("line {lno}: stage entries must be [name, ms] pairs"))?;
        let stage =
            pair[0].as_str().ok_or_else(|| format!("line {lno}: bad stage name"))?.to_string();
        let ms = pair[1].as_f64().ok_or_else(|| format!("line {lno}: bad stage duration"))?;
        stages.push(StageSpan { stage, ms });
    }
    Ok(RequestRecord {
        trace_id: field_str(v, "trace_id", lno)?,
        kind: field_str(v, "kind", lno)?,
        ok,
        e2e_ms: field_f64(v, "e2e_ms", lno)?,
        sampled,
        stages,
    })
}

/// Parse and validate a JSONL trace: every line must be valid JSON of a
/// known record type, the first line must be a `meta` record with the
/// expected schema, span events must balance (stack discipline with
/// matching names) and be chronological.
pub fn parse_trace(text: &str) -> Result<TraceDoc, String> {
    let mut lines = text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty());
    let (lno, first) = lines.next().ok_or("empty trace")?;
    let head = parse(first).map_err(|e| format!("line {}: {e}", lno + 1))?;
    if head.get("type").and_then(Value::as_str) != Some("meta") {
        return Err("first line must be the meta record".into());
    }
    let (_, meta) = parse_meta(&head, lno + 1)?;

    let mut doc = TraceDoc {
        meta,
        spans: Vec::new(),
        counters: Vec::new(),
        gauges: Vec::new(),
        histograms: Vec::new(),
        faults: Vec::new(),
        samples: Vec::new(),
        requests: Vec::new(),
        summary: None,
    };
    let mut stack: Vec<String> = Vec::new();
    let mut last_ns = 0u64;

    for (i, line) in lines {
        let lno = i + 1;
        let v = parse(line).map_err(|e| format!("line {lno}: {e}"))?;
        match v.get("type").and_then(Value::as_str) {
            Some("span") => {
                let name = field_str(&v, "name", lno)?;
                let ns = field_u64(&v, "ns", lno)?;
                if ns < last_ns {
                    return Err(format!("line {lno}: span time goes backwards ({ns} < {last_ns})"));
                }
                last_ns = ns;
                match v.get("op").and_then(Value::as_str) {
                    Some("start") => {
                        stack.push(name.clone());
                        doc.spans.push(TraceSpan::Start { name, ns });
                    }
                    Some("end") => match stack.pop() {
                        Some(open) if open == name => doc.spans.push(TraceSpan::End { name, ns }),
                        Some(open) => {
                            return Err(format!(
                                "line {lno}: span end {name:?} does not close innermost open span {open:?}"
                            ))
                        }
                        None => return Err(format!("line {lno}: span end {name:?} with no open span")),
                    },
                    other => return Err(format!("line {lno}: bad span op {other:?}")),
                }
            }
            Some("counter") => {
                doc.counters.push((field_str(&v, "name", lno)?, field_u64(&v, "value", lno)?));
            }
            Some("gauge") => {
                doc.gauges.push((field_str(&v, "name", lno)?, field_f64(&v, "value", lno)?));
            }
            Some("hist") => doc.histograms.push(parse_hist(&v, lno)?),
            Some("sample") => doc.samples.push(parse_sample(&v, lno)?),
            Some("request") => doc.requests.push(parse_request(&v, lno)?),
            Some("fault") => {
                let op_name = field_str(&v, "op", lno)?;
                let op = FaultOp::parse(&op_name)
                    .ok_or_else(|| format!("line {lno}: bad fault op {op_name:?}"))?;
                doc.faults.push(FaultRecord {
                    at: field_u64(&v, "at", lno)?,
                    op,
                    kind: field_str(&v, "kind", lno)?,
                    subject: field_str(&v, "subject", lno)?,
                });
            }
            Some("summary") => {
                doc.summary = Some(RunSummary {
                    host_steps: field_u64(&v, "host_steps", lno)?,
                    comm_steps: field_u64(&v, "comm_steps", lno)?,
                    compute_steps: field_u64(&v, "compute_steps", lno)?,
                    slowdown: field_f64(&v, "slowdown", lno)?,
                    inefficiency: field_f64(&v, "inefficiency", lno)?,
                    wall_ms: field_f64(&v, "wall_ms", lno)?,
                });
            }
            Some("meta") => return Err(format!("line {lno}: duplicate meta record")),
            other => return Err(format!("line {lno}: unknown record type {other:?}")),
        }
    }
    if !stack.is_empty() {
        return Err(format!("unbalanced trace: spans still open at EOF: {stack:?}"));
    }
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let doc = parse_trace(&text).expect("trace validates");
        assert_eq!(doc.meta, sample_meta());
        assert_eq!(doc.summary, Some(summary));
        assert_eq!(doc.counter("route.transfers"), Some(17));
        let h = doc.histogram("route.hops").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, u64::MAX);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[2], 1);
        assert_eq!(h.buckets[64], 1);
        assert_eq!(doc.spans.len(), 6);
        // Totals replay: sim.step once, children once each.
        let totals = doc.span_totals();
        assert_eq!(totals.iter().filter(|(n, ..)| n == "sim.step").count(), 1);
        assert!(totals.iter().all(|&(_, _, count)| count == 1));
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
        let doc = parse_trace(&text).unwrap();
        assert_eq!(doc.histogram("h"), Some(&expected));
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
        let text = export_with_faults(&rec, &sample_meta(), &faults, None);
        let doc = parse_trace(&text).expect("trace with faults validates");
        assert_eq!(doc.faults, faults);
        // Fault-free export stays byte-identical to the plain one (schema
        // addition is strictly backwards-compatible).
        assert_eq!(
            export(&rec, &sample_meta(), None),
            export_with_faults(&rec, &sample_meta(), &[], None)
        );
        // Bad ops are rejected.
        let meta_line = text.lines().next().unwrap();
        let bad = format!(
            "{meta_line}\n{{\"type\":\"fault\",\"op\":\"explode\",\"at\":1,\"kind\":\"crash\",\"subject\":\"node:1\"}}\n"
        );
        assert!(parse_trace(&bad).unwrap_err().contains("bad fault op"));
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
        let doc = parse_trace(&text).expect("v4 trace validates");
        let util: Vec<_> = doc.samples_named("route.edge_util").collect();
        assert_eq!(util.len(), 1, "aggregated to one (step, key) cell");
        assert_eq!((util[0].step, util[0].key, util[0].value), (0, edge_key(3, 5), 2));
        let depth: Vec<_> = doc.samples_named("route.queue_depth").collect();
        assert_eq!((depth[0].step, depth[0].key, depth[0].value), (1, 5, 4));
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
        let text = export_full(&rec, &sample_meta(), &[], &requests, None);
        let doc = parse_trace(&text).expect("trace with request records validates");
        assert_eq!(doc.requests, requests);
        let kept: Vec<_> = doc.requests_for("00000000c0ffee42").collect();
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].stage_ms("queue_wait"), Some(1.5));
        assert!((kept[0].stage_total_ms() - 12.25).abs() < 1e-9);
        // Request-free export stays byte-identical to the older writers
        // (schema addition is strictly backwards-compatible).
        assert_eq!(
            export(&rec, &sample_meta(), None),
            export_full(&rec, &sample_meta(), &[], &[], None)
        );
        // Bad reasons and malformed stage pairs are rejected.
        let meta_line = text.lines().next().unwrap();
        let bad_reason = format!(
            "{meta_line}\n{{\"type\":\"request\",\"trace_id\":\"ab\",\"kind\":\"simulate\",\"ok\":true,\"e2e_ms\":1.0,\"sampled\":\"vibes\",\"stages\":[]}}\n"
        );
        assert!(parse_trace(&bad_reason).unwrap_err().contains("bad sample reason"));
        let bad_stage = format!(
            "{meta_line}\n{{\"type\":\"request\",\"trace_id\":\"ab\",\"kind\":\"simulate\",\"ok\":true,\"e2e_ms\":1.0,\"sampled\":\"head\",\"stages\":[[\"queue_wait\"]]}}\n"
        );
        assert!(parse_trace(&bad_stage).unwrap_err().contains("[name, ms] pairs"));
    }

    #[test]
    fn unbalanced_traces_rejected() {
        let meta = format!(
            "{{\"type\":\"meta\",\"schema\":\"{SCHEMA}\",\"command\":\"c\",\"guest\":\"g\",\"host\":\"h\",\"n\":1,\"m\":1,\"guest_steps\":1}}"
        );
        let start = "{\"type\":\"span\",\"op\":\"start\",\"name\":\"a\",\"ns\":1}";
        let end_b = "{\"type\":\"span\",\"op\":\"end\",\"name\":\"b\",\"ns\":2}";
        let end_a = "{\"type\":\"span\",\"op\":\"end\",\"name\":\"a\",\"ns\":2}";
        // Still open at EOF.
        assert!(parse_trace(&format!("{meta}\n{start}\n")).unwrap_err().contains("still open"));
        // Wrong name closes.
        assert!(parse_trace(&format!("{meta}\n{start}\n{end_b}\n"))
            .unwrap_err()
            .contains("does not close"));
        // End without start.
        assert!(parse_trace(&format!("{meta}\n{end_a}\n")).unwrap_err().contains("no open span"));
        // Time going backwards.
        let late = "{\"type\":\"span\",\"op\":\"start\",\"name\":\"a\",\"ns\":9}";
        let early = "{\"type\":\"span\",\"op\":\"end\",\"name\":\"a\",\"ns\":3}";
        assert!(parse_trace(&format!("{meta}\n{late}\n{early}\n"))
            .unwrap_err()
            .contains("backwards"));
    }

    #[test]
    fn malformed_lines_rejected() {
        let meta = format!(
            "{{\"type\":\"meta\",\"schema\":\"{SCHEMA}\",\"command\":\"c\",\"guest\":\"g\",\"host\":\"h\",\"n\":1,\"m\":1,\"guest_steps\":1}}"
        );
        assert!(parse_trace("").is_err());
        assert!(parse_trace("not json\n").is_err());
        assert!(parse_trace(&format!("{meta}\n{{\"type\":\"mystery\"}}\n")).is_err());
        assert!(parse_trace(&format!("{meta}\n{meta}\n")).unwrap_err().contains("duplicate meta"));
        // Histogram whose buckets disagree with its count.
        let bad_hist = "{\"type\":\"hist\",\"name\":\"h\",\"count\":5,\"sum\":5,\"min\":1,\"max\":1,\"buckets\":[[1,2]]}";
        assert!(parse_trace(&format!("{meta}\n{bad_hist}\n"))
            .unwrap_err()
            .contains("bucket total"));
        // Wrong schema: an unknown one, and a retired one.
        for schema in ["unet-trace/9", "unet-trace/3"] {
            let bad_meta = meta.replace(SCHEMA, schema);
            assert!(parse_trace(&format!("{bad_meta}\n"))
                .unwrap_err()
                .contains("unsupported schema"));
        }
    }
}
