//! The one reader of JSONL traces: bounded-memory streaming analysis,
//! the engine behind `unet report` / `unet analyze`, `unet metrics FILE`,
//! `unet trace-requests` and the server's `analyze` request.
//!
//! [`TraceAnalyzer`] consumes a trace one line at a time ([`TraceAnalyzer::feed_line`])
//! and keeps only aggregates, never the event stream itself: memory is
//! `O(distinct steps + distinct keys + span nesting depth + fault events)`,
//! independent of the number of span, sample and request lines fed. Each
//! `request` record is aggregated and handed back to the caller, not kept:
//! a caller that wants the records (`unet trace-requests`) holds them
//! itself. That is what lets `unet report` stream a multi-million-event
//! trace from disk without materializing it (the property is pinned down
//! by the `million_line_trace_streams_bounded` test below).
//!
//! The products, collected in [`Analysis`] and printed by [`render`]:
//!
//! * **Congestion time series** — per sample series (`route.edge_util`,
//!   `route.queue_depth`, `sim.edge_util`) and per step: max cell value,
//!   total value, and number of active cells. "Which edges were hot at
//!   step t" becomes a table lookup.
//! * **Top-k hot keys** — edges or nodes ranked by total traffic, with
//!   their peak single-step value. Deterministic: ties break on key id.
//! * **Queue-depth percentiles** — p50/p90/p99 reconstructed from the
//!   log₂ buckets of the `route.queue_occupancy` histogram via
//!   [`Histogram::percentile`].
//! * **Critical path** — from span parent/child timing: the chain of
//!   nested spans (longest child at every level) under the longest
//!   top-level span, i.e. which phase and which route legs bound the
//!   makespan.
//! * **Phase totals, request stages and the fault timeline**, next to the
//!   counters, gauges and histograms as recorded.
//!
//! Malformed input is a hard error with a line number — the analyzer
//! never skips lines silently, per the CLI contract that `unet analyze`
//! and `unet report` exit nonzero on truncated traces.

use std::collections::BTreeMap;

use crate::json::{parse, Value};
use crate::recorder::{unpack_edge_key, Histogram};
use crate::report::{hist_chart, hist_line};
use crate::trace::{
    FaultOp, FaultRecord, RequestRecord, RunMeta, RunSummary, SampleReason, SampleRecord,
    StageSpan, SCHEMA,
};

/// Per-step aggregate of one sample series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StepAgg {
    /// Largest single cell value at this step (peak congestion).
    pub max: u64,
    /// Sum over all cells at this step (total traffic).
    pub total: u64,
    /// Number of distinct cells sampled at this step (active edges/nodes).
    pub cells: u64,
}

/// Per-key (edge or node) aggregate of one sample series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KeyAgg {
    /// Sum over all steps (total traffic through this key).
    pub total: u64,
    /// Largest single-step value (peak load on this key).
    pub peak: u64,
}

/// All aggregates of one named sample series.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SeriesSummary {
    /// Per-step congestion aggregates, keyed by step.
    pub steps: BTreeMap<u64, StepAgg>,
    /// Per-key aggregates, keyed by packed edge / node id.
    pub keys: BTreeMap<u64, KeyAgg>,
    /// Largest single `(step, key)` cell seen anywhere in the series.
    pub max_cell: u64,
    /// Where [`SeriesSummary::max_cell`] occurred.
    pub max_cell_at: (u64, u64),
}

impl SeriesSummary {
    fn add(&mut self, s: &SampleRecord) {
        let st = self.steps.entry(s.step).or_default();
        st.max = st.max.max(s.value);
        st.total += s.value;
        st.cells += 1;
        let k = self.keys.entry(s.key).or_default();
        k.total += s.value;
        k.peak = k.peak.max(s.value);
        if s.value > self.max_cell {
            self.max_cell = s.value;
            self.max_cell_at = (s.step, s.key);
        }
    }

    /// The `k` keys with the largest totals, ties broken by smaller key id
    /// (deterministic for a fixed trace).
    pub fn top_keys(&self, k: usize) -> Vec<(u64, KeyAgg)> {
        let mut v: Vec<(u64, KeyAgg)> = self.keys.iter().map(|(&k, &a)| (k, a)).collect();
        v.sort_by(|a, b| b.1.total.cmp(&a.1.total).then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    /// Peak congestion over the whole series: `max_cell`.
    pub fn peak(&self) -> u64 {
        self.max_cell
    }
}

/// Bounded aggregate over the trace's sampled `request` records: where
/// traced requests spent their time, by stage — never the records
/// themselves, so a million-request trace costs `O(distinct stages)`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RequestAgg {
    /// Sampled request records seen.
    pub count: u64,
    /// Of those, how many errored (`ok == false`).
    pub errors: u64,
    /// Sum of end-to-end latencies, milliseconds.
    pub e2e_ms_total: f64,
    /// Slowest sampled request, milliseconds.
    pub e2e_ms_max: f64,
    /// `(total ms, occurrences)` per stage name.
    pub stage_totals: BTreeMap<String, (f64, u64)>,
    /// Kept records per sample reason (`head` / `error` / `slow`).
    pub by_reason: BTreeMap<&'static str, u64>,
}

impl RequestAgg {
    fn add(&mut self, r: &RequestRecord) {
        self.count += 1;
        if !r.ok {
            self.errors += 1;
        }
        self.e2e_ms_total += r.e2e_ms;
        self.e2e_ms_max = self.e2e_ms_max.max(r.e2e_ms);
        for s in &r.stages {
            let t = self.stage_totals.entry(s.stage.clone()).or_insert((0.0, 0));
            t.0 += s.ms;
            t.1 += 1;
        }
        *self.by_reason.entry(r.sampled.as_str()).or_insert(0) += 1;
    }

    /// Stages ranked by total time, ties broken by name (deterministic).
    pub fn stages_ranked(&self) -> Vec<(&str, f64, u64)> {
        let mut v: Vec<(&str, f64, u64)> =
            self.stage_totals.iter().map(|(k, &(ms, n))| (k.as_str(), ms, n)).collect();
        v.sort_by(|a, b| {
            b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(b.0))
        });
        v
    }
}

/// One segment of the extracted critical path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathSegment {
    /// Span name.
    pub name: String,
    /// Duration of this span occurrence in nanoseconds.
    pub ns: u64,
    /// Nesting depth (0 = top level).
    pub depth: usize,
}

/// The finished product of a streaming pass over one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    /// Schema the trace declared (always the current [`SCHEMA`]).
    pub schema: String,
    /// The trace's `meta` record.
    pub meta: RunMeta,
    /// The trace's `summary` record, if present.
    pub summary: Option<RunSummary>,
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Final gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
    /// Sample series aggregates by name (empty when the trace has no
    /// `sample` records).
    pub series: BTreeMap<String, SeriesSummary>,
    /// `(total ns, completions)` per span name.
    pub span_totals: BTreeMap<String, (u64, u64)>,
    /// Fault events, in file order.
    pub faults: Vec<FaultRecord>,
    /// Per-stage aggregate over sampled request records (empty when the
    /// trace has none).
    pub requests: RequestAgg,
    /// Critical path: the longest top-level span and, at every level, its
    /// longest direct child. Empty when the trace has no spans.
    pub critical_path: Vec<PathSegment>,
    /// Number of non-empty lines consumed.
    pub lines: u64,
}

impl Analysis {
    /// Queue-depth percentiles `(p50, p90, p99)` reconstructed from the
    /// `route.queue_occupancy` log₂ buckets; `None` if never recorded.
    pub fn queue_percentiles(&self) -> Option<(u64, u64, u64)> {
        let h = self.histograms.get("route.queue_occupancy")?;
        Some((h.percentile(0.5)?, h.percentile(0.9)?, h.percentile(0.99)?))
    }

    /// A counter total by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Fault events per op name (`inject` / `repair` / `remap`).
    pub fn fault_counts(&self) -> BTreeMap<&'static str, u64> {
        let mut counts = BTreeMap::new();
        for f in &self.faults {
            *counts.entry(f.op.as_str()).or_insert(0) += 1;
        }
        counts
    }
}

/// A span currently open during the streaming pass (critical-path state).
struct Frame {
    name: String,
    start_ns: u64,
    /// Longest direct child seen so far: its duration and its own chain
    /// (child first, then grandchild, ...).
    best_child_ns: u64,
    best_child_chain: Vec<(String, u64)>,
}

/// Streaming, bounded-memory trace analyzer. Feed lines in file order
/// with [`TraceAnalyzer::feed_line`], then call [`TraceAnalyzer::finish`].
#[derive(Default)]
pub struct TraceAnalyzer {
    schema: Option<String>,
    meta: Option<RunMeta>,
    summary: Option<RunSummary>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    series: BTreeMap<String, SeriesSummary>,
    span_totals: BTreeMap<String, (u64, u64)>,
    faults: Vec<FaultRecord>,
    requests: RequestAgg,
    stack: Vec<Frame>,
    last_ns: u64,
    /// Longest completed top-level span: duration + chain.
    best_top_ns: u64,
    best_top_chain: Vec<(String, u64)>,
    lines: u64,
}

impl TraceAnalyzer {
    /// Fresh analyzer awaiting the `meta` line.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consume one trace line. `lno` is the 1-based line number used in
    /// error messages. Blank lines are ignored; anything else that fails
    /// to parse or validate is a hard error. A `request` line's parsed
    /// record is handed back (after it is aggregated), never kept.
    pub fn feed_line(&mut self, line: &str, lno: usize) -> Result<Option<RequestRecord>, String> {
        if line.trim().is_empty() {
            return Ok(None);
        }
        self.lines += 1;
        let v = parse(line).map_err(|e| format!("line {lno}: {e}"))?;
        let ty = v.get("type").and_then(Value::as_str);
        if self.meta.is_none() {
            if ty != Some("meta") {
                return Err(format!("line {lno}: first line must be the meta record"));
            }
            let schema = field_str(&v, "schema", lno)?;
            if schema != SCHEMA {
                return Err(format!("unsupported schema {schema:?} (expected {SCHEMA:?})"));
            }
            self.schema = Some(schema);
            self.meta = Some(RunMeta {
                command: field_str(&v, "command", lno)?,
                guest: field_str(&v, "guest", lno)?,
                host: field_str(&v, "host", lno)?,
                n: field_u64(&v, "n", lno)?,
                m: field_u64(&v, "m", lno)?,
                guest_steps: field_u64(&v, "guest_steps", lno)?,
            });
            return Ok(None);
        }
        match ty {
            Some("meta") => return Err(format!("line {lno}: duplicate meta record")),
            Some("span") => self.feed_span(&v, lno)?,
            Some("counter") => {
                let name = field_str(&v, "name", lno)?;
                *self.counters.entry(name).or_insert(0) += field_u64(&v, "value", lno)?;
            }
            Some("gauge") => {
                self.gauges.insert(field_str(&v, "name", lno)?, field_f64(&v, "value", lno)?);
            }
            Some("hist") => {
                let (name, h) = parse_hist(&v, lno)?;
                self.histograms.entry(name).or_default().merge(&h);
            }
            Some("sample") => {
                let s = SampleRecord {
                    name: field_str(&v, "name", lno)?,
                    step: field_u64(&v, "step", lno)?,
                    key: field_u64(&v, "key", lno)?,
                    value: field_u64(&v, "value", lno)?,
                };
                self.series.entry(s.name.clone()).or_default().add(&s);
            }
            Some("fault") => {
                let op_name = field_str(&v, "op", lno)?;
                let op = FaultOp::parse(&op_name)
                    .ok_or_else(|| format!("line {lno}: bad fault op {op_name:?}"))?;
                self.faults.push(FaultRecord {
                    at: field_u64(&v, "at", lno)?,
                    op,
                    kind: field_str(&v, "kind", lno)?,
                    subject: field_str(&v, "subject", lno)?,
                });
            }
            Some("request") => {
                let r = parse_request(&v, lno)?;
                self.requests.add(&r);
                return Ok(Some(r));
            }
            Some("summary") => {
                self.summary = Some(RunSummary {
                    host_steps: field_u64(&v, "host_steps", lno)?,
                    comm_steps: field_u64(&v, "comm_steps", lno)?,
                    compute_steps: field_u64(&v, "compute_steps", lno)?,
                    slowdown: field_f64(&v, "slowdown", lno)?,
                    inefficiency: field_f64(&v, "inefficiency", lno)?,
                    wall_ms: field_f64(&v, "wall_ms", lno)?,
                });
            }
            other => return Err(format!("line {lno}: unknown record type {other:?}")),
        }
        Ok(None)
    }

    fn feed_span(&mut self, v: &Value, lno: usize) -> Result<(), String> {
        let name = field_str(v, "name", lno)?;
        let ns = field_u64(v, "ns", lno)?;
        if ns < self.last_ns {
            return Err(format!("line {lno}: span time goes backwards ({ns} < {})", self.last_ns));
        }
        self.last_ns = ns;
        match v.get("op").and_then(Value::as_str) {
            Some("start") => {
                self.stack.push(Frame {
                    name,
                    start_ns: ns,
                    best_child_ns: 0,
                    best_child_chain: Vec::new(),
                });
                Ok(())
            }
            Some("end") => {
                let frame = match self.stack.pop() {
                    Some(f) if f.name == name => f,
                    Some(f) => {
                        return Err(format!(
                            "line {lno}: span end {name:?} does not close innermost open span {:?}",
                            f.name
                        ))
                    }
                    None => return Err(format!("line {lno}: span end {name:?} with no open span")),
                };
                let dur = ns - frame.start_ns;
                let t = self.span_totals.entry(frame.name.clone()).or_insert((0, 0));
                t.0 += dur;
                t.1 += 1;
                // This occurrence's chain: itself, then its longest child's
                // chain. Bounded by nesting depth, not event count.
                let mut chain = Vec::with_capacity(1 + frame.best_child_chain.len());
                chain.push((frame.name, dur));
                chain.extend(frame.best_child_chain);
                match self.stack.last_mut() {
                    Some(parent) => {
                        if dur > parent.best_child_ns {
                            parent.best_child_ns = dur;
                            parent.best_child_chain = chain;
                        }
                    }
                    None => {
                        if dur > self.best_top_ns || self.best_top_chain.is_empty() {
                            self.best_top_ns = dur;
                            self.best_top_chain = chain;
                        }
                    }
                }
                Ok(())
            }
            other => Err(format!("line {lno}: bad span op {other:?}")),
        }
    }

    /// Finish the pass: validates that a meta record was seen and every
    /// span was closed (a truncated trace fails here, not silently).
    pub fn finish(self) -> Result<Analysis, String> {
        let meta = self.meta.ok_or("empty trace")?;
        if !self.stack.is_empty() {
            let open: Vec<&str> = self.stack.iter().map(|f| f.name.as_str()).collect();
            return Err(format!("unbalanced trace: spans still open at EOF: {open:?}"));
        }
        let critical_path = self
            .best_top_chain
            .into_iter()
            .enumerate()
            .map(|(depth, (name, ns))| PathSegment { name, ns, depth })
            .collect();
        Ok(Analysis {
            schema: self.schema.unwrap_or_else(|| SCHEMA.to_string()),
            meta,
            summary: self.summary,
            counters: self.counters,
            gauges: self.gauges,
            histograms: self.histograms,
            series: self.series,
            span_totals: self.span_totals,
            faults: self.faults,
            requests: self.requests,
            critical_path,
            lines: self.lines,
        })
    }

    /// Current number of retained aggregate entries — the analyzer's
    /// memory footprint in cells. Used by the bounded-memory test; a
    /// streaming pass over `L` lines must keep this
    /// `O(steps + keys + fault events)`, never `O(L)`.
    pub fn retained_cells(&self) -> usize {
        self.counters.len()
            + self.faults.len()
            + self.gauges.len()
            + self.histograms.len()
            + self.span_totals.len()
            + self.stack.len()
            + self.requests.stage_totals.len()
            + self.requests.by_reason.len()
            + self.series.values().map(|s| s.steps.len() + s.keys.len()).sum::<usize>()
    }
}

/// Run the analyzer over a full in-memory trace, dropping its request
/// records (tests and E22; the CLI streams from disk instead).
pub fn analyze_str(text: &str) -> Result<Analysis, String> {
    let mut a = TraceAnalyzer::new();
    for (i, line) in text.lines().enumerate() {
        a.feed_line(line, i + 1)?;
    }
    a.finish()
}

fn field_u64(v: &Value, key: &str, line: usize) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("line {line}: missing/invalid u64 field {key:?}"))
}

fn field_f64(v: &Value, key: &str, line: usize) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("line {line}: missing/invalid number field {key:?}"))
}

fn field_str(v: &Value, key: &str, line: usize) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("line {line}: missing/invalid string field {key:?}"))
}

/// Parse a `hist` record into `(name, Histogram)`, validating bucket
/// totals against the count.
fn parse_hist(v: &Value, lno: usize) -> Result<(String, Histogram), String> {
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

/// Parse a `request` record, validating the sample reason and the
/// `[stage, ms]` pair structure.
fn parse_request(v: &Value, lno: usize) -> Result<RequestRecord, String> {
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

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Render a key of the given series for humans: `edge a->b` for
/// `*edge_util` series (packed edges), `node v` otherwise.
fn fmt_key(series: &str, key: u64) -> String {
    if series.ends_with("edge_util") {
        let (from, to) = unpack_edge_key(key);
        format!("edge {from}->{to}")
    } else {
        format!("node {key}")
    }
}

/// Render an [`Analysis`] for humans (`markdown = false`) or as a
/// GitHub-flavored markdown report (`markdown = true`): the output of
/// `unet report` and `unet analyze`. `top_k` bounds the hot-key tables.
/// Output is deterministic for a fixed trace.
pub fn render(a: &Analysis, top_k: usize, markdown: bool) -> String {
    let mut out = String::new();
    let h = |out: &mut String, text: &str| {
        if markdown {
            out.push_str(&format!("\n## {text}\n\n"));
        } else {
            out.push_str(&format!("\n=== {text} ===\n"));
        }
    };
    let m = &a.meta;
    if markdown {
        out.push_str(&format!(
            "# Trace analysis: {} on {}\n\nschema `{}` · command `{}` · n={} m={} T={} · {} lines\n",
            m.guest, m.host, a.schema, m.command, m.n, m.m, m.guest_steps, a.lines
        ));
    } else {
        out.push_str(&format!(
            "trace analysis: {} on {}  (schema {}, command {}, n={} m={} T={}, {} lines)\n",
            m.guest, m.host, a.schema, m.command, m.n, m.m, m.guest_steps, a.lines
        ));
    }
    if let Some(s) = &a.summary {
        h(&mut out, "Summary");
        out.push_str(&format!(
            "host_steps {} (comm {} + compute {})   slowdown {:.3}   inefficiency {:.3}   wall {:.3}ms\n",
            s.host_steps, s.comm_steps, s.compute_steps, s.slowdown, s.inefficiency, s.wall_ms
        ));
    }

    if !a.span_totals.is_empty() {
        h(&mut out, "Phases");
        // Nested spans double-count, so shares are of the largest total.
        let scale = a.span_totals.values().map(|&(ns, _)| ns).max().unwrap_or(1).max(1) as f64;
        if markdown {
            out.push_str("| phase | total | spans | share |\n|---|---:|---:|---:|\n");
        }
        for (name, &(ns, n)) in &a.span_totals {
            let pct = ns as f64 * 100.0 / scale;
            if markdown {
                out.push_str(&format!("| {name} | {} | {n} | {pct:.1}% |\n", fmt_ns(ns)));
            } else {
                out.push_str(&format!("  {name:<28} {:>10}  ×{n:<6} {pct:>5.1}%\n", fmt_ns(ns)));
            }
        }
    }

    if !a.critical_path.is_empty() {
        h(&mut out, "Critical path");
        let total = a.critical_path[0].ns;
        for seg in &a.critical_path {
            let pct = if total > 0 { 100.0 * seg.ns as f64 / total as f64 } else { 100.0 };
            out.push_str(&format!(
                "{}{} {} ({:.1}% of top span)\n",
                "  ".repeat(seg.depth),
                seg.name,
                fmt_ns(seg.ns),
                pct
            ));
        }
    }

    h(&mut out, "Congestion");
    if a.series.is_empty() {
        out.push_str("no sample series in this trace (no routing phases)\n");
    }
    for (name, s) in &a.series {
        out.push_str(&format!(
            "{name}: {} keys over {} steps, peak cell {} at step {} ({})\n",
            s.keys.len(),
            s.steps.len(),
            s.max_cell,
            s.max_cell_at.0,
            fmt_key(name, s.max_cell_at.1),
        ));
        if markdown {
            out.push_str("\n| rank | key | total | peak/step |\n|---:|---|---:|---:|\n");
        }
        for (i, (key, agg)) in s.top_keys(top_k).into_iter().enumerate() {
            let (rank, key, total, peak) = (i + 1, fmt_key(name, key), agg.total, agg.peak);
            out.push_str(&if markdown {
                format!("| {rank} | {key} | {total} | {peak} |\n")
            } else {
                format!("  top{rank:<2} {key:<16} total {total:<8} peak/step {peak}\n")
            });
        }
    }
    if let Some((p50, p90, p99)) = a.queue_percentiles() {
        h(&mut out, "Queue depth");
        out.push_str(&format!(
            "p50 ≤ {p50}   p90 ≤ {p90}   p99 ≤ {p99}   (reconstructed from log2 buckets)\n"
        ));
    }

    if a.requests.count > 0 {
        h(&mut out, "Request stages");
        let r = &a.requests;
        let mean = r.e2e_ms_total / r.count as f64;
        out.push_str(&format!(
            "{} sampled requests ({} errors), mean e2e {:.2}ms, max {:.2}ms\n",
            r.count, r.errors, mean, r.e2e_ms_max
        ));
        let reasons: Vec<String> =
            r.by_reason.iter().map(|(why, n)| format!("{why}:{n}")).collect();
        out.push_str(&format!("kept by: {}\n", reasons.join(" ")));
        if markdown {
            out.push_str("\n| stage | total ms | spans | ms/request |\n|---|---:|---:|---:|\n");
        }
        for (stage, ms, n) in r.stages_ranked() {
            let per = ms / r.count as f64;
            out.push_str(&if markdown {
                format!("| {stage} | {ms:.2} | {n} | {per:.3} |\n")
            } else {
                format!("  {stage:<18} total {ms:>10.2}ms   spans {n:<6} {per:>8.3}ms/req\n")
            });
        }
    }

    if !a.faults.is_empty() {
        h(&mut out, "Fault timeline");
        let counts: Vec<String> =
            a.fault_counts().iter().map(|(op, n)| format!("{op} {n}")).collect();
        out.push_str(&format!("{} events: {}\n", a.faults.len(), counts.join(", ")));
        if markdown {
            out.push_str("\n| t | op | kind | subject |\n|---:|---|---|---|\n");
        }
        let mut ordered: Vec<&FaultRecord> = a.faults.iter().collect();
        ordered.sort_by_key(|f| f.at);
        for f in ordered {
            let (at, op, kind, subject) = (f.at, f.op.as_str(), &f.kind, &f.subject);
            out.push_str(&if markdown {
                format!("| {at} | {op} | {kind} | {subject} |\n")
            } else {
                format!("  t={at:<6} {op:<7} {kind:<6} {subject}\n")
            });
        }
    }

    if !a.counters.is_empty() {
        h(&mut out, "Counters");
        for (name, v) in &a.counters {
            out.push_str(&format!("{name} = {v}\n"));
        }
    }
    if !a.gauges.is_empty() {
        h(&mut out, "Gauges");
        for (name, v) in &a.gauges {
            out.push_str(&format!("{name} = {v}\n"));
        }
    }
    if !a.histograms.is_empty() {
        h(&mut out, "Histograms");
        if markdown {
            out.push_str("```text\n");
        }
        for (name, hist) in &a.histograms {
            out.push_str(&hist_line(name, hist));
            out.push('\n');
            for line in hist_chart(hist) {
                out.push_str(&line);
                out.push('\n');
            }
        }
        if markdown {
            out.push_str("```\n");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{edge_key, InMemoryRecorder, Recorder};
    use crate::trace::{export, RunMeta};

    fn meta_line() -> String {
        format!(
            "{{\"type\":\"meta\",\"schema\":\"{SCHEMA}\",\"command\":\"c\",\"guest\":\"g\",\"host\":\"h\",\"n\":4,\"m\":4,\"guest_steps\":2}}"
        )
    }

    #[test]
    fn analyzer_aggregates_an_exported_run() {
        let mut rec = InMemoryRecorder::new();
        rec.span_start("sim.step");
        rec.span_start("sim.comm");
        rec.counter("route.transfers", 5);
        rec.sample("route.edge_util", 0, edge_key(1, 2), 1);
        rec.sample("route.edge_util", 0, edge_key(1, 2), 1);
        rec.sample("route.edge_util", 1, edge_key(2, 3), 1);
        rec.sample("route.queue_depth", 0, 2, 3);
        rec.histogram("route.queue_occupancy", 3);
        rec.span_end("sim.comm");
        rec.span_end("sim.step");
        let meta = RunMeta {
            command: "test".into(),
            guest: "ring:4".into(),
            host: "torus:2x2".into(),
            n: 4,
            m: 4,
            guest_steps: 1,
        };
        let text = export(&rec, &meta, None);
        let a = analyze_str(&text).expect("analyzes");
        assert_eq!(a.counter("route.transfers"), Some(5));
        let util = &a.series["route.edge_util"];
        assert_eq!(util.steps[&0], StepAgg { max: 2, total: 2, cells: 1 });
        assert_eq!(util.steps[&1], StepAgg { max: 1, total: 1, cells: 1 });
        assert_eq!(util.keys[&edge_key(1, 2)], KeyAgg { total: 2, peak: 2 });
        assert_eq!(util.max_cell, 2);
        assert_eq!(util.max_cell_at, (0, edge_key(1, 2)));
        assert_eq!(a.queue_percentiles(), Some((3, 3, 3)));
        // Critical path: sim.step wraps sim.comm.
        let names: Vec<&str> = a.critical_path.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["sim.step", "sim.comm"]);
        assert_eq!(a.critical_path[0].depth, 0);
        assert_eq!(a.critical_path[1].depth, 1);
        assert!(a.critical_path[0].ns >= a.critical_path[1].ns);
    }

    #[test]
    fn critical_path_picks_longest_children() {
        // Hand-written spans with controlled timing: top span A contains a
        // short B and a long C; C contains D. Critical path = A > C > D.
        let lines = [
            meta_line(),
            r#"{"type":"span","op":"start","name":"A","ns":0}"#.into(),
            r#"{"type":"span","op":"start","name":"B","ns":10}"#.into(),
            r#"{"type":"span","op":"end","name":"B","ns":20}"#.into(),
            r#"{"type":"span","op":"start","name":"C","ns":30}"#.into(),
            r#"{"type":"span","op":"start","name":"D","ns":40}"#.into(),
            r#"{"type":"span","op":"end","name":"D","ns":80}"#.into(),
            r#"{"type":"span","op":"end","name":"C","ns":90}"#.into(),
            r#"{"type":"span","op":"end","name":"A","ns":100}"#.into(),
        ];
        let a = analyze_str(&lines.join("\n")).expect("analyzes");
        let chain: Vec<(&str, u64, usize)> =
            a.critical_path.iter().map(|s| (s.name.as_str(), s.ns, s.depth)).collect();
        assert_eq!(chain, vec![("A", 100, 0), ("C", 60, 1), ("D", 40, 2)]);
        // Rendering mentions every segment, in both formats.
        for md in [false, true] {
            let text = render(&a, 5, md);
            assert!(text.contains("Critical path"), "{text}");
            for name in ["A", "C", "D"] {
                assert!(text.contains(name));
            }
        }
    }

    #[test]
    fn top_k_is_deterministic_under_ties() {
        let mut s = SeriesSummary::default();
        for key in [9u64, 3, 7] {
            s.add(&SampleRecord { name: "x".into(), step: 0, key, value: 4 });
        }
        s.add(&SampleRecord { name: "x".into(), step: 1, key: 7, value: 1 });
        let top = s.top_keys(3);
        // 7 leads (total 5); 3 and 9 tie at 4 and order by key id.
        let keys: Vec<u64> = top.iter().map(|&(k, _)| k).collect();
        assert_eq!(keys, vec![7, 3, 9]);
        assert_eq!(s.top_keys(1).len(), 1);
    }

    #[test]
    fn malformed_lines_fail_with_line_numbers() {
        let mut a = TraceAnalyzer::new();
        a.feed_line(&meta_line(), 1).unwrap();
        let err = a.feed_line("{\"type\":\"counter\",\"name\":\"x\"", 7).unwrap_err();
        assert!(err.starts_with("line 7:"), "{err}");

        // Truncated trace: span still open at EOF.
        let mut a = TraceAnalyzer::new();
        a.feed_line(&meta_line(), 1).unwrap();
        a.feed_line(r#"{"type":"span","op":"start","name":"route","ns":5}"#, 2).unwrap();
        assert!(a.finish().unwrap_err().contains("still open"));

        // Missing meta.
        let mut a = TraceAnalyzer::new();
        let err = a.feed_line(r#"{"type":"counter","name":"x","value":1}"#, 1).unwrap_err();
        assert!(err.contains("meta"), "{err}");

        // Unknown schema is rejected up front.
        let mut a = TraceAnalyzer::new();
        let bad = meta_line().replace(SCHEMA, "unet-trace/99");
        assert!(a.feed_line(&bad, 1).unwrap_err().contains("unsupported schema"));

        // So are the retired ones.
        for retired in ["unet-trace/1", "unet-trace/2", "unet-trace/3"] {
            let mut a = TraceAnalyzer::new();
            let old = meta_line().replace(SCHEMA, retired);
            assert!(a.feed_line(&old, 1).unwrap_err().contains("unsupported schema"));
        }

        // Whole documents, each failing with its own message; a bad line
        // after the meta is named by its line number.
        assert!(analyze_str("").unwrap_err().contains("empty trace"));
        assert!(analyze_str("not json\n").unwrap_err().starts_with("line 1:"));
        let start_a = r#"{"type":"span","op":"start","name":"a","ns":1}"#;
        let cases: [(&[&str], &str); 10] = [
            (&[r#"{"type":"mystery"}"#], "unknown record type"),
            (&[&meta_line()], "duplicate meta"),
            (
                &[
                    r#"{"type":"hist","name":"h","count":5,"sum":5,"min":1,"max":1,"buckets":[[1,2]]}"#,
                ],
                "bucket total",
            ),
            (
                &[r#"{"type":"fault","op":"explode","at":1,"kind":"crash","subject":"node:1"}"#],
                "bad fault op",
            ),
            (
                &[
                    r#"{"type":"request","trace_id":"ab","kind":"simulate","ok":true,"e2e_ms":1.0,"sampled":"vibes","stages":[]}"#,
                ],
                "bad sample reason",
            ),
            (
                &[
                    r#"{"type":"request","trace_id":"ab","kind":"simulate","ok":true,"e2e_ms":1.0,"sampled":"head","stages":[["queue_wait"]]}"#,
                ],
                "[name, ms] pairs",
            ),
            (&[start_a, r#"{"type":"span","op":"end","name":"b","ns":2}"#], "does not close"),
            (&[r#"{"type":"span","op":"end","name":"a","ns":2}"#], "no open span"),
            (
                &[
                    r#"{"type":"span","op":"start","name":"a","ns":9}"#,
                    r#"{"type":"span","op":"end","name":"a","ns":3}"#,
                ],
                "backwards",
            ),
            (&[start_a], "still open"),
        ];
        for (body, want) in cases {
            let text = format!("{}\n{}\n", meta_line(), body.join("\n"));
            let err = analyze_str(&text).unwrap_err();
            assert!(err.contains(want), "want {want:?}, got {err}");
            if want != "still open" {
                let lno = body.len() + 1;
                assert!(err.starts_with(&format!("line {lno}:")), "{err}");
            }
        }
    }

    #[test]
    fn million_line_trace_streams_bounded() {
        // ≥1M sample events over 1k steps × 64 edges: retained state must
        // scale with (steps + keys), not with the line count. This is the
        // bounded-memory contract behind `unet analyze` on big traces.
        const STEPS: u64 = 1_000;
        const KEYS: u64 = 64;
        const REPS: u64 = 16; // lines = STEPS * KEYS * REPS ≥ 1M
        let mut a = TraceAnalyzer::new();
        a.feed_line(&meta_line(), 1).unwrap();
        let mut lno = 1usize;
        let mut fed = 0u64;
        for rep in 0..REPS {
            for step in 0..STEPS {
                for k in 0..KEYS {
                    lno += 1;
                    fed += 1;
                    // Reuse one buffer's worth of formatting per line; the
                    // analyzer sees each line exactly as the CLI would.
                    let line = format!(
                        "{{\"type\":\"sample\",\"name\":\"route.edge_util\",\"step\":{step},\"key\":{k},\"value\":{}}}",
                        1 + (rep + step + k) % 3
                    );
                    a.feed_line(&line, lno).unwrap();
                }
            }
            // Memory check after every full sweep: cells retained stay
            // bounded by the grid size, independent of lines fed so far.
            assert!(
                a.retained_cells() <= (STEPS + KEYS) as usize + 16,
                "retained {} cells after {} lines",
                a.retained_cells(),
                fed
            );
        }
        assert!(fed >= 1_000_000, "fed {fed} lines");
        let out = a.finish().unwrap();
        assert_eq!(out.lines, fed + 1);
        let s = &out.series["route.edge_util"];
        assert_eq!(s.steps.len(), STEPS as usize);
        assert_eq!(s.keys.len(), KEYS as usize);
        // Every (step,key) cell was fed REPS times with value in {1,2,3};
        // totals reflect full aggregation, not truncation.
        let total: u64 = s.keys.values().map(|k| k.total).sum();
        assert!(total >= STEPS * KEYS * REPS);
    }

    #[test]
    fn request_records_aggregate_by_stage() {
        let req = |id: &str, ok: bool, e2e: f64, q: f64, sim: f64| {
            format!(
                "{{\"type\":\"request\",\"trace_id\":\"{id}\",\"kind\":\"simulate\",\"ok\":{ok},\"e2e_ms\":{e2e},\"sampled\":\"{}\",\"stages\":[[\"queue_wait\",{q}],[\"simulate\",{sim}]]}}",
                if ok { "head" } else { "error" }
            )
        };
        let text = [
            meta_line(),
            req("0000000000000001", true, 10.0, 2.0, 8.0),
            req("0000000000000002", true, 20.0, 12.0, 8.0),
            req("0000000000000003", false, 5.0, 1.0, 4.0),
        ]
        .join("\n");
        let a = analyze_str(&text).expect("analyzes");
        assert_eq!(a.requests.count, 3);
        assert_eq!(a.requests.errors, 1);
        assert_eq!(a.requests.e2e_ms_max, 20.0);
        assert_eq!(a.requests.stage_totals["queue_wait"], (15.0, 3));
        assert_eq!(a.requests.stage_totals["simulate"], (20.0, 3));
        assert_eq!(a.requests.by_reason["head"], 2);
        assert_eq!(a.requests.by_reason["error"], 1);
        // Ranked: simulate (20ms) before queue_wait (15ms).
        let ranked: Vec<&str> = a.requests.stages_ranked().iter().map(|&(s, ..)| s).collect();
        assert_eq!(ranked, vec!["simulate", "queue_wait"]);
        for md in [false, true] {
            let out = render(&a, 5, md);
            assert!(out.contains("Request stages"), "{out}");
            assert!(out.contains("queue_wait"), "{out}");
        }
        // A malformed request record still fails with its line number.
        let mut bad = TraceAnalyzer::new();
        bad.feed_line(&meta_line(), 1).unwrap();
        let err = bad
            .feed_line("{\"type\":\"request\",\"trace_id\":\"x\",\"kind\":\"k\",\"ok\":true,\"e2e_ms\":1.0,\"sampled\":\"nope\",\"stages\":[]}", 2)
            .unwrap_err();
        assert!(err.contains("line 2") && err.contains("bad sample reason"), "{err}");
    }

    #[test]
    fn render_reports_empty_congestion_for_legacy_traces() {
        // A current-schema trace with no sample records.
        let a = analyze_str(&meta_line()).unwrap();
        let text = render(&a, 5, false);
        assert!(text.contains("no sample series"), "{text}");
        let md = render(&a, 5, true);
        assert!(md.contains("## Congestion"), "{md}");
    }
}
