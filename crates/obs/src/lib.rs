//! # unet-obs — observability for the universal-networks workspace
//!
//! The paper's whole argument is quantitative — slowdown `s`, inefficiency
//! `k = s·m/n`, routing makespans, queue lengths, pebble-op counts. This
//! crate gives those numbers a first-class home:
//!
//! * [`Recorder`] — span/counter/gauge/histogram primitives that the hot
//!   subsystems (`Simulation::builder()` runs, `packet::route`,
//!   `pebble::check`) are generic over;
//! * [`NoopRecorder`] — the default; a zero-sized type whose methods
//!   monomorphize to nothing, so uninstrumented callers pay nothing;
//! * [`InMemoryRecorder`] — aggregates counters/gauges, log-bucketed
//!   [`Histogram`]s, and a chronological span-event stream;
//! * [`SummaryRecorder`] — the same aggregates without sample series, for
//!   callers that never read one (`sample` monomorphizes to nothing);
//! * [`trace`] — the JSONL trace records and their writer (`unet trace`
//!   writes a recorded run);
//! * [`analysis`] — the one trace reader: bounded-memory streaming
//!   analysis and the trace report (`unet report`):
//!   phase totals, congestion time series, top-k hot edges/nodes,
//!   queue-depth percentiles, critical path, request stages, fault
//!   timeline;
//! * [`report`] — histogram charts for that report, and the per-request
//!   waterfalls of `unet trace-requests`;
//! * [`metrics`] — the [`metrics::MetricsRegistry`]: one place for every
//!   counter/gauge/phase-timing a run produced, with Prometheus-style
//!   text exposition (`unet metrics`) and per-series exemplar trace ids;
//! * [`tailsample`] — the [`TailSampler`] deciding which per-request
//!   stage records ([`trace::RequestRecord`]) are worth keeping: all
//!   errors, a deterministic head sample, and the slowest tail;
//! * [`json`] — the dependency-free JSON reader/writer underneath.
//!
//! This crate is dependency-free by design: every other crate in the
//! workspace can depend on it without cycles.

pub mod analysis;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod report;
pub mod tailsample;
pub mod trace;

pub use analysis::{Analysis, TraceAnalyzer};
pub use metrics::MetricsRegistry;
pub use recorder::{
    edge_key, unpack_edge_key, Histogram, InMemoryRecorder, NoopRecorder, Recorder, SummaryRecorder,
};
pub use tailsample::TailSampler;
