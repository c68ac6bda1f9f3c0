//! The [`Recorder`] trait and its three implementations.
//!
//! Hot paths take a `rec: &mut R` with `R: Recorder + ?Sized` and emit
//! spans/counters/histograms unconditionally; with the default
//! [`NoopRecorder`] every call monomorphizes to an empty inline function,
//! so the uninstrumented build is bit-identical in behavior and within
//! measurement noise in speed (benchmarked in `unet-bench`'s
//! `e15_obs_overhead`).

use std::collections::BTreeMap;
use std::time::Instant;

/// Sink for instrumentation events.
///
/// All methods take `&mut self` so implementations need no interior
/// mutability; names are `&'static str` so recording never allocates on
/// the caller's side. The trait is object-safe: plumbing that must cross
/// a `dyn` boundary (e.g. the `Router` trait) passes `&mut dyn Recorder`,
/// which itself implements `Recorder`.
pub trait Recorder {
    /// Enter a named phase. Must be balanced by [`Recorder::span_end`]
    /// with the same name, LIFO-nested.
    fn span_start(&mut self, name: &'static str);

    /// Leave the innermost open phase (which must be `name`).
    fn span_end(&mut self, name: &'static str);

    /// Add `delta` to the named monotone counter.
    fn counter(&mut self, name: &'static str, delta: u64);

    /// Record the latest value of a named quantity.
    fn gauge(&mut self, name: &'static str, value: f64);

    /// Record one sample into the named log-bucketed histogram.
    fn histogram(&mut self, name: &'static str, value: u64);

    /// Record `n` samples of `value` at once: the same histogram as `n`
    /// [`Recorder::histogram`] calls, so `n = 0` records nothing (and
    /// creates no histogram). Hot loops that see few distinct values
    /// count them locally and flush one call per value.
    fn histogram_n(&mut self, name: &'static str, value: u64, n: u64) {
        for _ in 0..n {
            self.histogram(name, value);
        }
    }

    /// Record a keyed time-series sample: at time index `step`, add
    /// `value` to the cell identified by `key` under `name`.
    ///
    /// This is the congestion-telemetry primitive: `key` identifies an
    /// edge (packed `from << 32 | to`) or a node, `step` is the routing
    /// round or communication round, and `value` is the contribution
    /// (1 per transfer for edge utilization; queue length for depth
    /// samples). Implementations aggregate by `(name, step, key)`.
    fn sample(&mut self, name: &'static str, step: u64, key: u64, value: u64);
}

/// Pack a directed edge into a [`Recorder::sample`] key.
#[inline]
pub fn edge_key(from: u32, to: u32) -> u64 {
    ((from as u64) << 32) | to as u64
}

/// Unpack a [`edge_key`]-packed sample key back into `(from, to)`.
#[inline]
pub fn unpack_edge_key(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32)
}

impl Recorder for &mut dyn Recorder {
    #[inline]
    fn span_start(&mut self, name: &'static str) {
        (**self).span_start(name)
    }
    #[inline]
    fn span_end(&mut self, name: &'static str) {
        (**self).span_end(name)
    }
    #[inline]
    fn counter(&mut self, name: &'static str, delta: u64) {
        (**self).counter(name, delta)
    }
    #[inline]
    fn gauge(&mut self, name: &'static str, value: f64) {
        (**self).gauge(name, value)
    }
    #[inline]
    fn histogram(&mut self, name: &'static str, value: u64) {
        (**self).histogram(name, value)
    }
    #[inline]
    fn histogram_n(&mut self, name: &'static str, value: u64, n: u64) {
        (**self).histogram_n(name, value, n)
    }
    #[inline]
    fn sample(&mut self, name: &'static str, step: u64, key: u64, value: u64) {
        (**self).sample(name, step, key, value)
    }
}

/// The do-nothing recorder: a zero-sized type whose methods are empty and
/// `#[inline(always)]`, so instrumented code paths compile down to exactly
/// the uninstrumented code. This is what every pre-existing entry point
/// (`simulate`, `route`, `check`) passes implicitly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    #[inline(always)]
    fn span_start(&mut self, _name: &'static str) {}
    #[inline(always)]
    fn span_end(&mut self, _name: &'static str) {}
    #[inline(always)]
    fn counter(&mut self, _name: &'static str, _delta: u64) {}
    #[inline(always)]
    fn gauge(&mut self, _name: &'static str, _value: f64) {}
    #[inline(always)]
    fn histogram(&mut self, _name: &'static str, _value: u64) {}
    #[inline(always)]
    fn histogram_n(&mut self, _name: &'static str, _value: u64, _n: u64) {}
    #[inline(always)]
    fn sample(&mut self, _name: &'static str, _step: u64, _key: u64, _value: u64) {}
}

// The zero-cost claim starts with zero size; checked at compile time.
const _: () = assert!(std::mem::size_of::<NoopRecorder>() == 0);

/// A log₂-bucketed histogram of `u64` samples.
///
/// Bucket 0 holds exactly the value 0; bucket `i ≥ 1` holds values in
/// `[2^(i−1), 2^i − 1]`. 65 buckets cover the full `u64` domain, so
/// recording can never miss. Count, sum, min, and max are exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Number of samples.
    pub count: u64,
    /// Exact sum of samples (u128: 2⁶⁴ samples of u64::MAX cannot overflow).
    pub sum: u128,
    /// Smallest sample (u64::MAX when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// `buckets[i]` = samples in bucket `i` (see type docs for ranges).
    pub buckets: [u64; 65],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { count: 0, sum: 0, min: u64::MAX, max: 0, buckets: [0; 65] }
    }
}

impl Histogram {
    /// Bucket index for `value`: 0 for 0, else `64 − leading_zeros` (the
    /// bit length), giving ranges `[2^(i−1), 2^i − 1]`.
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            (64 - value.leading_zeros()) as usize
        }
    }

    /// Inclusive `(lo, hi)` range of values that land in bucket `i`.
    pub fn bucket_range(i: usize) -> (u64, u64) {
        match i {
            0 => (0, 0),
            64 => (1u64 << 63, u64::MAX),
            _ => (1u64 << (i - 1), (1u64 << i) - 1),
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[Self::bucket_index(value)] += 1;
    }

    /// Record `n` samples of `value`: equal to `n` calls of
    /// [`Histogram::record`] (so `n = 0` changes nothing).
    #[inline]
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.count += n;
        self.sum += value as u128 * n as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[Self::bucket_index(value)] += n;
    }

    /// Mean sample, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Reconstruct the `p`-th percentile (`0.0 ≤ p ≤ 1.0`) from the log₂
    /// buckets: the upper bound of the bucket in which the cumulative
    /// count crosses `⌈p·count⌉`, clamped to the exact recorded `max`.
    /// `None` when empty. Exact at p=1 (`max` is exact); otherwise an
    /// upper bound within the 2× width of the crossing bucket.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (_, hi) = Self::bucket_range(i);
                return Some(hi.min(self.max));
            }
        }
        Some(self.max)
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }
}

/// One chronological span event (the raw material of the JSONL trace).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanEvent {
    /// Phase `name` opened at `ns` nanoseconds after the recorder's epoch.
    Start {
        /// Phase name.
        name: &'static str,
        /// Nanoseconds since the recorder was created.
        ns: u64,
    },
    /// Phase `name` closed at `ns` nanoseconds after the recorder's epoch.
    End {
        /// Phase name.
        name: &'static str,
        /// Nanoseconds since the recorder was created.
        ns: u64,
    },
}

/// In-memory aggregation: exact counters and gauges, log-bucketed
/// histograms, and the chronological span-event stream with per-phase
/// total durations.
#[derive(Debug, Clone)]
pub struct InMemoryRecorder {
    epoch: Instant,
    events: Vec<SpanEvent>,
    open: Vec<&'static str>,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
    span_totals: BTreeMap<&'static str, (u64, u64)>, // (total ns, count)
    span_starts: Vec<u64>,                           // parallel to `open`
    samples: BTreeMap<&'static str, BTreeMap<(u64, u64), u64>>, // (step, key) -> sum
}

impl Default for InMemoryRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl InMemoryRecorder {
    /// Fresh recorder; its epoch (time zero for all span events) is now.
    pub fn new() -> Self {
        InMemoryRecorder {
            epoch: Instant::now(),
            events: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            span_totals: BTreeMap::new(),
            span_starts: Vec::new(),
            samples: BTreeMap::new(),
        }
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Chronological span events.
    pub fn events(&self) -> &[SpanEvent] {
        &self.events
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Last value of a gauge.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The named histogram, if any sample was recorded.
    pub fn histogram_data(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    /// All gauges, sorted by name.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.gauges.iter().map(|(&k, &v)| (k, v))
    }

    /// All histograms, sorted by name.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(&k, v)| (k, v))
    }

    /// `(total duration ns, completion count)` per span name, sorted.
    pub fn span_totals(&self) -> impl Iterator<Item = (&'static str, u64, u64)> + '_ {
        self.span_totals.iter().map(|(&k, &(ns, n))| (k, ns, n))
    }

    /// Aggregated time-series samples for `name`: `(step, key) → summed
    /// value`, sorted by `(step, key)`.
    pub fn sample_data(&self, name: &str) -> Option<&BTreeMap<(u64, u64), u64>> {
        self.samples.get(name)
    }

    /// All sample series, sorted by name.
    pub fn samples(&self) -> impl Iterator<Item = (&'static str, &BTreeMap<(u64, u64), u64>)> + '_ {
        self.samples.iter().map(|(&k, v)| (k, v))
    }

    /// Names of spans opened but not yet closed, outermost first.
    pub fn open_spans(&self) -> &[&'static str] {
        &self.open
    }

    /// Nesting depth of currently open spans.
    pub fn depth(&self) -> usize {
        self.open.len()
    }
}

impl Recorder for InMemoryRecorder {
    fn span_start(&mut self, name: &'static str) {
        let ns = self.now_ns();
        self.open.push(name);
        self.span_starts.push(ns);
        self.events.push(SpanEvent::Start { name, ns });
    }

    fn span_end(&mut self, name: &'static str) {
        let ns = self.now_ns();
        let top = self.open.pop();
        let started = self.span_starts.pop();
        debug_assert_eq!(top, Some(name), "span_end({name}) does not match innermost open span");
        let entry = self.span_totals.entry(name).or_insert((0, 0));
        entry.0 += ns.saturating_sub(started.unwrap_or(ns));
        entry.1 += 1;
        self.events.push(SpanEvent::End { name, ns });
    }

    fn counter(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    fn gauge(&mut self, name: &'static str, value: f64) {
        self.gauges.insert(name, value);
    }

    fn histogram(&mut self, name: &'static str, value: u64) {
        self.histograms.entry(name).or_default().record(value);
    }

    fn histogram_n(&mut self, name: &'static str, value: u64, n: u64) {
        if n > 0 {
            self.histograms.entry(name).or_default().record_n(value, n);
        }
    }

    fn sample(&mut self, name: &'static str, step: u64, key: u64, value: u64) {
        *self.samples.entry(name).or_default().entry((step, key)).or_insert(0) += value;
    }
}

/// An [`InMemoryRecorder`] that keeps no sample series.
///
/// Spans, counters, gauges and histograms aggregate exactly as in
/// [`InMemoryRecorder`], and every accessor is reached through `Deref`.
/// [`Recorder::sample`] is an empty inline function, so code monomorphized
/// on this type drops its per-transfer and per-queue sample loops, and no
/// `(step, key)` map is built: [`InMemoryRecorder::sample_data`] is always
/// `None`. For callers that read totals but never a congestion series —
/// the server's per-request runs and `unet simulate`.
#[derive(Debug, Clone, Default)]
pub struct SummaryRecorder(InMemoryRecorder);

impl SummaryRecorder {
    /// Fresh recorder; its epoch (time zero for all span events) is now.
    pub fn new() -> Self {
        SummaryRecorder(InMemoryRecorder::new())
    }
}

impl std::ops::Deref for SummaryRecorder {
    type Target = InMemoryRecorder;

    fn deref(&self) -> &InMemoryRecorder {
        &self.0
    }
}

impl Recorder for SummaryRecorder {
    #[inline]
    fn span_start(&mut self, name: &'static str) {
        self.0.span_start(name)
    }
    #[inline]
    fn span_end(&mut self, name: &'static str) {
        self.0.span_end(name)
    }
    #[inline]
    fn counter(&mut self, name: &'static str, delta: u64) {
        self.0.counter(name, delta)
    }
    #[inline]
    fn gauge(&mut self, name: &'static str, value: f64) {
        self.0.gauge(name, value)
    }
    #[inline]
    fn histogram(&mut self, name: &'static str, value: u64) {
        self.0.histogram(name, value)
    }
    #[inline]
    fn histogram_n(&mut self, name: &'static str, value: u64, n: u64) {
        self.0.histogram_n(name, value, n)
    }
    #[inline]
    fn sample(&mut self, _name: &'static str, _step: u64, _key: u64, _value: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_zero_sized_and_inert() {
        assert_eq!(std::mem::size_of::<NoopRecorder>(), 0);
        let mut r = NoopRecorder;
        r.span_start("x");
        r.counter("c", 1);
        r.histogram("h", 42);
        r.gauge("g", 1.0);
        r.sample("s", 0, 1, 2);
        r.span_end("x");
    }

    #[test]
    fn histogram_bucket_edges() {
        // The satellite-mandated edge cases: 0, 1, u64::MAX.
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(Histogram::bucket_index(1u64 << 63), 64);
        assert_eq!(Histogram::bucket_index((1u64 << 63) - 1), 63);

        let mut h = Histogram::default();
        h.record(0);
        h.record(1);
        h.record(u64::MAX);
        assert_eq!(h.count, 3);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, u64::MAX);
        assert_eq!(h.sum, u64::MAX as u128 + 1);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[64], 1);
        assert_eq!(h.mean(), Some((u64::MAX as u128 + 1) as f64 / 3.0));
    }

    #[test]
    fn histogram_bucket_ranges_partition_u64() {
        let mut expected_lo = 0u64;
        for i in 0..=64usize {
            let (lo, hi) = Histogram::bucket_range(i);
            assert_eq!(lo, expected_lo, "bucket {i} starts where {} ended", i.wrapping_sub(1));
            assert!(lo <= hi);
            // Every value in [lo, hi] maps back to bucket i (check edges).
            assert_eq!(Histogram::bucket_index(lo), i);
            assert_eq!(Histogram::bucket_index(hi), i);
            expected_lo = hi.wrapping_add(1);
        }
        assert_eq!(expected_lo, 0, "bucket 64 ends exactly at u64::MAX");
    }

    #[test]
    fn histogram_percentiles_from_buckets() {
        assert_eq!(Histogram::default().percentile(0.5), None);
        let mut h = Histogram::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        // p=1 is exact; medians land on the bucket upper bound ≥ true value.
        assert_eq!(h.percentile(1.0), Some(100));
        let p50 = h.percentile(0.5).unwrap();
        assert!((50..=63).contains(&p50), "p50 within the crossing bucket: {p50}");
        let p99 = h.percentile(0.99).unwrap();
        assert!((99..=100).contains(&p99), "p99 clamped to exact max: {p99}");
        // Single-sample histogram: every percentile is that sample's bucket.
        let mut one = Histogram::default();
        one.record(7);
        assert_eq!(one.percentile(0.0), Some(7));
        assert_eq!(one.percentile(0.5), Some(7));
        assert_eq!(one.percentile(1.0), Some(7));
    }

    #[test]
    fn histogram_empty_and_merge() {
        let empty = Histogram::default();
        assert_eq!(empty.mean(), None);
        assert_eq!(empty.min, u64::MAX);
        let mut a = Histogram::default();
        a.record(5);
        let mut b = Histogram::default();
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count, 2);
        assert_eq!(a.min, 5);
        assert_eq!(a.max, 100);
        assert_eq!(a.sum, 105);
    }

    #[test]
    fn record_n_equals_repeated_record() {
        for (value, n) in [(0u64, 1u64), (1, 3), (7, 10), (1 << 40, 5), (u64::MAX, 4)] {
            let mut once = Histogram::default();
            once.record(3);
            let mut looped = once.clone();
            once.record_n(value, n);
            for _ in 0..n {
                looped.record(value);
            }
            assert_eq!(once, looped, "record_n({value}, {n})");
        }
        let mut h = Histogram::default();
        h.record_n(9, 0);
        assert_eq!(h, Histogram::default(), "n = 0 changes nothing");
    }

    #[test]
    fn histogram_n_creates_nothing_for_zero_and_forwards() {
        let mut direct = InMemoryRecorder::new();
        direct.histogram_n("h", 4, 0);
        assert!(direct.histogram_data("h").is_none(), "n = 0 creates no entry");
        direct.histogram_n("h", 4, 3);
        let mut looped = InMemoryRecorder::new();
        for _ in 0..3 {
            looped.histogram("h", 4);
        }
        assert_eq!(direct.histogram_data("h"), looped.histogram_data("h"));

        // `SummaryRecorder` forwards the call, and so does `&mut dyn
        // Recorder` (the recorder routing sees behind the `Router` trait),
        // so a zero count creates no entry behind either.
        fn flush<R: Recorder>(mut rec: R) {
            rec.histogram_n("h", 4, 0);
            rec.histogram_n("h", 4, 3);
        }
        let mut summary = SummaryRecorder::new();
        flush(&mut summary as &mut dyn Recorder);
        assert_eq!(summary.histogram_data("h"), looped.histogram_data("h"));
        let mut summary = SummaryRecorder::new();
        summary.histogram_n("h", 4, 0);
        summary.histogram_n("h", 4, 3);
        assert_eq!(summary.histogram_data("h"), looped.histogram_data("h"));
        let mut inner = InMemoryRecorder::new();
        (&mut inner as &mut dyn Recorder).histogram_n("empty", 1, 0);
        assert!(inner.histograms().next().is_none());
    }

    #[test]
    fn span_nesting_tracked() {
        let mut r = InMemoryRecorder::new();
        r.span_start("outer");
        assert_eq!(r.depth(), 1);
        r.span_start("inner");
        assert_eq!(r.depth(), 2);
        assert_eq!(r.open_spans(), &["outer", "inner"]);
        r.span_end("inner");
        r.span_start("inner");
        r.span_end("inner");
        r.span_end("outer");
        assert_eq!(r.depth(), 0);
        assert_eq!(r.events().len(), 6);
        let totals: Vec<_> = r.span_totals().collect();
        let inner = totals.iter().find(|(n, ..)| *n == "inner").unwrap();
        assert_eq!(inner.2, 2, "inner completed twice");
        let outer = totals.iter().find(|(n, ..)| *n == "outer").unwrap();
        assert_eq!(outer.2, 1);
        // Events are chronological.
        let times: Vec<u64> = r
            .events()
            .iter()
            .map(|e| match *e {
                SpanEvent::Start { ns, .. } | SpanEvent::End { ns, .. } => ns,
            })
            .collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "does not match")]
    fn mismatched_span_end_caught_in_debug() {
        let mut r = InMemoryRecorder::new();
        r.span_start("a");
        r.span_end("b");
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn mismatched_span_end_tolerated_in_release() {
        let mut r = InMemoryRecorder::new();
        r.span_start("a");
        r.span_end("b");
        assert_eq!(r.depth(), 0, "the mismatched end still closes the open span");
        assert_eq!(r.events().len(), 2);
    }

    #[test]
    fn counters_gauges_histograms_aggregate() {
        let mut r = InMemoryRecorder::new();
        r.counter("ops", 3);
        r.counter("ops", 4);
        r.gauge("load", 0.5);
        r.gauge("load", 0.75);
        r.histogram("q", 1);
        r.histogram("q", 9);
        assert_eq!(r.counter_value("ops"), 7);
        assert_eq!(r.counter_value("missing"), 0);
        assert_eq!(r.gauge_value("load"), Some(0.75));
        let h = r.histogram_data("q").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!((h.min, h.max), (1, 9));
    }

    #[test]
    fn samples_aggregate_by_step_and_key() {
        let mut r = InMemoryRecorder::new();
        let e = edge_key(3, 7);
        r.sample("route.edge_util", 0, e, 1);
        r.sample("route.edge_util", 0, e, 1);
        r.sample("route.edge_util", 1, e, 1);
        r.sample("route.queue_depth", 0, 7, 4);
        let util = r.sample_data("route.edge_util").unwrap();
        assert_eq!(util.get(&(0, e)), Some(&2));
        assert_eq!(util.get(&(1, e)), Some(&1));
        assert_eq!(r.sample_data("route.queue_depth").unwrap().get(&(0, 7)), Some(&4));
        assert!(r.sample_data("missing").is_none());
        let names: Vec<_> = r.samples().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["route.edge_util", "route.queue_depth"]);
    }

    #[test]
    fn summary_recorder_keeps_everything_but_samples() {
        let mut full = InMemoryRecorder::new();
        let mut summary = SummaryRecorder::new();
        fn drive<R: Recorder>(r: &mut R) {
            r.span_start("outer");
            r.counter("ops", 3);
            r.gauge("load", 0.5);
            r.histogram("q", 9);
            r.sample("route.edge_util", 0, edge_key(3, 7), 1);
            r.span_start("inner");
            r.span_end("inner");
            r.span_end("outer");
        }
        drive(&mut full);
        drive(&mut summary);
        assert!(full.sample_data("route.edge_util").is_some());
        assert_eq!(summary.samples().count(), 0, "no sample series at all");
        assert_eq!(summary.counters().collect::<Vec<_>>(), full.counters().collect::<Vec<_>>());
        assert_eq!(summary.gauges().collect::<Vec<_>>(), full.gauges().collect::<Vec<_>>());
        assert_eq!(summary.histogram_data("q"), full.histogram_data("q"));
        let counts = |r: &InMemoryRecorder| -> Vec<(&str, u64)> {
            r.span_totals().map(|(n, _, c)| (n, c)).collect()
        };
        assert_eq!(counts(&summary), counts(&full));
        assert_eq!(summary.events().len(), full.events().len());
    }

    #[test]
    fn edge_key_round_trips() {
        assert_eq!(unpack_edge_key(edge_key(0, 0)), (0, 0));
        assert_eq!(unpack_edge_key(edge_key(3, 7)), (3, 7));
        assert_eq!(unpack_edge_key(edge_key(u32::MAX, 1)), (u32::MAX, 1));
        assert_ne!(edge_key(3, 7), edge_key(7, 3), "edge keys are directed");
    }

    #[test]
    fn dyn_recorder_dispatch() {
        let mut mem = InMemoryRecorder::new();
        {
            let mut dynrec: &mut dyn Recorder = &mut mem;
            // Generic code over R: Recorder + ?Sized accepts the dyn form.
            fn generic<R: Recorder + ?Sized>(rec: &mut R) {
                rec.counter("via-dyn", 2);
                rec.sample("via-dyn.samples", 1, 2, 3);
            }
            generic(&mut dynrec);
        }
        assert_eq!(mem.counter_value("via-dyn"), 2);
        assert_eq!(mem.sample_data("via-dyn.samples").unwrap().get(&(1, 2)), Some(&3));
    }
}
