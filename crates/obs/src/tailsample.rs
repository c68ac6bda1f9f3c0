//! Tail sampling for per-request trace records.
//!
//! Recording a [`RequestRecord`] for *every* request would make the trace
//! artifact grow linearly with traffic, which is exactly what keeps most
//! tracing systems turned off in production. The [`TailSampler`] keeps the
//! records that carry information and drops the rest, with three rules
//! applied in order:
//!
//! 1. **errors are always kept** — a failed request is the record you will
//!    be looking for;
//! 2. **a deterministic head sample** of the successes is kept (default
//!    [`DEFAULT_HEAD_PERMILLE`]‰, keyed by an FNV hash of the trace id, so
//!    the same request is kept or dropped on every tier it crosses);
//! 3. **the slowest requests are always kept** — a bounded buffer retains
//!    the top ~1% by end-to-end latency (at least
//!    [`TAIL_KEEP_MIN`]), so the p99 tail survives even at a 0‰ head rate.
//!
//! The decision for rules 1–2 is **stateless and trace-id-deterministic**:
//! every tier that sees the same request makes the same call, which is how
//! one `trace_id` ends up with both router and backend records in the
//! merged waterfall without any cross-process coordination. Rule 3 is
//! per-process (each tier keeps its own slowest), which is what "tail
//! sampling" means here — the decision is made *after* the latency is
//! known.
//!
//! Memory is bounded: at most [`MAX_KEPT`] head/error records plus the
//! slow buffer are retained; overflow increments [`TailSampler::dropped`]
//! rather than growing without bound. A retained request is a fixed-size
//! record with no heap allocation of its own: the trace id as a `u64`,
//! the stage times as `f64`s, and the kind and stage names as one-byte
//! indices into the sampler's table of the `&'static str`s it was offered.
//! Owned [`RequestRecord`]s are built only when [`TailSampler::records`]
//! renders them.

use crate::trace::{RequestRecord, SampleReason, StageSpan};

/// Default head-sampling rate, per mille of successful requests.
pub const DEFAULT_HEAD_PERMILLE: u32 = 100;

/// The slow buffer never shrinks below this many slots, so small runs
/// still keep their slowest request.
pub const TAIL_KEEP_MIN: usize = 4;

/// Hard cap on retained head/error records (the slow buffer is capped
/// separately at 1% of offered requests, itself capped at this).
pub const MAX_KEPT: usize = 4096;

/// Stage spans a retained record holds; an offer with more keeps the
/// first `MAX_STAGES`.
pub const MAX_STAGES: usize = 8;

/// FNV-1a of a trace id's wire form (16 lowercase hex digits) — the
/// deterministic head-sampling coin.
fn trace_hash(trace_id: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for shift in (0..16).rev().map(|i| 4 * i) {
        h ^= b"0123456789abcdef"[(trace_id >> shift) as usize & 0xf] as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Would a head sampler at `head_permille`‰ keep this trace id? Exposed so
/// callers can skip building the stage list for requests that can only be
/// kept by the slow rule.
pub fn head_sampled(trace_id: u64, head_permille: u32) -> bool {
    (trace_hash(trace_id) % 1000) < head_permille as u64
}

/// One finished request as offered to [`TailSampler::offer`]. Nothing in
/// it is owned, so an offer the sampler drops costs no allocation.
#[derive(Debug, Clone, Copy)]
pub struct Offer<'a> {
    /// The request's trace id (its wire form is 16 lowercase hex digits).
    pub trace_id: u64,
    /// Request kind, e.g. `"simulate"`.
    pub kind: &'static str,
    /// Did the request produce a `result` response?
    pub ok: bool,
    /// End-to-end latency measured by the recording tier, milliseconds.
    pub e2e_ms: f64,
    /// Stage spans in recorded order, milliseconds.
    pub stages: &'a [(&'static str, f64)],
}

/// A retained request: fixed size, no heap allocation of its own.
#[derive(Debug, Clone, Copy)]
struct Kept {
    trace_id: u64,
    e2e_ms: f64,
    stage_ms: [f64; MAX_STAGES],
    /// Indices into [`TailSampler::names`].
    stage_names: [u8; MAX_STAGES],
    stages: u8,
    kind: u8,
    ok: bool,
    sampled: SampleReason,
}

/// A bounded tail sampler over request records. See the module docs for
/// the three keep rules.
#[derive(Debug, Clone)]
pub struct TailSampler {
    head_permille: u32,
    offered: u64,
    dropped: u64,
    /// Every kind and stage name retained so far, indexed by the records'
    /// one-byte name fields; the 256th and later distinct names share the
    /// last slot as `"other"`.
    names: Vec<&'static str>,
    kept: Vec<Kept>,
    /// Slow candidates, sorted ascending by `e2e_ms` so index 0 is the
    /// eviction victim.
    slow: Vec<Kept>,
}

impl TailSampler {
    /// A sampler keeping `head_permille`‰ of successes (plus all errors
    /// and the slow tail).
    pub fn new(head_permille: u32) -> TailSampler {
        TailSampler {
            head_permille: head_permille.min(1000),
            offered: 0,
            dropped: 0,
            names: Vec::new(),
            // Both buffers are reserved at their caps up front: pages
            // become resident only as records fill them, and growth never
            // reallocates — a reallocation copies into a new chunk and
            // leaves the old one resident in whichever malloc arena the
            // offering thread used (about 0.6 MB on 120k requests).
            kept: Vec::with_capacity(MAX_KEPT),
            slow: Vec::with_capacity(MAX_KEPT),
        }
    }

    /// Requests offered so far.
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Head/error records dropped to the [`MAX_KEPT`] memory cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Records currently retained (head + error + slow buffer).
    pub fn retained(&self) -> usize {
        self.kept.len() + self.slow.len()
    }

    /// Capacity of the slow buffer right now: ~1% of offered, at least
    /// [`TAIL_KEEP_MIN`], at most [`MAX_KEPT`].
    fn tail_cap(&self) -> usize {
        ((self.offered / 100) as usize).clamp(TAIL_KEEP_MIN, MAX_KEPT)
    }

    /// Offer a request; the sampler decides whether it is retained and
    /// why. Returns `true` when the record is currently retained (a
    /// slow-buffer keep may still be evicted by a later, slower request).
    pub fn offer(&mut self, req: Offer<'_>) -> bool {
        self.offered += 1;
        if !req.ok || head_sampled(req.trace_id, self.head_permille) {
            if self.kept.len() >= MAX_KEPT {
                self.dropped += 1;
                return false;
            }
            let reason = if req.ok { SampleReason::Head } else { SampleReason::Error };
            let kept = self.compact(&req, reason);
            self.kept.push(kept);
            return true;
        }
        let cap = self.tail_cap();
        if self.slow.len() >= cap {
            if !self.slow.first().is_some_and(|min| req.e2e_ms > min.e2e_ms) {
                return false;
            }
            self.slow.remove(0);
        }
        let kept = self.compact(&req, SampleReason::Slow);
        let at = self.slow.partition_point(|r| r.e2e_ms <= req.e2e_ms);
        self.slow.insert(at, kept);
        true
    }

    fn compact(&mut self, req: &Offer<'_>, sampled: SampleReason) -> Kept {
        debug_assert!(req.stages.len() <= MAX_STAGES, "{} stages", req.stages.len());
        let mut kept = Kept {
            trace_id: req.trace_id,
            e2e_ms: req.e2e_ms,
            stage_ms: [0.0; MAX_STAGES],
            stage_names: [0; MAX_STAGES],
            stages: 0,
            kind: self.intern(req.kind),
            ok: req.ok,
            sampled,
        };
        for (i, &(stage, ms)) in req.stages.iter().take(MAX_STAGES).enumerate() {
            kept.stage_names[i] = self.intern(stage);
            kept.stage_ms[i] = ms;
            kept.stages += 1;
        }
        kept
    }

    fn intern(&mut self, name: &'static str) -> u8 {
        match self.names.iter().position(|&n| n == name) {
            Some(i) => i as u8,
            None if self.names.len() < usize::from(u8::MAX) => {
                self.names.push(name);
                (self.names.len() - 1) as u8
            }
            None => u8::MAX,
        }
    }

    fn name(&self, i: u8) -> &'static str {
        self.names.get(usize::from(i)).copied().unwrap_or("other")
    }

    /// Every retained record, built on demand: head/error keeps in arrival
    /// order, then the slow buffer slowest-first.
    pub fn records(&self) -> impl Iterator<Item = RequestRecord> + '_ {
        self.kept.iter().chain(self.slow.iter().rev()).map(|k| RequestRecord {
            trace_id: format!("{:016x}", k.trace_id),
            kind: self.name(k.kind).to_string(),
            ok: k.ok,
            e2e_ms: k.e2e_ms,
            sampled: k.sampled,
            stages: (0..usize::from(k.stages))
                .map(|i| StageSpan {
                    stage: self.name(k.stage_names[i]).to_string(),
                    ms: k.stage_ms[i],
                })
                .collect(),
        })
    }
}

impl Default for TailSampler {
    fn default() -> Self {
        TailSampler::new(DEFAULT_HEAD_PERMILLE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(trace_id: u64, ok: bool, e2e_ms: f64) -> Offer<'static> {
        Offer { trace_id, kind: "simulate", ok, e2e_ms, stages: &[] }
    }

    fn id_of(r: &RequestRecord) -> u64 {
        u64::from_str_radix(&r.trace_id, 16).expect("16 hex digits")
    }

    #[test]
    fn errors_are_always_kept() {
        let mut s = TailSampler::new(0);
        assert!(s.offer(rec(0xaaaa_aaaa_aaaa_aaaa, false, 1.0)));
        let kept: Vec<_> = s.records().collect();
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].sampled, SampleReason::Error);
    }

    #[test]
    fn head_sampling_is_deterministic_per_trace_id() {
        let mut a = TailSampler::new(500);
        let mut b = TailSampler::new(500);
        let ids: Vec<u64> = (0..200).collect();
        let kept_a: Vec<bool> = ids.iter().map(|&id| a.offer(rec(id, true, 1.0))).collect();
        let kept_b: Vec<bool> = ids.iter().map(|&id| b.offer(rec(id, true, 1.0))).collect();
        assert_eq!(kept_a, kept_b, "same coin on every tier");
        let heads = kept_a.iter().filter(|&&k| k).count();
        // 500‰ over 200 ids: the FNV coin is not pathological.
        assert!((50..150).contains(&heads), "head keeps way off rate: {heads}");
        for r in a.records() {
            if r.sampled == SampleReason::Head {
                assert!(head_sampled(id_of(&r), 500));
            }
        }
    }

    #[test]
    fn slowest_requests_survive_a_zero_head_rate() {
        let mut s = TailSampler::new(0);
        for i in 0..1000u32 {
            // Find ids the head coin would NOT keep even at the default
            // rate — irrelevant at 0‰, but keeps the fixture honest.
            s.offer(rec(i as u64, true, i as f64));
        }
        let kept: Vec<_> = s.records().collect();
        assert!(!kept.is_empty(), "tail keeps the slow end");
        assert!(kept.len() <= 1000 / 100 + TAIL_KEEP_MIN, "bounded: {}", kept.len());
        assert!(kept.iter().all(|r| r.sampled == SampleReason::Slow));
        assert_eq!(kept[0].e2e_ms, 999.0, "slowest first");
        // Every kept record is slower than every dropped one.
        let min_kept = kept.iter().map(|r| r.e2e_ms).fold(f64::INFINITY, f64::min);
        assert!(min_kept >= (1000 - kept.len()) as f64 - 0.5);
    }

    #[test]
    fn memory_stays_bounded_under_error_floods() {
        let mut s = TailSampler::new(1000);
        for i in 0..(MAX_KEPT as u32 + 100) {
            s.offer(rec(i as u64, i % 2 == 0, 1.0));
        }
        assert!(s.retained() <= MAX_KEPT + MAX_KEPT / 100 + TAIL_KEEP_MIN);
        assert_eq!(s.dropped(), 100);
        assert_eq!(s.offered(), MAX_KEPT as u64 + 100);
    }

    /// The head coin hashes the wire form, so a `u64` id and its 16-digit
    /// string land on the same side on every tier.
    #[test]
    fn the_coin_hashes_the_wire_form_of_the_id() {
        for id in [0, 1, 0x00c0_ffee_00c0_ffee, u64::MAX] {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in format!("{id:016x}").bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            assert_eq!(trace_hash(id), h);
        }
    }

    /// Compact storage changes nothing the trace shows: the records
    /// render back with their ids, kinds and stages in recorded order,
    /// and a record stays a small fixed size.
    #[test]
    fn records_render_back_what_was_offered() {
        let mut s = TailSampler::new(1000);
        let stages = [("accept", 0.25), ("queue_wait", 1.5), ("simulate", 10.0)];
        s.offer(Offer {
            trace_id: 0x00c0_ffee,
            kind: "analyze",
            ok: true,
            e2e_ms: 12.5,
            stages: &stages,
        });
        s.offer(Offer {
            trace_id: 7,
            kind: "forward",
            ok: false,
            e2e_ms: 3.0,
            stages: &stages[2..],
        });
        let out: Vec<_> = s.records().collect();
        assert_eq!(out[0].trace_id, "0000000000c0ffee");
        assert_eq!(out[0].kind, "analyze");
        assert_eq!(out[0].e2e_ms, 12.5);
        let spans: Vec<_> = out[0].stages.iter().map(|s| (s.stage.as_str(), s.ms)).collect();
        assert_eq!(spans, stages);
        assert_eq!((out[1].kind.as_str(), out[1].sampled), ("forward", SampleReason::Error));
        assert_eq!(out[1].stage_ms("simulate"), Some(10.0));
        assert!(std::mem::size_of::<Kept>() <= 96, "{} bytes", std::mem::size_of::<Kept>());
    }
}
