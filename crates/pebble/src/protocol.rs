//! The pebble-game simulation protocol (paper, Section 3.1).
//!
//! A simulation of `T` guest steps by `T'` host steps is a *protocol*: for
//! every host time step and every host processor, one operation. A pebble of
//! type `(P_i, t)` stands for the configuration of guest processor `P_i`
//! after `t` guest steps. Initially every host processor holds all pebbles
//! `(P_1, 0), …, (P_n, 0)`; pebbles are never destroyed; at the end every
//! final pebble `(P_i, T)` must have been generated somewhere.

use unet_topology::Node;

/// A pebble type `(P_i, t)`: the configuration of guest node `node` at guest
/// time `t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pebble {
    /// Guest processor index `i`.
    pub node: Node,
    /// Guest time step `t ∈ [0, T]`.
    pub t: u32,
}

impl Pebble {
    /// Construct a pebble type.
    #[inline]
    pub fn new(node: Node, t: u32) -> Self {
        Pebble { node, t }
    }

    /// Pack into a `u64` key (for hash sets in hot paths).
    #[inline]
    pub fn key(self) -> u64 {
        ((self.node as u64) << 32) | self.t as u64
    }

    /// Inverse of [`Pebble::key`].
    #[inline]
    pub fn from_key(k: u64) -> Self {
        Pebble { node: (k >> 32) as Node, t: k as u32 }
    }
}

/// One host-processor operation in one host time step.
///
/// The model (Section 3.1): per step a processor may **generate** a pebble
/// `(P_i, t)` (requires holding `(P_i, t−1)` and `(P_j, t−1)` for every guest
/// neighbour `P_j` of `P_i`), **send** a *copy* of a held pebble to a
/// neighbouring processor, or **receive** one pebble from a neighbour.
/// Sends and receives must pair up within the step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Do nothing this step.
    Idle,
    /// Generate pebble `(P_i, t)` from its predecessors held locally.
    Generate(Pebble),
    /// Send a copy of `pebble` to host neighbour `to` (both keep a copy).
    Send {
        /// The pebble type being copied.
        pebble: Pebble,
        /// Destination host processor (must be a host neighbour).
        to: Node,
    },
    /// Receive whatever the neighbour `from` sends this step.
    Recv {
        /// Source host processor (must be a host neighbour).
        from: Node,
    },
}

/// Kind bit of an [`OpRecord`]: the op carries a pebble (`Generate`, `Send`).
const PEBBLE: u32 = 1;
/// Kind bit of an [`OpRecord`]: the op names a partner host (`Send`, `Recv`).
const PARTNER: u32 = 2;
/// [`OpRecord::kind`] of a `Generate`.
pub(crate) const GENERATE: u32 = PEBBLE;
/// [`OpRecord::kind`] of a `Send`.
pub(crate) const SEND: u32 = PEBBLE | PARTNER;
/// [`OpRecord::kind`] of a `Recv`.
pub(crate) const RECV: u32 = PARTNER;

/// One stored op, fully initialised: `[host << 2 | kind, partner, node, t]`
/// with 0 in every field its kind does not use, so two records are equal
/// exactly when their bits are. The kind is two bits, [`PEBBLE`] and
/// [`PARTNER`]; kind 0 is `Idle`, which a [`Protocol`] never stores.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct OpRecord([u32; 4]);

impl OpRecord {
    /// Host `q`'s `op` (`q < MAX_HOSTS`); `Idle` gives the all-zero record.
    #[inline]
    fn new(q: Node, op: Op) -> OpRecord {
        debug_assert!((q as usize) < Protocol::MAX_HOSTS);
        let q = q << 2;
        OpRecord(match op {
            Op::Idle => [0; 4],
            Op::Generate(p) => [q | GENERATE, 0, p.node, p.t],
            Op::Send { pebble, to } => [q | SEND, to, pebble.node, pebble.t],
            Op::Recv { from } => [q | RECV, from, 0, 0],
        })
    }

    #[inline]
    pub(crate) fn host(self) -> Node {
        self.0[0] >> 2
    }

    /// [`GENERATE`], [`SEND`], [`RECV`], or 0 for `Idle`.
    #[inline]
    pub(crate) fn kind(self) -> u32 {
        self.0[0] & (PEBBLE | PARTNER)
    }

    /// The partner host of a `Send` or `Recv`.
    #[inline]
    pub(crate) fn partner(self) -> Node {
        self.0[1]
    }

    /// The pebble a `Generate` or `Send` carries.
    #[inline]
    pub(crate) fn pebble(self) -> Pebble {
        Pebble { node: self.0[2], t: self.0[3] }
    }

    #[inline]
    fn is_idle(self) -> bool {
        self.kind() == 0
    }

    #[inline]
    fn op(self) -> Op {
        let [w, partner, node, t] = self.0;
        match w & (PEBBLE | PARTNER) {
            GENERATE => Op::Generate(Pebble { node, t }),
            SEND => Op::Send { pebble: Pebble { node, t }, to: partner },
            RECV => Op::Recv { from: partner },
            _ => Op::Idle,
        }
    }

    /// `(host, op)`.
    #[inline]
    fn decode(&self) -> (Node, Op) {
        (self.host(), self.op())
    }

    /// The same op one guest level later: the pebble it generates or sends,
    /// `(P_i, t)`, becomes `(P_i, t + 1)` (wrapping); hosts, partners and
    /// guest nodes stay. No branch: the kind's [`PEBBLE`] bit is the step.
    #[inline]
    fn later(self) -> OpRecord {
        let [w, partner, node, t] = self.0;
        OpRecord([w, partner, node, t.wrapping_add(w & PEBBLE)])
    }

    /// Or into `diff` the bits in which `self` differs from
    /// `earlier.later()`, field by field.
    #[inline]
    fn later_diff(self, earlier: OpRecord, diff: &mut [u32; 4]) {
        let (a, b) = (self.0, earlier.later().0);
        for k in 0..4 {
            diff[k] |= a[k] ^ b[k];
        }
    }
}

impl std::fmt::Debug for OpRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.decode().fmt(f)
    }
}

/// The non-idle ops of one host step, in ascending host order, decoded as
/// `(host, op)` on read (see [`Protocol::step`]).
#[derive(Debug, Clone, Copy)]
pub struct Step<'a>(&'a [OpRecord]);

/// Iterator over a [`Step`]'s `(host, op)` pairs.
#[derive(Debug, Clone)]
pub struct StepIter<'a>(std::slice::Iter<'a, OpRecord>);

impl Iterator for StepIter<'_> {
    type Item = (Node, Op);

    #[inline]
    fn next(&mut self) -> Option<(Node, Op)> {
        self.0.next().map(OpRecord::decode)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl ExactSizeIterator for StepIter<'_> {}

impl<'a> Step<'a> {
    /// Number of non-idle ops.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether every host is idle.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The `(host, op)` pairs in ascending host order.
    #[inline]
    pub fn iter(&self) -> StepIter<'a> {
        StepIter(self.0.iter())
    }

    /// Index of host `q`'s op within the step, if `q` is busy.
    #[inline]
    pub fn position(&self, q: Node) -> Option<usize> {
        self.0.binary_search_by_key(&q, |r| r.host()).ok()
    }

    /// Host `q`'s op (`Idle` when none is stored).
    #[inline]
    pub fn op(&self, q: Node) -> Op {
        self.position(q).map_or(Op::Idle, |at| self.0[at].op())
    }
}

impl<'a> IntoIterator for Step<'a> {
    type Item = (Node, Op);
    type IntoIter = StepIter<'a>;

    fn into_iter(self) -> StepIter<'a> {
        self.iter()
    }
}

/// A complete simulation protocol: for every host step `τ < T'` and every
/// host processor `q < m`, the operation [`Protocol::op`]`(τ, q)`.
///
/// Only non-idle operations are stored: one flat list of fully
/// initialised 16-byte records ordered by step, then by ascending host,
/// plus the end offset of each step. A host with no entry in a step is
/// idle. The layout is canonical, so equal protocols compare `==` (bit
/// for bit) however they were built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Protocol {
    /// Number of guest processors `n`.
    pub guest_n: usize,
    /// Number of guest steps `T` being simulated.
    pub guest_t: u32,
    /// Number of host processors `m`.
    pub host_m: usize,
    /// Non-idle ops, grouped by step, ascending host within a step.
    ops: Vec<OpRecord>,
    /// `ends[τ]`: end offset of step `τ` in `ops`; `ends.len() = T'`.
    ends: Vec<usize>,
    /// Stored ops with the [`PEBBLE`] and with the [`PARTNER`] kind bit,
    /// kept as ops are appended: the op mix without a pass over `ops`.
    kind_bits: [usize; 2],
}

impl Protocol {
    /// Most host processors a protocol can have: a record keeps the host
    /// in 30 bits.
    pub const MAX_HOSTS: usize = 1 << 30;

    /// Empty protocol skeleton.
    ///
    /// # Panics
    /// Panics if `host_m > Protocol::MAX_HOSTS`.
    pub fn new(guest_n: usize, guest_t: u32, host_m: usize) -> Self {
        assert!(
            host_m <= Self::MAX_HOSTS,
            "{host_m} hosts exceed the protocol's {} host limit",
            Self::MAX_HOSTS
        );
        Protocol { guest_n, guest_t, host_m, ops: Vec::new(), ends: Vec::new(), kind_bits: [0; 2] }
    }

    /// Host time `T'`.
    #[inline]
    pub fn host_steps(&self) -> usize {
        self.ends.len()
    }

    /// Offset in the op list where host step `τ ≤ T'` starts.
    #[inline]
    fn start(&self, tau: usize) -> usize {
        if tau == 0 {
            0
        } else {
            self.ends[tau - 1]
        }
    }

    /// The stored records of host step `τ`.
    #[inline]
    pub(crate) fn records(&self, tau: usize) -> &[OpRecord] {
        &self.ops[self.start(tau)..self.ends[tau]]
    }

    /// The non-idle ops of host step `τ`, in ascending host order.
    ///
    /// # Panics
    /// Panics if `τ ≥ T'`.
    #[inline]
    pub fn step(&self, tau: usize) -> Step<'_> {
        Step(self.records(tau))
    }

    /// Whether every step from `from` on equals the step `period` earlier
    /// with each op one level later: the same hosts, op kinds, partners and
    /// guest nodes, every pebble one level later. One branch-free pass over
    /// the records, in chunks so that a mismatch stops it early.
    ///
    /// # Panics
    /// Panics if `period == 0` or `from < period`.
    pub(crate) fn repeats_later(&self, from: usize, period: usize) -> bool {
        assert!(period > 0 && from >= period, "a period needs one earlier copy");
        // Ops per period. Equal step lengths are equivalent to every
        // window of `period` steps holding exactly this many ops, which
        // also makes the flat op offset between a step and its copy `per`.
        let per = self.start(from) - self.start(from - period);
        let lengths = (from..self.host_steps())
            .fold(0, |d, s| d | (self.ends[s] - self.ends[s - period]) ^ per);
        let start = self.start(from);
        const CHUNK: usize = 1024;
        lengths == 0
            && self.ops[start..].chunks(CHUNK).zip(self.ops[start - per..].chunks(CHUNK)).all(
                |(now, earlier)| {
                    let mut diff = [0; 4];
                    for (&r, &r0) in now.iter().zip(earlier) {
                        r.later_diff(r0, &mut diff);
                    }
                    diff == [0; 4]
                },
            )
    }

    /// The non-idle ops of every host step, in step order.
    pub fn steps(&self) -> impl ExactSizeIterator<Item = Step<'_>> + '_ {
        (0..self.host_steps()).map(|tau| self.step(tau))
    }

    /// Op of host `q` at host step `τ` (`Idle` when none is stored).
    ///
    /// # Panics
    /// Panics if `τ ≥ T'`.
    pub fn op(&self, tau: usize, q: Node) -> Op {
        self.step(tau).op(q)
    }

    /// Store one non-idle record at the end of the open step.
    #[inline]
    fn push(&mut self, rec: OpRecord) {
        self.kind_bits[0] += (rec.0[0] & PEBBLE) as usize;
        self.kind_bits[1] += (rec.0[0] & PARTNER) as usize >> 1;
        self.ops.push(rec);
    }

    /// Append one host step given densely: `ops[q]` is host `q`'s op.
    ///
    /// # Panics
    /// Panics if `ops.len() != m`.
    pub fn push_step(&mut self, ops: &[Op]) {
        assert_eq!(ops.len(), self.host_m, "step must cover every host processor");
        for (q, &op) in ops.iter().enumerate() {
            let rec = OpRecord::new(q as Node, op);
            if !rec.is_idle() {
                self.push(rec);
            }
        }
        self.ends.push(self.ops.len());
    }

    /// Slowdown `s = T' / T` as a rational (numerator, denominator) and as
    /// `f64`.
    pub fn slowdown(&self) -> f64 {
        self.host_steps() as f64 / self.guest_t as f64
    }

    /// Inefficiency `k = s · m / n = T'·m / (T·n)` (paper, Section 3.1).
    /// The lower bound Theorem 3.1 states `k = Ω(log m)` for universal hosts.
    pub fn inefficiency(&self) -> f64 {
        self.slowdown() * self.host_m as f64 / self.guest_n as f64
    }

    /// Total number of host operations that are not `Idle` — an upper bound
    /// on the number of pebbles handled, used by Lemma 3.12's averaging
    /// (`Σ q_{i,t} ≤ m·T'`).
    #[inline]
    pub fn busy_ops(&self) -> usize {
        self.ops.len()
    }

    /// Count of operations by kind `(generate, send, recv, idle)`; idle is
    /// `m·T' − busy_ops()`. Kept as ops are appended, so this costs no pass.
    pub fn op_histogram(&self) -> (usize, usize, usize, usize) {
        // Generate carries a pebble, Recv names a partner, Send does both.
        let ([pebble, partner], busy) = (self.kind_bits, self.busy_ops());
        (
            busy - partner,
            pebble + partner - busy,
            busy - pebble,
            self.host_m * self.host_steps() - busy,
        )
    }
}

/// Mutable builder used by the simulators: collects the current step's ops
/// in one `m`-slot scratch row and appends the touched hosts, in ascending
/// order, to the [`Protocol`] at every [`ProtocolBuilder::end_step`].
#[derive(Debug)]
pub struct ProtocolBuilder {
    proto: Protocol,
    /// Records queued for the *current* host step, one slot per host
    /// (all-zero when idle).
    current: Vec<OpRecord>,
    /// Hosts given a non-idle op in the current step.
    touched: Vec<Node>,
    dirty: bool,
}

impl ProtocolBuilder {
    /// Start building a protocol for `n` guests, `T` guest steps, `m` hosts.
    ///
    /// # Panics
    /// Panics if `m > Protocol::MAX_HOSTS`.
    pub fn new(guest_n: usize, guest_t: u32, host_m: usize) -> Self {
        ProtocolBuilder {
            proto: Protocol::new(guest_n, guest_t, host_m),
            current: vec![OpRecord::default(); host_m],
            touched: Vec::new(),
            dirty: false,
        }
    }

    /// Host size `m`.
    pub fn host_m(&self) -> usize {
        self.proto.host_m
    }

    /// Set host `q`'s op for the current step.
    ///
    /// # Panics
    /// Panics if `q` already has a non-idle op this step (the model allows
    /// one operation per processor per step).
    pub fn set_op(&mut self, q: Node, op: Op) {
        let slot = &mut self.current[q as usize];
        assert!(slot.is_idle(), "host {q} already has an op this step: {:?}", slot.op());
        *slot = OpRecord::new(q, op);
        if !slot.is_idle() {
            self.touched.push(q);
        }
        self.dirty = true;
    }

    /// Whether host `q` is free in the current step.
    pub fn is_free(&self, q: Node) -> bool {
        self.current[q as usize].is_idle()
    }

    /// Close the current host step (even if fully idle) and start a new one.
    pub fn end_step(&mut self) {
        self.touched.sort_unstable();
        for &q in &self.touched {
            self.proto.push(std::mem::take(&mut self.current[q as usize]));
        }
        self.touched.clear();
        self.proto.ends.push(self.proto.ops.len());
        self.dirty = false;
    }

    /// Append copies of the closed steps `steps`, the same hosts, op kinds
    /// and partners, with every pebble generated or sent one level later:
    /// one block copy, then one branch-free pass that adds each record's
    /// pebble bit to its level and counts its kind bits.
    ///
    /// # Panics
    /// Panics if the current step holds ops or `steps` reaches past the
    /// last closed step.
    pub fn repeat_later(&mut self, steps: std::ops::Range<usize>) {
        assert!(!self.dirty, "close the current step before copying steps");
        let p = &mut self.proto;
        let (from, to) = (p.start(steps.start), p.start(steps.end));
        let shift = p.ops.len() - from;
        p.ops.extend_from_within(from..to);
        for rec in &mut p.ops[from + shift..] {
            let w = rec.0[0];
            *rec = rec.later();
            p.kind_bits[0] += (w & PEBBLE) as usize;
            p.kind_bits[1] += (w & PARTNER) as usize >> 1;
        }
        let copied = p.ends.len();
        p.ends.extend_from_within(steps);
        for end in &mut p.ends[copied..] {
            *end += shift;
        }
    }

    /// Reserve room for `copies` more copies of the closed steps `steps`
    /// (see [`ProtocolBuilder::repeat_later`]).
    pub fn reserve_copies(&mut self, steps: std::ops::Range<usize>, copies: usize) {
        let p = &mut self.proto;
        p.ops.reserve(copies * (p.start(steps.end) - p.start(steps.start)));
        p.ends.reserve(copies * steps.len());
    }

    /// Convenience: schedule a paired send/recv in the current step.
    ///
    /// # Panics
    /// Panics if either endpoint is busy.
    pub fn transfer(&mut self, from: Node, to: Node, pebble: Pebble) {
        self.set_op(from, Op::Send { pebble, to });
        self.set_op(to, Op::Recv { from });
    }

    /// Finish: flushes a trailing partial step and returns the protocol.
    pub fn finish(mut self) -> Protocol {
        if self.dirty {
            self.end_step();
        }
        self.proto
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{from_text, to_text};
    use proptest::prelude::*;

    #[test]
    fn pebble_key_roundtrip() {
        let p = Pebble::new(123456, 789);
        assert_eq!(Pebble::from_key(p.key()), p);
    }

    #[test]
    fn protocol_metrics() {
        let mut p = Protocol::new(4, 2, 2);
        p.push_step(&[Op::Generate(Pebble::new(0, 1)), Op::Idle]);
        p.push_step(&[Op::Send { pebble: Pebble::new(0, 1), to: 1 }, Op::Recv { from: 0 }]);
        assert_eq!(p.host_steps(), 2);
        assert_eq!(p.slowdown(), 1.0);
        assert_eq!(p.inefficiency(), 0.5);
        assert_eq!(p.busy_ops(), 3);
        assert_eq!(p.op_histogram(), (1, 1, 1, 1));
    }

    #[test]
    #[should_panic(expected = "must cover every host")]
    fn wrong_row_length_rejected() {
        let mut p = Protocol::new(4, 2, 3);
        p.push_step(&[Op::Idle]);
    }

    #[test]
    fn builder_steps_align() {
        let mut b = ProtocolBuilder::new(2, 1, 3);
        b.set_op(0, Op::Generate(Pebble::new(0, 1)));
        b.end_step();
        b.transfer(0, 1, Pebble::new(0, 1));
        let proto = b.finish();
        assert_eq!(proto.host_steps(), 2);
        assert_eq!(proto.op(1, 0), Op::Send { pebble: Pebble::new(0, 1), to: 1 });
        assert_eq!(proto.op(1, 1), Op::Recv { from: 0 });
        assert_eq!(proto.op(1, 2), Op::Idle);
        assert_eq!(proto.step(1).len(), 2);
    }

    #[test]
    #[should_panic(expected = "already has an op")]
    fn builder_rejects_double_booking() {
        let mut b = ProtocolBuilder::new(2, 1, 2);
        b.set_op(0, Op::Generate(Pebble::new(0, 1)));
        b.set_op(0, Op::Idle);
    }

    #[test]
    fn builder_flushes_trailing_step() {
        let mut b = ProtocolBuilder::new(2, 1, 1);
        b.set_op(0, Op::Generate(Pebble::new(1, 1)));
        let proto = b.finish();
        assert_eq!(proto.host_steps(), 1);
    }

    #[test]
    fn builder_empty_protocol() {
        let proto = ProtocolBuilder::new(2, 1, 1).finish();
        assert_eq!(proto.host_steps(), 0);
    }

    impl Op {
        /// The enum form of [`OpRecord::later`].
        fn later(self) -> Op {
            let up = |p: Pebble| Pebble::new(p.node, p.t.wrapping_add(1));
            match self {
                Op::Generate(p) => Op::Generate(up(p)),
                Op::Send { pebble, to } => Op::Send { pebble: up(pebble), to },
                other => other,
            }
        }
    }

    /// The enum-compare shift scan that [`Protocol::repeats_later`]
    /// replaced: decode both ops and compare them as enums.
    fn repeats_later_reference(p: &Protocol, from: usize, period: usize) -> bool {
        assert!(period > 0 && from >= period, "a period needs one earlier copy");
        let per = p.start(from) - p.start(from - period);
        (from..p.host_steps()).all(|s| p.ends[s] - p.ends[s - period] == per)
            && p.ops[p.start(from)..]
                .iter()
                .zip(&p.ops[p.start(from) - per..])
                .all(|(r, r0)| r.host() == r0.host() && r.op() == r0.op().later())
    }

    #[test]
    fn records_roundtrip_and_compare_bitwise() {
        let ops = [
            Op::Generate(Pebble::new(7, 3)),
            Op::Send { pebble: Pebble::new(u32::MAX, u32::MAX), to: u32::MAX },
            Op::Recv { from: 9 },
        ];
        for op in ops {
            let q = (Protocol::MAX_HOSTS - 1) as Node;
            let rec = OpRecord::new(q, op);
            assert_eq!(rec.decode(), (q, op));
            assert_eq!(rec.later().op(), op.later());
            let mut diff = [0; 4];
            rec.later_diff(rec, &mut diff);
            assert_eq!(diff == [0; 4], op == op.later());
        }
        assert!(OpRecord::new(5, Op::Idle).is_idle());
        assert_eq!(OpRecord::new(5, Op::Idle), OpRecord::default());
    }

    #[test]
    #[should_panic(expected = "host limit")]
    fn too_many_hosts_rejected() {
        Protocol::new(1, 1, Protocol::MAX_HOSTS + 1);
    }

    /// An op from `(kind, a, b)`: kind 0 idle, 1 generate, 2 send, 3 recv;
    /// levels near `u32::MAX` exercise the wrapping level shift.
    fn op_of((kind, a, b): (u8, u32, u32), m: usize) -> Op {
        let t = if b >= 5 { u32::MAX - (b - 5) } else { b };
        match kind {
            0 => Op::Idle,
            1 => Op::Generate(Pebble::new(a, t)),
            2 => Op::Send { pebble: Pebble::new(a, t), to: b % m as Node },
            _ => Op::Recv { from: a % m as Node },
        }
    }

    /// Rows of [`op_of`] ops on 4 hosts.
    fn ops_of(rows: &[Vec<(u8, u32, u32)>]) -> Vec<Vec<Op>> {
        rows.iter().map(|r| r.iter().map(|&x| op_of(x, 4)).collect()).collect()
    }

    /// `lead` rows, then `block` and `copies` level-shifted copies of it,
    /// emitted by the builder (each copy repeats the previous one, as the
    /// engine does), and the same protocol pushed as dense rows.
    fn periodic(lead: &[Vec<Op>], block: &[Vec<Op>], copies: usize) -> (Protocol, Protocol) {
        let m = 4;
        let mut b = ProtocolBuilder::new(6, 4, m);
        let mut dense = Protocol::new(6, 4, m);
        for row in lead.iter().chain(block) {
            for (q, &op) in row.iter().enumerate() {
                b.set_op(q as Node, op);
            }
            b.end_step();
            dense.push_step(row);
        }
        let (mut at, p) = (lead.len(), block.len());
        b.reserve_copies(at..at + p, copies);
        let mut rows = block.to_vec();
        for _ in 0..copies {
            b.repeat_later(at..at + p);
            at += p;
            for row in &mut rows {
                row.iter_mut().for_each(|op| *op = op.later());
                dense.push_step(row);
            }
        }
        (b.finish(), dense)
    }

    fn rows_strategy(
        steps: std::ops::Range<usize>,
    ) -> impl Strategy<Value = Vec<Vec<(u8, u32, u32)>>> {
        prop::collection::vec(prop::collection::vec((0u8..4, 0u32..6, 0u32..8), 4), steps)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// `repeat_later` emits exactly the level-shifted dense rows, and
        /// the packed shift scan's verdict equals the enum compare's for
        /// every `(from, period)`, on the periodic protocol and on a copy
        /// with one field of one op changed: `t ± 1`, node, partner, host,
        /// or Send↔Recv.
        #[test]
        fn packed_scan_equals_enum_scan(
            lead in rows_strategy(0..3),
            block in rows_strategy(1..5),
            copies in 1usize..4,
            mutation in (0usize..1000, 0u8..6),
        ) {
            let m = 4;
            let (built, dense) = periodic(&ops_of(&lead), &ops_of(&block), copies);
            prop_assert_eq!(&built, &dense);
            prop_assert_eq!(to_text(&built), to_text(&dense));

            let (pos, field) = mutation;
            let steps = built.host_steps();
            let (s, q) = (pos % steps, (pos / steps) % m);
            let mut rows: Vec<Vec<Op>> =
                (0..steps).map(|t| (0..m as Node).map(|h| built.op(t, h)).collect()).collect();
            let bump = |p: Pebble, d: u32| Pebble::new(p.node, p.t.wrapping_add(d));
            let op = rows[s][q];
            rows[s][q] = match (field, op) {
                (0, Op::Generate(p)) => Op::Generate(bump(p, 1)),
                (1, Op::Generate(p)) => Op::Generate(bump(p, u32::MAX)),
                (2, Op::Generate(p)) => Op::Generate(Pebble::new(p.node ^ 1, p.t)),
                (0, Op::Send { pebble, to }) => Op::Send { pebble: bump(pebble, 1), to },
                (1, Op::Send { pebble, to }) => Op::Send { pebble: bump(pebble, u32::MAX), to },
                (2, Op::Send { pebble, to }) => {
                    Op::Send { pebble: Pebble::new(pebble.node ^ 1, pebble.t), to }
                }
                (3, Op::Send { pebble, to }) => Op::Send { pebble, to: to ^ 1 },
                (3, Op::Recv { from }) => Op::Recv { from: from ^ 1 },
                (4, Op::Send { pebble, .. }) => Op::Recv { from: pebble.node % m as Node },
                (4, Op::Recv { from }) => Op::Send { pebble: Pebble::new(0, 0), to: from },
                _ => op,
            };
            if field == 5 {
                // Move the op to the next host.
                rows[s].swap(q, (q + 1) % m);
            }
            let mut mutated = Protocol::new(6, 4, m);
            for row in &rows {
                mutated.push_step(row);
            }
            for proto in [&built, &mutated] {
                for period in 1..=steps {
                    for from in period..=steps {
                        prop_assert_eq!(
                            proto.repeats_later(from, period),
                            repeats_later_reference(proto, from, period),
                            "from {} period {}", from, period
                        );
                    }
                }
            }
            let (lead_len, p) = (lead.len(), block.len());
            prop_assert!(built.repeats_later(lead_len + p, p));
        }

        /// The op mix kept as ops are appended equals a recount over
        /// `op(τ, q)`, for protocols from dense rows, the builder and
        /// `repeat_later`.
        #[test]
        fn op_histogram_equals_recount(
            lead in rows_strategy(0..3),
            block in rows_strategy(1..5),
            copies in 0usize..4,
        ) {
            let m = 4;
            let (built, dense) = periodic(&ops_of(&lead), &ops_of(&block), copies);
            for proto in [&built, &dense] {
                let mut want = (0, 0, 0, 0);
                for tau in 0..proto.host_steps() {
                    for q in 0..m as Node {
                        match proto.op(tau, q) {
                            Op::Generate(_) => want.0 += 1,
                            Op::Send { .. } => want.1 += 1,
                            Op::Recv { .. } => want.2 += 1,
                            Op::Idle => want.3 += 1,
                        }
                    }
                }
                prop_assert_eq!(proto.op_histogram(), want);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The same ops give `==` protocols and byte-identical text whether
        /// they come from dense rows, from the builder (hosts set in
        /// descending order, idle hosts set explicitly) or from the text
        /// format; idles are never stored.
        #[test]
        fn one_canonical_form(
            rows in prop::collection::vec(prop::collection::vec((0u8..4, 0u32..6, 0u32..5), 5), 0..8),
        ) {
            let m = 5;
            let dense: Vec<Vec<Op>> = rows
                .iter()
                .map(|row| {
                    row.iter()
                        .map(|&(kind, a, b)| match kind {
                            0 => Op::Idle,
                            1 => Op::Generate(Pebble::new(a, b)),
                            2 => Op::Send { pebble: Pebble::new(a, b), to: b % m as Node },
                            _ => Op::Recv { from: a % m as Node },
                        })
                        .collect()
                })
                .collect();
            let mut from_rows = Protocol::new(6, 4, m);
            let mut b = ProtocolBuilder::new(6, 4, m);
            for row in &dense {
                from_rows.push_step(row);
                for q in (0..m).rev() {
                    b.set_op(q as Node, row[q]);
                }
                b.end_step();
            }
            let built = b.finish();
            let text = to_text(&from_rows);
            let parsed = from_text(&text).expect("own text parses");
            prop_assert_eq!(&built, &from_rows);
            prop_assert_eq!(&parsed, &from_rows);
            prop_assert_eq!(to_text(&built), text.clone());
            prop_assert_eq!(to_text(&parsed), text);

            prop_assert_eq!(from_rows.host_steps(), dense.len());
            let mut busy = 0;
            for (tau, row) in dense.iter().enumerate() {
                prop_assert!(from_rows.step(tau).iter().all(|(_, op)| !matches!(op, Op::Idle)));
                for (q, &op) in row.iter().enumerate() {
                    prop_assert_eq!(from_rows.op(tau, q as Node), op);
                    busy += usize::from(!matches!(op, Op::Idle));
                }
            }
            prop_assert_eq!(from_rows.busy_ops(), busy);
            let (generate, send, recv, idle) = from_rows.op_histogram();
            prop_assert_eq!(generate + send + recv, busy);
            prop_assert_eq!(idle, m * from_rows.host_steps() - from_rows.busy_ops());
        }
    }
}
