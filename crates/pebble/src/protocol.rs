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
    /// guest nodes stay.
    #[inline]
    fn later(self) -> OpRecord {
        self.later_by(1)
    }

    /// The same op `levels` guest levels later (wrapping). No branch: the
    /// kind's [`PEBBLE`] bit, 0 or 1, scales the step.
    #[inline]
    pub(crate) fn later_by(self, levels: u32) -> OpRecord {
        let [w, partner, node, t] = self.0;
        OpRecord([w, partner, node, t.wrapping_add((w & PEBBLE) * levels)])
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
/// `(host, op)` on read (see [`Protocol::step`]). A step of a protocol's
/// tail is a stored step read `shift` levels later.
#[derive(Debug, Clone, Copy)]
pub struct Step<'a> {
    records: &'a [OpRecord],
    shift: u32,
}

/// Iterator over a [`Step`]'s `(host, op)` pairs.
#[derive(Debug, Clone)]
pub struct StepIter<'a> {
    records: std::slice::Iter<'a, OpRecord>,
    shift: u32,
}

impl Iterator for StepIter<'_> {
    type Item = (Node, Op);

    #[inline]
    fn next(&mut self) -> Option<(Node, Op)> {
        self.records.next().map(|r| r.later_by(self.shift).decode())
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.records.size_hint()
    }
}

impl ExactSizeIterator for StepIter<'_> {}

impl<'a> Step<'a> {
    /// Number of non-idle ops.
    #[inline]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether every host is idle.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The `(host, op)` pairs in ascending host order.
    #[inline]
    pub fn iter(&self) -> StepIter<'a> {
        StepIter { records: self.records.iter(), shift: self.shift }
    }

    /// Index of host `q`'s op within the step, if `q` is busy.
    #[inline]
    pub fn position(&self, q: Node) -> Option<usize> {
        self.records.binary_search_by_key(&q, |r| r.host()).ok()
    }

    /// Host `q`'s op (`Idle` when none is stored).
    #[inline]
    pub fn op(&self, q: Node) -> Op {
        self.position(q).map_or(Op::Idle, |at| self.records[at].later_by(self.shift).op())
    }

    /// The stored records and the levels they are read later by.
    #[inline]
    pub(crate) fn stored(&self) -> (&'a [OpRecord], u32) {
        (self.records, self.shift)
    }

    /// The step's records as read, each `shift` levels later.
    #[inline]
    pub(crate) fn records(&self) -> impl ExactSizeIterator<Item = OpRecord> + 'a {
        let shift = self.shift;
        self.records.iter().map(move |r| r.later_by(shift))
    }

    /// Whether this step is `earlier` with every pebble one level later.
    fn repeats(&self, earlier: &Step<'_>) -> bool {
        self.len() == earlier.len()
            && self.records().zip(earlier.records()).all(|(r, r0)| r == r0.later())
    }
}

/// Two steps are equal when they read the same ops, however they are stored.
impl PartialEq for Step<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.records().eq(other.records())
    }
}

impl Eq for Step<'_> {}

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
/// idle. A protocol that repeats one period of steps level after level
/// stores the period once: the steps of its *tail* are not stored, each
/// is the step `period` earlier with every pebble one level later (see
/// [`ProtocolBuilder::repeat_later`]). Every reader sees the same steps
/// however they are stored, and `==` compares the steps as read.
#[derive(Debug, Clone)]
pub struct Protocol {
    /// Number of guest processors `n`.
    pub guest_n: usize,
    /// Number of guest steps `T` being simulated.
    pub guest_t: u32,
    /// Number of host processors `m`.
    pub host_m: usize,
    /// Non-idle ops of the stored steps, grouped by step, ascending host
    /// within a step.
    ops: Vec<OpRecord>,
    /// `ends[τ]`: end offset of stored step `τ` in `ops`.
    ends: Vec<usize>,
    /// Stored ops with the [`PEBBLE`] and with the [`PARTNER`] kind bit,
    /// kept as ops are appended: the op mix without a pass over `ops`.
    kind_bits: [usize; 2],
    /// The steps after the stored ones.
    tail: Tail,
}

/// The steps of a [`Protocol`] after its stored ones. Tail step `j` is
/// the step `period` earlier, one level later, so it reads stored step
/// `S − period + j % period` (`S` the stored steps) `j / period + 1`
/// levels later.
#[derive(Debug, Clone, Default)]
struct Tail {
    /// Host steps per period; 0 while the protocol has no tail.
    period: usize,
    /// Tail steps.
    len: usize,
    /// `bits[k]`: ops with the [`PEBBLE`] and with the [`PARTNER`] kind bit
    /// in the first `k` steps of the stored window the tail repeats
    /// (`period + 1` entries).
    bits: Vec<[usize; 2]>,
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
        Protocol {
            guest_n,
            guest_t,
            host_m,
            ops: Vec::new(),
            ends: Vec::new(),
            kind_bits: [0; 2],
            tail: Tail::default(),
        }
    }

    /// Host time `T'`.
    #[inline]
    pub fn host_steps(&self) -> usize {
        self.ends.len() + self.tail.len
    }

    /// Host steps stored; the other `T' − stored_steps()` are the tail.
    pub fn stored_steps(&self) -> usize {
        self.ends.len()
    }

    /// Offset in the op list where stored step `τ ≤ S` starts.
    #[inline]
    fn start(&self, tau: usize) -> usize {
        if tau == 0 {
            0
        } else {
            self.ends[tau - 1]
        }
    }

    /// The stored step that host step `τ` reads, and how many levels
    /// later it reads it.
    ///
    /// # Panics
    /// Panics if `τ ≥ T'`.
    #[inline]
    fn source(&self, tau: usize) -> (usize, u32) {
        let stored = self.ends.len();
        if tau < stored {
            return (tau, 0);
        }
        let j = tau - stored;
        assert!(j < self.tail.len, "step {tau} is past the protocol's {} steps", self.host_steps());
        let p = self.tail.period;
        // Levels wrap like the stored copies' levels would.
        (stored - p + j % p, (j / p + 1) as u32)
    }

    /// The non-idle ops of host step `τ`, in ascending host order.
    ///
    /// # Panics
    /// Panics if `τ ≥ T'`.
    #[inline]
    pub fn step(&self, tau: usize) -> Step<'_> {
        let (s, shift) = self.source(tau);
        Step { records: &self.ops[self.start(s)..self.ends[s]], shift }
    }

    /// Whether every step from `from` on equals the step `period` earlier
    /// with each op one level later: the same hosts, op kinds, partners and
    /// guest nodes, every pebble one level later. Tail steps of this period
    /// do by construction; the stored steps are compared in one
    /// branch-free pass over the records, in chunks so that a mismatch
    /// stops it early.
    ///
    /// # Panics
    /// Panics if `period == 0` or `from < period`.
    pub(crate) fn repeats_later(&self, from: usize, period: usize) -> bool {
        assert!(period > 0 && from >= period, "a period needs one earlier copy");
        if self.tail.len > 0 && self.tail.period != period {
            return (from..self.host_steps()).all(|s| self.step(s).repeats(&self.step(s - period)));
        }
        let stored = self.ends.len();
        if from >= stored {
            return true;
        }
        // Ops per period. Equal step lengths are equivalent to every
        // window of `period` steps holding exactly this many ops, which
        // also makes the flat op offset between a step and its copy `per`.
        let per = self.start(from) - self.start(from - period);
        let lengths =
            (from..stored).fold(0, |d, s| d | (self.ends[s] - self.ends[s - period]) ^ per);
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
    /// After a tail, the tail is stored first.
    ///
    /// # Panics
    /// Panics if `ops.len() != m`.
    pub fn push_step(&mut self, ops: &[Op]) {
        assert_eq!(ops.len(), self.host_m, "step must cover every host processor");
        self.materialize();
        for (q, &op) in ops.iter().enumerate() {
            let rec = OpRecord::new(q as Node, op);
            if !rec.is_idle() {
                self.push(rec);
            }
        }
        self.ends.push(self.ops.len());
    }

    /// [`Tail::bits`] of a tail that repeats the last `period` stored
    /// steps.
    fn window_bits(&self, period: usize) -> Vec<[usize; 2]> {
        let first = self.ends.len() - period;
        let mut bits = Vec::with_capacity(period + 1);
        let mut acc = [0; 2];
        bits.push(acc);
        for s in first..first + period {
            for r in &self.ops[self.start(s)..self.ends[s]] {
                acc[0] += (r.0[0] & PEBBLE) as usize;
                acc[1] += (r.0[0] & PARTNER) as usize >> 1;
            }
            bits.push(acc);
        }
        bits
    }

    /// Store the tail's steps and drop the tail. Each period of the tail
    /// is one block copy of the stored window's first steps, then one
    /// branch-free pass that adds the period's level shift to each
    /// record's pebble and counts its kind bits.
    fn materialize(&mut self) {
        if self.tail.period == 0 {
            return;
        }
        let Tail { period, len, .. } = std::mem::take(&mut self.tail);
        let first = self.ends.len() - period;
        for k in 0..len.div_ceil(period) {
            let steps = (len - k * period).min(period);
            let (from, at) = (self.start(first), self.ops.len());
            self.ops.extend_from_within(from..self.start(first + steps));
            for rec in &mut self.ops[at..] {
                let w = rec.0[0];
                *rec = rec.later_by(k as u32 + 1);
                self.kind_bits[0] += (w & PEBBLE) as usize;
                self.kind_bits[1] += (w & PARTNER) as usize >> 1;
            }
            for s in first..first + steps {
                let end = self.ends[s] + (at - from);
                self.ends.push(end);
            }
        }
    }

    /// The tail's op count and kind bits: whole periods of the window,
    /// then the first steps of one more.
    fn tail_counts(&self) -> (usize, [usize; 2]) {
        let Tail { period, len, ref bits } = self.tail;
        if len == 0 {
            return (0, [0; 2]);
        }
        let (whole, rest) = (len / period, len % period);
        let first = self.ends.len() - period;
        let ops = |steps: usize| self.start(first + steps) - self.start(first);
        let ([p, q], [p_rest, q_rest]) = (bits[period], bits[rest]);
        (whole * ops(period) + ops(rest), [whole * p + p_rest, whole * q + q_rest])
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
        self.ops.len() + self.tail_counts().0
    }

    /// Count of operations by kind `(generate, send, recv, idle)`; idle is
    /// `m·T' − busy_ops()`. Kept as ops are appended, so this costs no pass.
    pub fn op_histogram(&self) -> (usize, usize, usize, usize) {
        // Generate carries a pebble, Recv names a partner, Send does both.
        let (tail_ops, [tail_pebble, tail_partner]) = self.tail_counts();
        let busy = self.ops.len() + tail_ops;
        let (pebble, partner) = (self.kind_bits[0] + tail_pebble, self.kind_bits[1] + tail_partner);
        (
            busy - partner,
            pebble + partner - busy,
            busy - pebble,
            self.host_m * self.host_steps() - busy,
        )
    }
}

/// Protocols are equal when they have the same sizes and read the same
/// ops in every step, whether a step is stored or in the tail.
impl PartialEq for Protocol {
    fn eq(&self, other: &Self) -> bool {
        (self.guest_n, self.guest_t, self.host_m, self.host_steps())
            == (other.guest_n, other.guest_t, other.host_m, other.host_steps())
            && self.steps().eq(other.steps())
    }
}

impl Eq for Protocol {}

/// Mutable builder used by the simulators: collects the current step's ops
/// in one `m`-slot scratch row, marks their hosts in a busy-host bitset,
/// and appends them, in ascending host order, to the [`Protocol`] at every
/// [`ProtocolBuilder::end_step`].
#[derive(Debug)]
pub struct ProtocolBuilder {
    proto: Protocol,
    /// Records queued for the *current* host step, one slot per host
    /// (all-zero when idle).
    current: Vec<OpRecord>,
    /// Hosts given a non-idle op in the current step: bit `q % 64` of word
    /// `q / 64`.
    busy: Vec<u64>,
    /// The words of `busy` that are not zero, in the order they were first
    /// set.
    words: Vec<u32>,
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
            busy: vec![0; host_m.div_ceil(64)],
            words: Vec::new(),
            dirty: false,
        }
    }

    /// Host size `m`.
    pub fn host_m(&self) -> usize {
        self.proto.host_m
    }

    /// Queue host `q`'s record `rec` for the current step, marking `q`
    /// busy unless `rec` is idle.
    ///
    /// # Panics
    /// Panics if `q` already has a non-idle op this step.
    #[inline]
    fn put(&mut self, q: Node, rec: OpRecord) {
        let slot = &mut self.current[q as usize];
        assert!(slot.is_idle(), "host {q} already has an op this step: {:?}", slot.op());
        *slot = rec;
        if !rec.is_idle() {
            let (w, bit) = (q as usize / 64, 1u64 << (q % 64));
            if self.busy[w] == 0 {
                self.words.push(w as u32);
            }
            self.busy[w] |= bit;
        }
    }

    /// Set host `q`'s op for the current step.
    ///
    /// # Panics
    /// Panics if `q` already has a non-idle op this step (the model allows
    /// one operation per processor per step).
    pub fn set_op(&mut self, q: Node, op: Op) {
        self.put(q, OpRecord::new(q, op));
        self.dirty = true;
    }

    /// Whether host `q` is free in the current step.
    pub fn is_free(&self, q: Node) -> bool {
        self.current[q as usize].is_idle()
    }

    /// Make room for `records` more non-idle ops over `steps` more steps.
    pub fn reserve(&mut self, records: usize, steps: usize) {
        self.proto.ops.reserve(records);
        self.proto.ends.reserve(steps);
    }

    /// Close the current host step (even if fully idle) and start a new one.
    /// The step's records are appended by walking the busy-host bitset, word
    /// by word in ascending order, so no host list is sorted. After a tail,
    /// the tail is stored first.
    pub fn end_step(&mut self) {
        self.proto.materialize();
        // Usually one or two words; sorting them is far cheaper than
        // sorting the hosts.
        self.words.sort_unstable();
        for &w in &self.words {
            let w = w as usize;
            let mut bits = std::mem::take(&mut self.busy[w]);
            while bits != 0 {
                let q = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.proto.push(std::mem::take(&mut self.current[q]));
            }
        }
        self.words.clear();
        self.proto.ends.push(self.proto.ops.len());
        self.dirty = false;
    }

    /// Append copies of the closed steps `steps`, the same hosts, op kinds
    /// and partners, with every pebble generated or sent one level later.
    ///
    /// A copy at distance `d` (its first step `d` steps before the end)
    /// appended at step `len` reads step `len − d` one level later, which
    /// is exactly a tail step of period `d`. So the copy goes to the
    /// protocol's tail and costs nothing when the tail has period `d` or
    /// there is no tail yet; a copy at another distance stores the current
    /// tail first and starts a new one. An engine that copies each block
    /// from the one before stores no copy at all.
    ///
    /// # Panics
    /// Panics if the current step holds ops or `steps` reaches past the
    /// last closed step.
    pub fn repeat_later(&mut self, steps: std::ops::Range<usize>) {
        assert!(!self.dirty, "close the current step before copying steps");
        let p = &mut self.proto;
        let len = p.host_steps();
        assert!(steps.start <= steps.end && steps.end <= len, "copy only closed steps");
        if steps.is_empty() {
            return;
        }
        let distance = len - steps.start;
        if p.tail.period != distance {
            p.materialize();
            p.tail = Tail { period: distance, len: 0, bits: p.window_bits(distance) };
        }
        p.tail.len += steps.len();
    }

    /// Convenience: schedule a paired send/recv in the current step.
    ///
    /// # Panics
    /// Panics if either endpoint is busy.
    pub fn transfer(&mut self, from: Node, to: Node, pebble: Pebble) {
        self.put(from, OpRecord::new(from, Op::Send { pebble, to }));
        self.put(to, OpRecord::new(to, Op::Recv { from }));
        self.dirty = true;
    }

    /// Store the protocol's tail now; later copies may start a new one.
    #[cfg(test)]
    pub(crate) fn store_tail(&mut self) {
        self.proto.materialize();
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

    /// `p` with its tail stored.
    fn stored(p: &Protocol) -> Protocol {
        let mut p = p.clone();
        p.materialize();
        p
    }

    /// The enum-compare shift scan that [`Protocol::repeats_later`]
    /// replaced: decode both ops and compare them as enums.
    fn repeats_later_reference(p: &Protocol, from: usize, period: usize) -> bool {
        assert!(period > 0 && from >= period, "a period needs one earlier copy");
        let p = &stored(p);
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

        /// Any mix of built steps and `repeat_later` copies of any closed
        /// steps, at any distance, whole periods or not, reads as the
        /// dense rows the copies stand for: `==`, text, ops, op counts, and
        /// the shift scan's verdict for every `(from, period)`. Copies that
        /// repeat the last `d` steps, or continue the last copy's distance,
        /// make tails; any other copy, or a built step, stores them.
        #[test]
        fn copies_read_as_dense_rows(
            lead in rows_strategy(1..4),
            actions in prop::collection::vec(
                (0u8..4, 0usize..64, 0usize..64, rows_strategy(1..2)),
                1..12,
            ),
        ) {
            let m = 4;
            let mut b = ProtocolBuilder::new(6, 4, m);
            let mut rows = ops_of(&lead);
            let build = |b: &mut ProtocolBuilder, row: &[Op]| {
                for (q, &op) in row.iter().enumerate() {
                    b.set_op(q as Node, op);
                }
                b.end_step();
            };
            for row in &rows {
                build(&mut b, row);
            }
            let mut distance = 1;
            for (kind, x, y, row) in actions {
                let len = rows.len();
                let range = match kind {
                    0 => {
                        let row = ops_of(&row).remove(0);
                        build(&mut b, &row);
                        rows.push(row);
                        continue;
                    }
                    // The last `d` steps.
                    1 => len - (x % len + 1)..len,
                    // Part of the period the last copy ran at.
                    2 if distance <= len => {
                        len - distance..len - distance + (y % distance + 1)
                    }
                    _ => {
                        let start = x % len;
                        start..start + y % (len - start + 1)
                    }
                };
                distance = len - range.start;
                b.repeat_later(range.clone());
                for k in range {
                    let later = rows[k].iter().map(|op| op.later()).collect();
                    rows.push(later);
                }
            }
            let built = b.finish();
            let mut dense = Protocol::new(6, 4, m);
            for row in &rows {
                dense.push_step(row);
            }
            prop_assert_eq!(&built, &dense);
            prop_assert_eq!(to_text(&built), to_text(&dense));
            prop_assert_eq!(built.busy_ops(), dense.busy_ops());
            prop_assert_eq!(built.op_histogram(), dense.op_histogram());
            for (s, row) in rows.iter().enumerate() {
                for (q, &op) in row.iter().enumerate() {
                    prop_assert_eq!(built.op(s, q as Node), op, "step {} host {}", s, q);
                }
            }
            let steps = built.host_steps();
            for period in 1..=steps {
                for from in period..=steps {
                    prop_assert_eq!(
                        built.repeats_later(from, period),
                        repeats_later_reference(&dense, from, period),
                        "from {} period {}", from, period
                    );
                }
            }
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

    /// The sort-based step builder the busy-host bitset replaced, kept as
    /// its reference: a step's hosts are listed as they are given ops and
    /// sorted at [`SortBuilder::end_step`].
    struct SortBuilder {
        proto: Protocol,
        current: Vec<OpRecord>,
        touched: Vec<Node>,
    }

    impl SortBuilder {
        fn new(guest_n: usize, guest_t: u32, host_m: usize) -> Self {
            let proto = Protocol::new(guest_n, guest_t, host_m);
            SortBuilder { proto, current: vec![OpRecord::default(); host_m], touched: Vec::new() }
        }

        fn set_op(&mut self, q: Node, op: Op) {
            let slot = &mut self.current[q as usize];
            assert!(slot.is_idle(), "host {q} already has an op this step: {:?}", slot.op());
            *slot = OpRecord::new(q, op);
            if !slot.is_idle() {
                self.touched.push(q);
            }
        }

        fn end_step(&mut self) {
            self.touched.sort_unstable();
            for &q in &self.touched {
                self.proto.push(std::mem::take(&mut self.current[q as usize]));
            }
            self.touched.clear();
            self.proto.ends.push(self.proto.ops.len());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The bitset `end_step` stores every step's records as the sort
        /// reference does, record for record, for hosts spanning several
        /// 64-host words and ops given by `set_op` (`Idle` included) and
        /// `transfer` in any order; a step left open is flushed by
        /// `finish`.
        #[test]
        fn end_step_orders_hosts_like_the_sort(
            m in 1usize..300,
            steps in prop::collection::vec(
                prop::collection::vec((0u8..4, any::<u32>(), any::<u32>(), 0u32..9), 0..48),
                0..6,
            ),
            open in any::<bool>(),
        ) {
            let mut b = ProtocolBuilder::new(7, 8, m);
            let mut reference = SortBuilder::new(7, 8, m);
            let last = steps.len();
            for (k, actions) in steps.iter().enumerate() {
                for &(kind, x, y, t) in actions {
                    let (q, r) = (x % m as Node, y % m as Node);
                    let pebble = Pebble::new(y % 7, t);
                    if !b.is_free(q) {
                        continue;
                    }
                    match kind {
                        0 => {
                            b.set_op(q, Op::Generate(pebble));
                            reference.set_op(q, Op::Generate(pebble));
                        }
                        1 => {
                            b.set_op(q, Op::Idle);
                            reference.set_op(q, Op::Idle);
                        }
                        2 => {
                            b.set_op(q, Op::Recv { from: r });
                            reference.set_op(q, Op::Recv { from: r });
                        }
                        _ if q != r && b.is_free(r) => {
                            b.transfer(q, r, pebble);
                            reference.set_op(q, Op::Send { pebble, to: r });
                            reference.set_op(r, Op::Recv { from: q });
                        }
                        _ => {}
                    }
                }
                if !(open && k + 1 == last) {
                    b.end_step();
                    reference.end_step();
                }
            }
            let dirty = b.dirty;
            let built = b.finish();
            if dirty {
                reference.end_step();
            }
            let reference = reference.proto;
            prop_assert_eq!(&built.ends, &reference.ends);
            prop_assert_eq!(&built.ops, &reference.ops);
            prop_assert_eq!(built.kind_bits, reference.kind_bits);
            prop_assert_eq!(to_text(&built), to_text(&reference));
        }
    }

    #[test]
    #[should_panic(expected = "host 3 already has an op")]
    fn transfer_rejects_a_busy_host() {
        let mut b = ProtocolBuilder::new(2, 1, 5);
        b.set_op(3, Op::Generate(Pebble::new(0, 1)));
        b.transfer(1, 3, Pebble::new(1, 0));
    }

    #[test]
    #[should_panic(expected = "host 2 already has an op")]
    fn transfer_to_itself_is_rejected() {
        ProtocolBuilder::new(2, 1, 5).transfer(2, 2, Pebble::new(1, 0));
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
