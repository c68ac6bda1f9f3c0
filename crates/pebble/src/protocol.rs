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

impl Op {
    /// The same op one guest level later: the pebble it generates or sends,
    /// `(P_i, t)`, becomes `(P_i, t + 1)`; hosts and guest nodes stay.
    #[inline]
    pub(crate) fn later(self) -> Op {
        match self {
            Op::Generate(p) => Op::Generate(Pebble::new(p.node, p.t + 1)),
            Op::Send { pebble, to } => {
                Op::Send { pebble: Pebble::new(pebble.node, pebble.t + 1), to }
            }
            other => other,
        }
    }
}

/// A complete simulation protocol: for every host step `τ < T'` and every
/// host processor `q < m`, the operation [`Protocol::op`]`(τ, q)`.
///
/// Only non-idle operations are stored: one flat list of `(host, op)`
/// entries ordered by step, then by ascending host, plus the end offset of
/// each step. A host with no entry in a step is idle. The layout is
/// canonical, so equal protocols compare `==` however they were built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Protocol {
    /// Number of guest processors `n`.
    pub guest_n: usize,
    /// Number of guest steps `T` being simulated.
    pub guest_t: u32,
    /// Number of host processors `m`.
    pub host_m: usize,
    /// Non-idle ops, grouped by step, ascending host within a step.
    ops: Vec<(Node, Op)>,
    /// `ends[τ]`: end offset of step `τ` in `ops`; `ends.len() = T'`.
    ends: Vec<usize>,
}

impl Protocol {
    /// Empty protocol skeleton.
    pub fn new(guest_n: usize, guest_t: u32, host_m: usize) -> Self {
        Protocol { guest_n, guest_t, host_m, ops: Vec::new(), ends: Vec::new() }
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

    /// The non-idle ops of host step `τ`, in ascending host order.
    ///
    /// # Panics
    /// Panics if `τ ≥ T'`.
    #[inline]
    pub fn step(&self, tau: usize) -> &[(Node, Op)] {
        &self.ops[self.start(tau)..self.ends[tau]]
    }

    /// Whether every step from `from` on equals the step `period` earlier
    /// with each op [`Op::later`]: the same hosts, op kinds, partners and
    /// guest nodes, every pebble one level later.
    ///
    /// # Panics
    /// Panics if `period == 0` or `from < period`.
    pub(crate) fn repeats_later(&self, from: usize, period: usize) -> bool {
        assert!(period > 0 && from >= period, "a period needs one earlier copy");
        // Ops per period. Equal step lengths are equivalent to every
        // window of `period` steps holding exactly this many ops, which
        // also makes the flat op offset between a step and its copy `per`.
        let per = self.start(from) - self.start(from - period);
        (from..self.host_steps()).all(|s| self.ends[s] - self.ends[s - period] == per)
            && self.ops[self.start(from)..]
                .iter()
                .zip(&self.ops[self.start(from) - per..])
                .all(|(&(q, op), &(q0, op0))| q == q0 && op == op0.later())
    }

    /// The non-idle ops of every host step, in step order.
    pub fn steps(&self) -> impl ExactSizeIterator<Item = &[(Node, Op)]> + '_ {
        (0..self.host_steps()).map(|tau| self.step(tau))
    }

    /// Op of host `q` at host step `τ` (`Idle` when none is stored).
    ///
    /// # Panics
    /// Panics if `τ ≥ T'`.
    pub fn op(&self, tau: usize, q: Node) -> Op {
        let row = self.step(tau);
        row.binary_search_by_key(&q, |&(h, _)| h).map_or(Op::Idle, |at| row[at].1)
    }

    /// Append one host step given densely: `ops[q]` is host `q`'s op.
    ///
    /// # Panics
    /// Panics if `ops.len() != m`.
    pub fn push_step(&mut self, ops: &[Op]) {
        assert_eq!(ops.len(), self.host_m, "step must cover every host processor");
        self.ops.extend(
            ops.iter()
                .enumerate()
                .filter(|(_, op)| !matches!(op, Op::Idle))
                .map(|(q, &op)| (q as Node, op)),
        );
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
    /// `m·T' − busy_ops()`.
    pub fn op_histogram(&self) -> (usize, usize, usize, usize) {
        let mut h = (0, 0, 0, self.host_m * self.host_steps() - self.busy_ops());
        for (_, op) in &self.ops {
            match op {
                Op::Generate(_) => h.0 += 1,
                Op::Send { .. } => h.1 += 1,
                Op::Recv { .. } => h.2 += 1,
                Op::Idle => unreachable!("idle ops are never stored"),
            }
        }
        h
    }
}

/// Mutable builder used by the simulators: collects the current step's ops
/// in one `m`-slot scratch row and appends the touched hosts, in ascending
/// order, to the [`Protocol`] at every [`ProtocolBuilder::end_step`].
#[derive(Debug)]
pub struct ProtocolBuilder {
    proto: Protocol,
    /// Ops queued for the *current* host step, one slot per host.
    current: Vec<Op>,
    /// Hosts given a non-idle op in the current step.
    touched: Vec<Node>,
    dirty: bool,
}

impl ProtocolBuilder {
    /// Start building a protocol for `n` guests, `T` guest steps, `m` hosts.
    pub fn new(guest_n: usize, guest_t: u32, host_m: usize) -> Self {
        ProtocolBuilder {
            proto: Protocol::new(guest_n, guest_t, host_m),
            current: vec![Op::Idle; host_m],
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
        assert!(matches!(slot, Op::Idle), "host {q} already has an op this step: {slot:?}");
        *slot = op;
        if !matches!(op, Op::Idle) {
            self.touched.push(q);
        }
        self.dirty = true;
    }

    /// Whether host `q` is free in the current step.
    pub fn is_free(&self, q: Node) -> bool {
        matches!(self.current[q as usize], Op::Idle)
    }

    /// Close the current host step (even if fully idle) and start a new one.
    pub fn end_step(&mut self) {
        self.touched.sort_unstable();
        for &q in &self.touched {
            let op = std::mem::replace(&mut self.current[q as usize], Op::Idle);
            self.proto.ops.push((q, op));
        }
        self.touched.clear();
        self.proto.ends.push(self.proto.ops.len());
        self.dirty = false;
    }

    /// Append copies of the closed steps `steps`, the same hosts, op kinds
    /// and partners, with every pebble generated or sent one level later.
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
        for (_, op) in &mut p.ops[from + shift..] {
            *op = op.later();
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
