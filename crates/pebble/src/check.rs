//! Protocol validity checking and trace extraction.
//!
//! [`check`] replays a [`Protocol`] against the guest and host graphs and
//! either rejects it with a precise [`CheckError`] or returns a [`Trace`]:
//! the complete record of who held which pebble from when — i.e. the sets
//! `Q_S(i, t)` of *representatives* and `Q'_S(i, t)` of *generators* that the
//! paper's entire lower-bound analysis (Section 3.2–3.3) is phrased in.

use crate::protocol::{Op, Pebble, Protocol};
use unet_obs::{NoopRecorder, Recorder};
use unet_topology::util::FxHashMap;
use unet_topology::{Graph, Node};

/// Why a protocol is invalid, with enough context to pinpoint the violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// `Send` targets a processor that is not a host neighbour.
    SendToNonNeighbor {
        /// Host step index.
        step: usize,
        /// Sending processor.
        host: Node,
        /// Intended destination.
        to: Node,
    },
    /// `Send` of a pebble the sender does not hold at the start of the step.
    SendWithoutHolding {
        /// Host step index.
        step: usize,
        /// Sending processor.
        host: Node,
        /// The pebble it claimed to send.
        pebble: Pebble,
    },
    /// `Send` whose destination is not simultaneously receiving from the
    /// sender.
    UnmatchedSend {
        /// Host step index.
        step: usize,
        /// Sending processor.
        host: Node,
        /// Destination whose op is not `Recv { from: host }`.
        to: Node,
    },
    /// `Recv` whose source is not simultaneously sending to the receiver.
    UnmatchedRecv {
        /// Host step index.
        step: usize,
        /// Receiving processor.
        host: Node,
        /// Source whose op is not `Send { to: host, .. }`.
        from: Node,
    },
    /// `Recv` from a processor that is not a host neighbour.
    RecvFromNonNeighbor {
        /// Host step index.
        step: usize,
        /// Receiving processor.
        host: Node,
        /// Claimed source.
        from: Node,
    },
    /// `Generate((P_i, t))` with `t = 0` or `t > T`, or `P_i ≥ n`.
    GenerateOutOfRange {
        /// Host step index.
        step: usize,
        /// Generating processor.
        host: Node,
        /// The offending pebble.
        pebble: Pebble,
    },
    /// `Generate((P_i, t))` while missing a predecessor pebble
    /// `(P_j, t−1)` for `P_j = P_i` or a guest neighbour of `P_i`.
    GenerateMissingPredecessor {
        /// Host step index.
        step: usize,
        /// Generating processor.
        host: Node,
        /// The pebble being generated.
        pebble: Pebble,
        /// The missing predecessor.
        missing: Pebble,
    },
    /// After `T'` steps some final pebble `(P_i, T)` was never generated.
    MissingFinalPebble {
        /// Guest node whose final configuration is missing.
        node: Node,
    },
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for CheckError {}

/// The verified outcome of replaying a protocol: pebble custody records.
///
/// Terminology maps to the paper as:
/// * [`Trace::representatives`]`(i, t)` = `Q_S(i, t)`,
/// * [`Trace::generators`]`(i, t)` = `Q'_S(i, t)`
///   (hosts in `Q_S(i,t)` that generate `(P_i, t+1)`),
/// * [`Trace::weight`]`(i, t)` = `q_{i,t} = |Q_S(i, t)|` (Definition 3.11).
#[derive(Debug, Clone)]
pub struct Trace {
    /// Guest size `n`.
    pub guest_n: usize,
    /// Guest steps `T`.
    pub guest_t: u32,
    /// Host size `m`.
    pub host_m: usize,
    /// Host steps `T'`.
    pub host_steps: usize,
    /// Custody in CSR form: the holders of pebble `idx(i, t)`, `t ≥ 1`,
    /// are `holder_hosts[holder_offsets[idx]..holder_offsets[idx + 1]]`,
    /// in order of first acquisition.
    holder_offsets: Vec<usize>,
    holder_hosts: Vec<Node>,
    /// Host step of each holder's *first* acquisition, parallel to
    /// `holder_hosts` (1-based: a pebble acquired in step τ is usable from
    /// step τ+1; initial pebbles are step 0).
    holder_steps: Vec<u32>,
    /// Hosts that executed `Generate((P_i, t))`, in execution order, laid
    /// out like the holders.
    generator_offsets: Vec<usize>,
    generator_hosts: Vec<Node>,
}

impl Trace {
    #[inline]
    fn idx(&self, i: Node, t: u32) -> usize {
        debug_assert!(t >= 1 && t <= self.guest_t && (i as usize) < self.guest_n);
        (i as usize) * self.guest_t as usize + (t as usize - 1)
    }

    #[inline]
    fn holder_range(&self, i: Node, t: u32) -> std::ops::Range<usize> {
        let idx = self.idx(i, t);
        self.holder_offsets[idx]..self.holder_offsets[idx + 1]
    }

    /// The representatives `Q_S(i, t)`: hosts holding `(P_i, t)` at the end
    /// of the simulation. For `t = 0` every host qualifies (initial pebbles).
    pub fn representatives(&self, i: Node, t: u32) -> RepresentativeSet<'_> {
        if t == 0 {
            RepresentativeSet::All(self.host_m)
        } else {
            RepresentativeSet::Listed(&self.holder_hosts[self.holder_range(i, t)])
        }
    }

    /// Weight `q_{i,t} = |Q_S(i, t)|` (Definition 3.11).
    pub fn weight(&self, i: Node, t: u32) -> usize {
        match self.representatives(i, t) {
            RepresentativeSet::All(m) => m,
            RepresentativeSet::Listed(v) => v.len(),
        }
    }

    /// The generators `Q'_S(i, t)`: hosts that hold `(P_i, t)` and generate
    /// `(P_i, t+1)` during the protocol. Empty iff `(P_i, t+1)` is never
    /// generated; requires `t < T`.
    pub fn generators(&self, i: Node, t: u32) -> &[Node] {
        assert!(t < self.guest_t, "Q'_S(i, t) is defined for t < T");
        self.generated_by(i, t + 1)
    }

    /// Hosts that executed `Generate((P_i, t))`, `t ≥ 1`.
    pub fn generated_by(&self, i: Node, t: u32) -> &[Node] {
        let idx = self.idx(i, t);
        &self.generator_hosts[self.generator_offsets[idx]..self.generator_offsets[idx + 1]]
    }

    /// The holders of `(P_i, t)`, `t ≥ 1`, as `(host, step)` pairs in order
    /// of first acquisition; `step` is the 1-based host step of the
    /// acquisition (see [`Trace::acquisition_step`]). The first pair is the
    /// pebble's first generation.
    pub fn acquisitions(&self, i: Node, t: u32) -> impl ExactSizeIterator<Item = (Node, u32)> + '_ {
        assert!(t >= 1, "initial pebbles are held by every host from step 0");
        assert!(
            t <= self.guest_t && (i as usize) < self.guest_n,
            "pebble ({i}, {t}) lies outside the guest's n = {} nodes and T = {} steps",
            self.guest_n,
            self.guest_t
        );
        let range = self.holder_range(i, t);
        self.holder_hosts[range.clone()]
            .iter()
            .copied()
            .zip(self.holder_steps[range].iter().copied())
    }

    /// Host step (1-based) at which host `q` first acquired `(P_i, t)`;
    /// `Some(0)` for initial pebbles, `None` if `q` never held it.
    pub fn acquisition_step(&self, q: Node, p: Pebble) -> Option<u32> {
        if p.t == 0 {
            return Some(0);
        }
        if p.t > self.guest_t || p.node as usize >= self.guest_n {
            return None;
        }
        self.acquisitions(p.node, p.t).find(|&(h, _)| h == q).map(|(_, step)| step)
    }

    /// Earliest host step after which a *generating* pebble of type
    /// `(P_i, t)` exists: the first acquisition of `(P_i, t)` by any host
    /// that eventually generates `(P_i, t+1)` (the quantity behind
    /// `E_t(τ)` in Definition 3.16). `None` if `(P_i, t+1)` is never
    /// generated.
    pub fn earliest_generating_hold(&self, i: Node, t: u32) -> Option<u32> {
        self.generators(i, t)
            .iter()
            .filter_map(|&q| self.acquisition_step(q, Pebble::new(i, t)))
            .min()
    }

    /// Total pebble-copy count `Σ_{i,t≥1} q_{i,t}` — the quantity the paper
    /// bounds by `m·T' = n·k·T` in Lemma 3.12.
    pub fn total_weight(&self) -> usize {
        self.holder_hosts.len()
    }

    /// Sum of weights at a fixed guest time `t` (the `Σ_i q_{i,t}` that
    /// Lemma 3.13(2) bounds by `384·n·k`).
    pub fn level_weight(&self, t: u32) -> usize {
        (0..self.guest_n as Node).map(|i| self.weight(i, t)).sum()
    }

    /// `P(j, t)` of Lemma 3.15: the guest nodes whose `t`-pebble is held by
    /// host `j`. Computed by scanning level `t`.
    pub fn guests_on_host(&self, j: Node, t: u32) -> Vec<Node> {
        (0..self.guest_n as Node)
            .filter(|&i| match self.representatives(i, t) {
                RepresentativeSet::All(_) => true,
                RepresentativeSet::Listed(v) => v.contains(&j),
            })
            .collect()
    }
}

/// A view of `Q_S(i, t)` that avoids materializing the all-hosts set for the
/// initial pebbles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepresentativeSet<'a> {
    /// Every host holds the pebble (only for `t = 0`).
    All(usize),
    /// Exactly these hosts hold the pebble.
    Listed(&'a [Node]),
}

impl RepresentativeSet<'_> {
    /// Number of representatives.
    pub fn len(&self) -> usize {
        match self {
            RepresentativeSet::All(m) => *m,
            RepresentativeSet::Listed(v) => v.len(),
        }
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership test.
    pub fn contains(&self, q: Node) -> bool {
        match self {
            RepresentativeSet::All(m) => (q as usize) < *m,
            RepresentativeSet::Listed(v) => v.contains(&q),
        }
    }

    /// Materialize as a vector.
    pub fn to_vec(&self) -> Vec<Node> {
        match self {
            RepresentativeSet::All(m) => (0..*m as Node).collect(),
            RepresentativeSet::Listed(v) => v.to_vec(),
        }
    }
}

/// Replay `proto` against `guest` and `host`, enforcing every rule of the
/// Section 3.1 pebble game, and return the custody [`Trace`].
///
/// Rules enforced:
/// 1. each of the `m` processors does at most one op per step (idle when
///    none is stored);
/// 2. sends go to host neighbours, carry a held pebble, and pair with a
///    matching receive (one receive per processor per step);
/// 3. generations have all predecessor pebbles present *before* the step;
/// 4. every final pebble `(P_i, T)` is generated by the end.
///
/// Violations are reported in protocol order: the first offending op by
/// step, then by ascending host.
pub fn check(guest: &Graph, host: &Graph, proto: &Protocol) -> Result<Trace, CheckError> {
    check_recorded(guest, host, proto, &mut NoopRecorder)
}

/// [`check`] with instrumentation. Emits, under the `pebble.check` span:
///
/// * counters `pebble.ops.idle` / `.generate` / `.send` / `.recv` — the
///   protocol's op mix (counted from the protocol, so they are exact even
///   when the replay rejects);
/// * counter `pebble.acquisitions` — distinct (host, pebble) custody
///   records created (`Σ q_{i,t}`, the quantity of Lemma 3.12);
/// * histogram `pebble.level_weight` — `Σ_i q_{i,t}` per guest level
///   `t ≥ 1`: how fragmented each level's pebble copies are across hosts
///   (Lemma 3.13(2) bounds this by `384·n·k`);
/// * histogram `pebble.holders_per_pebble` — `q_{i,t}` per pebble type.
///
/// The span is closed on rejection too, so a trace containing a failed
/// check still balances.
pub fn check_recorded<REC: Recorder + ?Sized>(
    guest: &Graph,
    host: &Graph,
    proto: &Protocol,
    rec: &mut REC,
) -> Result<Trace, CheckError> {
    rec.span_start("pebble.check");
    let result = check_impl(guest, host, proto);
    rec.span_end("pebble.check");
    let (generate, send, recv, idle) = proto.op_histogram();
    rec.counter("pebble.ops.idle", idle as u64);
    rec.counter("pebble.ops.generate", generate as u64);
    rec.counter("pebble.ops.send", send as u64);
    rec.counter("pebble.ops.recv", recv as u64);
    if let Ok(trace) = &result {
        rec.counter("pebble.acquisitions", trace.total_weight() as u64);
        for t in 1..=trace.guest_t {
            rec.histogram("pebble.level_weight", trace.level_weight(t) as u64);
        }
        for w in trace.holder_offsets.windows(2) {
            rec.histogram("pebble.holders_per_pebble", (w[1] - w[0]) as u64);
        }
    }
    result
}

/// Custody during the replay: which `(host, pebble)` pairs with `t ≥ 1`
/// have been acquired so far. One `u64` level mask per host, guest node and
/// block of 64 guest levels, so the map holds at most one entry per
/// acquisition and usually far fewer.
struct Custody {
    masks: FxHashMap<u64, u64>,
    n: u64,
    words: u64,
}

impl Custody {
    fn new(n: usize, t_max: u32, m: usize) -> Self {
        let words = u64::from(t_max / 64 + 1);
        assert!(
            (m as u64).checked_mul(n as u64).and_then(|x| x.checked_mul(words)).is_some(),
            "custody keys of an {m}-host, {n}-guest, T = {t_max} protocol overflow u64"
        );
        Custody { masks: FxHashMap::default(), n: n as u64, words }
    }

    /// Map key and bit of a pebble already known to be in range.
    #[inline]
    fn slot(&self, q: Node, p: Pebble) -> (u64, u64) {
        let key = (u64::from(q) * self.n + u64::from(p.node)) * self.words + u64::from(p.t / 64);
        (key, 1 << (p.t % 64))
    }

    /// Whether `q` holds the in-range pebble `p` with `p.t ≥ 1`.
    #[inline]
    fn holds(&self, q: Node, p: Pebble) -> bool {
        let (key, bit) = self.slot(q, p);
        self.masks.get(&key).is_some_and(|&mask| mask & bit != 0)
    }

    /// Record that `q` holds `p`; `true` on the first acquisition.
    #[inline]
    fn acquire(&mut self, q: Node, p: Pebble) -> bool {
        let (key, bit) = self.slot(q, p);
        let mask = self.masks.entry(key).or_insert(0);
        let fresh = *mask & bit == 0;
        *mask |= bit;
        fresh
    }
}

/// Group `(pebble index, payload)` records by pebble with a stable
/// counting sort: `emit(slot, payload)` places each payload so that every
/// pebble's payloads are contiguous and in log order. Returns the
/// per-pebble offsets into the slots (length `pebbles + 1`).
fn csr<P: Copy>(pebbles: usize, log: &[(usize, P)], mut emit: impl FnMut(usize, P)) -> Vec<usize> {
    let mut offsets = vec![0usize; pebbles + 1];
    for &(idx, _) in log {
        offsets[idx + 1] += 1;
    }
    for i in 0..pebbles {
        offsets[i + 1] += offsets[i];
    }
    let mut cursor = offsets[..pebbles].to_vec();
    for &(idx, payload) in log {
        emit(cursor[idx], payload);
        cursor[idx] += 1;
    }
    offsets
}

fn check_impl(guest: &Graph, host: &Graph, proto: &Protocol) -> Result<Trace, CheckError> {
    let n = proto.guest_n;
    let t_max = proto.guest_t;
    let m = proto.host_m;
    assert_eq!(guest.n(), n, "guest graph size mismatch");
    assert_eq!(host.n(), m, "host graph size mismatch");

    let pebbles = n * t_max as usize;
    let idx = |p: Pebble| (p.node as usize) * t_max as usize + (p.t as usize - 1);
    let mut custody = Custody::new(n, t_max, m);
    // Holding test with "strictly before this step" semantics: effects are
    // applied only after every op of the step has been validated.
    let held_before = |custody: &Custody, q: Node, p: Pebble| -> bool {
        if p.node as usize >= n || p.t > t_max {
            return false;
        }
        p.t == 0 || custody.holds(q, p)
    };
    // (pebble index, (host, step)) per first acquisition, and
    // (pebble index, host) per generation, in replay order.
    let mut acquired: Vec<(usize, (Node, u32))> = Vec::new();
    let mut generated: Vec<(usize, Node)> = Vec::new();
    // The current step's ops by host, to pair sends with receives.
    let mut row = vec![Op::Idle; m];

    for (step0, ops) in proto.steps().enumerate() {
        let step = step0 as u32 + 1; // 1-based host time
        for &(q, op) in ops {
            row[q as usize] = op;
        }
        // Phase 1: validate every op against the *pre-step* state.
        for &(q, op) in ops {
            match op {
                Op::Idle => {}
                Op::Generate(p) => {
                    if p.t == 0 || p.t > t_max || p.node as usize >= n {
                        return Err(CheckError::GenerateOutOfRange {
                            step: step0,
                            host: q,
                            pebble: p,
                        });
                    }
                    let own = Pebble::new(p.node, p.t - 1);
                    if !held_before(&custody, q, own) {
                        return Err(CheckError::GenerateMissingPredecessor {
                            step: step0,
                            host: q,
                            pebble: p,
                            missing: own,
                        });
                    }
                    for &nb in guest.neighbors(p.node) {
                        let pred = Pebble::new(nb, p.t - 1);
                        if !held_before(&custody, q, pred) {
                            return Err(CheckError::GenerateMissingPredecessor {
                                step: step0,
                                host: q,
                                pebble: p,
                                missing: pred,
                            });
                        }
                    }
                }
                Op::Send { pebble, to } => {
                    if !host.has_edge(q, to) {
                        return Err(CheckError::SendToNonNeighbor { step: step0, host: q, to });
                    }
                    if !held_before(&custody, q, pebble) {
                        return Err(CheckError::SendWithoutHolding {
                            step: step0,
                            host: q,
                            pebble,
                        });
                    }
                    if !matches!(row[to as usize], Op::Recv { from } if from == q) {
                        return Err(CheckError::UnmatchedSend { step: step0, host: q, to });
                    }
                }
                Op::Recv { from } => {
                    if !host.has_edge(q, from) {
                        return Err(CheckError::RecvFromNonNeighbor { step: step0, host: q, from });
                    }
                    if !matches!(row[from as usize], Op::Send { to, .. } if to == q) {
                        return Err(CheckError::UnmatchedRecv { step: step0, host: q, from });
                    }
                }
            }
        }
        // Phase 2: apply effects (pebbles become available *after* the step).
        for &(q, op) in ops {
            let got = match op {
                Op::Generate(p) => {
                    generated.push((idx(p), q));
                    p
                }
                Op::Recv { from } => match row[from as usize] {
                    Op::Send { pebble, .. } if pebble.t > 0 => pebble,
                    _ => continue,
                },
                _ => continue,
            };
            if custody.acquire(q, got) {
                acquired.push((idx(got), (q, step)));
            }
        }
        for &(q, _) in ops {
            row[q as usize] = Op::Idle;
        }
    }

    let mut generator_hosts = vec![0; generated.len()];
    let generator_offsets = csr(pebbles, &generated, |at, q| generator_hosts[at] = q);
    // Final-pebble condition (vacuous for T = 0: the finals are initial).
    for i in (0..n as Node).filter(|_| t_max > 0) {
        let last = idx(Pebble::new(i, t_max));
        if generator_offsets[last] == generator_offsets[last + 1] {
            return Err(CheckError::MissingFinalPebble { node: i });
        }
    }
    let (mut holder_hosts, mut holder_steps) = (vec![0; acquired.len()], vec![0; acquired.len()]);
    let holder_offsets = csr(pebbles, &acquired, |at, (q, step)| {
        holder_hosts[at] = q;
        holder_steps[at] = step;
    });
    Ok(Trace {
        guest_n: n,
        guest_t: t_max,
        host_m: m,
        host_steps: proto.host_steps(),
        holder_offsets,
        holder_hosts,
        holder_steps,
        generator_offsets,
        generator_hosts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ProtocolBuilder;
    use unet_topology::generators::{complete, ring};

    /// Smallest interesting scenario: guest = 3-ring, host = K2.
    /// Host 0 generates everything (it holds all initial pebbles).
    fn tiny_valid_protocol() -> (Graph, Graph, Protocol) {
        let guest = ring(3);
        let host = complete(2);
        let mut b = ProtocolBuilder::new(3, 1, 2);
        for i in 0..3u32 {
            b.set_op(0, Op::Generate(Pebble::new(i, 1)));
            b.end_step();
        }
        (guest, host, b.finish())
    }

    #[test]
    fn valid_protocol_accepted() {
        let (guest, host, proto) = tiny_valid_protocol();
        let trace = check(&guest, &host, &proto).expect("valid");
        assert_eq!(trace.host_steps, 3);
        for i in 0..3u32 {
            assert_eq!(trace.representatives(i, 1).to_vec(), vec![0]);
            assert_eq!(trace.weight(i, 1), 1);
            assert_eq!(trace.generated_by(i, 1), &[0]);
        }
        assert_eq!(trace.total_weight(), 3);
        assert_eq!(trace.level_weight(1), 3);
        assert_eq!(trace.level_weight(0), 6); // 3 guests × 2 hosts (initial)
        assert_eq!(trace.guests_on_host(1, 0), vec![0, 1, 2]);
        assert!(trace.guests_on_host(1, 1).is_empty());
    }

    #[test]
    fn missing_final_pebble_detected() {
        let guest = ring(3);
        let host = complete(2);
        let mut b = ProtocolBuilder::new(3, 1, 2);
        b.set_op(0, Op::Generate(Pebble::new(0, 1)));
        b.end_step();
        b.set_op(0, Op::Generate(Pebble::new(1, 1)));
        b.end_step();
        let proto = b.finish();
        assert_eq!(
            check(&guest, &host, &proto).unwrap_err(),
            CheckError::MissingFinalPebble { node: 2 }
        );
    }

    #[test]
    fn generate_without_predecessor_detected() {
        let guest = ring(3);
        let host = complete(2);
        let mut b = ProtocolBuilder::new(3, 2, 2);
        // (P0, 2) needs (P0,1), (P1,1), (P2,1) — none generated yet.
        b.set_op(0, Op::Generate(Pebble::new(0, 2)));
        b.end_step();
        let proto = b.finish();
        let err = check(&guest, &host, &proto).unwrap_err();
        assert!(matches!(err, CheckError::GenerateMissingPredecessor { pebble, .. }
            if pebble == Pebble::new(0, 2)));
    }

    #[test]
    fn generate_same_step_dependency_rejected() {
        // A pebble generated in step τ is not available to another generate
        // in the same step τ (effects apply after the step).
        let guest = ring(3);
        let host = complete(2);
        let mut b = ProtocolBuilder::new(3, 2, 2);
        for i in 0..3u32 {
            b.set_op(0, Op::Generate(Pebble::new(i, 1)));
            b.end_step();
        }
        // Host 0 holds (·,1) for all i after step 3; generating (0,2) at
        // step 4 is fine, but a second-level generate in the same step that
        // needs (0,2) must fail.
        b.set_op(0, Op::Generate(Pebble::new(0, 2)));
        b.end_step();
        let proto_ok = b.finish();
        assert!(check(&guest, &host, &proto_ok).is_err()); // finals (1,2),(2,2) missing
    }

    #[test]
    fn unmatched_send_detected() {
        let guest = ring(3);
        let host = complete(2);
        let mut b = ProtocolBuilder::new(3, 1, 2);
        b.set_op(0, Op::Send { pebble: Pebble::new(0, 0), to: 1 });
        b.end_step();
        let proto = b.finish();
        assert_eq!(
            check(&guest, &host, &proto).unwrap_err(),
            CheckError::UnmatchedSend { step: 0, host: 0, to: 1 }
        );
    }

    #[test]
    fn unmatched_recv_detected() {
        let guest = ring(3);
        let host = complete(2);
        let mut b = ProtocolBuilder::new(3, 1, 2);
        b.set_op(1, Op::Recv { from: 0 });
        b.end_step();
        let proto = b.finish();
        assert_eq!(
            check(&guest, &host, &proto).unwrap_err(),
            CheckError::UnmatchedRecv { step: 0, host: 1, from: 0 }
        );
    }

    #[test]
    fn send_to_non_neighbor_detected() {
        let guest = ring(4);
        let host = crate::test_support::path_host(3); // 0-1-2
        let mut b = ProtocolBuilder::new(4, 1, 3);
        b.set_op(0, Op::Send { pebble: Pebble::new(0, 0), to: 2 });
        b.set_op(2, Op::Recv { from: 0 });
        b.end_step();
        let proto = b.finish();
        assert_eq!(
            check(&guest, &host, &proto).unwrap_err(),
            CheckError::SendToNonNeighbor { step: 0, host: 0, to: 2 }
        );
    }

    #[test]
    fn send_without_holding_detected() {
        let guest = ring(3);
        let host = complete(2);
        let mut b = ProtocolBuilder::new(3, 1, 2);
        b.transfer(0, 1, Pebble::new(0, 1)); // (0,1) not yet generated
        b.end_step();
        let proto = b.finish();
        assert_eq!(
            check(&guest, &host, &proto).unwrap_err(),
            CheckError::SendWithoutHolding { step: 0, host: 0, pebble: Pebble::new(0, 1) }
        );
    }

    #[test]
    fn sent_pebble_usable_next_step() {
        // Host 0 generates (0,1)..(2,1), ships them to host 1, and host 1
        // generates (0,2) — exercising transfer timing.
        let guest = ring(3);
        let host = complete(2);
        let mut b = ProtocolBuilder::new(3, 2, 2);
        for i in 0..3u32 {
            b.set_op(0, Op::Generate(Pebble::new(i, 1)));
            b.end_step();
        }
        for i in 0..3u32 {
            b.transfer(0, 1, Pebble::new(i, 1));
            b.end_step();
        }
        for i in 0..3u32 {
            b.set_op(1, Op::Generate(Pebble::new(i, 2)));
            b.end_step();
        }
        let proto = b.finish();
        let trace = check(&guest, &host, &proto).expect("valid");
        // Host 1 holds (0,1) (received) and generated (0,2).
        assert!(trace.representatives(0, 1).contains(1));
        assert_eq!(trace.generated_by(0, 2), &[1]);
        // Q'_S(0,1) = {1}.
        assert_eq!(trace.generators(0, 1), &[1]);
        // Acquisition steps: host 1 got (0,1) at step 4 (1-based).
        assert_eq!(trace.acquisition_step(1, Pebble::new(0, 1)), Some(4));
        assert_eq!(trace.acquisition_step(0, Pebble::new(0, 1)), Some(1));
        assert_eq!(trace.acquisition_step(0, Pebble::new(0, 0)), Some(0));
        assert_eq!(trace.acquisition_step(0, Pebble::new(0, 2)), None);
        // Holders in first-acquisition order, with their steps.
        assert_eq!(trace.acquisitions(0, 1).collect::<Vec<_>>(), vec![(0, 1), (1, 4)]);
        assert_eq!(trace.acquisitions(0, 2).collect::<Vec<_>>(), vec![(1, 7)]);
        // Earliest generating hold of (0,1): host 1 at step 4.
        assert_eq!(trace.earliest_generating_hold(0, 1), Some(4));
    }

    /// A checked two-step run on `ring(3) → complete(2)`: host 0 generates
    /// every pebble of both levels.
    fn two_level_trace() -> Trace {
        let mut b = ProtocolBuilder::new(3, 2, 2);
        for t in 1..=2u32 {
            for i in 0..3u32 {
                b.set_op(0, Op::Generate(Pebble::new(i, t)));
                b.end_step();
            }
        }
        check(&ring(3), &complete(2), &b.finish()).expect("valid")
    }

    #[test]
    #[should_panic(expected = "lies outside")]
    fn acquisitions_reject_steps_past_t() {
        // (0, 3) would index into (1, 1)'s holders.
        two_level_trace().acquisitions(0, 3).for_each(drop);
    }

    #[test]
    #[should_panic(expected = "lies outside")]
    fn acquisitions_reject_nodes_past_n() {
        let trace = two_level_trace();
        assert_eq!(trace.acquisition_step(0, Pebble::new(3, 1)), None);
        trace.acquisitions(3, 1).for_each(drop);
    }

    #[test]
    fn generate_out_of_range_detected() {
        let guest = ring(3);
        let host = complete(2);
        let mut b = ProtocolBuilder::new(3, 1, 2);
        b.set_op(0, Op::Generate(Pebble::new(0, 5)));
        b.end_step();
        let proto = b.finish();
        assert!(matches!(check(&guest, &host, &proto), Err(CheckError::GenerateOutOfRange { .. })));
    }

    #[test]
    fn recorded_check_counts_ops_and_fragments() {
        use unet_obs::InMemoryRecorder;
        let (guest, host, proto) = tiny_valid_protocol();
        let mut rec = InMemoryRecorder::new();
        let trace = check_recorded(&guest, &host, &proto, &mut rec).expect("valid");
        assert!(rec.open_spans().is_empty());
        // 3 steps × 2 hosts: 3 generates, 3 idles, no transfers.
        assert_eq!(rec.counter_value("pebble.ops.generate"), 3);
        assert_eq!(rec.counter_value("pebble.ops.idle"), 3);
        assert_eq!(rec.counter_value("pebble.ops.send"), 0);
        assert_eq!(rec.counter_value("pebble.ops.recv"), 0);
        assert_eq!(rec.counter_value("pebble.acquisitions"), trace.total_weight() as u64);
        let lw = rec.histogram_data("pebble.level_weight").unwrap();
        assert_eq!(lw.count, 1); // one non-initial level
        assert_eq!(lw.max, trace.level_weight(1) as u64);
        let hp = rec.histogram_data("pebble.holders_per_pebble").unwrap();
        assert_eq!(hp.count, 3); // one entry per (i, t≥1) pebble type
    }

    #[test]
    fn recorded_check_balances_on_rejection() {
        use unet_obs::InMemoryRecorder;
        let guest = ring(3);
        let host = complete(2);
        let mut b = ProtocolBuilder::new(3, 1, 2);
        b.set_op(0, Op::Send { pebble: Pebble::new(0, 0), to: 1 });
        b.end_step();
        let proto = b.finish();
        let mut rec = InMemoryRecorder::new();
        assert!(check_recorded(&guest, &host, &proto, &mut rec).is_err());
        assert!(rec.open_spans().is_empty(), "span must close on rejection");
        // Op mix still reported (it is a property of the protocol).
        assert_eq!(rec.counter_value("pebble.ops.send"), 1);
        // No custody stats for a rejected protocol (absent counters read 0).
        assert_eq!(rec.counter_value("pebble.acquisitions"), 0);
        assert!(rec.histogram_data("pebble.level_weight").is_none());
    }

    #[test]
    fn inefficiency_of_tiny_protocol() {
        let (_, _, proto) = tiny_valid_protocol();
        // T' = 3, T = 1, m = 2, n = 3: s = 3, k = 3·2/3 = 2.
        assert_eq!(proto.slowdown(), 3.0);
        assert_eq!(proto.inefficiency(), 2.0);
    }
}
