//! Protocol validity checking and trace extraction.
//!
//! [`check`] replays a [`Protocol`] against the guest and host graphs and
//! either rejects it with a precise [`CheckError`] or returns a [`Trace`]:
//! the complete record of who held which pebble from when — i.e. the sets
//! `Q_S(i, t)` of *representatives* and `Q'_S(i, t)` of *generators* that the
//! paper's entire lower-bound analysis (Section 3.2–3.3) is phrased in.

use crate::protocol::{OpRecord, Pebble, Protocol, GENERATE, RECV, SEND};
use unet_obs::{NoopRecorder, Recorder};
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
    /// The protocol's guest size `n` differs from the guest graph's.
    GuestSizeMismatch {
        /// `n` in the protocol.
        protocol: usize,
        /// Nodes of the guest graph.
        graph: usize,
    },
    /// The protocol's host size `m` differs from the host graph's.
    HostSizeMismatch {
        /// `m` in the protocol.
        protocol: usize,
        /// Nodes of the host graph.
        graph: usize,
    },
    /// The replay's custody would take more than 2^34 bits: one bit per
    /// (level, host, guest), rounded up to whole 64 × 64 tiles.
    CustodyTooLarge {
        /// Hosts `m`.
        hosts: usize,
        /// Guests `n`.
        guests: usize,
        /// Guest levels the replay can reach.
        levels: u32,
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
///
/// A periodic protocol's trace stores level 1 only: level `ℓ ≥ 2` is
/// read as level 1 with every step `(ℓ − 1)·P` later, and level `T` as
/// the first `last[i]` of those records (see [`check`]). `==` compares
/// the custody as read, however it is stored.
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
    /// Levels stored: `T`, or 1 under a period.
    levels: u32,
    /// Host steps per level under a period, else 0.
    period: u32,
    /// Under a period, per guest node, how many of its level-1 holders
    /// level `T` keeps (its `B1`-generation part); else empty.
    last: Vec<usize>,
    /// Custody in CSR form: the holders of stored pebble `(i, t)`, `t ≥ 1`,
    /// at `k = i·levels + t − 1`, are
    /// `holder_hosts[holder_offsets[k]..holder_offsets[k + 1]]`, in order
    /// of first acquisition.
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
    /// The stored slot pebble `(i, t)`, `t ≥ 1`, is read from, and how
    /// many host steps later.
    #[inline]
    fn slot(&self, i: Node, t: u32) -> (usize, u32) {
        debug_assert!(t >= 1 && t <= self.guest_t && (i as usize) < self.guest_n);
        let stored = t.min(self.levels);
        (i as usize * self.levels as usize + (stored as usize - 1), (t - stored) * self.period)
    }

    /// Where `(i, t)`'s holders are stored, and how many host steps later
    /// they are read.
    #[inline]
    fn holder_range(&self, i: Node, t: u32) -> (std::ops::Range<usize>, u32) {
        let (k, shift) = self.slot(i, t);
        let start = self.holder_offsets[k];
        let end = if t > self.levels && t == self.guest_t {
            start + self.last[i as usize]
        } else {
            self.holder_offsets[k + 1]
        };
        (start..end, shift)
    }

    /// The representatives `Q_S(i, t)`: hosts holding `(P_i, t)` at the end
    /// of the simulation. For `t = 0` every host qualifies (initial pebbles).
    pub fn representatives(&self, i: Node, t: u32) -> RepresentativeSet<'_> {
        if t == 0 {
            RepresentativeSet::All(self.host_m)
        } else {
            RepresentativeSet::Listed(&self.holder_hosts[self.holder_range(i, t).0])
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
        let (k, _) = self.slot(i, t);
        &self.generator_hosts[self.generator_offsets[k]..self.generator_offsets[k + 1]]
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
        let (range, shift) = self.holder_range(i, t);
        self.holder_hosts[range.clone()]
            .iter()
            .copied()
            .zip(self.holder_steps[range].iter().map(move |&step| step + shift))
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
        let derived = if self.levels < self.guest_t {
            // Levels 2..T−1 repeat level 1; level T keeps `last`.
            let middle = (self.guest_t - self.levels - 1) as usize;
            middle * self.level_weight(self.levels) + self.last.iter().sum::<usize>()
        } else {
            0
        };
        self.holder_hosts.len() + derived
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

    /// `q_{i,t}` of every pebble type `(i, t)`, `t ≥ 1`, node-major: each
    /// node's stored levels, then its derived ones.
    fn weights(&self) -> impl Iterator<Item = usize> + '_ {
        let l = self.levels as usize;
        self.holder_offsets.windows(2).enumerate().flat_map(move |(k, w)| {
            // A node's last stored level is followed by its derived ones:
            // it again up to level T − 1, then level T's `last`.
            let derived = if (k + 1) % l == 0 { (self.guest_t - self.levels) as usize } else { 0 };
            let last = (derived > 0).then(|| self.last[k / l]);
            std::iter::repeat_n(w[1] - w[0], derived.max(1)).chain(last)
        })
    }

    /// Every pebble type `(i, t)`, `t ≥ 1`, node-major.
    fn pebbles(&self) -> impl Iterator<Item = (Node, u32)> {
        let t_max = self.guest_t;
        (0..self.guest_n as Node).flat_map(move |i| (1..=t_max).map(move |t| (i, t)))
    }
}

/// Traces are equal when they have the same sizes and every pebble type
/// has the same holders, acquisition steps and generators, stored or
/// derived.
impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        (self.guest_n, self.guest_t, self.host_m, self.host_steps)
            == (other.guest_n, other.guest_t, other.host_m, other.host_steps)
            && self.pebbles().all(|(i, t)| {
                self.generated_by(i, t) == other.generated_by(i, t)
                    && self.acquisitions(i, t).eq(other.acquisitions(i, t))
            })
    }
}

impl Eq for Trace {}

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
///
/// A protocol that repeats one plan period level after level, as the
/// Theorem 2.1 engine emits it, is decided by replaying its first two
/// guest-step blocks and scanning the rest for exact level-shifted copies
/// (see `periodic_form` in the source for the conditions and the argument).
/// Tail steps of a protocol that stores its period once pass the scan by
/// construction. Verdict and trace are the full replay's; the trace stores
/// level 1 and reads every later level from it. Any other protocol is
/// replayed in full, tail steps included.
///
/// Memory: custody is one bitset of `m·n·L` bits, `L` the levels the
/// replay can reach (1 under a period, else `min(T, T')`, at least 1). It
/// reserves `m·n·L/8` bytes of zeroed address space and pages in only the
/// 64 × 64 tiles in use. Past 2^34 bits the check returns
/// [`CheckError::CustodyTooLarge`] before allocating anything.
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
/// * histogram `pebble.holders_per_pebble` — `q_{i,t}` per pebble type;
/// * counter `pebble.check.shifted_steps` — host steps accepted by the
///   shift scan of a periodic protocol instead of replayed, `B3..BT`
///   (`(T − 2)·P`), or 0 when the whole protocol was replayed.
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
    let form = periodic_form(proto);
    let result = replay(guest, host, proto, form);
    rec.span_end("pebble.check");
    rec.counter(
        "pebble.check.shifted_steps",
        form.map_or(0, |f| f.shifted_steps(proto.guest_t)) as u64,
    );
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
        for weight in trace.weights() {
            rec.histogram("pebble.holders_per_pebble", weight as u64);
        }
    }
    result
}

/// Most custody bits a replay may take: 2^34 (2 GiB of address space).
const MAX_CUSTODY_BITS: u64 = 1 << 34;

/// Custody during the replay: which `(host, pebble)` pairs have been
/// acquired so far. Every host holds every level-0 pebble from the start.
trait Holdings: Sized {
    /// Empty custody for `m` hosts, `n` guests and levels `1..=levels`,
    /// `levels ≥ 1`.
    fn new(n: usize, m: usize, levels: u32) -> Result<Self, CheckError>;
    /// Whether `q` holds the pebble `p` with `p.node < n`, `p.t ≤ levels`.
    fn holds(&self, q: Node, p: Pebble) -> bool;
    /// Record that `q` holds such a pebble `p`; `true` on the first
    /// acquisition, so never for a level-0 pebble.
    fn acquire(&mut self, q: Node, p: Pebble) -> bool;
}

/// Custody as one zeroed bitset, sized once per replay: a bit per (level
/// `t ∈ 1..=L`, host `q`, guest `i`), stored in 64-host × 64-guest tiles.
/// Host `q`'s row of a tile is one word, so word
/// `(((t − 1)·⌈m/64⌉ + q/64)·⌈n/64⌉ + i/64)·64 + q % 64` holds bit `i % 64`.
///
/// Memory: the bitset reserves `m·n·L/8` bytes (rounded up to whole
/// tiles) of zeroed address space, and the allocator maps pages in only
/// where tiles are written or read, so a run whose hosts hold pebbles of
/// nearby guests touches only the tiles near the diagonal. Past
/// [`MAX_CUSTODY_BITS`] the replay refuses with
/// [`CheckError::CustodyTooLarge`] before allocating anything.
struct Custody {
    bits: Vec<u64>,
    /// Tiles per level along the hosts, `⌈m/64⌉`, and the guests, `⌈n/64⌉`.
    host_tiles: usize,
    guest_tiles: usize,
}

impl Custody {
    /// Word and bit of a pebble already known to be in range. A level-0
    /// pebble has no bit: it gets its level-1 word and an empty mask, with
    /// no branch, so the replay need not tell a receive's level-0 pebble
    /// from others.
    #[inline]
    fn slot(&self, q: Node, p: Pebble) -> (usize, u64) {
        let (q, i) = (q as usize, p.node as usize);
        let level = p.t.saturating_sub(1) as usize;
        let tile = (level * self.host_tiles + q / 64) * self.guest_tiles + i / 64;
        (tile * 64 + q % 64, u64::from(p.t > 0) << (i % 64))
    }

    /// Tiles with any bit set.
    #[cfg(test)]
    fn tiles_in_use(&self) -> usize {
        self.bits.chunks_exact(64).filter(|tile| tile.iter().any(|&w| w != 0)).count()
    }
}

impl Holdings for Custody {
    fn new(n: usize, m: usize, levels: u32) -> Result<Self, CheckError> {
        let (host_tiles, guest_tiles) = (m.div_ceil(64), n.div_ceil(64));
        let bits = host_tiles as u128 * guest_tiles as u128 * u128::from(levels) * 64 * 64;
        if bits > u128::from(MAX_CUSTODY_BITS) {
            return Err(CheckError::CustodyTooLarge { hosts: m, guests: n, levels });
        }
        Ok(Custody { bits: vec![0; bits as usize / 64], host_tiles, guest_tiles })
    }

    #[inline]
    fn holds(&self, q: Node, p: Pebble) -> bool {
        let (word, bit) = self.slot(q, p);
        self.bits[word] & bit == bit
    }

    #[inline]
    fn acquire(&mut self, q: Node, p: Pebble) -> bool {
        let (word, bit) = self.slot(q, p);
        let fresh = self.bits[word] & bit != bit;
        self.bits[word] |= bit;
        fresh
    }
}

/// The columns a [`group`] fills, one custody record per slot.
trait Columns {
    /// One slot's record.
    type Record: Copy;
    /// `len` zeroed slots.
    fn with_len(len: usize) -> Self;
    /// Store `record` in slot `at`.
    fn set(&mut self, at: usize, record: Self::Record);
}

/// Generator hosts.
impl Columns for Vec<Node> {
    type Record = Node;

    fn with_len(len: usize) -> Self {
        vec![0; len]
    }

    #[inline]
    fn set(&mut self, at: usize, q: Node) {
        self[at] = q;
    }
}

/// Holders: each holder's host and, parallel to it, the 1-based host step
/// of its first acquisition.
struct Holders {
    hosts: Vec<Node>,
    steps: Vec<u32>,
}

impl Columns for Holders {
    type Record = (Node, u32);

    fn with_len(len: usize) -> Self {
        Holders { hosts: vec![0; len], steps: vec![0; len] }
    }

    #[inline]
    fn set(&mut self, at: usize, (q, step): (Node, u32)) {
        self.hosts[at] = q;
        self.steps[at] = step;
    }
}

/// Group log records of levels `1..=levels` by pebble in the trace's
/// node-major layout (pebble `(i, t)` at `i·levels + t − 1`) with a stable
/// counting sort, so every pebble's records stay in log order. Returns the
/// per-pebble offsets (length `n·levels + 1`) and the records.
fn group<C: Columns>(n: usize, levels: u32, log: &[(Pebble, C::Record)]) -> (Vec<usize>, C) {
    let l = levels as usize;
    let idx = |p: Pebble| p.node as usize * l + (p.t as usize - 1);
    // Counts at `idx + 1`, then prefix sums.
    let mut offsets = vec![0usize; n * l + 1];
    for &(p, _) in log {
        offsets[idx(p) + 1] += 1;
    }
    for k in 0..n * l {
        offsets[k + 1] += offsets[k];
    }
    let mut columns = C::with_len(offsets[n * l]);
    let mut cursor = offsets[..n * l].to_vec();
    for &(p, r) in log {
        let at = &mut cursor[idx(p)];
        columns.set(*at, r);
        *at += 1;
    }
    (offsets, columns)
}

/// Where a protocol repeats itself (see [`periodic_form`]): block `B1`
/// is host steps `0..b1`, and blocks `B2..BT` follow, `period` steps each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Period {
    b1: usize,
    period: usize,
}

/// The protocol's periodic form, if it has one. With `T ≥ 3`:
///
/// * (a) `B1` is the leading run of steps whose ops are all
///   `Generate((·, 1))`;
/// * (b) the remaining `T' − |B1|` steps split into `T − 1` blocks
///   `B2..BT` of equal length `P ≥ |B1|`, `P ≥ 1`;
/// * (a′) `B2`'s last `|B1|` steps are `B1`'s, record for record and step
///   for step, with every pebble one level later;
/// * (c) `B2`'s other steps, its head, hold only `Send`s of level-1
///   pebbles and `Recv`s;
/// * (d) from step `|B1| + P` on, every step equals the step `P` earlier
///   with each pebble one level later.
///
/// (a′) and (d) say together that every step from `P` on is the step `P`
/// earlier one level later: one [`Protocol::repeats_later`]`(P, P)`, which
/// reads only stored steps when the protocol's tail has period `P` (on an
/// engine protocol, `B2`'s last `|B1|` steps).
///
/// Then `B_j` generates level `j` only and sends level `j − 1` only, so
/// level-`j` pebbles are acquired only by `B_j`'s generations and
/// `B_{j+1}`'s receipts, and every rule in `B_k` reads only level-`(k−1)`
/// custody and the step's own pairing and host adjacency. By (a′), `B2`'s
/// generations are `B1`'s one level and `P` steps later (`B1`'s step `s`
/// is `B2`'s step `P + s`), and by (d) `B3`'s receipts are `B2`'s one
/// level and `P` steps later. So level-2 custody before each step of `B3`
/// is level-1 custody before the matching step of `B2`, one level up, and
/// the same holds for each later block and level. `B_k`'s verdict and
/// custody records, `k ≥ 3`, are therefore `B2`'s moved `k − 2` levels
/// and `(k − 2)·P` steps, and replaying `B1·B2` decides the whole
/// protocol. `B_T`'s generations are `B1`'s, so the final pebbles are
/// those `B1` generates.
fn periodic_form(proto: &Protocol) -> Option<Period> {
    let t = proto.guest_t as usize;
    if t < 3 {
        return None;
    }
    let b1 = (0..proto.host_steps())
        .take_while(|&s| proto.step(s).records().all(|r| r.kind() == GENERATE && r.pebble().t == 1))
        .count();
    let rest = proto.host_steps() - b1;
    let period = rest / (t - 1);
    if period == 0 || period < b1 || !rest.is_multiple_of(t - 1) {
        return None;
    }
    let head_ok = (b1..period).flat_map(|s| proto.step(s).records()).all(|r| match r.kind() {
        SEND => r.pebble().t == 1,
        kind => kind == RECV,
    });
    (head_ok && proto.repeats_later(period, period)).then_some(Period { b1, period })
}

impl Period {
    /// Host steps accepted by the shift scan instead of replayed:
    /// `B3..BT`.
    fn shifted_steps(self, guest_t: u32) -> usize {
        (guest_t as usize - 2) * self.period
    }
}

/// Whether a protocol of `guest_n` guests and `host_m` hosts fits the
/// graphs: [`CheckError::GuestSizeMismatch`] or
/// [`CheckError::HostSizeMismatch`] when it does not. [`check`] tests this
/// first; a caller that reads a protocol's header before its body can test
/// it before the body is parsed.
pub fn check_sizes(
    guest: &Graph,
    host: &Graph,
    guest_n: usize,
    host_m: usize,
) -> Result<(), CheckError> {
    if guest.n() != guest_n {
        return Err(CheckError::GuestSizeMismatch { protocol: guest_n, graph: guest.n() });
    }
    if host.n() != host_m {
        return Err(CheckError::HostSizeMismatch { protocol: host_m, graph: host.n() });
    }
    Ok(())
}

/// Replay `proto` under every rule, except that with a [`Period`] only
/// `B1·B2` are replayed and the custody of levels 2..T is level 1's,
/// shifted, read so by [`Trace`] (see [`periodic_form`] for why that is
/// exact).
fn replay(
    guest: &Graph,
    host: &Graph,
    proto: &Protocol,
    form: Option<Period>,
) -> Result<Trace, CheckError> {
    replay_with::<Custody>(guest, host, proto, form)
}

/// [`replay`] with custody kept in `H`.
fn replay_with<H: Holdings>(
    guest: &Graph,
    host: &Graph,
    proto: &Protocol,
    form: Option<Period>,
) -> Result<Trace, CheckError> {
    let n = proto.guest_n;
    let t_max = proto.guest_t;
    let m = proto.host_m;
    check_sizes(guest, host, n, m)?;
    // The steps replayed, and the steps whose effects are applied: under a
    // period, `B2`'s last |B1| steps generate level 2, which is level 1
    // read later, so their rules are checked and their effects dropped.
    let (replayed, applied) = match form {
        Some(f) => (f.b1 + f.period, f.period),
        None => (proto.host_steps(), proto.host_steps()),
    };
    // A level-`t` pebble is first held after host step `t`, so the replay
    // can reach no level past its step count; under a period it acquires
    // level 1 only. Custody keeps level 1 also for T = 0, where level-0
    // pebbles read its words.
    let levels = match form {
        Some(_) => 1,
        None => t_max.min(u32::try_from(replayed).unwrap_or(u32::MAX)),
    };
    let mut custody = H::new(n, m, levels.max(1))?;
    // Holding test with "strictly before this step" semantics: effects are
    // applied only after every op of the step has been validated.
    let held_before = |custody: &H, q: Node, p: Pebble| -> bool {
        (p.node as usize) < n && p.t <= levels && custody.holds(q, p)
    };
    // (pebble, (host, step)) per first acquisition, and (pebble, host) per
    // generation, in replay order. Only generations and receipts acquire,
    // each at most once, so both logs are sized once. Under a period the
    // applied generations are B1's records and the receipts half of B2's
    // head, which holds sends and receives only.
    let (generations, receipts) = match form {
        None => {
            let (generations, _, receipts, _) = proto.op_histogram();
            (generations, receipts)
        }
        Some(f) => {
            let ops = |steps: std::ops::Range<usize>| -> usize {
                steps.map(|s| proto.step(s).len()).sum()
            };
            (ops(0..f.b1), ops(f.b1..f.period) / 2)
        }
    };
    // One slot more: a send's level-0 receipt is pushed before it is
    // dropped again.
    let mut acquired: Vec<(Pebble, (Node, u32))> = Vec::with_capacity(generations + receipts + 1);
    let mut generated: Vec<(Pebble, Node)> = Vec::with_capacity(generations);
    // The current step's records by host (all-zero when idle), to pair
    // sends with receives. The replay reads records, not decoded `Op`s.
    // Sends and receives interleave with no pattern a branch predictor
    // could learn, so they pass both phases without a branch on which of
    // the two they are.
    let mut row = vec![OpRecord::default(); m];
    // A tail step's records as read, one level up per period.
    let mut lifted: Vec<OpRecord> = Vec::new();

    for step0 in 0..replayed {
        let step = step0 as u32 + 1; // 1-based host time
        let records = match proto.step(step0).stored() {
            (stored, 0) => stored,
            (stored, shift) => {
                lifted.clear();
                lifted.extend(stored.iter().map(|r| r.later_by(shift)));
                &lifted
            }
        };
        for &r in records {
            row[r.host() as usize] = r;
        }
        // Phase 1: validate every op against the *pre-step* state.
        for &r in records {
            let q = r.host();
            if r.kind() != GENERATE {
                // One test that a valid send or receive passes: its partner
                // is a host neighbour whose op is the opposite kind naming
                // `q`, and its pebble is held (a receive's record carries
                // the level-0 pebble (0, 0)). An op that fails it goes on
                // to the rule-by-rule test below, which names the rule.
                let partner = r.partner();
                let back = row.get(partner as usize).copied().unwrap_or_default();
                if host.has_edge(q, partner)
                    & held_before(&custody, q, r.pebble())
                    & (back.partner() == q)
                    & (back.kind() == SEND ^ RECV ^ r.kind())
                {
                    continue;
                }
            }
            match r.kind() {
                GENERATE => {
                    let p = r.pebble();
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
                SEND => {
                    let (pebble, to) = (r.pebble(), r.partner());
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
                    let back = row[to as usize];
                    if back.kind() != RECV || back.partner() != q {
                        return Err(CheckError::UnmatchedSend { step: step0, host: q, to });
                    }
                }
                _ => {
                    // RECV: a protocol stores no idle op.
                    let from = r.partner();
                    if !host.has_edge(q, from) {
                        return Err(CheckError::RecvFromNonNeighbor { step: step0, host: q, from });
                    }
                    let sender = row[from as usize];
                    if sender.kind() != SEND || sender.partner() != q {
                        return Err(CheckError::UnmatchedRecv { step: step0, host: q, from });
                    }
                }
            }
        }
        // Phase 2: apply effects (pebbles become available *after* the step).
        let effects = if step0 < applied { records } else { &[] };
        for &r in effects {
            let q = r.host();
            let got = if r.kind() == GENERATE {
                generated.push((r.pebble(), q));
                r.pebble()
            } else {
                // Phase 1 paired each send with its receive: a receive gets
                // its sender's pebble, and a send its receive's (0, 0),
                // which every host holds already.
                row[r.partner() as usize].pebble()
            };
            let fresh = custody.acquire(q, got);
            // Logged, and dropped again unless fresh.
            acquired.push((got, (q, step)));
            acquired.truncate(acquired.len() - usize::from(!fresh));
        }
        for &r in records {
            row[r.host() as usize] = OpRecord::default();
        }
    }

    // Final-pebble condition (vacuous for T = 0: the finals are initial),
    // decided from the log before any per-pebble array is allocated. Under
    // a period, B_T's generations are B1's, T − 1 levels up.
    let stored = if form.is_some() { 1 } else { t_max };
    let mut has_final = vec![t_max == 0; n];
    for &(p, _) in &generated {
        if p.t == stored {
            has_final[p.node as usize] = true;
        }
    }
    if let Some(node) = has_final.iter().position(|&done| !done) {
        return Err(CheckError::MissingFinalPebble { node: node as Node });
    }

    // Under a period level 1 holds B1's generations, then B2's receipts;
    // level T keeps each node's generation part, and levels 2..T are read
    // from level 1 (see `Trace`).
    let mut last = Vec::new();
    if let Some(f) = form {
        last = vec![0; n];
        for (p, _) in acquired.iter().take_while(|(_, (_, step))| *step as usize <= f.b1) {
            last[p.node as usize] += 1;
        }
    }
    let (generator_offsets, generator_hosts) = group(n, stored, &generated);
    let (holder_offsets, Holders { hosts: holder_hosts, steps: holder_steps }) =
        group(n, stored, &acquired);
    Ok(Trace {
        guest_n: n,
        guest_t: t_max,
        host_m: m,
        host_steps: proto.host_steps(),
        levels: stored,
        period: form.map_or(0, |f| f.period as u32),
        last,
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
    use crate::protocol::{Op, ProtocolBuilder};
    use proptest::prelude::*;
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

    /// The checker's verdict, the full replay's, and the host steps the
    /// checker accepted by the shift scan.
    fn verdicts(
        guest: &Graph,
        host: &Graph,
        proto: &Protocol,
    ) -> (Result<Trace, CheckError>, Result<Trace, CheckError>, u64) {
        use unet_obs::InMemoryRecorder;
        let mut rec = InMemoryRecorder::new();
        let got = check_recorded(guest, host, proto, &mut rec);
        (got, replay(guest, host, proto, None), rec.counter_value("pebble.check.shifted_steps"))
    }

    fn protocol(n: usize, t: u32, m: usize, rows: &[Vec<Op>]) -> Protocol {
        let mut proto = Protocol::new(n, t, m);
        for row in rows {
            proto.push_step(row);
        }
        proto
    }

    /// A periodic protocol of `ring(3)` on `complete(2)`: host 0 owns
    /// guests 0 and 1, host 1 owns guest 2. `B1` generates level 1 in two
    /// steps; every later block is three transfers of the previous level,
    /// then two generate steps (period 5).
    fn triangle(t_max: u32) -> Vec<Vec<Op>> {
        let (gen, idle) = (|i, t| Op::Generate(Pebble::new(i, t)), Op::Idle);
        let send = |i, t, to| Op::Send { pebble: Pebble::new(i, t), to };
        let mut rows = vec![vec![gen(0, 1), gen(2, 1)], vec![gen(1, 1), idle]];
        for t in 2..=t_max {
            rows.push(vec![send(0, t - 1, 1), Op::Recv { from: 0 }]);
            rows.push(vec![send(1, t - 1, 1), Op::Recv { from: 0 }]);
            rows.push(vec![Op::Recv { from: 1 }, send(2, t - 1, 0)]);
            rows.push(vec![gen(0, t), gen(2, t)]);
            rows.push(vec![gen(1, t), idle]);
        }
        rows
    }

    #[test]
    fn periodic_protocol_replays_two_blocks() {
        let proto = protocol(3, 6, 2, &triangle(6));
        let (got, full, shifted) = verdicts(&ring(3), &complete(2), &proto);
        assert_eq!(periodic_form(&proto), Some(Period { b1: 2, period: 5 }));
        assert_eq!(shifted, 4 * 5, "B3..B6 accepted by the scan");
        let trace = got.expect("valid");
        assert_eq!(Ok(trace.clone()), full);
        // Host 1 received (1, 5) in B6's second step: 1-based step 2 + 4·5 + 2.
        assert_eq!(trace.acquisition_step(1, Pebble::new(1, 5)), Some(24));
        assert_eq!(trace.generated_by(2, 6), &[1]);
        // T = 3 is the shortest periodic run: B3 alone is scanned.
        let proto = protocol(3, 3, 2, &triangle(3));
        let (got, full, shifted) = verdicts(&ring(3), &complete(2), &proto);
        assert!(got.is_ok());
        assert_eq!((got, shifted), (full, 5));
    }

    #[test]
    fn short_runs_replay_in_full() {
        for t in 1..=2 {
            let proto = protocol(3, t, 2, &triangle(t));
            let (got, full, shifted) = verdicts(&ring(3), &complete(2), &proto);
            assert!(got.is_ok(), "T = {t}");
            assert_eq!((got, shifted), (full, 0), "T = {t}");
        }
    }

    #[test]
    fn ragged_tail_replays_in_full() {
        // One step more than four whole periods: a redundant but valid
        // regeneration of (0, 5) by host 0.
        let mut rows = triangle(5);
        rows.push(vec![Op::Generate(Pebble::new(0, 5)), Op::Idle]);
        let proto = protocol(3, 5, 2, &rows);
        let (got, full, shifted) = verdicts(&ring(3), &complete(2), &proto);
        assert_eq!(got.as_ref().map(|t| t.generated_by(0, 5).len()), Ok(2));
        assert_eq!((got, shifted), (full, 0));
        // One step short: the last block loses (1, 5).
        rows.truncate(rows.len() - 2);
        let proto = protocol(3, 5, 2, &rows);
        let (got, full, shifted) = verdicts(&ring(3), &complete(2), &proto);
        assert_eq!(got, Err(CheckError::MissingFinalPebble { node: 1 }));
        assert_eq!((got, shifted), (full, 0));
    }

    /// A protocol of one isolated guest node on `complete(2)`: `B1`
    /// generates (0, 1); block `t ≥ 2` is `extra(t)`, a transfer of
    /// (0, t − 1), and the generation of (0, t). Every block is the
    /// previous one a level later.
    fn lone(t_max: u32, extra: impl Fn(u32) -> Vec<Op>) -> Protocol {
        let mut rows = vec![vec![Op::Generate(Pebble::new(0, 1)), Op::Idle]];
        for t in 2..=t_max {
            rows.push(extra(t));
            rows.push(vec![
                Op::Send { pebble: Pebble::new(0, t - 1), to: 1 },
                Op::Recv { from: 0 },
            ]);
            rows.push(vec![Op::Generate(Pebble::new(0, t)), Op::Idle]);
        }
        protocol(1, t_max, 2, &rows)
    }

    #[test]
    fn level_shifted_b2_replays_in_full() {
        let lonely = complete(1);
        // B2 sends the initial pebble (0, 0): valid, and each later block
        // sends one level up, but B2's receipt acquires nothing.
        let send_back =
            |t: u32| vec![Op::Recv { from: 1 }, Op::Send { pebble: Pebble::new(0, t - 2), to: 0 }];
        let proto = lone(6, send_back);
        assert!(proto.repeats_later(1 + 3, 3));
        let (got, full, shifted) = verdicts(&lonely, &complete(2), &proto);
        assert!(got.is_ok());
        assert_eq!((got, shifted), (full, 0));
        // B2 generates level 3 in its first step, from (0, 2)... which is
        // missing there; B6's copy would also generate (0, 7) > T.
        let ahead = |t: u32| vec![Op::Generate(Pebble::new(0, t + 1)), Op::Idle];
        let proto = lone(6, ahead);
        let (got, full, shifted) = verdicts(&lonely, &complete(2), &proto);
        assert!(matches!(got, Err(CheckError::GenerateMissingPredecessor { step: 1, .. })));
        assert_eq!((got, shifted), (full, 0));
        // The same in the last step of each block, where (0, t) is held:
        // only B6's (0, 7) is out of range.
        let mut rows = vec![vec![Op::Generate(Pebble::new(0, 1)), Op::Idle]];
        for t in 2..=6 {
            rows.push(vec![
                Op::Send { pebble: Pebble::new(0, t - 1), to: 1 },
                Op::Recv { from: 0 },
            ]);
            rows.push(vec![Op::Generate(Pebble::new(0, t)), Op::Idle]);
            rows.push(vec![Op::Generate(Pebble::new(0, t + 1)), Op::Idle]);
        }
        let proto = protocol(1, 6, 2, &rows);
        let (got, full, shifted) = verdicts(&lonely, &complete(2), &proto);
        let last = rows.len() - 1;
        assert_eq!(
            got,
            Err(CheckError::GenerateOutOfRange { step: last, host: 0, pebble: Pebble::new(0, 7) })
        );
        assert_eq!((got, shifted), (full, 0));
    }

    #[test]
    fn varied_late_block_replays_in_full() {
        // Host 1 regenerates (2, 6) in B6's last step, where it was idle:
        // valid, and no longer a copy of B5.
        let mut rows = triangle(6);
        let last = rows.len() - 1;
        rows[last][1] = Op::Generate(Pebble::new(2, 6));
        let proto = protocol(3, 6, 2, &rows);
        let (got, full, shifted) = verdicts(&ring(3), &complete(2), &proto);
        assert_eq!(got.as_ref().map(|t| t.generated_by(2, 6).to_vec()), Ok(vec![1, 1]));
        assert_eq!((got, shifted), (full, 0));
    }

    #[test]
    fn size_mismatch_is_an_error() {
        let (guest, host, proto) = tiny_valid_protocol();
        assert_eq!(
            check(&ring(4), &host, &proto).unwrap_err(),
            CheckError::GuestSizeMismatch { protocol: 3, graph: 4 }
        );
        assert_eq!(
            check(&guest, &complete(5), &proto).unwrap_err(),
            CheckError::HostSizeMismatch { protocol: 2, graph: 5 }
        );
        // Host 4 of a 5-host protocol is past the 2-host graph's nodes.
        let text = "unetproto 1\nn 3 t 1 m 5\nstep\ng 4 0 1\n";
        let proto = crate::io::from_text(text).expect("parses");
        assert_eq!(
            check(&guest, &complete(2), &proto).unwrap_err(),
            CheckError::HostSizeMismatch { protocol: 5, graph: 2 }
        );
    }

    #[test]
    fn missing_finals_are_found_before_the_trace_is_sized() {
        // A trace of n·T pebbles would take 3·(2^32 − 1) offsets; the
        // missing final pebble is reported from the log instead.
        let mut b = ProtocolBuilder::new(3, u32::MAX, 2);
        b.set_op(0, Op::Generate(Pebble::new(0, 1)));
        let proto = b.finish();
        assert_eq!(
            check(&ring(3), &complete(2), &proto).unwrap_err(),
            CheckError::MissingFinalPebble { node: 0 }
        );
    }

    /// A random valid protocol, in periodic form when `t_max ≥ 3`, built
    /// the way the engine builds one: guest `n` nodes with random edges
    /// (each with chance 0.4, or 3/n past 7 nodes), host `complete(m)`,
    /// every guest generated by one or more random hosts (some twice).
    /// `B1` generates level 1; `B2` moves level-1 pebbles to every host
    /// that needs them, with random redundant copies and relays, then
    /// generates level 2 in `B1`'s layout; `B3..BT` are `repeat_later`
    /// copies of the block before, which form the protocol's tail.
    fn random_periodic(seed: u64, n: usize, m: usize, t_max: u32) -> (Graph, Graph, Protocol) {
        let copies = Copies { tail_blocks: usize::MAX, ..Copies::default() };
        random_blocks(seed, n, m, t_max, copies)
    }

    /// How [`random_blocks`] lays out `B2` and copies `B3..BT`.
    #[derive(Debug, Clone, Copy, Default)]
    struct Copies {
        /// Blocks at the end left in the protocol's tail; every earlier
        /// copy is stored (`usize::MAX`: as the builder chooses, `B3..BT`).
        tail_blocks: usize,
        /// Copy each block in two `repeat_later` calls split this many
        /// steps in (mod the period; 0 is one call), as the engine copies a
        /// communication and a computation phase.
        split: usize,
        /// `B2` opens with a redundant transfer of a level-0 pebble, which
        /// breaks condition (c): the protocol is valid but not periodic.
        level0_send: bool,
        /// End after the first of the last block's two calls.
        cut: bool,
        /// Change one op of `B1` but not `B2`'s computation phase, which
        /// breaks condition (a′): 1 moves a generation to another host
        /// (swapping with that host's), 2 generates another guest, 3 one
        /// level up, 4 adds a redundant generation (in a step of its own
        /// when every host is busy); 0 changes nothing.
        break_b1: u8,
    }

    /// [`random_periodic`] laid out by `copies`. `B2`'s computation phase
    /// repeats `B1`'s layout a level later, as the engine's does.
    fn random_blocks(
        seed: u64,
        n: usize,
        m: usize,
        t_max: u32,
        copies: Copies,
    ) -> (Graph, Graph, Protocol) {
        use rand::seq::SliceRandom;
        use rand::Rng;
        let mut rng = unet_topology::util::seeded_rng(seed);
        let mut g = unet_topology::GraphBuilder::new(n);
        for u in 0..n as Node {
            for v in u + 1..n as Node {
                if rng.gen_bool((3.0 / n as f64).min(0.4)) {
                    g.add_edge(u, v);
                }
            }
        }
        let guest = g.build();
        let mut gens: Vec<(Node, Node)> = Vec::new();
        for u in 0..n as Node {
            gens.push((rng.gen_range(0..m as Node), u));
            while rng.gen_bool(0.3) {
                gens.push((rng.gen_range(0..m as Node), u));
            }
        }
        // One computation phase: `gens` in a random order, laid out as
        // (host, guest, 0) steps, each host at most once per step.
        let mut left = gens.clone();
        left.shuffle(&mut rng);
        let mut layout: Vec<Vec<(Node, Node, u32)>> = Vec::new();
        while !left.is_empty() {
            let mut step: Vec<(Node, Node, u32)> = Vec::new();
            left.retain(|&(q, u)| {
                if step.iter().any(|&(h, ..)| h == q) {
                    return true;
                }
                step.push((q, u, 0));
                false
            });
            layout.push(step);
        }
        // Emit `layout`, each `(q, u, up)` generating `(u, level + up)`.
        let generate = |b: &mut ProtocolBuilder, layout: &[Vec<(Node, Node, u32)>], level| {
            for step in layout {
                for &(q, u, up) in step {
                    b.set_op(q, Op::Generate(Pebble::new(u, level + up)));
                }
                b.end_step();
            }
            layout.len()
        };
        let mut first = layout.clone();
        if copies.break_b1 > 0 {
            // Drawn apart, so that the rest is laid out as without it.
            let mut rng = unet_topology::util::seeded_rng(seed ^ 0xb1);
            let k = rng.gen_range(0..first.len());
            let j = rng.gen_range(0..first[k].len());
            let (q, u, _) = first[k][j];
            let other = (q + rng.gen_range(1..m as Node)) % m as Node;
            match copies.break_b1 {
                1 => {
                    if let Some(at) = first[k].iter().position(|&(h, ..)| h == other) {
                        first[k][at].0 = q;
                    }
                    first[k][j].0 = other;
                }
                2 => first[k][j].1 = (u + 1) % n as Node,
                3 => first[k][j].2 = 1,
                _ => match (0..m as Node).find(|&h| first[k].iter().all(|&(g, ..)| g != h)) {
                    Some(free) => first[k].push((free, rng.gen_range(0..n as Node), 0)),
                    None => first.push(vec![(q, u, 0)]),
                },
            }
        }
        let mut b = ProtocolBuilder::new(n, t_max, m);
        let b1 = generate(&mut b, &first, 1);
        if t_max == 1 {
            return (guest, complete(m), b.finish());
        }
        // held[q][u]: host q holds (u, 1) before the current step.
        let mut held = vec![vec![false; n]; m];
        for &(q, u) in &gens {
            held[q as usize][u as usize] = true;
        }
        let mut wanted: Vec<(Node, Node)> = Vec::new();
        for &(q, u) in &gens {
            for &v in guest.neighbors(u) {
                if !held[q as usize][v as usize] {
                    wanted.push((q, v));
                }
            }
        }
        let mut period = 0;
        if copies.level0_send {
            // The generator of (u, t) sends (u, t − 2) in B_t: it generated
            // that pebble two blocks before, or holds it from the start.
            let (q, u) = gens[rng.gen_range(0..gens.len())];
            let to = (q + rng.gen_range(1..m as Node)) % m as Node;
            b.transfer(q, to, Pebble::new(u, 0));
            b.end_step();
            period += 1;
        }
        loop {
            wanted.retain(|&(q, v)| !held[q as usize][v as usize]);
            wanted.shuffle(&mut rng);
            // Wanted deliveries, then now and then a redundant copy.
            let mut moves = wanted.clone();
            while rng.gen_bool(0.3) {
                moves.push((rng.gen_range(0..m as Node), rng.gen_range(0..n as Node)));
            }
            if moves.is_empty() {
                break;
            }
            let mut got = Vec::new();
            for (to, v) in moves {
                let senders: Vec<Node> = (0..m as Node)
                    .filter(|&s| s != to && held[s as usize][v as usize] && b.is_free(s))
                    .collect();
                if let (Some(&from), true) = (senders.choose(&mut rng), b.is_free(to)) {
                    b.transfer(from, to, Pebble::new(v, 1));
                    got.push((to, v));
                }
            }
            // An empty step would extend B1.
            if got.is_empty() {
                continue;
            }
            b.end_step();
            period += 1;
            for (to, v) in got {
                held[to as usize][v as usize] = true;
            }
        }
        period += generate(&mut b, &layout, 2);
        let split = copies.split % period;
        for k in 0..t_max as usize - 2 {
            let at = b1 + k * period;
            let last = k + 3 == t_max as usize;
            if split > 0 {
                b.repeat_later(at..at + split);
            }
            if !(last && copies.cut && split > 0) {
                b.repeat_later(at + split..at + period);
            }
            if t_max as usize - 3 - k >= copies.tail_blocks {
                b.store_tail();
            }
        }
        (guest, complete(m), b.finish())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// On valid periodic protocols the trace with levels 2..T copied
        /// from level 1 equals the full replay's, array for array.
        #[test]
        fn level_copied_trace_equals_full_replay(
            seed in 0u64..1 << 40,
            n in 2usize..7,
            m in 2usize..5,
            t_max in 3u32..9,
        ) {
            let (guest, host, proto) = random_periodic(seed, n, m, t_max);
            let form = periodic_form(&proto);
            prop_assert!(form.is_some(), "not periodic: {:?}", proto);
            let full = replay(&guest, &host, &proto, None);
            prop_assert!(full.is_ok(), "invalid: {:?}", full);
            prop_assert_eq!(replay(&guest, &host, &proto, form), full.clone());
            let (got, full, shifted) = verdicts(&guest, &host, &proto);
            prop_assert_eq!(got, full);
            prop_assert_eq!(shifted, (t_max as u64 - 2) * form.unwrap().period as u64);
        }
    }

    /// A recorded check's verdict and every counter and histogram it
    /// emits.
    #[allow(clippy::type_complexity)]
    fn recorded(
        guest: &Graph,
        host: &Graph,
        proto: &Protocol,
    ) -> (
        Result<Trace, CheckError>,
        Vec<(&'static str, u64)>,
        Vec<(&'static str, unet_obs::Histogram)>,
    ) {
        let mut rec = unet_obs::InMemoryRecorder::new();
        let got = check_recorded(guest, host, proto, &mut rec);
        let counters = rec.counters().collect();
        let histograms = rec.histograms().map(|(name, h)| (name, h.clone())).collect();
        (got, counters, histograms)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// A protocol whose last `tail_blocks` blocks are its tail reads
        /// exactly as the same protocol stored step by step: `==`, text,
        /// every step and op, the op counts, and the recorded check's
        /// verdict, `Trace`, counters and histograms. Blocks are copied
        /// whole or in two calls, and `cut` ends the tail mid-period; runs
        /// whose `B2` sends a level-0 pebble break condition (c), so the
        /// full replay reads tail steps; `push_after` appends a step after
        /// the tail, which stores it.
        #[test]
        fn tail_reads_as_its_stored_copy(
            seed in 0u64..1 << 40,
            n in 2usize..7,
            m in 2usize..5,
            t_max in 1u32..=8,
            tail_blocks in 0usize..=3,
            split in 0usize..64,
            level0_send in any::<bool>(),
            cut in any::<bool>(),
            push_after in any::<bool>(),
        ) {
            let copies = Copies { tail_blocks, split, level0_send, cut, break_b1: 0 };
            let (guest, host, mut tail) = random_blocks(seed, n, m, t_max, copies);
            let stored_copies = Copies { tail_blocks: 0, ..copies };
            let (_, _, mut stored) = random_blocks(seed, n, m, t_max, stored_copies);
            // A tail step reads its stored step one or more levels later.
            let tail_steps =
                |p: &Protocol| (0..p.host_steps()).filter(|&s| p.step(s).stored().1 > 0).count();
            let blocks = if t_max >= 3 { tail_blocks.min(t_max as usize - 2) } else { 0 };
            prop_assert_eq!(tail_steps(&tail) > 0, blocks > 0);
            prop_assert_eq!(tail_steps(&stored), 0);
            if push_after {
                // A redundant regeneration of the last step's pebbles.
                let last = tail.host_steps() - 1;
                let again: Vec<Op> = (0..m as Node)
                    .map(|q| match tail.op(last, q) {
                        op @ Op::Generate(_) => op,
                        _ => Op::Idle,
                    })
                    .collect();
                tail.push_step(&again);
                stored.push_step(&again);
                prop_assert_eq!(tail_steps(&tail), 0);
            }

            prop_assert_eq!(&tail, &stored);
            prop_assert_eq!(&stored, &tail);
            prop_assert_eq!(crate::io::to_text(&tail), crate::io::to_text(&stored));
            prop_assert_eq!(tail.host_steps(), stored.host_steps());
            for s in 0..stored.host_steps() {
                prop_assert_eq!(tail.step(s), stored.step(s));
                prop_assert!(tail.step(s).iter().eq(stored.step(s).iter()), "step {}", s);
                for q in 0..m as Node {
                    prop_assert_eq!(tail.op(s, q), stored.op(s, q), "step {} host {}", s, q);
                }
            }
            prop_assert_eq!(tail.busy_ops(), stored.busy_ops());
            prop_assert_eq!(tail.op_histogram(), stored.op_histogram());

            let form = periodic_form(&tail);
            prop_assert_eq!(form, periodic_form(&stored));
            if level0_send {
                prop_assert!(form.is_none());
            }
            let (got, counters, histograms) = recorded(&guest, &host, &tail);
            prop_assert!(cut || got.is_ok(), "invalid: {:?}", got);
            let (want, want_counters, want_histograms) = recorded(&guest, &host, &stored);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(counters, want_counters);
            prop_assert_eq!(histograms, want_histograms);
            let full = replay(&guest, &host, &stored, None);
            prop_assert_eq!(&got, &full);
            if let (Ok(got), Ok(full)) = (&got, &full) {
                prop_assert_eq!(got.total_weight(), full.total_weight());
                for t in 0..=t_max {
                    prop_assert_eq!(got.level_weight(t), full.level_weight(t), "level {}", t);
                }
                // The histograms as the full replay's accessors give them.
                let mut want = unet_obs::InMemoryRecorder::new();
                for t in 1..=t_max {
                    want.histogram("pebble.level_weight", full.level_weight(t) as u64);
                }
                for (i, t) in full.pebbles() {
                    want.histogram("pebble.holders_per_pebble", full.weight(i, t) as u64);
                }
                for name in ["pebble.level_weight", "pebble.holders_per_pebble"] {
                    let got = histograms.iter().find(|(n, _)| *n == name).map(|(_, h)| h);
                    prop_assert_eq!(got, want.histogram_data(name), "{}", name);
                }
            }
        }
    }

    /// Every accessor of `got` answers as `want`'s does, for every pebble
    /// type, level and host.
    fn same_accessors(got: &Trace, want: &Trace) -> Result<(), TestCaseError> {
        prop_assert_eq!(got.total_weight(), want.total_weight());
        for t in 0..=want.guest_t {
            prop_assert_eq!(got.level_weight(t), want.level_weight(t), "level {}", t);
            for q in 0..want.host_m as Node {
                prop_assert_eq!(got.guests_on_host(q, t), want.guests_on_host(q, t));
            }
            for i in 0..want.guest_n as Node {
                prop_assert_eq!(got.representatives(i, t), want.representatives(i, t));
                prop_assert_eq!(got.weight(i, t), want.weight(i, t));
                if t < want.guest_t {
                    prop_assert_eq!(got.generators(i, t), want.generators(i, t));
                    prop_assert_eq!(
                        got.earliest_generating_hold(i, t),
                        want.earliest_generating_hold(i, t)
                    );
                }
                if t >= 1 {
                    prop_assert_eq!(got.generated_by(i, t), want.generated_by(i, t));
                    prop_assert!(got.acquisitions(i, t).eq(want.acquisitions(i, t)));
                }
                for q in 0..want.host_m as Node {
                    let p = Pebble::new(i, t);
                    prop_assert_eq!(got.acquisition_step(q, p), want.acquisition_step(q, p));
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// The two-block check equals the full replay: on random protocols
        /// with (a′) holding, and with (a′) broken by one `B1` op (its
        /// host, node or level, or an extra op), blocks copied whole or in
        /// two calls, the last 0–3 in the tail. Verdict, `Trace` (`==` and
        /// every accessor) and the recorded counters and histograms are
        /// the full replay's, and the shift scan takes `B3..BT`,
        /// `(T − 2)·P` steps, exactly when (a′) holds.
        #[test]
        fn two_block_period_equals_full_replay(
            seed in 0u64..1 << 40,
            n in 2usize..7,
            m in 2usize..5,
            t_max in 1u32..=8,
            tail_blocks in 0usize..=3,
            split in 0usize..64,
            break_b1 in 0u8..5,
        ) {
            let copies = Copies { tail_blocks, split, break_b1, ..Copies::default() };
            let (guest, host, proto) = random_blocks(seed, n, m, t_max, copies);
            let (_, _, kept) = random_blocks(seed, n, m, t_max, Copies { break_b1: 0, ..copies });
            let full = replay(&guest, &host, &proto, None);
            prop_assert!(break_b1 > 0 || full.is_ok(), "invalid: {:?}", full);
            let (got, counters, histograms) = recorded(&guest, &host, &proto);
            prop_assert_eq!(&got, &full);
            if let (Ok(got), Ok(full)) = (&got, &full) {
                same_accessors(got, full)?;
            }

            let form = periodic_form(&proto);
            let shifted = counters
                .iter()
                .find(|(name, _)| *name == "pebble.check.shifted_steps")
                .map(|&(_, v)| v);
            let want_shifted = match form {
                Some(f) => (t_max as u64 - 2) * f.period as u64,
                None => 0,
            };
            prop_assert_eq!(shifted, Some(want_shifted));
            if t_max >= 3 && break_b1 == 0 {
                prop_assert!(form.is_some(), "not periodic: {:?}", proto);
            }
            if proto != kept {
                prop_assert_eq!(form, None, "(a′) is broken");
            }

            // The counters and histograms as the full replay gives them.
            let mut want = unet_obs::InMemoryRecorder::new();
            want.counter("pebble.check.shifted_steps", want_shifted);
            let (generate, send, recv, idle) = proto.op_histogram();
            want.counter("pebble.ops.idle", idle as u64);
            want.counter("pebble.ops.generate", generate as u64);
            want.counter("pebble.ops.send", send as u64);
            want.counter("pebble.ops.recv", recv as u64);
            if let Ok(full) = &full {
                want.counter("pebble.acquisitions", full.total_weight() as u64);
                for t in 1..=t_max {
                    want.histogram("pebble.level_weight", full.level_weight(t) as u64);
                }
                for (i, t) in full.pebbles() {
                    want.histogram("pebble.holders_per_pebble", full.weight(i, t) as u64);
                }
            }
            prop_assert_eq!(counters, want.counters().collect::<Vec<_>>());
            let want_histograms: Vec<_> =
                want.histograms().map(|(name, h)| (name, h.clone())).collect();
            prop_assert_eq!(histograms, want_histograms);
        }
    }

    /// The hash-map custody the bitset replaced, kept as its reference:
    /// one `u64` level mask per host, guest node and block of 64 guest
    /// levels, at most one entry per acquisition.
    struct HashCustody {
        masks: unet_topology::util::FxHashMap<u64, u64>,
        n: u64,
        words: u64,
    }

    impl HashCustody {
        fn slot(&self, q: Node, p: Pebble) -> (u64, u64) {
            let key =
                (u64::from(q) * self.n + u64::from(p.node)) * self.words + u64::from(p.t / 64);
            (key, 1 << (p.t % 64))
        }
    }

    impl Holdings for HashCustody {
        fn new(n: usize, _: usize, levels: u32) -> Result<Self, CheckError> {
            let words = u64::from(levels / 64 + 1);
            Ok(HashCustody { masks: Default::default(), n: n as u64, words })
        }

        fn holds(&self, q: Node, p: Pebble) -> bool {
            let (key, bit) = self.slot(q, p);
            p.t == 0 || self.masks.get(&key).is_some_and(|&mask| mask & bit != 0)
        }

        fn acquire(&mut self, q: Node, p: Pebble) -> bool {
            if p.t == 0 {
                return false;
            }
            let (key, bit) = self.slot(q, p);
            let mask = self.masks.entry(key).or_insert(0);
            let fresh = *mask & bit == 0;
            *mask |= bit;
            fresh
        }
    }

    #[test]
    fn custody_past_the_ceiling_is_refused() {
        // 2^17 hosts × 2^17 guests × 2 levels is 2^35 bits, twice the
        // ceiling: refused by `Custody::new` before its bitset is made.
        let big = ring(1 << 17);
        let mut b = ProtocolBuilder::new(1 << 17, 2, 1 << 17);
        b.end_step();
        b.end_step();
        let want = CheckError::CustodyTooLarge { hosts: 1 << 17, guests: 1 << 17, levels: 2 };
        assert_eq!(check(&big, &big, &b.finish()).unwrap_err(), want);
        assert_eq!(Custody::new(1 << 17, 1 << 17, 2).err(), Some(want));
    }

    #[test]
    fn level_zero_transfers_need_no_custody_levels() {
        // T = 0: no level can be acquired, yet initial pebbles move.
        let mut b = ProtocolBuilder::new(3, 0, 2);
        b.transfer(0, 1, Pebble::new(2, 0));
        b.end_step();
        b.transfer(1, 0, Pebble::new(0, 0));
        let proto = b.finish();
        let got = check(&ring(3), &complete(2), &proto);
        assert_eq!(got.as_ref().map(Trace::total_weight), Ok(0));
        assert_eq!(got, replay_with::<HashCustody>(&ring(3), &complete(2), &proto, None));
    }

    #[test]
    fn diagonal_custody_touches_only_diagonal_tiles() {
        // Host q holds guest q's pebble: one tile per 64 hosts, of the
        // 256 × 256 a level.
        let n = 1 << 14;
        let mut custody = Custody::new(n, n, 1).expect("2^28 bits fit");
        for q in 0..n as Node {
            assert!(custody.acquire(q, Pebble::new(q, 1)));
        }
        assert_eq!(custody.tiles_in_use(), n / 64);
        assert!(custody.holds(n as Node - 1, Pebble::new(n as Node - 1, 1)));
        assert!(!custody.holds(0, Pebble::new(1, 1)));
    }

    /// `proto` with one field of its `pos`-th op (mod the op count)
    /// changed: `field` 0 and 1 move the level up and down, 2 the node, 3
    /// the partner, 4 swaps Send and Recv, 5 moves the op to the next host.
    fn mutated(proto: &Protocol, pos: usize, field: u8) -> Protocol {
        let m = proto.host_m;
        let mut rows: Vec<Vec<Op>> = (0..proto.host_steps())
            .map(|s| (0..m as Node).map(|q| proto.op(s, q)).collect())
            .collect();
        let busy: Vec<(usize, usize)> = (0..rows.len())
            .flat_map(|s| (0..m).map(move |q| (s, q)))
            .filter(|&(s, q)| rows[s][q] != Op::Idle)
            .collect();
        let (s, q) = busy[pos % busy.len()];
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
            (4, Op::Recv { from }) => Op::Send { pebble: Pebble::new(0, 1), to: from },
            _ => op,
        };
        if field == 5 {
            rows[s].swap(q, (q + 1) % m);
        }
        protocol(proto.guest_n, proto.guest_t, m, &rows)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// On random protocols, periodic or with a ragged tail, valid or
        /// with one op field changed, the bitset custody gives the hash-map
        /// reference's verdict and trace, with and without the shift scan.
        /// Wide runs span two or three tiles of hosts and of guests.
        #[test]
        fn tiled_custody_equals_hash_map_reference(
            seed in 0u64..1 << 40,
            n in 2usize..7,
            m in 2usize..5,
            wide in any::<bool>(),
            t_max in 1u32..9,
            ragged in any::<bool>(),
            mutation in (0usize..100_000, 0u8..6),
        ) {
            let (n, m) = if wide { (n * 29, m * 33) } else { (n, m) };
            let (guest, host, mut proto) = random_periodic(seed, n, m, t_max);
            if ragged {
                // The last step again, generations only: a valid redundant
                // regeneration that no period covers.
                let last = proto.host_steps() - 1;
                let again: Vec<Op> = (0..m as Node)
                    .map(|q| match proto.op(last, q) {
                        op @ Op::Generate(_) => op,
                        _ => Op::Idle,
                    })
                    .collect();
                proto.push_step(&again);
            }
            prop_assert!(check(&guest, &host, &proto).is_ok(), "invalid: {:?}", proto);
            prop_assert_eq!(periodic_form(&proto).is_some(), t_max >= 3 && !ragged);
            let (pos, field) = mutation;
            for proto in [proto.clone(), mutated(&proto, pos, field)] {
                let reference = replay_with::<HashCustody>(&guest, &host, &proto, None);
                let form = periodic_form(&proto);
                prop_assert_eq!(replay(&guest, &host, &proto, None), reference.clone());
                prop_assert_eq!(
                    replay_with::<HashCustody>(&guest, &host, &proto, form),
                    reference.clone()
                );
                prop_assert_eq!(check(&guest, &host, &proto), reference);
            }
        }
    }

    #[test]
    fn inefficiency_of_tiny_protocol() {
        let (_, _, proto) = tiny_valid_protocol();
        // T' = 3, T = 1, m = 2, n = 3: s = 3, k = 3·2/3 = 2.
        assert_eq!(proto.slowdown(), 3.0);
        assert_eq!(proto.inefficiency(), 2.0);
    }
}
