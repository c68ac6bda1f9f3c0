//! Step-by-step protocol replay.
//!
//! The checker ([`crate::check`](fn@crate::check)) validates a protocol wholesale; this
//! module *observes* one: an iterator that walks host steps and yields a
//! [`StepSummary`] per step (what was generated, moved, how custody grew),
//! plus access to the evolving per-host pebble sets. Useful for debugging
//! simulators, for teaching the model, and for rendering progress timelines.
//!
//! Replay does not re-validate; feed it checker-approved protocols.

use crate::protocol::{Op, Pebble, Protocol};
use unet_topology::util::FxHashSet;
use unet_topology::Node;

/// What happened in one host step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepSummary {
    /// Host step index (0-based).
    pub step: usize,
    /// Pebbles generated this step, with their generating host.
    pub generated: Vec<(Node, Pebble)>,
    /// Transfers `(from, to, pebble)` completed this step.
    pub transferred: Vec<(Node, Node, Pebble)>,
    /// Number of idle processors.
    pub idle: usize,
    /// Total distinct `(host, pebble)` custody pairs after this step
    /// (excluding the implicit initial pebbles).
    pub custody: usize,
    /// Highest guest level with any generated pebble so far (0 if none).
    pub frontier_level: u32,
}

/// Replaying iterator over a protocol's host steps.
pub struct Replay<'a> {
    proto: &'a Protocol,
    step: usize,
    held: Vec<FxHashSet<u64>>,
    custody: usize,
    frontier: u32,
}

impl<'a> Replay<'a> {
    /// Start a replay at step 0 (only initial pebbles held).
    pub fn new(proto: &'a Protocol) -> Self {
        Replay {
            proto,
            step: 0,
            held: vec![FxHashSet::default(); proto.host_m],
            custody: 0,
            frontier: 0,
        }
    }

    /// Pebbles (t ≥ 1) currently held by host `q`.
    pub fn held_by(&self, q: Node) -> Vec<Pebble> {
        let mut v: Vec<Pebble> =
            self.held[q as usize].iter().map(|&k| Pebble::from_key(k)).collect();
        v.sort_unstable();
        v
    }

    /// Steps consumed so far.
    pub fn position(&self) -> usize {
        self.step
    }

    /// Run to completion, returning every summary.
    pub fn run(self) -> Vec<StepSummary> {
        self.collect()
    }
}

impl Iterator for Replay<'_> {
    type Item = StepSummary;

    fn next(&mut self) -> Option<StepSummary> {
        if self.step >= self.proto.host_steps() {
            return None;
        }
        let row = self.proto.step(self.step);
        let mut generated = Vec::new();
        let mut transferred = Vec::new();
        for &(q, op) in row {
            match op {
                Op::Idle | Op::Recv { .. } => {}
                Op::Generate(p) => generated.push((q, p)),
                Op::Send { pebble, to } => transferred.push((q, to, pebble)),
            }
        }
        // Apply effects.
        for &(q, p) in &generated {
            if self.held[q as usize].insert(p.key()) {
                self.custody += 1;
            }
            self.frontier = self.frontier.max(p.t);
        }
        for &(_, to, p) in &transferred {
            if p.t >= 1 && self.held[to as usize].insert(p.key()) {
                self.custody += 1;
            }
        }
        let summary = StepSummary {
            step: self.step,
            generated,
            transferred,
            idle: self.proto.host_m - row.len(),
            custody: self.custody,
            frontier_level: self.frontier,
        };
        self.step += 1;
        Some(summary)
    }
}

/// A one-line-per-step timeline rendering (capped at `max_lines`).
pub fn render_timeline(proto: &Protocol, max_lines: usize) -> String {
    let mut out = String::new();
    for s in Replay::new(proto).take(max_lines) {
        out.push_str(&format!(
            "step {:>5}: {:>3} gen, {:>3} xfer, {:>3} idle | custody {:>6} | frontier t={}\n",
            s.step,
            s.generated.len(),
            s.transferred.len(),
            s.idle,
            s.custody,
            s.frontier_level
        ));
    }
    if proto.host_steps() > max_lines {
        out.push_str(&format!("… ({} more steps)\n", proto.host_steps() - max_lines));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ProtocolBuilder;

    fn sample() -> Protocol {
        let mut b = ProtocolBuilder::new(3, 1, 2);
        b.set_op(0, Op::Generate(Pebble::new(0, 1)));
        b.end_step();
        b.transfer(0, 1, Pebble::new(0, 1));
        b.end_step();
        b.set_op(0, Op::Generate(Pebble::new(1, 1)));
        b.set_op(1, Op::Generate(Pebble::new(2, 1)));
        b.end_step();
        b.finish()
    }

    #[test]
    fn replay_tracks_custody_and_frontier() {
        let proto = sample();
        let steps = Replay::new(&proto).run();
        assert_eq!(steps.len(), 3);
        assert_eq!(steps[0].generated, vec![(0, Pebble::new(0, 1))]);
        assert_eq!(steps[0].custody, 1);
        assert_eq!(steps[0].idle, 1);
        assert_eq!(steps[1].transferred, vec![(0, 1, Pebble::new(0, 1))]);
        assert_eq!(steps[1].custody, 2); // host 1 now also holds (0,1)
        assert_eq!(steps[2].custody, 4);
        assert!(steps.iter().all(|s| s.frontier_level == 1));
    }

    #[test]
    fn held_by_reflects_progress() {
        let proto = sample();
        let mut r = Replay::new(&proto);
        assert!(r.held_by(1).is_empty());
        r.next();
        r.next();
        assert_eq!(r.held_by(1), vec![Pebble::new(0, 1)]);
        assert_eq!(r.position(), 2);
    }

    #[test]
    fn regenerating_same_pebble_does_not_double_count() {
        let mut b = ProtocolBuilder::new(1, 1, 1);
        b.set_op(0, Op::Generate(Pebble::new(0, 1)));
        b.end_step();
        b.set_op(0, Op::Generate(Pebble::new(0, 1)));
        b.end_step();
        let proto = b.finish();
        let steps = Replay::new(&proto).run();
        assert_eq!(steps[1].custody, 1);
    }

    #[test]
    fn timeline_renders_and_caps() {
        let proto = sample();
        let t = render_timeline(&proto, 2);
        assert_eq!(t.lines().count(), 3); // 2 steps + "… (1 more steps)"
        assert!(t.contains("1 gen"));
        assert!(t.contains("more steps"));
        let full = render_timeline(&proto, 10);
        assert_eq!(full.lines().count(), 3);
    }
}
