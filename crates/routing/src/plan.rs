//! Replayable route plans: the step-invariant skeleton of a routing run.
//!
//! For a *static* embedding, the induced `h–h` routing problem of Theorem 2.1
//! is identical at every guest step `gt > 1`: the same `(source, target)`
//! pairs, hence (for a deterministic seed) the same router schedule and the
//! same matching decomposition into pebble-game send/receive rounds. Only the
//! *payloads* — which pebble each packet carries — change per step.
//!
//! [`RoutePlan`] captures that skeleton once: the port-disjoint rounds of
//! `(from, to, packet)` transfers produced by the greedy Δ=2 matching
//! decomposition (at most 3 pebble steps per engine step — the Vizing/Shannon
//! bound the engine has always relied on). Replaying a plan with a fresh
//! payload table is then a tight loop over precomputed triples, skipping path
//! selection, queueing, and matching entirely. The engines that replay a plan
//! decide themselves how long it stays valid: the healthy engine for the
//! whole run, the degraded one until the fault epoch or the pair set moves.

use crate::packet::Transfer;
use unet_topology::util::FxHashSet;
use unet_topology::Node;

/// One port-disjoint round: transfers that may share a pebble step.
pub type PlanRound = Vec<(Node, Node, u32)>;

/// A replayable transfer schedule: the matching decomposition of a routing
/// outcome into pebble-game rounds, with payloads left symbolic (each triple
/// carries the packet index to look the payload up by at replay time).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RoutePlan {
    /// Port-disjoint rounds, in emission order. Each round becomes exactly
    /// one pebble step; `rounds.len()` is the communication-step cost.
    pub rounds: Vec<PlanRound>,
}

impl RoutePlan {
    /// Number of pebble steps a replay of this plan emits.
    pub fn pebble_steps(&self) -> usize {
        self.rounds.len()
    }

    /// Total non-self transfers in the plan.
    pub fn transfer_count(&self) -> usize {
        self.rounds.iter().map(Vec::len).sum()
    }
}

/// Decompose a packet-engine transfer schedule into a replayable
/// [`RoutePlan`].
///
/// The engine's port model allows a node to send *and* receive in the same
/// synchronous step; the pebble game allows only one operation per processor
/// per step. Each engine step's transfers form a multigraph of maximum
/// degree 2 (≤ 1 out, ≤ 1 in per node), so a greedy matching decomposition
/// needs at most 3 rounds per engine step. Self-transfers (lazy path
/// segments) are dropped — custody already covers them.
///
/// The greedy order is identical to the decomposition the sequential engine
/// has always performed inline, so replaying the extracted plan emits a
/// **bit-for-bit identical** protocol segment.
pub fn extract_plan(transfers: &[Transfer]) -> RoutePlan {
    let mut rounds: Vec<PlanRound> = Vec::new();
    let mut idx = 0usize;
    while idx < transfers.len() {
        // Slice out one engine step.
        let step = transfers[idx].step;
        let mut hi = idx;
        while hi < transfers.len() && transfers[hi].step == step {
            hi += 1;
        }
        let mut remaining: Vec<&Transfer> =
            transfers[idx..hi].iter().filter(|t| t.from != t.to).collect();
        while !remaining.is_empty() {
            let mut used: FxHashSet<Node> = FxHashSet::default();
            let mut round: PlanRound = Vec::new();
            let mut next_round = Vec::new();
            for t in remaining {
                if used.contains(&t.from) || used.contains(&t.to) {
                    next_round.push(t);
                    continue;
                }
                used.insert(t.from);
                used.insert(t.to);
                round.push((t.from, t.to, t.packet_id));
            }
            rounds.push(round);
            remaining = next_round;
        }
        idx = hi;
    }
    RoutePlan { rounds }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(step: u32, from: Node, to: Node, packet_id: u32) -> Transfer {
        Transfer { step, from, to, packet_id }
    }

    #[test]
    fn extracts_port_disjoint_rounds() {
        // Step 0: 0→1 and 1→2 conflict on node 1 → two rounds.
        // Step 1: 2→3 alone → one round.
        let transfers = vec![t(0, 0, 1, 0), t(0, 1, 2, 1), t(1, 2, 3, 0)];
        let plan = extract_plan(&transfers);
        assert_eq!(plan.rounds.len(), 3);
        assert_eq!(plan.rounds[0], vec![(0, 1, 0)]);
        assert_eq!(plan.rounds[1], vec![(1, 2, 1)]);
        assert_eq!(plan.rounds[2], vec![(2, 3, 0)]);
        assert_eq!(plan.pebble_steps(), 3);
        assert_eq!(plan.transfer_count(), 3);
    }

    #[test]
    fn self_transfers_dropped() {
        let transfers = vec![t(0, 5, 5, 0), t(0, 1, 2, 1)];
        let plan = extract_plan(&transfers);
        assert_eq!(plan.rounds, vec![vec![(1, 2, 1)]]);
    }

    #[test]
    fn step_of_only_self_transfers_emits_nothing() {
        // filter leaves `remaining` empty, so the step contributes no round
        // (matching the engine, which never emitted an empty pebble step
        // for a lazy-only engine step).
        let transfers = vec![t(0, 4, 4, 0), t(1, 1, 2, 1)];
        let plan = extract_plan(&transfers);
        assert_eq!(plan.rounds.len(), 1);
    }

    #[test]
    fn disjoint_transfers_share_a_round() {
        let transfers = vec![t(0, 0, 1, 0), t(0, 2, 3, 1), t(0, 4, 5, 2)];
        let plan = extract_plan(&transfers);
        assert_eq!(plan.rounds.len(), 1);
        assert_eq!(plan.rounds[0].len(), 3);
    }

    #[test]
    fn delta_two_needs_at_most_three_rounds() {
        // A directed cycle 0→1→2→0 has in/out degree 1 everywhere; the
        // greedy decomposition uses ≤ 3 rounds (here exactly 2 or 3).
        let transfers = vec![t(0, 0, 1, 0), t(0, 1, 2, 1), t(0, 2, 0, 2)];
        let plan = extract_plan(&transfers);
        assert!(plan.rounds.len() <= 3);
        assert_eq!(plan.transfer_count(), 3);
    }
}
