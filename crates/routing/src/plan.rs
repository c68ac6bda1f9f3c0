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
use unet_topology::Node;

/// A replayable transfer schedule: the matching decomposition of a routing
/// outcome into pebble-game rounds, with payloads left symbolic (each
/// `(from, to, packet)` triple carries the packet index to look the
/// payload up by at replay time).
///
/// Stored flat: every round's triples in one allocation, in emission
/// order, plus each round's end offset, both exactly sized. A plan kept
/// for a whole run or in a shared cache costs its transfers and nothing
/// per round.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RoutePlan {
    transfers: Vec<(Node, Node, u32)>,
    /// `ends[r]` = end of round `r` in `transfers` (round `r` starts where
    /// round `r − 1` ends).
    ends: Vec<usize>,
}

impl RoutePlan {
    /// The port-disjoint rounds, in emission order. Each round becomes
    /// exactly one pebble step.
    pub fn rounds(&self) -> impl ExactSizeIterator<Item = &[(Node, Node, u32)]> + '_ {
        (0..self.ends.len()).map(|r| {
            let lo = if r == 0 { 0 } else { self.ends[r - 1] };
            &self.transfers[lo..self.ends[r]]
        })
    }

    /// Number of pebble steps a replay of this plan emits.
    pub fn pebble_steps(&self) -> usize {
        self.ends.len()
    }

    /// Total non-self transfers in the plan.
    pub fn transfer_count(&self) -> usize {
        self.transfers.len()
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
/// **bit-for-bit identical** protocol segment. A node is busy in a round
/// when its stamp equals the round's number, so no per-round set is built.
pub fn extract_plan(transfers: &[Transfer]) -> RoutePlan {
    let mut nodes = 0usize;
    let mut moves = 0usize;
    for t in transfers.iter().filter(|t| t.from != t.to) {
        nodes = nodes.max(t.from.max(t.to) as usize + 1);
        moves += 1;
    }
    let mut plan = RoutePlan { transfers: Vec::with_capacity(moves), ends: Vec::new() };
    // used[v] == round: v already sends or receives in round `round`.
    let mut used = vec![0u32; nodes];
    let mut round = 0u32;
    let mut remaining: Vec<(Node, Node, u32)> = Vec::new();
    let mut deferred: Vec<(Node, Node, u32)> = Vec::new();
    for step in transfers.chunk_by(|a, b| a.step == b.step) {
        remaining.clear();
        remaining
            .extend(step.iter().filter(|t| t.from != t.to).map(|t| (t.from, t.to, t.packet_id)));
        while !remaining.is_empty() {
            round += 1;
            for &(from, to, pid) in &remaining {
                if used[from as usize] == round || used[to as usize] == round {
                    deferred.push((from, to, pid));
                    continue;
                }
                used[from as usize] = round;
                used[to as usize] = round;
                plan.transfers.push((from, to, pid));
            }
            plan.ends.push(plan.transfers.len());
            std::mem::swap(&mut remaining, &mut deferred);
            deferred.clear();
        }
    }
    plan.ends.shrink_to_fit();
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;
    use unet_topology::util::FxHashSet;

    /// Reference for [`extract_plan`]: the nested decomposition it
    /// replaced, one `Vec` and one `FxHashSet` per round.
    fn extract_rounds_reference(transfers: &[Transfer]) -> Vec<Vec<(Node, Node, u32)>> {
        let mut rounds = Vec::new();
        let mut idx = 0usize;
        while idx < transfers.len() {
            let step = transfers[idx].step;
            let mut hi = idx;
            while hi < transfers.len() && transfers[hi].step == step {
                hi += 1;
            }
            let mut remaining: Vec<&Transfer> =
                transfers[idx..hi].iter().filter(|t| t.from != t.to).collect();
            while !remaining.is_empty() {
                let mut used: FxHashSet<Node> = FxHashSet::default();
                let mut round = Vec::new();
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
        rounds
    }

    fn rounds(plan: &RoutePlan) -> Vec<Vec<(Node, Node, u32)>> {
        plan.rounds().map(<[_]>::to_vec).collect()
    }

    fn t(step: u32, from: Node, to: Node, packet_id: u32) -> Transfer {
        Transfer { step, from, to, packet_id }
    }

    #[test]
    fn extracts_port_disjoint_rounds() {
        // Step 0: 0→1 and 1→2 conflict on node 1 → two rounds.
        // Step 1: 2→3 alone → one round.
        let transfers = vec![t(0, 0, 1, 0), t(0, 1, 2, 1), t(1, 2, 3, 0)];
        let plan = extract_plan(&transfers);
        assert_eq!(rounds(&plan), vec![vec![(0, 1, 0)], vec![(1, 2, 1)], vec![(2, 3, 0)]]);
        assert_eq!(plan.pebble_steps(), 3);
        assert_eq!(plan.transfer_count(), 3);
    }

    #[test]
    fn self_transfers_dropped() {
        let transfers = vec![t(0, 5, 5, 0), t(0, 1, 2, 1)];
        let plan = extract_plan(&transfers);
        assert_eq!(rounds(&plan), vec![vec![(1, 2, 1)]]);
    }

    #[test]
    fn step_of_only_self_transfers_emits_nothing() {
        // filter leaves `remaining` empty, so the step contributes no round
        // (matching the engine, which never emitted an empty pebble step
        // for a lazy-only engine step).
        let transfers = vec![t(0, 4, 4, 0), t(1, 1, 2, 1)];
        let plan = extract_plan(&transfers);
        assert_eq!(plan.rounds().len(), 1);
        assert_eq!(extract_plan(&[t(0, 3, 3, 0)]), RoutePlan::default());
    }

    #[test]
    fn disjoint_transfers_share_a_round() {
        let transfers = vec![t(0, 0, 1, 0), t(0, 2, 3, 1), t(0, 4, 5, 2)];
        let plan = extract_plan(&transfers);
        assert_eq!(plan.pebble_steps(), 1);
        assert_eq!(plan.rounds().next().map(<[_]>::len), Some(3));
    }

    #[test]
    fn delta_two_needs_at_most_three_rounds() {
        // A directed cycle 0→1→2→0 has in/out degree 1 everywhere; the
        // greedy decomposition uses ≤ 3 rounds (here exactly 2 or 3).
        let transfers = vec![t(0, 0, 1, 0), t(0, 1, 2, 1), t(0, 2, 0, 2)];
        let plan = extract_plan(&transfers);
        assert!(plan.pebble_steps() <= 3);
        assert_eq!(plan.transfer_count(), 3);
    }

    #[test]
    fn engine_plans_equal_the_nested_rounds() {
        use crate::packet::route_simple;
        use unet_topology::generators::torus;
        let g = torus(5, 5);
        let mut rng = unet_topology::util::seeded_rng(4);
        let pairs: Vec<(Node, Node)> =
            (0..120).map(|_| (rng.gen_range(0..25), rng.gen_range(0..25))).collect();
        let out = route_simple(&g, &pairs).unwrap();
        let plan = extract_plan(&out.transfers);
        let reference = extract_rounds_reference(&out.transfers);
        assert!(reference.len() > out.steps as usize, "some step needs two rounds");
        assert_eq!(rounds(&plan), reference);
        assert_eq!(plan.transfer_count(), reference.iter().map(Vec::len).sum::<usize>());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The flat plan's rounds equal the nested reference's on any
        /// transfer list: several transfers per node and step, self
        /// transfers, and steps that skip numbers.
        #[test]
        fn flat_rounds_equal_nested_rounds(
            moves in prop::collection::vec((0u32..3, 0u32..8, 0u32..8), 0..60),
        ) {
            let mut step = 0;
            let transfers: Vec<Transfer> = moves
                .iter()
                .enumerate()
                .map(|(i, &(gap, from, to))| {
                    step += gap / 2;
                    t(step, from, to, i as u32)
                })
                .collect();
            let plan = extract_plan(&transfers);
            let reference = extract_rounds_reference(&transfers);
            prop_assert_eq!(plan.pebble_steps(), reference.len());
            prop_assert_eq!(plan.transfer_count(), reference.iter().map(Vec::len).sum::<usize>());
            prop_assert_eq!(rounds(&plan), reference);
        }
    }
}
