//! Protocol optimization: dead-operation elimination.
//!
//! A protocol may contain operations that contribute nothing to the final
//! pebbles — redundant generations (flooding-style simulators produce them
//! wholesale), speculative sends, entire idle processors. [`prune`] runs a
//! backward demand analysis from the final pebbles and strips every
//! operation that no later useful operation depends on, then drops host
//! steps that became fully idle. The result is a valid protocol (re-check it
//! to be sure — tests do) that simulates the same guest computation with at
//! most the original `T'` and usually far fewer busy operations.
//!
//! This is also an analysis tool for the theory: the pruned protocol's
//! weight profile `q_{i,t}` is the "essential redundancy" of a simulation —
//! the quantity the lower-bound's counting actually bites on.

use crate::protocol::{Op, Pebble, Protocol, ProtocolBuilder};
use unet_topology::util::{FxHashMap, FxHashSet};
use unet_topology::{Graph, Node};

/// Statistics from a [`prune`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PruneStats {
    /// Busy (non-idle) operations before.
    pub busy_before: usize,
    /// Busy operations after.
    pub busy_after: usize,
    /// Host steps before.
    pub steps_before: usize,
    /// Host steps after (all-idle steps dropped).
    pub steps_after: usize,
}

/// Remove every operation that does not contribute to producing the final
/// pebbles `(P_i, T)`, keeping for each final pebble its earliest generation.
///
/// The input must be a *valid* protocol for `guest` (behaviour on invalid
/// protocols is unspecified but memory-safe).
pub fn prune(guest: &Graph, proto: &Protocol) -> (Protocol, PruneStats) {
    let t_final = proto.guest_t;
    let busy_before = proto.busy_ops();

    // Designate the earliest generator of each final pebble.
    let mut designated: FxHashSet<(usize, Node)> = FxHashSet::default(); // (step, host)
    {
        let mut have: FxHashSet<Node> = FxHashSet::default();
        for (si, row) in proto.steps().enumerate() {
            for (q, op) in row {
                if let Op::Generate(p) = op {
                    if p.t == t_final && have.insert(p.node) {
                        designated.insert((si, q));
                    }
                }
            }
        }
    }

    // Backward demand analysis. demand[q] = pebbles that must be present at
    // q strictly before the step currently being processed. useful[e] marks
    // the e-th stored op, counting over all steps in order.
    let mut demand: Vec<FxHashSet<u64>> = vec![FxHashSet::default(); proto.host_m];
    let mut useful = vec![false; busy_before];
    let mut end = busy_before;

    for si in (0..proto.host_steps()).rev() {
        let row = proto.step(si);
        let base = end - row.len();
        end = base;
        // Phase 1: decide usefulness against demand-from-later, collecting
        // the new demands to apply afterwards (same-step effects must not
        // satisfy same-step requirements).
        let mut new_demands: Vec<(usize, u64)> = Vec::new();
        for (k, (q, op)) in row.iter().enumerate() {
            match op {
                Op::Generate(p) => {
                    let wanted =
                        demand[q as usize].remove(&p.key()) || designated.contains(&(si, q));
                    if wanted {
                        useful[base + k] = true;
                        // Preconditions: closed neighbourhood at t−1.
                        if p.t >= 2 {
                            new_demands.push((q as usize, Pebble::new(p.node, p.t - 1).key()));
                            for &nb in guest.neighbors(p.node) {
                                new_demands.push((q as usize, Pebble::new(nb, p.t - 1).key()));
                            }
                        }
                    }
                }
                Op::Send { pebble, to } => {
                    let wanted = pebble.t >= 1 && demand[to as usize].remove(&pebble.key());
                    if wanted {
                        useful[base + k] = true;
                        // The paired recv.
                        if let Some(r) = row.position(to) {
                            useful[base + r] = true;
                        }
                        new_demands.push((q as usize, pebble.key()));
                    }
                }
                // Recv usefulness is set by its paired send.
                Op::Recv { .. } | Op::Idle => {}
            }
        }
        for (q, key) in new_demands {
            // t = 0 pebbles are initially everywhere; never demanded.
            if Pebble::from_key(key).t >= 1 {
                demand[q].insert(key);
            }
        }
    }
    debug_assert!(
        demand.iter().all(|d| d.is_empty()),
        "unmet demand: the input protocol was invalid"
    );

    // Rebuild: strip useless ops, drop all-idle steps.
    let mut out = ProtocolBuilder::new(proto.guest_n, t_final, proto.host_m);
    let mut base = 0;
    for row in proto.steps() {
        let keep = &useful[base..base + row.len()];
        base += row.len();
        for ((q, op), _) in row.iter().zip(keep).filter(|(_, &k)| k) {
            out.set_op(q, op);
        }
        if keep.contains(&true) {
            out.end_step();
        }
    }
    let out = out.finish();
    let stats = PruneStats {
        busy_before,
        busy_after: out.busy_ops(),
        steps_before: proto.host_steps(),
        steps_after: out.host_steps(),
    };
    (out, stats)
}

/// The essential weight profile: `q_{i,t}` of the pruned protocol — how many
/// copies of each configuration a simulation *needs*, as opposed to how many
/// it happened to make.
pub fn essential_weights(guest: &Graph, host: &Graph, proto: &Protocol) -> FxHashMap<u64, usize> {
    let (pruned, _) = prune(guest, proto);
    let trace = crate::check::check(guest, host, &pruned).expect("pruned protocol stays valid");
    let mut out = FxHashMap::default();
    for i in 0..proto.guest_n as Node {
        for t in 1..=proto.guest_t {
            out.insert(Pebble::new(i, t).key(), trace.weight(i, t));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check;
    use crate::protocol::ProtocolBuilder;
    use unet_topology::generators::{complete, ring};

    /// Host 0 does the honest work; host 1 floods uselessly.
    fn protocol_with_waste() -> (Graph, Graph, Protocol) {
        let guest = ring(3);
        let host = complete(2);
        let mut b = ProtocolBuilder::new(3, 2, 2);
        for t in 1..=2u32 {
            for i in 0..3u32 {
                b.set_op(0, Op::Generate(Pebble::new(i, t)));
                b.set_op(1, Op::Generate(Pebble::new(i, t))); // redundant
                b.end_step();
            }
        }
        (guest, host, b.finish())
    }

    #[test]
    fn prune_strips_redundant_generator() {
        let (guest, host, proto) = protocol_with_waste();
        check(&guest, &host, &proto).expect("valid before");
        let (pruned, stats) = prune(&guest, &proto);
        check(&guest, &host, &pruned).expect("valid after");
        // Host 1's entire cascade is dead: finals are designated on host 0.
        assert_eq!(stats.busy_before, 12);
        assert_eq!(stats.busy_after, 6);
        assert_eq!(stats.steps_after, 6);
        for tau in 0..pruned.host_steps() {
            assert_eq!(pruned.op(tau, 1), Op::Idle);
        }
    }

    #[test]
    fn prune_keeps_useful_transfers() {
        // Host 0 generates level 1, ships to host 1 which generates level 2:
        // everything is load-bearing, nothing may be pruned.
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
        check(&guest, &host, &proto).expect("valid before");
        let (pruned, stats) = prune(&guest, &proto);
        check(&guest, &host, &pruned).expect("valid after");
        assert_eq!(stats.busy_after, stats.busy_before);
        assert_eq!(stats.steps_after, stats.steps_before);
    }

    #[test]
    fn prune_drops_speculative_send() {
        // A send whose payload nobody ever uses must disappear, along with
        // the step that held it.
        let guest = ring(3);
        let host = complete(2);
        let mut b = ProtocolBuilder::new(3, 1, 2);
        b.transfer(0, 1, Pebble::new(0, 0)); // pointless: initials are everywhere
        b.end_step();
        for i in 0..3u32 {
            b.set_op(0, Op::Generate(Pebble::new(i, 1)));
            b.end_step();
        }
        let proto = b.finish();
        check(&guest, &host, &proto).expect("valid before");
        let (pruned, stats) = prune(&guest, &proto);
        check(&guest, &host, &pruned).expect("valid after");
        assert_eq!(stats.steps_after, 3);
        assert_eq!(stats.busy_after, 3);
    }

    #[test]
    fn essential_weights_all_one_for_lean_protocol() {
        let (guest, host, proto) = protocol_with_waste();
        let w = essential_weights(&guest, &host, &proto);
        assert!(w.values().all(|&v| v == 1), "{w:?}");
    }
}
