//! The pebble checker against a reference: the straightforward dense-row,
//! per-host hash-map replay of the Section 3.1 rules. On engine-built
//! protocols, unmutated or with one op replaced, both must return the same
//! verdict: the same `CheckError` (variant and fields), or on acceptance
//! the same custody record for every pebble.

use proptest::prelude::*;
use universal_networks::core::prelude::*;
use universal_networks::pebble::check::RepresentativeSet;
use universal_networks::pebble::{check, CheckError, Op, Pebble, Protocol, Trace};
use universal_networks::topology::generators::*;
use universal_networks::topology::util::{seeded_rng, FxHashMap};
use universal_networks::topology::{Graph, Node};

/// Custody as the reference records it; `t ≥ 1` pebbles are indexed
/// `i·T + (t − 1)`.
struct RefTrace {
    /// Hosts holding each pebble, in order of first acquisition.
    holders: Vec<Vec<Node>>,
    /// Hosts that generated each pebble, in execution order.
    generated_by: Vec<Vec<Node>>,
    /// Per host: pebble key → host step (1-based) of first acquisition.
    acquired: Vec<FxHashMap<u64, u32>>,
}

/// The reference checker: replays dense rows `op(τ, 0..m)` step by step,
/// validating every op against the pre-step custody before applying any.
fn reference_check(guest: &Graph, host: &Graph, proto: &Protocol) -> Result<RefTrace, CheckError> {
    let (n, t_max, m) = (proto.guest_n, proto.guest_t, proto.host_m);
    let idx = |p: Pebble| p.node as usize * t_max as usize + (p.t as usize - 1);
    let mut tr = RefTrace {
        holders: vec![Vec::new(); n * t_max as usize],
        generated_by: vec![Vec::new(); n * t_max as usize],
        acquired: vec![FxHashMap::default(); m],
    };
    let held_before = |acquired: &[FxHashMap<u64, u32>], q: Node, p: Pebble, step: u32| {
        if p.t == 0 {
            return (p.node as usize) < n;
        }
        acquired[q as usize].get(&p.key()).is_some_and(|&s| s < step)
    };
    for step0 in 0..proto.host_steps() {
        let step = step0 as u32 + 1;
        let row: Vec<Op> = (0..m as Node).map(|q| proto.op(step0, q)).collect();
        for (qi, &op) in row.iter().enumerate() {
            let q = qi as Node;
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
                    let preds =
                        std::iter::once(p.node).chain(guest.neighbors(p.node).iter().copied());
                    for j in preds {
                        let pred = Pebble::new(j, p.t - 1);
                        if !held_before(&tr.acquired, q, pred, step) {
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
                    if !held_before(&tr.acquired, q, pebble, step) {
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
        let acquire = |tr: &mut RefTrace, q: Node, p: Pebble| {
            if let std::collections::hash_map::Entry::Vacant(e) =
                tr.acquired[q as usize].entry(p.key())
            {
                e.insert(step);
                tr.holders[idx(p)].push(q);
            }
        };
        for (qi, &op) in row.iter().enumerate() {
            let q = qi as Node;
            match op {
                Op::Generate(p) => {
                    acquire(&mut tr, q, p);
                    tr.generated_by[idx(p)].push(q);
                }
                Op::Recv { from } => {
                    if let Op::Send { pebble, .. } = row[from as usize] {
                        if pebble.t > 0 {
                            acquire(&mut tr, q, pebble);
                        }
                    }
                }
                _ => {}
            }
        }
    }
    for i in 0..n as Node {
        if tr.generated_by[idx(Pebble::new(i, t_max))].is_empty() {
            return Err(CheckError::MissingFinalPebble { node: i });
        }
    }
    Ok(tr)
}

/// Compare an accepted protocol's trace with the reference's, pebble by
/// pebble; `Err` names the first difference.
fn same_custody(trace: &Trace, want: &RefTrace, proto: &Protocol) -> Result<(), String> {
    let (n, t_max, m) = (proto.guest_n, proto.guest_t, proto.host_m);
    if trace.host_steps != proto.host_steps() {
        return Err(format!("host_steps {} != {}", trace.host_steps, proto.host_steps()));
    }
    for i in 0..n as Node {
        for t in 0..=t_max {
            let at = format!("pebble ({i}, {t})");
            if t == 0 {
                if trace.representatives(i, 0) != RepresentativeSet::All(m) {
                    return Err(format!("{at}: initial pebble not held everywhere"));
                }
            } else {
                let k = i as usize * t_max as usize + (t as usize - 1);
                let reps = trace.representatives(i, t).to_vec();
                if reps != want.holders[k] || trace.weight(i, t) != want.holders[k].len() {
                    return Err(format!("{at}: holders {reps:?} != {:?}", want.holders[k]));
                }
                if trace.generated_by(i, t) != want.generated_by[k].as_slice() {
                    return Err(format!(
                        "{at}: generated_by {:?} != {:?}",
                        trace.generated_by(i, t),
                        want.generated_by[k]
                    ));
                }
            }
            for q in 0..m as Node {
                let p = Pebble::new(i, t);
                let expected =
                    if t == 0 { Some(0) } else { want.acquired[q as usize].get(&p.key()).copied() };
                if trace.acquisition_step(q, p) != expected {
                    return Err(format!(
                        "{at}, host {q}: acquisition_step {:?} != {expected:?}",
                        trace.acquisition_step(q, p)
                    ));
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Engine-built protocols (the strategy of `simulation_always_correct`)
    /// with at most one op replaced: the checker's `Result` equals the
    /// reference's, error for error and holder for holder.
    #[test]
    fn checker_matches_reference(
        seed in 0u64..1000,
        guest_scale in 2usize..5,   // n = 16·scale
        host_side in 2usize..4,     // m = side²
        steps in 1u32..4,
        mutation in (0usize..10_000, 0u8..5, 0u32..80, 0u32..8),
    ) {
        let n = 16 * guest_scale;
        let mut rng = seeded_rng(seed);
        let guest = random_regular(n, 4, &mut rng);
        let host = torus(host_side, host_side);
        let m = host.n();
        let comp = GuestComputation::random(guest.clone(), seed ^ 0x55);
        let router = presets::bfs();
        let run = Simulation::builder()
            .guest(&comp)
            .host(&host)
            .embedding(Embedding::block(n, m))
            .router(&router)
            .steps(steps)
            .run_with_rng(&mut rng)
            .expect("configuration is valid");

        // Replace host q's op at one step (kind 4: leave the protocol as
        // built). Nodes, levels and hosts overshoot their ranges a little
        // so out-of-range ops are covered too.
        let valid = run.protocol;
        let (pos, kind, a, b) = mutation;
        let row = pos % valid.host_steps();
        let q = ((pos / valid.host_steps()) % m) as Node;
        let pebble = Pebble::new(a % (n as u32 + 4), b % (steps + 2));
        let replacement = match kind {
            0 => Op::Idle,
            1 => Op::Generate(pebble),
            2 => Op::Send { pebble, to: a % (m as u32 + 1) },
            3 => Op::Recv { from: b % (m as u32 + 1) },
            _ => valid.op(row, q),
        };
        let mut proto = Protocol::new(valid.guest_n, valid.guest_t, valid.host_m);
        for s in 0..valid.host_steps() {
            let mut dense: Vec<Op> = (0..m as Node).map(|h| valid.op(s, h)).collect();
            if s == row {
                dense[q as usize] = replacement;
            }
            proto.push_step(&dense);
        }

        match (check(&guest, &host, &proto), reference_check(&guest, &host, &proto)) {
            (Err(got), Err(want)) => prop_assert_eq!(got, want),
            (Ok(trace), Ok(want)) => {
                if let Err(diff) = same_custody(&trace, &want, &proto) {
                    return Err(TestCaseError::fail(diff));
                }
            }
            (got, want) => {
                return Err(TestCaseError::fail(format!(
                    "verdicts differ: checker {:?}, reference {:?}",
                    got.err(),
                    want.err()
                )));
            }
        }
    }
}
