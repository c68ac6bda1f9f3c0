//! The wavefront argument (Definition 3.16, Proposition 3.17, Lemma 3.15).
//!
//! For a simulation protocol, `e_t(τ)` counts the guest nodes whose
//! `t`-pebble exists by host step `τ`. Because generating `(P_i, t)`
//! requires *all* neighbours' `(t−1)`-pebbles to exist strictly earlier, the
//! expander inside `G₀` forces the wavefront to spread: if the `t`-level set
//! is still small (`≤ α·n`), the `(t−1)`-level set one step earlier is at
//! least `β` times larger (Proposition 3.17). Combined with the shortage of
//! *heavy* processors, each guest level costs the host
//! `Ω(γ·n / (√m·k))` steps — the engine behind `k = Ω(m^{1/4})` in
//! Lemma 3.15's closing computation.

use unet_pebble::check::Trace;
use unet_topology::{Graph, Node};

/// `existence[t−1][i]` = earliest host step (1-based) at which a pebble
/// `(P_i, t)` exists anywhere, for `t ∈ [1, T]`; `u32::MAX` if never.
/// Level `t = 0` exists at step 0 by definition (initial pebbles).
pub fn existence_times(trace: &Trace) -> Vec<Vec<u32>> {
    let n = trace.guest_n;
    (1..=trace.guest_t)
        .map(|t| {
            (0..n as Node)
                .map(|i| {
                    // A pebble cannot be received before being generated, so
                    // the first acquisition is the first generation step.
                    trace.acquisitions(i, t).next().map_or(u32::MAX, |(_, step)| step)
                })
                .collect()
        })
        .collect()
}

/// `e_t(τ)` for one level `t ≥ 1`: how many `t`-pebbles exist by step `τ`.
pub fn e_of(existence: &[Vec<u32>], t: u32, tau: u32) -> usize {
    existence[t as usize - 1].iter().filter(|&&s| s <= tau).count()
}

/// The full curve `e_t(0..=T')` for one level.
pub fn e_curve(existence: &[Vec<u32>], t: u32, t_prime: u32) -> Vec<usize> {
    (0..=t_prime).map(|tau| e_of(existence, t, tau)).collect()
}

/// `τ_j` of Definition 3.16: the earliest host step at which at least
/// `threshold` many `t`-pebbles exist. `None` if never reached.
pub fn tau_threshold(existence: &[Vec<u32>], t: u32, threshold: usize) -> Option<u32> {
    let mut times: Vec<u32> = existence[t as usize - 1].clone();
    times.sort_unstable();
    times.get(threshold.saturating_sub(1)).copied().filter(|&s| s != u32::MAX)
}

/// Verify the expansion step (Proposition 3.17) mechanically: for every
/// level `t ≥ 2` and every host step `τ ≥ 1`, each guest node whose
/// `t`-pebble exists by `τ` has its whole closed neighbourhood's
/// `(t−1)`-pebbles existing by `τ − 1`. This is the data-dependency fact the
/// proposition's proof rests on; the checker makes it true by construction,
/// and this function *re-verifies it from the trace alone*.
pub fn verify_dependency_monotonicity(guest: &Graph, existence: &[Vec<u32>]) -> Result<(), String> {
    let levels = existence.len();
    for t in 2..=levels {
        for i in 0..guest.n() as Node {
            let et = existence[t - 1][i as usize];
            if et == u32::MAX {
                continue;
            }
            let check = |j: Node| -> Result<(), String> {
                let prev = existence[t - 2][j as usize];
                if prev >= et {
                    return Err(format!(
                        "(P{i}, {t}) exists at {et} but predecessor (P{j}, {}) only at {prev}",
                        t - 1
                    ));
                }
                Ok(())
            };
            check(i)?;
            for &j in guest.neighbors(i) {
                check(j)?;
            }
        }
    }
    Ok(())
}

/// The Proposition 3.17 inequality at one level: if `e_{t−1}(τ−1) < α·n`
/// then `e_t(τ) ≤ (α/β)·n` for an `(α, β)`-expander guest. Returns the
/// measured pair `(e_{t−1}(τ−1), e_t(τ))` plus whether the implication holds.
pub fn expansion_step(
    guest_n: usize,
    existence: &[Vec<u32>],
    t: u32,
    tau: u32,
    alpha: f64,
    beta: f64,
) -> (usize, usize, bool) {
    let prev = if t >= 2 {
        e_of(existence, t - 1, tau.saturating_sub(1))
    } else {
        guest_n // level 0 always complete
    };
    let cur = e_of(existence, t, tau);
    let holds = if (prev as f64) < alpha * guest_n as f64 {
        (cur as f64) <= (alpha / beta) * guest_n as f64 + 1e-9
    } else {
        true // implication vacuous
    };
    (prev, cur, holds)
}

/// Summary of the wavefront audit over all levels and a grid of steps.
#[derive(Debug, Clone)]
pub struct WavefrontAudit {
    /// `τ_j` per guest level `t = 1..=T` at threshold `α·n`.
    pub taus: Vec<Option<u32>>,
    /// Minimum observed gap `τ_{j+1} − τ_j` (the quantity Lemma 3.15 lower
    /// bounds by `γ·n/(384·√m·k)`).
    pub min_gap: Option<u32>,
    /// Whether dependency monotonicity held.
    pub monotone: bool,
    /// Whether every tested expansion step held.
    pub expansion_ok: bool,
}

/// Run the full wavefront audit (uses the guest's certified `(α, β)` — in
/// practice the expander certificate of the `G₀` inside the guest).
pub fn audit(guest: &Graph, trace: &Trace, alpha: f64, beta: f64) -> WavefrontAudit {
    let existence = existence_times(trace);
    let n = guest.n();
    let threshold = (alpha * n as f64).ceil() as usize;
    let taus: Vec<Option<u32>> =
        (1..=trace.guest_t).map(|t| tau_threshold(&existence, t, threshold)).collect();
    let mut min_gap: Option<u32> = None;
    for w in taus.windows(2) {
        if let (Some(a), Some(b)) = (w[0], w[1]) {
            let gap = b.saturating_sub(a);
            min_gap = Some(min_gap.map_or(gap, |g| g.min(gap)));
        }
    }
    let monotone = verify_dependency_monotonicity(guest, &existence).is_ok();
    let mut expansion_ok = true;
    for t in 1..=trace.guest_t {
        if let Some(tau) = taus[t as usize - 1] {
            // Test the proposition exactly at τ_j as the proof does.
            let (_, _, ok) = expansion_step(n, &existence, t, tau.saturating_sub(0), alpha, beta);
            // Note: at τ_j the *previous* level may already exceed αn, in
            // which case the implication is vacuous — `ok` handles that.
            expansion_ok &= ok;
        }
    }
    WavefrontAudit { taus, min_gap, monotone, expansion_ok }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unet_core::{Embedding, GuestComputation, Simulation};
    use unet_pebble::check;
    use unet_topology::generators::{random_hamiltonian_union, torus};
    use unet_topology::util::seeded_rng;

    fn simulate_expander_guest() -> (Graph, Trace) {
        let mut rng = seeded_rng(9);
        let guest = random_hamiltonian_union(24, 2, &mut rng); // 4-regular expander
        let comp = GuestComputation::random(guest.clone(), 3);
        let host = torus(2, 2);
        let router = unet_core::routers::presets::bfs();
        let run = Simulation::builder()
            .guest(&comp)
            .host(&host)
            .embedding(Embedding::block(24, 4))
            .router(&router)
            .steps(4)
            .run_with_rng(&mut seeded_rng(10))
            .expect("valid configuration");
        let trace = check(&guest, &host, &run.protocol).unwrap();
        (guest, trace)
    }

    #[test]
    fn existence_times_monotone_in_t() {
        let (guest, trace) = simulate_expander_guest();
        let ex = existence_times(&trace);
        assert_eq!(ex.len(), 4);
        verify_dependency_monotonicity(&guest, &ex).expect("monotone");
        // All pebbles eventually exist (full simulation).
        for level in &ex {
            assert!(level.iter().all(|&s| s != u32::MAX));
        }
    }

    #[test]
    fn e_curve_is_monotone_and_saturates() {
        let (_, trace) = simulate_expander_guest();
        let ex = existence_times(&trace);
        let curve = e_curve(&ex, 1, trace.host_steps as u32);
        assert!(curve.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*curve.last().unwrap(), 24);
        assert_eq!(curve[0], 0);
    }

    #[test]
    fn tau_thresholds_ordered() {
        let (_, trace) = simulate_expander_guest();
        let ex = existence_times(&trace);
        let t1 = tau_threshold(&ex, 1, 12).unwrap();
        let t2 = tau_threshold(&ex, 2, 12).unwrap();
        assert!(t2 > t1, "level-2 majority must come after level-1 majority");
        // Threshold beyond n ⇒ None.
        assert_eq!(tau_threshold(&ex, 1, 25), None);
    }

    #[test]
    fn full_audit_passes_on_valid_trace() {
        let (guest, trace) = simulate_expander_guest();
        let audit = audit(&guest, &trace, 0.5, 1.2);
        assert!(audit.monotone);
        assert!(audit.expansion_ok);
        assert!(audit.taus.iter().all(|t| t.is_some()));
        assert!(audit.min_gap.unwrap_or(0) >= 1);
    }

    #[test]
    fn expansion_step_vacuous_when_prev_large() {
        let (_, trace) = simulate_expander_guest();
        let ex = existence_times(&trace);
        // At the very last step everything exists: implication vacuous.
        let (prev, cur, ok) = expansion_step(24, &ex, 4, trace.host_steps as u32, 0.5, 2.0);
        assert_eq!(prev, 24);
        assert_eq!(cur, 24);
        assert!(ok);
    }
}
