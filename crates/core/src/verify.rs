//! End-to-end verification: a universal simulation is *correct* iff
//!
//! 1. its pebble protocol satisfies every rule of the Section 3.1 model
//!    (checked by [`unet_pebble::check`](fn@unet_pebble::check)), and
//! 2. the host-computed final configurations equal the guest's direct run
//!    bit-for-bit.
//!
//! [`verify_run`] bundles both and returns the certified trace together with
//! measured metrics — the standard exit point of every experiment.

use crate::guest::GuestComputation;
use crate::simulate::SimulationRun;
use unet_pebble::analysis::{metrics, SimulationMetrics};
use unet_pebble::check::{check, Trace};
use unet_topology::Graph;

/// A fully verified simulation: certified protocol trace + metrics.
#[derive(Debug)]
pub struct VerifiedRun {
    /// The custody trace (input to all lower-bound analyses).
    pub trace: Trace,
    /// Measured metrics (slowdown, inefficiency, weights).
    pub metrics: SimulationMetrics,
}

/// Errors from [`verify_run`].
#[derive(Debug)]
pub enum VerifyError {
    /// The pebble protocol violates the simulation model.
    Protocol(unet_pebble::check::CheckError),
    /// The protocol is valid but the computed states are wrong.
    WrongStates {
        /// First guest node whose final state disagrees.
        node: u32,
        /// Host-computed value.
        got: u64,
        /// Reference value.
        want: u64,
    },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::Protocol(e) => write!(f, "protocol violation: {e}"),
            VerifyError::WrongStates { node, got, want } => {
                write!(f, "state mismatch at P{node}: got {got:#x}, want {want:#x}")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

impl SimulationRun {
    /// Certify this run, folding failures into [`SimError`](crate::SimError).
    ///
    /// This is [`verify_run`] adapted to the builder API's error type: use
    /// it when a `?`-chain already speaks `SimError` (the CLI and the
    /// experiment harnesses do); use [`verify_run`] directly when the
    /// caller wants to distinguish the [`VerifyError`] variants.
    pub fn verify(
        &self,
        comp: &GuestComputation,
        host: &Graph,
        steps: u32,
    ) -> Result<VerifiedRun, crate::SimError> {
        Ok(verify_run(comp, host, self, steps)?)
    }
}

/// Certify a [`SimulationRun`] against the guest computation and host graph.
pub fn verify_run(
    comp: &GuestComputation,
    host: &Graph,
    run: &SimulationRun,
    steps: u32,
) -> Result<VerifiedRun, VerifyError> {
    let trace = check(&comp.graph, host, &run.protocol).map_err(VerifyError::Protocol)?;
    let reference = comp.run_final(steps);
    for (i, (&got, &want)) in run.final_states.iter().zip(&reference).enumerate() {
        if got != want {
            return Err(VerifyError::WrongStates { node: i as u32, got, want });
        }
    }
    let metrics = metrics(&trace);
    Ok(VerifiedRun { trace, metrics })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedding::Embedding;
    use crate::routers::presets;
    use crate::sim::Simulation;
    use unet_topology::generators::{ring, torus};
    use unet_topology::util::seeded_rng;
    use unet_topology::Graph;

    fn run_ring8(comp: &GuestComputation, host: &Graph) -> SimulationRun {
        let router = presets::bfs();
        Simulation::builder()
            .guest(comp)
            .host(host)
            .embedding(Embedding::block(8, 4))
            .router(&router)
            .steps(2)
            .run_with_rng(&mut seeded_rng(1))
            .expect("valid configuration")
    }

    #[test]
    fn verified_run_bundles_metrics() {
        let guest = ring(8);
        let host = torus(2, 2);
        let comp = GuestComputation::random(guest, 1);
        let run = run_ring8(&comp, &host);
        let v = verify_run(&comp, &host, &run, 2).expect("verifies");
        assert_eq!(v.metrics.guest_n, 8);
        assert_eq!(v.metrics.host_m, 4);
        assert!(v.metrics.slowdown >= 2.0);
        assert!(v.metrics.inefficiency >= 1.0);
    }

    #[test]
    fn wrong_states_detected() {
        let guest = ring(8);
        let host = torus(2, 2);
        let comp = GuestComputation::random(guest, 1);
        let mut run = run_ring8(&comp, &host);
        run.final_states[3] ^= 1; // corrupt
        match verify_run(&comp, &host, &run, 2) {
            Err(VerifyError::WrongStates { node: 3, .. }) => {}
            other => panic!("expected WrongStates, got {other:?}"),
        }
    }

    #[test]
    fn run_verify_folds_into_sim_error() {
        let guest = ring(8);
        let host = torus(2, 2);
        let comp = GuestComputation::random(guest, 1);
        let mut run = run_ring8(&comp, &host);
        assert!(run.verify(&comp, &host, 2).is_ok());
        run.final_states[0] ^= 1;
        match run.verify(&comp, &host, 2) {
            Err(crate::SimError::Verify(VerifyError::WrongStates { node: 0, .. })) => {}
            other => panic!("expected SimError::Verify, got {other:?}"),
        }
    }

    #[test]
    fn protocol_corruption_detected() {
        let guest = ring(8);
        let host = torus(2, 2);
        let comp = GuestComputation::random(guest, 1);
        let mut run = run_ring8(&comp, &host);
        // Drop the last host step (removes final generations).
        let p = &run.protocol;
        let mut b = unet_pebble::ProtocolBuilder::new(p.guest_n, p.guest_t, p.host_m);
        for tau in 0..p.host_steps() - 1 {
            for (q, op) in p.step(tau) {
                b.set_op(q, op);
            }
            b.end_step();
        }
        run.protocol = b.finish();
        assert!(matches!(verify_run(&comp, &host, &run, 2), Err(VerifyError::Protocol(_))));
    }
}
