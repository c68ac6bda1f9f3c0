//! The machine's speed, probed through a run, and the factor that turns
//! wall time into reference-speed time.
//!
//! On a shared host the same code runs 15–30% slower for stretches of
//! seconds to minutes while neighbours load the memory system. A
//! 420-second engine-replay run, cut into 30-second windows, gave window
//! p50s whose quartiles lay 17% apart, and 60-second windows did not
//! narrow that. A register-only loop stayed within 5% meanwhile; a random
//! walk over 8 MB moved 29%, and engine items of 1, 7 and 55 ms all moved
//! together. Longer runs cannot average such stretches out.
//!
//! The benchmark therefore probes the machine between measurement
//! segments with a small fixed workload of its own and scales each
//! segment's wall times by [`REFERENCE_MS`] over the mean of the two
//! probes around it. The probe runs no program code, so a change to the
//! program moves the scaled figures exactly as it moves the wall times;
//! only the machine's drift is taken out. It is not taken out exactly: the
//! probe slows more than an engine item does (by 1.6–1.9× as much in log
//! terms), so a slow stretch reads somewhat fast once scaled. Over six
//! back-to-back 30-second engine-replay runs the wall-time p50 ranged
//! over 34% of its median and the scaled p50 over 13%.

use std::collections::HashMap;
use std::time::Instant;

use crate::stats::median;

/// The probe's typical time, between engine-replay blocks, on a shared
/// 2-vCPU KVM guest of an Intel Xeon (Sapphire Rapids) host: its medians
/// there ranged 1.15–1.7 ms. A segment in which the probe took this long
/// keeps its wall times; a slower one has them scaled down.
pub const REFERENCE_MS: f64 = 1.5;

/// Probe repetitions per probe point; the point is their median.
const REPS: usize = 3;

/// One probe: 20 000 pushes into per-key vectors of a hash map over 5 000
/// keys, 20 000 lookups, and the map's release — the allocate, hash and
/// free pattern of `pebble::check`'s custody maps, in std code only.
fn probe_once() -> f64 {
    let t = Instant::now();
    let mut map: HashMap<u64, Vec<u32>> = HashMap::new();
    for i in 0..20_000u64 {
        map.entry(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 5_000).or_default().push(i as u32);
    }
    let mut found = 0usize;
    for i in 0..20_000u64 {
        found += map.get(&(i % 6_000)).map_or(0, Vec::len);
    }
    std::hint::black_box(found);
    drop(std::hint::black_box(map));
    t.elapsed().as_secs_f64() * 1e3
}

/// The median of [`REPS`] probes, in ms.
pub fn probe_ms() -> f64 {
    let samples: Vec<f64> = (0..REPS).map(|_| probe_once()).collect();
    median(&samples).unwrap_or(REFERENCE_MS)
}

/// Reference-speed factor of a segment whose bracketing probes took
/// `before_ms` and `after_ms`.
pub fn factor(before_ms: f64, after_ms: f64) -> f64 {
    REFERENCE_MS / ((before_ms + after_ms) / 2.0)
}

/// The probes of one run. Call [`Speed::segment`] at the end of every
/// measured segment, outside its timed region.
#[derive(Debug)]
pub struct Speed {
    last_ms: f64,
    factors: Vec<f64>,
}

impl Speed {
    /// Probe once to open the first segment.
    pub fn start() -> Speed {
        Speed { last_ms: probe_ms(), factors: Vec::new() }
    }

    /// Probe again, close the segment since the last probe and return its
    /// factor: multiply the segment's wall times by it.
    pub fn segment(&mut self) -> f64 {
        let now = probe_ms();
        let f = factor(self.last_ms, now);
        self.last_ms = now;
        self.factors.push(f);
        f
    }

    /// The median factor of the run's segments (1 before any segment).
    pub fn median_factor(&self) -> f64 {
        median(&self.factors).unwrap_or(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_segment_at_reference_speed_keeps_its_times() {
        assert_eq!(factor(REFERENCE_MS, REFERENCE_MS), 1.0);
        // Twice as slow on both sides: times are halved.
        assert_eq!(factor(2.0 * REFERENCE_MS, 2.0 * REFERENCE_MS), 0.5);
        // The two probes around a segment are averaged.
        assert_eq!(factor(1.0, 2.0), REFERENCE_MS / 1.5);
    }

    #[test]
    fn segments_chain_their_probes() {
        let mut s = Speed { last_ms: 3.0, factors: Vec::new() };
        assert_eq!(s.median_factor(), 1.0);
        let f = s.segment();
        assert!(f > 0.0 && f.is_finite());
        assert_eq!(f, factor(3.0, s.last_ms));
        s.segment();
        s.segment();
        assert_eq!(s.factors.len(), 3);
        assert!(s.median_factor() > 0.0);
    }

    #[test]
    fn the_probe_takes_measurable_time() {
        let ms = probe_ms();
        assert!(ms > 0.0 && ms < 1_000.0, "{ms}");
    }
}
