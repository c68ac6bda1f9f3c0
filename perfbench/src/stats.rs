//! The benchmark's own statistics and accounting: nearest-rank
//! percentiles, the tail-support rule, item tallies, and the process's peak
//! resident memory.

/// How many samples must lie strictly above a tail percentile before the
/// benchmark reports it.
pub const TAIL_SUPPORT: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p`% of the samples at or below it (rank `⌈p/100 · N⌉`).
/// `None` on an empty slice or a `p` outside `(0, 100]`.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The nearest-rank `p`th percentile, but only when at least
/// [`TAIL_SUPPORT`] samples lie strictly above it; a tail percentile with
/// fewer samples beyond it is one or two outliers, not a measurement.
pub fn supported_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let value = nearest_rank(sorted, p)?;
    let beyond = sorted.len() - sorted.partition_point(|&x| x <= value);
    (beyond >= TAIL_SUPPORT).then_some(value)
}

/// Median by nearest rank (`None` when empty). Sorts a copy.
pub fn median(values: &[f64]) -> Option<f64> {
    nearest_rank(&sorted(values), 50.0)
}

/// An ascending copy (NaN-free input assumed; NaNs sort last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Arithmetic mean (`None` when empty).
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Items attempted and failed. Every way an item can go wrong — refused
/// (`overloaded`), errored, unverified, or a result that disagrees with the
/// in-process reference — is one failure; only `ok` items carry latency.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Items started.
    pub attempted: u64,
    /// Items that did not produce a correct, verified result.
    pub failed: u64,
}

impl Tally {
    /// Count one item with its outcome.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Peak resident set size of this process so far in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// FNV-1a over a byte stream — the same digest the experiment registry uses
/// for its `protocol_hash` / `states_hash` columns.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_an_actual_sample() {
        let v = ramp(10);
        assert_eq!(nearest_rank(&v, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&v, 90.0), Some(9.0));
        assert_eq!(nearest_rank(&v, 91.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 100.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 0.1), Some(1.0));
        assert_eq!(nearest_rank(&[7.5], 50.0), Some(7.5));
    }

    #[test]
    fn nearest_rank_rejects_empty_input_and_bad_percentiles() {
        assert_eq!(nearest_rank(&[], 50.0), None);
        assert_eq!(nearest_rank(&ramp(5), 0.0), None);
        assert_eq!(nearest_rank(&ramp(5), 100.5), None);
        assert_eq!(nearest_rank(&ramp(5), f64::NAN), None);
    }

    #[test]
    fn median_sorts_its_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        // 100 distinct samples: p90 is the 90th, with exactly 10 above it.
        assert_eq!(supported_percentile(&ramp(100), 90.0), Some(90.0));
        // 99 samples: p90 is the 90th (rank ⌈89.1⌉), only 9 above it.
        assert_eq!(supported_percentile(&ramp(99), 90.0), None);
        assert_eq!(supported_percentile(&ramp(110), 90.0), Some(99.0));
        assert_eq!(supported_percentile(&[], 90.0), None);
    }

    #[test]
    fn tail_support_counts_only_samples_strictly_above() {
        // Ties with the percentile value are not "beyond" it.
        let mut v = vec![1.0; 95];
        v.extend(ramp(20).iter().map(|x| x + 1.0));
        let v = sorted(&v);
        assert_eq!(nearest_rank(&v, 90.0), Some(10.0));
        assert_eq!(supported_percentile(&v, 90.0), Some(10.0));
        let flat = vec![2.0; 200];
        assert_eq!(nearest_rank(&flat, 90.0), Some(2.0));
        assert_eq!(supported_percentile(&flat, 90.0), None);
    }

    #[test]
    fn tally_counts_every_failure_against_attempts() {
        let mut t = Tally::default();
        for ok in [true, false, true, true, false] {
            t.record(ok);
        }
        assert_eq!(t, Tally { attempted: 5, failed: 2 });
    }

    #[test]
    fn mean_and_fnv_are_stable() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
        assert_eq!(fnv1a(*b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(*b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a(*b"ab"), fnv1a(*b"ba"));
    }
}
