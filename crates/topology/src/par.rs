//! Minimal data-parallel helpers on crossbeam scoped threads.
//!
//! The experiment sweeps (simulate the same guest on six host sizes, build
//! `side²` canonical trees, run `trials` routing problems) are embarrassingly
//! parallel; these helpers parallelize them without pulling a full
//! work-stealing runtime into the dependency tree. Order is preserved;
//! panics in workers propagate.

/// Map `f` over `items` on up to `threads` scoped worker threads, preserving
/// input order. With `threads <= 1` (or one item) runs inline.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    // Contiguous chunks per worker; results concatenated in order.
    let chunk = items.len().div_ceil(threads);
    let mut out: Vec<Vec<R>> = Vec::with_capacity(threads);
    crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|slice| scope.spawn(|_| slice.iter().map(&f).collect::<Vec<R>>()))
            .collect();
        for h in handles {
            out.push(h.join().expect("worker panicked"));
        }
    })
    .expect("scope panicked");
    out.into_iter().flatten().collect()
}

/// Map `f` over up-to-`threads` contiguous index ranges covering `0..len`,
/// concatenating the per-range outputs in range order.
///
/// This is the shard-shaped sibling of [`par_map`]: instead of one closure
/// call per item, the worker sees a whole `Range<usize>` and returns the
/// vector for that shard. Because shards are contiguous and concatenated in
/// order, any per-item computation that depends only on the item index (and
/// shared read-only state) produces output **identical** to the sequential
/// loop — the property the parallel simulation engine's bit-for-bit claim
/// rests on. With `threads <= 1` the single range `0..len` runs inline.
pub fn par_chunks<R, F>(len: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(std::ops::Range<usize>) -> Vec<R> + Sync,
{
    let threads = threads.max(1).min(len.max(1));
    if threads <= 1 {
        return f(0..len);
    }
    let chunk = len.div_ceil(threads);
    let ranges: Vec<std::ops::Range<usize>> =
        (0..len).step_by(chunk).map(|lo| lo..(lo + chunk).min(len)).collect();
    let mut out: Vec<Vec<R>> = Vec::with_capacity(ranges.len());
    let fr = &f;
    crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .iter()
            .map(|r| {
                let r = r.clone();
                scope.spawn(move |_| fr(r))
            })
            .collect();
        for h in handles {
            out.push(h.join().expect("worker panicked"));
        }
    })
    .expect("scope panicked");
    out.into_iter().flatten().collect()
}

/// Number of worker threads to use by default.
///
/// Resolution order:
/// 1. `UNET_THREADS` environment variable, if set to a positive integer —
///    the explicit override for machines where the default cap is wrong
///    (honoured by every `unet` command, `unet bench` sweeps included, so
///    one variable controls every sweep).
/// 2. Otherwise the available parallelism, capped at 8. The cap exists
///    because the experiment sweeps are memory-bandwidth-bound: each worker
///    streams whole CSR graphs and routing queues, so beyond ~8 workers the
///    extra threads mostly contend on the memory bus rather than speeding
///    anything up. `UNET_THREADS` is the escape hatch for hardware where
///    that heuristic is wrong (many-channel servers, or CI boxes that need
///    `UNET_THREADS=2` to stay within a cgroup quota).
///
/// An unset, empty, or unparsable `UNET_THREADS` falls back to the capped
/// default; `UNET_THREADS=0` is treated as unset. An empty or unparsable
/// value additionally gets a one-line stderr warning naming the bad value
/// (once per process), so a typo'd override fails loudly instead of
/// silently running at the default width.
pub fn default_threads() -> usize {
    if let Ok(raw) = std::env::var("UNET_THREADS") {
        match raw.trim().parse::<usize>() {
            Ok(0) => {} // documented: zero means "unset", no warning
            Ok(n) => return n,
            Err(_) => {
                static WARNED: std::sync::Once = std::sync::Once::new();
                WARNED.call_once(|| {
                    use std::io::Write;
                    // A closed stderr must not turn the warning into a panic.
                    let _ = writeln!(
                        std::io::stderr(),
                        "warning: ignoring unparsable UNET_THREADS={raw:?}; \
                         falling back to the default thread count"
                    );
                });
            }
        }
    }
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1).min(8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = par_map(&items, 4, |&x| x * x);
        assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_inline() {
        let out = par_map(&[1, 2, 3], 1, |&x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = par_map(&[] as &[u32], 4, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_items() {
        let out = par_map(&[7u32], 16, |&x| x);
        assert_eq!(out, vec![7]);
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn worker_panic_propagates() {
        par_map(&[1, 2, 3], 2, |&x| {
            assert!(x != 2, "boom");
            x
        });
    }

    #[test]
    fn chunks_match_sequential_order() {
        let out = par_chunks(100, 4, |r| r.map(|i| i * 3).collect());
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn chunks_inline_and_empty() {
        let one = par_chunks(5, 1, |r| r.collect());
        assert_eq!(one, vec![0, 1, 2, 3, 4]);
        let none: Vec<usize> = par_chunks(0, 4, |r| r.collect());
        assert!(none.is_empty());
        let more_threads = par_chunks(2, 16, |r| r.collect());
        assert_eq!(more_threads, vec![0, 1]);
    }

    #[test]
    fn unet_threads_env_override() {
        // Set, read, restore — keeps the process env clean for other tests.
        let saved = std::env::var("UNET_THREADS").ok();
        std::env::set_var("UNET_THREADS", "3");
        assert_eq!(default_threads(), 3);
        std::env::set_var("UNET_THREADS", " 12 ");
        assert_eq!(default_threads(), 12);
        // Zero and garbage fall back to the capped default.
        for bad in ["0", "", "lots"] {
            std::env::set_var("UNET_THREADS", bad);
            let n = default_threads();
            assert!((1..=8).contains(&n), "fallback out of range: {n}");
        }
        match saved {
            Some(v) => std::env::set_var("UNET_THREADS", v),
            None => std::env::remove_var("UNET_THREADS"),
        }
    }

    #[test]
    fn actually_parallel_speedup_shape() {
        // Not a benchmark — just confirm results match sequential on a
        // non-trivial workload.
        let items: Vec<usize> = (0..64).collect();
        let seq: Vec<usize> = items.iter().map(|&i| (0..1000).fold(i, |a, b| a ^ b)).collect();
        let par = par_map(&items, default_threads(), |&i| (0..1000).fold(i, |a, b| a ^ b));
        assert_eq!(seq, par);
    }
}
