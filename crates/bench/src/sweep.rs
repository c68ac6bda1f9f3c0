//! The sharded sweep runner: execute any subset of the registry's grids
//! in parallel and merge deterministically.
//!
//! Grid points are independent by construction ([`crate::registry`]
//! runners are pure functions of their point), so the runner shards them
//! across threads with [`unet_topology::par::par_map`] — which preserves
//! input order — and merges results **in grid order**, never completion
//! order. Two runs of the same grid therefore produce identical
//! measurements regardless of thread count; only the `wall_ms` columns
//! (which record real elapsed time) vary between runs.
//!
//! Resume-from-partial works at row granularity: a row in a prior
//! artifact whose grid-key projection ([`crate::registry::row_key`])
//! matches a grid point is kept verbatim and the point is not re-run.
//! [`run_to_file`] additionally streams — the artifact is rewritten after
//! every experiment completes — so an interrupted sweep loses at most one
//! experiment's worth of work.

use crate::registry::{registry, row_key, Experiment, GridPoint, BASE_SEED};
use crate::schema::{git_rev, BenchDoc, ExperimentResult, SCHEMA};
use std::time::Instant;
use unet_obs::json::Value;
use unet_topology::par::{default_threads, par_map};

/// What to sweep: grid size, experiment subset, shard count.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Use the CI-smoke grids (seconds) instead of the full grids.
    pub quick: bool,
    /// Keep only experiments whose id matches (case-insensitive); `None`
    /// runs everything.
    pub filter: Option<Vec<String>>,
    /// Worker threads for sharding grid points.
    pub threads: usize,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions { quick: false, filter: None, threads: default_threads() }
    }
}

impl SweepOptions {
    /// Parse a `--filter` argument: comma-separated ids (`e1,E17`).
    pub fn parse_filter(raw: &str) -> Vec<String> {
        raw.split(',').map(|s| s.trim().to_ascii_uppercase()).filter(|s| !s.is_empty()).collect()
    }

    /// Does `id` pass the filter?
    pub fn selects(&self, id: &str) -> bool {
        match &self.filter {
            None => true,
            Some(ids) => ids.iter().any(|f| f.eq_ignore_ascii_case(id)),
        }
    }
}

/// Run one experiment's grid, sharded across `threads` workers, reusing
/// rows from `prior` whose grid keys match. Rows come back in grid order;
/// `wall_ms_total` is the sum of the per-row `wall_ms` column, so merged
/// (partly resumed) artifacts stay self-consistent.
pub fn run_experiment(
    exp: &Experiment,
    quick: bool,
    threads: usize,
    prior: Option<&ExperimentResult>,
) -> ExperimentResult {
    let grid = (exp.grid)(quick);
    let have: Vec<(String, &Value)> = prior
        .map(|p| {
            p.rows.iter().filter_map(|row| row_key(row, exp.grid_keys).map(|k| (k, row))).collect()
        })
        .unwrap_or_default();
    let todo: Vec<_> = grid
        .iter()
        .filter(|p| !have.iter().any(|(k, _)| *k == p.key(exp.grid_keys)))
        .cloned()
        .collect();
    let fresh = par_map(&todo, threads, |p| timed_run(exp, p));
    let mut fresh_iter = fresh.into_iter();
    let rows: Vec<Value> = grid
        .iter()
        .map(|p| {
            let key = p.key(exp.grid_keys);
            match have.iter().find(|(k, _)| *k == key) {
                Some((_, row)) => (*row).clone(),
                None => fresh_iter.next().expect("one fresh row per un-resumed point"),
            }
        })
        .collect();
    let wall_ms_total = rows.iter().filter_map(|r| r.get("wall_ms").and_then(Value::as_f64)).sum();
    ExperimentResult {
        id: exp.id.to_string(),
        title: exp.title.to_string(),
        claim: exp.claim.to_string(),
        meta: (exp.meta)(quick),
        rows,
        wall_ms_total,
    }
}

/// Run one grid point, adding a `wall_ms` column when the runner does not
/// time itself (the E3–E15 tables are timed as whole rows).
fn timed_run(exp: &Experiment, p: &GridPoint) -> Value {
    let start = Instant::now();
    let mut row = (exp.run)(p);
    if let Value::Obj(fields) = &mut row {
        if !fields.iter().any(|(k, _)| k == "wall_ms") {
            fields.push(("wall_ms".into(), Value::Float(start.elapsed().as_secs_f64() * 1e3)));
        }
    }
    row
}

fn assemble(opts: &SweepOptions, experiments: Vec<ExperimentResult>) -> BenchDoc {
    BenchDoc {
        schema: SCHEMA.into(),
        git_rev: git_rev(),
        seed: BASE_SEED,
        quick: opts.quick,
        experiments,
    }
}

/// Run the selected registry experiments in memory (no artifact I/O).
/// Used by `unet bench diff` for the fresh side of the comparison.
pub fn run_sweep(opts: &SweepOptions) -> BenchDoc {
    let experiments = registry()
        .iter()
        .filter(|e| opts.selects(e.id))
        .map(|e| run_experiment(e, opts.quick, opts.threads, None))
        .collect();
    assemble(opts, experiments)
}

/// Run the selected experiments and stream the artifact to `path`,
/// resuming from a prior (possibly partial) artifact at `path` when
/// `resume` is set. Experiments excluded by the filter keep their prior
/// results verbatim. Returns the final document together with one progress
/// line per experiment.
pub fn run_to_file(
    path: &str,
    opts: &SweepOptions,
    resume: bool,
) -> Result<(BenchDoc, Vec<String>), String> {
    let prior = if resume {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("--resume: cannot read {path}: {e}"))?;
        let doc = BenchDoc::parse(&text).map_err(|e| format!("--resume: {path}: {e}"))?;
        if doc.quick != opts.quick {
            return Err(format!(
                "--resume: {path} was measured with quick={} but this run has quick={} — \
                 rows would not be comparable; delete the file or match the flag",
                doc.quick, opts.quick
            ));
        }
        Some(doc)
    } else {
        None
    };
    let reg = registry();
    let mut progress = Vec::new();
    // Pre-seed with prior results so an interrupt mid-run never loses them.
    let mut done: Vec<Option<ExperimentResult>> =
        reg.iter().map(|e| prior.as_ref().and_then(|p| p.experiment(e.id)).cloned()).collect();
    for (i, exp) in reg.iter().enumerate() {
        if !opts.selects(exp.id) {
            continue;
        }
        let prior_exp = done[i].take();
        let kept = prior_exp
            .as_ref()
            .map(|p| p.rows.iter().filter(|r| row_key(r, exp.grid_keys).is_some()).count())
            .unwrap_or(0);
        let result = run_experiment(exp, opts.quick, opts.threads, prior_exp.as_ref());
        progress.push(format!(
            "{}: {} rows ({} resumed), {:.1} ms",
            exp.id,
            result.rows.len(),
            kept.min(result.rows.len()),
            result.wall_ms_total
        ));
        done[i] = Some(result);
        let doc = assemble(opts, done.iter().flatten().cloned().collect());
        std::fs::write(path, doc.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
    }
    let doc = assemble(opts, done.into_iter().flatten().collect());
    Ok((doc, progress))
}

/// The outcome of evaluating one shape predicate against one experiment's
/// rows (from a fresh run or a parsed baseline).
#[derive(Debug, Clone)]
pub struct ShapeOutcome {
    /// Experiment id.
    pub exp: String,
    /// The predicate, as [`crate::shape::Shape::describe`] renders it.
    pub shape: String,
    /// `None` when the shape holds; the violation message otherwise.
    pub violation: Option<String>,
}

/// Evaluate every registry shape predicate against the experiments present
/// in `doc` (absent experiments are skipped — `unet bench diff` treats
/// those separately). This is the regression gate's core: it looks only at
/// *shapes*, never absolute timings.
pub fn check_shapes(doc: &BenchDoc) -> Vec<ShapeOutcome> {
    let mut out = Vec::new();
    for exp in registry() {
        let Some(result) = doc.experiment(exp.id) else { continue };
        for shape in (exp.shapes)() {
            out.push(ShapeOutcome {
                exp: exp.id.to_string(),
                shape: shape.describe(),
                violation: shape.check(&result.rows).err().map(|v| v.to_string()),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e2_only(quick: bool, threads: usize) -> SweepOptions {
        SweepOptions { quick, filter: Some(vec!["E2".into()]), threads }
    }

    /// Rows with the real-elapsed-time column removed: everything the
    /// sweep must reproduce deterministically.
    fn measurements(rows: &[Value]) -> Vec<Value> {
        rows.iter()
            .map(|r| match r {
                Value::Obj(fields) => {
                    Value::Obj(fields.iter().filter(|(k, _)| k != "wall_ms").cloned().collect())
                }
                other => other.clone(),
            })
            .collect()
    }

    #[test]
    fn sweep_is_deterministic_across_thread_counts() {
        let a = run_sweep(&e2_only(true, 1));
        let b = run_sweep(&e2_only(true, 4));
        assert_eq!(measurements(&a.experiments[0].rows), measurements(&b.experiments[0].rows));
    }

    #[test]
    fn filter_selects_case_insensitively() {
        let opts = SweepOptions {
            filter: Some(SweepOptions::parse_filter("e1, E16")),
            ..SweepOptions::default()
        };
        assert!(opts.selects("E1"));
        assert!(opts.selects("E16"));
        assert!(!opts.selects("E2"));
    }

    #[test]
    fn resume_keeps_matching_rows_verbatim() {
        let exp = registry().into_iter().find(|e| e.id == "E2").unwrap();
        let full = run_experiment(&exp, true, 2, None);
        // Drop half the rows; the re-run must regenerate exactly those.
        let mut partial = full.clone();
        partial.rows.truncate(full.rows.len() / 2);
        let resumed = run_experiment(&exp, true, 2, Some(&partial));
        // The kept half is byte-verbatim (same wall_ms), the regenerated
        // half matches on every measurement.
        assert_eq!(resumed.rows[..partial.rows.len()], partial.rows[..]);
        assert_eq!(measurements(&resumed.rows), measurements(&full.rows));
    }

    #[test]
    fn shapes_pass_on_a_fresh_quick_sweep() {
        let doc = run_sweep(&e2_only(true, 2));
        let outcomes = check_shapes(&doc);
        assert!(!outcomes.is_empty());
        for o in outcomes {
            assert!(o.violation.is_none(), "{} / {}: {:?}", o.exp, o.shape, o.violation);
        }
    }

    #[test]
    fn run_to_file_streams_and_resumes() {
        let dir = std::env::temp_dir().join("unet-bench-sweep-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH.json");
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);
        let opts = e2_only(true, 2);
        let (doc, progress) = run_to_file(path, &opts, false).expect("first run");
        assert_eq!(doc.experiments.len(), 1);
        assert_eq!(progress.len(), 1);
        // Resume: everything matches, nothing re-runs, artifact unchanged.
        let before = std::fs::read_to_string(path).unwrap();
        let (doc2, _) = run_to_file(path, &opts, true).expect("resume");
        assert_eq!(doc2.experiments[0].rows, doc.experiments[0].rows);
        assert_eq!(std::fs::read_to_string(path).unwrap(), before);
        // Quick-flag mismatch is refused.
        let full = SweepOptions { quick: false, ..e2_only(false, 2) };
        let err = run_to_file(path, &full, true).unwrap_err();
        assert!(err.contains("quick"), "{err}");
        let _ = std::fs::remove_file(path);
    }
}
