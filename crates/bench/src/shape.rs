//! Expected-shape predicates: the machine-checkable form of a paper claim.
//!
//! The paper's experimental claims are *shapes*, not absolute numbers:
//! Theorem 2.1 says the measured inefficiency `k = s·m/n` of a butterfly
//! host grows **affinely in `log m`**; Theorem 3.1 says every measured
//! point stays **above the `Ω(log m)` curve**; the engine experiments
//! (E17) say every `(threads, cache)` configuration emits the **same
//! protocol** and the cached rows keep their **speedup ordering**. A
//! [`Shape`] encodes one such claim as a predicate over the rows of a
//! benchmark artifact, so a regression gate (`unet bench diff`) can fail
//! when a change to the routers or the route-plan cache bends a curve —
//! while staying robust to machine noise, because no predicate compares
//! absolute timings between two runs.
//!
//! Shapes are plain data (no closures), so the same predicate evaluates
//! against a freshly measured run *and* against a committed baseline
//! artifact parsed back from `BENCH.json`.

use unet_obs::json::Value;

/// One expected-shape predicate over the rows of an experiment.
///
/// Every variant reads named columns out of each row (a JSON object as
/// emitted by the experiment registry) and checks a relation between them.
/// Missing or non-numeric columns are themselves violations: schema drift
/// must not silently pass the gate.
#[derive(Debug, Clone, PartialEq)]
pub enum Shape {
    /// Column `y` is affine in `log₂(x)`: all successive slopes
    /// `Δy / Δlog₂(x)` are positive and their max/min ratio is at most
    /// `max_slope_ratio`.
    ///
    /// This is the Theorem 2.1 upper-bound shape — `k = Θ(log m)` means a
    /// roughly constant inefficiency increment per butterfly dimension. A
    /// curve that is flat (slope → 0), decreasing, or polynomial in `x`
    /// (exponential in `log x`, slope ratio ≈ `x₂/x₁`) fails. With fewer
    /// than three rows the predicate passes trivially (a line fits any
    /// two points).
    AffineInLog {
        /// Column holding the size parameter (e.g. `host_m`).
        x: &'static str,
        /// Column holding the measured quantity (e.g. `inefficiency`).
        y: &'static str,
        /// Maximum allowed ratio between the largest and smallest
        /// successive slope (≥ 1; the measured E1 curve sits near 1.4,
        /// polynomial growth lands near `x₂/x₁` ≥ 2.5).
        max_slope_ratio: f64,
    },
    /// Every row satisfies `row[y] ≥ row[floor]` — the "no measured point
    /// dips below the lower-bound curve" claim, with the curve evaluated
    /// per row and stored alongside the measurement (e.g. E16's `k` vs
    /// `k_bound`, the Theorem 3.1 shape on the surviving size `m'`).
    AtLeastColumn {
        /// Column holding the measured quantity.
        y: &'static str,
        /// Column holding the per-row floor it must dominate.
        floor: &'static str,
    },
    /// Every row satisfies `row[y] ≥ alpha·log₂(row[x])` — the closed-form
    /// Theorem 3.1 floor `k = Ω(log m)` for experiments that do not embed
    /// the bound as its own column.
    FloorLog {
        /// Column holding the size parameter.
        x: &'static str,
        /// Column holding the measured quantity.
        y: &'static str,
        /// The symbolic constant `α` of the bound.
        alpha: f64,
    },
    /// All rows hold the identical value in `col` (JSON equality).
    ///
    /// E17's correctness claim: every `(threads, cache)` configuration
    /// yields the same `makespan`, the same `protocol_hash`, the same
    /// `states_hash` — bit-for-bit, so even one flipped bit in one row
    /// fails the gate.
    ConstantColumn {
        /// Column whose value must not vary across rows.
        col: &'static str,
    },
    /// Column `y` is non-decreasing as column `x` increases (rows are
    /// compared in artifact order after sorting by `x`).
    MonotoneInLog {
        /// Column holding the size parameter.
        x: &'static str,
        /// Column that must grow (weakly) with `x`.
        y: &'static str,
    },
    /// The row whose `key` column equals `fast` must have
    /// `wall ≤ factor · wall(slow)` — the speedup-*ordering* claim of E17
    /// (`seq-cached` beats `seq-uncached`), deliberately loose: `factor`
    /// allows for machine noise, and the check is skipped entirely when
    /// the slow row's wall time is under `min_wall_ms` (micro-timings are
    /// pure noise, e.g. on the `--quick` grid). The compared column need
    /// not be a time: E8, E12 and E14 order deterministic slowdowns,
    /// packet counts and work shares with `min_wall_ms = 0`.
    SpeedupOrdering {
        /// Column identifying configurations (e.g. `config`).
        key: &'static str,
        /// Key value of the configuration that must be fast.
        fast: &'static str,
        /// Key value of the configuration it must not lose to.
        slow: &'static str,
        /// Column holding the wall-clock measurement.
        wall: &'static str,
        /// Allowed slack: fast ≤ factor × slow.
        factor: f64,
        /// Skip the check when `wall(slow)` is below this (milliseconds).
        min_wall_ms: f64,
    },
    /// The row whose `key` column equals `fast` must have
    /// `throughput ≥ factor · throughput(slow)` — the scale-out claim of
    /// E21 (4 shards sustain ≥ 3× the offered load of 1 shard at equal
    /// per-shard workers). Wall-clock scaling only exists when the shards
    /// actually run in parallel, so the check is skipped unless the fast
    /// row's `cores` column (recorded at measurement time from
    /// `available_parallelism`) is at least its `cores_needed` column —
    /// on a single-core CI runner the machine-independent E21 gates
    /// (per-shard balance, hit-ratio floor, zero failovers) still run,
    /// while this predicate arms itself automatically on real hardware.
    ThroughputScaling {
        /// Column identifying configurations (e.g. `config`).
        key: &'static str,
        /// Key value of the configuration that must scale.
        fast: &'static str,
        /// Key value of the baseline configuration.
        slow: &'static str,
        /// Column holding the throughput measurement (higher is better).
        throughput: &'static str,
        /// Required ratio: throughput(fast) ≥ factor × throughput(slow).
        factor: f64,
        /// Column holding the cores available when the row was measured.
        cores: &'static str,
        /// Column holding the cores the fast configuration needs for its
        /// shards to truly run in parallel.
        cores_needed: &'static str,
    },
    /// E17's cache-counter consistency: rows with `cache = true` must
    /// report exactly one miss (the cold comm phase) and at least one hit
    /// (the replays); rows with `cache = false` must report zero of both.
    /// Unlike wall time this is fully deterministic, so it is the primary
    /// regression signal for the route-plan cache.
    CacheCounters {
        /// Boolean column holding the cache setting.
        cache: &'static str,
        /// Column holding `sim.cache.hits`.
        hits: &'static str,
        /// Column holding `sim.cache.misses`.
        misses: &'static str,
    },
}

/// A failed shape check: which predicate, and a human-readable reason.
#[derive(Debug, Clone)]
pub struct ShapeViolation {
    /// Compact description of the predicate that failed.
    pub shape: String,
    /// What the rows actually looked like.
    pub detail: String,
}

impl std::fmt::Display for ShapeViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.shape, self.detail)
    }
}

/// Extract a required numeric column or produce a schema violation.
fn num(row: &Value, col: &str, shape: &Shape) -> Result<f64, ShapeViolation> {
    row.get(col).and_then(Value::as_f64).ok_or_else(|| ShapeViolation {
        shape: shape.describe(),
        detail: format!("row is missing numeric column {col:?}: {}", row.to_json()),
    })
}

impl Shape {
    /// Compact one-line description, used in reports and violations.
    pub fn describe(&self) -> String {
        match self {
            Shape::AffineInLog { x, y, max_slope_ratio } => {
                format!("affine-in-log({y} vs log2 {x}, slope ratio <= {max_slope_ratio})")
            }
            Shape::AtLeastColumn { y, floor } => format!("{y} >= {floor}"),
            Shape::FloorLog { x, y, alpha } => format!("{y} >= {alpha}*log2({x})"),
            Shape::ConstantColumn { col } => format!("{col} constant across rows"),
            Shape::MonotoneInLog { x, y } => format!("{y} non-decreasing in {x}"),
            Shape::SpeedupOrdering { fast, slow, wall, factor, .. } => {
                format!("{wall}({fast}) <= {factor}*{wall}({slow})")
            }
            Shape::ThroughputScaling { fast, slow, factor, .. } => {
                format!("throughput({fast}) >= {factor}*throughput({slow}) when cores allow")
            }
            Shape::CacheCounters { .. } => "cache counters consistent".into(),
        }
    }

    /// Evaluate the predicate against the rows of one experiment.
    pub fn check(&self, rows: &[Value]) -> Result<(), ShapeViolation> {
        let fail = |detail: String| Err(ShapeViolation { shape: self.describe(), detail });
        match *self {
            Shape::AffineInLog { x, y, max_slope_ratio } => {
                let mut pts = Vec::with_capacity(rows.len());
                for row in rows {
                    pts.push((num(row, x, self)?.log2(), num(row, y, self)?));
                }
                pts.sort_by(|a, b| a.0.total_cmp(&b.0));
                if pts.len() < 3 {
                    return Ok(()); // a line fits any two points
                }
                let slopes: Vec<f64> =
                    pts.windows(2).map(|w| (w[1].1 - w[0].1) / (w[1].0 - w[0].0)).collect();
                let (lo, hi) = slopes
                    .iter()
                    .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &s| (l.min(s), h.max(s)));
                if lo <= 0.0 {
                    return fail(format!("non-increasing segment: slopes {slopes:?}"));
                }
                if hi / lo > max_slope_ratio {
                    return fail(format!(
                        "slope ratio {:.2} exceeds {max_slope_ratio} (slopes {slopes:?}) — \
                         {y} is not affine in log2({x})",
                        hi / lo
                    ));
                }
                Ok(())
            }
            Shape::AtLeastColumn { y, floor } => {
                for row in rows {
                    let (yv, fv) = (num(row, y, self)?, num(row, floor, self)?);
                    if yv < fv {
                        return fail(format!("{y} = {yv:.3} dips below {floor} = {fv:.3}"));
                    }
                }
                Ok(())
            }
            Shape::FloorLog { x, y, alpha } => {
                for row in rows {
                    let (xv, yv) = (num(row, x, self)?, num(row, y, self)?);
                    let bound = alpha * xv.log2();
                    if yv < bound {
                        return fail(format!(
                            "{y} = {yv:.3} at {x} = {xv} dips below {alpha}*log2({x}) = {bound:.3}"
                        ));
                    }
                }
                Ok(())
            }
            Shape::ConstantColumn { col } => {
                let mut first: Option<&Value> = None;
                for row in rows {
                    let v = row.get(col).ok_or_else(|| ShapeViolation {
                        shape: self.describe(),
                        detail: format!("row is missing column {col:?}"),
                    })?;
                    match first {
                        None => first = Some(v),
                        Some(f0) if f0 != v => {
                            return fail(format!(
                                "{col} varies: {} vs {}",
                                f0.to_json(),
                                v.to_json()
                            ));
                        }
                        Some(_) => {}
                    }
                }
                Ok(())
            }
            Shape::MonotoneInLog { x, y } => {
                let mut pts = Vec::with_capacity(rows.len());
                for row in rows {
                    pts.push((num(row, x, self)?, num(row, y, self)?));
                }
                pts.sort_by(|a, b| a.0.total_cmp(&b.0));
                for w in pts.windows(2) {
                    if w[1].1 < w[0].1 {
                        return fail(format!(
                            "{y} decreases from {:.3} to {:.3} as {x} grows {} -> {}",
                            w[0].1, w[1].1, w[0].0, w[1].0
                        ));
                    }
                }
                Ok(())
            }
            Shape::SpeedupOrdering { key, fast, slow, wall, factor, min_wall_ms } => {
                let find = |label: &str| {
                    rows.iter().find(|r| r.get(key).and_then(Value::as_str) == Some(label))
                };
                let (Some(fr), Some(sr)) = (find(fast), find(slow)) else {
                    return fail(format!("rows for {fast:?} and {slow:?} not both present"));
                };
                let (fw, sw) = (num(fr, wall, self)?, num(sr, wall, self)?);
                if sw < min_wall_ms {
                    return Ok(()); // micro-timings are noise, not signal
                }
                if fw > factor * sw {
                    return fail(format!(
                        "{wall} of {fast} = {fw:.2} vs {slow} {sw:.2} — ordering lost"
                    ));
                }
                Ok(())
            }
            Shape::ThroughputScaling {
                key,
                fast,
                slow,
                throughput,
                factor,
                cores,
                cores_needed,
            } => {
                let find = |label: &str| {
                    rows.iter().find(|r| r.get(key).and_then(Value::as_str) == Some(label))
                };
                let (Some(fr), Some(sr)) = (find(fast), find(slow)) else {
                    return fail(format!("rows for {fast:?} and {slow:?} not both present"));
                };
                // Schema first: the columns must exist even when the
                // predicate ends up disarmed, so drift cannot hide.
                let (ft, st) = (num(fr, throughput, self)?, num(sr, throughput, self)?);
                let (have, need) = (num(fr, cores, self)?, num(fr, cores_needed, self)?);
                if have < need {
                    return Ok(()); // shards are time-sliced, not parallel
                }
                if ft < factor * st {
                    return fail(format!(
                        "{fast} sustained {ft:.1} items/s vs {slow} {st:.1} items/s on \
                         {have} cores — scale-out lost ({factor}x required)"
                    ));
                }
                Ok(())
            }
            Shape::CacheCounters { cache, hits, misses } => {
                for row in rows {
                    let on = matches!(row.get(cache), Some(Value::Bool(true)));
                    let (h, m) = (num(row, hits, self)?, num(row, misses, self)?);
                    if on && !(m == 1.0 && h >= 1.0) {
                        return fail(format!(
                            "cached row reports {h} hits / {m} misses (want 1 miss, >= 1 hit)"
                        ));
                    }
                    if !on && (h, m) != (0.0, 0.0) {
                        return fail(format!("uncached row reports {h} hits / {m} misses"));
                    }
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(fields: &[(&str, Value)]) -> Value {
        Value::Obj(fields.iter().map(|(k, v)| (k.to_string(), v.clone())).collect())
    }

    /// `k = 10 + 12·log₂(m)` — a clean Theorem 2.1 shape.
    fn affine_rows() -> Vec<Value> {
        [12u64, 32, 80, 192]
            .iter()
            .map(|&m| {
                row(&[
                    ("host_m", Value::UInt(m)),
                    ("inefficiency", Value::Float(10.0 + 12.0 * (m as f64).log2())),
                ])
            })
            .collect()
    }

    #[test]
    fn affine_in_log_accepts_the_theorem_shape() {
        let shape = Shape::AffineInLog { x: "host_m", y: "inefficiency", max_slope_ratio: 2.0 };
        shape.check(&affine_rows()).expect("clean affine curve passes");
    }

    #[test]
    fn affine_in_log_rejects_flat_and_polynomial_curves() {
        let shape = Shape::AffineInLog { x: "host_m", y: "inefficiency", max_slope_ratio: 2.0 };
        // Flat: a cache bug that made slowdown independent of m.
        let flat: Vec<Value> = [12u64, 32, 80, 192]
            .iter()
            .map(|&m| row(&[("host_m", Value::UInt(m)), ("inefficiency", Value::Float(55.0))]))
            .collect();
        assert!(shape.check(&flat).is_err(), "flat curve must fail");
        // Polynomial in m (exponential in log m): a router gone quadratic.
        let poly: Vec<Value> = [12u64, 32, 80, 192]
            .iter()
            .map(|&m| {
                row(&[("host_m", Value::UInt(m)), ("inefficiency", Value::Float(m as f64 * 2.0))])
            })
            .collect();
        assert!(shape.check(&poly).is_err(), "polynomial curve must fail");
        // Decreasing: slope turns negative.
        let dec: Vec<Value> = [12u64, 32, 80]
            .iter()
            .zip([50.0, 40.0, 30.0])
            .map(|(&m, k)| row(&[("host_m", Value::UInt(m)), ("inefficiency", Value::Float(k))]))
            .collect();
        assert!(shape.check(&dec).is_err(), "decreasing curve must fail");
    }

    #[test]
    fn affine_in_log_two_points_pass_trivially() {
        let shape = Shape::AffineInLog { x: "host_m", y: "inefficiency", max_slope_ratio: 1.1 };
        shape.check(&affine_rows()[..2]).expect("two points always fit a line");
    }

    #[test]
    fn at_least_column_catches_a_dip_below_the_bound() {
        let shape = Shape::AtLeastColumn { y: "k", floor: "k_bound" };
        let good = vec![
            row(&[("k", Value::Float(47.9)), ("k_bound", Value::Float(5.0))]),
            row(&[("k", Value::Float(5.0)), ("k_bound", Value::Float(5.0))]),
        ];
        shape.check(&good).expect("points on or above the curve pass");
        let bent = vec![row(&[("k", Value::Float(4.2)), ("k_bound", Value::Float(5.0))])];
        let err = shape.check(&bent).unwrap_err();
        assert!(err.detail.contains("dips below"), "{err}");
    }

    #[test]
    fn floor_log_is_the_thm31_curve() {
        let shape = Shape::FloorLog { x: "host_m", y: "inefficiency", alpha: 1.0 };
        let good =
            vec![row(&[("host_m", Value::UInt(1024)), ("inefficiency", Value::Float(10.0))])];
        shape.check(&good).expect("k = log2 m sits on the curve");
        let bent = vec![row(&[("host_m", Value::UInt(1024)), ("inefficiency", Value::Float(9.9))])];
        assert!(shape.check(&bent).is_err(), "a point below Thm 3.1 must fail");
    }

    #[test]
    fn constant_column_detects_a_single_flipped_bit() {
        let shape = Shape::ConstantColumn { col: "protocol_hash" };
        let same = vec![
            row(&[("protocol_hash", Value::UInt(0xDEAD))]),
            row(&[("protocol_hash", Value::UInt(0xDEAD))]),
        ];
        shape.check(&same).expect("identical hashes pass");
        let drift = vec![
            row(&[("protocol_hash", Value::UInt(0xDEAD))]),
            row(&[("protocol_hash", Value::UInt(0xDEAE))]),
        ];
        assert!(shape.check(&drift).is_err(), "one flipped bit must fail");
    }

    #[test]
    fn monotone_in_log_orders_by_x_before_checking() {
        let shape = Shape::MonotoneInLog { x: "host_m", y: "k_ideal" };
        // Rows deliberately out of order: the predicate sorts by x.
        let good = vec![
            row(&[("host_m", Value::UInt(512)), ("k_ideal", Value::Float(6.3))]),
            row(&[("host_m", Value::UInt(8)), ("k_ideal", Value::Float(2.0))]),
            row(&[("host_m", Value::UInt(64)), ("k_ideal", Value::Float(4.0))]),
        ];
        shape.check(&good).expect("monotone after sorting");
        let bent = vec![
            row(&[("host_m", Value::UInt(8)), ("k_ideal", Value::Float(2.0))]),
            row(&[("host_m", Value::UInt(64)), ("k_ideal", Value::Float(1.5))]),
        ];
        assert!(shape.check(&bent).is_err());
    }

    #[test]
    fn speedup_ordering_loose_but_not_blind() {
        let shape = Shape::SpeedupOrdering {
            key: "config",
            fast: "seq-cached",
            slow: "seq-uncached",
            wall: "wall_ms",
            factor: 1.5,
            min_wall_ms: 5.0,
        };
        let good = vec![
            row(&[("config", Value::Str("seq-uncached".into())), ("wall_ms", Value::Float(64.0))]),
            row(&[("config", Value::Str("seq-cached".into())), ("wall_ms", Value::Float(17.0))]),
        ];
        shape.check(&good).expect("real speedup passes");
        // Losing the ordering outright (cache regression) fails…
        let lost = vec![
            row(&[("config", Value::Str("seq-uncached".into())), ("wall_ms", Value::Float(64.0))]),
            row(&[("config", Value::Str("seq-cached".into())), ("wall_ms", Value::Float(120.0))]),
        ];
        assert!(shape.check(&lost).is_err());
        // …but micro-timings below the noise floor are skipped.
        let tiny = vec![
            row(&[("config", Value::Str("seq-uncached".into())), ("wall_ms", Value::Float(0.8))]),
            row(&[("config", Value::Str("seq-cached".into())), ("wall_ms", Value::Float(2.0))]),
        ];
        shape.check(&tiny).expect("noise floor guard");
        // A missing configuration is a schema violation, not a pass.
        assert!(shape.check(&good[..1]).is_err());
    }

    #[test]
    fn throughput_scaling_armed_only_when_cores_allow() {
        let shape = Shape::ThroughputScaling {
            key: "config",
            fast: "s4",
            slow: "s1",
            throughput: "throughput_rps",
            factor: 3.0,
            cores: "cores",
            cores_needed: "cores_needed",
        };
        let rows = |fast_tp: f64, cores: u64| {
            vec![
                row(&[
                    ("config", Value::Str("s1".into())),
                    ("throughput_rps", Value::Float(100.0)),
                    ("cores", Value::UInt(cores)),
                    ("cores_needed", Value::UInt(1)),
                ]),
                row(&[
                    ("config", Value::Str("s4".into())),
                    ("throughput_rps", Value::Float(fast_tp)),
                    ("cores", Value::UInt(cores)),
                    ("cores_needed", Value::UInt(4)),
                ]),
            ]
        };
        shape.check(&rows(350.0, 8)).expect("3.5x on 8 cores passes");
        assert!(shape.check(&rows(150.0, 8)).is_err(), "1.5x on 8 cores fails the 3x gate");
        shape.check(&rows(150.0, 1)).expect("time-sliced single-core runner is skipped");
        // Missing rows or columns are schema violations even when the
        // predicate would be disarmed.
        assert!(shape.check(&rows(350.0, 8)[..1]).is_err());
        let no_cores = vec![
            row(&[("config", Value::Str("s1".into())), ("throughput_rps", Value::Float(1.0))]),
            row(&[("config", Value::Str("s4".into())), ("throughput_rps", Value::Float(9.0))]),
        ];
        assert!(shape.check(&no_cores).is_err(), "cores columns must exist");
    }

    #[test]
    fn cache_counters_deterministic_signal() {
        let shape =
            Shape::CacheCounters { cache: "cache", hits: "cache_hits", misses: "cache_misses" };
        let good = vec![
            row(&[
                ("cache", Value::Bool(true)),
                ("cache_hits", Value::UInt(6)),
                ("cache_misses", Value::UInt(1)),
            ]),
            row(&[
                ("cache", Value::Bool(false)),
                ("cache_hits", Value::UInt(0)),
                ("cache_misses", Value::UInt(0)),
            ]),
        ];
        shape.check(&good).expect("expected counter pattern");
        let cold_every_step = vec![row(&[
            ("cache", Value::Bool(true)),
            ("cache_hits", Value::UInt(0)),
            ("cache_misses", Value::UInt(7)),
        ])];
        assert!(shape.check(&cold_every_step).is_err(), "cache that never hits must fail");
        let phantom = vec![row(&[
            ("cache", Value::Bool(false)),
            ("cache_hits", Value::UInt(3)),
            ("cache_misses", Value::UInt(1)),
        ])];
        assert!(shape.check(&phantom).is_err(), "uncached rows must not report hits");
    }

    #[test]
    fn missing_columns_are_violations_not_passes() {
        let shape = Shape::AtLeastColumn { y: "k", floor: "k_bound" };
        let drifted = vec![row(&[("k", Value::Float(10.0))])];
        let err = shape.check(&drifted).unwrap_err();
        assert!(err.detail.contains("missing numeric column"), "{err}");
    }
}
