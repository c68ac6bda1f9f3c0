//! The versioned `BENCH.json` artifact (schema `unet-bench/2`).
//!
//! Schema v1 was four ad-hoc `BENCH_E*.json` files, one unversioned object
//! per experiment, written by copy-pasted per-experiment code. Schema v2
//! is one document holding every experiment the registry ran, stamped with
//! the schema id, the git revision, and the registry's base seed, so a
//! committed `BENCH.json` is a *baseline*: `unet bench diff` can parse it
//! back and re-check every claim's expected shape against it (see
//! [`crate::shape`] and [`crate::diff`]). The v1 files had their one
//! deprecation cycle; `BENCH.json` is now the only artifact.
//!
//! Layout:
//!
//! ```json
//! {
//!   "schema": "unet-bench/2",
//!   "git_rev": "d6c9528…",
//!   "seed": 24301,
//!   "quick": false,
//!   "experiments": [
//!     { "id": "E1", "title": "…", "claim": "Thm 2.1: …",
//!       "meta": { "guest": "random-regular n=512 d=4", … },
//!       "rows": [ { "dim": 2, "host_m": 12, "slowdown": 299.6, … }, … ],
//!       "wall_ms_total": 153.2 },
//!     …
//!   ]
//! }
//! ```
//!
//! Every row carries its grid parameters *and* its measurements (slowdown,
//! inefficiency, makespan, sizes, wall time), so a partial file can be
//! resumed: a row whose grid-parameter projection matches is already done.

use unet_obs::json::{parse, Value};

/// The current artifact schema identifier.
pub const SCHEMA: &str = "unet-bench/2";

/// The measured result of one registry experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentResult {
    /// Experiment id (`E1`, `E2`, `E16`, `E17`).
    pub id: String,
    /// Human title.
    pub title: String,
    /// The paper claim this experiment instantiates (`Thm 2.1: …`).
    pub claim: String,
    /// Experiment-level constants (guest description, grid sizes, …).
    pub meta: Vec<(String, Value)>,
    /// One object per grid point: grid parameters + measurements.
    pub rows: Vec<Value>,
    /// Total wall-clock time of the sweep for this experiment.
    pub wall_ms_total: f64,
}

/// A full `BENCH.json` document: header + per-experiment results.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDoc {
    /// Schema id; must equal [`SCHEMA`] to be accepted as a baseline.
    pub schema: String,
    /// `git rev-parse --short HEAD` at measurement time (or `unknown`).
    pub git_rev: String,
    /// The registry's base seed (every row derives its own from it).
    pub seed: u64,
    /// Whether the quick (CI-smoke) grid was used.
    pub quick: bool,
    /// Results, in registry order.
    pub experiments: Vec<ExperimentResult>,
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

impl ExperimentResult {
    fn to_value(&self) -> Value {
        obj(vec![
            ("id", Value::Str(self.id.clone())),
            ("title", Value::Str(self.title.clone())),
            ("claim", Value::Str(self.claim.clone())),
            ("meta", Value::Obj(self.meta.clone())),
            ("rows", Value::Arr(self.rows.clone())),
            ("wall_ms_total", Value::Float(self.wall_ms_total)),
        ])
    }

    fn from_value(v: &Value) -> Result<Self, String> {
        let str_field = |k: &str| {
            v.get(k)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("experiment missing string field {k:?}"))
        };
        let meta = match v.get("meta") {
            Some(Value::Obj(fields)) => fields.clone(),
            _ => return Err("experiment missing object field \"meta\"".into()),
        };
        let rows = v
            .get("rows")
            .and_then(Value::as_arr)
            .ok_or("experiment missing array field \"rows\"")?
            .to_vec();
        Ok(ExperimentResult {
            id: str_field("id")?,
            title: str_field("title")?,
            claim: str_field("claim")?,
            meta,
            rows,
            wall_ms_total: v.get("wall_ms_total").and_then(Value::as_f64).unwrap_or(0.0),
        })
    }
}

impl BenchDoc {
    /// Serialize to the canonical JSON form (one trailing newline).
    pub fn to_json(&self) -> String {
        obj(vec![
            ("schema", Value::Str(self.schema.clone())),
            ("git_rev", Value::Str(self.git_rev.clone())),
            ("seed", Value::UInt(self.seed)),
            ("quick", Value::Bool(self.quick)),
            ("experiments", Value::Arr(self.experiments.iter().map(|e| e.to_value()).collect())),
        ])
        .to_json()
            + "\n"
    }

    /// Parse a `BENCH.json` document, rejecting wrong schema ids with a
    /// pointed message (v1 artifacts have no `schema` field at all).
    pub fn parse(text: &str) -> Result<Self, String> {
        let v = parse(text)?;
        let schema = v
            .get("schema")
            .and_then(Value::as_str)
            .ok_or("no \"schema\" field — not a v2 artifact (regenerate with `unet bench run`)")?
            .to_owned();
        if schema != SCHEMA {
            return Err(format!("unsupported schema {schema:?} (this build reads {SCHEMA:?})"));
        }
        let experiments = v
            .get("experiments")
            .and_then(Value::as_arr)
            .ok_or("missing \"experiments\" array")?
            .iter()
            .map(ExperimentResult::from_value)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(BenchDoc {
            schema,
            git_rev: v.get("git_rev").and_then(Value::as_str).unwrap_or("unknown").to_owned(),
            seed: v.get("seed").and_then(Value::as_u64).unwrap_or(0),
            quick: matches!(v.get("quick"), Some(Value::Bool(true))),
            experiments,
        })
    }

    /// Look up an experiment by id.
    pub fn experiment(&self, id: &str) -> Option<&ExperimentResult> {
        self.experiments.iter().find(|e| e.id == id)
    }
}

/// The short git revision of the working tree, or `"unknown"` outside a
/// repository (artifacts must still be writable from an exported tarball).
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchDoc {
        BenchDoc {
            schema: SCHEMA.into(),
            git_rev: "abc1234".into(),
            seed: 0x5EED,
            quick: true,
            experiments: vec![ExperimentResult {
                id: "E1".into(),
                title: "Theorem 2.1 upper bound".into(),
                claim: "Thm 2.1: k = Theta(log m)".into(),
                meta: vec![("guest".into(), Value::Str("random-regular n=96 d=4".into()))],
                rows: vec![obj(vec![
                    ("dim", Value::UInt(2)),
                    ("host_m", Value::UInt(12)),
                    ("slowdown", Value::Float(42.5)),
                ])],
                wall_ms_total: 12.5,
            }],
        }
    }

    #[test]
    fn round_trips() {
        let doc = sample();
        let text = doc.to_json();
        let back = BenchDoc::parse(&text).expect("parses");
        assert_eq!(back, doc);
        assert_eq!(back.experiment("E1").unwrap().rows.len(), 1);
        assert!(back.experiment("E9").is_none());
    }

    #[test]
    fn rejects_v1_and_wrong_schema() {
        // v1 artifacts have no schema field.
        let v1 = r#"{"experiment":"E1","rows":[]}"#;
        let err = BenchDoc::parse(v1).unwrap_err();
        assert!(err.contains("not a v2 artifact"), "{err}");
        let v3 = r#"{"schema":"unet-bench/3","experiments":[]}"#;
        let err = BenchDoc::parse(v3).unwrap_err();
        assert!(err.contains("unsupported schema"), "{err}");
    }

    #[test]
    fn git_rev_is_nonempty() {
        assert!(!git_rev().is_empty());
    }
}
