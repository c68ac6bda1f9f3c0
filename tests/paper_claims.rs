//! The E3–E15 claim gates against the committed `BENCH.json`.
//!
//! Every shape of the paper's lower-bound chain, host and routing tables
//! and related-work bounds (E3–E15) must hold on the committed rows, and
//! must fail once one row is bent against it — so a gate that can never
//! fire, or a baseline that no longer supports its claim, shows up in the
//! tier-1 suite. Fresh runs of these experiments are `unet bench diff`'s
//! job; this test reads the artifact only.

use universal_networks::bench::registry::registry;
use universal_networks::bench::schema::BenchDoc;
use universal_networks::bench::shape::Shape;
use universal_networks::obs::json::Value;

const PAPER_IDS: [&str; 17] = [
    "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12a", "E12b", "E12c", "E12d", "E12e",
    "E13", "E14", "E15",
];

fn committed() -> BenchDoc {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH.json");
    let text = std::fs::read_to_string(path).expect("BENCH.json is committed");
    BenchDoc::parse(&text).expect("BENCH.json parses")
}

fn num(row: &Value, col: &str) -> f64 {
    row.get(col).and_then(Value::as_f64).unwrap_or_else(|| panic!("{col} in {}", row.to_json()))
}

fn set(row: &mut Value, col: &str, v: f64) {
    let Value::Obj(fields) = row else { panic!("row is an object") };
    let slot = fields.iter_mut().find(|(k, _)| k == col).expect("column exists");
    slot.1 = Value::Float(v);
}

fn row_index(rows: &[Value], key: &str, label: &str) -> usize {
    rows.iter()
        .position(|r| r.get(key).and_then(Value::as_str) == Some(label))
        .unwrap_or_else(|| panic!("no row with {key} = {label}"))
}

/// Rewrite exactly one row so that `shape` must reject the rows.
fn bend(shape: &Shape, rows: &mut [Value]) {
    match *shape {
        Shape::AtLeastColumn { y, floor } => {
            let f = num(&rows[0], floor);
            set(&mut rows[0], y, f - f.abs().max(1.0));
        }
        Shape::MonotoneInLog { x, y } => {
            let last =
                (0..rows.len()).max_by(|&a, &b| num(&rows[a], x).total_cmp(&num(&rows[b], x)));
            let low = rows.iter().map(|r| num(r, y)).fold(f64::INFINITY, f64::min);
            set(&mut rows[last.expect("rows")], y, low - low.abs().max(1.0));
        }
        Shape::ConstantColumn { col } => {
            let v = num(&rows[0], col);
            set(&mut rows[0], col, v + v.abs().max(1.0));
        }
        Shape::SpeedupOrdering { key, fast, slow, wall, factor, .. } => {
            let s = num(&rows[row_index(rows, key, slow)], wall);
            let i = row_index(rows, key, fast);
            set(&mut rows[i], wall, 2.0 * factor * s + 1.0);
        }
        ref other => panic!("no bend for {}", other.describe()),
    }
}

#[test]
fn committed_rows_pass_every_paper_shape_and_a_bent_row_fails_it() {
    let doc = committed();
    let reg = registry();
    let mut checked = 0;
    for id in PAPER_IDS {
        let exp = reg.iter().find(|e| e.id == id).unwrap_or_else(|| panic!("{id} registered"));
        let rows = &doc.experiment(id).unwrap_or_else(|| panic!("{id} in BENCH.json")).rows;
        let shapes = (exp.shapes)();
        assert!(!shapes.is_empty(), "{id} states no claim");
        for shape in shapes {
            shape.check(rows).unwrap_or_else(|v| panic!("{id}: committed rows fail {v}"));
            let mut bent = rows.clone();
            bend(&shape, &mut bent);
            let changed = bent.iter().zip(rows).filter(|(a, b)| a != b).count();
            assert_eq!(changed, 1, "{id}: the bend touches exactly one row");
            assert!(shape.check(&bent).is_err(), "{id}: bent row passes {}", shape.describe());
            checked += 1;
        }
    }
    assert!(checked >= PAPER_IDS.len());
}

#[test]
fn bench_list_names_every_experiment() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_unet"))
        .args(["bench", "list"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let listed = String::from_utf8_lossy(&out.stdout);
    let engine = ["E16", "E17", "E18", "E19", "E21", "E22"];
    for id in ["E1", "E2"].iter().chain(&PAPER_IDS).chain(&engine) {
        assert!(listed.contains(&format!("{id}: ")), "{id} missing from `bench list`");
    }
    // E20 (batched execution) was removed with the `batch` request kind;
    // the later ids keep their numbers.
    assert!(!listed.contains("E20: "), "E20 is retired");
}
