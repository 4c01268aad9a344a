//! The benchmark's contract: legal names, `BENCHMARK.json` in step with the
//! metric catalog, and every declared metric emitted with its unit by every
//! workload in both modes.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use dpcons_dpbench::catalog::{legal_name, legal_unit, unit_of, END_TO_END, PER_LAYER};
use dpcons_dpbench::workload::Workload;
use dpcons_obs::jsonv::{parse, Value};

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

fn names(v: &Value, key: &str) -> Vec<(String, String)> {
    v.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or_default().to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn catalog_names_and_units_are_legal_and_unique() {
    let mut seen = BTreeSet::new();
    for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(legal_name(d.name), "illegal metric name {}", d.name);
        assert!(legal_unit(d.unit), "illegal unit {} of {}", d.unit, d.name);
        assert!(seen.insert(d.name), "metric {} declared twice", d.name);
    }
    for w in Workload::ALL {
        assert!(legal_name(w.name()));
    }
    assert!(!legal_name("-x") && !legal_name("a b") && !legal_name(&"a".repeat(65)));
    assert!(!legal_unit("m s") && legal_unit("1/s") && legal_unit("%"));
}

#[test]
fn benchmark_json_declares_exactly_the_catalog() {
    let b = benchmark_json();
    let declared = |key: &str| names(&b, key).into_iter().collect::<BTreeSet<_>>();
    let catalog = |defs: &[dpcons_dpbench::catalog::MetricDef]| {
        defs.iter().map(|d| (d.name.to_string(), d.unit.to_string())).collect::<BTreeSet<_>>()
    };
    assert_eq!(declared("end_to_end"), catalog(&END_TO_END));
    assert_eq!(declared("per_layer"), catalog(&PER_LAYER));
    for (w, _) in names(&b, "workloads") {
        assert!(Workload::parse(&w).is_some(), "BENCHMARK.json names unknown workload {w}");
    }
    let setup = b
        .get("end_to_end")
        .and_then(Value::as_arr)
        .and_then(|m| m.iter().find(|x| x.get("name").and_then(Value::as_str) == Some("setup_s")));
    let bound = |m: &Value| m.get("bound").and_then(Value::as_num).unwrap_or(f64::NAN);
    let setup_bound = bound(setup.expect("setup_s is declared"));
    for m in b.get("end_to_end").and_then(Value::as_arr).unwrap_or_default() {
        assert!(bound(m) > 0.0 && bound(m) <= 0.25 && bound(m) <= setup_bound);
    }
}

/// Run one small workload (one app, one second) and return its result line.
fn run(w: Workload, trace: bool) -> Value {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("emit");
    let out = Command::new(env!("CARGO_BIN_EXE_dpbench"))
        .args(["--workload", w.name(), "--seed", "3", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--apps", "TH"])
        .arg("--out-dir")
        .arg(&out_dir)
        .output()
        .expect("dpbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{} trace={trace}: {stdout}", w.name());
    parse(stdout.lines().last().unwrap_or_default()).expect("last line is JSON")
}

#[test]
fn every_workload_emits_every_declared_metric_with_its_unit() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let r = run(w, trace);
            assert_eq!(r.get("correct"), Some(&Value::Bool(true)), "{} trace={trace}", w.name());
            assert!(r.get("attempted").and_then(Value::as_num).unwrap_or(0.0) >= 1.0);
            assert_eq!(r.get("failed").and_then(Value::as_num), Some(0.0));
            let metrics = r.get("metrics").and_then(Value::as_obj).expect("metrics object");
            let want = if trace { &PER_LAYER[..] } else { &END_TO_END[..] };
            let got: BTreeSet<&str> = metrics.keys().map(String::as_str).collect();
            let expected: BTreeSet<&str> = want.iter().map(|d| d.name).collect();
            assert_eq!(got, expected, "{} trace={trace}", w.name());
            for (name, m) in metrics {
                assert_eq!(m.get("unit").and_then(Value::as_str), unit_of(name), "{name}");
                let v = m.get("value").and_then(Value::as_num).expect("numeric value");
                assert!(v.is_finite(), "{name} = {v}");
                if !trace {
                    assert!(v > 0.0, "end-to-end metric {name} must be nonzero");
                }
            }
        }
    }
}

#[test]
fn bad_usage_exits_2_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_dpbench"))
        .args(["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .output()
        .expect("dpbench runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
