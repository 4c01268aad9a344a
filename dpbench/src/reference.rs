//! Committed reference records of the deterministic fields.
//!
//! `reference/<workload>.txt` holds one line per (seed, op):
//! `seed<TAB>label<TAB>fields`. Simulated cycles, kernel counts, tuner
//! winners and the fleet matrix are facts of the simulation, identical on
//! every machine, so any difference is a defect. Seeds without recorded
//! lines are checked against the oracle and across passes only.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::workload::{Op, Workload};

/// Directory of the committed reference records.
pub fn reference_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("reference")
}

fn file_for(dir: &Path, w: Workload) -> PathBuf {
    dir.join(format!("{}.txt", w.name()))
}

/// The recorded `label → fields` lines for one seed (empty if none).
pub fn load(dir: &Path, w: Workload, seed: u64) -> BTreeMap<String, String> {
    let text = std::fs::read_to_string(file_for(dir, w)).unwrap_or_default();
    let prefix = format!("{seed}\t");
    text.lines()
        .filter_map(|l| l.strip_prefix(&prefix))
        .filter_map(|l| l.split_once('\t'))
        .map(|(label, fields)| (label.to_string(), fields.to_string()))
        .collect()
}

/// Mark every op whose fields differ from the reference, and every
/// recorded op the run did not produce. Returns the number of failures.
pub fn check(ops: &mut [Op], want: &BTreeMap<String, String>) -> usize {
    if want.is_empty() {
        return 0;
    }
    let mut failed = 0;
    for op in ops.iter_mut() {
        match want.get(&op.label) {
            Some(fields) if *fields == op.det => {}
            Some(_) if op.det.is_empty() => {}
            Some(fields) => {
                if op.error.is_none() {
                    failed += 1;
                }
                op.error = Some(format!("differs from reference: {} vs {fields}", op.det));
            }
            None => {
                if op.error.is_none() {
                    failed += 1;
                }
                op.error = Some("op missing from the reference".into());
            }
        }
    }
    failed
}

/// Replace the recorded lines of `seed` with the fields of `ops`.
pub fn record(dir: &Path, w: Workload, seed: u64, ops: &[Op]) -> std::io::Result<()> {
    let path = file_for(dir, w);
    let old = std::fs::read_to_string(&path).unwrap_or_default();
    let prefix = format!("{seed}\t");
    let mut lines: Vec<String> = old
        .lines()
        .filter(|l| !l.starts_with(&prefix) && !l.starts_with('#'))
        .map(str::to_string)
        .collect();
    lines.extend(ops.iter().map(|op| format!("{seed}\t{}\t{}", op.label, op.det)));
    lines.sort_by_key(|l| l.split('\t').next().and_then(|s| s.parse::<u64>().ok()));
    let mut text =
        format!("# dpbench reference: seed<TAB>op<TAB>deterministic fields ({})\n", w.name());
    for l in lines {
        text.push_str(&l);
        text.push('\n');
    }
    std::fs::create_dir_all(dir)?;
    std::fs::write(path, text)
}
