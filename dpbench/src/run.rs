//! One benchmark run: set-up, measured passes, checks, and the result.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use dpcons_apps::{Profile, RunConfig};
use dpcons_obs::jsonv::Value;
use dpcons_sim::parse_fleet;

use crate::catalog::{geomean, median, quantile, unit_of, END_TO_END, PER_LAYER};
use crate::inputs::{check_presets, setup, Inputs, PRESET_SEED};
use crate::layers::{check_spans, pass_layers, probe, Counters, PassInputs};
use crate::workload::{
    check_determinism, run_pass, Ctx, Pass, Workload, FLEET_BUDGET, FLEET_DEVICES, TUNE_BUDGET,
    WARM_REPS,
};
use crate::{host, reference};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Restrict to these apps (empty = all seven).
    pub apps: Vec<String>,
    /// Rewrite this seed's reference lines from the run.
    pub record: bool,
    /// Where traces, results and scratch caches go.
    pub out_dir: PathBuf,
}

/// Set-up repetitions; `setup_s` is their median.
fn setup_reps(p: Profile) -> usize {
    match p {
        Profile::Test => 7,
        Profile::Bench => 3,
    }
}

/// Minimum ops before `op_p90_ms` is reported (ten samples beyond it).
const P90_MIN_OPS: usize = 100;

/// Run passes until the next one would end after `budget_s`, and at least
/// `min_passes`. Pass `i` is traced when `traced_at(i)`: metrics and spans
/// are reset before it, and the counters read after every pass.
fn run_passes(
    ctx: &Ctx,
    budget_s: f64,
    min_passes: usize,
    traced_at: impl Fn(usize) -> bool,
) -> Vec<(Pass, Counters, bool)> {
    let started = Instant::now();
    let mut out: Vec<(Pass, Counters, bool)> = Vec::new();
    loop {
        let traced = traced_at(out.len());
        dpcons_obs::set_tracing(traced);
        if traced {
            dpcons_obs::reset_metrics();
            let _ = dpcons_obs::take_spans();
        }
        let pass = run_pass(ctx, out.len());
        dpcons_obs::set_tracing(false);
        out.push((pass, Counters::read(), traced));
        let walls: Vec<f64> = out.iter().map(|(p, ..)| p.wall_ms / 1e3).collect();
        if out.len() >= min_passes && started.elapsed().as_secs_f64() + median(&walls) > budget_s {
            break;
        }
    }
    out
}

fn metric_obj(metrics: &BTreeMap<&'static str, f64>) -> Value {
    Value::Obj(
        metrics
            .iter()
            .map(|(k, v)| {
                let unit = unit_of(k).expect("every reported metric is declared");
                let o = BTreeMap::from([
                    ("value".to_string(), Value::Num(*v)),
                    ("unit".to_string(), Value::Str(unit.to_string())),
                ]);
                (k.to_string(), Value::Obj(o))
            })
            .collect(),
    )
}

fn print_table(title: &str, rows: &[(String, f64, &str)]) {
    println!("== {title}");
    let width = rows.iter().map(|r| r.0.len()).max().unwrap_or(0);
    for (name, v, unit) in rows {
        println!("  {name:<width$}  {v:>14.4} {unit}");
    }
}

/// Execute one run and print its result; returns the process exit code
/// (0 = every check passed, 3 = the result records failures).
pub fn run(args: &Args) -> i32 {
    let w = args.workload;
    let profile = w.profile();
    let draws = w.draws();
    let cfg = RunConfig::default();
    let fleet = parse_fleet(FLEET_DEVICES).expect("the fleet names registry devices");
    let mut problems: Vec<String> = Vec::new();
    if args.seed == PRESET_SEED {
        problems.extend(check_presets(profile).into_iter().map(|p| format!("preset: {p}")));
    }

    // Set-up, several times; the last build is used.
    let (mut setup_ms, mut gen_ms, mut oracle_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut inputs: Option<Inputs> = None;
    for _ in 0..setup_reps(profile) {
        drop(inputs.take());
        let i = setup(profile, args.seed, draws, &args.apps);
        setup_ms.push(i.gen_ms + i.oracle_ms);
        gen_ms.push(i.gen_ms);
        oracle_ms.push(i.oracle_ms);
        inputs = Some(i);
    }
    let inputs = inputs.expect("at least one set-up");
    if inputs.apps.is_empty() {
        eprintln!("dpbench: --apps selects no app (known: {})", crate::inputs::APP_NAMES.join(","));
        return 2;
    }
    // The tuner keys its cache on a hash of the oracle output, so draws
    // whose oracles agree (every TH tree of one depth has the same height)
    // share a key. Each cold sweep here has a cache of its own, so no op is
    // affected; the collision is a defect of the cache key, reported here.
    let mut notes: Vec<String> = Vec::new();
    if matches!(w, Workload::Tune | Workload::Fleet) {
        let mut by_key: BTreeMap<u64, Vec<&str>> = BTreeMap::new();
        for (app, label) in inputs.apps.iter().zip(&inputs.labels) {
            by_key.entry(dpcons_tune::fingerprint(app.as_ref())).or_default().push(label);
        }
        notes.extend(by_key.values().filter(|l| l.len() > 1).map(|l| {
            format!(
                "known defect: dpcons_tune::fingerprint is equal for different datasets {} \
                 (equal oracle outputs), so a shared tune cache would serve one's report for another",
                l.join(",")
            )
        }));
    }
    let ctx = Ctx {
        workload: w,
        inputs: &inputs,
        cfg: cfg.clone(),
        fleet: fleet.clone(),
        scratch: args.out_dir.join(format!("scratch-{}", std::process::id())),
    };

    // Measured passes with tracing off. A traced run alternates untraced
    // and traced passes (the difference is the tracing overhead) in most of
    // its time, then probes the layers directly.
    let all = if args.trace {
        run_passes(&ctx, args.seconds * 0.8, 2, |i| i % 2 == 1)
    } else {
        run_passes(&ctx, args.seconds, 1, |_| false)
    };
    let (mut untraced, mut traced): (Vec<_>, Vec<_>) =
        all.into_iter().partition(|(.., traced)| !*traced);
    let _ = std::fs::remove_dir_all(&ctx.scratch);

    // Checks across passes, then against the committed reference.
    {
        let mut all: Vec<Pass> = untraced.iter().chain(&traced).map(|(p, ..)| p.clone()).collect();
        check_determinism(&mut all);
        let want = reference::load(&reference::reference_dir(), w, args.seed);
        for p in all.iter_mut() {
            reference::check(&mut p.ops, &want);
        }
        if want.is_empty() {
            println!(
                "reference: no recorded fields for seed {} (oracle and cross-pass checks only)",
                args.seed
            );
        }
        if args.record {
            if let Err(e) =
                reference::record(&reference::reference_dir(), w, args.seed, &all[0].ops)
            {
                problems.push(format!("recording the reference failed: {e}"));
            }
        }
        for (slot, checked) in untraced.iter_mut().chain(traced.iter_mut()).zip(all) {
            slot.0 = checked;
        }
    }
    let passes: Vec<&Pass> = untraced.iter().chain(&traced).map(|(p, ..)| p).collect();
    let all_ops: Vec<&crate::workload::Op> =
        passes.iter().flat_map(|p| p.ops.iter().chain(&p.warm)).collect();
    let attempted = all_ops.len();
    let failed = all_ops.iter().filter(|o| o.error.is_some()).count();
    let mut seen = std::collections::BTreeSet::new();
    for op in all_ops.iter().filter(|o| o.error.is_some()) {
        let e = op.error.as_deref().unwrap_or_default();
        if seen.insert((op.label.clone(), e.to_string())) {
            println!("FAIL {} {}: {e}", w.name(), op.label);
        }
    }

    // End-to-end figures, from the untraced passes only.
    let plain: Vec<&Pass> = untraced.iter().map(|(p, ..)| p).collect();
    let op_ms: Vec<f64> = plain.iter().flat_map(|p| p.ops.iter().map(|o| o.wall_ms)).collect();
    let warm_ms: Vec<f64> = plain.iter().flat_map(|p| p.warm.iter().map(|o| o.wall_ms)).collect();
    let first = &plain[0].facts;
    let sweep_s: f64 = plain.iter().map(|p| p.facts.sweep_ms).sum::<f64>() / 1e3;
    let retimings: u64 = plain.iter().map(|p| p.facts.retimings).sum();
    let pass_s = median(&plain.iter().map(|p| p.wall_ms).collect::<Vec<_>>()) / 1e3;
    // Host-normalised times: each op's wall time scaled by the calibration
    // reading taken next to it (see `host::calibration_ms`).
    let norm = |o: &crate::workload::Op| o.wall_ms * host::NOMINAL_CALIB_MS / o.calib_ms;
    let norm_pass_s = |p: &Pass| p.ops.iter().chain(&p.warm).map(norm).sum::<f64>() / 1e3;
    let op_norm: Vec<f64> = plain.iter().flat_map(|p| p.ops.iter().map(norm)).collect();
    let pass_norm: Vec<f64> = plain.iter().map(|p| norm_pass_s(p)).collect();
    let calib: Vec<f64> = plain.iter().flat_map(|p| p.calib_ms.iter().copied()).collect();

    let mut extra: Vec<(String, f64, &str)> = vec![
        ("passes".into(), plain.len() as f64, "count"),
        ("ops".into(), op_ms.len() as f64, "count"),
        ("error_rate".into(), failed as f64 / attempted.max(1) as f64, "ratio"),
        ("pass_s".into(), pass_s, "s"),
        ("op_p50_ms".into(), median(&op_ms), "ms"),
        ("calibration_ms".into(), median(&calib), "ms"),
    ];
    if op_ms.len() >= P90_MIN_OPS {
        extra.push(("op_p90_ms".into(), quantile(&op_ms, 0.9), "ms"));
    }
    match w {
        Workload::Tune => {
            extra.push(("warm_p50_ms".into(), median(&warm_ms), "ms"));
            if warm_ms.len() >= P90_MIN_OPS {
                extra.push(("warm_p90_ms".into(), quantile(&warm_ms, 0.9), "ms"));
            }
            extra.push(("tuned_gain_geomean".into(), geomean(&first.gains), "ratio"));
        }
        Workload::Fleet => {
            extra.push(("retimings_per_s".into(), retimings as f64 / sweep_s.max(1e-9), "1/s"))
        }
        _ => extra.push(("sim_speedup_geomean".into(), geomean(&first.speedups), "ratio")),
    }

    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    if !args.trace {
        metrics.insert("setup_s", median(&setup_ms) / 1e3);
        metrics.insert("pass_norm_s", median(&pass_norm));
        metrics.insert("op_norm_p50_ms", median(&op_norm));
        metrics.insert("peak_rss_mb", host::peak_rss_mb());
        debug_assert!(END_TO_END.iter().all(|d| metrics.contains_key(d.name)));
    } else {
        let probes = probe(&inputs, &cfg, &fleet);
        problems.extend(probes.errors.iter().map(|e| format!("probe: {e}")));
        let oracle_per_app = median(&oracle_ms) / inputs.apps.len() as f64;
        let mut per_pass: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (p, c, _) in &traced {
            if let Some(e) = check_spans(p, c) {
                problems.push(e);
            }
            let x = PassInputs {
                workload: w,
                pass: p,
                counters: c,
                probes: &probes,
                pool_words: cfg.pool_words,
                oracle_ms_per_app: oracle_per_app,
                workers: host::nproc(),
            };
            for (k, v) in pass_layers(&x) {
                per_pass.entry(k).or_default().push(v);
            }
        }
        metrics.extend(per_pass.iter().map(|(k, v)| (*k, median(v))));
        // Normalised, so host drift between the two kinds of pass cancels.
        let traced_norm: Vec<f64> = traced.iter().map(|(p, ..)| norm_pass_s(p)).collect();
        let (traced_s, untraced_s) = (median(&traced_norm), median(&pass_norm));
        metrics.insert("workloads.gen_ms", median(&gen_ms));
        metrics.insert("workloads.oracle_ms", median(&oracle_ms));
        metrics.insert("core.consolidate_us", probes.consolidate_us);
        metrics.insert("core.reset_launch_us", probes.reset_warm_us);
        metrics.insert("core.reset_launch_first_us", probes.reset_first_us);
        metrics.insert("ir.install_us", probes.install_us);
        metrics.insert("ir.bytecode_ops", probes.bytecode_ops as f64);
        metrics.insert("sim.replay_us_per_kernel", probes.replay_us_per_kernel);
        metrics.insert("tune.replay.batch_us_per_kernel", probes.batch_us_per_kernel);
        metrics.insert("tune.cache.warm_p50_ms", median(&warm_ms));
        metrics.insert("tune.cache.warm_p90_ms", quantile(&warm_ms, 0.9));
        metrics.insert(
            "fleet.retimings_per_s",
            if sweep_s > 0.0 { retimings as f64 / sweep_s } else { 0.0 },
        );
        metrics.insert("obs.trace_overhead_pct", 100.0 * (traced_s - untraced_s) / untraced_s);
        metrics
            .insert("obs.dropped_spans", traced.iter().map(|(p, ..)| p.dropped_spans as f64).sum());
        let missing: Vec<&str> =
            PER_LAYER.iter().map(|d| d.name).filter(|n| !metrics.contains_key(n)).collect();
        assert!(missing.is_empty(), "per-layer metrics not computed: {missing:?}");

        // The first traced pass as a Chrome trace, validated before it is kept.
        let trace = dpcons_obs::chrome_trace_json(&traced[0].0.spans);
        let path = args.out_dir.join(format!("trace-{}-seed{}.json", w.name(), args.seed));
        match dpcons_obs::validate_chrome_trace(&trace) {
            Ok(stats) => match std::fs::write(&path, &trace) {
                Ok(()) => println!(
                    "trace: {} ({} spans, {} threads)",
                    path.display(),
                    stats.span_count,
                    stats.threads
                ),
                Err(e) => problems.push(format!("writing {}: {e}", path.display())),
            },
            Err(e) => problems.push(format!("invalid Chrome trace: {e}")),
        }
    }

    // Human-readable report, provenance, then the result as the last line.
    let rows: Vec<(String, f64, &str)> = metrics
        .iter()
        .map(|(k, v)| (k.to_string(), *v, unit_of(k).unwrap_or("")))
        .chain(extra)
        .collect();
    print_table(&format!("{} seed={} trace={}", w.name(), args.seed, u8::from(args.trace)), &rows);
    let pass_walls: Vec<String> = plain.iter().map(|p| format!("{:.1}", p.wall_ms)).collect();
    println!("pass walls (ms): {}", pass_walls.join(" "));
    for n in &notes {
        println!("NOTE {n}");
    }
    for p in &problems {
        println!("FAIL check: {p}");
    }
    let correct = failed == 0 && problems.is_empty();
    let mut apps: Vec<&str> = inputs.apps.iter().map(|a| a.name()).collect();
    apps.sort_unstable();
    apps.dedup();
    let budget =
        |b: &dpcons_tune::Budget| format!("max_evals={:?},patience={:?}", b.max_evals, b.patience);
    let params = vec![
        ("workload", Value::Str(w.name().into())),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("profile", Value::Str(format!("{profile:?}").to_lowercase())),
        ("apps", Value::Str(apps.join(","))),
        ("draws", Value::Num(draws as f64)),
        ("setup_reps", Value::Num(setup_reps(profile) as f64)),
        ("passes", Value::Num(passes.len() as f64)),
        ("client", Value::Str("1 closed-loop client".into())),
        (
            "params",
            Value::Str(match w {
                Workload::Tune => {
                    format!("space=quick,{},baselines,warm_reps={WARM_REPS}", budget(&TUNE_BUDGET))
                }
                Workload::Fleet => {
                    format!("space=quick,{},devices={FLEET_DEVICES}", budget(&FLEET_BUDGET))
                }
                _ => "variants=basic-dp,no-dp,warp,block,grid;knobs=paper-default".into(),
            }),
        ),
    ];
    let prov = host::provenance(params);
    let result = Value::Obj(BTreeMap::from([
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::Num(attempted as f64)),
        ("failed".to_string(), Value::Num(failed as f64)),
        ("metrics".to_string(), metric_obj(&metrics)),
    ]));
    let mut record = BTreeMap::from([
        ("provenance".to_string(), prov.clone()),
        ("result".to_string(), result.clone()),
    ]);
    record.insert(
        "failures".to_string(),
        Value::Arr(
            all_ops
                .iter()
                .filter_map(|o| o.error.as_ref().map(|e| Value::Str(format!("{}: {e}", o.label))))
                .chain(problems.iter().map(|p| Value::Str(p.clone())))
                .collect(),
        ),
    );
    record.insert(
        "notes".to_string(),
        Value::Arr(notes.iter().map(|n| Value::Str(n.clone())).collect()),
    );
    let path = args.out_dir.join(format!(
        "result-{}-seed{}-trace{}.json",
        w.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&path, Value::Obj(record).render()) {
        eprintln!("dpbench: cannot write {}: {e}", path.display());
    }
    println!("provenance: {}", prov.render());
    println!("{}", result.render());
    if correct {
        0
    } else {
        3
    }
}
