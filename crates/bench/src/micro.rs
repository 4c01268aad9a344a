//! `reproduce micro` — host wall-clock trajectory of the pipeline stages.
//!
//! Times the named stages of the reproduction pipeline — functional capture
//! (on the bytecode VM **and** on the tree-walking oracle, so every record
//! carries its own before/after pair for the VM), timing replay
//! (serial **and** batched-parallel, another before/after pair),
//! consolidated functional execution, and a budgeted tuner sweep — across the
//! seven apps, and writes `BENCH_micro.json` so the repository accumulates a
//! PR-over-PR host-performance trajectory.
//!
//! The JSON separates two kinds of fields on purpose: `wall_ms` is host
//! wall-clock (machine-dependent, **never** pinned by tests) while `cycles`
//! and `work` are deterministic facts of the simulation (identical on every
//! machine and run), which is what the workspace tests check.

use std::path::Path;
use std::time::Instant;

use dpcons_apps::{all_benchmarks, Benchmark, Profile, RunConfig, Variant};
use dpcons_core::{Granularity, KnobSpace};
use dpcons_ir::{set_engine_override, ExecEngine};
use dpcons_sim::ExecRecord;
use dpcons_tune::{merge_reports, replay_timing_many, tune, Budget, TuneOptions};

use crate::json::Json;
use crate::tables::Table;

/// One timed stage of one app's micro run.
#[derive(Debug, Clone)]
pub struct StageTiming {
    /// Stage name: `capture`, `capture_tree`, `replay_timing`,
    /// `replay_parallel`, `grid_functional`, `tune_waves`.
    pub stage: &'static str,
    /// Functional executor that produced this stage's work: `"tree"` for the
    /// `capture_tree` stage (the oracle, forced with [`set_engine_override`]),
    /// `"bytecode"` for every other stage.
    pub engine: &'static str,
    /// Host wall-clock milliseconds. Machine-dependent; excluded from any
    /// deterministic comparison.
    pub wall_ms: f64,
    /// Simulated cycles produced by the stage (deterministic).
    pub cycles: u64,
    /// Work measure of the stage (deterministic): kernels executed for the
    /// run/replay stages, candidates evaluated for the tuner stage.
    pub work: u64,
}

/// Stage timings of one app.
#[derive(Debug, Clone)]
pub struct MicroResult {
    pub app: String,
    pub stages: Vec<StageTiming>,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let v = f();
    (v, started.elapsed().as_secs_f64() * 1e3)
}

/// Repetitions of the capture-stage timing pair. The recorded `wall_ms` is
/// the minimum over the repetitions: capture is deterministic, so the
/// fastest run is the least-perturbed one and the minimum converges on the
/// true cost instead of averaging in scheduler noise — which matters because
/// the capture / capture_tree pair is read as a before/after speedup ratio.
const CAPTURE_REPS: usize = 5;

fn timed_best<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let (mut v, mut best) = timed(&mut f);
    for _ in 1..CAPTURE_REPS {
        let (nv, ms) = timed(&mut f);
        if ms < best {
            best = ms;
            v = nv;
        }
    }
    (v, best)
}

/// Run the micro benchmark for one app: capture → replay → consolidated
/// functional run → budgeted tuner sweep, each stage timed separately.
pub fn micro_app(app: &dyn Benchmark, cfg: &RunConfig) -> MicroResult {
    let _span = dpcons_obs::span("micro.app");
    let ambient = ExecEngine::Bytecode.label();
    let mut stages = Vec::new();

    // Stage 1: functional capture of the basic-dp variant (the paper's
    // pathological baseline — the launch DAG the whole pipeline consumes).
    // One untimed warm-up run first, so the capture/capture_tree pair
    // compares steady-state executors rather than first-touch page faults
    // and cold scratch buffers (the warm-up always lands on stage 1's
    // engine, which would otherwise absorb the whole cost).
    let capture_cfg = RunConfig { capture: true, ..cfg.clone() };
    app.run(Variant::BasicDp, &capture_cfg).unwrap_or_else(|e| {
        panic!("micro capture warm-up of {} failed: {e}", app.name());
    });
    let (out, wall_ms) = timed_best(|| {
        app.run(Variant::BasicDp, &capture_cfg).unwrap_or_else(|e| {
            panic!("micro capture of {} failed: {e}", app.name());
        })
    });
    stages.push(StageTiming {
        stage: "capture",
        engine: ambient,
        wall_ms,
        cycles: out.report.total_cycles,
        work: out.report.kernels_executed,
    });
    let caps = out.captures.clone().expect("capture was enabled");

    // Stage 2: the identical capture through the tree-walking oracle — the
    // before/after pair that tracks the bytecode VM's speedup and pins both
    // executors to the same deterministic cycle count (CI compares this
    // stage's `cycles` against stage 1's).
    set_engine_override(Some(ExecEngine::Tree));
    let (tree_out, wall_ms) = timed_best(|| {
        app.run(Variant::BasicDp, &capture_cfg).unwrap_or_else(|e| {
            panic!("micro tree-walker capture of {} failed: {e}", app.name());
        })
    });
    set_engine_override(None);
    stages.push(StageTiming {
        stage: "capture_tree",
        engine: ExecEngine::Tree.label(),
        wall_ms,
        cycles: tree_out.report.total_cycles,
        work: tree_out.report.kernels_executed,
    });

    // Stage 3: timing-only replay of that capture on the same device —
    // isolates the discrete-event replay cost from the functional interp.
    // Best-of-N like the capture pair: this stage and the next are read as a
    // serial/parallel speedup ratio, so both take the least-perturbed run.
    let (rep, wall_ms) = timed_best(|| caps.replay_on(&cfg.gpu));
    stages.push(StageTiming {
        stage: "replay_timing",
        engine: ambient,
        wall_ms,
        cycles: rep.total_cycles,
        work: rep.kernels_executed,
    });

    // Stage 4: the identical replay through the batched parallel entry —
    // every captured host-launch DAG priced concurrently
    // (`dpcons_tune::replay_timing_many`) and merged in launch order, so
    // `cycles`/`work` must reproduce stage 3 bit for bit while `wall_ms`
    // tracks the fan-out win on multi-launch captures.
    let dags: Vec<&[ExecRecord]> = caps.launches.iter().map(|l| l.as_slice()).collect();
    let (par_rep, wall_ms) = timed_best(|| {
        let mut r = merge_reports(&replay_timing_many(&cfg.gpu, &dags));
        r.alloc_ops = caps.alloc_ops;
        r.alloc_cycles = caps.alloc_cycles;
        r
    });
    stages.push(StageTiming {
        stage: "replay_parallel",
        engine: ambient,
        wall_ms,
        cycles: par_rep.total_cycles,
        work: par_rep.kernels_executed,
    });

    // Stage 5: fresh functional execution of the grid-level consolidated
    // variant — the transformed code path the paper champions.
    let (out, wall_ms) = timed(|| {
        app.run(Variant::Consolidated(Granularity::Grid), cfg).unwrap_or_else(|e| {
            panic!("micro grid run of {} failed: {e}", app.name());
        })
    });
    stages.push(StageTiming {
        stage: "grid_functional",
        engine: ambient,
        wall_ms,
        cycles: out.report.total_cycles,
        work: out.report.kernels_executed,
    });

    // Stage 6: a small budgeted tuner sweep (no baselines, no cache — every
    // candidate is really evaluated, so the stage times the sweep itself).
    let opts = TuneOptions {
        base: cfg.clone(),
        space: KnobSpace::quick(cfg.gpu.num_sms),
        budget: Budget { max_evals: Some(8), patience: Some(1), ..Budget::default() },
        with_baselines: false,
        cache: None,
    };
    let (report, wall_ms) = timed(|| {
        tune(app, &opts).unwrap_or_else(|e| panic!("micro sweep of {} failed: {e}", app.name()))
    });
    stages.push(StageTiming {
        stage: "tune_waves",
        engine: ambient,
        wall_ms,
        cycles: report.best_cycles().unwrap_or(0),
        work: report.evaluated as u64,
    });

    MicroResult { app: app.name().to_string(), stages }
}

/// Run the micro benchmark across all seven apps, sequentially (stage
/// timings stay attributable; the stages themselves parallelize inside the
/// tuner's waves).
pub fn micro_all(profile: Profile, cfg: &RunConfig) -> Vec<MicroResult> {
    all_benchmarks(profile).iter().map(|app| micro_app(app.as_ref(), cfg)).collect()
}

/// Names of the timed stages, in run order.
pub const MICRO_STAGES: [&str; 6] = [
    "capture",
    "capture_tree",
    "replay_timing",
    "replay_parallel",
    "grid_functional",
    "tune_waves",
];

/// Assemble `BENCH_micro.json`. `wall_ms` fields are machine-dependent;
/// everything else is deterministic.
pub fn micro_json(profile: Profile, cfg: &RunConfig, results: &[MicroResult]) -> Json {
    let apps: Vec<Json> = results
        .iter()
        .map(|r| {
            let stages: Vec<Json> = r
                .stages
                .iter()
                .map(|s| {
                    Json::Obj(vec![
                        ("stage".into(), Json::s(s.stage)),
                        ("engine".into(), Json::s(s.engine)),
                        ("wall_ms".into(), Json::F64(s.wall_ms)),
                        ("cycles".into(), Json::U64(s.cycles)),
                        ("work".into(), Json::U64(s.work)),
                    ])
                })
                .collect();
            Json::Obj(vec![
                ("name".into(), Json::s(r.app.clone())),
                ("stages".into(), Json::Arr(stages)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("schema".into(), Json::s("dpcons-bench-micro-v3")),
        (
            "profile".into(),
            Json::s(match profile {
                Profile::Test => "test",
                Profile::Bench => "bench",
            }),
        ),
        ("gpu".into(), Json::s(cfg.gpu.name.clone())),
        ("engine".into(), Json::s(ExecEngine::Bytecode.label())),
        ("apps".into(), Json::Arr(apps)),
    ])
}

/// Write the micro record to disk.
pub fn write_micro_json(
    path: &Path,
    profile: Profile,
    cfg: &RunConfig,
    results: &[MicroResult],
) -> std::io::Result<()> {
    std::fs::write(path, micro_json(profile, cfg, results).render())
}

/// Human-readable stage-timing table, one row per (app, stage).
pub fn micro_table(results: &[MicroResult]) -> Table {
    let mut t = Table::new(
        "Micro: host wall-clock per pipeline stage",
        vec!["app", "stage", "engine", "wall_ms", "sim cycles", "work"],
    );
    for r in results {
        for s in &r.stages {
            t.row(vec![
                r.app.clone(),
                s.stage.to_string(),
                s.engine.to_string(),
                format!("{:.2}", s.wall_ms),
                s.cycles.to_string(),
                s.work.to_string(),
            ]);
        }
    }
    t.note("wall_ms is host time (machine-dependent); cycles and work are deterministic");
    t
}
