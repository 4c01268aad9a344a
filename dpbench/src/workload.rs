//! The four workloads and one pass over each.
//!
//! A pass is the workload's full op list, issued by one closed-loop client:
//! the next op starts only after the previous one returned and was checked.
//! Every op is compared with its CPU oracle (directly for the matrix, through
//! the tuner's own oracle gate for sweeps) and yields a line of
//! deterministic fields that later passes and the committed reference must
//! reproduce exactly.

use std::path::PathBuf;
use std::time::Instant;

use dpcons_apps::{Benchmark, Profile, RunConfig, Variant};
use dpcons_core::{Granularity, KnobSpace};
use dpcons_obs::SpanRec;
use dpcons_sim::GpuConfig;
use dpcons_tune::{
    default_knobs, fleet_sweep, tune, Budget, Cache, FleetOptions, FleetReport, FleetStatus, Fnv64,
    Status, TuneOptions, TuneReport,
};

use crate::inputs::Inputs;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 7 apps × 5 variants at the Test profile, paper-default knobs.
    MatrixTest,
    /// The same 35 ops at the Bench profile.
    MatrixBench,
    /// One cold `tune()` per app, then warm re-requests from the disk cache.
    Tune,
    /// One cold `fleet_sweep` per app over [`FLEET_DEVICES`].
    Fleet,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::MatrixTest, Workload::MatrixBench, Workload::Tune, Workload::Fleet];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MatrixTest => "matrix-test",
            Workload::MatrixBench => "matrix-bench",
            Workload::Tune => "tune",
            Workload::Fleet => "fleet",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn profile(self) -> Profile {
        match self {
            Workload::MatrixBench => Profile::Bench,
            _ => Profile::Test,
        }
    }

    /// Draws of the seven apps per run (see [`crate::inputs`]). Enough to
    /// average out how much the simulated work varies from draw to draw.
    pub fn draws(self) -> u64 {
        match self {
            Workload::MatrixTest => 12,
            Workload::MatrixBench => 1,
            Workload::Tune => 5,
            Workload::Fleet => 7,
        }
    }

    pub fn is_matrix(self) -> bool {
        matches!(self, Workload::MatrixTest | Workload::MatrixBench)
    }
}

/// The device fleet of the `fleet` workload (`reproduce fleet`'s default).
pub const FLEET_DEVICES: &str = "k20c,k40,titan,tk1";
/// Warm re-requests per app and pass in the `tune` workload.
pub const WARM_REPS: usize = 5;
/// `reproduce --tune`'s budget.
pub const TUNE_BUDGET: Budget =
    Budget { max_evals: Some(48), patience: Some(3), fuel: None, max_candidate_ms: None };
/// `reproduce fleet`'s budget.
pub const FLEET_BUDGET: Budget =
    Budget { max_evals: Some(24), patience: Some(3), fuel: None, max_candidate_ms: None };

/// One checked op.
#[derive(Debug, Clone)]
pub struct Op {
    /// `app#draw` or `app#draw/variant`.
    pub label: String,
    pub wall_ms: f64,
    /// The calibration reading taken just before the op's group.
    pub calib_ms: f64,
    /// Why the op failed: oracle mismatch, typed error, panic, or a
    /// deterministic field that differs from the reference.
    pub error: Option<String>,
    /// Deterministic fields, compared across passes and with the reference.
    pub det: String,
}

/// Deterministic facts of one pass, summed over its ops.
#[derive(Debug, Clone, Default)]
pub struct Facts {
    /// Σ simulated cycles: every op on the matrix, tuned winners on `tune`,
    /// capture-device winners on `fleet`.
    pub cycles: u64,
    /// Σ host iterations (= entry launches) of the grid-level matrix ops.
    pub grid_host_launches: u64,
    /// Per app: basic-dp cycles ÷ best consolidated cycles (matrix).
    pub speedups: Vec<f64>,
    /// Per app: best paper-default candidate ÷ tuned winner (tune).
    pub gains: Vec<f64>,
    pub enumerated: u64,
    pub evaluated: u64,
    pub pruned: u64,
    pub collapsed: u64,
    pub faulted: u64,
    /// Candidate × device datapoints of the cold fleet sweeps.
    pub retimings: u64,
    /// Wall time of the cold sweeps, ms.
    pub sweep_ms: f64,
}

/// One pass over the workload's ops.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    pub wall_ms: f64,
    /// The workload's ops (cold sweeps on `tune`/`fleet`).
    pub ops: Vec<Op>,
    /// Warm cache re-requests (`tune` only).
    pub warm: Vec<Op>,
    pub facts: Facts,
    /// Spans drained after every op when tracing is on.
    pub spans: Vec<SpanRec>,
    /// Spans the tracer dropped to ring overflow during the pass.
    pub dropped_spans: u64,
    /// Calibration readings of the pass, ms (see [`crate::host::calibration_ms`]).
    pub calib_ms: Vec<f64>,
}

/// Everything a pass needs.
pub struct Ctx<'a> {
    pub workload: Workload,
    pub inputs: &'a Inputs,
    pub cfg: RunConfig,
    pub fleet: Vec<GpuConfig>,
    /// Directory for the per-pass fresh tune caches.
    pub scratch: PathBuf,
}

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// A heap-exhaustion fault: by design for candidates whose buffers outgrow
/// the device heap (reported in `tune.faulted`, not an op failure).
fn by_design(msg: &str) -> bool {
    msg.contains("device heap") && msg.contains("exhausted")
}

impl Pass {
    /// Time the host-speed calibration loop; the ops that follow are
    /// normalised by this reading.
    fn calibrate(&mut self) {
        let ms = crate::host::calibration_ms();
        self.calib_ms.push(ms);
        self.wall_ms -= ms;
    }

    /// The latest calibration reading.
    fn calib(&self) -> f64 {
        self.calib_ms.last().copied().unwrap_or(crate::host::NOMINAL_CALIB_MS)
    }

    /// Time one op under a `bench.op` span, isolating panics, and drain the
    /// tracer afterwards when tracing is on.
    fn op<T>(&mut self, idx: u64, f: impl FnOnce() -> T) -> (Result<T, String>, f64) {
        let started = Instant::now();
        let r = {
            let _s = dpcons_obs::span_n("bench.op", idx);
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
                .map_err(|p| format!("panic: {}", panic_text(p)))
        };
        let ms = started.elapsed().as_secs_f64() * 1e3;
        if dpcons_obs::tracing_enabled() {
            self.dropped_spans += dpcons_obs::dropped_spans();
            self.spans.extend(dpcons_obs::take_spans());
        }
        (r, ms)
    }
}

/// Run one pass of `ctx.workload`.
pub fn run_pass(ctx: &Ctx, pass_no: usize) -> Pass {
    let started = Instant::now();
    let mut pass = Pass::default();
    match ctx.workload {
        Workload::MatrixTest | Workload::MatrixBench => matrix_pass(ctx, &mut pass),
        Workload::Tune => tune_pass(ctx, pass_no, &mut pass),
        Workload::Fleet => fleet_pass(ctx, pass_no, &mut pass),
    }
    // `calibrate` already took its own time off.
    pass.wall_ms += started.elapsed().as_secs_f64() * 1e3;
    pass
}

fn matrix_pass(ctx: &Ctx, pass: &mut Pass) {
    let draw_of = |i: usize| ctx.inputs.labels[i].rsplit('#').next();
    for (i, app) in ctx.inputs.apps.iter().enumerate() {
        // One calibration per draw: about a second of ops.
        if i == 0 || draw_of(i) != draw_of(i - 1) {
            pass.calibrate();
        }
        let oracle = &ctx.inputs.oracles[i];
        // Cycles of the variants that matched the oracle, in Variant::ALL order.
        let mut cycles: Vec<Option<u64>> = Vec::new();
        for v in Variant::ALL {
            let (r, wall_ms) = pass.op(pass.ops.len() as u64, || {
                let out = app.run(v, &ctx.cfg)?;
                let _s = dpcons_obs::span("bench.check");
                let matches = out.output == *oracle;
                Ok::<_, dpcons_apps::AppError>((out, matches))
            });
            let label = format!("{}/{}", ctx.inputs.labels[i], v.label());
            let (error, det, ok_cycles) = match r {
                Err(p) => (Some(p), String::new(), None),
                Ok(Err(e)) => (Some(format!("error: {e}")), String::new(), None),
                Ok(Ok((out, matches))) => {
                    let r = &out.report;
                    pass.facts.cycles += r.total_cycles;
                    if v == Variant::Consolidated(Granularity::Grid) {
                        pass.facts.grid_host_launches += u64::from(out.host_iterations);
                    }
                    let det = format!(
                        "cycles={} kernels={} host_launches={} iterations={}",
                        r.total_cycles, r.kernels_executed, r.host_launches, out.host_iterations
                    );
                    let error = (!matches).then(|| mismatch(&out.output, oracle));
                    (error, det, matches.then_some(r.total_cycles))
                }
            };
            cycles.push(ok_cycles);
            pass.ops.push(Op { label, wall_ms, calib_ms: pass.calib(), error, det });
        }
        // Variant::ALL order: basic-dp, no-dp, warp, block, grid.
        if let [Some(basic), _, Some(w), Some(b), Some(g)] = cycles[..] {
            pass.facts.speedups.push(basic as f64 / w.min(b).min(g) as f64);
        }
    }
}

/// Describe how an output differs from its oracle (first differences).
fn mismatch(got: &[i64], want: &[i64]) -> String {
    let diffs: Vec<String> = got
        .iter()
        .zip(want)
        .enumerate()
        .filter(|(_, (a, b))| a != b)
        .take(3)
        .map(|(i, (a, b))| format!("[{i}] got {a} want {b}"))
        .collect();
    let len = if got.len() == want.len() {
        String::new()
    } else {
        format!(" (length {} vs {})", got.len(), want.len())
    };
    format!("output differs from the CPU oracle: {}{len}", diffs.join(", "))
}

/// A fresh, empty on-disk cache directory for one cold sweep, with the
/// process memory layer cleared: every cold sweep starts from nothing.
fn fresh_cache(ctx: &Ctx, pass_no: usize, op_no: usize) -> PathBuf {
    Cache::clear_memory();
    let dir = ctx.scratch.join(format!("cache-{}-{pass_no}-{op_no}", ctx.workload.name()));
    // A leftover directory from an interrupted run would turn the cold
    // sweep into a hit; the op check catches that, this avoids it.
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tune_det(r: &TuneReport) -> String {
    let baselines: Vec<String> = r.baselines.iter().map(|(l, c)| format!("{l}:{c}")).collect();
    format!(
        "winner={} cycles={} evaluated={} pruned={} collapsed={} faulted={} baselines={}",
        r.best_knobs().map(|k| k.label()).unwrap_or_else(|| "-".into()),
        r.best_cycles().unwrap_or(0),
        r.evaluated,
        r.pruned,
        r.collapsed,
        r.fault_count(),
        baselines.join(",")
    )
}

fn tune_pass(ctx: &Ctx, pass_no: usize, pass: &mut Pass) {
    for (app, label) in ctx.inputs.apps.iter().zip(&ctx.inputs.labels) {
        pass.calibrate();
        let dir = fresh_cache(ctx, pass_no, pass.ops.len());
        let opts = TuneOptions {
            base: ctx.cfg.clone(),
            space: KnobSpace::quick(ctx.cfg.gpu.num_sms),
            budget: TUNE_BUDGET,
            with_baselines: true,
            cache: Some(Cache::new(Some(dir.clone()))),
        };
        let (r, wall_ms) = pass.op(pass.ops.len() as u64, || tune(app.as_ref(), &opts));
        pass.facts.sweep_ms += wall_ms;
        let (error, det) = match r {
            Err(p) => (Some(p), String::new()),
            Ok(Err(e)) => (Some(format!("error: {e}")), String::new()),
            Ok(Ok(report)) => (check_tune(&report), record_tune(app.as_ref(), &report, pass)),
        };
        let cold_ok = error.is_none();
        let calib_ms = pass.calib();
        pass.ops.push(Op { label: label.clone(), wall_ms, calib_ms, error, det: det.clone() });

        for _ in 0..WARM_REPS {
            // A fresh handle with an empty memory layer: the request is
            // served from the disk entry the cold sweep wrote, as for a
            // user re-running the same sweep in a new process.
            Cache::clear_memory();
            let warm_opts =
                TuneOptions { cache: Some(Cache::new(Some(dir.clone()))), ..opts.clone() };
            let (r, wall_ms) = pass.op(pass.warm.len() as u64, || tune(app.as_ref(), &warm_opts));
            let error = match r {
                Err(p) => Some(p),
                Ok(Err(e)) => Some(format!("error: {e}")),
                Ok(Ok(w)) if !w.from_cache => Some("warm re-request missed the cache".into()),
                Ok(Ok(w)) if cold_ok && tune_det(&w) != det => {
                    Some("warm re-request differs from the cold sweep".into())
                }
                Ok(Ok(_)) => None,
            };
            let det = String::new();
            pass.warm.push(Op { label: label.clone(), wall_ms, calib_ms, error, det });
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

fn check_tune(r: &TuneReport) -> Option<String> {
    if r.from_cache {
        return Some("cold sweep was served from the cache".into());
    }
    if r.best.is_none() {
        return Some("no winner".into());
    }
    r.faulted().find_map(|(_, c)| match &c.status {
        Status::Failed(m) if by_design(m) => None,
        s => Some(format!("candidate {} faulted: {s:?}", c.knobs.label())),
    })
}

/// Fold a cold tune report into the pass facts; returns its determinism line.
fn record_tune(app: &dyn Benchmark, r: &TuneReport, pass: &mut Pass) -> String {
    let f = &mut pass.facts;
    f.enumerated += (r.candidates.len() + r.collapsed) as u64;
    f.evaluated += r.evaluated as u64;
    f.pruned += r.pruned as u64;
    f.collapsed += r.collapsed as u64;
    f.faulted += r.fault_count() as u64;
    if let (Some(best), Some(model)) = (r.best_cycles(), app.tune_model()) {
        f.cycles += best;
        let best_default =
            Granularity::ALL.iter().filter_map(|&g| r.cycles_for(&default_knobs(&model, g))).min();
        if let Some(d) = best_default {
            f.gains.push(d as f64 / best as f64);
        }
    }
    tune_det(r)
}

fn fleet_det(r: &FleetReport) -> String {
    let winners: Vec<String> = (0..r.devices.len())
        .map(|d| {
            format!(
                "{}:{}:{}",
                r.devices[d],
                r.winner_knobs(d).map(|k| k.label()).unwrap_or_else(|| "-".into()),
                r.winner_cycles(d).unwrap_or(0)
            )
        })
        .collect();
    // The whole knobs × device matrix, hashed: every retimed cell's cycles
    // and DRAM transactions, in candidate order.
    let mut h = Fnv64::new();
    for (c, cells) in r.retimed() {
        h.write_str(&c.knobs.label());
        for cell in cells {
            h.write_u64(cell.cycles).write_u64(cell.dram_transactions);
        }
    }
    format!(
        "winners={} captures={} retimings={} faulted={} matrix={:016x}",
        winners.join(","),
        r.functional_runs,
        r.retimings,
        r.fault_count(),
        h.finish()
    )
}

fn fleet_pass(ctx: &Ctx, pass_no: usize, pass: &mut Pass) {
    for (app, label) in ctx.inputs.apps.iter().zip(&ctx.inputs.labels) {
        pass.calibrate();
        let dir = fresh_cache(ctx, pass_no, pass.ops.len());
        let opts = FleetOptions {
            base: ctx.cfg.clone(),
            space: KnobSpace::quick(ctx.fleet[0].num_sms),
            budget: FLEET_BUDGET,
            fleet: ctx.fleet.clone(),
            cache: Some(Cache::new(Some(dir.clone()))),
        };
        let (r, wall_ms) = pass.op(pass.ops.len() as u64, || fleet_sweep(app.as_ref(), &opts));
        pass.facts.sweep_ms += wall_ms;
        let (error, det) = match r {
            Err(p) => (Some(p), String::new()),
            Ok(Err(e)) => (Some(format!("error: {e}")), String::new()),
            Ok(Ok(report)) => {
                let f = &mut pass.facts;
                let count = |p: fn(&FleetStatus) -> bool| {
                    report.candidates.iter().filter(|c| p(&c.status)).count() as u64
                };
                f.enumerated += report.candidates.len() as u64;
                f.evaluated += count(|s| matches!(s, FleetStatus::Retimed(_)));
                f.pruned += count(|s| matches!(s, FleetStatus::Pruned(_)));
                f.faulted += report.fault_count() as u64;
                f.retimings += report.retimings;
                f.cycles += report.winner_cycles(0).unwrap_or(0);
                (check_fleet(&report), fleet_det(&report))
            }
        };
        pass.ops.push(Op { label: label.clone(), wall_ms, calib_ms: pass.calib(), error, det });
        let _ = std::fs::remove_dir_all(&dir);
    }
}

fn check_fleet(r: &FleetReport) -> Option<String> {
    if r.from_cache {
        return Some("cold sweep was served from the cache".into());
    }
    if r.winners.iter().any(Option::is_none) {
        return Some("a device has no winner".into());
    }
    r.faulted().find_map(|(_, c)| match &c.status {
        FleetStatus::Failed(m) if by_design(m) => None,
        s => Some(format!("candidate {} faulted: {s:?}", c.knobs.label())),
    })
}

/// Mark every op whose deterministic fields differ from the first pass's.
/// Returns the number of ops newly marked failed.
pub fn check_determinism(passes: &mut [Pass]) -> usize {
    let Some((first, rest)) = passes.split_first_mut() else { return 0 };
    let mut marked = 0;
    for p in rest {
        for (op, want) in p.ops.iter_mut().zip(&first.ops) {
            if op.error.is_none() && want.error.is_none() && op.det != want.det {
                op.error =
                    Some(format!("deterministic fields changed: {} vs {}", op.det, want.det));
                marked += 1;
            }
        }
    }
    marked
}
