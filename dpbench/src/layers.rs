//! Per-layer attribution for the traced run.
//!
//! Two sources are joined. *Outside probes* time calls into each layer's
//! public functions directly (`consolidate`, `install`, `prepare_launch` /
//! `reset_launch`, `CaptureSet::replay_on`, `replay_timing_many`). *Traced
//! passes* read the spans and counters the program already emits
//! (`app.launch`, `sim.capture`, `sim.replay`, `tune.*`, `fleet.*`) plus the
//! benchmark's own `bench.op` / `bench.check` spans around every op.

use std::collections::BTreeMap;
use std::time::Instant;

use dpcons_apps::{RunConfig, Variant};
use dpcons_core::{consolidate, prepare_launch, reset_launch, BufferKind, Granularity};
use dpcons_ir::{compile_module, install, lower_module, Module};
use dpcons_obs::{MetricValue, SpanRec};
use dpcons_sim::{Engine, ExecRecord, GpuConfig};
use dpcons_tune::{merge_reports, replay_timing_many};

use crate::catalog::{geomean, median};
use crate::inputs::Inputs;
use crate::workload::{Pass, Workload};

/// Repetitions of every probe; each probe reports its median.
const PROBE_REPS: usize = 3;

/// Per-call costs measured by timing the layers' public functions.
#[derive(Debug, Clone, Default)]
pub struct Probes {
    pub consolidate_us: f64,
    pub install_us: f64,
    /// Σ lowered bytecode ops over the basic-dp and consolidated modules.
    pub bytecode_ops: u64,
    pub reset_warm_us: f64,
    /// First `reset_launch` on a freshly allocated pool.
    pub reset_first_us: f64,
    /// `CaptureSet::replay_on`, per replayed kernel and device.
    pub replay_us_per_kernel: f64,
    /// `replay_timing_many` (batched, merged), per replayed kernel and device.
    pub batch_us_per_kernel: f64,
    /// Disagreements between the serial and batched replays (defects).
    pub errors: Vec<String>,
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

fn fresh_engine(cfg: &RunConfig) -> Engine {
    Engine::new(cfg.gpu.clone(), cfg.alloc, cfg.heap_words)
}

/// Time the layers' public entry points over the workload's apps.
pub fn probe(inputs: &Inputs, cfg: &RunConfig, fleet: &[GpuConfig]) -> Probes {
    let _s = dpcons_obs::span("bench.probe");
    let mut p = Probes::default();
    let (mut cons_us, mut inst_us, mut warm_us, mut first_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut replay_us, mut batch_us, mut replayed) = (0.0, 0.0, 0u64);
    for app in &inputs.apps {
        let Some(model) = app.tune_model() else { continue };
        let mut modules: Vec<Module> = vec![model.module_dp.clone()];
        let mut grid = None;
        for g in Granularity::ALL {
            // The session's buffer clause follows RunConfig::alloc.
            let mut dir = (model.directive)(g);
            dir.buffer = BufferKind::Custom;
            let mut cons = None;
            for _ in 0..PROBE_REPS {
                let t = Instant::now();
                let c = consolidate(&model.module_dp, model.parent, &dir, &cfg.gpu, cfg.policy);
                cons_us.push(us(t));
                cons = c.ok();
            }
            match cons {
                Some(c) => {
                    modules.push(c.module.clone());
                    if g == Granularity::Grid {
                        grid = Some(c);
                    }
                }
                None => p.errors.push(format!("{}: consolidate({}) failed", app.name(), g.label())),
            }
        }
        for m in &modules {
            for _ in 0..PROBE_REPS {
                let mut engine = fresh_engine(cfg);
                let t = Instant::now();
                let ok = install(&mut engine, m).is_ok();
                inst_us.push(us(t));
                if !ok {
                    p.errors.push(format!("{}: install failed", app.name()));
                }
            }
            if let Ok(cm) = compile_module(m) {
                p.bytecode_ops +=
                    lower_module(&cm).iter().map(|k| k.op_count() as u64).sum::<u64>();
            }
        }

        // Pool reset of the grid-level session. For recursive apps
        // prepare_launch already resets once, so only non-recursive apps
        // give a first call on a fresh pool.
        if let Some(c) = grid {
            let nargs = model
                .module_dp
                .kernels
                .iter()
                .find(|k| k.name == model.parent)
                .map_or(0, |k| k.params.len());
            let mut engine = fresh_engine(cfg);
            if let Ok(ids) = install(&mut engine, &c.module) {
                let prep = prepare_launch(
                    &mut engine,
                    &c.info,
                    &ids,
                    &vec![0; nargs],
                    (1, 32),
                    cfg.pool_words,
                );
                if let Ok(mut prep) = prep {
                    for i in 0..=2 * PROBE_REPS {
                        let t = Instant::now();
                        let ok = reset_launch(&mut engine, &mut prep).is_ok();
                        let took = us(t);
                        match (i, c.info.recursive) {
                            (0, false) => first_us.push(took),
                            (0, true) => {}
                            _ => warm_us.push(took),
                        }
                        if !ok {
                            p.errors.push(format!("{}: reset_launch failed", app.name()));
                        }
                    }
                }
            }
        }

        // Timing replay of the basic-dp capture on every fleet device,
        // serial (`replay_on`) and batched (`replay_timing_many`).
        let capture_cfg = RunConfig { capture: true, ..cfg.clone() };
        let Ok(out) = app.run(Variant::BasicDp, &capture_cfg) else {
            p.errors.push(format!("{}: basic-dp capture failed", app.name()));
            continue;
        };
        let Some(caps) = out.captures else { continue };
        let dags: Vec<&[ExecRecord]> = caps.launches.iter().map(|l| l.as_slice()).collect();
        for gpu in fleet.iter().filter(|g| caps.compatible_with(g)) {
            let (mut serial, mut batched) = (Vec::new(), Vec::new());
            let (mut a, mut b) = (0, 0);
            for _ in 0..PROBE_REPS {
                let t = Instant::now();
                a = caps.replay_on(gpu).total_cycles;
                serial.push(us(t));
                let t = Instant::now();
                b = merge_reports(&replay_timing_many(gpu, &dags)).total_cycles;
                batched.push(us(t));
            }
            if a != b {
                p.errors.push(format!(
                    "{} on {}: replay_on {a} vs batched {b}",
                    app.name(),
                    gpu.name
                ));
            }
            replay_us += median(&serial);
            batch_us += median(&batched);
            replayed += caps.kernels_executed();
        }
    }
    p.consolidate_us = median(&cons_us);
    p.install_us = median(&inst_us);
    p.reset_warm_us = median(&warm_us);
    p.reset_first_us = if first_us.is_empty() { p.reset_warm_us } else { median(&first_us) };
    if replayed > 0 {
        p.replay_us_per_kernel = replay_us / replayed as f64;
        p.batch_us_per_kernel = batch_us / replayed as f64;
    }
    p
}

/// Counter values (and histogram sums) read after a traced pass.
pub struct Counters {
    values: BTreeMap<String, f64>,
    /// `tune.candidate_us` quantile upper bounds (power-of-two buckets), ms.
    pub candidate_p50_ms: f64,
    pub candidate_p90_ms: f64,
}

impl Counters {
    pub fn read() -> Counters {
        let values = dpcons_obs::snapshot_metrics()
            .into_iter()
            .map(|s| {
                let v = match s.value {
                    MetricValue::Counter(c) => c as f64,
                    MetricValue::Gauge(g) => g as f64,
                    MetricValue::Histogram { sum, .. } => sum as f64,
                };
                (s.name, v)
            })
            .collect();
        let h = dpcons_obs::histogram("tune.candidate_us");
        let q = |q: f64| if h.count() == 0 { 0.0 } else { h.quantile_upper_bound(q) as f64 / 1e3 };
        Counters { values, candidate_p50_ms: q(0.5), candidate_p90_ms: q(0.9) }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

fn span_ms(spans: &[SpanRec], names: &[&str], tid: Option<u32>) -> f64 {
    spans
        .iter()
        .filter(|s| names.contains(&s.name) && tid.is_none_or(|t| s.tid == t))
        .map(|s| s.dur_us as f64)
        .sum::<f64>()
        / 1e3
}

fn span_count(spans: &[SpanRec], name: &str) -> u64 {
    spans.iter().filter(|s| s.name == name).count() as u64
}

/// Fail when spans went missing without being counted as dropped: every
/// host launch and every replay the counters saw must have a span or be
/// covered by the reported drop count.
pub fn check_spans(pass: &Pass, c: &Counters) -> Option<String> {
    for (span, counter) in [("app.launch", "app.host_launches"), ("sim.replay", "sim.replays")] {
        let seen = span_count(&pass.spans, span) + pass.dropped_spans;
        if (seen as f64) < c.get(counter) {
            return Some(format!(
                "{} `{span}` spans (+{} dropped) for {} `{counter}`: spans lost unreported",
                span_count(&pass.spans, span),
                pass.dropped_spans,
                c.get(counter)
            ));
        }
    }
    None
}

/// Everything one traced pass needs to be attributed.
pub struct PassInputs<'a> {
    pub workload: Workload,
    pub pass: &'a Pass,
    pub counters: &'a Counters,
    pub probes: &'a Probes,
    pub pool_words: u64,
    /// Mean oracle cost per app, ms (for the sweeps' own oracle calls).
    pub oracle_ms_per_app: f64,
    pub workers: usize,
}

/// The per-layer metrics of one traced pass.
pub fn pass_layers(x: &PassInputs) -> BTreeMap<&'static str, f64> {
    let (pass, c, pr) = (x.pass, x.counters, x.probes);
    let spans = &pass.spans;
    let client = spans.iter().find(|s| s.name == "bench.op").map(|s| s.tid);
    let f = &pass.facts;
    let mut m = BTreeMap::new();

    let capture_ms = span_ms(spans, &["sim.capture"], None);
    let execs = c.get("sim.functional_execs");
    let kernels_replayed: u64 =
        spans.iter().filter(|s| s.name == "sim.replay").filter_map(|s| s.arg).sum();
    m.insert("sim.capture_ms", capture_ms);
    m.insert("sim.capture_us_per_kernel", if execs > 0.0 { capture_ms * 1e3 / execs } else { 0.0 });
    m.insert("sim.functional_execs", execs);
    m.insert("sim.replay_ms", span_ms(spans, &["sim.replay"], None));
    m.insert("sim.replays", c.get("sim.replays"));
    m.insert("sim.arena_bytes", c.get("sim.capture.arena_bytes"));
    m.insert("sim.arena_reuses", c.get("sim.capture.arena_reuses"));
    m.insert("sim.kernels", kernels_replayed as f64);
    m.insert("sim.cycles", f.cycles as f64);
    m.insert("sim.speedup_geomean", geomean(&f.speedups));

    let launch_client = span_ms(spans, &["app.launch"], client);
    let ops_ms: f64 = pass.ops.iter().chain(&pass.warm).map(|o| o.wall_ms).sum();
    m.insert("apps.host_launches", c.get("app.host_launches"));
    m.insert("apps.launch_ms", span_ms(spans, &["app.launch"], None));
    m.insert("apps.outside_launch_ms", ops_ms - launch_client);

    m.insert("core.grid_host_launches", f.grid_host_launches as f64);
    m.insert("core.reset_bytes", (f.grid_host_launches * x.pool_words * 8) as f64);

    let wave_ms = span_ms(spans, &["tune.wave", "fleet.wave"], None);
    m.insert("tune.sweep_ms", span_ms(spans, &["tune.sweep", "fleet.sweep"], None));
    m.insert("tune.wave_ms", wave_ms);
    m.insert("tune.candidate_ms_p50", c.candidate_p50_ms);
    m.insert("tune.candidate_ms_p90", c.candidate_p90_ms);
    // Busy time of the pool: the tuner's per-candidate histogram, or for
    // the fleet (which keeps none) the top-level spans on worker threads.
    let busy_ms = match c.get("tune.candidate_us") {
        s if s > 0.0 => s / 1e3,
        _ => spans
            .iter()
            .filter(|s| s.depth == 0 && Some(s.tid) != client)
            .map(|s| s.dur_us as f64 / 1e3)
            .sum(),
    };
    m.insert(
        "tune.pool_busy_pct",
        if wave_ms > 0.0 { 100.0 * busy_ms / (wave_ms * x.workers as f64) } else { 0.0 },
    );
    m.insert("tune.evaluated", f.evaluated as f64);
    m.insert("tune.pruned", f.pruned as f64);
    m.insert("tune.collapsed", f.collapsed as f64);
    m.insert("tune.faulted", f.faulted as f64);
    m.insert(
        "tune.useful_pct",
        if f.enumerated > 0 { 100.0 * f.evaluated as f64 / f.enumerated as f64 } else { 0.0 },
    );
    m.insert("tune.gain_geomean", geomean(&f.gains));
    m.insert("tune.cache.hits", c.get("tune.cache.hits"));
    m.insert("tune.cache.misses", c.get("tune.cache.misses"));
    m.insert("tune.cache.writes", c.get("tune.cache.writes"));
    m.insert("tune.replay.batch_ms", span_ms(spans, &["tune.replay.batch"], None));
    m.insert("fleet.captures", c.get("fleet.captures"));
    m.insert("fleet.retimings", c.get("fleet.retimings"));

    // What the layer metrics cover of the client's pass, the rest being
    // unattributed. Session build and pool resets have no spans; they are
    // estimated from the probes' per-call costs.
    let covered = if x.workload.is_matrix() {
        let consolidated = pass.ops.iter().filter(|o| o.label.ends_with("-level")).count() as f64;
        launch_client
            + span_ms(spans, &["bench.check"], client)
            + (pass.ops.len() as f64 * pr.install_us + consolidated * pr.consolidate_us) / 1e3
            + f.grid_host_launches as f64 * pr.reset_warm_us / 1e3
    } else {
        // Each sweep calls the oracle twice (fingerprint + expected output).
        span_ms(spans, &["tune.wave", "fleet.wave"], client)
            + pass.warm.iter().map(|o| o.wall_ms).sum::<f64>()
            + pass.ops.len() as f64 * 2.0 * x.oracle_ms_per_app
    };
    m.insert(
        "obs.unattributed_pct",
        if pass.wall_ms > 0.0 { 100.0 * (pass.wall_ms - covered) / pass.wall_ms } else { 0.0 },
    );
    m
}
