//! Differential replay harness: the correctness contract the device-fleet
//! what-if sweep rests on.
//!
//! For every benchmark and every variant (flat, basic-dp, and all three
//! consolidation granularities), a run in capture mode
//! ([`dpcons_apps::RunConfig::capture`]), which launches through
//! [`dpcons_sim::Engine::capture_into`] on its own arena and keeps the
//! records, must reproduce the *exact* [`dpcons_sim::ProfileReport`] —
//! cycle counts included — of a plain [`dpcons_sim::Engine::launch`] on the
//! per-thread arena, and re-timing the kept capture on the same device via
//! [`dpcons_sim::Engine::replay_timing_on`] (`CaptureSet::replay_on`) must
//! match too. If replay ever drifted from live execution, every fleet
//! datapoint would silently be wrong.

use dpcons_apps::{all_benchmarks, Profile, RunConfig, Variant};
use dpcons_ir::dsl::*;
use dpcons_ir::{install, Module};
use dpcons_sim::{AllocKind, ArrayId, CaptureArena, Engine, GpuConfig, LaunchSpec};

/// capture mode ≡ launch, and replay_timing_on(same device) ≡ both, for
/// every (app, variant) pair.
#[test]
fn capture_replay_matches_fresh_launch_for_every_app_and_granularity() {
    let cfg = RunConfig::default();
    let capture_cfg = RunConfig { capture: true, ..cfg.clone() };
    let n_apps = all_benchmarks(Profile::Test).len();
    std::thread::scope(|scope| {
        for app_idx in 0..n_apps {
            let (cfg, capture_cfg) = (&cfg, &capture_cfg);
            scope.spawn(move || {
                let apps = all_benchmarks(Profile::Test);
                let app = &apps[app_idx];
                for variant in Variant::ALL {
                    let fail = |e| panic!("{} ({}): {e}", app.name(), variant.label());
                    let direct = app.run(variant, cfg).unwrap_or_else(fail);
                    let captured = app.run(variant, capture_cfg).unwrap_or_else(fail);
                    assert_eq!(
                        direct.output,
                        captured.output,
                        "{} ({}): capture mode changed functional output",
                        app.name(),
                        variant.label()
                    );
                    assert_eq!(
                        direct.report,
                        captured.report,
                        "{} ({}): capture+replay diverged from a fresh launch",
                        app.name(),
                        variant.label()
                    );
                    let caps = captured.captures.expect("capture mode fills AppOutcome::captures");
                    assert_eq!(
                        caps.replay_on(&cfg.gpu),
                        direct.report,
                        "{} ({}): replay_timing_on(same device) diverged",
                        app.name(),
                        variant.label()
                    );
                    assert_eq!(caps.kernels_executed(), direct.report.kernels_executed);
                }
            });
        }
    });
}

/// A small dynamic-parallelism "app": parent delegates work to per-thread
/// child launches. Returns a fresh engine, its root spec, and the output
/// array, so every capture below starts from identical initial state.
fn build_app_a() -> (Engine, LaunchSpec, ArrayId) {
    let mut e = Engine::new(GpuConfig::tiny(), AllocKind::PreAlloc, 1 << 16);
    let out = e.mem.alloc_array_init("out", vec![0; 64]);
    let child = KernelBuilder::new("child").array("out").scalar("base").body(vec![store(
        v("out"),
        add(v("base"), tid()),
        add(v("base"), tid()),
    )]);
    let parent = KernelBuilder::new("parent").array("out").body(vec![when(
        eq(rem(tid(), i(2)), i(0)),
        vec![launch("child", i(1), i(4), vec![v("out"), mul(tid(), i(4))])],
    )]);
    let mut m = Module::new();
    m.add(child);
    m.add(parent);
    let ids = install(&mut e, &m).expect("module installs");
    let spec = LaunchSpec::new(ids["parent"], 2, 8, vec![out as i64]);
    (e, spec, out)
}

/// A structurally different app: two-deep nesting through a device-side
/// sync, different grid shape and argument counts than app A.
fn build_app_b() -> (Engine, LaunchSpec, ArrayId) {
    let mut e = Engine::new(GpuConfig::tiny(), AllocKind::PreAlloc, 1 << 16);
    let out = e.mem.alloc_array_init("acc", vec![0; 32]);
    let leaf = KernelBuilder::new("leaf")
        .array("acc")
        .scalar("slot")
        .scalar("val")
        .body(vec![atomic_add(None, v("acc"), v("slot"), v("val"))]);
    let mid = KernelBuilder::new("mid").array("acc").scalar("slot").body(vec![
        launch("leaf", i(1), i(2), vec![v("acc"), v("slot"), add(tid(), i(1))]),
        device_sync(),
        atomic_add(None, v("acc"), v("slot"), i(100)),
    ]);
    let root = KernelBuilder::new("root")
        .array("acc")
        .body(vec![when(lt(tid(), i(3)), vec![launch("mid", i(1), i(2), vec![v("acc"), tid()])])]);
    let mut m = Module::new();
    m.add(leaf);
    m.add(mid);
    m.add(root);
    let ids = install(&mut e, &m).expect("module installs");
    let spec = LaunchSpec::new(ids["root"], 1, 4, vec![out as i64]);
    (e, spec, out)
}

/// Arena reuse leaks no state: capturing two *different* apps back to back
/// through one reused [`CaptureArena`] yields record DAGs, functional memory,
/// and replay timings byte-for-byte identical to fresh-arena captures.
#[test]
fn arena_reuse_leaks_no_state_across_captures() {
    // Fresh-arena baselines, each on its own engine and arena.
    let (mut ea, spec_a, out_a) = build_app_a();
    let mut fresh_a = CaptureArena::new();
    let report_a = ea.capture_into(spec_a, &mut fresh_a).expect("app A captures");
    let (mut eb, spec_b, out_b) = build_app_b();
    let mut fresh_b = CaptureArena::new();
    let report_b = eb.capture_into(spec_b, &mut fresh_b).expect("app B captures");
    assert!(
        fresh_a.records().len() > 1 && fresh_b.records().len() > 1,
        "both apps must actually nest launches"
    );

    // The same two captures through one reused arena.
    let mut arena = CaptureArena::new();
    let (mut ea2, spec_a2, out_a2) = build_app_a();
    let report = ea2.capture_into(spec_a2, &mut arena).expect("app A captures into the arena");
    assert_eq!(arena.records(), fresh_a.records(), "app A records diverged on the shared arena");
    assert_eq!(ea2.mem.slice(out_a2), ea.mem.slice(out_a), "app A memory diverged");
    assert_eq!(report, report_a);

    let (mut eb2, spec_b2, out_b2) = build_app_b();
    let report =
        eb2.capture_into(spec_b2, &mut arena).expect("app B captures into the reused arena");
    assert_eq!(
        arena.records(),
        fresh_b.records(),
        "a reused arena leaked prior-capture state into app B's records"
    );
    assert_eq!(eb2.mem.slice(out_b2), eb.mem.slice(out_b), "app B memory diverged");
    assert_eq!(report, report_b);
    assert_eq!(Engine::replay_timing_on(&eb2.gpu, arena.records()), report_b);
    assert!(arena.reuses() >= 1, "the second capture must have recycled the arena");
}

/// `Engine::replay_timing_on` never populates allocator statistics — they
/// belong to the functional capture — while `CaptureSet::replay_on`
/// re-attaches the captured values (see the engine doc comment this pins).
#[test]
fn raw_replay_leaves_allocator_stats_empty() {
    let apps = all_benchmarks(Profile::Test);
    // A halloc-buffered consolidated run device-allocates its consolidation
    // buffers, so the capture has nonzero allocator stats.
    let cfg = RunConfig { alloc: AllocKind::Halloc, capture: true, ..RunConfig::default() };
    let warp = Variant::ALL
        .into_iter()
        .find(|v| v.label() == "warp-level")
        .expect("warp-level is a standard variant");
    let out = apps[0].run(warp, &cfg).expect("SSSP warp-level halloc runs");
    assert!(out.report.alloc_ops > 0, "expected device allocations in this configuration");
    assert!(out.report.alloc_cycles > 0);
    let caps = out.captures.expect("capture mode fills AppOutcome::captures");
    for records in &caps.launches {
        let raw = Engine::replay_timing_on(&cfg.gpu, records);
        assert_eq!(raw.alloc_ops, 0, "raw replay must not populate alloc_ops");
        assert_eq!(raw.alloc_cycles, 0, "raw replay must not populate alloc_cycles");
    }
    let replayed = caps.replay_on(&cfg.gpu);
    assert_eq!(replayed.alloc_ops, out.report.alloc_ops);
    assert_eq!(replayed.alloc_cycles, out.report.alloc_cycles);
}
