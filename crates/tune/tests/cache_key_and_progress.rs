//! Pins the two contracts a serving front end depends on:
//!
//! 1. `cache_key_for` / `fleet_cache_key_for` are the *exact* normalizations
//!    the sweeps use internally — an out-of-process dedup table keyed through
//!    them can never disagree with the disk cache.
//! 2. The `WaveHook` progress callback reports every evaluated wave, in
//!    order, and its per-wave counts sum to exactly the evaluated candidates.
//! 3. The dataset fingerprint tells apart datasets whose oracle outputs
//!    agree, and is stable for one dataset built twice.

use std::sync::Mutex;

use dpcons_apps::{datasets, Benchmark, Profile, RunConfig, Sssp, TreeHeights};
use dpcons_sim::GpuConfig;
use dpcons_tune::{
    cache_key_for, fingerprint, fleet_cache_key_for, fleet_sweep_with_progress, tune_with_progress,
    Budget, FleetOptions, TuneOptions, WaveHook, WaveProgress,
};
use dpcons_workloads::{generate_tree, TreeParams};

fn app() -> Sssp {
    Sssp::new(datasets::citeseer(Profile::Test).with_weights(15, 0xD15), 0)
}

fn space() -> dpcons_core::KnobSpace {
    dpcons_core::KnobSpace {
        granularities: dpcons_core::Granularity::ALL.to_vec(),
        buffers: vec![dpcons_core::BufferKind::Custom, dpcons_core::BufferKind::Halloc],
        per_buffer_sizes: vec![None],
        configs: vec![None, Some((13, 64))],
    }
}

#[test]
fn tune_report_key_matches_public_cache_key_for() {
    let app = app();
    let opts = TuneOptions {
        base: RunConfig::default(),
        space: space(),
        budget: Budget::default(),
        with_baselines: false,
        cache: None,
    };
    let report = tune_with_progress(&app, &opts, &WaveHook::none()).unwrap();
    let fp = fingerprint(&app);
    assert_eq!(report.fingerprint, fp);
    assert_eq!(
        report.key,
        cache_key_for("SSSP", fp, &opts.base, &opts.space, &opts.budget, false),
        "public key normalization diverged from the sweep's internal key"
    );
}

#[test]
fn fleet_report_key_matches_public_fleet_cache_key_for() {
    let app = app();
    let fleet = vec![GpuConfig::k20c(), GpuConfig::k40()];
    let opts = FleetOptions {
        base: RunConfig::default(),
        space: space(),
        budget: Budget { max_evals: Some(8), ..Budget::default() },
        fleet: fleet.clone(),
        cache: None,
    };
    let report = fleet_sweep_with_progress(&app, &opts, &WaveHook::none()).unwrap();
    let fp = fingerprint(&app);
    // The capture device is always fleet[0]; `base.gpu` must not matter.
    let mut skewed = opts.base.clone();
    skewed.gpu = GpuConfig::tk1();
    let key = fleet_cache_key_for("SSSP", fp, &skewed, &opts.space, &opts.budget, &fleet);
    assert_eq!(report.key, key, "fleet key must be insensitive to base.gpu");
}

#[test]
fn cache_key_is_sensitive_to_every_request_dimension() {
    let base = RunConfig::default();
    let space = space();
    let budget = Budget::default();
    let k0 = cache_key_for("SSSP", 7, &base, &space, &budget, false);

    assert_ne!(k0, cache_key_for("SpMV", 7, &base, &space, &budget, false), "app");
    assert_ne!(k0, cache_key_for("SSSP", 8, &base, &space, &budget, false), "fingerprint");
    assert_ne!(k0, cache_key_for("SSSP", 7, &base, &space, &budget, true), "with_baselines");

    let mut other_dev = base.clone();
    other_dev.gpu = GpuConfig::tk1();
    assert_ne!(k0, cache_key_for("SSSP", 7, &other_dev, &space, &budget, false), "device");

    let mut other_thresh = base.clone();
    other_thresh.threshold += 1;
    assert_ne!(k0, cache_key_for("SSSP", 7, &other_thresh, &space, &budget, false), "threshold");

    let mut narrow = space.clone();
    narrow.buffers.pop();
    assert_ne!(k0, cache_key_for("SSSP", 7, &base, &narrow, &budget, false), "space");

    let tight = Budget { max_evals: Some(3), ..budget };
    assert_ne!(k0, cache_key_for("SSSP", 7, &base, &space, &tight, false), "budget");

    // And the normalization is deterministic.
    assert_eq!(k0, cache_key_for("SSSP", 7, &base, &space, &budget, false));
}

#[test]
fn fleet_key_is_sensitive_to_fleet_composition_and_order() {
    let base = RunConfig::default();
    let space = space();
    let budget = Budget::default();
    let ab = vec![GpuConfig::k20c(), GpuConfig::k40()];
    let ba = vec![GpuConfig::k40(), GpuConfig::k20c()];
    let abc = vec![GpuConfig::k20c(), GpuConfig::k40(), GpuConfig::titan()];
    let kab = fleet_cache_key_for("SSSP", 7, &base, &space, &budget, &ab);
    assert_ne!(kab, fleet_cache_key_for("SSSP", 7, &base, &space, &budget, &ba), "order");
    assert_ne!(kab, fleet_cache_key_for("SSSP", 7, &base, &space, &budget, &abc), "composition");
    assert_eq!(kab, fleet_cache_key_for("SSSP", 7, &base, &space, &budget, &ab));
}

/// Collect every `WaveProgress` a sweep reports, in arrival order.
fn collecting_hook() -> (WaveHook, std::sync::Arc<Mutex<Vec<WaveProgress>>>) {
    let seen = std::sync::Arc::new(Mutex::new(Vec::new()));
    let sink = seen.clone();
    let hook = WaveHook::new(move |p| sink.lock().unwrap().push(p));
    (hook, seen)
}

fn check_progress(waves: &[WaveProgress], evaluated_total: usize) {
    assert!(!waves.is_empty(), "an uncached sweep must report at least one wave");
    for (i, w) in waves.iter().enumerate() {
        assert_eq!(w.wave, i as u64, "wave indices must arrive 0,1,2,... in order");
        assert!(w.evaluated > 0, "every reported wave evaluated someone");
    }
    let sum: usize = waves.iter().map(|w| w.evaluated).sum();
    assert_eq!(sum, evaluated_total, "per-wave counts must sum to the evaluated candidate count");
    assert_eq!(waves.last().unwrap().evaluated_total, sum, "running total tracks the sum");
    assert!(waves.iter().any(|w| w.improved), "some wave found an incumbent");
}

#[test]
fn tune_wave_progress_arrives_in_order_and_sums_to_candidates() {
    let app = app();
    let opts = TuneOptions {
        base: RunConfig::default(),
        space: space(),
        budget: Budget::default(),
        with_baselines: false,
        cache: None,
    };
    let (hook, seen) = collecting_hook();
    let report = tune_with_progress(&app, &opts, &hook).unwrap();
    let waves = seen.lock().unwrap();
    // Nothing was skipped under the default (unbounded) budget, so every
    // non-pruned candidate was evaluated and reported through the hook.
    assert_eq!(report.skipped, 0);
    check_progress(&waves, report.evaluated + report.failed + report.panicked + report.timed_out);
    let planned = report.candidates.len() - report.pruned;
    assert!(waves.iter().all(|w| w.planned == planned), "planned is the post-pruning count");
}

#[test]
fn fleet_wave_progress_arrives_in_order_and_sums_to_candidates() {
    let app = app();
    let opts = FleetOptions {
        base: RunConfig::default(),
        space: space(),
        budget: Budget::default(),
        fleet: vec![GpuConfig::k20c(), GpuConfig::k40()],
        cache: None,
    };
    let (hook, seen) = collecting_hook();
    let report = fleet_sweep_with_progress(&app, &opts, &hook).unwrap();
    let waves = seen.lock().unwrap();
    check_progress(&waves, report.functional_runs as usize);
}

#[test]
fn fingerprint_separates_datasets_with_equal_oracle_outputs() {
    let th = |seed| TreeHeights::new(generate_tree(TreeParams::dataset1_scaled(4, 9, seed)));
    let (a, b) = (th(0x7E31), th(0x51DE));
    // Two trees of one height but different shape: the same `TH` output,
    // so a fingerprint of the oracle output could not tell them apart.
    assert_ne!(a.tree, b.tree);
    assert_eq!(a.reference(), b.reference());
    let (base, space, budget) = (RunConfig::default(), space(), Budget::default());
    let key =
        |app: &TreeHeights| cache_key_for("TH", fingerprint(app), &base, &space, &budget, false);
    assert_ne!(fingerprint(&a), fingerprint(&b));
    assert_ne!(key(&a), key(&b));
    // The same dataset built twice is one cache entry.
    let again = th(0x7E31);
    assert_eq!(fingerprint(&a), fingerprint(&again));
    assert_eq!(key(&a), key(&again));
}
