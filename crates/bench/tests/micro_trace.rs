//! End-to-end check of the `micro` experiment's observable artifacts: the
//! `BENCH_micro.json` record is well-formed, its deterministic fields are
//! consistent, and a traced micro run exports a balanced Chrome trace that
//! covers capture, timing replay, and every tuner wave.
//!
//! This is deliberately the only test in this integration-test binary — the
//! span rings and tracing flag are process-wide, and a lone test owns its
//! whole process.

use dpcons_apps::{datasets, Profile, RunConfig, Sssp};
use dpcons_bench::{micro_app, micro_json, MICRO_STAGES};
use dpcons_obs::jsonv;

#[test]
fn micro_json_is_well_formed_and_trace_is_balanced() {
    let app = Sssp::new(datasets::citeseer(Profile::Test).with_weights(15, 0xD15), 0);
    let cfg = RunConfig::default();

    dpcons_obs::set_tracing(true);
    let result = micro_app(&app, &cfg);
    dpcons_obs::set_tracing(false);
    let spans = dpcons_obs::take_spans();

    // Stage structure: all six stages, in run order, with consistent
    // deterministic fields (replay of a capture reproduces its cycle count
    // and kernel count exactly — serially and through the batched parallel
    // entry — and the tree-walker capture reproduces the bytecode VM's
    // deterministic counters bit-for-bit).
    let names: Vec<&str> = result.stages.iter().map(|s| s.stage).collect();
    assert_eq!(names, MICRO_STAGES);
    let capture = &result.stages[0];
    let capture_tree = &result.stages[1];
    let replay = &result.stages[2];
    let replay_par = &result.stages[3];
    assert_eq!(capture.cycles, replay.cycles, "timing replay must reproduce captured cycles");
    assert_eq!(capture.work, replay.work, "timing replay covers every captured kernel");
    assert_eq!(replay.cycles, replay_par.cycles, "parallel replay must match serial cycles");
    assert_eq!(replay.work, replay_par.work, "parallel replay must match serial kernel count");
    assert_eq!(capture.cycles, capture_tree.cycles, "both executors must agree on cycles");
    assert_eq!(capture.work, capture_tree.work, "both executors must agree on kernel count");
    assert_eq!(capture_tree.engine, "tree");
    assert!(result.stages.iter().all(|s| s.cycles > 0 && s.work > 0));

    // The JSON record round-trips through a strict parser with every field
    // present and typed as documented.
    let text = micro_json(Profile::Test, &cfg, std::slice::from_ref(&result)).render();
    let doc = jsonv::parse(&text).expect("BENCH_micro.json must be valid JSON");
    assert_eq!(doc.get("schema").and_then(|v| v.as_str()), Some("dpcons-bench-micro-v3"));
    assert_eq!(doc.get("profile").and_then(|v| v.as_str()), Some("test"));
    assert!(doc.get("gpu").and_then(|v| v.as_str()).is_some());
    assert!(
        matches!(doc.get("engine").and_then(|v| v.as_str()), Some("bytecode") | Some("tree")),
        "top-level engine field must name the active executor"
    );
    let apps = doc.get("apps").and_then(|v| v.as_arr()).expect("apps array");
    assert_eq!(apps.len(), 1);
    let stages = apps[0].get("stages").and_then(|v| v.as_arr()).expect("stages array");
    assert_eq!(stages.len(), MICRO_STAGES.len());
    for (stage, want) in stages.iter().zip(MICRO_STAGES) {
        assert_eq!(stage.get("stage").and_then(|v| v.as_str()), Some(want));
        assert!(matches!(
            stage.get("engine").and_then(|v| v.as_str()),
            Some("bytecode") | Some("tree")
        ));
        assert!(stage.get("wall_ms").and_then(|v| v.as_num()).is_some_and(|ms| ms >= 0.0));
        assert!(stage.get("cycles").and_then(|v| v.as_num()).is_some());
        assert!(stage.get("work").and_then(|v| v.as_num()).is_some());
    }

    // The trace covers the whole pipeline: the micro wrapper, session build,
    // functional capture, timing replay, and every tuner wave (wave args are the
    // contiguous sequence 0..n).
    for name in [
        "micro.app",
        "app.session",
        "app.launch",
        "sim.capture",
        "sim.replay",
        "tune.replay.batch",
        "tune.sweep",
        "tune.wave",
    ] {
        assert!(spans.iter().any(|s| s.name == name), "trace must contain a {name} span");
    }
    let mut waves: Vec<u64> =
        spans.iter().filter(|s| s.name == "tune.wave").map(|s| s.arg.unwrap()).collect();
    waves.sort_unstable();
    let expect: Vec<u64> = (0..waves.len() as u64).collect();
    assert_eq!(waves, expect, "every tuner wave must be traced exactly once");

    // And the Chrome export of that trace is balanced and well-formed.
    let json = dpcons_obs::chrome_trace_json(&spans);
    let stats = dpcons_obs::validate_chrome_trace(&json).expect("trace must validate");
    assert_eq!(stats.span_count, spans.len());
    assert!(stats.names.contains(&"sim.capture".to_string()));
}
