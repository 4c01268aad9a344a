//! Regression tests for the two lane-semantics bugs fixed alongside the
//! bytecode VM, pinned on **both** the VM and the tree-walking oracle via the
//! process-wide `set_engine_override` (flipped under one lock), so neither
//! can drift independently:
//!
//! 1. Shift amounts outside `0..=63` used to wrap modulo 64 (`x << 64` acted
//!    as `x << 0`, `x << -1` as `x << 63`); they now yield `0` for both `<<`
//!    and `>>`, the C/CUDA UB-avoidance convention.
//! 2. Device-side launch dimensions overflowing `u32` used to be silently
//!    clamped to 0 and then surface as a misleading
//!    `BadLaunchConfig: "grid and block dimensions must be nonzero"`; they
//!    now raise a typed `KernelFault` naming the kernel, lane, and value.

use dpcons_ir::dsl::*;
use std::sync::{Mutex, PoisonError};

use dpcons_ir::{install, set_engine_override, ExecEngine, Module};
use dpcons_sim::{AllocKind, Engine, GpuConfig, LaunchSpec, SimError};

const ENGINES: [ExecEngine; 2] = [ExecEngine::Bytecode, ExecEngine::Tree];

/// The engine override is process-global; every launch in this binary holds
/// this lock while the override is flipped.
static ENGINE_LOCK: Mutex<()> = Mutex::new(());

/// Build an engine + module, launch it on one executor, and return the
/// kernel's result along with the engine for memory inspection.
fn run_pinned(
    engine: ExecEngine,
    m: &Module,
    kernel: &str,
    grid: u32,
    block: u32,
    extra_args: Vec<i64>,
    out_words: usize,
) -> (Engine, usize, Result<(), SimError>) {
    let mut eng = Engine::new(GpuConfig::tiny(), AllocKind::PreAlloc, 1 << 12);
    let out = eng.mem.alloc_array("out", out_words);
    let ids = install(&mut eng, m).unwrap();
    let mut args = vec![out as i64];
    args.extend(extra_args);
    let r = {
        let _guard = ENGINE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        set_engine_override(Some(engine));
        let r = eng.launch(LaunchSpec::new(ids[kernel], grid, block, args)).map(|_| ());
        set_engine_override(None);
        r
    };
    (eng, out, r)
}

#[test]
fn out_of_range_shift_amounts_yield_zero_in_both_engines() {
    let mut m = Module::new();
    m.add(KernelBuilder::new("k").array("out").body(vec![
        // Historical bug: `1 << 64` wrapped to `1 << 0` = 1.
        store(v("out"), i(0), shl(i(1), i(64))),
        // Historical bug: `1 << -1` wrapped to `1 << 63`.
        store(v("out"), i(1), shl(i(1), i(-1))),
        store(v("out"), i(2), shl(i(5), i(2))),
        store(v("out"), i(3), shr(i(-8), i(1))),
        store(v("out"), i(4), shr(i(123), i(64))),
        store(v("out"), i(5), shr(i(123), i(-2))),
        store(v("out"), i(6), shl(i(1), i(63))),
        store(v("out"), i(7), shr(i(i64::MIN), i(63))),
    ]));
    for engine in ENGINES {
        let (eng, out, r) = run_pinned(engine, &m, "k", 1, 1, vec![], 8);
        r.unwrap_or_else(|e| panic!("{engine:?}: {e}"));
        let got = eng.mem.slice(out).unwrap();
        let want: [i64; 8] = [0, 0, 20, -4, 0, 0, i64::MIN, -1];
        assert_eq!(got, &want[..], "{engine:?}: total-shift semantics");
    }
}

#[test]
fn launch_dim_overflow_faults_instead_of_clamping_in_both_engines() {
    // grid = 2^33 does not fit u32; the old clamp turned it into 0 and the
    // launch then failed with the misleading "must be nonzero" config error.
    for (what, grid, block) in
        [("grid", 1i64 << 33, 1i64), ("block", 1, 1 << 33), ("grid", -1, 1), ("block", 1, -5)]
    {
        let (g, b) = (grid, block);
        let mut m = Module::new();
        m.add(KernelBuilder::new("child").array("out").body(vec![]));
        m.add(KernelBuilder::new("parent").array("out").body(vec![launch(
            "child",
            i(g),
            i(b),
            vec![v("out")],
        )]));
        for engine in ENGINES {
            let (_eng, _out, r) = run_pinned(engine, &m, "parent", 1, 1, vec![], 1);
            let err = r.expect_err("overflowing launch dim must fault");
            match &err {
                SimError::KernelFault { kernel, message } => {
                    assert_eq!(kernel, "parent", "{engine:?}");
                    let bad = if what == "grid" { g } else { b };
                    assert!(
                        message.contains(&format!("launch {what} dimension {bad} in lane 0")),
                        "{engine:?}: fault must name the dimension, value, and lane: {message}"
                    );
                    assert!(message.contains("u32 range"), "{engine:?}: {message}");
                }
                other => panic!("{engine:?}: expected KernelFault, got {other:?}"),
            }
        }
    }
}

#[test]
fn in_range_launch_dims_still_work_in_both_engines() {
    let mut m = Module::new();
    m.add(KernelBuilder::new("child").array("out").body(vec![store(v("out"), i(0), i(7))]));
    m.add(KernelBuilder::new("parent").array("out").body(vec![launch(
        "child",
        i(1),
        i(1),
        vec![v("out")],
    )]));
    for engine in ENGINES {
        let (eng, out, r) = run_pinned(engine, &m, "parent", 1, 1, vec![], 1);
        r.unwrap_or_else(|e| panic!("{engine:?}: {e}"));
        assert_eq!(eng.mem.read(out, 0).unwrap(), 7, "{engine:?}");
    }
}

#[test]
fn cas_without_desired_value_faults_identically_in_both_engines() {
    // A hand-built CAS missing its desired value is a program error: both
    // executors report the same kernel fault instead of panicking.
    let mut m = Module::new();
    m.add(KernelBuilder::new("k").array("out").body(vec![dpcons_ir::Stmt::Atomic {
        op: dpcons_ir::AtomicOp::Cas,
        old: None,
        handle: v("out"),
        index: i(0),
        value: i(0),
        value2: None,
    }]));
    for engine in ENGINES {
        let (_eng, _out, r) = run_pinned(engine, &m, "k", 1, 32, vec![], 1);
        match r {
            Err(SimError::KernelFault { kernel, message }) => {
                assert_eq!(kernel, "k", "{engine:?}");
                assert!(message.contains("atomicCAS"), "{engine:?}: {message}");
            }
            other => panic!("{engine:?}: expected KernelFault, got {other:?}"),
        }
    }
}
