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
//!
//! The `*_agree_*` cases pin the VM's fast paths against the oracle: a group
//! whose active lanes all address one cell (read once and splatted, or
//! written once with the highest active lane's value), and block assembly
//! over the flat chunk buffer (unaligned `__syncthreads` phases, launches in
//! two device-sync segments, the two-warp device-sync fault). Each must
//! leave identical memory and an identical `ExecRecord` DAG and profile, or
//! raise the identical fault, on both executors.

use dpcons_ir::dsl::*;
use std::sync::{Mutex, PoisonError};

use dpcons_ir::{install, set_engine_override, ExecEngine, Module};
use dpcons_sim::{
    AllocKind, CaptureArena, Engine, ExecRecord, GpuConfig, LaunchSpec, ProfileReport, SimError,
};

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

/// What one host launch leaves behind on one executor: the `out` array, and
/// the profile plus captured DAG or the fault.
#[derive(Debug, PartialEq)]
struct Outcome {
    out: Vec<i64>,
    run: Result<(ProfileReport, Vec<ExecRecord>), SimError>,
}

/// Launch `kernel(out)` over `out` initialised to `init` on both executors,
/// assert the two outcomes are identical, and return it.
fn agree(m: &Module, kernel: &str, grid: u32, block: u32, init: Vec<i64>) -> Outcome {
    let [vm, tree] = ENGINES.map(|engine| {
        let mut eng = Engine::new(GpuConfig::tiny(), AllocKind::PreAlloc, 1 << 12);
        let out = eng.mem.alloc_array_init("out", init.clone());
        let ids = install(&mut eng, m).unwrap();
        let mut arena = CaptureArena::new();
        let run = {
            let _guard = ENGINE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
            set_engine_override(Some(engine));
            let spec = LaunchSpec::new(ids[kernel], grid, block, vec![out as i64]);
            let r = eng.capture_into(spec, &mut arena);
            set_engine_override(None);
            r
        };
        Outcome {
            out: eng.mem.slice(out).unwrap().to_vec(),
            run: run.map(|report| (report, arena.take_records())),
        }
    });
    assert_eq!(vm, tree, "bytecode VM and tree walker diverged on `{kernel}`");
    vm
}

#[test]
fn one_cell_stores_keep_the_highest_active_lane_and_agree() {
    let mut m = Module::new();
    // Every lane stores its own value to cell 0 (lane-ordered stores leave
    // the highest active lane's value), and the odd/even halves of a
    // divergent `if` each store to their own cell.
    m.add(KernelBuilder::new("all").array("out").body(vec![store(
        v("out"),
        i(0),
        add(tid(), i(100)),
    )]));
    m.add(KernelBuilder::new("split").array("out").body(vec![if_(
        eq(rem(tid(), i(2)), i(0)),
        vec![store(v("out"), i(0), add(tid(), i(100)))],
        vec![store(v("out"), i(1), add(tid(), i(200)))],
    )]));
    for (kernel, block, want) in [
        ("all", 32, [131, -1]),
        ("all", 20, [119, -1]),
        ("all", 64, [163, -1]),
        ("split", 32, [130, 231]),
        ("split", 20, [118, 219]),
    ] {
        let o = agree(&m, kernel, 1, block, vec![-1, -1]);
        o.run.as_ref().unwrap_or_else(|e| panic!("{kernel}/{block}: {e}"));
        assert_eq!(o.out, want, "{kernel}/{block}");
    }
}

#[test]
fn uniform_address_load_under_a_partial_mask_agrees() {
    // Lanes 0..7 of a 20-lane warp all read cell 0 and copy it out; the
    // other lanes leave their cells alone.
    let mut m = Module::new();
    m.add(KernelBuilder::new("k").array("out").body(vec![when(
        lt(tid(), i(7)),
        vec![store(v("out"), add(tid(), i(1)), add(load(v("out"), i(0)), tid()))],
    )]));
    let o = agree(&m, "k", 1, 20, [vec![40], vec![0; 20]].concat());
    o.run.as_ref().unwrap();
    let want: Vec<i64> = [vec![40], (40..47).collect(), vec![0; 13]].concat();
    assert_eq!(o.out, want);
}

#[test]
fn atomic_add_from_every_lane_to_one_cell_agrees() {
    // Lane l adds l + 1 to cell 0 and records the value it saw: atomics
    // serialize in lane order, so lane l sees the sum of 1..=l.
    let mut m = Module::new();
    m.add(KernelBuilder::new("k").array("out").body(vec![
        atomic_add(Some("old"), v("out"), i(0), add(tid(), i(1))),
        store(v("out"), add(tid(), i(1)), v("old")),
    ]));
    for block in [32u32, 20] {
        let o = agree(&m, "k", 1, block, vec![0; 33]);
        o.run.as_ref().unwrap();
        let n = block as i64;
        assert_eq!(o.out[0], n * (n + 1) / 2, "block {block}");
        for l in 0..n {
            assert_eq!(o.out[l as usize + 1], l * (l + 1) / 2, "block {block}, lane {l}");
        }
    }
}

#[test]
fn unaligned_sync_phases_and_two_segment_launches_agree() {
    let mut m = Module::new();
    m.add(KernelBuilder::new("child").array("out").body(vec![atomic_add(
        None,
        v("out"),
        i(0),
        i(1),
    )]));
    // Warp 0 runs two `__syncthreads` phases, warp 1 one: the phase counts
    // differ, so segment 0 takes the max-total fallback duration.
    m.add(KernelBuilder::new("phases").array("out").body(vec![
        compute(add(tid(), i(1))),
        when(lt(tid(), i(32)), vec![sync(), compute(i(9))]),
        store(v("out"), add(tid(), i(1)), tid()),
    ]));
    // Warp 1 (not warp 0) launches a child, device-syncs, then launches two
    // more: the block has two segments, both issuing launches.
    m.add(KernelBuilder::new("segments").array("out").body(vec![
        compute(i(3)),
        when(eq(tid(), i(32)), vec![launch("child", i(1), i(1), vec![v("out")]), device_sync()]),
        when(ge(tid(), i(62)), vec![launch("child", i(1), i(2), vec![v("out")])]),
    ]));
    let o = agree(&m, "phases", 1, 64, vec![0; 65]);
    o.run.as_ref().unwrap();
    let o = agree(&m, "segments", 1, 64, vec![0; 1]);
    let (_, records) = o.run.as_ref().unwrap();
    let segs = &records[0].blocks[0].segments;
    assert_eq!(segs.len(), 2, "one device sync splits the block in two");
    assert!(segs[0].ends_with_device_sync && !segs[1].ends_with_device_sync);
    assert_eq!((segs[0].launches.len(), segs[1].launches.len()), (1, 2));
    assert_eq!(o.out, [1 + 2 * 2]);
}

#[test]
fn device_sync_in_two_warps_of_one_block_faults_identically() {
    let mut m = Module::new();
    m.add(
        KernelBuilder::new("k").array("out").body(vec![store(v("out"), i(0), i(5)), device_sync()]),
    );
    let o = agree(&m, "k", 1, 64, vec![0]);
    match o.run {
        Err(SimError::KernelFault { kernel, message }) => {
            assert_eq!(kernel, "k");
            assert!(message.contains("executed by 2 warps"), "{message}");
        }
        other => panic!("expected KernelFault, got {other:?}"),
    }
}
