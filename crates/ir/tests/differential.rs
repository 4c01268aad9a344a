//! Differential testing of the SIMT interpreter: random expression trees and
//! random straight-line programs are executed on the simulator — through
//! **both** the bytecode VM and the tree-walking oracle, selected with the
//! process-wide [`set_engine_override`] under [`ENGINE_LOCK`] — and compared
//! lane-by-lane against a direct host-side evaluator.
//!
//! The offline build has no `proptest`, so case generation is a hand-rolled
//! deterministic sweep over a seeded `Rng64` stream; failures name the
//! case index and executor so a run is reproducible.

use std::sync::{Mutex, PoisonError};

use dpcons_ir::ast::{BinOp, Expr, UnOp};
use dpcons_ir::dsl::*;
use dpcons_ir::{install, set_engine_override, ExecEngine, Module};
use dpcons_sim::{AllocKind, Engine, GpuConfig, LaunchSpec};
use dpcons_workloads::rng::Rng64;

const ENGINES: [ExecEngine; 2] = [ExecEngine::Bytecode, ExecEngine::Tree];

/// The engine override is process-global; every test in this binary holds
/// this lock while it runs on a chosen executor.
static ENGINE_LOCK: Mutex<()> = Mutex::new(());

/// Run `f` with every launch routed to `exec`, restoring the default after.
fn on_engine<T>(exec: ExecEngine, f: impl FnOnce() -> T) -> T {
    let _guard = ENGINE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    set_engine_override(Some(exec));
    let out = f();
    set_engine_override(None);
    out
}

const BINOPS: [BinOp; 18] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Min,
    BinOp::Max,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Shl,
    BinOp::Shr,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
    BinOp::LAnd,
    BinOp::LOr,
];

/// Random expression over constants, thread builtins, and scalars `s0`/`s1`.
fn arb_expr(g: &mut Rng64, depth: u32) -> Expr {
    if depth == 0 || g.range_i64(0, 100) < 35 {
        return match g.range_i64(0, 6) {
            0 => Expr::I(g.range_i64(-100, 100)),
            1 => Expr::Tid,
            2 => Expr::NTid,
            3 => Expr::CtaId,
            4 => Expr::Ref("s0".to_string()),
            _ => Expr::Ref("s1".to_string()),
        };
    }
    match g.range_i64(0, 4) {
        0 => Expr::Un(UnOp::Neg, Box::new(arb_expr(g, depth - 1))),
        1 => Expr::Un(UnOp::Not, Box::new(arb_expr(g, depth - 1))),
        _ => {
            let op = BINOPS[g.range_i64(0, BINOPS.len() as i64) as usize];
            Expr::Bin(op, Box::new(arb_expr(g, depth - 1)), Box::new(arb_expr(g, depth - 1)))
        }
    }
}

/// Host-side oracle: evaluate `e` for one lane.
fn eval_host(e: &Expr, tid: i64, ntid: i64, cta: i64, s0: i64, s1: i64) -> i64 {
    match e {
        Expr::I(v) => *v,
        Expr::Tid => tid,
        Expr::NTid => ntid,
        Expr::CtaId => cta,
        Expr::Gtid => cta * ntid + tid,
        Expr::NCta => 1,
        Expr::Depth => 0,
        Expr::Ref(n) => {
            if n == "s0" {
                s0
            } else {
                s1
            }
        }
        Expr::Load(..) => unreachable!("no loads in this generator"),
        Expr::Un(UnOp::Neg, a) => eval_host(a, tid, ntid, cta, s0, s1).wrapping_neg(),
        Expr::Un(UnOp::Not, a) => (eval_host(a, tid, ntid, cta, s0, s1) == 0) as i64,
        Expr::Bin(op, a, b) => {
            let x = eval_host(a, tid, ntid, cta, s0, s1);
            // Short-circuit ops must not evaluate the right side eagerly for
            // semantics purposes; values are pure here so it is equivalent.
            let y = eval_host(b, tid, ntid, cta, s0, s1);
            match op {
                BinOp::Add => x.wrapping_add(y),
                BinOp::Sub => x.wrapping_sub(y),
                BinOp::Mul => x.wrapping_mul(y),
                BinOp::Min => x.min(y),
                BinOp::Max => x.max(y),
                BinOp::And => x & y,
                BinOp::Or => x | y,
                BinOp::Xor => x ^ y,
                // Total shift semantics: amounts outside 0..=63 yield 0
                // (never wrap mod 64); see `dpcons_ir::dsl::shl`.
                BinOp::Shl => {
                    if (0..64).contains(&y) {
                        x.wrapping_shl(y as u32)
                    } else {
                        0
                    }
                }
                BinOp::Shr => {
                    if (0..64).contains(&y) {
                        x.wrapping_shr(y as u32)
                    } else {
                        0
                    }
                }
                BinOp::Eq => (x == y) as i64,
                BinOp::Ne => (x != y) as i64,
                BinOp::Lt => (x < y) as i64,
                BinOp::Le => (x <= y) as i64,
                BinOp::Gt => (x > y) as i64,
                BinOp::Ge => (x >= y) as i64,
                BinOp::LAnd => (x != 0 && y != 0) as i64,
                BinOp::LOr => (x != 0 || y != 0) as i64,
                _ => unreachable!("not generated"),
            }
        }
    }
}

/// Every lane's value of a random expression matches the host oracle.
#[test]
fn expressions_match_host_oracle() {
    let mut g = Rng64::seed_from_u64(0xE59);
    for case in 0..64 {
        let e = arb_expr(&mut g, 3);
        let s0 = g.range_i64(-50, 50);
        let s1 = g.range_i64(-50, 50);
        let mut m = Module::new();
        m.add(KernelBuilder::new("k").array("out").scalar("s0").scalar("s1").body(vec![store(
            v("out"),
            tid(),
            e.clone(),
        )]));
        for exec in ENGINES {
            let mut eng = Engine::new(GpuConfig::tiny(), AllocKind::PreAlloc, 1 << 12);
            let out = eng.mem.alloc_array("out", 64);
            let ids = install(&mut eng, &m).unwrap();
            on_engine(exec, || {
                eng.launch(LaunchSpec::new(ids["k"], 2, 32, vec![out as i64, s0, s1]))
            })
            .unwrap();
            let got = eng.mem.slice(out).unwrap();
            // Two blocks write the same tid slots; block 1 (executed last)
            // wins, so compare against cta = 1 for all lanes.
            for lane in 0..32 {
                let want = eval_host(&e, lane, 32, 1, s0, s1);
                assert_eq!(got[lane as usize], want, "case {case}, lane {lane}, {exec:?} of {e:?}");
            }
        }
    }
}

/// Random guarded accumulation: interpreter vs host loop, including
/// divergence (per-lane trip counts).
#[test]
fn divergent_loops_match_host_oracle() {
    let mut g = Rng64::seed_from_u64(0xD117);
    for case in 0..32 {
        let trips: Vec<i64> = (0..32).map(|_| g.range_i64(0, 20)).collect();
        let step = g.range_i64(1, 5);
        let mut m = Module::new();
        m.add(KernelBuilder::new("k").array("trips").array("out").scalar("step").body(vec![
            let_("limit", load(v("trips"), tid())),
            let_("acc", i(0)),
            for_step(
                "j",
                i(0),
                v("limit"),
                v("step"),
                vec![assign("acc", add(v("acc"), add(v("j"), i(1))))],
            ),
            store(v("out"), tid(), v("acc")),
        ]));
        for exec in ENGINES {
            let mut eng = Engine::new(GpuConfig::tiny(), AllocKind::PreAlloc, 1 << 12);
            let trips_h = eng.mem.alloc_array_init("trips", trips.clone());
            let out = eng.mem.alloc_array("out", 32);
            let ids = install(&mut eng, &m).unwrap();
            let spec = LaunchSpec::new(ids["k"], 1, 32, vec![trips_h as i64, out as i64, step]);
            on_engine(exec, || eng.launch(spec)).unwrap();
            let got = eng.mem.slice(out).unwrap();
            for lane in 0..32 {
                let mut acc = 0i64;
                let mut j = 0i64;
                while j < trips[lane] {
                    acc += j + 1;
                    j += step;
                }
                assert_eq!(got[lane], acc, "case {case}, lane {lane}, {exec:?}");
            }
        }
    }
}

/// Atomic accumulation across blocks is order-insensitive for the values
/// and deterministic for the returned old values.
#[test]
fn atomic_sums_match() {
    let mut g = Rng64::seed_from_u64(0xA70);
    for case in 0..32 {
        let n = g.range_i64(1, 64) as usize;
        let adds: Vec<i64> = (0..n).map(|_| g.range_i64(1, 100)).collect();
        let mut m = Module::new();
        m.add(KernelBuilder::new("k").array("vals").array("sum").scalar("n").body(vec![when(
            lt(gtid(), v("n")),
            vec![atomic_add(None, v("sum"), i(0), load(v("vals"), gtid()))],
        )]));
        for exec in ENGINES {
            let mut eng = Engine::new(GpuConfig::tiny(), AllocKind::PreAlloc, 1 << 12);
            let vals = eng.mem.alloc_array_init("vals", adds.clone());
            let sum = eng.mem.alloc_array("sum", 1);
            let ids = install(&mut eng, &m).unwrap();
            let grid = (n as u32).div_ceil(32);
            let spec = LaunchSpec::new(ids["k"], grid, 32, vec![vals as i64, sum as i64, n as i64]);
            on_engine(exec, || eng.launch(spec)).unwrap();
            let want = adds.iter().sum::<i64>();
            assert_eq!(eng.mem.read(sum, 0).unwrap(), want, "case {case}, {exec:?}");
        }
    }
}
