//! End-to-end validation of the consolidation transforms: for a
//! representative irregular-loop kernel and a recursive kernel, the
//! consolidated code generated at every granularity must produce *bit
//! identical* memory contents to the basic-dp original, and must launch far
//! fewer child kernels.

use std::collections::HashMap;

use dpcons_core::{
    consolidate, prepare_launch, reset_launch, ChildClass, ConfigPolicy, Consolidated, Directive,
    Granularity,
};
use dpcons_ir::dsl::*;
use dpcons_ir::{install, Module};
use dpcons_sim::{AllocKind, ArrayId, Engine, GpuConfig, LaunchSpec, ProfileReport, SimError};

const HEAP_WORDS: u64 = 1 << 20;
const POOL_WORDS: u64 = 1 << 20;

fn engine() -> Engine {
    Engine::new(GpuConfig::k20c(), AllocKind::PreAlloc, HEAP_WORDS)
}

// ---------------------------------------------------------------------
// Scenario 1: irregular loop ("scatter-expand"). Each of n items has a
// degree; heavy items are delegated to a child kernel, light ones are
// processed inline. out[base[i] + j] = i for all j < deg[i].
// ---------------------------------------------------------------------

fn scatter_module() -> Module {
    let mut m = Module::new();
    m.add(
        KernelBuilder::new("expand_child")
            .array("deg")
            .array("base")
            .array("out")
            .scalar("item")
            .body(vec![for_step(
                "j",
                tid(),
                load(v("deg"), v("item")),
                ntid(),
                vec![store(v("out"), add(load(v("base"), v("item")), v("j")), v("item"))],
            )]),
    );
    m.add(
        KernelBuilder::new("expand_parent")
            .array("deg")
            .array("base")
            .array("out")
            .scalar("n")
            .scalar("thr")
            .body(vec![
                let_("id", gtid()),
                when(
                    lt(v("id"), v("n")),
                    vec![
                        let_("d", load(v("deg"), v("id"))),
                        if_(
                            gt(v("d"), v("thr")),
                            vec![launch(
                                "expand_child",
                                i(1),
                                i(64),
                                vec![v("deg"), v("base"), v("out"), v("id")],
                            )],
                            vec![for_(
                                "j",
                                i(0),
                                v("d"),
                                vec![store(
                                    v("out"),
                                    add(load(v("base"), v("id")), v("j")),
                                    v("id"),
                                )],
                            )],
                        ),
                    ],
                ),
            ]),
    );
    m
}

struct ScatterData {
    deg: Vec<i64>,
    base: Vec<i64>,
    total: usize,
}

fn scatter_data(n: usize) -> ScatterData {
    // Deterministic irregular degrees: mostly small, a few heavy.
    let deg: Vec<i64> = (0..n)
        .map(|i| if i % 17 == 0 { 200 + (i % 7) as i64 * 31 } else { (i % 9) as i64 })
        .collect();
    let mut base = Vec::with_capacity(n);
    let mut acc = 0i64;
    for &d in &deg {
        base.push(acc);
        acc += d;
    }
    ScatterData { deg, base, total: acc as usize }
}

fn scatter_expected(d: &ScatterData) -> Vec<i64> {
    let mut out = vec![-1i64; d.total];
    for (i, (&dg, &b)) in d.deg.iter().zip(&d.base).enumerate() {
        for j in 0..dg {
            out[(b + j) as usize] = i as i64;
        }
    }
    out
}

fn run_scatter_basic(n: usize, thr: i64) -> (Vec<i64>, ProfileReport) {
    let d = scatter_data(n);
    let mut e = engine();
    let deg = e.mem.alloc_array_init("deg", d.deg.clone());
    let base = e.mem.alloc_array_init("base", d.base.clone());
    let out = e.mem.alloc_array_init("out", vec![-1; d.total]);
    let ids = install(&mut e, &scatter_module()).unwrap();
    let grid = (n as u32).div_ceil(128);
    let r = e
        .launch(LaunchSpec::new(
            ids["expand_parent"],
            grid,
            128,
            vec![deg as i64, base as i64, out as i64, n as i64, thr],
        ))
        .unwrap();
    (e.mem.slice(out).unwrap().to_vec(), r)
}

fn run_scatter_consolidated(
    n: usize,
    thr: i64,
    g: Granularity,
    policy: Option<ConfigPolicy>,
) -> (Vec<i64>, ProfileReport) {
    let d = scatter_data(n);
    let pragma =
        format!("#pragma dp consldt({}) buffer(custom, perBufferSize: 256) work(id)", g.label());
    let dir = Directive::parse(&pragma).unwrap();
    let cons =
        consolidate(&scatter_module(), "expand_parent", &dir, &GpuConfig::k20c(), policy).unwrap();
    assert_eq!(cons.info.child_class, ChildClass::SoloBlock);

    let mut e = engine();
    let deg = e.mem.alloc_array_init("deg", d.deg.clone());
    let base = e.mem.alloc_array_init("base", d.base.clone());
    let out = e.mem.alloc_array_init("out", vec![-1; d.total]);
    let ids: HashMap<_, _> = install(&mut e, &cons.module).unwrap();
    let grid = (n as u32).div_ceil(128);
    let mut prep = prepare_launch(
        &mut e,
        &cons.info,
        &ids,
        &[deg as i64, base as i64, out as i64, n as i64, thr],
        (grid, 128),
        POOL_WORDS,
    )
    .unwrap();
    reset_launch(&mut e, &mut prep).unwrap();
    let r = e.launch(prep.spec.clone()).unwrap();
    (e.mem.slice(out).unwrap().to_vec(), r)
}

#[test]
fn scatter_basic_matches_reference() {
    let d = scatter_data(500);
    let (out, r) = run_scatter_basic(500, 32);
    assert_eq!(out, scatter_expected(&d));
    assert!(r.device_launches > 0);
}

#[test]
fn scatter_consolidation_preserves_results_all_granularities() {
    let n = 500;
    let d = scatter_data(n);
    let expected = scatter_expected(&d);
    let (basic_out, basic_r) = run_scatter_basic(n, 32);
    assert_eq!(basic_out, expected);
    for g in Granularity::ALL {
        let (out, r) = run_scatter_consolidated(n, 32, g, None);
        assert_eq!(out, expected, "{} consolidation changed results", g.label());
        assert!(
            r.device_launches < basic_r.device_launches,
            "{}: {} launches vs basic {}",
            g.label(),
            r.device_launches,
            basic_r.device_launches
        );
    }
}

#[test]
fn scatter_launch_reduction_matches_granularity() {
    // Low threshold: nearly half the items are delegated, so the per-thread
    // basic-dp code performs hundreds of launches.
    let n = 2048;
    let (_, basic) = run_scatter_basic(n, 4);
    let (_, warp) = run_scatter_consolidated(n, 4, Granularity::Warp, None);
    let (_, block) = run_scatter_consolidated(n, 4, Granularity::Block, None);
    let (_, grid) = run_scatter_consolidated(n, 4, Granularity::Grid, None);
    // Warp-level consolidation reduces launches by up to 32x; block by up to
    // the block size; grid to exactly one.
    assert!(warp.device_launches <= basic.device_launches.div_ceil(4));
    assert!(block.device_launches <= warp.device_launches);
    assert_eq!(grid.device_launches, 1);
    // And the time ordering the paper reports: consolidated beats basic.
    assert!(warp.total_cycles < basic.total_cycles);
    assert!(block.total_cycles < basic.total_cycles);
    assert!(grid.total_cycles < basic.total_cycles);
}

#[test]
fn scatter_one_to_one_policy_also_correct() {
    let n = 400;
    let d = scatter_data(n);
    let expected = scatter_expected(&d);
    for g in Granularity::ALL {
        let (out, _) = run_scatter_consolidated(n, 32, g, Some(ConfigPolicy::OneToOne));
        assert_eq!(out, expected, "1-1 policy at {}", g.label());
    }
}

#[test]
fn scatter_custom_policy_respects_directive() {
    let n = 300;
    let d = scatter_data(n);
    let expected = scatter_expected(&d);
    let (out, _) =
        run_scatter_consolidated(n, 32, Granularity::Block, Some(ConfigPolicy::Custom(4, 64)));
    assert_eq!(out, expected);
}

#[test]
fn consolidated_warp_efficiency_improves() {
    let n = 2048;
    let (_, basic) = run_scatter_basic(n, 16);
    let (_, grid) = run_scatter_consolidated(n, 16, Granularity::Grid, None);
    assert!(
        grid.warp_exec_efficiency > basic.warp_exec_efficiency,
        "grid {} vs basic {}",
        grid.warp_exec_efficiency,
        basic.warp_exec_efficiency
    );
}

// ---------------------------------------------------------------------
// Scenario 2: parallel recursion (tree descendants counting, Fig. 1c).
// ---------------------------------------------------------------------

/// A fixed small tree in CSR layout: childptr[v]..childptr[v+1] indexes
/// children[]. Returns (childptr, children, root, expected_descendants).
fn small_tree() -> (Vec<i64>, Vec<i64>, i64, i64) {
    // 0 -> 1,2,3 ; 1 -> 4,5 ; 2 -> 6 ; 4 -> 7,8,9 ; rest leaves. 9 nodes under root.
    let childptr = vec![0, 3, 5, 6, 6, 9, 9, 9, 9, 9, 9];
    let children = vec![1, 2, 3, 4, 5, 6, 7, 8, 9];
    (childptr, children, 0, 9)
}

fn rec_module() -> Module {
    let mut m = Module::new();
    // Fig 1(c) shape: each thread takes one child of `node`; leaves do the
    // leaf work (count), inner nodes count themselves and recurse.
    m.add(
        KernelBuilder::new("treedesc")
            .array("childptr")
            .array("children")
            .array("ndesc")
            .scalar("node")
            .body(vec![
                let_("first", load(v("childptr"), v("node"))),
                let_("cnt", sub(load(v("childptr"), add(v("node"), i(1))), v("first"))),
                for_step(
                    "jj",
                    tid(),
                    v("cnt"),
                    ntid(),
                    vec![
                        let_("c", load(v("children"), add(v("first"), v("jj")))),
                        atomic_add(None, v("ndesc"), i(0), i(1)),
                        let_(
                            "cdeg",
                            sub(
                                load(v("childptr"), add(v("c"), i(1))),
                                load(v("childptr"), v("c")),
                            ),
                        ),
                        when(
                            gt(v("cdeg"), i(0)),
                            vec![launch(
                                "treedesc",
                                i(1),
                                v("cdeg"),
                                vec![v("childptr"), v("children"), v("ndesc"), v("c")],
                            )],
                        ),
                    ],
                ),
            ]),
    );
    m
}

fn run_rec_basic() -> (i64, ProfileReport) {
    let (cp, ch, root, _) = small_tree();
    let mut e = engine();
    let cp_h = e.mem.alloc_array_init("childptr", cp.clone());
    let ch_h = e.mem.alloc_array_init("children", ch);
    let nd = e.mem.alloc_array("ndesc", 1);
    let ids = install(&mut e, &rec_module()).unwrap();
    let rootdeg = (cp[root as usize + 1] - cp[root as usize]) as u32;
    let r = e
        .launch(LaunchSpec::new(
            ids["treedesc"],
            1,
            rootdeg,
            vec![cp_h as i64, ch_h as i64, nd as i64, root],
        ))
        .unwrap();
    (e.mem.read(nd, 0).unwrap(), r)
}

fn run_rec_consolidated(g: Granularity) -> (i64, ProfileReport) {
    let (cp, ch, root, _) = small_tree();
    let pragma = format!(
        "#pragma dp consldt({}) buffer(custom, perBufferSize: 64, totalSize: 4096) work(c)",
        g.label()
    );
    let dir = Directive::parse(&pragma).unwrap();
    let cons = consolidate(&rec_module(), "treedesc", &dir, &GpuConfig::k20c(), None).unwrap();
    assert!(cons.info.recursive);

    let mut e = engine();
    let cp_h = e.mem.alloc_array_init("childptr", cp.clone());
    let ch_h = e.mem.alloc_array_init("children", ch);
    let nd = e.mem.alloc_array("ndesc", 1);
    let ids: HashMap<_, _> = install(&mut e, &cons.module).unwrap();
    let rootdeg = (cp[root as usize + 1] - cp[root as usize]) as u32;
    let mut prep = prepare_launch(
        &mut e,
        &cons.info,
        &ids,
        &[cp_h as i64, ch_h as i64, nd as i64, root],
        (1, rootdeg),
        POOL_WORDS,
    )
    .unwrap();
    reset_launch(&mut e, &mut prep).unwrap();
    let r = e.launch(prep.spec.clone()).unwrap();
    (e.mem.read(nd, 0).unwrap(), r)
}

#[test]
fn recursion_basic_counts_descendants() {
    let (_, _, _, expected) = small_tree();
    let (count, r) = run_rec_basic();
    assert_eq!(count, expected);
    assert!(r.max_depth >= 2);
}

#[test]
fn recursion_consolidation_preserves_results() {
    let (_, _, _, expected) = small_tree();
    let (_, basic_r) = run_rec_basic();
    for g in Granularity::ALL {
        let (count, r) = run_rec_consolidated(g);
        assert_eq!(count, expected, "{} recursion consolidation broke results", g.label());
        assert!(
            r.device_launches <= basic_r.device_launches,
            "{}: {} vs {}",
            g.label(),
            r.device_launches,
            basic_r.device_launches
        );
    }
}

#[test]
fn grid_recursion_launches_once_per_level() {
    // Tree depth is 3 (root -> 1 -> 4 -> 7): grid-level consolidation should
    // launch exactly one consolidated kernel per level below the seed.
    let (count, r) = run_rec_consolidated(Granularity::Grid);
    assert_eq!(count, 9);
    assert_eq!(r.device_launches, 2, "levels below the seeded level");
}

// ---------------------------------------------------------------------
// Generated-source goldens.
// ---------------------------------------------------------------------

#[test]
fn generated_parent_contains_template_elements() {
    let dir =
        Directive::parse("dp consldt(block) buffer(custom, perBufferSize: 256) work(id)").unwrap();
    let cons =
        consolidate(&scatter_module(), "expand_parent", &dir, &GpuConfig::k20c(), None).unwrap();
    let src = dpcons_ir::module_to_string(&cons.module);
    // Figure 4(b) structure: buffer alloc, guarded count init, insertion via
    // atomicAdd, __syncthreads barrier, guarded consolidated launch.
    assert!(src.contains("__cons_alloc_block"));
    assert!(src.contains("atomicAdd(&__cons_buf["));
    assert!(src.contains("__syncthreads();"));
    assert!(src.contains("expand_child__cons<<<"));
    assert!(src.contains("(threadIdx.x % 32) == 0"), "launcher guard present:\n{src}");
    // The consolidated child fetches from the buffer with a block-stride loop.
    assert!(src.contains("__global__ void expand_child__cons"));
    assert!(src.contains("while ((__cons_item < __cons_cnt))"));
}

#[test]
fn generated_grid_parent_uses_global_barrier() {
    let dir = Directive::parse("dp consldt(grid) work(id)").unwrap();
    let cons =
        consolidate(&scatter_module(), "expand_parent", &dir, &GpuConfig::k20c(), None).unwrap();
    let src = dpcons_ir::module_to_string(&cons.module);
    assert!(src.contains("atomicAdd(&__cons_counter[0], -1)"));
    assert!(src.contains("if ((__cons_bar == 1))"));
    assert!(!src.contains("__cons_alloc"), "grid level uses the runtime pool, not device alloc");
}

#[test]
fn postwork_moves_to_consolidated_kernel_at_grid_level() {
    let mut m = scatter_module();
    {
        let p = m.get_mut("expand_parent").unwrap();
        // Postwork depends on prework (`id`): store a sentinel per thread.
        p.body.push(when(lt(v("id"), v("n")), vec![store(v("out"), v("id"), i(-7))]));
    }
    // Build expected by hand: the child/inline writes happen first, then
    // postwork overwrites out[id] for id < n.
    let dir = Directive::parse("dp consldt(grid) work(id)").unwrap();
    let cons = consolidate(&m, "expand_parent", &dir, &GpuConfig::k20c(), None).unwrap();
    assert!(cons.info.postwork.is_some());
    let src = dpcons_ir::module_to_string(&cons.module);
    assert!(src.contains("__global__ void expand_parent__postwork"));
    assert!(src.contains("cudaDeviceSynchronize();"));
    assert!(src.contains("expand_parent__postwork<<<gridDim.x, blockDim.x>>>"));

    // Execute and compare against the *synchronized* expectation: children
    // complete (scatter writes), then postwork overwrites out[id] with -7.
    // (The basic-dp original is racy here: CUDA gives no ordering between
    // asynchronous children and parent postwork without synchronization.
    // The grid-level transform inserts cudaDeviceSynchronize, making the
    // consolidated code well-defined.)
    let n = 300usize;
    let thr = 32;
    let d = scatter_data(n);
    let mut expected = scatter_expected(&d);
    for id in 0..n.min(d.total) {
        expected[id] = -7;
    }
    let run = |module: &Module, consolidated: Option<&dpcons_core::Consolidated>| {
        let mut e = engine();
        let deg = e.mem.alloc_array_init("deg", d.deg.clone());
        let base = e.mem.alloc_array_init("base", d.base.clone());
        let out = e.mem.alloc_array_init("out", vec![-1; d.total]);
        let ids = install(&mut e, module).unwrap();
        let args = vec![deg as i64, base as i64, out as i64, n as i64, thr];
        let grid = (n as u32).div_ceil(128);
        match consolidated {
            None => {
                e.launch(LaunchSpec::new(ids["expand_parent"], grid, 128, args)).unwrap();
            }
            Some(c) => {
                let mut prep =
                    prepare_launch(&mut e, &c.info, &ids, &args, (grid, 128), POOL_WORDS).unwrap();
                reset_launch(&mut e, &mut prep).unwrap();
                e.launch(prep.spec.clone()).unwrap();
            }
        }
        e.mem.slice(out).unwrap().to_vec()
    };
    let grid_out = run(&cons.module, Some(&cons));
    assert_eq!(grid_out, expected, "postwork consolidation broke synchronized semantics");
    // The prework slice must re-derive `id` (needed by the postwork) inside
    // the postwork kernel.
    let pw_src = dpcons_ir::kernel_to_string(cons.module.get("expand_parent__postwork").unwrap());
    assert!(pw_src.contains("long id ="), "prework slice should duplicate `id`:\n{pw_src}");
    let _ = run(&m, None); // the racy basic variant still executes fine
}

#[test]
fn pre_alloc_buffer_reuse_across_host_launches() {
    // Re-launching with a reset PreparedLaunch must give identical results.
    let n = 300;
    let d = scatter_data(n);
    let expected = scatter_expected(&d);
    let dir = Directive::parse("dp consldt(grid) work(id)").unwrap();
    let cons =
        consolidate(&scatter_module(), "expand_parent", &dir, &GpuConfig::k20c(), None).unwrap();
    let mut e = engine();
    let deg = e.mem.alloc_array_init("deg", d.deg.clone());
    let base = e.mem.alloc_array_init("base", d.base.clone());
    let out = e.mem.alloc_array_init("out", vec![-1; d.total]);
    let ids = install(&mut e, &cons.module).unwrap();
    let grid = (n as u32).div_ceil(128);
    let mut prep = prepare_launch(
        &mut e,
        &cons.info,
        &ids,
        &[deg as i64, base as i64, out as i64, n as i64, 32],
        (grid, 128),
        POOL_WORDS,
    )
    .unwrap();
    for _ in 0..3 {
        e.mem.fill(out, -1).unwrap();
        reset_launch(&mut e, &mut prep).unwrap();
        e.launch(prep.spec.clone()).unwrap();
        assert_eq!(e.mem.slice(out).unwrap(), &expected[..]);
    }
}

// ---------------------------------------------------------------------
// Poisoned pools: `reset_launch` zeroes only the pool's count words, so
// whatever the rest of the pool holds between host launches must not
// change a run.
// ---------------------------------------------------------------------

/// Garbage written over the whole pool before each reused host launch. A
/// large negative, a small positive and a -1 count each break a run in a
/// different way when a count word is left unreset.
const POISON: [i64; 3] = [i64::MIN + 7, 7, -1];

/// Output array contents and profile of one host launch, or its fault.
type Outcome = Result<(Vec<i64>, ProfileReport), SimError>;

/// Allocates an app's arrays on an engine; returns the original launch
/// arguments, the output array, and the output's initial contents.
type Setup<'a> = &'a dyn Fn(&mut Engine) -> (Vec<i64>, ArrayId, Vec<i64>);

/// One host launch of `cons` on a fresh engine, whose pool is zeroed.
fn fresh_pool_outcome(cons: &Consolidated, setup: Setup, config: (u32, u32)) -> Outcome {
    let mut e = engine();
    let (args, out, _) = setup(&mut e);
    let ids = install(&mut e, &cons.module).unwrap();
    let mut prep = prepare_launch(&mut e, &cons.info, &ids, &args, config, POOL_WORDS)?;
    reset_launch(&mut e, &mut prep)?;
    let r = e.launch(prep.spec.clone())?;
    Ok((e.mem.slice(out)?.to_vec(), r))
}

/// One host launch per [`POISON`] value through a single `PreparedLaunch`,
/// filling the whole pool with that value before each `reset_launch`.
fn poisoned_pool_outcomes(cons: &Consolidated, setup: Setup, config: (u32, u32)) -> Vec<Outcome> {
    let mut e = engine();
    let (args, out, init) = setup(&mut e);
    let ids = install(&mut e, &cons.module).unwrap();
    let mut prep = prepare_launch(&mut e, &cons.info, &ids, &args, config, POOL_WORDS).unwrap();
    let pool = prep.pool.expect("grid-level launches get a pool");
    POISON
        .iter()
        .map(|&garbage| {
            e.mem.upload(out, &init)?;
            e.mem.fill(pool, garbage)?;
            reset_launch(&mut e, &mut prep)?;
            let r = e.launch(prep.spec.clone())?;
            Ok((e.mem.slice(out)?.to_vec(), r))
        })
        .collect()
}

/// Every poisoned-pool launch must equal the fresh-pool launch, output and
/// profile (or fault) alike; returns the fresh-pool outcome.
fn assert_poison_is_harmless(cons: &Consolidated, setup: Setup, config: (u32, u32)) -> Outcome {
    let fresh = fresh_pool_outcome(cons, setup, config);
    for (garbage, got) in POISON.iter().zip(poisoned_pool_outcomes(cons, setup, config)) {
        assert_eq!(got, fresh, "pool poisoned with {garbage} changed the launch");
    }
    fresh
}

#[test]
fn poisoned_pool_leaves_grid_scatter_unchanged() {
    let n = 300;
    let d = scatter_data(n);
    let dir = Directive::parse("dp consldt(grid) work(id)").unwrap();
    let cons =
        consolidate(&scatter_module(), "expand_parent", &dir, &GpuConfig::k20c(), None).unwrap();
    let setup = |e: &mut Engine| {
        let deg = e.mem.alloc_array_init("deg", d.deg.clone());
        let base = e.mem.alloc_array_init("base", d.base.clone());
        let out = e.mem.alloc_array_init("out", vec![-1; d.total]);
        (vec![deg as i64, base as i64, out as i64, n as i64, 32], out, vec![-1; d.total])
    };
    let (out, r) = assert_poison_is_harmless(&cons, &setup, ((n as u32).div_ceil(128), 128))
        .expect("fresh-pool launch succeeds");
    assert_eq!(out, scatter_expected(&d));
    assert_eq!(r.device_launches, 1, "heavy items were buffered and consolidated");
}

/// A chain of `len` nodes in CSR layout: node `i` has the single child `i + 1`.
fn chain_tree(len: i64) -> (Vec<i64>, Vec<i64>) {
    let childptr = (0..len).chain([len - 1]).collect();
    (childptr, (1..len).collect())
}

/// Grid-level recursion over the CSR tree `(cp, ch)` from `root`, through
/// [`assert_poison_is_harmless`].
fn grid_rec_poisoned(cp: Vec<i64>, ch: Vec<i64>, root: i64) -> Outcome {
    let dir = Directive::parse(
        "dp consldt(grid) buffer(custom, perBufferSize: 64, totalSize: 4096) work(c)",
    )
    .unwrap();
    let cons = consolidate(&rec_module(), "treedesc", &dir, &GpuConfig::k20c(), None).unwrap();
    let rootdeg = (cp[root as usize + 1] - cp[root as usize]) as u32;
    let setup = |e: &mut Engine| {
        let cp_h = e.mem.alloc_array_init("childptr", cp.clone());
        let ch_h = e.mem.alloc_array_init("children", ch.clone());
        let nd = e.mem.alloc_array("ndesc", 1);
        (vec![cp_h as i64, ch_h as i64, nd as i64, root], nd, vec![0])
    };
    assert_poison_is_harmless(&cons, &setup, (1, rootdeg))
}

#[test]
fn poisoned_pool_leaves_grid_recursion_unchanged() {
    let (cp, ch, root, expected) = small_tree();
    let (out, _) = grid_rec_poisoned(cp, ch, root).expect("fresh-pool launch succeeds");
    assert_eq!(out, vec![expected]);

    // Deep enough for a level at every nesting depth the device allows, so
    // every level buffer's count word is inserted into.
    let limit = GpuConfig::k20c().max_nesting_depth as i64;
    let (cp, ch) = chain_tree(limit + 2);
    let (out, r) = grid_rec_poisoned(cp, ch, 0).expect("fresh-pool launch succeeds");
    assert_eq!(out, vec![limit + 1]);
    assert_eq!(r.max_depth as i64, limit);

    // One node deeper, the deepest level still inserts into the next
    // level's buffer before its launch fails: the fault must not change.
    let (cp, ch) = chain_tree(limit + 3);
    let fault = grid_rec_poisoned(cp, ch, 0).expect_err("recursion exceeds the nesting limit");
    assert!(matches!(fault, SimError::NestingTooDeep { .. }), "{fault:?}");
}
