//! Greedy graph coloring (Luby / Jones–Plassmann style).
//!
//! Round-synchronous: a *scan* kernel computes, per uncolored node, the
//! maximum priority among its uncolored neighbors (the irregular loop —
//! delegated for heavy nodes under basic-dp via `atomicMax` accumulation),
//! then an *assign* kernel colors every local maximum with the round number.
//! Adjacent nodes never color in the same round, so the result is
//! order-independent and identical across variants. Requires a symmetric
//! graph.

use std::hash::Hasher;

use dpcons_core::{Directive, Granularity};
use dpcons_ir::dsl::*;
use dpcons_ir::Module;
use dpcons_workloads::{reference, CsrGraph};

use crate::runner::{
    hash_graph, hash_words, AppError, AppOutcome, Benchmark, RunConfig, Variant, VariantSession,
};

pub struct GraphColoring {
    pub graph: CsrGraph,
    pub pri: Vec<i64>,
}

impl GraphColoring {
    /// `graph` must be symmetric (use [`CsrGraph::symmetrize`]).
    pub fn new(graph: CsrGraph, seed: u64) -> GraphColoring {
        let pri = reference::coloring_priorities(graph.n, seed);
        GraphColoring { graph, pri }
    }

    fn scan_inline() -> Vec<dpcons_ir::Stmt> {
        // maxpri over uncolored neighbors via atomicMax on scratch[u]
        // (scratch[u] was set to -1 by this thread before the loop).
        vec![for_(
            "j",
            i(0),
            v("deg"),
            vec![
                let_("nb", load(v("col"), add(v("first"), v("j")))),
                when(
                    land(lt(load(v("color"), v("nb")), i(0)), ne(v("nb"), v("u"))),
                    vec![atomic_max(None, v("scratch"), v("u"), load(v("pri"), v("nb")))],
                ),
            ],
        )]
    }

    fn assign_kernel() -> dpcons_ir::Kernel {
        KernelBuilder::new("gc_assign")
            .array("color")
            .array("scratch")
            .array("pri")
            .array("flag")
            .scalar("n")
            .scalar("round")
            .body(vec![
                let_("u", gtid()),
                when(
                    land(lt(v("u"), v("n")), lt(load(v("color"), v("u")), i(0))),
                    vec![if_(
                        gt(load(v("pri"), v("u")), load(v("scratch"), v("u"))),
                        vec![store(v("color"), v("u"), v("round"))],
                        vec![store(v("flag"), i(0), i(1))],
                    )],
                ),
            ])
    }

    fn scan_prologue() -> Vec<dpcons_ir::Stmt> {
        vec![
            let_("u", gtid()),
            when(
                land(lt(v("u"), v("n")), lt(load(v("color"), v("u")), i(0))),
                vec![
                    store(v("scratch"), v("u"), i(-1)),
                    let_("first", load(v("row"), v("u"))),
                    let_("deg", sub(load(v("row"), add(v("u"), i(1))), v("first"))),
                ],
            ),
        ]
    }

    pub fn module_flat() -> Module {
        let mut m = Module::new();
        let mut body = Self::scan_prologue();
        // splice the scan loop into the guarded region
        if let dpcons_ir::Stmt::If(_, then, _) = &mut body[1] {
            then.extend(Self::scan_inline());
        }
        m.add(
            KernelBuilder::new("gc_scan_flat")
                .array("row")
                .array("col")
                .array("color")
                .array("scratch")
                .array("pri")
                .scalar("n")
                .body(body),
        );
        m.add(Self::assign_kernel());
        m
    }

    pub fn module_dp() -> Module {
        let mut m = Module::new();
        m.add(
            KernelBuilder::new("gc_child")
                .array("row")
                .array("col")
                .array("color")
                .array("scratch")
                .array("pri")
                .scalar("u")
                .body(vec![
                    let_("first", load(v("row"), v("u"))),
                    let_("deg", sub(load(v("row"), add(v("u"), i(1))), v("first"))),
                    for_step(
                        "j",
                        tid(),
                        v("deg"),
                        ntid(),
                        vec![
                            let_("nb", load(v("col"), add(v("first"), v("j")))),
                            when(
                                land(lt(load(v("color"), v("nb")), i(0)), ne(v("nb"), v("u"))),
                                vec![atomic_max(
                                    None,
                                    v("scratch"),
                                    v("u"),
                                    load(v("pri"), v("nb")),
                                )],
                            ),
                        ],
                    ),
                ]),
        );
        let mut body = Self::scan_prologue();
        if let dpcons_ir::Stmt::If(_, then, _) = &mut body[1] {
            then.push(if_(
                gt(v("deg"), v("thr")),
                vec![launch(
                    "gc_child",
                    i(1),
                    i(256),
                    vec![v("row"), v("col"), v("color"), v("scratch"), v("pri"), v("u")],
                )],
                Self::scan_inline(),
            ));
        }
        m.add(
            KernelBuilder::new("gc_scan")
                .array("row")
                .array("col")
                .array("color")
                .array("scratch")
                .array("pri")
                .scalar("n")
                .scalar("thr")
                .body(body),
        );
        m.add(Self::assign_kernel());
        m
    }

    /// `#pragma dp consldt(g) buffer(custom) work(u)`.
    pub fn directive(g: Granularity) -> Directive {
        Directive::new(g, &["u"])
    }
}

impl Benchmark for GraphColoring {
    fn name(&self) -> &'static str {
        "GC"
    }

    fn run(&self, variant: Variant, cfg: &RunConfig) -> Result<AppOutcome, AppError> {
        let g = &self.graph;
        let mut s = VariantSession::new(
            &Self::module_dp(),
            &Self::module_flat(),
            "gc_scan",
            &Self::directive,
            variant,
            cfg,
        )?;
        let row = s.alloc_array("row", g.row_ptr.clone());
        let col = s.alloc_array("col", g.col.clone());
        let color = s.alloc_array("color", vec![-1; g.n]);
        let scratch = s.alloc_array("scratch", vec![-1; g.n]);
        let pri = s.alloc_array("pri", self.pri.clone());
        let flag = s.alloc_array("flag", vec![0]);

        let n = g.n as i64;
        let block = 128u32;
        let grid = (g.n as u32).div_ceil(block).max(1);
        let mut round = 0i64;
        loop {
            match variant {
                Variant::Flat => s.launch_plain(
                    "gc_scan_flat",
                    &[row as i64, col as i64, color as i64, scratch as i64, pri as i64, n],
                    (grid, block),
                )?,
                _ => s.launch_entry(
                    "gc_scan",
                    &[
                        row as i64,
                        col as i64,
                        color as i64,
                        scratch as i64,
                        pri as i64,
                        n,
                        cfg.threshold,
                    ],
                    (grid, block),
                )?,
            }
            s.engine.mem.write(flag, 0, 0)?;
            s.launch_plain(
                "gc_assign",
                &[color as i64, scratch as i64, pri as i64, flag as i64, n, round],
                (grid, block),
            )?;
            if s.read(flag)?[0] == 0 {
                break;
            }
            round += 1;
            if round as usize > g.n + 2 {
                return Err(AppError::Driver("coloring failed to converge".to_string()));
            }
        }
        let out = s.read(color)?;
        Ok(s.finish(out, round as u32 + 1))
    }

    fn tune_model(&self) -> Option<crate::runner::TuneModel> {
        Some(crate::runner::TuneModel {
            module_dp: Self::module_dp(),
            parent: "gc_scan",
            directive: Self::directive,
        })
    }

    fn reference(&self) -> Vec<i64> {
        reference::graph_coloring(&self.graph, &self.pri).0
    }

    fn hash_inputs(&self, h: &mut dyn Hasher) {
        hash_graph(h, &self.graph);
        hash_words(h, &self.pri);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpcons_workloads::gen;

    fn app() -> GraphColoring {
        GraphColoring::new(gen::kron_like(9, 8.0, 17).symmetrize(), 3)
    }

    #[test]
    fn all_variants_match_reference() {
        let a = app();
        let cfg = RunConfig { threshold: 16, ..Default::default() };
        for variant in Variant::ALL {
            a.verify(variant, &cfg).unwrap_or_else(|e| panic!("{} failed: {e}", variant.label()));
        }
    }

    #[test]
    fn coloring_is_proper() {
        let a = app();
        let out = a.run(Variant::Consolidated(Granularity::Block), &RunConfig::default()).unwrap();
        assert!(dpcons_workloads::coloring_is_proper(&a.graph, &out.output));
    }
}
