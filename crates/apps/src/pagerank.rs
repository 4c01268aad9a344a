//! PageRank (push-style, fixed iterations, Q47.16 fixed point).
//!
//! Each iteration runs two kernels: a *push* kernel scattering each node's
//! rank share to its out-neighbors (the irregular loop — heavy nodes
//! delegate it to a child kernel under basic-dp), and a regular *apply*
//! kernel folding the accumulated contributions into the damped rank.
//! Addition is associative in fixed point, so all variants agree exactly.

use std::hash::Hasher;

use dpcons_core::{Directive, Granularity};
use dpcons_ir::dsl::*;
use dpcons_ir::Module;
use dpcons_workloads::{fixed, reference, CsrGraph};

use crate::runner::{
    hash_graph, AppError, AppOutcome, Benchmark, RunConfig, Variant, VariantSession,
};

pub const DEFAULT_ITERS: u32 = 10;

pub struct PageRank {
    pub graph: CsrGraph,
    pub iters: u32,
    pub alpha: i64,
}

impl PageRank {
    pub fn new(graph: CsrGraph, iters: u32) -> PageRank {
        PageRank { graph, iters, alpha: fixed::to_fixed(0.85) }
    }

    fn push_inline() -> Vec<dpcons_ir::Stmt> {
        vec![
            let_("c", div(load(v("rank"), v("u")), v("deg"))),
            for_(
                "j",
                i(0),
                v("deg"),
                vec![atomic_add(None, v("next"), load(v("col"), add(v("first"), v("j"))), v("c"))],
            ),
        ]
    }

    /// The regular apply step shared by all variants:
    /// `rank[v] = base + alpha * next[v]; next[v] = 0`.
    fn apply_kernel() -> dpcons_ir::Kernel {
        KernelBuilder::new("pr_apply")
            .array("rank")
            .array("next")
            .scalar("n")
            .scalar("base")
            .scalar("alpha")
            .body(vec![
                let_("u", gtid()),
                when(
                    lt(v("u"), v("n")),
                    vec![
                        store(
                            v("rank"),
                            v("u"),
                            add(v("base"), shr(mul(v("alpha"), load(v("next"), v("u"))), i(16))),
                        ),
                        store(v("next"), v("u"), i(0)),
                    ],
                ),
            ])
    }

    pub fn module_flat() -> Module {
        let mut m = Module::new();
        m.add(
            KernelBuilder::new("pr_push_flat")
                .array("row")
                .array("col")
                .array("rank")
                .array("next")
                .scalar("n")
                .body(vec![
                    let_("u", gtid()),
                    when(lt(v("u"), v("n")), {
                        let mut b = vec![
                            let_("first", load(v("row"), v("u"))),
                            let_("deg", sub(load(v("row"), add(v("u"), i(1))), v("first"))),
                        ];
                        b.push(when(gt(v("deg"), i(0)), Self::push_inline()));
                        b
                    }),
                ]),
        );
        m.add(Self::apply_kernel());
        m
    }

    pub fn module_dp() -> Module {
        let mut m = Module::new();
        m.add(
            KernelBuilder::new("pr_child")
                .array("row")
                .array("col")
                .array("rank")
                .array("next")
                .scalar("u")
                .body(vec![
                    let_("first", load(v("row"), v("u"))),
                    let_("deg", sub(load(v("row"), add(v("u"), i(1))), v("first"))),
                    let_("c", div(load(v("rank"), v("u")), v("deg"))),
                    for_step(
                        "j",
                        tid(),
                        v("deg"),
                        ntid(),
                        vec![atomic_add(
                            None,
                            v("next"),
                            load(v("col"), add(v("first"), v("j"))),
                            v("c"),
                        )],
                    ),
                ]),
        );
        m.add(
            KernelBuilder::new("pr_push")
                .array("row")
                .array("col")
                .array("rank")
                .array("next")
                .scalar("n")
                .scalar("thr")
                .body(vec![
                    let_("u", gtid()),
                    when(lt(v("u"), v("n")), {
                        let mut b = vec![
                            let_("first", load(v("row"), v("u"))),
                            let_("deg", sub(load(v("row"), add(v("u"), i(1))), v("first"))),
                        ];
                        b.push(when(
                            gt(v("deg"), i(0)),
                            vec![if_(
                                gt(v("deg"), v("thr")),
                                vec![launch(
                                    "pr_child",
                                    i(1),
                                    i(256),
                                    vec![v("row"), v("col"), v("rank"), v("next"), v("u")],
                                )],
                                Self::push_inline(),
                            )],
                        ));
                        b
                    }),
                ]),
        );
        m.add(Self::apply_kernel());
        m
    }

    /// `#pragma dp consldt(g) buffer(custom) work(u)`.
    pub fn directive(g: Granularity) -> Directive {
        Directive::new(g, &["u"])
    }
}

impl Benchmark for PageRank {
    fn name(&self) -> &'static str {
        "PageRank"
    }

    fn run(&self, variant: Variant, cfg: &RunConfig) -> Result<AppOutcome, AppError> {
        let g = &self.graph;
        let mut s = VariantSession::new(
            &Self::module_dp(),
            &Self::module_flat(),
            "pr_push",
            &Self::directive,
            variant,
            cfg,
        )?;
        let row = s.alloc_array("row", g.row_ptr.clone());
        let col = s.alloc_array("col", g.col.clone());
        let n64 = g.n.max(1) as i64;
        let rank = s.alloc_array("rank", vec![fixed::ONE / n64; g.n]);
        let next = s.alloc_array("next", vec![0; g.n]);
        let base = (fixed::ONE - self.alpha) / n64;

        let n = g.n as i64;
        let block = 128u32;
        let grid = (g.n as u32).div_ceil(block).max(1);
        for _ in 0..self.iters {
            match variant {
                Variant::Flat => s.launch_plain(
                    "pr_push_flat",
                    &[row as i64, col as i64, rank as i64, next as i64, n],
                    (grid, block),
                )?,
                _ => s.launch_entry(
                    "pr_push",
                    &[row as i64, col as i64, rank as i64, next as i64, n, cfg.threshold],
                    (grid, block),
                )?,
            }
            s.launch_plain(
                "pr_apply",
                &[rank as i64, next as i64, n, base, self.alpha],
                (grid, block),
            )?;
        }
        let out = s.read(rank)?;
        Ok(s.finish(out, self.iters))
    }

    fn tune_model(&self) -> Option<crate::runner::TuneModel> {
        Some(crate::runner::TuneModel {
            module_dp: Self::module_dp(),
            parent: "pr_push",
            directive: Self::directive,
        })
    }

    fn reference(&self) -> Vec<i64> {
        reference::pagerank(&self.graph, self.iters, self.alpha)
    }

    fn hash_inputs(&self, h: &mut dyn Hasher) {
        hash_graph(h, &self.graph);
        h.write_u64(self.iters as u64);
        h.write_i64(self.alpha);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpcons_workloads::gen;

    fn app() -> PageRank {
        PageRank::new(gen::citeseer_like(500, 8.0, 90, 44), 5)
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
    fn launch_counts_scale_with_iterations() {
        let a = app();
        let cfg = RunConfig { threshold: 8, ..Default::default() };
        let basic = a.run(Variant::BasicDp, &cfg).unwrap();
        let grid = a.run(Variant::Consolidated(Granularity::Grid), &cfg).unwrap();
        // Grid level: exactly one consolidated child per push iteration.
        assert_eq!(grid.report.device_launches, a.iters as u64);
        assert!(basic.report.device_launches > grid.report.device_launches * 10);
    }
}
