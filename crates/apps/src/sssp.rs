//! Single-Source Shortest Path (SSSP) — paper Fig. 1(b).
//!
//! Iterative Bellman–Ford relaxation over CSR. Each GPU thread owns a node;
//! nodes whose adjacency list exceeds the threshold delegate the relaxation
//! loop to a child kernel (basic-dp), which the consolidation compiler then
//! aggregates. The host iterates until the change flag stays clear; the
//! fixpoint (true shortest distances) is unique, so every variant converges
//! to bit-identical output.

use std::hash::Hasher;

use dpcons_core::{Directive, Granularity};
use dpcons_ir::dsl::*;
use dpcons_ir::Module;
use dpcons_workloads::{reference, CsrGraph, INF};

use crate::runner::{
    hash_graph, AppError, AppOutcome, Benchmark, RunConfig, Variant, VariantSession,
};

pub struct Sssp {
    pub graph: CsrGraph,
    pub src: usize,
}

impl Sssp {
    pub fn new(graph: CsrGraph, src: usize) -> Sssp {
        assert!(graph.weight.is_some(), "SSSP needs an edge-weighted graph");
        Sssp { graph, src }
    }

    /// Relaxation of node `u`'s edges as straight-line IR (used inline by the
    /// flat kernel and the light path of the dp parent).
    fn relax_loop_inline() -> Vec<dpcons_ir::Stmt> {
        vec![for_(
            "j",
            i(0),
            v("deg"),
            vec![
                let_("e", add(v("first"), v("j"))),
                let_("dst", load(v("col"), v("e"))),
                let_("nd", add(v("du"), load(v("wgt"), v("e")))),
                atomic_min(Some("old"), v("dist"), v("dst"), v("nd")),
                when(lt(v("nd"), v("old")), vec![store(v("flag"), i(0), i(1))]),
            ],
        )]
    }

    /// Flat (no-dp) module: one thread per node, inline relaxation loop.
    pub fn module_flat() -> Module {
        let mut m = Module::new();
        m.add(
            KernelBuilder::new("sssp_flat")
                .array("row")
                .array("col")
                .array("wgt")
                .array("dist")
                .array("flag")
                .scalar("n")
                .body(vec![
                    let_("u", gtid()),
                    when(
                        lt(v("u"), v("n")),
                        vec![
                            let_("du", load(v("dist"), v("u"))),
                            when(lt(v("du"), i(INF)), {
                                let mut b = vec![
                                    let_("first", load(v("row"), v("u"))),
                                    let_("deg", sub(load(v("row"), add(v("u"), i(1))), v("first"))),
                                ];
                                b.extend(Self::relax_loop_inline());
                                b
                            }),
                        ],
                    ),
                ]),
        );
        m
    }

    /// Annotated basic-dp module (Fig. 1b): heavy nodes spawn a moldable
    /// solo-block child that relaxes their adjacency cooperatively.
    pub fn module_dp() -> Module {
        let mut m = Module::new();
        m.add(
            KernelBuilder::new("sssp_child")
                .array("row")
                .array("col")
                .array("wgt")
                .array("dist")
                .array("flag")
                .scalar("u")
                .body(vec![
                    let_("first", load(v("row"), v("u"))),
                    let_("deg", sub(load(v("row"), add(v("u"), i(1))), v("first"))),
                    let_("du", load(v("dist"), v("u"))),
                    for_step(
                        "j",
                        tid(),
                        v("deg"),
                        ntid(),
                        vec![
                            let_("e", add(v("first"), v("j"))),
                            let_("dst", load(v("col"), v("e"))),
                            let_("nd", add(v("du"), load(v("wgt"), v("e")))),
                            atomic_min(Some("old"), v("dist"), v("dst"), v("nd")),
                            when(lt(v("nd"), v("old")), vec![store(v("flag"), i(0), i(1))]),
                        ],
                    ),
                ]),
        );
        m.add(
            KernelBuilder::new("sssp_parent")
                .array("row")
                .array("col")
                .array("wgt")
                .array("dist")
                .array("flag")
                .scalar("n")
                .scalar("thr")
                .body(vec![
                    let_("u", gtid()),
                    when(
                        lt(v("u"), v("n")),
                        vec![
                            let_("du", load(v("dist"), v("u"))),
                            when(lt(v("du"), i(INF)), {
                                let mut b = vec![
                                    let_("first", load(v("row"), v("u"))),
                                    let_("deg", sub(load(v("row"), add(v("u"), i(1))), v("first"))),
                                ];
                                b.push(if_(
                                    gt(v("deg"), v("thr")),
                                    vec![launch(
                                        "sssp_child",
                                        i(1),
                                        i(256),
                                        vec![
                                            v("row"),
                                            v("col"),
                                            v("wgt"),
                                            v("dist"),
                                            v("flag"),
                                            v("u"),
                                        ],
                                    )],
                                    Self::relax_loop_inline(),
                                ));
                                b
                            }),
                        ],
                    ),
                ]),
        );
        m
    }

    /// `#pragma dp consldt(g) buffer(custom) work(u)`.
    pub fn directive(g: Granularity) -> Directive {
        Directive::new(g, &["u"])
    }
}

impl Benchmark for Sssp {
    fn name(&self) -> &'static str {
        "SSSP"
    }

    fn run(&self, variant: Variant, cfg: &RunConfig) -> Result<AppOutcome, AppError> {
        let g = &self.graph;
        let mut s = VariantSession::new(
            &Self::module_dp(),
            &Self::module_flat(),
            "sssp_parent",
            &Self::directive,
            variant,
            cfg,
        )?;
        let row = s.alloc_array("row", g.row_ptr.clone());
        let col = s.alloc_array("col", g.col.clone());
        let wgt = s.alloc_array(
            "wgt",
            g.weight.clone().ok_or(AppError::Driver("SSSP needs edge weights".into()))?,
        );
        let mut dist0 = vec![INF; g.n];
        dist0[self.src] = 0;
        let dist = s.alloc_array("dist", dist0);
        let flag = s.alloc_array("flag", vec![1]);

        let n = g.n as i64;
        let block = 128u32;
        let grid = (g.n as u32).div_ceil(block).max(1);
        let mut iters = 0u32;
        while s.read(flag)?[0] != 0 {
            s.engine.mem.write(flag, 0, 0)?;
            let args: Vec<i64> = match variant {
                Variant::Flat => {
                    vec![row as i64, col as i64, wgt as i64, dist as i64, flag as i64, n]
                }
                _ => vec![
                    row as i64,
                    col as i64,
                    wgt as i64,
                    dist as i64,
                    flag as i64,
                    n,
                    cfg.threshold,
                ],
            };
            match variant {
                Variant::Flat => s.launch_plain("sssp_flat", &args, (grid, block))?,
                _ => s.launch_entry("sssp_parent", &args, (grid, block))?,
            }
            iters += 1;
            if iters as usize > g.n + 2 {
                return Err(AppError::Driver("SSSP failed to converge".to_string()));
            }
        }
        let out = s.read(dist)?;
        Ok(s.finish(out, iters))
    }

    fn tune_model(&self) -> Option<crate::runner::TuneModel> {
        Some(crate::runner::TuneModel {
            module_dp: Self::module_dp(),
            parent: "sssp_parent",
            directive: Self::directive,
        })
    }

    fn reference(&self) -> Vec<i64> {
        reference::sssp(&self.graph, self.src)
    }

    fn hash_inputs(&self, h: &mut dyn Hasher) {
        hash_graph(h, &self.graph);
        h.write_u64(self.src as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpcons_workloads::gen;

    fn app() -> Sssp {
        Sssp::new(gen::citeseer_like(600, 8.0, 120, 21).with_weights(15, 5), 0)
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
    fn basic_dp_launches_many_children() {
        let a = app();
        let cfg = RunConfig { threshold: 8, ..Default::default() };
        let basic = a.run(Variant::BasicDp, &cfg).unwrap();
        let grid = a.run(Variant::Consolidated(Granularity::Grid), &cfg).unwrap();
        assert!(basic.report.device_launches > 20 * grid.report.device_launches);
        assert!(grid.report.total_cycles < basic.report.total_cycles);
    }

    #[test]
    fn star_graph_single_heavy_node() {
        let g = gen::star(300).with_weights(3, 9);
        let a = Sssp::new(g, 0);
        let cfg = RunConfig { threshold: 4, ..Default::default() };
        for variant in Variant::ALL {
            a.verify(variant, &cfg).unwrap_or_else(|e| panic!("{} failed: {e}", variant.label()));
        }
    }
}
