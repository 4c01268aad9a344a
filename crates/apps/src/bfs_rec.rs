//! Recursive Breadth-First Search (BFS-Rec).
//!
//! Label-correcting recursion: a kernel invocation processes the adjacency of
//! one node at BFS level `lvl`; every neighbor whose level it improves spawns
//! a recursive kernel (basic-dp). The level array converges to the unique
//! min fixpoint — true BFS distances — regardless of execution order, so all
//! variants agree exactly. The flat variant is the classic Harish–Narayanan
//! round-synchronous relaxation over all nodes.

use std::hash::Hasher;

use dpcons_core::{Directive, Granularity};
use dpcons_ir::dsl::*;
use dpcons_ir::Module;
use dpcons_workloads::{reference, CsrGraph, INF};

use crate::runner::{
    custom_pool_directive, hash_graph, AppError, AppOutcome, Benchmark, RunConfig, Variant,
    VariantSession,
};

pub struct BfsRec {
    pub graph: CsrGraph,
    pub src: usize,
}

impl BfsRec {
    pub fn new(graph: CsrGraph, src: usize) -> BfsRec {
        BfsRec { graph, src }
    }

    /// The recursive kernel (basic-dp and consolidation input).
    pub fn module_dp() -> Module {
        let mut m = Module::new();
        m.add(
            KernelBuilder::new("bfs_rec")
                .array("row")
                .array("col")
                .array("level")
                .scalar("u")
                .scalar("lvl")
                .body(vec![
                    let_("first", load(v("row"), v("u"))),
                    let_("deg", sub(load(v("row"), add(v("u"), i(1))), v("first"))),
                    for_step(
                        "j",
                        tid(),
                        v("deg"),
                        ntid(),
                        vec![
                            let_("vv", load(v("col"), add(v("first"), v("j")))),
                            atomic_min(Some("old"), v("level"), v("vv"), add(v("lvl"), i(1))),
                            when(
                                gt(v("old"), add(v("lvl"), i(1))),
                                vec![
                                    let_(
                                        "vdeg",
                                        sub(
                                            load(v("row"), add(v("vv"), i(1))),
                                            load(v("row"), v("vv")),
                                        ),
                                    ),
                                    when(
                                        gt(v("vdeg"), i(0)),
                                        vec![launch(
                                            "bfs_rec",
                                            i(1),
                                            min_(v("vdeg"), i(256)),
                                            vec![
                                                v("row"),
                                                v("col"),
                                                v("level"),
                                                v("vv"),
                                                add(v("lvl"), i(1)),
                                            ],
                                        )],
                                    ),
                                ],
                            ),
                        ],
                    ),
                ]),
        );
        m
    }

    /// Flat: round-synchronous relaxation over all nodes.
    pub fn module_flat() -> Module {
        let mut m = Module::new();
        m.add(
            KernelBuilder::new("bfs_flat")
                .array("row")
                .array("col")
                .array("level")
                .array("flag")
                .scalar("n")
                .scalar("round")
                .body(vec![
                    let_("u", gtid()),
                    when(
                        land(lt(v("u"), v("n")), eq(load(v("level"), v("u")), v("round"))),
                        vec![
                            let_("first", load(v("row"), v("u"))),
                            let_("deg", sub(load(v("row"), add(v("u"), i(1))), v("first"))),
                            for_(
                                "j",
                                i(0),
                                v("deg"),
                                vec![
                                    let_("vv", load(v("col"), add(v("first"), v("j")))),
                                    atomic_min(
                                        Some("old"),
                                        v("level"),
                                        v("vv"),
                                        add(v("round"), i(1)),
                                    ),
                                    when(
                                        gt(v("old"), add(v("round"), i(1))),
                                        vec![store(v("flag"), i(0), i(1))],
                                    ),
                                ],
                            ),
                        ],
                    ),
                ]),
        );
        m
    }

    /// `#pragma dp consldt(g) buffer(custom, perBufferSize: 1024 or 4096,
    /// totalSize: 2097152) work(vv)`.
    pub fn directive(g: Granularity) -> Directive {
        // A hub node's block can discover up to deg(hub) neighbors in one
        // fetched item, so BFS buffers are sized for the heavy tail.
        custom_pool_directive(g, "vv", if g == Granularity::Warp { 1024 } else { 4096 })
    }
}

impl Benchmark for BfsRec {
    fn name(&self) -> &'static str {
        "BFS-Rec"
    }

    fn run(&self, variant: Variant, cfg: &RunConfig) -> Result<AppOutcome, AppError> {
        let g = &self.graph;
        let mut s = VariantSession::new(
            &Self::module_dp(),
            &Self::module_flat(),
            "bfs_rec",
            &Self::directive,
            variant,
            cfg,
        )?;
        let row = s.alloc_array("row", g.row_ptr.clone());
        let col = s.alloc_array("col", g.col.clone());
        let mut lv0 = vec![INF; g.n];
        lv0[self.src] = 0;
        let level = s.alloc_array("level", lv0);

        let mut iters = 1u32;
        match variant {
            Variant::Flat => {
                let flag = s.alloc_array("flag", vec![0]);
                let n = g.n as i64;
                let block = 128u32;
                let grid = (g.n as u32).div_ceil(block).max(1);
                let mut round = 0i64;
                loop {
                    s.engine.mem.write(flag, 0, 0)?;
                    s.launch_plain(
                        "bfs_flat",
                        &[row as i64, col as i64, level as i64, flag as i64, n, round],
                        (grid, block),
                    )?;
                    if s.read(flag)?[0] == 0 {
                        break;
                    }
                    round += 1;
                    iters += 1;
                    if round as usize > g.n + 2 {
                        return Err(AppError::Driver("BFS failed to converge".to_string()));
                    }
                }
            }
            _ => {
                let srcdeg = self.graph.degree(self.src).clamp(1, 256) as u32;
                s.launch_entry(
                    "bfs_rec",
                    &[row as i64, col as i64, level as i64, self.src as i64, 0],
                    (1, srcdeg),
                )?;
            }
        }
        let out = s.read(level)?;
        Ok(s.finish(out, iters))
    }

    fn tune_model(&self) -> Option<crate::runner::TuneModel> {
        Some(crate::runner::TuneModel {
            module_dp: Self::module_dp(),
            parent: "bfs_rec",
            directive: Self::directive,
        })
    }

    fn reference(&self) -> Vec<i64> {
        reference::bfs_levels(&self.graph, self.src)
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

    fn app() -> BfsRec {
        // Kron-like graph as in the paper (BFS depth stays well below the
        // 24-level nesting limit).
        BfsRec::new(gen::kron_like(9, 10.0, 77), 0)
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
    fn consolidated_grid_launches_once_per_level() {
        let a = app();
        let depth = *a.reference().iter().filter(|&&l| l < INF).max().unwrap();
        let out = a.run(Variant::Consolidated(Granularity::Grid), &RunConfig::default()).unwrap();
        // One consolidated kernel per BFS level below the seed.
        assert!(out.report.device_launches <= depth as u64);
        assert!(out.report.max_depth as i64 <= depth);
    }

    #[test]
    fn chain_graph_recursion_depth_guard() {
        // A chain longer than the nesting limit must fault in basic-dp
        // (matches real CUDA behaviour at depth > 24)...
        let a = BfsRec::new(gen::chain(64), 0);
        let err = a.run(Variant::BasicDp, &RunConfig::default());
        assert!(err.is_err(), "nesting limit should trip");
        // ...while the flat variant handles any depth.
        let flat = a.verify(Variant::Flat, &RunConfig::default());
        assert!(flat.is_ok());
    }
}
