//! Tree Descendants (TD) — parallel recursion per paper Fig. 1(c).
//!
//! Counts the descendants of the root: every visited child increments a
//! global counter atomically; interior children recurse. TD is the benchmark
//! the paper uses for the kernel-configuration study (Fig. 6).

use std::hash::Hasher;

use dpcons_core::{Directive, Granularity};
use dpcons_ir::dsl::*;
use dpcons_ir::Module;
use dpcons_workloads::Tree;

use crate::runner::{
    custom_pool_directive, hash_tree, AppError, AppOutcome, Benchmark, RunConfig, Variant,
    VariantSession,
};

pub struct TreeDescendants {
    pub tree: Tree,
}

impl TreeDescendants {
    pub fn new(tree: Tree) -> TreeDescendants {
        TreeDescendants { tree }
    }

    pub fn module_dp() -> Module {
        let mut m = Module::new();
        m.add(
            KernelBuilder::new("td_rec")
                .array("childptr")
                .array("children")
                .array("ndesc")
                .scalar("node")
                .body(vec![
                    let_("first", load(v("childptr"), v("node"))),
                    let_("cnt", sub(load(v("childptr"), add(v("node"), i(1))), v("first"))),
                    for_step(
                        "j",
                        tid(),
                        v("cnt"),
                        ntid(),
                        vec![
                            let_("c", load(v("children"), add(v("first"), v("j")))),
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
                                    "td_rec",
                                    i(1),
                                    min_(v("cdeg"), i(256)),
                                    vec![v("childptr"), v("children"), v("ndesc"), v("c")],
                                )],
                            ),
                        ],
                    ),
                ]),
        );
        m
    }

    pub fn module_flat() -> Module {
        let mut m = Module::new();
        m.add(
            KernelBuilder::new("td_flat")
                .array("childptr")
                .array("children")
                .array("ndesc")
                .array("frontier")
                .array("fnext")
                .body(vec![
                    let_("fcnt", load(v("frontier"), i(0))),
                    let_("t", gtid()),
                    when(
                        lt(v("t"), v("fcnt")),
                        vec![
                            let_("node", load(v("frontier"), add(i(1), v("t")))),
                            let_("first", load(v("childptr"), v("node"))),
                            let_("cnt", sub(load(v("childptr"), add(v("node"), i(1))), v("first"))),
                            for_(
                                "j",
                                i(0),
                                v("cnt"),
                                vec![
                                    let_("c", load(v("children"), add(v("first"), v("j")))),
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
                                        vec![
                                            atomic_add(Some("slot"), v("fnext"), i(0), i(1)),
                                            store(v("fnext"), add(i(1), v("slot")), v("c")),
                                        ],
                                    ),
                                ],
                            ),
                        ],
                    ),
                ]),
        );
        m
    }

    /// `#pragma dp consldt(g) buffer(custom, perBufferSize: 128 or 2048,
    /// totalSize: 2097152) work(c)`.
    pub fn directive(g: Granularity) -> Directive {
        // Recursion self-balances: deep levels spread items over many
        // kernels, so per-buffer counts stay small. Warp buffers follow the
        // paper's totalThread-proportional prediction.
        custom_pool_directive(g, "c", if g == Granularity::Warp { 128 } else { 2048 })
    }
}

impl Benchmark for TreeDescendants {
    fn name(&self) -> &'static str {
        "TD"
    }

    fn run(&self, variant: Variant, cfg: &RunConfig) -> Result<AppOutcome, AppError> {
        let t = &self.tree;
        let mut s = VariantSession::new(
            &Self::module_dp(),
            &Self::module_flat(),
            "td_rec",
            &Self::directive,
            variant,
            cfg,
        )?;
        let cp = s.alloc_array("childptr", t.child_ptr.clone());
        let ch = s.alloc_array("children", t.children.clone());
        let nd = s.alloc_array("ndesc", vec![0]);
        let mut iters = 1u32;
        match variant {
            Variant::Flat => {
                let cap = t.n + 1;
                let fa = s.alloc_array("frontier_a", {
                    let mut f = vec![0i64; cap];
                    f[0] = 1;
                    f[1] = t.root;
                    f
                });
                let fb = s.alloc_array("frontier_b", vec![0i64; cap]);
                let (mut cur, mut nxt) = (fa, fb);
                iters = 0;
                loop {
                    let fcnt = s.read(cur)?[0];
                    if fcnt == 0 {
                        break;
                    }
                    let block = 128u32;
                    let grid = (fcnt as u32).div_ceil(block).max(1);
                    s.engine.mem.write(nxt, 0, 0)?;
                    s.launch_plain(
                        "td_flat",
                        &[cp as i64, ch as i64, nd as i64, cur as i64, nxt as i64],
                        (grid, block),
                    )?;
                    std::mem::swap(&mut cur, &mut nxt);
                    iters += 1;
                    if iters as usize > t.n + 2 {
                        return Err(AppError::Driver("flat traversal failed to terminate".into()));
                    }
                }
            }
            _ => {
                let rootdeg = t.degree(t.root as usize).clamp(1, 256) as u32;
                s.launch_entry("td_rec", &[cp as i64, ch as i64, nd as i64, t.root], (1, rootdeg))?;
            }
        }
        let out = s.read(nd)?;
        Ok(s.finish(out, iters))
    }

    fn tune_model(&self) -> Option<crate::runner::TuneModel> {
        Some(crate::runner::TuneModel {
            module_dp: Self::module_dp(),
            parent: "td_rec",
            directive: Self::directive,
        })
    }

    fn reference(&self) -> Vec<i64> {
        vec![self.tree.descendants()]
    }

    fn hash_inputs(&self, h: &mut dyn Hasher) {
        hash_tree(h, &self.tree);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpcons_workloads::{generate_tree, TreeParams};

    #[test]
    fn all_variants_match_reference_on_both_datasets() {
        for (name, params) in [
            ("dataset1", TreeParams::dataset1_scaled(4, 9, 23)),
            ("dataset2", TreeParams::dataset2_scaled(3, 6, 23)),
        ] {
            let a = TreeDescendants::new(generate_tree(params));
            for variant in Variant::ALL {
                a.verify(variant, &RunConfig::default())
                    .unwrap_or_else(|e| panic!("{name}/{} failed: {e}", variant.label()));
            }
        }
    }

    #[test]
    fn grid_recursion_launch_count_equals_interior_depth() {
        let a = TreeDescendants::new(generate_tree(TreeParams::dataset2_scaled(3, 6, 31)));
        let out = a.run(Variant::Consolidated(Granularity::Grid), &RunConfig::default()).unwrap();
        assert_eq!(out.output, a.reference());
        // One consolidated launch per level below the root's children.
        assert!(out.report.device_launches <= a.tree.height() as u64);
    }

    #[test]
    fn basic_dp_launch_count_equals_interior_nodes() {
        let a = TreeDescendants::new(generate_tree(TreeParams::dataset1_scaled(3, 6, 37)));
        let out = a.run(Variant::BasicDp, &RunConfig::default()).unwrap();
        let interior_below_root =
            (0..a.tree.n).filter(|&x| x != a.tree.root as usize && a.tree.degree(x) > 0).count();
        assert_eq!(out.report.device_launches as usize, interior_below_root);
    }
}
