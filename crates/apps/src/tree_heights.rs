//! Tree Heights (TH) — parallel recursion per paper Fig. 1(c).
//!
//! A kernel invocation processes the children of one node at depth `d`:
//! leaf children atomically raise the global height to `d+1` (the leaf-node
//! work), interior children recurse. The flat variant is the host-driven
//! level-synchronous traversal with explicit frontier arrays (the classic
//! "flattened" form the paper compares against).

use std::hash::Hasher;

use dpcons_core::{Directive, Granularity};
use dpcons_ir::dsl::*;
use dpcons_ir::Module;
use dpcons_workloads::Tree;

use crate::runner::{
    custom_pool_directive, hash_tree, AppError, AppOutcome, Benchmark, RunConfig, Variant,
    VariantSession,
};

pub struct TreeHeights {
    pub tree: Tree,
}

impl TreeHeights {
    pub fn new(tree: Tree) -> TreeHeights {
        TreeHeights { tree }
    }

    pub fn module_dp() -> Module {
        let mut m = Module::new();
        m.add(
            KernelBuilder::new("th_rec")
                .array("childptr")
                .array("children")
                .array("height")
                .scalar("node")
                .scalar("dpth")
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
                            let_(
                                "cdeg",
                                sub(
                                    load(v("childptr"), add(v("c"), i(1))),
                                    load(v("childptr"), v("c")),
                                ),
                            ),
                            if_(
                                eq(v("cdeg"), i(0)),
                                // Leaf-node work: raise the height.
                                vec![atomic_max(None, v("height"), i(0), add(v("dpth"), i(1)))],
                                vec![
                                    atomic_max(None, v("height"), i(0), add(v("dpth"), i(1))),
                                    launch(
                                        "th_rec",
                                        i(1),
                                        min_(v("cdeg"), i(256)),
                                        vec![
                                            v("childptr"),
                                            v("children"),
                                            v("height"),
                                            v("c"),
                                            add(v("dpth"), i(1)),
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

    /// Flat: host-driven frontier traversal. `frontier[0]` holds the count,
    /// nodes follow.
    pub fn module_flat() -> Module {
        let mut m = Module::new();
        m.add(
            KernelBuilder::new("th_flat")
                .array("childptr")
                .array("children")
                .array("height")
                .array("frontier")
                .array("fnext")
                .scalar("dpth")
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
                                    let_(
                                        "cdeg",
                                        sub(
                                            load(v("childptr"), add(v("c"), i(1))),
                                            load(v("childptr"), v("c")),
                                        ),
                                    ),
                                    atomic_max(None, v("height"), i(0), add(v("dpth"), i(1))),
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

    fn run_flat(&self, s: &mut VariantSession) -> Result<(i64, u32), AppError> {
        let t = &self.tree;
        let cp = s.alloc_array("childptr", t.child_ptr.clone());
        let ch = s.alloc_array("children", t.children.clone());
        let height = s.alloc_array("height", vec![0]);
        let cap = t.n + 1;
        let fa = s.alloc_array("frontier_a", {
            let mut f = vec![0i64; cap];
            f[0] = 1;
            f[1] = t.root;
            f
        });
        let fb = s.alloc_array("frontier_b", vec![0i64; cap]);
        let (mut cur, mut nxt) = (fa, fb);
        let mut dpth = 0i64;
        let mut iters = 0u32;
        loop {
            let fcnt = s.read(cur)?[0];
            if fcnt == 0 {
                break;
            }
            let block = 128u32;
            let grid = (fcnt as u32).div_ceil(block).max(1);
            s.engine.mem.write(nxt, 0, 0)?;
            s.launch_plain(
                "th_flat",
                &[cp as i64, ch as i64, height as i64, cur as i64, nxt as i64, dpth],
                (grid, block),
            )?;
            std::mem::swap(&mut cur, &mut nxt);
            dpth += 1;
            iters += 1;
            if iters as usize > t.n + 2 {
                return Err(AppError::Driver("flat traversal failed to terminate".into()));
            }
        }
        Ok((s.read(height)?[0], iters))
    }

    fn run_rec(&self, s: &mut VariantSession) -> Result<(i64, u32), AppError> {
        let t = &self.tree;
        let cp = s.alloc_array("childptr", t.child_ptr.clone());
        let ch = s.alloc_array("children", t.children.clone());
        let height = s.alloc_array("height", vec![0]);
        let rootdeg = t.degree(t.root as usize).clamp(1, 256) as u32;
        s.launch_entry("th_rec", &[cp as i64, ch as i64, height as i64, t.root, 0], (1, rootdeg))?;
        Ok((s.read(height)?[0], 1))
    }
}

impl Benchmark for TreeHeights {
    fn name(&self) -> &'static str {
        "TH"
    }

    fn run(&self, variant: Variant, cfg: &RunConfig) -> Result<AppOutcome, AppError> {
        let mut s = VariantSession::new(
            &Self::module_dp(),
            &Self::module_flat(),
            "th_rec",
            &Self::directive,
            variant,
            cfg,
        )?;
        let (h, iters) = match variant {
            Variant::Flat => self.run_flat(&mut s)?,
            _ => self.run_rec(&mut s)?,
        };
        Ok(s.finish(vec![h], iters))
    }

    fn tune_model(&self) -> Option<crate::runner::TuneModel> {
        Some(crate::runner::TuneModel {
            module_dp: Self::module_dp(),
            parent: "th_rec",
            directive: Self::directive,
        })
    }

    fn reference(&self) -> Vec<i64> {
        vec![self.tree.height()]
    }

    fn hash_inputs(&self, h: &mut dyn Hasher) {
        hash_tree(h, &self.tree);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpcons_workloads::{generate_tree, TreeParams};

    fn app() -> TreeHeights {
        TreeHeights::new(generate_tree(TreeParams::dataset1_scaled(4, 9, 13)))
    }

    #[test]
    fn all_variants_match_reference() {
        let a = app();
        let cfg = RunConfig::default();
        for variant in Variant::ALL {
            a.verify(variant, &cfg).unwrap_or_else(|e| panic!("{} failed: {e}", variant.label()));
        }
    }

    #[test]
    fn dense_tree_all_variants() {
        let a = TreeHeights::new(generate_tree(TreeParams::dataset2_scaled(3, 6, 29)));
        for variant in Variant::ALL {
            a.verify(variant, &RunConfig::default())
                .unwrap_or_else(|e| panic!("{} failed: {e}", variant.label()));
        }
    }

    #[test]
    fn single_node_tree_height_zero() {
        let a = TreeHeights::new(generate_tree(TreeParams {
            depth: 0,
            min_children: 2,
            max_children: 3,
            fill_prob: 1.0,
            seed: 0,
        }));
        for variant in Variant::ALL {
            let out = a.run(variant, &RunConfig::default()).unwrap();
            assert_eq!(out.output, vec![0], "{}", variant.label());
        }
    }
}
