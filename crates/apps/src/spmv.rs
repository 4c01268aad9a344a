//! Sparse Matrix–Vector multiplication (SpMV) over CSR, fixed-point Q47.16.
//!
//! One thread per matrix row; rows longer than the threshold delegate the
//! dot product to a child kernel that accumulates partial products with
//! atomic adds (associative in fixed point, so every evaluation order gives
//! identical results).

use std::hash::Hasher;

use dpcons_core::{Directive, Granularity};
use dpcons_ir::dsl::*;
use dpcons_ir::Module;
use dpcons_workloads::{fixed, reference, CsrGraph};

use crate::runner::{
    hash_graph, hash_words, AppError, AppOutcome, Benchmark, RunConfig, Variant, VariantSession,
};

pub struct Spmv {
    pub matrix: CsrGraph,
    pub x: Vec<i64>,
}

impl Spmv {
    pub fn new(matrix: CsrGraph, x: Vec<i64>) -> Spmv {
        assert!(matrix.weight.is_some(), "SpMV needs matrix values");
        assert_eq!(matrix.n, x.len());
        Spmv { matrix, x }
    }

    /// Deterministic dense vector for tests/benches.
    pub fn default_x(n: usize) -> Vec<i64> {
        (0..n).map(|i| fixed::to_fixed(0.25 + (i % 7) as f64 * 0.5)).collect()
    }

    fn row_sum_inline() -> Vec<dpcons_ir::Stmt> {
        vec![
            let_("acc", i(0)),
            for_(
                "j",
                i(0),
                v("deg"),
                vec![
                    let_("e", add(v("first"), v("j"))),
                    assign(
                        "acc",
                        add(
                            v("acc"),
                            shr(
                                mul(load(v("val"), v("e")), load(v("x"), load(v("col"), v("e")))),
                                i(16),
                            ),
                        ),
                    ),
                ],
            ),
            atomic_add(None, v("y"), v("u"), v("acc")),
        ]
    }

    pub fn module_flat() -> Module {
        let mut m = Module::new();
        m.add(
            KernelBuilder::new("spmv_flat")
                .array("row")
                .array("col")
                .array("val")
                .array("x")
                .array("y")
                .scalar("n")
                .body(vec![
                    let_("u", gtid()),
                    when(lt(v("u"), v("n")), {
                        let mut b = vec![
                            let_("first", load(v("row"), v("u"))),
                            let_("deg", sub(load(v("row"), add(v("u"), i(1))), v("first"))),
                        ];
                        b.extend(Self::row_sum_inline());
                        b
                    }),
                ]),
        );
        m
    }

    pub fn module_dp() -> Module {
        let mut m = Module::new();
        m.add(
            KernelBuilder::new("spmv_child")
                .array("row")
                .array("col")
                .array("val")
                .array("x")
                .array("y")
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
                            let_("e", add(v("first"), v("j"))),
                            atomic_add(
                                None,
                                v("y"),
                                v("u"),
                                shr(
                                    mul(
                                        load(v("val"), v("e")),
                                        load(v("x"), load(v("col"), v("e"))),
                                    ),
                                    i(16),
                                ),
                            ),
                        ],
                    ),
                ]),
        );
        m.add(
            KernelBuilder::new("spmv_parent")
                .array("row")
                .array("col")
                .array("val")
                .array("x")
                .array("y")
                .scalar("n")
                .scalar("thr")
                .body(vec![
                    let_("u", gtid()),
                    when(lt(v("u"), v("n")), {
                        let mut b = vec![
                            let_("first", load(v("row"), v("u"))),
                            let_("deg", sub(load(v("row"), add(v("u"), i(1))), v("first"))),
                        ];
                        b.push(if_(
                            gt(v("deg"), v("thr")),
                            vec![launch(
                                "spmv_child",
                                i(1),
                                i(256),
                                vec![v("row"), v("col"), v("val"), v("x"), v("y"), v("u")],
                            )],
                            Self::row_sum_inline(),
                        ));
                        b
                    }),
                ]),
        );
        m
    }

    /// `#pragma dp consldt(g) buffer(custom) work(u)`.
    pub fn directive(g: Granularity) -> Directive {
        Directive::new(g, &["u"])
    }
}

impl Benchmark for Spmv {
    fn name(&self) -> &'static str {
        "SpMV"
    }

    fn run(&self, variant: Variant, cfg: &RunConfig) -> Result<AppOutcome, AppError> {
        let g = &self.matrix;
        let mut s = VariantSession::new(
            &Self::module_dp(),
            &Self::module_flat(),
            "spmv_parent",
            &Self::directive,
            variant,
            cfg,
        )?;
        let row = s.alloc_array("row", g.row_ptr.clone());
        let col = s.alloc_array("col", g.col.clone());
        let val = s.alloc_array(
            "val",
            g.weight.clone().ok_or(AppError::Driver("SpMV needs matrix values".into()))?,
        );
        let x = s.alloc_array("x", self.x.clone());
        let y = s.alloc_array("y", vec![0; g.n]);

        let n = g.n as i64;
        let block = 128u32;
        let grid = (g.n as u32).div_ceil(block).max(1);
        match variant {
            Variant::Flat => s.launch_plain(
                "spmv_flat",
                &[row as i64, col as i64, val as i64, x as i64, y as i64, n],
                (grid, block),
            )?,
            _ => s.launch_entry(
                "spmv_parent",
                &[row as i64, col as i64, val as i64, x as i64, y as i64, n, cfg.threshold],
                (grid, block),
            )?,
        }
        let out = s.read(y)?;
        Ok(s.finish(out, 1))
    }

    fn tune_model(&self) -> Option<crate::runner::TuneModel> {
        Some(crate::runner::TuneModel {
            module_dp: Self::module_dp(),
            parent: "spmv_parent",
            directive: Self::directive,
        })
    }

    fn reference(&self) -> Vec<i64> {
        reference::spmv(&self.matrix, &self.x)
    }

    fn hash_inputs(&self, h: &mut dyn Hasher) {
        hash_graph(h, &self.matrix);
        hash_words(h, &self.x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpcons_workloads::gen;

    fn app() -> Spmv {
        let m = gen::citeseer_like(500, 10.0, 100, 33).with_weights(1 << 18, 7);
        let x = Spmv::default_x(m.n);
        Spmv::new(m, x)
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
    fn single_launch_per_variant() {
        let a = app();
        let cfg = RunConfig::default();
        let out = a.run(Variant::Consolidated(Granularity::Grid), &cfg).unwrap();
        assert_eq!(out.report.host_launches, 1);
        assert_eq!(out.report.device_launches, 1, "grid level: one consolidated child");
    }
}
