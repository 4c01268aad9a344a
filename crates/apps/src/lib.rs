//! # dpcons-apps — the seven IPDPS'16 benchmarks
//!
//! Each benchmark provides a flat (no-dp) kernel module, an annotated
//! basic-dp module following the paper's Fig. 1 template, a `#pragma dp`
//! directive, a host driver, and a CPU oracle. The consolidated variants are
//! **generated** from the basic-dp module by `dpcons-core` at run time — they
//! are never hand-written, exactly as in the paper's compiler workflow.
//!
//! | app | pattern | dataset (paper) |
//! |-----|---------|-----------------|
//! | [`sssp::Sssp`] | irregular loop | CiteSeer |
//! | [`spmv::Spmv`] | irregular loop | CiteSeer |
//! | [`pagerank::PageRank`] | irregular loop | CiteSeer |
//! | [`graph_coloring::GraphColoring`] | irregular loop | Kron_log16 |
//! | [`bfs_rec::BfsRec`] | parallel recursion | Kron_log16 |
//! | [`tree_heights::TreeHeights`] | parallel recursion | tree datasets |
//! | [`tree_descendants::TreeDescendants`] | parallel recursion | tree datasets |

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod bfs_rec;
pub mod datasets;
pub mod graph_coloring;
pub mod pagerank;
pub mod runner;
pub mod spmv;
pub mod sssp;
pub mod tree_descendants;
pub mod tree_heights;

pub use bfs_rec::BfsRec;
pub use datasets::Profile;
pub use graph_coloring::GraphColoring;
pub use pagerank::PageRank;
pub use runner::{
    AppError, AppOutcome, Benchmark, CaptureSet, RunConfig, TuneModel, TunedDirective, Variant,
    VariantSession,
};
pub use spmv::Spmv;
pub use sssp::Sssp;
pub use tree_descendants::TreeDescendants;
pub use tree_heights::TreeHeights;

/// Construct all seven benchmarks over a dataset profile (boxed, for uniform
/// iteration in the harness and the figure benches).
pub fn all_benchmarks(p: Profile) -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(Sssp::new(datasets::citeseer(p).with_weights(15, 0xD15), 0)),
        Box::new({
            let m = datasets::citeseer(p).with_weights(1 << 18, 0xA2);
            let x = Spmv::default_x(m.n);
            Spmv::new(m, x)
        }),
        Box::new(PageRank::new(datasets::citeseer(p), pagerank::DEFAULT_ITERS)),
        Box::new(GraphColoring::new(datasets::kron(p).symmetrize(), 0x6C)),
        Box::new(BfsRec::new(datasets::kron(p), 0)),
        Box::new(TreeHeights::new(datasets::tree1(p))),
        Box::new(TreeDescendants::new(datasets::tree2(p))),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpcons_core::{Directive, Granularity};

    #[test]
    fn app_directives_are_their_pragmas() {
        for g in Granularity::ALL {
            let l = g.label();
            let irregular = format!("#pragma dp consldt({l}) buffer(custom) work(u)");
            let pool = |pbs: u64, var: &str| {
                format!(
                    "#pragma dp consldt({l}) buffer(custom, perBufferSize: {pbs}, \
                     totalSize: 2097152) work({var})"
                )
            };
            let warp = g == Granularity::Warp;
            for (d, text) in [
                (Sssp::directive(g), irregular.clone()),
                (Spmv::directive(g), irregular.clone()),
                (PageRank::directive(g), irregular.clone()),
                (GraphColoring::directive(g), irregular.clone()),
                (BfsRec::directive(g), pool(if warp { 1024 } else { 4096 }, "vv")),
                (TreeHeights::directive(g), pool(if warp { 128 } else { 2048 }, "c")),
                (TreeDescendants::directive(g), pool(if warp { 128 } else { 2048 }, "c")),
            ] {
                assert_eq!(Directive::parse(&text), Ok(d), "{text}");
            }
        }
    }
}
