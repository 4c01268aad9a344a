//! An undersized grid-level pool is a typed error, never a run-time fault.
//!
//! `dpcons_core::prepare_launch` compares the pool words the consolidated
//! kernels can address with `RunConfig::pool_words` before the first
//! launch. Every app at grid granularity, over pools too small for some of
//! them, must therefore either match its CPU oracle exactly or fail up
//! front with `HeapExhausted` on `__cons_pool` — an out-of-bounds access to
//! the pool mid-run is the defect this pins.

use dpcons_apps::{all_benchmarks, AppError, Profile, RunConfig, Variant};
use dpcons_core::Granularity;
use dpcons_sim::SimError;

#[test]
fn undersized_grid_pools_fail_typed_before_launch_or_run_exactly() {
    let mut rejected = Vec::new();
    for app in all_benchmarks(Profile::Test) {
        let expected = app.reference();
        for pool_words in [1u64 << 16, 1 << 18] {
            let cfg = RunConfig { pool_words, ..RunConfig::default() };
            let ctx = format!("{} at pool_words = {pool_words}", app.name());
            match app.run(Variant::Consolidated(Granularity::Grid), &cfg) {
                Ok(out) => assert_eq!(out.output, expected, "{ctx}: output differs from oracle"),
                Err(AppError::Sim(SimError::HeapExhausted {
                    kind, requested, capacity, ..
                })) => {
                    assert_eq!(kind, "__cons_pool", "{ctx}");
                    assert_eq!(capacity, pool_words, "{ctx}");
                    assert!(requested > pool_words, "{ctx}: rejected a pool that fits");
                    rejected.push(ctx);
                }
                Err(e) => panic!("{ctx}: expected oracle output or a typed pool error, got {e}"),
            }
        }
    }
    // The recursive apps need 25 level buffers of ~84k words each, so the
    // sweep must actually exercise the typed-error path.
    assert!(
        rejected.iter().any(|c| c.starts_with("BFS-Rec")),
        "no pool was rejected: {rejected:?}"
    );
}
