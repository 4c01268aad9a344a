//! Seeded benchmark inputs.
//!
//! A run's inputs are a panel of draws of the seven apps. Draw 0 of seed
//! [`PRESET_SEED`] is exactly the `dpcons_apps::datasets` presets that
//! `all_benchmarks` uses (pinned by [`check_presets`]); every other draw
//! redraws the same shapes — same sizes, degrees and tree parameters — with
//! generator seeds mixed from the workload seed and the draw index. Inputs
//! are built only through the public `dpcons_workloads` generators and app
//! constructors.
//!
//! The simulated work of one draw varies a lot with its seed (a graph
//! coloring may need half the rounds, a half-filled tree may be twice as
//! large), so a run averages over several draws to keep its figures
//! comparable from seed to seed.

use std::time::Instant;

use dpcons_apps::{
    all_benchmarks, pagerank, Benchmark, BfsRec, GraphColoring, PageRank, Profile, Spmv, Sssp,
    TreeDescendants, TreeHeights,
};
use dpcons_workloads::{gen, generate_tree, CsrGraph, Tree, TreeParams};

/// The seed whose inputs are the repository's dataset presets.
pub const PRESET_SEED: u64 = 0;

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One draw of a run's panel: the workload seed and the draw index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Draw {
    pub seed: u64,
    pub index: u64,
}

/// The generator seed replacing the preset seed `preset` in draw `d`.
fn mix(preset: u64, d: Draw) -> u64 {
    if d == (Draw { seed: PRESET_SEED, index: 0 }) {
        preset
    } else {
        splitmix(preset ^ splitmix(splitmix(d.seed) ^ d.index))
    }
}

fn citeseer(p: Profile, seed: Draw) -> CsrGraph {
    match p {
        Profile::Test => gen::citeseer_like(1200, 8.0, 150, mix(0xC17E, seed)),
        Profile::Bench => gen::citeseer_like(8000, 16.0, 1199, mix(0xC17E, seed)),
    }
}

fn kron(p: Profile, seed: Draw) -> CsrGraph {
    match p {
        Profile::Test => gen::kron_like(9, 8.0, mix(0x5C10, seed)),
        Profile::Bench => gen::kron_like(13, 16.0, mix(0x5C10, seed)),
    }
}

fn tree1(p: Profile, seed: Draw) -> Tree {
    let s = mix(0x7E31, seed);
    generate_tree(match p {
        Profile::Test => TreeParams::dataset1_scaled(4, 9, s),
        Profile::Bench => {
            TreeParams { depth: 3, min_children: 33, max_children: 64, fill_prob: 0.5, seed: s }
        }
    })
}

fn tree2(p: Profile, seed: Draw) -> Tree {
    let s = mix(0x7E32, seed);
    generate_tree(match p {
        Profile::Test => TreeParams::dataset2_scaled(3, 6, s),
        Profile::Bench => {
            TreeParams { depth: 3, min_children: 33, max_children: 48, fill_prob: 1.0, seed: s }
        }
    })
}

/// The seven apps of one draw, in `all_benchmarks` order.
pub fn build_apps(p: Profile, seed: Draw) -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(Sssp::new(citeseer(p, seed).with_weights(15, mix(0xD15, seed)), 0)),
        Box::new({
            let m = citeseer(p, seed).with_weights(1 << 18, mix(0xA2, seed));
            let x = Spmv::default_x(m.n);
            Spmv::new(m, x)
        }),
        Box::new(PageRank::new(citeseer(p, seed), pagerank::DEFAULT_ITERS)),
        Box::new(GraphColoring::new(kron(p, seed).symmetrize(), mix(0x6C, seed))),
        Box::new(BfsRec::new(kron(p, seed), 0)),
        Box::new(TreeHeights::new(tree1(p, seed))),
        Box::new(TreeDescendants::new(tree2(p, seed))),
    ]
}

/// Built inputs: the apps of every draw (filtered to the selected names)
/// with their op labels (`app#draw`) and CPU oracles, plus how long each
/// half of the set-up took.
pub struct Inputs {
    pub apps: Vec<Box<dyn Benchmark>>,
    pub labels: Vec<String>,
    pub oracles: Vec<Vec<i64>>,
    /// Dataset generation and app construction, ms.
    pub gen_ms: f64,
    /// CPU oracle computation, ms.
    pub oracle_ms: f64,
}

/// Generate the datasets of `draws` draws, build the apps and compute
/// their oracles — the benchmark's set-up. `only` keeps the named apps
/// (empty = all seven).
pub fn setup(p: Profile, seed: u64, draws: u64, only: &[String]) -> Inputs {
    let t = Instant::now();
    let (apps, labels): (Vec<Box<dyn Benchmark>>, Vec<String>) = {
        let _s = dpcons_obs::span("bench.setup.gen");
        (0..draws)
            .flat_map(|index| {
                build_apps(p, Draw { seed, index }).into_iter().map(move |a| {
                    let label = format!("{}#{index}", a.name());
                    (a, label)
                })
            })
            .filter(|(a, _)| only.is_empty() || only.iter().any(|n| n == a.name()))
            .unzip()
    };
    let gen_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let oracles = {
        let _s = dpcons_obs::span("bench.setup.oracle");
        apps.iter().map(|a| a.reference()).collect()
    };
    let oracle_ms = t.elapsed().as_secs_f64() * 1e3;
    Inputs { apps, labels, oracles, gen_ms, oracle_ms }
}

/// Check that draw 0 of [`PRESET_SEED`] reproduces `all_benchmarks(p)`:
/// same app order and identical `dpcons_tune::fingerprint` (a hash of the
/// oracle output, itself a function of the dataset). Returns one line per
/// mismatch.
pub fn check_presets(p: Profile) -> Vec<String> {
    let ours = build_apps(p, Draw { seed: PRESET_SEED, index: 0 });
    let theirs = all_benchmarks(p);
    let mut bad = Vec::new();
    if ours.len() != theirs.len() {
        bad.push(format!("{} apps, presets have {}", ours.len(), theirs.len()));
    }
    for (a, b) in ours.iter().zip(&theirs) {
        let (fa, fb) = (dpcons_tune::fingerprint(a.as_ref()), dpcons_tune::fingerprint(b.as_ref()));
        if a.name() != b.name() || fa != fb {
            bad.push(format!("{} {fa:016x} vs preset {} {fb:016x}", a.name(), b.name()));
        }
    }
    bad
}

/// The app names, in `all_benchmarks` order.
pub const APP_NAMES: [&str; 7] = ["SSSP", "SpMV", "PageRank", "GC", "BFS-Rec", "TH", "TD"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_seed_reproduces_the_dataset_presets() {
        assert!(check_presets(Profile::Test).is_empty(), "{:?}", check_presets(Profile::Test));
    }

    #[test]
    fn other_seeds_redraw_the_same_shapes() {
        let draw = |seed, index| Draw { seed, index };
        let a = citeseer(Profile::Test, draw(PRESET_SEED, 0));
        for d in [draw(PRESET_SEED, 1), draw(7, 0), draw(7, 1)] {
            let b = citeseer(Profile::Test, d);
            assert_eq!(a.n, b.n);
            assert_ne!(a.col, b.col, "{d:?}");
        }
        let names: Vec<_> =
            build_apps(Profile::Test, draw(7, 2)).iter().map(|a| a.name()).collect();
        assert_eq!(names, APP_NAMES);
    }
}
