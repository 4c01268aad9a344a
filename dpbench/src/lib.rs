//! `dpbench` — the dpcons benchmark: four workloads (`matrix-test`,
//! `matrix-bench`, `tune`, `fleet`) driven by one closed-loop client, with
//! end-to-end metrics from untraced passes and per-layer attribution from a
//! separate traced run. See `README.md` in this directory.

pub mod catalog;
pub mod host;
pub mod inputs;
pub mod layers;
pub mod reference;
pub mod run;
pub mod workload;
