//! The metric catalog: every metric the benchmark reports, with its unit
//! and where it is reported. `BENCHMARK.json` declares exactly the
//! [`END_TO_END`] and [`PER_LAYER`] names; the crate's tests pin that.

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// End-to-end metrics, measured with tracing off and reported by every
/// `--trace 0` run of every workload. The two `norm` times are wall times
/// normalised to a fixed host speed (see `host::calibration_ms`).
pub const END_TO_END: [MetricDef; 4] =
    [m("setup_s", "s"), m("pass_norm_s", "s"), m("op_norm_p50_ms", "ms"), m("peak_rss_mb", "MB")];

/// Per-layer metrics, reported by every `--trace 1` run. A metric of a
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: [MetricDef; 47] = [
    // workloads
    m("workloads.gen_ms", "ms"),
    m("workloads.oracle_ms", "ms"),
    // core
    m("core.consolidate_us", "us"),
    m("core.reset_launch_us", "us"),
    m("core.reset_launch_first_us", "us"),
    m("core.reset_bytes", "bytes"),
    m("core.grid_host_launches", "count"),
    // ir
    m("ir.install_us", "us"),
    m("ir.bytecode_ops", "count"),
    // sim
    m("sim.capture_ms", "ms"),
    m("sim.capture_us_per_kernel", "us"),
    m("sim.functional_execs", "count"),
    m("sim.replay_ms", "ms"),
    m("sim.replays", "count"),
    m("sim.replay_us_per_kernel", "us"),
    m("sim.arena_bytes", "bytes"),
    m("sim.arena_reuses", "count"),
    m("sim.kernels", "count"),
    m("sim.cycles", "cycles"),
    m("sim.speedup_geomean", "ratio"),
    // apps
    m("apps.host_launches", "count"),
    m("apps.launch_ms", "ms"),
    m("apps.outside_launch_ms", "ms"),
    // tune
    m("tune.sweep_ms", "ms"),
    m("tune.wave_ms", "ms"),
    m("tune.candidate_ms_p50", "ms"),
    m("tune.candidate_ms_p90", "ms"),
    m("tune.pool_busy_pct", "%"),
    m("tune.evaluated", "count"),
    m("tune.pruned", "count"),
    m("tune.collapsed", "count"),
    m("tune.faulted", "count"),
    m("tune.useful_pct", "%"),
    m("tune.gain_geomean", "ratio"),
    m("tune.cache.hits", "count"),
    m("tune.cache.misses", "count"),
    m("tune.cache.writes", "count"),
    m("tune.cache.warm_p50_ms", "ms"),
    m("tune.cache.warm_p90_ms", "ms"),
    m("tune.replay.batch_ms", "ms"),
    m("tune.replay.batch_us_per_kernel", "us"),
    m("fleet.captures", "count"),
    m("fleet.retimings", "count"),
    m("fleet.retimings_per_s", "1/s"),
    // obs
    m("obs.trace_overhead_pct", "%"),
    m("obs.dropped_spans", "count"),
    m("obs.unattributed_pct", "%"),
];

/// Whether `name` is a legal metric or workload name: it starts with a
/// letter or digit and is at most 64 letters, digits, `_`, `.` and `-`.
pub fn legal_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a legal unit: at most 16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn legal_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The unit of a declared metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(PER_LAYER.iter()).find(|d| d.name == name).map(|d| d.unit)
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` of `xs` (0 for an empty slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Geometric mean of positive ratios (0 when there are none).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_helpers() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[], 0.9), 0.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
