//! The tuner's result type and its deterministic on-disk form.
//!
//! A [`TuneReport`] lists every enumerated candidate with what happened to it
//! (evaluated, pruned, failed, or skipped by the search budget) plus baseline
//! runs, and names the winner. The textual serialization is the results-cache
//! format: byte-for-byte reproducible, order-preserving, with `f64` metrics
//! stored as IEEE bit patterns so a cache round trip is exact.

use crate::knobs::Knobs;

/// Profile metrics of one evaluated candidate (full app run).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metrics {
    pub cycles: u64,
    pub device_launches: u64,
    pub warp_exec_efficiency: f64,
    pub achieved_occupancy: f64,
    /// Whether the run's output matched the CPU oracle. Candidates that
    /// corrupt results (e.g. undersized buffers) are never ranked.
    pub output_ok: bool,
}

/// What the search did with one candidate.
#[derive(Debug, Clone, PartialEq)]
pub enum Status {
    /// Rejected up front without running (reason recorded).
    Pruned(String),
    /// Ran to completion.
    Evaluated(Metrics),
    /// The run itself errored (transform or simulator fault).
    Failed(String),
    /// Not evaluated: the search budget stopped the sweep first.
    Skipped,
    /// The evaluation panicked; the panic was isolated to this candidate
    /// (payload recorded) and the rest of the sweep continued.
    Panicked(String),
    /// The watchdog stopped the run: the functional fuel budget
    /// ([`crate::Budget::fuel`]) was exhausted or the wall-clock soft
    /// deadline ([`crate::Budget::max_candidate_ms`]) passed.
    TimedOut(String),
}

impl Status {
    /// Whether this outcome is a fault the sweep survived (panicked, timed
    /// out, or errored) rather than a normal evaluation/prune/skip.
    pub fn is_fault(&self) -> bool {
        matches!(self, Status::Failed(_) | Status::Panicked(_) | Status::TimedOut(_))
    }
}

/// One enumerated candidate and its outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateOutcome {
    pub knobs: Knobs,
    pub status: Status,
}

impl CandidateOutcome {
    pub fn metrics(&self) -> Option<&Metrics> {
        match &self.status {
            Status::Evaluated(m) => Some(m),
            _ => None,
        }
    }
}

/// Ranked result of one directive autotuning sweep.
#[derive(Debug, Clone)]
pub struct TuneReport {
    pub app: String,
    pub gpu: String,
    /// Dataset fingerprint (hash of the app name and its host inputs).
    pub fingerprint: u64,
    /// Full cache key (app + dataset + device + space + budget).
    pub key: u64,
    /// Baseline cycles: `no-dp`, `basic-dp` (when requested).
    pub baselines: Vec<(String, u64)>,
    /// Every candidate in deterministic search order.
    pub candidates: Vec<CandidateOutcome>,
    /// Index of the winning candidate (feasible, oracle-exact, min cycles).
    pub best: Option<usize>,
    pub evaluated: usize,
    pub pruned: usize,
    pub failed: usize,
    pub skipped: usize,
    /// Candidates whose evaluation panicked (isolated, sweep continued).
    pub panicked: usize,
    /// Candidates stopped by the fuel/deadline watchdog.
    pub timed_out: usize,
    /// Redundant grid-level combinations collapsed before the sweep (buffer
    /// allocator and per-buffer size do not reach grid-level codegen).
    pub collapsed: usize,
    /// True when this report came out of the results cache rather than a
    /// fresh sweep. Not serialized; ignored by [`TuneReport::eq`].
    pub from_cache: bool,
}

impl PartialEq for TuneReport {
    fn eq(&self, other: &Self) -> bool {
        self.app == other.app
            && self.gpu == other.gpu
            && self.fingerprint == other.fingerprint
            && self.key == other.key
            && self.baselines == other.baselines
            && self.candidates == other.candidates
            && self.best == other.best
            && self.evaluated == other.evaluated
            && self.pruned == other.pruned
            && self.failed == other.failed
            && self.skipped == other.skipped
            && self.panicked == other.panicked
            && self.timed_out == other.timed_out
            && self.collapsed == other.collapsed
    }
}

impl TuneReport {
    pub fn best_outcome(&self) -> Option<&CandidateOutcome> {
        self.best.map(|i| &self.candidates[i])
    }

    pub fn best_knobs(&self) -> Option<Knobs> {
        self.best_outcome().map(|c| c.knobs)
    }

    pub fn best_cycles(&self) -> Option<u64> {
        self.best_outcome().and_then(|c| c.metrics()).map(|m| m.cycles)
    }

    /// Cycles of a named baseline, if it was measured.
    pub fn baseline(&self, label: &str) -> Option<u64> {
        self.baselines.iter().find(|(l, _)| l == label).map(|&(_, c)| c)
    }

    /// Cycles of the evaluated candidate with exactly these knobs.
    pub fn cycles_for(&self, knobs: &Knobs) -> Option<u64> {
        self.candidates
            .iter()
            .find(|c| &c.knobs == knobs)
            .and_then(|c| c.metrics())
            .map(|m| m.cycles)
    }

    /// Total faulted candidates (panicked + timed out + failed).
    pub fn fault_count(&self) -> usize {
        self.panicked + self.timed_out + self.failed
    }

    /// Candidates whose outcome was a fault, with their indices.
    pub fn faulted(&self) -> impl Iterator<Item = (usize, &CandidateOutcome)> {
        self.candidates.iter().enumerate().filter(|(_, c)| c.status.is_fault())
    }

    // ------------------------------------------------------ serialization --

    /// Deterministic textual form (the cache file format).
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        s.push_str("dpcons-tune v2\n");
        s.push_str(&format!("app {}\n", self.app));
        s.push_str(&format!("gpu {}\n", self.gpu));
        s.push_str(&format!("fingerprint {:016x}\n", self.fingerprint));
        s.push_str(&format!("key {:016x}\n", self.key));
        for (label, cycles) in &self.baselines {
            s.push_str(&format!("baseline {label} {cycles}\n"));
        }
        for c in &self.candidates {
            s.push_str(&format!("candidate {} ", c.knobs.label()));
            match &c.status {
                Status::Evaluated(m) => s.push_str(&format!(
                    "ok {} {} {:016x} {:016x} {}\n",
                    m.cycles,
                    m.device_launches,
                    m.warp_exec_efficiency.to_bits(),
                    m.achieved_occupancy.to_bits(),
                    u8::from(m.output_ok),
                )),
                Status::Pruned(msg) => {
                    s.push_str(&format!("pruned {}\n", sanitize(msg)));
                }
                Status::Failed(msg) => {
                    s.push_str(&format!("failed {}\n", sanitize(msg)));
                }
                Status::Skipped => s.push_str("skipped\n"),
                Status::Panicked(msg) => {
                    s.push_str(&format!("panicked {}\n", sanitize(msg)));
                }
                Status::TimedOut(msg) => {
                    s.push_str(&format!("timedout {}\n", sanitize(msg)));
                }
            }
        }
        match self.best {
            Some(i) => s.push_str(&format!("best {i}\n")),
            None => s.push_str("best -\n"),
        }
        s.push_str(&format!(
            "counts {} {} {} {} {} {} {}\n",
            self.evaluated,
            self.pruned,
            self.failed,
            self.skipped,
            self.panicked,
            self.timed_out,
            self.collapsed
        ));
        s.push_str("end\n");
        s
    }

    /// Parse [`TuneReport::to_text`] output. `from_cache` is set to `true`.
    pub fn from_text(text: &str) -> Result<TuneReport, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty cache entry")?;
        if header != "dpcons-tune v2" {
            return Err(format!("unknown cache version `{header}`"));
        }
        let mut app = None;
        let mut gpu = None;
        let mut fingerprint = None;
        let mut key = None;
        let mut baselines = Vec::new();
        let mut candidates = Vec::new();
        let mut best: Option<Option<usize>> = None;
        let mut counts = None;
        let mut saw_end = false;
        for line in lines {
            let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
            match tag {
                "app" => app = Some(rest.to_string()),
                "gpu" => gpu = Some(rest.to_string()),
                "fingerprint" => {
                    fingerprint = Some(u64::from_str_radix(rest, 16).map_err(|e| e.to_string())?)
                }
                "key" => key = Some(u64::from_str_radix(rest, 16).map_err(|e| e.to_string())?),
                "baseline" => {
                    let (label, cycles) =
                        rest.rsplit_once(' ').ok_or_else(|| format!("bad baseline `{rest}`"))?;
                    baselines.push((
                        label.to_string(),
                        cycles.parse().map_err(|e: std::num::ParseIntError| e.to_string())?,
                    ));
                }
                "candidate" => candidates.push(parse_candidate(rest)?),
                "best" => {
                    best = Some(match rest {
                        "-" => None,
                        i => Some(i.parse().map_err(|e: std::num::ParseIntError| e.to_string())?),
                    })
                }
                "counts" => {
                    let ns: Vec<usize> = rest
                        .split_whitespace()
                        .map(|n| n.parse().map_err(|e: std::num::ParseIntError| e.to_string()))
                        .collect::<Result<_, _>>()?;
                    if ns.len() != 7 {
                        return Err(format!("bad counts line `{rest}`"));
                    }
                    counts = Some((ns[0], ns[1], ns[2], ns[3], ns[4], ns[5], ns[6]));
                }
                "end" => saw_end = true,
                other => return Err(format!("unknown cache line tag `{other}`")),
            }
        }
        if !saw_end {
            return Err("truncated cache entry (no `end` marker)".into());
        }
        let (evaluated, pruned, failed, skipped, panicked, timed_out, collapsed) =
            counts.ok_or("missing counts line")?;
        let best = best.ok_or("missing best line")?;
        if let Some(i) = best {
            if i >= candidates.len() {
                return Err(format!("best index {i} out of range"));
            }
        }
        Ok(TuneReport {
            app: app.ok_or("missing app line")?,
            gpu: gpu.ok_or("missing gpu line")?,
            fingerprint: fingerprint.ok_or("missing fingerprint line")?,
            key: key.ok_or("missing key line")?,
            baselines,
            candidates,
            best,
            evaluated,
            pruned,
            failed,
            skipped,
            panicked,
            timed_out,
            collapsed,
            from_cache: true,
        })
    }
}

fn sanitize(msg: &str) -> String {
    msg.replace(['\n', '\r'], " ")
}

fn parse_candidate(rest: &str) -> Result<CandidateOutcome, String> {
    let (knobs_s, rest) =
        rest.split_once(' ').ok_or_else(|| format!("bad candidate line `{rest}`"))?;
    let knobs = Knobs::parse(knobs_s)?;
    let (kind, tail) = rest.split_once(' ').unwrap_or((rest, ""));
    let status = match kind {
        "ok" => {
            let f: Vec<&str> = tail.split_whitespace().collect();
            if f.len() != 5 {
                return Err(format!("bad metrics `{tail}`"));
            }
            Status::Evaluated(Metrics {
                cycles: f[0].parse().map_err(|e: std::num::ParseIntError| e.to_string())?,
                device_launches: f[1]
                    .parse()
                    .map_err(|e: std::num::ParseIntError| e.to_string())?,
                warp_exec_efficiency: f64::from_bits(
                    u64::from_str_radix(f[2], 16).map_err(|e| e.to_string())?,
                ),
                achieved_occupancy: f64::from_bits(
                    u64::from_str_radix(f[3], 16).map_err(|e| e.to_string())?,
                ),
                output_ok: f[4] == "1",
            })
        }
        "pruned" => Status::Pruned(tail.to_string()),
        "failed" => Status::Failed(tail.to_string()),
        "skipped" => Status::Skipped,
        "panicked" => Status::Panicked(tail.to_string()),
        "timedout" => Status::TimedOut(tail.to_string()),
        other => return Err(format!("unknown candidate status `{other}`")),
    };
    Ok(CandidateOutcome { knobs, status })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpcons_core::Granularity;
    use dpcons_sim::AllocKind;

    fn sample() -> TuneReport {
        TuneReport {
            app: "SSSP".into(),
            gpu: "K20c-like".into(),
            fingerprint: 0xDEADBEEF12345678,
            key: 42,
            baselines: vec![("no-dp".into(), 1000), ("basic-dp".into(), 90_000)],
            candidates: vec![
                CandidateOutcome {
                    knobs: Knobs {
                        granularity: Granularity::Grid,
                        alloc: AllocKind::PreAlloc,
                        per_buffer_size: None,
                        config: None,
                    },
                    status: Status::Evaluated(Metrics {
                        cycles: 500,
                        device_launches: 12,
                        warp_exec_efficiency: 0.9137,
                        achieved_occupancy: 0.417,
                        output_ok: true,
                    }),
                },
                CandidateOutcome {
                    knobs: Knobs {
                        granularity: Granularity::Warp,
                        alloc: AllocKind::Default,
                        per_buffer_size: Some(4),
                        config: Some((1, 2048)),
                    },
                    status: Status::Pruned("block dimension 2048 exceeds limit 1024".into()),
                },
                CandidateOutcome {
                    knobs: Knobs {
                        granularity: Granularity::Block,
                        alloc: AllocKind::Halloc,
                        per_buffer_size: Some(64),
                        config: None,
                    },
                    status: Status::Skipped,
                },
                CandidateOutcome {
                    knobs: Knobs {
                        granularity: Granularity::Block,
                        alloc: AllocKind::PreAlloc,
                        per_buffer_size: Some(64),
                        config: None,
                    },
                    status: Status::Panicked("index out of bounds: the len is 4".into()),
                },
                CandidateOutcome {
                    knobs: Knobs {
                        granularity: Granularity::Warp,
                        alloc: AllocKind::PreAlloc,
                        per_buffer_size: Some(8),
                        config: None,
                    },
                    status: Status::TimedOut("fuel exhausted: 64-step budget".into()),
                },
            ],
            best: Some(0),
            evaluated: 1,
            pruned: 1,
            failed: 0,
            skipped: 1,
            panicked: 1,
            timed_out: 1,
            collapsed: 2,
            from_cache: false,
        }
    }

    #[test]
    fn text_roundtrip_is_exact() {
        let r = sample();
        let parsed = TuneReport::from_text(&r.to_text()).unwrap();
        assert!(parsed.from_cache);
        assert_eq!(parsed, r, "equality ignores from_cache");
        // And the re-serialization is byte-identical.
        assert_eq!(parsed.to_text(), r.to_text());
    }

    #[test]
    fn accessors_find_best_and_baselines() {
        let r = sample();
        assert_eq!(r.best_cycles(), Some(500));
        assert_eq!(r.best_knobs().unwrap().granularity, Granularity::Grid);
        assert_eq!(r.baseline("basic-dp"), Some(90_000));
        assert_eq!(r.baseline("nope"), None);
    }

    #[test]
    fn fault_accessors_count_and_enumerate() {
        let r = sample();
        assert_eq!(r.fault_count(), 2);
        let faulted: Vec<usize> = r.faulted().map(|(i, _)| i).collect();
        assert_eq!(faulted, vec![3, 4]);
        assert!(r.candidates[3].status.is_fault());
        assert!(!r.candidates[0].status.is_fault());
    }

    #[test]
    fn corrupt_entries_are_rejected() {
        assert!(TuneReport::from_text("").is_err());
        assert!(TuneReport::from_text("dpcons-tune v1\n").is_err(), "stale schema is rejected");
        let r = sample();
        let truncated = r.to_text().replace("end\n", "");
        assert!(TuneReport::from_text(&truncated).is_err());
        let bad_best = r.to_text().replace("best 0", "best 99");
        assert!(TuneReport::from_text(&bad_best).is_err());
    }
}
