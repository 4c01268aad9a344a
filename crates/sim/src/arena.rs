//! Capture arena: recycled buffer capacities for the functional phase.
//!
//! Every kernel execution the functional phase captures materializes one
//! [`ExecRecord`] holding a `Vec<BlockResult>`, each block a
//! `Vec<SegmentResult>`, each segment a `Vec<LaunchSpec>` — four levels of
//! heap traffic per record that the tuner pays again for every candidate it
//! evaluates. A [`CaptureArena`] breaks that churn: the record vector and
//! all three buffer shapes live in pools owned by the arena, and
//! [`CaptureArena::reset`] scavenges the *capacities* of a consumed capture
//! back into those pools instead of freeing them, so the next capture on the
//! same arena allocates nothing once the pools are warm.
//!
//! The records themselves are unchanged — [`CaptureArena::records`] exposes
//! the plain `&[ExecRecord]` slice every replay/summarize consumer already
//! takes, and a capture into a reused arena is bit-identical to a capture
//! into a fresh one (pinned by `crates/sim/tests/replay_differential.rs`).
//!
//! Reuse rules:
//!
//! * an arena may be reused for any number of captures, of any kernels, in
//!   any order — `reset` empties every buffer it recycles, so no state leaks
//!   between captures;
//! * the records of a capture are valid until the next `reset`/`capture_into`
//!   call on the same arena; callers that must retain a DAG (e.g. the
//!   capture-mode runner building a `CaptureSet`) take ownership via
//!   [`CaptureArena::take_records`] instead;
//! * an arena is single-threaded state; `Engine::launch` keeps one per
//!   worker thread so tuner waves reuse capacities across candidates
//!   without coordination.

use std::sync::OnceLock;

use crate::engine::ExecRecord;
use crate::kernel::{BlockResult, LaunchSpec, SegmentResult};
use dpcons_obs as obs;

/// `sim.capture.arena_reuses`: captures that found a warm arena (a reset of
/// a non-empty arena, i.e. one previous capture's buffers recycled).
fn arena_reuses_counter() -> &'static obs::Counter {
    static C: OnceLock<&'static obs::Counter> = OnceLock::new();
    C.get_or_init(|| obs::counter("sim.capture.arena_reuses"))
}

/// `sim.capture.arena_bytes`: bytes of buffer capacity scavenged back into
/// arena pools by [`CaptureArena::reset`] — heap traffic the next capture
/// does not pay.
fn arena_bytes_counter() -> &'static obs::Counter {
    static C: OnceLock<&'static obs::Counter> = OnceLock::new();
    C.get_or_init(|| obs::counter("sim.capture.arena_bytes"))
}

/// Recycled segment/launch buffer capacities, threaded into
/// [`crate::BlockCtx`] so kernel bodies (the IR executors' `assemble_block`)
/// can pop warm buffers instead of allocating fresh ones per block.
#[derive(Debug, Default)]
pub struct CapturePools {
    segments: Vec<Vec<SegmentResult>>,
    launches: Vec<Vec<LaunchSpec>>,
}

impl CapturePools {
    /// Pop a recycled (empty, capacity-bearing) segment buffer, or a fresh
    /// one when the pool is cold.
    pub fn take_segments(&mut self) -> Vec<SegmentResult> {
        self.segments.pop().unwrap_or_default()
    }

    /// Pop a recycled (empty, capacity-bearing) launch buffer, or a fresh
    /// one when the pool is cold.
    pub fn take_launches(&mut self) -> Vec<LaunchSpec> {
        self.launches.pop().unwrap_or_default()
    }
}

/// Owns a captured `ExecRecord` DAG plus the recycled buffer pools that make
/// repeated captures allocation-free. See the module docs for lifetime and
/// reuse rules.
#[derive(Debug, Default)]
pub struct CaptureArena {
    pub(crate) records: Vec<ExecRecord>,
    pub(crate) blocks_pool: Vec<Vec<BlockResult>>,
    pub(crate) pools: CapturePools,
    reuses: u64,
}

impl CaptureArena {
    pub fn new() -> CaptureArena {
        CaptureArena::default()
    }

    /// The captured DAG, in functional (BFS) execution order — the same
    /// slice shape `Engine::replay_timing_on` and `trace::summarize` consume.
    pub fn records(&self) -> &[ExecRecord] {
        &self.records
    }

    /// Times this arena was reset while holding a previous capture (i.e.
    /// captures that started with warm pools).
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// Take ownership of the captured records, leaving the pools intact but
    /// cold (the taken buffers escape with the records). For callers that
    /// must retain a DAG beyond the next capture.
    pub fn take_records(&mut self) -> Vec<ExecRecord> {
        std::mem::take(&mut self.records)
    }

    /// Discard the held capture, scavenging every buffer capacity back into
    /// the pools so the next capture reuses it. Safe to call on an empty
    /// arena (a no-op that recycles nothing).
    pub fn reset(&mut self) {
        if self.records.is_empty() {
            return;
        }
        self.reuses += 1;
        let mut bytes = 0usize;
        for rec in self.records.drain(..) {
            let mut blocks = rec.blocks;
            for blk in &mut blocks {
                let mut segments = std::mem::take(&mut blk.segments);
                for seg in &mut segments {
                    let mut launches = std::mem::take(&mut seg.launches);
                    if launches.capacity() > 0 {
                        launches.clear();
                        bytes += launches.capacity() * std::mem::size_of::<LaunchSpec>();
                        self.pools.launches.push(launches);
                    }
                }
                if segments.capacity() > 0 {
                    segments.clear();
                    bytes += segments.capacity() * std::mem::size_of::<SegmentResult>();
                    self.pools.segments.push(segments);
                }
            }
            if blocks.capacity() > 0 {
                blocks.clear();
                bytes += blocks.capacity() * std::mem::size_of::<BlockResult>();
                self.blocks_pool.push(blocks);
            }
        }
        arena_reuses_counter().inc();
        arena_bytes_counter().add(bytes as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> LaunchSpec {
        LaunchSpec::new(0, 1, 32, vec![1, 2, 3])
    }

    fn one_record() -> ExecRecord {
        let seg = SegmentResult { launches: vec![spec(), spec()], ..Default::default() };
        ExecRecord {
            spec: spec(),
            depth: 0,
            parent: None,
            blocks: vec![BlockResult { segments: vec![seg] }],
            regs_per_thread: 32,
            shared_bytes: 0,
        }
    }

    #[test]
    fn reset_scavenges_capacities_into_pools() {
        let mut a = CaptureArena::new();
        a.records.push(one_record());
        a.reset();
        assert!(a.records().is_empty());
        assert_eq!(a.reuses(), 1);
        let segs = a.pools.take_segments();
        assert!(segs.is_empty() && segs.capacity() >= 1, "recycled empty capacity");
        let launches = a.pools.take_launches();
        assert!(launches.is_empty() && launches.capacity() >= 2);
        assert!(a.blocks_pool.pop().is_some());
    }

    #[test]
    fn reset_on_empty_arena_is_a_noop() {
        let mut a = CaptureArena::new();
        a.reset();
        assert_eq!(a.reuses(), 0);
        assert!(a.pools.segments.is_empty() && a.pools.launches.is_empty());
    }

    #[test]
    fn take_records_leaves_a_reusable_arena() {
        let mut a = CaptureArena::new();
        a.records.push(one_record());
        let taken = a.take_records();
        assert_eq!(taken.len(), 1);
        assert!(a.records().is_empty());
        a.reset(); // no-op, nothing held
        assert_eq!(a.reuses(), 0);
    }
}
