//! Host-side launch support for consolidated kernels.
//!
//! The consolidation transforms change what the host must do before a launch:
//! grid-level kernels receive a pre-allocated buffer pool and a global-barrier
//! counter, and consolidated recursive kernels are launched over a *seeded*
//! work buffer instead of the original root configuration. This module
//! encapsulates that setup so that applications (and tests) can launch any
//! transformed module uniformly.

use std::collections::HashMap;

use dpcons_sim::{ArrayId, Engine, KernelId, LaunchSpec, SimError};

use crate::occupancy::ConfigPolicy;
use crate::transform::TransformInfo;

/// Everything allocated for a consolidated host launch.
#[derive(Debug, Clone)]
pub struct PreparedLaunch {
    pub spec: LaunchSpec,
    /// Grid-level buffer pool (also the level pool for recursion).
    pub pool: Option<ArrayId>,
    /// Global-barrier counters (one per recursion level).
    pub counter: Option<ArrayId>,
    /// Host-seeded level-0 buffer for warp/block-level recursion.
    pub seed_buf: Option<ArrayId>,
    /// The parent grid size the barrier counter must be reset to.
    counter_init: i64,
    /// Seed items re-written by [`reset_launch`].
    seed_items: Vec<i64>,
    /// Pool words [`reset_launch`] zeroes: the buffer counts.
    pool_counts: Vec<usize>,
}

/// Number of barrier-counter slots allocated (device nesting limit + root).
const COUNTER_SLOTS: usize = 26;

/// Prepare a host launch of the consolidated entry kernel.
///
/// * `original_args` — the argument list of the *original* (basic-dp) host
///   launch of the annotated kernel.
/// * `original_config` — the original `(grid, block)` host configuration.
/// * `pool_words` — capacity of the grid-level pool when one is needed.
///
/// A grid-level pool smaller than the words the transformed kernels can
/// address fails here with [`SimError::HeapExhausted`] (kind
/// `__cons_pool`), before anything is allocated or launched, instead of as
/// an out-of-bounds fault mid-run.
pub fn prepare_launch(
    engine: &mut Engine,
    info: &TransformInfo,
    ids: &HashMap<String, KernelId>,
    original_args: &[i64],
    original_config: (u32, u32),
    pool_words: u64,
) -> Result<PreparedLaunch, SimError> {
    let entry_id = *ids.get(&info.entry).ok_or(SimError::UnknownKernel { id: usize::MAX })?;
    let parent_threads = original_config.0 as u64 * original_config.1 as u64;
    if let Some(needed) = info.pool_words_needed(parent_threads) {
        if needed > pool_words {
            return Err(SimError::HeapExhausted {
                kind: "__cons_pool",
                requested: needed,
                capacity: pool_words,
                in_use: 0,
            });
        }
    }

    // Count words past the end of the pool are never in bounds for the
    // kernels either, so there is nothing to reset there.
    let pool_counts: Vec<usize> = info
        .pool_count_offsets()
        .into_iter()
        .filter(|&o| o < pool_words)
        .map(|o| o as usize)
        .collect();

    if !info.recursive {
        let mut args = original_args.to_vec();
        let (mut pool, mut counter, mut counter_init) = (None, None, 0);
        if let Some(extras) = &info.grid_extras {
            let p = engine.mem.alloc_array("__cons_pool", pool_words as usize);
            let c = engine.mem.alloc_array(&extras.counter_param, COUNTER_SLOTS);
            counter_init = original_config.0 as i64;
            engine.mem.write(c, 0, counter_init)?;
            args.push(p as i64);
            args.push(c as i64);
            pool = Some(p);
            counter = Some(c);
        }
        return Ok(PreparedLaunch {
            spec: LaunchSpec::new(entry_id, original_config.0, original_config.1, args),
            pool,
            counter,
            seed_buf: None,
            counter_init,
            seed_items: Vec::new(),
            pool_counts,
        });
    }

    // Recursion: seed the level-0 buffer with one work item taken from the
    // original host arguments at the buffered positions.
    let seed_items: Vec<i64> = info.buffered_positions.iter().map(|&p| original_args[p]).collect();
    let mut args: Vec<i64> = info.passthrough_positions.iter().map(|&p| original_args[p]).collect();

    let (grid, block) = entry_config(info, 1);

    // Grid-level recursion levels share the pool; warp/block levels get a
    // seeded buffer.
    let mut prepared = match &info.grid_extras {
        Some(extras) => {
            let p = engine.mem.alloc_array("__cons_pool", pool_words as usize);
            let c = engine.mem.alloc_array(&extras.counter_param, COUNTER_SLOTS);
            args.push(p as i64);
            args.push(c as i64);
            args.push(0); // level
            PreparedLaunch {
                spec: LaunchSpec::new(entry_id, grid, block, args),
                pool: Some(p),
                counter: Some(c),
                seed_buf: None,
                counter_init: grid as i64,
                seed_items,
                pool_counts,
            }
        }
        None => {
            let cap = 1 + seed_items.len();
            let b = engine.mem.alloc_array("__cons_seed", cap.max(2));
            args.push(b as i64);
            args.push(0); // offset
            PreparedLaunch {
                spec: LaunchSpec::new(entry_id, grid, block, args),
                pool: None,
                counter: None,
                seed_buf: Some(b),
                counter_init: 0,
                seed_items,
                pool_counts,
            }
        }
    };
    reset_launch(engine, &mut prepared)?;
    Ok(prepared)
}

/// Reset the consolidation state before (re-)launching: zero the pool's
/// count words, reinitialize the barrier counters, and re-seed recursion work
/// items. Must be called between host launches that reuse a `PreparedLaunch`.
///
/// Only the pool words the kernels read before writing are reset: word 0 for
/// irregular loops, the count of every level buffer for recursion (then
/// level 0's count and items are seeded). The rest of the pool never needs
/// clearing. Every item slot is reserved by an `atomicAdd` on its buffer's
/// count and stored before the consolidated child reads it, the child reads
/// only slots below the count, and each level buffer's count is zeroed here
/// before the level that fills it runs. Pool pages no launch touches are
/// therefore never written by the host either.
pub fn reset_launch(engine: &mut Engine, p: &mut PreparedLaunch) -> Result<(), SimError> {
    if let Some(pool) = p.pool {
        for &o in &p.pool_counts {
            engine.mem.write(pool, o, 0)?;
        }
        if !p.seed_items.is_empty() {
            // One seeded work item: count = 1, its nv values right after.
            engine.mem.write(pool, 0, 1)?;
            for (j, &x) in p.seed_items.iter().enumerate() {
                engine.mem.write(pool, 1 + j, x)?;
            }
        }
    }
    if let Some(c) = p.counter {
        engine.mem.fill(c, 0)?;
        engine.mem.write(c, 0, p.counter_init)?;
    }
    if let Some(b) = p.seed_buf {
        engine.mem.fill(b, 0)?;
        engine.mem.write(b, 0, 1)?;
        for (j, &x) in p.seed_items.iter().enumerate() {
            engine.mem.write(b, 1 + j, x)?;
        }
    }
    engine.heap.reset();
    Ok(())
}

/// Host launch configuration for a consolidated recursive entry kernel
/// processing `items` seeded work items.
fn entry_config(info: &TransformInfo, items: u32) -> (u32, u32) {
    match (info.child_config, info.resolved_config) {
        (ConfigPolicy::OneToOne, _) => match info.child_class {
            crate::analysis::ChildClass::SoloThread => {
                (items.div_ceil(1024).max(1), items.clamp(1, 1024))
            }
            _ => (items.max(1), 256),
        },
        (_, Some((b, t))) => (b, t),
        (_, None) => (items.max(1), 256),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_slots_cover_nesting_limit() {
        assert!(COUNTER_SLOTS as u32 > dpcons_sim::GpuConfig::k20c().max_nesting_depth);
    }
}
