//! Fault-tolerant remapping via replacement chains (§4.3.3, Fig. 9).
//!
//! When a core holding LLM weights fails at run time, Ouroboros does not
//! re-run the MIQP. Instead it configures the cores spanning from the faulty
//! core to the nearest core holding KV cache into a *replacement chain*: the
//! KV core's cache is evicted (those sequences will be recomputed), and every
//! core in the chain hands its weights to the next core, so the faulty core's
//! tile ends up on its neighbour and the last weight core spills into the
//! freed KV core. The whole operation is local and sub-millisecond.

use crate::problem::Assignment;
use ouro_hw::{CoreId, WaferGeometry};

/// Result of a replacement-chain remap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemapOutcome {
    /// The chain of cores, starting at the failed core and ending at the KV
    /// core that absorbs the displaced weights.
    pub chain: Vec<CoreId>,
    /// The KV core whose cache was evicted to make room.
    pub evicted_kv_core: Option<CoreId>,
    /// The updated assignment (same tile order as the input).
    pub new_assignment: Assignment,
    /// Number of tiles whose core changed.
    pub moved_tiles: usize,
}

/// Errors from replacement-chain remapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RemapError {
    /// There are no KV cores to absorb the displaced weights.
    NoKvCores,
    /// The reported faulty core (or a listed KV core) does not exist on the
    /// wafer at all — a stale or corrupted fault report. Previously this
    /// panicked deep inside the geometry lookup; callers driving remaps from
    /// runtime fault streams need a recoverable error instead.
    CoreNotOnWafer(CoreId),
}

impl std::fmt::Display for RemapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemapError::NoKvCores => write!(f, "no kv cores available to absorb displaced weights"),
            RemapError::CoreNotOnWafer(c) => write!(f, "{c} is outside the wafer's core grid"),
        }
    }
}

impl std::error::Error for RemapError {}

/// Remaps `assignment` around a run-time failure of `failed`.
///
/// If the failed core holds no weights (it was a KV or idle core) the
/// assignment is returned unchanged — only KV recomputation is needed, which
/// is the caller's concern.
///
/// # Errors
///
/// Returns [`RemapError::NoKvCores`] when `kv_cores` is empty but the failed
/// core holds weights, and [`RemapError::CoreNotOnWafer`] when the failed
/// core (or any listed KV core) is not a core of `geometry` — a fault
/// report that cannot refer to real hardware must not panic mid-remap.
pub fn remap_with_chain(
    geometry: &WaferGeometry,
    assignment: &Assignment,
    kv_cores: &[CoreId],
    failed: CoreId,
) -> Result<RemapOutcome, RemapError> {
    let total = geometry.total_cores();
    if failed.0 >= total {
        return Err(RemapError::CoreNotOnWafer(failed));
    }
    if let Some(bad) = kv_cores.iter().find(|c| c.0 >= total) {
        return Err(RemapError::CoreNotOnWafer(*bad));
    }
    let holds_weights = assignment.core.contains(&failed);
    if !holds_weights {
        return Ok(RemapOutcome {
            chain: vec![failed],
            evicted_kv_core: kv_cores.contains(&failed).then_some(failed),
            new_assignment: assignment.clone(),
            moved_tiles: 0,
        });
    }
    // Nearest KV core by Manhattan distance (excluding the failed core).
    let target = kv_cores
        .iter()
        .copied()
        .filter(|c| *c != failed)
        .min_by_key(|c| geometry.manhattan(failed, *c))
        .ok_or(RemapError::NoKvCores)?;

    // The chain walks from the failed core to the target along an XY path,
    // restricted to cores that currently hold weights (plus the target): each
    // weight core hands its tile to the next link.
    let weight_cores: std::collections::BTreeSet<CoreId> = assignment.core.iter().copied().collect();
    let mut chain = vec![failed];
    let mut cur = geometry.coord(failed);
    let goal = geometry.coord(target);
    while cur != goal {
        cur = if cur.row != goal.row {
            ouro_hw::CoreCoord {
                row: if cur.row < goal.row { cur.row + 1 } else { cur.row - 1 },
                col: cur.col,
            }
        } else {
            ouro_hw::CoreCoord {
                row: cur.row,
                col: if cur.col < goal.col { cur.col + 1 } else { cur.col - 1 },
            }
        };
        let id = geometry.id(cur);
        if weight_cores.contains(&id) || id == target {
            chain.push(id);
        }
    }
    if *chain.last().expect("chain contains the failed core") != target {
        chain.push(target);
    }

    // Shift tiles along the chain: the tile on chain[k] moves to chain[k+1].
    let mut new_assignment = assignment.clone();
    let mut moved = 0;
    for k in (0..chain.len() - 1).rev() {
        let from = chain[k];
        let to = chain[k + 1];
        for core in new_assignment.core.iter_mut() {
            if *core == from {
                *core = to;
                moved += 1;
            }
        }
    }
    Ok(RemapOutcome { chain, evicted_kv_core: Some(target), new_assignment, moved_tiles: moved })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ouro_hw::WaferGeometry;

    fn setup() -> (WaferGeometry, Assignment, Vec<CoreId>) {
        let g = WaferGeometry::tiny(1, 1, 4, 4);
        // Weights on cores 0..8, KV cores at 12..16.
        let assignment = Assignment { core: (0..8).map(CoreId).collect() };
        let kv: Vec<CoreId> = (12..16).map(CoreId).collect();
        (g, assignment, kv)
    }

    #[test]
    fn failure_of_a_non_weight_core_is_a_noop() {
        let (g, a, kv) = setup();
        let out = remap_with_chain(&g, &a, &kv, CoreId(10)).unwrap();
        assert_eq!(out.new_assignment, a);
        assert_eq!(out.moved_tiles, 0);
        assert_eq!(out.evicted_kv_core, None);
    }

    #[test]
    fn failure_of_a_kv_core_evicts_only_that_cache() {
        let (g, a, kv) = setup();
        let out = remap_with_chain(&g, &a, &kv, CoreId(13)).unwrap();
        assert_eq!(out.new_assignment, a);
        assert_eq!(out.evicted_kv_core, Some(CoreId(13)));
    }

    #[test]
    fn weight_core_failure_shifts_tiles_to_a_kv_core() {
        let (g, a, kv) = setup();
        let failed = CoreId(5);
        let out = remap_with_chain(&g, &a, &kv, failed).unwrap();
        // The failed core no longer appears in the assignment.
        assert!(!out.new_assignment.core.contains(&failed));
        // Exactly one KV core was sacrificed and now holds weights.
        let evicted = out.evicted_kv_core.unwrap();
        assert!(kv.contains(&evicted));
        assert!(out.new_assignment.core.contains(&evicted));
        assert!(out.moved_tiles >= 1);
        // The chain starts at the failure and ends at the evicted KV core.
        assert_eq!(*out.chain.first().unwrap(), failed);
        assert_eq!(*out.chain.last().unwrap(), evicted);
        // No duplicates were introduced.
        let unique: std::collections::BTreeSet<_> = out.new_assignment.core.iter().collect();
        assert_eq!(unique.len(), out.new_assignment.core.len());
    }

    #[test]
    fn nearest_kv_core_is_chosen() {
        let (g, a, kv) = setup();
        let out = remap_with_chain(&g, &a, &kv, CoreId(7)).unwrap();
        // Core 7 is at (1,3); the nearest KV core among 12..16 is 15 at (3,3).
        assert_eq!(out.evicted_kv_core, Some(CoreId(15)));
    }

    #[test]
    fn no_kv_cores_is_an_error() {
        let (g, a, _) = setup();
        assert_eq!(remap_with_chain(&g, &a, &[], CoreId(0)).unwrap_err(), RemapError::NoKvCores);
    }

    #[test]
    fn a_faulty_core_outside_the_wafer_is_an_error_not_a_panic() {
        let (g, a, kv) = setup();
        // The tiny wafer has 16 cores; core 99 cannot exist on it.
        assert_eq!(
            remap_with_chain(&g, &a, &kv, CoreId(99)).unwrap_err(),
            RemapError::CoreNotOnWafer(CoreId(99))
        );
    }

    #[test]
    fn a_kv_core_outside_the_wafer_is_an_error_not_a_panic() {
        let (g, a, _) = setup();
        let err = remap_with_chain(&g, &a, &[CoreId(12), CoreId(400)], CoreId(5)).unwrap_err();
        assert_eq!(err, RemapError::CoreNotOnWafer(CoreId(400)));
        assert!(err.to_string().contains("core400"));
    }

    #[test]
    fn repeated_failures_keep_the_assignment_consistent() {
        let (g, mut a, kv) = setup();
        let mut kv = kv;
        for failed in [CoreId(0), CoreId(3), CoreId(6)] {
            let out = remap_with_chain(&g, &a, &kv, failed).unwrap();
            a = out.new_assignment;
            if let Some(e) = out.evicted_kv_core {
                kv.retain(|c| *c != e);
            }
            assert!(!a.core.contains(&failed));
            let unique: std::collections::BTreeSet<_> = a.core.iter().collect();
            assert_eq!(unique.len(), a.core.len());
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Builds a random but *valid* remap instance on an `rows × cols`
        /// wafer: a duplicate-free weight assignment, a disjoint KV core
        /// set, and the index of the weight core to fail.
        fn instance(
            rows: usize,
            cols: usize,
            pick: u64,
            weights: usize,
            kv: usize,
        ) -> (WaferGeometry, Assignment, Vec<CoreId>, CoreId) {
            let g = WaferGeometry::tiny(1, 1, rows, cols);
            let total = g.total_cores();
            // A seeded permutation of the core ids spreads weight and KV
            // cores over the wafer without clustering artefacts.
            let mut ids: Vec<usize> = (0..total).collect();
            let mut state = pick;
            for i in (1..total).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ids.swap(i, (state % (i as u64 + 1)) as usize);
            }
            let weights = weights.min(total.saturating_sub(kv)).max(1);
            let assignment = Assignment { core: ids[..weights].iter().map(|&i| CoreId(i)).collect() };
            let kv_cores: Vec<CoreId> =
                ids[weights..(weights + kv).min(total)].iter().map(|&i| CoreId(i)).collect();
            let failed = assignment.core[(state % weights as u64) as usize];
            (g, assignment, kv_cores, failed)
        }

        proptest! {
            #[test]
            fn remap_preserves_the_tile_multiset(
                rows in 3usize..8, cols in 3usize..8, pick in 0u64..500,
                weights in 2usize..20, kv in 1usize..8,
            ) {
                let (g, a, kv_cores, failed) = instance(rows, cols, pick, weights, kv);
                prop_assume!(!kv_cores.is_empty());
                let out = remap_with_chain(&g, &a, &kv_cores, failed).unwrap();
                // Same number of tiles, each still on exactly one core, no
                // core hosting two tiles, and the failed core vacated.
                prop_assert_eq!(out.new_assignment.core.len(), a.core.len());
                let unique: std::collections::BTreeSet<_> = out.new_assignment.core.iter().collect();
                prop_assert_eq!(unique.len(), out.new_assignment.core.len(), "a remap must not stack tiles");
                prop_assert!(!out.new_assignment.core.contains(&failed));
            }

            #[test]
            fn the_chain_is_geometrically_contiguous(
                rows in 3usize..8, cols in 3usize..8, pick in 0u64..500,
                weights in 2usize..20, kv in 1usize..8,
            ) {
                let (g, a, kv_cores, failed) = instance(rows, cols, pick, weights, kv);
                prop_assume!(!kv_cores.is_empty());
                let out = remap_with_chain(&g, &a, &kv_cores, failed).unwrap();
                // The chain walks a monotone XY path from the failure to the
                // absorbed KV core, so link distances are additive: the sum
                // of consecutive Manhattan hops equals the end-to-end
                // distance (any detour or backtrack would exceed it).
                let first = *out.chain.first().unwrap();
                let last = *out.chain.last().unwrap();
                let link_sum: usize =
                    out.chain.windows(2).map(|w| g.manhattan(w[0], w[1])).sum();
                prop_assert_eq!(link_sum, g.manhattan(first, last));
                prop_assert_eq!(first, failed);
                for w in out.chain.windows(2) {
                    prop_assert!(g.manhattan(w[0], w[1]) >= 1, "chain links must be distinct cores");
                }
            }

            #[test]
            fn moved_tiles_equals_chain_length_minus_one(
                rows in 3usize..8, cols in 3usize..8, pick in 0u64..500,
                weights in 2usize..20, kv in 1usize..8,
            ) {
                let (g, a, kv_cores, failed) = instance(rows, cols, pick, weights, kv);
                prop_assume!(!kv_cores.is_empty());
                let out = remap_with_chain(&g, &a, &kv_cores, failed).unwrap();
                // Every link hands exactly one tile forward (the terminal KV
                // core holds none), so the number of moved tiles is the
                // number of links.
                prop_assert_eq!(out.moved_tiles, out.chain.len() - 1);
            }
        }
    }
}
