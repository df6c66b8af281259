//! Analytical models of the baseline systems Ouroboros is compared against
//! (§6.1): a DGX A100 node running vLLM, an 8-chip TPU v4 pod, the
//! DGX+AttAcc PIM system, the Cerebras WSE-2 running WaferLLM, and the
//! HBM-backed systems built from the VLSI'22 / ISSCC'22 CIM macros (Fig. 21).
//!
//! Each baseline is a roofline + memory-hierarchy-energy model
//! ([`RooflineSystem`]) parameterised with published hardware numbers. All
//! systems — including the Ouroboros simulator, [`crate::OuroborosSystem`]
//! — report results through the same [`SystemReport`] type, so the
//! experiment harness can normalise and tabulate them uniformly, which is
//! all the paper's figures need (normalised throughput and normalised
//! energy per output token with a component breakdown).
//!
//! The placement baselines of the transmission-volume comparison (Fig. 18)
//! live here too:
//!
//! * **SUMMA (Cerebras default)** — every layer is spread block-cyclically
//!   over the whole candidate region, the way a SUMMA GEMM decomposition
//!   owns the full 2-D fabric; inter-layer hops are short but intra-layer
//!   reductions and gathers cross the entire region.
//! * **WaferLLM** — layers are placed contiguously in plain row-major core
//!   order; better locality than SUMMA but without the S-shaped ordering,
//!   die-crossing awareness or annealing refinement of the Ouroboros mapper.

pub use crate::report::{EnergyBreakdown, SystemReport};
pub use crate::roofline::RooflineSystem;
pub use crate::systems::{attacc, cerebras_wse2, dgx_a100, hbm_cim_system, tpu_v4};

use crate::problem::{Assignment, MappingProblem};
use ouro_hw::CoreId;

/// SUMMA-style interleaved placement: tile `j` of layer `l` goes to the
/// candidate core at index `j · L + l` (mod the region size), so each layer
/// is strided across the whole region.
pub(crate) fn summa_assignment(problem: &MappingProblem, feasible: &[CoreId]) -> Assignment {
    let num_layers = problem.layers.len().max(1);
    let n = feasible.len();
    let mut taken = vec![false; n];
    let mut core = Vec::with_capacity(problem.num_tiles());
    // Per-layer running tile counter.
    let mut per_layer_count = vec![0usize; num_layers];
    for tile in &problem.tiles {
        let j = per_layer_count[tile.layer];
        per_layer_count[tile.layer] += 1;
        let mut idx = (j * num_layers + tile.layer) % n;
        // Linear probing keeps the assignment a permutation even when the
        // stride collides.
        while taken[idx] {
            idx = (idx + 1) % n;
        }
        taken[idx] = true;
        core.push(feasible[idx]);
    }
    Assignment { core }
}

/// WaferLLM-style contiguous row-major placement: tiles are placed in their
/// natural (layer-major) order onto candidate cores sorted by raw core id
/// (row-major), without the serpentine ordering.
pub(crate) fn waferllm_assignment(problem: &MappingProblem, feasible: &[CoreId]) -> Assignment {
    let mut ordered: Vec<CoreId> = feasible.to_vec();
    ordered.sort();
    Assignment { core: (0..problem.num_tiles()).map(|t| ordered[t]).collect() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::MappingProblem;
    use crate::zoo;
    use ouro_hw::{DefectMap, WaferGeometry};

    fn problem() -> MappingProblem {
        let g = WaferGeometry::tiny(2, 2, 6, 6);
        let defects = DefectMap::pristine(&g);
        let cores: Vec<CoreId> = g.all_cores().collect();
        MappingProblem::for_block(&zoo::bert_large(), g, defects, cores, 1024 * 1024, 4.0)
    }

    #[test]
    fn summa_assignment_is_feasible() {
        let p = problem();
        let a = summa_assignment(&p, &p.feasible_cores());
        assert!(p.is_feasible(&a));
    }

    #[test]
    fn waferllm_assignment_is_feasible() {
        let p = problem();
        let a = waferllm_assignment(&p, &p.feasible_cores());
        assert!(p.is_feasible(&a));
    }

    #[test]
    fn summa_spreads_layers_while_waferllm_keeps_them_contiguous() {
        let p = problem();
        let feasible = p.feasible_cores();
        let summa = summa_assignment(&p, &feasible);
        let wll = waferllm_assignment(&p, &feasible);
        // Average pairwise distance of layer 0's tiles.
        let layer0: Vec<usize> =
            p.tiles.iter().enumerate().filter(|(_, t)| t.layer == 0).map(|(i, _)| i).collect();
        let spread = |a: &Assignment| -> f64 {
            let mut total = 0.0;
            let mut pairs = 0.0;
            for (x, &i) in layer0.iter().enumerate() {
                for &j in &layer0[x + 1..] {
                    total += p.geometry.manhattan(a.core_of(i), a.core_of(j)) as f64;
                    pairs += 1.0;
                }
            }
            total / f64::max(pairs, 1.0)
        };
        assert!(
            spread(&summa) > spread(&wll),
            "summa should spread a layer wider than waferllm ({} vs {})",
            spread(&summa),
            spread(&wll)
        );
    }
}
