//! The inter-core mapping problem: tiles, layers, constraints.

use crate::config::ModelConfig;
use crate::stage::{PipelineStage, StageKind};
use ouro_hw::{CoreId, DefectMap, WaferGeometry};

/// One weight-holding layer of a transformer block, tiled for mapping.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LayerSpec {
    /// The pipeline stage this layer belongs to.
    pub(crate) kind: StageKind,
    /// Index of the layer in execution order (0..L).
    pub(crate) index: usize,
    /// Number of input-channel splits `I(l)`.
    pub(crate) input_splits: usize,
    /// Number of output-channel splits `O(l)`.
    pub(crate) output_splits: usize,
    /// Bytes of output activation sent to the next layer per token
    /// (`output(l)` in Eq. 1).
    pub(crate) output_bytes: u64,
    /// Bytes of partial sums reduced across input splits per token
    /// (`reduction(l)`).
    pub(crate) reduction_bytes: u64,
    /// Bytes gathered across output splits per token (`gather(l)`).
    pub(crate) gather_bytes: u64,
    /// Weight bytes of one tile.
    pub(crate) tile_weight_bytes: u64,
}

impl LayerSpec {
    /// Number of cores this layer needs (`#Core(l)` = `I(l) × O(l)`).
    pub(crate) fn cores(&self) -> usize {
        self.input_splits * self.output_splits
    }
}

/// One weight tile: the `(layer, input-split, output-split)` unit a single
/// core is responsible for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Tile {
    /// Layer index within the block.
    pub(crate) layer: usize,
    /// Input-channel split index `i`.
    pub(crate) input: usize,
    /// Output-channel split index `o`.
    pub(crate) output: usize,
}

/// A candidate assignment of every tile to a core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    /// `core[t]` is the core of tile `t` (indexed as in
    /// `MappingProblem::tiles`).
    pub core: Vec<CoreId>,
}

impl Assignment {
    /// Core assigned to tile index `t`.
    pub(crate) fn core_of(&self, t: usize) -> CoreId {
        self.core[t]
    }

    /// Number of assigned tiles.
    pub(crate) fn len(&self) -> usize {
        self.core.len()
    }
}

/// The full inter-core mapping problem for one transformer block.
#[derive(Debug, Clone)]
pub struct MappingProblem {
    /// The wafer geometry tiles are placed on.
    pub(crate) geometry: WaferGeometry,
    /// Defect map: defective cores cannot take tiles (Eq. 2).
    pub(crate) defects: DefectMap,
    /// The layers of one block in execution order.
    pub(crate) layers: Vec<LayerSpec>,
    /// All tiles in deterministic order (layer-major, then output, then
    /// input).
    pub(crate) tiles: Vec<Tile>,
    /// The cores eligible for placement (functional cores, restricted to the
    /// region reserved for this block).
    pub(crate) candidate_cores: Vec<CoreId>,
    /// Cross-die penalty `Cost_inter` of the objective.
    pub(crate) cost_inter: f64,
    /// Whether the last layer wraps around to feed the first layer of the
    /// next (identically mapped) block.
    pub(crate) wrap_around: bool,
}

impl MappingProblem {
    /// Builds the mapping problem for one transformer block of `model`,
    /// placing its tiles among `candidate_cores` with per-core usable weight
    /// capacity `core_capacity_bytes`.
    ///
    /// Tiling follows the paper's constraint (2): output-channel partitioning
    /// is preferred; input channels are split only when a single
    /// output-channel slice of the weights does not fit a core.
    ///
    /// # Panics
    ///
    /// Panics if `core_capacity_bytes` is zero or no candidate cores are
    /// given.
    pub fn for_block(
        model: &ModelConfig,
        geometry: WaferGeometry,
        defects: DefectMap,
        candidate_cores: Vec<CoreId>,
        core_capacity_bytes: u64,
        cost_inter: f64,
    ) -> MappingProblem {
        assert!(core_capacity_bytes > 0, "cores need non-zero weight capacity");
        assert!(!candidate_cores.is_empty(), "at least one candidate core is required");
        let bytes = model.precision.bytes();
        let weight_stages: Vec<PipelineStage> = StageKind::ALL
            .iter()
            .filter(|k| k.holds_weights())
            .map(|&k| PipelineStage::new(k, model))
            .collect();
        let mut layers = Vec::with_capacity(weight_stages.len());
        for (index, stage) in weight_stages.iter().enumerate() {
            let weight_bytes = stage.weight_elems * bytes;
            let needed = weight_bytes.div_ceil(core_capacity_bytes).max(1) as usize;
            // Prefer splitting output channels; cap at the number of output
            // channels, spill the rest onto input splits.
            let output_splits = needed.min(stage.output_dim.max(1));
            let input_splits = needed.div_ceil(output_splits);
            let output_bytes = stage.output_dim as u64 * bytes / output_splits.max(1) as u64;
            let reduction_bytes = if input_splits > 1 {
                // 32-bit partial sums for the tile's share of the outputs.
                (stage.output_dim as u64 * 4) / output_splits.max(1) as u64
            } else {
                0
            };
            let gather_bytes =
                if output_splits > 1 { stage.output_dim as u64 * bytes / output_splits as u64 } else { 0 };
            layers.push(LayerSpec {
                kind: stage.kind,
                index,
                input_splits,
                output_splits,
                output_bytes,
                reduction_bytes,
                gather_bytes,
                tile_weight_bytes: weight_bytes / (input_splits * output_splits) as u64,
            });
        }
        let mut tiles = Vec::new();
        for (l, layer) in layers.iter().enumerate() {
            for o in 0..layer.output_splits {
                for i in 0..layer.input_splits {
                    tiles.push(Tile { layer: l, input: i, output: o });
                }
            }
        }
        MappingProblem { geometry, defects, layers, tiles, candidate_cores, cost_inter, wrap_around: true }
    }

    /// Total number of tiles (cores required by one block).
    pub fn num_tiles(&self) -> usize {
        self.tiles.len()
    }

    /// Functional candidate cores (the feasible placement domain, Eq. 2).
    pub(crate) fn feasible_cores(&self) -> Vec<CoreId> {
        self.candidate_cores.iter().copied().filter(|c| !self.defects.is_defective(*c)).collect()
    }

    /// Checks the hard constraints of Eq. 2–3 for an assignment: every tile
    /// on a distinct, functional, candidate core.
    pub fn is_feasible(&self, assignment: &Assignment) -> bool {
        if assignment.len() != self.num_tiles() {
            return false;
        }
        let mut seen = std::collections::BTreeSet::new();
        let candidates: std::collections::BTreeSet<CoreId> = self.candidate_cores.iter().copied().collect();
        assignment
            .core
            .iter()
            .all(|c| !self.defects.is_defective(*c) && candidates.contains(c) && seen.insert(*c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;
    use ouro_hw::{DefectMap, WaferGeometry};

    fn small_problem() -> MappingProblem {
        let g = WaferGeometry::tiny(2, 2, 6, 6);
        let defects = DefectMap::pristine(&g);
        let cores: Vec<CoreId> = g.all_cores().collect();
        MappingProblem::for_block(&zoo::llama_13b(), g, defects, cores, 4 * 1024 * 1024, 4.0)
    }

    #[test]
    fn llama_block_has_four_weight_layers() {
        let p = small_problem();
        assert_eq!(p.layers.len(), 4);
        let kinds: Vec<StageKind> = p.layers.iter().map(|l| l.kind).collect();
        assert_eq!(
            kinds,
            vec![StageKind::QkvGeneration, StageKind::ContextProjection, StageKind::Ffn1, StageKind::Ffn2]
        );
    }

    #[test]
    fn tile_count_matches_layer_core_requirements() {
        let p = small_problem();
        let expected: usize = p.layers.iter().map(LayerSpec::cores).sum();
        assert_eq!(p.num_tiles(), expected);
        // LLaMA-13B block is ~300 MB; with 4 MiB cores that needs ~80 cores.
        assert!(p.num_tiles() > 60 && p.num_tiles() < 120, "got {}", p.num_tiles());
    }

    #[test]
    fn tile_weights_fit_core_capacity() {
        let p = small_problem();
        for layer in &p.layers {
            assert!(
                layer.tile_weight_bytes <= 4 * 1024 * 1024,
                "layer {:?} tile of {} bytes exceeds capacity",
                layer.kind,
                layer.tile_weight_bytes
            );
        }
    }

    #[test]
    fn reduction_only_when_input_is_split() {
        let p = small_problem();
        for layer in &p.layers {
            if layer.input_splits == 1 {
                assert_eq!(layer.reduction_bytes, 0);
            }
            if layer.output_splits == 1 {
                assert_eq!(layer.gather_bytes, 0);
            }
        }
    }

    #[test]
    fn feasibility_rejects_duplicates_and_defects() {
        let g = WaferGeometry::tiny(1, 1, 4, 4);
        let defects = DefectMap::from_defective(&g, &[CoreId(0)]);
        let cores: Vec<CoreId> = g.all_cores().collect();
        let mut p = MappingProblem::for_block(&zoo::bert_large(), g, defects, cores, 64 * 1024 * 1024, 4.0);
        // Force a tiny problem: keep only the first two tiles.
        p.tiles.truncate(2);
        let ok = Assignment { core: vec![CoreId(1), CoreId(2)] };
        let dup = Assignment { core: vec![CoreId(1), CoreId(1)] };
        let bad = Assignment { core: vec![CoreId(0), CoreId(2)] };
        let short = Assignment { core: vec![CoreId(1)] };
        assert!(p.is_feasible(&ok));
        assert!(!p.is_feasible(&dup));
        assert!(!p.is_feasible(&bad));
        assert!(!p.is_feasible(&short));
    }

    #[test]
    fn feasible_cores_excludes_defects() {
        let g = WaferGeometry::tiny(1, 1, 3, 3);
        let defects = DefectMap::from_defective(&g, &[CoreId(4)]);
        let cores: Vec<CoreId> = g.all_cores().collect();
        let p = MappingProblem::for_block(&zoo::bert_large(), g, defects, cores, 64 * 1024 * 1024, 4.0);
        assert_eq!(p.feasible_cores().len(), 8);
        assert!(!p.feasible_cores().contains(&CoreId(4)));
    }

    #[test]
    #[should_panic(expected = "non-zero weight capacity")]
    fn zero_capacity_rejected() {
        let g = WaferGeometry::tiny(1, 1, 2, 2);
        let defects = DefectMap::pristine(&g);
        let cores: Vec<CoreId> = g.all_cores().collect();
        MappingProblem::for_block(&zoo::bert_large(), g, defects, cores, 0, 4.0);
    }
}
