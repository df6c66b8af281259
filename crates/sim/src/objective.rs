//! The MIQP objective (Eq. 1): Manhattan-distance-weighted traffic between
//! interacting tiles, with a penalty for die crossings.
//!
//! The evaluator precomputes the sparse set of interacting tile pairs and
//! their per-token traffic volumes, so that full evaluation is
//! `O(pairs)` and the incremental cost of moving a single tile is
//! `O(pairs touching that tile)` — which is what makes simulated annealing
//! over thousands of moves cheap.

use crate::problem::{Assignment, MappingProblem};
use ouro_hw::CoreId;

/// Category of traffic between two tiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TrafficKind {
    InterLayer,
    Reduction,
    Gather,
}

/// A precomputed interacting pair.
#[derive(Debug, Clone, Copy)]
struct Pair {
    a: usize,
    b: usize,
    bytes: u64,
    kind: TrafficKind,
}

/// Breakdown of the communication implied by an assignment, per token.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CommSummary {
    /// Weighted objective value (bytes × hops × die penalty).
    pub(crate) objective: f64,
    /// Unweighted byte·hop volume of inter-layer activation traffic.
    pub(crate) inter_layer_byte_hops: f64,
    /// Unweighted byte·hop volume of intra-layer reductions.
    pub(crate) reduction_byte_hops: f64,
    /// Unweighted byte·hop volume of intra-layer gathers.
    pub(crate) gather_byte_hops: f64,
    /// Raw bytes placed on the network per token (independent of placement).
    pub(crate) total_bytes: u64,
    /// Average hop count over all pairs, traffic-weighted.
    pub mean_hops: f64,
}

impl CommSummary {
    /// Total unweighted byte·hop volume (the "transmission volume" of
    /// Fig. 18).
    pub fn transmission_volume(&self) -> f64 {
        self.inter_layer_byte_hops + self.reduction_byte_hops + self.gather_byte_hops
    }
}

/// Evaluates Eq. 1 for candidate assignments of a [`MappingProblem`].
#[derive(Debug, Clone)]
pub(crate) struct ObjectiveEvaluator {
    pairs: Vec<Pair>,
    pairs_of: Vec<Vec<usize>>,
    geometry: ouro_hw::WaferGeometry,
    cost_inter: f64,
}

impl ObjectiveEvaluator {
    /// Precomputes the interacting pairs of `problem`.
    pub(crate) fn new(problem: &MappingProblem) -> ObjectiveEvaluator {
        let mut pairs = Vec::new();
        let tiles = &problem.tiles;
        let layers = &problem.layers;
        // Index tiles by (layer, input, output) for fast lookup.
        let mut index = std::collections::BTreeMap::new();
        for (t, tile) in tiles.iter().enumerate() {
            index.insert((tile.layer, tile.input, tile.output), t);
        }
        let num_layers = layers.len();
        for (t, tile) in tiles.iter().enumerate() {
            let layer = &layers[tile.layer];
            // Inter-layer: this tile's output feeds the matching input split
            // of every output split of the next layer.
            let next_layer = if tile.layer + 1 < num_layers {
                Some(tile.layer + 1)
            } else if problem.wrap_around {
                Some(0)
            } else {
                None
            };
            if let Some(nl) = next_layer {
                let next = &layers[nl];
                let i2 = tile.output % next.input_splits;
                for o2 in 0..next.output_splits {
                    if let Some(&t2) = index.get(&(nl, i2, o2)) {
                        pairs.push(Pair {
                            a: t,
                            b: t2,
                            bytes: (layer.output_bytes / next.output_splits.max(1) as u64).max(1),
                            kind: TrafficKind::InterLayer,
                        });
                    }
                }
            }
            // Reduction: partial sums flow to the reduction root (the last
            // input split of the same output slice).
            if layer.input_splits > 1 && tile.input != layer.input_splits - 1 {
                if let Some(&root) = index.get(&(tile.layer, layer.input_splits - 1, tile.output)) {
                    pairs.push(Pair {
                        a: t,
                        b: root,
                        bytes: layer.reduction_bytes.max(1),
                        kind: TrafficKind::Reduction,
                    });
                }
            }
            // Gather: reduction roots of every output split gather to the
            // first output split's root.
            if layer.output_splits > 1 && tile.input == layer.input_splits - 1 && tile.output != 0 {
                if let Some(&hub) = index.get(&(tile.layer, layer.input_splits - 1, 0)) {
                    pairs.push(Pair {
                        a: t,
                        b: hub,
                        bytes: layer.gather_bytes.max(1),
                        kind: TrafficKind::Gather,
                    });
                }
            }
        }
        let mut pairs_of = vec![Vec::new(); tiles.len()];
        for (p, pair) in pairs.iter().enumerate() {
            pairs_of[pair.a].push(p);
            pairs_of[pair.b].push(p);
        }
        ObjectiveEvaluator {
            pairs,
            pairs_of,
            geometry: problem.geometry.clone(),
            cost_inter: problem.cost_inter,
        }
    }

    fn edge_cost(&self, a: CoreId, b: CoreId, bytes: u64) -> f64 {
        let hops = self.geometry.manhattan(a, b) as f64;
        let penalty = if self.geometry.same_die(a, b) { 1.0 } else { self.cost_inter };
        bytes as f64 * hops * penalty
    }

    /// Full objective value of an assignment (Eq. 1).
    pub(crate) fn cost(&self, assignment: &Assignment) -> f64 {
        self.pairs
            .iter()
            .map(|p| self.edge_cost(assignment.core_of(p.a), assignment.core_of(p.b), p.bytes))
            .sum()
    }

    /// Change in objective if tile `t` moved to `new_core` (negative is an
    /// improvement). `O(pairs touching t)`.
    pub(crate) fn move_delta(&self, assignment: &Assignment, t: usize, new_core: CoreId) -> f64 {
        let old_core = assignment.core_of(t);
        if old_core == new_core {
            return 0.0;
        }
        let mut delta = 0.0;
        for &p in &self.pairs_of[t] {
            let pair = self.pairs[p];
            let other = if pair.a == t { pair.b } else { pair.a };
            if other == t {
                continue;
            }
            let other_core = assignment.core_of(other);
            delta += self.edge_cost(new_core, other_core, pair.bytes)
                - self.edge_cost(old_core, other_core, pair.bytes);
        }
        delta
    }

    /// Change in objective if tiles `t1` and `t2` swapped cores.
    pub(crate) fn swap_delta(&self, assignment: &Assignment, t1: usize, t2: usize) -> f64 {
        let c1 = assignment.core_of(t1);
        let c2 = assignment.core_of(t2);
        if c1 == c2 || t1 == t2 {
            return 0.0;
        }
        let mut delta = 0.0;
        // Each pair touching either tile counts once: a pair from a tile to
        // itself is listed twice in a row under it, and a pair between the
        // two tiles under each, so it counts under `t1`.
        let listed = |t: usize| {
            let pairs = &self.pairs_of[t];
            pairs.iter().enumerate().filter(move |&(j, &p)| j == 0 || pairs[j - 1] != p).map(|(_, &p)| p)
        };
        let touches_t1 = |p: usize| self.pairs[p].a == t1 || self.pairs[p].b == t1;
        for p in listed(t1).chain(listed(t2).filter(|&p| !touches_t1(p))) {
            let pair = self.pairs[p];
            let (ca_old, cb_old) = (assignment.core_of(pair.a), assignment.core_of(pair.b));
            let remap = |tile: usize, cur: CoreId| -> CoreId {
                if tile == t1 {
                    c2
                } else if tile == t2 {
                    c1
                } else {
                    cur
                }
            };
            let ca_new = remap(pair.a, ca_old);
            let cb_new = remap(pair.b, cb_old);
            delta += self.edge_cost(ca_new, cb_new, pair.bytes) - self.edge_cost(ca_old, cb_old, pair.bytes);
        }
        delta
    }

    /// Per-token communication breakdown of an assignment.
    pub(crate) fn summary(&self, assignment: &Assignment) -> CommSummary {
        let mut s = CommSummary::default();
        let mut weighted_hops = 0.0;
        let mut total_bytes = 0u64;
        for p in &self.pairs {
            let a = assignment.core_of(p.a);
            let b = assignment.core_of(p.b);
            let hops = self.geometry.manhattan(a, b) as f64;
            let byte_hops = p.bytes as f64 * hops;
            s.objective += self.edge_cost(a, b, p.bytes);
            match p.kind {
                TrafficKind::InterLayer => s.inter_layer_byte_hops += byte_hops,
                TrafficKind::Reduction => s.reduction_byte_hops += byte_hops,
                TrafficKind::Gather => s.gather_byte_hops += byte_hops,
            }
            weighted_hops += p.bytes as f64 * hops;
            total_bytes += p.bytes;
        }
        s.total_bytes = total_bytes;
        s.mean_hops = if total_bytes > 0 { weighted_hops / total_bytes as f64 } else { 0.0 };
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::MappingProblem;
    use crate::zoo;
    use ouro_hw::{DefectMap, WaferGeometry};
    use proptest::prelude::*;

    fn problem() -> MappingProblem {
        let g = WaferGeometry::tiny(2, 2, 6, 6);
        let defects = DefectMap::pristine(&g);
        let cores: Vec<CoreId> = g.all_cores().collect();
        MappingProblem::for_block(&zoo::bert_large(), g, defects, cores, 1024 * 1024, 4.0)
    }

    fn sequential_assignment(p: &MappingProblem) -> Assignment {
        Assignment { core: (0..p.num_tiles()).map(CoreId).collect() }
    }

    #[test]
    fn identical_placement_of_neighbours_is_cheap() {
        let p = problem();
        let eval = ObjectiveEvaluator::new(&p);
        let compact = sequential_assignment(&p);
        // Spread assignment: place tiles far apart.
        let n = p.feasible_cores().len();
        let spread =
            Assignment { core: (0..p.num_tiles()).map(|t| p.feasible_cores()[(t * 37) % n]).collect() };
        assert!(eval.cost(&compact) < eval.cost(&spread));
    }

    #[test]
    fn move_delta_matches_full_recomputation() {
        let p = problem();
        let eval = ObjectiveEvaluator::new(&p);
        let mut a = sequential_assignment(&p);
        let before = eval.cost(&a);
        let target = CoreId(p.geometry.total_cores() - 1);
        let delta = eval.move_delta(&a, 3, target);
        a.core[3] = target;
        let after = eval.cost(&a);
        assert!((before + delta - after).abs() < 1e-6, "{before} + {delta} != {after}");
    }

    #[test]
    fn swap_delta_matches_full_recomputation() {
        let p = problem();
        let eval = ObjectiveEvaluator::new(&p);
        let mut a = sequential_assignment(&p);
        let before = eval.cost(&a);
        let delta = eval.swap_delta(&a, 2, p.num_tiles() - 1);
        a.core.swap(2, p.num_tiles() - 1);
        let after = eval.cost(&a);
        assert!((before + delta - after).abs() < 1e-6, "{before} + {delta} != {after}");
    }

    #[test]
    fn summary_components_sum_to_transmission_volume() {
        let p = problem();
        let eval = ObjectiveEvaluator::new(&p);
        let a = sequential_assignment(&p);
        let s = eval.summary(&a);
        let sum = s.inter_layer_byte_hops + s.reduction_byte_hops + s.gather_byte_hops;
        assert!((s.transmission_volume() - sum).abs() < 1e-9);
        assert!(s.objective >= s.transmission_volume());
        assert!(s.mean_hops > 0.0);
    }

    #[test]
    fn colocated_assignment_has_zero_cost_but_is_infeasible() {
        let p = problem();
        let eval = ObjectiveEvaluator::new(&p);
        let all_same = Assignment { core: vec![CoreId(0); p.num_tiles()] };
        assert_eq!(eval.cost(&all_same), 0.0);
        assert!(!p.is_feasible(&all_same));
    }

    proptest! {
        #[test]
        fn deltas_are_consistent_for_random_moves(tile in 0usize..20, core in 0usize..100, seed in 0u64..20) {
            let p = problem();
            let eval = ObjectiveEvaluator::new(&p);
            let n = p.num_tiles();
            let tile = tile % n;
            let feasible = p.feasible_cores();
            let core = feasible[core % feasible.len()];
            // Shuffle-ish assignment derived from the seed.
            let mut a = Assignment {
                core: (0..n).map(|t| feasible[(t * 13 + seed as usize * 7) % feasible.len()]).collect(),
            };
            let before = eval.cost(&a);
            let delta = eval.move_delta(&a, tile, core);
            a.core[tile] = core;
            let after = eval.cost(&a);
            prop_assert!((before + delta - after).abs() < 1e-6);
        }
    }
}
