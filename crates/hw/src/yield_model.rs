//! Murphy yield model and seeded defect-map generation (§5, "Yield
//! Modeling").
//!
//! Yield per core follows the Murphy model
//! `Y = ((1 − e^{−A·D0}) / (A·D0))²` with defect density `D0 = 0.09 /cm²`
//! and core area `A = 2.97 mm²`; defective core locations are drawn
//! pseudo-randomly from an explicit seed so that every experiment is
//! reproducible.

use crate::geometry::{CoreId, WaferGeometry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Murphy yield for a die/core of `area_cm2` at defect density
/// `d0_per_cm2` defects per cm².
///
/// Returns a value in `(0, 1]`; areas or densities of zero yield exactly 1.
pub(crate) fn murphy_yield(area_cm2: f64, d0_per_cm2: f64) -> f64 {
    let ad = area_cm2 * d0_per_cm2;
    if ad <= 0.0 {
        return 1.0;
    }
    let term = (1.0 - (-ad).exp()) / ad;
    term * term
}

/// Yield model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YieldModel {
    /// Defect density in defects per cm² (0.09 for the paper's process).
    pub d0_per_cm2: f64,
}

impl Default for YieldModel {
    fn default() -> Self {
        YieldModel { d0_per_cm2: 0.09 }
    }
}

impl YieldModel {
    /// The paper's defect density (TSMC N5-class, 0.09 defects/cm²).
    pub fn paper() -> YieldModel {
        YieldModel::default()
    }

    /// Expected yield of a single core of `core_area_mm2`.
    pub(crate) fn core_yield(&self, core_area_mm2: f64) -> f64 {
        murphy_yield(core_area_mm2 / 100.0, self.d0_per_cm2)
    }

    /// Expected number of defective cores on a wafer with the given geometry.
    pub fn expected_defective_cores(&self, geometry: &WaferGeometry) -> f64 {
        (1.0 - self.core_yield(geometry.core_area_mm2)) * geometry.total_cores() as f64
    }
}

/// A per-core defect map for one wafer instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DefectMap {
    defective: Vec<bool>,
}

impl DefectMap {
    /// Generates a defect map for `geometry` by sampling each core
    /// independently with the Murphy per-core failure probability, using the
    /// given seed.
    pub fn generate(geometry: &WaferGeometry, model: &YieldModel, seed: u64) -> DefectMap {
        let p_fail = 1.0 - model.core_yield(geometry.core_area_mm2);
        let mut rng = StdRng::seed_from_u64(seed);
        let defective = (0..geometry.total_cores()).map(|_| rng.gen::<f64>() < p_fail).collect();
        DefectMap { defective }
    }

    /// A map with no defects (used by ablations that disable fault modelling).
    pub fn pristine(geometry: &WaferGeometry) -> DefectMap {
        DefectMap { defective: vec![false; geometry.total_cores()] }
    }

    /// A map with an explicit list of defective cores (tests, fault
    /// injection).
    pub fn from_defective(geometry: &WaferGeometry, cores: &[CoreId]) -> DefectMap {
        let mut defective = vec![false; geometry.total_cores()];
        for c in cores {
            defective[c.0] = true;
        }
        DefectMap { defective }
    }

    /// Whether a core is defective.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range for the map.
    pub fn is_defective(&self, id: CoreId) -> bool {
        self.defective[id.0]
    }

    /// Number of cores covered by the map.
    pub(crate) fn len(&self) -> usize {
        self.defective.len()
    }

    /// Whether the map covers zero cores.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.defective.is_empty()
    }

    /// Number of defective cores.
    pub fn defective_count(&self) -> usize {
        self.defective.iter().filter(|&&d| d).count()
    }

    /// Number of functional cores.
    pub fn functional_count(&self) -> usize {
        self.len() - self.defective_count()
    }

    /// Iterator over the ids of all functional cores.
    pub fn functional_cores(&self) -> impl Iterator<Item = CoreId> + '_ {
        self.defective.iter().enumerate().filter_map(|(i, &d)| (!d).then_some(CoreId(i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn murphy_yield_limits() {
        assert_eq!(murphy_yield(0.0, 0.09), 1.0);
        assert!(murphy_yield(1.0, 0.09) < 1.0);
        assert!(murphy_yield(1000.0, 0.09) > 0.0);
    }

    #[test]
    fn murphy_yield_decreases_with_area() {
        let small = murphy_yield(0.03, 0.09);
        let large = murphy_yield(3.0, 0.09);
        assert!(small > large);
    }

    #[test]
    fn paper_core_yield_is_very_high() {
        // A 2.97 mm² core at 0.09/cm² should yield well above 99%.
        let y = YieldModel::paper().core_yield(2.97);
        assert!(y > 0.99 && y < 1.0, "got {y}");
    }

    #[test]
    fn expected_defects_on_paper_wafer_are_tens_of_cores() {
        let g = WaferGeometry::paper();
        let e = YieldModel::paper().expected_defective_cores(&g);
        assert!(e > 5.0 && e < 100.0, "got {e}");
    }

    #[test]
    fn defect_map_is_deterministic_per_seed() {
        let g = WaferGeometry::paper();
        let m = YieldModel::paper();
        let a = DefectMap::generate(&g, &m, 42);
        let b = DefectMap::generate(&g, &m, 42);
        let c = DefectMap::generate(&g, &m, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn defect_count_matches_expectation_roughly() {
        let g = WaferGeometry::paper();
        let m = YieldModel::paper();
        let map = DefectMap::generate(&g, &m, 7);
        let expected = m.expected_defective_cores(&g);
        let got = map.defective_count() as f64;
        assert!(got < expected * 3.0 + 10.0, "far too many defects: {got} vs {expected}");
    }

    #[test]
    fn pristine_map_has_no_defects() {
        let g = WaferGeometry::paper();
        let map = DefectMap::pristine(&g);
        assert_eq!(map.defective_count(), 0);
        assert_eq!(map.functional_count(), g.total_cores());
        assert!(!map.is_empty());
    }

    #[test]
    fn explicit_defects_are_marked() {
        let g = WaferGeometry::tiny(1, 1, 4, 4);
        let map = DefectMap::from_defective(&g, &[CoreId(3), CoreId(7)]);
        assert!(map.is_defective(CoreId(3)));
        assert!(!map.is_defective(CoreId(0)));
        assert_eq!(map.defective_count(), 2);
        assert_eq!(map.functional_cores().count(), 14);
    }

    proptest! {
        #[test]
        fn functional_plus_defective_is_total(seed in 0u64..1000) {
            let g = WaferGeometry::tiny(2, 2, 5, 5);
            let map = DefectMap::generate(&g, &YieldModel::paper(), seed);
            prop_assert_eq!(map.functional_count() + map.defective_count(), g.total_cores());
        }

        #[test]
        fn yield_is_within_unit_interval(area in 0.0f64..100.0, d0 in 0.0f64..10.0) {
            let y = murphy_yield(area, d0);
            prop_assert!(y > 0.0 && y <= 1.0);
        }
    }
}
