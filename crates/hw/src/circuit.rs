//! Circuit-level comparison points (Table 2 and Fig. 21).
//!
//! The paper positions the Ouroboros core against two state-of-the-art
//! digital SRAM CIM macros — the VLSI'22 12-nm macro and the ISSCC'22 5-nm
//! macro — which achieve far higher TOPS/W and TOPS/mm² but sacrifice
//! on-chip capacity, forcing HBM-backed deployments at the system level.
//! This module captures those published operating points (raw and scaled to
//! 7 nm) so the system-level Fig. 21 experiment can swap core
//! implementations inside the Ouroboros system model.

/// One circuit-level CIM design point (a row of Table 2).
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitPoint {
    /// Display name ("This work", "VLSI'22", "ISSCC'22", "This work + LUT").
    pub name: &'static str,
    /// Process technology in nanometres.
    pub technology_nm: u32,
    /// CIM macro array size in kilobits.
    pub array_size_kb: u32,
    /// Published energy efficiency in TOPS/W (at the native node).
    pub tops_per_watt: f64,
    /// Published compute density in TOPS/mm² (at the native node).
    pub tops_per_mm2: f64,
    /// Energy efficiency scaled to 7 nm (Table 2 footnote / §6.9).
    pub scaled_tops_per_watt: f64,
    /// Compute density scaled to 7 nm.
    pub scaled_tops_per_mm2: f64,
    /// On-wafer SRAM capacity in gigabytes when the design is tiled across a
    /// full Ouroboros-sized wafer.
    pub wafer_capacity_gb: f64,
    /// Whether a system built from this core must spill model weights and KV
    /// cache to off-chip HBM (true for the high-density baselines).
    pub(crate) needs_offchip_memory: bool,
    /// Whether the core uses LUT-based compute (the Fig. 21 "+LUT" variant).
    pub(crate) lut_compute: bool,
}

impl CircuitPoint {
    /// The Ouroboros core (this work): 7 nm, 1 Mb arrays, capacity-first.
    pub(crate) fn ouroboros() -> CircuitPoint {
        CircuitPoint {
            name: "This work",
            technology_nm: 7,
            array_size_kb: 1024,
            tops_per_watt: 10.98,
            tops_per_mm2: 2.03,
            scaled_tops_per_watt: 10.98,
            scaled_tops_per_mm2: 2.03,
            wafer_capacity_gb: 54.0,
            needs_offchip_memory: false,
            lut_compute: false,
        }
    }

    /// The Ouroboros core with LUT-based compute folded in (≈10 % extra
    /// compute-energy saving, Fig. 21).
    pub(crate) fn ouroboros_with_lut() -> CircuitPoint {
        CircuitPoint {
            name: "This work + LUT",
            tops_per_watt: 10.98 / 0.9,
            scaled_tops_per_watt: 10.98 / 0.9,
            lut_compute: true,
            ..CircuitPoint::ouroboros()
        }
    }

    /// The VLSI'22 12-nm all-digital macro (121 TOPS/W class, small arrays).
    pub fn vlsi22() -> CircuitPoint {
        CircuitPoint {
            name: "VLSI'22",
            technology_nm: 12,
            array_size_kb: 8,
            tops_per_watt: 30.30,
            tops_per_mm2: 10.40,
            scaled_tops_per_watt: 49.67,
            scaled_tops_per_mm2: 26.0,
            wafer_capacity_gb: 2.63,
            needs_offchip_memory: true,
            lut_compute: false,
        }
    }

    /// The ISSCC'22 5-nm macro (254 TOPS/W class, DVFS, 64 kb arrays).
    pub fn isscc22() -> CircuitPoint {
        CircuitPoint {
            name: "ISSCC'22",
            technology_nm: 5,
            array_size_kb: 64,
            tops_per_watt: 63.0,
            tops_per_mm2: 55.0,
            scaled_tops_per_watt: 44.41,
            scaled_tops_per_mm2: 30.55,
            wafer_capacity_gb: 11.32,
            needs_offchip_memory: true,
            lut_compute: false,
        }
    }
}

/// All four design points of Fig. 21 in display order.
pub const CIRCUIT_BASELINES: fn() -> Vec<CircuitPoint> = || {
    vec![
        CircuitPoint::ouroboros(),
        CircuitPoint::vlsi22(),
        CircuitPoint::isscc22(),
        CircuitPoint::ouroboros_with_lut(),
    ]
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_values_are_reproduced() {
        let ours = CircuitPoint::ouroboros();
        assert_eq!(ours.technology_nm, 7);
        assert_eq!(ours.array_size_kb, 1024);
        assert_eq!(ours.wafer_capacity_gb, 54.0);

        let vlsi = CircuitPoint::vlsi22();
        assert_eq!(vlsi.technology_nm, 12);
        assert_eq!(vlsi.array_size_kb, 8);
        assert!((vlsi.scaled_tops_per_watt - 49.67).abs() < 1e-9);

        let isscc = CircuitPoint::isscc22();
        assert_eq!(isscc.technology_nm, 5);
        assert!((isscc.scaled_tops_per_mm2 - 30.55).abs() < 1e-9);
    }

    #[test]
    fn baselines_have_more_compute_but_less_capacity() {
        let ours = CircuitPoint::ouroboros();
        for b in [CircuitPoint::vlsi22(), CircuitPoint::isscc22()] {
            assert!(b.scaled_tops_per_watt > ours.scaled_tops_per_watt);
            assert!(b.scaled_tops_per_mm2 > ours.scaled_tops_per_mm2);
            assert!(b.wafer_capacity_gb < ours.wafer_capacity_gb);
            assert!(b.needs_offchip_memory);
        }
        assert!(!ours.needs_offchip_memory);
    }

    #[test]
    fn capacity_advantage_is_5_to_20x() {
        let ours = CircuitPoint::ouroboros();
        let r1 = ours.wafer_capacity_gb / CircuitPoint::vlsi22().wafer_capacity_gb;
        let r2 = ours.wafer_capacity_gb / CircuitPoint::isscc22().wafer_capacity_gb;
        assert!(r1 > 5.0 && r1 < 25.0, "got {r1}");
        assert!(r2 > 4.0 && r2 < 6.0, "got {r2}");
    }

    #[test]
    fn lut_variant_is_10_percent_more_efficient() {
        let base = CircuitPoint::ouroboros();
        let lut = CircuitPoint::ouroboros_with_lut();
        let ratio = base.scaled_tops_per_watt / lut.scaled_tops_per_watt;
        assert!((ratio - 0.9).abs() < 1e-9);
        assert!(lut.lut_compute);
    }

    #[test]
    fn all_baselines_listed_once() {
        let all = CIRCUIT_BASELINES();
        assert_eq!(all.len(), 4);
        let names: Vec<_> = all.iter().map(|c| c.name).collect();
        assert!(names.contains(&"This work"));
        assert!(names.contains(&"VLSI'22"));
        assert!(names.contains(&"ISSCC'22"));
        assert!(names.contains(&"This work + LUT"));
    }
}
