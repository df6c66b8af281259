//! Transfer cost model: latency and energy of moving a payload between two
//! cores on the wafer (or between wafers).
//!
//! The model is hop-based: a transfer pays one hop latency per mesh link it
//! traverses (with die-crossing links being slower and more expensive),
//! plus a serialisation term governed by the narrowest link on the path.
//! This is the cost model the MIQP mapper optimises against and the cost the
//! end-to-end simulator charges for inter-stage activation movement and
//! intra-stage reductions.

use crate::link::NocConfig;
use ouro_hw::{CoreId, WaferGeometry};

/// One point-to-point transfer on the wafer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transfer {
    /// Payload size in bytes.
    pub(crate) bytes: u64,
    /// Number of intra-die mesh hops traversed.
    pub(crate) intra_die_hops: usize,
    /// Number of die-boundary crossings traversed.
    pub(crate) die_crossings: usize,
    /// Number of wafer-boundary crossings traversed (0 or 1 in practice).
    pub(crate) wafer_crossings: usize,
}

impl Transfer {
    /// Builds the transfer between two cores of `geometry`, taking the XY
    /// route's hop counts.
    pub fn between(geometry: &WaferGeometry, from: CoreId, to: CoreId, bytes: u64) -> Transfer {
        let hops = geometry.manhattan(from, to);
        let crossings = geometry.die_crossings(from, to);
        Transfer {
            bytes,
            intra_die_hops: hops.saturating_sub(crossings),
            die_crossings: crossings,
            wafer_crossings: 0,
        }
    }

    /// Total number of link traversals.
    pub(crate) fn total_hops(&self) -> usize {
        self.intra_die_hops + self.die_crossings + self.wafer_crossings
    }
}

/// The communication cost model: combines a `NocConfig` with the wafer
/// geometry to price transfers.
#[derive(Debug, Clone, PartialEq)]
pub struct CommCost {
    /// Link parameters.
    pub(crate) noc: NocConfig,
}

impl Default for CommCost {
    fn default() -> Self {
        CommCost { noc: NocConfig::paper() }
    }
}

impl CommCost {
    /// Cost model with the paper's NoC parameters.
    pub fn paper() -> CommCost {
        CommCost::default()
    }

    /// Cost model for the chiplet/NVLink ablation baseline.
    pub(crate) fn chiplet_nvlink() -> CommCost {
        CommCost { noc: NocConfig::chiplet_nvlink() }
    }

    /// Latency in seconds of a transfer: per-hop head latency plus
    /// serialisation through the narrowest link class used.
    pub fn latency_s(&self, t: &Transfer) -> f64 {
        if t.total_hops() == 0 {
            return 0.0;
        }
        let head = t.intra_die_hops as f64 * self.noc.intra_die.hop_latency_s
            + t.die_crossings as f64 * self.noc.inter_die.hop_latency_s
            + t.wafer_crossings as f64 * self.noc.inter_wafer.hop_latency_s;
        let bottleneck = if t.wafer_crossings > 0 {
            self.noc.inter_wafer
        } else if t.die_crossings > 0 {
            self.noc.inter_die
        } else {
            self.noc.intra_die
        };
        head + bottleneck.serialization_s(t.bytes)
    }

    /// Energy in joules of a transfer: each byte pays for every link class it
    /// traverses.
    pub fn energy_j(&self, t: &Transfer) -> f64 {
        t.bytes as f64
            * (t.intra_die_hops as f64 * self.noc.intra_die.energy_j_per_byte
                + t.die_crossings as f64 * self.noc.inter_die.energy_j_per_byte
                + t.wafer_crossings as f64 * self.noc.inter_wafer.energy_j_per_byte)
    }

    /// Convenience: energy of moving `bytes` between two cores of `geometry`
    /// along the XY route.
    #[cfg(test)]
    pub(crate) fn transfer_energy_j(
        &self,
        geometry: &WaferGeometry,
        from: CoreId,
        to: CoreId,
        bytes: u64,
    ) -> f64 {
        self.energy_j(&Transfer::between(geometry, from, to, bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ouro_hw::{CoreCoord, WaferGeometry};
    use proptest::prelude::*;

    #[test]
    fn local_transfer_is_free() {
        let cost = CommCost::paper();
        let t = Transfer { bytes: 0, intra_die_hops: 0, die_crossings: 0, wafer_crossings: 0 };
        assert_eq!(cost.latency_s(&t), 0.0);
        assert_eq!(cost.energy_j(&t), 0.0);
    }

    #[test]
    fn same_core_transfer_is_free() {
        let g = WaferGeometry::paper();
        let cost = CommCost::paper();
        assert_eq!(cost.latency_s(&Transfer::between(&g, CoreId(5), CoreId(5), 1 << 20)), 0.0);
    }

    #[test]
    fn longer_routes_cost_more() {
        let g = WaferGeometry::paper();
        let cost = CommCost::paper();
        let near = cost.latency_s(&Transfer::between(&g, CoreId(0), CoreId(1), 4096));
        let far = cost.latency_s(&Transfer::between(&g, CoreId(0), CoreId(5000), 4096));
        assert!(far > near);
        assert!(
            cost.transfer_energy_j(&g, CoreId(0), CoreId(5000), 4096)
                > cost.transfer_energy_j(&g, CoreId(0), CoreId(1), 4096)
        );
    }

    #[test]
    fn die_crossings_raise_cost_beyond_hop_count() {
        let g = WaferGeometry::paper();
        let cost = CommCost::paper();
        // Two transfers with identical Manhattan distance, one inside a die
        // and one crossing a die boundary.
        let inside_a = g.id(CoreCoord { row: 0, col: 0 });
        let inside_b = g.id(CoreCoord { row: 0, col: 4 });
        let cross_a = g.id(CoreCoord { row: 0, col: g.core_cols_per_die - 2 });
        let cross_b = g.id(CoreCoord { row: 0, col: g.core_cols_per_die + 2 });
        assert_eq!(g.manhattan(inside_a, inside_b), g.manhattan(cross_a, cross_b));
        let inside = cost.latency_s(&Transfer::between(&g, inside_a, inside_b, 8192));
        let cross = cost.latency_s(&Transfer::between(&g, cross_a, cross_b, 8192));
        assert!(cross > inside);
    }

    #[test]
    fn inter_wafer_transfer_dominates() {
        let cost = CommCost::paper();
        // Small payload: the comparison is head-latency and per-byte energy,
        // where the optical crossing is strictly worse than staying on-wafer.
        let on_wafer = Transfer { bytes: 256, intra_die_hops: 20, die_crossings: 2, wafer_crossings: 0 };
        let off_wafer = Transfer { bytes: 256, intra_die_hops: 20, die_crossings: 0, wafer_crossings: 1 };
        assert!(cost.latency_s(&off_wafer) > cost.latency_s(&on_wafer));
        assert!(cost.energy_j(&off_wafer) > cost.energy_j(&on_wafer));
    }

    #[test]
    fn chiplet_baseline_charges_more_for_crossings() {
        let wafer = CommCost::paper();
        let chiplet = CommCost::chiplet_nvlink();
        let t = Transfer { bytes: 1 << 14, intra_die_hops: 0, die_crossings: 3, wafer_crossings: 0 };
        assert!(chiplet.latency_s(&t) > wafer.latency_s(&t));
        assert!(chiplet.energy_j(&t) > wafer.energy_j(&t));
    }

    #[test]
    fn transfer_between_decomposes_hops() {
        let g = WaferGeometry::paper();
        let a = g.id(CoreCoord { row: 0, col: 0 });
        let b = g.id(CoreCoord { row: 0, col: g.core_cols_per_die + 1 });
        let t = Transfer::between(&g, a, b, 128);
        assert_eq!(t.die_crossings, 1);
        assert_eq!(t.total_hops(), g.manhattan(a, b));
    }

    proptest! {
        #[test]
        fn cost_monotone_in_bytes(bytes1 in 1u64..1_000_000, extra in 1u64..1_000_000,
                                  hops in 1usize..50, crossings in 0usize..5) {
            let cost = CommCost::paper();
            let t1 = Transfer { bytes: bytes1, intra_die_hops: hops, die_crossings: crossings, wafer_crossings: 0 };
            let t2 = Transfer { bytes: bytes1 + extra, ..t1 };
            prop_assert!(cost.latency_s(&t2) > cost.latency_s(&t1));
            prop_assert!(cost.energy_j(&t2) > cost.energy_j(&t1));
        }

        #[test]
        fn energy_symmetric_between_cores(a in 0usize..13923, b in 0usize..13923) {
            let g = WaferGeometry::paper();
            let cost = CommCost::paper();
            let e1 = cost.transfer_energy_j(&g, CoreId(a), CoreId(b), 4096);
            let e2 = cost.transfer_energy_j(&g, CoreId(b), CoreId(a), 4096);
            prop_assert!((e1 - e2).abs() < 1e-18);
        }
    }
}
