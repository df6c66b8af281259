//! Per-component energy and timing constants.
//!
//! The constants are seeded from the component characterisation reported in
//! §5 of the paper (CACTI-characterised SRAM arrays, ASAP7-synthesised adder
//! trees / shift adders / SFU, and the Table 2 system-level TOPS/W figure).
//! They feed every latency/energy computation in the higher-level crates.

/// Clock frequency of the CIM crossbar arrays (§5: 300 MHz).
pub const CIM_CLOCK_HZ: f64 = 300.0e6;

/// Clock frequency of the SFU and control logic (§5: 1 GHz).
pub const SFU_CLOCK_HZ: f64 = 1.0e9;

/// Table of per-operation energies (joules) and static power (watts) for one
/// CIM core and its surrounding memory structures.
///
/// The default values reproduce the paper's component characterisation; the
/// struct is public so experiments (e.g. the LUT-core ablation of Fig. 21)
/// can derive variants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyTable {
    /// Energy of one 8-bit multiply-accumulate inside a crossbar, in joules.
    /// Derived from the core-level 10.98 TOPS/W figure (Table 2): one MAC is
    /// two operations.
    pub cim_mac_j: f64,
    /// Energy per byte written into crossbar SRAM (weight load, KV append).
    pub sram_write_j_per_byte: f64,
    /// Energy per byte read from crossbar SRAM through the normal read port
    /// (used only for data that leaves the array, e.g. KV eviction).
    pub sram_read_j_per_byte: f64,
    /// Energy per byte moved through the input/output activation buffers.
    pub buffer_j_per_byte: f64,
    /// Energy of one element-wise or reduction operation on the SFU.
    pub sfu_op_j: f64,
    /// Static (leakage) power of one CIM core, in watts. The CACTI figure is
    /// 0.11 mW per crossbar array; 32 arrays plus peripheral logic.
    pub core_static_w: f64,
}

impl EnergyTable {
    /// The paper's 7-nm Ouroboros core characterisation.
    pub fn paper() -> EnergyTable {
        // 10.98 TOPS/W  =>  energy per (8-bit) op = 1 / 10.98e12 J; a MAC is
        // 2 ops.
        let op_j = 1.0 / 10.98e12;
        EnergyTable {
            cim_mac_j: 2.0 * op_j,
            sram_write_j_per_byte: 1.0e-12,
            sram_read_j_per_byte: 0.8e-12,
            buffer_j_per_byte: 0.5e-12,
            sfu_op_j: 1.0e-12,
            core_static_w: 32.0 * 0.11e-3 + 1.5e-3,
        }
    }

    /// Variant of the table for a core with LUT-based compute (Fig. 21):
    /// the paper reports an additional ~10 % energy saving on the compute
    /// portion.
    pub fn with_lut_compute(self) -> EnergyTable {
        EnergyTable { cim_mac_j: self.cim_mac_j * 0.9, ..self }
    }

    /// Energy of `ops` SFU operations.
    pub fn sfu_energy_j(&self, ops: u64) -> f64 {
        ops as f64 * self.sfu_op_j
    }

    /// Effective TOPS/W of the compute path implied by this table
    /// (8-bit operations; 1 MAC = 2 ops).
    pub fn tops_per_watt(&self) -> f64 {
        2.0 / self.cim_mac_j / 1e12
    }
}

impl Default for EnergyTable {
    fn default() -> Self {
        EnergyTable::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table_matches_tops_per_watt() {
        let t = EnergyTable::paper();
        let tpw = t.tops_per_watt();
        assert!((tpw - 10.98).abs() < 0.05, "got {tpw}");
    }

    #[test]
    fn lut_variant_saves_ten_percent_on_compute() {
        let base = EnergyTable::paper();
        let lut = base.with_lut_compute();
        assert!((lut.cim_mac_j / base.cim_mac_j - 0.9).abs() < 1e-12);
        assert_eq!(lut.sfu_op_j, base.sfu_op_j);
    }

    #[test]
    fn energies_scale_linearly() {
        let t = EnergyTable::paper();
        assert!((t.sfu_energy_j(2_000) - 2.0 * t.sfu_energy_j(1_000)).abs() < 1e-18);
        assert_eq!(t.sfu_energy_j(0), 0.0);
    }

    #[test]
    fn static_power_is_a_few_milliwatts() {
        let t = EnergyTable::paper();
        assert!(t.core_static_w > 1e-3 && t.core_static_w < 20e-3);
    }

    #[test]
    fn clocks_match_paper() {
        assert_eq!(CIM_CLOCK_HZ, 300.0e6);
        assert_eq!(SFU_CLOCK_HZ, 1.0e9);
    }
}
