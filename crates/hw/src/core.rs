//! The CIM core (Fig. 2c): 32 crossbars behind a 1024-bit H-tree, a 128 KB
//! ping-pong input buffer, a 32 KB output buffer, a 64-way SFU and the
//! control unit.
//!
//! The core is the unit of mapping (one weight tile per core in the MIQP) and
//! of fault tolerance (defects are modelled at core granularity). Its methods
//! answer the two questions the end-to-end simulator asks: *how long* does a
//! piece of work take on one core, and *how much energy* does it burn.

use crate::crossbar::CrossbarConfig;
use crate::energy::{EnergyTable, SFU_CLOCK_HZ};

/// Model of the special-function unit: 64-way parallel element-wise and
/// reduction lanes with a 10 KB operand buffer, clocked at 1 GHz.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SfuModel {
    /// Number of parallel lanes (64).
    pub(crate) lanes: usize,
    /// Clock frequency in hertz (1 GHz).
    pub(crate) clock_hz: f64,
    /// Operand buffer capacity in bytes (10 KB).
    pub(crate) buffer_bytes: u64,
}

impl Default for SfuModel {
    fn default() -> Self {
        SfuModel { lanes: 64, clock_hz: SFU_CLOCK_HZ, buffer_bytes: 10 * 1024 }
    }
}

impl SfuModel {
    /// Latency in seconds to execute `ops` element-wise/reduction operations.
    pub(crate) fn latency_s(&self, ops: u64) -> f64 {
        (ops as f64 / self.lanes as f64).ceil() / self.clock_hz
    }
}

/// Static configuration of a CIM core.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreConfig {
    /// Number of crossbars per core (32).
    pub crossbars: usize,
    /// Crossbar configuration shared by all crossbars in the core.
    pub crossbar: CrossbarConfig,
    /// Input activation buffer capacity in bytes (128 KB, ping-pong).
    pub(crate) input_buffer_bytes: u64,
    /// Output activation buffer capacity in bytes (32 KB).
    pub(crate) output_buffer_bytes: u64,
    /// SFU model.
    pub(crate) sfu: SfuModel,
    /// Per-operation energy table.
    pub energy: EnergyTable,
    /// Fixed area of the non-crossbar logic (buffers, SFU, control, H-tree)
    /// in mm².
    pub(crate) periphery_area_mm2: f64,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            crossbars: 32,
            crossbar: CrossbarConfig::paper(),
            input_buffer_bytes: 128 * 1024,
            output_buffer_bytes: 32 * 1024,
            sfu: SfuModel::default(),
            energy: EnergyTable::paper(),
            // 2.97 mm² total minus 32 × (0.063 + 0.0138) mm² of crossbars.
            periphery_area_mm2: 2.97 - 32.0 * (0.063 + 0.0138),
        }
    }
}

impl CoreConfig {
    /// The paper's core configuration.
    pub fn paper() -> CoreConfig {
        CoreConfig::default()
    }

    /// A core built around a non-default crossbar (e.g. a different
    /// row-activation ratio for the Fig. 11 sweep). The number of crossbars
    /// is re-derived so the core stays within the same silicon budget, which
    /// is how a higher activation ratio costs SRAM capacity.
    pub fn with_crossbar(crossbar: CrossbarConfig) -> CoreConfig {
        let nominal = CoreConfig::default();
        let budget = nominal.crossbars as f64 * nominal.crossbar.area_mm2();
        let fit = (budget / crossbar.area_mm2()).floor().max(1.0) as usize;
        CoreConfig { crossbars: fit, crossbar, ..nominal }
    }
}

/// A CIM core: the compute/storage unit the mapper assigns weight tiles and
/// KV blocks to.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CimCore {
    /// The core's configuration.
    pub config: CoreConfig,
}

impl CimCore {
    /// Creates a core with the paper configuration.
    pub fn paper() -> CimCore {
        CimCore { config: CoreConfig::paper() }
    }

    /// Creates a core from an explicit configuration.
    pub fn new(config: CoreConfig) -> CimCore {
        CimCore { config }
    }

    /// Total crossbar SRAM capacity of the core in bytes (4 MiB nominally).
    pub fn sram_capacity_bytes(&self) -> u64 {
        self.config.crossbars as u64 * self.config.crossbar.capacity_bytes()
    }

    /// Peak MAC throughput of the whole core (all crossbars busy), MAC/s.
    #[cfg(test)]
    pub(crate) fn peak_macs_per_second(&self) -> f64 {
        self.config.crossbars as f64 * self.config.crossbar.macs_per_second()
    }

    /// Peak 8-bit TOPS of the core.
    #[cfg(test)]
    pub(crate) fn tops(&self) -> f64 {
        2.0 * self.peak_macs_per_second() / 1e12
    }

    /// Core area in mm².
    #[cfg(test)]
    pub(crate) fn area_mm2(&self) -> f64 {
        self.config.crossbars as f64 * self.config.crossbar.area_mm2() + self.config.periphery_area_mm2
    }

    /// Compute density in TOPS/mm².
    #[cfg(test)]
    pub(crate) fn tops_per_mm2(&self) -> f64 {
        self.tops() / self.area_mm2()
    }

    /// Latency in seconds for this core to perform an `in_dim × out_dim`
    /// GEMV against weights resident in its crossbars.
    ///
    /// The GEMV is tiled into crossbar-sized tiles (`rows × output_columns`);
    /// tiles execute in parallel across the core's crossbars, in waves when
    /// there are more tiles than crossbars.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn gemv_latency_s(&self, in_dim: usize, out_dim: usize) -> f64 {
        assert!(in_dim > 0 && out_dim > 0, "GEMV dimensions must be positive");
        let xb = &self.config.crossbar;
        let row_tiles = in_dim.div_ceil(xb.rows);
        let col_tiles = out_dim.div_ceil(xb.output_columns());
        let tiles = row_tiles * col_tiles;
        let waves = tiles.div_ceil(self.config.crossbars);
        let last_tile_rows = in_dim - (row_tiles - 1) * xb.rows;
        // All waves except possibly the last run full-height tiles.
        let full = xb.gemv_latency_s(xb.rows.min(in_dim));
        let partial = xb.gemv_latency_s(last_tile_rows);
        if waves == 1 && row_tiles == 1 {
            partial
        } else {
            (waves - 1) as f64 * full + full.max(partial)
        }
    }

    /// Latency of `ops` SFU operations.
    pub fn sfu_latency_s(&self, ops: u64) -> f64 {
        self.config.sfu.latency_s(ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn core_has_4_mib_of_crossbar_sram() {
        let core = CimCore::paper();
        assert_eq!(core.sram_capacity_bytes(), 4 * 1024 * 1024);
    }

    #[test]
    fn core_area_close_to_paper() {
        let core = CimCore::paper();
        let area = core.area_mm2();
        assert!((area - 2.97).abs() < 0.01, "got {area}");
    }

    #[test]
    fn compute_density_in_paper_ballpark() {
        // Table 2 reports 2.03 TOPS/mm²; the analytical model should land in
        // the same regime (within ~2×), since it derives throughput from the
        // microarchitecture rather than quoting the table.
        let core = CimCore::paper();
        let d = core.tops_per_mm2();
        assert!(d > 1.0 && d < 4.5, "got {d}");
    }

    #[test]
    fn gemv_latency_increases_with_size() {
        let core = CimCore::paper();
        let small = core.gemv_latency_s(512, 128);
        let large = core.gemv_latency_s(4096, 4096);
        assert!(large > small);
    }

    #[test]
    fn single_tile_gemv_matches_crossbar_latency() {
        let core = CimCore::paper();
        let xb = core.config.crossbar;
        assert!((core.gemv_latency_s(1024, 128) - xb.gemv_latency_s(1024)).abs() < 1e-15);
    }

    #[test]
    fn sfu_latency_uses_64_lanes() {
        let core = CimCore::paper();
        let one_wave = core.sfu_latency_s(64);
        let two_waves = core.sfu_latency_s(65);
        assert!((one_wave - 1.0 / SFU_CLOCK_HZ).abs() < 1e-15);
        assert!((two_waves - 2.0 / SFU_CLOCK_HZ).abs() < 1e-15);
    }

    #[test]
    fn reduced_sram_when_activation_ratio_rises() {
        let fast = CoreConfig::with_crossbar(CrossbarConfig::with_row_activation(1.0 / 4.0));
        let nominal = CoreConfig::paper();
        assert!(
            fast.crossbars < nominal.crossbars,
            "a 1/4 activation core should fit fewer crossbars ({} vs {})",
            fast.crossbars,
            nominal.crossbars
        );
        let fast_core = CimCore::new(fast);
        let nominal_core = CimCore::new(nominal);
        assert!(fast_core.sram_capacity_bytes() < nominal_core.sram_capacity_bytes());
        assert!(fast_core.peak_macs_per_second() > nominal_core.peak_macs_per_second());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dim_gemv_rejected() {
        CimCore::paper().gemv_latency_s(0, 128);
    }

    proptest! {
        #[test]
        fn gemv_latency_bounded_by_peak_throughput(
            in_dim in 1usize..8192, out_dim in 1usize..8192
        ) {
            let core = CimCore::paper();
            let macs = (in_dim * out_dim) as f64;
            let t = core.gemv_latency_s(in_dim, out_dim);
            // Can never be faster than the peak MAC rate allows.
            prop_assert!(t >= macs / core.peak_macs_per_second() * 0.999);
        }
    }
}
