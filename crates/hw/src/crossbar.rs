//! The SRAM CIM crossbar (Fig. 10): a 1024 × 1024 6T bitcell array organised
//! as 128 MAC arrays / 32 banks, with bit-serial 8-bit inputs, 32-input adder
//! trees and 32-bit shift-adders.
//!
//! The crossbar is the unit of both storage (128 KiB of weights, or 8 logical
//! KV blocks in attention mode) and compute (one GEMV tile per pass). The
//! row-activation ratio — how many of the 1024 rows fire per cycle — is the
//! central capacity-versus-throughput trade-off of the design (Fig. 11):
//! Ouroboros picks 1/32 to maximise SRAM area utilisation.

use crate::energy::CIM_CLOCK_HZ;

/// Static configuration of a crossbar array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossbarConfig {
    /// Number of SRAM rows (1024).
    pub rows: usize,
    /// Number of SRAM columns in bits (1024).
    pub cols: usize,
    /// Weight precision in bits (8).
    pub weight_bits: usize,
    /// Input activation precision in bits (8, applied bit-serially).
    pub input_bits: usize,
    /// Number of banks; one row per bank can be active simultaneously (32).
    pub banks: usize,
    /// Fraction of rows active per cycle (1/32 in the paper).
    pub row_activation_ratio: f64,
    /// Clock frequency in hertz (300 MHz).
    pub clock_hz: f64,
    /// Area of the bare SRAM array in mm² (CACTI: 0.063).
    pub array_area_mm2: f64,
    /// Area of the per-crossbar compute periphery (AND gates, adder trees,
    /// shift adders) at the nominal 1/32 activation ratio, in mm².
    pub logic_area_mm2: f64,
    /// Number of logical KV blocks the array splits into in attention mode (8).
    pub logical_blocks: usize,
}

impl Default for CrossbarConfig {
    fn default() -> Self {
        CrossbarConfig {
            rows: 1024,
            cols: 1024,
            weight_bits: 8,
            input_bits: 8,
            banks: 32,
            row_activation_ratio: 1.0 / 32.0,
            clock_hz: CIM_CLOCK_HZ,
            // §5: array 0.063 mm²; AND 0.0023 + adder trees 0.0093 + shift
            // adders 0.0022 ≈ 0.0138 mm² of periphery per crossbar.
            array_area_mm2: 0.063,
            logic_area_mm2: 0.0138,
            logical_blocks: 8,
        }
    }
}

impl CrossbarConfig {
    /// The paper's crossbar (1/32 row activation, 300 MHz).
    pub fn paper() -> CrossbarConfig {
        CrossbarConfig::default()
    }

    /// Same crossbar with a different row-activation ratio. Used by the
    /// Fig. 11 sweep; the compute periphery area scales proportionally to the
    /// number of simultaneously active rows.
    ///
    /// # Panics
    ///
    /// Panics if the ratio is not in `(0, 1]`.
    pub fn with_row_activation(ratio: f64) -> CrossbarConfig {
        assert!(ratio > 0.0 && ratio <= 1.0, "row activation ratio must be in (0, 1], got {ratio}");
        let base = CrossbarConfig::default();
        let scale = ratio / base.row_activation_ratio;
        CrossbarConfig { row_activation_ratio: ratio, logic_area_mm2: base.logic_area_mm2 * scale, ..base }
    }

    /// Weight storage capacity of the array in bytes (128 KiB).
    pub fn capacity_bytes(&self) -> u64 {
        (self.rows * self.cols) as u64 / 8
    }

    /// Output columns produced per pass (128 for 8-bit weights).
    pub fn output_columns(&self) -> usize {
        self.cols / self.weight_bits
    }

    /// Rows active per cycle.
    pub fn active_rows(&self) -> usize {
        ((self.rows as f64) * self.row_activation_ratio).round().max(1.0) as usize
    }

    /// Multiply-accumulates completed per cycle (bit-serial inputs divide the
    /// per-cycle row work by `input_bits`).
    pub fn macs_per_cycle(&self) -> f64 {
        self.active_rows() as f64 * self.output_columns() as f64 / self.input_bits as f64
    }

    /// Peak MAC throughput in MAC/s.
    pub fn macs_per_second(&self) -> f64 {
        self.macs_per_cycle() * self.clock_hz
    }

    /// Peak 8-bit TOPS of one crossbar (1 MAC = 2 ops).
    pub fn tops(&self) -> f64 {
        2.0 * self.macs_per_second() / 1e12
    }

    /// Cycles to run a GEMV tile with `in_dim` inputs against the stored
    /// weights, producing up to [`Self::output_columns`] outputs.
    ///
    /// Inputs beyond `rows` must be split across crossbars by the caller.
    ///
    /// # Panics
    ///
    /// Panics if `in_dim` is zero or exceeds the number of rows.
    pub fn gemv_cycles(&self, in_dim: usize) -> u64 {
        assert!(in_dim > 0 && in_dim <= self.rows, "in_dim {in_dim} must be in 1..={}", self.rows);
        let groups = in_dim.div_ceil(self.active_rows());
        (groups * self.input_bits) as u64
    }

    /// Latency in seconds of a GEMV tile with `in_dim` inputs.
    pub fn gemv_latency_s(&self, in_dim: usize) -> f64 {
        self.gemv_cycles(in_dim) as f64 / self.clock_hz
    }

    /// Total crossbar area (array + compute periphery) in mm².
    pub fn area_mm2(&self) -> f64 {
        self.array_area_mm2 + self.logic_area_mm2
    }

    /// Capacity of one logical KV block in bytes (attention mode).
    pub fn logical_block_bytes(&self) -> u64 {
        self.capacity_bytes() / self.logical_blocks as u64
    }

    /// Number of tokens of K (or V) a logical block can hold for a head of
    /// dimension `head_dim` at `bytes_per_elem` precision.
    pub fn tokens_per_logical_block(&self, head_dim: usize, bytes_per_elem: u64) -> usize {
        (self.logical_block_bytes() / (head_dim as u64 * bytes_per_elem)) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn capacity_is_128_kib() {
        let c = CrossbarConfig::paper();
        assert_eq!(c.capacity_bytes(), 128 * 1024);
    }

    #[test]
    fn output_columns_are_128() {
        assert_eq!(CrossbarConfig::paper().output_columns(), 128);
    }

    #[test]
    fn one_thirty_second_activation_gives_32_active_rows() {
        let c = CrossbarConfig::paper();
        assert_eq!(c.active_rows(), 32);
        assert_eq!(c.macs_per_cycle(), 32.0 * 128.0 / 8.0);
    }

    #[test]
    fn full_array_gemv_uses_all_rows() {
        let c = CrossbarConfig::paper();
        // 1024 rows / 32 active per cycle = 32 groups, each bit-serial over 8
        // input bits.
        assert_eq!(c.gemv_cycles(1024), 32 * 8);
        // Effective MACs per cycle over the full GEMV equals the peak rate.
        let macs = 1024.0 * 128.0;
        let per_cycle = macs / c.gemv_cycles(1024) as f64;
        assert!((per_cycle - c.macs_per_cycle()).abs() < 1e-9);
    }

    #[test]
    fn higher_activation_ratio_increases_throughput_and_logic_area() {
        let slow = CrossbarConfig::with_row_activation(1.0 / 64.0);
        let nominal = CrossbarConfig::paper();
        let fast = CrossbarConfig::with_row_activation(1.0 / 4.0);
        assert!(slow.macs_per_second() < nominal.macs_per_second());
        assert!(nominal.macs_per_second() < fast.macs_per_second());
        assert!(slow.logic_area_mm2 < nominal.logic_area_mm2);
        assert!(nominal.logic_area_mm2 < fast.logic_area_mm2);
    }

    #[test]
    fn logical_blocks_hold_128_tokens_of_a_128_dim_head() {
        let c = CrossbarConfig::paper();
        assert_eq!(c.logical_blocks, 8);
        assert_eq!(c.logical_block_bytes(), 16 * 1024);
        assert_eq!(c.tokens_per_logical_block(128, 1), 128);
        assert_eq!(c.tokens_per_logical_block(64, 1), 256);
    }

    #[test]
    #[should_panic(expected = "row activation ratio")]
    fn zero_activation_ratio_rejected() {
        CrossbarConfig::with_row_activation(0.0);
    }

    #[test]
    #[should_panic(expected = "in_dim")]
    fn oversized_gemv_rejected() {
        CrossbarConfig::paper().gemv_cycles(2048);
    }

    proptest! {
        #[test]
        fn gemv_cycles_monotone_in_in_dim(a in 1usize..1024, b in 1usize..1024) {
            let c = CrossbarConfig::paper();
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(c.gemv_cycles(lo) <= c.gemv_cycles(hi));
        }

        #[test]
        fn throughput_scales_with_activation_ratio(denom in 1u32..=128) {
            let ratio = 1.0 / denom as f64;
            let c = CrossbarConfig::with_row_activation(ratio);
            // MACs/cycle should be proportional to active rows.
            let expected = c.active_rows() as f64 * 128.0 / 8.0;
            prop_assert!((c.macs_per_cycle() - expected).abs() < 1e-9);
        }
    }
}
