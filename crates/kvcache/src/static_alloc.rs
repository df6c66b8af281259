//! Static KV allocation baseline (used by the "+KV Cache" ablation of
//! Fig. 15).
//!
//! Conventional accelerators reserve the worst-case context window for every
//! admitted sequence up front. On a capacity-constrained all-SRAM system this
//! wastes most of the reservation (requests rarely reach the maximum length),
//! which directly reduces how many sequences can be resident and therefore
//! how full the token-grained pipeline can be kept.

/// Static (worst-case) KV allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticKvAllocator {
    /// Total KV token capacity of the system (per K/V side).
    pub(crate) capacity_tokens: usize,
    /// Context window reserved for every sequence.
    pub(crate) reserved_per_sequence: usize,
}

impl StaticKvAllocator {
    /// Creates an allocator reserving `reserved_per_sequence` tokens per
    /// admitted sequence out of `capacity_tokens` total.
    ///
    /// # Panics
    ///
    /// Panics if the reservation is zero.
    pub fn new(capacity_tokens: usize, reserved_per_sequence: usize) -> StaticKvAllocator {
        assert!(reserved_per_sequence > 0, "static reservation must be positive");
        StaticKvAllocator { capacity_tokens, reserved_per_sequence }
    }

    /// Maximum number of simultaneously resident sequences.
    pub fn max_resident_sequences(&self) -> usize {
        self.capacity_tokens / self.reserved_per_sequence
    }

    /// Utilisation achieved when resident sequences actually use
    /// `actual_tokens` tokens on average: `actual / reserved`.
    #[cfg(test)]
    pub(crate) fn utilization(&self, actual_tokens: usize) -> f64 {
        (actual_tokens as f64 / self.reserved_per_sequence as f64).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_allocation_quantises_residency() {
        let a = StaticKvAllocator::new(100_000, 4096);
        assert_eq!(a.max_resident_sequences(), 24);
    }

    #[test]
    fn utilization_reflects_actual_usage() {
        let a = StaticKvAllocator::new(100_000, 4096);
        assert!((a.utilization(1024) - 0.25).abs() < 1e-12);
        assert_eq!(a.utilization(8192), 1.0);
    }

    #[test]
    fn dynamic_allocation_fits_more_short_sequences() {
        // With 2176-token average requests and a 4096 reservation, static
        // allocation leaves almost half the capacity idle.
        let a = StaticKvAllocator::new(1_000_000, 4096);
        let static_resident = a.max_resident_sequences();
        let dynamic_resident = 1_000_000 / 2176;
        assert!(dynamic_resident > static_resident);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_reservation_rejected() {
        StaticKvAllocator::new(1000, 0);
    }
}
