//! Logical KV blocks and the per-crossbar free-block table.
//!
//! In attention mode a crossbar's 1024 × 1024 SRAM array is partitioned into
//! eight logical blocks (Fig. 10 / Fig. 12c). Each block holds the K or V
//! vectors of one sequence for one head; per-block registers record how many
//! rows/columns are already valid so the controller can mask the rest during
//! in-situ computation.

use ouro_hw::CrossbarConfig;

/// State of the logical blocks of a single attention-mode crossbar, mirroring
/// the free-block table and the per-block valid-row/column registers of the
/// crossbar controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrossbarBlocks {
    tokens_per_block: usize,
    /// `None` for a free block, `Some(owner)` for a block allocated to a
    /// sequence, together with how many token slots are already used.
    blocks: Vec<Option<(u64, usize)>>,
    /// A crossbar absorbed by a runtime replacement chain: it accepts no
    /// new allocations and contributes no capacity. Blocks still resident
    /// at failure time stay visible to the audit until released.
    failed: bool,
    /// Count of `None` entries in `blocks`, maintained incrementally so
    /// the admission paths' capacity queries are O(1) instead of a scan.
    free: usize,
    /// Sum of used token slots across all blocks, maintained incrementally
    /// for the same reason.
    used: usize,
}

impl CrossbarBlocks {
    /// Creates the block table for one crossbar of the given configuration,
    /// storing int8 vectors of `head_dim` elements.
    pub fn new(config: &CrossbarConfig, head_dim: usize) -> CrossbarBlocks {
        CrossbarBlocks {
            tokens_per_block: config.tokens_per_logical_block(head_dim, 1),
            blocks: vec![None; config.logical_blocks],
            failed: false,
            free: config.logical_blocks,
            used: 0,
        }
    }

    /// Rebuilds a crossbar block table from checkpointed state: the
    /// per-block `(owner, used)` entries plus the failed flag. The
    /// incremental `free` / `used` counters are recomputed from `blocks`.
    pub fn from_snapshot(
        tokens_per_block: usize,
        blocks: Vec<Option<(u64, usize)>>,
        failed: bool,
    ) -> CrossbarBlocks {
        let free = blocks.iter().filter(|b| b.is_none()).count();
        let used = blocks.iter().flatten().map(|(_, used)| *used).sum();
        CrossbarBlocks { tokens_per_block, blocks, failed, free, used }
    }

    /// The raw per-block `(owner, used_tokens)` table, for checkpointing.
    /// `None` entries are free blocks.
    pub fn block_table(&self) -> &[Option<(u64, usize)>] {
        &self.blocks
    }

    /// Number of logical blocks in the crossbar.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Token capacity of each logical block.
    pub fn tokens_per_block(&self) -> usize {
        self.tokens_per_block
    }

    /// Number of logical blocks available for allocation (0 once failed, so
    /// every allocation path skips the crossbar without a special case).
    pub fn free_blocks(&self) -> usize {
        if self.failed {
            return 0;
        }
        self.raw_free_blocks()
    }

    /// Unallocated blocks regardless of the failed flag — the audit's view,
    /// which must keep counting blocks awaiting post-fault eviction.
    pub fn raw_free_blocks(&self) -> usize {
        debug_assert_eq!(self.free, self.blocks.iter().filter(|b| b.is_none()).count());
        self.free
    }

    /// Whether a runtime fault has taken this crossbar.
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    /// Marks the crossbar failed (runtime fault injection): no further
    /// allocations land here and its capacity drops to zero.
    pub fn fail(&mut self) {
        self.failed = true;
    }

    /// Whether a specific sequence owns any block in this crossbar.
    pub fn owns_any(&self, seq: u64) -> bool {
        self.blocks.iter().flatten().any(|(owner, _)| *owner == seq)
    }

    /// Allocates one free block to `seq`, returning its index (`None` on a
    /// full or failed crossbar).
    pub fn allocate(&mut self, seq: u64) -> Option<usize> {
        if self.failed || self.free == 0 {
            return None;
        }
        let idx = self.blocks.iter().position(|b| b.is_none())?;
        self.blocks[idx] = Some((seq, 0));
        self.free -= 1;
        Some(idx)
    }

    /// Appends `tokens` token slots into the sequence's block `idx`,
    /// returning how many slots did not fit (the caller must allocate another
    /// block for the remainder).
    ///
    /// # Panics
    ///
    /// Panics if the block is free or owned by a different sequence.
    pub fn append(&mut self, idx: usize, seq: u64, tokens: usize) -> usize {
        let slot = self.blocks[idx].as_mut().expect("appending into a free logical block");
        assert_eq!(slot.0, seq, "logical block owned by a different sequence");
        let space = self.tokens_per_block - slot.1;
        let taken = tokens.min(space);
        slot.1 += taken;
        self.used += taken;
        tokens - taken
    }

    /// Remaining token slots in block `idx` (0 for free blocks of other
    /// owners).
    pub fn remaining(&self, idx: usize, seq: u64) -> usize {
        match &self.blocks[idx] {
            Some((owner, used)) if *owner == seq => self.tokens_per_block - used,
            _ => 0,
        }
    }

    /// Frees block `idx` whoever owns it, returning whether it was
    /// allocated. The manager frees every block through here: private
    /// blocks by the index its slot keeps, refcounted shared-prefix blocks
    /// (owned by a prefix group rather than a sequence) by chain node.
    pub fn free_at(&mut self, idx: usize) -> bool {
        match self.blocks[idx].take() {
            Some((_, used)) => {
                self.free += 1;
                self.used -= used;
                true
            }
            None => false,
        }
    }

    /// Total token slots used across all blocks.
    pub fn used_tokens(&self) -> usize {
        debug_assert_eq!(self.used, self.blocks.iter().flatten().map(|(_, used)| *used).sum::<usize>());
        self.used
    }

    /// Total token capacity of the crossbar (0 once failed).
    pub fn capacity_tokens(&self) -> usize {
        if self.failed {
            return 0;
        }
        self.tokens_per_block * self.blocks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ouro_hw::CrossbarConfig;
    use proptest::prelude::*;

    fn blocks() -> CrossbarBlocks {
        CrossbarBlocks::new(&CrossbarConfig::paper(), 128)
    }

    #[test]
    fn paper_crossbar_has_8_blocks_of_128_tokens() {
        let b = blocks();
        assert_eq!(b.num_blocks(), 8);
        assert_eq!(b.tokens_per_block(), 128);
        assert_eq!(b.capacity_tokens(), 1024);
        assert_eq!(b.free_blocks(), 8);
    }

    #[test]
    fn allocate_append_release_roundtrip() {
        let mut b = blocks();
        let idx = b.allocate(7).expect("block available");
        assert!(b.owns_any(7));
        let overflow = b.append(idx, 7, 100);
        assert_eq!(overflow, 0);
        assert_eq!(b.remaining(idx, 7), 28);
        assert_eq!(b.used_tokens(), 100);
        assert!(b.free_at(idx));
        assert_eq!(b.used_tokens(), 0);
        assert!(!b.owns_any(7));
    }

    #[test]
    fn append_overflow_reports_leftover_tokens() {
        let mut b = blocks();
        let idx = b.allocate(1).unwrap();
        let leftover = b.append(idx, 1, 200);
        assert_eq!(leftover, 72);
        assert_eq!(b.remaining(idx, 1), 0);
    }

    #[test]
    fn allocation_fails_when_full() {
        let mut b = blocks();
        for s in 0..8 {
            assert!(b.allocate(s).is_some());
        }
        assert!(b.allocate(99).is_none());
        assert_eq!(b.free_blocks(), 0);
    }

    #[test]
    #[should_panic(expected = "different sequence")]
    fn appending_into_foreign_block_panics() {
        let mut b = blocks();
        let idx = b.allocate(1).unwrap();
        b.append(idx, 2, 10);
    }

    #[test]
    fn a_failed_crossbar_accepts_nothing_but_keeps_resident_blocks_visible() {
        let mut b = blocks();
        let idx = b.allocate(4).unwrap();
        b.append(idx, 4, 50);
        b.fail();
        assert!(b.is_failed());
        assert_eq!(b.free_blocks(), 0, "a failed crossbar advertises no capacity");
        assert_eq!(b.capacity_tokens(), 0);
        assert_eq!(b.allocate(5), None, "no new allocation lands on a failed crossbar");
        // The audit view still sees the resident block and the raw frees.
        assert_eq!(b.raw_free_blocks(), 7);
        assert_eq!(b.used_tokens(), 50);
        assert!(b.free_at(idx));
        assert_eq!(b.raw_free_blocks(), 8);
    }

    #[test]
    fn remaining_is_zero_for_non_owner() {
        let mut b = blocks();
        let idx = b.allocate(5).unwrap();
        assert_eq!(b.remaining(idx, 6), 0);
    }

    #[test]
    fn free_at_releases_one_block_regardless_of_owner() {
        let mut b = blocks();
        let idx = b.allocate(9).unwrap();
        b.append(idx, 9, 40);
        assert!(b.free_at(idx), "an allocated block frees");
        assert!(!b.free_at(idx), "a second free is a no-op");
        assert_eq!(b.used_tokens(), 0);
        assert_eq!(b.free_blocks(), 8);
    }

    proptest! {
        #[test]
        fn used_tokens_never_exceed_capacity(ops in proptest::collection::vec((0u64..4, 1usize..300), 0..50)) {
            let mut b = blocks();
            let mut cursor: crate::fasthash::FastMap<u64, usize> = Default::default();
            for (seq, tokens) in ops {
                let idx = match cursor.get(&seq) {
                    Some(&i) if b.remaining(i, seq) > 0 => i,
                    _ => match b.allocate(seq) {
                        Some(i) => { cursor.insert(seq, i); i }
                        None => continue,
                    },
                };
                let _ = b.append(idx, seq, tokens.min(b.remaining(idx, seq)));
                prop_assert!(b.used_tokens() <= b.capacity_tokens());
            }
        }
    }
}
