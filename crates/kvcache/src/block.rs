//! Logical KV blocks, the per-crossbar free-block table and the per-core
//! allocation state.
//!
//! In attention mode a crossbar's 1024 × 1024 SRAM array is partitioned into
//! eight logical blocks (Fig. 10 / Fig. 12c). Each block holds the K or V
//! vectors of one sequence for one head; per-block registers record how many
//! rows/columns are already valid so the controller can mask the rest during
//! in-situ computation.
//!
//! Every allocation decision of the manager (§4.4.3) is a counter read or a
//! find-first-set: each crossbar keeps a free-block bitmask, and each core
//! keeps its free blocks, its healthy capacity and the set of its healthy
//! crossbars that still have a free block. Only [`CoreState`] mutates a
//! crossbar's mask, so the mask and the core's counters change together.

use crate::manager::{CrossbarSnapshot, KvRestoreError};
use ouro_hw::{CoreId, CrossbarConfig};

/// A fixed-length set of indices: one bit per index, one word per 64. The
/// first word is held inline, so a set of at most 64 indices (the blocks
/// of a paper crossbar, the crossbars of a paper core) allocates nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Bitset {
    first: u64,
    rest: Box<[u64]>,
}

impl Bitset {
    /// The set of the indices below `len` that satisfy `member`.
    fn from_fn(len: usize, member: impl Fn(usize) -> bool) -> Bitset {
        let rest = vec![0; len.div_ceil(64).saturating_sub(1)].into_boxed_slice();
        let mut set = Bitset { first: 0, rest };
        for i in (0..len).filter(|&i| member(i)) {
            set.insert(i);
        }
        set
    }

    /// Word `at`: indices `64 × at` to `64 × at + 63`.
    fn word(&self, at: usize) -> Option<u64> {
        if at == 0 {
            Some(self.first)
        } else {
            self.rest.get(at - 1).copied()
        }
    }

    fn word_mut(&mut self, at: usize) -> &mut u64 {
        if at == 0 {
            &mut self.first
        } else {
            &mut self.rest[at - 1]
        }
    }

    fn insert(&mut self, i: usize) {
        *self.word_mut(i / 64) |= 1 << (i % 64);
    }

    fn remove(&mut self, i: usize) {
        *self.word_mut(i / 64) &= !(1 << (i % 64));
    }

    fn count(&self) -> usize {
        self.first.count_ones() as usize + self.rest.iter().map(|w| w.count_ones() as usize).sum::<usize>()
    }

    /// The lowest member at or after `start`.
    fn first_from(&self, start: usize) -> Option<usize> {
        let mut at = start / 64;
        let mut word = self.word(at)? & (!0 << (start % 64));
        while word == 0 {
            at += 1;
            word = self.word(at)?;
        }
        Some(at * 64 + word.trailing_zeros() as usize)
    }

    /// The first member in cyclic order from `start`: the lowest at or
    /// after it, else the lowest.
    fn first_cyclic(&self, start: usize) -> Option<usize> {
        self.first_from(start).or_else(|| self.first_from(0))
    }
}

/// State of the logical blocks of a single attention-mode crossbar, mirroring
/// the free-block table and the per-block valid-row/column registers of the
/// crossbar controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CrossbarBlocks {
    tokens_per_block: usize,
    /// `None` for a free block, `Some(owner)` for a block allocated to a
    /// sequence, together with how many token slots are already used.
    blocks: Vec<Option<(u64, usize)>>,
    /// A crossbar absorbed by a runtime replacement chain: it accepts no
    /// new allocations and contributes no capacity. Blocks still resident
    /// at failure time stay visible to the audit until released.
    failed: bool,
    /// The free-block table: bit `i` is set exactly when `blocks[i]` is
    /// `None`, so a pick is a find-first-set and a count a popcount.
    free: Bitset,
    /// Sum of used token slots across all blocks, maintained incrementally
    /// so the admission paths' capacity queries are O(1) instead of a scan.
    used: usize,
}

impl CrossbarBlocks {
    /// Creates the block table for one crossbar of the given configuration,
    /// storing int8 vectors of `head_dim` elements.
    pub(crate) fn new(config: &CrossbarConfig, head_dim: usize) -> CrossbarBlocks {
        CrossbarBlocks::from_snapshot(
            config.tokens_per_logical_block(head_dim, 1),
            vec![None; config.logical_blocks],
            false,
        )
    }

    /// Rebuilds a crossbar block table from checkpointed state: the
    /// per-block `(owner, used)` entries plus the failed flag. The free
    /// mask and the `used` counter are recomputed from `blocks`.
    pub(crate) fn from_snapshot(
        tokens_per_block: usize,
        blocks: Vec<Option<(u64, usize)>>,
        failed: bool,
    ) -> CrossbarBlocks {
        let free = Bitset::from_fn(blocks.len(), |i| blocks[i].is_none());
        let used = blocks.iter().flatten().map(|(_, used)| *used).sum();
        CrossbarBlocks { tokens_per_block, blocks, failed, free, used }
    }

    /// The raw per-block `(owner, used_tokens)` table, for checkpointing.
    /// `None` entries are free blocks.
    pub(crate) fn block_table(&self) -> &[Option<(u64, usize)>] {
        &self.blocks
    }

    /// Number of logical blocks in the crossbar.
    pub(crate) fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Token capacity of each logical block.
    pub(crate) fn tokens_per_block(&self) -> usize {
        self.tokens_per_block
    }

    /// Unallocated blocks regardless of the failed flag — the audit's view,
    /// which must keep counting blocks awaiting post-fault eviction.
    pub(crate) fn raw_free_blocks(&self) -> usize {
        debug_assert_eq!(self.free.count(), self.blocks.iter().filter(|b| b.is_none()).count());
        self.free.count()
    }

    /// Whether a runtime fault has taken this crossbar.
    pub(crate) fn is_failed(&self) -> bool {
        self.failed
    }

    /// Marks the crossbar failed (runtime fault injection): no further
    /// allocations land here and its capacity drops to zero.
    fn fail(&mut self) {
        self.failed = true;
    }

    /// Whether a specific sequence owns any block in this crossbar.
    pub(crate) fn owns_any(&self, seq: u64) -> bool {
        self.blocks.iter().flatten().any(|(owner, _)| *owner == seq)
    }

    /// The lowest free block, `None` on a full or failed crossbar: a
    /// find-first-set on the free mask.
    pub(crate) fn first_free(&self) -> Option<usize> {
        let idx = self.free.first_from(0).filter(|_| !self.failed);
        debug_assert_eq!(idx, self.scan_first_free(), "the free mask picks the first free block");
        idx
    }

    /// The old linear pick of [`CrossbarBlocks::first_free`], kept as its
    /// differential.
    pub(crate) fn scan_first_free(&self) -> Option<usize> {
        self.blocks.iter().position(Option::is_none).filter(|_| !self.failed)
    }

    /// Number of logical blocks available for allocation (0 once failed).
    fn free_blocks(&self) -> usize {
        if self.failed {
            return 0;
        }
        self.raw_free_blocks()
    }

    /// Allocates the lowest free block to `seq`, returning its index
    /// (`None` on a full or failed crossbar).
    fn allocate(&mut self, seq: u64) -> Option<usize> {
        let idx = self.first_free()?;
        self.blocks[idx] = Some((seq, 0));
        self.free.remove(idx);
        Some(idx)
    }

    /// Appends `tokens` token slots into the sequence's block `idx`,
    /// returning how many slots did not fit (the caller must allocate another
    /// block for the remainder).
    ///
    /// # Panics
    ///
    /// Panics if the block is free or owned by a different sequence.
    fn append(&mut self, idx: usize, seq: u64, tokens: usize) -> usize {
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
    pub(crate) fn remaining(&self, idx: usize, seq: u64) -> usize {
        match &self.blocks[idx] {
            Some((owner, used)) if *owner == seq => self.tokens_per_block - used,
            _ => 0,
        }
    }

    /// Frees block `idx` whoever owns it, returning whether it was
    /// allocated. The manager frees every block through here: private
    /// blocks by the index its slot keeps, refcounted shared-prefix blocks
    /// (owned by a prefix group rather than a sequence) by chain node.
    fn free_at(&mut self, idx: usize) -> bool {
        match self.blocks[idx].take() {
            Some((_, used)) => {
                self.free.insert(idx);
                self.used -= used;
                true
            }
            None => false,
        }
    }

    /// Total token slots used across all blocks.
    pub(crate) fn used_tokens(&self) -> usize {
        debug_assert_eq!(self.used, self.blocks.iter().flatten().map(|(_, used)| *used).sum::<usize>());
        self.used
    }

    /// Total token capacity of the crossbar (0 once failed).
    pub(crate) fn capacity_tokens(&self) -> usize {
        if self.failed {
            return 0;
        }
        self.tokens_per_block * self.blocks.len()
    }
}

/// The allocation totals of one core, derived from its crossbars' free
/// masks and failed flags. Never serialized: [`CoreCounters::scan`]
/// rebuilds them on construction and restore, and every crossbar mutation
/// goes through [`CoreState`], which keeps them in step.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CoreCounters {
    /// Free blocks over the healthy crossbars.
    free_blocks: usize,
    /// Blocks of the healthy crossbars, free or not: the healthy capacity.
    capacity_blocks: usize,
    /// The healthy crossbars with at least one free block.
    with_free: Bitset,
}

impl CoreCounters {
    fn scan(crossbars: &[CrossbarBlocks]) -> CoreCounters {
        let mut counters = CoreCounters {
            free_blocks: 0,
            capacity_blocks: 0,
            with_free: Bitset::from_fn(crossbars.len(), |_| false),
        };
        for (i, xb) in crossbars.iter().enumerate().filter(|(_, xb)| !xb.failed) {
            let free = xb.raw_free_blocks();
            counters.free_blocks += free;
            counters.capacity_blocks += xb.num_blocks();
            if free > 0 {
                counters.with_free.insert(i);
            }
        }
        counters
    }
}

/// Per-core KV state: the core's crossbar tables and the counters every
/// allocation decision reads.
#[derive(Debug, Clone)]
pub(crate) struct CoreState {
    pub(crate) id: CoreId,
    crossbars: Vec<CrossbarBlocks>,
    counters: CoreCounters,
}

impl CoreState {
    /// A core holding `crossbars`, with its counters derived from them.
    pub(crate) fn new(id: CoreId, crossbars: Vec<CrossbarBlocks>) -> CoreState {
        let counters = CoreCounters::scan(&crossbars);
        CoreState { id, crossbars, counters }
    }

    /// Replaces the crossbar tables with checkpointed ones and derives the
    /// counters from them.
    ///
    /// # Errors
    ///
    /// Returns the [`KvRestoreError`] of the first table that does not fit:
    /// a different crossbar or block count, or a block holding more tokens
    /// than fit. The core is then partly restored.
    pub(crate) fn restore(&mut self, tables: &[CrossbarSnapshot]) -> Result<(), KvRestoreError> {
        if tables.len() != self.crossbars.len() {
            return Err(KvRestoreError::CrossbarCount);
        }
        for (xb, s) in self.crossbars.iter_mut().zip(tables) {
            let tpb = xb.tokens_per_block;
            if s.blocks.len() != xb.num_blocks() {
                return Err(KvRestoreError::BlockCount);
            }
            if s.blocks.iter().flatten().any(|&(_, used)| used > tpb) {
                return Err(KvRestoreError::Overfull);
            }
            *xb = CrossbarBlocks::from_snapshot(tpb, s.blocks.clone(), s.failed);
        }
        self.counters = CoreCounters::scan(&self.crossbars);
        Ok(())
    }

    pub(crate) fn crossbars(&self) -> &[CrossbarBlocks] {
        &self.crossbars
    }

    /// Whether the counters equal a rescan of the crossbar tables, and
    /// each crossbar's free mask its block table.
    pub(crate) fn counters_are_derived(&self) -> bool {
        self.counters == CoreCounters::scan(&self.crossbars)
            && self
                .crossbars
                .iter()
                .all(|xb| xb.free == Bitset::from_fn(xb.blocks.len(), |i| xb.blocks[i].is_none()))
    }

    /// The anti-thrashing test of §4.4.4: whether the fraction of free
    /// token slots over the healthy capacity is above `threshold`, for
    /// blocks of `tpb` tokens.
    pub(crate) fn above_threshold(&self, tpb: usize, threshold: f64) -> bool {
        let (free, capacity) = (self.counters.free_blocks * tpb, self.counters.capacity_blocks * tpb);
        debug_assert_eq!((free, capacity), self.scan_tokens(), "the core counters equal the table sums");
        free as f64 / capacity.max(1) as f64 > threshold
    }

    /// The old sums [`CoreState::above_threshold`] now reads from its
    /// counters: free token slots and token capacity over the healthy
    /// crossbars, summed crossbar by crossbar.
    pub(crate) fn scan_tokens(&self) -> (usize, usize) {
        let free = self.crossbars.iter().map(|c| c.free_blocks() * c.tokens_per_block).sum();
        (free, self.capacity_tokens())
    }

    pub(crate) fn capacity_tokens(&self) -> usize {
        self.crossbars.iter().map(CrossbarBlocks::capacity_tokens).sum()
    }

    pub(crate) fn used_tokens(&self) -> usize {
        self.crossbars.iter().map(CrossbarBlocks::used_tokens).sum()
    }

    /// Logical blocks currently allocated on this core, counted raw — the
    /// audit must see blocks awaiting post-fault eviction on failed
    /// crossbars too.
    pub(crate) fn live_blocks(&self) -> u64 {
        self.crossbars.iter().map(|c| (c.num_blocks() - c.raw_free_blocks()) as u64).sum()
    }

    pub(crate) fn healthy_crossbars(&self) -> usize {
        self.crossbars.iter().filter(|c| !c.is_failed()).count()
    }

    /// Whether any crossbar of the core is healthy: a counter read.
    pub(crate) fn has_healthy(&self) -> bool {
        debug_assert_eq!(self.counters.capacity_blocks > 0, self.healthy_crossbars() > 0);
        self.counters.capacity_blocks > 0
    }

    /// The first healthy crossbar with a free block in cyclic order from
    /// crossbar `start`: a find-first-set on the crossbar set.
    pub(crate) fn first_free(&self, start: usize) -> Option<usize> {
        let xb = self.counters.with_free.first_cyclic(start);
        debug_assert_eq!(xb, self.scan_first_free(start), "the crossbar set picks the first free crossbar");
        xb
    }

    /// The old linear pick of [`CoreState::first_free`], kept as its
    /// differential.
    pub(crate) fn scan_first_free(&self, start: usize) -> Option<usize> {
        let n = self.crossbars.len();
        (0..n).map(|i| (start + i) % n).find(|&xb| self.crossbars[xb].free_blocks() > 0)
    }

    /// Allocates to `owner` the lowest free block of the first healthy
    /// crossbar with one, in cyclic order from crossbar `start`, returning
    /// `(crossbar, block)`; `None` when no healthy crossbar has a free
    /// block.
    pub(crate) fn allocate_from(&mut self, start: usize, owner: u64) -> Option<(usize, usize)> {
        let xb = self.first_free(start)?;
        let crossbar = &mut self.crossbars[xb];
        let block = crossbar.allocate(owner).expect("a crossbar in the free set has a free block");
        self.counters.free_blocks -= 1;
        if crossbar.free.first_from(0).is_none() {
            self.counters.with_free.remove(xb);
        }
        Some((xb, block))
    }

    /// [`CrossbarBlocks::append`] on crossbar `xb`; appending changes no
    /// free block.
    pub(crate) fn append(&mut self, xb: usize, block: usize, seq: u64, tokens: usize) -> usize {
        self.crossbars[xb].append(block, seq, tokens)
    }

    /// Frees block `block` of crossbar `xb` whoever owns it, returning the
    /// token slots it held, or `None` when it was already free.
    pub(crate) fn free(&mut self, xb: usize, block: usize) -> Option<usize> {
        let crossbar = &mut self.crossbars[xb];
        let (_, used) = crossbar.blocks[block]?;
        crossbar.free_at(block);
        if !crossbar.failed {
            self.counters.free_blocks += 1;
            self.counters.with_free.insert(xb);
        }
        Some(used)
    }

    /// Fails healthy crossbar `xb`: its free blocks and its capacity leave
    /// the counters, and it leaves the free set.
    pub(crate) fn fail(&mut self, xb: usize) {
        let crossbar = &mut self.crossbars[xb];
        debug_assert!(!crossbar.failed, "failing a failed crossbar");
        self.counters.free_blocks -= crossbar.raw_free_blocks();
        self.counters.capacity_blocks -= crossbar.num_blocks();
        self.counters.with_free.remove(xb);
        crossbar.fail();
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
