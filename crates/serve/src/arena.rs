//! A dense pending-request arena with an index queue over it.
//!
//! The engine's waiting queue used to be a `VecDeque` scanned linearly at
//! every step: `next_ready_s` took a full min-scan and admission took a
//! `position` scan plus an O(n) `remove`. This module replaces both with a
//! slot arena addressed by three lazily-scrubbed binary heaps, so the same
//! three queries are O(log n):
//!
//! * **admission order** — every entry carries an `i64` rank that reproduces
//!   the old deque order exactly: `push_back` takes an increasing back
//!   counter, `push_front` a decreasing front counter (a later `push_front`
//!   sorts *before* an earlier one, just as repeated `push_front`s stack),
//! * **readiness** — entries whose `ready_s` is still in the future wait in
//!   the `unready` heap; [`IndexQueue::peek_ready`] drains everything that
//!   has become admissible at the current clock into the rank-ordered
//!   `admissible` heap and returns its minimum — the earliest-*submitted*
//!   admissible entry, which is what the FCFS scan used to find,
//! * **next event** — the `by_ready` heap holds every live entry keyed by
//!   `ready_s`, so [`IndexQueue::next_ready_s`] answers the idle-engine
//!   fast-forward query by peeking one heap top.
//!
//! The split release design is sound because the engine clock is monotone:
//! once an entry's `ready_s` is at or before the clock, it stays admissible
//! forever, so draining on one clock value never needs to be undone.
//!
//! Removals invalidate heap entries in place; stale entries are discarded
//! when they surface at a heap top, guarded by a per-slot epoch so a reused
//! slot can never satisfy an old heap entry. Every `&mut` operation
//! re-scrubs the `by_ready` top before returning, so the `&self` accessors
//! ([`IndexQueue::next_ready_s`]) always observe a live top.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A total-order key over `f64` (via [`f64::total_cmp`]) so event times can
/// live in a [`BinaryHeap`]. Ties between equal times are broken by the
/// other tuple elements of the heap entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct F64Key(pub f64);

impl Eq for F64Key {}

impl PartialOrd for F64Key {
    fn partial_cmp(&self, other: &F64Key) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for F64Key {
    fn cmp(&self, other: &F64Key) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Stable handle of one live entry. Invalidated by the removal of that
/// entry (slots are reused under a fresh epoch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SlotId(u32);

#[derive(Debug, Clone)]
struct Slot<T> {
    /// Bumped on every removal so heap entries addressing a previous
    /// occupant of the slot can be recognised as stale.
    epoch: u32,
    entry: Option<Entry<T>>,
}

#[derive(Debug, Clone)]
struct Entry<T> {
    rank: i64,
    /// Read by the checkpoint view ([`IndexQueue::entries`]) and the
    /// debug-build reference view ([`IndexQueue::ordered`]); the heaps
    /// carry their own copy of the readiness key.
    ready_s: f64,
    value: T,
}

/// Heap entry: `(key, slot, epoch)`. The slot index participates in the
/// ordering after the key, which keeps pops deterministic for equal keys.
type HeapEntry<K> = Reverse<(K, u32, u32)>;

/// The pending arena: dense slots, a free list, and the three index heaps.
#[derive(Debug, Clone)]
pub(crate) struct IndexQueue<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    len: usize,
    /// Next rank handed to `push_back` (grows upward from 0).
    back_rank: i64,
    /// Next rank handed to `push_front` (grows downward from -1).
    front_rank: i64,
    /// Entries not yet released for admission, keyed by `ready_s`.
    unready: BinaryHeap<HeapEntry<F64Key>>,
    /// Released entries, keyed by queue rank (FCFS order).
    admissible: BinaryHeap<HeapEntry<i64>>,
    /// Every live entry, keyed by `ready_s` — the next-event index.
    by_ready: BinaryHeap<HeapEntry<F64Key>>,
}

impl<T: Copy> IndexQueue<T> {
    pub(crate) fn new() -> IndexQueue<T> {
        IndexQueue {
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
            back_rank: 0,
            front_rank: -1,
            unready: BinaryHeap::new(),
            admissible: BinaryHeap::new(),
            by_ready: BinaryHeap::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends an entry at the back of the queue order.
    pub(crate) fn push_back(&mut self, ready_s: f64, value: T) -> SlotId {
        let rank = self.back_rank;
        self.back_rank += 1;
        self.insert(rank, ready_s, value)
    }

    /// Inserts an entry at the front of the queue order (eviction requeue).
    pub(crate) fn push_front(&mut self, ready_s: f64, value: T) -> SlotId {
        let rank = self.front_rank;
        self.front_rank -= 1;
        self.insert(rank, ready_s, value)
    }

    fn insert(&mut self, rank: i64, ready_s: f64, value: T) -> SlotId {
        self.len += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize].entry = Some(Entry { rank, ready_s, value });
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("pending arena exceeds u32 slots");
                self.slots.push(Slot { epoch: 0, entry: Some(Entry { rank, ready_s, value }) });
                slot
            }
        };
        let epoch = self.slots[slot as usize].epoch;
        self.unready.push(Reverse((F64Key(ready_s), slot, epoch)));
        self.by_ready.push(Reverse((F64Key(ready_s), slot, epoch)));
        SlotId(slot)
    }

    fn is_live(&self, slot: u32, epoch: u32) -> bool {
        let s = &self.slots[slot as usize];
        s.epoch == epoch && s.entry.is_some()
    }

    /// The earliest-submitted entry admissible at `clock_s` (the entry the
    /// old FCFS `position` scan found), without removing it. Releases
    /// everything that has become ready first.
    pub(crate) fn peek_ready(&mut self, clock_s: f64) -> Option<(SlotId, T)> {
        // Drain newly-ready entries into the rank-ordered admissible heap.
        while let Some(&Reverse((F64Key(ready), slot, epoch))) = self.unready.peek() {
            if self.is_live(slot, epoch) {
                if ready > clock_s {
                    break;
                }
                let rank = self.slots[slot as usize].entry.as_ref().expect("live entry").rank;
                self.admissible.push(Reverse((rank, slot, epoch)));
            }
            self.unready.pop();
        }
        // Scrub stale admissible tops, then peek the minimum rank.
        while let Some(&Reverse((_, slot, epoch))) = self.admissible.peek() {
            if self.is_live(slot, epoch) {
                let value = self.slots[slot as usize].entry.as_ref().expect("live entry").value;
                return Some((SlotId(slot), value));
            }
            self.admissible.pop();
        }
        None
    }

    /// Removes a live entry by handle.
    pub(crate) fn remove(&mut self, id: SlotId) -> T {
        let slot = &mut self.slots[id.0 as usize];
        let entry = slot.entry.take().expect("removing a vacated arena slot");
        slot.epoch = slot.epoch.wrapping_add(1);
        self.free.push(id.0);
        self.len -= 1;
        self.scrub_by_ready();
        entry.value
    }

    /// Earliest `ready_s` over every live entry (`None` when empty). Valid
    /// at any time: every mutating operation re-establishes a live
    /// `by_ready` top before returning.
    pub(crate) fn next_ready_s(&self) -> Option<f64> {
        self.by_ready.peek().map(|&Reverse((F64Key(ready), _, _))| ready)
    }

    /// Drops stale `by_ready` tops so [`IndexQueue::next_ready_s`] stays a
    /// pure peek.
    fn scrub_by_ready(&mut self) {
        while let Some(&Reverse((_, slot, epoch))) = self.by_ready.peek() {
            if self.is_live(slot, epoch) {
                break;
            }
            self.by_ready.pop();
        }
    }

    /// Live entries in queue order with their readiness times — the
    /// checkpoint view. Rebuilding a fresh queue by `push_back`ing these
    /// entries in order reproduces the same admission order (ranks are
    /// renumbered, but their relative order — the only thing any query
    /// observes — is preserved), and the unready/admissible split is
    /// re-derived lazily from `ready_s` against the monotone clock. Also
    /// the reference view for the debug-build differential checks against
    /// the old linear scans.
    pub(crate) fn entries(&self) -> Vec<(f64, T)> {
        let mut live: Vec<&Entry<T>> = self.slots.iter().filter_map(|s| s.entry.as_ref()).collect();
        live.sort_by_key(|e| e.rank);
        live.iter().map(|e| (e.ready_s, e.value)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_all(q: &mut IndexQueue<u32>, clock: f64) -> Vec<u32> {
        let mut out = Vec::new();
        while let Some((slot, v)) = q.peek_ready(clock) {
            q.remove(slot);
            out.push(v);
        }
        out
    }

    #[test]
    fn fcfs_order_matches_a_deque() {
        let mut q = IndexQueue::new();
        q.push_back(0.0, 1u32);
        q.push_back(0.0, 2);
        q.push_front(0.0, 3);
        q.push_front(0.0, 4); // later push_front is frontmost
        q.push_back(0.0, 5);
        assert_eq!(q.len(), 5);
        assert_eq!(drain_all(&mut q, 1.0), vec![4, 3, 1, 2, 5]);
        assert!(q.is_empty());
    }

    #[test]
    fn unready_entries_do_not_block_ready_ones_behind_them() {
        let mut q = IndexQueue::new();
        q.push_back(5.0, 1u32); // head, not ready
        q.push_back(1.0, 2); // behind, ready
        assert_eq!(q.peek_ready(2.0), Some((SlotId(1), 2)));
        // Once the clock reaches the head, FCFS order resumes.
        assert_eq!(drain_all(&mut q, 5.0), vec![1, 2]);
    }

    #[test]
    fn next_ready_is_the_global_minimum() {
        let mut q = IndexQueue::new();
        assert_eq!(q.next_ready_s(), None);
        q.push_back(3.0, 1u32);
        q.push_back(1.0, 2);
        q.push_back(2.0, 3);
        assert_eq!(q.next_ready_s(), Some(1.0));
        let (slot, _) = q.peek_ready(1.5).expect("entry 2 is ready");
        q.remove(slot);
        assert_eq!(q.next_ready_s(), Some(2.0));
    }

    #[test]
    fn peek_does_not_remove_and_removal_reuses_slots() {
        let mut q = IndexQueue::new();
        let a = q.push_back(0.0, 7u32);
        assert_eq!(q.peek_ready(0.0), Some((a, 7)));
        assert_eq!(q.peek_ready(0.0), Some((a, 7)), "peek is idempotent");
        assert_eq!(q.remove(a), 7);
        // The reused slot gets a fresh epoch: stale heap entries for the
        // old occupant can never resolve to the new one.
        let b = q.push_back(4.0, 8);
        assert_eq!(q.next_ready_s(), Some(4.0));
        assert_eq!(q.peek_ready(2.0), None, "new occupant is not ready yet");
        assert_eq!(q.peek_ready(4.0), Some((b, 8)));
    }

    #[test]
    fn ordered_view_matches_queue_order() {
        let mut q = IndexQueue::new();
        q.push_back(1.0, 10u32);
        q.push_front(2.0, 20);
        q.push_back(3.0, 30);
        let order: Vec<u32> = q.entries().iter().map(|&(_, v)| v).collect();
        assert_eq!(order, vec![20, 10, 30]);
    }
}
