//! The staged request pipeline: `Arrival → Admission → Prefill → Migrate →
//! Decode → Complete`.
//!
//! Every request the serving stack simulates walks the same lifecycle, but
//! the code that advanced it used to live as interleaved mutation inside
//! `Driver::drive` and `Engine::step`. This module makes the pipeline
//! explicit: each stage is a typed unit (one submodule of free functions
//! over the engine/driver state), consuming and producing typed event
//! queues.
//!
//! The queues:
//!
//! * **Arrival** owns one cursor, the driver's `routed`: the count of trace
//!   arrivals routed so far. A run routes the trace's arrivals in trace
//!   order, so the next one is always `timed.arrivals[routed]`.
//! * **Admission** consumes the per-engine pending queue
//!   (`PendingQueue` of `PendingReq` admission events) and produces
//!   residency (`ActiveSeq` entries in the engine's active set).
//! * **Prefill** and **Decode** advance the active set. A
//!   continuous-batching step moves prefill chunks and decode tokens
//!   through the *same* pipeline pass, so one interleaved pass handles the
//!   sequences whose events fall due (see [`crate::engine`]).
//! * **Migrate**'s in-flight set is the imported subset of the decode
//!   engines' pending queues (a migration is announced as a
//!   `PendingReq` gated on its landing time); it is deliberately not
//!   duplicated into a separate queue, so the conservation invariant
//!   `waiting + Σ pending + Σ active + Σ records + Σ dropped = injected`
//!   (with `waiting = len − routed`) holds at every step boundary.
//! * **Complete** retires finished sequences into the engine's records
//!   (or hands their KV to Migrate on a disaggregated prefill pool, which
//!   records nothing).
//!
//! An engine keeps state only for the requests it holds: each pending and
//! active entry carries its request (`InFlight`) from submission to
//! retirement, and a record is what the report reads of a finished one.
//!
//! Together with the engines' KV managers and the fault injector, the
//! cursor and these queues are the *complete* simulator state — which is
//! what makes [`crate::scenario::Scenario::checkpoint`] /
//! [`crate::scenario::Scenario::resume`] possible.
//!
//! Each stage module names the lifecycle [`ouro_trace::EventKind`]s it
//! emits. Fault and remap events are out-of-band: they interrupt the
//! pipeline rather than advance it, and the fault path emits them.

pub(crate) mod admission;
pub(crate) mod arrival;
pub(crate) mod complete;
pub(crate) mod decode;
pub(crate) mod migrate;
pub(crate) mod prefill;

use ouro_kvcache::KvSlot;
use ouro_workload::Request;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// The request an in-flight entry serves. A [`PendingReq`] and the
/// [`ActiveSeq`] it becomes carry it from submission to retirement, so an
/// engine holds state only for the requests it has not finished; the
/// Complete stage turns it into a [`crate::RequestRecord`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct InFlight {
    /// The request. Its id is the trace index the trace events name.
    pub(crate) request: Request,
    /// The request's original arrival, kept for TTFT and E2E.
    pub(crate) arrival_s: f64,
    /// Emission time of the first decode token (NaN before it). It
    /// survives an eviction, since decode progress does.
    pub(crate) first_token_s: f64,
    /// The sequence's id in the engine's KV manager: the engine-local
    /// submission index. It is local, not the trace index, because the
    /// manager orders a fault's victims by it, and a decode wafer's
    /// submission order is not trace order.
    pub(crate) seq: u64,
}

/// A sequence resident in the KV cache — the prefill/decode stages'
/// per-engine work set.
///
/// A decoding sequence's progress is lazy: `decoded` is its count at the
/// end of step `since`, and it has taken one more token in every step
/// after that. The engine writes the lazy tokens back at the sequence's
/// events, at a checkpoint and before a fault (see the [`crate::engine`]
/// module docs).
///
/// The last two fields are derived, never serialized: admission copies
/// the slot from the KV manager and stamps `since`, and a resumed run
/// re-derives both. Scheduling a sequence's next event thus touches
/// neither the manager's id map nor anything outside the entry.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ActiveSeq {
    /// The request the sequence serves.
    pub(crate) req: InFlight,
    /// Prefill (or recompute) tokens still to stream through the pipeline.
    pub(crate) prefill_remaining: usize,
    /// Decode tokens emitted by the end of step `since`.
    pub(crate) decoded: usize,
    /// Monotone admission stamp; the eviction victim is the largest.
    pub(crate) admission_order: u64,
    /// Disaggregated prefill: the sequence completes (and exports its KV)
    /// when prefill finishes, emitting no decode tokens here.
    pub(crate) prefill_only: bool,
    /// The sequence's slot in the engine's KV manager.
    pub(crate) kv_slot: KvSlot,
    /// The engine step at whose end `decoded` was written.
    pub(crate) since: u64,
}

impl ActiveSeq {
    /// Whether the sequence takes one decode token in every step.
    pub(crate) fn decoding(&self) -> bool {
        self.prefill_remaining == 0 && !self.prefill_only && self.decoded < self.req.request.decode_len
    }

    /// Decode tokens taken after `decoded` was written, as of the end of
    /// step `now`.
    pub(crate) fn lazy(&self, now: u64) -> usize {
        if self.decoding() {
            (now - self.since) as usize
        } else {
            0
        }
    }

    /// Whether the Complete stage retires the sequence: prefill is over
    /// and either its decode happens on another wafer or it is finished.
    pub(crate) fn done(&self) -> bool {
        self.prefill_remaining == 0 && (self.prefill_only || self.decoded >= self.req.request.decode_len)
    }
}

/// A request waiting for admission (fresh, evicted with progress, or an
/// imported-KV arrival waiting out its migration) — the admission stage's
/// typed event, queued in the engine's [`PendingQueue`].
///
/// Its readiness key is its earliest admission time: the arrival for local
/// requests, the migration-completion instant for imported KV, the
/// eviction clock (already in the past) for evicted requeues. The trace's
/// queue phase measures from that instant, so migration transit never
/// counts as queueing.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingReq {
    /// The request waiting.
    pub(crate) req: InFlight,
    /// Decode tokens already emitted before an eviction (0 for fresh).
    pub(crate) decoded: usize,
    /// The sequence's KV was prefilled on another wafer: admission imports
    /// it (allocation without recompute). Cleared on eviction, because the
    /// migrated KV is lost and must be recomputed locally.
    pub(crate) imported: bool,
    /// Tokens of the import that actually travelled the link (the rest was
    /// deduplicated against this wafer's prefix cache at announce time).
    /// 0 for local requests.
    pub(crate) wire_tokens: usize,
    /// This entry re-entered the queue through an eviction: its admission
    /// charge counts as recompute.
    pub(crate) evicted: bool,
    /// Prefill-only service (disaggregated prefill wafer).
    pub(crate) prefill_only: bool,
}

/// A total-order key over `f64` (via [`f64::total_cmp`]) so times can
/// live in a [`BinaryHeap`]: the pending queue's unready heap. Ties
/// between equal times are broken by the other tuple elements of the heap
/// entry.
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

/// An engine's waiting queue, built for the one access pattern admission
/// has: take the earliest-submitted entry that is admissible at the
/// clock, and nothing else.
///
/// Every entry carries an `i64` rank that reproduces a deque's order:
/// `push_back` takes an increasing back counter, `push_front` a
/// decreasing front counter (a later `push_front` sorts *before* an
/// earlier one, as repeated `push_front`s stack). The queue has three
/// parts:
///
/// * `entries`, the rank-ordered map, is both the queue order and the
///   checkpoint view;
/// * `unready` holds `(ready_s, rank)` of the entries the clock has not
///   reached;
/// * `released` holds the ranks of the entries it has.
///
/// [`PendingQueue::peek_ready`] releases every entry whose `ready_s` the
/// clock has reached and returns the smallest released rank: the entry
/// the FCFS scan would find. Release is sound because the engine clock is
/// monotone: an admissible entry stays admissible. Only that entry ever
/// leaves ([`PendingQueue::pop_ready`]), so no heap entry is removed from
/// the middle and none can go stale.
#[derive(Debug, Clone)]
pub(crate) struct PendingQueue {
    entries: BTreeMap<i64, (f64, PendingReq)>,
    unready: BinaryHeap<Reverse<(F64Key, i64)>>,
    released: BinaryHeap<Reverse<i64>>,
    /// Next rank handed to `push_back` (grows upward from 0).
    back_rank: i64,
    /// Next rank handed to `push_front` (grows downward from -1).
    front_rank: i64,
}

impl PendingQueue {
    pub(crate) fn new() -> PendingQueue {
        PendingQueue {
            entries: BTreeMap::new(),
            unready: BinaryHeap::new(),
            released: BinaryHeap::new(),
            back_rank: 0,
            front_rank: -1,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Appends an entry, admissible from `ready_s`, at the back of the
    /// queue order.
    pub(crate) fn push_back(&mut self, ready_s: f64, p: PendingReq) {
        let rank = self.back_rank;
        self.back_rank += 1;
        self.insert(rank, ready_s, p);
    }

    /// Inserts an entry at the front of the queue order (eviction
    /// requeue).
    pub(crate) fn push_front(&mut self, ready_s: f64, p: PendingReq) {
        let rank = self.front_rank;
        self.front_rank -= 1;
        self.insert(rank, ready_s, p);
    }

    fn insert(&mut self, rank: i64, ready_s: f64, p: PendingReq) {
        self.entries.insert(rank, (ready_s, p));
        self.unready.push(Reverse((F64Key(ready_s), rank)));
    }

    /// The earliest-submitted entry admissible at `clock_s`, without
    /// removing it. `clock_s` must not decrease between calls.
    pub(crate) fn peek_ready(&mut self, clock_s: f64) -> Option<PendingReq> {
        while let Some(&Reverse((F64Key(ready_s), rank))) = self.unready.peek() {
            if ready_s > clock_s {
                break;
            }
            self.unready.pop();
            self.released.push(Reverse(rank));
        }
        self.released.peek().map(|Reverse(rank)| self.entries[rank].1)
    }

    /// Removes and returns the entry the last [`PendingQueue::peek_ready`]
    /// returned. A push in between cannot change it: new entries wait in
    /// `unready` until the next peek.
    pub(crate) fn pop_ready(&mut self) -> PendingReq {
        let Reverse(rank) = self.released.pop().expect("pop_ready follows a peek_ready that found an entry");
        self.entries.remove(&rank).expect("a released rank is queued").1
    }

    /// The earliest instant, not before `clock_s`, at which an entry is
    /// admissible: `clock_s` itself when one already is or the queue is
    /// empty. Debug builds check it against a min-scan over the entries.
    pub(crate) fn next_ready_s(&self, clock_s: f64) -> f64 {
        let next = match self.unready.peek() {
            Some(&Reverse((F64Key(ready_s), _))) if self.released.is_empty() => clock_s.max(ready_s),
            _ => clock_s,
        };
        #[cfg(debug_assertions)]
        {
            let naive = self.entries().map(|&(ready_s, _)| ready_s).min_by(f64::total_cmp);
            debug_assert_eq!(
                next,
                naive.map_or(clock_s, |ready_s| clock_s.max(ready_s)),
                "pending-queue next-event answer diverged from the naive scan"
            );
        }
        next
    }

    /// The entries `(ready_s, event)` in queue order: the checkpoint view.
    /// Rebuilding a fresh queue by `push_back`ing them in order reproduces
    /// the same admission order (ranks are renumbered, but their relative
    /// order, the only thing any query observes, is kept), and the release
    /// split is re-derived from `ready_s` against the monotone clock. Also
    /// the reference view of the debug-build checks.
    pub(crate) fn entries(&self) -> impl Iterator<Item = &(f64, PendingReq)> {
        self.entries.values()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A fresh local entry whose KV sequence id names it.
    pub(crate) fn entry(seq: u64) -> PendingReq {
        let req = InFlight {
            request: Request::new(seq as usize, 1, 1),
            arrival_s: 0.0,
            first_token_s: f64::NAN,
            seq,
        };
        PendingReq { req, decoded: 0, imported: false, wire_tokens: 0, evicted: false, prefill_only: false }
    }

    proptest! {
        /// The queue against a `Vec` in queue order, whose pick is the
        /// first entry the clock has reached and whose next event is a
        /// min-scan. After every operation both hold the same entries in
        /// the same order and give the same next-event answer; every peek
        /// (taken twice, so peeking removes nothing) picks the same entry,
        /// and a pop removes it. Coarse ready times and clock steps force
        /// ties, and `push_front` may queue an entry the clock has not
        /// reached, so an unready head must not block a ready entry
        /// behind it.
        #[test]
        fn the_queue_matches_a_naive_fcfs_scan(
            ops in proptest::collection::vec((0u8..4, 0u8..8, 0u8..3), 0..80)
        ) {
            let mut queue = PendingQueue::new();
            let mut model: Vec<(f64, u64)> = Vec::new();
            let mut clock_s = 0.0;
            for (seq, &(op, ready, step)) in (0u64..).zip(&ops) {
                let ready_s = f64::from(ready) * 0.5;
                match op {
                    0 => {
                        queue.push_back(ready_s, entry(seq));
                        model.push((ready_s, seq));
                    }
                    1 => {
                        queue.push_front(ready_s, entry(seq));
                        model.insert(0, (ready_s, seq));
                    }
                    _ => {
                        clock_s += f64::from(step) * 0.25;
                        let naive = model.iter().position(|&(r, _)| r <= clock_s);
                        let picked = queue.peek_ready(clock_s).map(|p| p.req.seq);
                        prop_assert_eq!(picked, naive.map(|i| model[i].1), "clock {}", clock_s);
                        prop_assert_eq!(queue.peek_ready(clock_s).map(|p| p.req.seq), picked);
                        if let (3, Some(i)) = (op, naive) {
                            prop_assert_eq!(queue.pop_ready().req.seq, model.remove(i).1);
                        }
                    }
                }
                let order: Vec<(f64, u64)> = queue.entries().map(|&(r, p)| (r, p.req.seq)).collect();
                prop_assert_eq!(&order, &model);
                prop_assert_eq!(queue.len(), model.len());
                let min = model.iter().map(|&(r, _)| r).min_by(f64::total_cmp);
                prop_assert_eq!(queue.next_ready_s(clock_s), min.map_or(clock_s, |r| clock_s.max(r)));
            }
        }
    }
}
