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
//! * **Admission** consumes the per-engine pending arena
//!   (`crate::arena::IndexQueue` of `PendingReq` admission events) and
//!   produces residency (`ActiveSeq` entries in the engine's active set).
//! * **Prefill** and **Decode** advance the active set. A
//!   continuous-batching step moves prefill chunks and decode tokens
//!   through the *same* pipeline pass, so one interleaved pass handles the
//!   sequences whose events fall due (see [`crate::engine`]).
//! * **Migrate**'s in-flight set is the imported subset of the decode
//!   engines' pending arenas (a migration is announced as a
//!   `PendingReq` gated on its landing time); it is deliberately not
//!   duplicated into a separate queue, so the conservation invariant
//!   `waiting + Σ pending + Σ active + completed + dropped = injected`
//!   (with `waiting = len − routed`) holds at every step boundary.
//! * **Complete** retires finished sequences (or hands their KV to Migrate
//!   on a disaggregated prefill pool).
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

/// A sequence resident in the KV cache — the prefill/decode stages'
/// per-engine work set.
///
/// A decoding sequence's progress is lazy: `decoded` is its count at the
/// end of step `since`, and it has taken one more token in every step
/// after that. The engine writes the lazy tokens back at the sequence's
/// events, at a checkpoint and before a fault (see the [`crate::engine`]
/// module docs).
///
/// The last three fields are derived, never serialized: admission copies
/// the slot from the KV manager and the decode length from the record and
/// stamps `since`, and a resumed run re-derives all three. Scheduling a
/// sequence's next event thus touches neither the record table nor the
/// manager's id map; the record is read only at admission, the first
/// token, eviction and completion.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ActiveSeq {
    /// Index into the engine's record table.
    pub(crate) rec: usize,
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
    /// The record's decode length.
    pub(crate) decode_len: usize,
    /// The engine step at whose end `decoded` was written.
    pub(crate) since: u64,
}

impl ActiveSeq {
    /// Whether the sequence takes one decode token in every step.
    pub(crate) fn decoding(&self) -> bool {
        self.prefill_remaining == 0 && !self.prefill_only && self.decoded < self.decode_len
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
        self.prefill_remaining == 0 && (self.prefill_only || self.decoded >= self.decode_len)
    }
}

/// A request waiting for admission (fresh, evicted with progress, or an
/// imported-KV arrival waiting out its migration) — the admission stage's
/// typed event, queued in the engine's pending arena.
///
/// Its arena key is its earliest admission time: the arrival for local
/// requests, the migration-completion instant for imported KV, the
/// eviction clock (already in the past) for evicted requeues. Queue-wait
/// accounting measures from that instant, so migration transit never
/// counts as queueing.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingReq {
    /// Index into the engine's record table.
    pub(crate) rec: usize,
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
