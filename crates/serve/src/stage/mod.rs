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
/// typed event, queued in the engine's pending arena.
///
/// Its arena key is its earliest admission time: the arrival for local
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
