//! The staged request pipeline: `Arrival → Admission → Prefill → Migrate →
//! Decode → Complete`.
//!
//! Every request the serving stack simulates walks the same lifecycle, but
//! the code that advanced it used to live as interleaved mutation inside
//! `Driver::drive` and `Engine::step`. This module makes the pipeline
//! explicit: each stage is a typed unit (one submodule of free functions
//! over the engine/driver state), consuming and producing typed event
//! queues, and the [`Stage`] enum names them so trace emission can be
//! audited in one place.
//!
//! The queues:
//!
//! * **Arrival** owns `StageQueues`: the sorted open-arrival deque plus
//!   the closed-loop gate (released in completion order through the seeded
//!   think-time stream).
//! * **Admission** consumes the per-engine pending arena
//!   (`crate::arena::IndexQueue` of `PendingReq` admission events) and
//!   produces residency (`ActiveSeq` entries in the engine's active set).
//! * **Prefill** and **Decode** advance the active set — one interleaved
//!   pass per iteration, because a continuous-batching step moves prefill
//!   chunks and decode tokens through the *same* pipeline pass.
//! * **Migrate**'s in-flight set is the imported subset of the decode
//!   engines' pending arenas (a migration is announced as a
//!   `PendingReq` gated on its landing time); it is deliberately not
//!   duplicated into a separate queue, so the conservation invariant
//!   `arrivals + gated + Σ pending + Σ active + completed + dropped =
//!   injected` holds at every step boundary.
//! * **Complete** retires finished sequences (releasing closed-loop users
//!   or handing KV to Migrate on a disaggregated prefill pool).
//!
//! Together with the engines' KV managers and the fault injector these
//! queues are the *complete* simulator state — which is what makes
//! [`crate::scenario::Scenario::checkpoint`] /
//! [`crate::scenario::Scenario::resume`] possible.
//!
//! # Event-kind ownership
//!
//! Each lifecycle [`EventKind`] is emitted by exactly one stage; the
//! mapping is the single table behind [`event_kind`], and every emission
//! site routes through `Stage::emit` / `Stage::emit_for`, which
//! debug-assert the table. Fault and remap events are out-of-band (they
//! interrupt the pipeline rather than advance it) and belong to the
//! pseudo-stage [`Stage::Fault`].

pub(crate) mod admission;
pub(crate) mod arrival;
pub(crate) mod complete;
pub(crate) mod decode;
pub(crate) mod migrate;
pub(crate) mod prefill;

use ouro_trace::{EventKind, Tracer};
use ouro_workload::TimedTrace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// The stages of the request pipeline, plus the out-of-band fault path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// A request enters the cluster and is routed to an entry wafer.
    Arrival,
    /// The engine admits (or drops, or evicts for) a pending request.
    Admission,
    /// Prompt tokens stream through the pipeline.
    Prefill,
    /// KV moves between wafers (disaggregated handoff).
    Migrate,
    /// Autoregressive token generation.
    Decode,
    /// The request retires.
    Complete,
    /// Out-of-band: runtime core faults and replacement-chain remaps.
    Fault,
}

impl Stage {
    /// Every stage, in pipeline order (the fault pseudo-stage last).
    pub const ALL: [Stage; 7] = [
        Stage::Arrival,
        Stage::Admission,
        Stage::Prefill,
        Stage::Migrate,
        Stage::Decode,
        Stage::Complete,
        Stage::Fault,
    ];

    /// Stable lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            Stage::Arrival => "arrival",
            Stage::Admission => "admission",
            Stage::Prefill => "prefill",
            Stage::Migrate => "migrate",
            Stage::Decode => "decode",
            Stage::Complete => "complete",
            Stage::Fault => "fault",
        }
    }

    /// Emits `kind` on `tracer`, debug-asserting that this stage owns the
    /// kind per [`event_kind`]. All engine-stream emission sites route
    /// through here, so the ownership table cannot drift from the code.
    pub(crate) fn emit(self, tracer: &mut Tracer, t_s: f64, req: Option<usize>, kind: EventKind) {
        debug_assert_eq!(
            event_kind(kind.name()),
            self,
            "stage {self:?} emitted {}, owned by {:?}",
            kind.name(),
            event_kind(kind.name())
        );
        #[expect(
            clippy::disallowed_methods,
            reason = "the one forwarding site behind the EVENT_OWNERS debug assert"
        )]
        tracer.emit(t_s, req, kind);
    }

    /// [`Stage::emit`] for driver-stream events stamped onto a wafer.
    pub(crate) fn emit_for(
        self,
        tracer: &mut Tracer,
        wafer: usize,
        t_s: f64,
        req: Option<usize>,
        kind: EventKind,
    ) {
        debug_assert_eq!(
            event_kind(kind.name()),
            self,
            "stage {self:?} emitted {}, owned by {:?}",
            kind.name(),
            event_kind(kind.name())
        );
        #[expect(
            clippy::disallowed_methods,
            reason = "the one forwarding site behind the EVENT_OWNERS debug assert"
        )]
        tracer.emit_for(wafer, t_s, req, kind);
    }
}

/// The single table mapping every lifecycle event kind (by its pinned
/// [`EventKind::ALL_NAMES`] name) to the stage that emits it. Each kind is
/// owned by exactly one stage — asserted by the coverage test below and,
/// in debug builds, at every emission site via `Stage::emit`.
pub const EVENT_OWNERS: [(&str, Stage); 15] = [
    ("arrival", Stage::Arrival),
    ("admission", Stage::Admission),
    ("drop", Stage::Admission),
    ("evict", Stage::Admission),
    ("prefill_start", Stage::Prefill),
    ("prefill_end", Stage::Prefill),
    ("kv_export", Stage::Migrate),
    ("kv_import", Stage::Migrate),
    ("migrate_start", Stage::Migrate),
    ("migrate_arrive", Stage::Migrate),
    ("decode_step", Stage::Decode),
    ("first_token", Stage::Decode),
    ("complete", Stage::Complete),
    ("fault", Stage::Fault),
    ("remap", Stage::Fault),
];

/// The stage that owns (is the unique emitter of) the event kind named
/// `name` — the table-driven lookup behind every emission site.
///
/// # Panics
///
/// Panics on a name outside [`EventKind::ALL_NAMES`]; the taxonomy is
/// closed, so an unknown name is a programming error.
pub fn event_kind(name: &str) -> Stage {
    EVENT_OWNERS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, s)| s)
        .unwrap_or_else(|| panic!("event kind {name:?} is outside the closed taxonomy"))
}

/// One open arrival waiting to be routed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ArrivalEvent {
    /// Instant the request enters the cluster.
    pub(crate) at_s: f64,
    /// Index into the timed trace's arrival list.
    pub(crate) index: usize,
}

/// The arrival stage's typed queues — together with the per-engine pending
/// arenas and active sets, the complete request-location state of a run.
#[derive(Debug, Clone)]
pub(crate) struct StageQueues {
    /// Open arrivals, sorted ascending by time. Closed-loop releases are
    /// re-inserted in sorted position as completions free their users.
    pub(crate) arrivals: VecDeque<ArrivalEvent>,
    /// Closed-loop requests waiting for a completion to release them, in
    /// submission order.
    pub(crate) gated: VecDeque<usize>,
    /// Mean think time between a completion and the released arrival.
    pub(crate) think_time_s: f64,
    /// The seeded think-time stream (deterministically derived from the
    /// workload seed; its raw state is checkpointed so a resumed run
    /// continues the same stream).
    pub(crate) think_rng: StdRng,
}

impl StageQueues {
    /// Builds the arrival queues of a fresh run over `timed`.
    pub(crate) fn new(timed: &TimedTrace) -> StageQueues {
        let arrivals: VecDeque<ArrivalEvent> = timed
            .arrivals
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.is_gated())
            .map(|(i, r)| ArrivalEvent { at_s: r.arrival_s, index: i })
            .collect();
        let gated: VecDeque<usize> =
            timed.arrivals.iter().enumerate().filter(|(_, r)| r.is_gated()).map(|(i, _)| i).collect();
        let think_time_s = match timed.config {
            ouro_workload::ArrivalConfig::ClosedLoop { think_time_s, .. } => think_time_s,
            _ => 0.0,
        };
        StageQueues {
            arrivals,
            gated,
            think_time_s,
            think_rng: StdRng::seed_from_u64(timed.seed ^ 0x7417_1e5e_ed00_0002),
        }
    }

    /// Requests not yet handed to any engine (open plus gated).
    pub(crate) fn waiting(&self) -> usize {
        self.arrivals.len() + self.gated.len()
    }
}

/// A sequence resident in the KV cache — the prefill/decode stages'
/// per-engine work set.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ActiveSeq {
    /// Index into the engine's record table.
    pub(crate) rec: usize,
    /// Prefill (or recompute) tokens still to stream through the pipeline.
    pub(crate) prefill_remaining: usize,
    /// Decode tokens emitted so far.
    pub(crate) decoded: usize,
    /// Monotone admission stamp; the eviction victim is the largest.
    pub(crate) admission_order: u64,
    /// Disaggregated prefill: the sequence completes (and exports its KV)
    /// when prefill finishes, emitting no decode tokens here.
    pub(crate) prefill_only: bool,
}

/// A request waiting for admission (fresh, evicted with progress, or an
/// imported-KV arrival waiting out its migration) — the admission stage's
/// typed event, queued in the engine's pending arena.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingReq {
    /// Index into the engine's record table.
    pub(crate) rec: usize,
    /// Decode tokens already emitted before an eviction (0 for fresh).
    pub(crate) decoded: usize,
    /// Earliest admission time: the arrival for local requests, the
    /// migration-completion instant for imported KV. Evicted requeues use
    /// the eviction clock (already in the past). Queue-wait accounting
    /// measures from this instant, so migration transit never counts as
    /// queueing.
    pub(crate) ready_s: f64,
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

#[cfg(test)]
mod tests {
    use super::*;
    use ouro_trace::EventKind;

    #[test]
    fn every_lifecycle_event_kind_is_owned_by_exactly_one_stage() {
        // Coverage: the ownership table spans the closed taxonomy exactly.
        let mut owned: Vec<&str> = EVENT_OWNERS.iter().map(|&(n, _)| n).collect();
        owned.sort_unstable();
        let mut all: Vec<&str> = EventKind::ALL_NAMES.to_vec();
        all.sort_unstable();
        assert_eq!(owned, all, "the stage table must cover every event kind exactly once");
        // Uniqueness: no name appears under two stages.
        for (i, &(name, stage)) in EVENT_OWNERS.iter().enumerate() {
            for &(other, other_stage) in &EVENT_OWNERS[i + 1..] {
                assert!(name != other, "{name} owned by both {stage:?} and {other_stage:?}");
            }
        }
        // The lookup agrees with the table for every pinned name.
        for &(name, stage) in &EVENT_OWNERS {
            assert_eq!(event_kind(name), stage);
        }
    }

    #[test]
    #[should_panic(expected = "outside the closed taxonomy")]
    fn unknown_event_kinds_are_rejected() {
        event_kind("warp_core_breach");
    }

    #[test]
    fn stage_names_are_stable() {
        let names: Vec<&str> = Stage::ALL.iter().map(Stage::name).collect();
        assert_eq!(names, vec!["arrival", "admission", "prefill", "migrate", "decode", "complete", "fault"]);
    }
}
