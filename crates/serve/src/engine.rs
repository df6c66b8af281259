//! The single-wafer serving engine: continuous batching with chunked prefill
//! over the distributed KV cache.
//!
//! The engine advances in *iterations* (steps), the unit of continuous
//! batching: at each step boundary it admits waiting requests FCFS into the
//! KV cache (most-recently-admitted eviction on capacity exhaustion,
//! admission suspended until a completion, anti-thrashing threshold inside
//! the manager). Every step then moves a chunk of prefill tokens for each
//! prefilling sequence and one decode token for each decoding sequence, and
//! charges the step's wall-clock duration from the hardware-derived
//! [`HwStageTimes`].
//!
//! The per-stage logic lives in [`crate::stage`]: [`Engine::step`] is the
//! orchestrator that sequences the Admission → Prefill/Decode → Complete
//! stages over this wafer's queues.
//!
//! # Event-driven decode
//!
//! Between its events a decoding sequence changes in one way only: it
//! takes one token per step. So the engine touches a sequence only at its
//! events:
//!
//! * a prefill chunk (every step while it prefills);
//! * its first token;
//! * the token that overflows its KV slot's `room` and needs a new block;
//! * its last token (completion);
//! * an eviction, by admission pressure, a fault or a failed block
//!   allocation.
//!
//! Each step adds the number of decoding sequences to three running
//! counters, the context sum, the tokens not yet handed to the KV manager
//! (`lazy_tokens`) and, through them, the step's token count; planning
//! reads the counters and no sequence. A dense `next_event` column, kept
//! in lockstep with the active set, holds the step of each sequence's next
//! event, and each step handles the due ones in active-set order. That
//! keeps the orderings the outputs depend on: `prefill_end` and
//! `first_token` interleave in active-set order, boundary-crossers
//! allocate in active-set order, failed allocations evict from the highest
//! index down, and the Complete stage runs on every step with a
//! completion.
//!
//! A sequence's lazy tokens are written back (*materialized*) into its
//! `decoded` count and into the KV manager, in one `append_at`, at its own
//! events, before a fault strikes the manager, and in the copy a
//! checkpoint records. The routing signal ([`Engine::kv_load`]) and the
//! `decode_step` trace event add `lazy_tokens`, so every observable reads
//! as if each token had been appended in its own step.
//!
//! A step that moves `T` tokens through the token-grained pipeline with mean
//! context `c̄` takes `max(L(c̄), T · b(c̄))` seconds, where `L` is the full
//! pipeline latency of one token and `b` the bottleneck stage interval: with
//! few tokens in flight the pipeline drains before it refills (the
//! autoregressive limit of §6.2), with many it streams one token per
//! bottleneck interval.
//!
//! The offline [`ouro_kvcache::KvScheduler`] replays a trace with the same
//! event structure: lazy progress counted from `since`, a dense
//! `next_event` column in lockstep with the active set, due events handled
//! in active-set order with one `append_at` each, and failed boundary
//! appends evicted from the highest index down. The two loops differ only
//! in their admission rules (the engine's are the `stage::admission`
//! module), in five ways:
//!
//! * an engine victim keeps its decode progress, the way a serving system
//!   replays a prefix; an offline victim restarts decode from scratch, which
//!   would corrupt latency accounting here;
//! * so re-admission asks for `prompt + decoded` tokens, not the prompt;
//! * the engine lifts a suspension when nothing is resident (a suspension
//!   with nothing left to complete would deadlock);
//! * when the queue head cannot fit beside a lone resident, the engine
//!   keeps the resident and suspends admission until it completes;
//!   evicting it would re-admit it at the same instant, and the clock
//!   would never move. The offline scheduler evicts it;
//! * when nothing is resident the offline drop takes the head of the queue,
//!   which can be the eviction victim rather than the request that failed
//!   to fit; the engine drops only a request an empty cache cannot hold.

use crate::metrics::RequestRecord;
use crate::stage::{self, ActiveSeq, InFlight, PendingQueue, PendingReq};
use ouro_kvcache::{KvCoreFailure, KvError, KvManager, KvManagerConfig, KvManagerSnapshot, KvTransferStats};
use ouro_sim::pipeline::StageTimeTable;
use ouro_sim::HwStageTimes;
use ouro_trace::{EventKind, Tracer};
use ouro_workload::Request;

/// Maximum number of simultaneously resident sequences per engine (the KV
/// cache usually saturates first).
pub(crate) const MAX_BATCH: usize = 4096;

/// Prefill tokens processed per sequence per iteration (chunked prefill, so
/// long prompts cannot starve decode steps).
pub(crate) const PREFILL_CHUNK: usize = 128;

/// Raw counters exposed by one engine.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EngineStats {
    /// Admissions into the KV cache, including re-admissions after eviction.
    pub admissions: u64,
    /// Capacity evictions.
    pub evictions: u64,
    /// Prefill tokens charged at *re-admissions* of previously evicted
    /// sequences — the replay cost of rebuilding lost KV. Charged at the
    /// single point where the recompute work is actually scheduled (the
    /// re-admission), so a victim evicted by the capacity path and the
    /// fault path in the same step can never be double-counted, and a
    /// prefix-cache hit on re-admission reduces the charge to the tokens
    /// genuinely recomputed.
    pub recomputed_tokens: u64,
    /// Tokens charged as prefill or recompute work across all admissions.
    pub prefilled_tokens: u64,
    /// Prompt tokens served from the shared-prefix cache (prefill skipped).
    pub cached_prefix_tokens: u64,
    /// Admissions whose prefix lookup returned a non-empty cached prefix.
    pub prefix_hits: u64,
    /// Requests dropped because they cannot fit in an empty cache.
    pub dropped: u64,
    /// Tokens of migrated KV discarded because the imported request was
    /// dropped at admission (its prompt alone exceeds an empty cache).
    pub(crate) dropped_imported_tokens: u64,
    /// Continuous-batching iterations executed.
    pub steps: u64,
    /// Peak resident sequences.
    pub peak_resident: usize,
    /// Runtime core faults absorbed by this wafer.
    pub(crate) faults: u64,
    /// Sequences evicted because a fault took their KV core (a subset of
    /// `evictions`).
    pub fault_evicted_seqs: u64,
    /// Token slots of KV lost to faulted cores (recomputed on re-admission).
    pub(crate) fault_evicted_tokens: u64,
    /// Wall-clock spent stalled in replacement-chain remaps, charged to
    /// every in-flight request on the wafer.
    pub(crate) stall_s: f64,
}

/// A sequence the Complete stage retired: a finished request, or on a
/// disaggregated prefill wafer a finished prefill whose KV is handed to
/// the migrate stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// The request; its id is the trace index.
    pub(crate) request: Request,
    /// The request's original arrival.
    pub(crate) arrival_s: f64,
    /// The instant the request finished, or its prefill did.
    pub(crate) done_s: f64,
}

/// How a request enters the engine — the parameter of the single admission
/// path ([`Engine::submit_with`]) every submission flavour goes through.
/// Consolidating the three former entry points behind one enum keeps their
/// bookkeeping (readiness gating, queue-demand tracking) from drifting
/// apart.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Admission {
    /// Full local service: prefill then decode on this wafer.
    Local,
    /// Prefill-only service (the prefill wafer of a disaggregated
    /// deployment): the sequence completes — and its KV is exported for
    /// migration — as soon as prefill finishes, emitting no decode tokens
    /// here.
    PrefillOnly,
    /// The prompt KV was prefilled on another wafer and arrives over the
    /// inter-wafer link at `ready_s`: admission *imports* the KV
    /// (allocating capacity without recompute) and the sequence goes
    /// straight to decode.
    Imported {
        /// Instant the migrated KV lands and the request becomes
        /// admissible.
        ready_s: f64,
        /// Prompt tokens whose KV travels the link: the rest was
        /// deduplicated against this wafer's prefix cache when the
        /// migration was announced. At most the prompt length.
        wire_tokens: usize,
    },
}

/// One wafer's online serving engine.
///
/// Fields are crate-visible: the stage units in `crate::stage` operate
/// directly on the engine's queues, and `crate::snapshot` serializes
/// them. Together with the KV manager they are the engine's *complete*
/// mutable state — the checkpoint/resume identity test holds the proof.
#[derive(Debug, Clone)]
pub struct Engine {
    /// The stage-time model. Change its parameters only through
    /// [`Engine::set_mean_hops`], which keeps `stage_table` in step.
    pub(crate) times: HwStageTimes,
    /// `times.step_pricing_s` per attended length, filled by the decode
    /// stage. Derived state: never serialized, refilled on demand.
    pub(crate) stage_table: StageTimeTable<(f64, f64)>,
    pub(crate) manager: KvManager,
    /// Shared-prefix KV reuse ([`crate::Scenario::prefix_caching`]); off
    /// is the ablation baseline, and untagged requests behave identically
    /// either way.
    pub(crate) prefix_caching: bool,
    /// One record per request this engine finished, in completion order.
    /// A prefill-only retirement makes none: the decode wafer finishes
    /// the request.
    pub(crate) records: Vec<RequestRecord>,
    /// Requests submitted so far; the next submission's KV sequence id.
    pub(crate) submitted: u64,
    /// The waiting queue ([`PendingQueue`]): admission takes the
    /// earliest-submitted admissible entry and nothing else, and the idle
    /// fast-forward reads its next-ready time, both in O(log n).
    pub(crate) pending: PendingQueue,
    /// Resident sequences. Change it only through
    /// [`Engine::push_active`], [`Engine::take_active`] and the Complete
    /// stage, which keep the event column and the counters below in step.
    pub(crate) active: Vec<ActiveSeq>,
    /// The step of each active sequence's next event, in lockstep with
    /// `active` (see the module docs). The counters below are running sums
    /// over `active`. All five are derived state: never serialized, rebuilt
    /// by [`Engine::push_active`] on resume.
    pub(crate) next_event: Vec<u64>,
    /// Sequences that take a decode token in every step.
    pub(crate) decoding: usize,
    /// Prefill tokens the next step moves: each prefilling sequence's
    /// chunk.
    pub(crate) prefill_tokens: usize,
    /// Resident context: prompt plus decoded tokens, lazy ones included.
    pub(crate) ctx_tokens: u64,
    /// Decode tokens taken but not yet handed to the KV manager.
    pub(crate) lazy_tokens: usize,
    /// The active indices whose decode growth failed in the current step,
    /// evicted at its end. A scratch buffer, empty between steps and never
    /// serialized, kept so that no step allocates one.
    pub(crate) evicted_now: Vec<usize>,
    pub(crate) admission_suspended: bool,
    pub(crate) clock_s: f64,
    pub(crate) busy_s: f64,
    /// Token-demand of the pending queue (prompt + decoded per request),
    /// maintained incrementally for the `LeastKvLoad` router.
    pub(crate) pending_tokens: usize,
    /// Its `admissions` count also stamps each admission's
    /// `ActiveSeq::admission_order`.
    pub(crate) stats: EngineStats,
    /// Lifecycle event emission, disabled (and costless) by default.
    /// Strictly observational: nothing the tracer does feeds back into
    /// admission, timing or eviction decisions.
    pub(crate) tracer: Tracer,
}

impl Engine {
    /// Builds an engine over a fresh KV manager, with shared-prefix KV
    /// reuse on or off.
    ///
    /// # Errors
    ///
    /// Propagates [`KvError::NoKvCores`] from the manager.
    pub fn new(times: HwStageTimes, kv: KvManagerConfig, prefix_caching: bool) -> Result<Engine, KvError> {
        Ok(Engine::with_manager(times, KvManager::new(kv)?, prefix_caching))
    }

    /// An idle engine over `manager`, which may hold restored state.
    pub(crate) fn with_manager(times: HwStageTimes, manager: KvManager, prefix_caching: bool) -> Engine {
        Engine {
            times,
            stage_table: StageTimeTable::new(),
            manager,
            prefix_caching,
            records: Vec::new(),
            submitted: 0,
            pending: PendingQueue::new(),
            active: Vec::new(),
            next_event: Vec::new(),
            decoding: 0,
            prefill_tokens: 0,
            ctx_tokens: 0,
            lazy_tokens: 0,
            evicted_now: Vec::new(),
            admission_suspended: false,
            clock_s: 0.0,
            busy_s: 0.0,
            pending_tokens: 0,
            stats: EngineStats::default(),
            tracer: Tracer::off(),
        }
    }

    /// Wires a tracer into the engine (replacing the default disabled
    /// one). Events emitted from here on land in the tracer's sink.
    pub(crate) fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The engine's tracer (disabled unless [`Engine::set_tracer`] armed
    /// it).
    pub(crate) fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Mutable tracer access, for collaborators that emit wafer-level
    /// events on this engine's stream (the fault injector's remap events).
    pub(crate) fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// The engine's simulated clock.
    pub fn clock_s(&self) -> f64 {
        self.clock_s
    }

    /// Seconds spent with at least one token in flight.
    pub(crate) fn busy_s(&self) -> f64 {
        self.busy_s
    }

    /// Whether the engine has queued or resident work.
    pub fn has_work(&self) -> bool {
        !self.pending.is_empty() || !self.active.is_empty()
    }

    /// Requests waiting for admission.
    pub fn queue_len(&self) -> usize {
        self.pending.len()
    }

    /// Sequences resident in the KV cache.
    pub fn resident(&self) -> usize {
        self.active.len()
    }

    /// KV pressure for routing: resident plus queued token demand relative to
    /// cache capacity (may exceed 1 under overload).
    pub(crate) fn kv_load(&self) -> f64 {
        // Lazy decode tokens included: what the manager would count had
        // every token been appended in its own step.
        let demand = self.manager.used_tokens() + self.lazy_tokens + self.pending_tokens;
        demand as f64 / self.manager.capacity_tokens().max(1) as f64
    }

    /// The engine's next event time: its clock while sequences are
    /// resident, otherwise the earliest instant queued work becomes
    /// admissible (stepping an idle engine fast-forwards the clock there).
    /// Schedulers arbitrating between engines must order by this rather
    /// than the raw clock, or an idle engine gets stepped — and commits its
    /// clock — to a late-landing migration before another engine at an
    /// earlier simulated time announces one that lands sooner.
    pub(crate) fn next_event_s(&self) -> f64 {
        if self.active.is_empty() {
            self.pending.next_ready_s(self.clock_s)
        } else {
            self.clock_s
        }
    }

    /// Wire-token demand of queued imported-KV requests that have not been
    /// admitted yet (migrations announced but not landed in the cache);
    /// used by conservation checks of the disaggregated cluster. Counts the
    /// tokens actually travelling — prefix-deduplicated tokens never enter
    /// the wire accounting. A sum over the queue: only the end-of-run
    /// report asks.
    pub(crate) fn pending_imported_tokens(&self) -> usize {
        self.pending.entries().filter(|(_, p)| p.imported).map(|(_, p)| p.wire_tokens).sum()
    }

    /// Tokens of `request`'s shared prefix already resident in this wafer's
    /// prefix cache (0 with prefix caching disabled or no tag). The signal
    /// behind prefix-affinity routing and migration byte dedup.
    pub(crate) fn prefix_cached_tokens(&self, request: &Request) -> usize {
        if !self.prefix_caching {
            return 0;
        }
        match request.shared_prefix {
            Some(p) => self.manager.prefix_lookup(p.group, p.tokens.min(request.prompt_len)),
            None => 0,
        }
    }

    /// KV exported to / imported from other wafers by this engine's manager.
    pub fn kv_transfers(&self) -> &KvTransferStats {
        self.manager.transfer_stats()
    }

    /// The manager's lifetime block audit (`allocated − freed == live`),
    /// exposed so fault-injection tests can assert conservation after every
    /// remap without reaching into the manager.
    pub fn kv_audit(&self) -> ouro_kvcache::BlockAudit {
        self.manager.block_audit()
    }

    /// Whether the wafer can still hold sequences (both attention roles
    /// have a healthy KV core left). Routers skip unserviceable wafers.
    pub(crate) fn is_serviceable(&self) -> bool {
        self.manager.is_serviceable()
    }

    /// Fraction of this wafer's KV cores still healthy, in `[0, 1]`.
    #[cfg(test)]
    pub(crate) fn healthy_kv_fraction(&self) -> f64 {
        self.manager.healthy_kv_fraction()
    }

    /// Applies a runtime core fault to this wafer at `at_s` (§4.3.3): the
    /// replacement chain absorbs one KV core (the one nearest `preferred_kv_core`
    /// in the manager's flat index space), every sequence whose KV lived on
    /// it is evicted and re-enqueued for recompute at real prefill cost, a
    /// remap stall of `stall_s` is charged to every in-flight request (the
    /// wafer pauses while weights shift along the chain), and the pipeline's
    /// mean hop distance grows by `mean_hops_penalty` — the displaced tiles
    /// sit one hop further from their neighbours, which permanently slows
    /// every stage via [`HwStageTimes`].
    ///
    /// Returns whether a KV core failed: `false` — having changed nothing
    /// — when every KV core has already failed (the wafer is dead; the
    /// router must steer around it). What the fault evicted is counted in
    /// [`EngineStats::fault_evicted_seqs`] and
    /// `EngineStats::fault_evicted_tokens`.
    pub fn apply_fault(
        &mut self,
        at_s: f64,
        stall_s: f64,
        preferred_kv_core: usize,
        mean_hops_penalty: f64,
    ) -> bool {
        assert!(stall_s >= 0.0 && mean_hops_penalty >= 0.0, "fault charges cannot be negative");
        let Some(failure) = self.fail_kv_core(preferred_kv_core, |e, failure| {
            // The fault strikes at `at_s` but the engine only observes it
            // at a step boundary; the stall extends whichever is later.
            e.clock_s = e.clock_s.max(at_s) + stall_s;
            e.set_mean_hops(e.times.mean_hops + mean_hops_penalty);
            e.stats.faults += 1;
            e.stats.stall_s += stall_s;
            e.stats.fault_evicted_seqs += failure.evicted_sequences.len() as u64;
            e.stats.fault_evicted_tokens += failure.evicted_tokens as u64;
            e.tracer.emit(
                e.clock_s,
                None,
                EventKind::Fault { kv_core: failure.index, evicted_seqs: failure.evicted_sequences.len() },
            );
        }) else {
            return false;
        };
        // A fault that evicted sequences freed capacity, so a pre-fault
        // admission suspension no longer reflects reality. A fault that
        // evicted nothing only *shrank* the cache — lifting the suspension
        // then would make the retry protocol evict a healthy resident
        // sequence and misattribute the recompute to the fault.
        if !failure.evicted_sequences.is_empty() {
            self.admission_suspended = false;
        }
        true
    }

    /// The one fault-eviction path: fails one KV crossbar from
    /// `preferred_kv_core` on ([`KvManager::fail_kv_core`]), runs
    /// `on_fail`, then evicts every sequence whose KV the crossbar held and
    /// re-enqueues it for recompute. Lazy decode tokens are materialized
    /// first, so the failure's `evicted_tokens` and each victim's `decoded`
    /// count every token decoded so far. Returns `None`, having evicted
    /// nothing, when every crossbar has already failed.
    fn fail_kv_core(
        &mut self,
        preferred_kv_core: usize,
        on_fail: impl FnOnce(&mut Engine, &KvCoreFailure),
    ) -> Option<KvCoreFailure> {
        for i in 0..self.active.len() {
            self.materialize(i).expect("lazy tokens fit their slot's room");
        }
        let failure = self.manager.fail_kv_core(preferred_kv_core)?;
        on_fail(self, &failure);
        for &seq in &failure.evicted_sequences {
            let Some(pos) = self.active.iter().position(|a| a.req.seq == seq) else {
                // The manager can only name resident sequences, and every
                // resident sequence is active.
                unreachable!("sequence {seq} is resident but not active");
            };
            let victim = self.take_active(pos);
            stage::admission::requeue_evicted(self, victim, true);
        }
        Some(failure)
    }

    /// Sets the pipeline's mean hop distance and forgets every memoized
    /// stage time, which was priced at the old distance. The only way the
    /// engine's stage-time model changes after construction.
    pub(crate) fn set_mean_hops(&mut self, mean_hops: f64) {
        self.times.mean_hops = mean_hops;
        self.stage_table.clear();
    }

    /// Takes the wafer out of service at `at_s` — the path for a fault the
    /// replacement chain cannot heal (no KV core left to absorb the
    /// weights). Every remaining healthy KV crossbar fails at once, the
    /// affected sequences are evicted for recompute, and the whole outage
    /// counts as a *single* fault in [`EngineStats`] (it is one fault
    /// event, however many crossbars it takes down).
    pub(crate) fn decommission(&mut self, at_s: f64) {
        self.clock_s = self.clock_s.max(at_s);
        let mut evicted_seqs = 0usize;
        let mut evicted_tokens = 0u64;
        let mut first_core = None;
        while let Some(failure) = self.fail_kv_core(0, |_, _| {}) {
            first_core.get_or_insert(failure.index);
            evicted_tokens += failure.evicted_tokens as u64;
            evicted_seqs += failure.evicted_sequences.len();
        }
        self.tracer.emit(
            self.clock_s,
            None,
            EventKind::Fault { kv_core: first_core.unwrap_or(0), evicted_seqs },
        );
        self.stats.faults += 1;
        self.stats.fault_evicted_seqs += evicted_seqs as u64;
        self.stats.fault_evicted_tokens += evicted_tokens;
        if evicted_seqs > 0 {
            self.admission_suspended = false;
        }
    }

    /// Raw counters.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// The records of the requests this engine finished, in completion
    /// order.
    pub fn records(&self) -> &[RequestRecord] {
        &self.records
    }

    /// The single admission path: submits a request arriving at
    /// `arrival_s` under the given [`Admission`] flavour, tagged with the
    /// global id (its trace index) that its trace events and its
    /// `Completion` carry. `arrival_s` is always the request's original
    /// arrival (kept for TTFT/E2E accounting); [`Admission::Imported`]
    /// gates admissibility on its own `ready_s`. The engine-local
    /// submission index becomes the sequence's KV id.
    ///
    /// # Panics
    ///
    /// Panics if an import's `wire_tokens` exceed the prompt.
    pub fn submit_with(&mut self, request: Request, arrival_s: f64, admission: Admission, id: usize) {
        let (ready_s, imported, wire_tokens, prefill_only) = match admission {
            Admission::Local => (arrival_s, false, 0, false),
            Admission::PrefillOnly => (arrival_s, false, 0, true),
            Admission::Imported { ready_s, wire_tokens } => (ready_s, true, wire_tokens, false),
        };
        assert!(wire_tokens <= request.prompt_len, "an import cannot ship more KV than its prompt");
        // No clock fast-forward here: an idle engine advances to the
        // earliest admissible instant at the top of `step`, where the
        // *minimum* ready time over the whole queue is known. Jumping to
        // this request's `ready_s` now would strand a later submission that
        // becomes ready sooner (migrations land out of submission order).
        let seq = self.submitted;
        self.submitted += 1;
        let req = InFlight { request: Request { id, ..request }, arrival_s, first_token_s: f64::NAN, seq };
        self.pending.push_back(
            ready_s,
            PendingReq { req, decoded: 0, imported, wire_tokens, evicted: false, prefill_only },
        );
        self.pending_tokens += request.prompt_len;
    }

    /// Runs one continuous-batching iteration through the stage pipeline:
    /// Admission admits FCFS, every prefilling sequence moves a chunk and
    /// every decoding sequence a token, Prefill and Decode handle the
    /// sequences whose events fall due in one interleaved pass, the clock
    /// advances by the step duration, and Complete retires finished
    /// sequences (a completion lifts the admission suspension).
    ///
    /// Returns the completions that occurred, stamped with their times.
    pub fn step(&mut self) -> Vec<Completion> {
        // An empty batch with only future-ready queued work means the engine
        // is idle: fast-forward to the earliest admissible instant (not the
        // head's — migrations make readiness non-monotone with queue order).
        self.clock_s = self.next_event_s();
        stage::admission::admit_waiting(self);
        if self.active.is_empty() {
            return Vec::new();
        }

        self.stats.peak_resident = self.stats.peak_resident.max(self.active.len());

        let (step_tokens, step_s) = stage::decode::plan_step(self);
        let end_s = self.clock_s + step_s;
        self.busy_s += step_s;
        stage::decode::emit_step(self, end_s, step_tokens);

        // Every decoding sequence takes its token, lazily.
        self.stats.steps += 1;
        let now = self.stats.steps;
        self.lazy_tokens += self.decoding;
        self.ctx_tokens += self.decoding as u64;
        // Handle the due events in ONE interleaved prefill/decode pass in
        // active-set order (two separate passes would reorder
        // `prefill_end` relative to `first_token`).
        let mut finished = false;
        let mut i = 0;
        while let Some(due) = self.next_event[i..].iter().position(|&step| step <= now) {
            i += due;
            if !stage::prefill::advance_one(self, i, end_s) {
                stage::decode::advance_one(self, i, end_s);
            }
            finished |= self.active[i].done();
            i += 1;
        }
        // Decode-growth failures evict (highest index first so swap_remove
        // keeps earlier indices valid).
        self.evicted_now.sort_unstable_by(|a, b| b.cmp(a));
        for at in 0..self.evicted_now.len() {
            let victim = self.take_active(self.evicted_now[at]);
            stage::admission::requeue_evicted(self, victim, false);
        }
        self.evicted_now.clear();

        self.clock_s = end_s;
        if !finished {
            return Vec::new();
        }
        self.admission_suspended = false;
        stage::complete::retire(self, end_s)
    }

    /// Adds `a` to the active set as of the end of the last step: counts
    /// it and books its first event.
    pub(crate) fn push_active(&mut self, a: ActiveSeq) {
        let a = ActiveSeq { since: self.stats.steps, ..a };
        self.decoding += usize::from(a.decoding());
        self.prefill_tokens += a.prefill_remaining.min(PREFILL_CHUNK);
        self.ctx_tokens += self.resident_tokens(&a) as u64;
        self.next_event.push(self.event_step(&a));
        self.active.push(a);
    }

    /// Removes active sequence `i` the way `swap_remove` does, with its
    /// lazy tokens materialized. Between steps they fit the slot's room.
    pub(crate) fn take_active(&mut self, i: usize) -> ActiveSeq {
        self.materialize(i).expect("lazy tokens fit their slot's room");
        self.next_event.swap_remove(i);
        let a = self.active.swap_remove(i);
        self.decoding -= usize::from(a.decoding());
        self.prefill_tokens -= a.prefill_remaining.min(PREFILL_CHUNK);
        self.ctx_tokens -= self.resident_tokens(&a) as u64;
        a
    }

    /// The KV tokens `a` holds by the end of step `since`: its prompt and
    /// its written-back decode tokens.
    pub(crate) fn resident_tokens(&self, a: &ActiveSeq) -> usize {
        a.req.request.prompt_len + a.decoded
    }

    /// The step of `a`'s next event: its next prefill chunk; for a
    /// decoding sequence, the first of its first token, the token that
    /// overflows its slot's room and its last token; for a finished one,
    /// the next step's Complete stage.
    pub(crate) fn event_step(&self, a: &ActiveSeq) -> u64 {
        if !a.decoding() {
            return self.stats.steps + 1;
        }
        let left = a.req.request.decode_len - a.decoded;
        let until = if a.decoded == 0 { 1 } else { (self.manager.room(a.kv_slot) + 1).min(left) };
        a.since.saturating_add(until as u64)
    }

    /// Books active sequence `i`'s next event.
    pub(crate) fn schedule(&mut self, i: usize) {
        self.next_event[i] = self.event_step(&self.active[i]);
    }

    /// Materializes active sequence `i`: hands its lazy decode tokens to
    /// the KV manager in one append and adds them to `decoded`. At a block
    /// boundary the last of them needs a new block.
    ///
    /// # Errors
    ///
    /// Returns the manager's [`KvError::OutOfCapacity`] when that block
    /// cannot be allocated; the sequence keeps every token but that last
    /// one, and the caller evicts it.
    pub(crate) fn materialize(&mut self, i: usize) -> Result<(), KvError> {
        let lazy = self.active[i].lazy(self.stats.steps);
        self.lazy_tokens -= lazy;
        let result = write_back(&mut self.manager, &mut self.active[i], self.stats.steps);
        match result {
            Ok(()) => self.decoding -= usize::from(lazy > 0 && !self.active[i].decoding()),
            Err(_) => self.ctx_tokens -= 1,
        }
        result
    }

    /// The active set and KV manager snapshot with every lazy token
    /// materialized, as an engine that appended each token in its own step
    /// holds them: what a checkpoint records. The engine itself does not
    /// change, so checkpointing cannot perturb the run.
    pub(crate) fn settled_state(&self) -> (Vec<ActiveSeq>, KvManagerSnapshot) {
        let mut active = self.active.clone();
        if self.lazy_tokens == 0 {
            return (active, self.manager.snapshot());
        }
        let mut manager = self.manager.clone();
        for a in &mut active {
            write_back(&mut manager, a, self.stats.steps).expect("lazy tokens fit their slot's room");
        }
        (active, manager.snapshot())
    }
}

/// Writes `a`'s lazy decode tokens as of the end of step `now` back into
/// `manager`, in one append, and into `a.decoded`. On a failed append the
/// last token, the one that needed a new block, is not taken.
fn write_back(manager: &mut KvManager, a: &mut ActiveSeq, now: u64) -> Result<(), KvError> {
    let lazy = a.lazy(now);
    a.since = now;
    if lazy == 0 {
        return Ok(());
    }
    let result = manager.append_at(a.kv_slot, a.req.seq, lazy);
    a.decoded += if result.is_ok() { lazy } else { lazy - 1 };
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use ouro_hw::{CimCore, CoreId};
    use ouro_sim::model::zoo;
    use ouro_sim::noc::CommCost;

    fn times() -> HwStageTimes {
        HwStageTimes {
            model: zoo::llama_13b(),
            core: CimCore::paper(),
            cores_per_stage: [20, 0, 0, 7, 27, 27],
            comm: CommCost::paper(),
            mean_hops: 3.0,
            inter_wafer_crossings_per_token: 0.0,
        }
    }

    fn kv(cores: usize) -> KvManagerConfig {
        KvManagerConfig::new((0..cores).map(CoreId).collect(), 128)
    }

    fn engine(cores: usize) -> Engine {
        Engine::new(times(), kv(cores), true).unwrap()
    }

    /// An engine of `cores` KV cores with its tracer armed.
    fn traced(cores: usize) -> Engine {
        let mut e = engine(cores);
        e.set_tracer(Tracer::ring(0));
        e
    }

    /// The instants of request `id`'s `kind` events on `e`'s armed tracer.
    fn at(e: &Engine, id: usize, kind: &str) -> Vec<f64> {
        let events = e.tracer().events().iter();
        events.filter(|ev| ev.req == Some(id) && ev.kind.name() == kind).map(|ev| ev.t_s).collect()
    }

    /// The prefix-cached tokens of each of request `id`'s admissions.
    fn cached_at_admission(e: &Engine, id: usize) -> Vec<usize> {
        let events = e.tracer().events().iter().filter(|ev| ev.req == Some(id));
        events
            .filter_map(|ev| match ev.kind {
                EventKind::Admission { cached_tokens, .. } => Some(cached_tokens),
                _ => None,
            })
            .collect()
    }

    /// Steps `e` until request `id` has emitted its first token.
    fn step_to_first_token(e: &mut Engine, id: usize) {
        while at(e, id, "first_token").is_empty() {
            e.step();
        }
    }

    #[test]
    fn single_request_runs_to_completion() {
        let mut e = traced(8);
        e.submit_with(Request::new(0, 64, 8), 0.5, Admission::Local, 0);
        let mut completions = Vec::new();
        while e.has_work() {
            completions.extend(e.step());
        }
        assert_eq!(completions.len(), 1);
        let admitted_s = at(&e, 0, "admission")[0];
        let r = &e.records()[0];
        assert!(admitted_s >= 0.5);
        assert!(r.first_token_s > admitted_s, "prefill must take time");
        assert!(r.completed_s > r.first_token_s);
        assert_eq!(e.stats().dropped, 0);
        assert_eq!(e.stats().evictions, 0);
        assert!(e.busy_s() > 0.0);
    }

    #[test]
    fn admission_flavours_shape_the_lifecycle_records() {
        // Pins the behaviour of the three `Admission` flavours: Local
        // completes end-to-end, PrefillOnly exports KV, never emits a first
        // token and makes no record (the decode wafer finishes the request),
        // and Imported is gated on its `ready_s`, not the nominal arrival.
        let mut e = traced(8);
        e.submit_with(Request::new(0, 64, 8), 0.0, Admission::Local, 0);
        e.submit_with(Request::new(1, 64, 8), 0.0, Admission::PrefillOnly, 1);
        e.submit_with(
            Request::new(2, 64, 8),
            0.0,
            Admission::Imported { ready_s: 0.001, wire_tokens: 64 },
            2,
        );
        let mut completions = Vec::new();
        while e.has_work() {
            completions.extend(e.step());
        }
        let done_s =
            |id| completions.iter().find(|c| c.request.id == id).expect("every request retires").done_s;
        let record = |id| *e.records().iter().find(|r| r.completed_s == done_s(id)).expect("a record");
        assert_eq!(e.records().len(), 2, "a prefill-only retirement makes no record");
        let (local, imported) = (record(0), record(2));
        assert!(local.completed_s > local.first_token_s && local.first_token_s > 0.0);
        assert!(at(&e, 1, "first_token").is_empty(), "prefill-only never decodes a first token");
        assert!(done_s(1) > 0.0, "prefill-only completes at KV export");
        assert!(at(&e, 2, "admission")[0] >= 0.001, "imported admission waits for the KV to land");
        assert!(imported.completed_s > imported.first_token_s);
    }

    #[test]
    fn idle_engine_fast_forwards_to_arrivals() {
        let mut e = engine(8);
        e.submit_with(Request::new(0, 32, 4), 10.0, Admission::Local, 0);
        e.step();
        assert!(e.clock_s() >= 10.0, "the first step jumps an idle engine to the arrival");
        while e.has_work() {
            e.step();
        }
        let r = &e.records()[0];
        assert!(r.completed_s > 10.0);
        // Utilization excludes the idle gap before the arrival.
        assert!(e.busy_s() < r.completed_s - 5.0);
    }

    #[test]
    fn later_arrival_waits_for_its_timestamp() {
        let mut e = traced(8);
        e.submit_with(Request::new(0, 32, 64), 0.0, Admission::Local, 0);
        e.submit_with(Request::new(1, 32, 4), 1e9, Admission::Local, 1);
        // The first request completes long before the second arrives.
        let mut steps = 0;
        while e.records().is_empty() && steps < 10_000 {
            e.step();
            steps += 1;
        }
        assert!(e.records()[0].completed_s < 1e9);
        assert!(at(&e, 1, "admission").is_empty());
        while e.has_work() {
            e.step();
        }
        assert!(at(&e, 1, "admission")[0] >= 1e9);
    }

    #[test]
    fn a_lone_resident_is_kept_for_a_head_that_cannot_fit_beside_it() {
        // A 2-core cache holds ~32k tokens: either request fits alone, the
        // two do not fit together. Evicting the resident for the second
        // would re-admit it at the same instant, forever.
        let mut e = traced(2);
        e.submit_with(Request::new(0, 20_000, 8), 0.0, Admission::Local, 0);
        e.submit_with(Request::new(1, 20_000, 8), 0.0, Admission::Local, 1);
        let mut steps = 0;
        while e.has_work() {
            assert!(steps < 10_000, "stuck after {steps} steps at clock {}", e.clock_s());
            e.step();
            steps += 1;
        }
        assert_eq!(e.stats().evictions, 0);
        let [first, _] = e.records() else { panic!("two records") };
        let admitted_s = at(&e, 1, "admission");
        assert_eq!(admitted_s.len(), 1);
        assert!(admitted_s[0] >= first.completed_s, "the second waits for the first to complete");
    }

    #[test]
    fn overload_evicts_but_conserves_requests() {
        // A 2-core cache holds ~32k tokens; 40 requests of 2k tokens each
        // demand ~80k, so decode growth must evict.
        let mut e = engine(2);
        for i in 0..40 {
            e.submit_with(Request::new(i, 1000, 1000), 0.0, Admission::Local, i);
        }
        let mut completions = 0;
        let mut guard = 0;
        while e.has_work() && guard < 2_000_000 {
            completions += e.step().len();
            guard += 1;
        }
        assert!(guard < 2_000_000, "engine must make progress under overload");
        let done = e.records().len();
        assert!(e.records().iter().all(RequestRecord::completed), "a record is a finished request");
        assert_eq!(done, completions);
        assert_eq!(done + e.stats().dropped as usize, 40, "every request completes or is dropped");
        assert!(e.stats().evictions > 0, "a tiny cache must evict under this load");
        assert!(e.stats().recomputed_tokens > 0);
    }

    #[test]
    fn eviction_preserves_decode_progress() {
        let mut e = traced(2);
        for i in 0..40 {
            e.submit_with(Request::new(i, 800, 800), 0.0, Admission::Local, i);
        }
        while e.has_work() {
            e.step();
        }
        let evicted: Vec<usize> = (0..40).filter(|&id| !at(&e, id, "evict").is_empty()).collect();
        assert!(!evicted.is_empty(), "this workload must evict at least one request");
        for id in evicted {
            // The first token is emitted once, even across evictions, and
            // precedes completion.
            let (first, complete) = (at(&e, id, "first_token"), at(&e, id, "complete"));
            assert_eq!((first.len(), complete.len()), (1, 1), "request {id}");
            assert!(first[0] <= complete[0]);
        }
    }

    #[test]
    fn oversized_request_is_dropped_not_spun_on() {
        let mut e = engine(2);
        let cap = 100_000; // far beyond two cores of KV
        e.submit_with(Request::new(0, cap, 4), 0.0, Admission::Local, 0);
        e.submit_with(Request::new(1, 64, 4), 0.0, Admission::Local, 1);
        let mut completions = Vec::new();
        while e.has_work() {
            completions.extend(e.step());
        }
        assert_eq!(e.stats().dropped, 1);
        assert_eq!(e.records().len(), 1);
        assert_eq!(completions[0].request.id, 1, "the request that fits completes");
    }

    #[test]
    fn zero_decode_requests_complete_after_prefill() {
        let mut e = engine(8);
        e.submit_with(Request::new(0, 128, 0), 0.0, Admission::Local, 0);
        while e.has_work() {
            e.step();
        }
        let r = &e.records()[0];
        assert!(r.completed());
        assert!(r.first_token_s.is_nan(), "no decode token is ever emitted");
        assert!(r.completed_s > 0.0);
    }

    #[test]
    fn bigger_batches_run_more_tokens_per_step() {
        // With 8 identical requests resident, steady-state decode steps move
        // 8 tokens and so take at least as long as single-request steps, but
        // less than 8x (pipeline overlap).
        let run = |n: usize| -> f64 {
            let mut e = engine(16);
            for i in 0..n {
                e.submit_with(Request::new(i, 32, 64), 0.0, Admission::Local, i);
            }
            while e.has_work() {
                e.step();
            }
            e.records().iter().map(|r| r.completed_s).fold(0.0, f64::max)
        };
        let t1 = run(1);
        let t8 = run(8);
        assert!(t8 >= t1, "more work cannot finish earlier");
        assert!(t8 < 8.0 * t1, "continuous batching must overlap sequences, {t8} vs {t1}");
    }

    #[test]
    fn prefill_only_completes_at_prefill_end_and_exports_kv() {
        let mut e = traced(8);
        e.submit_with(Request::new(0, 256, 64), 0.0, Admission::PrefillOnly, 0);
        let mut completions = Vec::new();
        while e.has_work() {
            completions.extend(e.step());
        }
        assert_eq!(completions.len(), 1);
        assert!(completions[0].done_s > 0.0, "prefill-only service completes when prefill ends");
        assert!(e.records().is_empty(), "the decode wafer records the request, not this one");
        assert!(at(&e, 0, "first_token").is_empty(), "no decode token is emitted on the prefill wafer");
        let t = e.kv_transfers();
        assert_eq!(t.exported_sequences, 1);
        assert_eq!(t.exported_tokens, 256, "the whole prompt KV is exported");
        assert_eq!(t.imported_tokens, 0);
    }

    #[test]
    fn prefill_only_is_faster_than_full_service() {
        let run = |prefill_only: bool| -> f64 {
            let mut e = engine(8);
            let admission = if prefill_only { Admission::PrefillOnly } else { Admission::Local };
            e.submit_with(Request::new(0, 256, 64), 0.0, admission, 0);
            let mut completions = Vec::new();
            while e.has_work() {
                completions.extend(e.step());
            }
            completions[0].done_s
        };
        assert!(run(true) < run(false), "skipping 64 decode steps must save time");
    }

    #[test]
    fn imported_sequence_decodes_without_recompute() {
        let mut e = traced(8);
        // KV for the 256-token prompt was prefilled elsewhere; migration
        // lands at t = 5.0 although the request arrived at t = 1.0.
        e.submit_with(
            Request::new(0, 256, 16),
            1.0,
            Admission::Imported { ready_s: 5.0, wire_tokens: 256 },
            0,
        );
        let mut completions = Vec::new();
        while e.has_work() {
            completions.extend(e.step());
        }
        assert_eq!(completions.len(), 1);
        let admitted_s = at(&e, 0, "admission")[0];
        let r = &e.records()[0];
        assert_eq!(r.arrival_s, 1.0, "the record keeps the original arrival for TTFT");
        assert!(admitted_s >= 5.0, "admission waits for the migration");
        assert!(r.first_token_s > admitted_s);
        assert!(r.completed());
        let t = e.kv_transfers();
        assert_eq!(t.imported_sequences, 1);
        assert_eq!(t.imported_tokens, 256);
        assert_eq!(e.stats().recomputed_tokens, 0, "imported KV is not recomputed");
    }

    #[test]
    fn imported_sequence_starts_decoding_faster_than_full_service() {
        let run = |imported: bool| -> f64 {
            let mut e = engine(8);
            let admission = if imported {
                Admission::Imported { ready_s: 0.0, wire_tokens: 512 }
            } else {
                Admission::Local
            };
            e.submit_with(Request::new(0, 512, 8), 0.0, admission, 0);
            while e.has_work() {
                e.step();
            }
            e.records()[0].first_token_s
        };
        assert!(run(true) < run(false), "imported KV must skip the prefill pass");
    }

    #[test]
    fn landed_migration_is_not_blocked_by_a_slower_one_ahead() {
        // Submitted first but lands late vs. submitted second and lands
        // almost immediately: admission order must follow readiness, not
        // submission order, or the early migration idles for ~1 s.
        let mut e = traced(8);
        e.submit_with(
            Request::new(0, 256, 4),
            0.0,
            Admission::Imported { ready_s: 1.0, wire_tokens: 256 },
            0,
        );
        e.submit_with(
            Request::new(1, 64, 4),
            0.0,
            Admission::Imported { ready_s: 0.001, wire_tokens: 64 },
            1,
        );
        let mut guard = 0;
        while at(&e, 1, "admission").is_empty() && guard < 10_000 {
            e.step();
            guard += 1;
        }
        let early_s = at(&e, 1, "admission")[0];
        assert!(
            early_s < 1.0,
            "the landed migration must not wait behind the unready head: admitted at {early_s}"
        );
        while e.has_work() {
            e.step();
        }
        assert_eq!(e.records().len(), 2);
        assert!(at(&e, 0, "admission")[0] >= 1.0, "the slow migration still waits for its landing");
    }

    #[test]
    fn landed_imports_are_admitted_in_submission_order() {
        // A resident sequence keeps the engine stepping while two imports
        // land within one step, the later-submitted first. The next
        // admission pass takes both, in submission order: the queue is
        // FCFS among admissible entries, not ordered by landing time.
        let mut e = traced(8);
        e.submit_with(Request::new(0, 64, 64), 0.0, Admission::Local, 0);
        e.step();
        let t = e.clock_s();
        e.submit_with(
            Request::new(1, 64, 4),
            0.0,
            Admission::Imported { ready_s: t + 2e-9, wire_tokens: 64 },
            1,
        );
        e.submit_with(
            Request::new(2, 64, 4),
            0.0,
            Admission::Imported { ready_s: t + 1e-9, wire_tokens: 64 },
            2,
        );
        while at(&e, 1, "admission").is_empty() || at(&e, 2, "admission").is_empty() {
            assert_eq!(e.resident(), 1, "the resident sequence is still decoding");
            e.step();
        }
        let admissions: Vec<(Option<usize>, f64)> = e
            .tracer()
            .events()
            .iter()
            .filter(|ev| matches!(ev.kind, EventKind::Admission { .. }) && ev.req != Some(0))
            .map(|ev| (ev.req, ev.t_s))
            .collect();
        let [(first, first_s), (second, second_s)] = admissions[..] else { panic!("two admissions") };
        assert_eq!((first, second), (Some(1), Some(2)), "admitted in submission order");
        assert!(first_s == second_s && first_s > t + 2e-9, "both landed before one admission pass");
    }

    #[test]
    fn export_then_import_conserves_tokens_across_engines() {
        let mut prefill = engine(8);
        let mut decode = engine(8);
        prefill.submit_with(Request::new(0, 300, 20), 0.0, Admission::PrefillOnly, 0);
        let mut done = Vec::new();
        while prefill.has_work() {
            done.extend(prefill.step());
        }
        let Completion { request, arrival_s, done_s } = done[0];
        let tokens = prefill.kv_transfers().exported_tokens;
        assert_eq!(tokens, 300);
        decode.submit_with(
            request,
            arrival_s,
            Admission::Imported { ready_s: done_s + 0.001, wire_tokens: request.prompt_len },
            request.id,
        );
        while decode.has_work() {
            decode.step();
        }
        assert_eq!(decode.kv_transfers().imported_tokens, tokens, "exported == imported");
        assert!(decode.records()[0].completed());
    }

    #[test]
    fn a_fault_evicts_resident_kv_and_recomputes_it() {
        let mut e = traced(8);
        let prompt = 256;
        e.submit_with(Request::new(0, prompt, 512), 0.0, Admission::Local, 0);
        // Run until decode is underway and five tokens past the first, so
        // the fault strikes between the sequence's events.
        step_to_first_token(&mut e, 0);
        for _ in 0..5 {
            e.step();
        }
        assert_eq!(e.lazy_tokens, 5, "the sequence must sit inside a KV block");
        let resident = (prompt + 6) as u64;
        let clock_before = e.clock_s();
        let audit_before = e.kv_audit();
        assert!(audit_before.live > 0);
        // The value side grows a sequence on one crossbar, so failing the
        // first crossbar of the first value core takes all of its KV.
        let first_value_core = e.manager.num_kv_cores() / 2;
        assert!(e.apply_fault(clock_before, 0.5e-3, first_value_core, 0.5), "healthy cores remain");
        assert_eq!(e.stats().fault_evicted_seqs, 1, "the lone resident sequence loses its KV");
        assert_eq!(
            e.stats().fault_evicted_tokens,
            resident,
            "every decoded token is lost, lazy ones included"
        );
        assert!(e.is_serviceable());
        assert!(e.kv_audit().is_conserved(), "fault eviction must not double-free blocks");
        assert!(e.clock_s() >= clock_before + 0.5e-3, "the remap stall pauses the wafer");
        assert_eq!(e.stats().faults, 1);
        assert_eq!(
            e.stats().recomputed_tokens,
            0,
            "the recompute charge lands at re-admission, not at eviction"
        );
        // The request still completes after recompute.
        while e.has_work() {
            e.step();
        }
        assert_eq!(e.stats().recomputed_tokens, resident, "lost KV is recomputed on re-admission");
        assert!(e.records()[0].completed());
        assert_eq!(at(&e, 0, "evict").len(), 1);
    }

    #[test]
    fn faults_degrade_the_pipeline_permanently() {
        // Two identical engines, one fault apart: the faulted one finishes
        // the same work strictly later (stall + mean-hops penalty).
        let run = |fault: bool| -> f64 {
            let mut e = engine(8);
            e.submit_with(Request::new(0, 128, 256), 0.0, Admission::Local, 0);
            e.step();
            if fault {
                let t = e.clock_s();
                assert!(e.apply_fault(t, 1e-3, 0, 1.0));
            }
            while e.has_work() {
                e.step();
            }
            e.records()[0].completed_s
        };
        assert!(run(true) > run(false));
    }

    #[test]
    fn a_fault_reprices_steps_at_the_new_hop_distance() {
        // Stage times charge `ceil(mean_hops)` hops, so 3.0 → 3.5 crosses a
        // hop boundary. A stage-time table kept across the fault would
        // price the next step at the old distance.
        let bumped = HwStageTimes { mean_hops: 3.5, ..times() };
        assert_ne!(times().step_pricing_s(64), bumped.step_pricing_s(64), "the crossing moves the price");
        // One batch runs to completion and fills the table; after the
        // fault an identical batch starts at a context the table holds.
        let next_step = |e: &mut Engine, penalty: f64| {
            for round in 0..2 {
                for id in 0..4 {
                    e.submit_with(Request::new(4 * round + id, 64, 32), e.clock_s(), Admission::Local, 0);
                }
                if round == 0 {
                    while e.has_work() {
                        e.step();
                    }
                    let t = e.clock_s();
                    assert!(e.apply_fault(t, 0.0, 7, penalty), "healthy cores remain");
                }
            }
            stage::admission::admit_waiting(e);
            stage::decode::plan_step(e)
        };
        let mut faulted = engine(8);
        let (tokens, step_s) = next_step(&mut faulted, 0.5);
        let mut fresh = Engine::new(bumped, kv(8), true).unwrap();
        let (fresh_tokens, fresh_step_s) = next_step(&mut fresh, 0.0);
        assert_eq!(faulted.times.mean_hops.to_bits(), fresh.times.mean_hops.to_bits());
        assert_eq!((tokens, step_s.to_bits()), (fresh_tokens, fresh_step_s.to_bits()));
    }

    #[test]
    fn a_wafer_with_every_kv_unit_failed_is_dead_but_conserves_requests() {
        let mut e = engine(2); // 1 key + 1 value core, 32 crossbars each
        let mut faults = 0;
        while e.apply_fault(0.0, 0.0, faults, 0.0) {
            faults += 1;
        }
        assert_eq!(faults, 64, "one fault per crossbar kills the wafer");
        assert!(!e.is_serviceable());
        assert_eq!(e.healthy_kv_fraction(), 0.0);
        assert!(!e.apply_fault(0.0, 0.0, 0, 0.0), "a dead wafer absorbs no more faults");
        // Requests routed here anyway are dropped, not spun on.
        e.submit_with(Request::new(0, 64, 8), 0.0, Admission::Local, 0);
        while e.has_work() {
            e.step();
        }
        assert_eq!(e.stats().dropped, 1);
    }

    #[test]
    fn kv_load_tracks_queue_and_residency() {
        let mut e = engine(4);
        assert_eq!(e.kv_load(), 0.0);
        e.submit_with(Request::new(0, 512, 64), 0.0, Admission::Local, 0);
        let queued = e.kv_load();
        assert!(queued > 0.0, "queued demand counts toward load");
        e.step();
        assert!(e.resident() == 1);
        assert!(e.kv_load() > 0.0);
    }

    #[test]
    fn routing_signals_count_lazy_decode_tokens() {
        // Stop one sequence inside a KV block, five tokens after its first:
        // the KV manager has not seen those five yet, and the routing
        // signal and the trace must count them anyway.
        let mut e = traced(4);
        let prompt = 100;
        e.submit_with(Request::new(0, prompt, 64), 0.0, Admission::Local, 0);
        step_to_first_token(&mut e, 0);
        for _ in 0..5 {
            e.step();
        }
        assert_eq!(e.lazy_tokens, 5, "the sequence must sit inside a KV block");
        let resident = prompt + 6;
        let capacity = e.manager.capacity_tokens();
        assert_eq!(e.kv_load(), resident as f64 / capacity as f64);
        // The next step's event reports the KV its batch holds as it starts.
        e.step();
        let kv = e.tracer().events().iter().rev().find_map(|ev| match ev.kind {
            EventKind::DecodeStep { kv_tokens, kv_capacity_tokens, .. } => {
                Some((kv_tokens, kv_capacity_tokens))
            }
            _ => None,
        });
        assert_eq!(kv, Some((resident, capacity)));
    }

    #[test]
    fn shared_prefix_requests_skip_cached_prefill() {
        let mut e = traced(8);
        // Two concurrent requests sharing a 256-token system prompt with
        // 64-token unique tails.
        e.submit_with(Request::new(0, 320, 8).with_shared_prefix(1, 256), 0.0, Admission::Local, 0);
        e.submit_with(Request::new(1, 320, 8).with_shared_prefix(1, 256), 0.0, Admission::Local, 1);
        while e.has_work() {
            e.step();
        }
        // The first admission populates the chain (cold), the second hits.
        assert_eq!(e.stats().prefix_hits, 1);
        assert_eq!(e.stats().cached_prefix_tokens, 256);
        assert_eq!(cached_at_admission(&e, 1), [256]);
        assert_eq!(cached_at_admission(&e, 0), [0]);
        // Prefill was charged for 320 (cold) + 64 (hit suffix) tokens.
        assert_eq!(e.stats().prefilled_tokens, 320 + 64);
        assert!(e.kv_audit().is_conserved());
        assert_eq!(e.kv_audit().live, 0, "a drained engine frees its chains too");
    }

    #[test]
    fn prefix_hits_cut_ttft_against_the_cold_run() {
        let run = |caching: bool| -> (f64, u64) {
            let mut e = Engine::new(times(), kv(8), caching).unwrap();
            for i in 0..6 {
                e.submit_with(Request::new(i, 520, 8).with_shared_prefix(9, 512), 0.0, Admission::Local, i);
            }
            while e.has_work() {
                e.step();
            }
            let mean_ttft =
                e.records().iter().filter_map(|r| r.ttft_s()).sum::<f64>() / e.records().len() as f64;
            (mean_ttft, e.stats().prefilled_tokens)
        };
        let (ttft_on, prefilled_on) = run(true);
        let (ttft_off, prefilled_off) = run(false);
        assert!(ttft_on < ttft_off, "prefix caching must cut mean TTFT: {ttft_on} vs {ttft_off}");
        assert!(
            prefilled_on < prefilled_off,
            "prefix caching must prefill fewer tokens: {prefilled_on} vs {prefilled_off}"
        );
    }

    /// Satellite regression (recompute double-count): a step boundary where
    /// a fault evicts the victim *and* admission pressure evicts again must
    /// charge `recomputed_tokens` exactly once per actual replay. Seeds and
    /// sizes are pinned; the expected counter is derived independently from
    /// the request's traced evictions.
    #[test]
    fn fault_plus_capacity_eviction_charges_recompute_once() {
        let (prompt, decode) = (256, 512);
        let mut e = traced(8);
        e.submit_with(Request::new(0, prompt, decode), 0.0, Admission::Local, 0);
        step_to_first_token(&mut e, 0);
        // The fault evicts the lone resident sequence (no charge yet)...
        assert!(e.apply_fault(e.clock_s(), 0.5e-3, 0, 0.0), "healthy cores remain");
        assert_eq!(e.stats().fault_evicted_seqs, 1);
        assert_eq!(e.stats().recomputed_tokens, 0);
        // ...and the following steps re-admit it: one charge, equal to the
        // resident KV at eviction (prompt + decode progress so far).
        while e.has_work() {
            e.step();
        }
        assert!(e.records()[0].completed());
        assert_eq!(at(&e, 0, "evict").len(), 1, "exactly one eviction in this scenario");
        // One replay of (prompt + decoded-at-eviction) tokens; decoded at
        // eviction is bounded by the final decode length.
        assert!(e.stats().recomputed_tokens >= prompt as u64);
        assert!(
            e.stats().recomputed_tokens <= (prompt + decode) as u64,
            "a single replay can never exceed one full residency: {} tokens",
            e.stats().recomputed_tokens
        );
        assert!(e.kv_audit().is_conserved());
    }
}
