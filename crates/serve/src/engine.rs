//! The single-wafer serving engine: continuous batching with chunked prefill
//! over the distributed KV cache.
//!
//! The engine advances in *iterations* (steps), the unit of continuous
//! batching: at each step boundary it admits waiting requests FCFS into the
//! KV cache under the same admission/eviction rules as the offline
//! [`ouro_kvcache::scheduler`] (most-recently-admitted eviction on capacity
//! exhaustion, admission suspended until a completion, anti-thrashing
//! threshold inside the manager), then advances every resident sequence by
//! one unit of work — a chunk of prefill tokens or one decode token — and
//! charges the step's wall-clock duration from the hardware-derived
//! [`HwStageTimes`].
//!
//! The per-stage logic lives in [`crate::stage`]: [`Engine::step`] is the
//! orchestrator that sequences the Admission → Prefill/Decode → Complete
//! stages over this wafer's queues. Prefill and decode advance in a single
//! interleaved pass — a continuous-batching iteration moves prefill chunks
//! and decode tokens through the *same* pipeline pass, and their trace
//! events (`prefill_end`, `first_token`) interleave in active-set order.
//!
//! A step that moves `T` tokens through the token-grained pipeline with mean
//! context `c̄` takes `max(L(c̄), T · b(c̄))` seconds, where `L` is the full
//! pipeline latency of one token and `b` the bottleneck stage interval: with
//! few tokens in flight the pipeline drains before it refills (the
//! autoregressive limit of §6.2), with many it streams one token per
//! bottleneck interval.
//!
//! One deliberate divergence from the offline scheduler: an evicted sequence
//! keeps its generation progress and only *recomputes* its resident KV
//! (prompt plus tokens decoded so far) when re-admitted, the way a serving
//! system replays a prefix. The offline replayer instead restarts decode from
//! scratch, which would corrupt latency accounting here.

use crate::arena::IndexQueue;
use crate::metrics::RequestRecord;
use crate::stage::{self, ActiveSeq, PendingReq, Stage};
use ouro_kvcache::{KvError, KvManager, KvManagerConfig, KvTransferStats};
use ouro_sim::HwStageTimes;
use ouro_trace::{EventKind, Tracer};
use ouro_workload::Request;

/// Tuning knobs of one engine (one wafer's replica).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Maximum number of simultaneously resident sequences (the KV cache
    /// usually saturates first).
    pub max_batch: usize,
    /// Prefill tokens processed per sequence per iteration (chunked prefill,
    /// so long prompts cannot starve decode steps).
    pub prefill_chunk: usize,
    /// Shared-prefix KV reuse: requests tagged with a
    /// [`ouro_workload::SharedPrefix`] share the whole-block portion of
    /// their common prompt prefix in the cache and are charged prefill only
    /// for the uncached suffix. Off turns every prompt cold (the ablation
    /// baseline); untagged requests behave identically either way.
    pub prefix_caching: bool,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig { max_batch: 4096, prefill_chunk: 128, prefix_caching: true }
    }
}

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
    pub dropped_imported_tokens: u64,
    /// Continuous-batching iterations executed.
    pub steps: u64,
    /// Peak resident sequences.
    pub peak_resident: usize,
    /// Runtime core faults absorbed by this wafer.
    pub faults: u64,
    /// Sequences evicted because a fault took their KV core (a subset of
    /// `evictions`).
    pub fault_evicted_seqs: u64,
    /// Token slots of KV lost to faulted cores (recomputed on re-admission).
    pub fault_evicted_tokens: u64,
    /// Wall-clock spent stalled in replacement-chain remaps, charged to
    /// every in-flight request on the wafer.
    pub stall_s: f64,
}

/// What one runtime fault did to this wafer's engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineFaultImpact {
    /// Flat index of the KV core the manager marked failed.
    pub kv_core_index: usize,
    /// Sequences evicted (and re-enqueued for recompute) because their KV
    /// lived on the failed core.
    pub evicted_sequences: usize,
    /// Token slots of KV lost on the failed core.
    pub evicted_tokens: u64,
    /// Whether the wafer can still serve traffic afterwards.
    pub serviceable: bool,
}

/// A request completion event: `(record index, completion time)`.
pub type Completion = (usize, f64);

/// How a request enters the engine — the parameter of the single admission
/// path ([`Engine::submit_with`]) every submission flavour goes through.
/// Consolidating the three former entry points behind one enum keeps their
/// bookkeeping (wire-token dedup, readiness gating, queue-demand tracking)
/// from drifting apart.
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
    },
}

/// One wafer's online serving engine.
///
/// Fields are crate-visible: the stage units in [`crate::stage`] operate
/// directly on the engine's queues, and [`crate::snapshot`] serializes
/// them. Together with the KV manager they are the engine's *complete*
/// mutable state — the checkpoint/resume identity test holds the proof.
#[derive(Debug, Clone)]
pub struct Engine {
    pub(crate) times: HwStageTimes,
    pub(crate) manager: KvManager,
    pub(crate) config: EngineConfig,
    pub(crate) records: Vec<RequestRecord>,
    /// The waiting queue: a dense arena indexed by rank/readiness heaps
    /// ([`crate::arena::IndexQueue`]), so admission and the idle
    /// fast-forward query are O(log n) instead of linear scans.
    pub(crate) pending: IndexQueue<PendingReq>,
    pub(crate) active: Vec<ActiveSeq>,
    pub(crate) admission_suspended: bool,
    pub(crate) clock_s: f64,
    pub(crate) busy_s: f64,
    /// Token-demand of the pending queue (prompt + decoded per request),
    /// maintained incrementally for the `LeastKvLoad` router.
    pub(crate) pending_tokens: usize,
    /// Wire-token demand of queued imported-KV entries, maintained
    /// incrementally for [`Engine::pending_imported_tokens`].
    pub(crate) pending_wire_tokens: usize,
    pub(crate) stats: EngineStats,
    pub(crate) order_counter: u64,
    /// Lifecycle event emission, disabled (and costless) by default.
    /// Strictly observational: nothing the tracer does feeds back into
    /// admission, timing or eviction decisions.
    pub(crate) tracer: Tracer,
}

impl Engine {
    /// Builds an engine over a fresh KV manager.
    ///
    /// # Errors
    ///
    /// Propagates [`KvError::NoKvCores`] from the manager.
    pub fn new(times: HwStageTimes, kv: KvManagerConfig, config: EngineConfig) -> Result<Engine, KvError> {
        assert!(config.max_batch > 0, "max_batch must be positive");
        assert!(config.prefill_chunk > 0, "prefill_chunk must be positive");
        Ok(Engine {
            times,
            manager: KvManager::new(kv)?,
            config,
            records: Vec::new(),
            pending: IndexQueue::new(),
            active: Vec::new(),
            admission_suspended: false,
            clock_s: 0.0,
            busy_s: 0.0,
            pending_tokens: 0,
            pending_wire_tokens: 0,
            stats: EngineStats::default(),
            order_counter: 0,
            tracer: Tracer::off(),
        })
    }

    /// Wires a tracer into the engine (replacing the default disabled
    /// one). Events emitted from here on land in the tracer's sink.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The engine's tracer (disabled unless [`Engine::set_tracer`] armed
    /// it).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Mutable tracer access, for collaborators that emit wafer-level
    /// events on this engine's stream (the fault injector's remap events).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// The engine's simulated clock.
    pub fn clock_s(&self) -> f64 {
        self.clock_s
    }

    /// Seconds spent with at least one token in flight.
    pub fn busy_s(&self) -> f64 {
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
    pub fn kv_load(&self) -> f64 {
        let demand = self.manager.used_tokens() + self.pending_tokens;
        demand as f64 / self.manager.capacity_tokens().max(1) as f64
    }

    /// Earliest instant at which any queued request becomes admissible
    /// (`None` with an empty queue).
    pub fn next_ready_s(&self) -> Option<f64> {
        let next = self.pending.next_ready_s();
        #[cfg(debug_assertions)]
        {
            // Differential check against the old linear min-scan.
            let naive = self.pending.entries().iter().map(|&(ready, _)| ready).min_by(f64::total_cmp);
            debug_assert_eq!(next, naive, "arena next_ready_s diverged from the naive scan");
        }
        next
    }

    /// The engine's next event time: its clock while sequences are
    /// resident, otherwise the earliest instant queued work becomes
    /// admissible (stepping an idle engine fast-forwards the clock there).
    /// Schedulers arbitrating between engines must order by this rather
    /// than the raw clock, or an idle engine gets stepped — and commits its
    /// clock — to a late-landing migration before another engine at an
    /// earlier simulated time announces one that lands sooner.
    pub fn next_event_s(&self) -> f64 {
        if self.active.is_empty() {
            match self.next_ready_s() {
                Some(ready) => self.clock_s.max(ready),
                None => self.clock_s,
            }
        } else {
            self.clock_s
        }
    }

    /// Free KV tokens net of the queued demand (0 when oversubscribed), the
    /// signal behind the most-free-blocks decode placement policy.
    pub fn kv_free_tokens(&self) -> usize {
        self.manager
            .capacity_tokens()
            .saturating_sub(self.manager.used_tokens())
            .saturating_sub(self.pending_tokens)
    }

    /// Wire-token demand of queued imported-KV requests that have not been
    /// admitted yet (migrations announced but not landed in the cache);
    /// used by conservation checks of the disaggregated cluster. Counts the
    /// tokens actually travelling — prefix-deduplicated tokens never enter
    /// the wire accounting.
    pub fn pending_imported_tokens(&self) -> usize {
        #[cfg(debug_assertions)]
        {
            let naive: usize =
                self.pending.entries().iter().filter(|(_, p)| p.imported).map(|(_, p)| p.wire_tokens).sum();
            debug_assert_eq!(
                self.pending_wire_tokens, naive,
                "incremental wire-token counter diverged from the queue scan"
            );
        }
        self.pending_wire_tokens
    }

    /// Tokens of `request`'s shared prefix already resident in this wafer's
    /// prefix cache (0 with prefix caching disabled or no tag). The signal
    /// behind prefix-affinity routing and migration byte dedup.
    pub fn prefix_cached_tokens(&self, request: &Request) -> usize {
        if !self.config.prefix_caching {
            return 0;
        }
        match request.shared_prefix {
            Some(p) => self.manager.prefix_lookup(p.group, p.tokens.min(request.prompt_len)),
            None => 0,
        }
    }

    /// Instantaneous telemetry gauges of this wafer: batch occupancy,
    /// queue depth and KV-cache occupancy. The link-bytes gauge is left
    /// zero — only the scenario driver knows the migration byte rate.
    pub fn kv_gauges(&self) -> ouro_trace::WaferGauges {
        let (used, capacity, audit) = self.manager.occupancy_snapshot();
        ouro_trace::WaferGauges {
            batch_occupancy: self.active.len(),
            queue_depth: self.pending.len(),
            kv_used_tokens: used,
            kv_capacity_tokens: capacity,
            kv_blocks_live: audit.live,
            kv_blocks_shared: audit.shared_live,
            link_bytes_in_flight: 0,
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
    pub fn is_serviceable(&self) -> bool {
        self.manager.is_serviceable()
    }

    /// Fraction of this wafer's KV cores still healthy, in `[0, 1]`.
    pub fn healthy_kv_fraction(&self) -> f64 {
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
    /// Returns `None` — and changes nothing — when every KV core has
    /// already failed (the wafer is dead; the router must steer around it).
    pub fn apply_fault(
        &mut self,
        at_s: f64,
        stall_s: f64,
        preferred_kv_core: usize,
        mean_hops_penalty: f64,
    ) -> Option<EngineFaultImpact> {
        assert!(stall_s >= 0.0 && mean_hops_penalty >= 0.0, "fault charges cannot be negative");
        let failure = self.manager.fail_kv_core(preferred_kv_core)?;
        // The fault strikes at `at_s` but the engine only observes it at a
        // step boundary; the stall extends whichever is later.
        self.clock_s = self.clock_s.max(at_s) + stall_s;
        self.times.mean_hops += mean_hops_penalty;
        self.stats.faults += 1;
        self.stats.stall_s += stall_s;
        self.stats.fault_evicted_seqs += failure.evicted_sequences.len() as u64;
        self.stats.fault_evicted_tokens += failure.evicted_tokens as u64;
        let evicted = failure.evicted_sequences.len();
        Stage::Fault.emit(
            &mut self.tracer,
            self.clock_s,
            None,
            EventKind::Fault { kv_core: failure.index, evicted_seqs: evicted },
        );
        for seq in failure.evicted_sequences {
            let Some(pos) = self.active.iter().position(|a| a.rec as u64 == seq) else {
                // The manager can only name resident sequences, and every
                // resident sequence is active.
                unreachable!("sequence {seq} is resident but not active");
            };
            let victim = self.active.swap_remove(pos);
            stage::admission::requeue_evicted(self, victim, true);
        }
        // A fault that evicted sequences freed capacity, so a pre-fault
        // admission suspension no longer reflects reality. A fault that
        // evicted nothing only *shrank* the cache — lifting the suspension
        // then would make the retry protocol evict a healthy resident
        // sequence and misattribute the recompute to the fault.
        if evicted > 0 {
            self.admission_suspended = false;
        }
        Some(EngineFaultImpact {
            kv_core_index: failure.index,
            evicted_sequences: evicted,
            evicted_tokens: failure.evicted_tokens as u64,
            serviceable: self.manager.is_serviceable(),
        })
    }

    /// Takes the wafer out of service at `at_s` — the path for a fault the
    /// replacement chain cannot heal (no KV core left to absorb the
    /// weights). Every remaining healthy KV crossbar fails at once, the
    /// affected sequences are evicted for recompute, and the whole outage
    /// counts as a *single* fault in [`EngineStats`] (it is one fault
    /// event, however many crossbars it takes down). Returns how many
    /// sequences and token slots of KV the outage evicted.
    pub fn decommission(&mut self, at_s: f64) -> (usize, u64) {
        self.clock_s = self.clock_s.max(at_s);
        let mut evicted_seqs = 0usize;
        let mut evicted_tokens = 0u64;
        let mut first_core = None;
        while let Some(failure) = self.manager.fail_kv_core(0) {
            first_core.get_or_insert(failure.index);
            evicted_tokens += failure.evicted_tokens as u64;
            for seq in failure.evicted_sequences {
                let pos = self
                    .active
                    .iter()
                    .position(|a| a.rec as u64 == seq)
                    .expect("a resident sequence is always active");
                let victim = self.active.swap_remove(pos);
                stage::admission::requeue_evicted(self, victim, true);
                evicted_seqs += 1;
            }
        }
        Stage::Fault.emit(
            &mut self.tracer,
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
        (evicted_seqs, evicted_tokens)
    }

    /// Raw counters.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Per-request lifecycle records (indexed by submission order).
    pub fn records(&self) -> &[RequestRecord] {
        &self.records
    }

    /// The single admission path: submits a request arriving at
    /// `arrival_s` under the given [`Admission`] flavour, tagged with the
    /// global id and wafer index for reporting. `arrival_s` is always the
    /// request's original arrival (kept for TTFT/E2E accounting);
    /// [`Admission::Imported`] gates admissibility on its own `ready_s`.
    /// Returns the engine-local record index.
    pub fn submit_with(
        &mut self,
        request: Request,
        arrival_s: f64,
        admission: Admission,
        id: usize,
        wafer: usize,
    ) -> usize {
        let (ready_s, imported, prefill_only) = match admission {
            Admission::Local => (arrival_s, false, false),
            Admission::PrefillOnly => (arrival_s, false, true),
            Admission::Imported { ready_s } => (ready_s, true, false),
        };
        // No clock fast-forward here: an idle engine advances to the
        // earliest admissible instant at the top of `step`, where the
        // *minimum* ready time over the whole queue is known. Jumping to
        // this request's `ready_s` now would strand a later submission that
        // becomes ready sooner (migrations land out of submission order).
        let rec = self.records.len();
        // Imported KV is deduplicated against this wafer's prefix cache at
        // announce time: only the uncached portion travels the link.
        let wire_tokens = if imported {
            request.prompt_len - self.prefix_cached_tokens(&request).min(request.prompt_len)
        } else {
            0
        };
        self.records.push(RequestRecord {
            id,
            wafer,
            prompt_len: request.prompt_len,
            decode_len: request.decode_len,
            arrival_s,
            admitted_s: f64::NAN,
            queue_wait_s: 0.0,
            first_token_s: f64::NAN,
            completed_s: f64::NAN,
            evictions: 0,
            cached_prefix_tokens: 0,
            shared_prefix: request.shared_prefix,
        });
        self.pending.push_back(
            ready_s,
            PendingReq { rec, decoded: 0, ready_s, imported, wire_tokens, evicted: false, prefill_only },
        );
        self.pending_tokens += request.prompt_len;
        self.pending_wire_tokens += wire_tokens;
        rec
    }

    /// Runs one continuous-batching iteration through the stage pipeline:
    /// Admission admits FCFS, Prefill and Decode advance every resident
    /// sequence by one unit of work in a single interleaved pass, the
    /// clock advances by the step duration, and Complete retires finished
    /// sequences (a completion lifts the admission suspension).
    ///
    /// Returns the completions that occurred, stamped with their times.
    pub fn step(&mut self) -> Vec<Completion> {
        // An empty batch with only future-ready queued work means the engine
        // is idle: fast-forward to the earliest admissible instant (not the
        // head's — migrations make readiness non-monotone with queue order).
        if self.active.is_empty() {
            if let Some(min_ready) = self.next_ready_s() {
                if min_ready > self.clock_s {
                    self.clock_s = min_ready;
                }
            }
        }
        stage::admission::admit_waiting(self);
        if self.active.is_empty() {
            return Vec::new();
        }

        self.stats.steps += 1;
        self.stats.peak_resident = self.stats.peak_resident.max(self.active.len());

        let (step_tokens, step_s) = stage::decode::plan_step(self);
        let end_s = self.clock_s + step_s;
        self.busy_s += step_s;
        stage::decode::emit_step(self, end_s, step_tokens);

        // Advance every resident sequence by its unit of work — ONE
        // interleaved prefill/decode pass in active-set order (two separate
        // passes would reorder `prefill_end` relative to `first_token`).
        let mut evicted_now: Vec<usize> = Vec::new();
        for i in 0..self.active.len() {
            if stage::prefill::advance_one(self, i, end_s) {
                continue;
            }
            stage::decode::advance_one(self, i, end_s, &mut evicted_now);
        }
        // Decode-growth failures evict (highest index first so swap_remove
        // keeps earlier indices valid).
        evicted_now.sort_unstable_by(|a, b| b.cmp(a));
        for i in evicted_now {
            let victim = self.active.swap_remove(i);
            stage::admission::requeue_evicted(self, victim, false);
        }

        self.clock_s = end_s;
        let completions = stage::complete::retire(self, end_s);
        if !completions.is_empty() {
            self.admission_suspended = false;
        }
        completions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ouro_hw::{CimCore, CoreId};
    use ouro_model::zoo;
    use ouro_noc::CommCost;

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
        KvManagerConfig::new((0..cores).map(CoreId).collect(), 1, 128)
    }

    fn engine(cores: usize) -> Engine {
        Engine::new(times(), kv(cores), EngineConfig::default()).unwrap()
    }

    #[test]
    fn single_request_runs_to_completion() {
        let mut e = engine(8);
        e.submit_with(Request::new(0, 64, 8), 0.5, Admission::Local, 0, 0);
        let mut completions = Vec::new();
        while e.has_work() {
            completions.extend(e.step());
        }
        assert_eq!(completions.len(), 1);
        let r = &e.records()[0];
        assert!(r.admitted_s >= 0.5);
        assert!(r.first_token_s > r.admitted_s, "prefill must take time");
        assert!(r.completed_s > r.first_token_s);
        assert_eq!(e.stats().dropped, 0);
        assert_eq!(e.stats().evictions, 0);
        assert!(e.busy_s() > 0.0);
    }

    #[test]
    fn admission_flavours_shape_the_lifecycle_records() {
        // Formerly compared the deprecated `submit`/`submit_prefill_only`/
        // `submit_imported` wrappers against the enum path; the wrappers are
        // gone, so pin the behaviour of the three `Admission` flavours
        // directly: Local completes end-to-end, PrefillOnly exports KV and
        // never emits a first token (NaN sentinel), and Imported is gated on
        // its `ready_s`, not the nominal arrival.
        let mut e = engine(8);
        e.submit_with(Request::new(0, 64, 8), 0.0, Admission::Local, 0, 0);
        e.submit_with(Request::new(1, 64, 8), 0.0, Admission::PrefillOnly, 1, 0);
        e.submit_with(Request::new(2, 64, 8), 0.0, Admission::Imported { ready_s: 0.001 }, 2, 0);
        while e.has_work() {
            e.step();
        }
        let [local, prefill_only, imported] = e.records() else { panic!("three records") };
        assert!(local.completed_s > local.first_token_s && local.first_token_s > 0.0);
        assert!(prefill_only.first_token_s.is_nan(), "prefill-only never decodes a first token");
        assert!(prefill_only.completed_s > 0.0, "prefill-only completes at KV export");
        assert!(imported.admitted_s >= 0.001, "imported admission waits for the KV to land");
        assert!(imported.completed_s > imported.first_token_s);
    }

    #[test]
    fn idle_engine_fast_forwards_to_arrivals() {
        let mut e = engine(8);
        e.submit_with(Request::new(0, 32, 4), 10.0, Admission::Local, 0, 0);
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
        let mut e = engine(8);
        e.submit_with(Request::new(0, 32, 64), 0.0, Admission::Local, 0, 0);
        e.submit_with(Request::new(1, 32, 4), 1e9, Admission::Local, 1, 0);
        // The first request completes long before the second arrives.
        let mut steps = 0;
        while e.records()[0].completed_s.is_nan() && steps < 10_000 {
            e.step();
            steps += 1;
        }
        assert!(e.records()[0].completed_s < 1e9);
        assert!(e.records()[1].admitted_s.is_nan());
        while e.has_work() {
            e.step();
        }
        assert!(e.records()[1].admitted_s >= 1e9);
    }

    #[test]
    fn overload_evicts_but_conserves_requests() {
        // A 2-core cache holds ~32k tokens; 40 requests of 2k tokens each
        // demand ~80k, so decode growth must evict.
        let mut e = engine(2);
        for i in 0..40 {
            e.submit_with(Request::new(i, 1000, 1000), 0.0, Admission::Local, i, 0);
        }
        let mut completions = 0;
        let mut guard = 0;
        while e.has_work() && guard < 2_000_000 {
            completions += e.step().len();
            guard += 1;
        }
        assert!(guard < 2_000_000, "engine must make progress under overload");
        let done = e.records().iter().filter(|r| r.completed()).count();
        assert_eq!(done, completions);
        assert_eq!(done + e.stats().dropped as usize, 40, "every request completes or is dropped");
        assert!(e.stats().evictions > 0, "a tiny cache must evict under this load");
        assert!(e.stats().recomputed_tokens > 0);
    }

    #[test]
    fn eviction_preserves_decode_progress() {
        let mut e = engine(2);
        for i in 0..40 {
            e.submit_with(Request::new(i, 800, 800), 0.0, Admission::Local, i, 0);
        }
        while e.has_work() {
            e.step();
        }
        let evicted: Vec<&RequestRecord> =
            e.records().iter().filter(|r| r.evictions > 0 && r.completed()).collect();
        assert!(!evicted.is_empty(), "this workload must evict at least one request");
        for r in evicted {
            // First token precedes completion even across evictions, and is
            // never re-emitted (monotone record).
            assert!(r.first_token_s <= r.completed_s);
        }
    }

    #[test]
    fn oversized_request_is_dropped_not_spun_on() {
        let mut e = engine(2);
        let cap = 100_000; // far beyond two cores of KV
        e.submit_with(Request::new(0, cap, 4), 0.0, Admission::Local, 0, 0);
        e.submit_with(Request::new(1, 64, 4), 0.0, Admission::Local, 1, 0);
        while e.has_work() {
            e.step();
        }
        assert_eq!(e.stats().dropped, 1);
        assert!(e.records()[1].completed());
    }

    #[test]
    fn zero_decode_requests_complete_after_prefill() {
        let mut e = engine(8);
        e.submit_with(Request::new(0, 128, 0), 0.0, Admission::Local, 0, 0);
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
                e.submit_with(Request::new(i, 32, 64), 0.0, Admission::Local, i, 0);
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
        let mut e = engine(8);
        e.submit_with(Request::new(0, 256, 64), 0.0, Admission::PrefillOnly, 0, 0);
        let mut completions = Vec::new();
        while e.has_work() {
            completions.extend(e.step());
        }
        assert_eq!(completions.len(), 1);
        let r = &e.records()[0];
        assert!(r.completed(), "prefill-only service completes when prefill ends");
        assert!(r.first_token_s.is_nan(), "no decode token is emitted on the prefill wafer");
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
            e.submit_with(Request::new(0, 256, 64), 0.0, admission, 0, 0);
            while e.has_work() {
                e.step();
            }
            e.records()[0].completed_s
        };
        assert!(run(true) < run(false), "skipping 64 decode steps must save time");
    }

    #[test]
    fn imported_sequence_decodes_without_recompute() {
        let mut e = engine(8);
        // KV for the 256-token prompt was prefilled elsewhere; migration
        // lands at t = 5.0 although the request arrived at t = 1.0.
        e.submit_with(Request::new(0, 256, 16), 1.0, Admission::Imported { ready_s: 5.0 }, 0, 0);
        let mut completions = Vec::new();
        while e.has_work() {
            completions.extend(e.step());
        }
        assert_eq!(completions.len(), 1);
        let r = &e.records()[0];
        assert_eq!(r.arrival_s, 1.0, "the record keeps the original arrival for TTFT");
        assert!(r.admitted_s >= 5.0, "admission waits for the migration");
        assert!(r.first_token_s > r.admitted_s);
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
            let admission = if imported { Admission::Imported { ready_s: 0.0 } } else { Admission::Local };
            e.submit_with(Request::new(0, 512, 8), 0.0, admission, 0, 0);
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
        let mut e = engine(8);
        e.submit_with(Request::new(0, 256, 4), 0.0, Admission::Imported { ready_s: 1.0 }, 0, 0);
        e.submit_with(Request::new(1, 64, 4), 0.0, Admission::Imported { ready_s: 0.001 }, 1, 0);
        let mut guard = 0;
        while e.records()[1].admitted_s.is_nan() && guard < 10_000 {
            e.step();
            guard += 1;
        }
        let early = &e.records()[1];
        assert!(
            early.admitted_s < 1.0,
            "the landed migration must not wait behind the unready head: admitted at {}",
            early.admitted_s
        );
        while e.has_work() {
            e.step();
        }
        assert!(e.records()[0].completed() && e.records()[1].completed());
        assert!(e.records()[0].admitted_s >= 1.0, "the slow migration still waits for its landing");
    }

    #[test]
    fn export_then_import_conserves_tokens_across_engines() {
        let mut prefill = engine(8);
        let mut decode = engine(8);
        prefill.submit_with(Request::new(0, 300, 20), 0.0, Admission::PrefillOnly, 0, 0);
        let mut done = Vec::new();
        while prefill.has_work() {
            done.extend(prefill.step());
        }
        let (rec, t_done) = done[0];
        let tokens = prefill.kv_transfers().exported_tokens;
        assert_eq!(tokens, 300);
        decode.submit_with(
            Request::new(0, prefill.records()[rec].prompt_len, 20),
            0.0,
            Admission::Imported { ready_s: t_done + 0.001 },
            0,
            1,
        );
        while decode.has_work() {
            decode.step();
        }
        assert_eq!(decode.kv_transfers().imported_tokens, tokens, "exported == imported");
        assert!(decode.records()[0].completed());
    }

    #[test]
    fn a_fault_evicts_resident_kv_and_recomputes_it() {
        let mut e = engine(8);
        e.submit_with(Request::new(0, 256, 512), 0.0, Admission::Local, 0, 0);
        // Run until decode is underway, then fail the core holding the KV.
        while e.records()[0].first_token_s.is_nan() {
            e.step();
        }
        let clock_before = e.clock_s();
        let audit_before = e.kv_audit();
        assert!(audit_before.live > 0);
        let impact = e.apply_fault(clock_before, 0.5e-3, 0, 0.5).expect("healthy cores remain");
        assert_eq!(impact.evicted_sequences, 1, "the lone resident sequence loses its KV");
        assert!(impact.evicted_tokens > 0);
        assert!(impact.serviceable);
        assert!(e.kv_audit().is_conserved(), "fault eviction must not double-free blocks");
        assert!(e.clock_s() >= clock_before + 0.5e-3, "the remap stall pauses the wafer");
        assert_eq!(e.stats().faults, 1);
        assert_eq!(e.stats().fault_evicted_seqs, 1);
        assert_eq!(
            e.stats().recomputed_tokens,
            0,
            "the recompute charge lands at re-admission, not at eviction"
        );
        // The request still completes after recompute.
        while e.has_work() {
            e.step();
        }
        assert!(e.stats().recomputed_tokens > 0, "lost KV is recomputed on re-admission");
        assert!(e.records()[0].completed());
        assert_eq!(e.records()[0].evictions, 1);
    }

    #[test]
    fn faults_degrade_the_pipeline_permanently() {
        // Two identical engines, one fault apart: the faulted one finishes
        // the same work strictly later (stall + mean-hops penalty).
        let run = |fault: bool| -> f64 {
            let mut e = engine(8);
            e.submit_with(Request::new(0, 128, 256), 0.0, Admission::Local, 0, 0);
            e.step();
            if fault {
                let t = e.clock_s();
                e.apply_fault(t, 1e-3, 0, 1.0).unwrap();
            }
            while e.has_work() {
                e.step();
            }
            e.records()[0].completed_s
        };
        assert!(run(true) > run(false));
    }

    #[test]
    fn a_wafer_with_every_kv_unit_failed_is_dead_but_conserves_requests() {
        let mut e = engine(2); // 1 key + 1 value core, 32 crossbars each
        let mut faults = 0;
        while e.apply_fault(0.0, 0.0, faults, 0.0).is_some() {
            faults += 1;
        }
        assert_eq!(faults, 64, "one fault per crossbar kills the wafer");
        assert!(!e.is_serviceable());
        assert_eq!(e.healthy_kv_fraction(), 0.0);
        assert!(e.apply_fault(0.0, 0.0, 0, 0.0).is_none(), "a dead wafer absorbs no more faults");
        // Requests routed here anyway are dropped, not spun on.
        e.submit_with(Request::new(0, 64, 8), 0.0, Admission::Local, 0, 0);
        while e.has_work() {
            e.step();
        }
        assert_eq!(e.stats().dropped, 1);
    }

    #[test]
    fn kv_load_tracks_queue_and_residency() {
        let mut e = engine(4);
        assert_eq!(e.kv_load(), 0.0);
        e.submit_with(Request::new(0, 512, 64), 0.0, Admission::Local, 0, 0);
        let queued = e.kv_load();
        assert!(queued > 0.0, "queued demand counts toward load");
        e.step();
        assert!(e.resident() == 1);
        assert!(e.kv_load() > 0.0);
    }

    #[test]
    fn shared_prefix_requests_skip_cached_prefill() {
        let mut e = engine(8);
        // Two concurrent requests sharing a 256-token system prompt with
        // 64-token unique tails.
        e.submit_with(Request::new(0, 320, 8).with_shared_prefix(1, 256), 0.0, Admission::Local, 0, 0);
        e.submit_with(Request::new(1, 320, 8).with_shared_prefix(1, 256), 0.0, Admission::Local, 1, 0);
        while e.has_work() {
            e.step();
        }
        // The first admission populates the chain (cold), the second hits.
        assert_eq!(e.stats().prefix_hits, 1);
        assert_eq!(e.stats().cached_prefix_tokens, 256);
        assert_eq!(e.records()[1].cached_prefix_tokens, 256);
        assert_eq!(e.records()[0].cached_prefix_tokens, 0);
        // Prefill was charged for 320 (cold) + 64 (hit suffix) tokens.
        assert_eq!(e.stats().prefilled_tokens, 320 + 64);
        assert!(e.kv_audit().is_conserved());
        assert_eq!(e.kv_audit().live, 0, "a drained engine frees its chains too");
    }

    #[test]
    fn prefix_hits_cut_ttft_against_the_cold_run() {
        let run = |caching: bool| -> (f64, u64) {
            let mut e = Engine::new(
                times(),
                kv(8),
                EngineConfig { prefix_caching: caching, ..EngineConfig::default() },
            )
            .unwrap();
            for i in 0..6 {
                e.submit_with(
                    Request::new(i, 520, 8).with_shared_prefix(9, 512),
                    0.0,
                    Admission::Local,
                    i,
                    0,
                );
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

    /// Satellite regression (queueing-delay accounting): `admitted_s` keeps
    /// the *first* admission, while waiting time after an eviction
    /// accumulates in `queue_wait_s` instead of silently inflating apparent
    /// service time.
    #[test]
    fn post_eviction_queueing_is_accounted_as_queue_wait() {
        let mut e = engine(2);
        for i in 0..40 {
            e.submit_with(Request::new(i, 800, 800), 0.0, Admission::Local, i, 0);
        }
        while e.has_work() {
            e.step();
        }
        let evicted: Vec<&RequestRecord> =
            e.records().iter().filter(|r| r.evictions > 0 && r.completed()).collect();
        assert!(!evicted.is_empty(), "this workload must evict at least one request");
        for r in evicted {
            assert!(
                r.queue_wait_s > r.admitted_s - r.arrival_s + 1e-12,
                "an evicted request's total queue wait ({}) must exceed its first-admission \
                 wait ({})",
                r.queue_wait_s,
                r.admitted_s - r.arrival_s
            );
        }
        // Un-evicted requests: queue wait equals the first-admission wait.
        for r in e.records().iter().filter(|r| r.evictions == 0 && r.completed()) {
            assert!((r.queue_wait_s - (r.admitted_s - r.arrival_s)).abs() < 1e-12);
        }
    }

    /// Satellite regression (recompute double-count): a step boundary where
    /// a fault evicts the victim *and* admission pressure evicts again must
    /// charge `recomputed_tokens` exactly once per actual replay. Seeds and
    /// sizes are pinned; the expected counter is derived independently from
    /// the per-request eviction counts.
    #[test]
    fn fault_plus_capacity_eviction_charges_recompute_once() {
        let mut e = engine(8);
        e.submit_with(Request::new(0, 256, 512), 0.0, Admission::Local, 0, 0);
        while e.records()[0].first_token_s.is_nan() {
            e.step();
        }
        // The fault evicts the lone resident sequence (no charge yet)...
        let impact = e.apply_fault(e.clock_s(), 0.5e-3, 0, 0.0).expect("healthy cores remain");
        assert_eq!(impact.evicted_sequences, 1);
        assert_eq!(e.stats().recomputed_tokens, 0);
        // ...and the following steps re-admit it: one charge, equal to the
        // resident KV at eviction (prompt + decode progress so far).
        while e.has_work() {
            e.step();
        }
        assert!(e.records()[0].completed());
        assert_eq!(e.records()[0].evictions, 1, "exactly one eviction in this scenario");
        let r = &e.records()[0];
        // One replay of (prompt + decoded-at-eviction) tokens; decoded at
        // eviction is bounded by the final decode length.
        assert!(e.stats().recomputed_tokens >= r.prompt_len as u64);
        assert!(
            e.stats().recomputed_tokens <= (r.prompt_len + r.decode_len) as u64,
            "a single replay can never exceed one full residency: {} tokens",
            e.stats().recomputed_tokens
        );
        assert!(e.kv_audit().is_conserved());
    }
}
