//! Checkpoint/resume for in-flight scenario runs.
//!
//! `capture` folds a [`RunState`]'s complete simulator state — the stage
//! queues, every engine's records/pending arena/active set/KV manager, the
//! policy and think-stream state, the running migration totals and the
//! fault injector — into a typed [`Snapshot`]. `rebuild` inverts it
//! against the same [`Scenario`] and hardware system, producing a
//! [`RunState`] that continues the identical simulation: the golden
//! identity test drives one run to the horizon and another to the
//! midpoint, snapshots, resumes, and asserts byte-identical
//! [`crate::RunReport`]s.
//!
//! # What is (deliberately) not captured
//!
//! * The driver's **event calendar** — a pure cache over the engines,
//!   rebuilt by `refresh_engine` on resume.
//! * **Tracing and telemetry** — observational sinks
//!   that never feed back into the simulation; a resumed run restarts
//!   them empty.
//!
//! # Serialized form
//!
//! [`Snapshot::to_json`] renders a dependency-free JSON document: an array
//! of flat objects whose values are all strings, one object per state row,
//! each tagged with a `"section"` key. Floats are serialized as the hex of
//! their IEEE-754 bit pattern (`f64::to_bits`), so round-tripping is exact
//! (including NaN payloads, which plain decimal JSON cannot carry — the
//! workspace's JSON writer renders non-finite floats as `null`). The writer
//! appends every value straight into one output `String`, sized up front:
//! integers as decimal digits, floats as bit-pattern hex.
//! [`Snapshot::parse`] is the strict inverse. It reads the document through
//! the workspace's one flat-row reader ([`ouro_trace::json::RowReader`]),
//! consuming each row as it is read and each row's keys in their pinned
//! order; escape-free values borrow from the text, so parsing allocates
//! neither per field nor per row. Rows carry state only: what the rest
//! implies (the engines' queue counters, the KV append cursors) is derived
//! again on resume. The schema is versioned by
//! [`SNAPSHOT_SCHEMA_VERSION`] and guarded by a canonical config hash, so
//! foreign state cannot be resumed silently.

use crate::engine::{EngineConfig, EngineStats};
use crate::fault::{FaultConfig, FaultInjector, FaultInjectorSnapshot, WaferFaultSnapshot};
use crate::metrics::{RequestRecord, SloConfig};
use crate::scenario::{Deployment, DisaggConfig, RunState, Scenario};
use crate::stage::migrate::MigrationTotals;
use crate::stage::{ActiveSeq, ArrivalEvent, PendingReq, StageQueues};
use ouro_kvcache::{
    CrossbarSnapshot, KvError, KvManager, KvManagerSnapshot, KvTransferStats, SharedChainSnapshot,
    SnapshotSlot,
};
use ouro_sim::OuroborosSystem;
use ouro_trace::json::{fnv1a_extend, RowReader, Value, FNV1A_OFFSET};
use ouro_trace::TelemetryConfig;
use ouro_workload::{ArrivalConfig, Request, SharedPrefix, TimedRequest, TimedTrace};
use rand::rngs::StdRng;
use std::borrow::Cow;

/// Version stamp of the serialized snapshot schema. Bumped on any change
/// to the row layout; [`Snapshot::parse`] and `rebuild` both reject
/// mismatches instead of guessing.
pub const SNAPSHOT_SCHEMA_VERSION: u32 = 3;

/// A complete mid-run checkpoint of one scenario run, captured by
/// [`Scenario::checkpoint`] and resumed by [`Scenario::resume`]. Serialize
/// with [`Snapshot::to_json`]; parse back with [`Snapshot::parse`].
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub(crate) schema_version: u32,
    /// FNV-1a over a canonical encoding of the scenario's config
    /// ([`config_hash`]): resuming under a differently-configured scenario
    /// is a hard error, not silent drift.
    pub(crate) config_hash: u64,
    pub(crate) completed: u64,
    pub(crate) faults_fired: u64,
    pub(crate) router_state: u64,
    pub(crate) placement_state: u64,
    /// Open arrivals `(at_s, trace index)`, in queue (sorted) order.
    pub(crate) arrivals: Vec<(f64, usize)>,
    /// Gated closed-loop requests, in submission order.
    pub(crate) gated: Vec<usize>,
    /// Raw xoshiro256** state of the think-time stream.
    pub(crate) think_rng: [u64; 4],
    pub(crate) migrations: MigrationTotals,
    /// Per-engine state in global wafer order.
    pub(crate) engines: Vec<EngineSnapshot>,
    pub(crate) injector: Option<FaultInjectorSnapshot>,
}

/// One engine's complete mutable state inside a [`Snapshot`].
#[derive(Debug, Clone)]
pub(crate) struct EngineSnapshot {
    pub(crate) clock_s: f64,
    pub(crate) busy_s: f64,
    pub(crate) admission_suspended: bool,
    /// Absolute mean hop distance (faults append penalties to it, so the
    /// config value cannot be assumed on resume).
    pub(crate) mean_hops: f64,
    pub(crate) stats: EngineStats,
    pub(crate) records: Vec<RequestRecord>,
    /// The pending arena's live entries `(ready_s, event)` in queue order
    /// ([`crate::arena::IndexQueue::entries`]); restored by `push_back` in
    /// order, which preserves relative ranks.
    pub(crate) pending: Vec<(f64, PendingReq)>,
    pub(crate) active: Vec<ActiveSeq>,
    pub(crate) kv: KvManagerSnapshot,
}

/// Captures the complete simulator state of `run` (see the module doc for
/// what is deliberately left out).
pub(crate) fn capture(scenario: &Scenario, run: &RunState) -> Snapshot {
    let d = &run.driver;
    Snapshot {
        schema_version: SNAPSHOT_SCHEMA_VERSION,
        config_hash: config_hash(scenario),
        completed: d.completed,
        faults_fired: d.faults_fired,
        router_state: d.router.checkpoint_state(),
        placement_state: d.placement.checkpoint_state(),
        arrivals: run.queues.arrivals.iter().map(|ev| (ev.at_s, ev.index)).collect(),
        gated: run.queues.gated.iter().copied().collect(),
        think_rng: run.queues.think_rng.state(),
        migrations: d.migrations,
        engines: d
            .engines
            .iter()
            .map(|e| {
                let (active, kv) = e.settled_state();
                EngineSnapshot {
                    clock_s: e.clock_s,
                    busy_s: e.busy_s,
                    admission_suspended: e.admission_suspended,
                    mean_hops: e.times.mean_hops,
                    stats: e.stats,
                    records: e.records.clone(),
                    pending: e.pending.entries(),
                    active,
                    kv,
                }
            })
            .collect(),
        injector: run.injector.as_ref().map(FaultInjector::snapshot),
    }
}

/// Rebuilds a [`RunState`] from `snap` against replicas of `system`,
/// continuing the identical simulation.
///
/// # Errors
///
/// Returns [`KvError::BadSnapshot`] on a schema-version, config-hash or
/// wafer-count mismatch, fault state the scenario's fault config does not
/// match, a pending row whose record is out of range, a local pending row
/// carrying wire tokens, pending rows whose token sums overflow the
/// engine's queue counters, an active row whose prompt plus decoded tokens
/// differ from its resident KV, two active rows naming one record, a
/// resident sequence with no active row, or an arrival or gated index past
/// the workload; propagates it from KV-manager and fault-injector
/// reconstruction (KV rows that do not fit the system's geometry, fault
/// state that does not fit the deployment).
/// Returns [`KvError::UnknownSequence`] for an active row whose record is
/// out of range or not resident in the restored manager. Every check runs
/// before the [`RunState`] is built.
///
/// # Panics
///
/// Panics only when the scenario has no workload, as
/// [`Scenario::start`] does.
pub(crate) fn rebuild(
    scenario: &Scenario,
    system: &OuroborosSystem,
    snap: &Snapshot,
) -> Result<RunState, KvError> {
    if snap.schema_version != SNAPSHOT_SCHEMA_VERSION {
        return Err(KvError::BadSnapshot("unsupported snapshot schema version"));
    }
    if snap.config_hash != config_hash(scenario) {
        return Err(KvError::BadSnapshot("captured by a differently-configured scenario"));
    }
    let timed = scenario.timed();
    let total = scenario.total_wafers();
    if snap.engines.len() != total {
        return Err(KvError::BadSnapshot("wafer count differs from the deployment"));
    }
    if snap.engines.iter().any(|es| es.pending.iter().any(|(_, p)| p.rec >= es.records.len())) {
        return Err(KvError::BadSnapshot("a pending row names a record out of range"));
    }
    let requests = timed.arrivals.len();
    if snap.arrivals.iter().map(|&(_, index)| index).chain(snap.gated.iter().copied()).any(|i| i >= requests)
    {
        return Err(KvError::BadSnapshot("an arrival or gated index is past the workload"));
    }
    let injector = match (scenario.fault, &snap.injector) {
        (Some(cfg), Some(is)) => Some(FaultInjector::restore(
            system,
            total,
            cfg,
            FaultInjector::run_window_s(scenario.horizon_s, timed),
            is,
        )?),
        (None, None) => None,
        _ => return Err(KvError::BadSnapshot("fault state does not match the scenario's fault config")),
    };

    let mut engines = Vec::with_capacity(total);
    for (wafer, es) in snap.engines.iter().enumerate() {
        let mut e = scenario.wafer_engine(system, wafer)?;
        e.manager = KvManager::restore(system.serve_kv_config(), &es.kv)?;
        e.set_mean_hops(es.mean_hops);
        e.records = es.records.clone();
        // The queue counters are running sums over the pending rows, kept
        // the way `submit_with` and an eviction add them: prompt plus
        // decoded tokens per row, wire tokens per imported row. Summed
        // wide, so no row can overflow them unnoticed.
        let (mut tokens, mut wire_tokens) = (0u128, 0u128);
        for &(ready_s, req) in &es.pending {
            if !req.imported && req.wire_tokens > 0 {
                return Err(KvError::BadSnapshot("a local pending row carries wire tokens"));
            }
            tokens += e.records[req.rec].prompt_len as u128 + req.decoded as u128;
            wire_tokens += req.wire_tokens as u128;
            e.pending.push_back(ready_s, req);
        }
        let overflow = || KvError::BadSnapshot("an engine's pending rows overflow its queue counters");
        e.pending_tokens = usize::try_from(tokens).map_err(|_| overflow())?;
        e.pending_wire_tokens = usize::try_from(wire_tokens).map_err(|_| overflow())?;
        // `push_active` stamps each row's `since` with the restored step
        // count, so the stats come first.
        e.stats = es.stats;
        let mut listed = vec![false; e.records.len()];
        for a in &es.active {
            let seq = a.rec as u64;
            let (Some(r), Some(slot)) = (e.records.get(a.rec), e.manager.slot_of(seq)) else {
                return Err(KvError::UnknownSequence(seq));
            };
            if e.manager.sequence_tokens(seq) != Some(r.prompt_len + a.decoded) {
                return Err(KvError::BadSnapshot("an active row's progress differs from its resident KV"));
            }
            if std::mem::replace(&mut listed[a.rec], true) {
                return Err(KvError::BadSnapshot("two active rows name one record"));
            }
            e.push_active(ActiveSeq { kv_slot: slot, decode_len: r.decode_len, ..*a });
        }
        // Every active row is resident and names its own record, so equal
        // counts make every resident sequence active.
        if e.manager.resident_sequences() != es.active.len() {
            return Err(KvError::BadSnapshot("a resident sequence has no active row"));
        }
        e.admission_suspended = es.admission_suspended;
        e.clock_s = es.clock_s;
        e.busy_s = es.busy_s;
        engines.push(e);
    }

    let queues = StageQueues::holding(
        timed,
        snap.arrivals.iter().map(|&(at_s, index)| ArrivalEvent { at_s, index }).collect(),
        snap.gated.iter().copied().collect(),
        StdRng::from_state(snap.think_rng),
    );
    let mut run = RunState::new(scenario, system, engines, queues, injector);
    let d = &mut run.driver;
    d.router.restore_state(snap.router_state);
    d.placement.restore_state(snap.placement_state);
    d.migrations = snap.migrations;
    d.completed = snap.completed;
    d.faults_fired = snap.faults_fired;
    Ok(run)
}

/// FNV-1a over a canonical encoding of every config field (deployment,
/// workload arrivals and seeds, policies, engine tuning, SLO, horizon,
/// faults, observability toggles): integers as fixed-width little-endian
/// words, floats by their bit pattern, enum variants and `Option`s by a
/// fixed tag, and policies by name. Every struct is destructured in full,
/// so a new config field does not compile until it is hashed here.
pub(crate) fn config_hash(scenario: &Scenario) -> u64 {
    let Scenario { deployment, workload, router, placement, engine, slo, horizon_s, fault, trace, telemetry } =
        scenario;
    let mut h = ConfigHasher(FNV1A_OFFSET);
    match *deployment {
        Deployment::Colocated { wafers } => h.tag(0).int(wafers),
        Deployment::Disaggregated(DisaggConfig { prefill_wafers, decode_wafers }) => {
            h.tag(1).int(prefill_wafers).int(decode_wafers)
        }
    };
    match workload {
        None => h.tag(0),
        Some(TimedTrace { arrivals, config, seed }) => {
            match *config {
                ArrivalConfig::Poisson { rate_rps } => h.tag(1).tag(0).float(rate_rps),
                ArrivalConfig::Bursty { rate_rps, cv } => h.tag(1).tag(1).float(rate_rps).float(cv),
                ArrivalConfig::ClosedLoop { users, think_time_s } => {
                    h.tag(1).tag(2).int(users).float(think_time_s)
                }
            };
            h.int(*seed).int(arrivals.len());
            for &TimedRequest { request: Request { id, prompt_len, decode_len, shared_prefix }, arrival_s } in
                arrivals
            {
                h.float(arrival_s).int(id).int(prompt_len).int(decode_len);
                match shared_prefix {
                    None => h.tag(0),
                    Some(SharedPrefix { group, tokens }) => h.tag(1).int(group).int(tokens),
                };
            }
            &mut h
        }
    };
    h.text(&router.name()).text(&placement.name());
    let EngineConfig { max_batch, prefill_chunk, prefix_caching } = *engine;
    let SloConfig { ttft_s, tpot_s } = *slo;
    h.int(max_batch).int(prefill_chunk).flag(prefix_caching).float(ttft_s).float(tpot_s).float(*horizon_s);
    match *fault {
        None => h.tag(0),
        Some(FaultConfig { mtbf_s, remap_stall_s, seed }) => {
            h.tag(1).float(mtbf_s).float(remap_stall_s).int(seed)
        }
    };
    h.flag(*trace);
    match *telemetry {
        None => h.tag(0),
        Some(TelemetryConfig { cadence_s }) => h.tag(1).float(cadence_s),
    };
    h.0
}

/// Unsigned integers, widened to the `u64` they are hashed and written as.
trait Uint: Copy {
    fn wide(self) -> u64;
}

macro_rules! uint {
    ($($t:ty),*) => {
        $(impl Uint for $t {
            fn wide(self) -> u64 {
                self as u64
            }
        })*
    };
}

uint!(u8, u32, u64, usize);

/// A running FNV-1a state of [`config_hash`].
struct ConfigHasher(u64);

impl ConfigHasher {
    fn bytes(&mut self, bytes: &[u8]) -> &mut ConfigHasher {
        self.0 = fnv1a_extend(self.0, bytes);
        self
    }

    fn tag(&mut self, tag: u8) -> &mut ConfigHasher {
        self.bytes(&[tag])
    }

    fn flag(&mut self, on: bool) -> &mut ConfigHasher {
        self.tag(u8::from(on))
    }

    fn int(&mut self, v: impl Uint) -> &mut ConfigHasher {
        self.bytes(&v.wide().to_le_bytes())
    }

    fn float(&mut self, v: f64) -> &mut ConfigHasher {
        self.int(v.to_bits())
    }

    /// Length first, so adjacent strings cannot trade bytes.
    fn text(&mut self, s: &str) -> &mut ConfigHasher {
        self.int(s.len()).bytes(s.as_bytes())
    }
}

// ---------------------------------------------------------------------------
// Serialization: flat-JSON rows, string values only, floats as bit-pattern
// hex. Written here (`JsonObject::num` cannot round-trip non-finite floats),
// read back row by row through the shared `ouro_trace::json::RowReader`.
// ---------------------------------------------------------------------------

/// The document under construction: every row is appended in place to one
/// output `String`. Values are decimal digits, bit-pattern hex and fixed
/// separator characters, so nothing needs escaping on either side.
struct Doc {
    out: String,
    /// Whether a row is open (its closing brace not yet written).
    open: bool,
}

impl Doc {
    /// An open array with room for `capacity` bytes.
    fn new(capacity: usize) -> Doc {
        let mut out = String::with_capacity(capacity);
        out.push_str("[\n");
        Doc { out, open: false }
    }

    /// Opens a row of `section`, closing the one before it.
    fn row(&mut self, section: &str) -> &mut Doc {
        self.out.push_str(if self.open { "},\n{\"section\":\"" } else { "{\"section\":\"" });
        self.open = true;
        self.out.push_str(section);
        self.out.push('"');
        self
    }

    /// Opens the value of `key`; [`Doc::close`] ends it.
    fn key(&mut self, key: &str) -> &mut Doc {
        self.out.push_str(",\"");
        self.out.push_str(key);
        self.out.push_str("\":\"");
        self
    }

    fn close(&mut self) -> &mut Doc {
        self.out.push('"');
        self
    }

    fn sep(&mut self, c: char) -> &mut Doc {
        self.out.push(c);
        self
    }

    fn text(&mut self, s: &str) -> &mut Doc {
        self.out.push_str(s);
        self
    }

    /// `v` in decimal.
    fn n(&mut self, v: impl Uint) -> &mut Doc {
        let mut v = v.wide();
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
        self
    }

    /// `bits` as 16 lower-case hex digits.
    fn bits(&mut self, bits: u64) -> &mut Doc {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut digits = [0u8; 16];
        for (i, d) in digits.iter_mut().enumerate() {
            *d = HEX[(bits >> (60 - 4 * i)) as usize & 0xf];
        }
        self.out.push_str(std::str::from_utf8(&digits).expect("ASCII hex digits"));
        self
    }

    /// `v` by its IEEE-754 bit pattern, so every value round-trips.
    fn f(&mut self, v: f64) -> &mut Doc {
        self.bits(v.to_bits())
    }

    /// `items`, each written by `each`, `sep`-separated.
    fn list<T>(
        &mut self,
        sep: char,
        items: impl IntoIterator<Item = T>,
        mut each: impl FnMut(&mut Doc, T) -> &mut Doc,
    ) -> &mut Doc {
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                self.out.push(sep);
            }
            each(self, item);
        }
        self
    }

    fn int(&mut self, key: &str, v: impl Uint) -> &mut Doc {
        self.key(key).n(v).close()
    }

    fn float(&mut self, key: &str, v: f64) -> &mut Doc {
        self.key(key).f(v).close()
    }

    fn flag(&mut self, key: &str, on: bool) -> &mut Doc {
        self.key(key).sep(if on { '1' } else { '0' }).close()
    }

    fn finish(mut self) -> String {
        if self.open {
            self.out.push('}');
        }
        self.out.push_str("\n]\n");
        self.out
    }
}

impl Snapshot {
    /// About how many bytes [`Snapshot::to_json`] writes, from the typical
    /// rendered length of each row and list item, so the document is
    /// allocated once.
    fn json_len(&self) -> usize {
        let engines: usize = self
            .engines
            .iter()
            .map(|e| {
                let kv = &e.kv;
                let blocks: usize =
                    kv.key_cores.iter().chain(&kv.value_cores).flatten().map(|xb| xb.blocks.len()).sum();
                let listed: usize = kv.seq_blocks.iter().map(|(_, b)| b.len()).sum();
                4096 + 300 * e.records.len()
                    + 160 * (e.pending.len() + e.active.len())
                    + 4 * blocks
                    + 16 * listed
            })
            .sum();
        let injector = self.injector.as_ref().map_or(0, |inj| {
            let cores: usize =
                inj.wafers.iter().map(|w| w.assignment.len() + w.kv_cores.len() + w.failed.len()).sum();
            512 + 40 * inj.events.len() + 160 * inj.wafers.len() + 8 * cores
        });
        1024 + 24 * self.arrivals.len() + 8 * self.gated.len() + engines + injector
    }

    /// Serializes the snapshot (see the module doc for the format).
    pub fn to_json(&self) -> String {
        let mut d = Doc::new(self.json_len());
        let m = &self.migrations;
        d.row("meta")
            .int("schema_version", self.schema_version)
            .key("config_hash")
            .bits(self.config_hash)
            .close()
            .int("completed", self.completed)
            .int("faults_fired", self.faults_fired)
            .key("migrations")
            .list('|', [m.count, m.wire_tokens, m.deduped_tokens], Doc::n)
            .sep('|')
            .list('|', [m.transit_s, m.max_transit_s, m.energy_j], Doc::f)
            .close()
            .int("router_state", self.router_state)
            .int("placement_state", self.placement_state)
            .key("think_rng")
            .list('|', self.think_rng, Doc::bits)
            .close()
            .key("arrivals")
            .list(';', &self.arrivals, |d, &(t, i)| d.f(t).sep(':').n(i))
            .close()
            .key("gated")
            .list(';', &self.gated, |d, &i| d.n(i))
            .close();
        for (wafer, e) in self.engines.iter().enumerate() {
            let s = &e.stats;
            d.row("engine")
                .int("wafer", wafer)
                .float("clock_s", e.clock_s)
                .float("busy_s", e.busy_s)
                .flag("suspended", e.admission_suspended)
                .float("mean_hops", e.mean_hops)
                .key("stats")
                .list('|', [s.admissions, s.evictions, s.recomputed_tokens, s.prefilled_tokens], Doc::n)
                .sep('|')
                .list(
                    '|',
                    [s.cached_prefix_tokens, s.prefix_hits, s.dropped, s.dropped_imported_tokens],
                    Doc::n,
                )
                .sep('|')
                .n(s.steps)
                .sep('|')
                .n(s.peak_resident)
                .sep('|')
                .list('|', [s.faults, s.fault_evicted_seqs, s.fault_evicted_tokens], Doc::n)
                .sep('|')
                .f(s.stall_s)
                .close();
            for r in &e.records {
                d.row("record")
                    .int("wafer", wafer)
                    .int("id", r.id)
                    .int("prompt", r.prompt_len)
                    .int("decode", r.decode_len)
                    .float("arrival_s", r.arrival_s)
                    .float("admitted_s", r.admitted_s)
                    .float("queue_wait_s", r.queue_wait_s)
                    .float("first_token_s", r.first_token_s)
                    .float("completed_s", r.completed_s)
                    .int("evictions", r.evictions)
                    .int("cached_prefix", r.cached_prefix_tokens)
                    .key("shared");
                match r.shared_prefix {
                    None => d.sep('-'),
                    Some(p) => d.n(p.group).sep(':').n(p.tokens),
                }
                .close();
            }
            for &(ready_s, p) in &e.pending {
                d.row("pending")
                    .int("wafer", wafer)
                    .float("ready_s", ready_s)
                    .int("rec", p.rec)
                    .int("decoded", p.decoded)
                    .flag("imported", p.imported)
                    .int("wire_tokens", p.wire_tokens)
                    .flag("evicted", p.evicted)
                    .flag("prefill_only", p.prefill_only);
            }
            for a in &e.active {
                d.row("active")
                    .int("wafer", wafer)
                    .int("rec", a.rec)
                    .int("prefill_remaining", a.prefill_remaining)
                    .int("decoded", a.decoded)
                    .int("admission_order", a.admission_order)
                    .flag("prefill_only", a.prefill_only);
            }
            let kv = &e.kv;
            let t = &kv.transfers;
            d.row("kv")
                .int("wafer", wafer)
                .int("ring_k", kv.ring_next[0])
                .int("ring_v", kv.ring_next[1])
                .int("allocated", kv.allocated_blocks)
                .int("freed", kv.freed_blocks)
                .key("transfers")
                .list(
                    '|',
                    [t.exported_sequences, t.exported_tokens, t.imported_sequences, t.imported_tokens],
                    Doc::n,
                )
                .close();
            for (side, cores) in [("k", &kv.key_cores), ("v", &kv.value_cores)] {
                for (core, xbs) in cores.iter().enumerate() {
                    d.row("kv_cores")
                        .int("wafer", wafer)
                        .key("side")
                        .text(side)
                        .close()
                        .int("core", core)
                        .key("xbs")
                        .list(';', xbs, |d, xb| {
                            d.n(u8::from(xb.failed)).sep('!').list(',', &xb.blocks, |d, b| match *b {
                                None => d.sep('-'),
                                Some((owner, used)) => d.n(owner).sep(':').n(used),
                            })
                        })
                        .close();
                }
            }
            d.row("kv_seq_blocks")
                .int("wafer", wafer)
                .key("entries")
                .list(';', &kv.seq_blocks, |d, (seq, blocks)| {
                    d.n(*seq).sep(':').list(',', blocks, |d, &(r, ci, xb, b)| {
                        d.n(r).sep('.').n(ci).sep('.').n(xb).sep('.').n(b)
                    })
                })
                .close();
            d.row("kv_resident")
                .int("wafer", wafer)
                .key("entries")
                .list(';', &kv.resident_tokens, |d, &(seq, t)| d.n(seq).sep(':').n(t))
                .close();
            for (group, chain) in &kv.shared {
                d.row("kv_shared")
                    .int("wafer", wafer)
                    .int("group", *group)
                    .int("k_core", chain.k_core)
                    .int("v_core", chain.v_core)
                    .key("nodes")
                    .list(';', &chain.nodes, |d, &(refs, (kc, kx, kb), (vc, vx, vb))| {
                        d.n(refs).sep('!').n(kc).sep('.').n(kx).sep('.').n(kb);
                        d.sep('!').n(vc).sep('.').n(vx).sep('.').n(vb)
                    })
                    .close();
            }
            d.row("kv_seq_shared")
                .int("wafer", wafer)
                .key("entries")
                .list(';', &kv.seq_shared, |d, &(seq, g, n)| d.n(seq).sep(':').n(g).sep(':').n(n))
                .close();
        }
        if let Some(inj) = &self.injector {
            d.row("injector")
                .key("events")
                .list(';', &inj.events, |d, &(w, t, draw)| d.n(w).sep(':').f(t).sep(':').n(draw))
                .close()
                .key("counters")
                .list('|', inj.counters, Doc::n)
                .close();
            for (wafer, w) in inj.wafers.iter().enumerate() {
                d.row("injector_wafer")
                    .int("wafer", wafer)
                    .key("assignment")
                    .list(';', &w.assignment, |d, &c| d.n(c))
                    .close()
                    .key("kv_cores")
                    .list(';', &w.kv_cores, |d, &c| d.n(c))
                    .close()
                    .key("failed")
                    .list(';', &w.failed, |d, &c| d.n(c))
                    .close()
                    .float("death_s", w.death_s)
                    .float("stall_s", w.stall_s);
            }
        }
        d.finish()
    }

    /// Parses a [`Snapshot::to_json`] document, consuming each row as it is
    /// read and each row's keys in their pinned order.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed token, unknown
    /// section, missing, misplaced or extra field, or schema-version
    /// mismatch.
    pub fn parse(text: &str) -> Result<Snapshot, String> {
        let mut rows = RowReader::new(text)?;
        let mut snap = Snapshot {
            schema_version: 0,
            config_hash: 0,
            completed: 0,
            faults_fired: 0,
            router_state: 0,
            placement_state: 0,
            arrivals: Vec::new(),
            gated: Vec::new(),
            think_rng: [0; 4],
            migrations: MigrationTotals::default(),
            engines: Vec::new(),
            injector: None,
        };
        let mut saw_meta = false;
        while let Some(row) = rows.next_row()? {
            let mut f = Fields(row.fields.iter());
            let section = f.str("section")?;
            match section {
                "meta" => {
                    saw_meta = true;
                    snap.schema_version =
                        f.str("schema_version")?.parse().map_err(|e| format!("schema_version: {e}"))?;
                    if snap.schema_version != SNAPSHOT_SCHEMA_VERSION {
                        return Err(format!(
                            "snapshot schema v{} is not the supported v{SNAPSHOT_SCHEMA_VERSION}",
                            snap.schema_version
                        ));
                    }
                    snap.config_hash = p_hex_u64(f.str("config_hash")?)?;
                    snap.completed = p_u64(f.str("completed")?)?;
                    snap.faults_fired = p_u64(f.str("faults_fired")?)?;
                    let [count, wire, deduped, transit, max_transit, energy] =
                        parts(f.str("migrations")?, "meta migrations")?;
                    snap.migrations = MigrationTotals {
                        count: p_u64(count)?,
                        wire_tokens: p_u64(wire)?,
                        deduped_tokens: p_u64(deduped)?,
                        transit_s: p_f64(transit)?,
                        max_transit_s: p_f64(max_transit)?,
                        energy_j: p_f64(energy)?,
                    };
                    snap.router_state = p_u64(f.str("router_state")?)?;
                    snap.placement_state = p_u64(f.str("placement_state")?)?;
                    let rng: Vec<u64> =
                        split(f.str("think_rng")?, '|').map(p_hex_u64).collect::<Result<_, _>>()?;
                    snap.think_rng = rng
                        .try_into()
                        .map_err(|v: Vec<u64>| format!("think_rng has {} words, expected 4", v.len()))?;
                    snap.arrivals = split(f.str("arrivals")?, ';')
                        .map(|item| {
                            let (t, i) = pair(item, ':')?;
                            Ok((p_f64(t)?, p_usize(i)?))
                        })
                        .collect::<Result<_, String>>()?;
                    snap.gated = split(f.str("gated")?, ';').map(p_usize).collect::<Result<_, _>>()?;
                }
                "engine" => {
                    let wafer = p_usize(f.str("wafer")?)?;
                    if wafer != snap.engines.len() {
                        return Err(format!("engine row for wafer {wafer} out of order"));
                    }
                    // Struct fields evaluate in source order, which is the
                    // keys' pinned order.
                    snap.engines.push(EngineSnapshot {
                        clock_s: p_f64(f.str("clock_s")?)?,
                        busy_s: p_f64(f.str("busy_s")?)?,
                        admission_suspended: p_bool(f.str("suspended")?)?,
                        mean_hops: p_f64(f.str("mean_hops")?)?,
                        stats: {
                            let s: [&str; 14] = parts(f.str("stats")?, "engine stats")?;
                            EngineStats {
                                admissions: p_u64(s[0])?,
                                evictions: p_u64(s[1])?,
                                recomputed_tokens: p_u64(s[2])?,
                                prefilled_tokens: p_u64(s[3])?,
                                cached_prefix_tokens: p_u64(s[4])?,
                                prefix_hits: p_u64(s[5])?,
                                dropped: p_u64(s[6])?,
                                dropped_imported_tokens: p_u64(s[7])?,
                                steps: p_u64(s[8])?,
                                peak_resident: p_usize(s[9])?,
                                faults: p_u64(s[10])?,
                                fault_evicted_seqs: p_u64(s[11])?,
                                fault_evicted_tokens: p_u64(s[12])?,
                                stall_s: p_f64(s[13])?,
                            }
                        },
                        records: Vec::new(),
                        pending: Vec::new(),
                        active: Vec::new(),
                        kv: KvManagerSnapshot {
                            ring_next: [0, 0],
                            allocated_blocks: 0,
                            freed_blocks: 0,
                            transfers: KvTransferStats::default(),
                            key_cores: Vec::new(),
                            value_cores: Vec::new(),
                            seq_blocks: Vec::new(),
                            resident_tokens: Vec::new(),
                            shared: Vec::new(),
                            seq_shared: Vec::new(),
                        },
                    });
                }
                "record" | "pending" | "active" | "kv" | "kv_cores" | "kv_seq_blocks" | "kv_resident"
                | "kv_shared" | "kv_seq_shared" => {
                    let wafer = p_usize(f.str("wafer")?)?;
                    let e = snap
                        .engines
                        .get_mut(wafer)
                        .ok_or_else(|| format!("{section} row for wafer {wafer} precedes its engine row"))?;
                    parse_engine_row(section, &mut f, e)?;
                }
                "injector" => {
                    snap.injector = Some(FaultInjectorSnapshot {
                        events: split(f.str("events")?, ';')
                            .map(|item| {
                                let mut it = item.split(':');
                                let (w, t, draw) = (next(&mut it)?, next(&mut it)?, next(&mut it)?);
                                Ok((p_usize(w)?, p_f64(t)?, p_u64(draw)?))
                            })
                            .collect::<Result<_, String>>()?,
                        wafers: Vec::new(),
                        counters: split(f.str("counters")?, '|')
                            .map(p_u64)
                            .collect::<Result<Vec<u64>, _>>()?
                            .try_into()
                            .map_err(|v: Vec<u64>| {
                                format!("injector has {} counters, expected 8", v.len())
                            })?,
                    });
                }
                "injector_wafer" => {
                    let inj = snap.injector.as_mut().ok_or("injector_wafer row precedes the injector row")?;
                    let wafer = p_usize(f.str("wafer")?)?;
                    if wafer != inj.wafers.len() {
                        return Err(format!("injector_wafer row for wafer {wafer} out of order"));
                    }
                    inj.wafers.push(WaferFaultSnapshot {
                        assignment: split(f.str("assignment")?, ';').map(p_u64).collect::<Result<_, _>>()?,
                        kv_cores: split(f.str("kv_cores")?, ';').map(p_u64).collect::<Result<_, _>>()?,
                        failed: split(f.str("failed")?, ';').map(p_u64).collect::<Result<_, _>>()?,
                        death_s: p_f64(f.str("death_s")?)?,
                        stall_s: p_f64(f.str("stall_s")?)?,
                    });
                }
                other => return Err(format!("unknown snapshot section {other:?}")),
            }
            f.end(section)?;
        }
        if !saw_meta {
            return Err("snapshot has no meta row".to_string());
        }
        Ok(snap)
    }
}

/// One row's fields, read in their pinned order.
struct Fields<'r, 'a>(std::slice::Iter<'r, (Cow<'a, str>, Value<Cow<'a, str>>)>);

impl<'r> Fields<'r, '_> {
    /// The string value of the next field, which must be `key`.
    fn str(&mut self, key: &str) -> Result<&'r str, String> {
        match self.0.next() {
            Some((k, Value::Str(v))) if k == key => Ok(v),
            _ => Err(format!("row has no string field {key:?} in its place")),
        }
    }

    /// Checks that the row has no field left.
    fn end(mut self, section: &str) -> Result<(), String> {
        match self.0.next() {
            None => Ok(()),
            Some((k, _)) => Err(format!("{section} row has an unexpected field {k:?}")),
        }
    }
}

fn parse_engine_row(section: &str, f: &mut Fields<'_, '_>, e: &mut EngineSnapshot) -> Result<(), String> {
    match section {
        "record" => e.records.push(RequestRecord {
            id: p_usize(f.str("id")?)?,
            prompt_len: p_usize(f.str("prompt")?)?,
            decode_len: p_usize(f.str("decode")?)?,
            arrival_s: p_f64(f.str("arrival_s")?)?,
            admitted_s: p_f64(f.str("admitted_s")?)?,
            queue_wait_s: p_f64(f.str("queue_wait_s")?)?,
            first_token_s: p_f64(f.str("first_token_s")?)?,
            completed_s: p_f64(f.str("completed_s")?)?,
            evictions: f.str("evictions")?.parse().map_err(|e| format!("evictions: {e}"))?,
            cached_prefix_tokens: p_usize(f.str("cached_prefix")?)?,
            shared_prefix: match f.str("shared")? {
                "-" => None,
                s => {
                    let (g, t) = pair(s, ':')?;
                    Some(SharedPrefix { group: p_u64(g)?, tokens: p_usize(t)? })
                }
            },
        }),
        "pending" => e.pending.push((
            p_f64(f.str("ready_s")?)?,
            PendingReq {
                rec: p_usize(f.str("rec")?)?,
                decoded: p_usize(f.str("decoded")?)?,
                imported: p_bool(f.str("imported")?)?,
                wire_tokens: p_usize(f.str("wire_tokens")?)?,
                evicted: p_bool(f.str("evicted")?)?,
                prefill_only: p_bool(f.str("prefill_only")?)?,
            },
        )),
        "active" => e.active.push(ActiveSeq {
            rec: p_usize(f.str("rec")?)?,
            prefill_remaining: p_usize(f.str("prefill_remaining")?)?,
            decoded: p_usize(f.str("decoded")?)?,
            admission_order: p_u64(f.str("admission_order")?)?,
            prefill_only: p_bool(f.str("prefill_only")?)?,
            // Derived fields: `rebuild` fills them from the restored state.
            ..ActiveSeq::default()
        }),
        "kv" => {
            e.kv.ring_next = [p_usize(f.str("ring_k")?)?, p_usize(f.str("ring_v")?)?];
            e.kv.allocated_blocks = p_u64(f.str("allocated")?)?;
            e.kv.freed_blocks = p_u64(f.str("freed")?)?;
            let [exported_sequences, exported_tokens, imported_sequences, imported_tokens] =
                parts(f.str("transfers")?, "kv transfers")?;
            e.kv.transfers = KvTransferStats {
                exported_sequences: p_u64(exported_sequences)?,
                exported_tokens: p_u64(exported_tokens)?,
                imported_sequences: p_u64(imported_sequences)?,
                imported_tokens: p_u64(imported_tokens)?,
            };
        }
        "kv_cores" => {
            let side = match f.str("side")? {
                "k" => &mut e.kv.key_cores,
                "v" => &mut e.kv.value_cores,
                other => return Err(format!("unknown kv side {other:?}")),
            };
            if p_usize(f.str("core")?)? != side.len() {
                return Err("kv_cores row out of order".to_string());
            }
            let xbs: Vec<CrossbarSnapshot> = split(f.str("xbs")?, ';')
                .map(|xb| {
                    let (failed, blocks) = pair(xb, '!')?;
                    Ok(CrossbarSnapshot {
                        failed: p_bool(failed)?,
                        blocks: split(blocks, ',')
                            .map(|b| {
                                if b == "-" {
                                    Ok(None)
                                } else {
                                    let (owner, used) = pair(b, ':')?;
                                    Ok(Some((p_u64(owner)?, p_usize(used)?)))
                                }
                            })
                            .collect::<Result<_, String>>()?,
                    })
                })
                .collect::<Result<_, String>>()?;
            side.push(xbs);
        }
        "kv_seq_blocks" => {
            e.kv.seq_blocks = split(f.str("entries")?, ';')
                .map(|item| {
                    let (seq, blocks) = pair(item, ':')?;
                    Ok((
                        p_u64(seq)?,
                        split(blocks, ',')
                            .map(|b| {
                                let mut it = b.split('.');
                                Ok((
                                    p_u8(next(&mut it)?)?,
                                    p_usize(next(&mut it)?)?,
                                    p_usize(next(&mut it)?)?,
                                    p_usize(next(&mut it)?)?,
                                ))
                            })
                            .collect::<Result<_, String>>()?,
                    ))
                })
                .collect::<Result<_, String>>()?;
        }
        "kv_resident" => {
            e.kv.resident_tokens = split(f.str("entries")?, ';')
                .map(|item| {
                    let (seq, t) = pair(item, ':')?;
                    Ok((p_u64(seq)?, p_usize(t)?))
                })
                .collect::<Result<_, String>>()?;
        }
        "kv_shared" => {
            let p_slot = |s: &str| -> Result<SnapshotSlot, String> {
                let mut it = s.split('.');
                Ok((p_usize(next(&mut it)?)?, p_usize(next(&mut it)?)?, p_usize(next(&mut it)?)?))
            };
            e.kv.shared.push((
                p_u64(f.str("group")?)?,
                SharedChainSnapshot {
                    k_core: p_usize(f.str("k_core")?)?,
                    v_core: p_usize(f.str("v_core")?)?,
                    nodes: split(f.str("nodes")?, ';')
                        .map(|node| {
                            let mut it = node.split('!');
                            let refs = p_usize(next(&mut it)?)?;
                            let k = p_slot(next(&mut it)?)?;
                            let v = p_slot(next(&mut it)?)?;
                            Ok((refs, k, v))
                        })
                        .collect::<Result<_, String>>()?,
                },
            ));
        }
        "kv_seq_shared" => {
            e.kv.seq_shared = split(f.str("entries")?, ';')
                .map(|item| {
                    let mut it = item.split(':');
                    Ok((p_u64(next(&mut it)?)?, p_u64(next(&mut it)?)?, p_usize(next(&mut it)?)?))
                })
                .collect::<Result<_, String>>()?;
        }
        _ => unreachable!("dispatched above"),
    }
    Ok(())
}

// --- tiny strict parser helpers -------------------------------------------

fn split(s: &str, sep: char) -> impl Iterator<Item = &str> {
    s.split(sep).filter(|p| !p.is_empty())
}

/// The `|`-separated parts of a fixed-width value, exactly `N` of them.
fn parts<'s, const N: usize>(s: &'s str, what: &str) -> Result<[&'s str; N], String> {
    let parts: Vec<&str> = s.split('|').collect();
    parts.try_into().map_err(|v: Vec<&str>| format!("{what} has {} fields, expected {N}", v.len()))
}

fn pair(s: &str, sep: char) -> Result<(&str, &str), String> {
    s.split_once(sep).ok_or_else(|| format!("expected {sep:?}-separated pair, got {s:?}"))
}

fn next<'a>(it: &mut impl Iterator<Item = &'a str>) -> Result<&'a str, String> {
    it.next().ok_or_else(|| "truncated tuple in snapshot row".to_string())
}

fn p_u64(s: &str) -> Result<u64, String> {
    s.parse().map_err(|e| format!("bad u64 {s:?}: {e}"))
}

fn p_u8(s: &str) -> Result<u8, String> {
    s.parse().map_err(|e| format!("bad u8 {s:?}: {e}"))
}

fn p_usize(s: &str) -> Result<usize, String> {
    s.parse().map_err(|e| format!("bad usize {s:?}: {e}"))
}

fn p_hex_u64(s: &str) -> Result<u64, String> {
    u64::from_str_radix(s, 16).map_err(|e| format!("bad hex u64 {s:?}: {e}"))
}

fn p_f64(s: &str) -> Result<f64, String> {
    Ok(f64::from_bits(p_hex_u64(s)?))
}

fn p_bool(s: &str) -> Result<bool, String> {
    match s {
        "0" => Ok(false),
        "1" => Ok(true),
        other => Err(format!("bad bool {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{placements, routers};
    use ouro_workload::SessionConfig;

    /// What `write` appends to an empty document.
    fn written(write: impl FnOnce(&mut Doc) -> &mut Doc) -> String {
        let mut d = Doc::new(0);
        write(&mut d);
        d.out.split_off(2)
    }

    #[test]
    fn float_hex_round_trips_every_bit_pattern_class() {
        for v in [0.0, -0.0, 1.5, f64::INFINITY, f64::NEG_INFINITY, f64::MIN_POSITIVE, 1e-300] {
            assert_eq!(p_f64(&written(|d| d.f(v))).unwrap().to_bits(), v.to_bits());
        }
        assert!(p_f64(&written(|d| d.f(f64::NAN))).unwrap().is_nan());
        assert_eq!(written(|d| d.f(1.0)), format!("{:016x}", 1f64.to_bits()));
    }

    #[test]
    fn integers_are_written_in_decimal() {
        for v in [0, 7, 10, 99, 1_000_000, u64::MAX] {
            assert_eq!(written(|d| d.n(v)), v.to_string());
        }
    }

    #[test]
    fn config_hash_distinguishes_scenarios() {
        let trace = SessionConfig::chat(3, 0.4).generate(32, 53);
        let timed = ArrivalConfig::Bursty { rate_rps: 350.0, cv: 4.0 }.assign(&trace, 53);
        let shared = timed.arrivals.iter().position(|a| a.request.shared_prefix.is_some()).unwrap();
        let base =
            Scenario::disaggregated(1, 1).faults(FaultConfig::new(0.06, 53)).horizon(0.5).workload(timed);
        let hash = config_hash(&base);
        assert_eq!(config_hash(&base.clone()), hash, "a clone keeps the hash");
        assert_ne!(config_hash(&Scenario::colocated(2)), config_hash(&Scenario::colocated(3)));
        let changes = |what: &str, change: &dyn Fn(&mut Scenario)| {
            let mut s = base.clone();
            change(&mut s);
            assert_ne!(config_hash(&s), hash, "{what} must change the config hash");
        };
        fn arrivals(s: &mut Scenario) -> &mut Vec<TimedRequest> {
            &mut s.workload.as_mut().unwrap().arrivals
        }
        changes("an arrival 1 ulp later", &|s| {
            let a = &mut arrivals(s)[5].arrival_s;
            *a = f64::from_bits(a.to_bits() + 1);
        });
        changes("a decode length", &|s| arrivals(s)[9].request.decode_len += 1);
        changes("a shared-prefix group", &|s| {
            arrivals(s)[shared].request.shared_prefix.as_mut().unwrap().group += 1;
        });
        changes("the router", &|s| s.router = routers::round_robin());
        changes("the placement", &|s| s.placement = placements::most_free_blocks());
        changes("the prefill chunk", &|s| s.engine.prefill_chunk += 1);
        changes("the fault seed", &|s| s.fault.as_mut().unwrap().seed += 1);
        changes("the horizon", &|s| s.horizon_s = f64::from_bits(s.horizon_s.to_bits() + 1));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(Snapshot::parse("").is_err());
        assert!(Snapshot::parse("[]").is_err(), "a meta row is required");
        assert!(Snapshot::parse("[{\"section\":\"warp\"}]").is_err());
        assert!(Snapshot::parse("[{\"section\":\"meta\"}]").is_err(), "meta fields are required");
        let v1 = Snapshot::parse("[{\"section\":\"meta\",\"schema_version\":\"1\"}]").unwrap_err();
        assert!(v1.contains("schema v1"), "a v1 document is rejected at its version: {v1}");
    }
}
