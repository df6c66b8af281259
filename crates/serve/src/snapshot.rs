//! Checkpoint/resume for in-flight scenario runs.
//!
//! `capture` folds a [`RunState`]'s complete simulator state — the arrival
//! cursor, every engine's records/pending queue/active set/KV manager, the
//! policy state, the running migration totals and the fault injector —
//! into a typed [`Snapshot`]. `rebuild` inverts it against the same
//! [`Scenario`] and hardware system, producing a [`RunState`] that
//! continues the identical simulation: the golden identity test drives one
//! run to the end and another to the midpoint, snapshots, resumes, and
//! asserts byte-identical [`crate::RunReport`]s.
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
//! each led by its `"section"` key and, on per-wafer rows, its `"wafer"`.
//! The eleven sections are declared once, in document order, in one
//! `rows!` block: each as the ordered list of its `(key, field, value
//! codec)`. One walk of that list writes a row and one walk reads it, in
//! the keys' pinned order. A codec is one value encoding with a writer and
//! a strict reader that accepts exactly what the writer emits: decimal
//! integers (no sign, no leading zero), 16 lower-case hex digits for bit
//! patterns and for floats (by their IEEE-754 bits, so every float
//! round-trips, NaN payloads included), `0`/`1` flags, `sep`-joined
//! lists, fixed-width tuples and `-`-or-value options. The writer appends
//! every value straight into one output `String`, sized up front.
//!
//! [`Snapshot::parse`] is the strict inverse: it reads the rows in the
//! order `to_json` writes them, so a document it accepts writes back to
//! itself, whitespace aside. It reads through the workspace's one
//! flat-row reader ([`ouro_trace::json::RowReader`]), one row ahead, into
//! one reused field buffer; values borrow from the text, so parsing
//! allocates neither per field nor per row. Rows carry state only, each
//! fact once: what the rest implies is derived again on resume (the queue
//! counters, `prefill_only` from the wafer's pool, and, in
//! [`KvManager::restore`], block lists, token counts, refcounts and
//! frees). The schema is versioned by
//! [`SNAPSHOT_SCHEMA_VERSION`] and guarded by a canonical config hash, so
//! foreign state cannot be resumed silently.
//!
//! Every rejection, by `parse` or by [`Scenario::resume`], is one
//! [`SnapshotError`]: its [`SnapshotErrorKind`] and where it was found.
//! Neither panics on any input, which clippy enforces in this module.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use crate::engine::{EngineStats, MAX_BATCH, PREFILL_CHUNK};
use crate::fault::{fault_window_s, FaultConfig, FaultInjector, FaultInjectorSnapshot, WaferFaultSnapshot};
use crate::metrics::{RequestRecord, SloConfig};
use crate::scenario::{Deployment, DisaggConfig, RunState, Scenario};
use crate::stage::migrate::MigrationTotals;
use crate::stage::{ActiveSeq, InFlight, PendingReq};
use ouro_kvcache::{
    CrossbarSnapshot, KvManager, KvManagerSnapshot, KvRestoreError, KvTransferStats, SnapshotChain,
    SnapshotSeq,
};
use ouro_sim::OuroborosSystem;
use ouro_trace::json::{fnv1a_extend, JsonError, RowReader, Value, FNV1A_OFFSET};
use ouro_trace::TelemetryConfig;
use ouro_workload::{ArrivalConfig, Request, SharedPrefix, TimedRequest, TimedTrace};
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::marker::PhantomData;

/// Version stamp of the serialized snapshot schema. Bumped on any change
/// to the row layout; [`Snapshot::parse`] rejects any other.
pub const SNAPSHOT_SCHEMA_VERSION: u32 = 7;

/// A complete mid-run checkpoint of one scenario run, captured by
/// [`Scenario::checkpoint`] and resumed by [`Scenario::resume`]. Serialize
/// with [`Snapshot::to_json`]; parse back with [`Snapshot::parse`].
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Always [`SNAPSHOT_SCHEMA_VERSION`]: `parse` reads no other.
    pub(crate) schema_version: u32,
    /// FNV-1a over a canonical encoding of the scenario's config
    /// ([`config_hash`]): resuming under a differently-configured scenario
    /// is a hard error, not silent drift.
    pub(crate) config_hash: u64,
    pub(crate) router_state: u64,
    pub(crate) placement_state: u64,
    /// The arrival cursor: trace arrivals routed so far. The rest of the
    /// trace is still to come, in trace order.
    pub(crate) routed: usize,
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
    /// The engine's submission counter, its next KV sequence id.
    pub(crate) submitted: u64,
    /// The records of the requests the engine finished.
    pub(crate) records: Vec<RequestRecord>,
    /// The pending queue's entries `(ready_s, event)` in queue order
    /// ([`crate::stage::PendingQueue::entries`]); restored by `push_back` in
    /// order, which preserves relative ranks. In a parsed snapshot each
    /// in-flight entry knows only its request's trace index, and resume
    /// reads the rest of the request and its arrival from the trace.
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
        router_state: d.router.checkpoint_state(),
        placement_state: d.placement.checkpoint_state(),
        routed: d.routed,
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
                    submitted: e.submitted,
                    records: e.records.clone(),
                    pending: e.pending.entries().copied().collect(),
                    active,
                    kv,
                }
            })
            .collect(),
        injector: d.injector.as_ref().map(FaultInjector::snapshot),
    }
}

/// Rebuilds a [`RunState`] from `snap` against replicas of `system`,
/// continuing the identical simulation.
///
/// # Errors
///
/// Returns the [`SnapshotError`] of the first state that does not fit: a
/// config hash or wafer count that differs from the scenario's, an arrival
/// cursor past the workload, fault state its fault config does not match,
/// a pending or active row whose trace index is past the trace or whose
/// sequence id is at or past its engine's submission counter, a local
/// pending row carrying wire tokens, a pending row whose wire tokens
/// exceed its request's prompt, pending rows whose token sum overflows a
/// `usize`, KV rows that do not fit the system or state no live manager
/// holds (a [`SnapshotErrorKind::Kv`] from [`KvManager::restore`], which
/// lists them), fault state that does not fit the deployment, an active
/// row that is not resident, whose prompt plus decoded tokens differ from
/// the tokens its resident KV holds or that repeats a sequence, a resident
/// sequence with no active row, or
/// an arrival cursor that breaks the conservation identity: every routed
/// arrival is finished (a record), queued, resident or dropped, on exactly
/// one engine. Every check runs before the [`RunState`] is returned.
///
/// # Panics
///
/// Panics only when the scenario has no workload, as
/// [`Scenario::start`] does.
pub(crate) fn rebuild(
    scenario: &Scenario,
    system: &OuroborosSystem,
    snap: &Snapshot,
) -> Result<RunState, SnapshotError> {
    use SnapshotErrorKind as K;
    let reject = SnapshotError::resume;
    ensure(snap.config_hash == config_hash(scenario), reject(None, Meta::NAME, K::ConfigHash))?;
    let timed = scenario.timed();
    let total = scenario.total_wafers();
    ensure(snap.engines.len() == total, reject(None, Engine::NAME, K::WaferCount))?;
    ensure(snap.routed <= timed.len(), reject(None, Meta::NAME, K::IndexOutOfRange))?;
    let window_s = fault_window_s(timed);
    let injector = match (scenario.fault, &snap.injector) {
        (Some(cfg), Some(is)) => Some(FaultInjector::restore(system, total, cfg, window_s, is)?),
        (None, None) => None,
        _ => return Err(reject(None, Injector::NAME, K::FaultState)),
    };

    let mut engines = Vec::with_capacity(total);
    // The requests the engines hold, summed wide so no count overflows.
    let mut held = 0u128;
    for (wafer, es) in snap.engines.iter().enumerate() {
        let reject = |section, kind| reject(Some(wafer), section, kind);
        // The pool fixes which requests are served prefill-only.
        let prefill_only = wafer < scenario.prefill_wafers();
        let manager = KvManager::restore(system.serve_kv_config(), &es.kv)
            .map_err(|k| SnapshotError { wafer: Some(wafer), ..k.into() })?;
        let mut e = scenario.wafer_engine(system, wafer, manager);
        e.set_mean_hops(es.mean_hops);
        e.records = es.records.clone();
        e.submitted = es.submitted;
        held +=
            (es.records.len() + es.pending.len() + es.active.len()) as u128 + u128::from(es.stats.dropped);
        // A row names its request by trace index; the request and its
        // arrival are the trace's.
        let in_flight = |req: InFlight, section| -> Result<InFlight, SnapshotError> {
            let id = req.request.id;
            let arrival = timed.arrivals.get(id).ok_or(reject(section, K::IndexOutOfRange))?;
            ensure(req.seq < es.submitted, reject(section, K::IndexOutOfRange))?;
            Ok(InFlight { request: Request { id, ..arrival.request }, arrival_s: arrival.arrival_s, ..req })
        };
        // The queue's token counter is a running sum over the pending
        // rows, kept the way `submit_with` and an eviction add it: prompt
        // plus decoded tokens per row, summed wide so no row can overflow
        // it unnoticed. An import ships at most its prompt, as
        // `submit_with` asserts, so this sum also bounds the wire-token sum
        // `pending_imported_tokens` reads.
        let mut tokens = 0u128;
        for &(ready_s, p) in &es.pending {
            let req = in_flight(p.req, Pending::NAME)?;
            ensure(p.imported || p.wire_tokens == 0, reject(Pending::NAME, K::LocalWireTokens))?;
            ensure(p.wire_tokens <= req.request.prompt_len, reject(Pending::NAME, K::WireTokensPastPrompt))?;
            tokens += req.request.prompt_len as u128 + p.decoded as u128;
            e.pending.push_back(ready_s, PendingReq { req, prefill_only, ..p });
        }
        e.pending_tokens = usize::try_from(tokens).map_err(|_| reject(Pending::NAME, K::CounterOverflow))?;
        // `push_active` stamps each row's `since` with the restored step
        // count, so the stats come first.
        e.stats = es.stats;
        let mut listed = BTreeSet::new();
        for a in &es.active {
            let req = in_flight(a.req, Active::NAME)?;
            let seq = req.seq;
            let slot = e.manager.slot_of(seq).ok_or(reject(Active::NAME, K::NotResident))?;
            let progress = req.request.prompt_len.checked_add(a.decoded);
            ensure(e.manager.sequence_tokens(seq) == progress, reject(Active::NAME, K::ProgressMismatch))?;
            ensure(listed.insert(seq), reject(Active::NAME, K::DuplicateActive))?;
            e.push_active(ActiveSeq { req, kv_slot: slot, prefill_only, ..*a });
        }
        // Every active row is resident and names its own sequence, so
        // equal counts make every resident sequence active.
        ensure(e.manager.resident_sequences() == es.active.len(), reject(KvSeqs::NAME, K::Unserved))?;
        e.admission_suspended = es.admission_suspended;
        e.clock_s = es.clock_s;
        e.busy_s = es.busy_s;
        engines.push(e);
    }

    // The conservation identity: each routed arrival is finished, queued,
    // resident or dropped, on exactly one engine.
    ensure(held == snap.routed as u128, reject(None, Meta::NAME, K::RoutedMismatch))?;
    let mut run = RunState::new(scenario, system, engines, injector);
    let d = &mut run.driver;
    d.routed = snap.routed;
    d.router.restore_state(snap.router_state);
    d.placement.restore_state(snap.placement_state);
    d.migrations = snap.migrations;
    // A record is a finished request, so the records count the driver's
    // completions.
    d.completed = snap.engines.iter().map(|es| es.records.len() as u64).sum();
    Ok(run)
}

/// FNV-1a over a canonical encoding of every config field (deployment,
/// workload arrivals and seeds, policies, prefix caching, SLO, faults,
/// observability toggles): integers as fixed-width little-endian
/// words, floats by their bit pattern, enum variants and `Option`s by a
/// fixed tag, and policies by name. Every struct is destructured in full,
/// so a new config field does not compile until it is hashed here.
pub(crate) fn config_hash(scenario: &Scenario) -> u64 {
    let Scenario { deployment, workload, router, placement, prefix_caching, slo, fault, trace, telemetry } =
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
        Some(timed) => {
            let TimedTrace { arrivals, config, seed } = &**timed;
            match *config {
                ArrivalConfig::Poisson { rate_rps } => h.tag(1).tag(0).float(rate_rps),
                ArrivalConfig::Bursty { rate_rps, cv } => h.tag(1).tag(1).float(rate_rps).float(cv),
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
    let SloConfig { ttft_s, tpot_s } = *slo;
    // The engine's batch and chunk constants are hashed too: the hash has
    // covered them since they were settable, and a snapshot written under
    // other values must not resume.
    h.int(MAX_BATCH).int(PREFILL_CHUNK).flag(*prefix_caching).float(ttft_s).float(tpot_s);
    // Where the run horizon was: every run now serves its whole trace,
    // which is what the open horizon meant, so no scenario's hash moved.
    h.float(f64::INFINITY);
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
trait Uint: Copy + TryFrom<u64> {
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

uint!(u32, u64, usize);

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
// Errors: one type for every rejection, by `parse` or by `resume`.
// ---------------------------------------------------------------------------

/// Why a snapshot was rejected, and where: the document row of a
/// [`Snapshot::parse`] rejection, the wafer of a [`Scenario::resume`] one,
/// and the section and key wherever they apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotError {
    /// Index of the offending document row; the `meta` row is row 0.
    pub row: Option<usize>,
    /// The wafer whose state does not fit.
    pub wafer: Option<usize>,
    /// The section (`"meta"`, `"kv_cores"`, …) of the offending row or
    /// state.
    pub section: Option<&'static str>,
    /// The offending key.
    pub key: Option<&'static str>,
    /// What is wrong.
    pub kind: SnapshotErrorKind,
}

/// What a [`SnapshotError`] found wrong. The first eight are
/// [`Snapshot::parse`]'s, the rest [`Scenario::resume`]'s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotErrorKind {
    /// The text is not a JSON array of flat objects.
    Json(JsonError),
    /// The meta row's schema version is not [`SNAPSHOT_SCHEMA_VERSION`].
    SchemaVersion,
    /// A row lacks the key its layout has next, or its value is not a
    /// plain string.
    MissingKey,
    /// A row has a field past its layout's last key.
    ExtraKey,
    /// A value is not in the canonical form of its key's encoding.
    BadValue,
    /// A row stands where the writer puts none: its section is unknown or
    /// out of order, or its wafer or core index is not the next one.
    OutOfOrder,
    /// The document ends where the writer puts another row.
    Incomplete,
    /// The snapshot was captured by a differently-configured scenario.
    ConfigHash,
    /// The snapshot has engine or fault state for a different number of
    /// wafers than the deployment.
    WaferCount,
    /// The snapshot has fault state exactly when the scenario has no fault
    /// config.
    FaultState,
    /// An index past the workload, a sequence id at or past its engine's
    /// submission counter, or a wafer's fired-fault count past the faults
    /// its window holds.
    IndexOutOfRange,
    /// The arrival cursor differs from the requests the engines hold:
    /// their records, pending and active rows and drops, where each
    /// routed arrival is exactly one of them.
    RoutedMismatch,
    /// A local pending row carries wire tokens.
    LocalWireTokens,
    /// An imported pending row carries more wire tokens than its
    /// request's prompt.
    WireTokensPastPrompt,
    /// An engine's pending rows' token sum overflows a `usize`.
    CounterOverflow,
    /// An active row's sequence is not resident.
    NotResident,
    /// An active row's prompt plus decoded tokens differ from its resident
    /// KV.
    ProgressMismatch,
    /// Two active rows name one sequence.
    DuplicateActive,
    /// A resident sequence has no active row.
    Unserved,
    /// The KV rows do not fit the system.
    Kv(KvRestoreError),
}

impl SnapshotError {
    /// A rejection of snapshot state by `resume`.
    pub(crate) fn resume(wafer: Option<usize>, section: &'static str, kind: SnapshotErrorKind) -> Self {
        SnapshotError { row: None, wafer, section: Some(section), key: None, kind }
    }

    /// A rejection of document row `row` by `parse`.
    fn in_row(row: usize, kind: SnapshotErrorKind) -> SnapshotError {
        SnapshotError { row: Some(row), wafer: None, section: None, key: None, kind }
    }
}

impl From<KvRestoreError> for SnapshotError {
    fn from(e: KvRestoreError) -> SnapshotError {
        use KvRestoreError::*;
        let section = match e {
            Allocations => Kv::NAME,
            CoreCount | CrossbarCount | BlockCount | Overfull => KvCores::NAME,
            UnknownSequence | NotOwned | FillMismatch | Sharer => KvSeqs::NAME,
            ChainCore | ChainNotOwned | Unchained | Unreferenced => KvShared::NAME,
        };
        SnapshotError::resume(None, section, SnapshotErrorKind::Kv(e))
    }
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "snapshot rejected: {self:?}")
    }
}

impl std::error::Error for SnapshotError {}

impl From<SnapshotError> for String {
    fn from(e: SnapshotError) -> String {
        e.to_string()
    }
}

/// `Ok` when `ok`, else `err`.
fn ensure(ok: bool, err: SnapshotError) -> Result<(), SnapshotError> {
    ok.then_some(()).ok_or(err)
}

// ---------------------------------------------------------------------------
// Value codecs: each encoding once, with a writer and a strict reader.
// ---------------------------------------------------------------------------

/// One value encoding: a writer and a strict reader that accepts exactly
/// what the writer emits, so a value that reads writes back to its text.
trait Codec {
    type T;
    /// What a value that does not read is.
    const BAD: SnapshotErrorKind = SnapshotErrorKind::BadValue;
    fn put(&self, out: &mut String, v: &Self::T);
    fn take(&self, s: &str) -> Option<Self::T>;
}

/// Appends `ascii`, which holds digits and hex digits only.
#[expect(clippy::expect_used, reason = "digits and hex digits are ASCII, so always UTF-8")]
fn push_ascii(out: &mut String, ascii: &[u8]) {
    out.push_str(std::str::from_utf8(ascii).expect("ASCII digits"));
}

/// An unsigned integer in decimal: digits only, no sign, no leading zero.
struct Dec<T>(PhantomData<T>);
const U32: Dec<u32> = Dec(PhantomData);
const U64: Dec<u64> = Dec(PhantomData);
const USIZE: Dec<usize> = Dec(PhantomData);

impl<T: Uint> Codec for Dec<T> {
    type T = T;

    fn put(&self, out: &mut String, v: &T) {
        let (mut v, mut digits, mut at) = (v.wide(), [0u8; 20], 20);
        while at == 20 || v > 0 {
            at -= 1;
            digits[at] = b'0' + (v % 10) as u8;
            v /= 10;
        }
        push_ascii(out, &digits[at..]);
    }

    fn take(&self, s: &str) -> Option<T> {
        let signed_or_padded = s.starts_with('+') || s.len() > 1 && s.starts_with('0');
        (!signed_or_padded).then(|| s.parse().ok().and_then(|v: u64| T::try_from(v).ok())).flatten()
    }
}

/// A `u64` bit pattern as exactly 16 lower-case hex digits.
struct Bits;

impl Codec for Bits {
    type T = u64;

    fn put(&self, out: &mut String, &bits: &u64) {
        let digits: [u8; 16] =
            std::array::from_fn(|i| b"0123456789abcdef"[(bits >> (60 - 4 * i)) as usize & 0xf]);
        push_ascii(out, &digits);
    }

    fn take(&self, s: &str) -> Option<u64> {
        let canonical = s.len() == 16 && !s.starts_with('+') && !s.bytes().any(|b| b.is_ascii_uppercase());
        canonical.then(|| u64::from_str_radix(s, 16).ok()).flatten()
    }
}

/// An `f64` by its IEEE-754 bit pattern in [`Bits`], so every value
/// round-trips, NaN payloads included.
struct Float;

impl Codec for Float {
    type T = f64;

    fn put(&self, out: &mut String, v: &f64) {
        Bits.put(out, &v.to_bits());
    }

    fn take(&self, s: &str) -> Option<f64> {
        Bits.take(s).map(f64::from_bits)
    }
}

/// One of a fixed set of words, each standing for a value: `0`/`1` flags
/// and the `k`/`v` side of a KV core row.
struct Words<T: 'static>(&'static [(&'static str, T)]);
const FLAG: Words<bool> = Words(&[("0", false), ("1", true)]);
const SIDE: Words<bool> = Words(&[("k", false), ("v", true)]);

impl<T: Copy + PartialEq> Codec for Words<T> {
    type T = T;

    fn put(&self, out: &mut String, v: &T) {
        out.push_str(self.0.iter().find(|(_, w)| w == v).map_or("", |(word, _)| word));
    }

    fn take(&self, s: &str) -> Option<T> {
        self.0.iter().find(|(word, _)| *word == s).map(|&(_, v)| v)
    }
}

/// The schema version, in decimal; only [`SNAPSHOT_SCHEMA_VERSION`] reads.
struct Version;

impl Codec for Version {
    type T = u32;
    const BAD: SnapshotErrorKind = SnapshotErrorKind::SchemaVersion;

    fn put(&self, out: &mut String, v: &u32) {
        U32.put(out, v);
    }

    fn take(&self, s: &str) -> Option<u32> {
        U32.take(s).filter(|&v| v == SNAPSHOT_SCHEMA_VERSION)
    }
}

/// A `sep`-joined list; the empty list is the empty string.
struct List<C>(char, C);

impl<C: Codec> Codec for List<C> {
    type T = Vec<C::T>;

    fn put(&self, out: &mut String, v: &Vec<C::T>) {
        for (i, item) in v.iter().enumerate() {
            if i > 0 {
                out.push(self.0);
            }
            self.1.put(out, item);
        }
    }

    fn take(&self, s: &str) -> Option<Vec<C::T>> {
        if s.is_empty() {
            return Some(Vec::new());
        }
        s.split(self.0).map(|item| self.1.take(item)).collect()
    }
}

/// A fixed-width `sep`-joined array.
struct Arr<C, const N: usize>(List<C>);

impl<C: Codec<T: Clone>, const N: usize> Codec for Arr<C, N> {
    type T = [C::T; N];

    fn put(&self, out: &mut String, v: &[C::T; N]) {
        self.0.put(out, &v.to_vec());
    }

    fn take(&self, s: &str) -> Option<[C::T; N]> {
        self.0.take(s)?.try_into().ok()
    }
}

/// `-` for `None`, else the value (whose codec never writes `-`).
struct Opt<C>(C);

impl<C: Codec> Codec for Opt<C> {
    type T = Option<C::T>;

    fn put(&self, out: &mut String, v: &Option<C::T>) {
        match v {
            None => out.push('-'),
            Some(v) => self.0.put(out, v),
        }
    }

    fn take(&self, s: &str) -> Option<Option<C::T>> {
        match s {
            "-" => Some(None),
            _ => self.0.take(s).map(Some),
        }
    }
}

/// A fixed-width `sep`-joined tuple, each element in its own codec. The
/// last element reads the rest of the text, so its codec must never accept
/// `sep`; none does here: each last element is a number, or a list joined
/// by another separator.
struct Tup<C>(char, C);

macro_rules! tuple_codec {
    ($($c:ident . $i:tt),+) => {
        impl<$($c: Codec),+> Codec for Tup<($($c,)+)> {
            type T = ($($c::T,)+);

            fn put(&self, out: &mut String, v: &Self::T) {
                let mut sep = None;
                $(out.extend(sep.replace(self.0)); self.1.$i.put(out, &v.$i);)+
            }

            fn take(&self, s: &str) -> Option<Self::T> {
                let mut parts = s.splitn([$($i),+].len(), self.0);
                Some(($(self.1.$i.take(parts.next()?)?,)+))
            }
        }
    };
}

tuple_codec!(A.0, B.1);
tuple_codec!(A.0, B.1, C.2);
tuple_codec!(A.0, B.1, C.2, D.3);

/// Declares each struct's codec once: a fixed-width `sep`-joined tuple of
/// its fields in the listed order, each in its codec, read as [`Tup`]
/// reads. The struct is destructured in full, so a new field does not
/// compile until it is listed.
macro_rules! struct_codecs {
    ($($(#[$doc:meta])* $name:ident: $ty:ident = $sep:literal [$($f:ident: $c:expr),+ $(,)?])*) => {$(
        $(#[$doc])*
        struct $name;

        impl Codec for $name {
            type T = $ty;

            fn put(&self, out: &mut String, v: &$ty) {
                let $ty { $($f),+ } = v;
                let mut sep = None;
                $(out.extend(sep.replace($sep)); $c.put(out, $f);)+
            }

            fn take(&self, s: &str) -> Option<$ty> {
                let mut parts = s.splitn([$(stringify!($f)),+].len(), $sep);
                $(let $f = $c.take(parts.next()?)?;)+
                Some($ty { $($f),+ })
            }
        }
    )*};
}

struct_codecs! {
    /// The running migration totals.
    Migrations: MigrationTotals = '|' [
        count: U64, wire_tokens: U64, deduped_tokens: U64,
        transit_s: Float, max_transit_s: Float, energy_j: Float,
    ]

    /// An engine's stats.
    Stats: EngineStats = '|' [
        admissions: U64, evictions: U64, recomputed_tokens: U64, prefilled_tokens: U64,
        cached_prefix_tokens: U64, prefix_hits: U64, dropped: U64, dropped_imported_tokens: U64,
        steps: U64, peak_resident: USIZE, faults: U64, fault_evicted_seqs: U64, fault_evicted_tokens: U64,
        stall_s: Float,
    ]

    /// A KV manager's export/import counters.
    Transfers: KvTransferStats = '|' [
        exported_sequences: U64, exported_tokens: U64, imported_sequences: U64, imported_tokens: U64,
    ]

    /// One crossbar's failure flag and block table (`-` for a free block,
    /// else `owner:used`).
    Crossbar: CrossbarSnapshot = '!' [failed: FLAG, blocks: List(',', Opt(Tup(':', (U64, USIZE))))]
}

/// A KV block slot `core.crossbar.block`.
const SLOT: Tup<(Dec<usize>, Dec<usize>, Dec<usize>)> = Tup('.', (USIZE, USIZE, USIZE));

// ---------------------------------------------------------------------------
// Rows: each section declared once, written and read by one walk.
// ---------------------------------------------------------------------------

/// The key every row leads with.
const SECTION_KEY: &str = "section";
/// The key that follows it on per-wafer rows.
const WAFER_KEY: &str = "wafer";
/// Keys that more than one section has.
const ID: &str = "id";
const SEQ: &str = "seq";
const FIRST_TOKEN: &str = "first_token_s";
const DECODED: &str = "decoded";
const ENTRIES: &str = "entries";

/// The reading half of a row declared by `row!`.
pub(crate) trait Row {
    /// The section's `"section"` value.
    const NAME: &'static str;
    type Value;
    /// Reads the row's fields after its section and wafer.
    fn take(rows: &mut Rows<'_>) -> Result<Self::Value, SnapshotError>;
}

/// Declares each section's row once, in document order: its name and the
/// ordered list of its fields, `"key" => binding: codec`. `{ shape }`
/// destructures the row's value for the writer and rebuilds it for the
/// reader; it names every struct field, so a new one does not compile
/// until it has a key here or is listed in `rest`: the fields other rows
/// carry, which the reader starts at their default. `Name: Type [..]` is
/// shorthand for the shape `Type { every binding }`. `Name::put` writes a
/// row; `Row::take` reads one.
macro_rules! rows {
    () => {};
    (
        $name:ident = $section:literal: $ty:ident $(rest { $($rest:ident),* })?
        [$($key:expr => $bind:ident: $codec:expr),* $(,)?] $($more:tt)*
    ) => {
        rows! {
            $name = $section: $ty => $ty { $ty { $($bind,)* $($($rest,)*)? } } $(rest { $($rest),* })?
            [$($key => $bind: $codec),*] $($more)*
        }
    };
    (
        $name:ident = $section:literal: $put:ty => $take:ty { $($shape:tt)* } $(rest { $($rest:ident),* })?
        [$($key:expr => $bind:ident: $codec:expr),* $(,)?] $($more:tt)*
    ) => {
        pub(crate) struct $name;

        impl $name {
            fn put(w: &mut Writer, wafer: Option<usize>, v: &$put) {
                w.row($name::NAME, wafer);
                let $($shape)* = v;
                $($(let _ = $rest;)*)?
                $(w.field($key, &$codec, $bind);)*
            }
        }

        impl Row for $name {
            const NAME: &'static str = $section;
            type Value = $take;

            fn take(rows: &mut Rows<'_>) -> Result<$take, SnapshotError> {
                $(let $bind = rows.field($key, &$codec)?;)*
                $($(let $rest = Default::default();)*)?
                Ok($($shape)*)
            }
        }

        rows! { $($more)* }
    };
}

rows! {
    Meta = "meta": Snapshot rest { engines, injector } [
        "schema_version" => schema_version: Version, "config_hash" => config_hash: Bits,
        "migrations" => migrations: Migrations,
        "router_state" => router_state: U64, "placement_state" => placement_state: U64,
        "routed" => routed: USIZE,
    ]

    Engine = "engine": EngineSnapshot rest { records, pending, active, kv } [
        "clock_s" => clock_s: Float, "busy_s" => busy_s: Float, "suspended" => admission_suspended: FLAG,
        "mean_hops" => mean_hops: Float, "stats" => stats: Stats, "submitted" => submitted: U64,
    ]

    Record = "record": RequestRecord [
        "arrival_s" => arrival_s: Float, FIRST_TOKEN => first_token_s: Float,
        "completed_s" => completed_s: Float, "decode" => decode_len: USIZE,
    ]

    // An in-flight row names its request by trace index; resume reads the
    // rest of the request, and its arrival, from the trace.
    Pending = "pending": (f64, PendingReq) => (f64, PendingReq) {
        (ready_s, PendingReq {
            req: InFlight {
                request: Request { id, prompt_len, decode_len, shared_prefix }, arrival_s, first_token_s, seq,
            },
            decoded, imported, wire_tokens, evicted, prefill_only,
        })
    } rest { prompt_len, decode_len, shared_prefix, arrival_s, prefill_only } [
        "ready_s" => ready_s: Float, ID => id: USIZE, SEQ => seq: U64, FIRST_TOKEN => first_token_s: Float,
        DECODED => decoded: USIZE, "imported" => imported: FLAG, "wire_tokens" => wire_tokens: USIZE,
        "evicted" => evicted: FLAG,
    ]

    // The derived fields are rebuilt from the restored state on resume.
    Active = "active": ActiveSeq => ActiveSeq {
        ActiveSeq {
            req: InFlight {
                request: Request { id, prompt_len, decode_len, shared_prefix }, arrival_s, first_token_s, seq,
            },
            prefill_remaining, decoded, admission_order, prefill_only, kv_slot, since,
        }
    } rest { prompt_len, decode_len, shared_prefix, arrival_s, prefill_only, kv_slot, since } [
        ID => id: USIZE, SEQ => seq: U64, FIRST_TOKEN => first_token_s: Float,
        "prefill_remaining" => prefill_remaining: USIZE, DECODED => decoded: USIZE,
        "admission_order" => admission_order: U64,
    ]

    Kv = "kv": KvManagerSnapshot => KvManagerSnapshot {
        KvManagerSnapshot {
            ring_next: [ring_k, ring_v], allocated_blocks, transfers, key_cores, value_cores, sequences, shared,
        }
    }
    rest { key_cores, value_cores, sequences, shared } [
        "ring_k" => ring_k: USIZE, "ring_v" => ring_v: USIZE,
        "allocated" => allocated_blocks: U64, "transfers" => transfers: Transfers,
    ]

    // Key-side cores first, each side's in order.
    KvCores = "kv_cores": (bool, usize, &Vec<CrossbarSnapshot>) => (bool, usize, Vec<CrossbarSnapshot>) {
        (value_side, core, xbs)
    } [
        "side" => value_side: SIDE, "core" => core: USIZE, "xbs" => xbs: List(';', Crossbar),
    ]

    // Each resident sequence as `seq:k_cursor:v_cursor:shared`, `shared`
    // being `group.nodes` or `-`.
    KvSeqs = "kv_seqs": Vec<SnapshotSeq> => Vec<SnapshotSeq> { entries } [
        ENTRIES => entries: List(';', Tup(':', (U64, SLOT, SLOT, Opt(Tup('.', (U64, USIZE)))))),
    ]

    // Each node as `k_slot!v_slot`.
    KvShared = "kv_shared": SnapshotChain => SnapshotChain { (group, nodes) } [
        "group" => group: U64, "nodes" => nodes: List(';', Tup('!', (SLOT, SLOT))),
    ]

    Injector = "injector": FaultInjectorSnapshot rest { wafers } [
        "counters" => counters: Arr::<_, 5>(List('|', U64)),
    ]

    InjectorWafer = "injector_wafer": WaferFaultSnapshot [
        "assignment" => assignment: List(';', U64), "kv_cores" => kv_cores: List(';', U64),
        "death_s" => death_s: Float, "fired" => fired: U64,
    ]
}

/// The document under construction: every row is appended in place to one
/// output `String`. Values are digits, hex digits and separator
/// characters, so nothing needs escaping on either side.
struct Writer(String);

impl Writer {
    /// Opens a row of `section`, on `wafer` for a per-wafer row, closing
    /// the one before it (the document opens with `[`).
    fn row(&mut self, section: &'static str, wafer: Option<usize>) {
        let open = if self.0.ends_with('[') { "\n{\"" } else { "},\n{\"" };
        self.0.extend([open, SECTION_KEY, "\":\"", section, "\""]);
        if let Some(wafer) = wafer {
            self.field(WAFER_KEY, &USIZE, &wafer);
        }
    }

    fn field<C: Codec>(&mut self, key: &str, codec: &C, v: &C::T) {
        self.0.extend([",\"", key, "\":\""]);
        codec.put(&mut self.0, v);
        self.0.push('"');
    }
}

/// A document's rows, read in the writer's order: the next row's section
/// is known before the row is read, and each row's fields are read in
/// their pinned order. Keys and values must be strings borrowed from the
/// text: the writer emits no escapes.
pub(crate) struct Rows<'a> {
    /// Holds the row being read, `field` of its fields read so far.
    reader: RowReader<'a>,
    field: usize,
    /// Index of the row being read, its section once it is known to be
    /// the expected one, and its section's name in the text (`None` at
    /// the end of the document).
    at: usize,
    section: Option<&'static str>,
    next: Option<&'a str>,
}

impl<'a> Rows<'a> {
    fn error(&self, key: Option<&'static str>, kind: SnapshotErrorKind) -> SnapshotError {
        SnapshotError { section: self.section, key, ..SnapshotError::in_row(self.at, kind) }
    }

    /// Loads the next row and reads its section.
    fn advance(&mut self) -> Result<(), SnapshotError> {
        (self.field, self.section) = (0, None);
        let row =
            self.reader.next_row().map_err(|e| SnapshotError::in_row(self.at, SnapshotErrorKind::Json(e)))?;
        self.next = if row.is_some() { Some(self.text(SECTION_KEY)?) } else { None };
        Ok(())
    }

    /// The text of the row's next field, which must be `key`.
    fn text(&mut self, key: &'static str) -> Result<&'a str, SnapshotError> {
        self.field += 1;
        match self.reader.row().fields.get(self.field - 1) {
            Some((Cow::Borrowed(k), Value::Str(Cow::Borrowed(v)))) if *k == key => Ok(v),
            _ => Err(self.error(Some(key), SnapshotErrorKind::MissingKey)),
        }
    }

    /// The value of the row's next field, which must be `key`, in `codec`.
    fn field<C: Codec>(&mut self, key: &'static str, codec: &C) -> Result<C::T, SnapshotError> {
        let text = self.text(key)?;
        codec.take(text).ok_or_else(|| self.error(Some(key), C::BAD))
    }

    /// Whether the next row is one of `R`.
    fn next_is<R: Row>(&self) -> bool {
        self.next == Some(R::NAME)
    }

    /// The next row, which must be one of `R`, on `wafer` for a per-wafer
    /// row.
    fn one<R: Row>(&mut self, wafer: Option<usize>) -> Result<R::Value, SnapshotError> {
        use SnapshotErrorKind::{Incomplete, OutOfOrder};
        ensure(
            self.next_is::<R>(),
            self.error(None, if self.next.is_some() { OutOfOrder } else { Incomplete }),
        )?;
        self.section = Some(R::NAME);
        if let Some(wafer) = wafer {
            let read = self.field(WAFER_KEY, &USIZE)?;
            ensure(read == wafer, self.error(Some(WAFER_KEY), OutOfOrder))?;
        }
        let v = R::take(self)?;
        ensure(self.field == self.reader.row().fields.len(), self.error(None, SnapshotErrorKind::ExtraKey))?;
        self.at += 1;
        self.advance()?;
        Ok(v)
    }

    /// The rows of `R` on `wafer` that come next, if any.
    fn many<R: Row>(&mut self, wafer: Option<usize>) -> Result<Vec<R::Value>, SnapshotError> {
        std::iter::from_fn(|| self.next_is::<R>().then(|| self.one::<R>(wafer))).collect()
    }
}

impl Snapshot {
    /// About how many bytes [`Snapshot::to_json`] writes, a little more
    /// than its rows take at their usual widths (16-digit floats, ids of
    /// up to five digits), so the document is allocated once.
    fn json_len(&self) -> usize {
        // The brackets and the meta row.
        let mut len = 256;
        for e in &self.engines {
            let kv = &e.kv;
            let cores = kv.key_cores.len() + kv.value_cores.len();
            let crossbars = kv.key_cores.iter().chain(&kv.value_cores).flatten();
            let (xbs, blocks, taken) = crossbars.fold((0, 0, 0), |(x, b, t), xb| {
                (x + 1, b + xb.blocks.len(), t + xb.blocks.iter().flatten().count())
            });
            let nodes: usize = kv.shared.iter().map(|(_, nodes)| nodes.len()).sum();
            // The engine and kv rows and the fixed part of the kv_seqs
            // row; then each request row.
            len += 480 + 150 * e.records.len() + 192 * e.pending.len() + 162 * e.active.len();
            // A core row lists its crossbars and their blocks, `-` when
            // free, `owner:used` when not; a sequence entry names its two
            // cursors, and each chain node its two slots and a block per
            // side under a 19-digit owner.
            len += 72 * cores + 3 * xbs + 2 * blocks + 10 * taken;
            len += 64 * kv.shared.len() + 40 * nodes + 32 * kv.sequences.len();
        }
        if let Some(inj) = &self.injector {
            let cores: usize = inj.wafers.iter().map(|w| w.assignment.len() + w.kv_cores.len()).sum();
            len += 64 + 128 * inj.wafers.len() + 4 * cores;
        }
        len
    }

    /// Serializes the snapshot (see the module doc for the format).
    pub fn to_json(&self) -> String {
        let mut w = Writer(String::with_capacity(self.json_len()));
        w.0.push('[');
        Meta::put(&mut w, None, self);
        for (wafer, e) in self.engines.iter().enumerate() {
            let at = Some(wafer);
            Engine::put(&mut w, at, e);
            e.records.iter().for_each(|r| Record::put(&mut w, at, r));
            e.pending.iter().for_each(|p| Pending::put(&mut w, at, p));
            e.active.iter().for_each(|a| Active::put(&mut w, at, a));
            let kv = &e.kv;
            Kv::put(&mut w, at, kv);
            for (value_side, cores) in [(false, &kv.key_cores), (true, &kv.value_cores)] {
                for (core, xbs) in cores.iter().enumerate() {
                    KvCores::put(&mut w, at, &(value_side, core, xbs));
                }
            }
            KvSeqs::put(&mut w, at, &kv.sequences);
            kv.shared.iter().for_each(|chain| KvShared::put(&mut w, at, chain));
        }
        if let Some(inj) = &self.injector {
            Injector::put(&mut w, None, inj);
            for (wafer, state) in inj.wafers.iter().enumerate() {
                InjectorWafer::put(&mut w, Some(wafer), state);
            }
        }
        w.0.push_str(if w.0.ends_with('[') { "\n\n]\n" } else { "}\n]\n" });
        w.0
    }

    /// Parses a [`Snapshot::to_json`] document, reading its rows in the
    /// order `to_json` writes them and each row's keys in their pinned
    /// order. A document that parses writes back to itself, whitespace
    /// aside.
    ///
    /// # Errors
    ///
    /// Returns the [`SnapshotError`] of the first row that is not valid
    /// JSON, names an unknown section, misses, misplaces or adds a key,
    /// holds a value not in its canonical form or a schema version other
    /// than [`SNAPSHOT_SCHEMA_VERSION`], or stands out of the writer's
    /// order, or of the end of a document cut short.
    pub fn parse(text: &str) -> Result<Snapshot, SnapshotError> {
        use SnapshotErrorKind::OutOfOrder;
        let reader =
            RowReader::new(text).map_err(|e| SnapshotError::in_row(0, SnapshotErrorKind::Json(e)))?;
        let mut rows = Rows { reader, field: 0, at: 0, section: None, next: None };
        rows.advance()?;
        let mut snap = rows.one::<Meta>(None)?;
        while rows.next_is::<Engine>() {
            let at = Some(snap.engines.len());
            let mut e = rows.one::<Engine>(at)?;
            e.records = rows.many::<Record>(at)?;
            e.pending = rows.many::<Pending>(at)?;
            e.active = rows.many::<Active>(at)?;
            e.kv = rows.one::<Kv>(at)?;
            while rows.next_is::<KvCores>() {
                let in_order = e.kv.value_cores.is_empty();
                let misplaced =
                    SnapshotError { section: Some(KvCores::NAME), ..rows.error(None, OutOfOrder) };
                let (value_side, core, xbs) = rows.one::<KvCores>(at)?;
                let side = if value_side { &mut e.kv.value_cores } else { &mut e.kv.key_cores };
                ensure((value_side || in_order) && core == side.len(), misplaced)?;
                side.push(xbs);
            }
            e.kv.sequences = rows.one::<KvSeqs>(at)?;
            e.kv.shared = rows.many::<KvShared>(at)?;
            snap.engines.push(e);
        }
        if rows.next_is::<Injector>() {
            let mut inj = rows.one::<Injector>(None)?;
            while rows.next_is::<InjectorWafer>() {
                inj.wafers.push(rows.one::<InjectorWafer>(Some(inj.wafers.len()))?);
            }
            snap.injector = Some(inj);
        }
        ensure(rows.next.is_none(), rows.error(None, OutOfOrder))?;
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{placements, routers};
    use ouro_trace::json::JsonErrorKind;
    use ouro_workload::SessionConfig;

    /// `v` as `codec` writes it.
    fn written<C: Codec>(codec: C, v: C::T) -> String {
        let mut out = String::new();
        codec.put(&mut out, &v);
        out
    }

    #[test]
    fn float_hex_round_trips_every_bit_pattern_class() {
        for v in [0.0, -0.0, 1.5, f64::INFINITY, f64::NEG_INFINITY, f64::MIN_POSITIVE, 1e-300] {
            assert_eq!(Float.take(&written(Float, v)).unwrap().to_bits(), v.to_bits());
        }
        assert!(Float.take(&written(Float, f64::NAN)).unwrap().is_nan());
        assert_eq!(written(Float, 1.0), format!("{:016x}", 1f64.to_bits()));
    }

    #[test]
    fn integers_are_written_in_decimal() {
        for v in [0, 7, 10, 99, 1_000_000, u64::MAX] {
            assert_eq!(written(U64, v), v.to_string());
            assert_eq!(U64.take(&v.to_string()), Some(v));
        }
    }

    #[test]
    fn value_readers_accept_exactly_what_the_writers_emit() {
        for bad in ["", "+1", "-1", "01", "00", " 1", "1 ", "1_0", "18446744073709551616"] {
            assert_eq!(U64.take(bad), None, "{bad:?}");
        }
        assert_eq!(U32.take("4294967295"), Some(u32::MAX));
        assert_eq!(U32.take("4294967296"), None, "past the field's width");
        assert_eq!(Bits.take("00000000000000ff"), Some(0xff));
        for bad in ["ff", "00000000000000FF", "+00000000000000f", "000000000000000ff", "000000000000000g"] {
            assert_eq!(Bits.take(bad), None, "{bad:?}");
        }
        assert_eq!(
            (FLAG.take("0"), FLAG.take("1"), FLAG.take("2"), FLAG.take("")),
            (Some(false), Some(true), None, None)
        );
        assert_eq!((SIDE.take("k"), SIDE.take("v"), SIDE.take("K")), (Some(false), Some(true), None));
        assert_eq!(Version.take("7"), Some(SNAPSHOT_SCHEMA_VERSION));
        assert_eq!(Version.take("6"), None);
        let list = List(';', USIZE);
        assert_eq!(
            (list.take(""), list.take("4"), list.take("1;2")),
            (Some(vec![]), Some(vec![4]), Some(vec![1, 2]))
        );
        for bad in [";", "1;", ";1", "1;;2"] {
            assert_eq!(list.take(bad), None, "{bad:?}");
        }
        let pair = Opt(Tup(':', (U64, USIZE)));
        assert_eq!((pair.take("-"), pair.take("1:2")), (Some(None), Some(Some((1, 2)))));
        for bad in ["", "--", "1", "1:", ":2", "1:2:3"] {
            assert_eq!(pair.take(bad), None, "{bad:?}");
        }
        let four = Arr::<_, 4>(List('|', U64));
        assert_eq!(four.take("1|2|3|4"), Some([1, 2, 3, 4]));
        assert_eq!((four.take("1|2|3"), four.take("1|2|3|4|5")), (None, None));
    }

    #[test]
    fn config_hash_distinguishes_scenarios() {
        let trace = SessionConfig::chat(3, 0.4).generate(32, 53);
        let timed = ArrivalConfig::Bursty { rate_rps: 350.0, cv: 4.0 }.assign(&trace, 53);
        let shared = timed.arrivals.iter().position(|a| a.request.shared_prefix.is_some()).unwrap();
        let base = Scenario::disaggregated(1, 1).faults(FaultConfig::new(0.06, 53)).workload(timed);
        let hash = config_hash(&base);
        assert_eq!(config_hash(&base.clone()), hash, "a clone keeps the hash");
        assert_ne!(config_hash(&Scenario::colocated(2)), config_hash(&Scenario::colocated(3)));
        let changes = |what: &str, change: &dyn Fn(&mut Scenario)| {
            let mut s = base.clone();
            change(&mut s);
            assert_ne!(config_hash(&s), hash, "{what} must change the config hash");
        };
        fn arrivals(s: &mut Scenario) -> &mut Vec<TimedRequest> {
            &mut std::sync::Arc::make_mut(s.workload.as_mut().unwrap()).arrivals
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
        changes("the placement", &|s| s.placement = placements::prefix_affinity());
        changes("prefix caching", &|s| s.prefix_caching = !s.prefix_caching);
        changes("the fault seed", &|s| s.fault.as_mut().unwrap().seed += 1);
    }

    #[test]
    fn to_json_allocates_its_document_once() {
        // The checkpoint tests' golden shapes at their midpoints, and the
        // saturated long-decode one at 0.25 s, whose queue holds evictions.
        use ouro_sim::model::zoo;
        use ouro_sim::OuroborosConfig;
        use ouro_workload::{LengthConfig, TraceGenerator};
        let sys = OuroborosSystem::new(OuroborosConfig::tiny_for_tests(), &zoo::bert_large()).unwrap();
        let slo = SloConfig { ttft_s: 0.5, tpot_s: 0.05 };
        let fixed = |seed, prompt, decode, n, rate_rps| {
            let trace = TraceGenerator::new(seed).generate(&LengthConfig::fixed(prompt, decode), n);
            ArrivalConfig::Poisson { rate_rps }.assign(&trace, seed)
        };
        let chat = SessionConfig::chat(4, 0.5).generate(40, 23);
        let chat = ArrivalConfig::Poisson { rate_rps: 400.0 }.assign(&chat, 23);
        let bursty = SessionConfig::chat(3, 0.4).generate(32, 53);
        let bursty = ArrivalConfig::Bursty { rate_rps: 350.0, cv: 4.0 }.assign(&bursty, 53);
        let saturated = fixed(71, 128, 2048, 64, 4000.0);
        let shapes = [
            Scenario::colocated(2).prefix_caching(false).workload(fixed(11, 96, 24, 36, 300.0)),
            Scenario::disaggregated(1, 2).workload(chat),
            Scenario::colocated(2).faults(FaultConfig::new(0.08, 37)).workload(fixed(37, 128, 16, 30, 300.0)),
            Scenario::disaggregated(1, 1).faults(FaultConfig::new(0.025, 53)).workload(bursty),
        ];
        let mut runs: Vec<(Scenario, f64)> = shapes
            .into_iter()
            .map(|s| {
                let mid_s = s.timed().last_arrival_s() * 0.5;
                (s.slo(slo), mid_s)
            })
            .collect();
        runs.push((Scenario::colocated(1).prefix_caching(false).workload(saturated), 0.25));
        for (i, (scenario, mid_s)) in runs.iter().enumerate() {
            let mut run = scenario.start(&sys).unwrap();
            run.run_until(*mid_s);
            let snap = scenario.checkpoint(&run);
            let (json, reserved) = (snap.to_json(), snap.json_len());
            assert_eq!(json.capacity(), reserved, "shape {i}: the document outgrew its estimate");
            assert!(
                4 * reserved <= 5 * json.len(),
                "shape {i}: {reserved} bytes reserved for {}",
                json.len()
            );
        }
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        use SnapshotErrorKind::*;
        let at = |row, section, key, kind| SnapshotError { row: Some(row), wafer: None, section, key, kind };
        let json = |offset, kind| Json(JsonError { offset, kind });
        for (text, err, why) in [
            ("", at(0, None, None, json(0, JsonErrorKind::Expected('['))), "not JSON"),
            ("[]", at(0, None, None, Incomplete), "a meta row is required"),
            ("[{\"section\":\"warp\"}]", at(0, None, None, OutOfOrder), "an unknown section"),
            (
                "[{\"section\":\"meta\"}]",
                at(0, Some("meta"), Some("schema_version"), MissingKey),
                "meta fields",
            ),
            (
                "[{\"section\":\"meta\",\"schema_version\":\"1\"}]",
                at(0, Some("meta"), Some("schema_version"), SchemaVersion),
                "a v1 document is rejected at its version",
            ),
            ("[{\"section\":\"engine\",\"wafer\":\"0\"}]", at(0, None, None, OutOfOrder), "meta comes first"),
        ] {
            assert_eq!(Snapshot::parse(text).unwrap_err(), err, "{why}");
        }
    }
}
