//! Checkpoint/resume for in-flight scenario runs.
//!
//! `capture` folds a [`RunState`]'s complete simulator state — the stage
//! queues, every engine's records/pending arena/active set/KV manager, the
//! policy and think-stream state, the migration log and the fault injector
//! — into a typed [`Snapshot`]. `rebuild` inverts it against the same
//! [`Scenario`] and hardware system, producing a [`RunState`] that
//! continues the identical simulation: the golden identity test drives one
//! run to the horizon and another to the midpoint, snapshots, resumes, and
//! asserts byte-identical [`crate::RunReport`]s.
//!
//! # What is (deliberately) not captured
//!
//! * The driver's **event calendar** — a pure cache over the engines,
//!   rebuilt by `refresh_engine` on resume.
//! * **Tracing, telemetry and the loop profile** — observational sinks
//!   that never feed back into the simulation; a resumed run restarts
//!   them empty.
//! * The KV manager's **core bitmaps** — write-only observability state
//!   (see [`ouro_kvcache::KvManagerSnapshot`]).
//!
//! # Serialized form
//!
//! [`Snapshot::to_json`] renders a dependency-free JSON document: an array
//! of flat objects whose values are all strings, one object per state row,
//! each tagged with a `"section"` key. Floats are serialized as the hex of
//! their IEEE-754 bit pattern (`f64::to_bits`), so round-tripping is exact
//! (including NaN payloads, which plain decimal JSON cannot carry — the
//! workspace's JSON writer renders non-finite floats as `null`).
//! [`Snapshot::parse`] is the strict inverse. It reads the document through
//! the workspace's shared flat-row reader ([`ouro_trace::json::read_rows`]),
//! which borrows every escape-free value from the text, so parsing does not
//! allocate per field. The schema is versioned by [`SNAPSHOT_SCHEMA_VERSION`]
//! and guarded by a config hash so foreign state cannot be resumed silently.

use crate::engine::{Engine, EngineStats};
use crate::fault::{FaultInjector, FaultInjectorSnapshot, WaferFaultSnapshot};
use crate::metrics::RequestRecord;
use crate::report::Migration;
use crate::scenario::{Deployment, Driver, RunState, Scenario};
use crate::stage::{ActiveSeq, ArrivalEvent, PendingReq, StageQueues};
use ouro_kvcache::{
    CrossbarSnapshot, KvError, KvManager, KvManagerSnapshot, KvTransferStats, SharedChainSnapshot,
};
use ouro_sim::OuroborosSystem;
use ouro_trace::json::{self, fnv1a, read_rows};
use ouro_trace::{LoopProfile, TelemetryRecorder, Tracer};
use ouro_workload::SharedPrefix;
use rand::rngs::StdRng;
use std::collections::BinaryHeap;

/// Version stamp of the serialized snapshot schema. Bumped on any change
/// to the row layout; [`Snapshot::parse`] and `rebuild` both reject
/// mismatches instead of guessing.
pub const SNAPSHOT_SCHEMA_VERSION: u32 = 1;

/// A complete mid-run checkpoint of one scenario run, captured by
/// [`Scenario::checkpoint`] and resumed by [`Scenario::resume`]. Serialize
/// with [`Snapshot::to_json`]; parse back with [`Snapshot::parse`].
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub(crate) schema_version: u32,
    /// FNV-1a over the scenario's `Debug` form: resuming under a
    /// differently-configured scenario is a hard error, not silent drift.
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
    pub(crate) migrations: Vec<Migration>,
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
    pub(crate) pending_tokens: usize,
    pub(crate) pending_wire_tokens: usize,
    /// Absolute mean hop distance (faults append penalties to it, so the
    /// config value cannot be assumed on resume).
    pub(crate) mean_hops: f64,
    pub(crate) order_counter: u64,
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
        migrations: d.migrations.clone(),
        engines: d
            .engines
            .iter()
            .map(|e| EngineSnapshot {
                clock_s: e.clock_s,
                busy_s: e.busy_s,
                admission_suspended: e.admission_suspended,
                pending_tokens: e.pending_tokens,
                pending_wire_tokens: e.pending_wire_tokens,
                mean_hops: e.times.mean_hops,
                order_counter: e.order_counter,
                stats: e.stats,
                records: e.records.clone(),
                pending: e.pending.entries(),
                active: e.active.clone(),
                kv: e.manager.snapshot(),
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
/// Propagates [`KvError`] from KV-manager reconstruction.
///
/// # Panics
///
/// Panics on a schema-version or config-hash mismatch, or when the
/// snapshot's fault state does not match the scenario's fault config.
pub(crate) fn rebuild(
    scenario: &Scenario,
    system: &OuroborosSystem,
    snap: &Snapshot,
) -> Result<RunState, KvError> {
    assert_eq!(
        snap.schema_version, SNAPSHOT_SCHEMA_VERSION,
        "snapshot schema v{} cannot be resumed by code expecting v{SNAPSHOT_SCHEMA_VERSION}",
        snap.schema_version
    );
    assert_eq!(
        snap.config_hash,
        config_hash(scenario),
        "snapshot was captured by a differently-configured scenario"
    );
    let timed = scenario.workload.as_ref().expect("Scenario needs a workload: call .workload(timed) first");
    let (prefill_wafers, total) = match scenario.deployment {
        Deployment::Colocated { wafers } => (0, wafers),
        Deployment::Disaggregated(cfg) => (cfg.prefill_wafers, cfg.total_wafers()),
    };
    assert_eq!(snap.engines.len(), total, "snapshot wafer count must match the deployment");

    let mut engines = Vec::with_capacity(total);
    for (wafer, es) in snap.engines.iter().enumerate() {
        let mut e = Engine::new(system.stage_times().clone(), system.serve_kv_config(), scenario.engine)?;
        e.manager = KvManager::restore(system.serve_kv_config(), &es.kv)?;
        e.times.mean_hops = es.mean_hops;
        e.records = es.records.clone();
        for &(ready_s, req) in &es.pending {
            e.pending.push_back(ready_s, req);
        }
        e.active = es.active.clone();
        e.admission_suspended = es.admission_suspended;
        e.clock_s = es.clock_s;
        e.busy_s = es.busy_s;
        e.pending_tokens = es.pending_tokens;
        e.pending_wire_tokens = es.pending_wire_tokens;
        e.stats = es.stats;
        e.order_counter = es.order_counter;
        if scenario.trace {
            e.set_tracer(Tracer::ring(wafer));
        }
        engines.push(e);
    }

    let mut router = scenario.router.clone();
    router.restore_state(snap.router_state);
    let mut placement = scenario.placement.clone();
    placement.restore_state(snap.placement_state);
    let mut driver = Driver {
        engines,
        prefill_wafers,
        disagg: matches!(scenario.deployment, Deployment::Disaggregated(_)),
        router,
        placement,
        link: system.stage_times().inter_wafer_link(),
        kv_bytes_per_token: system.kv_migration_bytes(1),
        migrations: snap.migrations.clone(),
        tracer: if scenario.trace { Tracer::ring(0) } else { Tracer::off() },
        telemetry: scenario.telemetry.map(TelemetryRecorder::new),
        profile: scenario.profile.then(LoopProfile::default),
        completed: snap.completed,
        faults_fired: snap.faults_fired,
        calendar: BinaryHeap::new(),
        engine_gen: vec![0; total],
    };
    for wafer in 0..total {
        driver.refresh_engine(wafer);
    }

    let queues = StageQueues {
        arrivals: snap.arrivals.iter().map(|&(at_s, index)| ArrivalEvent { at_s, index }).collect(),
        gated: snap.gated.iter().copied().collect(),
        think_time_s: match timed.config {
            ouro_workload::ArrivalConfig::ClosedLoop { think_time_s, .. } => think_time_s,
            _ => 0.0,
        },
        think_rng: StdRng::from_state(snap.think_rng),
    };
    let injector = match (scenario.fault, &snap.injector) {
        (Some(cfg), Some(is)) => Some(FaultInjector::restore(
            system,
            total,
            cfg,
            FaultInjector::run_window_s(scenario.horizon_s, timed),
            is,
        )),
        (None, None) => None,
        _ => panic!("snapshot fault state does not match the scenario's fault config"),
    };
    Ok(RunState { driver, queues, injector, scenario: scenario.clone(), horizon_s: scenario.horizon_s })
}

/// FNV-1a over the scenario's `Debug` form — cheap, dependency-free, and
/// sensitive to every config field (deployment, workload seeds, policies,
/// engine tuning, SLO, horizon, faults, observability toggles).
pub(crate) fn config_hash(scenario: &Scenario) -> u64 {
    fnv1a(format!("{scenario:?}").as_bytes())
}

// ---------------------------------------------------------------------------
// Serialization: flat-JSON rows, string values only, floats as bit-pattern
// hex. Written here (`JsonObject::num` cannot round-trip non-finite floats),
// read back by the shared `ouro_trace::json::read_rows`.
// ---------------------------------------------------------------------------

fn hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// One serialized row: `{"section":"…","k":"v",…}`. Values never contain
/// quotes or backslashes (they are built from digits and fixed separator
/// characters), so no escaping is needed on either side.
struct Row {
    out: String,
}

impl Row {
    fn new(section: &str) -> Row {
        Row { out: format!("{{\"section\":\"{section}\"") }
    }

    fn field(mut self, key: &str, value: impl AsRef<str>) -> Row {
        let value = value.as_ref();
        debug_assert!(
            !value.contains('"') && !value.contains('\\'),
            "snapshot values must not need escaping: {value:?}"
        );
        self.out.push_str(",\"");
        self.out.push_str(key);
        self.out.push_str("\":\"");
        self.out.push_str(value);
        self.out.push('"');
        self
    }

    fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

fn join<I: IntoIterator<Item = String>>(items: I, sep: char) -> String {
    let mut out = String::new();
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(sep);
        }
        out.push_str(&item);
    }
    out
}

fn slots(list: &[(usize, usize, usize)]) -> String {
    join(list.iter().map(|&(c, x, b)| format!("{c}.{x}.{b}")), ',')
}

impl Snapshot {
    /// Serializes the snapshot (see the module doc for the format).
    pub fn to_json(&self) -> String {
        let mut rows: Vec<String> = Vec::new();
        rows.push(
            Row::new("meta")
                .field("schema_version", self.schema_version.to_string())
                .field("config_hash", format!("{:016x}", self.config_hash))
                .field("completed", self.completed.to_string())
                .field("faults_fired", self.faults_fired.to_string())
                .field("router_state", self.router_state.to_string())
                .field("placement_state", self.placement_state.to_string())
                .field("think_rng", join(self.think_rng.iter().map(|w| format!("{w:016x}")), '|'))
                .field("arrivals", join(self.arrivals.iter().map(|&(t, i)| format!("{}:{i}", hex(t))), ';'))
                .field("gated", join(self.gated.iter().map(usize::to_string), ';'))
                .finish(),
        );
        for m in &self.migrations {
            rows.push(
                Row::new("migration")
                    .field("id", m.id.to_string())
                    .field("from", m.from_wafer.to_string())
                    .field("to", m.to_wafer.to_string())
                    .field("tokens", m.tokens.to_string())
                    .field("deduped", m.deduped_tokens.to_string())
                    .field("bytes", m.bytes.to_string())
                    .field("start_s", hex(m.start_s))
                    .field("arrive_s", hex(m.arrive_s))
                    .field("hops", m.wafer_hops.to_string())
                    .field("energy_j", hex(m.energy_j))
                    .finish(),
            );
        }
        for (wafer, e) in self.engines.iter().enumerate() {
            let s = &e.stats;
            rows.push(
                Row::new("engine")
                    .field("wafer", wafer.to_string())
                    .field("clock_s", hex(e.clock_s))
                    .field("busy_s", hex(e.busy_s))
                    .field("suspended", if e.admission_suspended { "1" } else { "0" })
                    .field("pending_tokens", e.pending_tokens.to_string())
                    .field("pending_wire_tokens", e.pending_wire_tokens.to_string())
                    .field("mean_hops", hex(e.mean_hops))
                    .field("order_counter", e.order_counter.to_string())
                    .field(
                        "stats",
                        format!(
                            "{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}",
                            s.admissions,
                            s.evictions,
                            s.recomputed_tokens,
                            s.prefilled_tokens,
                            s.cached_prefix_tokens,
                            s.prefix_hits,
                            s.dropped,
                            s.dropped_imported_tokens,
                            s.steps,
                            s.peak_resident,
                            s.faults,
                            s.fault_evicted_seqs,
                            s.fault_evicted_tokens,
                            hex(s.stall_s),
                        ),
                    )
                    .finish(),
            );
            for r in &e.records {
                rows.push(
                    Row::new("record")
                        .field("wafer", wafer.to_string())
                        .field("id", r.id.to_string())
                        .field("rwafer", r.wafer.to_string())
                        .field("prompt", r.prompt_len.to_string())
                        .field("decode", r.decode_len.to_string())
                        .field("arrival_s", hex(r.arrival_s))
                        .field("admitted_s", hex(r.admitted_s))
                        .field("queue_wait_s", hex(r.queue_wait_s))
                        .field("first_token_s", hex(r.first_token_s))
                        .field("completed_s", hex(r.completed_s))
                        .field("evictions", r.evictions.to_string())
                        .field("cached_prefix", r.cached_prefix_tokens.to_string())
                        .field(
                            "shared",
                            r.shared_prefix
                                .map_or_else(|| "-".to_string(), |p| format!("{}:{}", p.group, p.tokens)),
                        )
                        .finish(),
                );
            }
            for &(ready_s, p) in &e.pending {
                rows.push(
                    Row::new("pending")
                        .field("wafer", wafer.to_string())
                        .field("ready_s", hex(ready_s))
                        .field("rec", p.rec.to_string())
                        .field("decoded", p.decoded.to_string())
                        .field("imported", if p.imported { "1" } else { "0" })
                        .field("wire_tokens", p.wire_tokens.to_string())
                        .field("evicted", if p.evicted { "1" } else { "0" })
                        .field("prefill_only", if p.prefill_only { "1" } else { "0" })
                        .finish(),
                );
            }
            for a in &e.active {
                rows.push(
                    Row::new("active")
                        .field("wafer", wafer.to_string())
                        .field("rec", a.rec.to_string())
                        .field("prefill_remaining", a.prefill_remaining.to_string())
                        .field("decoded", a.decoded.to_string())
                        .field("admission_order", a.admission_order.to_string())
                        .field("prefill_only", if a.prefill_only { "1" } else { "0" })
                        .finish(),
                );
            }
            let kv = &e.kv;
            rows.push(
                Row::new("kv")
                    .field("wafer", wafer.to_string())
                    .field("ring_k", kv.ring_next[0].to_string())
                    .field("ring_v", kv.ring_next[1].to_string())
                    .field("allocated", kv.allocated_blocks.to_string())
                    .field("freed", kv.freed_blocks.to_string())
                    .field(
                        "transfers",
                        format!(
                            "{}|{}|{}|{}",
                            kv.transfers.exported_sequences,
                            kv.transfers.exported_tokens,
                            kv.transfers.imported_sequences,
                            kv.transfers.imported_tokens
                        ),
                    )
                    .finish(),
            );
            for (side, cores) in [("k", &kv.key_cores), ("v", &kv.value_cores)] {
                for (core, xbs) in cores.iter().enumerate() {
                    let encoded = join(
                        xbs.iter().map(|xb| {
                            let blocks = join(
                                xb.blocks.iter().map(|b| {
                                    b.map_or_else(
                                        || "-".to_string(),
                                        |(owner, used)| format!("{owner}:{used}"),
                                    )
                                }),
                                ',',
                            );
                            format!("{}!{blocks}", u8::from(xb.failed))
                        }),
                        ';',
                    );
                    rows.push(
                        Row::new("kv_cores")
                            .field("wafer", wafer.to_string())
                            .field("side", side)
                            .field("core", core.to_string())
                            .field("xbs", encoded)
                            .finish(),
                    );
                }
            }
            rows.push(
                Row::new("kv_page")
                    .field("wafer", wafer.to_string())
                    .field(
                        "entries",
                        join(
                            kv.page_table.iter().map(|(seq, cores)| {
                                format!("{seq}:{}", join(cores.iter().map(u64::to_string), ','))
                            }),
                            ';',
                        ),
                    )
                    .finish(),
            );
            rows.push(
                Row::new("kv_cursor")
                    .field("wafer", wafer.to_string())
                    .field(
                        "entries",
                        join(
                            kv.cursors.iter().map(|&(seq, head, role, ci, xb, b)| {
                                format!("{seq}:{head}:{role}:{ci}:{xb}:{b}")
                            }),
                            ';',
                        ),
                    )
                    .finish(),
            );
            rows.push(
                Row::new("kv_seq_blocks")
                    .field("wafer", wafer.to_string())
                    .field(
                        "entries",
                        join(
                            kv.seq_blocks.iter().map(|(seq, blocks)| {
                                format!(
                                    "{seq}:{}",
                                    join(
                                        blocks.iter().map(|&(r, ci, xb, b)| format!("{r}.{ci}.{xb}.{b}")),
                                        ','
                                    )
                                )
                            }),
                            ';',
                        ),
                    )
                    .finish(),
            );
            rows.push(
                Row::new("kv_resident")
                    .field("wafer", wafer.to_string())
                    .field(
                        "entries",
                        join(kv.resident_tokens.iter().map(|&(seq, t)| format!("{seq}:{t}")), ';'),
                    )
                    .finish(),
            );
            for (group, chain) in &kv.shared {
                rows.push(
                    Row::new("kv_shared")
                        .field("wafer", wafer.to_string())
                        .field("group", group.to_string())
                        .field("k_cores", join(chain.k_cores.iter().map(usize::to_string), ','))
                        .field("v_cores", join(chain.v_cores.iter().map(usize::to_string), ','))
                        .field(
                            "nodes",
                            join(
                                chain.nodes.iter().map(|(refs, k_slots, v_slots)| {
                                    format!("{refs}!{}!{}", slots(k_slots), slots(v_slots))
                                }),
                                ';',
                            ),
                        )
                        .finish(),
                );
            }
            rows.push(
                Row::new("kv_seq_shared")
                    .field("wafer", wafer.to_string())
                    .field(
                        "entries",
                        join(kv.seq_shared.iter().map(|&(seq, g, n)| format!("{seq}:{g}:{n}")), ';'),
                    )
                    .finish(),
            );
        }
        if let Some(inj) = &self.injector {
            rows.push(
                Row::new("injector")
                    .field(
                        "events",
                        join(inj.events.iter().map(|&(w, t, draw)| format!("{w}:{}:{draw}", hex(t))), ';'),
                    )
                    .field("counters", join(inj.counters.iter().map(u64::to_string), '|'))
                    .finish(),
            );
            for (wafer, w) in inj.wafers.iter().enumerate() {
                rows.push(
                    Row::new("injector_wafer")
                        .field("wafer", wafer.to_string())
                        .field("assignment", join(w.assignment.iter().map(u64::to_string), ';'))
                        .field("kv_cores", join(w.kv_cores.iter().map(u64::to_string), ';'))
                        .field("failed", join(w.failed.iter().map(u64::to_string), ';'))
                        .field("death_s", hex(w.death_s))
                        .field("stall_s", hex(w.stall_s))
                        .finish(),
                );
            }
        }
        let mut out = String::from("[\n");
        out.push_str(&rows.join(",\n"));
        out.push_str("\n]\n");
        out
    }

    /// Parses a [`Snapshot::to_json`] document.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed token, unknown
    /// section, missing field, or schema-version mismatch.
    pub fn parse(text: &str) -> Result<Snapshot, String> {
        let rows = read_rows(text)?;
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
            migrations: Vec::new(),
            engines: Vec::new(),
            injector: None,
        };
        let mut saw_meta = false;
        for row in rows {
            let section = row.get_str("section")?;
            match section {
                "meta" => {
                    saw_meta = true;
                    snap.schema_version =
                        row.get_str("schema_version")?.parse().map_err(|e| format!("schema_version: {e}"))?;
                    if snap.schema_version != SNAPSHOT_SCHEMA_VERSION {
                        return Err(format!(
                            "snapshot schema v{} is not the supported v{SNAPSHOT_SCHEMA_VERSION}",
                            snap.schema_version
                        ));
                    }
                    snap.config_hash = p_hex_u64(row.get_str("config_hash")?)?;
                    snap.completed = p_u64(row.get_str("completed")?)?;
                    snap.faults_fired = p_u64(row.get_str("faults_fired")?)?;
                    snap.router_state = p_u64(row.get_str("router_state")?)?;
                    snap.placement_state = p_u64(row.get_str("placement_state")?)?;
                    let rng: Vec<u64> =
                        split(row.get_str("think_rng")?, '|').map(p_hex_u64).collect::<Result<_, _>>()?;
                    snap.think_rng = rng
                        .try_into()
                        .map_err(|v: Vec<u64>| format!("think_rng has {} words, expected 4", v.len()))?;
                    snap.arrivals = split(row.get_str("arrivals")?, ';')
                        .map(|item| {
                            let (t, i) = pair(item, ':')?;
                            Ok((p_f64(t)?, p_usize(i)?))
                        })
                        .collect::<Result<_, String>>()?;
                    snap.gated = split(row.get_str("gated")?, ';').map(p_usize).collect::<Result<_, _>>()?;
                }
                "migration" => snap.migrations.push(Migration {
                    id: p_usize(row.get_str("id")?)?,
                    from_wafer: p_usize(row.get_str("from")?)?,
                    to_wafer: p_usize(row.get_str("to")?)?,
                    tokens: p_u64(row.get_str("tokens")?)?,
                    deduped_tokens: p_u64(row.get_str("deduped")?)?,
                    bytes: p_u64(row.get_str("bytes")?)?,
                    start_s: p_f64(row.get_str("start_s")?)?,
                    arrive_s: p_f64(row.get_str("arrive_s")?)?,
                    wafer_hops: p_usize(row.get_str("hops")?)?,
                    energy_j: p_f64(row.get_str("energy_j")?)?,
                }),
                "engine" => {
                    let wafer = p_usize(row.get_str("wafer")?)?;
                    if wafer != snap.engines.len() {
                        return Err(format!("engine row for wafer {wafer} out of order"));
                    }
                    let s: Vec<&str> = row.get_str("stats")?.split('|').collect();
                    if s.len() != 14 {
                        return Err(format!("engine stats has {} fields, expected 14", s.len()));
                    }
                    snap.engines.push(EngineSnapshot {
                        clock_s: p_f64(row.get_str("clock_s")?)?,
                        busy_s: p_f64(row.get_str("busy_s")?)?,
                        admission_suspended: p_bool(row.get_str("suspended")?)?,
                        pending_tokens: p_usize(row.get_str("pending_tokens")?)?,
                        pending_wire_tokens: p_usize(row.get_str("pending_wire_tokens")?)?,
                        mean_hops: p_f64(row.get_str("mean_hops")?)?,
                        order_counter: p_u64(row.get_str("order_counter")?)?,
                        stats: EngineStats {
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
                            page_table: Vec::new(),
                            cursors: Vec::new(),
                            seq_blocks: Vec::new(),
                            resident_tokens: Vec::new(),
                            shared: Vec::new(),
                            seq_shared: Vec::new(),
                        },
                    });
                }
                "record" | "pending" | "active" | "kv" | "kv_cores" | "kv_page" | "kv_cursor"
                | "kv_seq_blocks" | "kv_resident" | "kv_shared" | "kv_seq_shared" => {
                    let wafer = p_usize(row.get_str("wafer")?)?;
                    let e = snap
                        .engines
                        .get_mut(wafer)
                        .ok_or_else(|| format!("{section} row for wafer {wafer} precedes its engine row"))?;
                    parse_engine_row(section, &row, e)?;
                }
                "injector" => {
                    snap.injector = Some(FaultInjectorSnapshot {
                        events: split(row.get_str("events")?, ';')
                            .map(|item| {
                                let mut it = item.split(':');
                                let (w, t, draw) = (next(&mut it)?, next(&mut it)?, next(&mut it)?);
                                Ok((p_usize(w)?, p_f64(t)?, p_u64(draw)?))
                            })
                            .collect::<Result<_, String>>()?,
                        wafers: Vec::new(),
                        counters: split(row.get_str("counters")?, '|')
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
                    inj.wafers.push(WaferFaultSnapshot {
                        assignment: split(row.get_str("assignment")?, ';')
                            .map(p_u64)
                            .collect::<Result<_, _>>()?,
                        kv_cores: split(row.get_str("kv_cores")?, ';')
                            .map(p_u64)
                            .collect::<Result<_, _>>()?,
                        failed: split(row.get_str("failed")?, ';').map(p_u64).collect::<Result<_, _>>()?,
                        death_s: p_f64(row.get_str("death_s")?)?,
                        stall_s: p_f64(row.get_str("stall_s")?)?,
                    });
                }
                other => return Err(format!("unknown snapshot section {other:?}")),
            }
        }
        if !saw_meta {
            return Err("snapshot has no meta row".to_string());
        }
        Ok(snap)
    }
}

fn parse_engine_row(section: &str, row: &json::Row<'_>, e: &mut EngineSnapshot) -> Result<(), String> {
    match section {
        "record" => e.records.push(RequestRecord {
            id: p_usize(row.get_str("id")?)?,
            wafer: p_usize(row.get_str("rwafer")?)?,
            prompt_len: p_usize(row.get_str("prompt")?)?,
            decode_len: p_usize(row.get_str("decode")?)?,
            arrival_s: p_f64(row.get_str("arrival_s")?)?,
            admitted_s: p_f64(row.get_str("admitted_s")?)?,
            queue_wait_s: p_f64(row.get_str("queue_wait_s")?)?,
            first_token_s: p_f64(row.get_str("first_token_s")?)?,
            completed_s: p_f64(row.get_str("completed_s")?)?,
            evictions: row.get_str("evictions")?.parse().map_err(|e| format!("evictions: {e}"))?,
            cached_prefix_tokens: p_usize(row.get_str("cached_prefix")?)?,
            shared_prefix: match row.get_str("shared")? {
                "-" => None,
                s => {
                    let (g, t) = pair(s, ':')?;
                    Some(SharedPrefix { group: p_u64(g)?, tokens: p_usize(t)? })
                }
            },
        }),
        "pending" => e.pending.push((
            p_f64(row.get_str("ready_s")?)?,
            PendingReq {
                rec: p_usize(row.get_str("rec")?)?,
                decoded: p_usize(row.get_str("decoded")?)?,
                ready_s: p_f64(row.get_str("ready_s")?)?,
                imported: p_bool(row.get_str("imported")?)?,
                wire_tokens: p_usize(row.get_str("wire_tokens")?)?,
                evicted: p_bool(row.get_str("evicted")?)?,
                prefill_only: p_bool(row.get_str("prefill_only")?)?,
            },
        )),
        "active" => e.active.push(ActiveSeq {
            rec: p_usize(row.get_str("rec")?)?,
            prefill_remaining: p_usize(row.get_str("prefill_remaining")?)?,
            decoded: p_usize(row.get_str("decoded")?)?,
            admission_order: p_u64(row.get_str("admission_order")?)?,
            prefill_only: p_bool(row.get_str("prefill_only")?)?,
        }),
        "kv" => {
            e.kv.ring_next = [p_usize(row.get_str("ring_k")?)?, p_usize(row.get_str("ring_v")?)?];
            e.kv.allocated_blocks = p_u64(row.get_str("allocated")?)?;
            e.kv.freed_blocks = p_u64(row.get_str("freed")?)?;
            let t: Vec<&str> = row.get_str("transfers")?.split('|').collect();
            if t.len() != 4 {
                return Err(format!("kv transfers has {} fields, expected 4", t.len()));
            }
            e.kv.transfers = KvTransferStats {
                exported_sequences: p_u64(t[0])?,
                exported_tokens: p_u64(t[1])?,
                imported_sequences: p_u64(t[2])?,
                imported_tokens: p_u64(t[3])?,
            };
        }
        "kv_cores" => {
            let xbs: Vec<CrossbarSnapshot> = split(row.get_str("xbs")?, ';')
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
            let side = match row.get_str("side")? {
                "k" => &mut e.kv.key_cores,
                "v" => &mut e.kv.value_cores,
                other => return Err(format!("unknown kv side {other:?}")),
            };
            if p_usize(row.get_str("core")?)? != side.len() {
                return Err("kv_cores row out of order".to_string());
            }
            side.push(xbs);
        }
        "kv_page" => {
            e.kv.page_table = split(row.get_str("entries")?, ';')
                .map(|item| {
                    let (seq, cores) = pair(item, ':')?;
                    Ok((p_u64(seq)?, split(cores, ',').map(p_u64).collect::<Result<_, _>>()?))
                })
                .collect::<Result<_, String>>()?;
        }
        "kv_cursor" => {
            e.kv.cursors = split(row.get_str("entries")?, ';')
                .map(|item| {
                    let mut it = item.split(':');
                    Ok((
                        p_u64(next(&mut it)?)?,
                        p_usize(next(&mut it)?)?,
                        p_u8(next(&mut it)?)?,
                        p_usize(next(&mut it)?)?,
                        p_usize(next(&mut it)?)?,
                        p_usize(next(&mut it)?)?,
                    ))
                })
                .collect::<Result<_, String>>()?;
        }
        "kv_seq_blocks" => {
            e.kv.seq_blocks = split(row.get_str("entries")?, ';')
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
            e.kv.resident_tokens = split(row.get_str("entries")?, ';')
                .map(|item| {
                    let (seq, t) = pair(item, ':')?;
                    Ok((p_u64(seq)?, p_usize(t)?))
                })
                .collect::<Result<_, String>>()?;
        }
        "kv_shared" => {
            let p_slots = |s: &str| -> Result<Vec<(usize, usize, usize)>, String> {
                split(s, ',')
                    .map(|slot| {
                        let mut it = slot.split('.');
                        Ok((p_usize(next(&mut it)?)?, p_usize(next(&mut it)?)?, p_usize(next(&mut it)?)?))
                    })
                    .collect()
            };
            e.kv.shared.push((
                p_u64(row.get_str("group")?)?,
                SharedChainSnapshot {
                    k_cores: split(row.get_str("k_cores")?, ',').map(p_usize).collect::<Result<_, _>>()?,
                    v_cores: split(row.get_str("v_cores")?, ',').map(p_usize).collect::<Result<_, _>>()?,
                    nodes: split(row.get_str("nodes")?, ';')
                        .map(|node| {
                            let mut it = node.split('!');
                            let refs = p_usize(next(&mut it)?)?;
                            let k = p_slots(next(&mut it)?)?;
                            let v = p_slots(next(&mut it)?)?;
                            Ok((refs, k, v))
                        })
                        .collect::<Result<_, String>>()?,
                },
            ));
        }
        "kv_seq_shared" => {
            e.kv.seq_shared = split(row.get_str("entries")?, ';')
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

    #[test]
    fn float_hex_round_trips_every_bit_pattern_class() {
        for v in [0.0, -0.0, 1.5, f64::INFINITY, f64::NEG_INFINITY, f64::MIN_POSITIVE, 1e-300] {
            assert_eq!(p_f64(&hex(v)).unwrap().to_bits(), v.to_bits());
        }
        assert!(p_f64(&hex(f64::NAN)).unwrap().is_nan());
    }

    #[test]
    fn config_hash_distinguishes_scenarios() {
        let a = Scenario::colocated(2);
        let b = Scenario::colocated(3);
        assert_eq!(config_hash(&a), config_hash(&a));
        assert_ne!(config_hash(&a), config_hash(&b));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(Snapshot::parse("").is_err());
        assert!(Snapshot::parse("[]").is_err(), "a meta row is required");
        assert!(Snapshot::parse("[{\"section\":\"warp\"}]").is_err());
        assert!(Snapshot::parse("[{\"section\":\"meta\"}]").is_err(), "meta fields are required");
    }
}
