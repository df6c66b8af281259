//! Checkpoint/resume identity: the golden proof that a [`Snapshot`] is the
//! *complete* simulator state.
//!
//! Each shape runs twice — once straight to the end, once to the
//! midpoint, through a snapshot → JSON → parse → resume round trip, then to
//! the end — and the two final [`ouro_serve::RunReport`]s must be
//! byte-identical (`PartialEq` plus the rendered `Debug` form, which pins
//! every float bit). The four shapes cover the scenario matrix the repo's
//! goldens pin: colocated/disaggregated × faults × prefix caching, over
//! Poisson and bursty arrivals.

use ouro_kvcache::{KvManager, KvRestoreError};
use ouro_serve::json::{fnv1a, read_rows};
use ouro_serve::SnapshotErrorKind::{self, *};
use ouro_serve::{EventKind, FaultConfig, RunReport, Scenario, SloConfig, Snapshot, SnapshotError};
use ouro_sim::model::zoo;
use ouro_sim::{OuroborosConfig, OuroborosSystem};
use ouro_workload::{ArrivalConfig, LengthConfig, SessionConfig, TimedTrace, TraceGenerator};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::OnceLock;

fn tiny_system() -> OuroborosSystem {
    OuroborosSystem::new(OuroborosConfig::tiny_for_tests(), &zoo::bert_large()).unwrap()
}

/// The four golden shapes: `(label, scenario, midpoint instant)`.
fn golden_shapes() -> Vec<(&'static str, Scenario, f64)> {
    let slo = SloConfig { ttft_s: 0.5, tpot_s: 0.05 };
    let mid = |timed: &TimedTrace| timed.last_arrival_s() * 0.5;

    // 1. Colocated, open-loop Poisson, no faults, no prefix sharing.
    let trace = TraceGenerator::new(11).generate(&LengthConfig::fixed(96, 24), 36);
    let timed = ArrivalConfig::Poisson { rate_rps: 300.0 }.assign(&trace, 11);
    let colocated = (
        "colocated-poisson",
        Scenario::colocated(2).prefix_caching(false).slo(slo).workload(timed.clone()),
        mid(&timed),
    );

    // 2. Disaggregated sessions with prefix caching (KV migration + dedup).
    let trace = SessionConfig::chat(4, 0.5).generate(40, 23);
    let timed = ArrivalConfig::Poisson { rate_rps: 400.0 }.assign(&trace, 23);
    let disagg = (
        "disagg-prefix",
        Scenario::disaggregated(1, 2).prefix_caching(true).slo(slo).workload(timed.clone()),
        mid(&timed),
    );

    // 3. Colocated under runtime faults (the fault streams must survive
    //    the checkpoint).
    let trace = TraceGenerator::new(37).generate(&LengthConfig::fixed(128, 16), 30);
    let timed = ArrivalConfig::Poisson { rate_rps: 300.0 }.assign(&trace, 37);
    let faulty = (
        "colocated-faults",
        Scenario::colocated(2).faults(FaultConfig::new(0.08, 37)).slo(slo).workload(timed.clone()),
        mid(&timed),
    );

    // 4. Disaggregated with faults and prefix caching. Faults strike both
    //    before and after the midpoint.
    let trace = SessionConfig::chat(3, 0.4).generate(32, 53);
    let timed = ArrivalConfig::Bursty { rate_rps: 350.0, cv: 4.0 }.assign(&trace, 53);
    let all_on = (
        "disagg-faults-prefix",
        Scenario::disaggregated(1, 1)
            .prefix_caching(true)
            .faults(FaultConfig::new(0.025, 53))
            .slo(slo)
            .workload(timed.clone()),
        mid(&timed),
    );

    vec![colocated, disagg, faulty, all_on]
}

/// Runs `scenario` to the end through a midpoint checkpoint serialized to
/// JSON and parsed back, returning the resumed run's report.
fn run_via_snapshot(scenario: &Scenario, sys: &OuroborosSystem, mid_s: f64) -> RunReport {
    let mut run = scenario.start(sys).expect("start");
    run.run_until(mid_s);
    let snapshot = scenario.checkpoint(&run);
    let json = snapshot.to_json();
    let parsed = Snapshot::parse(&json).expect("snapshot JSON must parse back");
    assert_eq!(parsed.to_json(), json, "snapshot JSON must round-trip byte-identically");
    let mut resumed = scenario.resume(sys, &parsed).expect("resume");
    resumed.run_to_end();
    resumed.finish().report
}

#[test]
fn resumed_runs_reproduce_the_uninterrupted_report_byte_for_byte() {
    let sys = tiny_system();
    for (label, scenario, mid_s) in golden_shapes() {
        let straight = scenario.run(&sys).unwrap_or_else(|e| panic!("{label}: {e:?}"));
        assert!(straight.is_conserved(), "{label}: straight run must conserve requests");
        let resumed = run_via_snapshot(&scenario, &sys, mid_s);
        assert_eq!(straight, resumed, "{label}: resumed report diverged");
        assert_eq!(
            format!("{straight:?}"),
            format!("{resumed:?}"),
            "{label}: resumed report Debug form diverged"
        );
    }
}

#[test]
fn the_colocated_fault_checkpoint_is_taken_mid_run() {
    // The fault streams and the arrival cursor are carried across the
    // checkpoint only if it falls after completions and faults, with
    // arrivals still to route.
    let sys = tiny_system();
    let (label, scenario, mid_s) = golden_shapes().remove(2);
    let mut run = scenario.start(&sys).unwrap();
    run.run_until(mid_s);
    let json = scenario.checkpoint(&run).to_json();
    let meta = json.lines().find(|l| l.starts_with(r#"{"section":"meta""#)).expect("a meta row");
    assert!(run.completed() > 0, "{label}: no completions yet");
    assert!(field(meta, "routed").parse::<usize>().unwrap() < 30, "{label}: every arrival routed");
    assert!(faults_fired(&json) > 0, "{label}: no fault fired yet");
}

/// The faults fired before a snapshot: the sum of its injector_wafer
/// rows' stream positions.
fn faults_fired(json: &str) -> u64 {
    let rows = rows_of(json).into_iter().filter(|r| on("injector_wafer", None)(r));
    rows.map(|r| field(r, "fired").parse::<u64>().unwrap()).sum()
}

#[test]
fn the_disaggregated_fault_checkpoint_falls_between_faults() {
    // The snapshot carries a struck wafer and a fault schedule still to
    // fire, and the resumed run replays both exactly.
    let sys = tiny_system();
    let (label, scenario, mid_s) = golden_shapes().remove(3);
    let fired = faults_fired(golden_snapshot_json(3));
    assert!(fired > 0, "{label}: no fault fired before the midpoint");
    let straight = scenario.run(&sys).unwrap();
    let injected = straight.faults.as_ref().expect("a fault report").faults_injected;
    assert!(injected > fired, "{label}: no fault fires after the midpoint");
    let resumed = run_via_snapshot(&scenario, &sys, mid_s);
    assert_eq!(format!("{straight:?}"), format!("{resumed:?}"), "{label}: resumed report diverged");
}

#[test]
fn a_dense_fault_plan_starts_at_once_and_checkpoints_one_stream_per_wafer() {
    // A 1e-12 s MTBF over the one-second fault window is about 1e12 faults
    // per wafer. Each wafer's stream draws them as they fall due, so the
    // run starts at once and its checkpoint holds one stream position per
    // wafer, before and after faults have fired.
    let sys = tiny_system();
    let trace = TraceGenerator::new(5).generate(&LengthConfig::fixed(64, 16), 4);
    let timed = ArrivalConfig::Poisson { rate_rps: 100.0 }.assign(&trace, 5);
    let scenario = Scenario::colocated(2).faults(FaultConfig::new(1e-12, 5)).workload(timed);
    let mut run = scenario.start(&sys).unwrap();
    for fired in [0, 10] {
        while faults_fired(&scenario.checkpoint(&run).to_json()) < fired {
            assert!(run.step_once());
        }
        let json = scenario.checkpoint(&run).to_json();
        assert_eq!(faults_fired(&json), fired);
        let rows = rows_of(&json).into_iter().filter(|r| on("injector_wafer", None)(r)).count();
        assert_eq!(rows, 2, "one injector_wafer row, and so one stream position, per wafer");
        let mut resumed = scenario.resume(&sys, &Snapshot::parse(&json).unwrap()).unwrap();
        for _ in 0..3 {
            assert!(run.step_once() && resumed.step_once());
        }
        let live = scenario.checkpoint(&run).to_json();
        assert_eq!(scenario.checkpoint(&resumed).to_json(), live, "a resumed stream continues the live one");
    }
}

#[test]
fn a_checkpoint_holds_a_record_per_finished_request() {
    // A record is a finished request: only the decode wafers finish one,
    // and a request in flight is a pending or active row instead.
    let sys = tiny_system();
    for (label, scenario, mid_s) in
        golden_shapes().into_iter().filter(|(label, ..)| label.starts_with("disagg"))
    {
        let mut run = scenario.start(&sys).unwrap();
        run.run_until(mid_s);
        let json = scenario.checkpoint(&run).to_json();
        let records = rows_of(&json).into_iter().filter(|r| on("record", None)(r)).count();
        assert!(run.completed() > 0, "{label}: no request finished before the midpoint");
        assert_eq!(records as u64, run.completed(), "{label}: one record per finished request");
        assert_eq!(rows_of(&json).into_iter().filter(|r| on("record", Some(0))(r)).count(), 0, "{label}");
    }
}

#[test]
fn checkpoint_is_reusable_at_any_boundary() {
    // Time zero (nothing stepped), an arbitrary early instant, and the
    // drained end state are all valid checkpoints.
    let sys = tiny_system();
    let (label, scenario, mid_s) = golden_shapes().remove(1);
    let straight = scenario.run(&sys).unwrap();

    for at_s in [0.0, mid_s * 0.3] {
        let mut run = scenario.start(&sys).unwrap();
        run.run_until(at_s);
        let snap = scenario.checkpoint(&run);
        let mut resumed = scenario.resume(&sys, &snap).unwrap();
        resumed.run_to_end();
        assert_eq!(straight, resumed.finish().report, "{label}: checkpoint at {at_s}s diverged");
    }

    let mut run = scenario.start(&sys).unwrap();
    run.run_to_end();
    let snap = scenario.checkpoint(&run);
    let resumed = scenario.resume(&sys, &snap).unwrap();
    assert_eq!(straight, resumed.finish().report, "{label}: drained-state checkpoint diverged");
}

#[test]
fn a_checkpoint_does_not_perturb_the_run_it_observes() {
    let sys = tiny_system();
    let (label, scenario, mid_s) = golden_shapes().remove(3);
    let straight = scenario.run(&sys).unwrap();
    let mut run = scenario.start(&sys).unwrap();
    run.run_until(mid_s);
    let _ = scenario.checkpoint(&run).to_json();
    run.run_to_end();
    assert_eq!(straight, run.finish().report, "{label}: checkpointing mutated the live run");
}

#[test]
fn resuming_under_a_different_config_is_rejected() {
    let sys = tiny_system();
    let (_, scenario, mid_s) = golden_shapes().remove(0);
    let mut run = scenario.start(&sys).unwrap();
    run.run_until(mid_s);
    let snap = scenario.checkpoint(&run);
    let other = golden_shapes().remove(1).1;
    assert_eq!(other.resume(&sys, &snap).err(), Some(rejected(None, "meta", ConfigHash)));
}

#[test]
fn resuming_with_a_wafer_missing_is_rejected() {
    let sys = tiny_system();
    let (_, scenario, mid_s) = golden_shapes().remove(0);
    let mut run = scenario.start(&sys).unwrap();
    run.run_until(mid_s);
    let json = scenario.checkpoint(&run).to_json();
    let one_wafer = without_rows(&json, |row| row.contains(r#""wafer":"1""#));
    let snap = Snapshot::parse(&one_wafer).expect("the rows left still parse");
    assert_eq!(scenario.resume(&sys, &snap).err(), Some(rejected(None, "engine", WaferCount)));
}

/// A rejection by `resume` of the state of `wafer` (or of the whole
/// snapshot) in `section`.
fn rejected(wafer: Option<usize>, section: &'static str, kind: SnapshotErrorKind) -> SnapshotError {
    SnapshotError { row: None, wafer, section: Some(section), key: None, kind }
}

/// A rejection by `parse` of document row `row` of `section`, at `key`.
fn unparsed(
    row: usize,
    section: &'static str,
    key: Option<&'static str>,
    kind: SnapshotErrorKind,
) -> SnapshotError {
    SnapshotError { row: Some(row), wafer: None, section: Some(section), key, kind }
}

/// The document row index of `line`, one rendered row of `json`.
fn row_index(json: &str, line: &str) -> usize {
    rows_of(json).iter().position(|l| *l == line.trim_end_matches(',')).expect("a row of the document")
}

/// `json` without the rows `drop` selects, still a well-formed document.
fn without_rows(json: &str, drop: impl Fn(&str) -> bool) -> String {
    let rows: Vec<&str> = rows_of(json).into_iter().filter(|l| !drop(l)).collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

/// The string value of `key` in one rendered snapshot row.
fn field(line: &str, key: &str) -> String {
    read_rows(&format!("[{}]", line.trim_end_matches(','))).unwrap()[0].get_str(key).unwrap().to_string()
}

#[test]
fn run_full_equals_explicit_start_drive_finish() {
    let sys = tiny_system();
    for (label, scenario, _) in golden_shapes() {
        let via_run_full = scenario.run(&sys).unwrap();
        let mut run = scenario.start(&sys).unwrap();
        run.run_to_end();
        assert_eq!(via_run_full, run.finish().report, "{label}: explicit stepping diverged");
    }
}

#[test]
fn migration_stats_agree_with_the_trace() {
    // The report keeps running totals, not a log of the migrations: the
    // trace's `migrate_start`/`migrate_arrive` pairs are the independent
    // record they are checked against.
    let sys = tiny_system();
    let kv_bytes_per_token = sys.kv_migration_bytes(1);
    for (label, scenario, _) in golden_shapes().into_iter().filter(|(label, ..)| label.starts_with("disagg"))
    {
        let outcome = scenario.trace(true).run_full(&sys).unwrap();
        let m = outcome.report.migration.expect("a disaggregated run reports migrations");
        let trace = outcome.trace().expect("the run was traced");
        assert_eq!(trace.dropped(), 0, "{label}: the trace must be complete");
        let landed: BTreeMap<usize, f64> = trace
            .events()
            .iter()
            .filter(|ev| matches!(ev.kind, EventKind::MigrateArrive { .. }))
            .map(|ev| (ev.req.expect("a migration names its request"), ev.t_s))
            .collect();
        let (mut bytes, mut transit) = (0, Vec::new());
        for ev in trace.events() {
            if let EventKind::MigrateStart { bytes: b, .. } = ev.kind {
                bytes += b;
                transit.push(landed[&ev.req.unwrap()] - ev.t_s);
            }
        }
        assert!(m.migrations > 0, "{label}: the shape must migrate");
        assert_eq!(m.migrations, trace.count("migrate_start"), "{label}");
        assert_eq!(landed.len(), m.migrations, "{label}: one landing per migration");
        assert_eq!(bytes, m.migrated_tokens * kv_bytes_per_token, "{label}");
        assert_eq!(m.max_migration_s, transit.iter().fold(0.0, |a: f64, &t| a.max(t)), "{label}");
        let mean = transit.iter().sum::<f64>() / transit.len() as f64;
        assert!(
            (m.mean_migration_s - mean).abs() <= 1e-12 * mean,
            "{label}: {} vs {mean}",
            m.mean_migration_s
        );
    }
}

/// 128/2048-token requests on one tiny wafer at far beyond its capacity:
/// the KV cache saturates, evicts and re-admits.
fn saturated_long_decode() -> Scenario {
    let trace = TraceGenerator::new(71).generate(&LengthConfig::fixed(128, 2048), 64);
    let timed = ArrivalConfig::Poisson { rate_rps: 4000.0 }.assign(&trace, 71);
    Scenario::colocated(1).prefix_caching(false).workload(timed)
}

#[test]
fn resume_across_slot_reuse_is_invisible() {
    // A saturated long-decode workload on one tiny wafer: the KV cache
    // fills, sequences are evicted and re-admitted into reused KV slots
    // before the midpoint, and victims still wait in the queue there. The
    // resumed run numbers its slots afresh (in sequence order), so an
    // identical report proves the numbering never reaches an output.
    let sys = tiny_system();
    let scenario = saturated_long_decode();
    let mid_s = 0.25; // about half of the run
    let mut run = scenario.start(&sys).unwrap();
    run.run_until(mid_s);
    // Most resident sequences are mid-block here, so the snapshot bytes
    // pin that every decoded token reaches the KV rows. Against the v6
    // document only the meta row's version, the in-flight rows (no
    // `prefill_only`), the kv row (no `freed`) and the per-sequence rows
    // (one `kv_seqs` row of cursors for the block lists and token counts)
    // moved; every core table is the same.
    let json = scenario.checkpoint(&run).to_json();
    assert_eq!(fnv1a(json.as_bytes()), 0x0313_ccce_319c_58ac, "midpoint snapshot bytes drifted");
    let engine = &run.engines()[0];
    assert!(engine.stats().evictions > 0, "the midpoint must follow evictions");
    assert!(engine.stats().admissions > 64, "evicted sequences must have been re-admitted");
    assert!(
        engine.resident() > 0 && engine.queue_len() > 0,
        "the checkpoint must hold resident and queued work"
    );
    let straight = scenario.run(&sys).unwrap();
    let resumed = run_via_snapshot(&scenario, &sys, mid_s);
    assert_eq!(straight, resumed, "resumed report diverged");
    assert_eq!(format!("{straight:?}"), format!("{resumed:?}"), "resumed report Debug form diverged");
}

/// `golden_snapshot_json` with the first `active` row's `key` replaced by
/// `value(wafer)`, returned with the row's wafer.
fn with_active_field(key: &str, value: impl Fn(&str) -> usize) -> (String, usize) {
    let json = golden_snapshot_json(3);
    let line = json.lines().find(|l| l.starts_with(r#"{"section":"active""#)).expect("an active row");
    let wafer = field(line, "wafer");
    let edited = with_field(line.trim_end_matches(','), key, |_| value(&wafer).to_string());
    (json.replace(line.trim_end_matches(','), &edited), wafer.parse().unwrap())
}

#[test]
fn resume_rejects_active_rows_that_are_not_resident() {
    let sys = tiny_system();
    let scenario = golden_shapes().remove(3).1;
    let rows = read_rows(golden_snapshot_json(3)).unwrap();
    let on = |section: &str, wafer: &str| {
        rows.iter()
            .filter(|r| r.get_str("section").unwrap() == section && r.get_str("wafer").unwrap() == wafer)
            .collect::<Vec<_>>()
    };
    let submitted =
        |wafer: &str| on("engine", wafer)[0].get_str("submitted").unwrap().parse::<usize>().unwrap();
    // A sequence the wafer was submitted that holds no KV (finished or
    // still queued).
    let not_resident = |wafer: &str| {
        let resident = on("kv_seqs", wafer)[0].get_str("entries").unwrap().to_string();
        let resident: Vec<&str> = resident.split(';').map(|e| e.split(':').next().unwrap()).collect();
        (0..submitted(wafer))
            .find(|r| !resident.contains(&r.to_string().as_str()))
            .expect("a sequence without KV")
    };
    // Shape 3's trace holds 32 requests.
    for (case, (json, wafer), kind) in [
        ("trace index past the trace", with_active_field("id", |_| 32), IndexOutOfRange),
        ("sequence past the submissions", with_active_field("seq", submitted), IndexOutOfRange),
        ("not resident", with_active_field("seq", not_resident), NotResident),
    ] {
        let snap = Snapshot::parse(&json).unwrap_or_else(|e| panic!("{case}: {e}"));
        let resumed = scenario.resume(&sys, &snap);
        assert_eq!(resumed.err(), Some(rejected(Some(wafer), "active", kind)), "{case}");
    }
}

#[test]
fn resume_rejects_a_resident_sequence_without_its_active_row() {
    // Without its active row the sequence's KV stays resident but no step
    // serves it; the fault after the midpoint then strikes a sequence the
    // engine does not know. Resume refuses the snapshot instead.
    let (sys, scenarios) = golden_runs();
    let json = golden_snapshot_json(3);
    let active: Vec<&str> = json
        .lines()
        .filter(|l| l.starts_with(r#"{"section":"active""#))
        .map(|l| l.trim_end_matches(','))
        .collect();
    assert!(!active.is_empty(), "the midpoint must hold active rows");
    for row in active {
        let snap = Snapshot::parse(&without_rows(json, |r| r == row)).expect("the rows left still parse");
        let resumed = scenarios[3].resume(sys, &snap);
        let wafer = field(row, "wafer").parse().unwrap();
        assert_eq!(resumed.err(), Some(rejected(Some(wafer), "kv_seqs", Unserved)), "dropped {row}");
    }
}

/// Every section and its exact key list, in rendered order. Adding,
/// removing, renaming, or reordering any key is a schema change: update
/// this table *and* bump [`ouro_serve::SNAPSHOT_SCHEMA_VERSION`].
const SNAPSHOT_V1_SECTIONS: &[(&str, &[&str])] = &[
    (
        "meta",
        &[
            "section",
            "schema_version",
            "config_hash",
            "migrations",
            "router_state",
            "placement_state",
            "routed",
        ],
    ),
    ("engine", &["section", "wafer", "clock_s", "busy_s", "suspended", "mean_hops", "stats", "submitted"]),
    ("record", &["section", "wafer", "arrival_s", "first_token_s", "completed_s", "decode"]),
    (
        "pending",
        &[
            "section",
            "wafer",
            "ready_s",
            "id",
            "seq",
            "first_token_s",
            "decoded",
            "imported",
            "wire_tokens",
            "evicted",
        ],
    ),
    (
        "active",
        &[
            "section",
            "wafer",
            "id",
            "seq",
            "first_token_s",
            "prefill_remaining",
            "decoded",
            "admission_order",
        ],
    ),
    ("kv", &["section", "wafer", "ring_k", "ring_v", "allocated", "transfers"]),
    ("kv_cores", &["section", "wafer", "side", "core", "xbs"]),
    ("kv_seqs", &["section", "wafer", "entries"]),
    ("kv_shared", &["section", "wafer", "group", "nodes"]),
    ("injector", &["section", "counters"]),
    ("injector_wafer", &["section", "wafer", "assignment", "kv_cores", "death_s", "fired"]),
];

#[test]
fn snapshot_v1_key_sets_are_pinned() {
    let sys = tiny_system();
    let expected = |section: &str| -> &[&str] {
        SNAPSHOT_V1_SECTIONS
            .iter()
            .find(|(s, _)| *s == section)
            .unwrap_or_else(|| panic!("snapshot emitted an unpinned section {section:?}"))
            .1
    };
    let mut seen = std::collections::BTreeSet::new();
    for (label, scenario, mid_s) in golden_shapes() {
        // Probe several instants per shape: transient rows (`pending`,
        // `active`, …) only occur at some points of a run.
        let mut run = scenario.start(&sys).unwrap();
        let mut jsons = Vec::new();
        for frac in [0.2, 0.6, 1.0, 1.4, 2.0] {
            run.run_until(mid_s * frac);
            let json = scenario.checkpoint(&run).to_json();
            let parsed = Snapshot::parse(&json).unwrap_or_else(|e| panic!("{label}@{frac}: {e}"));
            assert_eq!(parsed.to_json(), json, "{label}@{frac}: parse → to_json drifted");
            jsons.push(json);
        }
        for row in jsons.iter().flat_map(|j| read_rows(j).expect("snapshot JSON reads as flat rows")) {
            let keys: Vec<&str> = row.fields.iter().map(|(k, _)| k.as_ref()).collect();
            assert!(keys.first() == Some(&"section"), "{label}: row must lead with section");
            let section = row.get_str("section").unwrap().to_string();
            assert_eq!(keys, expected(&section), "{label}: key set drifted for section {section:?}");
            assert!(row.fields.iter().all(|(_, v)| v.as_str().is_some()), "{label}: non-string value");
            if section == "meta" {
                let v = row.get_str("schema_version").unwrap();
                assert_eq!(v, ouro_serve::SNAPSHOT_SCHEMA_VERSION.to_string(), "{label}");
            }
            seen.insert(section);
        }
    }
    // Every pinned section must actually occur across the golden shapes —
    // a table entry nothing emits is a stale pin, not coverage.
    for (section, _) in SNAPSHOT_V1_SECTIONS {
        assert!(seen.contains(*section), "section {section:?} never emitted by the golden shapes");
    }
    // What the KV rows and the pools imply is derived on resume, so no
    // section or key states it a second time.
    for derived in ["refs", "k_core", "v_core", "freed", "prefill_only", "kv_seq_blocks", "kv_resident"] {
        assert!(
            SNAPSHOT_V1_SECTIONS
                .iter()
                .all(|(section, keys)| *section != derived && !keys.contains(&derived)),
            "{derived} is derived, not stored"
        );
    }
}

/// The real midpoint snapshot of golden shape `shape` (index into
/// [`golden_shapes`]), rendered once for the corruption properties. Shape 3
/// is the richest: disaggregated, faults, prefix caching.
fn golden_snapshot_json(shape: usize) -> &'static str {
    static JSON: OnceLock<Vec<String>> = OnceLock::new();
    &JSON.get_or_init(|| {
        let (sys, scenarios) = golden_runs();
        golden_shapes()
            .into_iter()
            .zip(scenarios)
            .map(|((_, _, mid_s), scenario)| {
                let mut run = scenario.start(sys).unwrap();
                run.run_until(mid_s);
                scenario.checkpoint(&run).to_json()
            })
            .collect()
    })[shape]
}

/// The system and the golden shapes' scenarios [`golden_snapshot_json`]
/// was captured under, built once for the corruption properties.
fn golden_runs() -> &'static (OuroborosSystem, Vec<Scenario>) {
    static RUN: OnceLock<(OuroborosSystem, Vec<Scenario>)> = OnceLock::new();
    RUN.get_or_init(|| {
        (tiny_system(), golden_shapes().into_iter().map(|(_, scenario, _)| scenario).collect())
    })
}

#[test]
fn golden_snapshot_bytes_are_pinned() {
    // Against the v6 document only the meta row's version, the in-flight
    // rows (no `prefill_only`), the kv rows (no `freed`), the
    // per-sequence rows (one `kv_seqs` row each) and the chain rows (no
    // refcounts or cores) moved; every core table and fault row is the
    // same.
    assert_eq!(fnv1a(golden_snapshot_json(3).as_bytes()), 0xd75f_32b4_20e2_c7ea);
}

#[test]
fn a_v2_snapshot_is_rejected_at_its_schema_version() {
    // A v2 document's config hash differs too (it hashed the scenario's
    // `Debug` form), a v3 document lists a pending-fault schedule, a v4
    // one its waiting arrivals, a v5 one a record for every request
    // submitted and a v6 one block lists, token counts, refcounts, frees
    // and prefill-only flags besides the facts they follow from; the
    // version is read first, so the error names it.
    for old in ["2", "3", "4", "5", "6"] {
        let doc = golden_snapshot_json(3).replacen(
            r#""schema_version":"7""#,
            &format!(r#""schema_version":"{old}""#),
            1,
        );
        let err = Snapshot::parse(&doc).unwrap_err();
        assert_eq!(err, unparsed(0, "meta", Some("schema_version"), SchemaVersion), "v{old}: {err}");
    }
}

#[test]
fn only_the_canonical_form_of_a_value_parses() {
    // A sign and a leading zero read as the same numbers, but neither
    // writes back to its text, so neither is a snapshot.
    let json = golden_snapshot_json(3);
    for (key, edited) in [
        ("router_state", json.replacen(r#""router_state":""#, r#""router_state":"+"#, 1)),
        ("routed", json.replacen(r#""routed":""#, r#""routed":"0"#, 1)),
    ] {
        assert_ne!(edited, json);
        assert_eq!(Snapshot::parse(&edited).err(), Some(unparsed(0, "meta", Some(key), BadValue)), "{key}");
    }
}

/// The document rows of `json`.
fn rows_of(json: &str) -> Vec<&str> {
    json.lines().filter(|l| l.starts_with('{')).map(|l| l.trim_end_matches(',')).collect()
}

/// `json` with its first row that `pick` selects replaced by `edit(row)`
/// (no row when empty, several when it joins rows with `,\n`), with that
/// row's index and wafer.
fn edit_row(
    json: &str,
    pick: impl Fn(&str) -> bool,
    edit: impl Fn(&str) -> String,
) -> (String, usize, Option<usize>) {
    let mut rows: Vec<String> = rows_of(json).into_iter().map(str::to_string).collect();
    let at = rows.iter().position(|r| pick(r)).expect("a row to edit");
    let wafer =
        read_rows(&format!("[{}]", rows[at])).unwrap()[0].get_str("wafer").ok().map(|w| w.parse().unwrap());
    let edited = edit(&rows[at]);
    assert_ne!(edited, rows[at], "the edit must change the row");
    rows[at] = edited;
    rows.retain(|r| !r.is_empty());
    (format!("[\n{}\n]\n", rows.join(",\n")), at, wafer)
}

/// Selects the rows of `section`, on `wafer` when given.
fn on(section: &str, wafer: Option<usize>) -> impl Fn(&str) -> bool {
    let prefix = match wafer {
        Some(w) => format!(r#"{{"section":"{section}","wafer":"{w}""#),
        None => format!(r#"{{"section":"{section}""#),
    };
    move |row| row.starts_with(&prefix)
}

/// `row` with the value of `key` replaced by `change(value)`.
fn with_field(row: &str, key: &str, change: impl Fn(&str) -> String) -> String {
    let old = field(row, key);
    row.replacen(&format!(r#""{key}":"{old}""#), &format!(r#""{key}":"{}""#, change(&old)), 1)
}

/// A kv_cores row's `xbs` value with block `block` of crossbar `xb`
/// replaced by `change(block)`.
fn with_block(xbs: &str, xb: usize, block: usize, change: impl Fn(&str) -> String) -> String {
    let mut crossbars: Vec<String> = xbs.split(';').map(str::to_string).collect();
    let (failed, blocks) = crossbars[xb].split_once('!').unwrap();
    let mut blocks: Vec<String> = blocks.split(',').map(str::to_string).collect();
    blocks[block] = change(&blocks[block]);
    crossbars[xb] = format!("{failed}!{}", blocks.join(","));
    crossbars.join(";")
}

/// The saturated long-decode snapshot at 0.25 s, the one whose pending
/// rows hold queued evictions.
fn saturated_snapshot_json() -> &'static str {
    static JSON: OnceLock<String> = OnceLock::new();
    JSON.get_or_init(|| {
        let (sys, scenario) = (&golden_runs().0, saturated_long_decode());
        let mut run = scenario.start(sys).unwrap();
        run.run_until(0.25);
        scenario.checkpoint(&run).to_json()
    })
}

/// A position of `kind` among every kind, exhaustively: a new kind does
/// not compile until it has a place here, and a case below.
fn kind_index(kind: SnapshotErrorKind) -> usize {
    use KvRestoreError as R;
    match kind {
        Json(_) => 0,
        SchemaVersion => 1,
        MissingKey => 2,
        ExtraKey => 3,
        BadValue => 4,
        OutOfOrder => 5,
        Incomplete => 6,
        ConfigHash => 7,
        WaferCount => 8,
        FaultState => 9,
        IndexOutOfRange => 10,
        RoutedMismatch => 11,
        LocalWireTokens => 12,
        WireTokensPastPrompt => 13,
        CounterOverflow => 14,
        NotResident => 15,
        ProgressMismatch => 16,
        DuplicateActive => 17,
        Unserved => 18,
        Kv(k) => {
            19 + match k {
                R::CoreCount => 0,
                R::CrossbarCount => 1,
                R::BlockCount => 2,
                R::Overfull => 3,
                R::UnknownSequence => 4,
                R::NotOwned => 5,
                R::FillMismatch => 6,
                R::ChainCore => 7,
                R::ChainNotOwned => 8,
                R::Unchained => 9,
                R::Sharer => 10,
                R::Unreferenced => 11,
                R::Allocations => 12,
            }
        }
    }
}

#[test]
fn every_snapshot_error_kind_is_reachable_from_an_edited_golden_document() {
    use ouro_serve::json::{JsonError, JsonErrorKind};
    use KvRestoreError as R;
    let (sys, scenarios) = golden_runs();
    let saturated = saturated_long_decode();
    let (g0, g3, sat) = (golden_snapshot_json(0), golden_snapshot_json(3), saturated_snapshot_json());
    let rows3 = rows_of(g3).len();
    // `(case, scenario, edited document, the error it must give)`.
    let mut cases: Vec<(&str, &Scenario, String, SnapshotError)> = Vec::new();
    let mut parse =
        |case, json: &str, pick: &dyn Fn(&str) -> bool, key, edit: &dyn Fn(&str) -> String, kind| {
            let (json, row, _) = edit_row(json, pick, edit);
            let section = field(rows_of(&json)[row], "section");
            let section = ["meta", "engine", "record"].into_iter().find(|s| *s == section).unwrap();
            cases.push((case, &scenarios[3], json, unparsed(row, section, key, kind)));
        };
    parse(
        "version",
        g3,
        &on("meta", None),
        Some("schema_version"),
        &|r| with_field(r, "schema_version", |_| "2".into()),
        SchemaVersion,
    );
    parse(
        "renamed key",
        g3,
        &on("engine", None),
        Some("clock_s"),
        &|r| r.replacen("clock_s", "clock_z", 1),
        MissingKey,
    );
    parse(
        "extra key",
        g3,
        &on("meta", None),
        None,
        &|r| r.replacen("\"}", "\",\"extra\":\"1\"}", 1),
        ExtraKey,
    );
    parse(
        "signed value",
        g3,
        &on("meta", None),
        Some("routed"),
        &|r| with_field(r, "routed", |v| format!("+{v}")),
        BadValue,
    );
    parse(
        "wrong wafer",
        g3,
        &on("record", Some(1)),
        Some("wafer"),
        &|r| with_field(r, "wafer", |_| "0".into()),
        OutOfOrder,
    );
    let at = |row, kind| SnapshotError { row: Some(row), wafer: None, section: None, key: None, kind };
    let trailing = JsonError { offset: g3.len(), kind: JsonErrorKind::TrailingInput };
    cases.push(("trailing text", &scenarios[3], format!("{g3}x"), at(rows3 - 1, Json(trailing))));
    let (cut, row, _) = edit_row(g0, on("kv_seqs", Some(1)), |_: &str| String::new());
    cases.push(("last row cut", &scenarios[0], cut, at(row, Incomplete)));

    // Each state edit resumes against `scenario` and is rejected in the
    // edited row's section, on its wafer when it has one.
    let mut resume = |case,
                      scenario,
                      json: &str,
                      pick: &dyn Fn(&str) -> bool,
                      edit: &dyn Fn(&str) -> String,
                      section,
                      kind| {
        let (json, _, wafer) = edit_row(json, pick, edit);
        let wafer = wafer.filter(|_| section != "injector_wafer");
        cases.push((case, scenario, json, rejected(wafer, section, kind)));
    };
    let drop = &|_: &str| String::new();
    let (s0, s3) = (&scenarios[0], &scenarios[3]);
    resume(
        "config hash",
        s3,
        g3,
        &on("meta", None),
        &|r| with_field(r, "config_hash", |h| format!("{:016x}", u64::from_str_radix(h, 16).unwrap() ^ 1)),
        "meta",
        ConfigHash,
    );
    resume("fault wafer missing", s3, g3, &on("injector_wafer", Some(1)), drop, "injector_wafer", WaferCount);
    // Each routed arrival is exactly one record, pending row, active row
    // or drop, on some wafer. Shape 3's trace holds 32 requests.
    let cursor = |change: fn(usize) -> usize| {
        move |r: &str| with_field(r, "routed", |n| change(n.parse().unwrap()).to_string())
    };
    resume("cursor past the workload", s3, g3, &on("meta", None), &cursor(|_| 33), "meta", IndexOutOfRange);
    resume("cursor past the requests", s3, g3, &on("meta", None), &cursor(|n| n + 1), "meta", RoutedMismatch);
    resume(
        "cursor short of the requests",
        s0,
        g0,
        &on("meta", None),
        &cursor(|n| n - 1),
        "meta",
        RoutedMismatch,
    );
    resume(
        "active trace index past the trace",
        s3,
        g3,
        &on("active", None),
        &|r| with_field(r, "id", |_| "9999".into()),
        "active",
        IndexOutOfRange,
    );
    resume(
        "active sequence past the submissions",
        s3,
        g3,
        &on("active", None),
        &|r| with_field(r, "seq", |_| "9999".into()),
        "active",
        IndexOutOfRange,
    );
    resume(
        "active sequence not resident",
        s3,
        g3,
        &on("active", None),
        &|r| with_field(r, "seq", |_| "0".into()),
        "active",
        NotResident,
    );
    resume(
        "active progress",
        s3,
        g3,
        &on("active", None),
        &|r| with_field(r, "decoded", |d| (d.parse::<usize>().unwrap() + 1).to_string()),
        "active",
        ProgressMismatch,
    );
    resume(
        "active row twice",
        s3,
        g3,
        &on("active", None),
        &|r| format!("{r},\n{r}"),
        "active",
        DuplicateActive,
    );
    resume("active row missing", s3, g3, &on("active", None), drop, "kv_seqs", Unserved);
    resume("key core missing", s3, g3, &on("kv_cores", Some(0)), drop, "kv_cores", Kv(R::CoreCount));
    resume(
        "crossbar missing",
        s3,
        g3,
        &on("kv_cores", Some(1)),
        &|r| with_field(r, "xbs", |x| x.rsplit_once(';').unwrap().0.to_string()),
        "kv_cores",
        Kv(R::CrossbarCount),
    );
    resume(
        "block missing",
        s3,
        g3,
        &on("kv_cores", Some(1)),
        &|r| with_field(r, "xbs", |x| x.replacen(",-;", ";", 1)),
        "kv_cores",
        Kv(R::BlockCount),
    );
    resume(
        "block over capacity",
        s3,
        g3,
        &on("kv_cores", Some(1)),
        &|r| with_field(r, "xbs", |x| x.replacen(":256", ":99999", 1)),
        "kv_cores",
        Kv(R::Overfull),
    );
    // The KV rows of shape 3's decode wafer: each sequence entry is
    // `seq:k_cursor:v_cursor:shared`, `shared` being `group.nodes` or `-`.
    let seqs = on("kv_seqs", Some(1));
    let entries: Vec<String> = field(rows_of(g3).into_iter().find(|r| seqs(r)).unwrap(), "entries")
        .split(';')
        .map(str::to_string)
        .collect();
    let parts = |entry: &str| entry.split(':').map(str::to_string).collect::<Vec<_>>();
    let (first, second) = (parts(&entries[0]), parts(&entries[1]));
    let join = |entries: &[String]| entries.join(";");
    let with_entry = |at: usize, entry: String| {
        let mut edited = entries.clone();
        edited[at] = entry;
        join(&edited)
    };
    resume(
        "fewer allocations than live blocks",
        s3,
        g3,
        &on("kv", Some(1)),
        &|r| with_field(r, "allocated", |_| "0".into()),
        "kv",
        Kv(R::Allocations),
    );
    let private = entries.iter().position(|e| e.ends_with(":-")).expect("a sequence that shares nothing");
    let without_private = {
        let mut edited = entries.clone();
        edited.remove(private);
        join(&edited)
    };
    resume(
        "private blocks without their entry",
        s3,
        g3,
        &seqs,
        &|r| with_field(r, "entries", |_| without_private.clone()),
        "kv_seqs",
        Kv(R::UnknownSequence),
    );
    let twice = format!("{};{}", join(&entries), entries[entries.len() - 1]);
    resume(
        "sequence entry twice",
        s3,
        g3,
        &seqs,
        &|r| with_field(r, "entries", |_| twice.clone()),
        "kv_seqs",
        Kv(R::UnknownSequence),
    );
    // Each of the first two sequences' K cursor on the other's block.
    let swapped = {
        let mut edited = entries.clone();
        edited[0] = [first[0].as_str(), &second[1], &first[2], &first[3]].join(":");
        edited[1] = [second[0].as_str(), &first[1], &second[2], &second[3]].join(":");
        join(&edited)
    };
    resume(
        "cursor on another sequence's block",
        s3,
        g3,
        &seqs,
        &|r| with_field(r, "entries", |_| swapped.clone()),
        "kv_seqs",
        Kv(R::NotOwned),
    );
    // The first sequence's K cursor block holding a token less than its V
    // cursor block.
    let k_cursor: Vec<usize> = first[1].split('.').map(|n| n.parse().unwrap()).collect();
    let k_core = format!(r#"{{"section":"kv_cores","wafer":"1","side":"k","core":"{}""#, k_cursor[0]);
    resume(
        "K and V fills that disagree",
        s3,
        g3,
        &|r: &str| r.starts_with(&k_core),
        &|r| {
            with_field(r, "xbs", |xbs| {
                with_block(xbs, k_cursor[1], k_cursor[2], |b| {
                    let (owner, used) = b.split_once(':').unwrap();
                    format!("{owner}:{}", used.parse::<usize>().unwrap() - 1)
                })
            })
        },
        "kv_seqs",
        Kv(R::FillMismatch),
    );
    let sharer = entries.iter().position(|e| !e.ends_with(":-")).expect("a sharer");
    let past_chain = with_entry(sharer, format!("{}.99", entries[sharer].rsplit_once('.').unwrap().0));
    resume(
        "sharer past its chain",
        s3,
        g3,
        &seqs,
        &|r| with_field(r, "entries", |_| past_chain.clone()),
        "kv_seqs",
        Kv(R::Sharer),
    );
    // A chain whose one sharer stops sharing keeps nodes nobody references.
    let group = |e: &str| parts(e)[3].split('.').next().unwrap().to_string();
    let sole = entries
        .iter()
        .position(|e| !e.ends_with(":-") && entries.iter().filter(|o| group(o) == group(e)).count() == 1)
        .expect("a chain with one sharer");
    let unshared = with_entry(sole, format!("{}:-", entries[sole].rsplit_once(':').unwrap().0));
    resume(
        "chain without a sharer",
        s3,
        g3,
        &seqs,
        &|r| with_field(r, "entries", |_| unshared.clone()),
        "kv_shared",
        Kv(R::Unreferenced),
    );
    let chains = on("kv_shared", Some(1));
    resume(
        "chain without nodes",
        s3,
        g3,
        &chains,
        &|r| with_field(r, "nodes", |_| String::new()),
        "kv_shared",
        Kv(R::ChainCore),
    );
    resume(
        "chain on a sequence's block",
        s3,
        g3,
        &chains,
        &|r| with_field(r, "nodes", |n| n.replacen(n.split('!').next().unwrap(), &first[1], 1)),
        "kv_shared",
        Kv(R::ChainNotOwned),
    );
    resume(
        "shared blocks in no node",
        s3,
        g3,
        &chains,
        &|r| with_field(r, "nodes", |n| n.rsplit_once(';').expect("a chain of two nodes").0.to_string()),
        "kv_shared",
        Kv(R::Unchained),
    );
    let local = |r: &str| on("pending", None)(r) && field(r, "imported") == "0";
    resume(
        "pending trace index past the trace",
        &saturated,
        sat,
        &local,
        &|r| with_field(r, "id", |_| "9999".into()),
        "pending",
        IndexOutOfRange,
    );
    resume(
        "wire tokens on a local row",
        &saturated,
        sat,
        &local,
        &|r| with_field(r, "wire_tokens", |_| "9".into()),
        "pending",
        LocalWireTokens,
    );
    resume(
        "pending counters overflow",
        &saturated,
        sat,
        &local,
        &|r| with_field(r, "decoded", |_| u64::MAX.to_string()),
        "pending",
        CounterOverflow,
    );
    // Every prompt of the saturated workload is 128 tokens.
    resume(
        "wire tokens past the prompt",
        &saturated,
        sat,
        &local,
        &|r| with_field(&with_field(r, "imported", |_| "1".into()), "wire_tokens", |_| "129".into()),
        "pending",
        WireTokensPastPrompt,
    );
    // A finished request's record, gone from the document.
    let (no_record, _, _) = edit_row(g3, on("record", None), drop);
    cases.push(("record row missing", s3, no_record, rejected(None, "meta", RoutedMismatch)));
    let one_wafer = without_rows(g0, |r| r.contains(r#""wafer":"1""#));
    cases.push(("wafer missing", s0, one_wafer, rejected(None, "engine", WaferCount)));
    let no_faults = without_rows(g3, |r| r.starts_with(r#"{"section":"injector"#));
    cases.push(("fault state missing", s3, no_faults, rejected(None, "injector", FaultState)));
    let (past_window, _, _) =
        edit_row(g3, on("injector_wafer", Some(1)), |r| with_field(r, "fired", |_| "99999".into()));
    cases.push((
        "fault past the window",
        s3,
        past_window,
        rejected(Some(1), "injector_wafer", IndexOutOfRange),
    ));

    let mut seen = std::collections::BTreeSet::new();
    for (case, scenario, json, expected) in &cases {
        let err = match Snapshot::parse(json) {
            Err(e) => e,
            Ok(snap) => scenario.resume(sys, &snap).err().unwrap_or_else(|| panic!("{case}: resumed")),
        };
        assert_eq!(err, *expected, "{case}");
        seen.insert(kind_index(err.kind));
    }
    assert!(seen.into_iter().eq(0..32), "every kind must be reached");
}

#[test]
fn resume_rejects_kv_rows_that_do_not_fit_the_system() {
    let sys = tiny_system();
    let scenario = golden_shapes().remove(3).1;
    let json = golden_snapshot_json(3);
    let lines: Vec<&str> = json.lines().collect();
    // The last key-side core row of wafer 0: the rows left stay in order,
    // so the snapshot parses but lists one core too few.
    let last_k = lines
        .iter()
        .rfind(|l| l.starts_with(r#"{"section":"kv_cores","wafer":"0","side":"k""#))
        .expect("a key-side core row")
        .trim_end_matches(',');
    let dropped = without_rows(json, |row| row == last_k);
    // One allocated block holding a token more than a block fits.
    let kv = sys.serve_kv_config();
    let over = kv.crossbar.tokens_per_logical_block(kv.head_dim, 1) + 1;
    let (row, xbs) = lines
        .iter()
        .filter(|l| l.starts_with(r#"{"section":"kv_cores""#))
        .map(|l| (*l, field(l, "xbs")))
        .find(|(_, xbs)| xbs.contains(':'))
        .expect("a core row with an allocated block");
    let at = xbs.find(':').unwrap();
    let end = xbs[at..].find([',', ';']).map_or(xbs.len(), |n| at + n);
    let overfull = format!("{}:{over}{}", &xbs[..at], &xbs[end..]);
    let overfull_wafer = field(row, "wafer").parse().unwrap();
    let overfull = json.replace(row, &row.replace(&xbs, &overfull));
    for (case, json, wafer, kind) in [
        ("missing core row", dropped, 0, KvRestoreError::CoreCount),
        ("block over capacity", overfull, overfull_wafer, KvRestoreError::Overfull),
    ] {
        let snap = Snapshot::parse(&json).unwrap_or_else(|e| panic!("{case}: {e}"));
        let resumed = scenario.resume(&sys, &snap);
        assert_eq!(resumed.err(), Some(rejected(Some(wafer), "kv_cores", Kv(kind))), "{case}");
    }
    // A shared chain node has one slot per side: a node naming a second
    // key slot, or a third slot, does not fit. Neither parses: the values
    // are not in their key's encoding.
    let chain = lines.iter().find(|l| l.starts_with(r#"{"section":"kv_shared""#)).expect("a kv_shared row");
    let nodes = field(chain, "nodes");
    let (k, v) = nodes.split(';').next().unwrap().split_once('!').unwrap();
    let with_nodes = |edited: String| {
        let row = chain.trim_end_matches(',');
        json.replace(row, &row.replace(&format!(r#""nodes":"{nodes}""#), &format!(r#""nodes":"{edited}""#)))
    };
    let err = unparsed(row_index(json, chain), "kv_shared", Some("nodes"), BadValue);
    for (case, edited) in [
        (
            "shared node with two key slots",
            with_nodes(nodes.replacen(&format!("{k}!"), &format!("{k},{k}!"), 1)),
        ),
        (
            "shared node with three slots",
            with_nodes(nodes.replacen(&format!("{k}!{v}"), &format!("{k}!{v}!{v}"), 1)),
        ),
    ] {
        assert_ne!(edited, json, "{case}: the edit must change the document");
        assert_eq!(Snapshot::parse(&edited).err(), Some(err), "{case}");
    }
}

#[test]
fn resume_rejects_engine_counters_that_differ_from_their_rows() {
    // The queue counters are derived from the pending rows, and only an
    // import carries wire tokens: a local row with some is foreign state,
    // not a run to continue. The evicted sequences queued at the saturated
    // midpoint are local recomputes.
    let sys = tiny_system();
    let scenario = saturated_long_decode();
    let mut run = scenario.start(&sys).unwrap();
    run.run_until(0.25);
    let json = scenario.checkpoint(&run).to_json();
    let local = json
        .lines()
        .find(|l| l.starts_with(r#"{"section":"pending""#) && field(l, "imported") == "0")
        .expect("a local pending row");
    let old = field(local, "wire_tokens");
    let edited = json.replace(
        local,
        &local.replace(&format!(r#""wire_tokens":"{old}""#), &format!(r#""wire_tokens":"9{old}""#)),
    );
    assert_ne!(edited, json, "the edit must change the document");
    let resumed = Snapshot::parse(&edited).map(|snap| scenario.resume(&sys, &snap).map(|_| ()));
    let wafer = field(local, "wafer").parse().unwrap();
    assert_eq!(
        resumed,
        Ok(Err(rejected(Some(wafer), "pending", LocalWireTokens))),
        "wire tokens on a local pending row must not resume"
    );
}

#[test]
fn resume_rejects_an_import_that_ships_more_than_its_prompt() {
    // An import ships at most its prompt's KV (`Engine::submit_with`
    // asserts it). A pending row claiming more would book the excess as
    // materialized at admission, or as dropped imported tokens.
    let sys = tiny_system();
    let scenario = saturated_long_decode();
    let json = saturated_snapshot_json();
    let local = json
        .lines()
        .find(|l| l.starts_with(r#"{"section":"pending""#) && field(l, "imported") == "0")
        .expect("a local pending row");
    let wafer = field(local, "wafer").parse().unwrap();
    let prompt = 128; // every prompt of the saturated workload
    for (wire_tokens, fits) in [(prompt, true), (prompt + 1, false), (1_000_000, false)] {
        let row = with_field(local, "imported", |_| "1".into());
        let row = with_field(&row, "wire_tokens", |_| wire_tokens.to_string());
        let edited = json.replace(local.trim_end_matches(','), row.trim_end_matches(','));
        assert_ne!(edited, json, "the edit must change the document");
        let resumed = Snapshot::parse(&edited).map(|snap| scenario.resume(&sys, &snap).map(|_| ()));
        let expected =
            if fits { Ok(()) } else { Err(rejected(Some(wafer), "pending", WireTokensPastPrompt)) };
        assert_eq!(resumed, Ok(expected), "{wire_tokens} wire tokens on a {prompt}-token prompt");
    }
}

#[test]
fn resume_rejects_shared_chains_on_blocks_their_group_does_not_own() {
    let (sys, scenarios) = golden_runs();
    let scenario = &scenarios[3];
    let json = golden_snapshot_json(3);
    let line = json.lines().find(|l| l.starts_with(r#"{"section":"kv_shared""#)).expect("a shared chain row");
    let wafer = field(line, "wafer");
    // The first node's key-side slot, `core.crossbar.block`.
    let nodes = field(line, "nodes");
    let slot = nodes.split('!').next().unwrap();
    let core = slot.split('.').next().unwrap();
    let core_row = format!(r#"{{"section":"kv_cores","wafer":"{wafer}","side":"k","core":"{core}""#);
    let xbs = field(json.lines().find(|l| l.starts_with(&core_row)).expect("the slot's core row"), "xbs");
    let free = xbs
        .split(';')
        .enumerate()
        .find_map(|(xb, blocks)| {
            let block = blocks.split_once('!').unwrap().1.split(',').position(|b| b == "-")?;
            Some(format!("{core}.{xb}.{block}"))
        })
        .expect("a free block on the slot's core");
    let moved =
        json.replace(line, &line.replacen(&format!(r#""nodes":"{slot}"#), &format!(r#""nodes":"{free}"#), 1));
    let snap = Snapshot::parse(&moved).unwrap();
    let wafer = wafer.parse().unwrap();
    let err = rejected(Some(wafer), "kv_shared", Kv(KvRestoreError::ChainNotOwned));
    assert_eq!(scenario.resume(sys, &snap).err(), Some(err));
}

#[test]
fn swapped_injector_wafer_rows_are_rejected() {
    // One of the golden shape's two wafers has been struck at its midpoint
    // and the other not.
    let json = golden_snapshot_json(3);
    let mut rows: Vec<&str> =
        json.lines().filter(|l| l.starts_with('{')).map(|l| l.trim_end_matches(',')).collect();
    let at: Vec<usize> =
        (0..rows.len()).filter(|&i| rows[i].starts_with(r#"{"section":"injector_wafer""#)).collect();
    let &[a, b] = at.as_slice() else { panic!("one injector_wafer row per wafer of two") };
    // Guard: the wafers' fault states differ, so swapped rows would
    // resume a different run.
    let state = |row: &str| {
        let wafer = field(row, "wafer");
        row.replacen(&format!(r#""wafer":"{wafer}""#), "", 1)
    };
    assert_ne!(state(rows[a]), state(rows[b]), "the two injector_wafer rows must differ");
    rows.swap(a, b);
    let swapped = format!("[\n{}\n]\n", rows.join(",\n"));
    let err = unparsed(a, "injector_wafer", Some("wafer"), OutOfOrder);
    assert_eq!(Snapshot::parse(&swapped).err(), Some(err), "rows out of wafer order must not parse");
}

/// `text` without ASCII whitespace, which no snapshot value contains.
fn without_whitespace(text: &str) -> String {
    text.chars().filter(|c| !c.is_ascii_whitespace()).collect()
}

proptest! {
    #[test]
    fn truncated_snapshots_are_errors_not_panics(shape in 0usize..4, cut in 0usize..1 << 20) {
        let json = golden_snapshot_json(shape);
        let cut = cut % json.len();
        let prefix = String::from_utf8_lossy(&json.as_bytes()[..cut]);
        // Any cut before the closing bracket leaves the array unclosed.
        let closed = cut > json.rfind(']').unwrap();
        prop_assert_eq!(read_rows(&prefix).is_ok(), closed);
        let parsed = Snapshot::parse(&prefix);
        prop_assert_eq!(parsed.is_ok(), closed);
        if let Ok(snap) = parsed {
            prop_assert_eq!(without_whitespace(&snap.to_json()), without_whitespace(&prefix));
        }
    }

    #[test]
    fn dropped_rows_are_errors_or_complete_runs(shape in 0usize..4, at in 0usize..1 << 20) {
        let rows: Vec<&str> = golden_snapshot_json(shape)
            .lines()
            .filter(|l| l.starts_with('{'))
            .map(|l| l.trim_end_matches(','))
            .collect();
        let at = at % rows.len();
        let kept: Vec<&str> = rows.iter().enumerate().filter(|&(i, _)| i != at).map(|(_, r)| *r).collect();
        let text = format!("[\n{}\n]\n", kept.join(",\n"));
        // A document missing one row parses to `Err`, resumes to `Err`, or
        // runs to the end; it never panics.
        if let Ok(snap) = Snapshot::parse(&text) {
            let (sys, scenarios) = golden_runs();
            if let Ok(mut run) = scenarios[shape].resume(sys, &snap) {
                run.run_to_end();
                run.finish();
            }
        }
    }

    #[test]
    fn flipped_snapshots_never_panic(shape in 0usize..4, at in 0usize..1 << 20, flip in 1u8..=255) {
        let mut bytes = golden_snapshot_json(shape).as_bytes().to_vec();
        let at = at % bytes.len();
        bytes[at] ^= flip;
        let text = String::from_utf8_lossy(&bytes);
        let _ = read_rows(&text);
        // A document that still parses is canonical: it writes back to
        // itself, whitespace aside. It resumes to `Ok` or `Err`, never a
        // panic.
        if let Ok(snap) = Snapshot::parse(&text) {
            prop_assert_eq!(without_whitespace(&snap.to_json()), without_whitespace(&text));
            let (sys, scenarios) = golden_runs();
            let _ = scenarios[shape].resume(sys, &snap);
        }
    }
}

#[test]
fn a_mid_block_checkpoint_resumes_exactly() {
    // Checkpoint at a step that is no resident sequence's event: each has
    // decoded past its first token and sits inside a KV block, short of
    // the token that opens the next block and of its last token. The
    // snapshot must still hold every decoded token, in the active rows and
    // in the KV rows, and the hash pins those bytes.
    let sys = tiny_system();
    let scenario = saturated_long_decode();
    let (prompt, decode) = (128, 2048);
    let tokens_per_block = KvManager::new(sys.serve_kv_config()).unwrap().tokens_per_block();
    let mid_s = 0.21;
    let mut run = scenario.start(&sys).unwrap();
    run.run_until(mid_s);
    let engine = &run.engines()[0];
    assert!(engine.stats().evictions > 0, "the checkpoint must follow evictions");
    assert!(engine.queue_len() > 0, "evicted sequences must still wait in the queue");
    let json = scenario.checkpoint(&run).to_json();
    let rows = read_rows(&json).unwrap();
    let active: Vec<(usize, usize)> = rows
        .iter()
        .filter(|r| r.get_str("section").unwrap() == "active")
        .map(|r| {
            let n = |key| r.get_str(key).unwrap().parse::<usize>().unwrap();
            (n("prefill_remaining"), n("decoded"))
        })
        .collect();
    assert_eq!(active.len(), engine.resident());
    assert!(active.len() > 16, "the cache must hold many sequences");
    for (prefill_remaining, decoded) in active {
        assert_eq!(prefill_remaining, 0, "every resident sequence is decoding");
        assert!(decoded > 1 && decoded < decode, "{decoded} is a first or last token");
        assert_ne!((prompt + decoded - 1) % tokens_per_block, 0, "token {decoded} opened a block");
    }
    // Against the v6 document only the meta row's version, the in-flight
    // rows, the kv row and the per-sequence rows moved, as at 0.25 s.
    assert_eq!(fnv1a(json.as_bytes()), 0xe12d_745e_eaa1_656c, "mid-block snapshot bytes drifted");
    let straight = scenario.run(&sys).unwrap();
    let resumed = run_via_snapshot(&scenario, &sys, mid_s);
    assert_eq!(straight, resumed, "resumed report diverged");
    assert_eq!(format!("{straight:?}"), format!("{resumed:?}"), "resumed report Debug form diverged");
}
