//! Checkpoint/resume identity: the golden proof that a [`Snapshot`] is the
//! *complete* simulator state.
//!
//! Each shape runs twice — once straight to the horizon, once to the
//! midpoint, through a snapshot → JSON → parse → resume round trip, then to
//! the horizon — and the two final [`ouro_serve::RunReport`]s must be
//! byte-identical (`PartialEq` plus the rendered `Debug` form, which pins
//! every float bit). The four shapes cover the scenario matrix the repo's
//! goldens pin: colocated/disaggregated × faults × prefix caching, over
//! open- and closed-loop arrival processes.

use ouro_model::zoo;
use ouro_serve::json::read_rows;
use ouro_serve::{FaultConfig, RunReport, Scenario, SloConfig, Snapshot};
use ouro_sim::{OuroborosConfig, OuroborosSystem};
use ouro_workload::{ArrivalConfig, LengthConfig, SessionConfig, TimedTrace, TraceGenerator};
use proptest::prelude::*;
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

    // 3. Colocated under runtime faults, closed-loop clients (the think
    //    stream and the fault schedule must both survive the checkpoint).
    let trace = TraceGenerator::new(37).generate(&LengthConfig::fixed(128, 16), 30);
    let timed = ArrivalConfig::ClosedLoop { users: 6, think_time_s: 0.02 }.assign(&trace, 37);
    let faulty = (
        "colocated-faults-closed-loop",
        Scenario::colocated(2).faults(FaultConfig::new(0.08, 37)).slo(slo).workload(timed.clone()),
        mid(&timed),
    );

    // 4. Disaggregated with faults, prefix caching and a finite horizon
    //    (arrival cutoff + fault window both derive from the horizon).
    let trace = SessionConfig::chat(3, 0.4).generate(32, 53);
    let timed = ArrivalConfig::Bursty { rate_rps: 350.0, cv: 4.0 }.assign(&trace, 53);
    let horizon = timed.last_arrival_s() * 0.8;
    let all_on = (
        "disagg-faults-prefix-horizon",
        Scenario::disaggregated(1, 1)
            .prefix_caching(true)
            .faults(FaultConfig::new(0.06, 53))
            .horizon(horizon)
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
#[should_panic(expected = "differently-configured scenario")]
fn resuming_under_a_different_config_is_rejected() {
    let sys = tiny_system();
    let (_, scenario, mid_s) = golden_shapes().remove(0);
    let mut run = scenario.start(&sys).unwrap();
    run.run_until(mid_s);
    let snap = scenario.checkpoint(&run);
    let other = golden_shapes().remove(1).1;
    let _ = other.resume(&sys, &snap);
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
            "completed",
            "faults_fired",
            "router_state",
            "placement_state",
            "think_rng",
            "arrivals",
            "gated",
        ],
    ),
    (
        "migration",
        &[
            "section", "id", "from", "to", "tokens", "deduped", "bytes", "start_s", "arrive_s", "hops",
            "energy_j",
        ],
    ),
    (
        "engine",
        &[
            "section",
            "wafer",
            "clock_s",
            "busy_s",
            "suspended",
            "pending_tokens",
            "pending_wire_tokens",
            "mean_hops",
            "order_counter",
            "stats",
        ],
    ),
    (
        "record",
        &[
            "section",
            "wafer",
            "id",
            "rwafer",
            "prompt",
            "decode",
            "arrival_s",
            "admitted_s",
            "queue_wait_s",
            "first_token_s",
            "completed_s",
            "evictions",
            "cached_prefix",
            "shared",
        ],
    ),
    (
        "pending",
        &[
            "section",
            "wafer",
            "ready_s",
            "rec",
            "decoded",
            "imported",
            "wire_tokens",
            "evicted",
            "prefill_only",
        ],
    ),
    (
        "active",
        &["section", "wafer", "rec", "prefill_remaining", "decoded", "admission_order", "prefill_only"],
    ),
    ("kv", &["section", "wafer", "ring_k", "ring_v", "allocated", "freed", "transfers"]),
    ("kv_cores", &["section", "wafer", "side", "core", "xbs"]),
    ("kv_page", &["section", "wafer", "entries"]),
    ("kv_cursor", &["section", "wafer", "entries"]),
    ("kv_seq_blocks", &["section", "wafer", "entries"]),
    ("kv_resident", &["section", "wafer", "entries"]),
    ("kv_shared", &["section", "wafer", "group", "k_cores", "v_cores", "nodes"]),
    ("kv_seq_shared", &["section", "wafer", "entries"]),
    ("injector", &["section", "events", "counters"]),
    ("injector_wafer", &["section", "wafer", "assignment", "kv_cores", "failed", "death_s", "stall_s"]),
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
        // Probe several instants per shape: transient sections (`pending`,
        // `migration`, …) are only non-empty at some points of a run.
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
}

/// A real mid-run snapshot of the richest golden shape (disaggregated,
/// faults, prefix caching), rendered once for the corruption properties.
fn golden_snapshot_json() -> &'static str {
    static JSON: OnceLock<String> = OnceLock::new();
    JSON.get_or_init(|| {
        let sys = tiny_system();
        let (_, scenario, mid_s) = golden_shapes().remove(3);
        let mut run = scenario.start(&sys).unwrap();
        run.run_until(mid_s);
        scenario.checkpoint(&run).to_json()
    })
}

proptest! {
    #[test]
    fn truncated_snapshots_are_errors_not_panics(cut in 0usize..1 << 20) {
        let json = golden_snapshot_json();
        let cut = cut % json.len();
        let prefix = String::from_utf8_lossy(&json.as_bytes()[..cut]);
        // Any cut before the closing bracket leaves the array unclosed.
        let closed = cut > json.rfind(']').unwrap();
        prop_assert_eq!(read_rows(&prefix).is_ok(), closed);
        prop_assert_eq!(Snapshot::parse(&prefix).is_ok(), closed);
    }

    #[test]
    fn flipped_snapshots_never_panic(at in 0usize..1 << 20, flip in 1u8..=255) {
        let mut bytes = golden_snapshot_json().as_bytes().to_vec();
        let at = at % bytes.len();
        bytes[at] ^= flip;
        let text = String::from_utf8_lossy(&bytes);
        let _ = read_rows(&text);
        let _ = Snapshot::parse(&text);
    }
}
