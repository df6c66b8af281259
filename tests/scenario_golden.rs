//! Report-compatibility goldens for the unified `Scenario` API.
//!
//! The `Scenario` driver replaced four bespoke run loops
//! (`Cluster::run{,_with_faults}`, `DisaggCluster::run{,_with_faults}`)
//! with one shared discrete-event loop. These tests pin, per seed, the
//! exact metric values the *pre-migration* entry points produced on
//! identical traffic — full `Debug` fingerprints captured from the old
//! code immediately before it was deleted — and assert the unified
//! [`ouroboros::serve::RunReport`] reproduces them bit for bit. Every
//! simulated quantity is a pure function of the seeds, so any divergence
//! here means the shared loop changed event ordering or accounting, not
//! just formatting.
//!
//! The second half covers the JSON side of the schema: a flat round-trip
//! through the one `RunReport` schema and a pinned key list that fails
//! loudly when a key is renamed or dropped without bumping
//! `SCHEMA_VERSION`. Last, the `experiments scenario` matrix at 160
//! requests per cell shows every axis of the API in that one report.

use ouro_bench::serving_setup;
use ouroboros::model::zoo;
use ouroboros::serve::{
    parallel_map_indexed, placements, routers, FaultConfig, MigrationStats, RunReport, Scenario, SloConfig,
    SCHEMA_VERSION,
};
use ouroboros::sim::{OuroborosConfig, OuroborosSystem};
use ouroboros::workload::{ArrivalConfig, LengthConfig, SessionConfig, TimedTrace, TraceGenerator};

fn tiny_system() -> OuroborosSystem {
    OuroborosSystem::new(OuroborosConfig::tiny_for_tests(), &zoo::bert_large()).unwrap()
}

fn slo() -> SloConfig {
    SloConfig { ttft_s: 0.5, tpot_s: 0.05 }
}

fn timed(n: usize, rate: f64, seed: u64) -> TimedTrace {
    let trace = TraceGenerator::new(seed).generate(&LengthConfig::fixed(64, 32), n);
    ArrivalConfig::Poisson { rate_rps: rate }.assign(&trace, seed)
}

/// The migration fingerprint format the pre-migration `DisaggReport`
/// fields were captured in.
fn migration_fingerprint(m: &MigrationStats) -> String {
    format!(
        "{:?}",
        (
            m.migrations,
            m.migrated_tokens,
            m.exported_kv_bytes,
            m.imported_kv_bytes,
            m.in_flight_kv_bytes,
            m.dropped_kv_bytes,
            m.deduped_kv_bytes,
            m.mean_migration_s,
            m.max_migration_s,
            m.link_energy_j,
            m.prefill_utilization,
            m.decode_utilization,
        )
    )
}

// ---- fingerprints captured from the pre-migration entry points ----------

const GOLDEN_A_COLOCATED: &str = "ServingReport { offered_rps: Some(200.0), injected: 60, completed: 60, queued_at_horizon: 0, in_flight_at_horizon: 0, dropped: 0, evictions: 0, prefilled_tokens: 3840, cached_prefix_tokens: 0, duration_s: 0.2670201593644123, achieved_rps: 224.70213538490094, output_tokens_per_s: 7190.46833231683, goodput_rps: 224.70213538490094, slo_attainment: 1.0, ttft: LatencyStats { count: 60, mean_s: 0.000190252091410495, p50_s: 0.00018465600000000526, p95_s: 0.0002369655988260222, p99_s: 0.000254806430110624, max_s: 0.000254806430110624 }, tpot: LatencyStats { count: 60, mean_s: 9.303496290322608e-5, p50_s: 9.303535483870976e-5, p95_s: 9.304270967742004e-5, p99_s: 9.304735483870949e-5, max_s: 9.304735483870949e-5 }, e2e: LatencyStats { count: 60, mean_s: 0.0030743359414105056, p50_s: 0.003068752000000008, p95_s: 0.0031212895988260436, p99_s: 0.0031392039301106067, max_s: 0.0031392039301106067 }, utilization: 0.324932621029525 }";

const GOLDEN_B_CLOSED_LOOP: &str = "ServingReport { offered_rps: None, injected: 30, completed: 30, queued_at_horizon: 0, in_flight_at_horizon: 0, dropped: 0, evictions: 0, prefilled_tokens: 960, cached_prefix_tokens: 0, duration_s: 0.06194954164272701, achieved_rps: 484.2650842037676, output_tokens_per_s: 7748.241347260281, goodput_rps: 484.2650842037676, slo_attainment: 1.0, ttft: LatencyStats { count: 30, mean_s: 0.00018386786335544437, p50_s: 0.0001831840000000029, p95_s: 0.00019124067833738503, p99_s: 0.00019564322232589913, max_s: 0.00019564322232589913 }, tpot: LatencyStats { count: 30, mean_s: 9.225677111111137e-5, p50_s: 9.225840000000017e-5, p95_s: 9.22584000000004e-5, p99_s: 9.226560000000031e-5, max_s: 9.226560000000031e-5 }, e2e: LatencyStats { count: 30, mean_s: 0.0015677194300221142, p50_s: 0.0015670600000000055, p95_s: 0.0015752246783373898, p99_s: 0.0015795192223258992, max_s: 0.0015795192223258992 }, utilization: 0.3347959839576148 }";

const GOLDEN_C_FAULTY_SERVING: &str = "ServingReport { offered_rps: Some(400.0), injected: 60, completed: 60, queued_at_horizon: 0, in_flight_at_horizon: 0, dropped: 0, evictions: 7, prefilled_tokens: 4434, cached_prefix_tokens: 0, duration_s: 0.12252384937079104, achieved_rps: 489.7005791780457, output_tokens_per_s: 15670.418533697462, goodput_rps: 489.7005791780457, slo_attainment: 1.0, ttft: LatencyStats { count: 60, mean_s: 0.00020564002765349252, p50_s: 0.0001852320000000074, p95_s: 0.00026205706711554533, p99_s: 0.00044579555618425026, max_s: 0.00044579555618425026 }, tpot: LatencyStats { count: 60, mean_s: 9.57745877240143e-5, p50_s: 9.303825806451625e-5, p95_s: 0.00011330675806451558, p99_s: 0.00012859185483870948, max_s: 0.00012859185483870948 }, e2e: LatencyStats { count: 60, mean_s: 0.0031746522470979355, p50_s: 0.0030782559999999876, p95_s: 0.0037040367009472386, p99_s: 0.004260769987748894, max_s: 0.004260769987748894 }, utilization: 0.563638323787406 }";

const GOLDEN_C_FAULTS: &str = "FaultReport { config: FaultConfig { mtbf_s: 0.02, remap_stall_s: 0.0005, seed: 5 }, wafers: 2, faults_injected: 10, chains_built: 10, tiles_moved: 10, chain_cores: 20, kv_cores_lost: 10, sequences_recomputed: 7, kv_tokens_evicted: 594, kv_bytes_evicted: 29196288, unrepaired_faults: 0, dead_wafers: 0, total_stall_s: 0.005, dead_time_s: 0.0, duration_s: 0.12252384937079104, availability: 0.9795958092009147 }";

const GOLDEN_D_DISAGG_SERVING: &str = "ServingReport { offered_rps: Some(400.0), injected: 60, completed: 60, queued_at_horizon: 0, in_flight_at_horizon: 0, dropped: 0, evictions: 0, prefilled_tokens: 3840, cached_prefix_tokens: 0, duration_s: 0.13512106445022862, achieved_rps: 444.04623545650645, output_tokens_per_s: 14209.479534608206, goodput_rps: 444.04623545650645, slo_attainment: 1.0, ttft: LatencyStats { count: 60, mean_s: 0.00023474093712672853, p50_s: 0.00021871328000000467, p95_s: 0.000297776469855085, p99_s: 0.00030697576882512956, max_s: 0.00030697576882512956 }, tpot: LatencyStats { count: 60, mean_s: 9.303477903225809e-5, p50_s: 9.303535483870954e-5, p95_s: 9.304754838709671e-5, p99_s: 9.30476451612911e-5, max_s: 9.30476451612911e-5 }, e2e: LatencyStats { count: 60, mean_s: 0.0031188190871267295, p50_s: 0.0031026092800000293, p95_s: 0.003182049469855064, p99_s: 0.0031914077688251358, max_s: 0.0031914077688251358 }, utilization: 0.27717462967289874 }";

const GOLDEN_D_MIGRATION: &str = "(60, 3840, 188743680, 188743680, 0, 0, 0, 3.395394666666507e-5, 3.4057279999999846e-5, 0.037497077760000025, 0.020498950413614166, 0.5338503089321833)";

const GOLDEN_E_PREFIX_DISAGG_SERVING: &str = "ServingReport { offered_rps: Some(2000.0), injected: 20, completed: 20, queued_at_horizon: 0, in_flight_at_horizon: 0, dropped: 0, evictions: 0, prefilled_tokens: 3726, cached_prefix_tokens: 6400, duration_s: 0.010044185151127686, achieved_rps: 1991.2018445572512, output_tokens_per_s: 33949.991449701134, goodput_rps: 1991.2018445572512, slo_attainment: 1.0, ttft: LatencyStats { count: 20, mean_s: 0.0005267280533068656, p50_s: 0.0005554381203395379, p95_s: 0.0006440470799999999, p99_s: 0.0006659405599999998, max_s: 0.0006659405599999998 }, tpot: LatencyStats { count: 20, mean_s: 9.818692995552055e-5, p50_s: 9.824408333333332e-5, p95_s: 9.826902173913044e-5, p99_s: 9.827206250000002e-5, max_s: 9.827206250000002e-5 }, e2e: LatencyStats { count: 20, mean_s: 0.0021025648783068672, p50_s: 0.0022630192649258475, p95_s: 0.0027650875438585513, p99_s: 0.00290423458, max_s: 0.00290423458 }, utilization: 0.683627830101189 }";

const GOLDEN_E_MIGRATION: &str = "(20, 1422, 283803648, 69894144, 0, 0, 213909504, 3.724707199999996e-5, 0.00015162208000000003, 0.007856455679999999, 0.4482001209918528, 0.801341684655857)";

const GOLDEN_F_FAULTY_DISAGG_SERVING: &str = "ServingReport { offered_rps: Some(400.0), injected: 50, completed: 50, queued_at_horizon: 0, in_flight_at_horizon: 0, dropped: 0, evictions: 3, prefilled_tokens: 3445, cached_prefix_tokens: 0, duration_s: 0.12353980641700299, achieved_rps: 404.72784805269384, output_tokens_per_s: 12951.291137686203, goodput_rps: 404.72784805269384, slo_attainment: 1.0, ttft: LatencyStats { count: 50, mean_s: 0.0002587294791010413, p50_s: 0.00021928927999999986, p95_s: 0.00036983915816061336, p99_s: 0.0007091233426666545, max_s: 0.0007091233426666545 }, tpot: LatencyStats { count: 50, mean_s: 9.419196838709657e-5, p50_s: 9.303535483870931e-5, p95_s: 9.30512258064514e-5, p99_s: 0.00013160301612903164, max_s: 0.00013160301612903164 }, e2e: LatencyStats { count: 50, mean_s: 0.003178680499101037, p50_s: 0.0031031852800000037, p95_s: 0.003593711342666648, p99_s: 0.004298782779999982, max_s: 0.004298782779999982 }, utilization: 0.239988643012148 }";

const GOLDEN_F_MIGRATION: &str = "(50, 3200, 157286400, 157286400, 0, 0, 0, 3.392927999999868e-5, 3.4057279999999846e-5, 0.029695672320000005, 0.018749130884838507, 0.46122815513945753)";

const GOLDEN_F_FAULTS: &str = "FaultReport { config: FaultConfig { mtbf_s: 0.02, remap_stall_s: 0.0005, seed: 8 }, wafers: 4, faults_injected: 20, chains_built: 19, tiles_moved: 23, chain_cores: 42, kv_cores_lost: 19, sequences_recomputed: 3, kv_tokens_evicted: 245, kv_bytes_evicted: 12042240, unrepaired_faults: 1, dead_wafers: 1, total_stall_s: 0.0095, dead_time_s: 0.01220158825531703, duration_s: 0.12353980641700299, availability: 0.9560838144304996 }";

const GOLDEN_G_PREFIX_COLOCATED: &str = "ServingReport { offered_rps: Some(1500.0), injected: 60, completed: 60, queued_at_horizon: 0, in_flight_at_horizon: 0, dropped: 0, evictions: 0, prefilled_tokens: 11421, cached_prefix_tokens: 6912, duration_s: 0.03347510288778823, achieved_rps: 1792.3768659091438, output_tokens_per_s: 28349.427429129624, goodput_rps: 1792.3768659091438, slo_attainment: 1.0, ttft: LatencyStats { count: 60, mean_s: 0.0004460214680838595, p50_s: 0.00047482612414513994, p95_s: 0.0007074747437293485, p99_s: 0.0007976208763258788, max_s: 0.0007976208763258788 }, tpot: LatencyStats { count: 60, mean_s: 0.00010125279826380578, p50_s: 9.936999999999998e-5, p95_s: 0.00010831193055555605, p99_s: 0.00012003908333333354, max_s: 0.00012003908333333354 }, e2e: LatencyStats { count: 60, mean_s: 0.0019464597291949702, p50_s: 0.0019561433246463467, p95_s: 0.00277000778313026, p99_s: 0.002985776938765794, max_s: 0.002985776938765794 }, utilization: 0.8274242554587532 }";

#[test]
fn colocated_open_loop_reproduces_the_old_cluster_run() {
    let sys = tiny_system();
    let report = Scenario::colocated(2)
        .router(routers::least_kv_load())
        .slo(slo())
        .workload(timed(60, 200.0, 3))
        .run(&sys)
        .unwrap();
    assert_eq!(format!("{:?}", report.serving), GOLDEN_A_COLOCATED);
    assert!(report.migration.is_none() && report.faults.is_none());
}

#[test]
fn closed_loop_reproduces_the_old_cluster_run() {
    let sys = tiny_system();
    let trace = TraceGenerator::new(9).generate(&LengthConfig::fixed(32, 16), 30);
    let t = ArrivalConfig::ClosedLoop { users: 4, think_time_s: 0.01 }.assign(&trace, 9);
    let report = Scenario::colocated(2)
        .router(routers::join_shortest_queue())
        .slo(slo())
        .workload(t)
        .run(&sys)
        .unwrap();
    assert_eq!(format!("{:?}", report.serving), GOLDEN_B_CLOSED_LOOP);
}

#[test]
fn colocated_faults_reproduce_the_old_run_with_faults() {
    let sys = tiny_system();
    let report = Scenario::colocated(2)
        .router(routers::least_kv_load())
        .slo(slo())
        .faults(FaultConfig::new(0.02, 5))
        .workload(timed(60, 400.0, 5))
        .run(&sys)
        .unwrap();
    assert_eq!(format!("{:?}", report.serving), GOLDEN_C_FAULTY_SERVING);
    assert_eq!(format!("{:?}", report.faults.unwrap()), GOLDEN_C_FAULTS);
}

#[test]
fn disaggregated_run_reproduces_the_old_disagg_cluster() {
    let sys = tiny_system();
    let report = Scenario::disaggregated(2, 2).slo(slo()).workload(timed(60, 400.0, 3)).run(&sys).unwrap();
    assert_eq!(format!("{:?}", report.serving), GOLDEN_D_DISAGG_SERVING);
    assert_eq!(migration_fingerprint(&report.migration.unwrap()), GOLDEN_D_MIGRATION);
}

#[test]
fn prefix_affine_disagg_reproduces_the_old_dedup_accounting() {
    let sys = tiny_system();
    let cfg = SessionConfig {
        groups: 1,
        shared_prefix_tokens: 256,
        share_ratio: 1.0,
        max_turns: 1,
        user_turn_tokens: 32,
        decode_tokens: 16,
    };
    let trace = cfg.generate(20, 31);
    let t = ArrivalConfig::Poisson { rate_rps: 2_000.0 }.assign(&trace, 31);
    let report = Scenario::disaggregated(1, 2)
        .placement(placements::prefix_affinity())
        .slo(slo())
        .workload(t)
        .run(&sys)
        .unwrap();
    assert_eq!(format!("{:?}", report.serving), GOLDEN_E_PREFIX_DISAGG_SERVING);
    assert_eq!(migration_fingerprint(&report.migration.unwrap()), GOLDEN_E_MIGRATION);
}

#[test]
fn disaggregated_faults_reproduce_the_old_run_with_faults() {
    let sys = tiny_system();
    let report = Scenario::disaggregated(2, 2)
        .slo(slo())
        .faults(FaultConfig::new(0.02, 8))
        .workload(timed(50, 400.0, 8))
        .run(&sys)
        .unwrap();
    assert_eq!(format!("{:?}", report.serving), GOLDEN_F_FAULTY_DISAGG_SERVING);
    assert_eq!(migration_fingerprint(&report.migration.unwrap()), GOLDEN_F_MIGRATION);
    assert_eq!(format!("{:?}", report.faults.unwrap()), GOLDEN_F_FAULTS);
}

#[test]
fn prefix_affinity_routing_reproduces_the_old_cluster_run() {
    let sys = tiny_system();
    let cfg = SessionConfig {
        groups: 2,
        shared_prefix_tokens: 256,
        share_ratio: 0.7,
        max_turns: 2,
        user_turn_tokens: 32,
        decode_tokens: 16,
    };
    let trace = cfg.generate(60, 42);
    let t = ArrivalConfig::Poisson { rate_rps: 1_500.0 }.assign(&trace, 42);
    let report =
        Scenario::colocated(2).router(routers::prefix_affinity()).slo(slo()).workload(t).run(&sys).unwrap();
    assert_eq!(format!("{:?}", report.serving), GOLDEN_G_PREFIX_COLOCATED);
}

// ---- JSON schema stability -----------------------------------------------

/// A deliberately tiny flat-JSON parser: enough to round-trip the one
/// `RunReport` row shape (flat object, string/number/null values).
fn parse_flat_json(s: &str) -> Vec<(String, String)> {
    let body = s.trim().strip_prefix('{').and_then(|s| s.strip_suffix('}')).expect("a flat object");
    let mut fields = Vec::new();
    let mut rest = body.trim();
    while !rest.is_empty() {
        rest = rest.strip_prefix(',').unwrap_or(rest).trim_start();
        if rest.is_empty() {
            break;
        }
        let rest2 = rest.strip_prefix('"').expect("keys are quoted");
        let close = rest2.find('"').expect("key closes");
        let key = &rest2[..close];
        let after = rest2[close + 1..].trim_start().strip_prefix(':').expect("colon").trim_start();
        let (value, remaining) = if let Some(sr) = after.strip_prefix('"') {
            let end = sr.find('"').expect("string value closes (goldens contain no escapes)");
            (format!("\"{}\"", &sr[..end]), &sr[end + 1..])
        } else {
            let end = after.find(',').unwrap_or(after.len());
            (after[..end].trim().to_string(), &after[end..])
        };
        fields.push((key.to_string(), value));
        rest = remaining.trim_start();
    }
    fields
}

fn sample_reports() -> (RunReport, RunReport) {
    let sys = tiny_system();
    let colocated_clean = Scenario::colocated(2)
        .router(routers::least_kv_load())
        .slo(slo())
        .workload(timed(20, 200.0, 3))
        .run(&sys)
        .unwrap();
    let disagg_faulty = Scenario::disaggregated(1, 1)
        .slo(slo())
        .faults(FaultConfig::new(0.05, 8))
        .workload(timed(20, 200.0, 8))
        .run(&sys)
        .unwrap();
    (colocated_clean, disagg_faulty)
}

/// The flat row renders every metric it claims, and the values survive a
/// parse round-trip exactly (numbers are emitted with shortest round-trip
/// precision).
#[test]
fn run_report_json_round_trips() {
    let (colocated, disagg) = sample_reports();
    for report in [&colocated, &disagg] {
        let obj = report.json_object();
        let parsed = parse_flat_json(&obj.render());
        assert_eq!(
            parsed.len(),
            obj.keys().len(),
            "every field parses back: {} vs {}",
            parsed.len(),
            obj.keys().len()
        );
        let lookup = |key: &str| -> &str {
            &parsed.iter().find(|(k, _)| k == key).unwrap_or_else(|| panic!("key {key} missing")).1
        };
        assert_eq!(lookup("schema_version"), format!("{SCHEMA_VERSION}"));
        assert_eq!(lookup("deployment"), format!("\"{}\"", report.deployment.kind));
        assert_eq!(lookup("injected").parse::<usize>().unwrap(), report.serving.injected);
        assert_eq!(lookup("completed").parse::<usize>().unwrap(), report.serving.completed);
        assert_eq!(lookup("duration_s").parse::<f64>().unwrap(), report.serving.duration_s);
        assert_eq!(lookup("ttft_p99_s").parse::<f64>().unwrap(), report.serving.ttft.p99_s);
        assert_eq!(lookup("goodput_rps").parse::<f64>().unwrap(), report.serving.goodput_rps);
        match &report.migration {
            Some(m) => {
                assert_eq!(lookup("exported_kv_bytes").parse::<u64>().unwrap(), m.exported_kv_bytes)
            }
            None => assert_eq!(lookup("exported_kv_bytes"), "null"),
        }
        match &report.faults {
            Some(f) => assert_eq!(lookup("availability").parse::<f64>().unwrap(), f.availability),
            None => assert_eq!(lookup("availability"), "null"),
        }
    }
}

/// The pinned schema: the exact key list of a `RunReport` row, identical
/// for every scenario shape. Renaming, dropping, or reordering a key must
/// fail this test — that is the cue to bump `SCHEMA_VERSION` and update
/// the trajectory tooling.
#[test]
fn run_report_json_schema_is_pinned() {
    const SCHEMA_V1_KEYS: &[&str] = &[
        "schema_version",
        "deployment",
        "wafers",
        "prefill_wafers",
        "decode_wafers",
        "router",
        "placement",
        "offered_rps",
        "injected",
        "completed",
        "queued_at_horizon",
        "in_flight_at_horizon",
        "dropped",
        "evictions",
        "prefilled_tokens",
        "cached_prefix_tokens",
        "duration_s",
        "achieved_rps",
        "output_tokens_per_s",
        "goodput_rps",
        "slo_attainment",
        "utilization",
        "ttft_mean_s",
        "ttft_p50_s",
        "ttft_p95_s",
        "ttft_p99_s",
        "ttft_max_s",
        "tpot_mean_s",
        "tpot_p50_s",
        "tpot_p95_s",
        "tpot_p99_s",
        "tpot_max_s",
        "e2e_mean_s",
        "e2e_p50_s",
        "e2e_p95_s",
        "e2e_p99_s",
        "e2e_max_s",
        "migrations",
        "migrated_tokens",
        "exported_kv_bytes",
        "imported_kv_bytes",
        "in_flight_kv_bytes",
        "dropped_kv_bytes",
        "deduped_kv_bytes",
        "mean_migration_s",
        "max_migration_s",
        "link_energy_j",
        "prefill_utilization",
        "decode_utilization",
        "fault_mtbf_s",
        "faults_injected",
        "chains_built",
        "tiles_moved",
        "kv_cores_lost",
        "sequences_recomputed",
        "kv_tokens_evicted",
        "kv_bytes_evicted",
        "unrepaired_faults",
        "dead_wafers",
        "total_stall_s",
        "dead_time_s",
        "mean_chain_len",
        "availability",
    ];
    assert_eq!(SCHEMA_VERSION, 1, "bump the pinned key list with the schema version");
    let (colocated, disagg) = sample_reports();
    assert_eq!(colocated.json_object().keys(), SCHEMA_V1_KEYS);
    assert_eq!(disagg.json_object().keys(), SCHEMA_V1_KEYS, "one schema regardless of scenario shape");
}

/// Every row the `experiments` binary can emit — a `labeled_row` plus the
/// per-subcommand extras — stays inside the pinned key universe: the tag
/// keys, the `RunReport` schema, and the declared extras. A subcommand
/// growing an ad-hoc key fails here until it is pinned deliberately.
#[test]
fn experiment_rows_stay_inside_the_pinned_schema() {
    let (colocated, disagg) = sample_reports();
    let report_obj = colocated.json_object();
    let pinned: Vec<&str> = ouro_bench::EXPERIMENT_TAG_KEYS
        .iter()
        .copied()
        .chain(report_obj.keys())
        .chain(ouro_bench::EXPERIMENT_EXTRA_KEYS.iter().copied())
        .collect();
    // The row shapes the subcommands build: plain, faults (inflation
    // ratios), and prefix (share ratio).
    let rows = [
        ouro_bench::labeled_row("serving", "poisson-sweep", &colocated),
        ouro_bench::labeled_row("faults", "mtbf-span/2", &disagg)
            .num("ttft_p99_inflation", 1.25)
            .num("tpot_p99_inflation", 1.5),
        ouro_bench::labeled_row("prefix", "share-0.50-on", &colocated).num("share_ratio", 0.5),
    ];
    for row in &rows {
        for key in row.keys() {
            assert!(pinned.contains(&key), "key {key:?} is not in the pinned experiment-row schema");
        }
        assert!(row.render().contains(&format!("\"schema_version\": {SCHEMA_VERSION}")));
    }
    // The tag keys come first, so trajectory tooling can group by
    // experiment/label without parsing the whole row.
    assert_eq!(&rows[0].keys()[..2], ouro_bench::EXPERIMENT_TAG_KEYS);
}

// ---- the scenario matrix at experiment scale -----------------------------

/// One builder composed six ways — colocated/disaggregated × clean,
/// faulty and prefix-cached — on four LLaMA-13B wafers (seed 2026) at 80%
/// of capacity: bursty 512/64-token traffic with an MTBF of half the
/// arrival span, and chat sessions at share ratio 0.7. Every cell keeps
/// the report's conservation identities, and each axis shows in it.
#[test]
fn every_scenario_axis_shows_in_one_report_on_four_llama_13b_wafers() {
    const SEED: u64 = 2026;
    const WAFERS: usize = 4;
    const REQUESTS: usize = 160;
    let lengths = LengthConfig::fixed(512, 64);
    let (system, capacity, slo) = serving_setup(SEED, &lengths);
    let rate = 0.8 * capacity * WAFERS as f64;
    let trace = TraceGenerator::new(SEED).generate(&lengths, REQUESTS);
    let timed = ArrivalConfig::Bursty { rate_rps: rate, cv: 4.0 }.assign(&trace, SEED);
    let sessions = SessionConfig::chat(4, 0.7).generate(REQUESTS, SEED);
    let session_timed = ArrivalConfig::Poisson { rate_rps: rate }.assign(&sessions, SEED);
    let faults = FaultConfig::new(timed.last_arrival_s() / 2.0, SEED);
    let colocated = || Scenario::colocated(WAFERS).slo(slo);
    let disagg = || Scenario::disaggregated(1, WAFERS - 1).slo(slo);
    let cells = vec![
        colocated().workload(timed.clone()),
        disagg().workload(timed.clone()),
        colocated().faults(faults).workload(timed.clone()),
        disagg().faults(faults).workload(timed),
        colocated().router(routers::prefix_affinity()).prefix_caching(true).workload(session_timed.clone()),
        disagg().placement(placements::prefix_affinity()).prefix_caching(true).workload(session_timed),
    ];
    let reports = parallel_map_indexed(cells, 2, |_, s| s.run(&system).expect("builds"));
    for (i, r) in reports.iter().enumerate() {
        assert!(r.is_conserved(), "cell {i}: request conservation must hold");
        assert!(r.kv_bytes_conserved(), "cell {i}: migration bytes must be conserved");
        assert_eq!(r.schema_version, SCHEMA_VERSION);
    }
    let [_, disagg, colocated_faulty, disagg_faulty, colocated_prefix, disagg_prefix] = &reports[..] else {
        unreachable!("six cells in, six reports out")
    };
    for (label, r) in [("colocated", colocated_faulty), ("disagg", disagg_faulty)] {
        let f = r.faults.as_ref().expect("fault plan was armed");
        assert!(f.faults_injected > 0, "{label}: the accelerated MTBF must fire");
        assert!(f.availability < 1.0, "{label}: faults must dent availability");
    }
    assert!(colocated_prefix.serving.cached_prefix_tokens > 0, "sharers must hit the prefix cache");
    assert!(
        disagg_prefix.migration.as_ref().unwrap().deduped_kv_bytes > 0,
        "prefix-affine placement must dedup migrated bytes"
    );
    assert!(disagg.migration.as_ref().unwrap().migrations > 0);
}
