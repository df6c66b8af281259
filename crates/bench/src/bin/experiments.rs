//! Regenerates every table and figure of the Ouroboros evaluation.
//!
//! Usage:
//!
//! ```text
//! cargo run -p ouro-bench --release --bin experiments -- all
//! cargo run -p ouro-bench --release --bin experiments -- fig13 --requests 1000
//! ```
//!
//! Available experiments: `fig1`, `fig11`, `fig13`, `fig14`, `fig15`,
//! `fig16`, `fig17`, `fig18`, `fig19`, `fig20`, `fig21`, `table2`,
//! `serving`, `disagg`, `faults`, `prefix`, `scenario`, `analyze`, `all`.
//! Unknown subcommands and flags, and flags the chosen subcommand does not
//! honor, are rejected (exit 2) before anything runs, so a typoed CI
//! invocation cannot "succeed" with nothing run. Progress and section
//! headers go to stderr; result tables go to stdout; machine-readable JSON
//! goes to the `--out` file. The offline figure replays cap `--requests`
//! at 100–200 and print a stderr note when the cap lowers the requested
//! count; the serving-style experiments run every request asked for.
//!
//! Every subcommand builds its result as JSON rows and writes them with
//! `--out <path>` (alias: `--json`). Each stdout table is printed from
//! those rows (`ouro_bench::format_table`, a column subset per table), so
//! a table and its file cannot disagree. The figure rows are built in the
//! library (`ouro_bench::FIGURES`) and pinned by
//! `crates/bench/tests/figures.rs`.
//!
//! The serving-style experiments all drive `ouro_serve::Scenario`, the one
//! composable run API: `serving` sweeps open-loop load against a colocated
//! multi-wafer deployment per routing policy; `disagg` compares colocated
//! vs prefill/decode disaggregation at equal wafer count, including the
//! pool-ratio sweep; `faults` injects a seeded MTBF-driven runtime fault
//! process (replacement-chain remaps under live traffic, §4.3.3) and
//! reports availability and tail-latency inflation versus the identical
//! fault-free run, plus a fault-enabled shootout; `prefix` sweeps the
//! shared-system-prompt ratio of a session workload with the radix-style
//! prefix cache on vs off; `scenario` is the smoke matrix — one builder
//! composed four ways (colocated/disaggregated × clean/faulty × prefix
//! caching) — exercising every axis of the API in one run.
//!
//! Every serving-style row is one flattened `ouro_serve::RunReport` (one
//! schema for every experiment, `schema_version` included) prefixed with
//! `experiment`/`label` tags:
//!
//! ```text
//! cargo run -p ouro-bench --release --bin experiments -- serving --out BENCH_serving.json
//! cargo run -p ouro-bench --release --bin experiments -- scenario --out BENCH_scenario.json
//! ```
//!
//! Two observability hooks ride on top (`crates/trace`):
//!
//! * `scenario --trace <path>` re-runs the richest matrix cell with
//!   request-lifecycle tracing armed and writes a Chrome trace-event JSON
//!   loadable in Perfetto / `chrome://tracing` (one track per wafer, one
//!   span per segment of the analysis walk). Tracing is observational:
//!   the cell's report row is bit-identical with or without it.
//! * `analyze` runs the golden observability scenario with tracing and
//!   telemetry armed and prints its schema-versioned analysis rows as
//!   tables (`ouro_bench::format_analysis`): each phase of the requests'
//!   E2E (queue, prefill, KV transit, migration stall, fault stall,
//!   decode compute, decode idle), the p50/p99 TTFT and E2E requests'
//!   phase shares, and per-wafer utilization. It never joins `all`.
//!
//! The simulator reads no wall clock, so every output here is a pure
//! function of the flags. Simulator speed is measured by the separate
//! `benches/simbench` package.

use ouro_bench::json::JsonObject;
use ouro_bench::{
    format_analysis, format_table, labeled_row, serving_setup, DEFAULT_REQUESTS, FIGURES, SEED,
};
use ouro_sim::model::zoo;
use ouro_sim::{OuroborosConfig, OuroborosSystem};
use ouro_workload::LengthConfig;

const SUBCOMMANDS: &[&str] = &[
    "all", "fig1", "fig11", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21",
    "table2", "serving", "disagg", "faults", "prefix", "scenario", "analyze",
];

/// Rejects a malformed invocation: print the problem and the full usage,
/// exit non-zero so CI catches it.
fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("usage: experiments [<subcommand>] [--requests N] [--threads N] [--out PATH] [--trace PATH]");
    eprintln!("flags: --out writes the subcommand's JSON rows to PATH (--json is an alias);");
    eprintln!("       --threads sets sweep worker threads (serving/disagg/faults; default: all cores;");
    eprintln!("                 output is identical at any thread count);");
    eprintln!("       --trace writes a Chrome trace-event JSON (scenario subcommand only);");
    eprintln!("       --via-snapshot routes every scenario cell through a midpoint checkpoint →");
    eprintln!("                 JSON → parse → resume round trip (scenario subcommand only; the");
    eprintln!("                 rows must be byte-identical to a straight run);");
    eprintln!("subcommands: {}", SUBCOMMANDS.join(", "));
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Option<String> = None;
    let mut requests = DEFAULT_REQUESTS;
    let mut requests_set = false;
    let mut threads = ouro_serve::default_threads();
    let mut threads_set = false;
    let mut out_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut via_snapshot = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--requests" => {
                let value =
                    args.get(i + 1).unwrap_or_else(|| usage_error("--requests expects a positive integer"));
                requests = match value.parse::<usize>() {
                    Ok(n) if n > 0 => n,
                    _ => usage_error(&format!("--requests expects a positive integer, got {value:?}")),
                };
                requests_set = true;
                i += 2;
            }
            "--threads" => {
                let value =
                    args.get(i + 1).unwrap_or_else(|| usage_error("--threads expects a positive integer"));
                threads = match value.parse::<usize>() {
                    Ok(n) if n > 0 => n,
                    _ => usage_error(&format!("--threads expects a positive integer, got {value:?}")),
                };
                threads_set = true;
                i += 2;
            }
            // `--json` predates `--out` and stays as an alias so existing
            // CI invocations keep working.
            flag @ ("--out" | "--json") => {
                let value =
                    args.get(i + 1).unwrap_or_else(|| usage_error(&format!("{flag} expects a file path")));
                out_path = Some(value.clone());
                i += 2;
            }
            "--trace" => {
                let value = args.get(i + 1).unwrap_or_else(|| usage_error("--trace expects a file path"));
                trace_path = Some(value.clone());
                i += 2;
            }
            "--via-snapshot" => {
                via_snapshot = true;
                i += 1;
            }
            flag if flag.starts_with('-') => usage_error(&format!("unknown flag {flag:?}")),
            name => {
                if which.is_some() {
                    usage_error(&format!("unexpected extra argument {name:?}"));
                }
                if !SUBCOMMANDS.contains(&name) {
                    usage_error(&format!("unknown subcommand {name:?}"));
                }
                which = Some(name.to_string());
                i += 1;
            }
        }
    }
    let which = which.unwrap_or_else(|| "all".to_string());
    if trace_path.is_some() && which != "scenario" && which != "all" {
        usage_error("--trace is only honored by the scenario subcommand (or all)");
    }
    if via_snapshot && which != "scenario" {
        usage_error("--via-snapshot is only honored by the scenario subcommand");
    }
    if via_snapshot && trace_path.is_some() {
        // Lifecycle tracing is observational and restarts empty on resume,
        // so a --via-snapshot Chrome trace would silently cover only the
        // second half of the run.
        usage_error("--via-snapshot cannot be combined with --trace");
    }
    let sweeping = which == "serving" || which == "disagg" || which == "faults" || which == "all";
    if threads_set && !sweeping {
        usage_error("--threads only applies to the sweep subcommands (serving/disagg/faults, or all)");
    }
    if requests_set && (which == "table2" || which == "fig18") {
        usage_error("--requests does not apply to table2 or fig18, which simulate no request trace");
    }

    let run = |name: &str| which == "all" || which == name;

    // Every subcommand collects JSON rows; `all --out` merges the rows of
    // every subcommand into one file (the `experiment` field
    // disambiguates) instead of overwriting it per subcommand.
    let mut rows: Vec<JsonObject> = Vec::new();
    for figure in FIGURES.iter().filter(|f| f.subcommands.iter().any(|s| run(s))) {
        header(figure.title);
        let n = figure.requests(requests);
        if n < requests {
            eprintln!(
                "note: {} runs {n} requests (--requests {requests} exceeds its cap)",
                figure.experiment
            );
        }
        let figure_rows = figure.rows(requests);
        print!("{}", format_table(&figure_rows, figure.columns));
        rows.extend(figure_rows);
    }
    if run("serving") {
        rows.extend(serving(requests, threads));
    }
    if run("disagg") {
        rows.extend(disagg(requests, threads));
    }
    if run("faults") {
        rows.extend(faults(requests, threads));
    }
    if run("prefix") {
        rows.extend(prefix(requests));
    }
    if run("scenario") {
        rows.extend(scenario_matrix(requests, trace_path.as_deref(), via_snapshot));
    }
    // `analyze` is a post-hoc consumer of one traced run, so it never
    // joins `all`.
    if which == "analyze" {
        rows.extend(analyze(requests));
    }
    if let Some(path) = out_path.as_deref() {
        match ouro_bench::json::write_array(path, &rows) {
            Ok(()) => eprintln!("\nwrote {} points to {path}", rows.len()),
            Err(e) => {
                eprintln!("\nfailed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// Section headers are progress, not data — they go to stderr so stdout
/// stays a clean stream of result tables.
fn header(title: &str) {
    eprintln!("\n=== {title} ===");
}

/// Wafers of every serving-style experiment's deployment.
const WAFERS: usize = 4;

/// The stdout columns of each serving-style table: subsets of the
/// `labeled_row` rows `--out` writes.
const SERVING_COLUMNS: &str = "label offered_rps achieved_rps goodput_rps output_tokens_per_s \
    ttft_p50_s ttft_p99_s tpot_p50_s tpot_p99_s slo_attainment utilization";
const DISAGG_COLUMNS: &str = "label offered_rps ttft_p50_s ttft_p99_s tpot_p50_s tpot_p99_s goodput_rps \
    utilization exported_kv_bytes mean_migration_s";
const FAULT_SWEEP_COLUMNS: &str = "label faults_injected chains_built sequences_recomputed kv_bytes_evicted \
    availability ttft_p99_s tpot_p99_s ttft_p99_inflation tpot_p99_inflation";
const FAULT_SHOOTOUT_COLUMNS: &str =
    "label offered_rps ttft_p50_s ttft_p99_s tpot_p50_s tpot_p99_s goodput_rps \
    utilization availability faults_injected sequences_recomputed";
const PREFIX_COLUMNS: &str =
    "label share_ratio ttft_mean_s ttft_p99_s goodput_rps prefilled_tokens cached_prefix_tokens";
const SCENARIO_COLUMNS: &str =
    "label ttft_p99_s tpot_p99_s goodput_rps migrations availability cached_prefix_tokens";

/// Runs every scenario of a sweep on `threads` workers; the reports come
/// back in input order, so the thread count never shows in the output.
fn run_all(
    system: &OuroborosSystem,
    scenarios: Vec<ouro_serve::Scenario>,
    threads: usize,
) -> Vec<ouro_serve::RunReport> {
    ouro_serve::parallel_map_indexed(scenarios, threads, |_, s| s.run(system).expect("deployment builds"))
}

/// One shootout point: a colocated and a `prefill`-wafer disaggregated
/// deployment of [`WAFERS`] wafers over the same timed trace, in that order.
fn shootout_sides(
    prefill: usize,
    slo: ouro_serve::SloConfig,
    timed: ouro_workload::TimedTrace,
) -> [ouro_serve::Scenario; 2] {
    use ouro_serve::Scenario;
    [
        Scenario::colocated(WAFERS).slo(slo).workload(timed.clone()),
        Scenario::disaggregated(prefill, WAFERS - prefill).slo(slo).workload(timed),
    ]
}

/// Most faults a wafer may expect over a run's fault window: the
/// accelerated MTBF is floored at the window over this count. The window is
/// at least one second ([`ouro_serve::fault_window_s`]), so at one to three
/// requests an MTBF derived from the arrival span would otherwise fire up
/// to 2e11 faults per wafer. Faults are drawn as they fall due, so the
/// floor bounds the faults a run fires, and with them its run time; the
/// fault state held is one stream per wafer at any MTBF.
const MAX_FAULTS_PER_WAFER: f64 = 10_000.0;

/// `mtbf_s` (an arrival span over a divisor), floored so a fault plan over
/// `timed` stays bounded ([`MAX_FAULTS_PER_WAFER`]).
fn accelerated_mtbf(mtbf_s: f64, timed: &ouro_workload::TimedTrace) -> f64 {
    mtbf_s.max(ouro_serve::fault_window_s(timed) / MAX_FAULTS_PER_WAFER)
}

/// Online serving — load sweeps and routing policies on a 4-wafer cluster.
/// Returns the JSON rows of every printed point.
fn serving(requests: usize, threads: usize) -> Vec<JsonObject> {
    use ouro_serve::{routers, Scenario, LOAD_FRACTIONS};
    use ouro_workload::{ArrivalConfig, TraceGenerator};

    header("Serving: online load sweep (4-wafer LLaMA-13B, WikiText-2-like)");
    let lengths = LengthConfig::wikitext2_like();
    let (system, capacity, slo) = serving_setup(SEED, &lengths);
    let aggregate = capacity * WAFERS as f64;
    let rates: Vec<f64> = LOAD_FRACTIONS.iter().map(|f| f * aggregate).collect();
    let trace = TraceGenerator::new(SEED).generate(&lengths, requests);

    let sweep = rates
        .iter()
        .map(|&rate_rps| {
            let timed = ArrivalConfig::Poisson { rate_rps }.assign(&trace, SEED);
            Scenario::colocated(WAFERS).slo(slo).workload(timed)
        })
        .collect();
    let mut rows: Vec<JsonObject> =
        run_all(&system, sweep, threads).iter().map(|r| labeled_row("serving", "poisson-sweep", r)).collect();
    print!("{}", format_table(&rows, SERVING_COLUMNS));

    let top_rate = rates[rates.len() - 1];
    eprintln!("\n--- routing policies at {top_rate:.0} req/s ---");
    let section = rows.len();
    for router in [routers::round_robin(), routers::join_shortest_queue(), routers::least_kv_load()] {
        let name = router.name();
        let timed = ArrivalConfig::Poisson { rate_rps: top_rate }.assign(&trace, SEED);
        let r = Scenario::colocated(WAFERS)
            .router(router)
            .slo(slo)
            .workload(timed)
            .run(&system)
            .expect("cluster builds");
        rows.push(labeled_row("serving", &format!("policy-{name}"), &r));
    }
    print!("{}", format_table(&rows[section..], SERVING_COLUMNS));

    eprintln!("\n--- bursty arrivals (Gamma, cv=4) vs Poisson at the saturation point ---");
    let rate = rates[3];
    let section = rows.len();
    for (label, arrival) in [
        ("poisson", ArrivalConfig::Poisson { rate_rps: rate }),
        ("bursty", ArrivalConfig::Bursty { rate_rps: rate, cv: 4.0 }),
    ] {
        let timed = arrival.assign(&trace, SEED);
        let r = Scenario::colocated(WAFERS).slo(slo).workload(timed).run(&system).expect("cluster builds");
        rows.push(labeled_row("serving", &format!("arrivals-{label}"), &r));
    }
    print!("{}", format_table(&rows[section..], SERVING_COLUMNS));
    rows
}

/// Disaggregated serving — the pool-ratio sweep and the colocated-vs-
/// disaggregated shootout at equal wafer count. Returns the JSON rows of
/// every printed point.
fn disagg(requests: usize, threads: usize) -> Vec<JsonObject> {
    use ouro_serve::{best_ratio, Scenario};
    use ouro_workload::{ArrivalConfig, TraceGenerator};

    header("Disaggregation: prefill/decode pools vs colocated (4-wafer LLaMA-13B)");
    // A prefill-heavy mix: long prompts, short generations — the regime
    // where prefill bursts hurt colocated decode tails the most.
    let lengths = LengthConfig::fixed(512, 64);
    let (system, capacity, slo) = serving_setup(SEED, &lengths);
    let rate = capacity * WAFERS as f64;
    let trace = TraceGenerator::new(SEED).generate(&lengths, requests);
    let bursty = |rate_rps| ArrivalConfig::Bursty { rate_rps, cv: 4.0 }.assign(&trace, SEED);
    let mut rows: Vec<JsonObject> = Vec::new();

    eprintln!("\n--- pool-ratio sweep at {rate:.0} req/s (bursty cv=4, LP=512 LD=64) ---");
    let timed = bursty(rate);
    let splits = (1..WAFERS)
        .map(|prefill| Scenario::disaggregated(prefill, WAFERS - prefill).slo(slo).workload(timed.clone()))
        .collect();
    let plans = run_all(&system, splits, threads);
    for r in &plans {
        let (p, d) = (r.deployment.prefill_wafers, r.deployment.decode_wafers);
        rows.push(labeled_row("disagg", &format!("ratio-{p}p{d}d"), r));
    }
    print!("{}", format_table(&rows, DISAGG_COLUMNS));
    let best = best_ratio(&plans);
    let (best_p, best_d) = (best.deployment.prefill_wafers, best.deployment.decode_wafers);

    eprintln!("\n--- colocated vs disaggregated ({best_p}p:{best_d}d) over offered load ---");
    let sides = [0.5, 1.0, 1.5].iter().flat_map(|f| shootout_sides(best_p, slo, bursty(f * rate))).collect();
    let section = rows.len();
    for pair in run_all(&system, sides, threads).chunks_exact(2) {
        rows.push(labeled_row("disagg", "colocated", &pair[0]));
        rows.push(labeled_row("disagg", "disaggregated", &pair[1]));
    }
    print!("{}", format_table(&rows[section..], DISAGG_COLUMNS));
    rows
}

/// Runtime fault injection — availability and tail-latency inflation under
/// a seeded MTBF process, plus a fault-enabled disagg-vs-colocated
/// shootout. Returns the JSON rows of every printed point.
fn faults(requests: usize, threads: usize) -> Vec<JsonObject> {
    use ouro_serve::{p99_inflation, FaultConfig, Scenario};
    use ouro_workload::{ArrivalConfig, TraceGenerator};

    header("Faults: replacement-chain remaps under live traffic (4-wafer LLaMA-13B)");
    let lengths = LengthConfig::wikitext2_like();
    let (system, capacity, slo) = serving_setup(SEED, &lengths);
    let rate = 0.7 * capacity * WAFERS as f64;
    let trace = TraceGenerator::new(SEED).generate(&lengths, requests);
    let timed = ArrivalConfig::Poisson { rate_rps: rate }.assign(&trace, SEED);
    // MTBF chosen so several faults strike within the arrival span — far
    // above real hardware rates, as resilience studies accelerate ageing.
    let span = timed.last_arrival_s();
    let mut rows: Vec<JsonObject> = Vec::new();

    eprintln!("\n--- MTBF sweep at {rate:.0} req/s (Poisson, WikiText-2-like) ---");
    // One scenario, re-armed per swept MTBF. The `none` point is armed
    // with an MTBF no window reaches, so it fires nothing, its serving
    // report is the fault-free run's, and it anchors the inflation
    // columns. The swept points are independent seeded runs, so they fan
    // out across the worker threads and reassemble in input order.
    let base = Scenario::colocated(WAFERS).slo(slo).workload(timed.clone());
    let mtbf_points = [("none", None), ("span/2", Some(2.0)), ("span/6", Some(6.0))];
    let swept = ouro_serve::parallel_map_indexed(mtbf_points.to_vec(), threads, |_, (label, divisor)| {
        let mtbf = divisor.map_or(1e18, |divisor| accelerated_mtbf(span / divisor, &timed));
        (label, base.clone().faults(FaultConfig::new(mtbf, SEED)).run(&system).expect("cluster builds"))
    });
    let clean = swept[0].1.serving.clone();
    for (label, faulty) in swept {
        let (ttft_inflation, tpot_inflation) = p99_inflation(&faulty.serving, &clean);
        rows.push(
            labeled_row("faults", &format!("mtbf-{label}"), &faulty)
                .num("ttft_p99_inflation", ttft_inflation)
                .num("tpot_p99_inflation", tpot_inflation),
        );
    }
    print!("{}", format_table(&rows, FAULT_SWEEP_COLUMNS));

    eprintln!("\n--- colocated vs disaggregated with faults enabled (MTBF = span/4) ---");
    let bursty = ArrivalConfig::Bursty { rate_rps: rate, cv: 4.0 }.assign(&trace, SEED);
    let fault = FaultConfig::new(accelerated_mtbf(span / 4.0, &bursty), SEED);
    let sides = shootout_sides(1, slo, bursty).map(|side| side.faults(fault));
    let reports = run_all(&system, sides.into(), threads);
    let section = rows.len();
    for (label, report) in ["colocated-faulty", "disaggregated-faulty"].into_iter().zip(&reports) {
        rows.push(labeled_row("faults", label, report));
    }
    print!("{}", format_table(&rows[section..], FAULT_SHOOTOUT_COLUMNS));
    rows
}

/// Shared-prefix KV caching — a share-ratio sweep of the session workload,
/// comparing the radix-style prefix cache (prefix-affinity routing) against
/// cold prompts on identical traffic. Returns the JSON rows of every
/// printed point.
fn prefix(requests: usize) -> Vec<JsonObject> {
    use ouro_serve::{routers, Router, Scenario};
    use ouro_workload::{ArrivalConfig, SessionConfig};

    header("Prefix caching: shared system prompts and session traffic (4-wafer LLaMA-13B)");
    // SLO anchored on the session workload's typical request shape.
    let session = SessionConfig::chat(4, 0.7);
    let lengths =
        LengthConfig::fixed(session.shared_prefix_tokens + session.user_turn_tokens, session.decode_tokens);
    let (system, capacity, slo) = serving_setup(SEED, &lengths);
    let rate = 0.8 * capacity * WAFERS as f64;
    let mut rows: Vec<JsonObject> = Vec::new();

    eprintln!("\n--- share-ratio sweep at {rate:.0} req/s (Poisson, {requests} requests/point) ---");
    for share in [0.0, 0.25, 0.5, 0.75, 0.9] {
        let trace = SessionConfig::chat(4, share).generate(requests, SEED);
        let timed = ArrivalConfig::Poisson { rate_rps: rate }.assign(&trace, SEED);
        let configs: [(&str, bool, Box<dyn Router>); 2] =
            [("off", false, routers::least_kv_load()), ("on", true, routers::prefix_affinity())];
        for (label, caching, router) in configs {
            let r = Scenario::colocated(WAFERS)
                .router(router)
                .prefix_caching(caching)
                .slo(slo)
                .workload(timed.clone())
                .run(&system)
                .expect("cluster builds");
            rows.push(
                labeled_row("prefix", &format!("share-{share:.2}-{label}"), &r).num("share_ratio", share),
            );
        }
    }
    print!("{}", format_table(&rows, PREFIX_COLUMNS));
    rows
}

/// The scenario smoke matrix: one `ouro_serve::Scenario` builder composed
/// four ways — colocated/disaggregated × clean/fault-injected × prefix
/// caching — so a single fast run exercises every axis and emits one
/// `RunReport` row per cell. Returns the JSON rows of every printed point;
/// with `trace_path` set, also exports a Chrome trace of the richest cell.
/// With `via_snapshot`, every cell runs through a midpoint checkpoint →
/// JSON → parse → resume round trip instead of straight to the end — the
/// CI smoke diffs the two row files to prove the snapshot is complete.
fn scenario_matrix(requests: usize, trace_path: Option<&str>, via_snapshot: bool) -> Vec<JsonObject> {
    use ouro_serve::{placements, routers, FaultConfig, Scenario, Snapshot};
    use ouro_workload::{ArrivalConfig, SessionConfig, TraceGenerator};

    header("Scenario matrix: deployment x faults x prefix caching (4-wafer LLaMA-13B)");
    let lengths = LengthConfig::fixed(512, 64);
    let (system, capacity, slo) = serving_setup(SEED, &lengths);
    let rate = 0.8 * capacity * WAFERS as f64;
    let trace = TraceGenerator::new(SEED).generate(&lengths, requests);
    let timed = ArrivalConfig::Bursty { rate_rps: rate, cv: 4.0 }.assign(&trace, SEED);
    let session = SessionConfig::chat(4, 0.7).generate(requests, SEED);
    let session_timed = ArrivalConfig::Poisson { rate_rps: rate }.assign(&session, SEED);
    let mtbf = accelerated_mtbf(timed.last_arrival_s() / 2.0, &timed);
    // Midpoint checkpoints for --via-snapshot: any event boundary is a
    // valid checkpoint, the arrival midpoint just maximizes in-flight state.
    let mid_s = timed.last_arrival_s() * 0.5;

    let cells: Vec<(&str, Scenario)> = vec![
        ("colocated", Scenario::colocated(WAFERS).slo(slo).workload(timed.clone())),
        (
            "colocated-faults",
            Scenario::colocated(WAFERS).slo(slo).faults(FaultConfig::new(mtbf, SEED)).workload(timed.clone()),
        ),
        ("disagg", Scenario::disaggregated(1, WAFERS - 1).slo(slo).workload(timed.clone())),
        (
            "disagg-faults",
            Scenario::disaggregated(1, WAFERS - 1)
                .slo(slo)
                .faults(FaultConfig::new(mtbf, SEED))
                .workload(timed),
        ),
        (
            "colocated-prefix",
            Scenario::colocated(WAFERS)
                .router(routers::prefix_affinity())
                .prefix_caching(true)
                .slo(slo)
                .workload(session_timed.clone()),
        ),
        (
            "disagg-prefix",
            Scenario::disaggregated(1, WAFERS - 1)
                .placement(placements::prefix_affinity())
                .prefix_caching(true)
                .slo(slo)
                .workload(session_timed),
        ),
    ];

    eprintln!("\n--- {requests} requests/cell at {rate:.0} req/s ---");
    // `--trace` arms lifecycle tracing on the disagg-faults cell — the one
    // exercising the most event kinds (migrations, faults, evictions) —
    // and exports it as Chrome trace-event JSON. Tracing is observational,
    // so the cell's report row is unchanged.
    const TRACED_CELL: &str = "disagg-faults";
    let mut rows: Vec<JsonObject> = Vec::new();
    for (label, scenario) in cells {
        let scenario =
            if trace_path.is_some() && label == TRACED_CELL { scenario.trace(true) } else { scenario };
        let outcome = if via_snapshot {
            let mut run = scenario.start(&system).expect("deployment builds");
            run.run_until(mid_s);
            let json = scenario.checkpoint(&run).to_json();
            let parsed = Snapshot::parse(&json).expect("snapshot JSON parses back");
            let mut resumed = scenario.resume(&system, &parsed).expect("snapshot resumes");
            resumed.run_to_end();
            resumed.finish()
        } else {
            scenario.run_full(&system).expect("deployment builds")
        };
        let r = &outcome.report;
        assert!(r.is_conserved(), "{label}: request conservation must hold");
        assert!(r.kv_bytes_conserved(), "{label}: migration bytes must be conserved");
        rows.push(labeled_row("scenario", label, r));
        if let (Some(path), Some(trace)) = (trace_path, outcome.trace()) {
            match trace.write_chrome_trace(path) {
                Ok(()) => eprintln!(
                    "wrote Chrome trace for {label} ({} events, {} spans) to {path}",
                    trace.len(),
                    trace.request_spans().len()
                ),
                Err(e) => {
                    eprintln!("failed to write {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
    print!("{}", format_table(&rows, SCENARIO_COLUMNS));
    rows
}

/// `analyze` — post-hoc latency attribution on the golden observability
/// scenario: runs the disaggregated+faults shape with tracing and
/// telemetry armed, reconstructs per-request timelines, and prints the
/// analysis rows: phase statistics, where p50/p99 TTFT/E2E go, and
/// per-wafer utilization. Returns the same rows for `--out`.
fn analyze(requests: usize) -> Vec<JsonObject> {
    use ouro_serve::{FaultConfig, Scenario, SloConfig};
    use ouro_workload::{ArrivalConfig, TraceGenerator};

    header("Analyze: latency attribution and wafer utilization (golden scenario)");
    let model = zoo::bert_large();
    let system = OuroborosSystem::new(OuroborosConfig::tiny_for_tests(), &model).expect("tiny system builds");
    let lengths = LengthConfig::fixed(64, 32);
    let trace = TraceGenerator::new(8).generate(&lengths, requests);
    let timed = ArrivalConfig::Poisson { rate_rps: 400.0 }.assign(&trace, 8);
    let outcome = Scenario::disaggregated(2, 2)
        .slo(SloConfig { ttft_s: 0.5, tpot_s: 0.05 })
        .faults(FaultConfig::new(0.02, 8))
        .workload(timed)
        .trace(true)
        .telemetry_every(0.005)
        .run_full(&system)
        .expect("deployment builds");
    let analysis = outcome.analysis().expect("tracing was armed");
    eprintln!("\n--- {requests} requests, disaggregated 2+2, faults armed ---");
    let rows = analysis.json_rows();
    print!("{}", format_analysis(&rows));
    rows
}
