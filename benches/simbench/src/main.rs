//! The Ouroboros simulator benchmark.
//!
//! ```text
//! simbench --workload <name> [--seed <n>] [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! Runs one named workload through the public API, repeating it for
//! `--seconds` of host time, checks every output, prints each metric by
//! name and unit, and ends with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `--trace 0` reports the end-to-end metrics from untimed runs; `--trace 1`
//! alternates untimed and traced runs and reports the per-layer metrics.
//! See `README.md` beside this package for the workloads and metrics.

mod calibrate;
mod heap;
mod layers;
mod workload;

use layers::{TracedReplay, TracedServing};
use std::collections::BTreeMap;
use std::time::Instant;
use workload::{geomean, Replay, Serving, Workload};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// The end-to-end metrics (`--trace 0`) as `(name, unit)`.
const END_TO_END: [(&str, &str); 4] = [
    ("requests_per_s", "req/s"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
    ("sim_output_tok_per_s", "tok/s"),
];

/// The per-layer metrics (`--trace 1`) as `(name, unit, exact)`. `exact`
/// metrics are counts or simulated values and must repeat bit for bit
/// across the runs of one invocation. Host times are shares of a wall time
/// (`frac`), so a layer a workload does not run reads 0 rather than a
/// duration.
const PER_LAYER: [(&str, &str, bool); 47] = [
    ("bench.traced_wall_s", "s", false),
    ("bench.timer_overhead_frac", "frac", false),
    ("sim.build_s", "s", false),
    ("heap.allocs_per_request", "count", false),
    ("scenario.start_frac", "frac", false),
    ("scenario.loop_frac", "frac", false),
    ("scenario.finish_frac", "frac", false),
    ("scenario.events", "count", true),
    ("arrival.events", "count", true),
    ("arrival.loop_frac", "frac", false),
    ("route.calls", "count", true),
    ("route.loop_frac", "frac", false),
    ("route.candidates_per_call", "count", true),
    ("engine.step_events", "count", true),
    ("engine.loop_frac", "frac", false),
    ("engine.steps", "count", true),
    ("engine.admissions", "count", true),
    ("engine.evictions", "count", true),
    ("engine.recomputed_tokens", "count", true),
    ("engine.prefilled_tokens", "count", true),
    ("engine.tokens_per_step", "count", true),
    ("engine.peak_resident", "count", true),
    ("kv.blocks_allocated", "count", true),
    ("kv.blocks_freed", "count", true),
    ("kv.exported_tokens", "count", true),
    ("kv.imported_tokens", "count", true),
    ("kv.cached_prefix_tokens", "count", true),
    ("kv.prefix_hit_rate", "frac", true),
    ("place.calls", "count", true),
    ("place.loop_frac", "frac", false),
    ("migrate.count", "count", true),
    ("migrate.deduped_mb", "MB", true),
    ("fault.events", "count", true),
    ("fault.loop_frac", "frac", false),
    ("fault.evicted_seqs", "count", true),
    ("snapshot.bytes", "bytes", true),
    ("snapshot.checkpoint_frac", "frac", false),
    ("snapshot.to_json_frac", "frac", false),
    ("snapshot.parse_frac", "frac", false),
    ("snapshot.resume_frac", "frac", false),
    ("replay.wikitext2_frac", "frac", false),
    ("replay.lp128_ld2048_frac", "frac", false),
    ("replay.lp2048_ld128_frac", "frac", false),
    ("replay.lp2048_ld2048_frac", "frac", false),
    ("pipeline.replay_frac", "frac", false),
    ("kv_scheduler.replay_frac", "frac", false),
    ("sim_energy_mj_per_token", "mJ/token", true),
];

/// Repetitions made however short `--seconds` is.
const MIN_RUNS: usize = 3;
const MIN_TRACED_PAIRS: usize = 2;

const USAGE: &str = "usage: simbench --workload <wide-short|long-decode|disagg-chat|paper-replay> \
                     [--seed <n>] [--seconds <n>] [--trace <0|1>]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse::<u64>().map_err(bad)? as f64,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for --trace: {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// The result of one invocation: the run tally plus named metric values.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
    /// Values printed for reading only, outside the JSON result.
    info: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// Tallies one run of `requests` requests: a failed check fails all of
    /// them, otherwise the ones not completed fail.
    fn tally(&mut self, requests: usize, completed: usize, check: Result<(), String>) -> bool {
        self.attempted += requests as u64;
        match check {
            Ok(()) => {
                self.failed += requests.saturating_sub(completed) as u64;
                true
            }
            Err(e) => {
                self.failed += requests as u64;
                self.errors.push(e);
                false
            }
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Prints the readable table, then the JSON result as the last line.
    fn print(mut self, declared: &[(&'static str, &'static str)]) {
        let mut values = Vec::new();
        for &(name, unit) in declared {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            if !value.is_finite() {
                self.errors.push(format!("{name} is not finite"));
            }
            values.push((name, if value.is_finite() { value } else { 0.0 }, unit));
        }
        for e in &self.errors {
            println!("FAILED: {e}");
        }
        for (name, value, unit) in &values {
            println!("{name:<28} {value:>18.6} {unit}");
        }
        for (name, value, unit) in &self.info {
            println!("{name:<28} {value:>18.6} {unit} (info)");
        }
        let metrics: Vec<String> = values
            .iter()
            .map(|(name, value, unit)| format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"))
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Repeats `run` until `seconds` of host time have passed and at least
/// `min` runs were made.
fn repeat(seconds: f64, min: usize, mut run: impl FnMut()) {
    let start = Instant::now();
    let mut n = 0;
    while n < min || start.elapsed().as_secs_f64() < seconds {
        run();
        n += 1;
    }
}

fn mb(bytes: f64) -> f64 {
    bytes / 1e6
}

/// The host figures of one passing untimed run.
struct Sample {
    setup_s: f64,
    run_s: f64,
    peak_heap_bytes: usize,
}

/// Repeats `one` for `seconds` with the calibration kernel timed before
/// each run, and sets the host metrics: `requests_per_s` from the median
/// run time and `setup_s` from the median set-up, both scaled by the
/// kernel's median time to the reference speed (see [`calibrate`]).
fn end_to_end(requests: usize, seconds: f64, mut one: impl FnMut(&mut Outcome) -> Option<Sample>) -> Outcome {
    let kernel = calibrate::Kernel::new();
    let mut out = Outcome::default();
    let (mut kernel_s, mut samples) = (Vec::new(), Vec::new());
    repeat(seconds, MIN_RUNS, || {
        kernel_s.push(kernel.time_s());
        samples.extend(one(&mut out));
    });
    let run_s = median(samples.iter().map(|s: &Sample| s.run_s).collect());
    let setup_s = median(samples.iter().map(|s| s.setup_s).collect());
    let to_reference = calibrate::REFERENCE_S / median(kernel_s);
    out.set("requests_per_s", requests as f64 / (run_s * to_reference));
    out.set("setup_s", setup_s * to_reference);
    out.set("peak_heap_mb", mb(median(samples.iter().map(|s| s.peak_heap_bytes as f64).collect())));
    out.info.push(("uncalibrated requests_per_s".into(), requests as f64 / run_s, "req/s"));
    out.info.push(("calibration factor".into(), to_reference, "frac"));
    out
}

/// `--trace 0` on a serving workload.
fn serving_end_to_end(w: &Serving, seconds: f64) -> Outcome {
    let scenario = w.scenario(|r| r, |p| p);
    let (mut reference, mut error) = (None, None);
    if w.checkpoint_at_waiting().is_some() {
        match w.straight_report() {
            Ok(r) => reference = Some(r),
            Err(e) => error = Some(e),
        }
    }
    let mut out = end_to_end(w.requests(), seconds, |out| {
        let run = w.run(&scenario);
        let (completed, check) = match &run {
            Ok(r) => {
                let reference = reference.get_or_insert_with(|| r.outcome.report.clone());
                let same =
                    workload::ensure(r.outcome.report == *reference, "report bit-identical across runs");
                (r.outcome.report.serving.completed, w.check(&r.outcome).and(same))
            }
            Err(e) => (0, Err(e.clone())),
        };
        out.tally(w.requests(), completed, check).then(|| {
            let r = run.expect("a passing run is Ok");
            Sample { setup_s: r.setup_s, run_s: r.run_s, peak_heap_bytes: r.peak_heap_bytes }
        })
    });
    out.errors.extend(error);
    if let Some(r) = &reference {
        let s = &r.serving;
        out.set("sim_output_tok_per_s", s.output_tokens_per_s);
        out.info.push(("sim_ttft_p50_ms".into(), s.ttft.p50_s * 1e3, "ms"));
        out.info.push(("sim_ttft_p99_ms".into(), s.ttft.p99_s * 1e3, "ms"));
        out.info.push(("sim_tpot_p99_ms".into(), s.tpot.p99_s * 1e3, "ms"));
    }
    out
}

/// `--trace 0` on the replay workload.
fn replay_end_to_end(w: &Replay, seconds: f64) -> Outcome {
    let mut reference = None;
    let mut out = end_to_end(w.requests(), seconds, |out| {
        let run = w.run();
        let check = match &run {
            Ok(r) => {
                let reference = reference.get_or_insert_with(|| r.reports.clone());
                let same = workload::ensure(r.reports == *reference, "reports bit-identical across runs");
                w.check(&r.reports).and(same)
            }
            Err(e) => Err(e.clone()),
        };
        out.tally(w.requests(), w.requests(), check).then(|| {
            let r = run.expect("a passing run is Ok");
            Sample { setup_s: r.setup_s, run_s: r.run_s, peak_heap_bytes: r.peak_heap_bytes }
        })
    });
    if let Some(reports) = &reference {
        out.set("sim_output_tok_per_s", geomean(reports.iter().map(|r| r.throughput_tokens_per_s)));
        let energy = geomean(reports.iter().map(|r| r.energy_per_token_j() * 1e3));
        out.info.push(("sim_energy_mj_per_token".into(), energy, "mJ/token"));
    }
    out
}

/// Per-layer metrics of one traced serving run.
fn serving_layers(t: &TracedServing) -> BTreeMap<String, f64> {
    let outcome = &t.outcome;
    let report = &outcome.report;
    let engines = outcome.engines();
    let sum = |f: &dyn Fn(&ouroboros::serve::Engine) -> u64| engines.iter().map(f).sum::<u64>() as f64;
    let steps = sum(&|e| e.stats().steps);
    let admissions = sum(&|e| e.stats().admissions);
    let decoded: u64 = outcome
        .decode_engines()
        .iter()
        .flat_map(|e| e.records())
        .filter(|r| r.completed())
        .map(|r| r.decode_len as u64)
        .sum();
    let prefilled = sum(&|e| e.stats().prefilled_tokens);
    let loop_ns = t.split.all.ns.max(1) as f64;
    let of_wall = |s: f64| s / t.wall_s;
    let of_loop = |ns: u64| ns as f64 / loop_ns;
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let migration = report.migration.as_ref();
    let mut m = BTreeMap::new();
    m.insert("bench.traced_wall_s".into(), t.wall_s);
    m.insert("sim.build_s".into(), t.build_s);
    m.insert("scenario.start_frac".into(), of_wall(t.start_s));
    m.insert("scenario.loop_frac".into(), of_wall(t.split.all.ns as f64 * 1e-9));
    m.insert("scenario.finish_frac".into(), of_wall(t.finish_s));
    m.insert("scenario.events".into(), t.split.all.events as f64);
    m.insert("arrival.events".into(), t.split.arrival.events as f64);
    m.insert("arrival.loop_frac".into(), of_loop(t.split.arrival.ns));
    m.insert("route.calls".into(), t.route.calls() as f64);
    m.insert("route.loop_frac".into(), of_loop(t.route.ns()));
    m.insert("route.candidates_per_call".into(), per(t.route.candidates() as f64, t.route.calls() as f64));
    m.insert("engine.step_events".into(), t.split.engine.events as f64);
    m.insert("engine.loop_frac".into(), of_loop(t.split.engine.ns));
    m.insert("engine.steps".into(), steps);
    m.insert("engine.admissions".into(), admissions);
    m.insert("engine.evictions".into(), sum(&|e| e.stats().evictions));
    m.insert("engine.recomputed_tokens".into(), sum(&|e| e.stats().recomputed_tokens));
    m.insert("engine.prefilled_tokens".into(), prefilled);
    m.insert("engine.tokens_per_step".into(), per(prefilled + decoded as f64, steps));
    m.insert(
        "engine.peak_resident".into(),
        engines.iter().map(|e| e.stats().peak_resident).max().unwrap_or(0) as f64,
    );
    m.insert("kv.blocks_allocated".into(), sum(&|e| e.kv_audit().allocated));
    m.insert("kv.blocks_freed".into(), sum(&|e| e.kv_audit().freed));
    m.insert("kv.exported_tokens".into(), sum(&|e| e.kv_transfers().exported_tokens));
    m.insert("kv.imported_tokens".into(), sum(&|e| e.kv_transfers().imported_tokens));
    m.insert("kv.cached_prefix_tokens".into(), sum(&|e| e.stats().cached_prefix_tokens));
    m.insert("kv.prefix_hit_rate".into(), per(sum(&|e| e.stats().prefix_hits), admissions));
    m.insert("place.calls".into(), t.place.calls() as f64);
    m.insert("place.loop_frac".into(), of_loop(t.place.ns()));
    m.insert("migrate.count".into(), migration.map_or(0, |m| m.migrations) as f64);
    m.insert("migrate.deduped_mb".into(), migration.map_or(0.0, |m| mb(m.deduped_kv_bytes as f64)));
    m.insert("fault.events".into(), t.split.fault.events as f64);
    m.insert("fault.loop_frac".into(), of_loop(t.split.fault.ns));
    m.insert("fault.evicted_seqs".into(), sum(&|e| e.stats().fault_evicted_seqs));
    m.insert("snapshot.bytes".into(), t.snapshot.bytes as f64);
    m.insert("snapshot.checkpoint_frac".into(), of_wall(t.snapshot.checkpoint_s));
    m.insert("snapshot.to_json_frac".into(), of_wall(t.snapshot.to_json_s));
    m.insert("snapshot.parse_frac".into(), of_wall(t.snapshot.parse_s));
    m.insert("snapshot.resume_frac".into(), of_wall(t.snapshot.resume_s));
    m
}

/// Per-layer metrics of one traced replay pass.
fn replay_layers(w: &Replay, t: &TracedReplay) -> BTreeMap<String, f64> {
    let replay_s: f64 = t.replay_s.iter().sum();
    let mut m = BTreeMap::new();
    m.insert("bench.traced_wall_s".into(), t.wall_s);
    m.insert("sim.build_s".into(), t.build_s);
    for ((label, _, _), s) in w.traces.iter().zip(&t.replay_s) {
        m.insert(format!("replay.{label}_frac"), s / t.wall_s);
    }
    m.insert("pipeline.replay_frac".into(), t.pipeline_s / replay_s);
    m.insert("kv_scheduler.replay_frac".into(), t.kv_scheduler_s / replay_s);
    m.insert(
        "sim_energy_mj_per_token".into(),
        geomean(t.reports.iter().map(|r| r.energy_per_token_j() * 1e3)),
    );
    m
}

/// Folds the per-run metric maps: medians, with `exact` metrics required
/// to repeat bit for bit.
fn fold_layers(out: &mut Outcome, runs: &[BTreeMap<String, f64>]) {
    for &(name, _, exact) in &PER_LAYER {
        let values: Vec<f64> = runs.iter().map(|m| m.get(name).copied().unwrap_or(0.0)).collect();
        if exact && values.iter().any(|v| v.to_bits() != values[0].to_bits()) {
            out.errors.push(format!("{name} differs between traced runs: {values:?}"));
        }
        out.set(name, median(values));
    }
}

/// `--trace 1` on a serving workload: untimed and traced runs alternate.
fn serving_per_layer(w: &Serving, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let scenario = w.scenario(|r| r, |p| p);
    let reference = match w.checkpoint_at_waiting() {
        Some(_) => w.straight_report().map_err(|e| out.errors.push(e)).ok(),
        None => None,
    };
    let (mut untimed_wall, mut traced_wall, mut allocs, mut runs) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    repeat(seconds, MIN_TRACED_PAIRS, || {
        let untimed = w.run(&scenario);
        let traced = layers::traced_serving(w);
        let check = match (&untimed, &traced) {
            (Ok(u), Ok(t)) => w
                .check(&u.outcome)
                .and(w.check(&t.outcome))
                .and(workload::ensure(
                    u.outcome.report == t.outcome.report,
                    "traced report == untimed report",
                ))
                .and(workload::ensure(
                    reference.as_ref().is_none_or(|r| *r == u.outcome.report),
                    "resumed report == straight report",
                ))
                .and(layers::check_split(t, w)),
            (Err(e), _) | (_, Err(e)) => Err(e.clone()),
        };
        let completed = untimed.as_ref().map_or(0, |u| u.outcome.report.serving.completed);
        if out.tally(2 * w.requests(), 2 * completed, check) {
            let (u, t) = (untimed.expect("checked"), traced.expect("checked"));
            untimed_wall.push(u.setup_s + u.run_s);
            traced_wall.push(t.wall_s);
            allocs.push(u.allocs as f64 / w.requests() as f64);
            runs.push(serving_layers(&t));
        }
    });
    fold_layers(&mut out, &runs);
    out.set("heap.allocs_per_request", median(allocs));
    out.set("bench.timer_overhead_frac", median(traced_wall) / median(untimed_wall) - 1.0);
    out
}

/// `--trace 1` on the replay workload.
fn replay_per_layer(w: &Replay, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let (mut untimed_wall, mut traced_wall, mut allocs, mut runs) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    repeat(seconds, MIN_TRACED_PAIRS, || {
        let untimed = w.run();
        let traced = layers::traced_replay(w);
        let check = match (&untimed, &traced) {
            (Ok(u), Ok(t)) => w
                .check(&u.reports)
                .and(workload::ensure(u.reports == t.reports, "traced reports == untimed reports"))
                .and(workload::ensure(
                    t.pipeline_s > 0.0 && t.kv_scheduler_s > 0.0,
                    "both offline halves ran",
                )),
            (Err(e), _) | (_, Err(e)) => Err(e.clone()),
        };
        let n = w.requests();
        if out.tally(2 * n, 2 * n, check) {
            let (u, t) = (untimed.expect("checked"), traced.expect("checked"));
            untimed_wall.push(u.setup_s + u.run_s);
            traced_wall.push(t.wall_s);
            allocs.push(u.allocs as f64 / n as f64);
            runs.push(replay_layers(w, &t));
        }
    });
    fold_layers(&mut out, &runs);
    out.set("heap.allocs_per_request", median(allocs));
    out.set("bench.timer_overhead_frac", median(traced_wall) / median(untimed_wall) - 1.0);
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let workload = match Workload::build(&args.workload, args.seed) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let per_layer: Vec<(&str, &str)> = PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect();
    match (&workload, args.trace) {
        (Workload::Serving(w), false) => serving_end_to_end(w, args.seconds).print(&END_TO_END),
        (Workload::Replay(w), false) => replay_end_to_end(w, args.seconds).print(&END_TO_END),
        (Workload::Serving(w), true) => serving_per_layer(w, args.seconds).print(&per_layer),
        (Workload::Replay(w), true) => replay_per_layer(w, args.seconds).print(&per_layer),
    }
}
