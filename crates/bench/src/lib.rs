//! Shared experiment harness: builds systems, runs workloads, and builds
//! the JSON rows of every table and figure of the paper's evaluation
//! ([`FIGURES`]) and of the serving experiments ([`labeled_row`]).
//!
//! One output path serves them all: the `experiments` binary
//! (`cargo run -p ouro-bench --release --bin experiments -- <figure>`)
//! prints each stdout table from its rows with [`format_table`] and writes
//! the same rows to its `--out` file, so the two cannot disagree. The
//! tests pin the figure rows in `golden/figures.json` and the main paper
//! table in `golden/paper_table.json`. Simulator speed is measured by the
//! separate `benches/simbench` package, not here.

mod figures;

pub use figures::{Figure, FIGURES};

use json::JsonObject;
use ouro_sim::baselines::{RooflineSystem, SystemReport};
use ouro_sim::model::ModelConfig;
use ouro_sim::{OuroborosConfig, OuroborosSystem};
use ouro_workload::{LengthConfig, Trace, TraceGenerator};

/// Default number of requests per trace used by the experiment runner.
/// The paper uses 1000; the default here keeps the full sweep tractable on a
/// laptop and can be overridden with `--requests N`.
pub const DEFAULT_REQUESTS: usize = 200;

/// Deterministic seed used by every experiment.
pub const SEED: u64 = 2026;

/// Generates the trace for a workload configuration.
pub fn trace_for(config: &LengthConfig, requests: usize) -> Trace {
    TraceGenerator::new(SEED).generate(config, requests)
}

/// The decoder models of the main evaluation (Fig. 13–15).
pub(crate) fn decoder_models() -> Vec<ModelConfig> {
    vec![
        ouro_sim::model::zoo::llama_13b(),
        ouro_sim::model::zoo::baichuan_13b(),
        ouro_sim::model::zoo::llama_32b(),
        ouro_sim::model::zoo::qwen_32b(),
    ]
}

/// The encoder-style models of §6.4 (Fig. 16).
pub(crate) fn encoder_models() -> Vec<ModelConfig> {
    vec![ouro_sim::model::zoo::bert_large(), ouro_sim::model::zoo::t5_11b()]
}

/// The baseline systems of the main comparison, in figure order.
pub(crate) fn baseline_systems() -> Vec<RooflineSystem> {
    vec![
        ouro_sim::baselines::dgx_a100(8),
        ouro_sim::baselines::tpu_v4(),
        ouro_sim::baselines::attacc(),
        ouro_sim::baselines::cerebras_wse2(),
    ]
}

/// Builds the Ouroboros system `cfg` describes for a model, adding wafers
/// (up to four) while it does not build: the paper spills LLaMA-65B onto a
/// second wafer the same way.
pub fn build_ouroboros(mut cfg: OuroborosConfig, model: &ModelConfig) -> OuroborosSystem {
    loop {
        match OuroborosSystem::new(cfg.clone(), model) {
            Ok(sys) => return sys,
            Err(_) if cfg.wafers < 4 => cfg.wafers += 1,
            Err(e) => panic!("model {} does not build on four wafers: {e}", model.name),
        }
    }
}

/// The serving experiments' shared setup: LLaMA-13B on a single wafer
/// mapped with `seed`, that wafer's request capacity for `lengths`, and an
/// SLO at 10× the unloaded latencies of a typical request. The root tests
/// check the serving claims on this same setup.
pub fn serving_setup(seed: u64, lengths: &LengthConfig) -> (OuroborosSystem, f64, ouro_serve::SloConfig) {
    use ouro_serve::{capacity_rps_estimate, ideal_latencies, SloConfig};

    let mut cfg = OuroborosConfig::single_wafer();
    cfg.seed = seed;
    let system =
        OuroborosSystem::new(cfg, &ouro_sim::model::zoo::llama_13b()).expect("LLaMA-13B fits on one wafer");
    let capacity = capacity_rps_estimate(system.stage_times(), lengths);
    let typical = lengths.nominal_total_tokens();
    let (ttft, tpot) = ideal_latencies(system.stage_times(), typical / 2, typical);
    (system, capacity, SloConfig::with_slack(ttft, tpot, 10.0))
}

/// The comparison rows of one model and workload: every baseline plus
/// Ours, in figure order, with throughput and energy per output token
/// normalised to the first system (DGX A100) and the energy broken down by
/// component. Figs. 13/14, 16 and 19/20 and the pinned paper table are
/// built from these rows.
pub fn comparison_rows(
    model: &ModelConfig,
    workload: &str,
    config: &LengthConfig,
    requests: usize,
) -> Vec<JsonObject> {
    let trace = trace_for(config, requests);
    let mut reports: Vec<SystemReport> =
        baseline_systems().iter().map(|sys| sys.evaluate(model, &trace, workload)).collect();
    let ours = build_ouroboros(OuroborosConfig { seed: SEED, ..OuroborosConfig::single_wafer() }, model);
    reports.push(ours.simulate_labeled(&trace, workload));
    report_rows(&model.name, &reports)
}

/// [`comparison_rows`] of evaluated reports, the first the reference.
fn report_rows(model: &str, reports: &[SystemReport]) -> Vec<JsonObject> {
    let reference = &reports[0];
    reports
        .iter()
        .map(|r| {
            let e = &r.energy_per_token;
            JsonObject::new()
                .str("model", model)
                .str("workload", &r.workload)
                .str("system", &r.system)
                .num("tokens_per_s", r.throughput_tokens_per_s)
                .num("j_per_token", r.energy_per_token_j())
                .num("speedup_vs_dgx_a100", r.speedup_over(reference))
                .num("energy_vs_dgx_a100", r.energy_ratio_over(reference))
                .num("compute_j", e.compute_j)
                .num("on_chip_j", e.on_chip_j)
                .num("off_chip_j", e.off_chip_j)
                .num("communication_j", e.communication_j)
        })
        .collect()
}

/// Renders `rows` as a text table of `columns` (field names separated by
/// spaces): a header line of the column names, then one line per row.
/// The rows go through the codec `--out` writes them with and are read
/// back, so the table shows what the file holds: strings as written,
/// `null` as `-`, whole numbers in full and other numbers to four
/// significant digits, so a nonzero value never shows as zero. Columns
/// holding numbers are right-aligned.
///
/// # Panics
///
/// When a row has no field named by `columns`.
pub fn format_table(rows: &[JsonObject], columns: &str) -> String {
    let columns: Vec<&str> = columns.split_whitespace().collect();
    let rendered = json::render_array(rows);
    let parsed = json::read_rows(&rendered).expect("rows the codec wrote read back");
    let cells: Vec<Vec<String>> = parsed
        .iter()
        .map(|row| {
            columns
                .iter()
                .map(|&column| match row.get(column) {
                    Some(json::Value::Num(n)) => format_number(*n),
                    Some(json::Value::Str(s)) => s.to_string(),
                    Some(json::Value::Bool(b)) => b.to_string(),
                    Some(json::Value::Null) => "-".to_string(),
                    None => panic!("a row has no column {column:?}"),
                })
                .collect()
        })
        .collect();
    let numeric: Vec<bool> = columns
        .iter()
        .map(|&column| parsed.iter().any(|row| matches!(row.get(column), Some(json::Value::Num(_)))))
        .collect();
    let widths: Vec<usize> = (0..columns.len())
        .map(|i| cells.iter().map(|line| line[i].len()).fold(columns[i].len(), usize::max))
        .collect();
    let header: Vec<String> = columns.iter().map(|c| c.to_string()).collect();
    let mut out = String::new();
    for line in std::iter::once(&header).chain(&cells) {
        let padded: Vec<String> = line
            .iter()
            .enumerate()
            .map(|(i, cell)| {
                let w = widths[i];
                if numeric[i] {
                    format!("{cell:>w$}")
                } else {
                    format!("{cell:<w$}")
                }
            })
            .collect();
        out.push_str(padded.join("  ").trim_end());
        out.push('\n');
    }
    out
}

/// The `experiments analyze` stdout: one [`format_table`] per row kind of
/// [`ouro_serve::Analysis::json_rows`] (summary, phase, request, wafer),
/// each showing every field but `schema_version` and `row`.
pub fn format_analysis(rows: &[JsonObject]) -> String {
    use ouro_serve::{ANALYZE_PHASE_KEYS, ANALYZE_REQUEST_KEYS, ANALYZE_SUMMARY_KEYS, ANALYZE_WAFER_KEYS};
    let tables: Vec<String> =
        [ANALYZE_SUMMARY_KEYS, ANALYZE_PHASE_KEYS, ANALYZE_REQUEST_KEYS, ANALYZE_WAFER_KEYS]
            .iter()
            .map(|keys| {
                let of_kind: Vec<JsonObject> = rows.iter().filter(|r| r.keys() == *keys).cloned().collect();
                format_table(&of_kind, &keys[2..].join(" "))
            })
            .collect();
    tables.join("\n")
}

/// A number as [`format_table`] shows it: whole numbers in full, others to
/// four significant digits, in scientific notation outside 1e-4..1e15.
fn format_number(n: f64) -> String {
    if n == n.trunc() && n.abs() < 1e15 {
        return format!("{n}");
    }
    let magnitude = n.abs().log10().floor();
    if (-4.0..15.0).contains(&magnitude) {
        format!("{n:.*}", (3.0 - magnitude).max(0.0) as usize)
    } else {
        format!("{n:.3e}")
    }
}

/// Minimal JSON emission for perf-trajectory capture (`--out <path>` on
/// the `experiments` binary). The emitter lives in `ouro-trace` (shared by
/// the observability exporters and [`ouro_serve::RunReport`] — the one
/// report schema every serving-style dump shares) and is re-exported here
/// for the harness.
pub use ouro_serve::json;

/// Prefixes one flattened [`ouro_serve::RunReport`] row with its experiment
/// and label tags — the shared shape of every serving-style JSON dump the
/// `experiments` binary emits.
pub fn labeled_row(experiment: &str, label: &str, report: &ouro_serve::RunReport) -> json::JsonObject {
    json::JsonObject::new().str("experiment", experiment).str("label", label).extend(report.json_object())
}

/// The tag keys [`labeled_row`] prepends to the flattened report schema.
pub const EXPERIMENT_TAG_KEYS: &[&str] = &["experiment", "label"];

/// Every key a serving-style subcommand may append beyond [`labeled_row`]'s
/// output: the fault experiment's tail-inflation ratios and the prefix
/// sweep's share ratio. The schema round-trip test pins every emitted row
/// against tag keys + the `RunReport` schema + this list, so extending a
/// subcommand's rows means extending this list (and the test) deliberately.
pub const EXPERIMENT_EXTRA_KEYS: &[&str] = &["ttft_p99_inflation", "tpot_p99_inflation", "share_ratio"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_generation_is_deterministic() {
        let a = trace_for(&LengthConfig::fixed(128, 128), 16);
        let b = trace_for(&LengthConfig::fixed(128, 128), 16);
        assert_eq!(a, b);
        assert_eq!(a.len(), 16);
    }

    #[test]
    fn model_lists_cover_the_paper() {
        assert_eq!(decoder_models().len(), 4);
        assert_eq!(encoder_models().len(), 2);
        assert_eq!(baseline_systems().len(), 4);
    }

    #[test]
    fn comparison_tables_name_every_system() {
        let model = ouro_sim::model::zoo::llama_13b();
        let trace = trace_for(&LengthConfig::fixed(64, 64), 4);
        let reports: Vec<SystemReport> =
            baseline_systems().iter().map(|s| s.evaluate(&model, &trace, "t")).collect();
        let table = format_table(&report_rows(&model.name, &reports), "system tokens_per_s off_chip_j");
        for r in &reports {
            assert!(
                table.lines().skip(1).any(|line| line.starts_with(&r.system)),
                "{} missing:\n{table}",
                r.system
            );
        }
    }

    #[test]
    fn the_header_is_the_column_list_and_nonzero_values_keep_four_digits() {
        let rows = [
            JsonObject::new()
                .str("name", "a")
                .num("tiny", 1.234567e-9)
                .num("small", 0.000123456)
                .int("count", 7),
            JsonObject::new().str("name", "bb").num("tiny", -0.5).num("small", 98765.4321).null("count"),
        ];
        let table = format_table(&rows, "name small tiny count");
        let lines: Vec<Vec<&str>> = table.lines().map(|l| l.split_whitespace().collect()).collect();
        assert_eq!(lines[0], ["name", "small", "tiny", "count"]);
        assert_eq!(lines[1], ["a", "0.0001235", "1.235e-9", "7"]);
        assert_eq!(lines[2], ["bb", "98765", "-0.5000", "-"]);
        for n in [1e-300, 3e-7, 0.00049, 0.0123456, 0.999999, 1.5, 12345.678, 6.02e23] {
            let shown = format_number(n);
            let digits =
                shown.split('e').next().unwrap().chars().filter(char::is_ascii_digit).collect::<String>();
            assert!(shown.parse::<f64>().unwrap() != 0.0, "{n} shows as {shown}");
            assert!(digits.trim_start_matches('0').len() >= 4, "{n} shows as {shown}");
        }
    }
}
