//! Shared experiment harness: builds systems, runs workloads, and formats the
//! rows that regenerate every table and figure of the paper's evaluation.
//!
//! The `experiments` binary (`cargo run -p ouro-bench --release --bin
//! experiments -- <figure>`) prints the text tables. Simulator speed is
//! measured by the separate `benches/simbench` package, not here.

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
pub fn decoder_models() -> Vec<ModelConfig> {
    vec![
        ouro_sim::model::zoo::llama_13b(),
        ouro_sim::model::zoo::baichuan_13b(),
        ouro_sim::model::zoo::llama_32b(),
        ouro_sim::model::zoo::qwen_32b(),
    ]
}

/// The encoder-style models of §6.4 (Fig. 16).
pub fn encoder_models() -> Vec<ModelConfig> {
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

/// Evaluates every baseline plus Ouroboros on one model and workload.
pub fn compare_all(
    model: &ModelConfig,
    label: &str,
    config: &LengthConfig,
    requests: usize,
) -> Vec<SystemReport> {
    let trace = trace_for(config, requests);
    let mut reports: Vec<SystemReport> =
        baseline_systems().iter().map(|sys| sys.evaluate(model, &trace, label)).collect();
    let ours = build_ouroboros(OuroborosConfig { seed: SEED, ..OuroborosConfig::single_wafer() }, model);
    reports.push(ours.simulate_labeled(&trace, label));
    reports
}

/// Formats a set of reports as a normalised-throughput / normalised-energy
/// table (normalised to the first report, which is the DGX A100 reference in
/// the main comparisons).
pub fn format_normalized(reports: &[SystemReport]) -> String {
    let mut out = String::new();
    let reference = &reports[0];
    out.push_str(&format!(
        "{:<16} {:>14} {:>12} {:>14} {:>10}\n",
        "system", "tokens/s", "speedup", "J/token", "norm. E"
    ));
    for r in reports {
        out.push_str(&format!(
            "{:<16} {:>14.1} {:>11.2}x {:>14.6} {:>10.3}\n",
            r.system,
            r.throughput_tokens_per_s,
            r.speedup_over(reference),
            r.energy_per_token_j(),
            r.energy_ratio_over(reference),
        ));
    }
    out
}

/// Formats the energy breakdown columns of a set of reports.
pub fn format_energy_breakdown(reports: &[SystemReport]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<16} {:>12} {:>12} {:>12} {:>12} {:>12}\n",
        "system", "compute", "on-chip", "off-chip", "comm", "total (J/tok)"
    ));
    for r in reports {
        let e = &r.energy_per_token;
        out.push_str(&format!(
            "{:<16} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>12.6}\n",
            r.system,
            e.compute_j,
            e.on_chip_j,
            e.off_chip_j,
            e.communication_j,
            e.total_j()
        ));
    }
    out
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
    fn formatting_contains_every_system() {
        let model = ouro_sim::model::zoo::llama_13b();
        let trace = trace_for(&LengthConfig::fixed(64, 64), 4);
        let reports: Vec<SystemReport> =
            baseline_systems().iter().map(|s| s.evaluate(&model, &trace, "t")).collect();
        let table = format_normalized(&reports);
        for r in &reports {
            assert!(table.contains(&r.system));
        }
        let energy = format_energy_breakdown(&reports);
        assert!(energy.contains("off-chip"));
    }
}
