//! The figures and tables of the paper's evaluation, each as JSON rows.
//!
//! [`FIGURES`] lists them in print order. Each row starts with its
//! `experiment` tag, as the serving rows of [`crate::labeled_row`] do; the
//! `experiments` binary prints a figure's rows with
//! [`crate::format_table`] and writes the same rows with `--out`, and
//! `tests/figures.rs` pins every row against `golden/figures.json`. A
//! configuration that does not build keeps its row: the measured fields
//! are `null` and `error` says why.

use crate::json::JsonObject;
use crate::{build_ouroboros, comparison_rows, decoder_models, encoder_models, trace_for, SEED};
use ouro_hw::{CircuitPoint, CoreConfig, CrossbarConfig};
use ouro_sim::baselines::SystemReport;
use ouro_sim::mapping::{MappingProblem, Strategy};
use ouro_sim::model::zoo;
use ouro_sim::{ablation_ladder, OuroborosConfig, OuroborosSystem};
use ouro_workload::LengthConfig;

/// One figure or table: how to build its rows and which columns to print.
pub struct Figure {
    /// The `experiment` tag of its rows.
    pub experiment: &'static str,
    /// The subcommands that print it.
    pub subcommands: &'static [&'static str],
    /// Its stderr section header.
    pub title: &'static str,
    /// Most requests its trace runs, when it caps `--requests`.
    pub cap: Option<usize>,
    /// The columns its stdout table shows, separated by spaces.
    pub columns: &'static str,
    build: fn(usize) -> Vec<JsonObject>,
}

impl Figure {
    /// The requests its trace runs when `requested` are asked for.
    pub fn requests(&self, requested: usize) -> usize {
        self.cap.map_or(requested, |cap| requested.min(cap))
    }

    /// Its rows at `requested` requests (lowered to its cap), each tagged
    /// with [`Figure::experiment`].
    pub fn rows(&self, requested: usize) -> Vec<JsonObject> {
        let tag = || JsonObject::new().str("experiment", self.experiment);
        (self.build)(self.requests(requested)).into_iter().map(|row| tag().extend(row)).collect()
    }
}

/// The columns of the baseline comparisons (Figs. 13/14, 16 and 19/20).
const COMPARISON_COLUMNS: &str = "model workload system tokens_per_s speedup_vs_dgx_a100 j_per_token \
    energy_vs_dgx_a100 compute_j on_chip_j off_chip_j communication_j";

/// Every figure and table, in print order.
pub const FIGURES: [Figure; 10] = [
    Figure {
        experiment: "fig1",
        subcommands: &["fig1"],
        title: "Fig. 1: hardware scaling tax (A100 nodes, WikiText-2-like workload)",
        cap: None,
        columns: "model gpus compute_j total_j total_over_compute",
        build: fig1,
    },
    Figure {
        experiment: "fig11",
        subcommands: &["fig11"],
        title: "Fig. 11: throughput vs row-activation ratio (LLaMA-13B)",
        cap: Some(100),
        columns: "row_activation crossbars sram_per_core_mib tokens_per_s error",
        build: fig11,
    },
    Figure {
        experiment: "fig13-14",
        subcommands: &["fig13", "fig14"],
        title: "Fig. 13/14: throughput and energy breakdown vs baselines",
        cap: None,
        columns: COMPARISON_COLUMNS,
        build: fig13_14,
    },
    Figure {
        experiment: "fig15",
        subcommands: &["fig15"],
        title: "Fig. 15: ablation ladder (normalized to Baseline)",
        cap: Some(200),
        columns: "model workload step tokens_per_s speedup_vs_baseline j_per_token energy_vs_baseline error",
        build: fig15,
    },
    Figure {
        experiment: "fig16",
        subcommands: &["fig16"],
        title: "Fig. 16: encoder-based models (throughput and energy vs baselines)",
        cap: None,
        columns: COMPARISON_COLUMNS,
        build: fig16,
    },
    Figure {
        experiment: "fig17",
        subcommands: &["fig17"],
        title: "Fig. 17: throughput and energy vs KV admission threshold",
        cap: Some(200),
        columns: "model kv_threshold tokens_per_s norm_tokens_per_s j_per_token norm_j_per_token",
        build: fig17,
    },
    Figure {
        experiment: "fig18",
        subcommands: &["fig18"],
        title: "Fig. 18: normalized transmission volume (Cerebras-SUMMA / WaferLLM / Ours)",
        cap: None,
        columns: "model cerebras_summa waferllm ours",
        build: fig18,
    },
    Figure {
        experiment: "fig19-20",
        subcommands: &["fig19", "fig20"],
        title: "Fig. 19/20: multi-wafer scaling (LLaMA-65B on two wafers)",
        cap: Some(200),
        columns: COMPARISON_COLUMNS,
        build: fig19_20,
    },
    Figure {
        experiment: "fig21",
        subcommands: &["fig21"],
        title: "Fig. 21: CIM core implementations at the system level",
        cap: Some(200),
        columns: "model core tokens_per_s norm_tokens_per_s j_per_token norm_j_per_token",
        build: fig21,
    },
    Figure {
        experiment: "table2",
        subcommands: &["table2"],
        title: "Table 2: CIM core circuit-level comparison",
        cap: None,
        columns: "design technology_nm array_size_kb tops_per_watt tops_per_mm2 wafer_capacity_gb",
        build: table2,
    },
];

/// Fig. 1 — hardware scaling tax: energy on 1/2/4/8× A100 vs model size,
/// compute vs total.
fn fig1(requests: usize) -> Vec<JsonObject> {
    let trace = trace_for(&LengthConfig::wikitext2_like(), requests);
    let mut rows = Vec::new();
    for model in zoo::scaling_tax_models() {
        for gpus in [1usize, 2, 4, 8] {
            let r = ouro_sim::baselines::dgx_a100(gpus).evaluate(&model, &trace, "WikiText-2");
            let compute = r.energy_per_token.compute_j * r.output_tokens as f64;
            let total = r.total_energy_j();
            rows.push(
                JsonObject::new()
                    .str("model", &model.name)
                    .int("gpus", gpus as u64)
                    .num("compute_j", compute)
                    .num("total_j", total)
                    .num("total_over_compute", total / compute.max(1e-12)),
            );
        }
    }
    rows
}

/// Fig. 11 — throughput under different crossbar row-activation ratios.
fn fig11(requests: usize) -> Vec<JsonObject> {
    let model = zoo::llama_13b();
    let trace = trace_for(&LengthConfig::fixed(2048, 2048), requests);
    let mut rows = Vec::new();
    for denom in [128u32, 64, 32, 16, 8, 4] {
        let core = CoreConfig::with_crossbar(CrossbarConfig::with_row_activation(1.0 / denom as f64));
        let row = JsonObject::new()
            .str("row_activation", &format!("1/{denom}"))
            .int("crossbars", core.crossbars as u64)
            .num(
                "sram_per_core_mib",
                core.crossbars as f64 * core.crossbar.capacity_bytes() as f64 / (1024.0 * 1024.0),
            );
        let cfg = OuroborosConfig { core, seed: SEED, ..OuroborosConfig::single_wafer() };
        rows.push(match OuroborosSystem::new(cfg, &model) {
            Ok(sys) => row
                .num("tokens_per_s", sys.simulate_labeled(&trace, "LP=2048 LD=2048").throughput_tokens_per_s)
                .null("error"),
            Err(e) => row.null("tokens_per_s").str("error", &format!("capacity-bound ({e})")),
        });
    }
    rows
}

/// Figs. 13/14 — throughput and energy vs the baselines for the four
/// decoder models and four workloads.
fn fig13_14(requests: usize) -> Vec<JsonObject> {
    let mut rows = Vec::new();
    for model in decoder_models() {
        for (label, config) in LengthConfig::paper_suite() {
            rows.extend(comparison_rows(&model, &label, &config, requests));
        }
    }
    rows
}

/// Fig. 15 — cumulative ablation over Wafer/CIM/TGP/Mapping/KV cache,
/// normalised to the first step that builds.
fn fig15(requests: usize) -> Vec<JsonObject> {
    let workloads =
        [("WikiText-2", LengthConfig::wikitext2_like()), ("LP=128 LD=2048", LengthConfig::fixed(128, 2048))];
    let mut rows = Vec::new();
    for model in [zoo::llama_13b(), zoo::llama_32b()] {
        for (label, config) in &workloads {
            let trace = trace_for(config, requests);
            let mut reference: Option<SystemReport> = None;
            for (step, cfg) in ablation_ladder(&OuroborosConfig::single_wafer()) {
                let cfg = OuroborosConfig { seed: SEED, mapping_iterations: 1_500, ..cfg };
                let row =
                    JsonObject::new().str("model", &model.name).str("workload", label).str("step", step);
                let measured = OuroborosSystem::new(cfg, &model).map(|sys| {
                    let r = sys.simulate_labeled(&trace, label);
                    let (speedup, energy) = match &reference {
                        Some(base) => (r.speedup_over(base), r.energy_ratio_over(base)),
                        None => (1.0, 1.0),
                    };
                    let values = [r.throughput_tokens_per_s, speedup, r.energy_per_token_j(), energy];
                    reference.get_or_insert(r);
                    values
                });
                let values = measured.as_ref().ok();
                let error = measured.as_ref().err().map(|e| format!("does not build: {e}"));
                let row = ["tokens_per_s", "speedup_vs_baseline", "j_per_token", "energy_vs_baseline"]
                    .into_iter()
                    .enumerate()
                    .fold(row, |row, (k, key)| row.opt(key, values.map(|v| v[k]), JsonObject::num));
                rows.push(row.opt("error", error.as_deref(), JsonObject::str));
            }
        }
    }
    rows
}

/// Fig. 16 — encoder-style models (BERT-Large, T5-11B).
fn fig16(requests: usize) -> Vec<JsonObject> {
    let config = LengthConfig::fixed(512, 64);
    encoder_models().iter().flat_map(|model| comparison_rows(model, "encoder", &config, requests)).collect()
}

/// Fig. 17 — KV-cache admission threshold sweep, normalised to threshold 0.
fn fig17(requests: usize) -> Vec<JsonObject> {
    let trace = trace_for(&LengthConfig::wikitext2_like(), requests);
    let mut rows = Vec::new();
    for model in [zoo::llama_13b(), zoo::t5_11b()] {
        let mut base: Option<SystemReport> = None;
        for threshold in [0.0, 0.1, 0.2, 0.3, 0.4, 0.5] {
            let cfg = OuroborosConfig {
                kv_threshold: threshold,
                seed: SEED,
                mapping_iterations: 1_000,
                ..OuroborosConfig::single_wafer()
            };
            let r = build_ouroboros(cfg, &model).simulate_labeled(&trace, "WikiText-2");
            let (t, e) = match &base {
                Some(b) => (
                    r.throughput_tokens_per_s / b.throughput_tokens_per_s,
                    r.energy_per_token_j() / b.energy_per_token_j(),
                ),
                None => (1.0, 1.0),
            };
            rows.push(
                JsonObject::new()
                    .str("model", &model.name)
                    .num("kv_threshold", threshold)
                    .num("tokens_per_s", r.throughput_tokens_per_s)
                    .num("norm_tokens_per_s", t)
                    .num("j_per_token", r.energy_per_token_j())
                    .num("norm_j_per_token", e),
            );
            base.get_or_insert(r);
        }
    }
    rows
}

/// Fig. 18 — transmission volume of the mapping strategies, normalised to
/// Cerebras-SUMMA. Simulates no request trace.
fn fig18(_requests: usize) -> Vec<JsonObject> {
    let mut rows = Vec::new();
    for model in [zoo::llama_13b(), zoo::llama_32b(), zoo::llama_65b()] {
        let geometry = ouro_hw::WaferGeometry::paper();
        let defects = ouro_hw::DefectMap::pristine(&geometry);
        let cores: Vec<ouro_hw::CoreId> = geometry.all_cores().collect();
        let problem = MappingProblem::for_block(&model, geometry, defects, cores, 4 * 1024 * 1024, 4.0);
        let volume =
            |strategy| ouro_sim::mapping::solve(&problem, strategy, SEED).summary.transmission_volume();
        let norm = volume(Strategy::Summa);
        rows.push(
            JsonObject::new()
                .str("model", &model.name)
                .num("cerebras_summa", 1.0)
                .num("waferllm", volume(Strategy::WaferLlm) / norm)
                .num("ours", volume(Strategy::Anneal { iterations: 4_000 }) / norm),
        );
    }
    rows
}

/// Figs. 19/20 — multi-wafer scaling on LLaMA-65B.
fn fig19_20(requests: usize) -> Vec<JsonObject> {
    let model = zoo::llama_65b();
    LengthConfig::paper_suite()
        .into_iter()
        .flat_map(|(label, config)| comparison_rows(&model, &label, &config, requests))
        .collect()
}

/// Fig. 21 — swapping the CIM core implementation inside the system,
/// normalised to Ours.
fn fig21(requests: usize) -> Vec<JsonObject> {
    const LABEL: &str = "LP=2048 LD=2048";
    let trace = trace_for(&LengthConfig::fixed(2048, 2048), requests);
    let mut rows = Vec::new();
    for model in decoder_models() {
        // Ours and Ours+LUT run the full Ouroboros simulator.
        let ours = build_ouroboros(OuroborosConfig { seed: SEED, ..OuroborosConfig::single_wafer() }, &model)
            .simulate_labeled(&trace, LABEL);
        let mut cores = vec![("Ours", ours.clone())];
        for point in [CircuitPoint::vlsi22(), CircuitPoint::isscc22()] {
            let sys = ouro_sim::baselines::hbm_cim_system(
                point.name,
                point.scaled_tops_per_watt,
                point.scaled_tops_per_mm2,
                point.wafer_capacity_gb * 1e9,
            );
            cores.push((point.name, sys.evaluate(&model, &trace, LABEL)));
        }
        let lut_cfg = OuroborosConfig { lut_compute: true, seed: SEED, ..OuroborosConfig::single_wafer() };
        cores.push(("Ours+LUT", build_ouroboros(lut_cfg, &model).simulate_labeled(&trace, LABEL)));
        for (core, r) in cores {
            rows.push(
                JsonObject::new()
                    .str("model", &model.name)
                    .str("core", core)
                    .num("tokens_per_s", r.throughput_tokens_per_s)
                    .num("norm_tokens_per_s", r.throughput_tokens_per_s / ours.throughput_tokens_per_s)
                    .num("j_per_token", r.energy_per_token_j())
                    .num("norm_j_per_token", r.energy_per_token_j() / ours.energy_per_token_j()),
            );
        }
    }
    rows
}

/// Table 2 — circuit-level comparison. Simulates no request trace.
fn table2(_requests: usize) -> Vec<JsonObject> {
    ouro_hw::CIRCUIT_BASELINES()
        .iter()
        .map(|p| {
            JsonObject::new()
                .str("design", p.name)
                .int("technology_nm", u64::from(p.technology_nm))
                .int("array_size_kb", u64::from(p.array_size_kb))
                .num("tops_per_watt", p.tops_per_watt)
                .num("tops_per_mm2", p.tops_per_mm2)
                .num("wafer_capacity_gb", p.wafer_capacity_gb)
        })
        .collect()
}
