//! Pins the paper's main comparison table: throughput, energy per output
//! token and speedup over DGX A100 for {LLaMA-7B, 13B, 32B} ×
//! `paper_suite()` × (the four baselines + Ours), at 200 requests and the
//! harness [`SEED`](ouro_bench::SEED).
//!
//! The expected values live in `golden/paper_table.json`, written with the
//! shared row codec. Numbers render as shortest round-trip `f64`, so the
//! comparison is exact: any change to a paper number shows up here as a
//! list of the cells that moved. A change that moves them on purpose
//! replaces that model's rows with the regenerated ones the failure
//! prints, and says why in its description.
//!
//! Next to the golden, a differential test runs each cell's trace through
//! the online serving engine too, and pins the ratio of the two paths'
//! throughputs with the cause of every gap.

use ouro_bench::json::{self, JsonObject, Row};
use ouro_bench::{build_ouroboros, compare_all, trace_for, SEED};
use ouro_serve::Scenario;
use ouro_sim::model::{zoo, ModelConfig};
use ouro_sim::OuroborosConfig;
use ouro_workload::{ArrivalConfig, LengthConfig};

const GOLDEN: &str = include_str!("../golden/paper_table.json");

/// Requests per trace of every cell.
const REQUESTS: usize = 200;

/// The table rows of one model, in `paper_suite()` × `compare_all` order.
fn rows_for(model: &ModelConfig) -> Vec<JsonObject> {
    let mut rows = Vec::new();
    for (label, lengths) in LengthConfig::paper_suite() {
        let reports = compare_all(model, &label, &lengths, REQUESTS);
        let reference = &reports[0];
        for r in &reports {
            rows.push(
                JsonObject::new()
                    .str("model", &model.name)
                    .str("workload", &label)
                    .str("system", &r.system)
                    .num("tokens_per_s", r.throughput_tokens_per_s)
                    .num("j_per_token", r.energy_per_token_j())
                    .num("speedup_vs_dgx_a100", r.speedup_over(reference)),
            );
        }
    }
    rows
}

/// `model / workload / system` of a row.
fn cell(row: &Row) -> String {
    ["model", "workload", "system"].map(|k| row.get_str(k).unwrap_or("?")).join(" / ")
}

fn check(model: &ModelConfig) {
    let golden = json::read_rows(GOLDEN).expect("golden/paper_table.json parses");
    let expected: Vec<&Row> =
        golden.iter().filter(|r| r.get_str("model") == Ok(model.name.as_str())).collect();
    let rendered = json::render_array(&rows_for(model));
    let actual = json::read_rows(&rendered).expect("rendered rows parse");

    let mut diffs = Vec::new();
    if expected.len() != actual.len() {
        diffs.push(format!("{} golden rows, {} computed", expected.len(), actual.len()));
    }
    for (want, got) in expected.iter().zip(&actual) {
        if cell(want) != cell(got) {
            diffs.push(format!("row order: golden {}, computed {}", cell(want), cell(got)));
            continue;
        }
        for (key, value) in &got.fields {
            let pinned = want.get(key);
            if pinned != Some(value) {
                diffs.push(format!("{}: {key} golden {pinned:?}, now {value:?}", cell(got)));
            }
        }
    }
    assert!(
        diffs.is_empty(),
        "{} paper-table cells differ from golden/paper_table.json:\n{}\nregenerated rows for {}:\n{rendered}",
        diffs.len(),
        diffs.join("\n"),
        model.name,
    );
}

#[test]
fn llama_7b_paper_table_is_pinned() {
    check(&zoo::llama_7b());
}

#[test]
fn llama_13b_paper_table_is_pinned() {
    check(&zoo::llama_13b());
}

#[test]
fn llama_32b_paper_table_is_pinned() {
    check(&zoo::llama_32b());
}

/// Each cell's online/offline output tok/s ratio: `(model, workload,
/// ratio, cause)`. The online side is the saturated one-wafer serving
/// engine; the offline side is `simulate_labeled`, the path the table
/// above pins. A cell outside 0.9–1.1 names the cause of its gap. The
/// times quoted are the offline makespan's parts: the pipeline replay,
/// and the `decode_penalty_s` and `recompute_s` averages added to it. The
/// latter two grow with the offline KV scheduler's `waste_fraction` (its
/// victims restart decode from zero) and fall with its average resident
/// sequences.
const RATIOS: &[(&str, &str, f64, Option<&str>)] = &[
    ("LLaMA-7B", "WikiText-2", 0.9203, None),
    (
        "LLaMA-7B",
        "LP=128 LD=2048",
        1.1734,
        Some("offline victims restart decode: waste 0.61, recompute_s 1.59 s on a 1.00 s pipeline"),
    ),
    ("LLaMA-7B", "LP=2048 LD=128", 0.9982, None),
    (
        "LLaMA-7B",
        "LP=2048 LD=2048",
        2.5507,
        Some("waste 0.77: recompute_s 6.31 s and decode_penalty_s 5.84 s on a 1.88 s pipeline"),
    ),
    ("LLaMA-13B", "WikiText-2", 0.9468, None),
    (
        "LLaMA-13B",
        "LP=128 LD=2048",
        1.3682,
        Some("waste 0.70: recompute_s 2.71 s and decode_penalty_s 0.96 s on a 1.17 s pipeline"),
    ),
    ("LLaMA-13B", "LP=2048 LD=128", 0.9972, None),
    (
        "LLaMA-13B",
        "LP=2048 LD=2048",
        2.7187,
        Some("10.3 resident: decode_penalty_s 16.05 s and recompute_s 6.69 s on a 2.21 s pipeline"),
    ),
    (
        "LLaMA-32B",
        "WikiText-2",
        1.3081,
        Some("waste 0.44: decode_penalty_s 0.75 s and recompute_s 0.25 s on a 0.33 s pipeline"),
    ),
    (
        "LLaMA-32B",
        "LP=128 LD=2048",
        0.7805,
        Some("the offline path drops 188 of 200 requests yet counts their decode tokens as output"),
    ),
    ("LLaMA-32B", "LP=2048 LD=128", 0.9983, None),
    (
        "LLaMA-32B",
        "LP=2048 LD=2048",
        1.6581,
        Some("5.4 resident: decode_penalty_s 55.07 s and recompute_s 4.21 s on a 2.71 s pipeline"),
    ),
];

#[test]
fn the_serving_engine_and_the_offline_replay_agree_or_the_gap_is_explained() {
    let mut cells = RATIOS.iter();
    for model in [zoo::llama_7b(), zoo::llama_13b(), zoo::llama_32b()] {
        let system =
            build_ouroboros(OuroborosConfig { seed: SEED, ..OuroborosConfig::single_wafer() }, &model);
        for (label, lengths) in LengthConfig::paper_suite() {
            let trace = trace_for(&lengths, REQUESTS);
            let offline = system.simulate_labeled(&trace, &label).throughput_tokens_per_s;
            // Every request arrives within the first microsecond, so the
            // engine runs saturated, as the offline replay does.
            let timed = ArrivalConfig::Poisson { rate_rps: 1e9 }.assign(&trace, SEED);
            let online = Scenario::colocated(1).prefix_caching(false).workload(timed).run(&system).unwrap();
            let ratio = online.serving.output_tokens_per_s / offline;
            let &(pinned_model, pinned_label, pinned, cause) = cells.next().expect("a pinned cell per run");
            let at = format!("{} / {label}", model.name);
            assert_eq!((pinned_model, pinned_label), (model.name.as_str(), label.as_str()), "cell order");
            assert!((ratio / pinned - 1.0).abs() <= 0.02, "{at}: ratio {ratio}, pinned {pinned} ± 2%");
            let explained = (0.9..=1.1).contains(&pinned) || cause.is_some();
            assert!(explained, "{at}: a ratio of {pinned} needs a cause");
        }
    }
    assert!(cells.next().is_none(), "every pinned cell runs");
}
