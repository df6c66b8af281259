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

use ouro_bench::compare_all;
use ouro_bench::json::{self, JsonObject, Row};
use ouro_model::{zoo, ModelConfig};
use ouro_workload::LengthConfig;

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
