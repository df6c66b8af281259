//! Pins every row of every figure and table the `experiments` binary prints
//! (`ouro_bench::FIGURES`: Figs. 1, 11, 13–21 and Table 2) at the CLI's
//! default request counts and the harness [`SEED`](ouro_bench::SEED).
//!
//! The expected rows live in `golden/figures.json`, written with the
//! shared row codec, so the comparison is exact. A mismatch names the
//! figure, the row and the field, and prints the figure's regenerated rows.
//! A change that moves a figure on purpose replaces that figure's rows with
//! them, and says why in its description.

use ouro_bench::json::{self, Row};
use ouro_bench::{DEFAULT_REQUESTS, FIGURES};

const GOLDEN: &str = include_str!("../golden/figures.json");

/// A row's index and its string fields other than the tag, such as
/// `3 (LLaMA-13B / WikiText-2 / Ours)`.
fn name(index: usize, row: &Row) -> String {
    let labels: Vec<&str> =
        row.fields.iter().filter(|(k, _)| k != "experiment").filter_map(|(_, v)| v.as_str()).collect();
    format!("{index} ({})", labels.join(" / "))
}

fn check(experiment: &str) {
    let figure = FIGURES.iter().find(|f| f.experiment == experiment).expect("a listed figure");
    let golden = json::read_rows(GOLDEN).expect("golden/figures.json parses");
    let expected: Vec<&Row> = golden.iter().filter(|r| r.get_str("experiment") == Ok(experiment)).collect();
    let rendered = json::render_array(&figure.rows(DEFAULT_REQUESTS));
    let actual = json::read_rows(&rendered).expect("rendered rows parse");

    let mut diffs = Vec::new();
    if expected.len() != actual.len() {
        diffs.push(format!("{} golden rows, {} computed", expected.len(), actual.len()));
    }
    for (i, (want, got)) in expected.iter().zip(&actual).enumerate() {
        if want.fields.len() != got.fields.len() {
            diffs.push(format!(
                "row {}: {} golden fields, {} computed",
                name(i, got),
                want.fields.len(),
                got.fields.len()
            ));
        }
        for (key, value) in &got.fields {
            let pinned = want.get(key);
            if pinned != Some(value) {
                diffs.push(format!("row {}: {key} golden {pinned:?}, now {value:?}", name(i, got)));
            }
        }
    }
    assert!(
        diffs.is_empty(),
        "{experiment}: {} cells differ from golden/figures.json:\n{}\nregenerated rows:\n{rendered}",
        diffs.len(),
        diffs.join("\n"),
    );
}

#[test]
fn every_figure_is_pinned() {
    let golden = json::read_rows(GOLDEN).expect("golden/figures.json parses");
    let tags: Vec<&str> = FIGURES.iter().map(|f| f.experiment).collect();
    for row in &golden {
        let tag = row.get_str("experiment").expect("a tagged row");
        assert!(tags.contains(&tag), "golden row of unknown figure {tag}");
    }
}

#[test]
fn fig1_is_pinned() {
    check("fig1");
}

#[test]
fn fig11_is_pinned() {
    check("fig11");
}

#[test]
fn fig13_14_is_pinned() {
    check("fig13-14");
}

#[test]
fn fig15_is_pinned() {
    check("fig15");
}

#[test]
fn fig16_is_pinned() {
    check("fig16");
}

#[test]
fn fig17_is_pinned() {
    check("fig17");
}

#[test]
fn fig18_is_pinned() {
    check("fig18");
}

#[test]
fn fig19_20_is_pinned() {
    check("fig19-20");
}

#[test]
fn fig21_is_pinned() {
    check("fig21");
}

#[test]
fn table2_is_pinned() {
    check("table2");
}
