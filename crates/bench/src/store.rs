//! An append-only results store with regression gating.
//!
//! `experiments bench-report` measures the simulator; this module
//! remembers the measurements. Runs are grouped by a **config hash** —
//! an FNV-1a digest over the identity fields of a row set
//! (`schema_version`, `experiment`, `label`, `requests`), so runs of the
//! same configuration land in the same history file and runs of
//! different configurations never get diffed against each other. Each
//! [`Store::append`] call re-reads the history file, appends the new
//! rows stamped with a monotonically increasing `store_seq`, and
//! rewrites it — append-only in the sense that prior rows are never
//! edited or dropped.
//!
//! [`compare_rows`] is the gate: it matches current rows to baseline
//! rows by `(experiment, label)` and produces a [`Verdict`] that
//! distinguishes **failures** (schema drift — key sets or schema
//! versions diverged; determinism drift — a simulated metric moved on
//! the same config; a baseline row vanished) from **regressions**
//! (throughput metrics fell more than the threshold). Failures always
//! gate; regressions gate unless the caller runs warn-only (wall-clock
//! throughput is machine-dependent, simulated metrics are not).
//!
//! Everything here sits on the workspace's dependency-free JSON:
//! [`parse_flat_rows`] reads through the shared `json::read_rows`, the
//! counterpart of `json::render_array`, and the config hash is the shared
//! `json::fnv1a`.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::json::{self, fnv1a, JsonObject, Value};

/// Version of the flat JSON diff-row schema emitted by
/// [`Verdict::json_rows`]. Bumped on any key change.
pub const COMPARE_SCHEMA_VERSION: u32 = 1;

/// Pinned key list of one comparison diff row.
pub const COMPARE_V1_KEYS: &[&str] =
    &["schema_version", "experiment", "label", "metric", "baseline", "current", "delta_pct", "regression"];

/// Throughput metrics: wall-clock dependent, gated by the relative
/// threshold (and the natural warn-only candidates on shared CI
/// machines).
pub const THROUGHPUT_METRICS: &[&str] = &["requests_per_s", "loop_events_per_s"];

/// Determinism metrics: pure functions of the configuration. Any drift
/// at all on a matching config is a hard failure, not a regression.
pub const DETERMINISM_METRICS: &[&str] = &["completed", "sim_duration_s"];

/// One scalar JSON value of a stored row: the shared reader's value with
/// owned strings.
pub type JsonValue = Value<String>;

/// One flat row: key → scalar, ordered by key.
pub type FlatRow = BTreeMap<String, JsonValue>;

/// Parses a JSON array of flat objects (the shape every workspace
/// exporter writes) through the shared [`json::read_rows`], detaching each row
/// from the text. Nested containers are an error.
///
/// # Errors
///
/// Returns a message naming the offending byte offset on malformed
/// input.
pub fn parse_flat_rows(text: &str) -> Result<Vec<FlatRow>, String> {
    Ok(json::read_rows(text)?
        .into_iter()
        .map(|row| row.fields.into_iter().map(|(k, v)| (k.into_owned(), v.into_owned())).collect())
        .collect())
}

/// The fields that identify a configuration (as opposed to measuring
/// it): rows agreeing on all of these are runs of the same experiment
/// and may be diffed.
pub const CONFIG_HASH_FIELDS: &[&str] = &["schema_version", "experiment", "label", "requests"];

/// Content-addresses a row set by its identity fields: FNV-1a over the
/// canonical `key=value` lines of every row's [`CONFIG_HASH_FIELDS`],
/// row-order independent (rows are sorted canonically first).
pub fn config_hash(rows: &[FlatRow]) -> u64 {
    let mut lines: Vec<String> = rows
        .iter()
        .map(|row| {
            CONFIG_HASH_FIELDS
                .iter()
                .map(|&f| match row.get(f) {
                    Some(JsonValue::Str(s)) => format!("{f}={s}"),
                    Some(JsonValue::Num(n)) => format!("{f}={n}"),
                    Some(JsonValue::Bool(b)) => format!("{f}={b}"),
                    Some(JsonValue::Null) | None => format!("{f}="),
                })
                .collect::<Vec<String>>()
                .join("|")
        })
        .collect();
    lines.sort();
    fnv1a(lines.join("\n").as_bytes())
}

/// Renders a parsed row back to the workspace JSON shape (used when the
/// store rewrites a history file; bools become 0/1 like every other
/// workspace flag column).
pub fn row_to_json(row: &FlatRow) -> JsonObject {
    let mut obj = JsonObject::new();
    for (key, value) in row {
        obj = match value {
            JsonValue::Null => obj.null(key),
            JsonValue::Bool(b) => obj.int(key, u64::from(*b)),
            JsonValue::Num(n) => obj.num(key, *n),
            JsonValue::Str(s) => obj.str(key, s),
        };
    }
    obj
}

/// The append-only results store: one JSON history file per config hash
/// under a root directory.
#[derive(Debug, Clone)]
pub struct Store {
    root: PathBuf,
}

impl Store {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Store> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(Store { root })
    }

    /// The history file of one config hash.
    pub fn path_for(&self, hash: u64) -> PathBuf {
        self.root.join(format!("{hash:016x}.json"))
    }

    /// Appends one run's rows to the hash's history, stamping each row
    /// with the run's `store_seq` (0 for the first run). Returns the
    /// sequence number assigned.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures and reports unparseable history files.
    pub fn append(&self, hash: u64, rows: &[FlatRow]) -> io::Result<u64> {
        let mut history = self.history(hash)?;
        let seq = history
            .iter()
            .filter_map(|r| r.get("store_seq").and_then(JsonValue::as_num))
            .fold(None, |acc: Option<f64>, s| Some(acc.map_or(s, |a| a.max(s))));
        let seq = seq.map_or(0, |s| s as u64 + 1);
        for row in rows {
            let mut row = row.clone();
            row.insert("store_seq".to_string(), JsonValue::Num(seq as f64));
            history.push(row);
        }
        let objs: Vec<JsonObject> = history.iter().map(row_to_json).collect();
        crate::json::write_array(self.path_for(hash).to_str().expect("utf-8 store path"), &objs)?;
        Ok(seq)
    }

    /// Every row ever stored under the hash, in append order.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures and reports unparseable history files.
    pub fn history(&self, hash: u64) -> io::Result<Vec<FlatRow>> {
        let path = self.path_for(hash);
        if !path.exists() {
            return Ok(Vec::new());
        }
        let text = fs::read_to_string(&path)?;
        parse_flat_rows(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{}: {e}", path.display())))
    }

    /// The most recent run's rows under the hash (highest `store_seq`),
    /// with the stamp stripped so they diff cleanly against fresh rows.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures and reports unparseable history files.
    pub fn latest(&self, hash: u64) -> io::Result<Option<Vec<FlatRow>>> {
        let history = self.history(hash)?;
        let last = history
            .iter()
            .filter_map(|r| r.get("store_seq").and_then(JsonValue::as_num))
            .fold(None, |acc: Option<f64>, s| Some(acc.map_or(s, |a| a.max(s))));
        let Some(last) = last else { return Ok(None) };
        let rows: Vec<FlatRow> = history
            .into_iter()
            .filter(|r| r.get("store_seq").and_then(JsonValue::as_num) == Some(last))
            .map(|mut r| {
                r.remove("store_seq");
                r
            })
            .collect();
        Ok(Some(rows))
    }
}

/// One metric's baseline-vs-current comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDiff {
    /// The row's `experiment` tag.
    pub experiment: String,
    /// The row's `label` tag.
    pub label: String,
    /// The metric key compared.
    pub metric: String,
    /// Stored value.
    pub baseline: f64,
    /// Fresh value.
    pub current: f64,
    /// Relative change in percent (positive = current larger; 0 when the
    /// baseline is 0).
    pub delta_pct: f64,
    /// Whether this diff crossed the regression threshold.
    pub regression: bool,
}

/// The outcome of comparing a current run against a stored baseline.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    /// Every throughput/determinism metric compared, row by row.
    pub diffs: Vec<MetricDiff>,
    /// Hard failures: schema drift, determinism drift, vanished rows.
    pub failures: Vec<String>,
    /// `(experiment, label)` pairs present now but absent from the
    /// baseline (informational — new coverage is not a regression).
    pub added: Vec<String>,
}

impl Verdict {
    /// Number of threshold regressions.
    pub fn regressions(&self) -> usize {
        self.diffs.iter().filter(|d| d.regression).count()
    }

    /// Whether the gate passes: failures never pass; regressions pass
    /// only in warn-only mode.
    pub fn passed(&self, warn_only: bool) -> bool {
        self.failures.is_empty() && (warn_only || self.regressions() == 0)
    }

    /// The comparison as flat JSON rows sharing
    /// [`COMPARE_SCHEMA_VERSION`] and the pinned [`COMPARE_V1_KEYS`].
    pub fn json_rows(&self) -> Vec<JsonObject> {
        self.diffs
            .iter()
            .map(|d| {
                JsonObject::new()
                    .int("schema_version", COMPARE_SCHEMA_VERSION as u64)
                    .str("experiment", &d.experiment)
                    .str("label", &d.label)
                    .str("metric", &d.metric)
                    .num("baseline", d.baseline)
                    .num("current", d.current)
                    .num("delta_pct", d.delta_pct)
                    .int("regression", u64::from(d.regression))
            })
            .collect()
    }

    /// A human-readable diff table plus the failure list.
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "  {:<14} {:<18} {:<18} {:>14} {:>14} {:>9}\n",
            "experiment", "label", "metric", "baseline", "current", "delta"
        ));
        for d in &self.diffs {
            out.push_str(&format!(
                "  {:<14} {:<18} {:<18} {:>14.4} {:>14.4} {:>+8.1}%{}\n",
                d.experiment,
                d.label,
                d.metric,
                d.baseline,
                d.current,
                d.delta_pct,
                if d.regression { "  << REGRESSION" } else { "" }
            ));
        }
        for a in &self.added {
            out.push_str(&format!("  added (no baseline): {a}\n"));
        }
        for f in &self.failures {
            out.push_str(&format!("  FAILURE: {f}\n"));
        }
        out.push_str(&format!(
            "  {} metrics compared, {} regressions, {} failures\n",
            self.diffs.len(),
            self.regressions(),
            self.failures.len()
        ));
        out
    }
}

/// Key of one row for matching: its `(experiment, label)` tags.
fn row_key(row: &FlatRow) -> String {
    let tag = |f: &str| row.get(f).and_then(JsonValue::as_str).unwrap_or("?").to_string();
    format!("{}/{}", tag("experiment"), tag("label"))
}

/// Diffs `current` rows against `baseline` rows matched by
/// `(experiment, label)`. Schema drift (diverging key sets or
/// `schema_version`) and vanished baseline rows are failures;
/// determinism metrics drifting on a matching `requests` count are
/// failures; throughput metrics falling more than `threshold`
/// (relative, e.g. `0.10` = 10%) are regressions.
pub fn compare_rows(current: &[FlatRow], baseline: &[FlatRow], threshold: f64) -> Verdict {
    let mut verdict = Verdict::default();
    let by_key: BTreeMap<String, &FlatRow> = baseline.iter().map(|r| (row_key(r), r)).collect();
    let current_keys: Vec<String> = current.iter().map(row_key).collect();

    for base in baseline {
        let key = row_key(base);
        if !current_keys.contains(&key) {
            verdict.failures.push(format!("baseline row {key} missing from the current run"));
        }
    }

    for row in current {
        let key = row_key(row);
        let Some(base) = by_key.get(&key) else {
            verdict.added.push(key);
            continue;
        };
        let row_keys: Vec<&String> = row.keys().collect();
        let base_keys: Vec<&String> = base.keys().collect();
        if row_keys != base_keys {
            verdict.failures.push(format!(
                "schema drift on {key}: baseline keys {base_keys:?} != current keys {row_keys:?}"
            ));
            continue;
        }
        if row.get("schema_version") != base.get("schema_version") {
            verdict.failures.push(format!("schema drift on {key}: schema_version changed"));
            continue;
        }
        let (experiment, label) = {
            let tag = |f: &str| row.get(f).and_then(JsonValue::as_str).unwrap_or("?").to_string();
            (tag("experiment"), tag("label"))
        };
        let num = |r: &FlatRow, f: &str| r.get(f).and_then(JsonValue::as_num);
        let same_config = num(row, "requests") == num(base, "requests");

        for &metric in THROUGHPUT_METRICS {
            let (Some(b), Some(c)) = (num(base, metric), num(row, metric)) else { continue };
            let delta_pct = if b != 0.0 { (c - b) / b * 100.0 } else { 0.0 };
            let regression = b > 0.0 && c < b * (1.0 - threshold);
            verdict.diffs.push(MetricDiff {
                experiment: experiment.clone(),
                label: label.clone(),
                metric: metric.to_string(),
                baseline: b,
                current: c,
                delta_pct,
                regression,
            });
        }
        if same_config {
            for &metric in DETERMINISM_METRICS {
                let (Some(b), Some(c)) = (num(base, metric), num(row, metric)) else { continue };
                let drift = (c - b).abs() > b.abs().max(1.0) * 1e-9;
                if drift {
                    verdict.failures.push(format!(
                        "determinism drift on {key}: {metric} moved from {b} to {c} on the same config"
                    ));
                }
            }
        }
    }
    verdict
}

/// Reads and parses one flat-row JSON file.
///
/// # Errors
///
/// Propagates I/O failures and reports parse failures with the path.
pub fn read_rows(path: &Path) -> io::Result<Vec<FlatRow>> {
    let text = fs::read_to_string(path)?;
    parse_flat_rows(&text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{}: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::render_array;

    fn row(experiment: &str, label: &str, requests: f64, rps: f64) -> FlatRow {
        let mut r = FlatRow::new();
        r.insert("schema_version".into(), JsonValue::Num(1.0));
        r.insert("experiment".into(), JsonValue::Str(experiment.into()));
        r.insert("label".into(), JsonValue::Str(label.into()));
        r.insert("requests".into(), JsonValue::Num(requests));
        r.insert("completed".into(), JsonValue::Num(requests));
        r.insert("sim_duration_s".into(), JsonValue::Num(2.5));
        r.insert("requests_per_s".into(), JsonValue::Num(rps));
        r
    }

    #[test]
    fn parse_round_trips_the_workspace_emitter() {
        let objs = vec![
            JsonObject::new().int("schema_version", 1).str("label", "a \"quoted\"\nline").num("x", 0.125),
            JsonObject::new().null("req").num("t_s", 8.0).int("big", u64::MAX),
        ];
        let rows = parse_flat_rows(&render_array(&objs)).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0]["label"], JsonValue::Str("a \"quoted\"\nline".into()));
        assert_eq!(rows[0]["x"], JsonValue::Num(0.125));
        assert_eq!(rows[1]["req"], JsonValue::Null);
        assert_eq!(rows[1]["t_s"], JsonValue::Num(8.0));
        // Render→parse→render is exact for workspace rows.
        let rendered: Vec<JsonObject> = rows.iter().map(row_to_json).collect();
        assert_eq!(parse_flat_rows(&render_array(&rendered)).unwrap(), rows);
    }

    #[test]
    fn parser_rejects_nested_containers_and_garbage() {
        assert!(parse_flat_rows("[{\"a\": {\"b\": 1}}]").unwrap_err().contains("nested"));
        assert!(parse_flat_rows("[{\"a\": [1]}]").unwrap_err().contains("nested"));
        assert!(parse_flat_rows("[{\"a\": 1}] trailing").unwrap_err().contains("trailing"));
        assert!(parse_flat_rows("[{\"a\": nope}]").is_err());
        assert!(parse_flat_rows("").is_err());
        assert_eq!(parse_flat_rows("[]").unwrap(), Vec::<FlatRow>::new());
    }

    #[test]
    fn config_hash_tracks_identity_not_measurements() {
        let a = vec![row("serve", "colocated", 100.0, 50.0)];
        let b = vec![row("serve", "colocated", 100.0, 99.0)];
        assert_eq!(config_hash(&a), config_hash(&b), "measurements must not shift the address");
        let c = vec![row("serve", "colocated", 200.0, 50.0)];
        assert_ne!(config_hash(&a), config_hash(&c), "request count is identity");
        let d = vec![row("serve", "disagg", 100.0, 50.0)];
        assert_ne!(config_hash(&a), config_hash(&d), "label is identity");
        // Row order does not matter.
        let two = vec![row("serve", "a", 1.0, 1.0), row("serve", "b", 1.0, 1.0)];
        let rev = vec![row("serve", "b", 1.0, 1.0), row("serve", "a", 1.0, 1.0)];
        assert_eq!(config_hash(&two), config_hash(&rev));
    }

    #[test]
    fn store_appends_and_returns_the_latest_run() {
        let dir = std::env::temp_dir().join(format!("ouro-store-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        let first = vec![row("serve", "colocated", 100.0, 50.0)];
        let second = vec![row("serve", "colocated", 100.0, 60.0)];
        let hash = config_hash(&first);
        assert_eq!(store.latest(hash).unwrap(), None);
        assert_eq!(store.append(hash, &first).unwrap(), 0);
        assert_eq!(store.append(hash, &second).unwrap(), 1);
        assert_eq!(store.history(hash).unwrap().len(), 2, "append-only: both runs retained");
        let latest = store.latest(hash).unwrap().unwrap();
        assert_eq!(latest, second, "latest run, store_seq stripped");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn throughput_drops_gate_and_warn_only_waives_them() {
        let baseline = vec![row("serve", "colocated", 100.0, 50.0)];
        let mut slower = row("serve", "colocated", 100.0, 40.0);
        slower.insert("requests_per_s".into(), JsonValue::Num(40.0));
        let verdict = compare_rows(&[slower], &baseline, 0.10);
        assert_eq!(verdict.regressions(), 1, "a 20% drop crosses the 10% threshold");
        assert!(verdict.failures.is_empty());
        assert!(!verdict.passed(false));
        assert!(verdict.passed(true), "warn-only waives throughput regressions");
        let ok = compare_rows(&[row("serve", "colocated", 100.0, 47.0)], &baseline, 0.10);
        assert_eq!(ok.regressions(), 0, "a 6% drop stays inside the threshold");
        assert!(ok.passed(false));
    }

    #[test]
    fn schema_and_determinism_drift_always_fail() {
        let baseline = vec![row("serve", "colocated", 100.0, 50.0)];
        // A new key is schema drift.
        let mut extra = row("serve", "colocated", 100.0, 50.0);
        extra.insert("new_metric".into(), JsonValue::Num(1.0));
        let verdict = compare_rows(&[extra], &baseline, 0.10);
        assert!(!verdict.passed(true), "schema drift fails even warn-only");
        assert!(verdict.failures[0].contains("schema drift"));
        // A simulated metric moving on the same config is determinism drift.
        let mut moved = row("serve", "colocated", 100.0, 50.0);
        moved.insert("sim_duration_s".into(), JsonValue::Num(2.6));
        let verdict = compare_rows(&[moved], &baseline, 0.10);
        assert!(!verdict.passed(true));
        assert!(verdict.failures[0].contains("determinism drift"));
        // A vanished row fails; an added row does not.
        let verdict = compare_rows(&[], &baseline, 0.10);
        assert!(!verdict.passed(true));
        let verdict = compare_rows(
            &[row("serve", "colocated", 100.0, 50.0), row("serve", "new", 10.0, 1.0)],
            &baseline,
            0.10,
        );
        assert!(verdict.passed(false));
        assert_eq!(verdict.added, vec!["serve/new".to_string()]);
    }

    #[test]
    fn diff_rows_match_their_pinned_key_set() {
        let baseline = vec![row("serve", "colocated", 100.0, 50.0)];
        let verdict = compare_rows(&baseline.clone(), &baseline, 0.10);
        assert!(!verdict.diffs.is_empty());
        for row in verdict.json_rows() {
            assert_eq!(row.keys(), COMPARE_V1_KEYS);
            assert!(row.render().starts_with(&format!("{{\"schema_version\": {COMPARE_SCHEMA_VERSION}")));
        }
        assert!(verdict.report().contains("metrics compared"));
    }
}
