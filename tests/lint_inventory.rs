//! Pins the two inventories the lint configuration cannot pin itself.
//!
//! * Every `const …SCHEMA_VERSION: u32` in the crates must be in
//!   [`SCHEMA_PINS`], and each must be referenced by some test. A new
//!   schema has to be added here on purpose, next to its key-set golden.
//! * The determinism rules live in the root `clippy.toml` (DESIGN §13).
//!   Their exemptions are `#[expect(clippy::disallowed_…, reason = "…")]`
//!   sites, capped at [`MAX_EXPECTS`] so the list cannot grow silently.
//!   Dead-code exemptions are `#[expect(dead_code, reason = "…")]` sites,
//!   each with its reason, capped at [`MAX_DEAD_CODE_EXPECTS`]. `allow`
//!   would skip the stale-suppression check, so it is used for neither.
//!
//! Plain text scans over the source tree with `std::fs`; no lexer.

use std::fs;
use std::path::{Path, PathBuf};

/// `(file, const)` of every schema version, each pinned by a golden.
const SCHEMA_PINS: &[(&str, &str)] = &[
    ("crates/serve/src/report.rs", "SCHEMA_VERSION"),
    ("crates/serve/src/snapshot.rs", "SNAPSHOT_SCHEMA_VERSION"),
    ("crates/trace/src/analyze.rs", "ANALYZE_SCHEMA_VERSION"),
    ("crates/trace/src/event.rs", "TRACE_SCHEMA_VERSION"),
    ("crates/trace/src/telemetry.rs", "TELEMETRY_SCHEMA_VERSION"),
];

/// The `FastMap` alias over std `HashMap`. The wall-clock ban has no
/// exemption.
const MAX_EXPECTS: usize = 1;

/// The 16- and 32-bit `Precision` widths, which no zoo model uses.
const MAX_DEAD_CODE_EXPECTS: usize = 1;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, as `(path relative to the root, text)`,
/// sorted by path.
fn sources(dir: &Path) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = fs::read_dir(&d) else { continue };
        for entry in entries {
            let path: PathBuf = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path.strip_prefix(root()).unwrap().to_string_lossy().replace('\\', "/");
                out.push((rel, fs::read_to_string(&path).unwrap()));
            }
        }
    }
    out.sort();
    out
}

/// The crate sources, `crates/*/src/**/*.rs`.
fn crate_sources() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for krate in fs::read_dir(root().join("crates")).unwrap() {
        out.extend(sources(&krate.unwrap().path().join("src")));
    }
    out.sort();
    out
}

/// Whether `text` holds `name` as a whole identifier.
fn mentions(text: &str, name: &str) -> bool {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    text.match_indices(name)
        .any(|(at, _)| !text[..at].ends_with(ident) && !text[at + name.len()..].starts_with(ident))
}

#[test]
fn schema_versions_are_the_pinned_list_and_each_is_tested() {
    let mut found = Vec::new();
    for (path, text) in crate_sources() {
        for line in text.lines() {
            let decl = line.trim_start().trim_start_matches("pub(crate) ").trim_start_matches("pub ");
            if let Some((name, _)) = decl.strip_prefix("const ").and_then(|r| r.split_once(": u32")) {
                if name.ends_with("SCHEMA_VERSION") {
                    found.push((path.clone(), name.to_string()));
                }
            }
        }
    }
    let pinned: Vec<(String, String)> = SCHEMA_PINS.iter().map(|&(p, n)| (p.into(), n.into())).collect();
    assert_eq!(found, pinned, "schema versions changed: pin the new schema's key set, then this list");

    // A test references each one: a `tests/` file, or a crate source's
    // `mod tests` tail.
    let mut test_code: Vec<String> = sources(&root().join("tests")).into_iter().map(|(_, t)| t).collect();
    for krate in fs::read_dir(root().join("crates")).unwrap() {
        test_code.extend(sources(&krate.unwrap().path().join("tests")).into_iter().map(|(_, t)| t));
    }
    test_code
        .extend(crate_sources().into_iter().filter_map(|(_, t)| t.find("mod tests").map(|i| t[i..].into())));
    for (path, name) in SCHEMA_PINS {
        assert!(test_code.iter().any(|t| mentions(t, name)), "{path}: no test references {name}");
    }
}

#[test]
fn lint_exemptions_stay_within_the_inventory() {
    let this = file!().replace('\\', "/");
    let mut expects = Vec::new();
    let mut allows = Vec::new();
    let mut dead_code = Vec::new();
    let mut unreasoned = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        for (path, text) in sources(&root().join(dir)) {
            if path == this {
                continue;
            }
            // rustfmt may break an attribute after its `(`, so the lint
            // name is matched past any whitespace.
            for (attr, expect) in [("expect(", true), ("allow(", false)] {
                for (at, _) in text.match_indices(attr) {
                    let args = &text[at + attr.len()..];
                    let site = format!("{path}:{}", text[..at].lines().count());
                    if args.trim_start().starts_with("clippy::disallowed_") {
                        let sites = if expect { &mut expects } else { &mut allows };
                        sites.push(site);
                    } else if args.trim_start().starts_with("dead_code") {
                        if !expect {
                            allows.push(site);
                        } else {
                            let close = args.find(')').unwrap_or(args.len());
                            if !args[..close].contains("reason =") {
                                unreasoned.push(site.clone());
                            }
                            dead_code.push(site);
                        }
                    }
                }
            }
        }
    }
    assert!(expects.len() <= MAX_EXPECTS, "lint exemptions grew past {MAX_EXPECTS}: {expects:#?}");
    assert!(
        dead_code.len() <= MAX_DEAD_CODE_EXPECTS,
        "dead-code exemptions grew past {MAX_DEAD_CODE_EXPECTS}: {dead_code:#?}"
    );
    assert!(unreasoned.is_empty(), "a dead-code exemption states no reason: {unreasoned:#?}");
    assert!(allows.is_empty(), "use #[expect(…, reason)], which flags stale exemptions: {allows:#?}");
}
