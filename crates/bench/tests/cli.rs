//! The `experiments` binary rejects a flag its subcommand does not honor
//! before it runs anything, so a misconfigured invocation costs nothing
//! and leaves no partial output behind.

use std::path::Path;
use std::process::Command;

#[test]
fn out_on_a_subcommand_without_rows_is_rejected_before_it_runs() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("experiments-table2-out.json");
    let _ = std::fs::remove_file(&out);
    let run = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("table2")
        .arg("--out")
        .arg(&out)
        .output()
        .expect("the experiments binary starts");
    assert_eq!(run.status.code(), Some(2), "stderr: {}", String::from_utf8_lossy(&run.stderr));
    assert!(run.stdout.is_empty(), "table2 ran first: {}", String::from_utf8_lossy(&run.stdout));
    assert!(!out.exists(), "nothing may be written");
}
