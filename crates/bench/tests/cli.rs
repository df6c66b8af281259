//! The `experiments` binary rejects a flag its subcommand does not honor
//! before it runs anything, so a misconfigured invocation costs nothing
//! and leaves no partial output behind.

use std::path::Path;
use std::process::Command;

#[test]
fn flags_a_subcommand_does_not_honor_are_rejected_before_it_runs() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("experiments-rejected-out.json");
    let out_arg = out.to_str().expect("the target directory is UTF-8");
    // `--out` on a subcommand that emits no rows, and `--requests` on one
    // that simulates no request trace.
    let rejected: [&[&str]; 3] =
        [&["table2", "--out", out_arg], &["table2", "--requests", "5"], &["fig18", "--requests", "5"]];
    for args in rejected {
        let _ = std::fs::remove_file(&out);
        let run = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .output()
            .expect("the experiments binary starts");
        assert_eq!(run.status.code(), Some(2), "{args:?}: stderr: {}", String::from_utf8_lossy(&run.stderr));
        assert!(run.stdout.is_empty(), "{args:?} ran first: {}", String::from_utf8_lossy(&run.stdout));
        assert!(!out.exists(), "{args:?}: nothing may be written");
    }
}
