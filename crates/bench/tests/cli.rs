//! The `experiments` binary's command line: a flag its subcommand does not
//! honor is rejected before anything runs, so a misconfigured invocation
//! costs nothing and leaves no partial output behind; `--out` writes the
//! rows a figure's table prints; and every serving subcommand runs to
//! completion at the smallest request counts.

use ouro_bench::json::{self, Row};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Duration;

#[test]
fn flags_a_subcommand_does_not_honor_are_rejected_before_it_runs() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("experiments-rejected-out.json");
    let out_arg = out.to_str().expect("the target directory is UTF-8");
    // `--threads` on a subcommand that sweeps nothing, `--requests` on
    // one that simulates no request trace, and `--json`, which is not a
    // flag (`--out` names the JSON file). Each also names `--out`, which
    // must stay unwritten.
    let rejected: [&[&str]; 4] = [
        &["fig18", "--threads", "2", "--out", out_arg],
        &["table2", "--requests", "5", "--out", out_arg],
        &["fig18", "--requests", "5", "--out", out_arg],
        &["fig18", "--json", out_arg, "--out", out_arg],
    ];
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

/// `--out` works on a figure: `fig18 --out` writes the rows the figure
/// golden pins for it, byte for byte.
#[test]
fn a_figure_writes_its_golden_rows_to_out() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("experiments-fig18.json");
    let _ = std::fs::remove_file(&out);
    let run = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["fig18", "--out", out.to_str().expect("the target directory is UTF-8")])
        .output()
        .expect("the experiments binary starts");
    assert_eq!(run.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&run.stderr));
    let written = std::fs::read_to_string(&out).expect("--out wrote a file");
    let rows = json::read_rows(&written).expect("the written rows parse");
    let golden = json::read_rows(include_str!("../golden/figures.json")).expect("the golden parses");
    let pinned: Vec<&Row> = golden.iter().filter(|r| r.get_str("experiment") == Ok("fig18")).collect();
    assert_eq!(pinned.len(), 3);
    assert_eq!(rows.iter().collect::<Vec<_>>(), pinned);
}

/// Every serving subcommand finishes at one request. At one to three
/// requests `scenario`'s bursty arrival span is 9 ps to 0.1 µs, so a fault
/// MTBF derived from it is far shorter than the one-second fault window;
/// the MTBF floor keeps the fault schedule, and with it the run's memory,
/// bounded.
#[test]
fn serving_subcommands_finish_at_one_to_three_requests() {
    let cases: [&[&str]; 8] = [
        &["scenario", "--requests", "1"],
        &["scenario", "--requests", "2"],
        &["scenario", "--requests", "3"],
        &["serving", "--requests", "1"],
        &["disagg", "--requests", "1"],
        &["faults", "--requests", "1"],
        &["prefix", "--requests", "1"],
        &["analyze", "--requests", "1"],
    ];
    for args in cases {
        let run = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .output()
            .expect("the experiments binary starts");
        assert_eq!(run.status.code(), Some(0), "{args:?}: stderr: {}", String::from_utf8_lossy(&run.stderr));
    }
}

/// `faults` at 9 and 10 requests finishes. There the queue head of a decode
/// wafer cannot fit beside the wafer's lone resident sequence; evicting the
/// resident re-admitted it at the same instant, so the simulated clock
/// never moved. Each child is killed after about two minutes of polling
/// (each takes about a second in a debug build), so a hang fails the test
/// instead of stalling the suite.
#[test]
fn faults_finishes_where_a_lone_resident_blocks_the_queue_head() {
    let poll = Duration::from_millis(50);
    for requests in ["9", "10"] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(["faults", "--requests", requests])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("the experiments binary starts");
        let mut polls = 0;
        let status = loop {
            if let Some(status) = child.try_wait().expect("the child can be polled") {
                break status;
            }
            polls += 1;
            if polls > 2_400 {
                let _ = child.kill();
                let _ = child.wait();
                panic!("faults --requests {requests} did not finish after {polls} polls of {poll:?}");
            }
            std::thread::sleep(poll);
        };
        assert_eq!(status.code(), Some(0), "faults --requests {requests}");
    }
}
