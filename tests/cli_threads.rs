//! `evmatch match --threads N` at the edges of `N`, and corpus sizes at
//! theirs: no thread count or population a user can type may panic or
//! abort the process, and no thread count changes the report. Argument
//! errors exit 2, refused configurations 1.

use std::process::{Command, Output};

fn evmatch_match(threads: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_evmatch"))
        .args(["match", "--population", "60", "--duration", "100"])
        .args(["--targets", "5", "--json", "--threads", threads])
        .output()
        .expect("run evmatch match")
}

/// The report's fields, the two wall-clock ones aside.
fn report(out: &Output) -> Vec<(String, serde_json::Value)> {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr:\n{stderr}");
    let json: serde_json::Value = serde_json::from_str(&stdout).expect("--json prints JSON");
    let mut fields = json.as_obj().expect("one JSON object").to_vec();
    fields.retain(|(name, _)| name != "e_secs" && name != "v_secs");
    assert!(fields.iter().any(|(name, _)| name == "outcomes"));
    fields
}

#[test]
fn far_more_threads_than_tasks_runs_one_worker_per_task() {
    // 200 000 threads is more than the OS will start (this once
    // panicked in `thread::scope`); the graph has a few hundred tasks
    // and a worker beyond one per task could never be handed anything.
    assert_eq!(
        report(&evmatch_match("200000")),
        report(&evmatch_match("2"))
    );
}

#[test]
fn zero_threads_is_an_argument_error() {
    let out = evmatch_match("0");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--threads must be at least 1"), "{stderr}");
}

/// `--threads` changes only where the pipeline runs: `--mode ideal`
/// beside it prints the sequential ideal-mode report.
#[test]
fn ideal_mode_with_threads_prints_the_sequential_report() {
    let ideal = |threads: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_evmatch"))
            .args(["match", "--population", "60", "--duration", "100"])
            .args(["--targets", "5", "--json", "--mode", "ideal"])
            .args(threads)
            .output()
            .expect("run evmatch match")
    };
    assert_eq!(report(&ideal(&["--threads", "2"])), report(&ideal(&[])));
}

/// Retired options are argument errors, never silently ignored: the
/// anytime scorer's `--confidence` flag and `check-anytime` subcommand
/// are gone, and an unknown subcommand exits 2 like every other usage
/// error.
#[test]
fn retired_anytime_options_are_argument_errors() {
    for (args, says) in [
        (
            &["match", "--confidence", "0.95"][..],
            "unknown flag --confidence",
        ),
        (&["check-anytime"][..], "unknown command check-anytime"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_evmatch"))
            .args(args)
            .output()
            .expect("run evmatch");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(says), "{args:?}: {stderr}");
    }
}

/// A generator configuration too large to hold is an error, as
/// `--population 0` is, never an abort: `u64::MAX` people once panicked
/// with `capacity overflow`. Each one here is refused before anything is
/// allocated, since people × ticks overflows.
#[test]
fn oversized_populations_are_errors_not_aborts() {
    for (population, duration) in [
        ("18446744073709551615", "400"),
        ("4294967296", "4294967296"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_evmatch"))
            .args(["match", "--population", population, "--duration", duration])
            .args(["--targets", "5"])
            .output()
            .expect("run evmatch match");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{population} × {duration}: {stderr}"
        );
        assert!(
            stderr.starts_with("error: invalid parameter `population`"),
            "{stderr}"
        );
    }
}
