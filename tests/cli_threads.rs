//! `evmatch match --threads N` at the edges of `N`: no thread count a
//! user can type may panic the process.

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

/// `--threads` runs Algorithm 3, which is the practical setting only;
/// `--mode ideal` beside it used to run practical and say nothing.
#[test]
fn ideal_mode_with_threads_is_an_argument_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_evmatch"))
        .args(["match", "--population", "60", "--duration", "100"])
        .args(["--targets", "5", "--mode", "ideal", "--threads", "2"])
        .output()
        .expect("run evmatch match");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("argument error: --mode ideal"),
        "{stderr}"
    );
}
