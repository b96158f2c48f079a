//! The `experiments` binary checks every id and flag before it runs
//! anything, and a table it cannot save is a failed run.

use std::path::PathBuf;
use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("run experiments")
}

/// A fresh path under the system temp directory, removed first.
fn scratch(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("experiments-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn a_bad_id_or_flag_is_an_argument_error_before_anything_runs() {
    let out = scratch("bad-args");
    let dir = out.to_str().expect("utf-8 temp path");
    for args in [
        &["--quick", "--out", dir, "fig7", "nope"][..],
        &["--qiuck", "--out", dir, "fig7"],
        &["--quick", "fig7", "--out"],
        &["--quick", "--out", dir],
    ] {
        let run = experiments(args);
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        assert!(run.stdout.is_empty(), "{args:?}: an experiment ran");
        assert!(!out.exists(), "{args:?}: wrote {}", out.display());
    }
    let stderr =
        String::from_utf8_lossy(&experiments(&["--quick", "fig7", "--out"]).stderr).into_owned();
    assert!(stderr.contains("--out needs a directory"), "{stderr}");
}

#[test]
fn a_table_that_cannot_be_saved_fails_the_run() {
    // `--out` names a file, so the directory cannot be created.
    let file = scratch("not-a-dir");
    std::fs::write(&file, b"").expect("temp file");
    let run = experiments(&[
        "--quick",
        "--out",
        file.to_str().expect("utf-8 temp path"),
        "ablate-vague",
    ]);
    std::fs::remove_file(&file).expect("remove temp file");
    assert_eq!(run.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(
        stderr.contains("could not save ablate-vague.json"),
        "{stderr}"
    );
}
