//! `evmatch query` and the subcommand-only flags: a flag belongs to the
//! one subcommand that reads it and is an argument error (exit 2)
//! anywhere else, a subcommand without its required flag is one too,
//! and `query` checks its question before it runs a match, so a bad
//! question exits 2 at once instead of 1 after a whole match.

use std::process::{Command, Output};

const WORLD: [&str; 6] = ["--population", "60", "--duration", "100", "--targets", "5"];

fn evmatch(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_evmatch"))
        .args(args)
        .output()
        .expect("run evmatch")
}

fn stdout(out: &Output) -> String {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr:\n{stderr}");
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn subcommand_flags_are_argument_errors_elsewhere() {
    for (command, flag, owner) in [
        ("match", "--eid", "query"),
        ("match", "--cell", "query"),
        ("serve", "--from", "query"),
        ("match", "--in", "check-metrics"),
        ("match", "--smoke", "check-metrics"),
        ("query", "--apply-every", "serve"),
        ("match", "--checkpoint-every", "serve"),
    ] {
        let out = evmatch(&[command, flag, "1"]);
        assert_eq!(out.status.code(), Some(2), "{command} {flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let says = format!("flag {flag} belongs to `evmatch {owner}`");
        assert!(stderr.contains(&says), "{command} {flag}: {stderr}");
    }
}

#[test]
fn a_missing_required_flag_is_an_argument_error() {
    for (command, flag) in [
        ("check-metrics", "--in PATH (or --smoke)"),
        ("ingest", "--data-dir DIR"),
        ("serve", "--data-dir DIR"),
    ] {
        let out = evmatch(&[command]);
        assert_eq!(out.status.code(), Some(2), "{command}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let says = format!("{command} needs {flag}");
        assert!(stderr.contains(&says), "{command}: {stderr}");
    }
}

#[test]
fn a_bad_query_is_an_argument_error_before_any_match() {
    for args in [
        &[][..],
        &["--eid", "zz"],
        &["--cell", "x"],
        &["--from", "0", "--to", "10"],
        &["--eid", "1", "--cell", "3"],
        &["--eid", "1", "--to", "10"],
    ] {
        let out = evmatch(&[&["query"], args].concat());
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: a match ran");
    }
}

#[test]
fn query_by_eid_prints_that_eids_line() {
    // `match` lists its first outcomes as `  EID -> VID`.
    let matched = stdout(&evmatch(&[&["match"], &WORLD[..]].concat()));
    let eid = matched
        .lines()
        .find_map(|line| line.strip_prefix("  ")?.split(" -> ").next())
        .expect("a sampled target");
    let out = stdout(&evmatch(&[&["query", "--eid", eid], &WORLD[..]].concat()));
    assert!(out.starts_with(&format!("{eid} ")), "{out}");
}

#[test]
fn query_by_cell_lists_who_was_there() {
    let args = [
        &["query", "--cell", "3", "--from", "0", "--to", "50"],
        &WORLD[..],
    ]
    .concat();
    let out = stdout(&evmatch(&args));
    let (head, identities) = out.split_once('\n').expect("a header line");
    let listed = identities.lines().count();
    assert_eq!(
        head,
        format!("{listed} matched identit(ies) present in cell#3 during [0, 50):")
    );
}
