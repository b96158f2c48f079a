//! `evmatch query` and the subcommand flags: a flag belongs to the
//! subcommands that read it and is an argument error (exit 2) anywhere
//! else, a subcommand without its required flag is one too,
//! and `query` checks its question before it runs a match, so a bad
//! question exits 2 at once instead of 1 after a whole match. `query`
//! answers from the report of its match and the corpus that match read.

use evmatch::core::region::CellId;
use evmatch::core::time::{TimeRange, Timestamp};
use evmatch::prelude::*;
use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::process::{Command, Output};

const WORLD: [&str; 6] = ["--population", "60", "--duration", "100", "--targets", "5"];

/// Dense enough that some EIDs have five or more frequent contacts.
const CROWD: [&str; 6] = ["--population", "40", "--duration", "200", "--targets", "40"];

fn evmatch(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_evmatch"))
        .args(args)
        .output()
        .expect("run evmatch")
}

fn run(args: &[&[&str]]) -> String {
    stdout(&evmatch(&args.concat()))
}

fn stdout(out: &Output) -> String {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr:\n{stderr}");
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn subcommand_flags_are_argument_errors_elsewhere() {
    const MATCHES: &str = "`evmatch serve` or `evmatch match` or `evmatch query`";
    const DATASET: &str =
        "`evmatch generate` or `evmatch ingest` or `evmatch serve` or `evmatch match` or `evmatch query`";
    const RUNS: &str = "`evmatch ingest` or `evmatch serve` or `evmatch match` or `evmatch query`";
    for (command, flag, owners) in [
        ("match", "--eid", "`evmatch query`"),
        ("match", "--cell", "`evmatch query`"),
        ("serve", "--from", "`evmatch query`"),
        ("match", "--in", "`evmatch check-metrics`"),
        ("match", "--smoke", "`evmatch check-metrics`"),
        ("query", "--apply-every", "`evmatch serve`"),
        ("match", "--checkpoint-every", "`evmatch serve`"),
        ("generate", "--threads", MATCHES),
        (
            "generate",
            "--universal",
            "`evmatch match` or `evmatch query`",
        ),
        ("generate", "--mode", MATCHES),
        ("generate", "--data-dir", RUNS),
        ("ingest", "--threads", MATCHES),
        ("ingest", "--targets", MATCHES),
        (
            "ingest",
            "--universal",
            "`evmatch match` or `evmatch query`",
        ),
        ("ingest", "--mode", MATCHES),
        ("check-metrics", "--threads", MATCHES),
        ("check-metrics", "--population", DATASET),
    ] {
        let out = evmatch(&[command, flag, "1"]);
        assert_eq!(out.status.code(), Some(2), "{command} {flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let says = format!("flag {flag} belongs to {owners}");
        assert!(stderr.contains(&says), "{command} {flag}: {stderr}");
    }
}

/// `--serve-hold-ms` holds the `--serve-metrics` endpoint open; without
/// one there is nothing to hold.
#[test]
fn serve_hold_ms_needs_serve_metrics() {
    let out = evmatch(&[&["match", "--serve-hold-ms", "100000"], &WORLD[..]].concat());
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "a match ran");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--serve-hold-ms needs --serve-metrics ADDR"),
        "{stderr}"
    );
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

#[test]
fn check_metrics_takes_one_mode() {
    let out = evmatch(&["check-metrics", "--smoke", "--in", "/nonexistent/x"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "the smoke battery ran");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--in PATH or --smoke, not both"),
        "{stderr}"
    );
}

#[test]
fn check_metrics_reads_seed_only_with_smoke() {
    let out = evmatch(&["check-metrics", "--in", "/nonexistent/x", "--seed", "5"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "the profile was read");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("check-metrics reads --seed only with --smoke"),
        "{stderr}"
    );
}

/// A profile holding every metric `check-metrics --in` requires, at
/// values that pass it (a fully split first round of 2 recorded
/// scenarios for 4 EIDs), except that `name` reads `value`.
fn profile_with(name: &str, value: &str) -> String {
    let metrics = [
        ("evm_setsplit_scenarios_examined", "counter", "10"),
        ("evm_setsplit_recorded_total", "counter", "3"),
        ("evm_dag_tasks_total", "counter", "0"),
        ("evm_recorded_scenarios", "gauge", "2"),
        ("evm_theorem_lower_bound", "gauge", "2"),
        ("evm_theorem_upper_bound", "gauge", "3"),
        ("evm_fully_split", "gauge", "1"),
        ("evm_stage_e_seconds", "gauge", "0.25"),
        ("evm_stage_v_seconds", "gauge", "0.5"),
        ("evm_vfilter_gallery_hit_ratio", "gauge", "0.5"),
    ];
    let mut text = String::new();
    for (metric, kind, sane) in metrics {
        let v = if metric == name { value } else { sane };
        text.push_str(&format!("# TYPE {metric} {kind}\n{metric} {v}\n"));
    }
    text
}

#[test]
fn check_metrics_refuses_hostile_values() {
    let dir = std::env::temp_dir().join(format!("evmatch-hostile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let check = |name: &str, value: &str| {
        let path = dir.join("m.prom");
        std::fs::write(&path, profile_with(name, value)).expect("write profile");
        evmatch(&["check-metrics", "--in", path.to_str().expect("utf-8 path")])
    };
    let sane = check("", "");
    assert!(
        sane.status.success(),
        "{}",
        String::from_utf8_lossy(&sane.stderr)
    );
    for (name, value) in [
        ("evm_recorded_scenarios", "NaN"),
        ("evm_theorem_upper_bound", "+Inf"),
        ("evm_dag_tasks_total", "-3"),
        ("evm_setsplit_recorded_total", "2.5"),
        ("evm_stage_e_seconds", "-0.25"),
        ("evm_fully_split", "2"),
    ] {
        let out = check(name, value);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name} {value}: {stderr}");
        assert!(stderr.contains(name), "{name} {value}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn check_metrics_passes_the_profiles_match_exports() {
    let dir = std::env::temp_dir().join(format!("evmatch-profiles-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("m.prom");
    let path = path.to_str().expect("utf-8 path");
    for threads in [&[][..], &["--threads", "2"]] {
        run(&[&["match", "--metrics-out", path], &WORLD, threads]);
        let profile = std::fs::read_to_string(path).expect("profile written");
        // Theorem 4.2's bounds for the 5 targets: ceil(log2 5) and 5 - 1.
        for line in ["evm_theorem_lower_bound 3", "evm_theorem_upper_bound 4"] {
            assert!(
                profile.lines().any(|l| l == line),
                "{threads:?}: no {line:?}"
            );
        }
        let checked = run(&[&["check-metrics", "--in", path]]);
        assert!(checked.starts_with("ok: "), "{threads:?}: {checked}");
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// `(EID, Some(VID) if its outcome is a majority)` for every outcome of
/// `match --json` on `world`.
fn majority_outcomes(world: &[&str]) -> Vec<(String, Option<i128>)> {
    let json = run(&[&["match", "--json"], world]);
    let report: Value = serde_json::from_str(&json).expect("match --json");
    let outcomes = report.get("outcomes").and_then(Value::as_arr);
    let outcomes = outcomes.expect("outcomes");
    assert!(!outcomes.is_empty());
    outcomes
        .iter()
        .map(|o| {
            let Some(Value::Str(eid)) = o.get("eid") else {
                panic!("{o:?}")
            };
            let share = match o.get("vote_share") {
                Some(&Value::Float(share)) => share,
                Some(&Value::Int(share)) => share as f64,
                _ => panic!("{o:?}"),
            };
            let vid = match o.get("vid") {
                Some(&Value::Int(vid)) if share > 0.5 => Some(vid),
                _ => None,
            };
            (eid.clone(), vid)
        })
        .collect()
}

/// The majority-matched EIDs of `match --json` on `world`, with their VIDs.
fn matched(world: &[&str]) -> BTreeMap<String, i128> {
    (majority_outcomes(world).into_iter())
        .filter_map(|(eid, vid)| Some((eid, vid?)))
        .collect()
}

/// The corpus `evmatch` regenerates from `--population` and
/// `--duration` at its default `--seed`.
fn corpus(population: u64, duration: u64) -> EvDataset {
    let config = DatasetConfig {
        population,
        duration,
        seed: 42,
        ..DatasetConfig::default()
    };
    EvDataset::generate(&config).expect("a valid world")
}

/// What `query --cell` should list below its header: the
/// majority-matched EIDs `world` heard in `cell` during `[from, to)`.
fn occupants(
    world: &EvDataset,
    matched: &BTreeMap<String, i128>,
    cell: usize,
    from: u64,
    to: u64,
) -> String {
    let range = TimeRange::new(Timestamp::new(from), Timestamp::new(to));
    let cells = [CellId::new(cell)];
    let present: BTreeSet<Eid> = (world.estore.query(range, Some(&cells)))
        .flat_map(|s| s.eids())
        .collect();
    (present.iter().map(Eid::to_string))
        .filter_map(|e| Some(format!("  {e} == VID#{}\n", matched.get(&e)?)))
        .collect()
}

/// The identity lines `query --cell` printed: all but the header.
fn listed(out: &str) -> &str {
    out.split_once('\n').expect("a header line").1
}

fn eid(text: &str) -> Eid {
    text.parse().expect("an EID")
}

const NOT_MATCHED: &str = "not matched (or not in the requested target set)";

#[test]
fn query_by_eid_names_the_vid_of_exactly_the_majority_outcomes() {
    let outcomes = majority_outcomes(&WORLD);
    assert!(outcomes.iter().any(|(_, vid)| vid.is_some()));
    for (text, vid) in outcomes {
        let out = run(&[&["query", "--eid", &text], &WORLD]);
        match vid {
            Some(vid) => {
                let head = out.lines().next().expect("the identity line");
                assert!(head.starts_with(&format!("{text} == VID#{vid} (")), "{out}");
            }
            None => assert_eq!(out, format!("{text}: {NOT_MATCHED}\n")),
        }
    }
}

#[test]
fn an_eid_outside_the_targets_is_not_matched() {
    // This world's EIDs end at 00:3b, so this one is no target.
    let text = "02:00:00:00:ff:ff";
    assert!(majority_outcomes(&WORLD).iter().all(|(e, _)| e != text));
    let out = run(&[&["query", "--eid", text], &WORLD]);
    assert_eq!(out, format!("{text}: {NOT_MATCHED}\n"));
}

#[test]
fn query_by_eid_links_the_electronic_trail_and_the_visual_sightings() {
    let world = corpus(60, 100);
    let matched = matched(&WORLD);
    assert!(!matched.is_empty());
    for text in matched.keys() {
        let out = run(&[&["query", "--eid", text], &WORLD]);
        let mut lines = out.lines().skip(1);
        let trail: Vec<_> = world.estore.containing(eid(text)).collect();
        let cells: BTreeSet<_> = trail.iter().map(|s| s.cell()).collect();
        let says = format!(
            "electronic trail: {} observations over {} cells",
            trail.len(),
            cells.len()
        );
        assert_eq!(lines.next(), Some(says.as_str()), "{out}");
        let sightings = lines.next().and_then(|line| {
            let n = line.strip_prefix("visual sightings in processed footage: ")?;
            n.parse::<usize>().ok()
        });
        // A majority VID won votes in its own list's extracted footage.
        assert!(sightings.is_some_and(|n| n >= 1), "{out}");
    }
}

#[test]
fn contacts_are_the_strongest_five_sharing_two_scenarios_or_more() {
    let world = corpus(40, 200);
    let matched = matched(&CROWD);
    let mut longest = 0;
    for text in matched.keys() {
        let out = run(&[&["query", "--eid", text], &CROWD]);
        let trail: Vec<_> = world.estore.containing(eid(text)).collect();
        let shared: Vec<usize> = out
            .lines()
            .filter_map(|line| line.strip_prefix("  frequent contact: "))
            .map(|rest| {
                let (other, count) = rest.split_once(" (").expect("EID (N shared scenarios)");
                assert_ne!(other, text, "an EID is not its own contact");
                assert!(matched.contains_key(other), "{other} is not matched");
                let count = count.strip_suffix(" shared scenarios)").expect("suffix");
                let count = count.parse().expect("a count");
                let together = trail.iter().filter(|s| s.contains(eid(other))).count();
                assert_eq!(count, together, "{text} and {other}");
                count
            })
            .collect();
        assert!(shared.len() <= 5, "{out}");
        assert!(shared.iter().all(|&n| n >= 2), "{out}");
        assert!(shared.windows(2).all(|w| w[0] >= w[1]), "{out}");
        longest = longest.max(shared.len());
    }
    assert_eq!(longest, 5, "no EID of the crowd reached the cap");
}

#[test]
fn query_by_cell_lists_the_majority_matched_occupants_in_eid_order() {
    let world = corpus(40, 200);
    let matched = matched(&CROWD);
    let mut seen = 0;
    for cell in 0..100 {
        let expected = occupants(&world, &matched, cell, 50, 150);
        let text = cell.to_string();
        let args = ["query", "--cell", &text, "--from", "50", "--to", "150"];
        let out = run(&[&args, &CROWD]);
        assert_eq!(listed(&out), expected, "cell {cell}");
        seen += expected.lines().count();
    }
    assert!(seen > 0, "nobody was matched anywhere");
}

#[test]
fn an_empty_window_lists_nobody() {
    let out = run(&[
        &["query", "--cell", "3", "--from", "100000", "--to", "100001"],
        &WORLD,
    ]);
    assert_eq!(
        out,
        "0 matched identit(ies) present in cell#3 during [100000, 100001):\n"
    );
}

#[test]
fn query_answers_from_the_corpus_its_match_read() {
    // The corpus runs to tick 200; the flags regenerate only the first
    // 100 ticks, so every answer about [100, 200) must come from disk.
    let dir = std::env::temp_dir().join(format!("evmatch-cli-query-{}", std::process::id()));
    let dir = dir.to_str().expect("a UTF-8 temp dir");
    let _ = std::fs::remove_dir_all(dir);
    let longer = ["--population", "60", "--duration", "200"];
    run(&[&["ingest", "--data-dir", dir], &longer]);
    let from_disk = [&["--data-dir", dir][..], &WORLD].concat();
    let (world, matched) = (corpus(60, 200), matched(&from_disk));
    let mut seen = 0;
    for cell in 0..100 {
        let expected = occupants(&world, &matched, cell, 100, 200);
        let text = cell.to_string();
        let args = ["query", "--cell", &text, "--from", "100", "--to", "200"];
        let out = run(&[&args, &from_disk]);
        assert_eq!(listed(&out), expected, "cell {cell}");
        seen += expected.lines().count();
    }
    std::fs::remove_dir_all(dir).expect("cleanup");
    assert!(seen > 0, "nobody was matched in any cell during [100, 200)");
}
