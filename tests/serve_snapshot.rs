//! Serve-layer snapshot integration: a query answered **during**
//! ingest must be byte-identical to one computed offline on the
//! snapshot it claims (its epoch), with the staleness gauge accounting
//! for every event the answer cannot see — and a restart must resume
//! from exactly the applied state.

use evmatch::prelude::*;
use evmatch::serve::{LiveCorpus, ServeConfig};
use evmatch::telemetry::names;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static DIRS: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let n = DIRS.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("evmatch-serve-{}-{tag}-{n}", std::process::id()))
}

fn dataset() -> EvDataset {
    EvDataset::generate(&DatasetConfig {
        population: 120,
        duration: 200,
        seed: 42,
        ..DatasetConfig::default()
    })
    .expect("valid config")
}

/// The events of `d` whose tick falls in `[from, to)`.
fn slice(
    d: &EvDataset,
    from: u64,
    to: u64,
) -> (
    Vec<evmatch::core::scenario::EScenario>,
    Vec<evmatch::core::scenario::VScenario>,
) {
    let es = d
        .estore
        .iter()
        .filter(|s| (from..to).contains(&s.time().tick()))
        .cloned()
        .collect();
    let vs = d
        .video
        .scenarios()
        .filter(|s| (from..to).contains(&s.time().tick()))
        .cloned()
        .collect();
    (es, vs)
}

/// Wall-clock timings legitimately differ between two runs; everything
/// else in a report is deterministic and must match exactly.
fn assert_same_report(live: &MatchReport, offline: &MatchReport) {
    assert_eq!(live.outcomes, offline.outcomes, "per-EID outcomes differ");
    assert_eq!(live.lists, offline.lists, "scenario lists differ");
    assert_eq!(
        live.selected_scenarios, offline.selected_scenarios,
        "selected scenario sets differ"
    );
    assert_eq!(live.rounds, offline.rounds, "refinement rounds differ");
}

/// The acceptance scenario: ingest half the world, apply, stage the
/// rest, query — the answer must equal an offline run over stores
/// holding only the applied half, and the staleness gauge must count
/// exactly the staged events.
#[test]
fn query_during_ingest_is_byte_identical_to_its_snapshot() {
    let d = dataset();
    let targets: BTreeSet<Eid> = sample_targets(&d, 30, 7);
    let dir = temp_dir("snapshot");
    let tel = Telemetry::new(TelemetryLevel::Counters);

    let mut live = LiveCorpus::open(
        &dir,
        ServeConfig {
            cost: d.video.cost_model(),
            watch: targets.clone(),
            ..ServeConfig::default()
        },
        &tel,
    )
    .expect("open live corpus");

    let (day_e, day_v) = slice(&d, 0, 100);
    live.ingest(day_e.clone(), day_v.clone()).expect("ingest");
    live.apply().expect("apply");

    let (night_e, night_v) = slice(&d, 100, 200);
    let staged = (night_e.len() + night_v.len()) as u64;
    assert!(staged > 0, "the second half must hold events");
    live.ingest(night_e, night_v).expect("ingest");

    // The live answer, taken mid-ingest.
    let answer = live.query(&targets).expect("live query");
    assert_eq!(answer.epoch, 1, "one apply so far");
    assert_eq!(answer.staleness_events, staged, "staleness = staged events");
    assert_eq!(
        tel.registry().gauge_value(names::SERVE_STALENESS_EVENTS),
        Some(staged as f64),
        "staleness gauge tracks the staged backlog"
    );

    // The offline answer on the snapshot the epoch names: stores built
    // from the applied (first-half) events only.
    let snapshot_e = EScenarioStore::from_scenarios(day_e);
    let snapshot_v = VideoStore::new(day_v, d.video.cost_model());
    let offline = EvMatcher::new(&snapshot_e, &snapshot_v, MatcherConfig::default())
        .match_many(&targets)
        .expect("offline query");
    assert_same_report(&answer.report, &offline);

    // After applying, staleness drains to zero and the epoch advances.
    live.apply().expect("apply");
    let fresh = live.query(&targets).expect("fresh query");
    assert_eq!(fresh.epoch, 2);
    assert_eq!(fresh.staleness_events, 0);
    assert_eq!(
        tel.registry().gauge_value(names::SERVE_STALENESS_EVENTS),
        Some(0.0)
    );

    live.finish().expect("clean shutdown");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// A restarted service resumes from the applied state: the full
/// streamed corpus answers byte-identically to a never-restarted
/// in-memory run, and the live watch index agrees with the applied
/// store.
#[test]
fn restart_resumes_the_applied_corpus() {
    let d = dataset();
    let targets: BTreeSet<Eid> = sample_targets(&d, 30, 7);
    let dir = temp_dir("restart");
    let config = || ServeConfig {
        cost: d.video.cost_model(),
        watch: targets.clone(),
        ..ServeConfig::default()
    };

    {
        let mut live =
            LiveCorpus::open(&dir, config(), Telemetry::disabled()).expect("first session");
        let (e, v) = slice(&d, 0, 100);
        live.ingest(e, v).expect("ingest");
        // `finish` applies the staged tail before checkpointing, so
        // nothing is lost by "stopping the service" here.
        live.finish().expect("shutdown");
    }

    let mut live = LiveCorpus::open(&dir, config(), Telemetry::disabled()).expect("second session");
    assert_eq!(live.epoch(), 0, "epochs are per-session");
    let (e, v) = slice(&d, 100, 200);
    live.ingest(e, v).expect("ingest");
    live.apply().expect("apply");

    let answer = live.query(&targets).expect("resumed query");
    let offline = EvMatcher::new(&d.estore, &d.video, MatcherConfig::default())
        .match_many(&targets)
        .expect("offline query");
    assert_same_report(&answer.report, &offline);

    // The incrementally maintained watch partition equals a
    // from-scratch chronological split over the applied store.
    let lists = live.watch_lists().expect("watch set is configured");
    let split_cfg = evmatch::matching::setsplit::SetSplitConfig {
        strategy: evmatch::matching::setsplit::SelectionStrategy::Chronological,
        ..Default::default()
    };
    let rebuilt = evmatch::matching::setsplit::split_ideal(live.estore(), &targets, &split_cfg);
    assert_eq!(lists, rebuilt, "live watch index == from-scratch split");

    live.finish().expect("clean shutdown");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Auto-apply (`apply_every`) bounds staleness: a backlog crossing the
/// threshold publishes itself, so no query can ever report staleness at
/// or above the bound.
#[test]
fn apply_every_bounds_staleness() {
    let d = dataset();
    let targets: BTreeSet<Eid> = sample_targets(&d, 12, 7);
    let dir = temp_dir("bound");
    let bound = 64usize;

    let mut live = LiveCorpus::open(
        &dir,
        ServeConfig {
            cost: d.video.cost_model(),
            apply_every: bound,
            ..ServeConfig::default()
        },
        Telemetry::disabled(),
    )
    .expect("open live corpus");

    let mut applies = 0u64;
    for window in 0..20u64 {
        let (e, v) = slice(&d, window * 10, (window + 1) * 10);
        let receipt = live.ingest(e, v).expect("ingest");
        assert!(
            (receipt.staged_events as usize) < bound,
            "staleness stays under the apply_every bound"
        );
        if receipt.applied {
            applies += 1;
        }
        let answer = live.query(&targets).expect("query under ingest");
        assert!((answer.staleness_events as usize) < bound);
    }
    assert!(applies > 0, "the threshold actually fired");
    assert!(live.epoch() >= applies, "every auto-apply bumped the epoch");

    live.finish().expect("clean shutdown");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// The `evmatch serve` stdin loop: a line it cannot act on is reported
/// and skipped, an over-long `ingest` stops where the generated world
/// ends, and the session still reaches the final checkpoint.
#[test]
fn serve_stdin_loop_survives_malformed_lines() {
    use std::io::Write;
    use std::process::{Command, Stdio};

    let dir = temp_dir("stdin");
    let mut child = Command::new(env!("CARGO_BIN_EXE_evmatch"))
        .args(["serve", "--population", "40", "--duration", "30"])
        .args(["--targets", "5", "--data-dir"])
        .arg(&dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn evmatch serve");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(
            b"ingest abc\ningest -1\nquery x\nfrobnicate\n\
              ingest 10\ningest 18446744073709551615\napply\nquery 2\n",
        )
        .expect("write the script");
    // Dropping stdin above ends the input: the loop must fall through
    // to the clean shutdown without a `quit`.
    let out = child.wait_with_output().expect("evmatch serve exits");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stdout:\n{stdout}\nstderr:\n{stderr}");
    for bad in ["\"abc\"", "\"-1\"", "\"x\""] {
        assert!(stdout.contains(&format!("bad argument {bad}")), "{stdout}");
    }
    assert!(stdout.contains("unknown command frobnicate"), "{stdout}");
    assert!(stdout.contains("from 10 tick(s); cursor at tick 10"));
    let end = stdout
        .split("source exhausted: the generated world ends at tick ")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .unwrap_or_else(|| panic!("the huge ingest must report exhaustion:\n{stdout}"));
    assert!(
        stdout.contains(&format!("cursor at tick {end}, staged")),
        "the huge ingest stops at the world's last tick:\n{stdout}"
    );
    assert!(stdout.contains("query: 2 EIDs at epoch 1"), "{stdout}");
    assert!(stdout.contains("shut down cleanly"), "{stdout}");

    // Every staged event survived: a restart resumes past the source.
    let store = evmatch::disk::DiskStore::open(&dir).expect("reopen the corpus");
    assert!(!store.load_estore().expect("load").is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Corruption a query meets mid-session — footage damaged after the
/// corpus was opened — is reported the way corruption met at open is: a
/// typed message naming the scenario, and a `disk_corruption` flight
/// dump. The query gets no answer computed without the footage.
#[test]
fn serve_reports_footage_damaged_after_open_and_dumps_the_flight_recorder() {
    use evmatch::disk::{segment, DiskStore};
    use std::io::{BufRead, BufReader, Write};
    use std::process::{Command, Stdio};

    // A corpus holding the first 20 ticks of the world the CLI flags
    // regenerate, written the way `evmatch serve` would have.
    let dir = temp_dir("damaged-footage");
    let flight_dir = temp_dir("damaged-footage-flight");
    let d = EvDataset::generate(&DatasetConfig {
        population: 40,
        duration: 30,
        ..DatasetConfig::default()
    })
    .expect("valid config");
    let (e, v) = slice(&d, 0, 20);
    let entry = (DiskStore::create(&dir).expect("fresh corpus"))
        .append(&e, &v)
        .expect("append")
        .v_segment
        .expect("a V segment");

    let mut child = Command::new(env!("CARGO_BIN_EXE_evmatch"))
        .args(["serve", "--population", "40", "--duration", "30"])
        .args(["--targets", "5", "--data-dir"])
        .arg(&dir)
        .arg("--flight-dir")
        .arg(&flight_dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn evmatch serve");
    // The prompt line is printed once the corpus is open and loaded.
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    while !line.starts_with("serve: commands:") {
        line.clear();
        assert_ne!(stdout.read_line(&mut line).expect("read stdout"), 0, "EOF");
    }

    // Flip a byte in every V frame, so whatever the query selects is hit.
    let path = dir.join(entry.file_name());
    let mut bytes = std::fs::read(&path).expect("segment bytes");
    let (_, scan) = segment::scan(&bytes).expect("valid segment");
    for (start, len) in scan.payloads {
        bytes[start + len / 2] ^= 0xFF;
    }
    std::fs::write(&path, bytes).expect("write damaged segment");

    let mut stdin = child.stdin.take().expect("piped stdin");
    stdin
        .write_all(b"query 5\nquit\n")
        .expect("write the script");
    drop(stdin);
    let out = child.wait_with_output().expect("evmatch serve exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "a runtime error:\n{stderr}");
    assert!(stderr.contains("answering the query"), "{stderr}");
    assert!(stderr.contains("could not be loaded"), "{stderr}");
    assert!(stderr.contains("frame checksum mismatch"), "{stderr}");

    let dumps: Vec<_> = std::fs::read_dir(&flight_dir)
        .expect("flight dir")
        .map(|f| f.expect("dir entry").path())
        .collect();
    assert_eq!(dumps.len(), 1, "one flight dump: {dumps:?}");
    let dump = std::fs::read_to_string(&dumps[0]).expect("dump");
    assert!(dump.contains("disk_corruption"), "{dump}");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&flight_dir);
}
