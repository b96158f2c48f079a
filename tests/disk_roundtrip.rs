//! Disk round-trip integration: a corpus persisted through `ev-disk`
//! must be **indistinguishable** from the in-memory stores it came
//! from — same loaded store, same `MatchReport`, byte for byte — even
//! after a crash mid-append is healed on reopen. What differs is what
//! is *held*: a match from disk decodes the V-Scenarios it extracts and
//! no others, and footage that fails to load ends the match with a
//! typed error, never a report computed without it.

use evmatch::core::scenario::ScenarioId;
use evmatch::dag::JobError;
use evmatch::disk::{DiskBackend, DiskStore};
use evmatch::matching::refine::{match_with_refinement, RefineConfig};
use evmatch::matching::MatchReport;
use evmatch::prelude::*;
use evmatch::serve::ServeError;
use evmatch::telemetry::names;
use std::collections::BTreeSet;
use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static DIRS: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let n = DIRS.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "evmatch-roundtrip-{}-{tag}-{n}",
        std::process::id()
    ))
}

fn persist(dir: &std::path::Path, d: &EvDataset) {
    let mut store = DiskStore::open_or_create(dir).expect("corpus dir");
    let e: Vec<_> = d.estore.iter().cloned().collect();
    let v: Vec<_> = d.video.scenarios().cloned().collect();
    store.append(&e, &v).expect("durable append");
}

/// Wall-clock timings legitimately differ between two runs; everything
/// else in a report is deterministic and must match exactly.
fn assert_same_report(disk: &MatchReport, memory: &MatchReport) {
    assert_eq!(disk.outcomes, memory.outcomes, "per-EID outcomes differ");
    assert_eq!(disk.lists, memory.lists, "scenario lists differ");
    assert_eq!(
        disk.selected_scenarios, memory.selected_scenarios,
        "selected scenario sets differ"
    );
    assert_eq!(disk.rounds, memory.rounds, "refinement rounds differ");
}

#[test]
fn persisted_corpus_matches_byte_identically_to_memory() {
    let d = EvDataset::generate(&DatasetConfig {
        population: 150,
        duration: 300,
        ..DatasetConfig::default()
    })
    .expect("valid config");
    let dir = temp_dir("identity");
    persist(&dir, &d);

    let backend = DiskBackend::open(&dir, d.video.cost_model()).expect("reopen corpus");
    assert_eq!(
        backend.estore(),
        &d.estore,
        "the loaded E-store is the persisted E-store"
    );

    let targets = sample_targets(&d, 50, 1);
    let config = RefineConfig::default();
    let memory = match_with_refinement(
        &d.estore,
        &d.video,
        &targets,
        &config,
        Telemetry::disabled(),
    );
    let disk = match_with_refinement(
        backend.estore(),
        backend.video(),
        &targets,
        &config,
        Telemetry::disabled(),
    );
    assert_same_report(&disk, &memory);

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// The segment writer streams a segment out in chunks of about a
/// mebibyte. A V segment several chunks long — so most flushes happen
/// mid-batch, with further frames still to come — must read back and
/// match exactly as the single-chunk corpora above do.
#[test]
fn multi_chunk_v_segment_matches_byte_identically_to_memory() {
    let d = EvDataset::generate(&DatasetConfig {
        population: 150,
        duration: 300,
        feature_dim: 256,
        ..DatasetConfig::default()
    })
    .expect("valid config");
    let dir = temp_dir("chunks");
    persist(&dir, &d);

    let backend = DiskBackend::open(&dir, d.video.cost_model()).expect("reopen corpus");
    let v_segment = (backend.disk().segments().iter())
        .find(|entry| entry.file_name().ends_with("-v.seg"))
        .expect("a V segment was committed");
    assert!(
        v_segment.file_len > 4 << 20,
        "the V segment must span several write chunks, got {} bytes",
        v_segment.file_len
    );
    assert_eq!(backend.estore(), &d.estore);
    let loaded: Vec<_> = backend.video().scenarios().collect();
    let original: Vec<_> = d.video.scenarios().collect();
    assert_eq!(
        loaded, original,
        "every V record survives the chunked write"
    );

    let targets = sample_targets(&d, 50, 1);
    let config = RefineConfig::default();
    let memory = match_with_refinement(
        &d.estore,
        &d.video,
        &targets,
        &config,
        Telemetry::disabled(),
    );
    let disk = match_with_refinement(
        backend.estore(),
        backend.video(),
        &targets,
        &config,
        Telemetry::disabled(),
    );
    assert_same_report(&disk, &memory);

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn crash_mid_append_recovers_to_a_byte_identical_report() {
    // Two committed ingest batches (colliding scenario ids resolve
    // later-wins, matching `EScenarioStore::merged`)...
    let day1 = EvDataset::generate(&DatasetConfig {
        population: 120,
        duration: 200,
        seed: 42,
        ..DatasetConfig::default()
    })
    .expect("valid config");
    let day2 = EvDataset::generate(&DatasetConfig {
        population: 120,
        duration: 200,
        seed: 43,
        ..DatasetConfig::default()
    })
    .expect("valid config");
    let dir = temp_dir("crash");
    persist(&dir, &day1);
    persist(&dir, &day2);

    // ...then a third append dies midway: its segment reached disk, the
    // manifest entry naming it did not.
    std::fs::write(dir.join("seg-000099-e.seg"), b"EVSG\x01\x00\x00").expect("orphan");
    let mut manifest = OpenOptions::new()
        .append(true)
        .open(dir.join(evmatch::disk::MANIFEST_FILE))
        .expect("open manifest");
    manifest
        .write_all(&[65, 0, 0, 0, 0xde, 0xad, 0xbe])
        .expect("torn tail");
    drop(manifest);

    // Reopening heals the crash; no panic, no committed record lost.
    let backend = DiskBackend::open(&dir, day1.video.cost_model()).expect("recovering open");
    let rec = backend.recovery();
    assert!(rec.repaired_anything(), "the crash residue was repaired");
    assert_eq!(rec.records_dropped, 0, "committed records all survive");

    // The recovered corpus equals the in-memory merge of both batches,
    // and produces a byte-identical report.
    // ... built the way `LiveCorpus::apply` builds it: by `ingest`.
    let mut estore = day1.estore.clone();
    estore.ingest(day2.estore.iter().cloned().collect());
    let day1_footage = day1.video.scenarios().cloned().collect();
    let mut video = VideoStore::new(day1_footage, day1.video.cost_model());
    video.ingest(day2.video.scenarios().cloned().collect());
    assert_eq!(backend.estore(), &estore, "recovered E-store == merged");

    let targets = sample_targets(&day1, 40, 7);
    let config = RefineConfig::default();
    let memory = match_with_refinement(&estore, &video, &targets, &config, Telemetry::disabled());
    let disk = match_with_refinement(
        backend.estore(),
        backend.video(),
        &targets,
        &config,
        Telemetry::disabled(),
    );
    assert_same_report(&disk, &memory);

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// The paper's point, held at the storage layer: under both execution
/// modes a 20-target match from disk decodes every E record (the index)
/// and exactly the V-Scenarios it extracts — far fewer than the corpus
/// holds — and still reports what the in-memory stores report.
#[test]
fn a_match_from_disk_decodes_only_the_footage_it_extracts() {
    let d = EvDataset::generate(&DatasetConfig {
        population: 150,
        duration: 300,
        ..DatasetConfig::default()
    })
    .expect("valid config");
    let dir = temp_dir("on-demand");
    persist(&dir, &d);
    let targets = sample_targets(&d, 20, 1);

    for execution in [ExecutionMode::Sequential, ExecutionMode::Dag(2)] {
        let config = MatcherConfig {
            execution: execution.clone(),
            ..MatcherConfig::default()
        };
        d.video.reset_usage();
        let memory = EvMatcher::new(&d.estore, &d.video, config.clone())
            .match_many(&targets)
            .expect("in-memory match");

        let tel = Telemetry::new(TelemetryLevel::Counters);
        let backend =
            DiskBackend::open_with(&dir, d.video.cost_model(), RecoveryMode::Strict, &tel)
                .expect("reopen corpus");
        let decoded = || tel.registry().counter_value(names::DISK_RECORDS_READ);
        let e_records = backend.estore().len() as u64;
        assert_eq!(
            decoded(),
            Some(e_records),
            "{execution:?}: open decodes E only"
        );

        let disk = EvMatcher::from_backend(&backend, config)
            .with_telemetry(&tel)
            .match_many(&targets)
            .expect("disk-backed match");
        assert_same_report(&disk, &memory);

        let extracted = backend.video().stats().extracted_scenarios;
        assert_eq!(
            decoded(),
            Some(e_records + extracted as u64),
            "{execution:?}: decoded = E records + V-Scenarios extracted"
        );
        assert!(
            0 < extracted && extracted * 4 < backend.video().len(),
            "{execution:?}: {extracted} of {} V-Scenarios decoded",
            backend.video().len()
        );
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Flips one payload byte of `id`'s frame in the corpus at `dir`.
fn flip_a_byte_of(dir: &Path, id: ScenarioId) {
    use evmatch::disk::{codec, segment};
    for entry in std::fs::read_dir(dir).expect("list corpus") {
        let path = entry.expect("dir entry").path();
        if !path.to_string_lossy().ends_with("-v.seg") {
            continue;
        }
        let mut bytes = std::fs::read(&path).expect("segment bytes");
        let (_, scan) = segment::scan(&bytes).expect("valid segment");
        for (start, len) in scan.payloads {
            if codec::record_id(&bytes[start..start + len]).expect("record head") == id {
                bytes[start + len / 2] ^= 0xFF;
                std::fs::write(&path, &bytes).expect("write damaged segment");
                return;
            }
        }
    }
    panic!("no V frame holds {id}");
}

fn assert_footage_error(err: &JobError, id: ScenarioId, what: &str) {
    match err {
        JobError::Input(evmatch::core::Error::FootageUnavailable {
            scenario,
            corrupt: true,
            reason,
        }) => {
            assert_eq!(*scenario, id, "{what}");
            assert!(reason.contains("checksum"), "{what}: {reason}");
        }
        other => panic!("{what}: expected a corrupt FootageUnavailable, got {other:?}"),
    }
    assert!(err.is_corruption(), "{what}");
}

/// Footage damaged after the corpus was opened is met by the match that
/// first selects it. Every entry point then fails with the typed error
/// naming the scenario — in both execution modes, for a target set and
/// for universal matching, and through the serve layer — while a match
/// that does not select the damaged scenario is unaffected.
#[test]
fn footage_damaged_after_open_fails_the_match_that_selects_it() {
    let d = EvDataset::generate(&DatasetConfig {
        population: 100,
        duration: 200,
        ..DatasetConfig::default()
    })
    .expect("valid config");
    let golden = temp_dir("damage-golden");
    persist(&golden, &d);
    let clone_corpus = |tag: &str| {
        let dir = temp_dir(tag);
        std::fs::create_dir_all(&dir).expect("trial dir");
        for entry in std::fs::read_dir(&golden).expect("list golden") {
            let entry = entry.expect("dir entry");
            std::fs::copy(entry.path(), dir.join(entry.file_name())).expect("copy");
        }
        dir
    };
    let targets = sample_targets(&d, 20, 1);
    let others = sample_targets(&d, 20, 2);
    let has_footage = |ids: &BTreeSet<ScenarioId>| -> BTreeSet<ScenarioId> {
        (ids.iter().copied())
            .filter(|&id| d.video.contains(id))
            .collect()
    };

    for execution in [ExecutionMode::Sequential, ExecutionMode::Dag(2)] {
        let config = MatcherConfig {
            execution: execution.clone(),
            ..MatcherConfig::default()
        };
        let in_memory = |targets: Option<&BTreeSet<Eid>>| {
            d.video.reset_usage();
            let matcher = EvMatcher::new(&d.estore, &d.video, config.clone());
            targets
                .map_or_else(|| matcher.match_universal(), |t| matcher.match_many(t))
                .expect("in-memory match")
        };

        // match_many: damage a scenario `targets` selects and `others`
        // does not. `others` still matches, byte for byte; `targets`
        // fails, and keeps failing (the store latched the error).
        let (memory, memory_others) = (in_memory(Some(&targets)), in_memory(Some(&others)));
        let victim = *has_footage(&memory.selected_scenarios)
            .difference(&memory_others.selected_scenarios)
            .next()
            .expect("a scenario only `targets` selects");
        let dir = clone_corpus("damage-many");
        let backend = DiskBackend::open(&dir, d.video.cost_model()).expect("reopen corpus");
        flip_a_byte_of(&dir, victim);
        let matcher = EvMatcher::from_backend(&backend, config.clone());
        let untouched = matcher
            .match_many(&others)
            .expect("selects no damaged footage");
        assert_same_report(&untouched, &memory_others);
        let err = matcher
            .match_many(&targets)
            .expect_err("selects the damaged footage");
        assert_footage_error(&err, victim, &format!("match_many {execution:?}"));
        assert!(
            matcher.match_many(&others).is_err(),
            "the failure is latched"
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");

        // match_universal.
        let victim = *has_footage(&in_memory(None).selected_scenarios)
            .first()
            .expect("universal matching selects footage");
        let dir = clone_corpus("damage-universal");
        let backend = DiskBackend::open(&dir, d.video.cost_model()).expect("reopen corpus");
        flip_a_byte_of(&dir, victim);
        let err = EvMatcher::from_backend(&backend, config.clone())
            .match_universal()
            .expect_err("selects the damaged footage");
        assert_footage_error(&err, victim, &format!("match_universal {execution:?}"));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    // LiveCorpus::query, on the corpus a restarted service reopens.
    let memory = EvMatcher::new(&d.estore, &d.video, MatcherConfig::default())
        .match_many(&targets)
        .expect("in-memory match");
    let victim = *has_footage(&memory.selected_scenarios)
        .first()
        .expect("the query selects footage");
    let dir = clone_corpus("damage-serve");
    let serve_config = ServeConfig {
        cost: d.video.cost_model(),
        ..ServeConfig::default()
    };
    let live = LiveCorpus::open(&dir, serve_config, Telemetry::disabled()).expect("reopen");
    flip_a_byte_of(&dir, victim);
    match live.query(&targets) {
        Err(err @ ServeError::Match(_)) => {
            assert!(err.is_corruption(), "{err}");
            let ServeError::Match(job) = &err else {
                unreachable!()
            };
            assert_footage_error(job, victim, "LiveCorpus::query");
        }
        other => panic!("expected the typed footage error, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
    std::fs::remove_dir_all(&golden).expect("cleanup");
}
