//! Disk round-trip integration: a corpus persisted through `ev-disk`
//! must be **indistinguishable** from the in-memory stores it came
//! from — same loaded store, same `MatchReport`, byte for byte — even
//! after a crash mid-append is healed on reopen.

use evmatch::disk::{DiskBackend, DiskStore};
use evmatch::matching::refine::{match_with_refinement, RefineConfig};
use evmatch::matching::MatchReport;
use evmatch::prelude::*;
use std::fs::OpenOptions;
use std::io::Write;
use std::path::PathBuf;
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
    let memory = match_with_refinement(&d.estore, &d.video, &targets, &config);
    let disk = match_with_refinement(backend.estore(), backend.video(), &targets, &config);
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
    let memory = match_with_refinement(&d.estore, &d.video, &targets, &config);
    let disk = match_with_refinement(backend.estore(), backend.video(), &targets, &config);
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
    let estore = day1.estore.merged(&day2.estore);
    let video = day1.video.merged(&day2.video);
    assert_eq!(backend.estore(), &estore, "recovered E-store == merged");

    let targets = sample_targets(&day1, 40, 7);
    let config = RefineConfig::default();
    let memory = match_with_refinement(&estore, &video, &targets, &config);
    let disk = match_with_refinement(backend.estore(), backend.video(), &targets, &config);
    assert_same_report(&disk, &memory);

    std::fs::remove_dir_all(&dir).expect("cleanup");
}
