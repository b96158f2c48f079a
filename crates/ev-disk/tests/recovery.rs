//! Fault-injection tests for the recovery state machine.
//!
//! A corpus is built once per test, then damaged at **every byte
//! boundary** — truncations and bit flips in the manifest and in each
//! committed segment, plus whole-file deletion — and reopened in both
//! [`RecoveryMode::Strict`] and [`RecoveryMode::Salvage`]. The
//! invariants under test:
//!
//! * opening never panics, whatever the bytes look like;
//! * Strict heals crash-shaped residue (torn manifest tail, orphan
//!   segments) and refuses everything else;
//! * Salvage keeps the longest valid committed prefix and never errors
//!   on damage past the manifest header;
//! * every record that survives recovery is byte-identical to a record
//!   that was committed — recovery may lose a suffix, never invent or
//!   alter data;
//! * a salvaged corpus reopens cleanly in Strict mode (repairs are
//!   written back, not recomputed on every open);
//! * V-data is decoded when it is extracted, not when it is loaded, so
//!   damage that arrives *after* `load_video` is met by `extract`: it
//!   must surface as the store's typed load error, never as "no
//!   footage", and must not touch the frames beside it.

use ev_core::feature::FeatureVector;
use ev_core::ids::{Eid, Vid};
use ev_core::region::CellId;
use ev_core::scenario::{Detection, EScenario, ScenarioId, VScenario, ZoneAttr};
use ev_core::time::Timestamp;
use ev_disk::format::{FRAME_OVERHEAD, HEADER_LEN, MANIFEST_ENTRY_PAYLOAD_LEN};
use ev_disk::{
    DiskError, DiskStore, ManifestEntry, RecoveryError, RecoveryMode, SegmentKind, MANIFEST_FILE,
};
use ev_telemetry::Telemetry;
use ev_vision::cost::CostModel;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static DIRS: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let n = DIRS.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("ev-disk-recovery-{}-{tag}-{n}", std::process::id()))
}

fn escenario(t: u64, c: usize, eids: &[u64]) -> EScenario {
    let mut e = EScenario::new(CellId::new(c), Timestamp::new(t));
    for &p in eids {
        let attr = if p % 2 == 0 {
            ZoneAttr::Inclusive
        } else {
            ZoneAttr::Vague
        };
        e.insert(Eid::from_u64(p), attr);
    }
    e
}

fn vscenario(t: u64, c: usize, vids: &[u64]) -> VScenario {
    let mut v = VScenario::new(CellId::new(c), Timestamp::new(t));
    for &p in vids {
        let mut f = vec![0.25; 4];
        f[(p % 4) as usize] = 0.75;
        v.push(Detection {
            vid: Vid::new(p),
            feature: FeatureVector::new(f).expect("valid feature"),
        });
    }
    v
}

/// Two committed appends → four committed segments. Returns everything
/// that was durably committed, for prefix checks.
fn build_corpus(dir: &Path) -> (Vec<EScenario>, Vec<VScenario>) {
    let mut store = DiskStore::create(dir).expect("fresh corpus");
    let e1 = vec![escenario(0, 0, &[1, 2, 3]), escenario(0, 1, &[4, 5])];
    let v1 = vec![vscenario(0, 0, &[1, 2]), vscenario(0, 1, &[3])];
    store.append(&e1, &v1).expect("day-1 append");
    let e2 = vec![escenario(10, 0, &[1, 6]), escenario(10, 2, &[2])];
    let v2 = vec![vscenario(10, 0, &[1]), vscenario(10, 2, &[2, 4])];
    store.append(&e2, &v2).expect("day-2 append");
    (
        e1.into_iter().chain(e2).collect(),
        v1.into_iter().chain(v2).collect(),
    )
}

fn clone_dir(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).expect("trial dir");
    for entry in fs::read_dir(src).expect("read golden dir") {
        let entry = entry.expect("dir entry");
        fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy");
    }
}

fn committed_entries(dir: &Path) -> Vec<ManifestEntry> {
    DiskStore::open(dir)
        .expect("golden opens")
        .segments()
        .to_vec()
}

/// Asserts every loaded record is byte-identical to a committed one —
/// recovery may drop a suffix but must never alter or invent records.
fn assert_records_committed(
    store: &DiskStore,
    committed_e: &[EScenario],
    committed_v: &[VScenario],
) {
    let by_id_e: BTreeMap<_, _> = committed_e.iter().map(|s| (s.id(), s)).collect();
    let es = store.load_estore().expect("recovered E-data loads");
    for s in es.iter() {
        assert_eq!(by_id_e.get(&s.id()).copied(), Some(s), "E record altered");
    }
    let by_id_v: BTreeMap<_, _> = committed_v.iter().map(|s| (s.id(), s)).collect();
    let vs = store
        .load_video(CostModel::free())
        .expect("recovered V-data loads");
    let mut walked = 0;
    for s in vs.scenarios() {
        assert_eq!(by_id_v.get(&s.id()).copied(), Some(s), "V record altered");
        walked += 1;
    }
    // Loading only located the V frames; the walk decoded them. Every
    // frame that passed the load must also decode.
    vs.check_loads().expect("every located V frame decodes");
    assert_eq!(walked, vs.len(), "the walk skipped located footage");
}

/// The typed refusal both an open and a load give a committed segment
/// of the wrong length.
fn assert_length_mismatch(err: &DiskError, name: &str, committed: u64, actual: u64) {
    assert!(err.is_corruption(), "{name} cut to {actual}: {err}");
    match err.as_recovery() {
        Some(RecoveryError::SegmentLengthMismatch {
            segment,
            committed: c,
            actual: a,
        }) => {
            assert_eq!(segment, name, "cut to {actual}");
            assert_eq!(*c, committed, "cut to {actual}");
            assert_eq!(*a, actual, "cut to {actual}");
        }
        other => panic!("{name} cut to {actual}: expected SegmentLengthMismatch, got {other:?}"),
    }
}

fn load_kind(store: &DiskStore, kind: SegmentKind) -> Result<(), DiskError> {
    match kind {
        SegmentKind::EScenario => store.load_estore().map(|_| ()),
        SegmentKind::VScenario => store.load_video(CostModel::free()).map(|_| ()),
    }
}

#[test]
fn manifest_truncated_at_every_byte_boundary() {
    let golden = temp_dir("golden-mtrunc");
    let (all_e, all_v) = build_corpus(&golden);
    let full = fs::read(golden.join(MANIFEST_FILE)).expect("manifest bytes");
    let entry_frame = FRAME_OVERHEAD + MANIFEST_ENTRY_PAYLOAD_LEN;
    let trial = temp_dir("mtrunc");

    for len in 0..full.len() {
        let _ = fs::remove_dir_all(&trial);
        clone_dir(&golden, &trial);
        let f = fs::OpenOptions::new()
            .write(true)
            .open(trial.join(MANIFEST_FILE))
            .expect("open manifest");
        f.set_len(len as u64).expect("truncate");
        f.sync_all().expect("sync");
        drop(f);

        match DiskStore::open(&trial) {
            Ok(store) => {
                // A cut inside the header cannot open; past it, a torn
                // tail is exactly crash-shaped and must heal to the
                // committed prefix.
                assert!(len >= HEADER_LEN, "len {len}: short header must not open");
                assert_eq!(
                    store.segments().len(),
                    (len - HEADER_LEN) / entry_frame,
                    "len {len}: survivors must be the complete-frame prefix"
                );
                assert_records_committed(&store, &all_e, &all_v);
                // The heal is durable: reopening finds nothing to fix.
                drop(store);
                let again = DiskStore::open(&trial).expect("healed corpus reopens");
                assert!(
                    !again.recovery().repaired_anything(),
                    "len {len}: second open must find a clean corpus"
                );
            }
            Err(_) => {
                assert!(
                    len < HEADER_LEN,
                    "len {len}: a torn tail past the header must heal, not error"
                );
            }
        }
    }
    let _ = fs::remove_dir_all(&trial);
    let _ = fs::remove_dir_all(&golden);
}

#[test]
fn segment_truncated_at_every_byte_boundary() {
    let golden = temp_dir("golden-strunc");
    let (all_e, all_v) = build_corpus(&golden);
    let entries = committed_entries(&golden);
    assert_eq!(entries.len(), 4, "two appends commit four segments");
    let trial = temp_dir("strunc");

    for entry in &entries {
        let name = entry.file_name();
        for len in 0..entry.file_len {
            let _ = fs::remove_dir_all(&trial);
            clone_dir(&golden, &trial);
            let opened_before = DiskStore::open(&trial).expect("intact corpus opens");
            truncate(&trial.join(&name), len);

            // Strict: a committed segment shorter than its manifest entry
            // is corruption, not crash residue — reported as the typed
            // refusal carrying the exact segment and both lengths, by
            // the open and, when the cut comes after the open, by the
            // load of that kind (the V walk decodes nothing, and still
            // refuses every cut).
            let err = DiskStore::open(&trial).expect_err("strict open refuses a short segment");
            assert_length_mismatch(&err, &name, entry.file_len, len);
            let err = load_kind(&opened_before, entry.kind).expect_err("the load refuses it too");
            assert_length_mismatch(&err, &name, entry.file_len, len);
            drop(opened_before);

            // Salvage: keep the valid prefix (or drop the segment when
            // even the header is gone), and never alter surviving data.
            let store = DiskStore::open_with(&trial, RecoveryMode::Salvage, Telemetry::disabled())
                .unwrap_or_else(|e| panic!("{name} cut to {len}: salvage must open: {e}"));
            assert!(
                store.recovery().repaired_anything(),
                "{name} cut to {len}: salvage must report the repair"
            );
            assert!(
                store.record_count(entry.kind) < all_records(&entries, entry.kind),
                "{name} cut to {len}: a truncated segment must lose at least one record"
            );
            assert_records_committed(&store, &all_e, &all_v);

            // Repairs are written back: the salvaged corpus is a clean
            // corpus, so a Strict reopen succeeds without further work.
            drop(store);
            let again = DiskStore::open(&trial)
                .unwrap_or_else(|e| panic!("{name} cut to {len}: salvaged corpus reopens: {e}"));
            assert!(!again.recovery().repaired_anything());
        }
    }
    let _ = fs::remove_dir_all(&trial);
    let _ = fs::remove_dir_all(&golden);
}

fn all_records(entries: &[ManifestEntry], kind: SegmentKind) -> u64 {
    entries
        .iter()
        .filter(|e| e.kind == kind)
        .map(|e| e.records)
        .sum()
}

#[test]
fn provable_mid_file_manifest_damage_is_a_typed_refusal() {
    // Flip one byte inside the FIRST committed entry frame: intact
    // frames follow, so the scanner can prove the damage is mid-file
    // (not a torn tail) and a strict open must refuse with the typed
    // `ManifestDamaged` error counting the entries before the damage.
    let dir = temp_dir("mdamage-typed");
    build_corpus(&dir);
    assert_eq!(committed_entries(&dir).len(), 4);
    let mut bytes = fs::read(dir.join(MANIFEST_FILE)).expect("manifest bytes");
    bytes[HEADER_LEN] ^= 0xFF;
    fs::write(dir.join(MANIFEST_FILE), &bytes).expect("write damaged manifest");

    let err = DiskStore::open(&dir).expect_err("strict must refuse mid-file damage");
    assert!(err.is_corruption());
    assert!(
        matches!(&err, DiskError::Recovery(_)),
        "expected the typed recovery refusal, got {err:?}"
    );
    match err.as_recovery() {
        Some(RecoveryError::ManifestDamaged {
            reason,
            entries_kept,
        }) => {
            assert_eq!(
                *entries_kept, 0,
                "damage in the first frame leaves no entries before it"
            );
            assert!(!reason.is_empty(), "the refusal must say what it found");
        }
        other => panic!("expected ManifestDamaged, got {other:?}"),
    }
    // The salvage hint in the rendered message stays intact for humans.
    assert!(err.to_string().contains("RecoveryMode::Salvage"));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn manifest_byte_flips_never_panic() {
    let golden = temp_dir("golden-mflip");
    let (all_e, all_v) = build_corpus(&golden);
    let full = fs::read(golden.join(MANIFEST_FILE)).expect("manifest bytes");
    let trial = temp_dir("mflip");

    for pos in 0..full.len() {
        let _ = fs::remove_dir_all(&trial);
        clone_dir(&golden, &trial);
        let mut bytes = full.clone();
        bytes[pos] ^= 0xFF;
        fs::write(trial.join(MANIFEST_FILE), &bytes).expect("write flipped manifest");

        // Strict: a flip in the final frame is indistinguishable from a
        // torn tail (the damage ends at EOF) and heals; a flip that can
        // be proven mid-file is corruption and must be refused. Either
        // way: no panic, and whatever opens must load committed bytes.
        if let Ok(store) = DiskStore::open(&trial) {
            assert_records_committed(&store, &all_e, &all_v);
        }

        // Salvage: only header damage (the first HEADER_LEN bytes) is
        // unrecoverable — there is no committed prefix to keep.
        let _ = fs::remove_dir_all(&trial);
        clone_dir(&golden, &trial);
        fs::write(trial.join(MANIFEST_FILE), &bytes).expect("write flipped manifest");
        match DiskStore::open_with(&trial, RecoveryMode::Salvage, Telemetry::disabled()) {
            Ok(store) => assert_records_committed(&store, &all_e, &all_v),
            Err(_) => assert!(
                pos < HEADER_LEN,
                "pos {pos}: salvage may only fail on manifest-header damage"
            ),
        }
    }
    let _ = fs::remove_dir_all(&trial);
    let _ = fs::remove_dir_all(&golden);
}

#[test]
fn segment_byte_flips_never_panic_and_salvage_always_recovers() {
    let golden = temp_dir("golden-sflip");
    let (all_e, all_v) = build_corpus(&golden);
    let entries = committed_entries(&golden);
    let trial = temp_dir("sflip");

    for entry in &entries {
        let name = entry.file_name();
        let full = fs::read(golden.join(&name)).expect("segment bytes");
        for pos in 0..full.len() {
            let _ = fs::remove_dir_all(&trial);
            clone_dir(&golden, &trial);
            let mut bytes = full.clone();
            bytes[pos] ^= 0xFF;
            fs::write(trial.join(&name), &bytes).expect("write flipped segment");

            // Strict open itself succeeds (the length matches; checksums
            // are verified at load time) — but loading must refuse the
            // damage as corruption, never a panic or a silently wrong
            // record: every byte of a segment is under the header check,
            // a frame length or a CRC, for E segments (decoded at load)
            // and V segments (only located at load) alike. The one flip
            // the format cannot see is the reserved header byte; it
            // loads clean, and then the records must be intact.
            let store = DiskStore::open(&trial)
                .unwrap_or_else(|e| panic!("{name} flip at {pos}: strict open: {e}"));
            match load_kind(&store, entry.kind) {
                Ok(()) => {
                    assert_eq!(pos, HEADER_LEN - 1, "{name}: flip at {pos} loaded clean");
                    assert_records_committed(&store, &all_e, &all_v);
                }
                Err(err) => assert!(
                    matches!(err, DiskError::Corrupt { .. }),
                    "{name} flip at {pos}: expected DiskError::Corrupt, got {err:?}"
                ),
            }
            drop(store);

            // Salvage always produces a loadable corpus.
            let store = DiskStore::open_with(&trial, RecoveryMode::Salvage, Telemetry::disabled())
                .unwrap_or_else(|e| panic!("{name} flip at {pos}: salvage must open: {e}"));
            assert_records_committed(&store, &all_e, &all_v);
        }
    }
    let _ = fs::remove_dir_all(&trial);
    let _ = fs::remove_dir_all(&golden);
}

#[test]
fn missing_segment_is_refused_strict_and_dropped_salvage() {
    let golden = temp_dir("golden-missing");
    let (all_e, all_v) = build_corpus(&golden);
    let entries = committed_entries(&golden);
    let trial = temp_dir("missing");

    for entry in &entries {
        let name = entry.file_name();
        let _ = fs::remove_dir_all(&trial);
        clone_dir(&golden, &trial);
        fs::remove_file(trial.join(&name)).expect("delete segment");

        assert!(
            DiskStore::open(&trial).is_err(),
            "{name} missing: strict open must refuse"
        );

        let store = DiskStore::open_with(&trial, RecoveryMode::Salvage, Telemetry::disabled())
            .unwrap_or_else(|e| panic!("{name} missing: salvage must open: {e}"));
        assert_eq!(store.recovery().records_dropped, entry.records);
        assert_eq!(
            store.record_count(entry.kind),
            all_records(&entries, entry.kind) - entry.records,
            "only the missing segment's records are lost"
        );
        assert_records_committed(&store, &all_e, &all_v);
    }
    let _ = fs::remove_dir_all(&trial);
    let _ = fs::remove_dir_all(&golden);
}

#[test]
fn the_canonical_crash_shape_heals_to_the_committed_prefix() {
    // An interrupted third append leaves a fully-written orphan segment
    // plus a half-written manifest entry: the exact residue
    // `DiskStore::append`'s fsync ordering guarantees.
    let dir = temp_dir("crash-shape");
    let (all_e, all_v) = build_corpus(&dir);
    fs::write(dir.join("seg-000031-e.seg"), b"EVSG\x01\x00\x00").expect("orphan");
    let mut manifest = fs::read(dir.join(MANIFEST_FILE)).expect("manifest");
    let committed_len = manifest.len();
    manifest.extend_from_slice(&[65, 0, 0, 0, 0xde, 0xad]);
    fs::write(dir.join(MANIFEST_FILE), &manifest).expect("torn tail");

    let store = DiskStore::open(&dir).expect("strict open heals a crash");
    let rec = store.recovery();
    assert_eq!(rec.manifest_entries_kept, 4);
    assert_eq!(rec.manifest_bytes_truncated, 6);
    assert_eq!(rec.orphan_segments_removed, 1);
    assert_eq!(rec.records_dropped, 0, "every committed record survives");
    assert_eq!(
        fs::read(dir.join(MANIFEST_FILE)).expect("manifest").len(),
        committed_len
    );
    assert!(!dir.join("seg-000031-e.seg").exists());

    // Not just prefix-consistent: *everything* committed is still there.
    let es = store.load_estore().expect("loads");
    assert_eq!(es.iter().count(), all_e.len());
    let vs = store.load_video(CostModel::free()).expect("loads");
    assert_eq!(vs.scenarios().count(), all_v.len());
    assert_records_committed(&store, &all_e, &all_v);
    let _ = fs::remove_dir_all(&dir);
}

// ---- damage that arrives after `load_video` ------------------------------
//
// `load_video` verifies every V frame and remembers where it is; the
// frame is read again, re-verified and decoded when a match first
// extracts it. The tests below damage a corpus between the two.

fn sid(t: u64, c: usize) -> ScenarioId {
    ScenarioId::new(Timestamp::new(t), CellId::new(c))
}

/// The `FootageUnavailable` a store latched, as `(scenario, corrupt,
/// reason)`.
fn latched(video: &ev_store::VideoStore) -> (ScenarioId, bool, String) {
    match video.check_loads() {
        Err(ev_core::Error::FootageUnavailable {
            scenario,
            corrupt,
            reason,
        }) => (scenario, corrupt, reason),
        other => panic!("expected a latched FootageUnavailable, got {other:?}"),
    }
}

#[test]
fn damage_after_load_is_a_typed_error_at_extract_never_missing_footage() {
    // seg-000001-v.seg holds (0, 0) then (0, 1); seg-000003-v.seg the
    // day-2 footage. Byte 20 of the first payload is inside (0, 0)'s
    // first detection.
    type Damage = fn(&Path);
    let cases: [(&str, Damage, bool, &str); 3] = [
        (
            "flipped payload byte",
            |seg| {
                let mut bytes = fs::read(seg).expect("segment bytes");
                bytes[HEADER_LEN + 4 + 20] ^= 0xFF;
                fs::write(seg, bytes).expect("write flipped segment");
            },
            true,
            "frame checksum mismatch",
        ),
        (
            "truncated file",
            |seg| truncate(seg, (HEADER_LEN + 4 + 30) as u64),
            true,
            "seg-000001-v.seg",
        ),
        (
            "deleted file",
            |seg| fs::remove_file(seg).expect("delete segment"),
            false,
            "seg-000001-v.seg",
        ),
    ];

    for (what, damage, corrupt, reason_has) in cases {
        let dir = temp_dir("post-load");
        let (_, all_v) = build_corpus(&dir);
        let store = DiskStore::open(&dir).expect("intact corpus opens");
        let video = store
            .load_video(CostModel::free())
            .expect("intact V-data loads");
        assert_eq!(video.len(), all_v.len());
        damage(&dir.join("seg-000001-v.seg"));

        // Footage in the untouched segment is served as committed.
        let untouched = video.extract(sid(10, 2)).expect("untouched footage");
        assert_eq!(*untouched, all_v[3], "{what}");
        video.check_loads().expect("nothing has failed yet");

        // The damaged frame: no footage comes back, and the store says
        // why — this is what every matcher checks after its V stage.
        assert!(video.extract(sid(0, 0)).is_none(), "{what}");
        let (scenario, is_corrupt, reason) = latched(&video);
        assert_eq!(scenario, sid(0, 0), "{what}");
        assert_eq!(is_corrupt, corrupt, "{what}: {reason}");
        assert!(reason.contains(reason_has), "{what}: {reason}");
        assert_eq!(video.stats().extracted_scenarios, 1, "{what}");

        // A flip damages one frame; its neighbour in the same file
        // still reads. A cut or a missing file takes the whole segment.
        let neighbour = video.extract(sid(0, 1));
        if what == "flipped payload byte" {
            assert_eq!(*neighbour.expect("the neighbouring frame"), all_v[1]);
        } else {
            assert!(neighbour.is_none(), "{what}");
        }
        // The first error stays the reported one.
        assert_eq!(latched(&video).0, sid(0, 0), "{what}");
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_valid_frame_of_another_scenario_is_refused_at_extract() {
    // Two same-shaped scenarios, so their frames are the same length
    // and can trade places with every length and CRC still right.
    let dir = temp_dir("swapped-frames");
    let mut store = DiskStore::create(&dir).expect("fresh corpus");
    let batch = [vscenario(20, 0, &[1]), vscenario(20, 1, &[2])];
    let entry = (store.append(&[], &batch).expect("append").v_segment).expect("V entry");
    let video = store.load_video(CostModel::free()).expect("loads");

    let path = dir.join(entry.file_name());
    let mut bytes = fs::read(&path).expect("segment bytes");
    let frame = (bytes.len() - HEADER_LEN) / 2;
    let (a, b) = bytes[HEADER_LEN..].split_at_mut(frame);
    a.swap_with_slice(b);
    fs::write(&path, bytes).expect("write swapped segment");

    assert!(video.extract(sid(20, 0)).is_none());
    let (scenario, corrupt, reason) = latched(&video);
    assert_eq!(scenario, sid(20, 0));
    assert!(corrupt, "{reason}");
    assert!(
        reason.contains(&sid(20, 1).to_string()),
        "the reason names what the frame holds: {reason}"
    );
    // A fresh load of the swapped file is a valid corpus again: the
    // walk indexes each scenario where it now is.
    let reloaded = store.load_video(CostModel::free()).expect("reloads");
    assert_eq!(*reloaded.extract(sid(20, 0)).expect("footage"), batch[0]);
    let _ = fs::remove_dir_all(&dir);
}

// ---- crash shapes of the batched append commit --------------------------
//
// `DiskStore::append` streams its E segment, then its V segment, fsyncs
// each, fsyncs the directory and only then commits both with a single
// manifest write. The tests below stop that sequence at each point a
// crash can, by running a third append to completion on a built corpus
// and then rolling the files back to what would have been on disk.

/// A third append on top of [`build_corpus`], whose V segment spans more
/// than one of the writer's ~1 MiB chunks. Returns the manifest length
/// before it and the batches it committed as segments 4 (E) and 5 (V).
fn third_append(dir: &Path) -> (u64, Vec<EScenario>, Vec<VScenario>) {
    let manifest_before = fs::metadata(dir.join(MANIFEST_FILE))
        .expect("manifest")
        .len();
    let e3 = vec![escenario(20, 0, &[1, 8]), escenario(20, 3, &[9])];
    let wide: Vec<u64> = (0..400).collect();
    let v3: Vec<VScenario> = (0..160).map(|i| vscenario(20 + i, 3, &wide)).collect();
    let mut store = DiskStore::open(dir).expect("built corpus opens");
    let receipt = store.append(&e3, &v3).expect("third append");
    assert_eq!(receipt.e_segment.expect("E entry").seq, 4);
    let v_entry = receipt.v_segment.expect("V entry");
    assert_eq!(v_entry.seq, 5);
    assert!(
        v_entry.file_len > 2 << 20,
        "the V segment must span several write chunks"
    );
    (manifest_before, e3, v3)
}

fn truncate(path: &Path, len: u64) {
    let f = fs::OpenOptions::new()
        .write(true)
        .open(path)
        .expect("open for truncate");
    f.set_len(len).expect("truncate");
    f.sync_all().expect("sync");
}

#[test]
fn crash_before_the_manifest_write_orphans_both_segments() {
    for mode in [RecoveryMode::Strict, RecoveryMode::Salvage] {
        let dir = temp_dir("crash-uncommitted");
        let (all_e, all_v) = build_corpus(&dir);
        let (manifest_before, _, _) = third_append(&dir);
        // Both segment files are durable; the manifest write never ran.
        truncate(&dir.join(MANIFEST_FILE), manifest_before);

        let mut store =
            DiskStore::open_with(&dir, mode, Telemetry::disabled()).expect("heals a crash");
        let rec = *store.recovery();
        assert_eq!(rec.orphan_segments_removed, 2, "{mode:?}");
        assert_eq!(rec.manifest_bytes_truncated, 0, "{mode:?}");
        assert_eq!(rec.records_dropped, 0, "{mode:?}");
        assert_eq!(
            store.segments().len(),
            4,
            "{mode:?}: nothing of it committed"
        );
        assert!(!dir.join("seg-000004-e.seg").exists());
        assert!(!dir.join("seg-000005-v.seg").exists());
        assert_eq!(
            store.load_estore().expect("loads").iter().count(),
            all_e.len()
        );
        assert_records_committed(&store, &all_e, &all_v);

        // The lost append's sequence numbers are spent, not reused.
        let receipt = store
            .append(&[escenario(30, 0, &[1])], &[vscenario(30, 0, &[1])])
            .expect("append after recovery");
        assert_eq!(receipt.e_segment.expect("E entry").seq, 6, "{mode:?}");
        assert_eq!(receipt.v_segment.expect("V entry").seq, 7, "{mode:?}");
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn manifest_torn_inside_the_v_entry_keeps_the_e_entry() {
    let dir = temp_dir("crash-torn-v-entry");
    let (mut all_e, all_v) = build_corpus(&dir);
    let (manifest_before, e3, _) = third_append(&dir);
    let entry_frame = (FRAME_OVERHEAD + MANIFEST_ENTRY_PAYLOAD_LEN) as u64;
    // The one manifest write persisted the E entry and half the V entry.
    truncate(
        &dir.join(MANIFEST_FILE),
        manifest_before + entry_frame + entry_frame / 2,
    );

    let store = DiskStore::open(&dir).expect("strict open heals a torn tail");
    let rec = store.recovery();
    assert_eq!(
        rec.manifest_entries_kept, 5,
        "four old entries + the E entry"
    );
    assert_eq!(rec.manifest_bytes_truncated, entry_frame / 2);
    assert_eq!(
        rec.orphan_segments_removed, 1,
        "the V segment lost its entry"
    );
    assert_eq!(rec.records_dropped, 0);
    assert!(dir.join("seg-000004-e.seg").exists());
    assert!(!dir.join("seg-000005-v.seg").exists());

    all_e.extend(e3);
    assert_eq!(
        store.load_estore().expect("loads").iter().count(),
        all_e.len(),
        "the E half of the append is committed"
    );
    assert_eq!(
        store
            .load_video(CostModel::free())
            .expect("loads")
            .scenarios()
            .count(),
        all_v.len(),
        "the V half is not"
    );
    assert_records_committed(&store, &all_e, &all_v);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn segment_torn_mid_chunk_and_uncommitted_is_an_orphan() {
    for mode in [RecoveryMode::Strict, RecoveryMode::Salvage] {
        let dir = temp_dir("crash-mid-chunk");
        let (all_e, all_v) = build_corpus(&dir);
        let (manifest_before, _, _) = third_append(&dir);
        // The crash came while the V segment was streaming out: one
        // whole chunk and part of the next reached the file, cutting a
        // frame in two; nothing was committed.
        truncate(&dir.join("seg-000005-v.seg"), (1 << 20) + 12_345);
        truncate(&dir.join(MANIFEST_FILE), manifest_before);

        let store = DiskStore::open_with(&dir, mode, Telemetry::disabled()).expect("heals a crash");
        let rec = store.recovery();
        assert_eq!(rec.orphan_segments_removed, 2, "{mode:?}");
        assert_eq!(
            rec.segments_salvaged, 0,
            "{mode:?}: orphans are not salvaged"
        );
        assert_eq!(rec.records_dropped, 0, "{mode:?}");
        assert_eq!(store.segments().len(), 4, "{mode:?}");
        assert!(!dir.join("seg-000005-v.seg").exists());
        assert_records_committed(&store, &all_e, &all_v);
        let _ = fs::remove_dir_all(&dir);
    }
}
