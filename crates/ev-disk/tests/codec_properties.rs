//! Property tests for the record codec and segment framing.
//!
//! The codec is hand-rolled (no serde on the disk path), so the
//! round-trip and rejection behaviour is pinned by generated evidence:
//! arbitrary scenarios survive encode → decode byte-identically,
//! arbitrary junk never panics a decoder, and any prefix cut of a
//! segment scans to a prefix of its records.
//!
//! This binary also runs under a counting allocator, so "rejected"
//! includes "before anything was allocated for it": no length or count
//! prefix read from hostile bytes may size an allocation beyond the
//! input that carried it — in the in-memory decoders and in the
//! streaming load walk `DiskStore::load_*` reads committed segments
//! with. The same allocator shows what loading V-data costs — memory for
//! an index entry per record, not for the records — and what writing it
//! costs: a bounded set of buffers, not the batch.
//!
//! The allocator counts **process-wide**: the load walks and the segment
//! writer run on worker threads, whose allocations a per-thread count
//! would never see. So every test in this binary holds [`serial`] for
//! its whole body — a count taken while another test allocates would be
//! that test's too.

use ev_core::feature::FeatureVector;
use ev_core::ids::{Eid, Vid};
use ev_core::region::CellId;
use ev_core::scenario::{Detection, EScenario, VScenario, ZoneAttr};
use ev_core::time::Timestamp;
use ev_disk::codec::{decode_escenario, decode_vscenario, encode_escenario, encode_vscenario};
use ev_disk::format::{HEADER_LEN, MANIFEST_ENTRY_PAYLOAD_LEN, MAX_FRAME_PAYLOAD};
use ev_disk::frame::{read_frames, FramedFile, Stop, Walk, READ_CHUNK};
use ev_disk::manifest::{encode_entry_frame, manifest_header, ManifestEntry};
use ev_disk::segment::{encode_e_segment, encode_v_segment, RUN_BYTES, WRITE_CHUNK};
use ev_disk::{
    DiskBackend, DiskError, DiskStore, RecoveryMode, SegmentBounds, SegmentKind, MANIFEST_FILE,
};
use ev_store::StoreBackend;
use ev_telemetry::Telemetry;
use ev_vision::cost::CostModel;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// The system allocator, noting across all threads the largest single
/// request, the bytes requested in total, the bytes live now and the
/// most that were ever live.
struct Counting;

// `Relaxed` throughout: the four are statistics. A test reads them
// after joining (inside the call it measures) every thread that
// allocated.
static LARGEST_REQUEST: AtomicUsize = AtomicUsize::new(0);
static TOTAL_REQUESTED: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK_LIVE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Bytes this thread requested: what a call that allocates only on
    /// its caller's thread requested, whatever other tests allocate
    /// meanwhile (proptest draws a case's input before its body takes
    /// [`serial`]).
    static THREAD_REQUESTED: Cell<usize> = const { Cell::new(0) };
}

/// Notes a request for `size` bytes, `grown` of them new.
fn note(size: usize, grown: usize) {
    LARGEST_REQUEST.fetch_max(size, Ordering::Relaxed);
    TOTAL_REQUESTED.fetch_add(grown, Ordering::Relaxed);
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK_LIVE.fetch_max(live, Ordering::Relaxed);
    // A thread being torn down has no counter left to bump.
    let _ = THREAD_REQUESTED.try_with(|bytes| bytes.set(bytes.get() + grown));
}

/// Held by every test of this binary for its whole body, so that what
/// the allocator counts between a reset and a read is one test's.
fn serial() -> MutexGuard<'static, ()> {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    // A test that failed while holding it has poisoned nothing: the
    // guarded value is `()`.
    ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// What the allocator saw while something ran, on whatever threads.
struct Allocated {
    /// The largest single request.
    largest: usize,
    /// Bytes requested in total, freed since or not: what a walk that
    /// allocates for every record and drops it again cannot hide.
    total: usize,
    /// The most bytes live at once, beyond those live at the start.
    held: usize,
}

fn allocated_by(run: impl FnOnce()) -> Allocated {
    let before = LIVE.load(Ordering::Relaxed);
    LARGEST_REQUEST.store(0, Ordering::Relaxed);
    TOTAL_REQUESTED.store(0, Ordering::Relaxed);
    PEAK_LIVE.store(before, Ordering::Relaxed);
    run();
    Allocated {
        largest: LARGEST_REQUEST.load(Ordering::Relaxed),
        total: TOTAL_REQUESTED.load(Ordering::Relaxed),
        held: PEAK_LIVE.load(Ordering::Relaxed) - before,
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; `note` only updates atomic
// integers and neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), layout.size());
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), layout.size());
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        note(new_size, new_size.saturating_sub(layout.size()));
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`; the caller guarantees the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `decode` over `input` and fails if any single allocation it
/// made exceeds `2 × input + 64 KiB` — room for a decoded copy and for
/// error strings, none for a size taken from the input on trust.
fn assert_allocations_bounded_by_input<T>(
    what: &str,
    input: &[u8],
    decode: impl FnOnce(&[u8]) -> T,
) -> T {
    let mut out = None;
    let Allocated { largest, .. } = allocated_by(|| out = Some(decode(input)));
    let bound = 2 * input.len() + (64 << 10);
    assert!(
        largest <= bound,
        "{what}: a {largest}-byte allocation from {} input bytes (bound {bound})",
        input.len()
    );
    out.expect("decode ran")
}

/// What `decode` makes of each payload of an in-memory `file`, through
/// the one frame reader, and the walk that found them.
fn read_in_memory<T>(
    file: FramedFile,
    bytes: &[u8],
    decode: fn(&[u8]) -> Result<T, DiskError>,
) -> (Vec<T>, Walk) {
    let mut records = Vec::new();
    let walk = read_frames(bytes, bytes.len() as u64, file, |_, payload| {
        records.push(decode(payload)?);
        Ok(())
    })
    .expect("reading memory cannot fail");
    (records, walk)
}

fn assert_corrupt<T: std::fmt::Debug>(what: &str, result: Result<T, DiskError>) {
    assert!(
        matches!(result, Err(DiskError::Corrupt { .. })),
        "{what}: expected DiskError::Corrupt, got {result:?}"
    );
}

/// `time | cell | count` — the fixed head of both record payloads.
fn record_head(count: u32) -> Vec<u8> {
    let mut payload = Vec::new();
    payload.extend_from_slice(&7u64.to_le_bytes());
    payload.extend_from_slice(&3u64.to_le_bytes());
    payload.extend_from_slice(&count.to_le_bytes());
    payload
}

/// An E payload announcing `count` memberships and holding `members`
/// as raw `(eid, attr byte)` pairs, in the order given.
fn e_payload(count: u32, members: impl IntoIterator<Item = (u64, u8)>) -> Vec<u8> {
    let mut payload = record_head(count);
    for (eid, attr) in members {
        payload.extend_from_slice(&eid.to_le_bytes());
        payload.push(attr);
    }
    payload
}

/// A V payload announcing one detection of dimension `dim`, followed by
/// only `present` component bytes.
fn v_payload_with_dim(dim: u32, present: usize) -> Vec<u8> {
    let mut payload = record_head(1);
    payload.extend_from_slice(&9u64.to_le_bytes());
    payload.extend_from_slice(&dim.to_le_bytes());
    payload.extend(std::iter::repeat_n(0u8, present));
    payload
}

/// A segment of `kind` whose single frame declares `len` payload bytes
/// and supplies `present`.
fn segment_with_frame_len(kind: u8, len: u32, present: usize) -> Vec<u8> {
    let mut bytes = b"EVSG\x01\x00".to_vec();
    bytes.extend_from_slice(&[kind, 0]);
    bytes.extend_from_slice(&len.to_le_bytes());
    bytes.extend(std::iter::repeat_n(0xA5u8, present));
    bytes
}

/// A corpus directory whose one committed segment is `bytes` and whose
/// manifest vouches for it: right length, `records` records. What the
/// segment then holds is the load walk's to find out.
fn corpus_with_segment(kind: SegmentKind, bytes: &[u8], records: u64) -> PathBuf {
    static DIRS: AtomicU64 = AtomicU64::new(0);
    let n = DIRS.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("ev-disk-codec-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("corpus dir");
    let entry = ManifestEntry {
        seq: 0,
        kind,
        records,
        bounds: SegmentBounds {
            min_time: 0,
            max_time: 0,
            min_cell: 0,
            max_cell: 0,
        },
        file_len: bytes.len() as u64,
    };
    std::fs::write(dir.join(entry.file_name()), bytes).expect("segment file");
    let mut manifest = manifest_header();
    manifest.extend_from_slice(&encode_entry_frame(&entry));
    std::fs::write(dir.join(MANIFEST_FILE), manifest).expect("manifest");
    dir
}

/// Loads the stores of the corpus whose one segment is `bytes`, through
/// the real open + load path, under the allocation bound.
fn load_walk(what: &str, kind: SegmentKind, bytes: &[u8]) -> Result<(), DiskError> {
    let dir = corpus_with_segment(kind, bytes, 1);
    let store = DiskStore::open(&dir).expect("manifest and file length agree");
    let result = assert_allocations_bounded_by_input(what, bytes, |_| match kind {
        SegmentKind::EScenario => store.load_estore().map(|_| ()),
        SegmentKind::VScenario => store.load_video(CostModel::free()).map(|_| ()),
    });
    std::fs::remove_dir_all(&dir).expect("cleanup");
    result
}

/// Crafted length and count prefixes: each is refused as corruption,
/// and refused *before* it sizes an allocation.
#[test]
fn hostile_prefixes_are_corruption_and_never_drive_an_allocation() {
    let _serial = serial();
    let cases: Vec<(&str, Vec<u8>)> = vec![
        ("v count = u32::MAX", record_head(u32::MAX)),
        ("v dim = u32::MAX", v_payload_with_dim(u32::MAX, 64)),
        // dim × 8 = 2³², which wraps to 0 in a 32-bit `usize`.
        ("v dim × 8 overflows u32", v_payload_with_dim(1 << 29, 64)),
        (
            "v dim one past the bytes present",
            v_payload_with_dim(9, 64),
        ),
    ];
    for (what, payload) in &cases {
        let result = assert_allocations_bounded_by_input(what, payload, decode_vscenario);
        assert_corrupt(what, result);
    }

    let e_count = record_head(u32::MAX);
    let result =
        assert_allocations_bounded_by_input("e count = u32::MAX", &e_count, decode_escenario);
    assert_corrupt("e count = u32::MAX", result);
    // Memberships present but fewer than declared: every one is checked
    // before the scenario is built, so the decoder allocates nothing for
    // them (a scenario built member by member would have allocated for
    // the 200 before finding the cut) — only the error it returns.
    for (what, count) in [
        ("e count one past the memberships present", 201),
        ("e count = u32::MAX over memberships", u32::MAX),
    ] {
        let payload = e_payload(count, (0..200).map(|eid| (eid, 0)));
        let before = THREAD_REQUESTED.with(Cell::get);
        let result = decode_escenario(&payload);
        let requested = THREAD_REQUESTED.with(Cell::get) - before;
        assert_corrupt(what, result);
        assert!(requested <= 256, "{what}: {requested} bytes requested");
    }

    for (what, len) in [
        ("frame len = u32::MAX", u32::MAX),
        ("frame len = MAX_FRAME_PAYLOAD", MAX_FRAME_PAYLOAD as u32),
        ("frame len one past the bytes present", 65),
    ] {
        // The frame reader calls the bytes a torn tail without
        // allocating for the declared length: it sizes its buffers by
        // the bytes that remain, never by the length a frame declares.
        let e_seg = segment_with_frame_len(0, len, 64);
        let (records, walk) = assert_allocations_bounded_by_input(what, &e_seg, |bytes| {
            read_in_memory(
                FramedFile::Segment(SegmentKind::EScenario),
                bytes,
                decode_escenario,
            )
        });
        assert!(
            matches!(walk.stop, Stop::Torn) && records.is_empty(),
            "{what}"
        );
        let v_seg = segment_with_frame_len(1, len, 64);
        let (records, walk) = assert_allocations_bounded_by_input(what, &v_seg, |bytes| {
            read_in_memory(
                FramedFile::Segment(SegmentKind::VScenario),
                bytes,
                decode_vscenario,
            )
        });
        assert!(
            matches!(walk.stop, Stop::Torn) && records.is_empty(),
            "{what}"
        );
        // The load walk reads the same bytes from a committed file, and
        // a committed segment must end whole: corruption.
        assert_corrupt(what, load_walk(what, SegmentKind::EScenario, &e_seg));
        assert_corrupt(what, load_walk(what, SegmentKind::VScenario, &v_seg));
    }

    // A checksum-valid V frame too short to name its scenario cannot be
    // located, so the load refuses it (decoding is what is deferred,
    // not knowing what the corpus holds).
    let mut headless = b"EVSG\x01\x00\x01\x00".to_vec();
    ev_disk::frame::write_frame(&mut headless, |out| out.extend_from_slice(&[7; 15]));
    assert_corrupt(
        "v frame shorter than time | cell",
        load_walk("short v frame", SegmentKind::VScenario, &headless),
    );

    // Manifest: a huge frame length is a torn tail, an entry of the
    // wrong size is corruption; neither allocates for what it claims.
    let mut manifest = b"EVMF\x01\x00\x00\x00".to_vec();
    manifest.extend_from_slice(&u32::MAX.to_le_bytes());
    manifest.extend_from_slice(&[0xA5; 64]);
    let (entries, walk) =
        assert_allocations_bounded_by_input("manifest frame len", &manifest, |bytes| {
            read_in_memory(FramedFile::Manifest, bytes, ManifestEntry::decode)
        });
    assert!(matches!(walk.stop, Stop::Torn) && entries.is_empty());
    let short_entry = vec![0u8; MANIFEST_ENTRY_PAYLOAD_LEN - 1];
    let result = assert_allocations_bounded_by_input(
        "manifest entry length",
        &short_entry,
        ManifestEntry::decode,
    );
    assert_corrupt("manifest entry length", result);
}

/// Threads the process may run on — the width `DiskStore::append` and
/// `load_video` work at.
fn host_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Three batches of V-Scenarios, each over the segment writer's byte
/// grain: 32 detections of dimension 128 a scenario, 33 KiB a frame.
const BATCHES: usize = 3;
const BATCH_RECORDS: usize = 160;
const FRAME_BYTES: usize = 4 + 20 + 32 * (12 + 128 * 8) + 4;
const BATCH_BYTES: usize = BATCH_RECORDS * FRAME_BYTES;
const _: () = assert!(BATCH_BYTES > 5 << 20, "over the writer's 4 MiB grain");

fn footage() -> Vec<VScenario> {
    let feature = FeatureVector::new(vec![0.5; 128]).expect("valid feature");
    (0..BATCHES * BATCH_RECORDS)
        .map(|i| {
            let mut v = VScenario::new(CellId::new(i % 16), Timestamp::new(i as u64));
            for vid in 0..32 {
                v.push(Detection {
                    vid: Vid::new(vid),
                    feature: feature.clone(),
                });
            }
            v
        })
        .collect()
}

fn fresh_corpus(tag: &str) -> (PathBuf, DiskStore) {
    static DIRS: AtomicU64 = AtomicU64::new(0);
    let n = DIRS.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("ev-disk-{tag}-{}-{n}", std::process::id()));
    let store = DiskStore::create(&dir).expect("fresh corpus");
    (dir, store)
}

/// Writing V-data holds a bounded set of buffers, never the batch: at
/// no point more than two run buffers per framing thread and the one
/// write chunk.
#[test]
fn append_allocates_a_bounded_set_of_buffers_not_the_batch() {
    let _serial = serial();
    let scenarios = footage();
    let (dir, mut store) = fresh_corpus("append-budget");
    for batch in scenarios.chunks(BATCH_RECORDS) {
        let mut entry = None;
        let Allocated { largest, held, .. } = allocated_by(|| {
            entry = store.append(&[], batch).expect("appends").v_segment;
        });
        let entry = entry.expect("a V segment");
        assert_eq!(entry.file_len, (HEADER_LEN + BATCH_BYTES) as u64);
        let framers = host_workers().min(BATCH_BYTES.div_ceil(RUN_BYTES));
        assert!(largest <= WRITE_CHUNK, "largest single request: {largest}");
        // Beside the buffers: the list of runs, thread handles, channel
        // nodes, paths and the manifest entry.
        let budget = WRITE_CHUNK + 2 * framers * RUN_BYTES + (64 << 10);
        assert!(
            held <= budget,
            "append held {held} bytes of a {BATCH_BYTES}-byte batch on {framers} framers; \
             budget {budget}"
        );
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Loading V-data locates it; only extraction decodes it. A corpus of N
/// records in three segments costs the load one read buffer and one
/// frame buffer per segment walked — as many of them at once as there
/// are walking threads — and an index entry per record: not the bytes
/// of the records, neither held nor requested and given back.
#[test]
fn load_video_allocates_for_the_index_not_for_the_footage() {
    let _serial = serial();
    const RECORDS: usize = BATCHES * BATCH_RECORDS;
    // A walk's read buffer, and its frame buffer however it grew to a
    // frame (doubling from nothing requests at most twice the frame).
    const PER_WALK: usize = READ_CHUNK + 2 * FRAME_BYTES;
    // A few hundred bytes per record for its index entries — the
    // per-segment lists, their concatenation, the store's map — and,
    // beside them, thread handles, paths and the span.
    const INDEX: usize = RECORDS * 512 + (64 << 10);

    let scenarios = footage();
    let (dir, mut store) = fresh_corpus("load-budget");
    for batch in scenarios.chunks(BATCH_RECORDS) {
        store.append(&[], batch).expect("appends");
    }
    let store = DiskStore::open(&dir).expect("corpus opens");

    let mut video = None;
    let allocated = allocated_by(|| {
        video = Some(store.load_video(CostModel::free()).expect("loads"));
    });
    let video = video.expect("loaded");
    assert_eq!(video.len(), RECORDS);
    let Allocated {
        largest,
        total,
        held,
    } = allocated;
    let footage_bytes = BATCHES * BATCH_BYTES;
    assert!(largest <= 1 << 20, "largest single request: {largest}");
    // In total: a walk that decoded or copied every frame and dropped
    // it again would request the footage, 16 MB, over the load.
    let budget = BATCHES * PER_WALK + INDEX;
    assert!(
        total <= budget,
        "load_video requested {total} bytes for {RECORDS} records ({footage_bytes} bytes of \
         footage) in {BATCHES} segments; budget {budget}"
    );
    // At once: only as many walks as there are walkers.
    let walkers = host_workers().min(BATCHES);
    let budget = walkers * PER_WALK + INDEX;
    assert!(
        held <= budget,
        "load_video held {held} bytes for {RECORDS} records ({footage_bytes} bytes of footage) \
         on {walkers} walkers; budget {budget}"
    );

    // Extracting one scenario then costs about that scenario.
    let mut extracted = None;
    let Allocated { total, .. } = allocated_by(|| extracted = video.extract(scenarios[7].id()));
    assert_eq!(*extracted.expect("footage"), scenarios[7]);
    assert!(total <= 128 << 10, "one extraction requested {total} bytes");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// A held backend stays flat: extracting the whole corpus in disjoint
/// batches, each held and then dropped the way successive matches hold
/// their footage, leaves as much live after every batch as after the
/// open, give or take one frame — not every frame ever decoded. (What
/// stays is a few dozen bytes per released slot: the allocation its
/// `Weak` keeps, 480 of them under one frame here.)
#[test]
fn a_held_backend_holds_no_footage_between_matches() {
    let _serial = serial();
    let scenarios = footage();
    let (dir, mut store) = fresh_corpus("held-flat");
    for batch in scenarios.chunks(BATCH_RECORDS) {
        store.append(&[], batch).expect("appends");
    }
    drop(store);
    let backend = DiskBackend::open(&dir, CostModel::free()).expect("corpus opens");
    let video = backend.video();

    let baseline = LIVE.load(Ordering::Relaxed);
    for (i, batch) in scenarios.chunks(BATCH_RECORDS / 2).enumerate() {
        video.reset_usage();
        let held: Vec<_> = (batch.iter())
            .map(|s| video.extract(s.id()).expect("footage"))
            .collect();
        assert_eq!(*held[0], batch[0]);
        let holding = LIVE.load(Ordering::Relaxed) - baseline;
        assert!(
            holding >= batch.len() * FRAME_BYTES,
            "batch {i} holds {holding} bytes"
        );
        drop(held);
        let left = LIVE.load(Ordering::Relaxed).saturating_sub(baseline);
        assert!(
            left <= FRAME_BYTES,
            "after batch {i} of {} records, {left} bytes stay live; one frame is {FRAME_BYTES}",
            batch.len()
        );
    }
    drop(backend);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Salvage streams a damaged segment through the frame reader: opening
/// a corpus whose one V segment is over 8 MiB, with a byte flipped in
/// its last frame, holds a read buffer, one frame and the record decoded
/// from it at a time — not the segment.
#[test]
fn salvage_holds_a_frame_at_a_time_not_the_segment() {
    let _serial = serial();
    // The read buffer, the frame buffer and the record decoded from it;
    // beside them, that record's bookkeeping (an `Arc` header and a
    // vector slot per detection, 1.3 KiB here) and the open's paths and
    // manifest entries.
    const PEAK_LIVE: usize = READ_CHUNK + 2 * FRAME_BYTES;
    const BESIDE: usize = 4 << 10;
    const RECORDS: usize = 256;
    const _: () = assert!(RECORDS * FRAME_BYTES >= 8 << 20);

    let scenarios = footage();
    let (dir, mut store) = fresh_corpus("salvage-budget");
    let entry = (store.append(&[], &scenarios[..RECORDS]).expect("appends"))
        .v_segment
        .expect("a V segment");
    drop(store);
    let path = dir.join(entry.file_name());
    let mut bytes = std::fs::read(&path).expect("segment bytes");
    let last = bytes.len() - FRAME_BYTES / 2;
    bytes[last] ^= 0xFF;
    std::fs::write(&path, bytes).expect("flip a byte of the last frame");

    let mut opened = None;
    let Allocated { held, .. } = allocated_by(|| {
        opened = Some(DiskStore::open_with(
            &dir,
            RecoveryMode::Salvage,
            Telemetry::disabled(),
        ));
    });
    let store = opened.expect("opened").expect("salvage opens");
    let report = store.recovery();
    assert_eq!((report.segments_salvaged, report.records_dropped), (1, 1));
    assert_eq!(
        store.record_count(SegmentKind::VScenario),
        RECORDS as u64 - 1
    );
    assert!(
        held <= PEAK_LIVE + BESIDE,
        "salvaging a {}-byte segment held {held} bytes; budget {PEAK_LIVE} + {BESIDE}",
        entry.file_len
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Raw draw for an E-Scenario: time, cell, `(eid, attr)` entries.
type ERaw = (u64, usize, Vec<(u64, u8)>);

fn arb_e_raw() -> impl Strategy<Value = ERaw> {
    (
        any::<u64>(),
        0usize..10_000,
        prop::collection::vec((any::<u64>(), 0u8..2), 0..24),
    )
}

fn build_e(raw: &ERaw) -> EScenario {
    let (t, c, ref entries) = *raw;
    let mut e = EScenario::new(CellId::new(c), Timestamp::new(t));
    for &(eid, raw_attr) in entries {
        let attr = if raw_attr == 0 {
            ZoneAttr::Inclusive
        } else {
            ZoneAttr::Vague
        };
        e.insert(Eid::from_u64(eid), attr);
    }
    e
}

/// Raw draw for a V-Scenario: time, cell, feature dimension, and
/// detections carrying an 8-wide unit draw truncated to the dimension.
type VRaw = (u64, usize, usize, Vec<(u64, Vec<f64>)>);

fn arb_v_raw() -> impl Strategy<Value = VRaw> {
    (
        any::<u64>(),
        0usize..10_000,
        1usize..8,
        prop::collection::vec(
            (any::<u64>(), prop::collection::vec(0.0f64..=1.0, 8)),
            0..12,
        ),
    )
}

fn build_v(raw: &VRaw) -> VScenario {
    let (t, c, dim, ref dets) = *raw;
    let mut v = VScenario::new(CellId::new(c), Timestamp::new(t));
    for (vid, wide) in dets {
        v.push(Detection {
            vid: Vid::new(*vid),
            feature: FeatureVector::new(wide[..dim].to_vec()).expect("components in [0, 1]"),
        });
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// E-Scenarios round-trip byte-identically, whatever the EID set,
    /// attribute mix, timestamp or cell.
    #[test]
    fn escenario_roundtrips(raw in arb_e_raw()) {
        let _serial = serial();
        let s = build_e(&raw);
        let payload = encode_escenario(&s);
        let back = decode_escenario(&payload).expect("own encoding decodes");
        prop_assert_eq!(back, s);
    }

    /// V-Scenarios round-trip with exact `f64` bit patterns — features
    /// go through `to_bits`, never a lossy text form.
    #[test]
    fn vscenario_roundtrips(raw in arb_v_raw()) {
        let _serial = serial();
        let s = build_v(&raw);
        let payload = encode_vscenario(&s);
        let back = decode_vscenario(&payload).expect("own encoding decodes");
        prop_assert_eq!(back, s);
    }

    /// Arbitrary junk must be *rejected*, not trusted and not panicked
    /// on — the decoders guard every length and every enum byte.
    #[test]
    fn junk_never_panics_a_decoder(bytes in prop::collection::vec(0u8..=255, 0..256)) {
        let _serial = serial();
        let _ = assert_allocations_bounded_by_input("junk e-record", &bytes, decode_escenario);
        let _ = assert_allocations_bounded_by_input("junk v-record", &bytes, decode_vscenario);
        let _ = assert_allocations_bounded_by_input("junk e-segment", &bytes, |bytes| {
            read_in_memory(FramedFile::Segment(SegmentKind::EScenario), bytes, decode_escenario)
        });
        let _ = assert_allocations_bounded_by_input("junk v-segment", &bytes, |bytes| {
            read_in_memory(FramedFile::Segment(SegmentKind::VScenario), bytes, decode_vscenario)
        });
        let _ = assert_allocations_bounded_by_input("junk manifest", &bytes, |bytes| {
            read_in_memory(FramedFile::Manifest, bytes, ManifestEntry::decode)
        });
        let _ = load_walk("junk committed e-segment", SegmentKind::EScenario, &bytes);
        let _ = load_walk("junk committed v-segment", SegmentKind::VScenario, &bytes);
    }

    /// Memberships out of EID order, repeated, or equal once masked to
    /// 48 bits decode to what inserting them one by one in record order
    /// gives: EIDs ascending, a repeated EID with its last attribute.
    /// Hand-written serde input of the same memberships, keys in the
    /// same order, reads back as the same scenario.
    #[test]
    fn unordered_and_repeated_members_normalise_like_inserts(
        raw in prop::collection::vec((0u64..24, 0u64..4, 0u8..2), 0..40),
    ) {
        let _serial = serial();
        // The high bits land above the 48 an EID keeps: a repeat once
        // masked.
        let members: Vec<(u64, u8)> =
            raw.iter().map(|&(low, high, attr)| (low | high << 48, attr)).collect();
        let attr_of = |byte: u8| if byte == 0 { ZoneAttr::Inclusive } else { ZoneAttr::Vague };
        let mut expected = EScenario::new(CellId::new(3), Timestamp::new(7));
        for &(eid, attr) in &members {
            expected.insert(Eid::from_u64(eid), attr_of(attr));
        }

        let payload = e_payload(members.len() as u32, members.iter().copied());
        let decoded = decode_escenario(&payload).expect("well-formed memberships decode");
        prop_assert_eq!(&decoded, &expected);
        prop_assert!(decoded.eids().collect::<Vec<_>>().windows(2).all(|w| w[0] < w[1]));
        // Re-encoded, the record is the canonical one: ascending, no repeat.
        let canonical = e_payload(
            expected.len() as u32,
            expected.iter().map(|(eid, attr)| (eid.as_u64(), u8::from(attr == ZoneAttr::Vague))),
        );
        prop_assert_eq!(encode_escenario(&decoded), canonical);

        let entries: Vec<String> = members
            .iter()
            .map(|&(eid, attr)| format!("\"{}\":\"{:?}\"", eid & 0xffff_ffff_ffff, attr_of(attr)))
            .collect();
        let json = format!(r#"{{"id":{{"time":7,"cell":3}},"eids":{{{}}}}}"#, entries.join(","));
        let read: EScenario = serde_json::from_str(&json).expect("hand-written scenario reads");
        prop_assert_eq!(read, expected);
    }

    /// A decoded payload with trailing garbage is rejected: record
    /// boundaries come from the frame, so slack bytes mean corruption.
    #[test]
    fn trailing_bytes_are_rejected(raw in arb_e_raw(), extra in 1usize..16) {
        let _serial = serial();
        let mut payload = encode_escenario(&build_e(&raw));
        payload.extend(std::iter::repeat_n(0u8, extra));
        prop_assert!(decode_escenario(&payload).is_err());
    }

    /// Whole segments round-trip in order, and the absorbed bounds are
    /// exactly the min/max of the records' times and cells.
    #[test]
    fn e_segment_roundtrips_with_tight_bounds(
        raws in prop::collection::vec(arb_e_raw(), 1..10)
    ) {
        let _serial = serial();
        let scenarios: Vec<EScenario> = raws.iter().map(build_e).collect();
        let seg = encode_e_segment(&scenarios);
        prop_assert_eq!(seg.records, scenarios.len() as u64);
        let (back, walk) =
            read_in_memory(FramedFile::Segment(SegmentKind::EScenario), &seg.bytes, decode_escenario);
        prop_assert!(matches!(walk.stop, Stop::End), "own segment reads whole: {:?}", walk.stop);
        prop_assert_eq!(&back, &scenarios);
        let times: Vec<u64> = scenarios.iter().map(|s| s.time().tick()).collect();
        let cells: Vec<u64> = scenarios.iter().map(|s| s.cell().index() as u64).collect();
        prop_assert_eq!(seg.bounds.min_time, *times.iter().min().expect("non-empty"));
        prop_assert_eq!(seg.bounds.max_time, *times.iter().max().expect("non-empty"));
        prop_assert_eq!(seg.bounds.min_cell, *cells.iter().min().expect("non-empty"));
        prop_assert_eq!(seg.bounds.max_cell, *cells.iter().max().expect("non-empty"));
    }

    /// Cutting a segment at any byte yields a scan whose complete
    /// frames are a prefix of the original records and whose tail is
    /// classified torn — the foundation of salvage recovery.
    #[test]
    fn any_prefix_cut_scans_to_a_record_prefix(
        raws in prop::collection::vec(arb_v_raw(), 1..6),
        cut in any::<prop::sample::Index>(),
    ) {
        let _serial = serial();
        let scenarios: Vec<VScenario> = raws.iter().map(build_v).collect();
        let seg = encode_v_segment(&scenarios);
        let len = cut.index(seg.bytes.len() - HEADER_LEN) + HEADER_LEN;
        let (records, partial) =
            read_in_memory(FramedFile::Segment(seg.kind), &seg.bytes[..len], decode_vscenario);
        // A cut exactly on a frame boundary leaves a shorter *valid*
        // file; anything else is a torn tail. Never damage: every
        // complete frame decodes to the record written there.
        match partial.stop {
            Stop::End => prop_assert_eq!(partial.valid_len, len as u64),
            Stop::Torn => prop_assert!(partial.valid_len < len as u64),
            Stop::Damaged(damage) => prop_assert!(false, "a clean cut is torn, never damaged: {damage}"),
        }
        prop_assert_eq!(&records[..], &scenarios[..records.len()]);
    }
}
