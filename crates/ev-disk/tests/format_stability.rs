//! Format stability: `FORMAT_VERSION` 1 means these exact bytes.
//!
//! `fixtures/format-v1/` is a corpus directory written by the commit
//! *before* the streaming segment writer existed (two batch appends and
//! one checkpointed ingest stream of the batches below; see
//! `fixtures/README.md`). The current code must open it and read back
//! those batches, and must write the very same files when given the
//! same input — byte for byte, manifest included — so corpora move
//! freely between the two writers.

use ev_core::feature::FeatureVector;
use ev_core::ids::{Eid, Vid};
use ev_core::region::CellId;
use ev_core::scenario::{Detection, EScenario, VScenario, ZoneAttr};
use ev_core::time::Timestamp;
use ev_disk::{CheckpointPolicy, DiskStore, IngestWriter};
use ev_vision::cost::CostModel;
use std::fs;
use std::path::{Path, PathBuf};

fn e(time: u64, cell: usize, eids: &[u64]) -> EScenario {
    let mut s = EScenario::new(CellId::new(cell), Timestamp::new(time));
    for &eid in eids {
        let attr = if eid % 3 == 0 {
            ZoneAttr::Vague
        } else {
            ZoneAttr::Inclusive
        };
        s.insert(Eid::from_u64(eid), attr);
    }
    s
}

/// Detection `i` of the scenario has dimension `dims[i]` and components
/// that are not round in binary, so a lossy float path would show.
fn v(time: u64, cell: usize, dims: &[usize]) -> VScenario {
    let mut s = VScenario::new(CellId::new(cell), Timestamp::new(time));
    for (i, &dim) in dims.iter().enumerate() {
        let components =
            (0..dim).map(|k| ((time + 1) as f64 * 0.1 + (i * dim + k) as f64 / 7.0).fract());
        s.push(Detection {
            vid: Vid::new(time * 1000 + cell as u64 * 10 + i as u64),
            feature: FeatureVector::new(components).expect("components in [0, 1)"),
        });
    }
    s
}

/// The three ingests the fixture holds, in order: an E+V append, an
/// E-only append, and a two-push stream sealed by one checkpoint.
struct Batches {
    first: (Vec<EScenario>, Vec<VScenario>),
    second: Vec<EScenario>,
    stream: [(Vec<EScenario>, Vec<VScenario>); 2],
}

fn batches() -> Batches {
    Batches {
        first: (
            vec![
                e(0, 0, &[1, 2, 3]),
                e(0, 1, &[]),
                e(1, 0, &[0xaabb_cc00_0102, 9]),
            ],
            vec![v(0, 0, &[4, 4, 4]), v(0, 1, &[]), v(1, 0, &[1, 17])],
        ),
        second: vec![e(2, 3, &[6]), e(1, 0, &[2, 7])],
        stream: [
            (
                vec![e(5, 2, &[1, 3])],
                vec![v(5, 2, &[8]), v(5, 3, &[2, 2])],
            ),
            (vec![e(6, 2, &[3, 4, 5]), e(6, 4, &[12])], vec![]),
        ],
    }
}

fn write_corpus(dir: &Path) {
    let b = batches();
    let mut store = DiskStore::create(dir).expect("fresh corpus");
    store.append(&b.first.0, &b.first.1).expect("first append");
    store.append(&b.second, &[]).expect("second append");
    let mut writer = IngestWriter::new(store, CheckpointPolicy::manual());
    for (e_batch, v_batch) in &b.stream {
        writer.push(e_batch, v_batch).expect("stream push");
    }
    writer.finish().expect("final checkpoint");
}

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/format-v1")
}

fn files_of(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<_> = fs::read_dir(dir)
        .expect("list corpus dir")
        .map(|entry| {
            let entry = entry.expect("dir entry");
            let name = entry.file_name().into_string().expect("utf-8 file name");
            (name, fs::read(entry.path()).expect("read corpus file"))
        })
        .collect();
    files.sort();
    files
}

#[test]
fn a_corpus_written_by_the_previous_writer_opens_and_reads_back() {
    let store = DiskStore::open(fixture_dir()).expect("fixture opens");
    assert!(
        !store.recovery().repaired_anything(),
        "a committed fixture needs no healing (and the open wrote nothing)"
    );
    assert_eq!(store.segments().len(), 5);

    let b = batches();
    // (time 1, cell 0) is written twice; the later segment's record wins.
    let expect_e: Vec<EScenario> = (b.first.0.into_iter())
        .filter(|s| (s.time().tick(), s.cell().index()) != (1, 0))
        .chain(b.second)
        .chain(b.stream.iter().flat_map(|(e_batch, _)| e_batch.clone()))
        .collect();
    let estore = store.load_estore().expect("E-data loads");
    assert_eq!(estore.len(), expect_e.len());
    for s in &expect_e {
        assert_eq!(estore.get(s.id()), Some(s), "E record {:?}", s.id());
    }

    let expect_v: Vec<VScenario> = (b.first.1.into_iter())
        .chain(b.stream.iter().flat_map(|(_, v_batch)| v_batch.clone()))
        .collect();
    let video = store.load_video(CostModel::free()).expect("V-data loads");
    let loaded: Vec<&VScenario> = video.scenarios().collect();
    assert_eq!(loaded.len(), expect_v.len());
    for s in &expect_v {
        assert!(loaded.contains(&s), "V record {:?}", s.id());
    }
}

#[test]
fn the_same_batches_write_byte_identical_files() {
    let dir = std::env::temp_dir().join(format!("ev-disk-format-v1-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    write_corpus(&dir);

    let written = files_of(&dir);
    let fixture = files_of(&fixture_dir());
    assert_eq!(
        written.iter().map(|(name, _)| name).collect::<Vec<_>>(),
        fixture.iter().map(|(name, _)| name).collect::<Vec<_>>(),
        "same file names"
    );
    for ((name, ours), (_, theirs)) in written.iter().zip(&fixture) {
        assert_eq!(ours, theirs, "{name} differs from the fixture");
    }
    fs::remove_dir_all(&dir).expect("cleanup");
}
