//! Cloning a scenario shares its payload: a served stream that clones
//! every batch (the source, then the live corpus) holds each scenario's
//! EIDs and detections once.
//!
//! This binary runs under a counting allocator and clones every E- and
//! V-Scenario of two generated corpora, one sparse and one dense. The
//! bytes the clones allocate are bounded by a word per scenario and
//! nothing per EID or per detection, so the bound holds however crowded
//! the cells are.
//!
//! The allocator counts process-wide; this binary holds one test, so
//! nothing else allocates while it measures.

use ev_core::scenario::{EScenario, VScenario};
use ev_datagen::{DatasetConfig, EvDataset};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, noting the bytes requested in total.
struct Counting;

static TOTAL_REQUESTED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter update neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        TOTAL_REQUESTED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        TOTAL_REQUESTED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let grown = new_size.saturating_sub(layout.size());
        TOTAL_REQUESTED.fetch_add(grown, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`; the caller guarantees the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The most the clones may allocate per scenario: one word of slack. A
/// reference-count bump allocates nothing; a copied member list or
/// detection list needs a node or a buffer of its own, which does not
/// fit.
const BYTES_PER_SCENARIO: usize = std::mem::size_of::<usize>();

/// Clones every scenario `scenarios` yields into a vector reserved
/// beforehand, so the count is the clones' and not the vector's.
fn clone_all<'a, T: Clone + 'a>(scenarios: impl Iterator<Item = &'a T>) -> (usize, Vec<T>) {
    let scenarios: Vec<&T> = scenarios.collect();
    let mut copies = Vec::with_capacity(scenarios.len());
    let before = TOTAL_REQUESTED.load(Ordering::Relaxed);
    copies.extend(scenarios.into_iter().cloned());
    (TOTAL_REQUESTED.load(Ordering::Relaxed) - before, copies)
}

#[test]
fn cloning_a_corpus_allocates_per_scenario_not_per_member() {
    let sparse = DatasetConfig {
        population: 100,
        duration: 120,
        ..DatasetConfig::default()
    };
    let dense = DatasetConfig {
        population: 300,
        duration: 60,
        cell_size: 250.0,
        ..DatasetConfig::default()
    };
    for (name, config) in [("sparse", sparse), ("dense", dense)] {
        let data = EvDataset::generate(&config).unwrap();
        let (e_bytes, e_copies) = clone_all(data.estore.iter());
        let (v_bytes, v_copies) = clone_all(data.video.scenarios());

        let (e_count, v_count) = (e_copies.len(), v_copies.len());
        let members: usize = e_copies.iter().map(EScenario::len).sum();
        let detections: usize = v_copies.iter().map(VScenario::len).sum();
        assert!(
            e_count > 0 && v_count > 0,
            "{name}: an empty corpus shows nothing"
        );
        assert!(
            members > e_count && detections > v_count,
            "{name}: {members} EIDs over {e_count} and {detections} detections over \
             {v_count} scenarios are too few to tell a shared payload from a copy"
        );
        assert!(
            e_bytes <= BYTES_PER_SCENARIO * e_count,
            "{name}: cloning {e_count} E-Scenarios ({members} EIDs) allocated {e_bytes} bytes"
        );
        assert!(
            v_bytes <= BYTES_PER_SCENARIO * v_count,
            "{name}: cloning {v_count} V-Scenarios ({detections} detections) allocated \
             {v_bytes} bytes"
        );
    }
}
