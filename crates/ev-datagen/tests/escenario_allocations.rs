//! An E-Scenario costs one allocation, however many EIDs it holds: the
//! E builder and the disk decoder each build a scenario's members in
//! one shared allocation of exactly their size.
//!
//! This binary runs under a counting allocator and builds the E side of
//! two generated corpora, one sparse and one dense, twice: through the
//! E builder from the corpus's trajectories, and through
//! `decode_escenario` from the records the disk encoder writes for it.
//! Each may request at most one block per E-Scenario beyond a fixed
//! handful for its own buffers, and nothing per EID, so the bound holds
//! however crowded the cells are. A requested block is a fresh
//! allocation or a reallocation.
//!
//! The allocator counts process-wide; this binary holds one test, so
//! nothing else allocates while it measures.

use ev_core::scenario::EScenario;
use ev_datagen::{DatasetConfig, EvDataset, Mobility};
use ev_disk::codec::{decode_escenario, encode_escenario};
use ev_mobility::World;
use ev_sensing::EScenarioBuilder;
use ev_store::EScenarioStore;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, noting the blocks requested.
struct Counting;

static REQUESTS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter update neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        REQUESTS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTS.fetch_add(1, Ordering::Relaxed);
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

/// Blocks a build may request beside one per scenario: the builder's
/// row and scenario vectors as they grow (a doubling vector reallocates
/// about log₂ of its length times; both corpora need under twenty).
const FIXED_REQUESTS: usize = 64;

/// Runs `build`, returning what it built and the blocks it requested.
fn requests_of<T>(build: impl FnOnce() -> T) -> (usize, T) {
    let before = REQUESTS.load(Ordering::Relaxed);
    let built = build();
    (REQUESTS.load(Ordering::Relaxed) - before, built)
}

#[test]
fn building_the_e_side_allocates_per_scenario_not_per_eid() {
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
        let Mobility::RandomWaypoint(params) = config.mobility else {
            panic!("written for the random-waypoint corpora");
        };
        let population = config.population as usize;
        let traces = World::random_waypoint(data.region.clone(), population, params, config.seed)
            .unwrap()
            .run(config.duration)
            .unwrap();
        let builder = EScenarioBuilder::new(data.region.clone());
        let (built_requests, built) = requests_of(|| {
            builder
                .build_practical(
                    &traces,
                    &data.roster,
                    config.noise,
                    config.window,
                    config.thresholds,
                    config.seed + 2,
                )
                .unwrap()
        });

        let payloads: Vec<Vec<u8>> = built.iter().map(encode_escenario).collect();
        let mut decoded: Vec<EScenario> = Vec::with_capacity(payloads.len());
        let (decoded_requests, ()) = requests_of(|| {
            let records = payloads.iter().map(|p| decode_escenario(p).unwrap());
            decoded.extend(records);
        });
        assert_eq!(
            decoded, built,
            "{name}: the records decode to what was built"
        );
        assert_eq!(
            EScenarioStore::from_scenarios(built),
            data.estore,
            "{name}: the builder ran as the corpus's generator did"
        );

        let count = decoded.len();
        let members: usize = decoded.iter().map(EScenario::len).sum();
        assert!(
            members > count,
            "{name}: {members} EIDs over {count} E-Scenarios are too few to tell a \
             scenario's one allocation from one per EID"
        );
        assert!(
            built_requests <= count + FIXED_REQUESTS,
            "{name}: the E builder requested {built_requests} blocks for {count} \
             E-Scenarios ({members} EIDs)"
        );
        assert!(
            decoded_requests <= count,
            "{name}: decoding {count} E-Scenarios ({members} EIDs) requested \
             {decoded_requests} blocks"
        );
    }
}
