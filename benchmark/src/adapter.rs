//! Every call the harness makes into the program goes through here, so
//! a change to the program's public API is a change to this one file.
//!
//! Only API the ROADMAP expects to survive is used: `EvMatcher`,
//! `ExecutionMode::{Sequential, Dag}`, `split_practical`,
//! `filter_vids_cached`, `Kernel::score_max`, `DiskBackend`,
//! `LiveCorpus`.

use evmatch::core::kernel::{FeatureBlock, Kernel};
use evmatch::core::scenario::{EScenario, ScenarioId, VScenario};
use evmatch::core::Eid;
use evmatch::datagen::{sample_targets, score_report, DatasetConfig, EvDataset};
use evmatch::disk::{DiskBackend, DiskStore};
use evmatch::matching::matcher::ExecutionMode;
use evmatch::matching::practical::{split_practical, PracticalSplitOutput};
use evmatch::matching::setsplit::SetSplitConfig;
use evmatch::matching::vfilter::{filter_vids_cached, GalleryCache, VFilterConfig};
use evmatch::matching::{EvMatcher, MatchReport, MatcherConfig, ScenarioList};
use evmatch::serve::{LiveCorpus, ServeConfig};
use evmatch::store::{EScenarioStore, StoreBackend, VideoStore};
use evmatch::telemetry::{Telemetry, TelemetryLevel};
use evmatch::vision::cost::CostModel;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub type Dataset = EvDataset;
pub type Backend = DiskBackend;
pub type Live = LiveCorpus<'static>;
pub type Report = MatchReport;
pub type Targets = BTreeSet<Eid>;
pub type Lists = BTreeMap<Eid, ScenarioList>;
pub type Res<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

// ---- ev-datagen ----------------------------------------------------------

/// `universal-paper` / `universal-threads`: the paper's population and
/// 10×10 grid. 300 ticks, not `DatasetConfig::paper()`'s 600: at 600
/// whether the vague cover fully splits before the scenario pool runs
/// dry is a coin flip per seed (match 0.13–0.23 s or 0.45 s), so no
/// timing read on one seed holds on the next; at 300 every seed scans
/// the pool.
pub fn paper_config(seed: u64, quick: bool) -> DatasetConfig {
    let base = DatasetConfig::paper();
    DatasetConfig {
        population: if quick { 150 } else { base.population },
        duration: if quick { 200 } else { 300 },
        seed,
        ..base
    }
}

/// `dense-query`: 4×4 cells (≈ 62 people per cell) and wide features.
pub fn dense_config(seed: u64, quick: bool) -> DatasetConfig {
    let base = DatasetConfig::with_grid_side(4);
    DatasetConfig {
        population: if quick { 200 } else { base.population },
        duration: if quick { 750 } else { base.duration },
        feature_dim: if quick { 32 } else { 128 },
        seed,
        ..base
    }
}

/// `serve-mixed`: many short windows over a mid-sized population.
pub fn serve_config(seed: u64, quick: bool) -> DatasetConfig {
    DatasetConfig {
        population: if quick { 80 } else { 600 },
        duration: if quick { 300 } else { 1500 },
        seed,
        ..DatasetConfig::default()
    }
}

pub fn generate(config: &DatasetConfig) -> Res<Dataset> {
    EvDataset::generate(config).map_err(err)
}

pub fn sample(data: &Dataset, count: usize, seed: u64) -> Targets {
    sample_targets(data, count, seed)
}

/// Share of the report's EIDs whose VID equals ground truth.
pub fn accuracy(data: &Dataset, report: &Report) -> f64 {
    score_report(data, report).accuracy
}

/// The events of `data` grouped by aggregation window, in time order.
pub fn windows(data: &Dataset) -> Vec<(Vec<EScenario>, Vec<VScenario>)> {
    let width = data.config.window;
    let count = data.config.duration.div_ceil(width) as usize;
    let mut out = vec![(Vec::new(), Vec::new()); count];
    for s in data.estore.iter() {
        out[(s.time().tick() / width) as usize].0.push(s.clone());
    }
    for s in data.video.scenarios() {
        out[(s.time().tick() / width) as usize].1.push(s.clone());
    }
    out
}

// ---- ev-disk -------------------------------------------------------------

pub struct Persisted {
    pub append_s: f64,
    pub records: u64,
    pub bytes: u64,
    pub segments: usize,
}

/// Persists `data` at `dir` in three time-ordered `DiskStore::append`
/// batches, the on-disk shape of an incremental deployment.
pub fn persist(dir: &Path, data: &Dataset) -> Res<Persisted> {
    let windows = windows(data);
    let third = windows.len().div_ceil(3).max(1);
    let batches: Vec<(Vec<EScenario>, Vec<VScenario>)> = windows
        .chunks(third)
        .map(|chunk| {
            let e = chunk.iter().flat_map(|w| w.0.iter().cloned()).collect();
            let v = chunk.iter().flat_map(|w| w.1.iter().cloned()).collect();
            (e, v)
        })
        .collect();
    let start = Instant::now();
    let mut store = DiskStore::create(dir).map_err(err)?;
    for (e, v) in &batches {
        store.append(e, v).map_err(err)?;
    }
    let append_s = start.elapsed().as_secs_f64();
    Ok(Persisted {
        append_s,
        records: store.segments().iter().map(|s| s.records).sum(),
        bytes: store.segments().iter().map(|s| s.file_len).sum(),
        segments: store.segments().len(),
    })
}

pub fn open(dir: &Path, cost: CostModel) -> Res<Backend> {
    DiskBackend::open(dir, cost).map_err(err)
}

pub fn open_store(dir: &Path) -> Res<DiskStore> {
    DiskStore::open(dir).map_err(err)
}

pub fn load_estore(store: &DiskStore) -> Res<EScenarioStore> {
    store.load_estore().map_err(err)
}

pub fn load_video(store: &DiskStore, cost: CostModel) -> Res<VideoStore> {
    store.load_video(cost).map_err(err)
}

// ---- ev-store ------------------------------------------------------------

pub fn estore(backend: &Backend) -> &EScenarioStore {
    backend.estore()
}

pub fn video(backend: &Backend) -> &VideoStore {
    backend.video()
}

/// Forces the lazily built inverted index.
pub fn build_index(estore: &EScenarioStore) -> usize {
    estore.index().eid_count()
}

/// The in-memory build of the same stores: the floor under `open`.
pub fn memory_build(
    e: Vec<EScenario>,
    v: Vec<VScenario>,
    cost: CostModel,
) -> (EScenarioStore, VideoStore) {
    (EScenarioStore::from_scenarios(e), VideoStore::new(v, cost))
}

pub fn scenarios(estore: &EScenarioStore, video: &VideoStore) -> (Vec<EScenario>, Vec<VScenario>) {
    (
        estore.iter().cloned().collect(),
        video.scenarios().cloned().collect(),
    )
}

/// Every EID present in the E-data: what `match_universal` labels.
pub fn universe(estore: &EScenarioStore) -> Targets {
    estore.iter().flat_map(EScenario::eids).collect()
}

/// `[postings_probed, membership_queries, scans_avoided]` so far.
pub fn index_counts(estore: &EScenarioStore) -> [u64; 3] {
    let s = estore.index().stats();
    [s.postings_probed, s.membership_queries, s.scans_avoided]
}

/// `[extracted_scenarios, extracted_detections, cache_hits]` since the
/// last `reset_usage`.
pub fn video_counts(video: &VideoStore) -> [u64; 3] {
    let s = video.stats();
    [
        s.extracted_scenarios as u64,
        s.extracted_detections,
        s.cache_hits,
    ]
}

pub fn reset_usage(video: &VideoStore) {
    video.reset_usage();
}

/// Extracts every scenario of `ids` that has footage.
pub fn extract_all(video: &VideoStore, ids: &BTreeSet<ScenarioId>) -> Vec<Arc<VScenario>> {
    ids.iter().filter_map(|&id| video.extract(id)).collect()
}

// ---- ev-matching ---------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exec {
    Sequential,
    Dag(usize),
}

/// One complete match: `match_universal` when `targets` is `None`,
/// `match_many` otherwise, under the default matcher configuration.
pub fn run_match(
    estore: &EScenarioStore,
    video: &VideoStore,
    targets: Option<&Targets>,
    exec: Exec,
    telemetry: &Telemetry,
) -> Res<Report> {
    let config = MatcherConfig {
        execution: match exec {
            Exec::Sequential => ExecutionMode::Sequential,
            Exec::Dag(threads) => ExecutionMode::Dag(threads),
        },
        ..MatcherConfig::default()
    };
    let matcher = EvMatcher::new(estore, video, config).with_telemetry(telemetry);
    match targets {
        None => matcher.match_universal(),
        Some(targets) => matcher.match_many(targets),
    }
    .map_err(err)
}

pub fn telemetry_off() -> &'static Telemetry {
    Telemetry::disabled()
}

pub fn telemetry_full() -> Telemetry {
    Telemetry::new(TelemetryLevel::Full)
}

/// A digest of everything a report asserts — outcomes, lists, selected
/// scenarios — and nothing that varies between runs (timings). FNV-1a
/// over the `Debug` rendering, which prints floats exactly.
pub fn digest(report: &Report) -> u64 {
    let text = format!(
        "{:?}{:?}{:?}",
        report.outcomes, report.lists, report.selected_scenarios
    );
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

pub fn split(estore: &EScenarioStore, targets: &Targets) -> PracticalSplitOutput {
    split_practical(estore, targets, &SetSplitConfig::default())
}

pub struct Filtered {
    pub gallery_hits: u64,
    pub gallery_misses: u64,
    pub majority_rate: f64,
}

/// VID filtering over `lists` with a fresh gallery cache.
pub fn filter(lists: &Lists, video: &VideoStore) -> Filtered {
    let mut cache = GalleryCache::new();
    let outcomes = filter_vids_cached(lists, video, &VFilterConfig::default(), &mut cache);
    let majority = outcomes.iter().filter(|o| o.is_majority()).count();
    Filtered {
        gallery_hits: cache.hits(),
        gallery_misses: cache.misses(),
        majority_rate: majority as f64 / outcomes.len().max(1) as f64,
    }
}

// ---- ev-core::kernel -----------------------------------------------------

pub fn build_blocks(galleries: &[Arc<VScenario>]) -> Res<Vec<FeatureBlock>> {
    galleries
        .iter()
        .map(|g| {
            FeatureBlock::build("bench", g.detections().iter().map(|d| &d.feature)).map_err(err)
        })
        .collect()
}

/// Scores every detection of each gallery against that gallery's
/// block; returns the rows scored and the sum of the maxima.
pub fn score_blocks(galleries: &[Arc<VScenario>], blocks: &[FeatureBlock]) -> Res<(u64, f64)> {
    let Some(dim) = blocks.iter().map(FeatureBlock::dim).find(|&d| d > 0) else {
        return Ok((0, 0.0));
    };
    let kernel = Kernel::prepare(VFilterConfig::default().metric, dim).map_err(err)?;
    let (mut rows, mut sum) = (0u64, 0.0);
    for (gallery, block) in galleries.iter().zip(blocks) {
        for d in gallery.detections() {
            sum += kernel.score_max(&d.feature, block).map_err(err)?;
            rows += block.len() as u64;
        }
    }
    Ok((rows, sum))
}

// ---- evmatch::serve ------------------------------------------------------

pub fn open_live(dir: &Path, cost: CostModel, watch: &Targets) -> Res<Live> {
    let config = ServeConfig {
        cost,
        watch: watch.clone(),
        ..ServeConfig::default()
    };
    LiveCorpus::open(dir, config, Telemetry::disabled()).map_err(err)
}

/// Returns the events accepted.
pub fn ingest(live: &mut Live, e: Vec<EScenario>, v: Vec<VScenario>) -> Res<u64> {
    live.ingest(e, v).map(|r| r.accepted).map_err(err)
}

pub fn apply(live: &mut Live) -> Res<()> {
    live.apply().map_err(err)
}

pub struct Answer {
    pub report: Report,
    pub staleness_events: u64,
}

pub fn query(live: &Live, targets: &Targets) -> Res<Answer> {
    let answer = live.query(targets).map_err(err)?;
    Ok(Answer {
        report: answer.report,
        staleness_events: answer.staleness_events,
    })
}

pub fn live_stores(live: &Live) -> (&EScenarioStore, &VideoStore) {
    (live.estore(), live.video())
}

pub fn epoch(live: &Live) -> u64 {
    live.epoch()
}

pub fn finish(live: Live) -> Res<()> {
    live.finish().map(drop).map_err(err)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_stable_and_ignores_timings() {
        let data = generate(&paper_config(5, true)).unwrap();
        let targets = sample(&data, 30, 5);
        let run = || {
            reset_usage(&data.video);
            run_match(
                &data.estore,
                &data.video,
                Some(&targets),
                Exec::Sequential,
                telemetry_off(),
            )
            .unwrap()
        };
        let (a, mut b) = (run(), run());
        assert_eq!(digest(&a), digest(&b));
        b.timings.e_stage += std::time::Duration::from_secs(1);
        assert_eq!(digest(&a), digest(&b), "timings are not part of the digest");
        b.outcomes[0].vote_share += 1e-9;
        assert_ne!(digest(&a), digest(&b), "any asserted value is");
    }

    #[test]
    fn windows_partition_every_event_in_time_order() {
        let data = generate(&serve_config(3, true)).unwrap();
        let windows = windows(&data);
        assert_eq!(windows.len(), 30);
        let e: usize = windows.iter().map(|w| w.0.len()).sum();
        let v: usize = windows.iter().map(|w| w.1.len()).sum();
        assert_eq!((e, v), (data.estore.len(), data.video.len()));
        for (i, (es, _)) in windows.iter().enumerate() {
            assert!(es.iter().all(|s| s.time().tick() / 10 == i as u64));
        }
    }
}
