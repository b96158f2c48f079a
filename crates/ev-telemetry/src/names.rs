//! Canonical metric names (`evm_` prefix). Every crate on the hot path
//! registers through these constants so exported profiles from
//! different runs and runners are directly comparable.
//!
//! A name is here because something reads it. Each constant's doc gives
//! the unit, one definition that holds on the sequential pipeline, the
//! stage DAG and under `evmatch serve` alike, and ends in the `Reader:`
//! that looks at it; a name without one goes, with its emission site. A
//! *run* below is one call of `EvMatcher::match_one`, `match_many`
//! (either execution mode) or `match_universal` on the handle.

// The set-splitting family means the same thing in both split modes and
// under every selection strategy.

/// E-Scenarios examined by set splitting, effective or not, summed over
/// the refinement rounds of every run on the handle (count). Reader:
/// `evmatch check-metrics --in` requires `examined >= recorded_total`.
pub const SETSPLIT_SCENARIOS_EXAMINED: &str = "evm_setsplit_scenarios_examined";
/// Effective E-Scenarios recorded by set splitting, summed like the
/// examined count (count). Reader: `evmatch check-metrics --in` requires
/// it to cover `evm_recorded_scenarios`, the first round's share.
pub const SETSPLIT_RECORDED: &str = "evm_setsplit_recorded_total";
/// Cached split gains the `GreedyBalanced` heap marked stale because a
/// split touched a block they share an EID with (count). Stays 0 under
/// the other strategies and in practical mode, where greedy falls back
/// to chronological. Reader: README, "Profiling a run".
pub const SETSPLIT_GAIN_CACHE_INVALIDATIONS: &str = "evm_setsplit_gain_cache_invalidations";
/// Blocks of the EID cover after the latest split round (count; at
/// least the round's EID count once it fully split). Reader: README,
/// "Profiling a run".
pub const SETSPLIT_BLOCKS: &str = "evm_setsplit_blocks";
/// Histogram of the split gain (EIDs, `Σ min(|A∩C|, |A\C|)` over
/// blocks) of each scenario `GreedyBalanced` selected. Empty under the
/// other strategies and in practical mode. Reader: README, "Profiling a
/// run".
pub const SETSPLIT_SPLITTER_GAIN: &str = "evm_setsplit_splitter_gain";

// The V-stage family. The two gallery counters are written by the one
// run epilogue (`ev_matching`'s `record_run`) from the scenario lists
// the run's `VStage::filter_one` calls were handed, so they do not
// depend on how many `GalleryCache`s served those calls.

/// Scenario-list entries the V stage served from a gallery the run had
/// already fetched (count): over a run's `filter_one` calls,
/// `hits + misses = Σ |list|`. Readers: `sync_derived_metrics` (the hit
/// ratio); `tests/parallel_consistency.rs` holds the sum to the report's
/// lists on both execution modes.
pub const VFILTER_GALLERY_HITS: &str = "evm_vfilter_gallery_hits";
/// Distinct V-Scenarios a run's V stage asked the `VideoStore` for —
/// each is fetched once per run, so on a fresh store with footage behind
/// every selected scenario this is the galleries the run extracted,
/// `VideoStore::stats().extracted_scenarios` (count). Readers:
/// `sync_derived_metrics`; `evmatch check-metrics --in` takes a non-zero
/// value to mean a V stage ran; `tests/parallel_consistency.rs` holds it
/// to the store's count on both execution modes.
pub const VFILTER_GALLERY_MISSES: &str = "evm_vfilter_gallery_misses";
/// `hits / (hits + misses)` over the two counters above (ratio in
/// `[0, 1]`), so it accumulates with them across the runs of one
/// handle; derived by `sync_derived_metrics` before every scrape and
/// export, never set by a pipeline. Reader: `evmatch check-metrics --in`
/// (required metric).
pub const VFILTER_GALLERY_HIT_RATIO: &str = "evm_vfilter_gallery_hit_ratio";
/// Candidate VIDs admitted to scoring — quorum survivors after
/// exclusion — summed over every `VStage::filter_one` call, refiltering
/// included (count). Reader: `evmatch check-metrics --in` fails a
/// profile whose V stage extracted galleries and scored nobody — a
/// path that dropped the run's telemetry handle.
pub const VFILTER_CANDIDATES_SCORED: &str = "evm_vfilter_candidates_scored";

/// SoA feature blocks packed for gallery-cache entries (count; one per
/// `GalleryCache` entry that is scored, memoized like the gallery; the
/// anytime scorer packs only the galleries it scores exactly). Reader:
/// README, "Profiling a run".
pub const KERNEL_BLOCKS_BUILT: &str = "evm_kernel_blocks_built";
/// Galleries the block builder rejected because their rows disagreed on
/// dimensionality (count; the whole gallery scores membership 0,
/// exactly like the scalar reference's per-pair error). Reader:
/// `evmatch check-metrics --smoke` fails if its mixed gallery is not
/// rejected.
pub const KERNEL_GALLERIES_REJECTED: &str = "evm_kernel_galleries_rejected";

// The executor family describes the one `ev-dag` pool session behind a
// stage-DAG submission (every worker pops one shared FIFO).

/// Worker threads of the most recent pool session (count; `N` capped
/// at the number of tasks in the run's graph). Reader: README, "Running
/// on real threads".
pub const EXEC_WORKERS: &str = "evm_exec_workers";
/// Histogram of per-worker executed task attempts (count; one
/// observation per worker per session) — its spread shows how evenly
/// the shared queue fed the workers. Reader: README, "Running on real
/// threads".
pub const EXEC_WORKER_TASKS: &str = "evm_exec_worker_tasks";
/// Exact median wall time of a DAG task attempt (nanoseconds; panicked
/// attempts included), from the bounded reservoir the scheduler's work
/// closure feeds; published by `sync_derived_metrics`. Reader: `evmatch
/// check-metrics --in` fails a profile that ran DAG tasks and exports 0.
pub const EXEC_TASK_LATENCY_P50_NS: &str = "evm_exec_task_latency_p50_ns";
/// Exact p90 of the same reservoir (nanoseconds). Reader: README,
/// "Watching a live run".
pub const EXEC_TASK_LATENCY_P90_NS: &str = "evm_exec_task_latency_p90_ns";
/// Exact p99 of the same reservoir (nanoseconds). Reader: README,
/// "Watching a live run".
pub const EXEC_TASK_LATENCY_P99_NS: &str = "evm_exec_task_latency_p99_ns";

// The run gauges: set together, once, by the run epilogue, so each
// describes the handle's most recent run.

/// E-stage wall time of the most recent run (seconds): scenario
/// selection, summed over its refinement rounds; under the stage DAG,
/// submission to the completion of `assemble`. Reader: `evmatch
/// check-metrics --in` fails a profile that examined scenarios and
/// reports 0 — a run that skipped the epilogue.
pub const STAGE_E_SECONDS: &str = "evm_stage_e_seconds";
/// V-stage wall time of the most recent run (seconds): gallery
/// extraction and scoring; under the stage DAG, the rest of the
/// submission's wall. Reader: `evmatch check-metrics --in` fails a
/// profile that scored candidates and reports 0.
pub const STAGE_V_SECONDS: &str = "evm_stage_v_seconds";
/// E-Scenarios the most recent run's first split round — the one over
/// the whole target set — recorded (count; paper Figs. 5–6; 0 for a
/// single-EID query, which does not split). Reader: `evmatch
/// check-metrics --in` holds it between the two theorem bounds when
/// `evm_fully_split` is 1.
pub const RECORDED_SCENARIOS: &str = "evm_recorded_scenarios";
/// Theorem 4.2 lower bound `ceil(log2 n)` for the most recent run's `n`
/// targets (count). Reader: `evmatch check-metrics --in`.
pub const THEOREM_LOWER_BOUND: &str = "evm_theorem_lower_bound";
/// Theorem 4.4 upper bound `n − 1` for the same `n` (count). Reader:
/// `evmatch check-metrics --in`.
pub const THEOREM_UPPER_BOUND: &str = "evm_theorem_upper_bound";
/// 1 when the most recent run's first split round fully split the
/// targets *with Algorithm 1 (sequential) recording semantics*, else 0
/// (flag) — the precondition under which the theorem bounds apply.
/// Stage-DAG (Algorithm 3) runs report 0: recording whole timestamp
/// snapshots can legitimately exceed the `n − 1` bound. Reader:
/// `evmatch check-metrics --in` (arms the bound check).
pub const FULLY_SPLIT: &str = "evm_fully_split";

/// Trace events evicted because the tracer ring was full (count).
/// Readers: `evmatch check-metrics --smoke` overflows a small ring and
/// requires it; README, "Watching a live run".
pub const TRACE_DROPPED: &str = "evm_trace_dropped_total";
/// Flight-recorder dumps written — worker panic, job-error exhaustion
/// or disk corruption (count). Reader: `evmatch check-metrics --smoke`
/// fails if an exhausted retry budget leaves it unchanged.
pub const FLIGHT_DUMPS: &str = "evm_flight_dumps_total";

// The disk family describes a process's traffic against one `ev-disk`
// corpus directory. Segments are read two ways — a *load walk* verifies
// a committed segment end to end when a store is loaded (E records are
// decoded as it passes, V frames only located), and a *frame read*
// fetches one located V-Scenario when a match first extracts it — and
// the three read counters are defined over both.

/// Segment files committed to the manifest by appends and ingest
/// checkpoints (count). Reader: README, "Persisting a corpus".
pub const DISK_SEGMENTS_WRITTEN: &str = "evm_disk_segments_written";
/// Committed segment files a load walk read and verified end to end
/// (count; frame reads are not counted). Reader: `evmatch check-metrics
/// --in` takes a non-zero value to mean the profile ran from disk and
/// applies its disk accounting check.
pub const DISK_SEGMENTS_OPENED: &str = "evm_disk_segments_opened";
/// Scenario records *decoded* from segment files (count): every E
/// record at load, a V record only when a match first extracts it — so
/// a disk-backed match reports its E records plus the V-Scenarios it
/// extracted, not the size of the corpus. Readers: `evmatch
/// check-metrics` (`--smoke` holds a disk-backed match to exactly that
/// sum; `--in` checks the bytes account for it).
pub const DISK_RECORDS_READ: &str = "evm_disk_records_read";
/// Bytes read from segment files (bytes): each walked file's length,
/// plus payload and CRC of each frame read. Reader: `evmatch
/// check-metrics --in` requires it to cover the walked headers and the
/// decoded records' frames.
pub const DISK_BYTES_READ: &str = "evm_disk_bytes_read";
/// Repairs opens made to the corpus (count): one per torn or damaged
/// manifest tail truncated, per orphan segment removed and per segment
/// salvaged. Reader: README, "Persisting a corpus".
pub const DISK_RECOVERY_TRUNCATIONS: &str = "evm_disk_recovery_truncations";
/// Wall time of the last `DiskStore` open — manifest replay and
/// recovery, before any load walk (seconds). Reader: README,
/// "Persisting a corpus".
pub const DISK_OPEN_SECONDS: &str = "evm_disk_open_seconds";
/// Live manifest entries after the last open or commit (count). Reader:
/// README, "Persisting a corpus".
pub const DISK_MANIFEST_ENTRIES: &str = "evm_disk_manifest_entries";

// The serve family describes one `LiveCorpus` since it was opened.

/// E/V events (scenario records) the serve loop accepted (count).
/// Reader: README, "Running a live service".
pub const SERVE_INGEST_EVENTS: &str = "evm_serve_ingest_events_total";
/// Manifest checkpoints the streaming append path committed, on an
/// apply or on the writer's own record threshold (count). Reader:
/// README, "Running a live service".
pub const SERVE_CHECKPOINTS: &str = "evm_serve_checkpoints_total";
/// Match queries answered against a live-corpus snapshot (count).
/// Reader: CI, "Streaming serve smoke run" (polls for the first query).
pub const SERVE_QUERIES: &str = "evm_serve_queries_total";
/// Events durably staged but not yet visible to queries — the staleness
/// of the snapshot the next query will see (count). Readers: CI,
/// "Streaming serve smoke run"; `tests/serve_snapshot.rs`.
pub const SERVE_STALENESS_EVENTS: &str = "evm_serve_staleness_events";
/// Snapshot epoch queries are answered against (count; 0 at open, one
/// more after every apply round that published something). Reader: CI,
/// "Streaming serve smoke run".
pub const SERVE_EPOCH: &str = "evm_serve_epoch";
/// Histogram of end-to-end serve query latency (nanoseconds). Reader:
/// README, "Running a live service".
pub const SERVE_QUERY_LATENCY_NS: &str = "evm_serve_query_latency_ns";

/// Task attempts the DAG scheduler submitted (count; first runs plus
/// retries, so a clean run reports the spec's partition count). Reader:
/// `evmatch check-metrics --in` (required; gates the latency gauges).
pub const DAG_TASKS_TOTAL: &str = "evm_dag_tasks_total";
/// DAG task attempts that were lost to a panic and retried (count).
/// Reader: `evmatch check-metrics` (`--in` requires it, `--smoke` fails
/// when injected faults leave it at 0).
pub const DAG_TASK_RETRIES: &str = "evm_dag_task_retries_total";
/// Stages in the most recent DAG submission (count). Reader: README,
/// "Running on real threads".
pub const DAG_STAGES: &str = "evm_dag_stages";
/// High-water mark of live cached partitions in the most recent DAG run
/// (count) — against `evm_dag_tasks_total` it shows natural release at
/// work. Reader: README, "Running on real threads".
pub const DAG_CACHE_PEAK_PARTITIONS: &str = "evm_dag_cache_peak_partitions";

// The delta-updater is chronological and ideal-mode by construction
// (`IncrementalSplit`), so these have one definition.

/// E-Scenarios examined by incremental delta-updates since the corpus
/// was opened (count) — each stored scenario at most once, where a
/// re-split per apply would re-examine the whole store. Reader: README,
/// "Running a live service".
pub const INCR_SCENARIOS_ABSORBED: &str = "evm_incr_scenarios_absorbed_total";
/// Effective E-Scenarios recorded by delta-updates (count). Reader:
/// README, "Running a live service".
pub const INCR_SPLITTERS_RECORDED: &str = "evm_incr_splitters_recorded_total";
/// Blocks the watch-set partition gained through delta-updates (count).
/// Reader: README, "Running a live service".
pub const INCR_BLOCKS_SPLIT: &str = "evm_incr_blocks_split_total";
/// Blocks of the watch-set partition after the latest delta-update
/// (count; equals the watch-set size once it is fully split). Reader:
/// README, "Running a live service".
pub const INCR_PARTITION_BLOCKS: &str = "evm_incr_partition_blocks";

/// Every canonical counter name.
pub const ALL_COUNTERS: &[&str] = &[
    SETSPLIT_SCENARIOS_EXAMINED,
    SETSPLIT_RECORDED,
    SETSPLIT_GAIN_CACHE_INVALIDATIONS,
    VFILTER_GALLERY_HITS,
    VFILTER_GALLERY_MISSES,
    VFILTER_CANDIDATES_SCORED,
    KERNEL_BLOCKS_BUILT,
    KERNEL_GALLERIES_REJECTED,
    TRACE_DROPPED,
    FLIGHT_DUMPS,
    DISK_SEGMENTS_WRITTEN,
    DISK_SEGMENTS_OPENED,
    DISK_RECORDS_READ,
    DISK_BYTES_READ,
    DISK_RECOVERY_TRUNCATIONS,
    SERVE_INGEST_EVENTS,
    SERVE_CHECKPOINTS,
    SERVE_QUERIES,
    DAG_TASKS_TOTAL,
    DAG_TASK_RETRIES,
    INCR_SCENARIOS_ABSORBED,
    INCR_SPLITTERS_RECORDED,
    INCR_BLOCKS_SPLIT,
];

/// Every canonical gauge name.
pub const ALL_GAUGES: &[&str] = &[
    SETSPLIT_BLOCKS,
    VFILTER_GALLERY_HIT_RATIO,
    EXEC_WORKERS,
    EXEC_TASK_LATENCY_P50_NS,
    EXEC_TASK_LATENCY_P90_NS,
    EXEC_TASK_LATENCY_P99_NS,
    STAGE_E_SECONDS,
    STAGE_V_SECONDS,
    RECORDED_SCENARIOS,
    THEOREM_LOWER_BOUND,
    THEOREM_UPPER_BOUND,
    FULLY_SPLIT,
    DISK_OPEN_SECONDS,
    DISK_MANIFEST_ENTRIES,
    SERVE_STALENESS_EVENTS,
    SERVE_EPOCH,
    DAG_STAGES,
    DAG_CACHE_PEAK_PARTITIONS,
    INCR_PARTITION_BLOCKS,
];

/// Every canonical histogram name.
pub const ALL_HISTOGRAMS: &[&str] = &[
    SETSPLIT_SPLITTER_GAIN,
    EXEC_WORKER_TASKS,
    SERVE_QUERY_LATENCY_NS,
];

/// The whole catalogue: counters, then gauges, then histograms.
pub fn all() -> impl Iterator<Item = &'static str> {
    (ALL_COUNTERS.iter())
        .chain(ALL_GAUGES)
        .chain(ALL_HISTOGRAMS)
        .copied()
}

/// Registers every canonical metric at its zero value, so an exported
/// profile always contains the full schema even when a run never touched
/// some subsystem (e.g. a sequential run records no DAG task retries).
pub fn preregister(registry: &crate::MetricsRegistry) {
    for &name in ALL_COUNTERS {
        let _ = registry.counter(name);
    }
    for &name in ALL_GAUGES {
        let _ = registry.gauge(name);
    }
    for &name in ALL_HISTOGRAMS {
        let _ = registry.histogram(name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One name, one kind, one entry — and the total `evmatch
    /// check-metrics --smoke` prints (`all().count()`) is pinned, so the
    /// catalogue only grows or shrinks on purpose.
    #[test]
    fn the_catalogue_is_duplicate_free_and_its_size_is_pinned() {
        let distinct: std::collections::BTreeSet<&str> = all().collect();
        assert_eq!(distinct.len(), all().count(), "a name is listed twice");
        assert_eq!(all().count(), 45);
        assert!(all().all(|name| name.starts_with("evm_")));
    }
}
