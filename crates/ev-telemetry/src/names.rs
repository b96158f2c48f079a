//! Canonical metric names (`evm_` prefix). Every crate on the hot path
//! registers through these constants so exported profiles from
//! different runs and runners are directly comparable.

// The five set-splitting names mean the same thing in both split modes
// and under every selection strategy; each names who reads it.

/// E-Scenarios examined by set splitting, effective or not, summed over
/// the run's refinement rounds (count). Written by the sequential
/// splitting loop and by the stage DAG alike. Reader: `evmatch
/// check-metrics --in` requires `examined >= recorded_total`.
pub const SETSPLIT_SCENARIOS_EXAMINED: &str = "evm_setsplit_scenarios_examined";
/// Effective E-Scenarios recorded by set splitting, summed over the
/// run's refinement rounds (count). Reader: `evmatch check-metrics --in`
/// requires it to cover `evm_recorded_scenarios`, the first round's
/// share.
pub const SETSPLIT_RECORDED: &str = "evm_setsplit_recorded_total";
/// Cached split gains the `GreedyBalanced` heap marked stale because a
/// split touched a block they share an EID with (count). Stays 0 under
/// the other strategies and in practical mode, where greedy falls back
/// to chronological. Reader: README, "Profiling a run".
pub const SETSPLIT_GAIN_CACHE_INVALIDATIONS: &str = "evm_setsplit_gain_cache_invalidations";
/// Blocks of the EID cover after the latest split round — sequential,
/// or the stage DAG's one round (count; at least the round's EID count
/// once it fully split). Reader: README, "Profiling a run".
pub const SETSPLIT_BLOCKS: &str = "evm_setsplit_blocks";
/// Histogram of the split gain (EIDs, `Σ min(|A∩C|, |A\C|)` over
/// blocks) of each scenario `GreedyBalanced` selected. Empty under the
/// other strategies and in practical mode. Reader: README, "Profiling a
/// run".
pub const SETSPLIT_SPLITTER_GAIN: &str = "evm_setsplit_splitter_gain";

// The V-stage family. Sequential runs count against the run's
// `GalleryCache`; the stage DAG scores each EID against a call-local
// cache behind a warm-up stage that extracts every selected gallery
// once, so there the `VideoStore` is the shared cache and its
// extraction stats are what the two gallery counters add.

/// Gallery requests the V stage served without extracting footage
/// (count): `GalleryCache` hits on the sequential path, `VideoStore`
/// extraction-cache hits under the stage DAG. Readers:
/// `sync_derived_metrics` (the hit ratio); README, "Profiling a run".
pub const VFILTER_GALLERY_HITS: &str = "evm_vfilter_gallery_hits";
/// Galleries extracted from footage because no cache held them (count;
/// under the stage DAG, the distinct scenarios the warm-up extracted).
/// Readers: `sync_derived_metrics`; `evmatch check-metrics --in` takes
/// a non-zero value to mean a V stage ran.
pub const VFILTER_GALLERY_MISSES: &str = "evm_vfilter_gallery_misses";
/// `hits / (hits + misses)` over the two counters above (ratio in
/// `[0, 1]`), so it accumulates with them across the queries of one
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
/// cache entry that is scored, memoized like the gallery — so a
/// sequential run packs each scenario once and the stage DAG once per
/// EID that scores it; the anytime scorer packs only the galleries it
/// scores exactly). Reader: README, "Profiling a run".
pub const KERNEL_BLOCKS_BUILT: &str = "evm_kernel_blocks_built";
/// Galleries the block builder rejected because their rows disagreed on
/// dimensionality (count; the whole gallery scores membership 0,
/// exactly like the scalar reference's per-pair error). Reader:
/// `evmatch check-metrics --smoke` fails if its mixed gallery is not
/// rejected.
pub const KERNEL_GALLERIES_REJECTED: &str = "evm_kernel_galleries_rejected";

/// V-Scenarios whose exact scoring the anytime matcher skipped entirely
/// (their votes settled, or became irrelevant, on cheap bounds alone).
pub const ANYTIME_SCENARIOS_SKIPPED: &str = "evm_anytime_scenarios_skipped";
/// Candidate VIDs the anytime matcher never scored exactly (similarity
/// bounds proved they could not win any per-scenario argmax).
pub const ANYTIME_CANDIDATES_PRUNED: &str = "evm_anytime_candidates_pruned";
/// Histogram of refinement rounds the anytime matcher ran per EID
/// before its stop rule fired (0 = settled on cheap bounds alone).
pub const ANYTIME_CONVERGENCE_ROUNDS: &str = "evm_anytime_convergence_rounds";

// The executor family describes the one `ev-dag` pool session behind a
// `--threads N` run (every worker pops one shared FIFO). Reader of
// both: README, "Running on real threads".

/// Worker threads of the most recent pool session (count; `N` capped
/// at the number of tasks in the run's graph).
pub const EXEC_WORKERS: &str = "evm_exec_workers";
/// Histogram of per-worker executed task attempts (count; one
/// observation per worker per session) — its spread shows how evenly
/// the shared queue fed the workers.
pub const EXEC_WORKER_TASKS: &str = "evm_exec_worker_tasks";

/// Posting lists fetched from the inverted scenario index.
pub const INDEX_POSTINGS_PROBED: &str = "evm_index_postings_probed";
/// V-Scenario galleries served from cache without re-extraction.
pub const INDEX_CACHE_HITS: &str = "evm_index_cache_hits";
/// Full-store scans avoided by index-backed lookups.
pub const INDEX_SCANS_AVOIDED: &str = "evm_index_scans_avoided";
/// Inverted scenario index build time, nanoseconds.
pub const INDEX_BUILD_NS: &str = "evm_index_build_ns";

/// Refinement rounds executed for the run.
pub const REFINE_ROUNDS: &str = "evm_refine_rounds";
/// E-stage wall time, seconds.
pub const STAGE_E_SECONDS: &str = "evm_stage_e_seconds";
/// V-stage wall time, seconds.
pub const STAGE_V_SECONDS: &str = "evm_stage_v_seconds";

/// Distinct scenarios recorded for the run (paper Figs. 5–6 y-axis).
pub const RECORDED_SCENARIOS: &str = "evm_recorded_scenarios";
/// Theorem 4.2 lower bound `ceil(log2 n)` for the run's `n` targets.
pub const THEOREM_LOWER_BOUND: &str = "evm_theorem_lower_bound";
/// Theorem 4.4 upper bound `n − 1`.
pub const THEOREM_UPPER_BOUND: &str = "evm_theorem_upper_bound";
/// 1 when the first split round fully split the targets *with
/// Algorithm 1 (sequential) recording semantics*, else 0 — the
/// precondition under which the theorem bounds apply. Parallel
/// (Algorithm 3) runs report 0: recording whole timestamp snapshots can
/// legitimately exceed the `n - 1` bound.
pub const FULLY_SPLIT: &str = "evm_fully_split";
/// Distinct V-frames (V-Scenario galleries) extracted from footage.
pub const DISTINCT_V_FRAMES: &str = "evm_distinct_v_frames";
/// Fraction of targets matched with a strict vote majority.
pub const MAJORITY_VOTE_ACCURACY: &str = "evm_majority_vote_accuracy";
/// Distinct scenarios selected across all target lists.
pub const SELECTED_SCENARIOS: &str = "evm_selected_scenarios";

/// Trace events evicted because the tracer ring was full.
pub const TRACE_DROPPED: &str = "evm_trace_dropped_total";
/// Flight-recorder dumps written (worker panic, job-error exhaustion,
/// or disk-corruption triggers).
pub const FLIGHT_DUMPS: &str = "evm_flight_dumps_total";
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
/// "Persistence".
pub const DISK_OPEN_SECONDS: &str = "evm_disk_open_seconds";
/// Live manifest entries after the last open or commit (count). Reader:
/// README, "Persisting a corpus".
pub const DISK_MANIFEST_ENTRIES: &str = "evm_disk_manifest_entries";

/// Ingest batches accepted by the streaming serve loop.
pub const SERVE_INGEST_BATCHES: &str = "evm_serve_ingest_batches_total";
/// E/V events (scenario records) accepted by the streaming serve loop.
pub const SERVE_INGEST_EVENTS: &str = "evm_serve_ingest_events_total";
/// Apply rounds: staged events spliced into the queryable snapshot.
pub const SERVE_APPLIES: &str = "evm_serve_applies_total";
/// Manifest checkpoints committed by the streaming append path.
pub const SERVE_CHECKPOINTS: &str = "evm_serve_checkpoints_total";
/// Match queries answered against a live-corpus snapshot.
pub const SERVE_QUERIES: &str = "evm_serve_queries_total";
/// Events durably staged but not yet visible to queries — the staleness
/// of the snapshot the next query will see.
pub const SERVE_STALENESS_EVENTS: &str = "evm_serve_staleness_events";
/// Snapshot epoch (generation counter) queries are answered against;
/// bumped by every apply round.
pub const SERVE_EPOCH: &str = "evm_serve_epoch";
/// Histogram of end-to-end serve query latency, nanoseconds.
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
// (`IncrementalSplit`), so these have one definition. Reader of all
// four: README, "Running a live service".

/// E-Scenarios examined by incremental delta-updates since the corpus
/// was opened (count) — each stored scenario at most once, where a
/// re-split per apply would re-examine the whole store.
pub const INCR_SCENARIOS_ABSORBED: &str = "evm_incr_scenarios_absorbed_total";
/// Effective E-Scenarios recorded by delta-updates (count).
pub const INCR_SPLITTERS_RECORDED: &str = "evm_incr_splitters_recorded_total";
/// Blocks the watch-set partition gained through delta-updates (count).
pub const INCR_BLOCKS_SPLIT: &str = "evm_incr_blocks_split_total";
/// Blocks of the watch-set partition after the latest delta-update
/// (count; equals the watch-set size once it is fully split).
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
    ANYTIME_SCENARIOS_SKIPPED,
    ANYTIME_CANDIDATES_PRUNED,
    INDEX_POSTINGS_PROBED,
    INDEX_CACHE_HITS,
    INDEX_SCANS_AVOIDED,
    REFINE_ROUNDS,
    TRACE_DROPPED,
    FLIGHT_DUMPS,
    DISK_SEGMENTS_WRITTEN,
    DISK_SEGMENTS_OPENED,
    DISK_RECORDS_READ,
    DISK_BYTES_READ,
    DISK_RECOVERY_TRUNCATIONS,
    SERVE_INGEST_BATCHES,
    SERVE_INGEST_EVENTS,
    SERVE_APPLIES,
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
    INDEX_BUILD_NS,
    STAGE_E_SECONDS,
    STAGE_V_SECONDS,
    RECORDED_SCENARIOS,
    THEOREM_LOWER_BOUND,
    THEOREM_UPPER_BOUND,
    FULLY_SPLIT,
    DISTINCT_V_FRAMES,
    MAJORITY_VOTE_ACCURACY,
    SELECTED_SCENARIOS,
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
    ANYTIME_CONVERGENCE_ROUNDS,
    EXEC_WORKER_TASKS,
    SERVE_QUERY_LATENCY_NS,
];

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
