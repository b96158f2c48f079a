//! The metric catalogue: every name the benchmark reports, with its
//! unit, direction and — for end-to-end metrics — regression bound.
//! `BENCHMARK.json` at the repo root mirrors it (a self-test compares
//! the two).

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when higher is better.
    pub higher: bool,
    /// Share of the parent's median by which an end-to-end metric may
    /// get worse; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Def {
    Def {
        name,
        unit,
        higher,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        higher: false,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        higher: true,
        bound: None,
    }
}

pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "universal-paper",
        "label all 1000 EIDs from a persisted corpus: set splitting and disk open dominate (E stage)",
    ),
    (
        "dense-query",
        "150 EIDs over 62-people cells and 128-dim features: VID filtering and the kernel dominate (V stage)",
    ),
    (
        "universal-threads",
        "the universal-paper op through the stage DAG on clamp(nproc,1,4) threads: scheduling cost shows here",
    ),
    (
        "serve-mixed",
        "LiveCorpus ingest, incremental apply and small queries interleaved on a growing snapshot: writes beside reads",
    ),
];

/// What a user of the system sees. Every workload reports every one.
pub const END_TO_END: [Def; 4] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("accuracy", "ratio", true, 0.03),
    e2e("v_scenarios_per_eid", "count", false, 0.09),
    e2e("peak_rss_mib", "MiB", false, 0.10),
];

/// Single layers, from the traced pass. A workload reports `0` for a
/// layer it does not drive.
pub const PER_LAYER: [Def; 58] = [
    lower("datagen.generate_s", "s"),
    lower("disk.append_s", "s"),
    lower("disk.corpus_bytes", "bytes"),
    lower("disk.bytes_per_record", "bytes"),
    lower("disk.segments", "count"),
    lower("disk.open_s.p50", "s"),
    lower("disk.load_estore_s.p50", "s"),
    lower("disk.load_video_s.p50", "s"),
    lower("store.memory_build_s.p50", "s"),
    lower("store.index_build_s.p50", "s"),
    lower("store.index_postings_probed", "count"),
    lower("store.index_membership_queries", "count"),
    higher("store.index_scans_avoided", "count"),
    lower("store.video_extract_s.p50", "s"),
    lower("store.video_extracted_scenarios", "count"),
    lower("store.video_extracted_detections", "count"),
    higher("store.video_cache_hits", "count"),
    lower("setsplit.split_s.p50", "s"),
    lower("setsplit.recorded", "count"),
    lower("setsplit.examined", "count"),
    higher("setsplit.effective_ratio", "ratio"),
    lower("setsplit.selected", "count"),
    lower("setsplit.list_len.mean", "count"),
    lower("vfilter.filter_s.p50", "s"),
    higher("vfilter.gallery_hits", "count"),
    lower("vfilter.gallery_misses", "count"),
    higher("vfilter.gallery_hit_ratio", "ratio"),
    higher("vfilter.majority_rate", "ratio"),
    lower("kernel.block_build_s.p50", "s"),
    lower("kernel.score_s.p50", "s"),
    lower("kernel.rows_scored", "count"),
    lower("kernel.bytes_streamed", "bytes"),
    lower("kernel.ns_per_row", "ns"),
    lower("refine.rounds", "count"),
    lower("refine.e_stage_s.p50", "s"),
    lower("refine.v_stage_s.p50", "s"),
    lower("refine.residual_s.p50", "s"),
    lower("match_s.p50", "s"),
    lower("match_s.p90", "s"),
    lower("cold_match_s.p50", "s"),
    higher("exec.threads", "count"),
    lower("dag.match_1t_s.p50", "s"),
    higher("dag.scaling", "ratio"),
    lower("query_s.p50", "s"),
    lower("query_s.p99", "s"),
    higher("ingest_events_per_s", "1/s"),
    lower("serve.open_s", "s"),
    lower("serve.ingest_s.p50", "s"),
    lower("serve.ingest_s.p99", "s"),
    lower("serve.apply_s.p50", "s"),
    lower("serve.apply_s.p99", "s"),
    lower("serve.finish_s", "s"),
    lower("serve.reopen_s", "s"),
    lower("serve.staleness_events.max", "count"),
    higher("serve.epochs", "count"),
    lower("telemetry.full_overhead_ratio", "ratio"),
    lower("trace.overhead_ratio", "ratio"),
    higher("trace.coverage", "ratio"),
];
