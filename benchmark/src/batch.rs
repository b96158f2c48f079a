//! The three batch workloads: `universal-paper`, `dense-query` and
//! `universal-threads`.
//!
//! An op is one complete match. A *cold* op starts from the persisted
//! bytes (`DiskBackend::open` → index build → match); a *warm* op
//! matches again on stores already open, with the per-op caches
//! cleared. The `universal-*` workloads run cold ops; `dense-query`
//! opens its stores once in set-up and runs warm ops.

use crate::adapter::{self, Backend, Dataset, Exec, Persisted, Report, Res, Targets};
use crate::stats::{mean, median, timed};
use crate::trace::Recorder;
use crate::{Opts, Outcome, ACCURACY_FLOOR, CORPORA, WARMUP_OPS};
use evmatch::vision::cost::CostModel;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    UniversalPaper,
    DenseQuery,
    UniversalThreads,
}

/// Size of a `dense-query` target set.
const DENSE_TARGETS: usize = 150;
/// Target sets `dense-query` samples per corpus; op `i` matches set
/// `i % DENSE_SETS`. Which 150 EIDs are asked for moves the V-data cost
/// by ±10 %, so one set per corpus would leave that in every seed.
const DENSE_SETS: u64 = 10;

impl Kind {
    fn exec(self, threads: usize) -> Exec {
        match self {
            Kind::UniversalThreads => Exec::Dag(threads),
            _ => Exec::Sequential,
        }
    }

    /// Whether the workload's op starts from the persisted bytes.
    fn cold(self) -> bool {
        self != Kind::DenseQuery
    }
}

/// `clamp(nproc, 1, 4)`: the program's own threads in
/// `universal-threads`; the harness itself starts none.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().clamp(1, 4))
}

struct Corpus {
    data: Dataset,
    dir: PathBuf,
    cost: CostModel,
    /// The target sets ops rotate over; empty matches the whole universe.
    target_sets: Vec<Targets>,
    generate_s: f64,
    persisted: Persisted,
}

impl Corpus {
    /// Generates and persists one corpus and opens what the workload
    /// holds open: the backend on `dense-query`, nothing otherwise.
    fn set_up(
        kind: Kind,
        seed: u64,
        quick: bool,
        dir: PathBuf,
        rec: &mut Recorder,
    ) -> Res<(Corpus, Option<Backend>)> {
        let config = match kind {
            Kind::DenseQuery => adapter::dense_config(seed, quick),
            _ => adapter::paper_config(seed, quick),
        };
        let (data, generate_s) = timed(|| adapter::generate(&config));
        let data = data?;
        let target_sets = match kind {
            Kind::DenseQuery => {
                let count = if quick { 40 } else { DENSE_TARGETS };
                (0..DENSE_SETS)
                    .map(|i| adapter::sample(&data, count, seed + i))
                    .collect()
            }
            _ => Vec::new(),
        };
        let persisted = adapter::persist(&dir, &data)?;
        let cost = data.video.cost_model();
        let held = match kind.cold() {
            true => None,
            false => Some(rec.span("disk.open", |_| adapter::open(&dir, cost))?),
        };
        let corpus = Corpus {
            data,
            dir,
            cost,
            target_sets,
            generate_s,
            persisted,
        };
        Ok((corpus, held))
    }

    /// Which target set op `i` matches, and that set (`None`: everyone).
    fn targets(&self, i: usize) -> (usize, Option<&Targets>) {
        match self.target_sets.len() {
            0 => (0, None),
            n => (i % n, Some(&self.target_sets[i % n])),
        }
    }
}

struct Matched {
    report: Report,
    match_s: f64,
    cold_s: Option<f64>,
    /// `[postings_probed, membership_queries, scans_avoided]` of the match.
    index: [u64; 3],
    /// `[extracted_scenarios, extracted_detections, cache_hits]` of the match.
    video: [u64; 3],
}

fn match_on(
    targets: Option<&Targets>,
    backend: &Backend,
    exec: Exec,
    telemetry: &evmatch::telemetry::Telemetry,
    rec: &mut Recorder,
) -> Res<Matched> {
    let (estore, video) = (adapter::estore(backend), adapter::video(backend));
    let before = adapter::index_counts(estore);
    let (report, match_s) = timed(|| {
        rec.span("match", |_| {
            adapter::run_match(estore, video, targets, exec, telemetry)
        })
    });
    let after = adapter::index_counts(estore);
    Ok(Matched {
        report: report?,
        match_s,
        cold_s: None,
        index: [0, 1, 2].map(|i| after[i] - before[i]),
        video: adapter::video_counts(video),
    })
}

/// One op. A cold op replaces `held` with a freshly opened backend; a
/// warm op matches on `held`.
fn run_op(
    corpus: &Corpus,
    targets: Option<&Targets>,
    held: &mut Option<Backend>,
    cold: bool,
    exec: Exec,
    rec: &mut Recorder,
) -> Res<Matched> {
    let telemetry = adapter::telemetry_off();
    if !cold {
        let backend = held.as_ref().ok_or("warm op without an open backend")?;
        adapter::reset_usage(adapter::video(backend));
        return match_on(targets, backend, exec, telemetry, rec);
    }
    *held = None;
    let (matched, cold_s) = timed(|| {
        rec.span("cold_match", |rec| {
            let backend = rec.span("disk.open", |_| adapter::open(&corpus.dir, corpus.cost))?;
            rec.span("store.index_build", |_| {
                adapter::build_index(adapter::estore(&backend))
            });
            let matched = match_on(targets, &backend, exec, telemetry, rec);
            *held = Some(backend);
            matched
        })
    });
    Ok(Matched {
        cold_s: Some(cold_s),
        ..matched?
    })
}

/// Checks one report and returns its accuracy. An op's output is right
/// when its digest equals that of the first op on the same corpus and
/// targets, and its accuracy clears the floor; otherwise the op is
/// counted as failed.
fn check(
    corpus: &Corpus,
    report: &Report,
    first_digest: &mut Option<u64>,
    out: &mut Outcome,
) -> f64 {
    let digest = adapter::digest(report);
    let accuracy = adapter::accuracy(&corpus.data, report);
    if *first_digest.get_or_insert(digest) != digest {
        out.fail("a report differs from the first op's on the same inputs");
    } else if accuracy < ACCURACY_FLOOR {
        out.fail(&format!("accuracy {accuracy:.4} is below {ACCURACY_FLOOR}"));
    }
    accuracy
}

fn v_scenarios_per_eid(matched: &Matched) -> f64 {
    matched.video[0] as f64 / matched.report.outcomes.len().max(1) as f64
}

/// The untraced pass: `CORPORA` corpora from consecutive sub-seeds, each
/// set up (timed) and then matched for its share of the window. The
/// exact-repeat metrics are means over the corpora, which is what keeps
/// them steady across seeds; the timings printed beside them are pooled.
pub fn run_untraced(kind: Kind, opts: &Opts, tmp: &Path) -> Res<Outcome> {
    let exec = kind.exec(threads());
    let mut out = Outcome::default();
    let mut rec = Recorder::new(false);
    let (mut setup, mut accuracy, mut v_per_eid) = (vec![], vec![], vec![]);
    let (mut match_s, mut cold_s) = (vec![], vec![]);
    for k in 0..CORPORA {
        let dir = tmp.join(format!("corpus-{k}"));
        let (set_up, setup_s) =
            timed(|| Corpus::set_up(kind, opts.corpus_seed(k), opts.quick, dir, &mut rec));
        let (corpus, mut held) = set_up?;
        setup.push(setup_s);

        let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds / CORPORA as f64);
        let sets = corpus.target_sets.len().max(1);
        // Ops that run however short the window: the warm-up, one timed
        // op, and one op per target set for the exact-repeat metrics.
        let always = (WARMUP_OPS + 1).max(sets);
        let mut first_digests = vec![None; sets];
        for i in 0.. {
            if i >= always && Instant::now() >= deadline {
                break;
            }
            out.attempted += 1;
            let (set, targets) = corpus.targets(i);
            let matched = match run_op(&corpus, targets, &mut held, kind.cold(), exec, &mut rec) {
                Ok(matched) => matched,
                Err(e) => {
                    out.fail(&e);
                    if out.failed > 10 {
                        return Err(format!("giving up after repeated failures: {e}"));
                    }
                    continue;
                }
            };
            let scored = check(&corpus, &matched.report, &mut first_digests[set], &mut out);
            if i < sets {
                accuracy.push(scored);
                v_per_eid.push(v_scenarios_per_eid(&matched));
            }
            if i >= WARMUP_OPS {
                match_s.push(matched.match_s);
                cold_s.extend(matched.cold_s);
            }
        }
        if let (0, Some(mib)) = (k, crate::peak_rss_mib()) {
            out.push("peak_rss_mib", mib, 1);
        }
        drop(held);
        let _ = std::fs::remove_dir_all(&corpus.dir);
    }
    out.push("setup_s", median(&setup), CORPORA);
    out.push("accuracy", mean(&accuracy), accuracy.len());
    out.push("v_scenarios_per_eid", mean(&v_per_eid), v_per_eid.len());
    out.push_percentile("match_s.p50", &match_s, 50);
    out.push_percentile("match_s.p90", &match_s, 90);
    out.push_percentile("cold_match_s.p50", &cold_s, 50);
    Ok(out)
}

/// The traced pass: one corpus; every iteration is the workload's op
/// under the recorder, then the layer calls replayed on the open stores,
/// then the comparison series (the same op untraced, a plain warm match,
/// full telemetry, one DAG thread).
pub fn run_traced(kind: Kind, opts: &Opts, tmp: &Path, rec: &mut Recorder) -> Res<Outcome> {
    let threads = threads();
    let exec = kind.exec(threads);
    let mut out = Outcome::default();
    let dir = tmp.join("corpus-0");
    let (corpus, mut held) = Corpus::set_up(kind, opts.corpus_seed(0), opts.quick, dir, rec)?;
    let p = &corpus.persisted;
    out.push("datagen.generate_s", corpus.generate_s, 1);
    out.push("disk.append_s", p.append_s, 1);
    out.push("disk.corpus_bytes", p.bytes as f64, 1);
    out.push(
        "disk.bytes_per_record",
        p.bytes as f64 / p.records as f64,
        1,
    );
    out.push("disk.segments", p.segments as f64, 1);
    out.push("exec.threads", threads as f64, 1);

    // One target set throughout, so that every count repeats exactly.
    let (_, targets) = corpus.targets(0);
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut first_digest = None;
    let mut silent = Recorder::new(false);
    let (mut traced_s, mut match_s, mut cold_s, mut warm_s, mut telemetry_s, mut dag1_s) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    let mut rows_scored = 0;
    let (mut e_stage, mut v_stage, mut residual) = (vec![], vec![], vec![]);
    let mut iterations = 0;
    while iterations == 0 || Instant::now() < deadline {
        iterations += 1;
        rec.begin_op();
        out.attempted += 1;
        let matched = run_op(&corpus, targets, &mut held, kind.cold(), exec, rec)?;
        check(&corpus, &matched.report, &mut first_digest, &mut out);
        traced_s.push(matched.match_s);
        let timings = matched.report.timings;
        e_stage.push(timings.e_stage.as_secs_f64());
        v_stage.push(timings.v_stage.as_secs_f64());
        residual.push((matched.match_s - timings.total().as_secs_f64()).max(0.0));

        let backend = held.as_ref().ok_or("the op left no open backend")?;
        let (estore, video) = (adapter::estore(backend), adapter::video(backend));
        let replayed = targets.map_or_else(|| adapter::universe(estore), Targets::clone);

        // The layers, replayed one at a time on the same stores.
        let split = rec.span("setsplit.split", |_| adapter::split(estore, &replayed));
        let selected = split.selected();
        adapter::reset_usage(video);
        let galleries = rec.span("store.video_extract", |_| {
            adapter::extract_all(video, &selected)
        });
        adapter::reset_usage(video);
        let filtered = rec.span("vfilter.filter", |_| adapter::filter(&split.lists, video));
        let blocks = rec.span("kernel.block_build", |_| adapter::build_blocks(&galleries))?;
        let (rows, _) = rec.span("kernel.score", |_| {
            adapter::score_blocks(&galleries, &blocks)
        })?;

        // Counts repeat exactly, so the first iteration's stand for all.
        if iterations == 1 {
            out.push("refine.rounds", f64::from(matched.report.rounds), 1);
            out.push("store.index_postings_probed", matched.index[0] as f64, 1);
            out.push("store.index_membership_queries", matched.index[1] as f64, 1);
            out.push("store.index_scans_avoided", matched.index[2] as f64, 1);
            out.push(
                "store.video_extracted_scenarios",
                matched.video[0] as f64,
                1,
            );
            out.push(
                "store.video_extracted_detections",
                matched.video[1] as f64,
                1,
            );
            out.push("store.video_cache_hits", matched.video[2] as f64, 1);
            let (recorded, examined) = (split.recorded.len(), split.scenarios_examined);
            out.push("setsplit.recorded", recorded as f64, 1);
            out.push("setsplit.examined", examined as f64, 1);
            out.push(
                "setsplit.effective_ratio",
                recorded as f64 / examined.max(1) as f64,
                1,
            );
            out.push("setsplit.selected", selected.len() as f64, 1);
            let lens: Vec<f64> = split.lists.values().map(|l| l.len() as f64).collect();
            out.push("setsplit.list_len.mean", mean(&lens), lens.len());
            let (hits, misses) = (filtered.gallery_hits, filtered.gallery_misses);
            out.push("vfilter.gallery_hits", hits as f64, 1);
            out.push("vfilter.gallery_misses", misses as f64, 1);
            out.push(
                "vfilter.gallery_hit_ratio",
                hits as f64 / (hits + misses).max(1) as f64,
                1,
            );
            out.push("vfilter.majority_rate", filtered.majority_rate, 1);
            out.push("kernel.rows_scored", rows as f64, 1);
            let dim = corpus.data.config.feature_dim;
            out.push("kernel.bytes_streamed", (rows * dim as u64 * 8) as f64, 1);
        }
        rows_scored = rows;
        drop((galleries, blocks));

        // The comparison series. Each ratio compares like with like: the
        // traced op against the same op untraced, and full telemetry and
        // one DAG thread against a plain warm op.
        out.attempted += 2;
        let plain = run_op(&corpus, targets, &mut held, kind.cold(), exec, &mut silent)?;
        check(&corpus, &plain.report, &mut first_digest, &mut out);
        match_s.push(plain.match_s);
        cold_s.extend(plain.cold_s);
        let warm = run_op(&corpus, targets, &mut held, false, exec, &mut silent)?;
        check(&corpus, &warm.report, &mut first_digest, &mut out);
        warm_s.push(warm.match_s);

        let backend = held.as_ref().ok_or("warm op dropped the backend")?;
        let (estore, video) = (adapter::estore(backend), adapter::video(backend));
        let full = adapter::telemetry_full();
        adapter::reset_usage(video);
        let (report, secs) = timed(|| adapter::run_match(estore, video, targets, exec, &full));
        out.attempted += 1;
        check(&corpus, &report?, &mut first_digest, &mut out);
        telemetry_s.push(secs);

        if kind == Kind::UniversalThreads {
            adapter::reset_usage(video);
            let (report, secs) = timed(|| {
                adapter::run_match(
                    estore,
                    video,
                    targets,
                    Exec::Dag(1),
                    adapter::telemetry_off(),
                )
            });
            // The DAG's report is the same at every thread count.
            out.attempted += 1;
            check(&corpus, &report?, &mut first_digest, &mut out);
            dag1_s.push(secs);
        }

        // The disk and store layers under `disk.open`, one call each;
        // they are not on `dense-query`'s path.
        if !kind.cold() {
            continue;
        }
        let store = adapter::open_store(&corpus.dir)?;
        let e = rec.span("disk.load_estore", |_| adapter::load_estore(&store))?;
        let v = rec.span("disk.load_video", |_| {
            adapter::load_video(&store, corpus.cost)
        })?;
        let (e, v) = adapter::scenarios(&e, &v);
        rec.span("store.memory_build", |_| {
            adapter::memory_build(e, v, corpus.cost)
        });
    }
    drop(held);
    let _ = std::fs::remove_dir_all(&corpus.dir);

    for (metric, span) in [
        ("disk.open_s.p50", "disk.open"),
        ("disk.load_estore_s.p50", "disk.load_estore"),
        ("disk.load_video_s.p50", "disk.load_video"),
        ("store.memory_build_s.p50", "store.memory_build"),
        ("store.index_build_s.p50", "store.index_build"),
        ("store.video_extract_s.p50", "store.video_extract"),
        ("setsplit.split_s.p50", "setsplit.split"),
        ("vfilter.filter_s.p50", "vfilter.filter"),
        ("kernel.block_build_s.p50", "kernel.block_build"),
        ("kernel.score_s.p50", "kernel.score"),
    ] {
        out.push_percentile(metric, &rec.durations(span), 50);
    }
    out.push_percentile("refine.e_stage_s.p50", &e_stage, 50);
    out.push_percentile("refine.v_stage_s.p50", &v_stage, 50);
    out.push_percentile("refine.residual_s.p50", &residual, 50);
    let score_s = median(&rec.durations("kernel.score"));
    out.push(
        "kernel.ns_per_row",
        score_s * 1e9 / rows_scored.max(1) as f64,
        iterations,
    );
    out.push_percentile("match_s.p50", &match_s, 50);
    out.push_percentile("match_s.p90", &match_s, 90);
    out.push_percentile("cold_match_s.p50", &cold_s, 50);
    let base = median(&warm_s);
    out.push(
        "telemetry.full_overhead_ratio",
        median(&telemetry_s) / base,
        telemetry_s.len(),
    );
    out.push(
        "trace.overhead_ratio",
        median(&traced_s) / median(&match_s),
        traced_s.len(),
    );
    if kind.cold() {
        out.push("trace.coverage", rec.coverage("cold_match"), traced_s.len());
    }
    if !dag1_s.is_empty() {
        out.push_percentile("dag.match_1t_s.p50", &dag1_s, 50);
        out.push("dag.scaling", median(&dag1_s) / base, dag1_s.len());
        out.notes.push(format!(
            "dag.scaling base: warm match p50 {base:.6} s at {threads} threads"
        ));
    }
    Ok(out)
}
