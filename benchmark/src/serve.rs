//! The `serve-mixed` workload: writes beside reads.
//!
//! A `LiveCorpus` over a fresh directory streams a corpus window by
//! window — one `ingest` per window, `apply` after every second one,
//! four `query` calls after each window once ten have arrived, then
//! `finish` — and the finished corpus is reopened for one more query.
//! The stream is repeated in fresh directories until the window closes.

use crate::adapter::{self, Dataset, Exec, Live, Res, Targets};
use crate::stats::{mean, median, timed};
use crate::trace::Recorder;
use crate::{Opts, Outcome, ACCURACY_FLOOR, CORPORA};
use evmatch::core::scenario::{EScenario, VScenario};
use std::path::Path;
use std::time::{Duration, Instant};

const WATCH_EIDS: usize = 40;
const QUERY_EIDS: usize = 20;
const QUERY_SETS: usize = 16;
const QUERIES_PER_WINDOW: usize = 4;
const FIRST_QUERIED_WINDOW: usize = 10;
const APPLY_EVERY_WINDOWS: usize = 2;
/// One answer in this many is compared, outside the timed section, with
/// an offline match over the same snapshot.
const CHECK_EVERY_QUERIES: usize = 50;

struct Stream {
    data: Dataset,
    windows: Vec<(Vec<EScenario>, Vec<VScenario>)>,
    watch: Targets,
    /// Query target sets, used round-robin.
    sets: Vec<Targets>,
    generate_s: f64,
}

impl Stream {
    fn set_up(seed: u64, quick: bool) -> Res<Stream> {
        let (data, generate_s) = timed(|| adapter::generate(&adapter::serve_config(seed, quick)));
        let data = data?;
        Ok(Stream {
            windows: adapter::windows(&data),
            watch: adapter::sample(&data, WATCH_EIDS, seed),
            sets: (1..=QUERY_SETS as u64)
                .map(|i| adapter::sample(&data, QUERY_EIDS, seed + i))
                .collect(),
            data,
            generate_s,
        })
    }
}

/// Call timings of one run, pooled over corpora and stream repetitions.
#[derive(Default)]
struct Calls {
    open_s: Vec<f64>,
    ingest_s: Vec<f64>,
    apply_s: Vec<f64>,
    query_s: Vec<f64>,
    finish_s: Vec<f64>,
    reopen_s: Vec<f64>,
    events_per_s: Vec<f64>,
    staleness_max: u64,
    epochs: u64,
}

/// What the answers of one repetition assert.
struct Asserted {
    /// All answer digests folded in order.
    digest: u64,
    /// Over the answers of the last tenth of the windows, where the
    /// snapshot is nearly the whole corpus.
    accuracy: f64,
    v_scenarios_per_eid: f64,
}

/// A query on a snapshot whose per-op caches were just cleared.
fn fresh_query(live: &Live, set: &Targets) -> Res<(adapter::Answer, f64)> {
    adapter::reset_usage(adapter::live_stores(live).1);
    let (answer, secs) = timed(|| adapter::query(live, set));
    Ok((answer?, secs))
}

/// Counts a failed op unless an offline match over the live snapshot
/// asserts `digest` too.
fn check_offline(live: &Live, set: &Targets, digest: u64, out: &mut Outcome) -> Res<()> {
    let (estore, video) = adapter::live_stores(live);
    adapter::reset_usage(video);
    let offline = adapter::run_match(
        estore,
        video,
        Some(set),
        Exec::Sequential,
        adapter::telemetry_off(),
    )?;
    if adapter::digest(&offline) != digest {
        out.fail("a served answer differs from the offline match on its snapshot");
    }
    Ok(())
}

fn stream_once(
    stream: &Stream,
    dir: &Path,
    calls: &mut Calls,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> Res<Asserted> {
    let cost = stream.data.video.cost_model();
    let (live, open_s) = timed(|| adapter::open_live(dir, cost, &stream.watch));
    let mut live = live?;
    calls.open_s.push(open_s);

    let tail_from = stream.windows.len() - (stream.windows.len() / 10).max(1);
    let (mut events, mut busy_s) = (0u64, 0.0);
    let (mut digest, mut queries) = (0u64, 0usize);
    let (mut accuracy, mut v_per_eid) = (vec![], vec![]);
    for (w, (e, v)) in stream.windows.iter().enumerate() {
        rec.begin_op();
        let (e, v) = (e.clone(), v.clone());
        rec.span("serve.window", |rec| -> Res<()> {
            out.attempted += 1;
            let (accepted, secs) = rec.span("serve.ingest", |_| {
                timed(|| adapter::ingest(&mut live, e, v))
            });
            events += accepted?;
            busy_s += secs;
            calls.ingest_s.push(secs);
            if w % APPLY_EVERY_WINDOWS == APPLY_EVERY_WINDOWS - 1 {
                out.attempted += 1;
                let (applied, secs) =
                    rec.span("serve.apply", |_| timed(|| adapter::apply(&mut live)));
                applied?;
                busy_s += secs;
                calls.apply_s.push(secs);
            }
            if w < FIRST_QUERIED_WINDOW {
                return Ok(());
            }
            for j in 0..QUERIES_PER_WINDOW {
                let set = &stream.sets[(w * QUERIES_PER_WINDOW + j) % QUERY_SETS];
                out.attempted += 1;
                let (answer, secs) = rec.span("serve.query", |_| fresh_query(&live, set))?;
                calls.query_s.push(secs);
                calls.staleness_max = calls.staleness_max.max(answer.staleness_events);
                let answered = adapter::digest(&answer.report);
                digest = digest.rotate_left(5) ^ answered;
                if w >= tail_from {
                    accuracy.push(adapter::accuracy(&stream.data, &answer.report));
                    let extracted = adapter::video_counts(adapter::live_stores(&live).1)[0];
                    v_per_eid.push(extracted as f64 / set.len() as f64);
                }
                queries += 1;
                if queries % CHECK_EVERY_QUERIES == 0 {
                    check_offline(&live, set, answered, out)?;
                }
            }
            Ok(())
        })?;
    }
    calls.events_per_s.push(events as f64 / busy_s);
    calls.epochs = adapter::epoch(&live);

    out.attempted += 1;
    let (finished, finish_s) = timed(|| adapter::finish(live));
    finished?;
    calls.finish_s.push(finish_s);

    // A restart: the watch set is absorbed by the open.
    out.attempted += 1;
    let set = &stream.sets[0];
    let (live, reopen_s) = timed(|| adapter::open_live(dir, cost, &stream.watch));
    let live = live?;
    let (answer, _) = fresh_query(&live, set)?;
    calls.reopen_s.push(reopen_s);
    let answered = adapter::digest(&answer.report);
    digest = digest.rotate_left(5) ^ answered;
    check_offline(&live, set, answered, out)?;
    adapter::finish(live)?;

    Ok(Asserted {
        digest,
        accuracy: mean(&accuracy),
        v_scenarios_per_eid: mean(&v_per_eid),
    })
}

/// Untraced: `CORPORA` corpora, each streamed for its share of the
/// window; the exact-repeat metrics are means over the corpora and the
/// call timings are pooled. Traced: one corpus for the whole window,
/// spans recorded.
pub fn run(opts: &Opts, tmp: &Path, rec: &mut Recorder) -> Res<Outcome> {
    let corpora = if opts.trace { 1 } else { CORPORA };
    let mut out = Outcome::default();
    let (mut setup, mut accuracy, mut v_per_eid) = (vec![], vec![], vec![]);
    let mut calls = Calls::default();
    let mut generate_s = 0.0;
    for k in 0..corpora {
        let (stream, setup_s) = timed(|| Stream::set_up(opts.corpus_seed(k), opts.quick));
        let stream = stream?;
        setup.push(setup_s);
        generate_s = stream.generate_s;

        let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds / corpora as f64);
        let mut first: Option<Asserted> = None;
        let mut rep = 0;
        // A repetition starts only if at least half of it fits, so that
        // the run ends at the deadline on average, not a repetition late.
        let mut rep_s = 0.0;
        while rep == 0 || Instant::now() + Duration::from_secs_f64(rep_s / 2.0) < deadline {
            let dir = tmp.join(format!("live-{k}-{rep}"));
            let (asserted, secs) = timed(|| stream_once(&stream, &dir, &mut calls, rec, &mut out));
            let asserted = asserted?;
            rep_s = secs;
            let _ = std::fs::remove_dir_all(&dir);
            if asserted.accuracy < ACCURACY_FLOOR {
                let accuracy = asserted.accuracy;
                out.fail(&format!("accuracy {accuracy:.4} is below {ACCURACY_FLOOR}"));
            }
            match &first {
                None => first = Some(asserted),
                Some(first) if first.digest != asserted.digest => {
                    out.fail("a repetition's answers differ from the first one's");
                }
                Some(_) => {}
            }
            rep += 1;
        }
        let first = first.ok_or("no stream repetition ran")?;
        if let (0, Some(mib)) = (k, crate::peak_rss_mib()) {
            out.push("peak_rss_mib", mib, 1);
        }
        accuracy.push(first.accuracy);
        v_per_eid.push(first.v_scenarios_per_eid);
    }

    out.push("setup_s", median(&setup), corpora);
    out.push("accuracy", mean(&accuracy), corpora);
    out.push("v_scenarios_per_eid", mean(&v_per_eid), corpora);

    out.push("datagen.generate_s", generate_s, 1);
    out.push("exec.threads", 1.0, 1);
    for (name, values, p) in [
        ("query_s.p50", &calls.query_s, 50),
        ("query_s.p99", &calls.query_s, 99),
        ("ingest_events_per_s", &calls.events_per_s, 50),
        ("serve.open_s", &calls.open_s, 50),
        ("serve.ingest_s.p50", &calls.ingest_s, 50),
        ("serve.ingest_s.p99", &calls.ingest_s, 99),
        ("serve.apply_s.p50", &calls.apply_s, 50),
        ("serve.apply_s.p99", &calls.apply_s, 99),
        ("serve.finish_s", &calls.finish_s, 50),
        ("serve.reopen_s", &calls.reopen_s, 50),
    ] {
        out.push_percentile(name, values, p);
    }
    out.push("serve.staleness_events.max", calls.staleness_max as f64, 1);
    out.push("serve.epochs", calls.epochs as f64, 1);
    if opts.trace {
        out.push("trace.coverage", rec.coverage("serve.window"), 1);
    }
    Ok(out)
}
