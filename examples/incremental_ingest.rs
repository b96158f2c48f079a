//! Incremental ingestion through the **live serve loop**: surveillance
//! data streams in tick by tick, queries run concurrently against a
//! consistent snapshot with explicit staleness, the process crashes
//! mid-stream, and a restarted service resumes from the applied state
//! with only the uncheckpointed tail to regret.
//!
//! Act 1 opens a [`LiveCorpus`] with a watched cohort and streams the
//! first half of the day in, querying mid-stream (stale) and after an
//! apply (fresh). Act 2 stages more events and then *drops* the corpus
//! without shutting down — exactly what a crash leaves behind: open
//! uncommitted segments. Act 3 reopens the directory, shows the
//! recovery report, replays the lost tail from the applied frontier and
//! finishes the day, then prints the watched cohort's Algorithm-1 split
//! of the applied corpus.
//!
//! ```text
//! cargo run --release --example incremental_ingest
//! ```

use evmatch::core::scenario::{EScenario, VScenario};
use evmatch::prelude::*;
use evmatch::serve::{LiveCorpus, ServeConfig};

/// The events of `d` whose tick falls in `[from, to)`.
fn slice(d: &EvDataset, from: u64, to: u64) -> (Vec<EScenario>, Vec<VScenario>) {
    let es = d
        .estore
        .iter()
        .filter(|s| (from..to).contains(&s.time().tick()))
        .cloned()
        .collect();
    let vs = d
        .video
        .scenarios()
        .filter(|s| (from..to).contains(&s.time().tick()))
        .cloned()
        .collect();
    (es, vs)
}

fn main() {
    let dir = std::env::temp_dir().join(format!("evmatch-ingest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // The world whose sensors we are streaming from.
    let world = EvDataset::generate(&DatasetConfig {
        population: 200,
        duration: 300,
        seed: 42,
        ..DatasetConfig::default()
    })
    .expect("valid config");
    let cohort = sample_targets(&world, 40, 1);
    let config = || ServeConfig {
        cost: world.video.cost_model(),
        watch: cohort.clone(),
        // Manual applies (so the staleness is visible below) and
        // checkpoints only on apply, so the crash has a tail to lose.
        apply_every: 0,
        checkpoint_every: 0,
        ..ServeConfig::default()
    };

    // Act 1: stream the morning in, querying as it arrives.
    let mut live = LiveCorpus::open(&dir, config(), Telemetry::disabled()).expect("fresh corpus");
    let (e, v) = slice(&world, 0, 100);
    println!(
        "act 1: streaming ticks [0, 100) — {} events",
        e.len() + v.len()
    );
    live.ingest(e, v).expect("morning ingest");

    let stale = live.query(&cohort).expect("mid-stream query");
    println!(
        "  mid-stream query: epoch {} with {} events staged (invisible to this answer)",
        stale.epoch, stale.staleness_events,
    );
    live.apply().expect("publish the morning");
    let fresh = live.query(&cohort).expect("fresh query");
    let score = score_report(&world, &fresh.report);
    println!(
        "  applied: epoch {}, staleness {}, accuracy on the morning {:.1}%",
        fresh.epoch,
        fresh.staleness_events,
        score.percent(),
    );

    // Act 2: the afternoon starts arriving... and the process dies.
    // Staged-but-unapplied events were never checkpointed: their open
    // segments are uncommitted, so the crash will cost exactly them.
    let (e, v) = slice(&world, 100, 200);
    let at_risk = e.len() + v.len();
    live.ingest(e, v).expect("afternoon ingest");
    println!("\nact 2: crash with {at_risk} staged events never applied — dropping the corpus");
    drop(live); // no finish(): open segments are abandoned on disk

    // Act 3: restart. Recovery removes the orphaned open segments; the
    // applied morning survives to the byte.
    let mut live =
        LiveCorpus::open(&dir, config(), Telemetry::disabled()).expect("recovering open");
    let rec = *live.disk().recovery();
    println!(
        "act 3: recovered — {} entries kept, {} orphan segment(s) removed, {} records dropped",
        rec.manifest_entries_kept, rec.orphan_segments_removed, rec.records_dropped,
    );
    let resume = live
        .estore()
        .iter()
        .last()
        .map_or(0, |s| s.time().tick() + 1);
    println!("  applied frontier at tick {resume}; replaying the lost tail from there");

    // Replay from the frontier and finish the day.
    let (e, v) = slice(&world, resume, 300);
    live.ingest(e, v).expect("replay + evening ingest");
    live.apply().expect("publish the rest");

    let final_answer = live.query(&cohort).expect("end-of-day query");
    let final_score = score_report(&world, &final_answer.report);
    let lists = live.watch_lists().expect("watched cohort");
    println!(
        "  end of day: epoch {}, accuracy {:.1}%, {} scenarios selected",
        final_answer.epoch,
        final_score.percent(),
        final_answer.report.selected_count(),
    );
    println!(
        "  watch lists: {} recorded splitters, fully split: {}",
        lists.recorded.len(),
        lists.fully_split(),
    );

    live.finish().expect("clean shutdown");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
