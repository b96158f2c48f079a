//! Shared measurement plumbing: run one algorithm over one dataset and
//! summarize the metrics every experiment needs.

use crate::report::num;
use ev_core::ids::Eid;
use ev_datagen::{score_report, EvDataset};
use ev_matching::edp::match_edp;
use ev_matching::matcher::{EvMatcher, ExecutionMode, MatcherConfig};
use ev_matching::setsplit::SetSplitConfig;
use ev_telemetry::Telemetry;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Which pipeline a measurement ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum Algo {
    /// Set splitting (the paper's algorithm, labeled SS in §VI).
    Ss,
    /// The EDP baseline.
    Edp,
}

/// One measured run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Which algorithm ran.
    pub(crate) algo: Algo,
    /// Number of matched (requested) EIDs.
    pub matched: usize,
    /// Distinct scenarios selected (reuse counted once) — Figs. 5–6.
    pub selected: usize,
    /// Average scenarios per matched EID — Fig. 7.
    pub(crate) per_eid: f64,
    /// Matching accuracy in percent — Tables I–II, Figs. 10–11.
    pub(crate) accuracy_pct: f64,
    /// E-stage wall time in seconds — Figs. 8–9.
    pub(crate) e_secs: f64,
    /// V-stage wall time in seconds — Figs. 8–9.
    pub(crate) v_secs: f64,
    /// Refinement rounds used (SS only; 1 for EDP).
    pub rounds: u32,
}

impl RunSummary {
    /// Total pipeline time in seconds.
    #[must_use]
    pub(crate) fn total_secs(&self) -> f64 {
        self.e_secs + self.v_secs
    }
}

/// Runs SS — the matcher's default pipeline: practical splitting in the
/// random-time order drawn from `seed`, plus refinement — over
/// `targets` on `threads` threads: on the calling thread at one, each
/// wave of the walk scored as one `par_map` (Algorithm 3) at more. The
/// report is the same at every width; only the times differ.
///
/// # Panics
///
/// Panics if a map fails: a mapped task panicked, or the OS refused a
/// worker thread.
#[must_use]
pub(crate) fn run_ss(
    dataset: &EvDataset,
    targets: &BTreeSet<Eid>,
    threads: usize,
    seed: u64,
) -> RunSummary {
    dataset.video.reset_usage();
    let config = MatcherConfig {
        split: SetSplitConfig { seed },
        execution: ExecutionMode::Dag(threads),
        ..MatcherConfig::default()
    };
    let report = EvMatcher::new(&dataset.estore, &dataset.video, config)
        .match_many(targets)
        .expect("SS run");
    summarize(dataset, targets, Algo::Ss, &report)
}

/// Runs EDP (two maps, one partition per EID) over `targets` on
/// `threads` threads; the report is the same at every width.
///
/// # Panics
///
/// Panics if a map fails: a mapped task panicked, or the OS refused a
/// worker thread.
#[must_use]
pub(crate) fn run_edp(
    dataset: &EvDataset,
    targets: &BTreeSet<Eid>,
    threads: usize,
    seed: u64,
) -> RunSummary {
    dataset.video.reset_usage();
    let report = match_edp(
        threads,
        &dataset.estore,
        &dataset.video,
        targets,
        seed,
        Telemetry::disabled(),
    )
    .expect("EDP run");
    summarize(dataset, targets, Algo::Edp, &report)
}

fn summarize(
    dataset: &EvDataset,
    targets: &BTreeSet<Eid>,
    algo: Algo,
    report: &ev_matching::MatchReport,
) -> RunSummary {
    let stats = score_report(dataset, report);
    RunSummary {
        algo,
        matched: targets.len(),
        selected: report.selected_count(),
        per_eid: report.scenarios_per_eid(),
        accuracy_pct: stats.percent(),
        e_secs: report.timings.e_stage.as_secs_f64(),
        v_secs: report.timings.v_stage.as_secs_f64(),
        rounds: report.rounds,
    }
}

/// Runs behind every timing cell of Figs. 8–9 and the workers ablation.
pub(crate) const TIMING_RUNS: usize = 3;

/// The E, V and E+V seconds of [`TIMING_RUNS`] runs of one
/// configuration, each column the median of its own samples, formatted
/// to the millisecond. One run's scheduling hiccup on a shared host
/// cannot set a cell; the runs' reports are equal, only their times
/// differ.
pub(crate) fn median_timings(mut run: impl FnMut() -> RunSummary) -> [String; 3] {
    let runs: Vec<RunSummary> = (0..TIMING_RUNS).map(|_| run()).collect();
    let median = |secs: fn(&RunSummary) -> f64| {
        let mut samples: Vec<f64> = runs.iter().map(secs).collect();
        samples.sort_by(f64::total_cmp);
        num(samples[samples.len() / 2], 3)
    };
    [
        median(|s| s.e_secs),
        median(|s| s.v_secs),
        median(RunSummary::total_secs),
    ]
}

/// Averages a set of summaries point-wise (used to smooth over seeds).
///
/// # Panics
///
/// Panics on an empty slice or mixed algorithms.
#[must_use]
pub(crate) fn average(summaries: &[RunSummary]) -> RunSummary {
    assert!(!summaries.is_empty(), "cannot average zero runs");
    let algo = summaries[0].algo;
    assert!(
        summaries.iter().all(|s| s.algo == algo),
        "cannot average across algorithms"
    );
    let n = summaries.len() as f64;
    RunSummary {
        algo,
        matched: summaries[0].matched,
        selected: (summaries.iter().map(|s| s.selected).sum::<usize>() as f64 / n).round() as usize,
        per_eid: summaries.iter().map(|s| s.per_eid).sum::<f64>() / n,
        accuracy_pct: summaries.iter().map(|s| s.accuracy_pct).sum::<f64>() / n,
        e_secs: summaries.iter().map(|s| s.e_secs).sum::<f64>() / n,
        v_secs: summaries.iter().map(|s| s.v_secs).sum::<f64>() / n,
        rounds: summaries.iter().map(|s| s.rounds).max().unwrap_or(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_datagen::{sample_targets, DatasetConfig};

    fn dataset() -> EvDataset {
        EvDataset::generate(&DatasetConfig {
            population: 60,
            duration: 150,
            ..DatasetConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn sequential_runners_produce_sane_summaries() {
        let d = dataset();
        let targets = sample_targets(&d, 20, 1);
        let ss = run_ss(&d, &targets, 1, 0);
        let edp = run_edp(&d, &targets, 1, 0);
        assert_eq!(ss.algo, Algo::Ss);
        assert_eq!(edp.algo, Algo::Edp);
        assert_eq!(ss.matched, 20);
        assert!(ss.selected > 0);
        assert!(ss.per_eid >= 1.0);
        assert!(ss.accuracy_pct > 50.0, "got {}", ss.accuracy_pct);
        assert!(edp.accuracy_pct > 50.0, "got {}", edp.accuracy_pct);
        assert!(ss.total_secs() > 0.0);
    }

    #[test]
    fn parallel_runners_work() {
        let d = dataset();
        let targets = sample_targets(&d, 15, 2);
        let ss = run_ss(&d, &targets, 2, 0);
        let edp = run_edp(&d, &targets, 2, 0);
        assert_eq!(ss.matched, 15);
        assert!(edp.selected > 0);
        assert!(ss.accuracy_pct > 50.0);
    }

    #[test]
    fn average_combines_runs() {
        let a = RunSummary {
            algo: Algo::Ss,
            matched: 10,
            selected: 10,
            per_eid: 2.0,
            accuracy_pct: 90.0,
            e_secs: 1.0,
            v_secs: 3.0,
            rounds: 1,
        };
        let b = RunSummary {
            selected: 20,
            per_eid: 4.0,
            accuracy_pct: 70.0,
            e_secs: 3.0,
            v_secs: 5.0,
            rounds: 2,
            ..a
        };
        let avg = average(&[a, b]);
        assert_eq!(avg.selected, 15);
        assert!((avg.per_eid - 3.0).abs() < 1e-12);
        assert!((avg.accuracy_pct - 80.0).abs() < 1e-12);
        assert!((avg.total_secs() - 6.0).abs() < 1e-12);
        assert_eq!(avg.rounds, 2);
    }

    #[test]
    fn median_timings_take_each_column_on_its_own() {
        let run = |e_secs, v_secs| RunSummary {
            algo: Algo::Ss,
            matched: 1,
            selected: 1,
            per_eid: 1.0,
            accuracy_pct: 100.0,
            e_secs,
            v_secs,
            rounds: 1,
        };
        // Totals 7, 2 and 5: the median total is no run's E + median V.
        let mut runs = [run(1.0, 6.0), run(1.5, 0.5), run(4.0, 1.0)].into_iter();
        let cells = median_timings(|| runs.next().unwrap());
        assert_eq!(cells, ["1.500", "1.000", "5.000"]);
        assert!(runs.next().is_none(), "{TIMING_RUNS} runs per cell");
    }

    #[test]
    #[should_panic(expected = "zero runs")]
    fn average_empty_panics() {
        let _ = average(&[]);
    }
}
