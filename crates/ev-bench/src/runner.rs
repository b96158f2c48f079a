//! Shared measurement plumbing: run one algorithm over one dataset and
//! summarize the metrics every experiment needs.

use ev_core::ids::Eid;
use ev_dag::DagConfig;
use ev_datagen::{score_report, EvDataset};
use ev_matching::dagflow::dag_match;
use ev_matching::edp::{match_edp, match_edp_parallel, EdpConfig};
use ev_matching::refine::{match_with_refinement, RefineConfig, SplitMode};
use ev_matching::vfilter::VFilterConfig;
use ev_telemetry::Telemetry;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Which pipeline a measurement ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Algo {
    /// Set splitting (the paper's algorithm, labeled SS in §VI).
    Ss,
    /// The EDP baseline.
    Edp,
}

impl Algo {
    /// The label used in the paper's plots.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Algo::Ss => "SS",
            Algo::Edp => "EDP",
        }
    }
}

/// One measured run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Which algorithm ran.
    pub algo: Algo,
    /// Number of matched (requested) EIDs.
    pub matched: usize,
    /// Distinct scenarios selected (reuse counted once) — Figs. 5–6.
    pub selected: usize,
    /// Average scenarios per matched EID — Fig. 7.
    pub per_eid: f64,
    /// Matching accuracy in percent — Tables I–II, Figs. 10–11.
    pub accuracy_pct: f64,
    /// E-stage wall time in seconds — Figs. 8–9.
    pub e_secs: f64,
    /// V-stage wall time in seconds — Figs. 8–9.
    pub v_secs: f64,
    /// Refinement rounds used (SS only; 1 for EDP).
    pub rounds: u32,
}

impl RunSummary {
    /// Total pipeline time in seconds.
    #[must_use]
    pub fn total_secs(&self) -> f64 {
        self.e_secs + self.v_secs
    }
}

/// Runs sequential SS (practical splitting + refinement) over `targets`.
#[must_use]
pub fn run_ss(dataset: &EvDataset, targets: &BTreeSet<Eid>, seed: u64) -> RunSummary {
    dataset.video.reset_usage();
    let mut config = RefineConfig {
        mode: SplitMode::Practical,
        ..RefineConfig::default()
    };
    if let ev_matching::setsplit::SelectionStrategy::RandomTime { seed: s } =
        &mut config.split.strategy
    {
        *s = seed;
    }
    let report = match_with_refinement(
        &dataset.estore,
        &dataset.video,
        targets,
        &config,
        Telemetry::disabled(),
    );
    summarize(dataset, targets, Algo::Ss, &report)
}

/// Runs sequential EDP over `targets`.
///
/// # Panics
///
/// Panics if footage fails to load — impossible for a generated,
/// in-memory dataset.
#[must_use]
pub fn run_edp(dataset: &EvDataset, targets: &BTreeSet<Eid>, seed: u64) -> RunSummary {
    dataset.video.reset_usage();
    let config = EdpConfig {
        seed,
        ..EdpConfig::default()
    };
    let report = match_edp(&dataset.estore, &dataset.video, targets, &config)
        .expect("generated footage is resident");
    summarize(dataset, targets, Algo::Edp, &report)
}

/// Runs parallel SS (Algorithm 3 as one stage-DAG submission) over
/// `targets` on `threads` threads.
///
/// # Panics
///
/// Panics if the scheduler fails — impossible without injected faults.
#[must_use]
pub fn run_ss_parallel(
    dataset: &EvDataset,
    targets: &BTreeSet<Eid>,
    threads: usize,
    seed: u64,
) -> RunSummary {
    dataset.video.reset_usage();
    let report = dag_match(
        &DagConfig::new(threads),
        &dataset.estore,
        &dataset.video,
        targets,
        seed,
        &VFilterConfig::default(),
        Telemetry::disabled(),
    )
    .expect("a fault-free run cannot fail");
    summarize(dataset, targets, Algo::Ss, &report)
}

/// Runs parallel EDP (one stage-DAG submission, one partition per
/// EID) over `targets` on `threads` threads.
///
/// # Panics
///
/// Panics if the scheduler fails — impossible without injected faults.
#[must_use]
pub fn run_edp_parallel(
    dataset: &EvDataset,
    targets: &BTreeSet<Eid>,
    threads: usize,
    seed: u64,
) -> RunSummary {
    dataset.video.reset_usage();
    let config = EdpConfig {
        seed,
        ..EdpConfig::default()
    };
    let report = match_edp_parallel(
        &DagConfig::new(threads),
        &dataset.estore,
        &dataset.video,
        targets,
        &config,
        Telemetry::disabled(),
    )
    .expect("a fault-free run cannot fail");
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

/// Averages a set of summaries point-wise (used to smooth over seeds).
///
/// # Panics
///
/// Panics on an empty slice or mixed algorithms.
#[must_use]
pub fn average(summaries: &[RunSummary]) -> RunSummary {
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
        let ss = run_ss(&d, &targets, 0);
        let edp = run_edp(&d, &targets, 0);
        assert_eq!(ss.algo.label(), "SS");
        assert_eq!(edp.algo.label(), "EDP");
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
        let ss = run_ss_parallel(&d, &targets, 2, 0);
        let edp = run_edp_parallel(&d, &targets, 2, 0);
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
    #[should_panic(expected = "zero runs")]
    fn average_empty_panics() {
        let _ = average(&[]);
    }
}
