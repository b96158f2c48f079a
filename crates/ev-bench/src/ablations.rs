//! Ablation studies for the design choices DESIGN.md calls out:
//! vague-zone width, refinement budget, mobility model and cluster
//! width.

use crate::experiments::Scale;
use crate::report::{num, Table};
use crate::runner::{median_timings, run_ss, TIMING_RUNS};
use ev_core::ids::Eid;
use ev_datagen::{sample_targets, score_report, DatasetConfig, EvDataset};
use ev_matching::{EvMatcher, MatchReport, MatcherConfig};
use ev_vision::cost::CostModel;
use std::collections::BTreeSet;

/// The matching pipeline under `config` on the calling thread.
fn run(dataset: &EvDataset, targets: &BTreeSet<Eid>, config: MatcherConfig) -> MatchReport {
    EvMatcher::new(&dataset.estore, &dataset.video, config)
        .match_many(targets)
        .expect("generated footage is resident")
}

fn scale_params(scale: Scale) -> (u64, u64, usize) {
    // (population, duration, matched)
    match scale {
        Scale::Full => (400, 400, 120),
        Scale::Quick => (120, 150, 30),
    }
}

/// Vague-zone width ablation under electronic drift noise.
#[must_use]
pub(crate) fn ablate_vague(scale: Scale) -> Table {
    let (population, duration, matched) = scale_params(scale);
    let mut table = Table::new(
        "ablate-vague",
        "Vague-zone width under drift (practical SS)",
        vec!["vague width (m)", "selected", "accuracy %"],
    );
    for width in [0.0, 5.0, 10.0, 20.0, 40.0] {
        let dataset = EvDataset::generate(&DatasetConfig {
            population,
            duration,
            vague_width: width,
            noise: ev_sensing::SensingNoise {
                sigma: 10.0,
                dropout: 0.02,
            },
            ..DatasetConfig::default()
        })
        .expect("valid config");
        let targets = sample_targets(&dataset, matched, 5);
        let summary = run_ss(&dataset, &targets, 1, 3);
        table.push_row(vec![
            num(width, 0),
            summary.selected.to_string(),
            num(summary.accuracy_pct, 1),
        ]);
    }
    table.push_note(
        "the vague band absorbs cross-border drift: too narrow misattributes drifted \
         EIDs, too wide wastes discriminating power (more scenarios needed)",
    );
    table
}

/// Refinement-budget ablation under heavy VID missing.
#[must_use]
pub(crate) fn ablate_refine(scale: Scale) -> Table {
    let (population, duration, matched) = scale_params(scale);
    let mut config = DatasetConfig {
        population,
        duration,
        ..DatasetConfig::default()
    };
    config.detection.miss_rate = 0.08;
    let dataset = EvDataset::generate(&config).expect("valid config");
    let targets = sample_targets(&dataset, matched, 5);

    let mut table = Table::new(
        "ablate-refine",
        "Matching-refining rounds at 8% VID missing",
        vec!["max rounds", "accuracy %", "selected"],
    );
    for rounds in [1u32, 2, 3, 5] {
        dataset.video.reset_usage();
        let config = MatcherConfig {
            max_rounds: rounds,
            ..MatcherConfig::default()
        };
        let report = run(&dataset, &targets, config);
        let stats = score_report(&dataset, &report);
        table.push_row(vec![
            rounds.to_string(),
            num(stats.percent(), 1),
            report.selected_count().to_string(),
        ]);
    }
    table.push_note(
        "Algorithm 2's loop trades extra selected scenarios for accuracy when VIDs \
         go missing; gains flatten once the stubborn tail is exhausted",
    );
    table
}

/// Mobility-model sensitivity: the matching results should not hinge on
/// the random-waypoint assumption the paper evaluates with.
#[must_use]
pub(crate) fn ablate_mobility(scale: Scale) -> Table {
    use ev_datagen::Mobility;
    use ev_mobility::{ManhattanParams, WalkParams, WaypointParams};
    let (population, duration, matched) = scale_params(scale);
    let mut table = Table::new(
        "ablate-mobility",
        "Mobility-model sensitivity (SS, sequential)",
        vec!["model", "selected", "per EID", "accuracy %"],
    );
    let models: [(&str, Mobility); 3] = [
        (
            "random-waypoint",
            Mobility::RandomWaypoint(WaypointParams::default()),
        ),
        ("random-walk", Mobility::RandomWalk(WalkParams::default())),
        ("manhattan", Mobility::Manhattan(ManhattanParams::default())),
    ];
    for (name, mobility) in models {
        let dataset = EvDataset::generate(&DatasetConfig {
            population,
            duration,
            mobility,
            ..DatasetConfig::default()
        })
        .expect("valid config");
        let targets = sample_targets(&dataset, matched, 5);
        let summary = run_ss(&dataset, &targets, 1, 3);
        table.push_row(vec![
            name.to_string(),
            summary.selected.to_string(),
            num(summary.per_eid, 2),
            num(summary.accuracy_pct, 1),
        ]);
    }
    table.push_note(
        "spatiotemporal matching needs people to separate over time; models that mix          the population more slowly (e.g. street-constrained walks) need more scenarios",
    );
    table
}

/// Cluster-width ablation: wall time of the parallel pipeline (each
/// wave of the walk scored as one `par_map`) vs worker-thread count.
#[must_use]
pub(crate) fn ablate_workers(scale: Scale) -> Table {
    let (population, duration, matched) = scale_params(scale);
    let dataset = EvDataset::generate(&DatasetConfig {
        population,
        duration,
        cost: CostModel::default(),
        ..DatasetConfig::default()
    })
    .expect("valid config");
    let targets = sample_targets(&dataset, matched, 5);

    let mut table = Table::new(
        "ablate-workers",
        "Parallel pipeline wall time vs cluster width",
        vec!["workers", "E secs", "V secs", "total secs"],
    );
    let max_workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    for workers in [1usize, 2, 4, 8, 14] {
        // Beyond twice the hardware threads a wall time only measures
        // oversubscription.
        let [e_secs, v_secs, total_secs] = if workers > max_workers.max(2) * 2 {
            ["-"; 3].map(String::from)
        } else {
            median_timings(|| run_ss(&dataset, &targets, workers, 3))
        };
        table.push_row(vec![workers.to_string(), e_secs, v_secs, total_secs]);
    }
    table.push_note(format!(
        "this machine exposes {max_workers} hardware threads; wall speedup saturates there; \
         each cell is the median of {TIMING_RUNS} runs"
    ));
    table.push_note(
        "the report is the sequential pipeline's at every width; one worker runs it inline",
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vague_ablation_covers_widths() {
        let t = ablate_vague(Scale::Quick);
        assert_eq!(t.rows.len(), 5);
    }

    #[test]
    fn refine_ablation_is_monotone_ish() {
        let t = ablate_refine(Scale::Quick);
        assert_eq!(t.rows.len(), 4);
        let first: f64 = t.rows[0][1].parse().unwrap();
        let last: f64 = t.rows[3][1].parse().unwrap();
        assert!(
            last >= first - 10.0,
            "more rounds should not hurt much ({first} -> {last})"
        );
    }

    #[test]
    fn mobility_ablation_covers_models() {
        let t = ablate_mobility(Scale::Quick);
        assert_eq!(t.rows.len(), 3);
        for row in &t.rows {
            let acc: f64 = row[3].parse().unwrap();
            assert!(acc > 30.0, "{} collapsed to {acc}%", row[0]);
        }
    }

    #[test]
    fn workers_ablation_prices_every_width() {
        let t = ablate_workers(Scale::Quick);
        assert_eq!(t.rows.len(), 5);
        // One and two workers always run; a width is either timed in
        // full or left blank in full.
        for (i, row) in t.rows.iter().enumerate() {
            let timed = row[1..].iter().filter(|cell| *cell != "-").count();
            assert!(timed == 3 || (i >= 2 && timed == 0), "{row:?}");
        }
    }
}
