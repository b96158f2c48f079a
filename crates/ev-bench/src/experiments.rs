//! Regeneration of every table and figure in the paper's evaluation
//! (§VI): Figs. 5–11 and Tables I–II.
//!
//! Absolute numbers differ from the paper's (synthetic substrate, one
//! machine instead of a 14-node Spark cluster); each table's notes state
//! the paper's values or expected shape so the comparison is explicit.
//! `EXPERIMENTS.md` records a full paper-vs-measured account.

use crate::report::{num, Table};
use crate::runner::{average, median_timings, run_edp, run_ss, RunSummary, TIMING_RUNS};
use ev_datagen::{sample_targets, DatasetConfig, EvDataset};
use ev_vision::cost::CostModel;

/// Experiment scale: `Full` mirrors the paper's axes; `Quick` shrinks
/// everything for tests and smoke runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-scale axes (1000 people, full sweeps).
    Full,
    /// Small axes for CI / integration tests.
    Quick,
}

impl Scale {
    fn population(self) -> u64 {
        match self {
            Scale::Full => 1000,
            Scale::Quick => 200,
        }
    }

    fn matched_axis(self) -> Vec<usize> {
        match self {
            Scale::Full => (1..=9).map(|i| i * 100).collect(),
            Scale::Quick => vec![40, 80],
        }
    }

    fn accuracy_axis(self) -> Vec<usize> {
        match self {
            Scale::Full => vec![200, 400, 600, 800],
            Scale::Quick => vec![40, 80],
        }
    }

    fn grid_sides(self) -> Vec<u32> {
        match self {
            Scale::Full => vec![10, 6, 4, 3, 2],
            Scale::Quick => vec![10, 4],
        }
    }

    fn seeds(self) -> Vec<u64> {
        match self {
            Scale::Full => vec![11, 23],
            Scale::Quick => vec![11],
        }
    }

    fn timing_matched_axis(self) -> Vec<usize> {
        match self {
            Scale::Full => (1..=8).map(|i| i * 100).collect(),
            Scale::Quick => vec![40, 80],
        }
    }
}

/// The base dataset of §VI-A at this scale (zero-cost vision model, for
/// counting and accuracy experiments).
fn base_dataset(scale: Scale) -> EvDataset {
    let config = DatasetConfig {
        population: scale.population(),
        ..DatasetConfig::paper()
    };
    EvDataset::generate(&config).expect("valid config")
}

/// A dataset over a coarser grid (Figs. 6 / 9, Table II density axis).
fn density_dataset(scale: Scale, side: u32, cost: CostModel) -> EvDataset {
    let config = DatasetConfig {
        population: scale.population(),
        cost,
        ..DatasetConfig::with_grid_side(side)
    };
    EvDataset::generate(&config).expect("valid config")
}

/// Threads for the timing figures: the paper's 14 workers, clamped to
/// this machine's parallelism.
fn timing_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(14))
}

fn averaged<F>(seeds: &[u64], mut run: F) -> RunSummary
where
    F: FnMut(u64) -> RunSummary,
{
    let runs: Vec<RunSummary> = seeds.iter().map(|&s| run(s)).collect();
    average(&runs)
}

/// Figs. 5 and 7: number of selected scenarios (total, reuse counted
/// once) and per matched EID, vs the number of matched EIDs.
#[must_use]
pub(crate) fn fig5_fig7(scale: Scale) -> (Table, Table) {
    let dataset = base_dataset(scale);
    let seeds = scale.seeds();

    let mut fig5 = Table::new(
        "fig5",
        "Number of selected scenarios vs number of matched EIDs",
        vec!["matched EIDs", "SS", "EDP"],
    );
    let mut fig7 = Table::new(
        "fig7",
        "Average number of selected scenarios per matched EID",
        vec!["matched EIDs", "SS", "EDP"],
    );
    for matched in scale.matched_axis() {
        let ss = averaged(&seeds, |s| {
            run_ss(&dataset, &sample_targets(&dataset, matched, s), 1, s)
        });
        let edp = averaged(&seeds, |s| {
            run_edp(&dataset, &sample_targets(&dataset, matched, s), 1, s)
        });
        fig5.push_row(vec![
            matched.to_string(),
            ss.selected.to_string(),
            edp.selected.to_string(),
        ]);
        fig7.push_row(vec![
            matched.to_string(),
            num(ss.per_eid, 2),
            num(edp.per_eid, 2),
        ]);
    }
    fig5.push_note(
        "paper expectation: SS selects far fewer scenarios than EDP and the gap \
         widens with the number of matched EIDs (paper: SS ~120..330, EDP ~230..590)",
    );
    fig7.push_note(
        "paper expectation: SS needs about one more scenario per EID than EDP \
         (paper: SS ~3.3..3.5, EDP ~2.4..2.8)",
    );
    (fig5, fig7)
}

/// Fig. 6: number of selected scenarios vs EID density, for 100 and 600
/// matched EIDs.
#[must_use]
pub(crate) fn fig6(scale: Scale) -> Table {
    let seeds = scale.seeds();
    let mut table = Table::new(
        "fig6",
        "Number of selected scenarios vs density",
        vec![
            "density (EIDs/cell)",
            "SS-100",
            "EDP-100",
            "SS-600",
            "EDP-600",
        ],
    );
    let (m_small, m_large) = match scale {
        Scale::Full => (100, 600),
        Scale::Quick => (20, 60),
    };
    for side in scale.grid_sides() {
        let dataset = density_dataset(scale, side, CostModel::free());
        let density = dataset.config.density();
        let ss_small = averaged(&seeds, |s| {
            run_ss(&dataset, &sample_targets(&dataset, m_small, s), 1, s)
        });
        let edp_small = averaged(&seeds, |s| {
            run_edp(&dataset, &sample_targets(&dataset, m_small, s), 1, s)
        });
        let ss_large = averaged(&seeds, |s| {
            run_ss(&dataset, &sample_targets(&dataset, m_large, s), 1, s)
        });
        let edp_large = averaged(&seeds, |s| {
            run_edp(&dataset, &sample_targets(&dataset, m_large, s), 1, s)
        });
        table.push_row(vec![
            num(density, 0),
            ss_small.selected.to_string(),
            edp_small.selected.to_string(),
            ss_large.selected.to_string(),
            edp_large.selected.to_string(),
        ]);
    }
    table.push_note(
        "paper expectation: SS decreases with density (converging around 40) because \
         each selected scenario is reused by more EIDs; EDP increases with density",
    );
    table.push_note(
        "density varies by re-dividing the fixed 1000m x 1000m region into fewer, \
         larger cells (square grid quantizes the axis); observation time scales \
         with cell size (see DESIGN.md)",
    );
    table
}

/// Fig. 8: E/V/total processing time vs number of matched EIDs, both
/// algorithms in parallel on `timing_threads` threads with the
/// vision cost model enabled.
#[must_use]
pub(crate) fn fig8(scale: Scale) -> Table {
    let config = DatasetConfig {
        population: scale.population(),
        cost: CostModel::default(),
        ..DatasetConfig::paper()
    };
    let dataset = EvDataset::generate(&config).expect("valid config");
    let threads = timing_threads();
    let mut table = Table::new(
        "fig8",
        "Processing time (s) vs number of matched EIDs",
        vec![
            "matched EIDs",
            "SS-E",
            "SS-V",
            "SS-E+V",
            "EDP-E",
            "EDP-V",
            "EDP-E+V",
        ],
    );
    for matched in scale.timing_matched_axis() {
        let targets = sample_targets(&dataset, matched, 11);
        let mut row = vec![matched.to_string()];
        row.extend(median_timings(|| run_ss(&dataset, &targets, threads, 11)));
        row.extend(median_timings(|| run_edp(&dataset, &targets, threads, 11)));
        table.push_row(row);
    }
    table.push_note(
        "paper expectation: E stage costs negligible time; V stage dominates; SS is \
         faster than EDP overall because EDP processes many more scenarios in its V stage",
    );
    table.push_note(format!(
        "{} worker threads (SS: the sequential pipeline with each wave of its walk scored as \
         one parallel map; EDP: an E map and a V map, one partition per EID); vision \
         cost model charges {} work units per extracted detection and {} per feature comparison; \
         each cell is the median of {TIMING_RUNS} runs",
        threads,
        CostModel::default().v_extraction,
        CostModel::default().v_comparison,
    ));
    table
}

/// Fig. 9: E/V/total processing time vs density.
#[must_use]
pub(crate) fn fig9(scale: Scale) -> Table {
    let threads = timing_threads();
    let matched = match scale {
        Scale::Full => 300,
        Scale::Quick => 60,
    };
    let mut table = Table::new(
        "fig9",
        "Processing time (s) vs density",
        vec![
            "density (EIDs/cell)",
            "SS-E",
            "SS-V",
            "SS-E+V",
            "EDP-E",
            "EDP-V",
            "EDP-E+V",
        ],
    );
    for side in scale.grid_sides() {
        let dataset = density_dataset(scale, side, CostModel::default());
        let targets = sample_targets(&dataset, matched, 11);
        let mut row = vec![num(dataset.config.density(), 0)];
        row.extend(median_timings(|| run_ss(&dataset, &targets, threads, 11)));
        row.extend(median_timings(|| run_edp(&dataset, &targets, threads, 11)));
        table.push_row(row);
    }
    table.push_note(
        "paper expectation: V dominates at every density; the SS/EDP gap grows with \
         density because SS's scenario reuse compounds while EDP's selections keep growing",
    );
    table.push_note(format!(
        "{threads} worker threads, as in fig8; each cell is the median of {TIMING_RUNS} runs"
    ));
    table
}

/// Table I: accuracy vs number of matched EIDs.
#[must_use]
pub(crate) fn table1(scale: Scale) -> Table {
    let dataset = base_dataset(scale);
    let seeds = scale.seeds();
    let mut table = Table::new(
        "table1",
        "Accuracy (%) with respect to the number of matched EIDs",
        vec!["matched EIDs", "SS", "EDP", "SS (paper)", "EDP (paper)"],
    );
    let paper_ss = [92.42, 90.60, 91.50, 89.12];
    let paper_edp = [93.0, 92.0, 88.21, 87.70];
    for (i, matched) in scale.accuracy_axis().into_iter().enumerate() {
        let ss = averaged(&seeds, |s| {
            run_ss(&dataset, &sample_targets(&dataset, matched, s), 1, s)
        });
        let edp = averaged(&seeds, |s| {
            run_edp(&dataset, &sample_targets(&dataset, matched, s), 1, s)
        });
        let (p_ss, p_edp) = if scale == Scale::Full && i < paper_ss.len() {
            (num(paper_ss[i], 2), num(paper_edp[i], 2))
        } else {
            ("-".into(), "-".into())
        };
        table.push_row(vec![
            matched.to_string(),
            num(ss.accuracy_pct, 2),
            num(edp.accuracy_pct, 2),
            p_ss,
            p_edp,
        ]);
    }
    table.push_note("paper expectation: both algorithms above ~85% and comparable");
    table
}

/// Table II: accuracy vs density.
#[must_use]
pub(crate) fn table2(scale: Scale) -> Table {
    let seeds = scale.seeds();
    let matched = match scale {
        Scale::Full => 400,
        Scale::Quick => 40,
    };
    let mut table = Table::new(
        "table2",
        "Accuracy (%) with respect to the density",
        vec![
            "density (EIDs/cell)",
            "SS",
            "EDP",
            "SS (paper)",
            "EDP (paper)",
        ],
    );
    // Paper's densities 30/60/100/160 quantized onto our 6/4/3/2 grid.
    let sides: Vec<u32> = match scale {
        Scale::Full => vec![6, 4, 3, 2],
        Scale::Quick => vec![10, 4],
    };
    let paper_ss = [92.04, 90.22, 88.0, 87.13];
    let paper_edp = [91.0, 87.0, 89.0, 88.20];
    for (i, side) in sides.into_iter().enumerate() {
        let dataset = density_dataset(scale, side, CostModel::free());
        let ss = averaged(&seeds, |s| {
            run_ss(&dataset, &sample_targets(&dataset, matched, s), 1, s)
        });
        let edp = averaged(&seeds, |s| {
            run_edp(&dataset, &sample_targets(&dataset, matched, s), 1, s)
        });
        let (p_ss, p_edp) = if scale == Scale::Full && i < paper_ss.len() {
            (num(paper_ss[i], 2), num(paper_edp[i], 2))
        } else {
            ("-".into(), "-".into())
        };
        table.push_row(vec![
            num(dataset.config.density(), 0),
            num(ss.accuracy_pct, 2),
            num(edp.accuracy_pct, 2),
            p_ss,
            p_edp,
        ]);
    }
    table.push_note(
        "paper densities 30/60/100/160 are quantized to 28/62/111/250 by the square grid",
    );
    table
}

/// Fig. 10: accuracy vs EID missing rate (device-less people), for SS
/// and EDP across the matched-EID axis.
#[must_use]
pub(crate) fn fig10(scale: Scale) -> Table {
    missing_sweep(
        scale,
        "fig10",
        "Accuracy (%) vs EID missing rate",
        &[0.01, 0.10, 0.30, 0.50],
        |config, rate| config.eid_missing_rate = rate,
        "paper expectation: accuracy degrades gently; still around 85% at a 50% missing \
         rate",
    )
}

/// Fig. 11: accuracy vs VID missing rate (missed detections), for SS and
/// EDP across the matched-EID axis.
#[must_use]
pub(crate) fn fig11(scale: Scale) -> Table {
    missing_sweep(
        scale,
        "fig11",
        "Accuracy (%) vs VID missing rate",
        &[0.02, 0.05, 0.08, 0.10],
        |config, rate| config.detection.miss_rate = rate,
        "paper expectation: VID missing hurts more than EID missing; SS stays above \
         ~80% at 10% via matching refining and beats EDP",
    )
}

fn missing_sweep(
    scale: Scale,
    id: &str,
    title: &str,
    rates: &[f64],
    mut apply: impl FnMut(&mut DatasetConfig, f64),
    note: &str,
) -> Table {
    let seeds = scale.seeds();
    let mut header = vec!["matched EIDs".to_string()];
    for rate in rates {
        header.push(format!("SS @{}%", num(rate * 100.0, 0)));
    }
    for rate in rates {
        header.push(format!("EDP @{}%", num(rate * 100.0, 0)));
    }
    let mut table = Table::new(id, title, header);

    // One dataset per rate, reused across the matched axis.
    let datasets: Vec<EvDataset> = rates
        .iter()
        .map(|&rate| {
            let mut config = DatasetConfig {
                population: scale.population(),
                ..DatasetConfig::paper()
            };
            apply(&mut config, rate);
            EvDataset::generate(&config).expect("valid config")
        })
        .collect();

    for matched in scale.accuracy_axis() {
        let mut row = vec![matched.to_string()];
        let mut ss_cells = Vec::new();
        let mut edp_cells = Vec::new();
        for dataset in &datasets {
            // The matched-EID sample must come from the EIDs that exist
            // (device-less people have none).
            let ss = averaged(&seeds, |s| {
                run_ss(dataset, &sample_targets(dataset, matched, s), 1, s)
            });
            let edp = averaged(&seeds, |s| {
                run_edp(dataset, &sample_targets(dataset, matched, s), 1, s)
            });
            ss_cells.push(num(ss.accuracy_pct, 1));
            edp_cells.push(num(edp.accuracy_pct, 1));
        }
        row.extend(ss_cells);
        row.extend(edp_cells);
        table.push_row(row);
    }
    table.push_note(note);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_fig5_fig7_have_expected_shape() {
        let (fig5, fig7) = fig5_fig7(Scale::Quick);
        assert_eq!(fig5.rows.len(), 2);
        assert_eq!(fig7.rows.len(), 2);
        // At Quick scale the world is sparse (density ~2/cell), where
        // scenario reuse barely bites — the strict SS < EDP shape claim
        // is asserted at full scale by the integration suite. Here we
        // only sanity-check the counts stay in the same ballpark.
        let last = fig5.rows.last().unwrap();
        let ss: f64 = last[1].parse().unwrap();
        let edp: f64 = last[2].parse().unwrap();
        assert!(ss > 0.0 && edp > 0.0);
        assert!(ss <= edp * 1.5, "SS {ss} wildly above EDP {edp}");
    }

    #[test]
    fn quick_table1_reports_accuracies() {
        let t = table1(Scale::Quick);
        assert_eq!(t.rows.len(), 2);
        for row in &t.rows {
            let ss: f64 = row[1].parse().unwrap();
            assert!(ss > 50.0, "SS accuracy {ss} too low");
        }
    }

    #[test]
    fn quick_fig6_covers_both_matched_sizes() {
        let t = fig6(Scale::Quick);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.header.len(), 5);
    }

    #[test]
    fn quick_fig8_times_are_positive_and_v_dominates() {
        let t = fig8(Scale::Quick);
        for row in &t.rows {
            let ss_e: f64 = row[1].parse().unwrap();
            let ss_v: f64 = row[2].parse().unwrap();
            let ss_total: f64 = row[3].parse().unwrap();
            assert!(ss_total > 0.0);
            assert!(ss_v >= ss_e, "V stage should dominate (E={ss_e}, V={ss_v})");
        }
    }

    #[test]
    fn quick_fig10_has_one_column_per_rate_and_side() {
        let t = fig10(Scale::Quick);
        assert_eq!(t.header.len(), 1 + 4 + 4);
        assert_eq!(t.rows.len(), 2);
    }
}
