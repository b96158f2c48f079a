//! Experiment harness for the EV-Matching reproduction.
//!
//! Every table and figure of the paper's evaluation (§VI) has a
//! regeneration function here; the `experiments` binary dispatches on
//! experiment ids and writes results to stdout and `results/*.json`.
//!
//! ```text
//! cargo run --release -p ev-bench --bin experiments -- all
//! cargo run --release -p ev-bench --bin experiments -- fig5 table1
//! cargo run --release -p ev-bench --bin experiments -- --quick all
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod experiments;
pub mod report;
pub mod runner;

pub use experiments::Scale;
pub use report::Table;

/// The regeneration function behind an experiment id, or `None` for an
/// unknown id. `fig5` and `fig7` share their sweep and each id returns
/// its own table.
fn experiment(id: &str) -> Option<fn(Scale) -> Vec<Table>> {
    let run: fn(Scale) -> Vec<Table> = match id {
        "fig5" => |scale| vec![experiments::fig5_fig7(scale).0],
        "fig7" => |scale| vec![experiments::fig5_fig7(scale).1],
        "fig5+7" | "fig5_7" => |scale| {
            let (a, b) = experiments::fig5_fig7(scale);
            vec![a, b]
        },
        "fig6" => |scale| vec![experiments::fig6(scale)],
        "fig8" => |scale| vec![experiments::fig8(scale)],
        "fig9" => |scale| vec![experiments::fig9(scale)],
        "fig10" => |scale| vec![experiments::fig10(scale)],
        "fig11" => |scale| vec![experiments::fig11(scale)],
        "table1" => |scale| vec![experiments::table1(scale)],
        "table2" => |scale| vec![experiments::table2(scale)],
        "ablate-selection" => |scale| vec![ablations::ablate_selection(scale)],
        "ablate-vague" => |scale| vec![ablations::ablate_vague(scale)],
        "ablate-refine" => |scale| vec![ablations::ablate_refine(scale)],
        "ablate-mobility" => |scale| vec![ablations::ablate_mobility(scale)],
        "ablate-workers" => |scale| vec![ablations::ablate_workers(scale)],
        _ => return None,
    };
    Some(run)
}

/// Runs the experiment with the given id at the given scale.
///
/// Returns `None` for an unknown id.
#[must_use]
pub fn run_experiment(id: &str, scale: Scale) -> Option<Vec<Table>> {
    experiment(id).map(|run| run(scale))
}

/// All experiment ids in presentation order.
#[must_use]
pub fn all_experiment_ids() -> Vec<&'static str> {
    vec![
        "fig5+7",
        "fig6",
        "fig8",
        "fig9",
        "table1",
        "table2",
        "fig10",
        "fig11",
        "ablate-selection",
        "ablate-vague",
        "ablate-refine",
        "ablate-mobility",
        "ablate-workers",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_experiment_is_none() {
        assert!(run_experiment("fig99", Scale::Quick).is_none());
    }

    #[test]
    fn all_ids_resolve() {
        // Dispatch only; running them all is the integration suite's job.
        for id in all_experiment_ids() {
            assert!(
                experiment(id).is_some(),
                "{id} is listed but not dispatched"
            );
        }
        assert!(experiment("fig99").is_none());
        // A known-cheap one end to end.
        let tables = run_experiment("ablate-vague", Scale::Quick).unwrap();
        assert_eq!(tables.len(), 1);
    }
}
