//! Experiment runner CLI: regenerates the paper's tables and figures.
//!
//! ```text
//! experiments [--quick] [--out DIR] <id>... | all
//! ```
//!
//! Known ids: fig5, fig7, fig5+7 (both from one sweep), fig6, fig8,
//! fig9, fig10, fig11, table1, table2, ablate-vague, ablate-refine,
//! ablate-mobility, ablate-workers, all.
//!
//! Every id and flag is resolved before anything runs: an unknown one,
//! or `--out` without its directory, is an argument error (exit 2) and
//! writes nothing. A table that cannot be saved ends the run with exit 1.

use ev_bench::{all_experiment_ids, experiment, Scale};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let mut scale = Scale::Full;
    let mut out_dir = PathBuf::from("results");
    let mut ids: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => scale = Scale::Quick,
            "--out" => match args.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => return usage_error("--out needs a directory"),
            },
            "--help" | "-h" => {
                print_usage();
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => return usage_error(&format!("unknown flag {flag}")),
            id => ids.push(id.to_string()),
        }
    }
    if ids.is_empty() {
        return usage_error("no experiment id given");
    }
    if ids.iter().any(|i| i == "all") {
        ids = all_experiment_ids()
            .iter()
            .map(ToString::to_string)
            .collect();
    }
    let mut runs = Vec::with_capacity(ids.len());
    for id in &ids {
        let Some(run) = experiment(id) else {
            return usage_error(&format!("unknown experiment id: {id}"));
        };
        runs.push((id, run));
    }

    let overall = Instant::now();
    for (id, run) in runs {
        let start = Instant::now();
        for table in run(scale) {
            println!("{table}");
            if let Err(e) = table.save_json(&out_dir) {
                eprintln!("error: could not save {}.json: {e}", table.id);
                return ExitCode::FAILURE;
            }
        }
        println!("[{id} took {:.1?}]\n", start.elapsed());
    }
    println!(
        "all done in {:.1?}; JSON results in {}",
        overall.elapsed(),
        out_dir.display()
    );
    ExitCode::SUCCESS
}

/// Reports an argument error with the usage and exits 2.
fn usage_error(message: &str) -> ExitCode {
    eprintln!("argument error: {message}");
    eprintln!("usage: experiments [--quick] [--out DIR] <id>... | all");
    eprintln!("known ids: {}", all_experiment_ids().join(", "));
    ExitCode::from(2)
}

fn print_usage() {
    println!("usage: experiments [--quick] [--out DIR] <id>... | all");
    println!("known ids: {}", all_experiment_ids().join(", "));
}
