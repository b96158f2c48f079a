//! `evbench`: the repo's benchmark. One run measures one workload:
//!
//! ```text
//! evbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! ```
//!
//! Load shape: closed loop, one client, one process per workload. The
//! harness starts no threads; the only extra threads are the program's
//! own in `universal-threads`. `--trace 0` measures the end-to-end
//! metrics with tracing off; `--trace 1` repeats the workload under the
//! harness's span recorder for the per-layer metrics and writes the
//! spans to `benchmark/out/trace-<workload>.json`. The last line of
//! standard output is the result as one JSON object; the table above it
//! adds sample counts and whatever else the pass measured, and
//! `benchmark/out/result-<workload>-trace<0|1>.json` keeps the result.

mod adapter;
mod batch;
mod catalogue;
mod serve;
mod stats;
mod trace;

use catalogue::{Def, END_TO_END, PER_LAYER, WORKLOADS};
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Corpora per untraced run, from consecutive sub-seeds. Each is set up
/// once, so `setup_s` is a median of this many set-ups.
pub const CORPORA: usize = 3;
/// Ops discarded at the start of each corpus.
pub const WARMUP_OPS: usize = 3;
/// An op whose report scores below this against ground truth has failed.
pub const ACCURACY_FLOOR: f64 = 0.85;

#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny populations: a smoke run, not a measurement.
    pub quick: bool,
}

impl Opts {
    /// The datagen seed of corpus `k` of this run.
    pub fn corpus_seed(&self, k: usize) -> u64 {
        self.seed * 16 + k as u64
    }
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// What one run produced: every metric it measured, by name.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            samples,
        });
    }

    /// Pushes percentile `p` of `values`, with their count as its
    /// samples; nothing when the workload produced no such value.
    pub fn push_percentile(&mut self, name: &'static str, values: &[f64], p: u32) {
        if !values.is_empty() {
            self.push(name, stats::percentile(values, p), values.len());
        }
    }

    /// Counts one failed op; the first few reasons go to standard error.
    pub fn fail(&mut self, reason: &str) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("evbench: op failed: {reason}");
        }
    }

    fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// The directory for traces, results and temporary corpora: inside the
/// checkout, beside the harness's sources.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A scratch directory removed when dropped — on failure too.
struct TempDir(PathBuf);

impl TempDir {
    fn create() -> std::io::Result<TempDir> {
        let dir = out_dir().join(format!("tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `VmHWM` of this process, MiB. The untraced pass reads it when its
/// first corpus is done: what later corpora add on top depends on how
/// the allocator reuses what the first one freed, not on the program.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            opts.quick = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 60.0) {
                    return Err(bad("within (0, 60]"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.iter().any(|(name, _)| *name == opts.workload) {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.0).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    Ok(opts)
}

/// Runs one workload and returns what it measured.
pub fn run(opts: &Opts, tmp: &Path, rec: &mut trace::Recorder) -> Result<Outcome, String> {
    let kind = match opts.workload.as_str() {
        "universal-paper" => batch::Kind::UniversalPaper,
        "dense-query" => batch::Kind::DenseQuery,
        "universal-threads" => batch::Kind::UniversalThreads,
        _ => return serve::run(opts, tmp, rec),
    };
    if opts.trace {
        batch::run_traced(kind, opts, tmp, rec)
    } else {
        batch::run_untraced(kind, opts, tmp)
    }
}

/// The result object: exactly the metrics of `defs`, in their order. A
/// per-layer metric the workload does not drive reads `0`.
fn result_json(outcome: &Outcome, defs: &[Def]) -> Value {
    let metrics = defs
        .iter()
        .map(|def| {
            let value = outcome.get(def.name).map_or(0.0, |m| m.value);
            let entry = Value::Obj(vec![
                ("value".into(), Value::Float(value)),
                ("unit".into(), Value::Str(def.unit.into())),
            ]);
            (def.name.to_string(), entry)
        })
        .collect();
    Value::Obj(vec![
        ("correct".into(), Value::Bool(outcome.failed == 0)),
        (
            "attempted".into(),
            Value::Int(i128::from(outcome.attempted)),
        ),
        ("failed".into(), Value::Int(i128::from(outcome.failed))),
        ("metrics".into(), Value::Obj(metrics)),
    ])
}

/// Every catalogued metric the pass measured, whichever list it is in.
fn print_table(opts: &Opts, outcome: &Outcome) {
    println!(
        "workload {}  seed {}  window {} s  trace {}  nproc {}  program threads {}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        std::thread::available_parallelism().map_or(1, usize::from),
        batch::threads(),
    );
    for def in END_TO_END.iter().chain(&PER_LAYER) {
        let Some(m) = outcome.get(def.name) else {
            continue;
        };
        let bound = def
            .bound
            .map_or(String::new(), |b| format!("  bound {:.0}%", b * 100.0));
        let tail = stats::supported_tail(m.samples)
            .map_or(String::new(), |p| format!("  tail p{p} supported"));
        let better = if def.higher { "higher" } else { "lower" };
        println!(
            "  {:<34} {:>16.6} {:<6} n={}  better {better}{bound}{tail}",
            def.name, m.value, def.unit, m.samples
        );
    }
    println!(
        "  ops_attempted {}  ops_failed {}  failed_share {}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("evbench: {e}");
            return ExitCode::from(2);
        }
    };
    let defs: &[Def] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let mut rec = trace::Recorder::new(opts.trace);
    let outcome = TempDir::create()
        .map_err(|e| format!("cannot create a scratch directory: {e}"))
        .and_then(|tmp| run(&opts, &tmp.0, &mut rec));
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("evbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(missing) = defs
        .iter()
        .find(|d| d.bound.is_some() && outcome.get(d.name).is_none())
    {
        eprintln!("evbench: {} was not measured", missing.name);
        return ExitCode::FAILURE;
    }

    print_table(&opts, &outcome);
    let result = result_json(&outcome, defs);
    let out = out_dir();
    let written = std::fs::create_dir_all(&out)
        .and_then(|()| {
            std::fs::write(
                out.join(format!(
                    "result-{}-trace{}.json",
                    opts.workload,
                    u8::from(opts.trace)
                )),
                result.to_json_pretty(),
            )
        })
        .and_then(|()| {
            if !opts.trace {
                return Ok(());
            }
            std::fs::write(
                out.join(format!("trace-{}.json", opts.workload)),
                rec.chrome_trace().to_json(),
            )
        });
    if let Err(e) = written {
        eprintln!("evbench: cannot write under {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(workload: &str, trace: bool) -> Opts {
        Opts {
            workload: workload.into(),
            seed: 42,
            seconds: 0.3,
            trace,
            quick: true,
        }
    }

    /// Tiny populations through all four workloads, both passes, and
    /// the JSON emitter: every catalogued end-to-end metric is measured
    /// and non-zero, no op fails, and the result line parses.
    #[test]
    fn quick_smoke_covers_every_workload_and_the_emitter() {
        let tmp = TempDir::create().unwrap();
        for (workload, _) in WORKLOADS {
            for trace in [false, true] {
                let opts = quick(workload, trace);
                let mut rec = trace::Recorder::new(trace);
                let outcome = run(&opts, &tmp.0, &mut rec).unwrap();
                assert!(outcome.attempted > 0);
                assert_eq!(outcome.failed, 0, "{workload} trace={trace}");
                let defs: &[Def] = if trace { &PER_LAYER } else { &END_TO_END };
                let text = result_json(&outcome, defs).to_json();
                let parsed = serde::value::parse(&text).unwrap();
                assert_eq!(parsed.get("correct"), Some(&Value::Bool(true)));
                let metrics = parsed.get("metrics").unwrap().as_obj().unwrap();
                assert_eq!(metrics.len(), defs.len());
                for ((name, entry), def) in metrics.iter().zip(defs) {
                    assert_eq!(name, def.name);
                    let Some(Value::Float(value)) = entry.get("value") else {
                        panic!("{name} has no numeric value");
                    };
                    if !trace {
                        assert!(*value > 0.0, "{workload}: {name} = {value}");
                    }
                }
                if trace {
                    assert!(!rec.spans().is_empty());
                    // `dense-query`'s op is one call with no child spans.
                    if let Some(coverage) = outcome.get("trace.coverage") {
                        let coverage = coverage.value;
                        assert!(coverage > 0.5, "{workload}: coverage {coverage}");
                    }
                }
            }
        }
    }

    /// `BENCHMARK.json` and the catalogue name the same workloads and
    /// metrics, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_mirrors_the_catalogue() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = serde::value::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let str_of = |v: &Value, key: &str| match v.get(key) {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let workloads = doc.get("workloads").unwrap().as_arr().unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (entry, (name, why)) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(str_of(entry, "name"), name);
            assert_eq!(str_of(entry, "why"), why);
            assert!(why.len() <= 200);
        }
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let entries = doc.get(key).unwrap().as_arr().unwrap();
            assert_eq!(entries.len(), defs.len(), "{key}");
            for (entry, def) in entries.iter().zip(defs) {
                assert_eq!(str_of(entry, "name"), def.name);
                assert_eq!(str_of(entry, "unit"), def.unit);
                let better = if def.higher { "higher" } else { "lower" };
                assert_eq!(str_of(entry, "better"), better, "{}", def.name);
                let bound = match entry.get("bound") {
                    Some(Value::Float(b)) => Some(*b),
                    Some(Value::Int(b)) => Some(*b as f64),
                    _ => None,
                };
                assert_eq!(bound, def.bound, "{}", def.name);
            }
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let ok = parse_args(&args(
            "--workload dense-query --seed 7 --seconds 30 --trace 1",
        ));
        let ok = ok.unwrap();
        assert_eq!(
            (ok.seed, ok.seconds, ok.trace, ok.quick),
            (7, 30.0, true, false)
        );
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload dense-query --trace 2")).is_err());
        assert!(parse_args(&args("--workload dense-query --seconds 0")).is_err());
        assert!(parse_args(&args("--seed 1")).is_err());
    }
}
