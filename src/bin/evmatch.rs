//! `evmatch` — command-line front end for the EV-Matching reproduction.
//!
//! ```text
//! evmatch generate  [--population N] [--duration T] [--seed S] [--json]
//! evmatch ingest    --data-dir DIR [--population N] [--duration T]
//!                   [--seed S] [--json] [telemetry flags]
//! evmatch serve     --data-dir DIR [--apply-every N]
//!                   [--checkpoint-every N] [--population N]
//!                   [--duration T] [--seed S] [--targets K]
//!                   [--mode ideal|practical] [--threads N]
//!                   [--recovery strict|salvage] [telemetry flags]
//! evmatch match     [--population N] [--duration T] [--seed S]
//!                   [--targets K] [--mode ideal|practical]
//!                   [--threads N] [--universal] [--json]
//!                   [--data-dir DIR] [--recovery strict|salvage]
//!                   [telemetry flags]
//! evmatch query     [the flags of match but --json]
//!                   --eid HEX | --cell C [--from T0] [--to T1]
//! evmatch check-metrics --in PATH | --smoke [--seed S]
//!
//! telemetry flags:  [--telemetry off|counters|full] [--trace-out PATH]
//!                   [--metrics-out PATH] [--flight-dir DIR]
//!                   [--serve-metrics ADDR [--serve-hold-ms MS]]
//! ```
//!
//! Datasets are regenerated deterministically from their parameters, so
//! the CLI needs no dataset files: the same flags always rebuild the
//! same world. `ingest` additionally persists the generated corpus into
//! an `ev-disk` segment directory, and `match`/`query` given
//! `--data-dir` load the corpus from that directory instead of from
//! memory — the matching pipeline and its report are identical either
//! way (ground truth for scoring still comes from the regenerated
//! dataset), and `query` answers from the corpus its match read. A
//! corpus interrupted mid-append is healed on open; pass `--recovery
//! salvage` to additionally keep the valid prefix of a damaged (not
//! merely torn) corpus.
//!
//! `serve` turns the same corpus into a long-running **streaming
//! service**: events arrive incrementally, queries run against a
//! consistent applied snapshot, and every answer reports its staleness
//! (see [`evmatch::serve`] and the stdin protocol on `cmd_serve`).
//!
//! The matcher runs Algorithms 1–2 (set splitting, VID filtering,
//! refinement) in either `--mode`. Without `--threads`, or with
//! `--threads 1`, it runs on the calling thread. `--threads N` for `N`
//! ≥ 2 scores each wave of every round's exclusion walk (Algorithm 3)
//! as one `ev_dag::par_map` (`DESIGN.md` §7) on `N` real threads (at
//! most one per partition of the map; `N` must be at least 1). The
//! report is the same at every `N`, so the value only changes wall
//! time. `--universal` matches every EID present in the E-data instead
//! of a sampled target set.
//!
//! `--metrics-out` implies the `counters` telemetry level and
//! `--trace-out` implies `full`; an explicit `--telemetry` wins over
//! both (so `--telemetry off` always runs the uninstrumented paths).
//! `check-metrics --in PATH` strictly parses an exported Prometheus
//! profile, refuses any value it reads that is not finite and `>= 0`
//! (a count or bound that is not whole, `evm_fully_split` other than
//! 0 or 1), and verifies the Theorem 4.2/4.4 invariant
//! `log2(n) <= recorded <= n-1` whenever the run reported a fully split
//! first round, plus the set-splitting consistency
//! `examined >= recorded_total >= recorded` that holds in both split
//! modes and under `--threads` (a profile whose splitter exported
//! nothing fails it). `check-metrics --smoke` instead runs an in-process
//! battery that exercises every subsystem **without** preregistering
//! the metric schema, then fails if any canonical name in
//! `ev_telemetry::names` was never emitted — the guard that keeps
//! `names.rs` and the instrumentation sites from drifting apart.
//!
//! `--serve-metrics ADDR` starts the live observability endpoint for
//! the duration of the run (`/metrics`, `/healthz`, `/tracez`; see
//! `DESIGN.md` §5). `--serve-hold-ms MS` keeps the process (and the
//! endpoint) alive that long after the run finishes so external
//! scrapers get a stable window. The flight recorder is always on for
//! CLI runs: on a worker panic or detected disk corruption, the ring
//! of recent spans/instants/counter deltas is dumped to
//! `flight-<ts>-<n>.json` in `--flight-dir` (default `.`).
//!
//! Argument errors — an unknown subcommand or flag, a flag the
//! subcommand does not read (each flag's readers are listed in
//! `SUBCOMMAND_FLAGS`), a bad value, a missing required flag
//! (`--data-dir` of `ingest` and `serve`, `--in` or `--smoke` of
//! `check-metrics`), both `--in` and `--smoke`, `--seed` with `--in`,
//! `--serve-hold-ms` without `--serve-metrics`, a `query` without its
//! question — exit 2;
//! runtime errors exit 1.

use ev_telemetry::{names, prometheus, MetricsServer, Telemetry, TelemetryLevel};
use evmatch::core::region::CellId;
use evmatch::core::time::{TimeRange, Timestamp};
use evmatch::disk::format::{FRAME_OVERHEAD, HEADER_LEN};
use evmatch::disk::{AppendReceipt, DiskBackend, DiskError, DiskStore, RecoveryMode};
use evmatch::matching::refine::SplitMode;
use evmatch::prelude::*;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

#[derive(Debug)]
struct CommonArgs {
    population: u64,
    duration: u64,
    seed: u64,
    targets: usize,
    mode: SplitMode,
    threads: Option<usize>,
    universal: bool,
    json: bool,
    telemetry: Option<TelemetryLevel>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    data_dir: Option<String>,
    recovery: RecoveryMode,
    serve_metrics: Option<String>,
    serve_hold_ms: u64,
    flight_dir: Option<String>,
    smoke: bool,
    /// `serve --apply-every N` (`0` = apply on command only).
    apply_every: usize,
    /// `serve --checkpoint-every N`.
    checkpoint_every: u64,
    /// `check-metrics --in PATH`.
    metrics_in: Option<String>,
    /// What `query` asks, checked before its match runs.
    query: Option<Query>,
}

/// The question `evmatch query` puts to the matched corpus.
#[derive(Debug)]
enum Query {
    /// `--eid HEX`: one EID's identity, trail and contacts.
    Eid(Eid),
    /// `--cell C [--from T0] [--to T1]`: the matched identities present
    /// in cell `C` during `[T0, T1)`.
    Cell { cell: usize, from: u64, to: u64 },
}

const QUERY_USAGE: &str = "query needs --eid HEX or --cell N [--from T0 --to T1]";

impl CommonArgs {
    /// The telemetry level in force: explicit `--telemetry` wins, else
    /// the strongest level an output flag implies, else off.
    /// `--serve-metrics` implies `full` so the live `/tracez` endpoint
    /// has spans to show (an explicit `--telemetry` still wins).
    fn telemetry_level(&self) -> TelemetryLevel {
        if let Some(level) = self.telemetry {
            return level;
        }
        if self.trace_out.is_some() || self.serve_metrics.is_some() {
            TelemetryLevel::Full
        } else if self.metrics_out.is_some() {
            TelemetryLevel::Counters
        } else {
            TelemetryLevel::Off
        }
    }

    /// Arms the always-on flight recorder for this invocation and
    /// points dumps at `--flight-dir` (default: the working directory).
    fn arm_flight_recorder(&self, telemetry: &Telemetry) {
        telemetry.flight().set_enabled(true);
        let dir = self.flight_dir.clone().unwrap_or_else(|| ".".to_string());
        telemetry.set_flight_dir(Some(dir.into()));
    }

    /// Starts the `--serve-metrics` endpoint if requested; the returned
    /// guard keeps it alive until dropped.
    fn start_metrics_server(&self, telemetry: &Telemetry) -> Result<Option<MetricsServer>, String> {
        let Some(addr) = &self.serve_metrics else {
            return Ok(None);
        };
        let server = MetricsServer::start(addr.as_str(), telemetry)
            .map_err(|e| format!("binding metrics endpoint {addr}: {e}"))?;
        eprintln!("serving metrics on http://{}/metrics", server.addr());
        Ok(Some(server))
    }

    /// Holds the process (and a live endpoint) open for
    /// `--serve-hold-ms` before the server guard drops.
    fn hold_metrics_server(&self, server: Option<MetricsServer>) {
        if server.is_some() && self.serve_hold_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(self.serve_hold_ms));
        }
        drop(server);
    }
}

/// The subcommands that generate the dataset the flags describe.
const DATASET: &[&str] = &["generate", "ingest", "serve", "match", "query"];
/// The subcommands that run with a telemetry handle and may use a corpus.
const RUNS: &[&str] = &["ingest", "serve", "match", "query"];
/// The subcommands that match.
const MATCHES: &[&str] = &["serve", "match", "query"];

/// Every flag, each with the subcommands that read it.
const SUBCOMMAND_FLAGS: &[(&str, &[&str])] = &[
    ("--population", DATASET),
    ("--duration", DATASET),
    (
        "--seed",
        &[
            "generate",
            "ingest",
            "serve",
            "match",
            "query",
            "check-metrics",
        ],
    ),
    ("--json", &["generate", "ingest", "match"]),
    ("--targets", MATCHES),
    ("--mode", MATCHES),
    ("--threads", MATCHES),
    ("--recovery", MATCHES),
    ("--universal", &["match", "query"]),
    ("--telemetry", RUNS),
    ("--trace-out", RUNS),
    ("--metrics-out", RUNS),
    ("--serve-metrics", RUNS),
    ("--serve-hold-ms", RUNS),
    ("--flight-dir", RUNS),
    ("--data-dir", RUNS),
    ("--apply-every", &["serve"]),
    ("--checkpoint-every", &["serve"]),
    ("--in", &["check-metrics"]),
    ("--smoke", &["check-metrics"]),
    ("--eid", &["query"]),
    ("--cell", &["query"]),
    ("--from", &["query"]),
    ("--to", &["query"]),
];

/// Parses the flags of `command`. A flag nobody reads must not be
/// swallowed: an unknown one, or one `command` does not read, is an
/// argument error, so a retired or misspelt execution flag can never
/// silently select the sequential pipeline.
fn parse_args(command: &str, args: &[String]) -> Result<CommonArgs, String> {
    let mut out = CommonArgs {
        population: 300,
        duration: 400,
        seed: 42,
        targets: 50,
        mode: SplitMode::Practical,
        threads: None,
        universal: false,
        json: false,
        telemetry: None,
        trace_out: None,
        metrics_out: None,
        data_dir: None,
        recovery: RecoveryMode::Strict,
        serve_metrics: None,
        serve_hold_ms: 0,
        flight_dir: None,
        smoke: false,
        apply_every: 0,
        checkpoint_every: 1024,
        metrics_in: None,
        query: None,
    };
    let (mut eid, mut cell, mut from, mut to) = (None, None, None, None);
    let (mut hold, mut seeded) = (None, false);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if let Some((_, readers)) = SUBCOMMAND_FLAGS.iter().find(|(flag, _)| flag == arg) {
            if !readers.contains(&command) {
                let owners: Vec<String> =
                    readers.iter().map(|r| format!("`evmatch {r}`")).collect();
                return Err(format!("flag {arg} belongs to {}", owners.join(" or ")));
            }
        }
        let mut take = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {arg} needs a value"))
        };
        match arg.as_str() {
            "--population" => out.population = value(&take()?)?,
            "--duration" => out.duration = value(&take()?)?,
            "--seed" => {
                out.seed = value(&take()?)?;
                seeded = true;
            }
            "--targets" => out.targets = value(&take()?)?,
            "--threads" => {
                let n: usize = value(&take()?)?;
                if n == 0 {
                    return Err("--threads must be at least 1".into());
                }
                out.threads = Some(n);
            }
            "--universal" => out.universal = true,
            "--mode" => {
                out.mode = match take()?.as_str() {
                    "ideal" => SplitMode::Ideal,
                    "practical" => SplitMode::Practical,
                    other => return Err(format!("unknown mode {other}")),
                }
            }
            "--json" => out.json = true,
            "--telemetry" => out.telemetry = Some(take()?.parse()?),
            "--trace-out" => out.trace_out = Some(take()?),
            "--metrics-out" => out.metrics_out = Some(take()?),
            "--data-dir" => out.data_dir = Some(take()?),
            "--serve-metrics" => out.serve_metrics = Some(take()?),
            "--serve-hold-ms" => hold = Some(value(&take()?)?),
            "--flight-dir" => out.flight_dir = Some(take()?),
            "--smoke" => out.smoke = true,
            "--recovery" => {
                out.recovery = match take()?.as_str() {
                    "strict" => RecoveryMode::Strict,
                    "salvage" => RecoveryMode::Salvage,
                    other => return Err(format!("unknown recovery mode {other}")),
                }
            }
            "--apply-every" => out.apply_every = value(&take()?)?,
            "--checkpoint-every" => out.checkpoint_every = value(&take()?)?,
            "--in" => out.metrics_in = Some(take()?),
            "--eid" => eid = Some(value(&take()?)?),
            "--cell" => cell = Some(value(&take()?)?),
            "--from" => from = Some(value(&take()?)?),
            "--to" => to = Some(value(&take()?)?),
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => return Err(format!("unexpected argument {other}")),
        }
    }
    if command == "query" {
        out.query = Some(match (eid, cell) {
            (Some(eid), None) if from.is_none() && to.is_none() => Query::Eid(eid),
            (None, Some(cell)) => Query::Cell {
                cell,
                from: from.unwrap_or(0),
                to: to.unwrap_or(out.duration),
            },
            _ => return Err(QUERY_USAGE.into()),
        });
    }
    let missing = match command {
        "ingest" | "serve" if out.data_dir.is_none() => Some("--data-dir DIR"),
        "check-metrics" if out.metrics_in.is_none() && !out.smoke => Some("--in PATH (or --smoke)"),
        _ => None,
    };
    if let Some(flag) = missing {
        return Err(format!("{command} needs {flag}"));
    }
    if out.smoke && out.metrics_in.is_some() {
        return Err("check-metrics takes --in PATH or --smoke, not both".into());
    }
    if command == "check-metrics" && seeded && !out.smoke {
        return Err("check-metrics reads --seed only with --smoke".into());
    }
    if let Some(ms) = hold {
        if out.serve_metrics.is_none() {
            return Err("--serve-hold-ms needs --serve-metrics ADDR".into());
        }
        out.serve_hold_ms = ms;
    }
    Ok(out)
}

/// A flag's value, parsed; a bad one is an argument error.
fn value<T>(text: &str) -> Result<T, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    text.parse().map_err(|e| format!("{e}"))
}

fn build_dataset(args: &CommonArgs) -> Result<EvDataset, String> {
    let config = DatasetConfig {
        population: args.population,
        duration: args.duration,
        seed: args.seed,
        ..DatasetConfig::default()
    };
    EvDataset::generate(&config).map_err(|e| e.to_string())
}

fn cmd_generate(args: &CommonArgs) -> Result<(), String> {
    let dataset = build_dataset(args)?;
    if args.json {
        println!(
            "{}",
            serde_json::json!({
                "population": dataset.config.population,
                "duration": dataset.config.duration,
                "seed": dataset.config.seed,
                "cells": dataset.region.cell_count(),
                "density": dataset.config.density(),
                "e_scenarios": dataset.estore.len(),
                "e_records": dataset.estore.record_count(),
                "v_scenarios": dataset.video.len(),
                "carriers": dataset.roster.carrier_count(),
            })
        );
    } else {
        println!(
            "generated: {} people ({} carriers) over {} cells, {} ticks",
            dataset.config.population,
            dataset.roster.carrier_count(),
            dataset.region.cell_count(),
            dataset.config.duration,
        );
        println!(
            "E-data: {} scenarios, {} membership records",
            dataset.estore.len(),
            dataset.estore.record_count(),
        );
        println!("V-data: {} scenario footages", dataset.video.len());
    }
    Ok(())
}

/// Words a failure on the disk path. Corruption dumps the flight
/// recorder first, wherever it was found: refused at open, or met when a
/// match first read the damaged footage.
fn disk_failure(telemetry: &Telemetry, corrupt: bool, message: String) -> String {
    if corrupt {
        telemetry.dump_flight("disk_corruption");
    }
    message
}

/// Appends the whole generated corpus to `store` as one E and one V
/// segment.
fn persist(store: &mut DiskStore, dataset: &EvDataset) -> Result<AppendReceipt, DiskError> {
    let e_batch: Vec<_> = dataset.estore.iter().cloned().collect();
    let v_batch: Vec<_> = dataset.video.scenarios().cloned().collect();
    store.append(&e_batch, &v_batch)
}

/// The execution mode `--threads` selects.
fn execution_mode(args: &CommonArgs) -> ExecutionMode {
    args.threads
        .map_or(ExecutionMode::Sequential, ExecutionMode::Dag)
}

/// Runs the match the flags describe. Returns the regenerated dataset,
/// the opened `--data-dir` corpus the match read instead of it (if
/// any), and the report.
fn run_match(args: &CommonArgs) -> Result<(EvDataset, Option<DiskBackend>, MatchReport), String> {
    let dataset = build_dataset(args)?;
    let targets = sample_targets(&dataset, args.targets, args.seed);
    let execution = execution_mode(args);
    let config = MatcherConfig {
        mode: args.mode,
        execution,
        ..MatcherConfig::default()
    };
    let telemetry = Telemetry::new(args.telemetry_level());
    if telemetry.counters_on() {
        names::preregister(telemetry.registry());
    }
    args.arm_flight_recorder(&telemetry);
    let server = args.start_metrics_server(&telemetry)?;
    let run = |matcher: EvMatcher<'_>| {
        let matcher = matcher.with_telemetry(&telemetry);
        if args.universal {
            matcher.match_universal()
        } else {
            matcher.match_many(&targets)
        }
    };
    // With --data-dir the corpus is read back from the persistent
    // segment store; the regenerated dataset still supplies targets,
    // the cost model and the scoring ground truth.
    let (backend, report) = if let Some(dir) = &args.data_dir {
        let backend =
            DiskBackend::open_with(dir, dataset.video.cost_model(), args.recovery, &telemetry)
                .map_err(|e| {
                    let message = format!("opening corpus {dir}: {e}");
                    disk_failure(&telemetry, e.is_corruption(), message)
                })?;
        if backend.recovery().repaired_anything() {
            eprintln!("recovered corpus {dir}: {:?}", backend.recovery());
        }
        let report = run(EvMatcher::from_backend(&backend, config)).map_err(|e| {
            let message = format!("matching from corpus {dir}: {e}");
            disk_failure(&telemetry, e.is_corruption(), message)
        })?;
        (Some(backend), report)
    } else {
        let matcher = EvMatcher::new(&dataset.estore, &dataset.video, config);
        (None, run(matcher).map_err(|e| e.to_string())?)
    };
    write_telemetry(args, &telemetry)?;
    args.hold_metrics_server(server);
    Ok((dataset, backend, report))
}

/// `evmatch ingest`: generates the dataset the flags describe and
/// persists it into the `--data-dir` segment directory (created on
/// first use). Each invocation commits one E-segment and one V-segment,
/// so repeated ingests model daily corpus growth.
fn cmd_ingest(args: &CommonArgs) -> Result<(), String> {
    let dir = args.data_dir.as_ref().expect("parse_args requires it");
    let dataset = build_dataset(args)?;
    let telemetry = Telemetry::new(args.telemetry_level());
    if telemetry.counters_on() {
        names::preregister(telemetry.registry());
    }
    args.arm_flight_recorder(&telemetry);
    let server = args.start_metrics_server(&telemetry)?;
    let mut store = DiskStore::open_or_create(dir)
        .map_err(|e| {
            let message = format!("opening corpus {dir}: {e}");
            disk_failure(&telemetry, e.is_corruption(), message)
        })?
        .with_telemetry(&telemetry);
    if store.recovery().repaired_anything() {
        eprintln!("recovered corpus {dir}: {:?}", store.recovery());
    }
    let receipt = persist(&mut store, &dataset).map_err(|e| {
        let message = format!("appending to corpus {dir}: {e}");
        disk_failure(&telemetry, e.is_corruption(), message)
    })?;
    let (e_records, v_records) = (dataset.estore.len(), dataset.video.len());
    write_telemetry(args, &telemetry)?;
    args.hold_metrics_server(server);
    if args.json {
        println!(
            "{}",
            serde_json::json!({
                "data_dir": dir.as_str(),
                "e_records": e_records,
                "v_records": v_records,
                "e_segment": receipt.e_segment.map(|s| s.file_name()),
                "v_segment": receipt.v_segment.map(|s| s.file_name()),
                "segments_total": store.segments().len(),
            })
        );
    } else {
        println!(
            "ingested {e_records} E-records and {v_records} V-records into {dir} \
             ({} live segments)",
            store.segments().len(),
        );
    }
    Ok(())
}

/// `evmatch serve`: the long-running streaming ingest service of
/// `DESIGN.md` §10. Opens (or creates) a live corpus at `--data-dir`
/// and drives it with a stdin line protocol:
///
/// ```text
/// ingest N    stream the next N ticks of the generated world in
/// apply       publish staged events (checkpoint, splice, epoch bump)
/// query [K]   match the first K sampled targets on the applied snapshot
/// stats       print epoch / staleness / store sizes
/// quit        final apply + checkpoint, then clean shutdown
/// ```
///
/// A line the loop cannot act on — an unknown command, an argument that
/// is not a number — is reported on stdout and skipped: only `quit`,
/// end of input or a storage error ends the session, so a typo never
/// costs the final checkpoint. `ingest N` stops at the last tick the
/// generated world holds and says so.
///
/// The event source is the deterministic dataset the flags describe,
/// replayed in time order from a cursor that resumes past whatever the
/// corpus already holds — so repeated serve sessions model a service
/// that is stopped and restarted mid-stream; `query [K]` matches the
/// first K of the sampled targets. `--apply-every N` bounds staleness by
/// auto-applying after N staged events; `--checkpoint-every N` bounds
/// crash loss (see `ServeConfig`).
fn cmd_serve(args: &CommonArgs) -> Result<(), String> {
    use evmatch::core::scenario::{EScenario, VScenario};
    use evmatch::serve::{LiveCorpus, ServeConfig};
    use std::collections::BTreeSet;
    use std::io::BufRead;

    let dir = args.data_dir.as_ref().expect("parse_args requires it");
    let dataset = build_dataset(args)?;
    let targets = sample_targets(&dataset, args.targets, args.seed);

    let telemetry = Telemetry::new(args.telemetry_level());
    if telemetry.counters_on() {
        names::preregister(telemetry.registry());
    }
    args.arm_flight_recorder(&telemetry);
    let server = args.start_metrics_server(&telemetry)?;

    let mut config = ServeConfig {
        cost: dataset.video.cost_model(),
        apply_every: args.apply_every,
        checkpoint_every: args.checkpoint_every,
        recovery: args.recovery,
        ..ServeConfig::default()
    };
    config.matcher.mode = args.mode;
    config.matcher.execution = execution_mode(args);

    let mut live = LiveCorpus::open(dir, config, &telemetry).map_err(|e| {
        let message = format!("opening live corpus {dir}: {e}");
        disk_failure(&telemetry, e.is_corruption(), message)
    })?;
    if live.disk().recovery().repaired_anything() {
        eprintln!("recovered corpus {dir}: {:?}", live.disk().recovery());
    }

    // The event source: the generated world's scenarios grouped by
    // tick, replayed from a cursor that starts past the applied data.
    let mut e_by_tick: BTreeMap<u64, Vec<EScenario>> = BTreeMap::new();
    for s in dataset.estore.iter() {
        e_by_tick
            .entry(s.time().tick())
            .or_default()
            .push(s.clone());
    }
    let mut v_by_tick: BTreeMap<u64, Vec<VScenario>> = BTreeMap::new();
    for s in dataset.video.scenarios() {
        v_by_tick
            .entry(s.time().tick())
            .or_default()
            .push(s.clone());
    }
    let mut cursor: u64 = live
        .estore()
        .iter()
        .last()
        .map_or(0, |s| s.time().tick() + 1);
    let source_end: u64 = e_by_tick
        .keys()
        .chain(v_by_tick.keys())
        .max()
        .map_or(0, |&last| last + 1);

    println!(
        "serve: corpus {dir} at epoch {} ({} E-scenarios applied, cursor at tick {cursor})",
        live.epoch(),
        live.estore().len(),
    );
    println!("serve: commands: ingest N | apply | query [K] | stats | quit");

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| format!("reading stdin: {e}"))?;
        let mut parts = line.split_whitespace();
        let Some(cmd) = parts.next() else { continue };
        match cmd {
            "ingest" => {
                let Some(requested) = numeric_arg(parts.next(), 1u64, "ingest N") else {
                    continue;
                };
                let n = requested.min(source_end.saturating_sub(cursor));
                let mut accepted = 0u64;
                let mut applied = false;
                for _ in 0..n {
                    let e = e_by_tick.get(&cursor).cloned().unwrap_or_default();
                    let v = v_by_tick.get(&cursor).cloned().unwrap_or_default();
                    cursor += 1;
                    let receipt = live.ingest(e, v).map_err(|e| e.to_string())?;
                    accepted += receipt.accepted;
                    applied |= receipt.applied;
                }
                println!(
                    "ingested {accepted} events from {n} tick(s); cursor at tick {cursor}, \
                     staged {}, auto-applied: {applied}",
                    live.staged_events(),
                );
                if n < requested {
                    println!(
                        "source exhausted: the generated world ends at tick {source_end}, \
                         {} requested tick(s) skipped",
                        requested - n,
                    );
                }
            }
            "apply" => {
                live.apply().map_err(|e| e.to_string())?;
                println!(
                    "applied: epoch {} ({} E-scenarios, {} V-footages visible)",
                    live.epoch(),
                    live.estore().len(),
                    live.video().len(),
                );
            }
            "query" => {
                let Some(k) = numeric_arg(parts.next(), args.targets, "query [K]") else {
                    continue;
                };
                let q: BTreeSet<Eid> = targets.iter().take(k.max(1)).copied().collect();
                let answer = live.query(&q).map_err(|e| {
                    let message = format!("answering the query: {e}");
                    disk_failure(&telemetry, e.is_corruption(), message)
                })?;
                let stats = score_report(&dataset, &answer.report);
                println!(
                    "query: {} EIDs at epoch {} (staleness {} events): {} scenarios selected, \
                     accuracy {:.1}%",
                    q.len(),
                    answer.epoch,
                    answer.staleness_events,
                    answer.report.selected_count(),
                    stats.percent(),
                );
            }
            "stats" => {
                println!(
                    "epoch {} | staged {} | applied E {} V {} | disk segments {}",
                    live.epoch(),
                    live.staged_events(),
                    live.estore().len(),
                    live.video().len(),
                    live.disk().segments().len(),
                );
            }
            "quit" => break,
            other => {
                println!("unknown command {other} (ingest N | apply | query [K] | stats | quit)");
            }
        }
    }

    let store = live.finish().map_err(|e| e.to_string())?;
    println!(
        "serve: shut down cleanly ({} committed segments)",
        store.segments().len()
    );
    write_telemetry(args, &telemetry)?;
    args.hold_metrics_server(server);
    Ok(())
}

/// A serve command's optional numeric argument (`default` when absent).
/// One that does not parse is reported on stdout and yields `None`, so
/// the caller skips the line instead of ending the session.
fn numeric_arg<T>(arg: Option<&str>, default: T, usage: &str) -> Option<T>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    match arg.map_or(Ok(default), str::parse) {
        Ok(value) => Some(value),
        Err(e) => {
            println!("bad argument {:?} ({e}); usage: {usage}", arg.unwrap_or(""));
            None
        }
    }
}

/// Writes the run profile to the requested `--metrics-out` /
/// `--trace-out` paths.
fn write_telemetry(args: &CommonArgs, telemetry: &Telemetry) -> Result<(), String> {
    if let Some(path) = &args.metrics_out {
        telemetry.sync_derived_metrics();
        let text = prometheus::render(&telemetry.registry().snapshot());
        std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))?;
    }
    if let Some(path) = &args.trace_out {
        let json = telemetry.tracer().chrome_trace_json();
        std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
    }
    Ok(())
}

/// Metrics that every exported `match` profile must contain.
/// `evm_dag_tasks_total` is a real count under `--threads N`; a
/// sequential profile carries it at zero through `names::preregister`.
const REQUIRED_METRICS: &[&str] = &[
    names::STAGE_E_SECONDS,
    names::STAGE_V_SECONDS,
    names::SETSPLIT_SCENARIOS_EXAMINED,
    names::SETSPLIT_RECORDED,
    names::RECORDED_SCENARIOS,
    names::THEOREM_LOWER_BOUND,
    names::THEOREM_UPPER_BOUND,
    names::FULLY_SPLIT,
    names::VFILTER_GALLERY_HIT_RATIO,
    names::DAG_TASKS_TOTAL,
];

/// Every value `check-metrics --in` reads, and whether it must be a
/// whole number (a count, a bound, the fully-split flag) rather than
/// any finite one (a time, a ratio). All must be `>= 0`.
const READ_METRICS: &[(&str, bool)] = &[
    (names::SETSPLIT_SCENARIOS_EXAMINED, true),
    (names::SETSPLIT_RECORDED, true),
    (names::RECORDED_SCENARIOS, true),
    (names::THEOREM_LOWER_BOUND, true),
    (names::THEOREM_UPPER_BOUND, true),
    (names::FULLY_SPLIT, true),
    (names::DAG_TASKS_TOTAL, true),
    (names::VFILTER_GALLERY_MISSES, true),
    (names::VFILTER_CANDIDATES_SCORED, true),
    (names::DISK_SEGMENTS_OPENED, true),
    (names::DISK_RECORDS_READ, true),
    (names::DISK_BYTES_READ, true),
    (names::STAGE_E_SECONDS, false),
    (names::STAGE_V_SECONDS, false),
    (names::EXEC_TASK_LATENCY_P50_NS, false),
    (names::VFILTER_GALLERY_HIT_RATIO, false),
];

/// `check-metrics --smoke`: runs an in-process battery that touches
/// every subsystem with **no** schema preregistration, then fails if
/// any canonical metric name was never emitted by real instrumentation.
/// This is what keeps `ev_telemetry::names` honest: a constant added
/// there without an emission site (or an emission site whose metric
/// name drifted from the constant) fails this gate.
fn smoke_coverage_gate(args: &CommonArgs) -> Result<(), String> {
    use std::collections::BTreeSet;

    fn absorb_into(seen: &mut BTreeSet<String>, tel: &Telemetry) {
        tel.sync_derived_metrics();
        let snap = tel.registry().snapshot();
        seen.extend(snap.counters.keys().cloned());
        seen.extend(snap.gauges.keys().cloned());
        seen.extend(snap.histograms.keys().cloned());
    }
    let mut seen: BTreeSet<String> = BTreeSet::new();

    let config = DatasetConfig {
        population: 80,
        duration: 100,
        seed: args.seed,
        ..DatasetConfig::default()
    };
    let dataset = EvDataset::generate(&config).map_err(|e| e.to_string())?;
    let targets = sample_targets(&dataset, 16, args.seed);

    // 1. Sequential ideal-mode run: set splitting, refinement,
    //    exhaustive VID scoring and the run gauges.
    {
        let tel = Telemetry::new(TelemetryLevel::Full);
        let cfg = MatcherConfig {
            mode: SplitMode::Ideal,
            ..MatcherConfig::default()
        };
        EvMatcher::new(&dataset.estore, &dataset.video, cfg)
            .with_telemetry(&tel)
            .match_many(&targets)
            .map_err(|e| format!("smoke sequential run: {e}"))?;
        absorb_into(&mut seen, &tel);
    }

    // 1b. A dimension-mixed gallery the block build rejects (the
    //     galleries-rejected counter); the generated world has none.
    {
        use evmatch::core::feature::FeatureVector;
        use evmatch::core::region::CellId;
        use evmatch::core::scenario::{Detection, ScenarioId, VScenario};
        use evmatch::core::time::Timestamp;
        use evmatch::matching::vfilter::{GalleryCache, VStage};

        let tel = Telemetry::new(TelemetryLevel::Counters);
        let mut mixed = VScenario::new(CellId::new(1), Timestamp::new(1));
        for (vid, dim) in [(0, 64), (1, 63)] {
            mixed.push(Detection {
                vid: Vid::new(vid),
                feature: FeatureVector::from_clamped(vec![0.5; dim]),
            });
        }
        let video = VideoStore::new(vec![mixed], evmatch::vision::cost::CostModel::free());
        let _ = VStage {
            video: &video,
            cache: &mut GalleryCache::new(),
            telemetry: &tel,
        }
        .filter_one(
            Eid::from_u64(1),
            &vec![ScenarioId::new(Timestamp::new(1), CellId::new(1))],
            &BTreeSet::new(),
        );
        absorb_into(&mut seen, &tel);
        if !seen.contains(names::KERNEL_GALLERIES_REJECTED) {
            return Err("mixed-dimension smoke gallery was not rejected".into());
        }
    }

    // 2. The EDP baseline (two maps, one partition per EID) on 4 real
    //    threads: the `evm_dag_*` and `evm_exec_*` metrics.
    {
        use evmatch::matching::edp::match_edp;
        let tel = Telemetry::new(TelemetryLevel::Full);
        match_edp(4, &dataset.estore, &dataset.video, &targets, 0, &tel)
            .map_err(|e| format!("smoke EDP run: {e}"))?;
        absorb_into(&mut seen, &tel);
    }

    // 3. Tracer-ring overflow: a tiny ring forced to evict, mirrored
    //    into the drop counter by sync_derived_metrics.
    {
        let tel = Telemetry::with_trace_capacity(TelemetryLevel::Full, 8);
        for _ in 0..64 {
            tel.event("smoke_overflow", Vec::new());
        }
        absorb_into(&mut seen, &tel);
        if !seen.contains(names::TRACE_DROPPED) {
            return Err("tracer overflow did not emit the drop counter".into());
        }
    }

    let scratch = std::env::temp_dir().join(format!("evmatch-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("creating {scratch:?}: {e}"))?;
    let gate = (|| -> Result<(), String> {
        // 4. A flight-recorder dump: record real entries, dump, and
        //    strict-check the artifact round-trips as JSON.
        {
            let tel = Telemetry::new(TelemetryLevel::Counters);
            tel.flight().set_enabled(true);
            tel.set_flight_dir(Some(scratch.clone()));
            let ctx = ev_telemetry::TraceCtx::root();
            tel.flight().instant("smoke_probe", ctx, Vec::new());
            let path = tel
                .dump_flight("smoke")
                .ok_or("flight dump produced no file")?;
            let text = std::fs::read_to_string(&path).map_err(|e| format!("{path:?}: {e}"))?;
            let dump: serde_json::Value =
                serde_json::from_str(&text).map_err(|e| format!("{path:?}: bad JSON: {e}"))?;
            if dump.get("reason") != Some(&serde_json::Value::Str("smoke".to_string())) {
                return Err(format!("{path:?}: dump reason missing or wrong"));
            }
            if tel.registry().counter_value(names::FLIGHT_DUMPS) != Some(1) {
                return Err("the flight dump was not counted".into());
            }
            absorb_into(&mut seen, &tel);
        }

        // 5. Disk round-trip: one ingest, one recovering reopen+load,
        //    and one small match on the reopened backend, whose footage
        //    is decoded frame by frame as the match extracts it — the
        //    decoded-record counter must say exactly that.
        {
            let tel = Telemetry::new(TelemetryLevel::Counters);
            let dir = scratch.join("corpus");
            let dir = dir.to_string_lossy().into_owned();
            let mut store = DiskStore::open_or_create(&dir)
                .map_err(|e| format!("opening corpus {dir}: {e}"))?
                .with_telemetry(&tel);
            persist(&mut store, &dataset).map_err(|e| format!("appending to corpus {dir}: {e}"))?;
            drop(store);
            let reopened = DiskBackend::open_with(
                &dir,
                dataset.video.cost_model(),
                RecoveryMode::Salvage,
                &tel,
            )
            .map_err(|e| format!("reopening corpus {dir}: {e}"))?;
            EvMatcher::from_backend(&reopened, MatcherConfig::default())
                .with_telemetry(&tel)
                .match_many(&targets)
                .map_err(|e| format!("smoke disk-backed match: {e}"))?;
            let decoded = tel
                .registry()
                .counter_value(names::DISK_RECORDS_READ)
                .unwrap_or(0);
            let extracted = reopened.video().stats().extracted_scenarios;
            if decoded != (reopened.estore().len() + extracted) as u64 {
                return Err(format!(
                    "disk-backed smoke match decoded {decoded} records, expected the {} \
                     E records + the {extracted} V-Scenarios it extracted",
                    reopened.estore().len()
                ));
            }
            absorb_into(&mut seen, &tel);
        }

        // 6. Streaming serve loop: ingest half the world, apply, stage
        //    the rest, query stale then fresh — the serve-layer
        //    counters, staleness/epoch gauges and query-latency histogram.
        {
            use evmatch::serve::{LiveCorpus, ServeConfig};
            let tel = Telemetry::new(TelemetryLevel::Counters);
            let dir = scratch.join("live");
            let mut live = LiveCorpus::open(&dir, ServeConfig::default(), &tel)
                .map_err(|e| format!("opening live corpus: {e}"))?;
            let mid = config.duration / 2;
            let slice = |from: u64, to: u64| {
                let es: Vec<_> = dataset
                    .estore
                    .iter()
                    .filter(|s| (from..to).contains(&s.time().tick()))
                    .cloned()
                    .collect();
                let vs: Vec<_> = dataset
                    .video
                    .scenarios()
                    .filter(|s| (from..to).contains(&s.time().tick()))
                    .cloned()
                    .collect();
                (es, vs)
            };
            let (es, vs) = slice(0, mid);
            live.ingest(es, vs)
                .map_err(|e| format!("serve ingest: {e}"))?;
            live.apply().map_err(|e| format!("serve apply: {e}"))?;
            let (es, vs) = slice(mid, config.duration);
            live.ingest(es, vs)
                .map_err(|e| format!("serve ingest: {e}"))?;
            let stale = live
                .query(&targets)
                .map_err(|e| format!("serve query: {e}"))?;
            if stale.staleness_events == 0 {
                return Err("staged serve query reported zero staleness".into());
            }
            live.apply().map_err(|e| format!("serve apply: {e}"))?;
            let fresh = live
                .query(&targets)
                .map_err(|e| format!("serve query: {e}"))?;
            if fresh.staleness_events != 0 || fresh.epoch != 2 {
                return Err(format!(
                    "applied serve query at wrong snapshot: epoch {} staleness {}",
                    fresh.epoch, fresh.staleness_events
                ));
            }
            live.finish().map_err(|e| format!("serve finish: {e}"))?;
            absorb_into(&mut seen, &tel);
        }

        // 7. The pooled pipeline: its report must be the sequential
        //    one.
        {
            let pipeline = |execution, tel: &Telemetry| {
                let config = MatcherConfig {
                    execution,
                    ..MatcherConfig::default()
                };
                EvMatcher::new(&dataset.estore, &dataset.video, config).with_telemetry(tel)
            };
            let tel = Telemetry::new(TelemetryLevel::Full);
            let sequential = pipeline(ExecutionMode::Sequential, Telemetry::disabled())
                .match_many(&targets)
                .map_err(|e| format!("smoke sequential run: {e}"))?;
            let pooled = pipeline(ExecutionMode::Dag(2), &tel)
                .match_many(&targets)
                .map_err(|e| format!("smoke dag run: {e}"))?;
            if pooled.outcomes != sequential.outcomes || pooled.lists != sequential.lists {
                return Err("pooled smoke run diverged from the sequential report".into());
            }
            absorb_into(&mut seen, &tel);
        }
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(&scratch);
    gate?;

    let missing: Vec<&str> = names::all().filter(|&name| !seen.contains(name)).collect();
    if !missing.is_empty() {
        return Err(format!(
            "smoke battery never emitted {} canonical metric(s): {}",
            missing.len(),
            missing.join(", ")
        ));
    }
    let total = names::all().count();
    println!("ok: smoke battery emitted all {total} canonical metrics");
    Ok(())
}

fn cmd_check_metrics(args: &CommonArgs) -> Result<(), String> {
    if args.smoke {
        return smoke_coverage_gate(args);
    }
    let path = args.metrics_in.as_ref().expect("parse_args requires it");
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let exposition =
        prometheus::parse_exposition(&text).map_err(|e| format!("{path}: parse error: {e}"))?;
    for &name in REQUIRED_METRICS {
        if exposition.value(name).is_none() {
            return Err(format!("{path}: required metric {name} is missing"));
        }
    }
    // NaN fails every comparison and a negative count passes some, so
    // the checks below only mean something on sane values.
    for &(name, whole) in READ_METRICS {
        let Some(v) = exposition.value(name) else {
            continue;
        };
        let sane = v.is_finite() && v >= 0.0 && (!whole || v.fract() == 0.0);
        if !sane || (name == names::FULLY_SPLIT && v > 1.0) {
            let want = match (name == names::FULLY_SPLIT, whole) {
                (true, _) => "0 or 1",
                (false, true) => "a whole number >= 0",
                (false, false) => "a finite number >= 0",
            };
            return Err(format!("{path}: {name} is {v}, not {want}"));
        }
    }
    // The splitter's own counters must account for what the report says
    // it recorded: every refinement round adds to the totals, the paper
    // gauge holds the first round's share.
    let value = |name| exposition.value(name).unwrap_or(0.0);
    let (examined, recorded_total, first_round) = (
        value(names::SETSPLIT_SCENARIOS_EXAMINED),
        value(names::SETSPLIT_RECORDED),
        value(names::RECORDED_SCENARIOS),
    );
    if recorded_total < first_round || examined < recorded_total {
        return Err(format!(
            "{path}: set-splitting counters are inconsistent: examined {examined} >= \
             recorded_total {recorded_total} >= first-round recorded {first_round} does not hold"
        ));
    }
    // A profile that ran DAG tasks timed them; a zero median means the
    // export skipped `sync_derived_metrics`.
    if value(names::DAG_TASKS_TOTAL) > 0.0 && value(names::EXEC_TASK_LATENCY_P50_NS) == 0.0 {
        return Err(format!(
            "{path}: {} tasks ran but {} is 0: derived metrics were not refreshed before export",
            value(names::DAG_TASKS_TOTAL),
            names::EXEC_TASK_LATENCY_P50_NS
        ));
    }
    // A V stage that extracted galleries scored candidates against
    // them; zero means a path dropped the run's telemetry handle.
    if value(names::VFILTER_GALLERY_MISSES) > 0.0 && value(names::VFILTER_CANDIDATES_SCORED) == 0.0
    {
        return Err(format!(
            "{path}: {} galleries were extracted but {} is 0",
            value(names::VFILTER_GALLERY_MISSES),
            names::VFILTER_CANDIDATES_SCORED
        ));
    }
    // Work a stage counted as it went took time; a zero beside it means
    // the run ended without its epilogue.
    for (work, seconds) in [
        (names::SETSPLIT_SCENARIOS_EXAMINED, names::STAGE_E_SECONDS),
        (names::VFILTER_CANDIDATES_SCORED, names::STAGE_V_SECONDS),
    ] {
        if value(work) > 0.0 && value(seconds) == 0.0 {
            return Err(format!(
                "{path}: {work} is {} but {seconds} is 0",
                value(work)
            ));
        }
    }
    // A profile that ran from disk (a load walk opened segments) must
    // account for what it decoded: each walked file is at least a
    // header, and each decoded record — E at load, V each time a match
    // read its frame — was read as a frame around at least the
    // `time | cell | count` head of a payload.
    let (opened, decoded, bytes) = (
        value(names::DISK_SEGMENTS_OPENED),
        value(names::DISK_RECORDS_READ),
        value(names::DISK_BYTES_READ),
    );
    let least = opened * HEADER_LEN as f64 + decoded * (FRAME_OVERHEAD + 20) as f64;
    if opened > 0.0 && (decoded == 0.0 || bytes < least) {
        return Err(format!(
            "{path}: disk counters are inconsistent: {opened} segments walked and {decoded} \
             records decoded need at least {least} bytes read, the profile says {bytes}"
        ));
    }
    let fully_split = exposition.value(names::FULLY_SPLIT).unwrap_or(0.0);
    if fully_split == 1.0 {
        let recorded = exposition.value(names::RECORDED_SCENARIOS).unwrap_or(0.0);
        let lower = exposition.value(names::THEOREM_LOWER_BOUND).unwrap_or(0.0);
        let upper = exposition.value(names::THEOREM_UPPER_BOUND).unwrap_or(0.0);
        if recorded < lower || recorded > upper {
            return Err(format!(
                "{path}: theorem bound violation: recorded {recorded} outside [{lower}, {upper}]"
            ));
        }
        println!(
            "ok: {} metrics, theorem bounds hold ({lower} <= {recorded} <= {upper})",
            REQUIRED_METRICS.len()
        );
    } else {
        println!(
            "ok: {} metrics present (first round not fully split; bounds not applicable)",
            REQUIRED_METRICS.len()
        );
    }
    Ok(())
}

fn cmd_match(args: &CommonArgs) -> Result<(), String> {
    let (dataset, _, report) = run_match(args)?;
    let stats = score_report(&dataset, &report);
    if args.json {
        println!(
            "{}",
            serde_json::json!({
                "matched": report.outcomes.len(),
                "selected_scenarios": report.selected_count(),
                "scenarios_per_eid": report.scenarios_per_eid(),
                "accuracy_pct": stats.percent(),
                "rounds": report.rounds,
                "e_secs": report.timings.e_stage.as_secs_f64(),
                "v_secs": report.timings.v_stage.as_secs_f64(),
                "outcomes": report
                    .outcomes
                    .iter()
                    .map(|o| serde_json::json!({
                        "eid": o.eid.to_string(),
                        "vid": o.vid.map(|v| v.as_u64()),
                        "vote_share": o.vote_share,
                    }))
                    .collect::<Vec<_>>(),
            })
        );
    } else {
        println!(
            "matched {} EIDs via {} scenarios ({:.2}/EID) in {} round(s)",
            report.outcomes.len(),
            report.selected_count(),
            report.scenarios_per_eid(),
            report.rounds,
        );
        println!(
            "accuracy {:.1}% | E {:.3}s V {:.3}s",
            stats.percent(),
            report.timings.e_stage.as_secs_f64(),
            report.timings.v_stage.as_secs_f64(),
        );
        for o in report.outcomes.iter().take(10) {
            println!(
                "  {} -> {}",
                o.eid,
                o.vid.map_or_else(|| "?".into(), |v| v.to_string())
            );
        }
        if report.outcomes.len() > 10 {
            println!("  ... ({} more)", report.outcomes.len() - 10);
        }
    }
    Ok(())
}

fn cmd_query(args: &CommonArgs) -> Result<(), String> {
    let query = args.query.as_ref().ok_or(QUERY_USAGE)?;
    let (dataset, backend, report) = run_match(args)?;
    // Answer from the corpus the match read: the persisted one under
    // --data-dir, else the regenerated one.
    let (estore, video) = match &backend {
        Some(backend) => (backend.estore(), backend.video()),
        None => (&dataset.estore, &dataset.video),
    };
    // Only majority matches are trusted to label anyone.
    let matched: BTreeMap<Eid, Vid> = (report.outcomes.iter())
        .filter(|o| o.is_majority())
        .filter_map(|o| Some((o.eid, o.vid?)))
        .collect();

    match *query {
        Query::Eid(eid) => {
            let (Some(&vid), Some(outcome)) = (matched.get(&eid), report.outcome_of(eid)) else {
                println!("{eid}: not matched (or not in the requested target set)");
                return Ok(());
            };
            println!(
                "{eid} == {vid} (vote share {:.0}%)",
                outcome.vote_share * 100.0
            );
            let trail: Vec<_> = estore.containing(eid).collect();
            let cells: BTreeSet<_> = trail.iter().map(|s| s.cell()).collect();
            println!(
                "electronic trail: {} observations over {} cells",
                trail.len(),
                cells.len(),
            );
            // Sightings only in footage the match already paid to extract.
            let sightings = (report.selected_scenarios.iter())
                .filter(|&&id| video.extract(id).is_some_and(|v| v.contains(vid)))
                .count();
            video.check_loads().map_err(|e| e.to_string())?;
            println!("visual sightings in processed footage: {sightings}");
            let mut shared: BTreeMap<Eid, usize> = BTreeMap::new();
            for other in trail.iter().flat_map(|s| s.eids()) {
                if other != eid && matched.contains_key(&other) {
                    *shared.entry(other).or_default() += 1;
                }
            }
            let mut contacts: Vec<_> = shared.into_iter().filter(|&(_, n)| n >= 2).collect();
            contacts.sort_by_key(|&(other, n)| (Reverse(n), other));
            for (other, n) in contacts.into_iter().take(5) {
                println!("  frequent contact: {other} ({n} shared scenarios)");
            }
        }
        Query::Cell { cell, from, to } => {
            let range = TimeRange::new(Timestamp::new(from), Timestamp::new(to));
            let present: BTreeMap<Eid, Vid> = (estore.query(range, Some(&[CellId::new(cell)])))
                .flat_map(|s| s.eids())
                .filter_map(|eid| Some((eid, *matched.get(&eid)?)))
                .collect();
            println!(
                "{} matched identit(ies) present in cell#{cell} during [{from}, {to}):",
                present.len()
            );
            for (eid, vid) in present {
                println!("  {eid} == {vid}");
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("usage: evmatch <generate|ingest|serve|match|query|check-metrics> [flags]");
        return ExitCode::from(2);
    };
    let run: fn(&CommonArgs) -> Result<(), String> = match command.as_str() {
        "generate" => cmd_generate,
        "ingest" => cmd_ingest,
        "serve" => cmd_serve,
        "match" => cmd_match,
        "query" => cmd_query,
        "check-metrics" => cmd_check_metrics,
        other => {
            eprintln!("argument error: unknown command {other}");
            return ExitCode::from(2);
        }
    };
    let args = match parse_args(command, rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("argument error: {e}");
            return ExitCode::from(2);
        }
    };
    let result = run(&args);
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
