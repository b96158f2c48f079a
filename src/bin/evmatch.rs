//! `evmatch` — command-line front end for the EV-Matching reproduction.
//!
//! ```text
//! evmatch generate  [--population N] [--duration T] [--seed S]
//! evmatch ingest    --data-dir DIR [--population N] [--duration T]
//!                   [--seed S] [--json]
//! evmatch serve     --data-dir DIR [--apply-every N]
//!                   [--checkpoint-every N] [--targets K]
//!                   [--serve-metrics ADDR] [--recovery strict|salvage]
//!                   [dataset + matcher flags as for match]
//! evmatch match     [--population N] [--duration T] [--seed S]
//!                   [--targets K] [--mode ideal|practical]
//!                   [--threads N] [--universal]
//!                   [--confidence P] [--budget-scenarios N]
//!                   [--telemetry off|counters|full] [--trace-out PATH]
//!                   [--metrics-out PATH] [--json]
//!                   [--serve-metrics ADDR] [--serve-hold-ms MS]
//!                   [--flight-dir DIR]
//!                   [--data-dir DIR] [--recovery strict|salvage]
//! evmatch query     [--population N] [--duration T] [--seed S]
//!                   [--targets K] --eid HEX|--cell C --from T0 --to T1
//! evmatch check-metrics --in PATH | --smoke
//! evmatch check-anytime [--population N] [--duration T] [--seed S]
//!                   [--targets K] [--confidence P]
//! ```
//!
//! Datasets are regenerated deterministically from their parameters, so
//! the CLI needs no dataset files: the same flags always rebuild the
//! same world. `ingest` additionally persists the generated corpus into
//! an `ev-disk` segment directory, and `match`/`query` given
//! `--data-dir` load the corpus from that directory instead of from
//! memory — the matching pipeline and its report are identical either
//! way (ground truth for scoring still comes from the regenerated
//! dataset). A corpus interrupted mid-append is healed on open; pass
//! `--recovery salvage` to additionally keep the valid prefix of a
//! damaged (not merely torn) corpus.
//!
//! `serve` turns the same corpus into a long-running **streaming
//! service**: events arrive incrementally, queries run against a
//! consistent applied snapshot, and every answer reports its staleness
//! (see [`evmatch::serve`] and the stdin protocol on `cmd_serve`).
//!
//! Without `--threads` the sequential pipeline runs (Algorithms 1–2:
//! set splitting, VID filtering, refinement). `--threads N` runs the
//! parallel pipeline (Algorithm 3): the whole job — every splitting
//! round plus VID filtering — is **one** stage DAG submitted to the
//! lineage-tracking scheduler (`DESIGN.md` §11) on `N` real threads of
//! `ev-dag`'s pool (at most one per task of the graph; `N` must be at
//! least 1), so independent rounds overlap and a lost worker
//! costs a rerun of only the partition it was computing. Its report is
//! byte-identical for every `N`, so the value only changes wall time.
//! `--universal` matches every EID present in the E-data instead of a
//! sampled target set; with `--threads` the whole universal matching
//! job is a single DAG submission.
//!
//! `--metrics-out` implies the `counters` telemetry level and
//! `--trace-out` implies `full`; an explicit `--telemetry` wins over
//! both (so `--telemetry off` always runs the uninstrumented paths).
//! `check-metrics --in PATH` strictly parses an exported Prometheus
//! profile and verifies the Theorem 4.2/4.4 invariant
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
//! CLI runs: on a worker panic, retry exhaustion, or detected disk
//! corruption, the ring of recent spans/instants/counter deltas is
//! dumped to `flight-<ts>-<n>.json` in `--flight-dir` (default `.`).
//!
//! `--confidence P` (`0 < P <= 1`) switches VID filtering to the
//! anytime scorer of `DESIGN.md` §8: scoring stops once the leader's
//! certified certainty reaches `P`. `--budget-scenarios N` caps exact
//! scoring to the first `N` scenarios per EID. `--confidence 1.0` with
//! no budget is the exact path, byte for byte. `check-anytime` runs the
//! anytime scorer against the exhaustive one on a generated corpus and
//! fails on any divergence a converged result is not allowed to show.

use ev_telemetry::{names, prometheus, MetricsServer, Telemetry, TelemetryLevel};
use evmatch::disk::format::{FRAME_OVERHEAD, HEADER_LEN};
use evmatch::disk::{AppendReceipt, DiskBackend, DiskError, DiskStore, RecoveryMode};
use evmatch::fusion::FusedIndex;
use evmatch::matching::refine::SplitMode;
use evmatch::prelude::*;
use std::collections::BTreeMap;
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
    confidence: Option<f64>,
    budget_scenarios: Option<usize>,
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
    rest: BTreeMap<String, String>,
}

impl CommonArgs {
    /// The anytime config the flags ask for, if any. A plain
    /// `--confidence 1.0` still round-trips through the config so the
    /// delegation path (not the CLI) decides that it means "exact".
    fn anytime(&self) -> Option<AnytimeConfig> {
        if self.confidence.is_none() && self.budget_scenarios.is_none() {
            return None;
        }
        Some(AnytimeConfig {
            confidence: self.confidence.unwrap_or(1.0),
            budget_scenarios: self.budget_scenarios,
        })
    }

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

/// Value flags only one subcommand reads (kept in `CommonArgs::rest`).
const SUBCOMMAND_FLAGS: &[&str] = &[
    "apply-every",
    "checkpoint-every",
    "in",
    "eid",
    "cell",
    "from",
    "to",
];

fn parse_args(args: &[String]) -> Result<CommonArgs, String> {
    let mut out = CommonArgs {
        population: 300,
        duration: 400,
        seed: 42,
        targets: 50,
        mode: SplitMode::Practical,
        threads: None,
        universal: false,
        confidence: None,
        budget_scenarios: None,
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
        rest: BTreeMap::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {arg} needs a value"))
        };
        match arg.as_str() {
            "--population" => out.population = take()?.parse().map_err(|e| format!("{e}"))?,
            "--duration" => out.duration = take()?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => out.seed = take()?.parse().map_err(|e| format!("{e}"))?,
            "--targets" => out.targets = take()?.parse().map_err(|e| format!("{e}"))?,
            "--threads" => {
                let n: usize = take()?.parse().map_err(|e| format!("{e}"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".into());
                }
                out.threads = Some(n);
            }
            "--universal" => out.universal = true,
            "--confidence" => {
                let p: f64 = take()?.parse().map_err(|e| format!("{e}"))?;
                if !(p > 0.0 && p <= 1.0) {
                    return Err(format!("--confidence must be in (0, 1], got {p}"));
                }
                out.confidence = Some(p);
            }
            "--budget-scenarios" => {
                out.budget_scenarios = Some(take()?.parse().map_err(|e| format!("{e}"))?);
            }
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
            "--serve-hold-ms" => {
                out.serve_hold_ms = take()?.parse().map_err(|e| format!("{e}"))?;
            }
            "--flight-dir" => out.flight_dir = Some(take()?),
            "--smoke" => out.smoke = true,
            "--recovery" => {
                out.recovery = match take()?.as_str() {
                    "strict" => RecoveryMode::Strict,
                    "salvage" => RecoveryMode::Salvage,
                    other => return Err(format!("unknown recovery mode {other}")),
                }
            }
            other if other.starts_with("--") => {
                let key = other.trim_start_matches("--");
                // A flag nobody reads must not be swallowed: a retired
                // or misspelt execution flag would silently select the
                // sequential pipeline.
                if !SUBCOMMAND_FLAGS.contains(&key) {
                    return Err(format!("unknown flag {other}"));
                }
                out.rest.insert(key.to_string(), take()?);
            }
            other => return Err(format!("unexpected argument {other}")),
        }
    }
    if out.threads.is_some() && out.mode == SplitMode::Ideal {
        return Err(
            "--mode ideal cannot run with --threads: the stage DAG is the practical setting only"
                .into(),
        );
    }
    Ok(out)
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

fn run_match(args: &CommonArgs) -> Result<(EvDataset, MatchReport), String> {
    let dataset = build_dataset(args)?;
    let targets = sample_targets(&dataset, args.targets, args.seed);
    let execution = execution_mode(args);
    let mut config = MatcherConfig {
        mode: args.mode,
        execution,
        ..MatcherConfig::default()
    };
    config.vfilter.anytime = args.anytime();
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
    let report = if let Some(dir) = &args.data_dir {
        let backend =
            DiskBackend::open_with(dir, dataset.video.cost_model(), args.recovery, &telemetry)
                .map_err(|e| {
                    let message = format!("opening corpus {dir}: {e}");
                    disk_failure(&telemetry, e.is_corruption(), message)
                })?;
        if backend.recovery().repaired_anything() {
            eprintln!("recovered corpus {dir}: {:?}", backend.recovery());
        }
        run(EvMatcher::from_backend(&backend, config)).map_err(|e| {
            let message = format!("matching from corpus {dir}: {e}");
            disk_failure(&telemetry, e.is_corruption(), message)
        })?
    } else {
        run(EvMatcher::new(&dataset.estore, &dataset.video, config)).map_err(|e| e.to_string())?
    };
    write_telemetry(args, &telemetry)?;
    args.hold_metrics_server(server);
    Ok((dataset, report))
}

/// `evmatch ingest`: generates the dataset the flags describe and
/// persists it into the `--data-dir` segment directory (created on
/// first use). Each invocation commits one E-segment and one V-segment,
/// so repeated ingests model daily corpus growth.
fn cmd_ingest(args: &CommonArgs) -> Result<(), String> {
    let dir = args
        .data_dir
        .as_ref()
        .ok_or("ingest needs --data-dir DIR")?;
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
/// query [K]   match the first K watch targets on the applied snapshot
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
/// that is stopped and restarted mid-stream. The sampled targets double
/// as the live watch set, so the Algorithm-1 delta-update index is
/// maintained across applies. `--apply-every N` bounds staleness by
/// auto-applying after N staged events; `--checkpoint-every N` bounds
/// crash loss (see `ServeConfig`).
fn cmd_serve(args: &CommonArgs) -> Result<(), String> {
    use evmatch::core::scenario::{EScenario, VScenario};
    use evmatch::serve::{LiveCorpus, ServeConfig};
    use std::collections::BTreeSet;
    use std::io::BufRead;

    let dir = args.data_dir.as_ref().ok_or("serve needs --data-dir DIR")?;
    let apply_every: usize = args
        .rest
        .get("apply-every")
        .map_or(Ok(0), |v| v.parse().map_err(|e| format!("{e}")))?;
    let checkpoint_every: u64 = args
        .rest
        .get("checkpoint-every")
        .map_or(Ok(1024), |v| v.parse().map_err(|e| format!("{e}")))?;

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
        apply_every,
        checkpoint_every,
        recovery: args.recovery,
        watch: targets.clone(),
        ..ServeConfig::default()
    };
    config.matcher.mode = args.mode;
    config.matcher.execution = execution_mode(args);
    config.matcher.vfilter.anytime = args.anytime();

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

/// Metrics that every exported `match` profile must contain. The two
/// `evm_dag_*` names are real counts under `--threads N`; a sequential
/// profile carries them at zero through `names::preregister`.
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
    names::DAG_TASK_RETRIES,
];

/// `check-metrics --smoke`: runs an in-process battery that touches
/// every subsystem with **no** schema preregistration, then fails if
/// any canonical metric name was never emitted by real instrumentation.
/// This is what keeps `ev_telemetry::names` honest: a constant added
/// there without an emission site (or an emission site whose metric
/// name drifted from the constant) fails this gate.
fn smoke_coverage_gate(args: &CommonArgs) -> Result<(), String> {
    use evmatch::dag::{DagConfig, FaultPlan};
    use evmatch::matching::dagflow::dag_match;
    use evmatch::matching::vfilter::VFilterConfig;
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

    // 1. Sequential ideal-mode run: set splitting (greedy-balanced, the
    //    only strategy that exercises the gain cache), refinement,
    //    exhaustive VID scoring and the run gauges.
    {
        let tel = Telemetry::new(TelemetryLevel::Full);
        let mut cfg = MatcherConfig {
            mode: SplitMode::Ideal,
            ..MatcherConfig::default()
        };
        cfg.split.strategy = evmatch::matching::setsplit::SelectionStrategy::GreedyBalanced;
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
            config: &VFilterConfig::default(),
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

    // 2. The parallel EDP baseline (one stage-DAG submission, one
    //    partition per EID) with injected failures on real threads:
    //    scheduler, retry and exec metrics.
    {
        use evmatch::matching::edp::{match_edp_parallel, EdpConfig};
        let tel = Telemetry::new(TelemetryLevel::Full);
        let flaky = DagConfig {
            faults: FaultPlan {
                task_failure_rate: 0.2,
                max_attempts: 50,
                seed: 11,
            },
            ..DagConfig::new(4)
        };
        match_edp_parallel(
            &flaky,
            &dataset.estore,
            &dataset.video,
            &targets,
            &EdpConfig::default(),
            &tel,
        )
        .map_err(|e| format!("smoke parallel EDP run: {e}"))?;
        let retries = tel
            .registry()
            .counter_value(names::DAG_TASK_RETRIES)
            .unwrap_or(0);
        if retries == 0 {
            return Err("flaky smoke EDP job recorded no task retries".into());
        }
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

        // 6. A flight dump triggered the scheduler-internal way: a
        //    submission whose retry budget a 95% failure rate must
        //    exhaust.
        {
            let tel = Telemetry::new(TelemetryLevel::Counters);
            tel.flight().set_enabled(true);
            tel.set_flight_dir(Some(scratch.clone()));
            let before = tel
                .registry()
                .counter_value(names::FLIGHT_DUMPS)
                .unwrap_or(0);
            let failed = dag_match(
                &DagConfig {
                    faults: FaultPlan {
                        task_failure_rate: 0.95,
                        max_attempts: 2,
                        seed: 1,
                    },
                    ..DagConfig::new(2)
                },
                &dataset.estore,
                &dataset.video,
                &targets,
                args.seed,
                &VFilterConfig::default(),
                &tel,
            );
            if failed.is_ok() {
                return Err("exhaustion probe unexpectedly succeeded".into());
            }
            let after = tel
                .registry()
                .counter_value(names::FLIGHT_DUMPS)
                .unwrap_or(0);
            if after <= before {
                return Err("retry exhaustion did not write a flight dump".into());
            }
            absorb_into(&mut seen, &tel);
        }

        // 7. Streaming serve loop: ingest half the world, apply, stage
        //    the rest, query stale then fresh — the serve-layer
        //    counters, staleness/epoch gauges, query-latency histogram
        //    and the Algorithm-1 delta-update (incr) metrics.
        {
            use evmatch::serve::{LiveCorpus, ServeConfig};
            let tel = Telemetry::new(TelemetryLevel::Counters);
            let dir = scratch.join("live");
            let mut live = LiveCorpus::open(
                &dir,
                ServeConfig {
                    watch: targets.clone(),
                    ..ServeConfig::default()
                },
                &tel,
            )
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

        // 8. The stage-DAG pipeline under injected worker loss, so
        //    every `evm_dag_*` metric carries a live value. The report
        //    must still be byte-identical to an unfaulted run.
        {
            let tel = Telemetry::new(TelemetryLevel::Full);
            let healthy = dag_match(
                &DagConfig::new(2),
                &dataset.estore,
                &dataset.video,
                &targets,
                args.seed,
                &VFilterConfig::default(),
                Telemetry::disabled(),
            )
            .map_err(|e| format!("smoke dag run: {e}"))?;
            let stressed = dag_match(
                &DagConfig {
                    faults: FaultPlan {
                        task_failure_rate: 0.2,
                        max_attempts: 24,
                        seed: 7,
                    },
                    ..DagConfig::new(2)
                },
                &dataset.estore,
                &dataset.video,
                &targets,
                args.seed,
                &VFilterConfig::default(),
                &tel,
            )
            .map_err(|e| format!("smoke dag run (stressed): {e}"))?;
            if stressed.outcomes != healthy.outcomes || stressed.lists != healthy.lists {
                return Err("stressed dag run diverged from the healthy report".into());
            }
            let retries = tel
                .registry()
                .counter_value(names::DAG_TASK_RETRIES)
                .unwrap_or(0);
            if retries == 0 {
                return Err("dag smoke run injected faults but recorded no retries".into());
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
    let path = args
        .rest
        .get("in")
        .ok_or("check-metrics needs --in PATH (or --smoke)")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let exposition =
        prometheus::parse_exposition(&text).map_err(|e| format!("{path}: parse error: {e}"))?;
    for &name in REQUIRED_METRICS {
        if exposition.value(name).is_none() {
            return Err(format!("{path}: required metric {name} is missing"));
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
    // header, and each decoded record — E at load, V when a match first
    // extracted it — was read as a frame around at least the
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

/// `evmatch check-anytime`: certifies the anytime scorer against the
/// exhaustive one on a generated corpus. Three contracts are enforced
/// per EID (see `DESIGN.md` §8):
///
/// 1. a converged anytime result names the exact winner;
/// 2. the vote-share interval brackets the exact winner's share;
/// 3. `--confidence 1.0` (no budget) reproduces the exact
///    `MatchOutcome`s byte for byte.
fn cmd_check_anytime(args: &CommonArgs) -> Result<(), String> {
    use evmatch::matching::vfilter::{GalleryCache, VFilterConfig, VStage};

    const EPS: f64 = 1e-12;
    let confidence = args.confidence.unwrap_or(0.95);
    let dataset = build_dataset(args)?;
    let targets = sample_targets(&dataset, args.targets, args.seed);
    let matcher = EvMatcher::new(&dataset.estore, &dataset.video, MatcherConfig::default());
    let report = matcher.match_many(&targets).map_err(|e| e.to_string())?;

    let exact_cfg = VFilterConfig::default();
    let anytime_cfg = VFilterConfig {
        anytime: Some(AnytimeConfig {
            confidence,
            budget_scenarios: args.budget_scenarios,
        }),
        ..VFilterConfig::default()
    };
    let none = std::collections::BTreeSet::new();
    let mut converged = 0usize;
    let mut scored = 0usize;
    let mut total = 0usize;
    for (eid, list) in &report.lists {
        let exact = VStage {
            video: &dataset.video,
            config: &exact_cfg,
            cache: &mut GalleryCache::new(),
            telemetry: Telemetry::disabled(),
        }
        .filter_one(*eid, list, &none);
        let partial = VStage {
            video: &dataset.video,
            config: &anytime_cfg,
            cache: &mut GalleryCache::new(),
            telemetry: Telemetry::disabled(),
        }
        .filter_partial(*eid, list, &none);
        if partial.converged {
            converged += 1;
            if partial.vid != exact.vid {
                return Err(format!(
                    "{eid}: converged on {:?} but the exact winner is {:?}",
                    partial.vid, exact.vid
                ));
            }
        }
        if partial.vote_share_low > exact.vote_share + EPS
            || partial.vote_share_high < exact.vote_share - EPS
        {
            return Err(format!(
                "{eid}: exact vote share {} escapes the certified interval [{}, {}]",
                exact.vote_share, partial.vote_share_low, partial.vote_share_high
            ));
        }
        scored += partial.scenarios_scored;
        total += partial.scenarios_total;
    }

    // Contract 3: full confidence must be the exact path, byte for byte.
    let mut full = MatcherConfig::default();
    full.vfilter.anytime = Some(AnytimeConfig::default());
    let routed = EvMatcher::new(&dataset.estore, &dataset.video, full)
        .match_many(&targets)
        .map_err(|e| e.to_string())?;
    if routed.outcomes != report.outcomes || routed.lists != report.lists {
        return Err("--confidence 1.0 diverged from the exact report".into());
    }

    println!(
        "ok: {} EIDs at confidence {confidence}: {converged} converged, \
         {scored}/{total} scenarios scored exactly, exact report reproduced at 1.0",
        report.lists.len(),
    );
    Ok(())
}

fn cmd_match(args: &CommonArgs) -> Result<(), String> {
    let (dataset, report) = run_match(args)?;
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
    let (dataset, report) = run_match(args)?;
    let index = FusedIndex::build(&dataset.estore, &dataset.video, &report);

    if let Some(eid_text) = args.rest.get("eid") {
        let eid: Eid = eid_text
            .parse()
            .map_err(|e: evmatch::core::Error| e.to_string())?;
        match index.profile_by_eid(eid) {
            None => println!("{eid}: not matched (or not in the requested target set)"),
            Some(profile) => {
                println!(
                    "{eid} == {} (vote share {:.0}%)",
                    profile.identity.vid,
                    profile.identity.vote_share * 100.0,
                );
                println!(
                    "electronic trail: {} observations over {} cells",
                    profile.e_trail.len(),
                    profile.e_trail.cells_visited().len(),
                );
                println!(
                    "visual sightings in processed footage: {}",
                    profile.v_sightings.len()
                );
                for e in index.encounters(eid, 2).iter().take(5) {
                    println!(
                        "  frequent contact: {} ({} shared scenarios)",
                        e.eid, e.shared_scenarios
                    );
                }
            }
        }
        return Ok(());
    }

    if let Some(cell_text) = args.rest.get("cell") {
        let cell: usize = cell_text.parse().map_err(|e| format!("{e}"))?;
        let from: u64 = args
            .rest
            .get("from")
            .map_or(Ok(0), |v| v.parse().map_err(|e| format!("{e}")))?;
        let to: u64 = args
            .rest
            .get("to")
            .map_or(Ok(args.duration), |v| v.parse().map_err(|e| format!("{e}")))?;
        let cells = [evmatch::core::region::CellId::new(cell)];
        let range = evmatch::core::time::TimeRange::new(
            evmatch::core::time::Timestamp::new(from),
            evmatch::core::time::Timestamp::new(to),
        );
        let present = index.present_at(&cells, range);
        println!(
            "{} matched identit(ies) present in cell#{cell} during [{from}, {to}):",
            present.len()
        );
        for identity in present {
            println!("  {} == {}", identity.eid, identity.vid);
        }
        return Ok(());
    }

    Err("query needs --eid HEX or --cell N [--from T0 --to T1]".into())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!(
            "usage: evmatch <generate|ingest|serve|match|query|check-metrics|check-anytime> [flags]"
        );
        return ExitCode::from(2);
    };
    let args = match parse_args(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("argument error: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match command.as_str() {
        "generate" => cmd_generate(&args),
        "ingest" => cmd_ingest(&args),
        "serve" => cmd_serve(&args),
        "match" => cmd_match(&args),
        "query" => cmd_query(&args),
        "check-metrics" => cmd_check_metrics(&args),
        "check-anytime" => cmd_check_anytime(&args),
        other => Err(format!("unknown command {other}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
