//! Prices the observability plane: the parallel matching pipeline at the
//! production `counters` level with the flight recorder off, on, and on
//! while a live `/metrics` endpoint is being scraped. Written to
//! `results/BENCH_obs.json`.
//!
//! The issue's acceptance target is < 3% overhead with the flight
//! recorder armed: every recorded entry is one `fetch_add` slot claim
//! plus a bounded copy into a fixed ring, so arming it must stay cheap
//! enough to leave on for any run whose post-mortem might matter. The
//! serve variant additionally scrapes `/metrics` from a background
//! thread mid-run to price a live dashboard against a quiet endpoint.
//!
//! Custom main (no criterion harness): the results must land in a JSON
//! record, so we drain [`Criterion::take_results`] ourselves.

use criterion::{BenchResult, Criterion};
use ev_datagen::{sample_targets, DatasetConfig, EvDataset};
use ev_mapreduce::DagConfig;
use ev_matching::dagflow::dag_match;
use ev_matching::vfilter::VFilterConfig;
use ev_telemetry::{MetricsServer, Telemetry, TelemetryLevel};
use serde::Serialize;
use std::collections::BTreeSet;
use std::path::Path;

/// Threads every measured pipeline runs on.
const WORKERS: usize = 4;

/// One exported measurement.
#[derive(Debug, Serialize)]
struct Entry {
    id: String,
    per_iter_ns: u64,
    iterations: u64,
}

impl From<BenchResult> for Entry {
    fn from(r: BenchResult) -> Self {
        Entry {
            id: r.id,
            per_iter_ns: u64::try_from(r.per_iter.as_nanos()).unwrap_or(u64::MAX),
            iterations: r.iterations,
        }
    }
}

/// The full `BENCH_obs.json` record.
#[derive(Debug, Serialize)]
struct Record {
    population: u64,
    duration: u64,
    targets: usize,
    workers: usize,
    host_parallelism: usize,
    /// (flight − baseline) / baseline, in percent (the < 3% target).
    flight_overhead_pct: f64,
    /// (flight + live scrapes − baseline) / baseline, in percent.
    flight_serve_overhead_pct: f64,
    /// `/metrics` scrapes answered during the serve variant.
    scrapes_answered: u64,
    results: Vec<Entry>,
}

fn per_iter_ns(results: &[Entry], id: &str) -> f64 {
    results
        .iter()
        .find(|e| e.id == id)
        .map(|e| e.per_iter_ns as f64)
        .expect("benchmark id present")
}

/// One full parallel match on `WORKERS` threads wired to `tel`.
fn run_pipeline(data: &EvDataset, targets: &BTreeSet<ev_core::ids::Eid>, tel: &Telemetry) -> usize {
    data.video.reset_usage();
    dag_match(
        &DagConfig::new(WORKERS),
        &data.estore,
        &data.video,
        targets,
        0,
        &VFilterConfig::default(),
        tel,
    )
    .expect("a fault-free run cannot fail")
    .outcomes
    .len()
}

/// Scrapes `GET /metrics` once; returns true on a 200 with a body.
fn scrape(addr: &std::net::SocketAddr) -> bool {
    use std::io::{Read, Write};
    let Ok(mut stream) = std::net::TcpStream::connect(addr) else {
        return false;
    };
    if stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")
        .is_err()
    {
        return false;
    }
    let mut body = String::new();
    stream.read_to_string(&mut body).is_ok() && body.starts_with("HTTP/1.1 200")
}

fn main() {
    let host_parallelism = ev_bench::announce_host_parallelism();
    let population = 400;
    let duration = 300;
    let n_targets = 100;
    let data = EvDataset::generate(&DatasetConfig {
        population,
        duration,
        ..DatasetConfig::default()
    })
    .expect("valid config");
    let targets = sample_targets(&data, n_targets, 1);
    let _ = data.estore.index();

    let mut c = Criterion::default();
    let mut group = c.benchmark_group("observability");
    group.sample_size(10);

    group.bench_function("baseline", |b| {
        b.iter(|| {
            let tel = Telemetry::new(TelemetryLevel::Counters);
            run_pipeline(&data, &targets, &tel)
        });
    });
    group.bench_function("flight", |b| {
        b.iter(|| {
            let tel = Telemetry::new(TelemetryLevel::Counters);
            tel.flight().set_enabled(true);
            run_pipeline(&data, &targets, &tel)
        });
    });

    // The serve variant holds one server + one scraper for the whole
    // measurement: the endpoint is part of the process being priced, not
    // of any single iteration.
    let serve_tel = Telemetry::new(TelemetryLevel::Counters);
    serve_tel.flight().set_enabled(true);
    let server = MetricsServer::start("127.0.0.1:0", &serve_tel).expect("bind bench port");
    let addr = server.addr();
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let scraper = {
        let stop = std::sync::Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut answered = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                if scrape(&addr) {
                    answered += 1;
                }
                // A dashboard polls on the order of seconds; 250ms is
                // already 4-60x more aggressive than any real scraper.
                std::thread::sleep(std::time::Duration::from_millis(250));
            }
            answered
        })
    };
    group.bench_function("flight_serve", |b| {
        b.iter(|| run_pipeline(&data, &targets, &serve_tel));
    });
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let scrapes_answered = scraper.join().expect("scraper thread");
    server.stop();
    group.finish();

    let results: Vec<Entry> = c.take_results().into_iter().map(Entry::from).collect();
    let baseline = per_iter_ns(&results, "observability/baseline");
    let flight = per_iter_ns(&results, "observability/flight");
    let flight_serve = per_iter_ns(&results, "observability/flight_serve");
    let record = Record {
        population,
        duration,
        targets: n_targets,
        workers: WORKERS,
        host_parallelism,
        flight_overhead_pct: (flight - baseline) / baseline * 100.0,
        flight_serve_overhead_pct: (flight_serve - baseline) / baseline * 100.0,
        scrapes_answered,
        results,
    };

    for e in &record.results {
        println!(
            "{:<40} {:>12} ns/iter  ({} iters)",
            e.id, e.per_iter_ns, e.iterations
        );
    }
    println!(
        "flight overhead: {:+.2}%   flight+serve overhead: {:+.2}%   scrapes answered: {}",
        record.flight_overhead_pct, record.flight_serve_overhead_pct, record.scrapes_answered
    );

    // Anchor to the workspace-root results directory regardless of the
    // CWD cargo picked for the bench binary.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    let json = serde_json::to_string_pretty(&record).expect("serialize record");
    std::fs::write(dir.join("BENCH_obs.json"), json).expect("write BENCH_obs.json");
}
