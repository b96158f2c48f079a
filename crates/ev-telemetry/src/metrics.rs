//! A global-free metrics registry: atomic counters, gauges and
//! log-bucketed latency histograms, snapshot-exportable as JSON or
//! Prometheus text exposition.
//!
//! Instrumentation sites resolve `Arc` handles once (outside hot loops)
//! and then touch nothing but a relaxed atomic per update. The registry
//! itself is only locked on handle resolution and on export.

use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of histogram buckets, including the final `+Inf` overflow
/// bucket. Finite upper bounds are `2^0 .. 2^(BUCKET_COUNT-2)`, which
/// for nanosecond samples spans one nanosecond to ~4.5 minutes.
pub const BUCKET_COUNT: usize = 40;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins floating-point gauge (value stored as f64 bits).
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub(crate) fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A histogram with power-of-two bucket upper bounds (`le = 2^i`) and a
/// trailing `+Inf` overflow bucket. Samples are `u64` (by convention,
/// nanoseconds for latencies).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKET_COUNT],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// The bucket a sample lands in: the smallest `i` with `v <= 2^i`,
/// clamped to the overflow bucket.
#[must_use]
pub fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        let ceil_log2 = (u64::BITS - (v - 1).leading_zeros()) as usize;
        ceil_log2.min(BUCKET_COUNT - 1)
    }
}

/// The inclusive upper bound of bucket `i`, or `None` for `+Inf`.
#[must_use]
pub fn bucket_bound(i: usize) -> Option<u64> {
    if i + 1 < BUCKET_COUNT {
        Some(1u64 << i)
    } else {
        None
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Folds another histogram's samples into this one.
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// The upper bound of the first bucket whose cumulative count
    /// reaches quantile `q` (clamped to `[0, 1]`). Returns `None` when
    /// empty or when the quantile lands in the `+Inf` bucket.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        self.snapshot().quantile(q)
    }

    /// A consistent point-in-time copy.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A plain-data copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (not cumulative), `BUCKET_COUNT` long.
    pub buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// See [`Histogram::quantile`].
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                return bucket_bound(i);
            }
        }
        None
    }

    /// Mean sample value (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Default number of samples a [`Reservoir`] retains.
pub(crate) const RESERVOIR_CAPACITY: usize = 4096;

/// `splitmix64` — a tiny, high-quality deterministic bit mixer. Used
/// for reservoir replacement draws so quantiles are reproducible from
/// the insertion sequence alone (no wall clock, no RNG state).
#[must_use]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A bounded uniform sample of a `u64` stream (Vitter's Algorithm R
/// with a deterministic `splitmix64` draw keyed by the insertion
/// index), supporting *exact* quantiles over the retained sample —
/// unlike [`Histogram`], whose log₂ buckets only bound a quantile to a
/// power-of-two interval.
///
/// Until `capacity` samples have been seen the reservoir holds the
/// entire stream and its quantiles are exact over all observations.
#[derive(Debug)]
pub struct Reservoir {
    samples: Mutex<Vec<u64>>,
    seen: AtomicU64,
    capacity: usize,
}

impl Default for Reservoir {
    fn default() -> Self {
        Reservoir::with_capacity(RESERVOIR_CAPACITY)
    }
}

impl Reservoir {
    /// A reservoir retaining at most `capacity` samples.
    #[must_use]
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Reservoir {
            samples: Mutex::new(Vec::new()),
            seen: AtomicU64::new(0),
            capacity: capacity.max(1),
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        let n = self.seen.fetch_add(1, Ordering::Relaxed);
        let mut samples = self.samples.lock();
        if samples.len() < self.capacity {
            samples.push(v);
        } else {
            let j = splitmix64(n) % (n + 1);
            if (j as usize) < self.capacity {
                samples[j as usize] = v;
            }
        }
    }

    /// Whether no samples have been retained.
    #[must_use]
    pub(crate) fn is_empty(&self) -> bool {
        self.samples.lock().is_empty()
    }

    /// The exact `q`-quantile (clamped to `[0, 1]`) of the retained
    /// sample, or `None` when empty. `q = 0.5` is the median; the value
    /// returned is always one of the retained samples (lower
    /// interpolation).
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let samples = self.samples.lock();
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.clone();
        drop(samples);
        sorted.sort_unstable();
        let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil().max(1.0) as usize;
        Some(sorted[rank.min(sorted.len()) - 1])
    }
}

/// A plain-data copy of every metric in a registry, in name order.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter name → value.
    pub counters: BTreeMap<String, u64>,
    /// Gauge name → value.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram name → bucket snapshot.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// The registry: an owned (non-global) name → metric map. Handle
/// resolution takes a short lock; updates through the returned `Arc`s
/// are lock-free.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

fn resolve<M: Default>(map: &RwLock<BTreeMap<String, Arc<M>>>, name: &str) -> Arc<M> {
    if let Some(m) = map.read().get(name) {
        return Arc::clone(m);
    }
    Arc::clone(map.write().entry(name.to_string()).or_default())
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The counter registered under `name`, created on first use.
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        resolve(&self.counters, name)
    }

    /// The gauge registered under `name`, created on first use.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        resolve(&self.gauges, name)
    }

    /// The histogram registered under `name`, created on first use.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        resolve(&self.histograms, name)
    }

    /// The current value of a counter, if registered.
    #[must_use]
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters.read().get(name).map(|c| c.get())
    }

    /// The current value of a gauge, if registered.
    #[must_use]
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.read().get(name).map(|g| g.get())
    }

    /// A point-in-time copy of every metric.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }

    /// The snapshot as a JSON value (`{"counters": .., "gauges": ..,
    /// "histograms": ..}`).
    #[must_use]
    pub fn to_json(&self) -> Value {
        json!(self.snapshot())
    }

    /// The snapshot in Prometheus text exposition format.
    #[must_use]
    pub fn prometheus_text(&self) -> String {
        crate::prometheus::render(&self.snapshot())
    }
}
