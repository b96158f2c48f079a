//! Prometheus text exposition: a renderer for
//! [`MetricsSnapshot`] and a strict line-format
//! parser that round-trips the renderer's output (used by tests and by
//! the `evmatch check-metrics` CI gate).

use crate::metrics::{bucket_bound, MetricsSnapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Renders a snapshot in the text exposition format: one `# TYPE`
/// comment per family, then its samples. Histograms emit cumulative
/// `_bucket{le="..."}` samples plus `_sum` and `_count`.
#[must_use]
pub fn render(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, value) in &snapshot.gauges {
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {}", format_float(*value));
    }
    for (name, hist) in &snapshot.histograms {
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cumulative = 0u64;
        for (i, n) in hist.buckets.iter().enumerate() {
            cumulative += n;
            let le = bucket_bound(i).map_or_else(|| "+Inf".to_string(), |b| b.to_string());
            let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{name}_sum {}", hist.sum);
        let _ = writeln!(out, "{name}_count {}", hist.count);
    }
    out
}

fn format_float(v: f64) -> String {
    if v == v.trunc() && v.is_finite() && v.abs() < 1e15 {
        // Integral gauges render without a fraction, like Prometheus.
        format!("{v:.0}")
    } else {
        format!("{v}")
    }
}

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Full sample name (including `_bucket`/`_sum`/`_count` suffixes).
    pub name: String,
    /// Label pairs in source order (`le` for histogram buckets).
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

/// One metric family: its declared type and its samples.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Family {
    /// Declared type (`counter`, `gauge`, `histogram`).
    pub kind: String,
    /// Samples in source order.
    pub samples: Vec<Sample>,
}

/// A parsed exposition document.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Exposition {
    /// Family name → declared type and samples.
    pub families: BTreeMap<String, Family>,
}

impl Exposition {
    /// The value of the unlabelled sample named exactly `name`, looked
    /// up across all families (counters and gauges).
    #[must_use]
    pub fn value(&self, name: &str) -> Option<f64> {
        self.families.values().find_map(|f| {
            f.samples
                .iter()
                .find(|s| s.name == name && s.labels.is_empty())
                .map(|s| s.value)
        })
    }

    /// The declared type of family `name`, if present.
    #[must_use]
    pub fn kind(&self, name: &str) -> Option<&str> {
        self.families.get(name).map(|f| f.kind.as_str())
    }
}

fn is_name_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_' || c == ':'
}

fn is_name_char(c: char) -> bool {
    is_name_start(c) || c.is_ascii_digit()
}

fn parse_name(line: &str, lineno: usize) -> Result<(String, &str), String> {
    let end = line
        .char_indices()
        .find(|&(i, c)| {
            if i == 0 {
                !is_name_start(c)
            } else {
                !is_name_char(c)
            }
        })
        .map_or(line.len(), |(i, _)| i);
    if end == 0 {
        return Err(format!("line {lineno}: expected metric name"));
    }
    Ok((line[..end].to_string(), &line[end..]))
}

type Labels = Vec<(String, String)>;

fn parse_labels(rest: &str, lineno: usize) -> Result<(Labels, &str), String> {
    let Some(body) = rest.strip_prefix('{') else {
        return Ok((Vec::new(), rest));
    };
    let close = body
        .find('}')
        .ok_or_else(|| format!("line {lineno}: unterminated label set"))?;
    let mut labels = Vec::new();
    let inner = &body[..close];
    if !inner.is_empty() {
        for pair in inner.split(',') {
            let (key, raw) = pair
                .split_once('=')
                .ok_or_else(|| format!("line {lineno}: label without `=`"))?;
            let raw = raw
                .strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .ok_or_else(|| format!("line {lineno}: unquoted label value"))?;
            if key.is_empty()
                || !key.chars().enumerate().all(|(i, c)| {
                    if i == 0 {
                        is_name_start(c)
                    } else {
                        is_name_char(c)
                    }
                })
            {
                return Err(format!("line {lineno}: bad label name {key:?}"));
            }
            labels.push((key.to_string(), raw.to_string()));
        }
    }
    Ok((labels, &body[close + 1..]))
}

fn parse_value(rest: &str, lineno: usize) -> Result<f64, String> {
    let rest = rest.trim();
    if rest.is_empty() {
        return Err(format!("line {lineno}: missing sample value"));
    }
    match rest {
        "+Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        other => other
            .parse::<f64>()
            .map_err(|e| format!("line {lineno}: bad sample value {other:?}: {e}")),
    }
}

/// The family a sample belongs to: its name with any histogram suffix
/// stripped.
fn family_of(sample_name: &str) -> &str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(stem) = sample_name.strip_suffix(suffix) {
            return stem;
        }
    }
    sample_name
}

/// Strictly parses a text exposition document.
///
/// Every sample line must be `name[{labels}] value`; every sample must
/// belong to a family declared by a preceding `# TYPE` line (histogram
/// suffixes `_bucket`/`_sum`/`_count` resolve to their stem family
/// when the stem was declared a histogram), and no name and label set
/// may appear twice, so [`Exposition::value`] has one answer.
///
/// # Errors
///
/// Returns a message naming the offending line on any format
/// violation.
pub fn parse_exposition(text: &str) -> Result<Exposition, String> {
    let mut exposition = Exposition::default();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(decl) = comment.strip_prefix("TYPE ") {
                let mut parts = decl.split_whitespace();
                let name = parts
                    .next()
                    .ok_or_else(|| format!("line {lineno}: TYPE without a name"))?;
                let kind = parts
                    .next()
                    .ok_or_else(|| format!("line {lineno}: TYPE without a type"))?;
                if !matches!(kind, "counter" | "gauge" | "histogram") {
                    return Err(format!("line {lineno}: unknown metric type {kind:?}"));
                }
                if parts.next().is_some() {
                    return Err(format!("line {lineno}: trailing tokens after TYPE"));
                }
                let prior = exposition.families.insert(
                    name.to_string(),
                    Family {
                        kind: kind.to_string(),
                        samples: Vec::new(),
                    },
                );
                if prior.is_some() {
                    return Err(format!("line {lineno}: duplicate TYPE for {name}"));
                }
            }
            // Other comments (# HELP, plain #) are permitted and skipped.
            continue;
        }
        let (name, rest) = parse_name(line, lineno)?;
        let (labels, rest) = parse_labels(rest, lineno)?;
        if !rest.starts_with(' ') && !rest.starts_with('\t') {
            return Err(format!(
                "line {lineno}: expected whitespace before sample value"
            ));
        }
        let value = parse_value(rest, lineno)?;
        let stem = family_of(&name);
        let family_name = if exposition
            .families
            .get(stem)
            .is_some_and(|f| f.kind == "histogram")
        {
            stem.to_string()
        } else {
            name.clone()
        };
        let family = exposition
            .families
            .get_mut(&family_name)
            .ok_or_else(|| format!("line {lineno}: sample {name} has no preceding TYPE"))?;
        if (family.samples.iter()).any(|s| s.name == name && s.labels == labels) {
            return Err(format!("line {lineno}: duplicate sample {name}"));
        }
        family.samples.push(Sample {
            name,
            labels,
            value,
        });
    }
    Ok(exposition)
}
