//! Order statistics over timing samples.

/// Percentiles the table may print as a tail, highest first.
const TAIL_LADDER: [u32; 4] = [99, 95, 90, 75];

/// The nearest-rank percentile `p` (0..=100) of `values`; `0.0` when
/// there are none.
pub fn percentile(values: &[f64], p: u32) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (sorted.len() * p as usize).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// The median (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50)
}

/// The arithmetic mean; `0.0` when there are no values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// The highest percentile of the ladder that still has at least ten of
/// `n` samples beyond it — the only tail worth printing beside a median.
pub fn supported_tail(n: usize) -> Option<u32> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n * (100 - p as usize) / 100 >= 10)
}

/// Runs `f` and returns its result with the wall time it took, seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_the_nearest_rank_middle() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        // Even count: nearest rank takes the lower middle, never an
        // interpolated value that was not measured.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn percentiles_pick_measured_values() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&v, 99), 99.0);
        assert_eq!(percentile(&v, 100), 100.0);
        assert_eq!(percentile(&v, 0), 1.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(39), None);
        assert_eq!(supported_tail(40), Some(75));
        assert_eq!(supported_tail(60), Some(75));
        assert_eq!(supported_tail(100), Some(90));
        assert_eq!(supported_tail(200), Some(95));
        assert_eq!(supported_tail(1000), Some(99));
    }
}
