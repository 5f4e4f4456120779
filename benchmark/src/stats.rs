//! Order statistics over recorded samples and the process's peak memory.

/// The `q`-quantile (0 < q <= 1) of `samples` by the nearest-rank rule:
/// the smallest sample such that at least `q` of all samples are no
/// larger. Sorts in place; 0 for an empty set.
pub fn quantile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of a few floats (set-up repetitions); 0 for an empty set.
pub fn median_f64(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// `a / b`, or 0 when the layer did no work (`b == 0`).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set of this process in MiB (`VmHWM` of
/// `/proc/self/status`); 0 where the file is unavailable.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut s: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut s, 0.5), 50);
        assert_eq!(quantile(&mut s, 0.95), 95);
        assert_eq!(quantile(&mut s, 1.0), 100);
        assert_eq!(quantile(&mut [7], 0.5), 7);
        assert_eq!(quantile(&mut [], 0.5), 0);
    }

    #[test]
    fn medians_and_ratios() {
        assert_eq!(median_f64(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&mut [4.0, 1.0]), 2.5);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
