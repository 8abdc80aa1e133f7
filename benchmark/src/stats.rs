//! Order statistics and the layer-budget arithmetic.

/// Median (mean of the middle two for an even count). Panics on an
/// empty slice: every caller measures at least one pass.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median of `of(item)` over `items`.
pub fn median_by<T>(items: &[T], of: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(of).collect::<Vec<_>>())
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` of the samples at or below it.
pub fn percentile_sorted<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// The tail percentile reported for an operation with `n` guaranteed
/// samples: the higher of p90 / p75 with at least ten samples beyond
/// it, else the median.
///
/// p99 is not a candidate. It was, and on `serve_point` its A/A spread
/// was 5 % in one set of ten runs and 18 % in the next (p50: 2 % and
/// 6 %): on a two-core host the last percent of a closed loop is the
/// scheduler's, not the program's. A bound that wide gates nothing, so
/// p99 is demoted to the per-layer metric `server.p99_us`.
pub fn tail_percentile(n: usize) -> f64 {
    [0.90, 0.75]
        .into_iter()
        .find(|&p| n > 0 && samples_beyond(n, p) >= 10)
        .unwrap_or(0.50)
}

/// The best decile of per-pass values: the `ceil(n/10)`-th best of `n`
/// (the best one up to ten passes, the second best up to twenty).
///
/// Interference on a shared host only ever slows a pass down, so the
/// least disturbed passes say most about the program: on the reference
/// box the median pass of identical `serve_point` runs moved between
/// 137k and 186k req/s while the best decile stayed within 5 %.
pub fn best_decile(values: &[f64], higher_is_better: bool) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if higher_is_better {
        v.reverse();
    }
    let rank = values.len().div_ceil(10);
    v.get(rank.checked_sub(1)?).copied()
}

/// Share of `total` (percent) that the named `parts` do not cover.
/// Negative when the parts overlap or were timed on a slower pass.
pub fn unattributed_pct(total: f64, parts: &[f64]) -> f64 {
    100.0 * (1.0 - parts.iter().sum::<f64>() / total)
}

/// `(value - base) / base` in percent.
pub fn overhead_pct(value: f64, base: f64) -> f64 {
    100.0 * (value - base) / base
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.50), 50);
        assert_eq!(percentile_sorted(&v, 0.99), 99);
        assert_eq!(percentile_sorted(&v, 1.0), 100);
        assert_eq!(percentile_sorted(&[5u32], 0.99), 5);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // 40 refresh samples: p75 leaves exactly 10 beyond, p90 only 4
        assert_eq!(samples_beyond(40, 0.75), 10);
        assert_eq!(samples_beyond(40, 0.90), 4);
        assert_eq!(tail_percentile(40), 0.75);
        // 39 samples: nothing but the median qualifies
        assert_eq!(tail_percentile(39), 0.50);
        assert_eq!(tail_percentile(99), 0.75);
        assert_eq!(tail_percentile(100), 0.90);
        assert_eq!(tail_percentile(1_000_000), 0.90);
        assert_eq!(tail_percentile(3), 0.50);
        assert_eq!(tail_percentile(0), 0.50);
    }

    #[test]
    fn best_decile_picks_the_least_disturbed_passes() {
        assert_eq!(best_decile(&[], false), None);
        assert_eq!(best_decile(&[3.0, 1.0, 2.0], false), Some(1.0));
        assert_eq!(best_decile(&[3.0, 1.0, 2.0], true), Some(3.0));
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(best_decile(&v, false), Some(2.0));
        assert_eq!(best_decile(&v, true), Some(19.0));
        let v: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(best_decile(&v, true), Some(19.0));
    }

    #[test]
    fn layer_sum_arithmetic() {
        // 10 s end to end, layers cover 9.6 s: 4 % unattributed
        let u = unattributed_pct(10.0, &[2.5, 6.5, 0.4, 0.2]);
        assert!((u - 4.0).abs() < 1e-9, "{u}");
        assert!(unattributed_pct(1.0, &[0.7, 0.4]) < 0.0);
        assert!((overhead_pct(10.3, 10.0) - 3.0).abs() < 1e-9);
        assert!(overhead_pct(9.0, 10.0) < 0.0);
    }
}
