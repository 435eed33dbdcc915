//! The few statistics every reported number goes through.
//!
//! A timing is the median of the quietest window of [`WINDOW`] consecutive
//! operations. On a shared host interference only ever adds time; it arrives
//! in bursts that slow most, not all, operations of a 12 s run. Over 38
//! back-to-back runs of `kernel-fwd` the whole-run median had a quartile
//! spread of 17 %, the median of the quietest 0.125 s slice 4 % with one run
//! in six 15-45 % off, and the median of the quietest 8 operations 2.8 % with
//! one run in twenty off (runs in which the host slowed every operation).
//! Windows of 3 to 32 operations all repeat about as well; shorter ones drift
//! further below what an operation typically takes.

/// Samples that must lie beyond a percentile before it is reported as such.
pub const MIN_BEYOND: usize = 10;

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median (mean of the two middle samples for even counts); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank `q`-quantile, or `None` when fewer than [`MIN_BEYOND`]
/// samples lie beyond it (the sample does not support that percentile).
pub fn percentile(v: &[f64], q: f64) -> Option<f64> {
    let n = v.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    (n >= rank + MIN_BEYOND).then(|| sorted(v)[rank - 1])
}

/// The p99 of a round, or 0 when the round is too small to have one.
pub fn p99(v: &[f64]) -> f64 {
    percentile(v, 0.99).unwrap_or(0.0)
}

/// Geometric mean of the positive entries; 0 when there are none.
pub fn geomean(v: &[f64]) -> f64 {
    let pos: Vec<f64> = v.iter().copied().filter(|x| *x > 0.0).collect();
    if pos.is_empty() {
        return 0.0;
    }
    (pos.iter().map(|x| x.ln()).sum::<f64>() / pos.len() as f64).exp()
}

/// Operations per window of [`quiet_median`].
pub const WINDOW: usize = 8;

/// Median of the quietest window: each slice (operations in the order they
/// ran) is cut into windows of [`WINDOW`] consecutive operations — a slice
/// with fewer is one window — and the smallest window median wins. 0 when
/// there are no samples.
pub fn quiet_median(slices: &[Vec<f64>]) -> f64 {
    slices
        .iter()
        .filter(|s| !s.is_empty())
        .flat_map(|s| {
            if s.len() < WINDOW {
                vec![median(s)]
            } else {
                s.chunks_exact(WINDOW).map(median).collect()
            }
        })
        .min_by(f64::total_cmp)
        .unwrap_or(0.0)
}

/// `stat` of the quietest round: the smallest `stat(round)` over the
/// non-empty rounds; 0 when there are none.
pub fn quietest(rounds: &[Vec<f64>], stat: fn(&[f64]) -> f64) -> f64 {
    rounds
        .iter()
        .filter(|r| !r.is_empty())
        .map(|r| stat(r))
        .min_by(f64::total_cmp)
        .unwrap_or(0.0)
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles Python's `statistics.quantiles(v, n=4)` gives (the
/// "exclusive" method) — the spread the acceptance check is written in.
pub fn quartile_spread(v: &[f64]) -> f64 {
    let s = sorted(v);
    let n = s.len();
    if n < 2 {
        return 0.0;
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    let m = median(&s);
    if m == 0.0 {
        0.0
    } else {
        (cut(3) - cut(1)) / m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // rank 990, ten samples (991..=1000) beyond it.
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        // 999 samples: rank 990, only nine beyond.
        assert_eq!(percentile(&v[..999], 0.99), None);
        assert_eq!(percentile(&v[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&v[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn p99_is_only_reported_when_supported() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(p99(&v), 1980.0);
        assert_eq!(p99(&[5.0, 9.0, 7.0]), 0.0);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 8.0, 0.0]) - 4.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn quietest_round_ignores_noisy_and_empty_rounds() {
        let rounds = vec![
            vec![10.0, 11.0, 12.0],
            vec![500.0, 600.0, 700.0],
            vec![9.0, 10.0, 11.0],
            vec![],
        ];
        assert_eq!(quietest(&rounds, median), 10.0);
        assert_eq!(quietest(&[], median), 0.0);
    }

    #[test]
    fn quiet_median_finds_the_one_quiet_window() {
        // 32 noisy operations, 8 quiet ones, noise again: the fifth window.
        let mut slice = vec![50.0; 32];
        slice.extend((0..8).map(|i| 10.0 + f64::from(i % 3)));
        slice.extend(vec![70.0; 30]);
        assert_eq!(quiet_median(&[slice.clone()]), 11.0);
        // It is a window *median*: a lone fast operation does not win.
        slice[0] = 1.0;
        assert_eq!(quiet_median(&[slice]), 11.0);
        // A short slice is one window; slices never share a window.
        assert_eq!(quiet_median(&[vec![9.0, 5.0, 7.0], vec![20.0; 8]]), 7.0);
        assert_eq!(quiet_median(&[vec![], vec![]]), 0.0);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert!((quartile_spread(&[1.0, 2.0]) - 1.0).abs() < 1e-12);
    }
}
