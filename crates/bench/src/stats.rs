//! The paper's measurement methodology (§V, "Benchmark methodology"):
//! repeat each experiment until the standard deviation is within 5 % of
//! the arithmetic mean (at least `min_runs`, at most `max_runs` before
//! falling back to the 99 % confidence-interval criterion), and compute
//! aggregate overheads as ratios of totals, not averages of ratios
//! (Fleming–Wallace; the paper's footnote 2).

/// Summary statistics of one measured quantity.
#[derive(Debug, Clone, Copy)]
pub struct RunStats {
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std: f64,
    /// Number of runs taken.
    pub runs: usize,
    /// Half-width of the 99 % confidence interval.
    pub ci99_half: f64,
}

fn summarize(samples: &[f64]) -> RunStats {
    let n = samples.len();
    let mean = samples.iter().sum::<f64>() / n as f64;
    let var = if n > 1 {
        samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64
    } else {
        0.0
    };
    let std = var.sqrt();
    // z ≈ 2.576 for 99 % (normal approximation; the paper does the same
    // large-sample treatment).
    let ci99_half = 2.576 * std / (n as f64).sqrt();
    RunStats {
        mean,
        std,
        runs: n,
        ci99_half,
    }
}

/// Repeat `f` per the paper's stopping rule.
///
/// After `max_runs` the 99 % CI criterion takes over; a hard cap of
/// `4 × max_runs` bounds the loop. `min_runs = 1` is allowed for
/// measurements the caller knows to be deterministic (the simulator's
/// calibrated mode) where repetition would only burn wall time.
pub fn measure_until_stable(
    min_runs: usize,
    max_runs: usize,
    mut f: impl FnMut() -> f64,
) -> RunStats {
    assert!(min_runs >= 1 && max_runs >= min_runs);
    let mut samples = Vec::with_capacity(min_runs);
    loop {
        samples.push(f());
        if samples.len() < min_runs {
            continue;
        }
        let stats = summarize(&samples);
        let rel_ok = stats.std <= 0.05 * stats.mean.abs();
        if rel_ok && samples.len() >= min_runs {
            return stats;
        }
        if samples.len() >= max_runs
            && (stats.ci99_half <= 0.05 * stats.mean.abs() || samples.len() >= 4 * max_runs)
        {
            return stats;
        }
    }
}

/// Aggregate overhead of `encrypted` vs `baseline` totals, in percent —
/// ratio of totals per Fleming–Wallace, as the paper computes its NAS
/// overheads.
pub fn overhead_percent_of_totals(baseline: &[f64], encrypted: &[f64]) -> f64 {
    let b: f64 = baseline.iter().sum();
    let e: f64 = encrypted.iter().sum();
    (e / b - 1.0) * 100.0
}

/// Percentage overhead of a single pair of times.
pub fn overhead_percent(baseline: f64, encrypted: f64) -> f64 {
    (encrypted / baseline - 1.0) * 100.0
}

/// The same overhead from a pair of throughputs (`base/enc − 1`): equal
/// to [`overhead_percent`] on paper, not in floating point, so each
/// table stays on the form it was recorded with.
pub fn overhead_percent_of_mbs(base_mbs: f64, enc_mbs: f64) -> f64 {
    (base_mbs / enc_mbs - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    impl RunStats {
        /// Did the measurement meet the paper's 5 %-of-mean criterion?
        fn stable(&self) -> bool {
            self.std <= 0.05 * self.mean.abs() || self.ci99_half <= 0.05 * self.mean.abs()
        }
    }

    #[test]
    fn deterministic_measurement_stops_at_min_runs() {
        let mut calls = 0;
        let s = measure_until_stable(3, 10, || {
            calls += 1;
            42.0
        });
        assert_eq!(calls, 3);
        assert_eq!(s.mean, 42.0);
        assert_eq!(s.std, 0.0);
        assert!(s.stable());
    }

    #[test]
    fn noisy_measurement_takes_more_runs() {
        let mut i = 0usize;
        let s = measure_until_stable(3, 50, || {
            i += 1;
            // High variance at first, then settles.
            if i < 6 {
                100.0 * (i % 2 + 1) as f64
            } else {
                150.0
            }
        });
        assert!(s.runs > 3);
        assert!(s.mean > 100.0 && s.mean < 200.0);
    }

    #[test]
    fn ci_fallback_terminates() {
        // Never-settling alternation: must stop by the hard cap.
        let mut i = 0usize;
        let s = measure_until_stable(2, 5, || {
            i += 1;
            if i.is_multiple_of(2) {
                1.0
            } else {
                10.0
            }
        });
        assert!(s.runs <= 20);
    }

    #[test]
    fn fleming_wallace_totals() {
        // Ratio of totals, not average of ratios: the classic example
        // where the two disagree.
        let base = [1.0, 100.0];
        let enc = [2.0, 110.0];
        let oh = overhead_percent_of_totals(&base, &enc);
        assert!((oh - 10.89).abs() < 0.01, "got {oh}");
        // Average of ratios would claim (100% + 10%)/2 = 55%.
    }

    #[test]
    fn single_overhead() {
        assert!((overhead_percent(100.0, 178.3) - 78.3).abs() < 1e-9);
    }
}
