//! Log-linear HDR-style histogram with a fixed bucket layout.
//!
//! Values are `u64` nanoseconds (or any non-negative integer unit).
//! The layout is the classic log-linear scheme: each power-of-two
//! octave is split into [`SUB`] linear sub-buckets, so the relative
//! bucket width is at most `1/SUB` (6.25%) everywhere above the first
//! octave, and percentile estimates are exact to within one bucket
//! width. The layout is *fixed* — every histogram uses the same
//! [`BUCKETS`] buckets — which makes merging a plain element-wise add
//! and keeps snapshots byte-stable across runs.

/// log2 of the number of linear sub-buckets per octave.
pub const SUB_BITS: u32 = 4;

/// Linear sub-buckets per power-of-two octave (16).
pub const SUB: usize = 1 << SUB_BITS;

/// Total bucket count: values `< SUB` map 1:1 to the first [`SUB`]
/// buckets; each of the 60 remaining octaves (`2^4 ..= 2^63`) adds
/// [`SUB`] sub-buckets.
pub const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// Bucket index for a value (total order, contiguous, no gaps).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let group = msb - SUB_BITS + 1;
        let sub = (v >> (msb - SUB_BITS)) & (SUB as u64 - 1);
        ((group as usize) << SUB_BITS) | sub as usize
    }
}

/// Lowest value mapping to bucket `i`.
#[inline]
pub fn bucket_low(i: usize) -> u64 {
    let group = i >> SUB_BITS;
    let sub = (i & (SUB - 1)) as u64;
    if group == 0 {
        sub
    } else {
        (SUB as u64 + sub) << (group - 1)
    }
}

/// Highest value mapping to bucket `i`.
#[inline]
pub fn bucket_high(i: usize) -> u64 {
    if i + 1 >= BUCKETS {
        u64::MAX
    } else {
        bucket_low(i + 1) - 1
    }
}

/// A mergeable fixed-layout histogram tracking exact `count`, `sum`,
/// `min`, and `max` alongside the bucket counts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            counts: Box::new([0; BUCKETS]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Element-wise merge (associative and commutative — see the
    /// proptests in `tests/proptest_metrics.rs`).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`). The estimate is the
    /// upper edge of the bucket the quantile falls in, clamped to the
    /// observed `[min, max]` range, so it is within one bucket width
    /// (≤ 6.25% relative) of the exact sample quantile.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return bucket_high(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.value_at_quantile(0.50)
    }

    pub fn p99(&self) -> u64 {
        self.value_at_quantile(0.99)
    }

    pub fn p999(&self) -> u64 {
        self.value_at_quantile(0.999)
    }

    /// Non-empty buckets as `(index, count)` in index order.
    pub fn nonzero(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_contiguous_and_monotone() {
        // Every bucket's low edge maps back to its own index and edges
        // tile the u64 range without gaps.
        for i in 0..BUCKETS {
            let lo = bucket_low(i);
            assert_eq!(bucket_index(lo), i, "low edge of bucket {i}");
            assert_eq!(bucket_index(bucket_high(i)), i, "high edge of bucket {i}");
            if i > 0 {
                assert_eq!(bucket_high(i - 1), lo.wrapping_sub(1));
            }
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn relative_width_bounded() {
        for i in SUB..BUCKETS - 1 {
            let (lo, hi) = (bucket_low(i), bucket_high(i));
            let width = hi - lo + 1;
            assert!(
                (width as f64) <= lo as f64 / SUB as f64 + 1.0,
                "bucket {i}: width {width} low {lo}"
            );
        }
    }

    #[test]
    fn records_and_estimates() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        let p50 = h.p50();
        assert!((468..=532).contains(&p50), "p50={p50}");
        let p99 = h.p99();
        assert!((929..=1000).contains(&p99), "p99={p99}");
    }

    #[test]
    fn merge_matches_bulk_record() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in [0u64, 3, 15, 16, 17, 1 << 20, u64::MAX] {
            a.record(v);
            all.record(v);
        }
        for v in [5u64, 120_000, 7] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn empty_histogram_is_calm() {
        let h = Histogram::new();
        assert_eq!(h.p999(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.nonzero().count(), 0);
    }
}
