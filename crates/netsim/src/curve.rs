//! Size-indexed calibration curves.
//!
//! Fabric presets are calibrated against the paper's *measured baseline*
//! tables rather than first-principles constants (DESIGN.md §5): a curve
//! maps message size to a throughput (MB/s), and times are derived from
//! it. Interpolation is piecewise-linear in log-log space, which matches
//! how such benchmark curves look on the paper's log-scale axes.
//!
//! A curve is pure — a size always prices the same — so its anchors'
//! logs are taken once, at construction, and a [`SizeMemo`] keeps the
//! price of each distinct size its owner has seen.

use std::cell::Cell;

/// One anchor with its logs taken once: `(size, MB/s, ln size, ln MB/s)`.
type Anchor = (f64, f64, f64, f64);

/// A piecewise log-log curve over `(size_bytes, MB/s)` anchors.
#[derive(Debug, Clone)]
pub struct Curve {
    anchors: Vec<Anchor>,
}

impl Curve {
    /// Build from anchors sorted by size (validated).
    pub fn new(anchors: &[(usize, f64)]) -> Self {
        assert!(!anchors.is_empty(), "curve needs at least one anchor");
        for w in anchors.windows(2) {
            assert!(w[0].0 < w[1].0, "curve anchors must be strictly increasing");
        }
        assert!(
            anchors.iter().all(|&(s, v)| s > 0 && v > 0.0),
            "curve anchors must be positive"
        );
        let anchors = anchors.iter().map(|&(s, v)| {
            let s = s as f64;
            (s, v, s.ln(), v.ln())
        });
        Curve {
            anchors: anchors.collect(),
        }
    }

    /// Interpolated value at `size` (clamped to the anchor range).
    pub fn value_at(&self, size: usize) -> f64 {
        let s = (size.max(1)) as f64;
        let a = &self.anchors;
        if s <= a[0].0 {
            return a[0].1;
        }
        if s >= a[a.len() - 1].0 {
            return a[a.len() - 1].1;
        }
        for w in a.windows(2) {
            let ((_, _, lx0, ly0), (x1, _, lx1, ly1)) = (w[0], w[1]);
            if s <= x1 {
                let t = (s.ln() - lx0) / (lx1 - lx0);
                return (ly0 + t * (ly1 - ly0)).exp();
            }
        }
        unreachable!()
    }

    /// Time in nanoseconds to move `size` bytes at the curve's
    /// throughput for that size.
    pub fn time_ns(&self, size: usize) -> u64 {
        let mbs = self.value_at(size);
        (size as f64 / (mbs * 1e6) * 1e9) as u64
    }
}

/// A bounded, exact memo from a message size to its price: direct-mapped
/// (a size has one of `SLOTS` slots, and a size mapping to a taken slot
/// evicts it), fixed-size, and keyed by the size itself, compared
/// exactly — a hit returns what the pricing function returned for that
/// very size. It lives beside the state its owner already has (one per
/// [`crate::Fabric`], one per secure communicator) and is filled through
/// `&self`, so a reader under a shared borrow can still memoise. `SLOTS`
/// is a power of two, at least 2: the owner sizes it to the distinct
/// sizes it expects and to how many copies of it exist.
pub struct SizeMemo<V, const SLOTS: usize> {
    slots: [Slot<V>; SLOTS],
}

/// One memo slot: the size it holds and that size's price, if taken.
type Slot<V> = Cell<Option<(usize, V)>>;

impl<V: Copy, const SLOTS: usize> SizeMemo<V, SLOTS> {
    const BITS: u32 = {
        assert!(
            SLOTS >= 2 && SLOTS.is_power_of_two(),
            "SLOTS must be a power of two ≥ 2"
        );
        SLOTS.trailing_zeros()
    };

    /// An empty memo.
    pub fn new() -> Self {
        SizeMemo {
            slots: std::array::from_fn(|_| Cell::new(None)),
        }
    }

    /// The slot `size` maps to: two sizes with the same slot evict each
    /// other. A Fibonacci hash, so the power-of-two sizes that dominate
    /// benchmark sweeps spread over the table. The slot is the hash's
    /// top bits, so two sizes that share a slot of a larger table share
    /// one of every smaller table too.
    pub fn slot_of(size: usize) -> usize {
        ((size as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - Self::BITS)) as usize
    }

    /// The price of `size`: the memoised one if this size holds its
    /// slot, else `price(size)`, which then takes the slot.
    pub fn get(&self, size: usize, price: impl FnOnce(usize) -> V) -> V {
        let slot = &self.slots[Self::slot_of(size)];
        match slot.get() {
            Some((key, v)) if key == size => v,
            _ => {
                let v = price(size);
                slot.set(Some((size, v)));
                v
            }
        }
    }
}

impl<V: Copy, const SLOTS: usize> Default for SizeMemo<V, SLOTS> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_anchors_exactly() {
        let c = Curve::new(&[(1, 0.05), (1024, 17.03), (1 << 21, 1038.0)]);
        assert!((c.value_at(1) - 0.05).abs() < 1e-12);
        assert!((c.value_at(1024) - 17.03).abs() < 1e-9);
        assert!((c.value_at(1 << 21) - 1038.0).abs() < 1e-6);
    }

    #[test]
    fn clamps_outside_range() {
        let c = Curve::new(&[(16, 2.0), (64, 8.0)]);
        assert_eq!(c.value_at(1), 2.0);
        assert_eq!(c.value_at(1 << 30), 8.0);
    }

    #[test]
    fn time_derivation() {
        let c = Curve::new(&[(1024, 1024.0)]); // 1024 MB/s flat
                                               // 1 MiB at 1024 MB/s = 1 MiB / (1024e6 B/s) ≈ 1024 µs... check:
        let t = c.time_ns(1 << 20);
        let expect = (1u64 << 20) as f64 / (1024e6) * 1e9;
        assert!((t as f64 - expect).abs() < 2.0, "t={t} expect={expect}");
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted() {
        Curve::new(&[(10, 1.0), (10, 2.0)]);
    }

    /// The interpolation as written before the logs were precomputed:
    /// four `ln` per lookup.
    fn value_at_unprecomputed(anchors: &[(usize, f64)], size: usize) -> f64 {
        let a: Vec<(f64, f64)> = anchors.iter().map(|&(s, v)| (s as f64, v)).collect();
        let s = (size.max(1)) as f64;
        if s <= a[0].0 {
            return a[0].1;
        }
        if s >= a[a.len() - 1].0 {
            return a[a.len() - 1].1;
        }
        for w in a.windows(2) {
            if s <= w[1].0 {
                let t = (s.ln() - w[0].0.ln()) / (w[1].0.ln() - w[0].0.ln());
                return (w[0].1.ln() + t * (w[1].1.ln() - w[0].1.ln())).exp();
            }
        }
        unreachable!()
    }

    #[test]
    fn precomputed_logs_are_bit_identical() {
        let anchors = [
            (1, 0.57),
            (16, 9.61),
            (256, 82.34),
            (1 << 10, 272.84),
            (64 << 10, 2000.0),
            (4 << 20, 3060.0),
        ];
        let c = Curve::new(&anchors);
        let mut sizes: Vec<usize> = anchors
            .iter()
            .flat_map(|&(s, _)| [s - 1, s, s + 1])
            .collect();
        sizes.extend((0..2_000).map(|i| i * 4_201 + 3));
        for s in sizes {
            let (new, old) = (c.value_at(s), value_at_unprecomputed(&anchors, s));
            assert_eq!(new.to_bits(), old.to_bits(), "size {s}: {new} vs {old}");
        }
    }

    #[test]
    fn memo_prices_once_per_size_and_evicts_exactly() {
        let memo = SizeMemo::<u64, 16>::new();
        let calls = Cell::new(0);
        let price = |s: usize| {
            calls.set(calls.get() + 1);
            s as u64 * 3
        };
        assert_eq!(memo.get(256, price), 768);
        assert_eq!(memo.get(256, price), 768);
        assert_eq!(calls.get(), 1, "a repeat is a hit");
        let slot = SizeMemo::<u64, 16>::slot_of;
        let rival = (257..).find(|&s| slot(s) == slot(256)).unwrap();
        assert_eq!(memo.get(rival, price), rival as u64 * 3);
        assert_eq!(memo.get(256, price), 768);
        assert_eq!(calls.get(), 3, "the rival evicted 256; it is priced again");
        // Powers of two land in distinct slots.
        let slots: std::collections::BTreeSet<_> = (0..20)
            .map(|k| SizeMemo::<u64, 256>::slot_of(1 << k))
            .collect();
        assert_eq!(slots.len(), 20);
    }

    #[test]
    fn interpolation_is_monotone_for_monotone_anchors() {
        let c = Curve::new(&[(1, 1.0), (100, 10.0), (10_000, 100.0)]);
        let mut prev = 0.0;
        for s in [1usize, 3, 10, 50, 100, 700, 5000, 10_000] {
            let v = c.value_at(s);
            assert!(v >= prev);
            prev = v;
        }
    }
}
