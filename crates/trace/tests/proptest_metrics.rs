//! Property tests for the distribution sink: histogram merge algebra,
//! percentile error bounds, black-box serialization round-trips, and
//! snapshot determinism.

use empi_trace::flight::{BlackBox, FlowEvent};
use empi_trace::hist::{bucket_high, bucket_index, bucket_low, Histogram, BUCKETS};
use proptest::prelude::*;

fn hist_of(samples: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in samples {
        h.record(v);
    }
    h
}

/// Sample values spanning every octave, not just small ints.
fn sample() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..64,
        1u64..1_000_000,
        any::<u64>().prop_map(|v| v >> (v % 40)),
        any::<u64>(),
    ]
}

/// Printable-ASCII strings (covers quotes and backslashes, so the
/// JSON escaper is exercised).
fn text(max: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(32u8..127, 0..max)
        .prop_map(|bytes| String::from_utf8(bytes).expect("printable ascii"))
}

proptest! {
    #[test]
    fn merge_is_commutative(a in proptest::collection::vec(sample(), 0..64),
                            b in proptest::collection::vec(sample(), 0..64)) {
        let mut ab = hist_of(&a);
        ab.merge(&hist_of(&b));
        let mut ba = hist_of(&b);
        ba.merge(&hist_of(&a));
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn merge_is_associative(a in proptest::collection::vec(sample(), 0..48),
                            b in proptest::collection::vec(sample(), 0..48),
                            c in proptest::collection::vec(sample(), 0..48)) {
        // (a ⊕ b) ⊕ c
        let mut left = hist_of(&a);
        left.merge(&hist_of(&b));
        left.merge(&hist_of(&c));
        // a ⊕ (b ⊕ c)
        let mut bc = hist_of(&b);
        bc.merge(&hist_of(&c));
        let mut right = hist_of(&a);
        right.merge(&bc);
        prop_assert_eq!(&left, &right);
        // ... and both equal bulk-recording everything at once.
        let all: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
        prop_assert_eq!(hist_of(&all), right);
    }

    #[test]
    fn percentile_is_within_one_bucket_of_exact(
        samples in proptest::collection::vec(sample(), 1..256),
        q in 0.0f64..1.0,
    ) {
        let h = hist_of(&samples);
        let mut sorted = samples;
        sorted.sort_unstable();
        let n = sorted.len() as u64;
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let exact = sorted[rank as usize - 1];
        let est = h.value_at_quantile(q);
        prop_assert!(est >= exact, "estimate {} below exact {}", est, exact);
        prop_assert!(
            est <= bucket_high(bucket_index(exact)),
            "estimate {} beyond the bucket holding exact {}",
            est,
            exact
        );
    }

    #[test]
    fn bucket_layout_tiles_the_u64_range(v in any::<u64>()) {
        let i = bucket_index(v);
        prop_assert!(i < BUCKETS);
        prop_assert!(bucket_low(i) <= v && v <= bucket_high(i));
    }

    #[test]
    fn black_box_round_trips_through_json(
        rank in 0usize..64,
        peer in 0usize..64,
        tag in any::<u32>(),
        // JSON numbers are f64 (Chrome-trace interop), so integers are
        // exact only below 2^53 — far above any virtual-time ns or
        // byte count the recorder produces.
        seq in 0u64..(1 << 53),
        dropped in 0u64..1000,
        events in proptest::collection::vec(
            (0u64..(1 << 53), text(24), 0u64..(1 << 53), text(40)),
            0..16,
        ),
    ) {
        let events: Vec<FlowEvent> = events
            .into_iter()
            .map(|(t_ns, kind, bytes, detail)| FlowEvent { t_ns, kind, bytes, detail })
            .collect();
        let bb = BlackBox {
            rank,
            peer,
            tag,
            seq,
            total_events: dropped + events.len() as u64,
            events,
        };
        let back = BlackBox::from_json(&bb.to_json());
        prop_assert_eq!(back.as_ref(), Ok(&bb));
    }
}

mod recorder {
    use empi_trace::{export, Metric, Recorder};
    use proptest::prelude::*;

    proptest! {
        /// The same recorded sequence must export byte-identical JSON
        /// documents — snapshots are deterministic.
        #[test]
        fn snapshots_are_byte_identical(
            records in proptest::collection::vec(
                (0usize..2, 0usize..4, -1i32..3, 0usize..1_000_000, 0u64..1_000_000),
                1..128,
            ),
        ) {
            let ops = ["p2p/send", "p2p/recv", "seal/plain", "open/plain"];
            let metrics = [Metric::E2e, Metric::E2e, Metric::Seal, Metric::Open];
            let snap = || {
                let m = Recorder::new(2, false, true, None);
                let mut now = 0u64;
                for &(rank, op, peer, bytes, dur) in &records {
                    now += 10;
                    m.sample(rank, (metrics[op], ops[op], peer), bytes, now, dur);
                }
                m.finish(now).1.expect("the distribution sink is on")
            };
            let (a, b) = (snap(), snap());
            prop_assert_eq!(export::snapshot_json(&a), export::snapshot_json(&b));
        }
    }
}
