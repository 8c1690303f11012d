//! Pricing identity: a memoised price is the raw curve evaluation, bit
//! for bit.
//!
//! The fabric prices each wire size once (`Fabric::price`), and a secure
//! communicator prices each record or chunk size once (a `SizeMemo` over
//! its library's `EncCurve`). Virtual time is only as reproducible as
//! those memos are exact, so for every fabric preset and every
//! `(CryptoLibrary, CompilerBuild)` the memoised price must equal the
//! raw evaluation on a first lookup, on a repeat, and after a size that
//! shares its slot has evicted it.

use empi::aead::profile::{CompilerBuild, ALL_LIBRARIES};
use empi::netsim::{Fabric, NetModel, Price, SizeMemo, Topology};
use proptest::prelude::*;

/// Every anchor size the fabric presets and crypto curves use, and its
/// neighbours on both sides.
fn anchor_sizes() -> Vec<usize> {
    let anchors = [
        1,
        16,
        64,
        256,
        1 << 10,
        4 << 10,
        16 << 10,
        64 << 10,
        256 << 10,
        1 << 20,
        2 << 20,
        4 << 20,
    ];
    anchors.iter().flat_map(|&s| [s - 1, s, s + 1]).collect()
}

/// The nearest size above `size` that maps to the same slot of a
/// 256-slot memo, and so of every smaller one (the fabric's and a secure
/// communicator's alike).
fn rival(size: usize) -> usize {
    let slot = SizeMemo::<u64, 256>::slot_of;
    (size + 1..).find(|&s| slot(s) == slot(size)).unwrap()
}

/// `size` priced on a first lookup, on a repeat, and after its rival
/// took the slot, each against `raw`.
fn check_memo<V: PartialEq + std::fmt::Debug>(
    what: &str,
    size: usize,
    memo: impl Fn(usize) -> V,
    raw: impl Fn(usize) -> V,
) -> Result<(), TestCaseError> {
    for (at, step) in [
        (size, "first lookup"),
        (size, "repeat"),
        (rival(size), "rival"),
    ] {
        prop_assert_eq!(memo(at), raw(at), "{what} size {at}: {step}");
    }
    prop_assert_eq!(memo(size), raw(size), "{what} size {size}: after eviction");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn memoised_prices_are_the_raw_evaluation(
        drawn in proptest::collection::vec(0usize..=(8 << 20), 1..24),
    ) {
        let mut sizes = anchor_sizes();
        sizes.extend(drawn);
        for model in [NetModel::ethernet_10g(), NetModel::infiniband_40g(), NetModel::instant()] {
            let fabric = Fabric::new(model.clone(), Topology::one_per_node(2));
            let raw = |s| Price {
                wire_ns: model.wire_time_ns(s),
                pp_side_ns: model.pp_overhead_ns(s),
                stream_side_ns: model.stream_overhead_ns(s),
            };
            for &s in &sizes {
                check_memo(model.name, s, |s| fabric.price(s), raw)?;
            }
        }
        for lib in ALL_LIBRARIES {
            for build in [CompilerBuild::Gcc485, CompilerBuild::Mvapich23] {
                // As a secure communicator prices: one curve, one memo.
                let (curve, memo) = (lib.enc_curve(build), SizeMemo::<u64, 64>::new());
                let what = format!("{} {build:?}", lib.name());
                for &s in &sizes {
                    let priced = |s| memo.get(s, |n| curve.time_ns(n));
                    check_memo(&what, s, priced, |s| lib.enc_time_ns(build, s))?;
                }
            }
        }
    }
}
