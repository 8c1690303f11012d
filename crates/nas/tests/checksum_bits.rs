//! The kernels' arithmetic, pinned bit for bit.
//!
//! Each kernel's checksum is a fold of every `f64` it writes, so its bit
//! pattern moves if any element sees a different operation, a different
//! order or a different rounding. A host-time change to a kernel
//! (hoisting a factorisation, batching lines, caching twiddles) must
//! keep these bits; a change that means to move them updates this table
//! and says why.
//!
//! All runs use the plain layer over the instant network, so only the
//! arithmetic and the rank decomposition decide the value. BT and SP
//! also run at 16 ranks, one z-plane per rank: the regime the 64-rank
//! `MiniC` runs are in, where the pipelined z solve is a single step.
//! MG also runs at 8 and 16 ranks, where levels have fewer planes than
//! ranks: at 8 ranks the pair hand-off starts at n = 8, at 16 ranks at
//! the finest level.
//!
//! Each run also pins its end time in virtual nanoseconds. On the
//! instant network that is the charged compute plus 1 ns per message
//! hop, so a charge that moves, grows or vanishes fails the test even
//! where the checksum holds.

use empi_mpi::World;
use empi_nas::adi::{self, AdiKind};
use empi_nas::{cg, ft, is, lu, mg, Class, Kernel, KernelReport, PlainLayer};
use empi_netsim::NetModel;

fn run(kernel: Kernel, class: Class, ranks: usize) -> (KernelReport, u64) {
    let w = World::flat(NetModel::instant(), ranks);
    let out = w.run(|c| {
        let l = PlainLayer::new(c);
        match kernel {
            Kernel::CG => cg::run(&l, class),
            Kernel::FT => ft::run(&l, class),
            Kernel::MG => mg::run(&l, class),
            Kernel::LU => lu::run(&l, class),
            Kernel::BT => adi::run(&l, class, AdiKind::Bt),
            Kernel::SP => adi::run(&l, class, AdiKind::Sp),
            Kernel::IS => is::run(&l, class),
        }
    });
    let rep = out.results.into_iter().next().expect("rank 0 reports");
    (rep, out.end_time.as_nanos())
}

/// One pin: kernel, ranks, checksum bits, end time in virtual ns.
type Pin = (Kernel, usize, u64, u64);

fn check(pins: &[Pin], class: Class) {
    let mut wrong = Vec::new();
    for &(kernel, ranks, want, want_ns) in pins {
        let (rep, end_ns) = run(kernel, class, ranks);
        assert!(
            rep.verified,
            "{} at {ranks} ranks failed to verify",
            kernel.name()
        );
        let got = rep.checksum.to_bits();
        if got != want || end_ns != want_ns {
            wrong.push(format!(
                "{} at {ranks} ranks: {got:#018x} ending at {end_ns} ns, \
                 pinned {want:#018x} ending at {want_ns} ns",
                kernel.name()
            ));
        }
    }
    assert!(
        wrong.is_empty(),
        "checksum bits or end times moved:\n{}",
        wrong.join("\n")
    );
}

#[test]
fn class_s_checksum_bits_are_pinned() {
    use Kernel::*;
    check(
        &[
            (CG, 1, 0x4045308ab0f7ac88, 1_103_500),
            (CG, 2, 0x4045308ab0f7ac89, 552_807),
            (CG, 4, 0x4045308ab0f7ac88, 277_614),
            (FT, 1, 0xc031867c6b5abf20, 2_672_640),
            (FT, 2, 0xc031867c6b5abf21, 1_336_329),
            (FT, 4, 0xc031867c6b5abf1e, 668_183),
            (MG, 1, 0x3fa095b7d49e0418, 1_145_816),
            (MG, 2, 0x3fa095b7d49e03f2, 573_069),
            (MG, 4, 0x3fa095b7d49e03f6, 286_616),
            (MG, 8, 0x3fa095b7d49e03e2, 147_233),
            (MG, 16, 0x3fa095b7d49e0409, 85_856),
            (LU, 1, 0x4013175d0a9c36e6, 2_101_248),
            (LU, 2, 0x4013175d0a9c36ed, 1_313_297),
            (LU, 4, 0x4013175d0a9c36ee, 788_002),
            (BT, 1, 0x400e9b5a7fdb0233, 47_738_880),
            (BT, 2, 0x400e9b5a7fdb0258, 23_869_472),
            (BT, 4, 0x400e9b5a7fdb0255, 11_934_814),
            (BT, 16, 0x400e9b5a7fdb0249, 2_984_138),
            (SP, 1, 0x403069ff8ccdce34, 102_850_560),
            (SP, 2, 0x403069ff8ccdce2a, 51_425_312),
            (SP, 4, 0x403069ff8ccdce32, 25_712_734),
            (SP, 16, 0x403069ff8ccdce30, 6_428_618),
            (IS, 1, 0x41afd1cafc000000, 612_766),
            (IS, 2, 0x41bfb9e340000000, 393_843),
            (IS, 4, 0x41cfce136b000000, 283_314),
        ],
        Class::S,
    );
}

/// MG runs every level's arithmetic on every rank count alike, so its
/// checksum at `ranks` differs from the 1-rank value only by the final
/// norm's summation order.
fn mg_matches_one_rank(class: Class, ranks: &[usize]) {
    let (one, _) = run(Kernel::MG, class, 1);
    for &r in ranks {
        let (rep, _) = run(Kernel::MG, class, r);
        let rel = ((rep.checksum - one.checksum) / one.checksum).abs();
        assert!(
            rel <= 1e-12,
            "MG at {r} ranks: {} against {} at 1 rank",
            rep.checksum,
            one.checksum
        );
    }
}

#[test]
fn mg_class_s_answer_does_not_depend_on_the_rank_count() {
    mg_matches_one_rank(Class::S, &[2, 4, 8, 16]);
}

/// MG at MiniC on 8 and 64 ranks against 1 rank: about 3 s optimised,
/// so, like the pins below, in the optimised test build only.
#[cfg(not(debug_assertions))]
#[test]
fn mg_minic_answer_does_not_depend_on_the_rank_count() {
    mg_matches_one_rank(Class::MiniC, &[8, 64]);
}

/// The `nas_c64` kernels at their benchmark geometry (64 ranks, one
/// z-plane per rank for BT and SP), and MG there, where its levels from
/// n = 64 down hand residual planes off in pairs. About 3.5 s optimised
/// and far longer unoptimised, so it is compiled into the optimised
/// test build only: `cargo test --release -p empi-nas`.
#[cfg(not(debug_assertions))]
#[test]
fn minic_checksum_bits_are_pinned_at_64_ranks() {
    use Kernel::*;
    check(
        &[
            (BT, 64, 0x40619338bf158fea, 95_481_552),
            (SP, 64, 0x409479edfced60cd, 274_273_212),
            (FT, 64, 0x40349d1ae73edb3b, 7_895_724),
            (LU, 64, 0x40835c069ba7d5f0, 64_088_606),
            (MG, 64, 0x3fd14c9db8fe725d, 13_592_538),
        ],
        Class::MiniC,
    );
}
