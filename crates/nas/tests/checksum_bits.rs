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

use empi_mpi::World;
use empi_nas::adi::{self, AdiKind};
use empi_nas::{cg, ft, is, lu, mg, Class, Kernel, KernelReport, PlainLayer};
use empi_netsim::NetModel;

fn run(kernel: Kernel, class: Class, ranks: usize) -> KernelReport {
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
    out.results.into_iter().next().expect("rank 0 reports")
}

fn check(pins: &[(Kernel, usize, u64)], class: Class) {
    let mut wrong = Vec::new();
    for &(kernel, ranks, want) in pins {
        let rep = run(kernel, class, ranks);
        assert!(
            rep.verified,
            "{} at {ranks} ranks failed to verify",
            kernel.name()
        );
        let got = rep.checksum.to_bits();
        if got != want {
            wrong.push(format!(
                "{} at {ranks} ranks: {got:#018x}, pinned {want:#018x}",
                kernel.name()
            ));
        }
    }
    assert!(
        wrong.is_empty(),
        "checksum bits moved:\n{}",
        wrong.join("\n")
    );
}

#[test]
fn class_s_checksum_bits_are_pinned() {
    use Kernel::*;
    check(
        &[
            (CG, 1, 0x4045308ab0f7ac88),
            (CG, 2, 0x4045308ab0f7ac89),
            (CG, 4, 0x4045308ab0f7ac88),
            (FT, 1, 0xc031867c6b5abf20),
            (FT, 2, 0xc031867c6b5abf21),
            (FT, 4, 0xc031867c6b5abf1e),
            (MG, 1, 0x3fa095b7d49e0418),
            (MG, 2, 0x3fa095b7d49e03f2),
            (MG, 4, 0x3fa095b7d49e03f6),
            (LU, 1, 0x4013175d0a9c36e6),
            (LU, 2, 0x4013175d0a9c36ed),
            (LU, 4, 0x4013175d0a9c36ee),
            (BT, 1, 0x400e9b5a7fdb0233),
            (BT, 2, 0x400e9b5a7fdb0258),
            (BT, 4, 0x400e9b5a7fdb0255),
            (BT, 16, 0x400e9b5a7fdb0249),
            (SP, 1, 0x403069ff8ccdce34),
            (SP, 2, 0x403069ff8ccdce2a),
            (SP, 4, 0x403069ff8ccdce32),
            (SP, 16, 0x403069ff8ccdce30),
            (IS, 1, 0x41afd1cafc000000),
            (IS, 2, 0x41bfb9e340000000),
            (IS, 4, 0x41cfce136b000000),
        ],
        Class::S,
    );
}

/// The `nas_c64` kernels at their benchmark geometry (64 ranks, one
/// z-plane per rank for BT and SP). About 2 s optimised and far longer
/// unoptimised, so it is compiled into the optimised test build only:
/// `cargo test --release -p empi-nas`.
#[cfg(not(debug_assertions))]
#[test]
fn minic_checksum_bits_are_pinned_at_64_ranks() {
    use Kernel::*;
    check(
        &[
            (BT, 64, 0x40619338bf158fea),
            (SP, 64, 0x409479edfced60cd),
            (FT, 64, 0x40349d1ae73edb3b),
            (LU, 64, 0x40835c069ba7d5f0),
        ],
        Class::MiniC,
    );
}
