//! # empi-nas — NAS Parallel Benchmark kernels for the encrypted-MPI study
//!
//! Re-implementations of the seven NAS kernels the paper runs (CG, FT,
//! MG, LU, BT, SP, IS) with their *communication structure* kept
//! faithful — that structure is what determines encryption overhead —
//! at reduced "mini-class" problem sizes (DESIGN.md §2):
//!
//! | kernel | communication reproduced |
//! |---|---|
//! | CG | allreduce dot products + allgather of the iterate |
//! | FT | 3-D FFT with alltoall slab transpose |
//! | MG | multigrid V-cycle halo exchange across levels |
//! | LU | SSOR pipelined wavefront point-to-point |
//! | BT/SP | ADI line solves pipelined across the rank grid |
//! | IS | histogram allreduce + alltoallv key exchange |
//!
//! Each kernel runs real arithmetic on real data and self-verifies; all
//! communication goes through [`CommLayer`], which is implemented both
//! by plain MPI ([`PlainLayer`]) and by the encrypted library
//! ([`SecureLayer`]) — the paper's baseline-vs-encrypted comparison.
//!
//! Compute time is charged through a calibrated per-kernel cost model
//! ([`ComputeModel`]) so that mini-class baseline timings land at the
//! paper's Table IV/VIII values while communication runs through the
//! full simulated stack.

// The kernels are transliterated stencil/solver code: index loops
// over multiple same-shaped grids and a cached sparse-matrix type.
#![allow(clippy::needless_range_loop, clippy::type_complexity)]

pub mod adi;
pub mod cg;
pub mod ft;
pub mod is;
pub mod layer;
pub mod lu;
pub mod mg;

pub use layer::{CommLayer, PlainLayer, SecureLayer};

use empi_netsim::VDur;

/// Problem-size class. `S` is a smoke-test size; `MiniC` is scaled so a
/// 64-rank run has the paper's class-C communication-to-computation
/// character at simulation-friendly cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// Tiny smoke-test size (tests).
    S,
    /// The reproduction size used for Tables IV and VIII.
    MiniC,
}

/// The seven kernels of the study, in the paper's table order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Conjugate gradient.
    CG,
    /// 3-D fast Fourier transform.
    FT,
    /// Multigrid.
    MG,
    /// Lower-upper Gauss–Seidel (SSOR).
    LU,
    /// Block-tridiagonal ADI.
    BT,
    /// Scalar-pentadiagonal ADI.
    SP,
    /// Integer sort.
    IS,
}

impl Kernel {
    /// All kernels in Table IV order (CG FT MG LU BT SP IS).
    pub const ALL: [Kernel; 7] = [
        Kernel::CG,
        Kernel::FT,
        Kernel::MG,
        Kernel::LU,
        Kernel::BT,
        Kernel::SP,
        Kernel::IS,
    ];

    /// Table heading.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::CG => "CG",
            Kernel::FT => "FT",
            Kernel::MG => "MG",
            Kernel::LU => "LU",
            Kernel::BT => "BT",
            Kernel::SP => "SP",
            Kernel::IS => "IS",
        }
    }
}

/// Outcome of one kernel run on one rank.
#[derive(Debug, Clone)]
pub struct KernelReport {
    /// Did the built-in verification pass?
    pub verified: bool,
    /// Kernel-specific verification value (same on every rank).
    pub checksum: f64,
    /// Abstract work units executed (drives the compute model).
    pub work_units: u64,
}

/// Calibrated compute-cost model: virtual nanoseconds per abstract work
/// unit, per kernel. Tuned so that the *unencrypted* mini-class run at
/// 64 ranks / 8 nodes reproduces the baseline seconds of Tables IV/VIII
/// (the absolute scale is a free parameter of the reproduction; the
/// encryption overheads are what the study measures).
#[derive(Debug, Clone, Copy)]
pub struct ComputeModel {
    /// Virtual nanoseconds charged per work unit.
    pub ns_per_unit: f64,
}

impl ComputeModel {
    /// The calibrated model for a kernel (see `empi-bench` TAB-4/TAB-8).
    /// The constants are fixed: DESIGN.md ("NAS compute calibration")
    /// records how they were fitted to the paper's Table IV overheads.
    pub fn calibrated(kernel: Kernel) -> Self {
        let ns_per_unit = match kernel {
            Kernel::CG => 2.4,
            Kernel::FT => 7.5,
            Kernel::MG => 0.3,
            Kernel::LU => 19.0,
            Kernel::BT => 21.0,
            Kernel::SP => 62.0,
            Kernel::IS => 3.4,
        };
        ComputeModel { ns_per_unit }
    }

    /// Charge `units` of work on `layer`'s virtual clock.
    pub fn charge(&self, layer: &impl CommLayer, units: u64) {
        layer.compute(VDur((units as f64 * self.ns_per_unit) as u64));
    }

    /// Charge `units` of work while running `f`, the arithmetic those
    /// units model. Under a sharded world the closure executes
    /// concurrently with other ranks (see
    /// [`CommLayer::compute_with`]); serially it is `f()` + charge.
    pub fn charge_with(&self, layer: &impl CommLayer, units: u64, f: &mut dyn FnMut()) {
        layer.compute_with(VDur((units as f64 * self.ns_per_unit) as u64), f);
    }
}

/// Deterministic pseudo-random stream (NAS-style LCG, 2^46 modulus) so
/// every rank generates the same workload without communication.
#[derive(Debug, Clone)]
pub struct NasRandom {
    seed: u64,
}

impl NasRandom {
    /// NAS benchmarks use a = 5^13; the canonical seed is 314159265.
    pub fn new(seed: u64) -> Self {
        NasRandom {
            seed: (seed | 1) & ((1 << 46) - 1),
        }
    }

    /// Next double in (0, 1).
    pub fn next_f64(&mut self) -> f64 {
        const A: u64 = 1_220_703_125; // 5^13
        const MASK: u64 = (1 << 46) - 1;
        self.seed = self.seed.wrapping_mul(A) & MASK;
        self.seed as f64 / (1u64 << 46) as f64
    }

    /// Next integer in `[0, bound)`.
    pub fn next_u32(&mut self, bound: u32) -> u32 {
        (self.next_f64() * bound as f64) as u32 % bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nas_random_is_deterministic_and_in_range() {
        let mut a = NasRandom::new(314159265);
        let mut b = NasRandom::new(314159265);
        for _ in 0..1000 {
            let x = a.next_f64();
            assert_eq!(x, b.next_f64());
            assert!(x > 0.0 && x < 1.0);
        }
    }

    #[test]
    fn nas_random_different_seeds_differ() {
        let mut a = NasRandom::new(1);
        let mut b = NasRandom::new(5);
        let xa: Vec<f64> = (0..10).map(|_| a.next_f64()).collect();
        let xb: Vec<f64> = (0..10).map(|_| b.next_f64()).collect();
        assert_ne!(xa, xb);
    }

    #[test]
    fn kernel_names() {
        assert_eq!(
            Kernel::ALL.map(|k| k.name()),
            ["CG", "FT", "MG", "LU", "BT", "SP", "IS"]
        );
    }
}
