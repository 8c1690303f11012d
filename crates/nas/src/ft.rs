//! FT — 3-D FFT with slab decomposition (the NAS FT kernel's structure).
//!
//! The grid is distributed as z-slabs. Each 3-D transform does the x and
//! y FFTs locally, then an **alltoall transpose** (the kernel's dominant
//! communication — large blocks, exactly the case Fig. 8 stresses) to
//! make z local, then the z FFTs. The benchmark performs one forward
//! transform, then per iteration an evolve (phase multiply) in spectral
//! space and an inverse transform with a checksum, as in NAS FT.
//!
//! Self-verification: a forward+inverse round trip must reproduce the
//! initial state to near machine precision, and checksums must agree
//! across rank counts (covered by tests).

use crate::layer::CommLayer;
use crate::{Class, ComputeModel, Kernel, KernelReport};

/// Complex double (interleaved `re`, `im`) — safe to ship as bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
#[repr(C)]
pub struct C64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

// SAFETY: repr(C) pair of f64, no padding, any bit pattern valid.
unsafe impl empi_mpi::Pod for C64 {}

impl C64 {
    fn mul(self, o: C64) -> C64 {
        C64 {
            re: self.re * o.re - self.im * o.im,
            im: self.re * o.im + self.im * o.re,
        }
    }
    fn add(self, o: C64) -> C64 {
        C64 {
            re: self.re + o.re,
            im: self.im + o.im,
        }
    }
    fn sub(self, o: C64) -> C64 {
        C64 {
            re: self.re - o.re,
            im: self.im - o.im,
        }
    }
    fn scale(self, s: f64) -> C64 {
        C64 {
            re: self.re * s,
            im: self.im * s,
        }
    }
}

/// FT problem parameters (grid must be powers of two).
#[derive(Debug, Clone, Copy)]
pub struct FtParams {
    /// Grid extent in x.
    pub nx: usize,
    /// Grid extent in y.
    pub ny: usize,
    /// Grid extent in z.
    pub nz: usize,
    /// Evolve/inverse iterations.
    pub niter: usize,
}

impl FtParams {
    /// Parameters for a class.
    pub fn for_class(class: Class) -> Self {
        match class {
            Class::S => FtParams {
                nx: 16,
                ny: 16,
                nz: 16,
                niter: 3,
            },
            Class::MiniC => FtParams {
                nx: 64,
                ny: 64,
                nz: 64,
                niter: 8,
            },
        }
    }
}

/// The data-independent half of a radix-2 FFT of one length and
/// direction: the bit-reversal swaps and every stage's twiddles. The
/// twiddles come from the per-line recurrence `w ← w·wlen`, so each one
/// has the bits a line computing its own would give it.
struct FftPlan {
    n: usize,
    inverse: bool,
    /// `(i, j)` with `i < j`, in the order the bit-reversal loop meets them.
    swaps: Vec<(usize, usize)>,
    /// Stage `len`'s `len / 2` twiddles, stages in increasing `len`.
    twiddles: Vec<C64>,
}

impl FftPlan {
    /// Plan a length-`n` transform (`inverse` conjugates the twiddles).
    fn new(n: usize, inverse: bool) -> Self {
        debug_assert!(n.is_power_of_two());
        let mut swaps = Vec::new();
        let mut j = 0usize;
        for i in 1..n {
            let mut bit = n >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            if i < j {
                swaps.push((i, j));
            }
        }
        let sign = if inverse { 1.0 } else { -1.0 };
        let mut twiddles = Vec::with_capacity(n - 1);
        let mut len = 2;
        while len <= n {
            let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
            let wlen = C64 {
                re: ang.cos(),
                im: ang.sin(),
            };
            let mut w = C64 { re: 1.0, im: 0.0 };
            for _ in 0..len / 2 {
                twiddles.push(w);
                w = w.mul(wlen);
            }
            len <<= 1;
        }
        FftPlan {
            n,
            inverse,
            swaps,
            twiddles,
        }
    }
}

/// In-place radix-2 FFT over `line` by `plan` (no normalization —
/// callers normalize after inverse).
fn fft_line(line: &mut [C64], plan: &FftPlan) {
    let n = line.len();
    debug_assert_eq!(n, plan.n);
    for &(i, j) in &plan.swaps {
        line.swap(i, j);
    }
    let mut twiddles = &plan.twiddles[..];
    let mut len = 2;
    while len <= n {
        let (stage, rest) = twiddles.split_at(len / 2);
        twiddles = rest;
        for block in line.chunks_exact_mut(len) {
            let (lo, hi) = block.split_at_mut(len / 2);
            for ((a, b), &w) in lo.iter_mut().zip(hi).zip(stage) {
                let u = *a;
                let v = b.mul(w);
                *a = u.add(v);
                *b = u.sub(v);
            }
        }
        len <<= 1;
    }
}

/// Deterministic pseudo-random initial field at a global flat index.
fn init_at(idx: usize) -> C64 {
    let h = (idx as u64)
        .wrapping_mul(0x9E3779B97F4A7C15)
        .rotate_left(31)
        .wrapping_mul(0xBF58476D1CE4E5B9);
    let re = (h >> 11) as f64 / (1u64 << 53) as f64;
    let im = ((h.wrapping_mul(0x94D049BB133111EB)) >> 11) as f64 / (1u64 << 53) as f64;
    C64 {
        re: re - 0.5,
        im: im - 0.5,
    }
}

/// Signed frequency index.
fn kbar(i: usize, n: usize) -> f64 {
    if i <= n / 2 {
        i as f64
    } else {
        i as f64 - n as f64
    }
}

struct FtState<'l, L: CommLayer> {
    layer: &'l L,
    p: FtParams,
    size: usize,
    nz_local: usize,
    ny_local: usize,
    model: ComputeModel,
    /// One plan per line length and direction, built once per run.
    plans: Vec<FftPlan>,
}

impl<'l, L: CommLayer> FtState<'l, L> {
    /// The plan for lines of `n` points in one direction.
    fn plan(&self, n: usize, inverse: bool) -> &FftPlan {
        self.plans
            .iter()
            .find(|p| p.n == n && p.inverse == inverse)
            .expect("a plan per grid extent and direction")
    }

    /// z-slab layout index: (z_local, y, x).
    fn zi(&self, z: usize, y: usize, x: usize) -> usize {
        (z * self.p.ny + y) * self.p.nx + x
    }
    /// y-slab (transposed) layout index: (y_local, z, x).
    fn yi(&self, y: usize, z: usize, x: usize) -> usize {
        (y * self.p.nz + z) * self.p.nx + x
    }

    /// Work units of `lines` FFT lines of length `len` (5·n·log n
    /// flops per line, 4 flops per unit).
    fn fft_units(lines: usize, len: usize) -> u64 {
        (lines * 5 * len * len.trailing_zeros() as usize) as u64 / 4
    }

    /// Local x FFTs then y FFTs on a z-slab buffer. The arithmetic
    /// runs through `compute_with`, so a sharded world overlaps it
    /// across ranks on real cores.
    fn fft_xy(&mut self, u: &mut [C64], inverse: bool) {
        let (nx, ny, nzl) = (self.p.nx, self.p.ny, self.nz_local);
        let zi = |z: usize, y: usize, x: usize| (z * ny + y) * nx + x;
        let units_x = Self::fft_units(nzl * ny, nx);
        let plan = self.plan(nx, inverse);
        self.model.charge_with(self.layer, units_x, &mut || {
            for line in u.chunks_exact_mut(nx) {
                fft_line(line, plan);
            }
        });
        let units_y = Self::fft_units(nzl * nx, ny);
        let plan = self.plan(ny, inverse);
        self.model.charge_with(self.layer, units_y, &mut || {
            let mut tmp = vec![C64::default(); ny];
            for z in 0..nzl {
                for x in 0..nx {
                    for y in 0..ny {
                        tmp[y] = u[zi(z, y, x)];
                    }
                    fft_line(&mut tmp, plan);
                    for y in 0..ny {
                        u[zi(z, y, x)] = tmp[y];
                    }
                }
            }
        });
    }

    /// Where row `(peer, zz, yy)` of a transpose's exchanged blocks sits
    /// in the z-slab layout: local plane `zz`, the peer's `yy`-th row.
    fn z_row(&self, peer: usize, zz: usize, yy: usize) -> usize {
        self.zi(zz, peer * self.ny_local + yy, 0)
    }
    /// The same row in the y-slab layout: local row `yy`, the peer's
    /// `zz`-th plane.
    fn y_row(&self, peer: usize, zz: usize, yy: usize) -> usize {
        self.yi(yy, peer * self.nz_local + zz, 0)
    }

    /// Slab transpose via alltoall: the block for each peer holds rows
    /// `(zz, yy)` of `nx` points, each read from `src` at `from` and
    /// written to the result at `to`. `(z_row, y_row)` goes z-slab →
    /// y-slab; swapping the maps goes back.
    fn transpose(
        &self,
        src: &[C64],
        from: fn(&Self, usize, usize, usize) -> usize,
        to: fn(&Self, usize, usize, usize) -> usize,
    ) -> Vec<C64> {
        let (nx, nzl, nyl) = (self.p.nx, self.nz_local, self.ny_local);
        let rows: Vec<(usize, usize, usize)> = (0..self.size)
            .flat_map(|peer| (0..nzl).flat_map(move |zz| (0..nyl).map(move |yy| (peer, zz, yy))))
            .collect();
        let mut send = vec![C64::default(); rows.len() * nx];
        for (row, &(peer, zz, yy)) in send.chunks_exact_mut(nx).zip(&rows) {
            let at = from(self, peer, zz, yy);
            row.copy_from_slice(&src[at..at + nx]);
        }
        let recv = self.layer.alltoall(
            empi_mpi::as_bytes(&send),
            nzl * nyl * nx * std::mem::size_of::<C64>(),
        );
        let recv: Vec<C64> = empi_mpi::vec_from_bytes(&recv);
        let mut out = vec![C64::default(); send.len()];
        for (row, &(peer, zz, yy)) in recv.chunks_exact(nx).zip(&rows) {
            let at = to(self, peer, zz, yy);
            out[at..at + nx].copy_from_slice(row);
        }
        out
    }

    /// z FFTs in the y-slab layout, detached like [`Self::fft_xy`].
    fn fft_z(&mut self, v: &mut [C64], inverse: bool) {
        let (nx, nz, nyl) = (self.p.nx, self.p.nz, self.ny_local);
        let yi = |y: usize, z: usize, x: usize| (y * nz + z) * nx + x;
        let units = Self::fft_units(nyl * nx, nz);
        let plan = self.plan(nz, inverse);
        self.model.charge_with(self.layer, units, &mut || {
            let mut tmp = vec![C64::default(); nz];
            for y in 0..nyl {
                for x in 0..nx {
                    for z in 0..nz {
                        tmp[z] = v[yi(y, z, x)];
                    }
                    fft_line(&mut tmp, plan);
                    for z in 0..nz {
                        v[yi(y, z, x)] = tmp[z];
                    }
                }
            }
        });
    }
}

/// Run the FT kernel.
pub fn run(layer: &impl CommLayer, class: Class) -> KernelReport {
    let p = FtParams::for_class(class);
    let size = layer.size();
    let rank = layer.rank();
    assert_eq!(p.nz % size, 0, "FT: ranks must divide nz");
    assert_eq!(p.ny % size, 0, "FT: ranks must divide ny");
    let mut extents = vec![p.nx, p.ny, p.nz];
    extents.sort_unstable();
    extents.dedup();
    let mut st = FtState {
        layer,
        p,
        size,
        nz_local: p.nz / size,
        ny_local: p.ny / size,
        model: ComputeModel::calibrated(Kernel::FT),
        plans: extents
            .iter()
            .flat_map(|&n| [FftPlan::new(n, false), FftPlan::new(n, true)])
            .collect(),
    };
    let n_total = p.nx * p.ny * p.nz;
    let norm = 1.0 / n_total as f64;

    // Initial field on my z-slab.
    let z0 = rank * st.nz_local;
    let mut u0 = vec![C64::default(); st.nz_local * p.ny * p.nx];
    for z in 0..st.nz_local {
        for y in 0..p.ny {
            for x in 0..p.nx {
                let g = ((z0 + z) * p.ny + y) * p.nx + x;
                u0[st.zi(z, y, x)] = init_at(g);
            }
        }
    }

    // Forward 3-D FFT.
    let mut work = u0.clone();
    st.fft_xy(&mut work, false);
    let mut spec = st.transpose(&work, FtState::z_row, FtState::y_row);
    st.fft_z(&mut spec, false);

    // Round-trip verification.
    let mut back = spec.clone();
    st.fft_z(&mut back, true);
    let mut back_z = st.transpose(&back, FtState::y_row, FtState::z_row);
    st.fft_xy(&mut back_z, true);
    let mut err: f64 = 0.0;
    for (a, b) in back_z.iter().zip(u0.iter()) {
        let d = a.scale(norm).sub(*b);
        err += d.re * d.re + d.im * d.im;
    }
    let err = st.layer.allreduce_sum(&[err])[0].sqrt();
    let verified = err < 1e-9;

    // Evolve + inverse per iteration, with a spectral damping factor.
    let alpha = 1e-6;
    let mut checksum = 0.0;
    for t in 1..=p.niter {
        // Evolve in spectral space (y-slab layout).
        let y0 = rank * st.ny_local;
        let units = (st.ny_local * p.nz * p.nx) as u64 * 4;
        let ny_local = st.ny_local;
        st.model.charge_with(st.layer, units, &mut || {
            for yy in 0..ny_local {
                let ky = kbar(y0 + yy, p.ny);
                for z in 0..p.nz {
                    let kz = kbar(z, p.nz);
                    for x in 0..p.nx {
                        let kx = kbar(x, p.nx);
                        let k2 = kx * kx + ky * ky + kz * kz;
                        let f = (-4.0
                            * std::f64::consts::PI
                            * std::f64::consts::PI
                            * alpha
                            * t as f64
                            * k2)
                            .exp();
                        let idx = (yy * p.nz + z) * p.nx + x;
                        spec[idx] = spec[idx].scale(f);
                    }
                }
            }
        });

        // Inverse transform back to a z-slab field.
        let mut v = spec.clone();
        st.fft_z(&mut v, true);
        let mut w = st.transpose(&v, FtState::y_row, FtState::z_row);
        st.fft_xy(&mut w, true);

        // NAS-style scattered checksum over 1024 global indices.
        let mut local = C64::default();
        for j in 0..1024usize {
            let g = (j.wrapping_mul(1_093_541) + 17) % n_total;
            let gz = g / (p.ny * p.nx);
            if gz >= z0 && gz < z0 + st.nz_local {
                let rem = g % (p.ny * p.nx);
                local = local.add(w[st.zi(gz - z0, rem / p.nx, rem % p.nx)].scale(norm));
            }
        }
        let s = st.layer.allreduce_sum(&[local.re, local.im]);
        checksum += s[0] + s[1];
    }

    KernelReport {
        verified: verified && checksum.is_finite(),
        checksum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::PlainLayer;
    use empi_mpi::World;
    use empi_netsim::NetModel;
    use proptest::prelude::*;

    /// Textbook radix-2 FFT on one line: its own bit reversal, and each
    /// block's twiddles from `cos`/`sin` and the `w ← w·wlen` recurrence.
    fn oracle_fft(line: &mut [C64], inverse: bool) {
        let n = line.len();
        let mut j = 0usize;
        for i in 1..n {
            let mut bit = n >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            if i < j {
                line.swap(i, j);
            }
        }
        let sign = if inverse { 1.0 } else { -1.0 };
        let mut len = 2;
        while len <= n {
            let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
            let wlen = C64 {
                re: ang.cos(),
                im: ang.sin(),
            };
            let mut i = 0;
            while i < n {
                let mut w = C64 { re: 1.0, im: 0.0 };
                for k in 0..len / 2 {
                    let u = line[i + k];
                    let v = line[i + k + len / 2].mul(w);
                    line[i + k] = u.add(v);
                    line[i + k + len / 2] = u.sub(v);
                    w = w.mul(wlen);
                }
                i += len;
            }
            len <<= 1;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// A planned transform is the per-line recurrence bit for bit, for
        /// every power of two up to 256, in both directions.
        #[test]
        fn fft_plan_is_the_per_line_recurrence_bit_for_bit(
            log_n in 0u32..=8,
            inverse in any::<bool>(),
            parts in proptest::collection::vec(-1e3f64..1e3, 512),
        ) {
            let n = 1usize << log_n;
            let input: Vec<C64> = parts
                .chunks_exact(2)
                .take(n)
                .map(|p| C64 { re: p[0], im: p[1] })
                .collect();
            let mut planned = input.clone();
            fft_line(&mut planned, &FftPlan::new(n, inverse));
            let mut want = input;
            oracle_fft(&mut want, inverse);
            for (k, (a, b)) in planned.iter().zip(&want).enumerate() {
                prop_assert!(
                    a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                    "n={n} inverse={inverse} k={k}: {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn fft_line_round_trip() {
        let mut line: Vec<C64> = (0..64)
            .map(|i| C64 {
                re: (i as f64 * 0.37).sin(),
                im: (i as f64 * 0.91).cos(),
            })
            .collect();
        let orig = line.clone();
        fft_line(&mut line, &FftPlan::new(64, false));
        fft_line(&mut line, &FftPlan::new(64, true));
        for (a, b) in line.iter().zip(orig.iter()) {
            assert!((a.re / 64.0 - b.re).abs() < 1e-12);
            assert!((a.im / 64.0 - b.im).abs() < 1e-12);
        }
    }

    #[test]
    fn fft_matches_dft_small() {
        let n = 8;
        let input: Vec<C64> = (0..n).map(|i| init_at(i * 7 + 3)).collect();
        let mut fast = input.clone();
        fft_line(&mut fast, &FftPlan::new(n, false));
        for k in 0..n {
            let mut acc = C64::default();
            for (j, x) in input.iter().enumerate() {
                let ang = -2.0 * std::f64::consts::PI * (j * k) as f64 / n as f64;
                acc = acc.add(x.mul(C64 {
                    re: ang.cos(),
                    im: ang.sin(),
                }));
            }
            assert!((acc.re - fast[k].re).abs() < 1e-10, "k={k}");
            assert!((acc.im - fast[k].im).abs() < 1e-10, "k={k}");
        }
    }

    #[test]
    fn ft_verifies_and_is_rank_count_invariant() {
        let mut sums = Vec::new();
        for ranks in [1usize, 2, 4] {
            let w = World::flat(NetModel::instant(), ranks);
            let out = w.run(|c| run(&PlainLayer::new(c), Class::S));
            assert!(out.results[0].verified, "FT round trip failed at {ranks}");
            sums.push(out.results[0].checksum);
        }
        for s in &sums[1..] {
            assert!(
                (s - sums[0]).abs() < 1e-9 * sums[0].abs().max(1.0),
                "checksums differ: {sums:?}"
            );
        }
    }
}
