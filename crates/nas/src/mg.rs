//! MG — multigrid V-cycle on a 3-D periodic Poisson problem (the NAS MG
//! kernel's structure).
//!
//! Every level is distributed as z-slabs over the ranks that hold it: a
//! level of `n` planes lives on every `s`-th rank, `s = max(1, ranks /
//! n)`. Every smoothing and residual step performs a **halo exchange**
//! of boundary planes with the holders at `±s` (point-to-point, medium
//! messages — MG's signature traffic). A holder with two or more planes
//! restricts and prolongs its own; holders with one plane pair up, and
//! each restriction moves the upper one's residual plane down in one
//! message and each prolongation moves the coarse correction back up in
//! one; a rank that holds no plane of the coarser levels waits for that
//! correction. Every level runs the same arithmetic on every rank
//! count, so the answer moves only with the final norm's summation
//! order, and every step of it is charged.

use crate::layer::bytes::{f64s, to_f64s};
use crate::{Class, CommLayer, ComputeModel, Kernel, KernelReport};

/// MG parameters.
#[derive(Debug, Clone, Copy)]
pub struct MgParams {
    /// Grid extent (n × n × n, power of two).
    pub n: usize,
    /// V-cycles to run.
    pub cycles: usize,
}

impl MgParams {
    /// Parameters for a class.
    pub fn for_class(class: Class) -> Self {
        match class {
            Class::S => MgParams { n: 16, cycles: 4 },
            Class::MiniC => MgParams { n: 128, cycles: 6 },
        }
    }
}

const OMEGA: f64 = 0.8;
const TAG: u32 = 700;

/// Index into an (nz+2)-plane slab with ghost planes at z=0 and z=nz+1.
#[inline]
fn gi(n: usize, z: usize, y: usize, x: usize) -> usize {
    (z * n + y) * n + x
}

/// A distributed slab at one level.
struct Slab {
    /// Grid extent at this level.
    n: usize,
    /// Local planes (without ghosts).
    nzl: usize,
    /// Values, (nzl+2)·n·n with ghost planes.
    u: Vec<f64>,
}

impl Slab {
    fn zeros(n: usize, nzl: usize) -> Slab {
        Slab {
            n,
            nzl,
            u: vec![0.0; (nzl + 2) * n * n],
        }
    }

    /// The slab's own planes, without the ghosts.
    fn interior(&self) -> &[f64] {
        let plane = self.n * self.n;
        &self.u[plane..(self.nzl + 1) * plane]
    }

    fn interior_mut(&mut self) -> &mut [f64] {
        let plane = self.n * self.n;
        &mut self.u[plane..(self.nzl + 1) * plane]
    }
}

/// Stride between the ranks that hold a level of `n` planes: every
/// rank while there are at least as many planes as ranks, then every
/// `ranks / n`-th rank, one plane each.
fn stride(ranks: usize, n: usize) -> usize {
    (ranks / n).max(1)
}

/// Fill the ghost planes from the periodic z-neighbours among the
/// ranks that hold this level: the planes at `±stride`, or the slab's
/// own far planes when one rank holds the whole level.
fn halo(layer: &impl CommLayer, s: &mut Slab) {
    let plane = s.n * s.n;
    let top = s.u[s.nzl * plane..(s.nzl + 1) * plane].to_vec();
    let bottom = s.u[plane..2 * plane].to_vec();
    let p = layer.size();
    let step = stride(p, s.n);
    let (below, above) = if step == p {
        (top, bottom)
    } else {
        let me = layer.rank();
        let (up, down) = ((me + step) % p, (me + p - step) % p);
        // My top plane goes up and my bottom plane down.
        let below = layer.sendrecv(f64s(&top), up, down, TAG);
        let above = layer.sendrecv(f64s(&bottom), down, up, TAG + 1);
        (to_f64s(&below), to_f64s(&above))
    };
    s.u[..plane].copy_from_slice(&below);
    s.u[(s.nzl + 1) * plane..].copy_from_slice(&above);
}

/// One damped-Jacobi sweep `u += ω (v − A u)/6` with `A = −∇²`
/// (7-point, periodic x/y in-plane, z via `u`'s ghost planes, which the
/// caller has filled).
fn jacobi_sweep(u: &mut Slab, v: &Slab) {
    let n = u.n;
    let mut new = u.u.clone();
    for z in 1..=u.nzl {
        for y in 0..n {
            let (yp, ym) = ((y + 1) % n, (y + n - 1) % n);
            for x in 0..n {
                let (xp, xm) = ((x + 1) % n, (x + n - 1) % n);
                let nb = u.u[gi(n, z + 1, y, x)]
                    + u.u[gi(n, z - 1, y, x)]
                    + u.u[gi(n, z, yp, x)]
                    + u.u[gi(n, z, ym, x)]
                    + u.u[gi(n, z, y, xp)]
                    + u.u[gi(n, z, y, xm)];
                let au = 6.0 * u.u[gi(n, z, y, x)] - nb;
                new[gi(n, z, y, x)] =
                    u.u[gi(n, z, y, x)] + OMEGA * (v.u[gi(n, z, y, x)] - au) / 6.0;
            }
        }
    }
    u.u = new;
}

/// Residual `r = v − A u` on the interior planes, `u`'s ghost planes
/// filled.
fn residual_into(u: &Slab, v: &Slab, r: &mut Slab) {
    let n = u.n;
    for z in 1..=u.nzl {
        for y in 0..n {
            let (yp, ym) = ((y + 1) % n, (y + n - 1) % n);
            for x in 0..n {
                let (xp, xm) = ((x + 1) % n, (x + n - 1) % n);
                let nb = u.u[gi(n, z + 1, y, x)]
                    + u.u[gi(n, z - 1, y, x)]
                    + u.u[gi(n, z, yp, x)]
                    + u.u[gi(n, z, ym, x)]
                    + u.u[gi(n, z, y, xp)]
                    + u.u[gi(n, z, y, xm)];
                r.u[gi(n, z, y, x)] = v.u[gi(n, z, y, x)] - (6.0 * u.u[gi(n, z, y, x)] - nb);
            }
        }
    }
}

/// One distributed damped-Jacobi sweep: halo exchange, then the charged
/// [`jacobi_sweep`].
fn smooth(layer: &impl CommLayer, u: &mut Slab, v: &Slab, model: &ComputeModel) {
    halo(layer, u);
    let units = (u.nzl * u.n * u.n * 10) as u64;
    model.charge_with(layer, units, &mut || jacobi_sweep(u, v));
}

/// Distributed residual `v − A u`: halo exchange, then the charged
/// [`residual_into`].
fn residual(layer: &impl CommLayer, u: &mut Slab, v: &Slab, model: &ComputeModel) -> Slab {
    halo(layer, u);
    let mut r = Slab::zeros(u.n, u.nzl);
    let units = (u.nzl * u.n * u.n * 9) as u64;
    model.charge_with(layer, units, &mut || residual_into(u, v, &mut r));
    r
}

/// Box-average restriction into the next-coarser slab: every two fine
/// planes make one coarse plane. Reads interior planes only.
fn restrict_into(fine: &Slab, coarse: &mut Slab) {
    let nf = fine.n;
    let nc = coarse.n;
    for zc in 1..=coarse.nzl {
        let zf = 2 * zc - 1; // fine planes zf, zf+1
        for yc in 0..nc {
            for xc in 0..nc {
                let mut acc = 0.0;
                for dz in 0..2 {
                    for dy in 0..2 {
                        for dx in 0..2 {
                            acc += fine.u[gi(nf, zf + dz, 2 * yc + dy, 2 * xc + dx)];
                        }
                    }
                }
                // Scale by 4 = 8 (average) × h²-ratio for A = −∇² with
                // unit spacing at every level… empirically the standard
                // factor for this discretization is ½.
                coarse.u[gi(nc, zc, yc, xc)] = acc * 0.5;
            }
        }
    }
}

/// Piecewise-constant prolongation and correction `u += P e`: fine
/// plane `z` takes coarse plane `⌈z / 2⌉`, so the one plane of
/// either rank of a pair takes the pair's coarse plane.
fn prolong_add(u: &mut Slab, e: &Slab) {
    let n = u.n;
    for z in 1..=u.nzl {
        for y in 0..n {
            for x in 0..n {
                u.u[gi(n, z, y, x)] += e.u[gi(e.n, z.div_ceil(2), y / 2, x / 2)];
            }
        }
    }
}

/// One V-cycle on the ranks that hold `u`'s level: 2 pre-sweeps, the
/// coarse-grid correction, 2 post-sweeps; 10 sweeps at n ≤ 4. A rank
/// with two or more planes restricts its own; ranks with one plane
/// pair up, and the upper one sends its residual plane to the lower
/// one, which solves the coarse level and sends the correction back.
fn vcycle(layer: &impl CommLayer, u: &mut Slab, v: &Slab, model: &ComputeModel) {
    let n = u.n;
    if n <= 4 {
        for _ in 0..10 {
            smooth(layer, u, v, model);
        }
        return;
    }
    for _ in 0..2 {
        smooth(layer, u, v, model);
    }
    let mut r = residual(layer, u, v, model);
    let me = layer.rank();
    let step = stride(layer.size(), n);
    let e = if u.nzl == 1 && (me / step) % 2 == 1 {
        layer.send(f64s(r.interior()), me - step, TAG + 2);
        let mut e = Slab::zeros(n / 2, 1);
        e.interior_mut()
            .copy_from_slice(&to_f64s(&layer.recv(me - step, TAG + 3)));
        e
    } else {
        if u.nzl == 1 {
            let mut pair = Slab::zeros(n, 2);
            let (mine, above) = pair.interior_mut().split_at_mut(n * n);
            mine.copy_from_slice(r.interior());
            above.copy_from_slice(&to_f64s(&layer.recv(me + step, TAG + 2)));
            r = pair;
        }
        let mut rc = Slab::zeros(n / 2, r.nzl / 2);
        let units = (rc.nzl * rc.n * rc.n * 9) as u64;
        model.charge_with(layer, units, &mut || restrict_into(&r, &mut rc));
        let mut e = Slab::zeros(rc.n, rc.nzl);
        vcycle(layer, &mut e, &rc, model);
        if u.nzl == 1 {
            layer.send(f64s(e.interior()), me + step, TAG + 3);
        }
        e
    };
    let units = (u.nzl * n * n) as u64;
    model.charge_with(layer, units, &mut || prolong_add(u, &e));
    for _ in 0..2 {
        smooth(layer, u, v, model);
    }
}

/// Deterministic zero-mean right-hand side value at a global index.
fn rhs_at(g: usize) -> f64 {
    let h = (g as u64)
        .wrapping_mul(0xD1B54A32D192ED03)
        .rotate_left(29)
        .wrapping_mul(0x94D049BB133111EB);
    ((h >> 11) as f64 / (1u64 << 53) as f64) - 0.5
}

/// Run the MG kernel.
pub fn run(layer: &impl CommLayer, class: Class) -> KernelReport {
    let p = MgParams::for_class(class);
    let size = layer.size();
    let rank = layer.rank();
    assert_eq!(p.n % size, 0, "MG: ranks must divide n");
    let nzl = p.n / size;
    assert!(nzl >= 1);
    let model = ComputeModel::calibrated(Kernel::MG);

    // RHS with the global mean removed (periodic compatibility).
    let mut v = Slab::zeros(p.n, nzl);
    let z0 = rank * nzl;
    let mut local_sum = 0.0;
    for z in 1..=nzl {
        for y in 0..p.n {
            for x in 0..p.n {
                let g = ((z0 + z - 1) * p.n + y) * p.n + x;
                let val = rhs_at(g);
                v.u[gi(p.n, z, y, x)] = val;
                local_sum += val;
            }
        }
    }
    let mean = layer.allreduce_sum(&[local_sum])[0] / (p.n * p.n * p.n) as f64;
    for z in 1..=nzl {
        for y in 0..p.n {
            for x in 0..p.n {
                v.u[gi(p.n, z, y, x)] -= mean;
            }
        }
    }

    let mut u = Slab::zeros(p.n, nzl);
    let r0 = {
        let r = residual(layer, &mut u, &v, &model);
        norm(layer, &r)
    };
    for _ in 0..p.cycles {
        vcycle(layer, &mut u, &v, &model);
    }
    let rfin = {
        let r = residual(layer, &mut u, &v, &model);
        norm(layer, &r)
    };

    KernelReport {
        verified: rfin < 0.3 * r0 && rfin.is_finite(),
        checksum: rfin,
    }
}

fn norm(layer: &impl CommLayer, s: &Slab) -> f64 {
    let n = s.n;
    let mut acc = 0.0;
    for z in 1..=s.nzl {
        for y in 0..n {
            for x in 0..n {
                let v = s.u[gi(n, z, y, x)];
                acc += v * v;
            }
        }
    }
    layer.allreduce_sum(&[acc])[0].sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::PlainLayer;
    use empi_mpi::World;
    use empi_netsim::NetModel;

    #[test]
    fn mg_reduces_residual_at_various_rank_counts() {
        for ranks in [1usize, 2, 4] {
            let w = World::flat(NetModel::instant(), ranks);
            let out = w.run(|c| run(&PlainLayer::new(c), Class::S));
            assert!(
                out.results[0].verified,
                "MG did not converge at {ranks} ranks (residual {})",
                out.results[0].checksum
            );
        }
    }

    #[test]
    fn restriction_preserves_constants_scaled() {
        // A constant fine residual restricts to the same constant × ½ ×
        // 8/8 (box average then ×0.5).
        let mut fine = Slab::zeros(8, 8);
        for v in fine.u.iter_mut() {
            *v = 2.0;
        }
        let mut coarse = Slab::zeros(4, 4);
        restrict_into(&fine, &mut coarse);
        for z in 1..=coarse.nzl {
            for y in 0..4 {
                for x in 0..4 {
                    assert_eq!(coarse.u[gi(4, z, y, x)], 8.0); // 2 × 8 × 0.5
                }
            }
        }
    }
}
