//! MG — multigrid V-cycle on a 3-D periodic Poisson problem (the NAS MG
//! kernel's structure).
//!
//! The fine grid is distributed as z-slabs; every smoothing, residual,
//! restriction and prolongation step performs a **halo exchange** of
//! boundary planes with the two z-neighbours (point-to-point, medium
//! messages — MG's signature traffic). Once a level becomes too coarse
//! to partition (fewer than two planes per rank), the grid is
//! **allgathered** and the remaining V-cycle runs replicated, like NAS
//! MG's coarse-level gathering.

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
}

/// Exchange ghost planes with the periodic z-neighbours.
fn halo(layer: &impl CommLayer, s: &mut Slab) {
    let n = s.n;
    let plane = n * n;
    let p = layer.size();
    if p == 1 {
        wrap_ghosts(s);
        return;
    }
    let me = layer.rank();
    let up = (me + 1) % p;
    let down = (me + p - 1) % p;
    // Send my top plane up, receive my below-ghost from down.
    let top = s.u[gi(n, s.nzl, 0, 0)..gi(n, s.nzl, 0, 0) + plane].to_vec();
    let from_down = layer.sendrecv(f64s(&top), up, down, TAG);
    s.u[0..plane].copy_from_slice(&to_f64s(&from_down));
    // Send my bottom plane down, receive my above-ghost from up.
    let bottom = s.u[gi(n, 1, 0, 0)..gi(n, 1, 0, 0) + plane].to_vec();
    let from_up = layer.sendrecv(f64s(&bottom), down, up, TAG + 1);
    let hi = gi(n, s.nzl + 1, 0, 0);
    s.u[hi..hi + plane].copy_from_slice(&to_f64s(&from_up));
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

/// Box-average restriction to the next-coarser slab (z halves locally
/// when the fine slab has an even plane count).
fn restrict(fine: &Slab) -> Slab {
    let nf = fine.n;
    let nc = nf / 2;
    let nzl_c = fine.nzl / 2;
    let mut coarse = Slab::zeros(nc, nzl_c);
    for zc in 1..=nzl_c {
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
    coarse
}

/// Piecewise-constant prolongation and correction: `u += P e`.
fn prolong_add(u: &mut Slab, e: &Slab) {
    let nf = u.n;
    let nc = e.n;
    for zc in 1..=e.nzl {
        let zf = 2 * zc - 1;
        for yc in 0..nc {
            for xc in 0..nc {
                let val = e.u[gi(nc, zc, yc, xc)];
                for dz in 0..2 {
                    for dy in 0..2 {
                        for dx in 0..2 {
                            u.u[gi(nf, zf + dz, 2 * yc + dy, 2 * xc + dx)] += val;
                        }
                    }
                }
            }
        }
    }
}

/// Distributed V-cycle. Coarsens while each rank keeps ≥2 planes; below
/// that, gathers the grid and solves it replicated ([`serial_vcycle`]).
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

    if u.nzl >= 4 || (layer.size() > 1 && u.nzl >= 2) {
        halo(layer, &mut r);
        let rc = restrict(&r);
        let mut e = Slab::zeros(rc.n, rc.nzl);
        if rc.nzl >= 1 && (rc.nzl >= 2 || layer.size() == 1) {
            vcycle(layer, &mut e, &rc, model);
        } else {
            // Too thin to keep distributed: gather the interior planes
            // into the full cube and solve it replicated.
            let plane = rc.n * rc.n;
            let mine = plane..(rc.nzl + 1) * plane;
            let all = to_f64s(&layer.allgather(f64s(&rc.u[mine.clone()])));
            let mut full_v = Slab::zeros(rc.n, rc.n);
            full_v.u[plane..(rc.n + 1) * plane].copy_from_slice(&all);
            let mut full_e = Slab::zeros(rc.n, rc.n);
            serial_vcycle(&mut full_e, &full_v, layer, model);
            // Keep my planes of the correction.
            let z0 = layer.rank() * rc.nzl;
            e.u[mine].copy_from_slice(&full_e.u[(z0 + 1) * plane..(z0 + rc.nzl + 1) * plane]);
        }
        prolong_add(u, &e);
    }
    for _ in 0..2 {
        smooth(layer, u, v, model);
    }
}

/// Replicated serial V-cycle over the whole cube (`nzl == n`): identical
/// on every rank, no communication. Only the pre-smoothing is charged;
/// the residual and post-smoothing run free (DESIGN.md §3.6).
fn serial_vcycle(u: &mut Slab, v: &Slab, layer: &impl CommLayer, model: &ComputeModel) {
    let n = u.n;
    let sweeps = if n <= 4 { 10 } else { 4 };
    let units = (sweeps * u.nzl * n * n * 10) as u64;
    model.charge_with(layer, units, &mut || {
        for _ in 0..sweeps {
            wrap_ghosts(u);
            jacobi_sweep(u, v);
        }
    });
    if n > 4 {
        wrap_ghosts(u);
        let mut r = Slab::zeros(n, u.nzl);
        residual_into(u, v, &mut r);
        wrap_ghosts(&mut r);
        let rc = restrict(&r);
        let mut e = Slab::zeros(rc.n, rc.nzl);
        serial_vcycle(&mut e, &rc, layer, model);
        prolong_add(u, &e);
        for _ in 0..2 {
            wrap_ghosts(u);
            jacobi_sweep(u, v);
        }
    }
}

/// Fill the ghost planes with the periodic wrap of the slab's own
/// planes (the whole z extent lives here).
fn wrap_ghosts(s: &mut Slab) {
    let n = s.n;
    let plane = n * n;
    let top = s.u[gi(n, s.nzl, 0, 0)..gi(n, s.nzl, 0, 0) + plane].to_vec();
    let bottom = s.u[gi(n, 1, 0, 0)..gi(n, 1, 0, 0) + plane].to_vec();
    s.u[0..plane].copy_from_slice(&top);
    let hi = gi(n, s.nzl + 1, 0, 0);
    s.u[hi..hi + plane].copy_from_slice(&bottom);
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
        let coarse = restrict(&fine);
        assert_eq!(coarse.n, 4);
        for z in 1..=coarse.nzl {
            for y in 0..4 {
                for x in 0..4 {
                    assert_eq!(coarse.u[gi(4, z, y, x)], 8.0); // 2 × 8 × 0.5
                }
            }
        }
    }
}
