//! LU — SSOR with a pipelined 2-D wavefront (the NAS LU kernel's
//! structure).
//!
//! The x-y domain is split over a 2-D rank grid; each Gauss–Seidel
//! lower sweep makes every tile wait for its **west and north boundary
//! vectors**, compute, then forward **east and south** — the classic LU
//! wavefront, a storm of small point-to-point messages. Multiple
//! z-planes flow through the pipeline back-to-back, so ranks deep in the
//! grid stay busy. The upper sweep runs the mirror-image wavefront.
//!
//! Because every point uses exactly the freshest neighbour values in
//! lexicographic order, the distributed sweep is *bitwise identical* to
//! the serial one — which the tests assert across rank counts.

use crate::layer::bytes::{f64s, to_f64s};
use crate::{Class, CommLayer, ComputeModel, Kernel, KernelReport};

/// LU parameters.
#[derive(Debug, Clone, Copy)]
pub struct LuParams {
    /// Global grid extent in x (rows).
    pub nx: usize,
    /// Global grid extent in y (columns).
    pub ny: usize,
    /// Independent planes pipelined per sweep.
    pub nz: usize,
    /// SSOR iterations.
    pub sweeps: usize,
}

impl LuParams {
    /// Parameters for a class.
    pub fn for_class(class: Class) -> Self {
        match class {
            Class::S => LuParams {
                nx: 24,
                ny: 24,
                nz: 3,
                sweeps: 4,
            },
            Class::MiniC => LuParams {
                nx: 192,
                ny: 192,
                nz: 24,
                sweeps: 12,
            },
        }
    }
}

const TAG: u32 = 800;

/// Factor `size` into a (rows, cols) rank grid dividing (nx, ny).
fn rank_grid(size: usize, nx: usize, ny: usize) -> (usize, usize) {
    let mut best = (1, size);
    let mut best_score = usize::MAX;
    for pr in 1..=size {
        if !size.is_multiple_of(pr) {
            continue;
        }
        let pc = size / pr;
        if nx.is_multiple_of(pr) && ny.is_multiple_of(pc) {
            let score = pr.abs_diff(pc);
            if score < best_score {
                best = (pr, pc);
                best_score = score;
            }
        }
    }
    assert!(
        best_score != usize::MAX,
        "no rank grid for {size} ranks over {nx}x{ny}"
    );
    best
}

struct Tile {
    nxl: usize,
    nyl: usize,
    /// `u[plane][(i+1)*(nyl+2) + (j+1)]` with ghost rows/cols.
    u: Vec<f64>,
    v: Vec<f64>,
}

impl Tile {
    #[inline]
    fn idx(&self, z: usize, i: isize, j: isize) -> usize {
        let w = self.nyl + 2;
        z * (self.nxl + 2) * w + ((i + 1) as usize) * w + (j + 1) as usize
    }
}

fn rhs_at(g: usize) -> f64 {
    let h = (g as u64)
        .wrapping_mul(0xA24BAED4963EE407)
        .rotate_left(23)
        .wrapping_mul(0x9FB21C651E98DF25);
    ((h >> 11) as f64 / (1u64 << 53) as f64) - 0.5
}

/// Run the LU kernel.
pub fn run(layer: &impl CommLayer, class: Class) -> KernelReport {
    let p = LuParams::for_class(class);
    let size = layer.size();
    let me = layer.rank();
    let (pr, pc) = rank_grid(size, p.nx, p.ny);
    let (my_r, my_c) = (me / pc, me % pc);
    let (nxl, nyl) = (p.nx / pr, p.ny / pc);
    let (i0, j0) = (my_r * nxl, my_c * nyl);
    let model = ComputeModel::calibrated(Kernel::LU);
    let mut work = 0u64;

    let mut t = Tile {
        nxl,
        nyl,
        u: vec![0.0; p.nz * (nxl + 2) * (nyl + 2)],
        v: vec![0.0; p.nz * (nxl + 2) * (nyl + 2)],
    };
    for z in 0..p.nz {
        for i in 0..nxl {
            for j in 0..nyl {
                let g = (z * p.nx + i0 + i) * p.ny + j0 + j;
                let id = t.idx(z, i as isize, j as isize);
                t.v[id] = rhs_at(g);
            }
        }
    }

    let north = (my_r > 0).then(|| me - pc);
    let south = (my_r + 1 < pr).then(|| me + pc);
    let west = (my_c > 0).then(|| me - 1);
    let east = (my_c + 1 < pc).then(|| me + 1);

    let r0 = residual_norm(layer, &t, &model, &mut work, north, south, west, east, p.nz);

    for sweep in 0..p.sweeps {
        let base = TAG + 10 * sweep as u32;
        // Lower (forward) wavefront: deps on north row and west column.
        for z in 0..p.nz {
            let tag = base + z as u32 % 5;
            if let Some(n) = north {
                let row = to_f64s(&layer.recv(n, tag));
                for j in 0..nyl {
                    let id = t.idx(z, -1, j as isize);
                    t.u[id] = row[j];
                }
            }
            if let Some(w) = west {
                let col = to_f64s(&layer.recv(w, tag + 5));
                for i in 0..nxl {
                    let id = t.idx(z, i as isize, -1);
                    t.u[id] = col[i];
                }
            }
            let units = (nxl * nyl * 6) as u64;
            model.charge_with(layer, units, &mut || {
                for i in 0..nxl as isize {
                    for j in 0..nyl as isize {
                        let nb = t.u[t.idx(z, i - 1, j)]
                            + t.u[t.idx(z, i, j - 1)]
                            + t.u[t.idx(z, i + 1, j)]
                            + t.u[t.idx(z, i, j + 1)];
                        let id = t.idx(z, i, j);
                        t.u[id] = (t.v[id] + nb) / 4.0;
                    }
                }
            });
            work += units;
            if let Some(s) = south {
                let row: Vec<f64> = (0..nyl)
                    .map(|j| t.u[t.idx(z, nxl as isize - 1, j as isize)])
                    .collect();
                layer.send(f64s(&row), s, tag);
            }
            if let Some(e) = east {
                let col: Vec<f64> = (0..nxl)
                    .map(|i| t.u[t.idx(z, i as isize, nyl as isize - 1)])
                    .collect();
                layer.send(f64s(&col), e, tag + 5);
            }
        }
        // Upper (backward) wavefront: mirror image.
        for z in 0..p.nz {
            let tag = base + 1000 + z as u32 % 5;
            if let Some(s) = south {
                let row = to_f64s(&layer.recv(s, tag));
                for j in 0..nyl {
                    let id = t.idx(z, nxl as isize, j as isize);
                    t.u[id] = row[j];
                }
            }
            if let Some(e) = east {
                let col = to_f64s(&layer.recv(e, tag + 5));
                for i in 0..nxl {
                    let id = t.idx(z, i as isize, nyl as isize);
                    t.u[id] = col[i];
                }
            }
            let units = (nxl * nyl * 6) as u64;
            model.charge_with(layer, units, &mut || {
                for i in (0..nxl as isize).rev() {
                    for j in (0..nyl as isize).rev() {
                        let nb = t.u[t.idx(z, i - 1, j)]
                            + t.u[t.idx(z, i, j - 1)]
                            + t.u[t.idx(z, i + 1, j)]
                            + t.u[t.idx(z, i, j + 1)];
                        let id = t.idx(z, i, j);
                        t.u[id] = (t.v[id] + nb) / 4.0;
                    }
                }
            });
            work += units;
            if let Some(n) = north {
                let row: Vec<f64> = (0..nyl).map(|j| t.u[t.idx(z, 0, j as isize)]).collect();
                layer.send(f64s(&row), n, tag);
            }
            if let Some(w) = west {
                let col: Vec<f64> = (0..nxl).map(|i| t.u[t.idx(z, i as isize, 0)]).collect();
                layer.send(f64s(&col), w, tag + 5);
            }
        }
    }

    let rfin = residual_norm(layer, &t, &model, &mut work, north, south, west, east, p.nz);
    let unorm = {
        let mut acc = 0.0;
        for z in 0..p.nz {
            for i in 0..nxl as isize {
                for j in 0..nyl as isize {
                    let v = t.u[t.idx(z, i, j)];
                    acc += v * v;
                }
            }
        }
        layer.allreduce_sum(&[acc])[0].sqrt()
    };

    KernelReport {
        verified: rfin < 0.5 * r0 && rfin.is_finite(),
        checksum: unorm,
        work_units: work,
    }
}

/// ‖v − A u‖ with a full halo exchange (non-wavefront, symmetric).
#[allow(clippy::too_many_arguments)]
fn residual_norm(
    layer: &impl CommLayer,
    t: &Tile,
    model: &ComputeModel,
    work: &mut u64,
    north: Option<usize>,
    south: Option<usize>,
    west: Option<usize>,
    east: Option<usize>,
    nz: usize,
) -> f64 {
    // Exchange all four boundaries symmetrically (sendrecv pairs), then
    // evaluate the residual locally.
    let mut u = t.u.clone();
    let tag = TAG + 9000;
    for z in 0..nz {
        // North/south pair.
        let my_top: Vec<f64> = (0..t.nyl).map(|j| t.u[t.idx(z, 0, j as isize)]).collect();
        let my_bot: Vec<f64> = (0..t.nyl)
            .map(|j| t.u[t.idx(z, t.nxl as isize - 1, j as isize)])
            .collect();
        if let Some(n) = north {
            let ghost = to_f64s(&layer.sendrecv(f64s(&my_top), n, n, tag));
            for j in 0..t.nyl {
                u[t.idx(z, -1, j as isize)] = ghost[j];
            }
        }
        if let Some(s) = south {
            let ghost = to_f64s(&layer.sendrecv(f64s(&my_bot), s, s, tag));
            for j in 0..t.nyl {
                u[t.idx(z, t.nxl as isize, j as isize)] = ghost[j];
            }
        }
        // West/east pair.
        let my_w: Vec<f64> = (0..t.nxl).map(|i| t.u[t.idx(z, i as isize, 0)]).collect();
        let my_e: Vec<f64> = (0..t.nxl)
            .map(|i| t.u[t.idx(z, i as isize, t.nyl as isize - 1)])
            .collect();
        if let Some(w) = west {
            let ghost = to_f64s(&layer.sendrecv(f64s(&my_w), w, w, tag + 1));
            for i in 0..t.nxl {
                u[t.idx(z, i as isize, -1)] = ghost[i];
            }
        }
        if let Some(e) = east {
            let ghost = to_f64s(&layer.sendrecv(f64s(&my_e), e, e, tag + 1));
            for i in 0..t.nxl {
                u[t.idx(z, i as isize, t.nyl as isize)] = ghost[i];
            }
        }
    }
    let mut acc = 0.0;
    let units = (nz * t.nxl * t.nyl * 8) as u64;
    model.charge_with(layer, units, &mut || {
        for z in 0..nz {
            for i in 0..t.nxl as isize {
                for j in 0..t.nyl as isize {
                    let nb = u[t.idx(z, i - 1, j)]
                        + u[t.idx(z, i, j - 1)]
                        + u[t.idx(z, i + 1, j)]
                        + u[t.idx(z, i, j + 1)];
                    let r = t.v[t.idx(z, i, j)] - (4.0 * u[t.idx(z, i, j)] - nb);
                    acc += r * r;
                }
            }
        }
    });
    *work += units;
    layer.allreduce_sum(&[acc])[0].sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::PlainLayer;
    use empi_mpi::World;
    use empi_netsim::NetModel;

    #[test]
    fn rank_grid_divides() {
        assert_eq!(rank_grid(4, 24, 24), (2, 2));
        assert_eq!(rank_grid(8, 192, 192), (2, 4));
        assert_eq!(rank_grid(64, 192, 192), (8, 8));
        assert_eq!(rank_grid(1, 24, 24), (1, 1));
    }

    #[test]
    fn lu_converges_and_matches_serial_exactly() {
        let mut checks = Vec::new();
        for ranks in [1usize, 2, 4] {
            let w = World::flat(NetModel::instant(), ranks);
            let out = w.run(|c| run(&PlainLayer::new(c), Class::S));
            assert!(out.results[0].verified, "LU failed at {ranks} ranks");
            checks.push(out.results[0].checksum);
        }
        // Wavefront Gauss–Seidel is order-identical to serial; only the
        // allreduce summation order differs, so the norms must agree to
        // floating-point roundoff.
        for c in &checks[1..] {
            assert!(
                (c - checks[0]).abs() <= 1e-12 * checks[0].abs(),
                "partitioned sweep diverged from serial: {checks:?}"
            );
        }
    }
}
