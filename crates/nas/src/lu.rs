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
    nz: usize,
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

/// The tile's neighbours in the rank grid (`None` at the domain edge).
struct Neighbours {
    north: Option<usize>,
    south: Option<usize>,
    west: Option<usize>,
    east: Option<usize>,
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

    let mut t = Tile {
        nxl,
        nyl,
        nz: p.nz,
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

    let nbrs = Neighbours {
        north: (my_r > 0).then(|| me - pc),
        south: (my_r + 1 < pr).then(|| me + pc),
        west: (my_c > 0).then(|| me - 1),
        east: (my_c + 1 < pc).then(|| me + 1),
    };

    let r0 = residual_norm(layer, &t, &model, &nbrs);
    for sweep in 0..p.sweeps {
        let tag = TAG + 10 * sweep as u32;
        wavefront(layer, &mut t, &model, &nbrs, tag, false);
        wavefront(layer, &mut t, &model, &nbrs, tag + 1000, true);
    }
    let rfin = residual_norm(layer, &t, &model, &nbrs);
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
    }
}

/// One Gauss–Seidel wavefront over every plane. The lower sweep waits
/// for its north row and west column, relaxes `i` and `j` ascending and
/// forwards south and east; the upper sweep (`upper`) is its mirror
/// image. Either way each point sums its neighbours in the order
/// `(i−1) + (j−1) + (i+1) + (j+1)`.
fn wavefront(
    layer: &impl CommLayer,
    t: &mut Tile,
    model: &ComputeModel,
    nbrs: &Neighbours,
    base: u32,
    upper: bool,
) {
    let (nxl, nyl) = (t.nxl as isize, t.nyl as isize);
    // (upstream rank, ghost line it fills, downstream rank, edge line sent)
    let (row_in, ghost_i, row_out, edge_i) = if upper {
        (nbrs.south, nxl, nbrs.north, 0)
    } else {
        (nbrs.north, -1, nbrs.south, nxl - 1)
    };
    let (col_in, ghost_j, col_out, edge_j) = if upper {
        (nbrs.east, nyl, nbrs.west, 0)
    } else {
        (nbrs.west, -1, nbrs.east, nyl - 1)
    };
    let w = t.nyl + 2;
    let plane = (t.nxl + 2) * w;
    for z in 0..t.nz {
        let tag = base + z as u32 % 5;
        if let Some(r) = row_in {
            let row = to_f64s(&layer.recv(r, tag));
            for j in 0..nyl {
                let id = t.idx(z, ghost_i, j);
                t.u[id] = row[j as usize];
            }
        }
        if let Some(c) = col_in {
            let col = to_f64s(&layer.recv(c, tag + 5));
            for i in 0..nxl {
                let id = t.idx(z, i, ghost_j);
                t.u[id] = col[i as usize];
            }
        }
        let units = (t.nxl * t.nyl * 6) as u64;
        let (nx, ny) = (t.nxl, t.nyl);
        let u = &mut t.u[z * plane..(z + 1) * plane];
        let v = &t.v[z * plane..(z + 1) * plane];
        model.charge_with(layer, units, &mut || {
            for a in 0..nx {
                let i = if upper { nx - a } else { a + 1 };
                for b in 0..ny {
                    let j = if upper { ny - b } else { b + 1 };
                    let id = i * w + j;
                    let nb = u[id - w] + u[id - 1] + u[id + w] + u[id + 1];
                    u[id] = (v[id] + nb) / 4.0;
                }
            }
        });
        if let Some(r) = row_out {
            let row: Vec<f64> = (0..nyl).map(|j| t.u[t.idx(z, edge_i, j)]).collect();
            layer.send(f64s(&row), r, tag);
        }
        if let Some(c) = col_out {
            let col: Vec<f64> = (0..nxl).map(|i| t.u[t.idx(z, i, edge_j)]).collect();
            layer.send(f64s(&col), c, tag + 5);
        }
    }
}

/// ‖v − A u‖ with a full halo exchange (non-wavefront, symmetric).
fn residual_norm(layer: &impl CommLayer, t: &Tile, model: &ComputeModel, nbrs: &Neighbours) -> f64 {
    let nz = t.nz;
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
        if let Some(n) = nbrs.north {
            let ghost = to_f64s(&layer.sendrecv(f64s(&my_top), n, n, tag));
            for j in 0..t.nyl {
                u[t.idx(z, -1, j as isize)] = ghost[j];
            }
        }
        if let Some(s) = nbrs.south {
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
        if let Some(w) = nbrs.west {
            let ghost = to_f64s(&layer.sendrecv(f64s(&my_w), w, w, tag + 1));
            for i in 0..t.nxl {
                u[t.idx(z, i as isize, -1)] = ghost[i];
            }
        }
        if let Some(e) = nbrs.east {
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
