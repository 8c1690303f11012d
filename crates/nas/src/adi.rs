//! BT / SP — ADI (alternating-direction implicit) solvers on a 3-D grid
//! (the structure of the NAS BT and SP kernels).
//!
//! The grid is z-partitioned. Each iteration performs implicit line
//! solves along x, y (local) and z (distributed): the z solve is a
//! **pipelined Thomas algorithm** — forward-elimination carries flow
//! down the rank chain in batches of lines, back-substitution flows back
//! up — the medium-size neighbour traffic characteristic of BT/SP.
//!
//! The two kernels share this framework and differ in their local math,
//! like their NAS namesakes differ in solver class:
//!
//! * **BT** ("block tridiagonal"): five coupled variables; tridiagonal
//!   solves per variable plus a dense 5×5 per-cell coupling multiply
//!   each iteration (the block character, kept at real-arithmetic cost).
//! * **SP** ("scalar pentadiagonal"): five variables with *pentadiagonal*
//!   x/y line solves (true 5-band Thomas) and tridiagonal z solves.
//!
//! Both are heat-equation-style diffusions with zero Dirichlet
//! boundaries, so the solution energy must decrease monotonically —
//! that, plus rank-count invariance of the checksum, is the built-in
//! verification.

use crate::layer::bytes::{f64s, to_f64s};
use crate::{Class, CommLayer, ComputeModel, Kernel, KernelReport};

/// Which ADI kernel to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdiKind {
    /// Block-tridiagonal flavour.
    Bt,
    /// Scalar-pentadiagonal flavour.
    Sp,
}

/// ADI parameters.
#[derive(Debug, Clone, Copy)]
pub struct AdiParams {
    /// Grid extent per dimension (cube).
    pub n: usize,
    /// Coupled variables per cell.
    pub nvar: usize,
    /// ADI iterations.
    pub iters: usize,
    /// Lines per pipeline message batch in the z solve.
    pub batch: usize,
}

impl AdiParams {
    /// Parameters for a class and kind.
    pub fn for_class(class: Class, kind: AdiKind) -> Self {
        match (class, kind) {
            (Class::S, _) => AdiParams {
                n: 16,
                nvar: 5,
                iters: 3,
                batch: 64,
            },
            (Class::MiniC, AdiKind::Bt) => AdiParams {
                n: 64,
                nvar: 5,
                iters: 6,
                batch: 512,
            },
            (Class::MiniC, AdiKind::Sp) => AdiParams {
                n: 64,
                nvar: 5,
                iters: 8,
                batch: 512,
            },
        }
    }
}

const SIGMA: f64 = 0.4;
const TAG: u32 = 900;

/// The line solver of one ADI run: `(I + σ·A) x = d` along every line
/// of a plane, Dirichlet ends, for the run's band matrix `A`:
/// `tridiag(−1, 2, −1)` (Thomas) for BT, `penta(1, −4, 6, −4, 1)/2`
/// (5-band Gaussian elimination without pivoting) for SP.
///
/// `A` depends on nothing but `SIGMA`, the kind and the line length, so
/// its elimination runs once, in [`LineSolver::new`], by the operations
/// a per-line solve would run on it and in the same order. A solve then
/// runs only the right-hand-side recurrences, and every element sees the
/// `f64` operations the per-line solve gave it, in the same order.
struct LineSolver {
    n: usize,
    bands: Bands,
}

enum Bands {
    /// Thomas: the pivots `denom[k]` and `cp[k] = a / denom[k]`.
    Tri { denom: Vec<f64>, cp: Vec<f64> },
    /// `m1[k]` eliminates row k's first sub-diagonal against row k − 1
    /// (k ≥ 1), `m2[k]` row k + 2's second sub-diagonal against row k
    /// (k + 2 < n); `diag`, `sup1` and `sup2` are what the elimination
    /// leaves of the upper bands.
    Penta {
        m1: Vec<f64>,
        m2: Vec<f64>,
        diag: Vec<f64>,
        sup1: Vec<f64>,
        sup2: Vec<f64>,
    },
}

impl LineSolver {
    /// Eliminate the band matrix of `kind` for lines of `n` points. SP
    /// lines shorter than 3 points are tridiagonal.
    fn new(kind: AdiKind, n: usize) -> Self {
        let bands = if kind == AdiKind::Sp && n >= 3 {
            Self::penta(n)
        } else {
            Self::tri(n)
        };
        LineSolver { n, bands }
    }

    fn tri(n: usize) -> Bands {
        let (a, b) = (-SIGMA, 1.0 + 2.0 * SIGMA);
        let (mut denom, mut cp) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let mut prev_c = 0.0;
        for _ in 0..n {
            let den = b - a * prev_c;
            prev_c = a / den;
            denom.push(den);
            cp.push(prev_c);
        }
        Bands::Tri { denom, cp }
    }

    fn penta(n: usize) -> Bands {
        let (e, a, b0, c, f) = (
            SIGMA * 0.5,
            -2.0 * SIGMA,
            1.0 + 3.0 * SIGMA,
            -2.0 * SIGMA,
            SIGMA * 0.5,
        );
        // Band storage: sub2 (always `e`), sub1, diag, sup1, sup2 per row.
        let mut sub1 = vec![a; n];
        let mut diag = vec![b0; n];
        let mut sup1 = vec![c; n];
        let mut sup2 = vec![f; n];
        sub1[0] = 0.0;
        sup1[n - 1] = 0.0;
        sup2[n - 1] = 0.0;
        sup2[n - 2] = 0.0;
        let mut m1 = vec![0.0; n];
        let mut m2 = vec![0.0; n - 2];
        // Forward elimination of sub2 then sub1.
        for k in 0..n {
            if k >= 1 {
                let m = sub1[k] / diag[k - 1];
                diag[k] -= m * sup1[k - 1];
                sup1[k] -= m * sup2[k - 1];
                m1[k] = m;
            }
            if k + 2 < n {
                let m = e / diag[k];
                sub1[k + 2] -= m * sup1[k];
                diag[k + 2] -= m * sup2[k];
                m2[k] = m;
            }
        }
        Bands::Penta {
            m1,
            m2,
            diag,
            sup1,
            sup2,
        }
    }

    /// Solve the x lines of one z-plane (`plane[y * n + x]`). The rows are
    /// transposed into `scratch` so the lines sit side by side.
    fn sweep_x(&self, plane: &mut [f64], scratch: &mut [f64]) {
        let n = self.n;
        if n == 0 {
            return;
        }
        transpose(plane, scratch, n);
        self.solve(scratch, n);
        transpose(scratch, plane, n);
    }

    /// Solve every line of `d` in place. `d` holds `w` lines side by
    /// side: line `j`'s k-th point is `d[k * w + j]`, so each step of the
    /// recurrences is one pass over a contiguous row of `w` independent
    /// points. A single contiguous line is `w = 1`.
    fn solve(&self, d: &mut [f64], w: usize) {
        let n = self.n;
        debug_assert_eq!(d.len(), n * w);
        if n == 0 {
            return;
        }
        match &self.bands {
            Bands::Tri { denom, cp } => {
                let a = -SIGMA;
                // `a * 0.0` is −0.0: the first point gains `+ 0.0`, which
                // decides the sign of a zero, as in the per-line solve.
                for x in &mut d[..w] {
                    *x = (*x - a * 0.0) / denom[0];
                }
                for k in 1..n {
                    let (done, rest) = d.split_at_mut(k * w);
                    let prev = &done[(k - 1) * w..];
                    for (x, p) in rest[..w].iter_mut().zip(prev) {
                        *x = (*x - a * p) / denom[k];
                    }
                }
                for k in (0..n - 1).rev() {
                    let (head, tail) = d.split_at_mut((k + 1) * w);
                    for (x, nx) in head[k * w..].iter_mut().zip(&tail[..w]) {
                        *x -= cp[k] * nx;
                    }
                }
            }
            Bands::Penta {
                m1,
                m2,
                diag,
                sup1,
                sup2,
            } => {
                // Row k first loses m2[k − 2]·row(k − 2), then m1[k]·row(k − 1).
                for k in 1..n {
                    let (done, rest) = d.split_at_mut(k * w);
                    let row = &mut rest[..w];
                    if k >= 2 {
                        let prev2 = &done[(k - 2) * w..(k - 1) * w];
                        for (x, p) in row.iter_mut().zip(prev2) {
                            *x -= m2[k - 2] * p;
                        }
                    }
                    let prev = &done[(k - 1) * w..];
                    for (x, p) in row.iter_mut().zip(prev) {
                        *x -= m1[k] * p;
                    }
                }
                // Back substitution.
                for x in &mut d[(n - 1) * w..] {
                    *x /= diag[n - 1];
                }
                let (head, tail) = d.split_at_mut((n - 1) * w);
                for (x, nx) in head[(n - 2) * w..].iter_mut().zip(&tail[..w]) {
                    *x = (*x - sup1[n - 2] * nx) / diag[n - 2];
                }
                for k in (0..n - 2).rev() {
                    let (head, tail) = d.split_at_mut((k + 1) * w);
                    let (next, next2) = tail.split_at(w);
                    for ((x, n1), n2) in head[k * w..].iter_mut().zip(next).zip(&next2[..w]) {
                        *x = (*x - sup1[k] * n1 - sup2[k] * n2) / diag[k];
                    }
                }
            }
        }
    }
}

/// `dst[x * n + y] = src[y * n + x]` for an `n × n` plane.
fn transpose(src: &[f64], dst: &mut [f64], n: usize) {
    for (x, col) in dst.chunks_exact_mut(n).enumerate() {
        for (d, s) in col.iter_mut().zip(src[x..].iter().step_by(n)) {
            *d = *s;
        }
    }
}

fn init_at(g: usize) -> f64 {
    let h = (g as u64)
        .wrapping_mul(0xC2B2AE3D27D4EB4F)
        .rotate_left(27)
        .wrapping_mul(0x165667B19E3779F9);
    ((h >> 11) as f64 / (1u64 << 53) as f64) - 0.5
}

struct Grid {
    n: usize,
    nzl: usize,
    nvar: usize,
    /// `u[v][((z*n)+y)*n+x]`, z local.
    u: Vec<Vec<f64>>,
}

impl Grid {
    #[inline]
    fn idx(n: usize, z: usize, y: usize, x: usize) -> usize {
        (z * n + y) * n + x
    }
}

/// Run a BT- or SP-flavoured ADI kernel.
pub fn run(layer: &impl CommLayer, class: Class, kind: AdiKind) -> KernelReport {
    let kernel = match kind {
        AdiKind::Bt => Kernel::BT,
        AdiKind::Sp => Kernel::SP,
    };
    let p = AdiParams::for_class(class, kind);
    let size = layer.size();
    let rank = layer.rank();
    assert_eq!(p.n % size, 0, "ADI: ranks must divide n");
    let nzl = p.n / size;
    let model = ComputeModel::calibrated(kernel);

    let mut g = Grid {
        n: p.n,
        nzl,
        nvar: p.nvar,
        u: (0..p.nvar)
            .map(|v| {
                let mut field = vec![0.0f64; nzl * p.n * p.n];
                let z0 = rank * nzl;
                for z in 0..nzl {
                    for y in 0..p.n {
                        for x in 0..p.n {
                            let gl = (((z0 + z) * p.n + y) * p.n + x) * p.nvar + v;
                            field[Grid::idx(p.n, z, y, x)] = init_at(gl);
                        }
                    }
                }
                field
            })
            .collect(),
    };

    let solver = LineSolver::new(kind, p.n);
    let mut scratch = vec![0.0f64; p.n * p.n];
    let mut prev_energy = total_energy(layer, &g);
    let mut monotone = true;
    let next = (rank + 1 < size).then(|| rank + 1);
    let prev = (rank > 0).then(|| rank - 1);

    for iter in 0..p.iters {
        for v in 0..p.nvar {
            // x and y sweeps: pure local math, detached. No x or y line
            // leaves its z-plane, so each plane runs both in turn.
            let units = (2 * nzl * p.n * p.n * 9) as u64;
            model.charge_with(layer, units, &mut || {
                for plane in g.u[v].chunks_exact_mut(p.n * p.n) {
                    solver.sweep_x(plane, &mut scratch);
                    // The plane's rows hold its y lines side by side.
                    solver.solve(plane, p.n);
                }
            });

            // z sweep: pipelined Thomas across the rank chain.
            z_sweep_pipelined(layer, &mut g, v, p.batch, prev, next, iter as u32);
            let units = (nzl * p.n * p.n * 9) as u64;
            model.charge(layer, units);
        }

        if kind == AdiKind::Bt {
            // 5×5 per-cell coupling: u ← M u with a fixed
            // strictly-diagonally-dominant averaging matrix (row sums 1,
            // so energy keeps decaying).
            let m: [[f64; 5]; 5] = {
                let mut m = [[0.02f64; 5]; 5];
                for (r, row) in m.iter_mut().enumerate() {
                    row[r] = 0.92;
                }
                m
            };
            let vol = nzl * p.n * p.n;
            let units = (vol * 50) as u64;
            model.charge_with(layer, units, &mut || {
                let mut cell = [0.0f64; 5];
                for i in 0..vol {
                    for (v, c) in cell.iter_mut().enumerate() {
                        *c = g.u[v][i];
                    }
                    for v in 0..5 {
                        let mut acc = 0.0;
                        for (w, c) in cell.iter().enumerate() {
                            acc += m[v][w] * c;
                        }
                        g.u[v][i] = acc;
                    }
                }
            });
        }

        let e = total_energy(layer, &g);
        if e > prev_energy * (1.0 + 1e-12) {
            monotone = false;
        }
        prev_energy = e;
    }

    KernelReport {
        verified: monotone && prev_energy.is_finite() && prev_energy > 0.0,
        checksum: prev_energy,
    }
}

/// Distributed Thomas along z for all (x, y) lines of variable `v`,
/// batched to amortize pipeline messages. A batch is a run of
/// consecutive lines, so at each z its points are one contiguous slice
/// of the plane: the sweep runs z outer and the batch's lines inner.
fn z_sweep_pipelined(
    layer: &impl CommLayer,
    g: &mut Grid,
    v: usize,
    batch: usize,
    prev: Option<usize>,
    next: Option<usize>,
    round: u32,
) {
    let n_lines = g.n * g.n;
    let nzl = g.nzl;
    let a = -SIGMA;
    let b = 1.0 + 2.0 * SIGMA;
    let tag = TAG + 40 + (round % 4) * 2 + (v as u32 % 2) * 8;
    let u = &mut g.u[v];
    let at = |z: usize, lb: usize, len: usize| z * n_lines + lb..z * n_lines + lb + len;

    // c'_k per point, for the back substitution.
    let mut cp_store = vec![0.0f64; nzl * n_lines];

    for lb in (0..n_lines).step_by(batch) {
        let len = batch.min(n_lines - lb);
        // The carry, (c', d') per line: in from the previous rank, updated
        // in place down this rank's planes, out to the next rank.
        let mut carry: Vec<f64> = match prev {
            Some(pr) => to_f64s(&layer.recv(pr, tag)),
            None => vec![0.0; len * 2],
        };
        debug_assert_eq!(carry.len(), len * 2);
        for z in 0..nzl {
            let row = &mut u[at(z, lb, len)];
            let cps = &mut cp_store[at(z, lb, len)];
            for ((x, cp), cd) in row.iter_mut().zip(cps).zip(carry.chunks_exact_mut(2)) {
                let denom = b - a * cd[0];
                *cp = a / denom;
                *x = (*x - a * cd[1]) / denom;
                cd[0] = *cp;
                cd[1] = *x;
            }
        }
        if let Some(nx) = next {
            layer.send(f64s(&carry), nx, tag);
        }
    }

    // Back substitution: x_k = d'_k − c'_k · x_{k+1}, flowing upstream.
    for lb in (0..n_lines).step_by(batch) {
        let len = batch.min(n_lines - lb);
        let mut xk1: Vec<f64> = match next {
            Some(nx) => to_f64s(&layer.recv(nx, tag + 1)),
            None => vec![0.0; len],
        };
        debug_assert_eq!(xk1.len(), len);
        for z in (0..nzl).rev() {
            let row = &mut u[at(z, lb, len)];
            for ((x, cp), up) in row.iter_mut().zip(&cp_store[at(z, lb, len)]).zip(&mut xk1) {
                *x -= cp * *up;
                *up = *x;
            }
        }
        if let Some(pr) = prev {
            layer.send(f64s(&xk1), pr, tag + 1);
        }
    }
}

fn total_energy(layer: &impl CommLayer, g: &Grid) -> f64 {
    let mut acc = 0.0;
    for v in 0..g.nvar {
        for val in &g.u[v] {
            acc += val * val;
        }
    }
    layer.allreduce_sum(&[acc])[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::PlainLayer;
    use empi_mpi::World;
    use empi_netsim::NetModel;
    use proptest::prelude::*;

    /// Textbook Thomas on one contiguous line, factoring as it goes.
    fn oracle_thomas(d: &mut [f64]) {
        let n = d.len();
        if n == 0 {
            return;
        }
        let a = -SIGMA;
        let b = 1.0 + 2.0 * SIGMA;
        let mut cp = vec![0.0f64; n];
        let mut prev_c = 0.0;
        for k in 0..n {
            let denom = b - a * prev_c;
            cp[k] = a / denom;
            d[k] = (d[k] - a * if k > 0 { d[k - 1] } else { 0.0 }) / denom;
            prev_c = cp[k];
        }
        for k in (0..n - 1).rev() {
            d[k] -= cp[k] * d[k + 1];
        }
    }

    /// Textbook 5-band elimination on one contiguous line, the matrix and
    /// the right-hand side eliminated together.
    fn oracle_penta(d: &mut [f64]) {
        let n = d.len();
        if n < 3 {
            oracle_thomas(d);
            return;
        }
        let (e, a, b0, c, f) = (
            SIGMA * 0.5,
            -2.0 * SIGMA,
            1.0 + 3.0 * SIGMA,
            -2.0 * SIGMA,
            SIGMA * 0.5,
        );
        let mut sub1 = vec![a; n];
        let mut diag = vec![b0; n];
        let mut sup1 = vec![c; n];
        let mut sup2 = vec![f; n];
        sub1[0] = 0.0;
        sup1[n - 1] = 0.0;
        sup2[n - 1] = 0.0;
        sup2[n - 2] = 0.0;
        for k in 0..n {
            if k >= 1 {
                let m = sub1[k] / diag[k - 1];
                diag[k] -= m * sup1[k - 1];
                sup1[k] -= m * sup2[k - 1];
                d[k] -= m * d[k - 1];
            }
            if k + 2 < n {
                let m = e / diag[k];
                sub1[k + 2] -= m * sup1[k];
                diag[k + 2] -= m * sup2[k];
                d[k + 2] -= m * d[k];
            }
        }
        d[n - 1] /= diag[n - 1];
        d[n - 2] = (d[n - 2] - sup1[n - 2] * d[n - 1]) / diag[n - 2];
        for k in (0..n - 2).rev() {
            d[k] = (d[k] - sup1[k] * d[k + 1] - sup2[k] * d[k + 2]) / diag[k];
        }
    }

    fn oracle(kind: AdiKind, d: &mut [f64]) {
        match kind {
            AdiKind::Bt => oracle_thomas(d),
            AdiKind::Sp => oracle_penta(d),
        }
    }

    /// Right-hand sides with signed zeros among them: the solver must
    /// give a zero the sign the per-line solve gives it.
    fn rhs(len: usize) -> impl Strategy<Value = Vec<f64>> {
        proptest::collection::vec(
            prop_oneof![-1.0f64..1.0, -1e6f64..1e6, Just(0.0), Just(-0.0)],
            len,
        )
    }

    fn kind() -> impl Strategy<Value = AdiKind> {
        prop_oneof![Just(AdiKind::Bt), Just(AdiKind::Sp)]
    }

    fn same_bits(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    const MAX_N: usize = 70;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// One contiguous line (`w = 1`), a plane's x lines and its y
        /// lines all come out bit for bit as the per-line solve leaves
        /// them, for every line length from 0 to 70.
        #[test]
        fn line_solver_is_the_per_line_solve_bit_for_bit(
            kind in kind(),
            n in 0usize..=MAX_N,
            data in rhs(MAX_N * MAX_N),
        ) {
            let solver = LineSolver::new(kind, n);

            let mut line = data[..n].to_vec();
            let mut want = line.clone();
            solver.solve(&mut line, 1);
            oracle(kind, &mut want);
            prop_assert!(same_bits(&line, &want), "{kind:?} n={n}: one line");

            let plane = &data[..n * n];
            let mut rows = plane.to_vec();
            let mut scratch = vec![f64::NAN; n * n];
            solver.sweep_x(&mut rows, &mut scratch);
            let mut want = plane.to_vec();
            for row in want.chunks_exact_mut(n.max(1)) {
                oracle(kind, row);
            }
            prop_assert!(same_bits(&rows, &want), "{kind:?} n={n}: x lines");

            let mut cols = plane.to_vec();
            solver.solve(&mut cols, n);
            for x in 0..n {
                let mut col: Vec<f64> = (0..n).map(|y| plane[y * n + x]).collect();
                oracle(kind, &mut col);
                for y in 0..n {
                    prop_assert_eq!(cols[y * n + x].to_bits(), col[y].to_bits(),
                        "{:?} n={} y line {} at {}", kind, n, x, y);
                }
            }
        }

        /// The pipelined z solve across a rank chain is textbook Thomas
        /// along the global z line, bit for bit, for any batch size.
        #[test]
        fn z_sweep_is_thomas_along_global_z(
            n in 1usize..5,
            nzl in 1usize..6,
            ranks in 1usize..4,
            batch in 1usize..20,
            data in rhs(4 * 4 * 5 * 3),
        ) {
            let plane = n * n;
            let nz = nzl * ranks;
            let global = &data[..plane * nz];
            let w = World::flat(NetModel::instant(), ranks);
            let out = w.run(|c| {
                let layer = PlainLayer::new(c);
                let r = c.rank();
                let mut g = Grid {
                    n,
                    nzl,
                    nvar: 1,
                    u: vec![global[r * nzl * plane..(r + 1) * nzl * plane].to_vec()],
                };
                let prev = (r > 0).then(|| r - 1);
                let next = (r + 1 < ranks).then(|| r + 1);
                z_sweep_pipelined(&layer, &mut g, 0, batch, prev, next, 0);
                g.u.pop().unwrap()
            });
            let got: Vec<f64> = out.results.concat();
            for line in 0..plane {
                let mut want: Vec<f64> = (0..nz).map(|z| global[z * plane + line]).collect();
                oracle_thomas(&mut want);
                for z in 0..nz {
                    prop_assert_eq!(got[z * plane + line].to_bits(), want[z].to_bits(),
                        "line {} at z {} ({} ranks, batch {})", line, z, ranks, batch);
                }
            }
        }
    }

    #[test]
    fn an_empty_line_is_left_alone() {
        for kind in [AdiKind::Bt, AdiKind::Sp] {
            let mut d: [f64; 0] = [];
            LineSolver::new(kind, 0).solve(&mut d, 1);
            let mut plane: [f64; 0] = [];
            LineSolver::new(kind, 0).sweep_x(&mut plane, &mut []);
        }
    }

    #[test]
    fn thomas_solves_tridiagonal() {
        // Verify A x = d by reconstruction.
        let n = 10;
        let d0: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut x = d0.clone();
        LineSolver::new(AdiKind::Bt, n).solve(&mut x, 1);
        for k in 0..n {
            let left = if k > 0 { x[k - 1] } else { 0.0 };
            let right = if k + 1 < n { x[k + 1] } else { 0.0 };
            let ax = -SIGMA * left + (1.0 + 2.0 * SIGMA) * x[k] - SIGMA * right;
            assert!((ax - d0[k]).abs() < 1e-12, "row {k}");
        }
    }

    #[test]
    fn penta_solves_pentadiagonal() {
        let n = 12;
        let d0: Vec<f64> = (0..n).map(|i| (i as f64 * 1.3).cos()).collect();
        let mut x = d0.clone();
        LineSolver::new(AdiKind::Sp, n).solve(&mut x, 1);
        let (e, a, b0, c, f) = (
            SIGMA * 0.5,
            -2.0 * SIGMA,
            1.0 + 3.0 * SIGMA,
            -2.0 * SIGMA,
            SIGMA * 0.5,
        );
        for k in 0..n {
            let g = |i: isize| -> f64 {
                if i < 0 || i as usize >= n {
                    0.0
                } else {
                    x[i as usize]
                }
            };
            let k = k as isize;
            let ax = e * g(k - 2) + a * g(k - 1) + b0 * g(k) + c * g(k + 1) + f * g(k + 2);
            assert!((ax - d0[k as usize]).abs() < 1e-10, "row {k}");
        }
    }

    #[test]
    fn bt_and_sp_verify_and_are_partition_invariant() {
        for kind in [AdiKind::Bt, AdiKind::Sp] {
            let mut sums = Vec::new();
            for ranks in [1usize, 2, 4] {
                let w = World::flat(NetModel::instant(), ranks);
                let out = w.run(|c| run(&PlainLayer::new(c), Class::S, kind));
                assert!(out.results[0].verified, "{kind:?} at {ranks} ranks");
                sums.push(out.results[0].checksum);
            }
            for s in &sums[1..] {
                assert!(
                    (s - sums[0]).abs() < 1e-9 * sums[0].abs(),
                    "{kind:?} partition-dependent: {sums:?}"
                );
            }
        }
    }

    #[test]
    fn bt_and_sp_produce_different_dynamics() {
        let w = World::flat(NetModel::instant(), 2);
        let bt = w.run(|c| run(&PlainLayer::new(c), Class::S, AdiKind::Bt));
        let sp = w.run(|c| run(&PlainLayer::new(c), Class::S, AdiKind::Sp));
        assert_ne!(bt.results[0].checksum, sp.results[0].checksum);
    }
}
