//! CG — conjugate gradient on a random sparse symmetric positive-definite
//! matrix (the NAS CG kernel's structure).
//!
//! Communication per CG iteration, as in NAS CG:
//! * an **allgather** to assemble the distributed direction vector `p`
//!   before the sparse mat-vec (NAS uses a transpose exchange over a 2-D
//!   processor grid; at our scales a rank-row allgather moves the same
//!   bytes with the same collective character), and
//! * two scalar **allreduce** dot products (`p·q`, `r·r`).
//!
//! The matrix is generated deterministically on every rank from the NAS
//! LCG, so no setup communication is needed. Verification solves
//! `A z = 1` and checks the true residual.

use crate::layer::bytes::{f64s, to_f64s};
use crate::{Class, CommLayer, ComputeModel, Kernel, KernelReport, NasRandom};

/// CG problem parameters.
#[derive(Debug, Clone, Copy)]
pub struct CgParams {
    /// Matrix dimension.
    pub n: usize,
    /// Off-diagonal non-zeros per row (before symmetrization).
    pub nnz_per_row: usize,
    /// Outer iterations.
    pub outer: usize,
    /// CG iterations per outer step.
    pub inner: usize,
}

impl CgParams {
    /// Parameters for a class.
    pub fn for_class(class: Class) -> Self {
        match class {
            Class::S => CgParams {
                n: 256,
                nnz_per_row: 6,
                outer: 2,
                inner: 25,
            },
            Class::MiniC => CgParams {
                n: 229376,
                nnz_per_row: 11,
                outer: 4,
                inner: 25,
            },
        }
    }
}

/// Local slice of the sparse matrix: CSR rows `lo..hi`.
struct LocalMatrix {
    lo: usize,
    hi: usize,
    row_ptr: Vec<usize>,
    cols: Vec<u32>,
    vals: Vec<f64>,
}

/// Global entry list shared by all simulated ranks (they live in one
/// process): the deterministic stream is generated once per (n, nnz)
/// and each rank filters its rows, keeping setup cost linear instead of
/// O(ranks · n · nnz).
fn global_entries(params: &CgParams) -> std::sync::Arc<Vec<(u32, u32, f64)>> {
    use std::collections::HashMap;
    use std::sync::{Arc, Mutex, OnceLock};
    static CACHE: OnceLock<Mutex<HashMap<(usize, usize), Arc<Vec<(u32, u32, f64)>>>>> =
        OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut guard = cache.lock().unwrap();
    Arc::clone(
        guard
            .entry((params.n, params.nnz_per_row))
            .or_insert_with(|| {
                let mut rng = NasRandom::new(314159265);
                let mut v = Vec::with_capacity(params.n * params.nnz_per_row);
                for i in 0..params.n {
                    for _ in 0..params.nnz_per_row {
                        let j = rng.next_u32(params.n as u32);
                        let val = rng.next_f64() - 0.5;
                        v.push((i as u32, j, val));
                    }
                }
                Arc::new(v)
            }),
    )
}

/// Generate the global symmetric matrix deterministically and keep rows
/// `lo..hi`. The matrix is `D + S + Sᵀ` with random sparse `S` and a
/// diagonal that strictly dominates each row (⇒ SPD).
fn generate(params: &CgParams, lo: usize, hi: usize) -> LocalMatrix {
    let n = params.n;
    let raw = global_entries(params);
    let mut entries: Vec<Vec<(u32, f64)>> = vec![Vec::new(); hi - lo];
    let mut row_abs_sum = vec![0.0f64; n];
    for &(i, j, v) in raw.iter() {
        let (i, j) = (i as usize, j as usize);
        if i == j {
            continue;
        }
        row_abs_sum[i] += v.abs();
        row_abs_sum[j] += v.abs();
        if (lo..hi).contains(&i) {
            entries[i - lo].push((j as u32, v));
        }
        if (lo..hi).contains(&j) {
            entries[j - lo].push((i as u32, v));
        }
    }
    let mut row_ptr = Vec::with_capacity(hi - lo + 1);
    let mut cols = Vec::new();
    let mut vals = Vec::new();
    row_ptr.push(0);
    for (off, row) in entries.into_iter().enumerate() {
        let i = lo + off;
        // Diagonal first: strictly dominant.
        cols.push(i as u32);
        vals.push(row_abs_sum[i] + 1.0);
        for (j, v) in row {
            cols.push(j);
            vals.push(v);
        }
        row_ptr.push(cols.len());
    }
    LocalMatrix {
        lo,
        hi,
        row_ptr,
        cols,
        vals,
    }
}

impl LocalMatrix {
    /// `y_local = A_local · x_full`.
    fn matvec(&self, x: &[f64], y: &mut [f64]) {
        for r in 0..(self.hi - self.lo) {
            let mut acc = 0.0;
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                acc += self.vals[k] * x[self.cols[k] as usize];
            }
            y[r] = acc;
        }
    }

    fn nnz(&self) -> usize {
        self.cols.len()
    }
}

/// Run the CG kernel.
pub fn run(layer: &impl CommLayer, class: Class) -> KernelReport {
    let params = CgParams::for_class(class);
    let model = ComputeModel::calibrated(Kernel::CG);
    let n = params.n;
    let size = layer.size();
    let rank = layer.rank();
    assert_eq!(n % size, 0, "CG size must divide n");
    let local_n = n / size;
    let (lo, hi) = (rank * local_n, (rank + 1) * local_n);

    let a = generate(&params, lo, hi);

    let b = vec![1.0f64; local_n];
    let mut z = vec![0.0f64; local_n];
    let mut checksum = 0.0;

    for _ in 0..params.outer {
        // Solve A z = b from scratch.
        z.iter_mut().for_each(|v| *v = 0.0);
        let mut r = b.clone();
        let mut p = r.clone();
        let mut rho = layer.allreduce_sum(&[dot(&r, &r)])[0];

        for _ in 0..params.inner {
            // Assemble the full direction vector.
            let p_full = to_f64s(&layer.allgather(f64s(&p)));
            let mut q = vec![0.0f64; local_n];
            let units = (2 * a.nnz() + 10 * local_n) as u64;
            model.charge_with(layer, units, &mut || a.matvec(&p_full, &mut q));

            let pq = layer.allreduce_sum(&[dot(&p, &q)])[0];
            let alpha = rho / pq;
            for i in 0..local_n {
                z[i] += alpha * p[i];
                r[i] -= alpha * q[i];
            }
            let rho_new = layer.allreduce_sum(&[dot(&r, &r)])[0];
            let beta = rho_new / rho;
            rho = rho_new;
            for i in 0..local_n {
                p[i] = r[i] + beta * p[i];
            }
        }
        checksum += layer.allreduce_sum(&[dot(&z, &z)])[0];
    }

    // True-residual verification: ‖b − A z‖ ≪ ‖b‖.
    let z_full = to_f64s(&layer.allgather(f64s(&z)));
    let mut az = vec![0.0f64; local_n];
    a.matvec(&z_full, &mut az);
    let local_res: f64 = az
        .iter()
        .zip(b.iter())
        .map(|(a, b)| (b - a) * (b - a))
        .sum();
    let res = layer.allreduce_sum(&[local_res])[0].sqrt();
    let bnorm = (n as f64).sqrt();

    KernelReport {
        verified: res < 1e-6 * bnorm,
        checksum,
    }
}

#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{PlainLayer, SecureLayer};
    use empi_core::SecurityConfig;
    use empi_mpi::World;
    use empi_netsim::NetModel;

    #[test]
    fn cg_converges_and_is_rank_count_invariant() {
        let mut checksums = Vec::new();
        for ranks in [1usize, 2, 4] {
            let w = World::flat(NetModel::instant(), ranks);
            let out = w.run(|c| run(&PlainLayer::new(c), Class::S));
            for rep in &out.results {
                assert!(rep.verified, "CG residual check failed at {ranks} ranks");
            }
            checksums.push(out.results[0].checksum);
        }
        // The solution must not depend on the partitioning.
        for c in &checksums[1..] {
            assert!(
                (c - checksums[0]).abs() < 1e-6 * checksums[0].abs(),
                "checksums differ across rank counts: {checksums:?}"
            );
        }
    }

    #[test]
    fn cg_identical_under_encryption() {
        let w = World::flat(NetModel::instant(), 4);
        let plain = w.run(|c| run(&PlainLayer::new(c), Class::S));
        let enc = w.run(|c| {
            let l = SecureLayer::new(c, SecurityConfig::new(empi_aead::CryptoLibrary::BoringSsl));
            run(&l, Class::S)
        });
        assert!(enc.results[0].verified);
        assert_eq!(plain.results[0].checksum, enc.results[0].checksum);
        // Encryption must cost virtual time.
        assert!(enc.end_time > plain.end_time);
    }
}
