//! IS — parallel integer (bucket) sort (the NAS IS kernel's structure).
//!
//! Per iteration, as in NAS IS:
//! 1. every rank generates its share of uniformly-distributed keys,
//! 2. a coarse histogram is **allreduced** to choose balanced bucket
//!    boundaries,
//! 3. keys travel to their bucket owner via **alltoallv** (the kernel's
//!    dominant, large-and-ragged communication),
//! 4. each rank counting-sorts its bucket locally.
//!
//! Verification: global sortedness across rank boundaries, conservation
//! of the key count, and conservation of the key sum.

use crate::layer::bytes::{to_u32s, u32s};
use crate::{Class, CommLayer, ComputeModel, Kernel, KernelReport, NasRandom};

/// IS parameters.
#[derive(Debug, Clone, Copy)]
pub struct IsParams {
    /// Keys per rank.
    pub keys_per_rank: usize,
    /// Key range: `[0, 2^log2_max)`.
    pub log2_max: u32,
    /// Sort iterations.
    pub iters: usize,
    /// Coarse histogram bins for boundary selection.
    pub hist_bins: usize,
}

impl IsParams {
    /// Parameters for a class.
    pub fn for_class(class: Class) -> Self {
        match class {
            Class::S => IsParams {
                keys_per_rank: 4_096,
                log2_max: 16,
                iters: 2,
                hist_bins: 256,
            },
            Class::MiniC => IsParams {
                keys_per_rank: 131_072,
                log2_max: 23,
                iters: 10,
                hist_bins: 1024,
            },
        }
    }
}

/// Run the IS kernel.
pub fn run(layer: &impl CommLayer, class: Class) -> KernelReport {
    let p = IsParams::for_class(class);
    let size = layer.size();
    let rank = layer.rank();
    let model = ComputeModel::calibrated(Kernel::IS);
    let max_key = 1u32 << p.log2_max;

    let mut verified = true;
    let mut checksum = 0.0f64;

    for iter in 0..p.iters {
        // 1. Generate keys (deterministic per rank and iteration).
        let mut rng = NasRandom::new((rank as u64 + 1) * 2654435761 + iter as u64 * 97);
        let keys: Vec<u32> = (0..p.keys_per_rank)
            .map(|_| rng.next_u32(max_key))
            .collect();
        let key_sum_before: f64 = keys.iter().map(|&k| k as f64).sum();

        // 2. Coarse histogram + allreduce, then balanced boundaries.
        let shift = p.log2_max - (p.hist_bins as u32).trailing_zeros();
        let mut hist = vec![0.0f64; p.hist_bins];
        let units = (p.keys_per_rank * 2) as u64;
        model.charge_with(layer, units, &mut || {
            for &k in &keys {
                hist[(k >> shift) as usize] += 1.0;
            }
        });
        let global_hist = layer.allreduce_sum(&hist);
        let total_keys: f64 = global_hist.iter().sum();
        // Bucket b owns bins until the cumulative count passes
        // (b+1)/size of the total.
        let mut boundaries = Vec::with_capacity(size); // exclusive bin end per bucket
        let mut acc = 0.0;
        let mut bin = 0usize;
        for b in 0..size {
            let target = total_keys * (b as f64 + 1.0) / size as f64;
            while bin < p.hist_bins && acc + global_hist[bin] <= target {
                acc += global_hist[bin];
                bin += 1;
            }
            boundaries.push(bin.min(p.hist_bins));
        }
        boundaries[size - 1] = p.hist_bins;

        // 3. Partition keys by owner and alltoallv.
        let owner_of = |k: u32| -> usize {
            let b = (k >> shift) as usize;
            boundaries.partition_point(|&end| end <= b)
        };
        let mut outgoing: Vec<Vec<u32>> = vec![Vec::new(); size];
        for &k in &keys {
            outgoing[owner_of(k)].push(k);
        }
        let send_counts: Vec<usize> = outgoing.iter().map(|v| v.len() * 4).collect();
        // Counts must be exchanged first (alltoall of one u64 per pair).
        let counts_flat: Vec<u32> = outgoing.iter().map(|v| v.len() as u32).collect();
        let recv_counts_bytes = layer.alltoall(u32s(&counts_flat), 4);
        let recv_counts: Vec<usize> = to_u32s(&recv_counts_bytes)
            .into_iter()
            .map(|c| c as usize * 4)
            .collect();
        let send_flat: Vec<u32> = outgoing.into_iter().flatten().collect();
        let incoming = to_u32s(&layer.alltoallv(u32s(&send_flat), &send_counts, &recv_counts));

        // 4. Local counting sort over my bucket's bin range.
        let lo_bin = if rank == 0 { 0 } else { boundaries[rank - 1] };
        let hi_bin = boundaries[rank];
        let lo_key = (lo_bin as u32) << shift;
        let hi_key = ((hi_bin as u32) << shift).min(max_key);
        let mut counts = vec![0u32; (hi_key - lo_key) as usize + 1];
        let mut sorted = Vec::with_capacity(incoming.len());
        let units = (incoming.len() * 4 + counts.len()) as u64;
        model.charge_with(layer, units, &mut || {
            for &k in &incoming {
                assert!(k >= lo_key && k < hi_key.max(lo_key + 1), "misrouted key");
                counts[(k - lo_key) as usize] += 1;
            }
            for (off, &c) in counts.iter().enumerate() {
                for _ in 0..c {
                    sorted.push(lo_key + off as u32);
                }
            }
        });

        // 5. Verification.
        // (a) Local sortedness.
        let locally_sorted = sorted.windows(2).all(|w| w[0] <= w[1]);
        // (b) Boundary order with the next rank.
        let my_max = sorted.last().copied().unwrap_or(0);
        let maxes = layer.allgather(u32s(&[my_max]));
        let maxes = to_u32s(&maxes);
        let boundary_ok = if rank > 0 && !sorted.is_empty() {
            // Previous rank's max must be ≤ my min — unless the previous
            // bucket is empty (its reported max is 0).
            maxes[rank - 1] <= sorted[0] || maxes[rank - 1] == 0
        } else {
            true
        };
        // (c) Conservation of count and sum.
        let stats = layer.allreduce_sum(&[
            sorted.len() as f64,
            sorted.iter().map(|&k| k as f64).sum(),
            key_sum_before,
        ]);
        let conserved = stats[0] == total_keys && (stats[1] - stats[2]).abs() < 1e-6;

        verified &= locally_sorted && boundary_ok && conserved;
        checksum += stats[1];
    }

    KernelReport { verified, checksum }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{PlainLayer, SecureLayer};
    use empi_core::SecurityConfig;
    use empi_mpi::World;
    use empi_netsim::NetModel;

    #[test]
    fn is_sorts_at_various_rank_counts() {
        let mut sums = Vec::new();
        for ranks in [1usize, 2, 4, 8] {
            let w = World::flat(NetModel::instant(), ranks);
            let out = w.run(|c| run(&PlainLayer::new(c), Class::S));
            assert!(out.results[0].verified, "IS failed at {ranks} ranks");
            sums.push(out.results[0].checksum);
        }
        // Key-sum checksum depends only on generation, not partitioning
        // ... except the number of generating ranks changes the key set;
        // so only assert positivity here.
        assert!(sums.iter().all(|s| *s > 0.0));
    }

    #[test]
    fn is_identical_under_encryption() {
        let w = World::flat(NetModel::instant(), 4);
        let plain = w.run(|c| run(&PlainLayer::new(c), Class::S));
        let enc = w.run(|c| {
            let l = SecureLayer::new(c, SecurityConfig::new(empi_aead::CryptoLibrary::CryptoPp));
            run(&l, Class::S)
        });
        assert!(enc.results[0].verified);
        assert_eq!(plain.results[0].checksum, enc.results[0].checksum);
        assert!(enc.end_time > plain.end_time);
    }
}
