//! A confidential Monte-Carlo π estimation across a simulated cluster.
//!
//! Models the paper's motivating scenario — an HPC workload over
//! sensitive inputs running in a public cloud. Each rank draws samples,
//! ships its *encrypted* tallies to rank 0 over `Encrypted_Allgather`
//! (so the cloud provider's network sees only AES-GCM ciphertext), and
//! rank 0 combines them.
//!
//! ```bash
//! cargo run --release --example secure_pi
//! ```

use empi::aead::CryptoLibrary;
use empi::mpi::World;
use empi::netsim::{NetModel, Topology, VDur};
use empi::secure::{SecureComm, SecurityConfig};
use rand::{Rng, SeedableRng};

const SAMPLES_PER_RANK: u64 = 2_000_000;
/// Modeled cost of one sample (two uniform draws, a multiply-add and a
/// compare) on one of the paper's cores.
const NS_PER_SAMPLE: u64 = 10;

fn main() {
    let ranks = 16;
    let world = World::new(NetModel::infiniband_40g(), Topology::block(ranks, 4));
    let out = world.run(|c| {
        let sc = SecureComm::new(c, SecurityConfig::new(CryptoLibrary::BoringSsl)).unwrap();

        // Each rank samples independently (deterministic seed per rank).
        // The sampling really runs; like NAS's `ComputeModel`, the rank's
        // virtual core is charged a fixed modeled cost per sample, so the
        // printed virtual time is the same on every run and host.
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0FFEE + c.rank() as u64);
        let hits = c.compute_with(VDur(SAMPLES_PER_RANK * NS_PER_SAMPLE), || {
            let mut hits = 0u64;
            for _ in 0..SAMPLES_PER_RANK {
                let x: f64 = rng.gen_range(-1.0..1.0);
                let y: f64 = rng.gen_range(-1.0..1.0);
                if x * x + y * y <= 1.0 {
                    hits += 1;
                }
            }
            hits
        });

        // Encrypted allgather of the per-rank tallies.
        let gathered = sc.allgather(&hits.to_le_bytes()).unwrap();
        let total: u64 = gathered
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .sum();
        let pi = 4.0 * total as f64 / (SAMPLES_PER_RANK * ranks as u64) as f64;
        (pi, c.now().as_micros_f64())
    });

    let (pi, micros) = out.results[0];
    println!("ranks           : {ranks} (4 simulated IB nodes)");
    println!("samples         : {}", SAMPLES_PER_RANK * ranks as u64);
    println!("pi estimate     : {pi:.6} (true: {:.6})", std::f64::consts::PI);
    println!("virtual time    : {micros:.1} us");
    println!("inter-node msgs : {}", out.fabric.messages);
    assert!((pi - std::f64::consts::PI).abs() < 0.01);
    println!("\nAll tallies crossed the wire as AES-256-GCM ciphertext.");
}
