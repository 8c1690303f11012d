//! Property-based conservation checks on trace metrics (satellite of
//! the tracing work): whatever the secure layer does — p2p or any of
//! the paper's four encrypted collectives — the per-(src,dst) fabric
//! ledgers must balance and the crypto byte counters must obey
//! `wire = plaintext + 28·messages` exactly.

use empi::aead::CryptoLibrary;
use empi::mpi::{Src, TagSel, World};
use empi::netsim::NetModel;
use empi::secure::{SecureComm, SecurityConfig};
use empi::trace::WIRE_OVERHEAD;
use proptest::prelude::*;

/// Bytes rank `i` sends rank `j` in the alltoallv case (any fixed
/// formula works; it just has to be consistent on both sides).
fn vcount(size: usize, i: usize, j: usize) -> usize {
    (size + 3 * i + 5 * j) % 97
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn traced_secure_ops_conserve_bytes(
        ranks in 2usize..5,
        size in 1usize..1500,
        op in 0usize..5,
    ) {
        let w = World::flat(NetModel::instant(), ranks).traced(true);
        let out = w.run(move |c| {
            let sc = SecureComm::new(c, SecurityConfig::new(CryptoLibrary::BoringSsl)).unwrap();
            let n = c.size();
            let me = c.rank();
            match op {
                0 => {
                    // p2p ring.
                    let buf = vec![7u8; size];
                    let dst = (me + 1) % n;
                    let src = (me + n - 1) % n;
                    let _ = sc.sendrecv(&buf, dst, 0, Src::Is(src), TagSel::Is(0)).unwrap();
                }
                1 => {
                    let mut b = vec![1u8; size];
                    sc.bcast(&mut b, 0).unwrap();
                }
                2 => {
                    let _ = sc.allgather(&vec![2u8; size]).unwrap();
                }
                3 => {
                    let send = vec![3u8; size * n];
                    let _ = sc.alltoall(&send, size).unwrap();
                }
                _ => {
                    let send_counts: Vec<usize> = (0..n).map(|j| vcount(size, me, j)).collect();
                    let recv_counts: Vec<usize> = (0..n).map(|j| vcount(size, j, me)).collect();
                    let send = vec![4u8; send_counts.iter().sum()];
                    let _ = sc.alltoallv(&send, &send_counts, &recv_counts).unwrap();
                }
            }
        });
        let r = out.trace.expect("traced world must yield a report");

        // Fabric conservation: what src injected for dst, dst took out.
        for ((s, d), f) in &r.pairs {
            prop_assert_eq!(f.tx_bytes, f.rx_bytes, "bytes {}->{}", s, d);
            prop_assert_eq!(f.tx_msgs, f.rx_msgs, "msgs {}->{}", s, d);
        }

        // Crypto ledgers: wire = plaintext + 28 per message, both ways,
        // and every seal drew exactly one fresh nonce.
        let oh = WIRE_OVERHEAD as u64;
        for (rank, m) in r.per_rank.iter().enumerate() {
            prop_assert_eq!(
                m.sealed_wire_bytes, m.sealed_plain_bytes + oh * m.seals,
                "rank {} seal ledger", rank
            );
            prop_assert_eq!(
                m.opened_plain_bytes, m.opened_wire_bytes.saturating_sub(oh * m.opens),
                "rank {} open ledger", rank
            );
            prop_assert_eq!(m.nonce_draws, m.seals, "rank {} nonces", rank);
        }

        // Per-op seal/open message counts (n = ranks).
        let n = ranks as u64;
        let seals: u64 = r.per_rank.iter().map(|m| m.seals).sum();
        let opens: u64 = r.per_rank.iter().map(|m| m.opens).sum();
        match op {
            0 => {
                prop_assert_eq!(seals, n);
                prop_assert_eq!(opens, n);
            }
            1 => {
                // Root seals once; everyone else opens.
                prop_assert_eq!(seals, 1);
                prop_assert_eq!(opens, n - 1);
            }
            2 => {
                // Each rank seals its block, opens the n-1 others.
                prop_assert_eq!(seals, n);
                prop_assert_eq!(opens, n * (n - 1));
            }
            _ => {
                // alltoall(v): n blocks sealed and opened per rank.
                prop_assert_eq!(seals, n * n);
                prop_assert_eq!(opens, n * n);
            }
        }
    }
}
