//! Integrity demonstration: what tampering does to each encrypted-MPI
//! generation.
//!
//! A malicious relay sits between sender and receiver and flips bits /
//! reorders blocks in transit. The legacy schemes from §II of the paper
//! deliver silently corrupted (or attacker-controlled!) plaintext; the
//! AES-GCM layer rejects every manipulation.
//!
//! ```bash
//! cargo run --release --example integrity_demo
//! ```

use empi::aead::CryptoLibrary;
use empi::mpi::{Src, TagSel, World};
use empi::netsim::NetModel;
use empi::secure::legacy::EsMpich2Style;
use empi::secure::{SecureComm, SecurityConfig};

/// Rank 0 = sender, rank 1 = malicious relay, rank 2 = receiver.
fn main() {
    let world = World::flat(NetModel::ethernet_10g(), 3);
    let key = [0x11u8; 32];
    let msg = b"transfer $0000100 to account 7777";

    // --- Generation 1: ES-MPICH2-style ECB ------------------------------
    let out = world.run(|c| {
        let t = EsMpich2Style::new(c, &key).unwrap();
        match c.rank() {
            0 => {
                t.send(msg, 1, 0);
                String::new()
            }
            1 => {
                // Relay: swap the first two 16-byte ECB blocks.
                let (_, wire) = c.recv(Src::Is(0), TagSel::Is(0));
                let mut w = wire.to_vec();
                for i in 0..16 {
                    w.swap(i, 16 + i);
                }
                c.send(&w, 2, 0);
                String::new()
            }
            _ => {
                let got = t.recv(Src::Is(1), TagSel::Is(0)).unwrap();
                String::from_utf8_lossy(&got).into_owned()
            }
        }
    });
    println!("ECB (ES-MPICH2 style):");
    println!("  sent     : {}", String::from_utf8_lossy(msg));
    println!(
        "  received : {}   <- blocks swapped, decrypts 'fine'!",
        out.results[2]
    );
    assert_ne!(out.results[2].as_bytes(), msg);

    // --- Generation 2: AES-GCM (this library) ---------------------------
    let out = world.run(|c| {
        let sc = SecureComm::new(
            c,
            SecurityConfig::new(CryptoLibrary::BoringSsl).with_key(key),
        )
        .unwrap();
        match c.rank() {
            0 => {
                sc.send(msg, 1, 0);
                "sent".to_string()
            }
            1 => {
                // Relay: flip one ciphertext bit before forwarding.
                let (_, wire) = c.recv(Src::Is(0), TagSel::Is(0));
                let mut w = wire.to_vec();
                w[20] ^= 0x01;
                c.send(&w, 2, 0);
                "tampered byte 20".to_string()
            }
            _ => match sc.recv(Src::Is(1), TagSel::Is(0)) {
                Ok(_) => "ACCEPTED (BUG!)".to_string(),
                Err(e) => format!("rejected: {e}"),
            },
        }
    });
    println!("\nAES-GCM (empi):");
    println!("  relay    : {}", out.results[1]);
    println!("  receiver : {}", out.results[2]);
    assert!(out.results[2].starts_with("rejected"));

    // --- And an untampered GCM exchange still works ---------------------
    let out = world.run(|c| {
        let sc = SecureComm::new(
            c,
            SecurityConfig::new(CryptoLibrary::BoringSsl).with_key(key),
        )
        .unwrap();
        match c.rank() {
            0 => {
                sc.send(msg, 2, 0);
                true
            }
            2 => {
                let (_, got) = sc.recv(Src::Is(0), TagSel::Is(0)).unwrap();
                got[..] == msg[..]
            }
            _ => true,
        }
    });
    assert!(out.results[2]);
    println!("\nUntampered GCM message delivered intact. Privacy AND integrity.");
}
