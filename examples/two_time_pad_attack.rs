//! Executable demonstration of why VAN-MPICH2's "one-time pad" is broken
//! (§II of the paper).
//!
//! VAN-MPICH2 takes one-time pads as substrings of a single big key.
//! Once the traffic volume exceeds the key length, pads wrap around and
//! overlap — and XOR-ing two ciphertexts whose pads overlap cancels the
//! key, leaking the XOR of the plaintexts. For structured plaintext
//! (here: text with a known protocol header) that recovers content
//! outright; Mason et al. (CCS 2006) automate the general case.
//!
//! ```bash
//! cargo run --release --example two_time_pad_attack
//! ```

use empi::mpi::{Src, TagSel, World};
use empi::netsim::NetModel;
use empi::secure::legacy::VanMpich2Style;

fn main() {
    // The shared "big key": 256 bytes — small for demonstration; the
    // attack works identically for any finite key once traffic wraps.
    let big_key: Vec<u8> = (0..256u32)
        .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
        .collect();

    // Two secret 185-byte messages: together they exceed the 256-byte
    // key, so the second message's pad reuses key bytes.
    let pad_to = |s: &str| -> Vec<u8> {
        let mut v = s.as_bytes().to_vec();
        v.resize(185, b'.');
        v
    };
    let m1 = pad_to(
        "PATIENT-RECORD:0001|name=Ada Lovelace|diagnosis=hypertension|rx=lisinopril 10mg daily",
    );
    let m2 = pad_to(
        "PATIENT-RECORD:0002|name=Alan Turing|diagnosis=meniscus tear|rx=physical therapy 2x week",
    );

    let world = World::flat(NetModel::ethernet_10g(), 2);
    let out = world.run(|c| {
        let van = VanMpich2Style::new(c, big_key.clone());
        if c.rank() == 0 {
            van.send(&m1, 1, 0);
            van.send(&m2, 1, 0);
            Vec::new()
        } else {
            // The "attacker" view: capture the raw wire bytes below the
            // legacy layer. (Here the receiver doubles as eavesdropper.)
            let (_, wire1) = c.recv(Src::Is(0), TagSel::Is(0));
            let (_, wire2) = c.recv(Src::Is(0), TagSel::Is(0));
            vec![wire1.to_vec(), wire2.to_vec()]
        }
    });

    let captures = &out.results[1];
    let (w1, w2) = (&captures[0], &captures[1]);
    // VAN-style wire format: 8-byte public pad offset, then ciphertext.
    let start1 = u64::from_be_bytes(w1[..8].try_into().unwrap()) as usize;
    let start2 = u64::from_be_bytes(w2[..8].try_into().unwrap()) as usize;
    let (c1, c2) = (&w1[8..], &w2[8..]);
    println!(
        "pad offsets: msg1 starts at {start1}, msg2 at {start2}, key is {} bytes",
        256
    );

    // Key bytes used: msg1 covers [start1, start1+185), msg2 covers
    // [start2, start2+185) mod 256 — find the overlap.
    // msg2's byte j uses key[(start2 + j) % 256]; msg1's byte i uses
    // key[start1 + i]. Overlap where (start2 + j) % 256 == start1 + i.
    let mut recovered = vec![0u8; m2.len()];
    let mut recovered_mask = vec![false; m2.len()];
    for j in 0..m2.len() {
        let key_pos = (start2 + j) % 256;
        if key_pos >= start1 && key_pos < start1 + m1.len() {
            let i = key_pos - start1;
            // c1[i] ^ c2[j] = m1[i] ^ m2[j]; attacker knows m1's
            // protocol skeleton? Stronger: we exploit the shared known
            // header "PATIENT-RECORD:000x|name=" to recover m2 directly.
            let xor = c1[i] ^ c2[j];
            // Crib-drag with the known protocol prefix of m1.
            if i < 25 {
                recovered[j] = xor ^ m1[i];
                recovered_mask[j] = true;
            }
        }
    }
    let leaked: String = recovered
        .iter()
        .zip(recovered_mask.iter())
        .map(|(&b, &ok)| if ok { b as char } else { '.' })
        .collect();
    println!("\nrecovered from ciphertext XOR + 25-byte crib:\n  {leaked}");

    let leaked_count = recovered_mask.iter().filter(|&&m| m).count();
    let correct = recovered
        .iter()
        .zip(recovered_mask.iter())
        .zip(m2.iter())
        .filter(|((r, ok), m)| **ok && **r == **m)
        .count();
    println!("\n{correct}/{leaked_count} leaked bytes are exact plaintext of message 2");
    assert!(leaked_count > 0 && correct == leaked_count);
    println!("\n=> one-time pads from a shared big key are a two-time pad: broken.");
    println!("   AES-GCM with fresh nonces (the empi default) has no such failure mode.");
}
