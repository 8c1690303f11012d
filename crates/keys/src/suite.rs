//! The scuttlebutt-style primitive kit: AES-CTR deterministic RNG and a
//! commit/reveal coin-toss.
//!
//! These are building blocks secure-computation stacks assemble their
//! setup protocols from — a fast deterministic RNG from one fixed-key
//! AES permutation in CTR mode (so the key schedule runs once per
//! stream), and the classic commit-then-reveal coin toss that keeps
//! any single party from steering the group's randomness. All of it
//! rides the crate-local AES/SHA-256 substrate — no new cryptographic
//! primitives.

use empi_aead::aes::{BlockEncrypt, SoftAes};
use empi_aead::sha256::Sha256;

/// The fixed, public AES-128 key of the RNG permutation. Secrecy is
/// not required (the construction is a public random permutation);
/// fixing it means one key schedule for the process lifetime.
const FIXED_KEY: [u8; 16] = [
    0x4b, 0x65, 0x79, 0x73, 0x46, 0x69, 0x78, 0x65, 0x64, 0x41, 0x45, 0x53, 0x30, 0x30, 0x30, 0x31,
];

/// Deterministic RNG from the fixed-key AES permutation in CTR mode:
/// seeded once, then a pure function of (seed, draw index). Used for
/// handshake contributions so every rank can recompute any other
/// rank's protocol messages for verification in tests.
pub struct AesRng {
    aes: SoftAes,
    /// 64-bit seed occupying the top half of the counter block.
    seed: u64,
    ctr: u64,
}

impl AesRng {
    /// An RNG whose whole stream is determined by `seed`.
    pub fn from_seed(seed: u64) -> Self {
        AesRng {
            aes: SoftAes::new(&FIXED_KEY).expect("fixed 16-byte key is valid"),
            seed,
            ctr: 0,
        }
    }

    /// Next 16 keystream bytes.
    pub fn next_block(&mut self) -> [u8; 16] {
        let mut b = [0u8; 16];
        b[..8].copy_from_slice(&self.seed.to_be_bytes());
        b[8..].copy_from_slice(&self.ctr.to_be_bytes());
        self.ctr += 1;
        self.aes.encrypt_block(&mut b);
        b
    }

    /// Fill `out` with keystream.
    pub fn fill(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(16) {
            let b = self.next_block();
            chunk.copy_from_slice(&b[..chunk.len()]);
        }
    }

    /// Next 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        let b = self.next_block();
        u64::from_be_bytes(b[..8].try_into().unwrap())
    }
}

/// Commit/reveal coin-toss: committing binds a party to `value` before
/// anyone reveals, so no party can choose its contribution after
/// seeing the others'.
pub mod cointoss {
    use super::Sha256;

    /// Commitment to `(value, blind)`:
    /// `SHA-256("empi-cointoss-commit" ‖ value ‖ blind)`. The blind
    /// keeps a low-entropy value from being brute-forced out of its
    /// commitment.
    pub fn commit(value: &[u8; 32], blind: &[u8; 32]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(b"empi-cointoss-commit");
        h.update(value);
        h.update(blind);
        h.finalize()
    }

    /// Does `(value, blind)` open `commitment`?
    pub fn verify(commitment: &[u8; 32], value: &[u8; 32], blind: &[u8; 32]) -> bool {
        // Constant-time-ish fold; the sim threat model doesn't include
        // timing, but there is no reason to teach bad habits.
        commit(value, blind)
            .iter()
            .zip(commitment)
            .fold(0u8, |acc, (a, b)| acc | (a ^ b))
            == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_streams_replay_and_separate() {
        let mut a = AesRng::from_seed(42);
        let mut b = AesRng::from_seed(42);
        let mut c = AesRng::from_seed(43);
        let (x, y, z) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_eq!(x, y, "same seed, same stream");
        assert_ne!(x, z, "seeds separate");
        let mut buf = [0u8; 40];
        a.fill(&mut buf);
        let mut buf2 = [0u8; 40];
        b.fill(&mut buf2);
        assert_eq!(buf, buf2);
    }

    #[test]
    fn cointoss_commitment_binds_and_hides() {
        let value = [9u8; 32];
        let blind = [4u8; 32];
        let c = cointoss::commit(&value, &blind);
        assert!(cointoss::verify(&c, &value, &blind));
        let mut wrong = value;
        wrong[0] ^= 1;
        assert!(!cointoss::verify(&c, &wrong, &blind), "value bound");
        let mut wrong_blind = blind;
        wrong_blind[31] ^= 1;
        assert!(!cointoss::verify(&c, &value, &wrong_blind), "blind bound");
        assert_ne!(c, value, "commitment is not the value");
    }
}
