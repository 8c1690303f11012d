//! Nonce generation policies.
//!
//! AES-GCM nonces must never repeat under one key. The paper samples a
//! fresh uniformly random 12-byte nonce per message (`RAND_bytes(12)` in
//! Algorithm 1); a deterministic per-sender counter is the cheaper,
//! collision-free alternative we provide as an ablation; a seeded PRNG
//! gives random-*looking* but reproducible byte streams for wire-level
//! tests (never for production).

use rand::rngs::{StdRng, ThreadRng};
use rand::{RngCore, SeedableRng};

use crate::NONCE_LEN;

/// How fresh nonces are produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoncePolicy {
    /// Uniformly random 12 bytes per message (the paper's choice).
    Random,
    /// `sender_id (4 bytes) ‖ counter (8 bytes)`; collision-free as long
    /// as sender ids are unique under the key.
    Counter {
        /// Unique id of this sender under the shared key.
        sender_id: u32,
    },
    /// Deterministic test mode: nonces drawn from a seeded PRNG, so two
    /// sources with the same seed emit identical sequences and traced
    /// wire bytes are reproducible run-to-run. Distributionally
    /// identical to [`NoncePolicy::Random`] but NOT suitable for
    /// production (a known seed makes every nonce predictable).
    Seeded {
        /// PRNG seed shared by all sources that must agree.
        seed: u64,
    },
}

/// Stateful nonce source implementing a [`NoncePolicy`].
pub struct NonceSource {
    policy: NoncePolicy,
    counter: u64,
    rng: ThreadRng,
    seeded: Option<StdRng>,
}

impl NonceSource {
    /// Create a source for the given policy.
    pub fn new(policy: NoncePolicy) -> Self {
        NonceSource {
            policy,
            counter: 0,
            rng: rand::thread_rng(),
            seeded: match policy {
                NoncePolicy::Seeded { seed } => Some(StdRng::seed_from_u64(seed)),
                _ => None,
            },
        }
    }

    /// Produce the next nonce.
    pub fn next_nonce(&mut self) -> [u8; NONCE_LEN] {
        self.next_nonce_block(1)
    }

    /// Produce a *base* nonce that reserves `span` consecutive values:
    /// the caller may derive per-chunk nonces `base + i` for `i < span`
    /// (see `empi_pipeline::frame`) without colliding with any
    /// nonce this source hands out later. For the random policies a
    /// single draw suffices: the derivation treats the full 96-bit
    /// nonce as one big-endian counter (tail overflow carries into the
    /// 4-byte prefix rather than wrapping), so a base drawn near the
    /// top of the 64-bit tail still reserves `span` distinct values.
    /// The counter policy advances by `span` and refuses to wrap.
    pub fn next_nonce_block(&mut self, span: u32) -> [u8; NONCE_LEN] {
        assert!(span >= 1, "nonce block must reserve at least one value");
        let mut n = [0u8; NONCE_LEN];
        match self.policy {
            NoncePolicy::Random => self.rng.fill_bytes(&mut n),
            NoncePolicy::Seeded { .. } => {
                self.seeded.as_mut().expect("seeded rng").fill_bytes(&mut n)
            }
            NoncePolicy::Counter { sender_id } => {
                n[..4].copy_from_slice(&sender_id.to_be_bytes());
                n[4..].copy_from_slice(&self.counter.to_be_bytes());
                self.counter = self
                    .counter
                    .checked_add(span as u64)
                    .expect("nonce counter exhausted (2^64 messages)");
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn counter_nonces_are_unique_and_ordered() {
        let mut src = NonceSource::new(NoncePolicy::Counter { sender_id: 42 });
        let mut seen = HashSet::new();
        for i in 0..1000u64 {
            let n = src.next_nonce();
            assert_eq!(&n[..4], &42u32.to_be_bytes());
            assert_eq!(&n[4..], &i.to_be_bytes());
            assert!(seen.insert(n));
        }
    }

    #[test]
    fn distinct_senders_never_collide() {
        let mut a = NonceSource::new(NoncePolicy::Counter { sender_id: 1 });
        let mut b = NonceSource::new(NoncePolicy::Counter { sender_id: 2 });
        for _ in 0..100 {
            assert_ne!(a.next_nonce(), b.next_nonce());
        }
    }

    #[test]
    fn random_nonces_distinct_in_practice() {
        let mut src = NonceSource::new(NoncePolicy::Random);
        let mut seen = HashSet::new();
        for _ in 0..1000 {
            assert!(seen.insert(src.next_nonce()), "random 96-bit collision");
        }
    }

    #[test]
    fn seeded_sources_reproduce_and_diverge_by_seed() {
        let mut a = NonceSource::new(NoncePolicy::Seeded { seed: 7 });
        let mut b = NonceSource::new(NoncePolicy::Seeded { seed: 7 });
        let mut c = NonceSource::new(NoncePolicy::Seeded { seed: 8 });
        let seq_a: Vec<_> = (0..50).map(|_| a.next_nonce()).collect();
        let seq_b: Vec<_> = (0..50).map(|_| b.next_nonce()).collect();
        assert_eq!(seq_a, seq_b, "same seed must replay the same nonces");
        assert!(
            (0..50).any(|i| seq_a[i] != c.next_nonce()),
            "different seeds must diverge"
        );
        // Still distinct within one stream.
        let set: HashSet<_> = seq_a.iter().collect();
        assert_eq!(set.len(), 50);
    }

    #[test]
    fn counter_blocks_reserve_span() {
        let mut src = NonceSource::new(NoncePolicy::Counter { sender_id: 9 });
        let base = src.next_nonce_block(16);
        assert_eq!(&base[4..], &0u64.to_be_bytes());
        // The next draw starts after the reserved span.
        let next = src.next_nonce();
        assert_eq!(&next[4..], &16u64.to_be_bytes());
    }
}
