//! The one canonical key-derivation path.
//!
//! The pair KDF, the epoch-qualified pair KDF, the per-epoch group
//! key, and the memoizing [`KeyCache`] live in this single place. The
//! paper hardcodes one cluster-wide key and explicitly defers key
//! distribution to future work; `derive_pair_key` is our documented
//! *extension* (DESIGN.md §7): a toy KDF that gives each ordered rank
//! pair its own subkey, which (a) makes per-sender counter nonces safe
//! by construction and (b) confines a key compromise to one pair.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;

use empi_aead::sha256::Sha256;

/// Derive a per-pair subkey: `SHA-256("empi-pair-kdf" ‖ master ‖ a ‖ b)`.
///
/// The (a, b) pair is ordered so each direction gets its own key.
pub fn derive_pair_key(master: &[u8; 32], a: usize, b: usize) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"empi-pair-kdf");
    h.update(master);
    h.update(&(a as u64).to_be_bytes());
    h.update(&(b as u64).to_be_bytes());
    h.finalize()
}

/// Epoch-qualified pair KDF: `SHA-256("empi-pair-kdf" ‖ master ‖ a ‖ b
/// ‖ epoch)`. Epoch 0 is *not* [`derive_pair_key`] — the epoch word is
/// always hashed, so rolling into epochs can never collide with the
/// legacy schedule.
pub fn derive_pair_key_epoch(master: &[u8; 32], a: usize, b: usize, epoch: u64) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"empi-pair-kdf");
    h.update(master);
    h.update(&(a as u64).to_be_bytes());
    h.update(&(b as u64).to_be_bytes());
    h.update(&epoch.to_be_bytes());
    h.finalize()
}

/// The group-wide key for one epoch:
/// `SHA-256("empi-group-kdf" ‖ master ‖ epoch)`. This is what replaces
/// the static cluster key once the key plane is on — all ranks share
/// it within an epoch, and rotation is just moving to the next epoch's
/// derivation. Domain-separated from the pair KDF so group and pair
/// schedules can never collide.
pub fn derive_group_key(master: &[u8; 32], epoch: u64) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"empi-group-kdf");
    h.update(master);
    h.update(&epoch.to_be_bytes());
    h.finalize()
}

/// Memoizing front-end to the pair KDF: one derivation per
/// `(a, b, epoch)` for the cache's lifetime, however many messages
/// flow. Single-threaded by design (one cache per rank; the engine
/// executes one rank at a time), hence `RefCell`, not a lock.
pub struct KeyCache {
    master: Cell<[u8; 32]>,
    derived: RefCell<HashMap<(usize, usize, u64), [u8; 32]>>,
    derivations: RefCell<u64>,
}

impl KeyCache {
    pub fn new(master: [u8; 32]) -> Self {
        KeyCache {
            master: Cell::new(master),
            derived: RefCell::new(HashMap::new()),
            derivations: RefCell::new(0),
        }
    }

    /// The subkey for ordered pair `(a, b)` in `epoch`, deriving it on
    /// first use and serving every later call from the cache.
    pub fn pair_key(&self, a: usize, b: usize, epoch: u64) -> [u8; 32] {
        let master = self.master.get();
        *self
            .derived
            .borrow_mut()
            .entry((a, b, epoch))
            .or_insert_with(|| {
                *self.derivations.borrow_mut() += 1;
                derive_pair_key_epoch(&master, a, b, epoch)
            })
    }

    /// The cache's current master.
    pub fn master(&self) -> [u8; 32] {
        self.master.get()
    }

    /// Swap in a new master (handshake completion, revocation re-key)
    /// and drop every memoized subkey — old-master entries must never
    /// be served against the new master's epochs.
    pub fn rekey(&self, new_master: [u8; 32]) {
        self.master.set(new_master);
        self.derived.borrow_mut().clear();
    }

    /// How many times the underlying KDF actually ran (tests: must stay
    /// at one per (pair, epoch) regardless of message count).
    pub fn derivations(&self) -> u64 {
        *self.derivations.borrow()
    }
}

/// Derive the whole key table for an `n`-rank world, indexed
/// `[src][dst]`.
pub fn derive_key_table(master: &[u8; 32], n: usize) -> Vec<Vec<[u8; 32]>> {
    (0..n)
        .map(|a| (0..n).map(|b| derive_pair_key(master, a, b)).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_keys_are_distinct_and_directional() {
        let master = [1u8; 32];
        let k01 = derive_pair_key(&master, 0, 1);
        let k10 = derive_pair_key(&master, 1, 0);
        let k02 = derive_pair_key(&master, 0, 2);
        assert_ne!(k01, k10, "directionality");
        assert_ne!(k01, k02);
        assert_ne!(k01, master);
    }

    #[test]
    fn deterministic() {
        let master = [2u8; 32];
        assert_eq!(
            derive_pair_key(&master, 3, 4),
            derive_pair_key(&master, 3, 4)
        );
    }

    #[test]
    fn table_shape() {
        let t = derive_key_table(&[0u8; 32], 4);
        assert_eq!(t.len(), 4);
        assert!(t.iter().all(|row| row.len() == 4));
        // All 16 entries distinct.
        let mut seen = std::collections::HashSet::new();
        for row in &t {
            for k in row {
                assert!(seen.insert(*k));
            }
        }
    }

    #[test]
    fn cache_derives_once_per_pair_epoch() {
        let cache = KeyCache::new([7u8; 32]);
        let k = cache.pair_key(0, 1, 0);
        for _ in 0..100 {
            assert_eq!(cache.pair_key(0, 1, 0), k, "cached value is stable");
        }
        assert_eq!(cache.derivations(), 1, "one derivation, many messages");

        // New pair and new epoch each cost exactly one more derivation.
        let k10 = cache.pair_key(1, 0, 0);
        let k_e1 = cache.pair_key(0, 1, 1);
        assert_eq!(cache.derivations(), 3);
        assert_ne!(k10, k);
        assert_ne!(k_e1, k, "epoch separates keys");
        assert_eq!(k_e1, derive_pair_key_epoch(&[7u8; 32], 0, 1, 1));
    }

    #[test]
    fn epoch_kdf_never_collides_with_legacy() {
        let master = [3u8; 32];
        // Even epoch 0 hashes the epoch word, so it differs from the
        // unqualified legacy schedule.
        assert_ne!(
            derive_pair_key_epoch(&master, 0, 1, 0),
            derive_pair_key(&master, 0, 1)
        );
    }

    #[test]
    fn master_sensitivity() {
        assert_ne!(
            derive_pair_key(&[0u8; 32], 0, 1),
            derive_pair_key(&[1u8; 32], 0, 1)
        );
    }

    #[test]
    fn group_key_separates_epochs_and_domains() {
        let master = [5u8; 32];
        let g0 = derive_group_key(&master, 0);
        let g1 = derive_group_key(&master, 1);
        assert_ne!(g0, g1, "epoch separates group keys");
        assert_eq!(g0, derive_group_key(&master, 0), "deterministic");
        assert_ne!(g0, master);
        // Group and pair schedules never collide, even on matching
        // inputs.
        assert_ne!(g0, derive_pair_key_epoch(&master, 0, 0, 0));
    }

    #[test]
    fn rekey_swaps_master_and_clears_cache() {
        let cache = KeyCache::new([7u8; 32]);
        let old = cache.pair_key(0, 1, 3);
        assert_eq!(cache.master(), [7u8; 32]);
        cache.rekey([8u8; 32]);
        assert_eq!(cache.master(), [8u8; 32]);
        let new = cache.pair_key(0, 1, 3);
        assert_ne!(old, new, "same (pair, epoch) re-derives under new master");
        assert_eq!(new, derive_pair_key_epoch(&[8u8; 32], 0, 1, 3));
        assert_eq!(cache.derivations(), 2);
    }
}
