//! The one canonical key-derivation path.
//!
//! The per-epoch group key and the pair KDF live in this single place.
//! The paper hardcodes one cluster-wide key and explicitly defers key
//! distribution to future work; the group key is what replaces it once
//! the key plane is on. `derive_pair_key` is our documented *extension*
//! (DESIGN.md §7): a toy KDF that gives each ordered rank pair its own
//! subkey, which (a) makes per-sender counter nonces safe by
//! construction and (b) confines a key compromise to one pair. Nothing
//! in the stack keys records with it; tests and the benchmark's KDF
//! probe call it directly.

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
        assert_ne!(g0, derive_pair_key(&master, 0, 0));
    }
}
