//! Portable software AES using 4 KiB of compile-time-generated T-tables
//! for encryption and a straightforward scalar inverse cipher for
//! decryption (only the legacy ECB/CBC demos decrypt with this engine).
//!
//! This is deliberately a table-driven implementation: it models the kind
//! of software AES the paper's slowest library (CryptoPP under the
//! "gcc 4.8.5" build) falls back to, with the same cache-sensitivity.

use super::schedule::{KeySchedule, INV_SBOX, SBOX};
use super::{BlockDecrypt, BlockEncrypt};
use crate::error::Result;

const fn xtime(x: u8) -> u8 {
    (x << 1) ^ (((x >> 7) & 1) * 0x1b)
}

const fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    let mut i = 0;
    while i < 8 {
        if b & 1 == 1 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
        i += 1;
    }
    p
}

/// T0[x] = (2·S[x], S[x], S[x], 3·S[x]) as a big-endian u32; the other
/// three tables are byte rotations of this one.
const T0: [u32; 256] = {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let s = SBOX[i];
        t[i] = u32::from_be_bytes([xtime(s), s, s, gmul(s, 3)]);
        i += 1;
    }
    t
};

/// Software AES engine (T-table encrypt, scalar decrypt).
pub struct SoftAes {
    ks: KeySchedule,
}

impl SoftAes {
    /// Build from a 16- or 32-byte key.
    pub fn new(key: &[u8]) -> Result<Self> {
        Ok(SoftAes {
            ks: KeySchedule::new(key)?,
        })
    }

    #[inline]
    fn load(block: &[u8; 16], rk: [u32; 4]) -> [u32; 4] {
        let mut w = [0u32; 4];
        for (j, item) in w.iter_mut().enumerate() {
            *item = u32::from_be_bytes([
                block[4 * j],
                block[4 * j + 1],
                block[4 * j + 2],
                block[4 * j + 3],
            ]) ^ rk[j];
        }
        w
    }

    #[inline]
    fn round(w: [u32; 4], rk: [u32; 4]) -> [u32; 4] {
        let mut out = [0u32; 4];
        for j in 0..4 {
            let a = (w[j] >> 24) as usize;
            let b = ((w[(j + 1) & 3] >> 16) & 0xff) as usize;
            let c = ((w[(j + 2) & 3] >> 8) & 0xff) as usize;
            let d = (w[(j + 3) & 3] & 0xff) as usize;
            out[j] = T0[a]
                ^ T0[b].rotate_right(8)
                ^ T0[c].rotate_right(16)
                ^ T0[d].rotate_right(24)
                ^ rk[j];
        }
        out
    }

    #[inline]
    fn final_round(w: [u32; 4], rk: [u32; 4]) -> [u32; 4] {
        let mut out = [0u32; 4];
        for j in 0..4 {
            let a = SBOX[(w[j] >> 24) as usize] as u32;
            let b = SBOX[((w[(j + 1) & 3] >> 16) & 0xff) as usize] as u32;
            let c = SBOX[((w[(j + 2) & 3] >> 8) & 0xff) as usize] as u32;
            let d = SBOX[(w[(j + 3) & 3] & 0xff) as usize] as u32;
            out[j] = (a << 24 | b << 16 | c << 8 | d) ^ rk[j];
        }
        out
    }
}

impl BlockEncrypt for SoftAes {
    fn encrypt_block(&self, block: &mut [u8; 16]) {
        let nr = self.ks.rounds().count();
        let mut w = Self::load(block, self.ks.round_words(0));
        for r in 1..nr {
            w = Self::round(w, self.ks.round_words(r));
        }
        w = Self::final_round(w, self.ks.round_words(nr));
        for (j, word) in w.iter().enumerate() {
            block[4 * j..4 * j + 4].copy_from_slice(&word.to_be_bytes());
        }
    }
}

impl BlockDecrypt for SoftAes {
    fn decrypt_block(&self, block: &mut [u8; 16]) {
        let nr = self.ks.rounds().count();
        let mut state = *block;
        xor_rk(&mut state, self.ks.round_bytes(nr));
        for r in (1..nr).rev() {
            inv_shift_rows(&mut state);
            inv_sub_bytes(&mut state);
            xor_rk(&mut state, self.ks.round_bytes(r));
            inv_mix_columns(&mut state);
        }
        inv_shift_rows(&mut state);
        inv_sub_bytes(&mut state);
        xor_rk(&mut state, self.ks.round_bytes(0));
        *block = state;
    }
}

#[inline]
fn xor_rk(state: &mut [u8; 16], rk: [u8; 16]) {
    for (s, k) in state.iter_mut().zip(rk.iter()) {
        *s ^= k;
    }
}

#[inline]
fn inv_sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = INV_SBOX[*b as usize];
    }
}

/// State layout: byte `4*col + row`; InvShiftRows rotates row `r` right by `r`.
#[inline]
fn inv_shift_rows(state: &mut [u8; 16]) {
    let s = *state;
    for row in 1..4 {
        for col in 0..4 {
            state[4 * ((col + row) & 3) + row] = s[4 * col + row];
        }
    }
}

#[inline]
fn inv_mix_columns(state: &mut [u8; 16]) {
    for col in 0..4 {
        let c = &mut state[4 * col..4 * col + 4];
        let (a0, a1, a2, a3) = (c[0], c[1], c[2], c[3]);
        c[0] = gmul(a0, 14) ^ gmul(a1, 11) ^ gmul(a2, 13) ^ gmul(a3, 9);
        c[1] = gmul(a0, 9) ^ gmul(a1, 14) ^ gmul(a2, 11) ^ gmul(a3, 13);
        c[2] = gmul(a0, 13) ^ gmul(a1, 9) ^ gmul(a2, 14) ^ gmul(a3, 11);
        c[3] = gmul(a0, 11) ^ gmul(a1, 13) ^ gmul(a2, 9) ^ gmul(a3, 14);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encrypt_decrypt_roundtrip_many() {
        let aes = SoftAes::new(&[0x42u8; 32]).unwrap();
        for seed in 0u8..32 {
            let mut block = [seed; 16];
            for (i, b) in block.iter_mut().enumerate() {
                *b = b.wrapping_add(i as u8 * 17);
            }
            let orig = block;
            aes.encrypt_block(&mut block);
            assert_ne!(block, orig);
            aes.decrypt_block(&mut block);
            assert_eq!(block, orig);
        }
    }

    #[test]
    fn gmul_agrees_with_xtime() {
        for x in 0..=255u8 {
            assert_eq!(gmul(x, 2), xtime(x));
            assert_eq!(gmul(x, 1), x);
            assert_eq!(gmul(x, 3), xtime(x) ^ x);
        }
    }
}
