//! AES-CCM — Counter with CBC-MAC (NIST SP 800-38C).
//!
//! §III-A of the paper: "Among the standardized encryption schemes, only
//! GCM and CCM satisfy both privacy and integrity, but GCM is the faster
//! one." CCM is implemented here so that claim is *measurable* (see the
//! `ABL-CRYPTO` table of `empi-bench encdec`) — the MPI data path itself
//! always uses GCM, as in the paper.
//!
//! Full SP 800-38C parameterization: nonce length 7–13 bytes
//! (`q = 15 − n` length-field bytes), tag length 4–16 even bytes.
//! CCM makes two AES passes over the payload (CBC-MAC + CTR), which is
//! exactly why GCM (one AES pass + GHASH) outruns it.

use crate::aes::{BlockEncrypt, SoftAes};
use crate::ct::ct_eq;
use crate::error::{Error, Result};

#[cfg(target_arch = "x86_64")]
use crate::aes::AesNi;

/// AES-CCM cipher with fixed nonce/tag lengths chosen at construction.
pub struct AesCcm {
    aes: Box<dyn BlockEncrypt>,
    nonce_len: usize,
    tag_len: usize,
}

impl AesCcm {
    /// Build with a 16- or 32-byte key, `nonce_len ∈ 7..=13`, and an
    /// even `tag_len ∈ 4..=16`.
    pub fn new(key: &[u8], nonce_len: usize, tag_len: usize) -> Result<Self> {
        assert!((7..=13).contains(&nonce_len), "CCM nonce length 7..=13");
        assert!(
            (4..=16).contains(&tag_len) && tag_len.is_multiple_of(2),
            "CCM tag length 4..=16, even"
        );
        let aes: Box<dyn BlockEncrypt> = {
            #[cfg(target_arch = "x86_64")]
            {
                if crate::aes::hardware_acceleration_available() {
                    Box::new(AesNi::new(key)?)
                } else {
                    Box::new(SoftAes::new(key)?)
                }
            }
            #[cfg(not(target_arch = "x86_64"))]
            {
                Box::new(SoftAes::new(key)?)
            }
        };
        Ok(AesCcm {
            aes,
            nonce_len,
            tag_len,
        })
    }

    /// The default MPI-style geometry: 12-byte nonce, 16-byte tag.
    pub fn new_default(key: &[u8]) -> Result<Self> {
        Self::new(key, 12, 16)
    }

    fn q(&self) -> usize {
        15 - self.nonce_len
    }

    /// Counter block `Ctr_i`: `flags(q−1) ‖ nonce ‖ i` (i big-endian in
    /// the trailing q bytes).
    fn ctr_block(&self, nonce: &[u8], i: u64) -> [u8; 16] {
        let q = self.q();
        let mut b = [0u8; 16];
        b[0] = (q - 1) as u8;
        b[1..1 + self.nonce_len].copy_from_slice(nonce);
        let ib = i.to_be_bytes();
        b[16 - q..].copy_from_slice(&ib[8 - q..]);
        b
    }

    /// CBC-MAC over `B0 ‖ aad-blocks ‖ payload-blocks`.
    fn cbc_mac(&self, nonce: &[u8], aad: &[u8], payload: &[u8]) -> [u8; 16] {
        let q = self.q();
        // B0: flags = [reserved:1][Adata:1][(t−2)/2:3][q−1:3].
        let mut b0 = [0u8; 16];
        b0[0] = ((!aad.is_empty() as u8) << 6)
            | ((((self.tag_len - 2) / 2) as u8) << 3)
            | (q - 1) as u8;
        b0[1..1 + self.nonce_len].copy_from_slice(nonce);
        let plen = (payload.len() as u64).to_be_bytes();
        b0[16 - q..].copy_from_slice(&plen[8 - q..]);

        let mut x = b0;
        self.aes.encrypt_block(&mut x);

        let absorb = |data: &[u8], x: &mut [u8; 16]| {
            for chunk in data.chunks(16) {
                for (i, byte) in chunk.iter().enumerate() {
                    x[i] ^= byte;
                }
                self.aes.encrypt_block(x);
            }
        };

        if !aad.is_empty() {
            assert!(
                (aad.len() as u64) < (1 << 16) - (1 << 8),
                "CCM AAD longer than 2^16-2^8 bytes is not supported"
            );
            // 2-byte length prefix, then the AAD, zero-padded to blocks.
            let mut first = Vec::with_capacity(2 + aad.len());
            first.extend_from_slice(&(aad.len() as u16).to_be_bytes());
            first.extend_from_slice(aad);
            let pad = (16 - first.len() % 16) % 16;
            first.extend(std::iter::repeat_n(0, pad));
            absorb(&first, &mut x);
        }
        if !payload.is_empty() {
            let mut padded = payload.to_vec();
            let pad = (16 - padded.len() % 16) % 16;
            padded.extend(std::iter::repeat_n(0, pad));
            absorb(&padded, &mut x);
        }
        x
    }

    /// Encrypt: returns `ciphertext ‖ tag`.
    pub fn seal(&self, nonce: &[u8], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        assert_eq!(nonce.len(), self.nonce_len, "nonce length mismatch");
        let mac = self.cbc_mac(nonce, aad, plaintext);

        let mut out = Vec::with_capacity(plaintext.len() + self.tag_len);
        out.extend_from_slice(plaintext);
        let ctr1 = self.ctr_block(nonce, 1);
        self.aes.ctr_apply(&ctr1, &mut out);

        // Tag = MSB_t(mac ⊕ E(K, Ctr_0)).
        let mut s0 = self.ctr_block(nonce, 0);
        self.aes.encrypt_block(&mut s0);
        for i in 0..self.tag_len {
            out.push(mac[i] ^ s0[i]);
        }
        out
    }

    /// Decrypt and verify `ciphertext ‖ tag`.
    pub fn open(&self, nonce: &[u8], aad: &[u8], ct_and_tag: &[u8]) -> Result<Vec<u8>> {
        assert_eq!(nonce.len(), self.nonce_len, "nonce length mismatch");
        if ct_and_tag.len() < self.tag_len {
            return Err(Error::CiphertextTooShort {
                got: ct_and_tag.len(),
            });
        }
        let split = ct_and_tag.len() - self.tag_len;
        let mut pt = ct_and_tag[..split].to_vec();
        let ctr1 = self.ctr_block(nonce, 1);
        self.aes.ctr_apply(&ctr1, &mut pt);

        let mac = self.cbc_mac(nonce, aad, &pt);
        let mut s0 = self.ctr_block(nonce, 0);
        self.aes.encrypt_block(&mut s0);
        let expect: Vec<u8> = (0..self.tag_len).map(|i| mac[i] ^ s0[i]).collect();
        if !ct_eq(&expect, &ct_and_tag[split..]) {
            return Err(Error::AuthFailure);
        }
        Ok(pt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    const KEY: &str = "404142434445464748494a4b4c4d4e4f";

    /// NIST SP 800-38C Example 1: 7-byte nonce, 4-byte tag.
    #[test]
    fn nist_example_1() {
        let ccm = AesCcm::new(&hex(KEY), 7, 4).unwrap();
        let out = ccm.seal(
            &hex("10111213141516"),
            &hex("0001020304050607"),
            &hex("20212223"),
        );
        assert_eq!(out, hex("7162015b4dac255d"));
        let pt = ccm
            .open(&hex("10111213141516"), &hex("0001020304050607"), &out)
            .unwrap();
        assert_eq!(pt, hex("20212223"));
    }

    /// NIST SP 800-38C Example 2: 8-byte nonce, 6-byte tag.
    #[test]
    fn nist_example_2() {
        let ccm = AesCcm::new(&hex(KEY), 8, 6).unwrap();
        let out = ccm.seal(
            &hex("1011121314151617"),
            &hex("000102030405060708090a0b0c0d0e0f"),
            &hex("202122232425262728292a2b2c2d2e2f"),
        );
        assert_eq!(out, hex("d2a1f0e051ea5f62081a7792073d593d1fc64fbfaccd"));
    }

    #[test]
    fn roundtrip_various_geometries() {
        for (nl, tl) in [(7usize, 4usize), (12, 16), (13, 8), (11, 10)] {
            let ccm = AesCcm::new(&[0x5Au8; 32], nl, tl).unwrap();
            let nonce = vec![3u8; nl];
            for len in [0usize, 1, 15, 16, 17, 100, 1000] {
                let msg: Vec<u8> = (0..len).map(|i| i as u8).collect();
                let ct = ccm.seal(&nonce, b"aad", &msg);
                assert_eq!(ct.len(), len + tl);
                assert_eq!(ccm.open(&nonce, b"aad", &ct).unwrap(), msg);
            }
        }
    }

    #[test]
    fn tamper_detected() {
        let ccm = AesCcm::new_default(&[1u8; 16]).unwrap();
        let nonce = [2u8; 12];
        let mut ct = ccm.seal(&nonce, b"", b"integrity matters");
        for i in 0..ct.len() {
            ct[i] ^= 0x80;
            assert_eq!(
                ccm.open(&nonce, b"", &ct),
                Err(Error::AuthFailure),
                "byte {i}"
            );
            ct[i] ^= 0x80;
        }
        assert!(ccm.open(&nonce, b"", &ct).is_ok());
        // Wrong AAD also fails.
        assert_eq!(ccm.open(&nonce, b"x", &ct), Err(Error::AuthFailure));
    }

    #[test]
    fn ccm_and_gcm_are_different_schemes() {
        let key = [9u8; 32];
        let ccm = AesCcm::new_default(&key).unwrap();
        let gcm = crate::gcm::AesGcm::new(&key).unwrap();
        let nonce = [1u8; 12];
        assert_ne!(
            ccm.seal(&nonce, b"", b"hello"),
            gcm.seal(&nonce, b"", b"hello")
        );
    }
}
