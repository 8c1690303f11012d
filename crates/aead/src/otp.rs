//! "Big key" one-time pad — a faithful model of VAN-MPICH2's broken
//! encryption (§II of the paper), provided **only** to demonstrate the
//! two-time-pad attack.
//!
//! VAN-MPICH2 implements one-time pads as substrings of one large key
//! `K`. When many large messages are encrypted, two messages' pads end
//! up overlapping, and the XOR of the overlapping plaintext regions
//! leaks. `examples/two_time_pad_attack.rs` exploits exactly this.

use crate::error::{Error, Result};

/// A deliberately flawed pad allocator over one shared big key.
///
/// `Strict` mode refuses to reuse key material (a true, impractical OTP);
/// `Wrapping` mode mimics VAN-MPICH2 and wraps around, creating overlaps.
pub struct InsecureBigKeyPad {
    key: Vec<u8>,
    cursor: usize,
    mode: PadMode,
}

/// Pad allocation policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PadMode {
    /// Error out when the key is exhausted (secure but unusable).
    Strict,
    /// Wrap to the start of the key — the VAN-MPICH2 flaw.
    Wrapping,
}

impl InsecureBigKeyPad {
    /// Create a pad allocator over `key`.
    pub fn new(key: Vec<u8>, mode: PadMode) -> Self {
        assert!(!key.is_empty(), "pad key must be non-empty");
        InsecureBigKeyPad {
            key,
            cursor: 0,
            mode,
        }
    }

    /// Encrypt (XOR with the next pad substring). Returns
    /// `(start_offset, ciphertext)`.
    pub fn encrypt(&mut self, plaintext: &[u8]) -> Result<(usize, Vec<u8>)> {
        let start = self.cursor;
        if self.mode == PadMode::Strict && start + plaintext.len() > self.key.len() {
            return Err(Error::PadExhausted);
        }
        let ct: Vec<u8> = plaintext
            .iter()
            .enumerate()
            .map(|(i, &b)| b ^ self.key[(start + i) % self.key.len()])
            .collect();
        self.cursor = match self.mode {
            // Strict mode must remember true consumption so a full key
            // cannot be silently reused from offset 0.
            PadMode::Strict => start + plaintext.len(),
            PadMode::Wrapping => (start + plaintext.len()) % self.key.len(),
        };
        Ok((start, ct))
    }

    /// Decrypt given the pad start offset.
    pub fn decrypt(&self, start: usize, ciphertext: &[u8]) -> Vec<u8> {
        ciphertext
            .iter()
            .enumerate()
            .map(|(i, &b)| b ^ self.key[(start + i) % self.key.len()])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let key: Vec<u8> = (0..=255).cycle().take(1024).collect();
        let mut pad = InsecureBigKeyPad::new(key, PadMode::Strict);
        let (start, ct) = pad.encrypt(b"hello world").unwrap();
        assert_eq!(pad.decrypt(start, &ct), b"hello world");
    }

    #[test]
    fn strict_mode_exhausts() {
        let mut pad = InsecureBigKeyPad::new(vec![7u8; 8], PadMode::Strict);
        assert!(pad.encrypt(b"12345678").is_ok());
        assert_eq!(pad.encrypt(b"x"), Err(Error::PadExhausted));
    }

    #[test]
    fn wrapping_mode_creates_recoverable_overlap() {
        // Key of 100 bytes; two 80-byte messages must overlap by 60.
        let key: Vec<u8> = (0..100u8).map(|i| i.wrapping_mul(37)).collect();
        let mut pad = InsecureBigKeyPad::new(key, PadMode::Wrapping);
        let m1: Vec<u8> = (0..80).map(|i| b'a' + (i % 26) as u8).collect();
        let m2: Vec<u8> = (0..80).map(|i| b'A' + (i % 26) as u8).collect();
        let (_s1, c1) = pad.encrypt(&m1).unwrap();
        let (s2, c2) = pad.encrypt(&m2).unwrap();
        assert_eq!(s2, 80);
        // Pads overlap on key[80..100] ∪ wrap — the last 20 bytes of m1's
        // pad region [60..80)? m1 used key[0..80), m2 uses key[80..100)
        // then wraps to key[0..60). So m2's bytes 20..80 reuse key[0..60),
        // which encrypted m1's bytes 0..60.
        let xor: Vec<u8> = c2[20..80]
            .iter()
            .zip(c1[0..60].iter())
            .map(|(x, y)| x ^ y)
            .collect();
        let expect: Vec<u8> = m2[20..80]
            .iter()
            .zip(m1[0..60].iter())
            .map(|(x, y)| x ^ y)
            .collect();
        assert_eq!(xor, expect, "plaintext XOR leaks from pad reuse");
    }
}
