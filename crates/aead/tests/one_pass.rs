//! One record, three forms: the AES-GCM kernel seals and opens in place,
//! apart (into a second buffer) and, opening only, to the front of the
//! buffer that holds the ciphertext. Every form must write the bytes and
//! the tag of the in-place record, open back to the plaintext, keep the
//! failed-open contract — `AuthFailure`, the source as it was, an
//! out-of-place destination zeroed, an in-place buffer restored — and
//! move the engine block counters by the in-place path's amounts.
//!
//! The counters are process-wide, so this binary holds one test: nothing
//! else seals while it reads them.
//!
//! The stitched pair is built through the public constructors, so it
//! steps at the widest width this CPU has (its `Debug` names it, and the
//! test prints it). The narrower step on a CPU with the wide features is
//! reachable only inside the crate: `gcm::tests` hold it to the software
//! engines in all three forms and to the failed-open contract. Both
//! widths count their blocks in the same width-blind code.

use std::mem::MaybeUninit;

use empi_aead::aes::hardware_acceleration_available;
use empi_aead::gcm::{AesEngineKind, AesGcm, GhashEngineKind};
use empi_aead::{Error, TAG_LEN};
use empi_trace::engine_counters as counters;
use empi_trace::EngineCounters;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const NONCE: [u8; 12] = [0x4e; 12];
/// Bytes around every destination, which no form may touch.
const GUARD: usize = 16;
const FILL: u8 = 0xA5;
/// Every shift of a to-front open up to this one, which covers the
/// 12-byte nonce and the 20-byte epoch-qualified prefix of a record.
const MAX_SHIFT: usize = 48;

/// `f`'s result and the engine blocks it counted.
fn counted<T>(f: impl FnOnce() -> T) -> (T, EngineCounters) {
    let before = counters::snapshot();
    let out = f();
    (out, counters::snapshot().since(&before))
}

/// View initialised bytes as a destination to write.
fn uninit(bytes: &mut [u8]) -> &mut [MaybeUninit<u8>] {
    // SAFETY: `MaybeUninit<u8>` has `u8`'s layout, and only initialised
    // bytes are ever written through the view.
    unsafe { &mut *(bytes as *mut [u8] as *mut [MaybeUninit<u8>]) }
}

/// A destination of `len` bytes between guard bytes.
fn arena(len: usize) -> Vec<u8> {
    vec![FILL; GUARD + len + GUARD]
}

fn guards_hold(arena: &[u8]) -> bool {
    let (lo, hi) = (&arena[..GUARD], &arena[arena.len() - GUARD..]);
    lo.iter().chain(hi).all(|&b| b == FILL)
}

struct Case<'a> {
    cipher: &'a AesGcm,
    what: String,
    aad: &'a [u8],
    pt: &'a [u8],
}

impl Case<'_> {
    /// Seal in place, then check every other form against that record.
    /// With `forge`, also every failed-open contract.
    fn check(&self, shifts: &[usize], forge: bool) {
        let (cipher, aad, pt, what) = (self.cipher, self.aad, self.pt, &self.what);
        let len = pt.len();
        let mut ct = pt.to_vec();
        let (tag, sealed) = counted(|| cipher.seal_detached(&NONCE, aad, &mut ct));

        let mut out = arena(len);
        let dst = uninit(&mut out[GUARD..GUARD + len]);
        let (tag_to, sealed_to) = counted(|| cipher.seal_to(&NONCE, aad, pt, dst));
        assert!(out[GUARD..GUARD + len] == ct[..], "{what}: seal_to bytes");
        assert_eq!(tag_to, tag, "{what}: seal_to tag");
        assert!(guards_hold(&out), "{what}: seal_to guards");
        assert_eq!(sealed_to, sealed, "{what}: seal_to counters");

        let mut buf = ct.clone();
        let (r, opened) = counted(|| cipher.open_detached(&NONCE, aad, &mut buf, &tag));
        assert_eq!(r, Ok(()), "{what}: open_detached");
        assert!(buf == pt, "{what}: open_detached bytes");

        let mut out = arena(len);
        let dst = uninit(&mut out[GUARD..GUARD + len]);
        let (r, opened_to) = counted(|| cipher.open_to(&NONCE, aad, &ct, dst, &tag));
        assert_eq!(r, Ok(()), "{what}: open_to");
        assert!(out[GUARD..GUARD + len] == *pt, "{what}: open_to bytes");
        assert!(guards_hold(&out), "{what}: open_to guards");
        assert_eq!(opened_to, opened, "{what}: open_to counters");

        for &at in shifts {
            let mut out = arena(at + len);
            out[GUARD + at..GUARD + at + len].copy_from_slice(&ct);
            let buf = &mut out[GUARD..GUARD + at + len];
            let (r, front) = counted(|| cipher.open_to_front(&NONCE, aad, buf, at, &tag));
            assert_eq!(r, Ok(()), "{what} at={at}: open_to_front");
            assert!(
                out[GUARD..GUARD + len] == *pt,
                "{what} at={at}: open_to_front bytes"
            );
            assert!(guards_hold(&out), "{what} at={at}: open_to_front guards");
            assert_eq!(front, opened, "{what} at={at}: open_to_front counters");
        }

        if !forge {
            return;
        }
        let mut bad_tag = tag;
        bad_tag[len % TAG_LEN] ^= 0x80;
        self.rejects("tag", &ct, &bad_tag, shifts);
        if len > 0 {
            let mut bad_ct = ct.clone();
            bad_ct[len / 2] ^= 0x10;
            self.rejects("ciphertext", &bad_ct, &tag, shifts);
        }
    }

    /// A forged record fails in every form and leaves its source as it
    /// was; the form's other bytes follow its contract.
    fn rejects(&self, forged: &str, ct: &[u8], tag: &[u8; TAG_LEN], shifts: &[usize]) {
        let (cipher, aad, what) = (self.cipher, self.aad, &self.what);
        let len = ct.len();
        let what = format!("{what} forged {forged}");

        let mut buf = ct.to_vec();
        let (r, failed) = counted(|| cipher.open_detached(&NONCE, aad, &mut buf, tag));
        assert_eq!(r, Err(Error::AuthFailure), "{what}: open_detached");
        assert!(buf == ct, "{what}: open_detached restores the buffer");

        let mut out = arena(len);
        let dst = uninit(&mut out[GUARD..GUARD + len]);
        let (r, failed_to) = counted(|| cipher.open_to(&NONCE, aad, ct, dst, tag));
        assert_eq!(r, Err(Error::AuthFailure), "{what}: open_to");
        assert!(
            out[GUARD..GUARD + len].iter().all(|&b| b == 0),
            "{what}: open_to zeroes"
        );
        assert!(guards_hold(&out), "{what}: open_to guards");
        assert_eq!(failed_to, failed, "{what}: open_to counters");

        for &at in shifts {
            let mut out = arena(at + len);
            out[GUARD + at..GUARD + at + len].copy_from_slice(ct);
            let buf = &mut out[GUARD..GUARD + at + len];
            let (r, front) = counted(|| cipher.open_to_front(&NONCE, aad, buf, at, tag));
            assert_eq!(r, Err(Error::AuthFailure), "{what} at={at}: open_to_front");
            let (below, src) = out[GUARD..GUARD + at + len].split_at(at);
            assert!(
                src == ct,
                "{what} at={at}: open_to_front restores the source"
            );
            // What it wrote below the source is zeroed; past the end of
            // the destination nothing was written.
            let (wrote, untouched) = below.split_at(at.min(len));
            assert!(
                wrote.iter().all(|&b| b == 0),
                "{what} at={at}: open_to_front zeroes"
            );
            assert!(
                untouched.iter().all(|&b| b == FILL),
                "{what} at={at}: beyond the destination"
            );
            assert!(guards_hold(&out), "{what} at={at}: open_to_front guards");
            assert_eq!(front, failed, "{what} at={at}: open_to_front counters");
        }
    }
}

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt) ^ (i >> 8) as u8)
        .collect()
}

#[test]
fn every_form_is_the_in_place_record() {
    let all_shifts: Vec<usize> = (1..=MAX_SHIFT).collect();
    let key = pattern(32, 1);
    let aads = [pattern(0, 2), pattern(8, 2), pattern(20, 2)];
    let mut rng = StdRng::seed_from_u64(0x0e_9a55);

    // Every length to 4096 under a rotating AAD and a rotating shift;
    // every AAD, every shift and forged records at the block and group
    // boundaries; one random length up to 4 MiB per AAD.
    let stitched = AesGcm::new(&key).unwrap();
    eprintln!(
        "one_pass: checking {stitched:?}; a narrower step this CPU also has is \
         skipped here and checked by empi-aead's unit tests"
    );
    for len in 0..=4096usize {
        let pt = pattern(len, 3);
        let aad = &aads[len % aads.len()];
        let what = format!("{stitched:?} aad={} len={len}", aad.len());
        Case {
            cipher: &stitched,
            what,
            aad,
            pt: &pt,
        }
        .check(&[1 + len % MAX_SHIFT], false);
    }
    for aad in &aads {
        for len in [
            0, 1, 15, 16, 17, 127, 128, 129, 143, 255, 256, 257, 272, 1000, 4096,
        ] {
            let pt = pattern(len, 4);
            let what = format!("{stitched:?} aad={} len={len}", aad.len());
            Case {
                cipher: &stitched,
                what,
                aad,
                pt: &pt,
            }
            .check(&all_shifts, true);
        }
        let len = rng.gen_range(4097..4 << 20);
        let mut pt = vec![0u8; len];
        rng.fill_bytes(&mut pt);
        let what = format!("{stitched:?} aad={} len={len}", aad.len());
        Case {
            cipher: &stitched,
            what,
            aad,
            pt: &pt,
        }
        .check(&[20], false);
    }

    // The two-pass engine pairs copy first: the same forms and contract.
    let mut two_pass = vec![(AesEngineKind::Soft, GhashEngineKind::Soft)];
    if hardware_acceleration_available() {
        two_pass.push((AesEngineKind::Ni, GhashEngineKind::Clmul));
        two_pass.push((AesEngineKind::NiPipelined, GhashEngineKind::Soft));
    }
    for (a, g) in two_pass {
        let cipher = AesGcm::with_engines(a, g, &key).unwrap();
        for aad in &aads {
            for len in [0usize, 1, 15, 16, 17, 127, 128, 129, 300, 1000] {
                let pt = pattern(len, 5);
                let what = format!("({a:?},{g:?}) aad={} len={len}", aad.len());
                Case {
                    cipher: &cipher,
                    what,
                    aad,
                    pt: &pt,
                }
                .check(&[1, 12, 20, MAX_SHIFT], true);
            }
        }
    }
}
