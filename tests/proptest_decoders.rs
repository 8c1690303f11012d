//! The control-plane, key-plane and plain-record decoders are total.
//! Fed arbitrary bytes, or an honest encoding under flips, truncation,
//! extension and a rewritten count field, each returns `None`, a typed
//! error, or a value that re-encodes to exactly the bytes it was given:
//! no panic, and no second spelling of a frame. (The chunk frame's
//! decoders have their own property,
//! `recovery::tests::frame_decoders_are_total`.)

use empi_aead::Error::CiphertextTooShort;
use empi_aead::{AesGcm, NONCE_LEN};
use empi_keys::record::{overhead, seal_into, Record};
use empi_keys::KeyFrame;
use empi_mpi::ctrl::{pack_frames, unpack_frames};
use empi_mpi::{FtNotice, Nack, RepairHeader, RepairKind};
use proptest::collection::vec;
use proptest::prelude::*;

/// Check every decoder against `wire`; the first broken contract, if any.
fn check_all(wire: &[u8]) -> Result<(), String> {
    if let Some(n) = Nack::decode(wire) {
        if n.encode() != wire {
            return Err(format!("Nack::decode accepted a second spelling of {n:?}"));
        }
    }
    if let Some((h, body)) = RepairHeader::decode(wire) {
        if h.encode_with(body) != wire {
            return Err(format!(
                "RepairHeader::decode accepted a second spelling of {h:?}"
            ));
        }
    }
    if let Some(n) = FtNotice::decode(wire) {
        if n.encode() != wire {
            return Err(format!(
                "FtNotice::decode accepted a second spelling of {n:?}"
            ));
        }
    }
    if let Some(frames) = unpack_frames(wire) {
        if pack_frames(frames.iter().copied()) != wire {
            return Err(format!(
                "unpack_frames accepted a second spelling of {} frames",
                frames.len()
            ));
        }
    }
    if let Some(k) = KeyFrame::decode(wire) {
        if k.encode() != wire {
            return Err(format!(
                "KeyFrame::decode accepted a second spelling of {k:?}"
            ));
        }
    }
    for epoch_qualified in [false, true] {
        match Record::parse(wire, epoch_qualified) {
            Ok(rec) => {
                let prefix = rec.epoch.map(u64::to_be_bytes);
                let prefix = prefix.as_ref().map_or(&[][..], |p| &p[..]);
                let body = wire
                    .get(rec.body.clone())
                    .ok_or("Record::parse: body out of range")?;
                if rec.epoch.is_some() != epoch_qualified
                    || [prefix, &rec.nonce, body, &rec.tag].concat() != wire
                {
                    return Err(format!(
                        "Record::parse accepted a second spelling of {rec:?}"
                    ));
                }
            }
            Err(CiphertextTooShort { got })
                if got == wire.len() && got < overhead(epoch_qualified) => {}
            Err(e) => return Err(format!("Record::parse: wrong refusal {e:?}")),
        }
    }
    Ok(())
}

/// One honest encoding per decoder, with the offsets of its count or
/// length fields (big-endian `u32`s).
fn honest() -> impl Strategy<Value = (Vec<u8>, Vec<usize>)> {
    let ids = || (any::<u32>(), any::<u64>(), any::<u32>());
    let nack = (ids(), vec(any::<u32>(), 0..6), any::<bool>()).prop_map(
        |((tag, seq, attempt), missing, whole)| {
            let n = match whole {
                true => Nack::Whole { tag, seq, attempt },
                false => Nack::Chunks {
                    tag,
                    seq,
                    attempt,
                    missing,
                },
            };
            (n.encode(), vec![24])
        },
    );
    let repair =
        (ids(), 0u8..3, vec(any::<u8>(), 0..40)).prop_map(|((tag, seq, attempt), k, body)| {
            let kind = [RepairKind::Plain, RepairKind::Chunks, RepairKind::Abort][k as usize];
            (
                RepairHeader {
                    kind,
                    tag,
                    seq,
                    attempt,
                }
                .encode_with(&body),
                Vec::new(),
            )
        });
    let notice =
        (any::<u32>(), any::<u32>(), any::<u64>()).prop_map(|(failed, epoch, confirmed_at)| {
            (
                FtNotice {
                    failed,
                    epoch,
                    confirmed_at,
                }
                .encode(),
                Vec::new(),
            )
        });
    let packed = vec(vec(any::<u8>(), 0..24), 0..5).prop_map(|frames| {
        let mut offsets = Vec::new();
        let mut pos = 0;
        for f in &frames {
            offsets.push(pos);
            pos += 4 + f.len();
        }
        (pack_frames(frames.iter().map(|f| &f[..])), offsets)
    });
    let key = (
        0u8..3,
        any::<u32>(),
        any::<u32>(),
        any::<u64>(),
        any::<u8>(),
    )
        .prop_map(|(k, a, b, epoch, fill)| {
            let f = match k {
                0 => KeyFrame::Commit {
                    rank: a,
                    commitment: [fill; 32],
                },
                1 => KeyFrame::Reveal {
                    rank: a,
                    value: [fill; 32],
                    blind: [!fill; 32],
                },
                _ => KeyFrame::Revoke {
                    by: a,
                    target: b,
                    epoch,
                },
            };
            (f.encode(), Vec::new())
        });
    let record = (
        any::<bool>(),
        any::<u64>(),
        any::<u8>(),
        vec(any::<u8>(), 0..40),
    )
        .prop_map(|(qualified, epoch, n, pt)| {
            let cipher = AesGcm::new(&[7u8; 32]).unwrap();
            let mut wire = Vec::new();
            let epoch = qualified.then_some(epoch);
            seal_into(&cipher, epoch, &[n; NONCE_LEN], &pt, &mut wire);
            (wire, Vec::new())
        });
    prop_oneof![nack, repair, notice, packed, key, record]
}

/// One mutation of an encoding.
#[derive(Debug, Clone)]
enum Edit {
    Flip {
        byte: usize,
        bit: u8,
    },
    Truncate {
        len: usize,
    },
    Extend {
        tail: Vec<u8>,
    },
    /// Rewrite one count field: any `u32`, or one near the real length.
    Count {
        field: usize,
        value: u32,
        near: bool,
    },
}

fn edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        (any::<usize>(), 0u8..8).prop_map(|(byte, bit)| Edit::Flip { byte, bit }),
        any::<usize>().prop_map(|len| Edit::Truncate { len }),
        vec(any::<u8>(), 1..12).prop_map(|tail| Edit::Extend { tail }),
        (any::<usize>(), any::<u32>(), any::<bool>())
            .prop_map(|(field, value, near)| Edit::Count { field, value, near }),
    ]
}

fn apply(wire: &mut Vec<u8>, counts: &[usize], edit: &Edit) {
    match edit {
        Edit::Flip { byte, bit } => {
            if !wire.is_empty() {
                let at = byte % wire.len();
                wire[at] ^= 1 << bit;
            }
        }
        Edit::Truncate { len } => wire.truncate(len % (wire.len() + 1)),
        Edit::Extend { tail } => wire.extend_from_slice(tail),
        Edit::Count { field, value, near } => {
            let Some(&at) = counts.get(field % counts.len().max(1)) else {
                return;
            };
            if wire.len() >= at + 4 {
                let v = if *near {
                    value % (wire.len() as u32 + 8)
                } else {
                    *value
                };
                wire[at..at + 4].copy_from_slice(&v.to_be_bytes());
            }
        }
    }
}

/// Bytes to decode: arbitrary, or an honest encoding under up to three
/// edits.
fn wire() -> impl Strategy<Value = Vec<u8>> {
    let mutated = (honest(), vec(edit(), 0..4)).prop_map(|((mut wire, counts), edits)| {
        for e in &edits {
            apply(&mut wire, &counts, e);
        }
        wire
    });
    prop_oneof![vec(any::<u8>(), 0..96), mutated]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Every decoder, on every input: `None`, a typed error, or the
    /// one value whose encoding is the input.
    #[test]
    fn ctrl_and_key_decoders_are_total(wire in wire()) {
        prop_assert!(check_all(&wire).is_ok(), "{} on {:02x?}", check_all(&wire).unwrap_err(), wire);
    }
}
