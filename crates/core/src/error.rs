//! Errors of the encrypted MPI layer.

use std::fmt;

use empi_trace::BlackBox;

/// Result alias for secure operations.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors surfaced by [`crate::SecureComm`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The cryptographic layer rejected the operation — most importantly
    /// [`empi_aead::Error::AuthFailure`] when a message was tampered
    /// with, replayed under a wrong key, or truncated.
    Crypto(empi_aead::Error),
    /// The chunked pipelined path failed: a frame-protocol violation
    /// (reordered/dropped/duplicated chunk) or a per-chunk auth failure.
    Pipeline(empi_pipeline::PipelineError),
    /// A collective's local buffer length disagrees with the root's
    /// message length (e.g. an `Encrypted_Bcast` non-root sized its
    /// buffer differently from the root) — MPI counts must match.
    LengthMismatch {
        /// The local buffer's length.
        local: usize,
        /// The length announced by the root/peer.
        remote: usize,
    },
    /// The retransmit layer exhausted its repair budget: every delivery
    /// attempt of one message failed, or the sender had already evicted
    /// the message from its retained-frame buffer and sent an abort.
    /// The ledger lists what went wrong on each attempt.
    DeliveryFailed {
        /// Delivery attempts made (initial transmission + repairs).
        attempts: u32,
        /// Human-readable per-attempt failure log.
        ledger: Vec<String>,
        /// Flight-recorder report for the failing `(peer, tag, seq)`
        /// flow — present when the run was metered
        /// (`World::with_metrics`); boxed to keep `Error` small on the
        /// happy path.
        black_box: Option<Box<BlackBox>>,
    },
    /// The key-management plane rejected the operation: stale-epoch
    /// replay, future-epoch forgery, downgrade to the legacy record
    /// format, traffic touching a revoked rank, or a failed group
    /// handshake. Distinct from [`Error::Crypto`] so callers can tell
    /// a key-lifecycle rejection from plain ciphertext corruption.
    Key(empi_keys::KeyError),
    /// The retransmit layer waited out its full backoff schedule
    /// without any repair arriving (the sender is gone or the repair
    /// path itself keeps losing frames).
    Timeout {
        /// Virtual time spent waiting for repairs, in nanoseconds.
        waited_ns: u64,
        /// The operation that timed out (e.g. `"recv"`).
        op: &'static str,
        /// Flight-recorder report for the stalled flow (see
        /// [`Error::DeliveryFailed::black_box`]).
        black_box: Option<Box<BlackBox>>,
    },
    /// The failure detector confirmed the peer process dead (crashed
    /// or hung past its lease) while this operation depended on it.
    /// The dead rank's key material has been revoked; recover with
    /// `shrink` + survivor re-key.
    RankFailed {
        /// The rank confirmed dead.
        rank: usize,
        /// Failures known locally at confirmation time (the liveness
        /// epoch, matching [`empi_mpi::RankFailed::epoch`]).
        epoch: u32,
    },
}

impl Error {
    /// The flight-recorder black box attached to a delivery or timeout
    /// failure, when the run was metered and recorded the failing flow.
    pub fn black_box(&self) -> Option<&BlackBox> {
        match self {
            Error::DeliveryFailed { black_box, .. } | Error::Timeout { black_box, .. } => {
                black_box.as_deref()
            }
            _ => None,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Crypto(e) => write!(f, "secure MPI crypto failure: {e}"),
            Error::Pipeline(e) => write!(f, "secure MPI pipeline failure: {e}"),
            Error::Key(e) => write!(f, "secure MPI key-plane failure: {e}"),
            Error::LengthMismatch { local, remote } => write!(
                f,
                "secure MPI length mismatch: local buffer is {local} bytes, remote message is {remote}"
            ),
            Error::DeliveryFailed {
                attempts,
                ledger,
                black_box,
            } => {
                write!(
                    f,
                    "secure MPI delivery failed after {attempts} attempt(s): {}",
                    ledger.join("; ")
                )?;
                if let Some(bb) = black_box {
                    write!(f, "; {bb}")?;
                }
                Ok(())
            }
            Error::Timeout {
                waited_ns,
                op,
                black_box,
            } => {
                write!(
                    f,
                    "secure MPI {op} timed out after {waited_ns} ns waiting for retransmission"
                )?;
                if let Some(bb) = black_box {
                    write!(f, "; {bb}")?;
                }
                Ok(())
            }
            Error::RankFailed { rank, epoch } => write!(
                f,
                "secure MPI peer failure: rank {rank} confirmed dead (liveness epoch {epoch})"
            ),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Crypto(e) => Some(e),
            Error::Pipeline(e) => Some(e),
            Error::Key(e) => Some(e),
            Error::LengthMismatch { .. }
            | Error::DeliveryFailed { .. }
            | Error::Timeout { .. }
            | Error::RankFailed { .. } => None,
        }
    }
}

impl From<empi_mpi::RankFailed> for Error {
    fn from(e: empi_mpi::RankFailed) -> Self {
        Error::RankFailed {
            rank: e.rank,
            epoch: e.epoch,
        }
    }
}

impl From<empi_aead::Error> for Error {
    fn from(e: empi_aead::Error) -> Self {
        Error::Crypto(e)
    }
}

impl From<empi_pipeline::PipelineError> for Error {
    fn from(e: empi_pipeline::PipelineError) -> Self {
        Error::Pipeline(e)
    }
}

impl From<empi_keys::KeyError> for Error {
    fn from(e: empi_keys::KeyError) -> Self {
        Error::Key(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = Error::Crypto(empi_aead::Error::AuthFailure);
        assert!(e.to_string().contains("authentication"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn delivery_failed_round_trips_ledger() {
        let e = Error::DeliveryFailed {
            attempts: 3,
            ledger: vec![
                "attempt 0: auth failure".into(),
                "attempt 1: no repair".into(),
            ],
            black_box: None,
        };
        let s = e.to_string();
        assert!(s.contains("after 3 attempt(s)"), "{s}");
        assert!(s.contains("attempt 0: auth failure"), "{s}");
        assert!(s.contains("attempt 1: no repair"), "{s}");
        assert!(std::error::Error::source(&e).is_none());
        assert_eq!(e.clone(), e, "typed errors compare for test assertions");
    }

    #[test]
    fn timeout_displays_op_and_wait() {
        let e = Error::Timeout {
            waited_ns: 1_500_000,
            op: "recv",
            black_box: None,
        };
        let s = e.to_string();
        assert!(s.contains("recv timed out"), "{s}");
        assert!(s.contains("1500000 ns"), "{s}");
        assert!(std::error::Error::source(&e).is_none());
    }

    #[test]
    fn delivery_failure_carries_the_black_box() {
        let bb = BlackBox {
            rank: 1,
            peer: 0,
            tag: 7,
            seq: 42,
            total_events: 2,
            events: vec![
                empi_trace::FlowEvent {
                    t_ns: 100,
                    kind: "post/plain".into(),
                    bytes: 512,
                    detail: String::new(),
                },
                empi_trace::FlowEvent {
                    t_ns: 900,
                    kind: "nack/tx".into(),
                    bytes: 0,
                    detail: "attempt 0".into(),
                },
            ],
        };
        let e = Error::DeliveryFailed {
            attempts: 1,
            ledger: vec!["initial delivery: auth failure".into()],
            black_box: Some(Box::new(bb)),
        };
        let s = e.to_string();
        assert!(s.contains("peer=0 tag=7 seq=42"), "{s}");
        assert!(s.contains("nack/tx"), "{s}");
        let got = e.black_box().expect("black box accessor");
        assert_eq!((got.tag, got.seq), (7, 42));
        assert_eq!(e.clone(), e);
    }

    #[test]
    fn key_errors_convert_and_display() {
        let e: Error = empi_keys::KeyError::RevokedPeer { rank: 3 }.into();
        assert_eq!(e, Error::Key(empi_keys::KeyError::RevokedPeer { rank: 3 }));
        let s = e.to_string();
        assert!(s.contains("key-plane"), "{s}");
        assert!(s.contains("rank 3"), "{s}");
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn pipeline_conversion_preserves_chunk_index() {
        use empi_pipeline::PipelineError;
        let e: Error = PipelineError::Chunk {
            index: 7,
            source: empi_aead::Error::AuthFailure,
        }
        .into();
        assert!(
            matches!(e, Error::Pipeline(PipelineError::Chunk { index: 7, .. })),
            "From must keep the failing chunk"
        );
        assert!(
            std::error::Error::source(&e).is_some(),
            "chains to the pipeline error"
        );
    }
}
