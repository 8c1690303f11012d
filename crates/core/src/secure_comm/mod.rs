//! `SecureComm` — MPI with AES-GCM privacy and integrity.
//!
//! Every message is transformed exactly as in the paper's Algorithm 1:
//! a fresh 12-byte nonce `N`, ciphertext `C = Enc(K, N, M)` (which is
//! 16 bytes longer than `M` because of the GCM tag), and the wire
//! carries `N ‖ C` — 28 bytes of overhead per message.
//!
//! Non-blocking semantics follow §IV: encryption happens inside
//! `isend` before the underlying `MPI_Isend`; decryption of an `irecv`
//! happens **inside `wait`**, preserving the non-blocking property.
//!
//! The stack, bottom-up (one module each):
//!
//! * [`keyring`] — which key: the cluster key, or the key plane's
//!   group key of one epoch, plus the plane's epoch/revocation gates;
//! * [`record`] — Algorithm 1 itself: one seal and one open, both in
//!   place, and the chunked (pipelined) framing over them;
//! * [`reliability`] — fault injection and NACK-driven repair;
//! * [`p2p`] and [`collectives`] — the public routines, written over
//!   the three layers above.

mod collectives;
mod keyring;
mod p2p;
mod record;
mod reliability;
#[cfg(test)]
mod tests;

use empi_aead::EncCurve;
use empi_keys::suite::cointoss;
use empi_keys::{handshake, KeyError, KeyFrame, KeyPlane, KeyPlaneConfig};
use empi_mpi::{Comm, Request, Src, TagSel, KEY_COMMIT_TAG, KEY_REVEAL_TAG};
use empi_netsim::{SizeMemo, VDur};
use empi_pipeline::Pipeline;
use empi_trace::{Cat, Metric, SampleKey};

use crate::config::{compiler_build, SecurityConfig};
use crate::error::{Error, Result};
use keyring::KeyRing;
use reliability::Reliability;

pub use p2p::{SecureRequest, SetCompletion};

/// Metric peer id of an optional rank (−1 = no single peer).
fn peer_id(rank: Option<usize>) -> i32 {
    rank.map_or(-1, |r| r as i32)
}

/// Record one event that began at `t0_ns` and completes now: a span
/// on this rank's lane and — when `sample` names its histogram key —
/// its latency sample, in one call, so sample counts equal span counts
/// by construction (the seal/open samples sit next to the
/// `count_seal`/`count_open` ledgers, and `tracecheck`'s audit of every
/// `metrics-*` snapshot checks the three agree). Recording never
/// advances virtual time; a no-op unless the world installed a recorder
/// on the engine.
fn note_span(
    comm: &Comm<'_>,
    cat: Cat,
    name: &str,
    t0_ns: u64,
    bytes: usize,
    detail: impl FnOnce() -> String,
    sample: Option<SampleKey>,
) {
    if let Some(r) = comm.sim().recorder() {
        let dur = comm.sim().now().as_nanos().saturating_sub(t0_ns);
        r.span(comm.rank(), cat, name, t0_ns, dur, bytes, detail, sample);
    }
}

/// Record one latency sample that has no span of its own (end-to-end
/// op latency, a chunked message's whole seal/open, ARQ repair
/// resolution) for an op that began at `t0_ns` and completes now.
fn note_sample(comm: &Comm<'_>, key: SampleKey, bytes: usize, t0_ns: u64) {
    if let Some(r) = comm.sim().recorder() {
        let now = comm.sim().now().as_nanos();
        r.sample(comm.rank(), key, bytes, now, now.saturating_sub(t0_ns));
    }
}

/// An encrypted communicator wrapping a plain [`Comm`].
///
/// Every plain record gains [`empi_keys::record::overhead`] bytes on
/// the wire (28, or 36 with the key plane's epoch prefix); receivers
/// authenticate before any plaintext is released, and tampering
/// surfaces as [`Error::Crypto`].
pub struct SecureComm<'a, 'h> {
    comm: &'a Comm<'h>,
    cfg: SecurityConfig,
    /// Every cipher context a record can travel under.
    keys: KeyRing,
    /// The chunked wire format's endpoint (message ids, worker pool).
    pipe: Pipeline,
    /// Fault plan, retransmit retention, flow counters and stats.
    rel: Reliability<'a, 'h>,
    /// The configured library's calibrated crypto cost under the build
    /// the world's interconnect pairs with, and its price for every
    /// record or chunk size seen so far. One memo per rank, so
    /// small: a rank seals and opens a handful of distinct sizes.
    crypto_cost: EncCurve,
    crypto_prices: SizeMemo<u64, 64>,
}

impl<'a, 'h> SecureComm<'a, 'h> {
    /// Wrap `comm` with the given security configuration. Crypto is
    /// priced on the library's calibrated curve for the compiler build
    /// the paper pairs with the world's interconnect (gcc 4.8.5 on
    /// Ethernet, MVAPICH2-2.3 on InfiniBand).
    ///
    /// Engine selection: the charged time comes from the library's
    /// calibrated curve, and every engine computes byte-identical
    /// AES-GCM (see the cross-engine tests), so the fastest available
    /// engines execute — keeping gigabyte-scale harness runs from being
    /// throttled by the deliberately slow software path whose *cost* is
    /// already charged.
    pub fn new(comm: &'a Comm<'h>, cfg: SecurityConfig) -> Result<Self> {
        cfg.library.supports(cfg.key_size)?;
        let cluster = empi_aead::gcm::AesGcm::new(cfg.key_bytes())?;
        let rel = Reliability::new(comm, &cfg);
        let keys = KeyRing::new(cluster, &cfg, comm.rank());
        let pipe = Pipeline::new(cfg.pipeline, comm.rank());
        let crypto_cost = cfg.library.enc_curve(compiler_build(comm.model_name()));
        let mut sc = SecureComm {
            comm,
            cfg,
            keys,
            pipe,
            rel,
            crypto_cost,
            crypto_prices: SizeMemo::new(),
        };
        if let Some(kp) = sc.cfg.key_plane {
            // The handshake runs on the legacy wire format (plane not
            // installed yet): the configured cluster key acts as the
            // bootstrap KEK and never protects data traffic again.
            let plane = sc.run_handshake(kp)?;
            sc.keys.install_plane(plane);
        }
        Ok(sc)
    }

    /// The seeded commit/reveal group key agreement (see
    /// `empi_keys::handshake`): round 1 exchanges commitments on the
    /// ctrl-plane commit tag, round 2 exchanges reveals; every rank
    /// verifies each reveal against its commitment and folds the
    /// bootstrap key with all contributions into the session master.
    fn run_handshake(&self, kp: KeyPlaneConfig) -> Result<KeyPlane> {
        let me = self.rank();
        let n = self.size();
        let t0 = self.comm.sim().now().as_nanos();
        let contrib = handshake::contribution(kp.handshake_seed, me);
        let my_commit = handshake::commitment(&contrib);
        let failed = |rank, reason| Error::Key(KeyError::HandshakeFailed { rank, reason });
        // One all-to-all round of sealed key frames on `tag`. Sends are
        // posted before the in-order receives, so it cannot deadlock.
        type Accept<'f> = &'f mut dyn FnMut(usize, Option<KeyFrame>) -> Result<()>;
        let round = |frame: KeyFrame, tag, accept: Accept<'_>| -> Result<()> {
            let wire = self.seal_wire(&frame.encode(), None);
            let reqs: Vec<Request> = (0..n)
                .filter(|&r| r != me)
                .map(|r| self.comm.isend(&wire, r, tag))
                .collect();
            for r in (0..n).filter(|&r| r != me) {
                let (_, raw) = self.comm.recv(Src::Is(r), TagSel::Is(tag));
                accept(r, KeyFrame::decode(&self.open_to_vec(None, &raw)?))?;
            }
            for req in reqs {
                let _ = self.comm.wait_payload(req);
            }
            Ok(())
        };

        // Round 1: commitments.
        let mut commits = vec![[0u8; 32]; n];
        commits[me] = my_commit;
        round(
            KeyFrame::Commit {
                rank: me as u32,
                commitment: my_commit,
            },
            KEY_COMMIT_TAG,
            &mut |r, frame| match frame {
                Some(KeyFrame::Commit { rank, commitment }) if rank as usize == r => {
                    commits[r] = commitment;
                    Ok(())
                }
                _ => Err(failed(r, "malformed commit frame")),
            },
        )?;

        // Round 2: reveals, only after every commitment is in.
        let mut values = vec![[0u8; 32]; n];
        values[me] = contrib.value;
        round(
            KeyFrame::Reveal {
                rank: me as u32,
                value: contrib.value,
                blind: contrib.blind,
            },
            KEY_REVEAL_TAG,
            &mut |r, frame| match frame {
                Some(KeyFrame::Reveal { rank, value, blind }) if rank as usize == r => {
                    if !cointoss::verify(&commits[r], &value, &blind) {
                        return Err(failed(r, "reveal does not open the commitment"));
                    }
                    values[r] = value;
                    Ok(())
                }
                _ => Err(failed(r, "malformed reveal frame")),
            },
        )?;

        let mut bootstrap = [0u8; 32];
        let kb = self.cfg.key_bytes();
        bootstrap[..kb.len().min(32)].copy_from_slice(&kb[..kb.len().min(32)]);
        let master = handshake::session_master(&bootstrap, &values);
        let detail = || format!("{n} ranks, commit/reveal, seed {}", kp.handshake_seed);
        let key = Some((Metric::Key, "key/handshake", -1));
        note_span(self.comm, Cat::Key, "key/handshake", t0, 0, detail, key);
        Ok(KeyPlane::new(kp, master))
    }

    /// This rank.
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.comm.size()
    }

    /// The wrapped plaintext communicator.
    pub fn inner(&self) -> &Comm<'h> {
        self.comm
    }

    /// The active configuration.
    pub fn config(&self) -> &SecurityConfig {
        &self.cfg
    }

    /// Bookkeeping for one wire-buffer materialization: the per-site
    /// counters plus an `alloc/*` marker on this rank's lane.
    fn note_alloc(&self, fresh: bool, bytes: usize, what: &str) {
        if let Some(t) = self.comm.sim().recorder() {
            t.count_alloc(self.rank(), fresh, bytes);
            let name = if fresh { "alloc/fresh" } else { "alloc/pooled" };
            self.note_marker(Cat::Alloc, name, bytes, || what.to_string());
        }
    }

    /// Drop one marker span (1 ns in the ring) on this rank's lane at
    /// the current virtual time.
    fn note_marker(&self, cat: Cat, name: &str, bytes: usize, detail: impl FnOnce() -> String) {
        if let Some(r) = self.comm.sim().recorder() {
            let now = self.comm.sim().now().as_nanos();
            r.span(self.rank(), cat, name, now, 0, bytes, detail, None);
        }
    }

    /// Execute a crypto closure under the configured cost model,
    /// recording a per-call crypto span (`kind` = "seal"/"open", bytes,
    /// backend) and — for a counted seal/open — the service-time
    /// sample under `key` when a recorder is installed.
    fn run_crypto<T>(
        &self,
        bytes: usize,
        kind: &'static str,
        key: Option<SampleKey>,
        f: impl FnOnce() -> T,
    ) -> T {
        let t0 = self.comm.sim().now().as_nanos();
        // Cost is known before the call, so the crypto work can run
        // detached: under a sharded world other ranks proceed on real
        // cores while this one seals/opens. The closure touches only
        // rank-local cipher state and pre-allocated buffers, as
        // charge_overlapped requires.
        let out = self
            .comm
            .sim()
            .charge_overlapped(VDur(self.calibrated_ns(bytes)), f);
        let backend = || self.cfg.library.name().to_string();
        note_span(self.comm, Cat::Crypto, kind, t0, bytes, backend, key);
        out
    }

    /// The virtual cost of `bytes` of AES-GCM: the library's calibrated
    /// curve for the build the world's interconnect pairs with — also
    /// the pipeline's per-chunk [`empi_pipeline::ChunkCost`]. Encryption
    /// and decryption cost the same in AES-GCM (§V-A). Priced once per
    /// distinct size; the only crypto pricing above `empi-aead`.
    fn calibrated_ns(&self, bytes: usize) -> u64 {
        self.crypto_prices
            .get(bytes, |n| self.crypto_cost.time_ns(n))
    }

    /// Run a public op whose peer and size are known up front under an
    /// end-to-end latency sample.
    fn op_span<T>(&self, op: &'static str, peer: i32, bytes: usize, f: impl FnOnce() -> T) -> T {
        let t0 = self.comm.sim().now().as_nanos();
        let out = f();
        note_sample(self.comm, (Metric::E2e, op, peer), bytes, t0);
        out
    }
}
