//! The key ring: every cipher context a record can travel under —
//! cluster, pair or group-epoch — behind one lookup-or-derive, plus
//! the key plane's epoch-qualified format, rotation and revocation.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use empi_aead::gcm::AesGcm;
use empi_aead::nonce::{NoncePolicy, NonceSource};
use empi_aead::WIRE_OVERHEAD;
use empi_keys::kdf::KeyCache;
use empi_keys::{
    derive_group_key, msg_id_epoch, widen_epoch16, KeyError, KeyPlane, KeyStats, EPOCH_PREFIX_LEN,
};
use empi_netsim::VTime;
use empi_trace::{Cat, Metric};

use super::{note_span, SecureComm};
use crate::config::SecurityConfig;
use crate::error::{Error, Result};

/// Which key a record travels under.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub(super) enum KeyId {
    /// The configured cluster-wide key: the paper's setup. With the
    /// key plane on it is demoted to a bootstrap KEK that only ever
    /// protects handshake frames.
    Cluster,
    /// Pair-derived key of ordered `(src, dst)` in one epoch
    /// ([`SecurityConfig::with_peer_cipher`]).
    Pair(usize, usize, u64),
    /// Per-epoch group key derived from the session master — the
    /// key-plane replacement for the cluster key.
    Group(u64),
}

/// Cached cipher state under one key: the expensive parts of a secure
/// channel — AES key schedule, GHASH tables, and the nonce source —
/// built once on first use and reused for every later record. Distinct
/// ids get distinct keys, so each context's nonce source starting
/// afresh is harmless.
pub(super) struct KeyCtx {
    pub(super) cipher: AesGcm,
    pub(super) nonces: RefCell<NonceSource>,
}

/// The resolved key of one record: the context, and the epoch the
/// record is qualified with (`None` = the legacy prefix-free format).
pub(super) struct RecordKey {
    pub(super) ctx: Rc<KeyCtx>,
    pub(super) epoch: Option<u64>,
}

pub(super) struct KeyRing {
    key_len: usize,
    nonce_policy: NoncePolicy,
    cluster: Rc<KeyCtx>,
    /// Pair and group contexts, built lazily (one KDF + one key
    /// schedule each). `Rc` so a context can be used while the map is
    /// released; contexts of older epochs stay to open drain-window
    /// stragglers.
    derived: RefCell<HashMap<KeyId, Rc<KeyCtx>>>,
    /// Memoized pair KDF: one SHA-256 per (pair, epoch), however many
    /// messages flow. `None` when pair keys do not apply.
    pair_kdf: Option<KeyCache>,
    /// Manually advanced epoch component ([`SecureComm::advance_epoch`]
    /// and revocations).
    epoch: Cell<u64>,
    /// The key plane, installed after the startup handshake when
    /// [`SecurityConfig::with_key_plane`] is set. `None` keeps the
    /// legacy bit-identical wire format and the configured cluster key.
    plane: Option<KeyPlane>,
}

impl KeyRing {
    /// Pair keys are a p2p-only extension that the chaos machinery
    /// switches off: the ARQ salvage buffer and its repairs must open
    /// under one key, so with `chaos` every record uses the shared key.
    pub(super) fn new(cluster: AesGcm, cfg: &SecurityConfig, chaos: bool) -> Self {
        let pair_kdf = (cfg.peer_cipher && !chaos).then(|| {
            // The configured key (16 or 32 bytes) seeds the pair KDF as
            // a zero-padded 32-byte master; derived pair keys are
            // truncated back to the configured AES key size.
            let mut master = [0u8; 32];
            let kb = cfg.key_bytes();
            let n = kb.len().min(32);
            master[..n].copy_from_slice(&kb[..n]);
            KeyCache::new(master)
        });
        KeyRing {
            key_len: cfg.key_size.bytes(),
            nonce_policy: cfg.nonce_policy,
            cluster: Rc::new(KeyCtx {
                cipher: cluster,
                nonces: RefCell::new(NonceSource::new(cfg.nonce_policy)),
            }),
            derived: RefCell::new(HashMap::new()),
            pair_kdf,
            epoch: Cell::new(0),
            plane: None,
        }
    }

    /// Install the session the startup handshake agreed on: from now on
    /// records are epoch-qualified and pair keys derive from its master.
    pub(super) fn install_plane(&mut self, plane: KeyPlane) {
        if let Some(kdf) = &self.pair_kdf {
            kdf.rekey(plane.master());
        }
        self.plane = Some(plane);
    }

    pub(super) fn plane(&self) -> Option<&KeyPlane> {
        self.plane.as_ref()
    }

    /// Wire bytes added per plain sealed record: the paper's 28, plus
    /// the 8-byte epoch prefix once the key plane is on.
    pub(super) fn overhead(&self) -> usize {
        match self.plane {
            Some(_) => WIRE_OVERHEAD + EPOCH_PREFIX_LEN,
            None => WIRE_OVERHEAD,
        }
    }

    /// The epoch a record sealed at `now` is qualified with: the
    /// clock-derived schedule epoch plus the manual component. `None`
    /// without the key plane (the legacy format carries no epoch).
    fn sealing_epoch(&self, now: VTime) -> Option<u64> {
        self.plane
            .as_ref()
            .map(|plane| self.epoch.get() + plane.schedule_epoch(now))
    }

    /// The key of a record between `peers = (src, dst)` (`None` for
    /// collectives, which relay foreign ciphertext, and for repairs)
    /// qualified with `epoch`.
    pub(super) fn id(&self, peers: Option<(usize, usize)>, epoch: Option<u64>) -> KeyId {
        match (peers, epoch) {
            (Some((src, dst)), _) if self.pair_kdf.is_some() => {
                KeyId::Pair(src, dst, epoch.unwrap_or(self.epoch.get()))
            }
            (_, Some(epoch)) => KeyId::Group(epoch),
            (_, None) => KeyId::Cluster,
        }
    }

    /// The cipher context of `id`.
    pub(super) fn ctx(&self, id: KeyId) -> Rc<KeyCtx> {
        match id {
            KeyId::Cluster => self.cluster.clone(),
            KeyId::Pair(src, dst, epoch) => self.lookup_or_derive(id, || {
                let kdf = self.pair_kdf.as_ref();
                kdf.expect("pair ids are only minted with the pair KDF on")
                    .pair_key(src, dst, epoch)
            }),
            KeyId::Group(epoch) => self.lookup_or_derive(id, || {
                let plane = self.plane.as_ref();
                derive_group_key(&plane.expect("group ids need the key plane").master(), epoch)
            }),
        }
    }

    /// One lookup; on first use one KDF + one key schedule.
    fn lookup_or_derive(&self, id: KeyId, full_key: impl FnOnce() -> [u8; 32]) -> Rc<KeyCtx> {
        if let Some(ctx) = self.derived.borrow().get(&id) {
            return ctx.clone();
        }
        let ctx = Rc::new(KeyCtx {
            cipher: AesGcm::new(&full_key()[..self.key_len])
                .expect("truncated derived key has a supported length"),
            nonces: RefCell::new(NonceSource::new(self.nonce_policy)),
        });
        self.derived.borrow_mut().insert(id, ctx.clone());
        ctx
    }
}

impl SecureComm<'_, '_> {
    /// Roll the pair-key epoch: later messages derive fresh pair keys
    /// (one KDF per pair per epoch, memoized). No effect without
    /// [`SecurityConfig::with_peer_cipher`].
    pub fn advance_epoch(&self) {
        self.keys.epoch.set(self.keys.epoch.get() + 1);
    }

    /// How many pair-KDF derivations have actually run (0 without
    /// `peer_cipher`); stays at one per (pair, epoch) however many
    /// messages flow.
    pub fn kdf_derivations(&self) -> u64 {
        self.keys.pair_kdf.as_ref().map_or(0, |k| k.derivations())
    }

    /// Key-plane counters (None without [`SecurityConfig::with_key_plane`]).
    pub fn key_stats(&self) -> Option<KeyStats> {
        self.keys.plane().map(|p| p.stats())
    }

    /// The epoch this rank currently seals under (0 without the key
    /// plane or before the first rotation).
    pub fn sealing_epoch(&self) -> u64 {
        self.keys.sealing_epoch(self.comm.now()).unwrap_or(0)
    }

    /// Ranks revoked so far, in rank order.
    pub fn revoked_ranks(&self) -> Vec<usize> {
        self.keys.plane().map_or_else(Vec::new, |p| p.revoked_ranks())
    }

    /// Revoke `target`: quarantine its flows (its records are rejected
    /// with [`KeyError::RevokedPeer`] from now on) and re-key the
    /// survivors — the session master folds in the revoked set, the
    /// epoch bumps so fresh traffic seals under a key the revoked rank
    /// cannot derive, and the memoized pair keys are rebuilt from the
    /// new master. Every *surviving* rank must call this with the same
    /// target (the re-key is deterministic, so survivors converge
    /// without a wire round). Typed errors: [`KeyError::NoKeyPlane`]
    /// without the plane, [`KeyError::RevokedPeer`] on double-revoke.
    pub fn revoke(&self, target: usize) -> Result<()> {
        let plane = self.keys.plane().ok_or(Error::Key(KeyError::NoKeyPlane))?;
        let new_master = plane.revoke(target).map_err(Error::Key)?;
        // Bump the manual epoch component: survivors roll forward onto
        // keys derived from the post-revocation master. Contexts cached
        // for *older* epochs are kept — they were derived from the old
        // master and still open drain-window stragglers sealed before
        // the revocation.
        self.advance_epoch();
        if let Some(kdf) = &self.keys.pair_kdf {
            kdf.rekey(new_master);
        }
        let now = self.comm.sim().now().as_nanos();
        let detail = || format!("rank {target} revoked; survivors re-keyed");
        let key = Some((Metric::Key, "key/revoke", target as i32));
        note_span(self.comm, Cat::Key, "key/revoke", now, 0, detail, key);
        Ok(())
    }

    /// Hook a detector-confirmed rank failure into the key plane:
    /// revoke the dead rank (quarantine its flows, re-key the
    /// survivors) exactly as if it had been administratively expelled.
    /// Idempotent — a rank already revoked (by an earlier caller or by
    /// a peer-driven path) is not an error — and a no-op without the
    /// key plane, so plaintext and pair-key configurations can still
    /// use the ft verbs.
    pub fn handle_rank_failure(&self, rank: usize) -> Result<()> {
        if self.keys.plane().is_none() {
            return Ok(());
        }
        let t0 = self.comm.sim().now().as_nanos();
        match self.revoke(rank) {
            Ok(()) => {
                // First confirmer on this rank: the survivors just
                // re-keyed. Mark the roll on the ftol lane (the key
                // plane's own revoke span prices the crypto).
                let detail = || format!("survivors re-keyed past dead rank {rank}");
                let key = Some((Metric::Ftol, "ftol/rekey", rank as i32));
                note_span(self.comm, Cat::Ftol, "ftol/rekey", t0, 0, detail, key);
                Ok(())
            }
            Err(Error::Key(KeyError::RevokedPeer { .. })) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Observe an epoch being sealed or opened under; a new local
    /// high-water mark is an epoch rotation — traced on the `key/*`
    /// lane and counted in [`KeyStats::rekeys`].
    fn note_rotation(&self, plane: &KeyPlane, epoch: u64) {
        let rolls = plane.note_epoch(epoch);
        if rolls > 0 {
            let now = self.comm.sim().now().as_nanos();
            let detail = || format!("rolled into epoch {epoch} (+{rolls})");
            let key = Some((Metric::Key, "key/rotate", -1));
            note_span(self.comm, Cat::Key, "key/rotate", now, 0, detail, key);
        }
    }

    /// The epoch of a received chunked message (`None` without the key
    /// plane): it rides the (AAD-bound) top 16 bits of the message id
    /// and is widened against the local clock; with no readable id the
    /// local epoch stands in.
    pub(super) fn chunked_epoch(&self, msg_id: Option<u64>) -> Option<u64> {
        self.keys.plane().map(|_| {
            let local = self.sealing_epoch();
            msg_id.map_or(local, |id| widen_epoch16(msg_id_epoch(id), local))
        })
    }

    /// Seal-side key resolution for a record to `dst` (`None` =
    /// collective/shared context, which never uses a pair key).
    pub(super) fn seal_key(&self, dst: Option<usize>) -> RecordKey {
        let epoch = self.keys.sealing_epoch(self.comm.now());
        if let (Some(plane), Some(epoch)) = (self.keys.plane(), epoch) {
            self.note_rotation(plane, epoch);
        }
        let id = self.keys.id(dst.map(|d| (self.rank(), d)), epoch);
        RecordKey {
            ctx: self.keys.ctx(id),
            epoch,
        }
    }

    /// Open-side key resolution for a record from `src` qualified with
    /// wire `epoch`. With the key plane on, the receive-side gates run
    /// first: revoked peers are quarantined with a typed error and the
    /// epoch must sit inside the drain window. `pair` selects the pair
    /// key for p2p traffic; collectives and repairs pass `false`.
    pub(super) fn open_key(
        &self,
        src: Option<usize>,
        pair: bool,
        epoch: Option<u64>,
    ) -> Result<RecordKey> {
        if let (Some(plane), Some(epoch)) = (self.keys.plane(), epoch) {
            if let Some(s) = src {
                if plane.is_revoked(s) {
                    plane.note_revoked_rejection();
                    self.note_marker(Cat::Key, "key/reject", 0, || {
                        format!("quarantined traffic from revoked rank {s}")
                    });
                    return Err(Error::Key(KeyError::RevokedPeer { rank: s }));
                }
            }
            plane
                .accept(epoch, self.sealing_epoch())
                .map_err(Error::Key)?;
            self.note_rotation(plane, epoch);
        }
        let peers = src.filter(|_| pair).map(|s| (s, self.rank()));
        Ok(RecordKey {
            ctx: self.keys.ctx(self.keys.id(peers, epoch)),
            epoch,
        })
    }
}
