//! The key ring: the two keys a record can travel under — the cluster
//! key, or the key plane's group key of one epoch — behind one lookup,
//! plus the key plane's epoch-qualified format, rotation and revocation.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use empi_aead::gcm::AesGcm;
use empi_aead::nonce::{NoncePolicy, NonceSource};
use empi_aead::WIRE_OVERHEAD;
use empi_keys::{
    derive_group_key, msg_id_epoch, widen_epoch16, KeyError, KeyPlane, KeyStats, EPOCH_PREFIX_LEN,
};
use empi_netsim::VTime;
use empi_trace::{Cat, Metric};

use super::{note_span, SecureComm};
use crate::config::SecurityConfig;
use crate::error::{Error, Result};

/// Cached cipher state under one key: the expensive parts of a secure
/// channel — AES key schedule, GHASH tables, and the nonce source —
/// built once on first use and reused for every later record. Distinct
/// epochs get distinct keys, so each context's nonce source starting
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
    /// The configured cluster-wide key: the paper's setup. With the key
    /// plane on it is demoted to a bootstrap KEK that only ever
    /// protects handshake frames.
    cluster: Rc<KeyCtx>,
    /// Per-epoch group keys derived from the session master — the key
    /// plane's replacement for the cluster key — built lazily, with one
    /// KDF and one key schedule each. `Rc` so a context can be used
    /// while the map is released; contexts of older epochs stay to open
    /// drain-window stragglers.
    groups: RefCell<HashMap<u64, Rc<KeyCtx>>>,
    /// Epochs added on top of the plane's clock-derived schedule, one
    /// per revocation ([`SecureComm::advance_epoch`]).
    epoch: Cell<u64>,
    /// The key plane, installed after the startup handshake when
    /// [`SecurityConfig::with_key_plane`] is set. `None` keeps the
    /// legacy bit-identical wire format and the configured cluster key.
    plane: Option<KeyPlane>,
}

impl KeyRing {
    pub(super) fn new(cluster: AesGcm, cfg: &SecurityConfig) -> Self {
        KeyRing {
            key_len: cfg.key_size.bytes(),
            nonce_policy: cfg.nonce_policy,
            cluster: Rc::new(KeyCtx {
                cipher: cluster,
                nonces: RefCell::new(NonceSource::new(cfg.nonce_policy)),
            }),
            groups: RefCell::new(HashMap::new()),
            epoch: Cell::new(0),
            plane: None,
        }
    }

    /// Install the session the startup handshake agreed on: from now on
    /// records are epoch-qualified and keyed from its master.
    pub(super) fn install_plane(&mut self, plane: KeyPlane) {
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

    /// The cipher context of a record qualified with `epoch`: the
    /// cluster key for the legacy prefix-free format (`None`), the
    /// group key of that epoch otherwise. One lookup; on first use of
    /// an epoch one KDF + one key schedule.
    pub(super) fn ctx(&self, epoch: Option<u64>) -> Rc<KeyCtx> {
        let Some(epoch) = epoch else {
            return self.cluster.clone();
        };
        if let Some(ctx) = self.groups.borrow().get(&epoch) {
            return ctx.clone();
        }
        let plane = self.plane.as_ref().expect("epoch-qualified records need the key plane");
        let key = derive_group_key(&plane.master(), epoch);
        let ctx = Rc::new(KeyCtx {
            cipher: AesGcm::new(&key[..self.key_len])
                .expect("truncated derived key has a supported length"),
            nonces: RefCell::new(NonceSource::new(self.nonce_policy)),
        });
        self.groups.borrow_mut().insert(epoch, ctx.clone());
        ctx
    }
}

impl SecureComm<'_, '_> {
    /// Move this rank's sealing epoch one past the plane's schedule.
    /// Only a revocation may: every survivor moves together, while a
    /// lone caller would seal in an epoch its peers see as the future.
    fn advance_epoch(&self) {
        self.keys.epoch.set(self.keys.epoch.get() + 1);
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
    /// survivors — the session master folds in the revoked set and the
    /// epoch bumps by one, so fresh traffic seals under a key the
    /// revoked rank cannot derive. Every *surviving* rank must call
    /// this with the same target (the re-key is deterministic, so
    /// survivors converge without a wire round). Typed errors:
    /// [`KeyError::NoKeyPlane`] without the plane, [`KeyError::RevokedPeer`] on double-revoke.
    pub fn revoke(&self, target: usize) -> Result<()> {
        let plane = self.keys.plane().ok_or(Error::Key(KeyError::NoKeyPlane))?;
        plane.revoke(target).map_err(Error::Key)?;
        // Bump the manual epoch component: survivors roll forward onto
        // keys derived from the post-revocation master. Contexts cached
        // for *older* epochs are kept — they were derived from the old
        // master and still open drain-window stragglers sealed before
        // the revocation.
        self.advance_epoch();
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
    /// key plane, so cluster-key configurations can still use the ft
    /// verbs.
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

    /// Seal-side key resolution: the key of the epoch this rank seals
    /// in now.
    pub(super) fn seal_key(&self) -> RecordKey {
        let epoch = self.keys.sealing_epoch(self.comm.now());
        if let (Some(plane), Some(epoch)) = (self.keys.plane(), epoch) {
            self.note_rotation(plane, epoch);
        }
        RecordKey {
            ctx: self.keys.ctx(epoch),
            epoch,
        }
    }

    /// Open-side key resolution for a record from `src` qualified with
    /// wire `epoch`. With the key plane on, the receive-side gates run
    /// first: revoked peers are quarantined with a typed error and the
    /// epoch must sit inside the drain window.
    pub(super) fn open_key(&self, src: Option<usize>, epoch: Option<u64>) -> Result<RecordKey> {
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
        Ok(RecordKey {
            ctx: self.keys.ctx(epoch),
            epoch,
        })
    }
}
