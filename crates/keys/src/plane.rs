//! The per-rank key plane: configuration, live state, typed errors,
//! and counters.
//!
//! One [`KeyPlane`] lives inside each rank's secure-comm context. It
//! owns the session master produced by the handshake, derives the
//! current epoch from the rank's own virtual clock via an
//! [`empi_netsim::Schedule`] (no wire synchronization), enforces the
//! receive-side [`EpochWindow`], and tracks the revoked set. Like the
//! rest of the per-rank state it is single-threaded by design — the
//! engine executes one rank at a time — hence `Cell`/`RefCell`, not
//! locks.

use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::fmt;

use empi_netsim::{Schedule, VDur, VTime};

use crate::epoch::EpochWindow;
use crate::handshake::revoked_master;

/// Typed failures of the key plane. These surface through
/// `empi_core::Error::Key` so callers can distinguish a key-lifecycle
/// rejection from a plain ciphertext-corruption `Crypto` error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyError {
    /// The record's wire epoch fell behind the drain window — a replay
    /// of old-epoch traffic.
    StaleEpoch { wire: u64, local: u64, drain: u64 },
    /// The record claims an epoch further ahead than clock skew can
    /// explain — forged prefix or a broken peer clock.
    FutureEpoch { wire: u64, local: u64 },
    /// The record lacks the epoch prefix the key plane requires — an
    /// attempted downgrade to the legacy cluster-key format.
    Downgrade,
    /// Traffic from (or addressed to) a revoked rank.
    RevokedPeer { rank: usize },
    /// The group handshake failed: `rank`'s reveal did not open its
    /// commitment, or a round frame was malformed.
    HandshakeFailed { rank: usize, reason: &'static str },
    /// A key-plane operation (rotate, revoke) was invoked on a world
    /// that never ran a handshake.
    NoKeyPlane,
}

impl fmt::Display for KeyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyError::StaleEpoch { wire, local, drain } => write!(
                f,
                "stale epoch {wire} (local {local}, drain {drain}): replayed old-epoch record"
            ),
            KeyError::FutureEpoch { wire, local } => {
                write!(f, "future epoch {wire} (local {local}): forged or skewed")
            }
            KeyError::Downgrade => {
                write!(f, "record missing epoch prefix: downgrade to legacy format")
            }
            KeyError::RevokedPeer { rank } => write!(f, "rank {rank} is revoked"),
            KeyError::HandshakeFailed { rank, reason } => {
                write!(f, "handshake failed at rank {rank}: {reason}")
            }
            KeyError::NoKeyPlane => write!(f, "key plane not initialized for this world"),
        }
    }
}

impl std::error::Error for KeyError {}

/// Static configuration of the key plane, set on
/// `SecurityConfig::with_key_plane`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyPlaneConfig {
    /// Seed of the deterministic handshake coin-toss.
    pub handshake_seed: u64,
    /// Rotate the group epoch every this much virtual time; `None`
    /// pins the world to epoch 0 (handshake only, no rotation).
    pub rotate_every: Option<VDur>,
    /// Receive-window half-width in epochs: wire epochs within
    /// `±drain_epochs` of local open under their own key.
    pub drain_epochs: u64,
}

impl KeyPlaneConfig {
    /// Handshake-only plane: fresh session master, no rotation, a
    /// one-epoch drain window (so enabling rotation later is a config
    /// change, not a format change).
    pub fn new(handshake_seed: u64) -> KeyPlaneConfig {
        KeyPlaneConfig {
            handshake_seed,
            rotate_every: None,
            drain_epochs: 1,
        }
    }

    /// Enable clock-derived rotation with the given period.
    pub fn with_rotation(mut self, period: VDur) -> KeyPlaneConfig {
        self.rotate_every = Some(period);
        self
    }

    /// Override the drain-window half-width.
    pub fn with_drain(mut self, drain_epochs: u64) -> KeyPlaneConfig {
        self.drain_epochs = drain_epochs;
        self
    }

    /// The receive-side window this config implies.
    pub fn window(&self) -> EpochWindow {
        EpochWindow::new(self.drain_epochs)
    }
}

/// Counters the metrics harness snapshots into the `key/*` plane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KeyStats {
    /// Completed group handshakes (1 per world unless re-run).
    pub handshakes: u64,
    /// Epoch rolls observed locally (schedule or revocation bumps).
    pub rekeys: u64,
    /// Ranks revoked.
    pub revocations: u64,
    /// Records rejected as stale-epoch replays.
    pub rejected_stale: u64,
    /// Records rejected as future-epoch forgeries.
    pub rejected_future: u64,
    /// Records rejected because a peer was revoked.
    pub rejected_revoked: u64,
}

impl KeyStats {
    /// The counters as a named block in export order, for harness
    /// injection into the metrics snapshot's `keys` family.
    pub fn counters(&self) -> [(&'static str, u64); 6] {
        [
            ("handshakes", self.handshakes),
            ("rekeys", self.rekeys),
            ("revocations", self.revocations),
            ("rejected_stale", self.rejected_stale),
            ("rejected_future", self.rejected_future),
            ("rejected_revoked", self.rejected_revoked),
        ]
    }
}

/// Live per-rank key-plane state.
pub struct KeyPlane {
    cfg: KeyPlaneConfig,
    master: Cell<[u8; 32]>,
    schedule: Option<Schedule>,
    revoked: RefCell<BTreeSet<usize>>,
    /// Highest epoch this rank has sealed or accepted under — the
    /// rekey counter ticks when this advances.
    highest_epoch: Cell<u64>,
    stats: RefCell<KeyStats>,
}

impl KeyPlane {
    /// A plane holding the post-handshake session master.
    pub fn new(cfg: KeyPlaneConfig, session_master: [u8; 32]) -> KeyPlane {
        let plane = KeyPlane {
            cfg,
            master: Cell::new(session_master),
            schedule: cfg.rotate_every.map(Schedule::every),
            revoked: RefCell::new(BTreeSet::new()),
            highest_epoch: Cell::new(0),
            stats: RefCell::new(KeyStats::default()),
        };
        plane.stats.borrow_mut().handshakes = 1;
        plane
    }

    /// The plane's configuration.
    pub fn config(&self) -> &KeyPlaneConfig {
        &self.cfg
    }

    /// The current session master (post-handshake, possibly re-keyed
    /// by revocations).
    pub fn master(&self) -> [u8; 32] {
        self.master.get()
    }

    /// The schedule-derived epoch component at local time `now`
    /// (0 when rotation is disabled). Callers add their own manual
    /// bump counter (revocations) on top.
    pub fn schedule_epoch(&self, now: VTime) -> u64 {
        self.schedule.map_or(0, |s| s.index_at(now))
    }

    /// The receive window.
    pub fn window(&self) -> EpochWindow {
        self.cfg.window()
    }

    /// Gate an incoming wire epoch against the local epoch, counting
    /// rejections.
    pub fn accept(&self, wire: u64, local: u64) -> Result<(), KeyError> {
        match self.window().accept(wire, local) {
            Ok(()) => Ok(()),
            Err(e) => {
                let mut s = self.stats.borrow_mut();
                match e {
                    KeyError::StaleEpoch { .. } => s.rejected_stale += 1,
                    KeyError::FutureEpoch { .. } => s.rejected_future += 1,
                    _ => {}
                }
                Err(e)
            }
        }
    }

    /// Is `rank` revoked?
    pub fn is_revoked(&self, rank: usize) -> bool {
        self.revoked.borrow().contains(&rank)
    }

    /// Count a rejection of revoked-peer traffic.
    pub fn note_revoked_rejection(&self) {
        self.stats.borrow_mut().rejected_revoked += 1;
    }

    /// Revoke `rank`: quarantine it and fold the revoked set into a
    /// fresh master the revoked rank cannot derive. Returns the new
    /// master; idempotent per rank (revoking twice is an error).
    pub fn revoke(&self, rank: usize) -> Result<[u8; 32], KeyError> {
        {
            let mut revoked = self.revoked.borrow_mut();
            if !revoked.insert(rank) {
                return Err(KeyError::RevokedPeer { rank });
            }
            let new_master = revoked_master(&self.master.get(), &revoked);
            self.master.set(new_master);
        }
        self.stats.borrow_mut().revocations += 1;
        Ok(self.master.get())
    }

    /// The revoked set, in rank order.
    pub fn revoked_ranks(&self) -> Vec<usize> {
        self.revoked.borrow().iter().copied().collect()
    }

    /// Observe the epoch a record is being sealed or opened under;
    /// returns how many epochs the local high-water mark advanced
    /// (0 when not a new high), ticking the rekey counter per roll.
    pub fn note_epoch(&self, epoch: u64) -> u64 {
        let prev = self.highest_epoch.get();
        if epoch <= prev {
            return 0;
        }
        self.highest_epoch.set(epoch);
        let rolls = epoch - prev;
        self.stats.borrow_mut().rekeys += rolls;
        rolls
    }

    /// The highest epoch seen so far.
    pub fn highest_epoch(&self) -> u64 {
        self.highest_epoch.get()
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> KeyStats {
        *self.stats.borrow()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_builders_compose() {
        let cfg = KeyPlaneConfig::new(7)
            .with_rotation(VDur(1_000))
            .with_drain(2);
        assert_eq!(cfg.handshake_seed, 7);
        assert_eq!(cfg.rotate_every, Some(VDur(1_000)));
        assert_eq!(cfg.drain_epochs, 2);
        assert_eq!(KeyPlaneConfig::new(7).rotate_every, None);
    }

    #[test]
    fn schedule_epoch_follows_the_clock() {
        let p = KeyPlane::new(KeyPlaneConfig::new(1).with_rotation(VDur(100)), [0u8; 32]);
        assert_eq!(p.schedule_epoch(VTime(0)), 0);
        assert_eq!(p.schedule_epoch(VTime(99)), 0);
        assert_eq!(p.schedule_epoch(VTime(100)), 1);
        assert_eq!(p.schedule_epoch(VTime(350)), 3);
        let fixed = KeyPlane::new(KeyPlaneConfig::new(1), [0u8; 32]);
        assert_eq!(fixed.schedule_epoch(VTime(1 << 40)), 0, "no rotation");
    }

    #[test]
    fn note_epoch_counts_rolls_once() {
        let p = KeyPlane::new(KeyPlaneConfig::new(1), [0u8; 32]);
        assert_eq!(p.note_epoch(0), 0, "epoch 0 is the baseline");
        assert_eq!(p.note_epoch(2), 2, "jump counts both rolls");
        assert_eq!(p.note_epoch(2), 0, "repeat is not a roll");
        assert_eq!(p.note_epoch(1), 0, "drain-window stragglers don't roll");
        assert_eq!(p.stats().rekeys, 2);
        assert_eq!(p.highest_epoch(), 2);
    }

    #[test]
    fn accept_counts_rejections() {
        let p = KeyPlane::new(KeyPlaneConfig::new(1).with_drain(1), [0u8; 32]);
        assert!(p.accept(5, 5).is_ok());
        assert!(p.accept(2, 5).is_err());
        assert!(p.accept(9, 5).is_err());
        let s = p.stats();
        assert_eq!((s.rejected_stale, s.rejected_future), (1, 1));
    }

    #[test]
    fn revoke_rekeys_and_quarantines() {
        let p = KeyPlane::new(KeyPlaneConfig::new(1), [9u8; 32]);
        let before = p.master();
        let after = p.revoke(2).unwrap();
        assert_ne!(after, before, "revocation re-keys the survivors");
        assert_eq!(p.master(), after);
        assert!(p.is_revoked(2));
        assert!(!p.is_revoked(1));
        assert_eq!(
            p.revoke(2),
            Err(KeyError::RevokedPeer { rank: 2 }),
            "double revoke is typed"
        );
        assert_eq!(p.revoked_ranks(), vec![2]);
        let s = p.stats();
        assert_eq!((s.handshakes, s.revocations), (1, 1));
        // Same sequence of revocations on another plane lands on the
        // same master — survivors converge without a wire round.
        let q = KeyPlane::new(KeyPlaneConfig::new(1), [9u8; 32]);
        assert_eq!(q.revoke(2).unwrap(), after);
    }

    #[test]
    fn errors_display() {
        let msgs = [
            KeyError::StaleEpoch {
                wire: 1,
                local: 5,
                drain: 1,
            }
            .to_string(),
            KeyError::FutureEpoch { wire: 9, local: 5 }.to_string(),
            KeyError::Downgrade.to_string(),
            KeyError::RevokedPeer { rank: 3 }.to_string(),
            KeyError::HandshakeFailed {
                rank: 1,
                reason: "bad reveal",
            }
            .to_string(),
            KeyError::NoKeyPlane.to_string(),
        ];
        for m in &msgs {
            assert!(!m.is_empty());
        }
        assert!(msgs[0].contains("stale"));
        assert!(msgs[3].contains("revoked"));
    }
}
