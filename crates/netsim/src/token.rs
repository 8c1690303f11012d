//! State guarded by the scheduler token.
//!
//! The engine runs one tenure at a time, so state that only token
//! holders touch needs no lock of its own: the token is the lock.
//! [`TokenCell`] is that state's cell. It is reached with
//! [`TokenCell::with`] and a [`SimHandle`], and each access costs a
//! plain borrow flag, which turns re-entry into a deterministic panic,
//! and one plain load, which checks that the handle's rank holds the
//! token: a detached closure ([`SimHandle::charge_overlapped`]) or a
//! fork-join item ([`SimHandle::par_each`]) that reaches the cell panics
//! instead of racing the holder. No access uses an atomic
//! read-modify-write or a fence.

use std::cell::{Cell, UnsafeCell};

use crate::engine::SimHandle;

/// A value only the token holder reaches (see the module docs).
pub struct TokenCell<T> {
    /// Set while a [`TokenCell::with`] closure runs.
    busy: Cell<bool>,
    value: UnsafeCell<T>,
}

// SAFETY: only the token holder reaches the value — `with` asserts that
// the handle's rank runs its own code with the token, which no detached
// closure or fork-join item does (the engine clears the holder mark
// before they run, on the thread that runs them or before it publishes
// them under `sched`), and `peek` is called where no tenure runs — so
// no two threads touch it at once. Every hand-off of the token between
// carriers passes through the scheduler's mutex, which orders one
// holder's accesses before the next one's. `T: Send` because the value
// is reached from whichever carrier the holder runs on.
unsafe impl<T: Send> Sync for TokenCell<T> {}

/// The panic of a [`TokenCell::with`] made without the token, out of
/// the way of the access itself.
#[cold]
#[inline(never)]
fn refused(rank: usize) -> ! {
    panic!("rank {rank} reached a token cell without holding the token")
}

/// Clears [`TokenCell::busy`] when a `with` closure returns or unwinds.
struct Release<'a>(&'a Cell<bool>);

impl Drop for Release<'_> {
    fn drop(&mut self) {
        self.0.set(false);
    }
}

impl<T> TokenCell<T> {
    /// A cell holding `value`.
    pub fn new(value: T) -> Self {
        TokenCell {
            busy: Cell::new(false),
            value: UnsafeCell::new(value),
        }
    }

    /// Run `f` on the value. Panics unless `h`'s rank holds the token,
    /// outside any detached closure or fork-join item, and if called
    /// again from inside `f`.
    #[inline]
    pub fn with<R>(&self, h: &SimHandle, f: impl FnOnce(&mut T) -> R) -> R {
        if !h.holds_token() {
            refused(h.rank());
        }
        assert!(!self.busy.replace(true), "token cell re-entered");
        let _release = Release(&self.busy);
        // SAFETY: the holder is the only thread here (see the `Sync`
        // impl) and `busy` rules out a second borrow on its own stack.
        f(unsafe { &mut *self.value.get() })
    }

    /// Read the value without a handle, or `None` while a
    /// [`TokenCell::with`] closure has it. Never panics.
    ///
    /// # Safety
    ///
    /// No tenure may be running: call it from an
    /// [`Engine::diagnostics`](crate::Engine::diagnostics) callback,
    /// which the scheduler runs under its lock between two tenures.
    pub unsafe fn peek<R>(&self, f: impl FnOnce(&T) -> R) -> Option<R> {
        if self.busy.get() {
            return None;
        }
        // SAFETY: the caller's contract: nothing else reaches the value.
        Some(f(unsafe { &*self.value.get() }))
    }

    /// The value, through an exclusive borrow of the cell (after the
    /// run, say).
    pub fn get_mut(&mut self) -> &mut T {
        self.value.get_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, SimError, VDur};

    #[test]
    fn the_holder_reads_and_writes_the_cell() {
        let cell = TokenCell::new(0u64);
        let out = Engine::new(4).shards(2).run(|h| {
            for _ in 0..10 {
                cell.with(h, |v| *v += h.rank() as u64 + 1);
                h.advance(VDur(3));
            }
        });
        assert_eq!(out.results.len(), 4);
        let mut cell = cell;
        assert_eq!(*cell.get_mut(), 100);
    }

    #[test]
    fn re_entry_panics() {
        let cell = TokenCell::new(());
        let err = Engine::new(1)
            .try_run(|h| cell.with(h, |_| cell.with(h, |_| ())))
            .unwrap_err();
        assert!(err.to_string().contains("token cell re-entered"), "{err}");
    }

    /// A closure that must not touch simulation state panics when it
    /// reaches a token cell — detached from the token (rank 0 waits
    /// below rank 1's next key), run on the token, or as a fork-join
    /// item.
    #[test]
    fn closures_off_the_token_cannot_reach_the_cell() {
        let cell = TokenCell::new(0u64);
        let detached = Engine::new(2)
            .shards(2)
            .try_run(|h| {
                h.advance(VDur(1));
                if h.rank() == 1 {
                    h.charge_overlapped(VDur(10), || cell.with(h, |v| *v += 1));
                }
            })
            .unwrap_err();
        let on_token = Engine::new(1)
            .try_run(|h| h.charge_overlapped(VDur(10), || cell.with(h, |v| *v += 1)))
            .unwrap_err();
        let item = Engine::new(1)
            .try_run(|h| h.par_each(&mut [0u8; 2], |_, _| cell.with(h, |v| *v += 1)))
            .unwrap_err();
        for (err, rank) in [(detached, 1), (on_token, 0), (item, 0)] {
            match err {
                SimError::RankPanic { rank: r, message } => {
                    assert_eq!(r, rank);
                    assert!(message.contains("without holding the token"), "{message}");
                }
                e => panic!("expected a rank panic, got {e}"),
            }
        }
    }
}
