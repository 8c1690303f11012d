//! Size-classed pool of reusable wire/frame buffers.
//!
//! The hot send/recv path allocates one buffer per message (or per
//! chunk) for the sealed wire image. `BufferPool` keeps those buffers
//! alive across messages in power-of-two size classes so steady-state
//! traffic recycles a small working set instead of hitting the heap
//! per message. `PooledBuf` is the RAII handle: deref to a `Vec<u8>`,
//! write the frame in place, then either let it drop (returns to the
//! pool) or `freeze()` it into a [`Bytes`] for the wire and later hand
//! that back via [`BufferPool::reclaim`].
//!
//! The pool is deliberately dependency-free and does no tracing of its
//! own; callers observe `take`/`reclaim` outcomes (`PooledBuf::fresh`,
//! the `reclaim` return value) and feed the alloc counters themselves.
//!
//! Thread safety: classes are `Mutex`-guarded. Under the conservative
//! virtual-time engine exactly one rank executes at a time, so the
//! locks are effectively uncontended; they exist so one engine-wide
//! pool can be shared across carrier threads (the receiver reclaims into
//! the same pool the sender drew from, closing the recycle loop).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use bytes::Bytes;

/// Smallest size class (bytes). Requests below this are rounded up.
const MIN_CLASS: usize = 1 << 6; // 64 B
/// Largest pooled size class. Larger requests get exact fresh
/// allocations that are not retained on drop.
const MAX_CLASS: usize = 1 << 22; // 4 MiB
/// Retained buffers per size class; beyond this, dropped buffers are
/// simply freed.
const PER_CLASS_CAP: usize = 64;

fn class_index(len: usize) -> Option<usize> {
    let sz = len.max(MIN_CLASS).next_power_of_two();
    if sz > MAX_CLASS {
        return None;
    }
    Some(sz.trailing_zeros() as usize - MIN_CLASS.trailing_zeros() as usize)
}

fn class_size(idx: usize) -> usize {
    MIN_CLASS << idx
}

const N_CLASSES: usize =
    (MAX_CLASS.trailing_zeros() - MIN_CLASS.trailing_zeros()) as usize + 1;

#[derive(Default)]
struct Inner {
    classes: Vec<Mutex<Vec<Vec<u8>>>>,
    fresh: AtomicU64,
    hits: AtomicU64,
    reclaims: AtomicU64,
    reclaim_misses: AtomicU64,
}

/// Cumulative pool activity, for tests and diagnostics. The tracer's
/// `alloc/*` counters are fed by callers, not from here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// `take` calls served by a heap allocation.
    pub fresh: u64,
    /// `take` calls served from a recycled buffer.
    pub hits: u64,
    /// `reclaim` calls that recovered the backing buffer.
    pub reclaims: u64,
    /// `reclaim` calls where the buffer was still shared (e.g. ARQ
    /// retention) or oversize, so nothing was recycled.
    pub reclaim_misses: u64,
}

/// Cheaply cloneable handle to a shared buffer pool.
#[derive(Clone)]
pub struct BufferPool {
    inner: Arc<Inner>,
}

impl Default for BufferPool {
    fn default() -> Self {
        Self::new()
    }
}

impl BufferPool {
    pub fn new() -> Self {
        Self {
            inner: Arc::new(Inner {
                classes: (0..N_CLASSES).map(|_| Mutex::new(Vec::new())).collect(),
                ..Inner::default()
            }),
        }
    }

    /// Hand out an empty buffer with capacity for at least `len`
    /// bytes. Recycles a pooled buffer of the matching size class when
    /// one is available, otherwise allocates fresh.
    pub fn take(&self, len: usize) -> PooledBuf {
        if let Some(idx) = class_index(len) {
            if let Some(mut v) = self.inner.classes[idx].lock().unwrap().pop() {
                v.clear();
                self.inner.hits.fetch_add(1, Ordering::Relaxed);
                return PooledBuf {
                    vec: v,
                    pool: Some(self.clone()),
                    fresh: false,
                };
            }
            self.inner.fresh.fetch_add(1, Ordering::Relaxed);
            return PooledBuf {
                vec: Vec::with_capacity(class_size(idx)),
                pool: Some(self.clone()),
                fresh: true,
            };
        }
        // Oversize: exact allocation, never retained.
        self.inner.fresh.fetch_add(1, Ordering::Relaxed);
        PooledBuf {
            vec: Vec::with_capacity(len),
            pool: None,
            fresh: true,
        }
    }

    /// Try to recycle the allocation behind a wire buffer. Succeeds
    /// only when `b` is the unique, full-range owner (see
    /// [`Bytes::try_into_vec`]); returns whether a buffer was
    /// recovered so the caller can count the outcome.
    pub fn reclaim(&self, b: Bytes) -> bool {
        match b.try_into_vec() {
            Ok(v) if class_index(v.capacity()).is_some() && v.capacity() >= MIN_CLASS => {
                self.put_back(v);
                self.inner.reclaims.fetch_add(1, Ordering::Relaxed);
                true
            }
            _ => {
                self.inner.reclaim_misses.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    fn put_back(&self, mut v: Vec<u8>) {
        // File under the largest class the capacity fully covers, so a
        // future `take` of that class size cannot under-provision.
        let cap = v.capacity();
        if cap < MIN_CLASS || cap.next_power_of_two() > MAX_CLASS {
            return;
        }
        let sz = if cap.is_power_of_two() { cap } else { cap.next_power_of_two() / 2 };
        let Some(idx) = class_index(sz) else { return };
        let shelf = &mut *self.inner.classes[idx].lock().unwrap();
        if shelf.len() < PER_CLASS_CAP {
            v.clear();
            shelf.push(v);
        }
    }

    pub fn stats(&self) -> PoolStats {
        PoolStats {
            fresh: self.inner.fresh.load(Ordering::Relaxed),
            hits: self.inner.hits.load(Ordering::Relaxed),
            reclaims: self.inner.reclaims.load(Ordering::Relaxed),
            reclaim_misses: self.inner.reclaim_misses.load(Ordering::Relaxed),
        }
    }
}

/// RAII handle to a pooled buffer. Deref/DerefMut as `Vec<u8>`; on
/// drop the buffer returns to its pool (if it came from one).
pub struct PooledBuf {
    vec: Vec<u8>,
    pool: Option<BufferPool>,
    fresh: bool,
}

impl PooledBuf {
    /// Whether this take was served by a heap allocation (true) or a
    /// recycled pool buffer (false).
    pub fn fresh(&self) -> bool {
        self.fresh
    }

    /// Detach the buffer from the pool without copying. The `Vec` will
    /// not return to the pool unless later reclaimed as `Bytes`.
    pub fn into_vec(mut self) -> Vec<u8> {
        std::mem::take(&mut self.vec)
    }

    /// Convert to an immutable wire buffer without copying. Reclaim it
    /// into the pool afterwards via [`BufferPool::reclaim`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.into_vec())
    }
}

impl std::ops::Deref for PooledBuf {
    type Target = Vec<u8>;
    fn deref(&self) -> &Vec<u8> {
        &self.vec
    }
}

impl std::ops::DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.vec
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            pool.put_back(std::mem::take(&mut self.vec));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_recycles_and_take_hits() {
        let p = BufferPool::new();
        let mut b = p.take(1000);
        assert!(b.fresh());
        b.extend_from_slice(&[7u8; 1000]);
        drop(b);
        let b2 = p.take(900); // same 1 KiB class
        assert!(!b2.fresh());
        assert!(b2.is_empty());
        assert!(b2.capacity() >= 900);
        let s = p.stats();
        assert_eq!((s.fresh, s.hits), (1, 1));
    }

    #[test]
    fn freeze_then_reclaim_closes_the_loop() {
        let p = BufferPool::new();
        let mut b = p.take(64 << 10);
        b.extend_from_slice(&[1u8; 64 << 10]);
        let wire = b.freeze();
        assert!(p.reclaim(wire));
        assert!(!p.take(64 << 10).fresh());
    }

    #[test]
    fn reclaim_of_shared_bytes_is_a_miss() {
        let p = BufferPool::new();
        let wire = p.take(256).freeze();
        let retained = wire.clone(); // e.g. ARQ retransmit retention
        assert!(!p.reclaim(wire));
        drop(retained);
        assert_eq!(p.stats().reclaim_misses, 1);
    }

    #[test]
    fn oversize_requests_are_exact_and_unpooled() {
        let p = BufferPool::new();
        let b = p.take(MAX_CLASS + 1);
        assert!(b.fresh());
        drop(b);
        assert!(p.take(MAX_CLASS + 1).fresh());
    }

    #[test]
    fn class_rounding_never_under_provisions() {
        let p = BufferPool::new();
        drop(p.take(1 << 12)); // 4 KiB class
        let b = p.take(1 << 12);
        assert!(!b.fresh());
        assert!(b.capacity() >= 1 << 12);
    }
}
