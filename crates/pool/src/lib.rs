//! The one pool every large wire buffer comes from and goes back to.
//!
//! A world's hot path draws each sealed record, plain copy, chunk
//! frame and reassembly buffer from its engine's [`BufferPool`] with
//! [`BufferPool::take`]. [`PooledBuf`] is the handle: deref to a
//! `Vec<u8>`, write the bytes, then [`PooledBuf::freeze`] it into a
//! [`Bytes`] for the wire. Whichever handle drops last — the sender's
//! retention, the receiver's payload, a slice of it — hands the
//! allocation back to the pool ([`bytes::Owner`]); nobody reclaims by
//! hand.
//!
//! Two levels, so that a world's trace stays a function of that world
//! alone while its memory outlives it:
//!
//! * **Shelves, one per world.** A take is served by any shelved buffer
//!   whose size is at least the request and at most twice it (the
//!   smallest such); a miss is a *fresh* take, and the `alloc/fresh` /
//!   `alloc/pooled` markers callers emit follow these outcomes only. A
//!   buffer's size on the shelves is the request of the fresh take that
//!   drew it, not its real capacity, which depends on what the
//!   reservoir held: so hits, misses and [`PoolStats`] are a function
//!   of the world's own traffic.
//! * **The reservoir, one per process.** A world's misses draw from it
//!   before the heap, and whatever the shelves do not keep — buffers
//!   past their bound, the whole shelf set when the world's pool drops
//!   — goes back to it. It lives as long as the process, so a second
//!   world of the same traffic makes no heap allocation and faults no
//!   page in again.
//!
//! Buffers below [`HEAP_BELOW`] stay plain heap allocations. Both
//! levels keep at most as many bytes as were out of them at once:
//! a returned buffer that would take the retained bytes past that
//! high-water mark goes on (shelves to the reservoir, the reservoir to
//! the heap). A buffer detached with [`PooledBuf::into_vec`] or
//! [`Bytes::try_into_vec`] leaves both ledgers.
//!
//! Takes and returns happen inside a rank's tenure, never in compute
//! that runs detached from it (`charge_overlapped`, `par_each`): there
//! the order of two ranks' takes and returns, and with it which take
//! hits, would depend on host timing. Such closures only borrow buffers
//! drawn before them.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use bytes::{Bytes, Owner};

/// Takes below this many bytes are plain heap allocations, never
/// pooled. glibc serves them from its bins without a page fault, and a
/// malloc/free pair costs less than a pool round trip: pooling the
/// 256 B records of a small-message ping-pong ran it 14 % slower. Every
/// full frame of the pipeline's default 64 KiB chunk, and every buffer
/// of 2 MB-class traffic, is above it: at glibc's 128 KiB mmap
/// threshold instead, the 64 KiB frames of a pipelined 2 MB window went
/// back to malloc and its runs took sixteen times the minor faults and
/// a fifth more host time, while the NAS workload read the same at
/// either cut-off (DESIGN.md §10).
pub const HEAP_BELOW: usize = 16 << 10;

/// Buffers filed by size: the capacity a world asked for on its fresh
/// take, or the reservoir's real capacity.
#[derive(Default)]
struct Shelves {
    by_size: BTreeMap<usize, Vec<Vec<u8>>>,
    bytes: usize,
}

impl Shelves {
    /// The smallest shelved buffer with room for `len` bytes and at
    /// most twice that, with its size.
    fn pop(&mut self, len: usize) -> Option<(usize, Vec<u8>)> {
        let (&size, list) = self.by_size.range_mut(len..=len.saturating_mul(2)).next()?;
        let v = list.pop().expect("no empty list is kept");
        if list.is_empty() {
            self.by_size.remove(&size);
        }
        self.bytes -= size;
        Some((size, v))
    }

    fn push(&mut self, size: usize, mut v: Vec<u8>) {
        v.clear();
        self.bytes += size;
        self.by_size.entry(size).or_default().push(v);
    }
}

/// One level's books, in sizes: what it keeps, what is out of it, and
/// the most that was ever out at once.
#[derive(Default)]
struct Ledger {
    shelves: Shelves,
    out: usize,
    peak: usize,
}

impl Ledger {
    const EMPTY: Ledger = Ledger {
        shelves: Shelves {
            by_size: BTreeMap::new(),
            bytes: 0,
        },
        out: 0,
        peak: 0,
    };

    /// A shelved buffer for `len` bytes, now out, with its size.
    fn take(&mut self, len: usize) -> Option<(usize, Vec<u8>)> {
        let (size, v) = self.shelves.pop(len)?;
        self.lend(size);
        Some((size, v))
    }

    fn lend(&mut self, size: usize) {
        self.out += size;
        self.peak = self.peak.max(self.out);
    }

    /// `size` bytes are no longer out. Saturating: a buffer grown past
    /// its take while out comes back to the reservoir larger than it
    /// left.
    fn settle(&mut self, size: usize) {
        self.out = self.out.saturating_sub(size);
    }

    /// A buffer of `size` came back: shelve it while the shelves stay
    /// within the high-water mark of bytes out, else hand it on.
    fn restore(&mut self, size: usize, v: Vec<u8>) -> Option<Vec<u8>> {
        self.settle(size);
        if self.shelves.bytes + size > self.peak {
            return Some(v);
        }
        self.shelves.push(size, v);
        None
    }
}

/// The process-wide level under every world's shelves. It files
/// buffers by their real capacity.
static RESERVOIR: Mutex<Ledger> = Mutex::new(Ledger::EMPTY);

/// A buffer for `len` bytes from the reservoir, or from the heap.
fn draw(len: usize) -> Vec<u8> {
    let mut reservoir = RESERVOIR.lock().unwrap();
    if let Some((_, v)) = reservoir.take(len) {
        return v;
    }
    reservoir.lend(len);
    drop(reservoir);
    Vec::with_capacity(len)
}

/// Back to the reservoir; past its bound, back to the heap.
fn restore(v: Vec<u8>) {
    let spill = RESERVOIR.lock().unwrap().restore(v.capacity(), v);
    drop(spill);
}

/// One world's pool activity. Byte counts are in sizes: each buffer
/// counts the length the world asked for when it first took it, so the
/// stats, like the hits, depend on the world's own traffic and never on
/// which buffer the reservoir handed over.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Takes no shelved buffer could serve.
    pub fresh: u64,
    /// Takes served from the shelves.
    pub hits: u64,
    /// Buffers that came back when their last handle dropped.
    pub returns: u64,
    /// Bytes on the shelves now.
    pub retained_bytes: usize,
    /// The most bytes that were out of the shelves at once.
    pub peak_out_bytes: usize,
}

#[derive(Default)]
struct Inner {
    ledger: Ledger,
    fresh: u64,
    hits: u64,
    returns: u64,
}

/// A world's shelves, shared by its handles and its buffers' owners.
/// A buffer's size on them is the length of the fresh take that first
/// drew it, whatever the real capacity the reservoir served: a take is
/// matched against sizes only, so which takes hit is a function of the
/// world.
#[derive(Default)]
struct Home(Mutex<Inner>);

impl Home {
    /// A buffer for `len` bytes, its size, and whether it was fresh.
    fn take(&self, len: usize) -> (Vec<u8>, usize, bool) {
        let mut inner = self.0.lock().unwrap();
        if let Some((size, v)) = inner.ledger.take(len) {
            inner.hits += 1;
            return (v, size, false);
        }
        inner.fresh += 1;
        inner.ledger.lend(len);
        drop(inner);
        (draw(len), len, true)
    }

    fn reclaim(&self, size: usize, buf: Vec<u8>) {
        let mut inner = self.0.lock().unwrap();
        inner.returns += 1;
        let spill = inner.ledger.restore(size, buf);
        drop(inner);
        if let Some(v) = spill {
            restore(v);
        }
    }

    fn release(&self, size: usize, capacity: usize) {
        self.0.lock().unwrap().ledger.settle(size);
        RESERVOIR.lock().unwrap().settle(capacity);
    }
}

impl Drop for Home {
    /// The world is over: its shelves go back to the reservoir.
    fn drop(&mut self) {
        let shelves = std::mem::take(&mut self.0.get_mut().unwrap().ledger.shelves);
        for v in shelves.by_size.into_values().flatten() {
            restore(v);
        }
    }
}

/// The owner of one frozen buffer: its world's shelves and its size
/// there.
struct Lent {
    home: Arc<Home>,
    size: usize,
}

impl Owner for Lent {
    fn reclaim(&self, buf: Vec<u8>) {
        self.home.reclaim(self.size, buf);
    }

    fn release(&self, capacity: usize) {
        self.home.release(self.size, capacity);
    }
}

/// Cheaply cloneable handle to one world's pool.
#[derive(Clone, Default)]
pub struct BufferPool {
    home: Arc<Home>,
}

impl BufferPool {
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty buffer with room for at least `len` bytes: a shelved
    /// one when one fits, else one drawn from the reservoir or the
    /// heap (a fresh take). A take below [`HEAP_BELOW`] is a plain,
    /// fresh heap buffer.
    pub fn take(&self, len: usize) -> PooledBuf {
        if len < HEAP_BELOW {
            return PooledBuf {
                vec: Vec::with_capacity(len),
                home: None,
                size: len,
                fresh: true,
            };
        }
        let (vec, size, fresh) = self.home.take(len);
        PooledBuf {
            vec,
            home: Some(self.home.clone()),
            size,
            fresh,
        }
    }

    /// Drop a wire buffer's handle, and say whether that brought a
    /// buffer back to this pool. Every handle does this on its own
    /// when it drops; this only reports it.
    pub fn reclaim(&self, b: Bytes) -> bool {
        let before = self.stats().returns;
        drop(b);
        self.stats().returns > before
    }

    pub fn stats(&self) -> PoolStats {
        let inner = self.home.0.lock().unwrap();
        PoolStats {
            fresh: inner.fresh,
            hits: inner.hits,
            returns: inner.returns,
            retained_bytes: inner.ledger.shelves.bytes,
            peak_out_bytes: inner.ledger.peak,
        }
    }
}

/// RAII handle to a pooled buffer. Deref/DerefMut as `Vec<u8>`; on
/// drop the buffer returns to its pool.
pub struct PooledBuf {
    vec: Vec<u8>,
    home: Option<Arc<Home>>,
    /// The buffer's size on its world's shelves.
    size: usize,
    fresh: bool,
}

impl PooledBuf {
    /// Whether this take missed the world's shelves.
    pub fn fresh(&self) -> bool {
        self.fresh
    }

    /// Detach the buffer from the pool without copying: it will not
    /// come back.
    pub fn into_vec(mut self) -> Vec<u8> {
        let v = std::mem::take(&mut self.vec);
        if let Some(home) = self.home.take() {
            home.release(self.size, v.capacity());
        }
        v
    }

    /// Convert to an immutable wire buffer without copying; it returns
    /// to the pool when its last handle drops.
    pub fn freeze(mut self) -> Bytes {
        let v = std::mem::take(&mut self.vec);
        match self.home.take() {
            Some(home) => Bytes::from_owner(
                v,
                Arc::new(Lent {
                    home,
                    size: self.size,
                }),
            ),
            None => Bytes::from(v),
        }
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
        if let Some(home) = self.home.take() {
            home.reclaim(self.size, std::mem::take(&mut self.vec));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB2: usize = 2 << 20;

    const K: usize = HEAP_BELOW;

    #[test]
    fn drop_recycles_and_take_hits() {
        let p = BufferPool::new();
        let mut b = p.take(K + 1000);
        assert!(b.fresh());
        b.extend_from_slice(&[7u8; K + 1000]);
        drop(b);
        let b2 = p.take(K + 900);
        assert!(!b2.fresh());
        assert!(b2.is_empty());
        assert!(b2.capacity() >= K + 900);
        let s = p.stats();
        assert_eq!((s.fresh, s.hits, s.returns), (1, 1, 1));
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
        let mut b = p.take(K);
        b.resize(K, 9);
        let wire = b.freeze();
        let retained = wire.slice(10..20); // e.g. ARQ retention
        assert!(!p.reclaim(wire), "a slice still views it");
        assert_eq!(p.stats().returns, 0);
        // The last handle brings it back, whichever it is.
        drop(retained);
        assert_eq!(p.stats().returns, 1);
    }

    #[test]
    fn a_miss_is_an_exact_take() {
        let p = BufferPool::new();
        drop(p.take(K));
        let b = p.take(5 * K);
        assert!(b.fresh(), "16 KiB cannot serve 80 KiB");
        assert!(b.capacity() >= 5 * K);
        // The world's books count the request, not a size class or
        // whatever larger buffer the reservoir may have served.
        assert_eq!(p.stats().peak_out_bytes, 5 * K);
    }

    #[test]
    fn class_rounding_never_under_provisions() {
        let p = BufferPool::new();
        drop(p.take(K + 1));
        assert!(
            p.take(K + 2).fresh(),
            "16 KiB + 1 B cannot serve 16 KiB + 2 B"
        );
        let b = p.take(K + 1);
        assert!(!b.fresh());
        assert!(b.capacity() > K);
    }

    #[test]
    fn a_2mib_take_is_served_by_a_retained_record_buffer() {
        let p = BufferPool::new();
        let record = p.take(MIB2 + 28);
        let ptr = record.as_ptr();
        drop(record);
        let plain = p.take(MIB2);
        assert!(!plain.fresh());
        assert_eq!(plain.as_ptr(), ptr);
        assert!(plain.capacity() >= MIB2 + 28);
    }

    #[test]
    fn a_take_is_not_served_by_a_buffer_over_twice_its_size() {
        let p = BufferPool::new();
        drop(p.take(2 * K + 1));
        assert!(p.take(K).fresh(), "32 KiB + 1 B is over twice 16 KiB");
        assert!(!p.take(2 * K + 1).fresh());
    }

    #[test]
    fn detached_buffers_leave_the_books() {
        let p = BufferPool::new();
        let v = p.take(K).into_vec();
        let b = p.take(K).freeze();
        let w = b.try_into_vec().expect("unique");
        drop((v, w));
        let s = p.stats();
        assert_eq!((s.returns, s.retained_bytes), (0, 0));
        assert_eq!(p.home.0.lock().unwrap().ledger.out, 0);
    }

    #[test]
    fn small_takes_are_plain_heap_buffers() {
        let p = BufferPool::new();
        for len in [0, 256, K - 1] {
            let b = p.take(len);
            assert!(b.fresh() && b.capacity() >= len);
            assert!(!p.reclaim(b.freeze()));
        }
        assert_eq!(p.stats(), PoolStats::default());
    }

    #[test]
    fn a_ledger_keeps_at_most_its_peak() {
        let mut l = Ledger::default();
        l.lend(1024);
        assert!(l.restore(1024, vec![0u8; 1024]).is_none());
        let big = l.take(4096);
        assert!(big.is_none(), "1 KiB cannot serve 4 KiB");
        l.lend(4096);
        assert_eq!(l.peak, 4096);
        // 1 KiB shelved + 4 KiB back = 5 KiB > the 4 KiB peak: spill.
        assert_eq!(
            l.restore(4096, vec![0u8; 4096]).map(|v| v.len()),
            Some(4096)
        );
        assert_eq!((l.shelves.bytes, l.out), (1024, 0));
    }

    #[test]
    fn a_world_files_a_buffer_by_what_it_asked_for() {
        // The reservoir may serve a fresh take with a larger buffer
        // than asked for; the world's shelves still file it under the
        // request, so a later take hits or misses on the world's own
        // traffic alone.
        let p = BufferPool::new();
        let size = 3 * K + 7;
        let mut b = p.take(size);
        b.reserve_exact(4 * size);
        drop(b);
        assert_eq!(p.stats().retained_bytes, size);
        assert!(
            p.take(2 * size + 1).fresh(),
            "over twice the request it was filed under"
        );
        assert!(!p.take(size).fresh());
    }
}
