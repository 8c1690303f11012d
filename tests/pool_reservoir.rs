//! The buffer pool's reservoir outlives the world: a second world of the
//! same traffic in the same process draws every 2 MiB buffer from it
//! and makes no heap allocation, while its trace — the `alloc/*`
//! markers, which follow the world's own shelves — reads exactly as the
//! first world's.
//!
//! One test in its own binary: the allocator below counts every large
//! heap allocation of the process, and the reservoir is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use empi::aead::profile::CryptoLibrary;
use empi::mpi::{Src, TagSel, World};
use empi::netsim::NetModel;
use empi::secure::{PipelineConfig, SecureComm, SecurityConfig};

const MIB2: usize = 2 << 20;

/// Counts heap allocations the size of a 2 MiB message buffer, with
/// room for a record's or a frame train's overhead.
struct Counting;

static LARGE: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if (MIB2..MIB2 + (64 << 10)).contains(&layout.size()) {
            LARGE.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// One traced world: a window of 2 MiB records, a pipelined 2 MiB
/// message and a plain 2 MiB copy from rank 0 to rank 1. Returns the
/// `alloc/*` markers as (rank, virtual ns, name, bytes).
fn world(msg: &[u8]) -> Vec<(u32, u64, String, u64)> {
    let out = World::flat(NetModel::ethernet_10g(), 2)
        .traced(true)
        .run(|c| {
            let base = SecurityConfig::new(CryptoLibrary::BoringSsl).with_deterministic_nonces(7);
            let sc = SecureComm::new(c, base.clone()).unwrap();
            let piped = SecureComm::new(c, base.with_pipeline(PipelineConfig::enabled())).unwrap();
            if c.rank() == 0 {
                let window: Vec<_> = (0..4).map(|t| sc.isend(msg, 1, t)).collect();
                sc.waitall(window).unwrap();
                piped.send(msg, 1, 9);
                c.send(msg, 1, 10);
            } else {
                let window: Vec<_> = (0..4)
                    .map(|t| sc.irecv(Src::Is(0), TagSel::Is(t)))
                    .collect();
                for (_, got) in sc.waitall(window).unwrap() {
                    assert!(got.unwrap() == msg);
                }
                assert!(piped.recv(Src::Is(0), TagSel::Is(9)).unwrap().1 == msg);
                assert!(c.recv(Src::Is(0), TagSel::Is(10)).1 == msg);
            }
        });
    let trace = out.trace.expect("traced world");
    trace
        .events
        .iter()
        .filter(|e| e.name.starts_with("alloc/"))
        .map(|e| (e.tid, e.ts_ns, e.name.to_string(), e.bytes))
        .collect()
}

#[test]
fn a_second_world_takes_its_2mib_buffers_from_the_reservoir() {
    let msg: Vec<u8> = (0..MIB2).map(|i| (i * 7 + 1) as u8).collect();
    let before = LARGE.load(Ordering::Relaxed);
    let first = world(&msg);
    let during_first = LARGE.load(Ordering::Relaxed) - before;
    assert!(during_first > 0, "the first world allocates its buffers");
    let second = world(&msg);
    let during_second = LARGE.load(Ordering::Relaxed) - before - during_first;
    assert_eq!(
        during_second, 0,
        "the second world's 2 MiB takes hit the heap"
    );
    assert!(first.iter().any(|m| m.2 == "alloc/fresh"));
    assert_eq!(first, second, "alloc/* markers differ between the worlds");
}
