//! A one-carrier world is the calling thread alone. This file holds a
//! single test so that no other test's threads share the process while
//! it counts them.

use empi_netsim::{Engine, VDur};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .count()
}

/// Every rank, and every item of every rank's fork-join, runs on the
/// calling thread, and no thread is spawned for any of them.
#[test]
fn one_carrier_runs_every_rank_on_the_calling_thread() {
    let (caller, before) = (std::thread::current().id(), threads());
    let out = Engine::new(8).run(|h| {
        h.advance(VDur(1 + h.rank() as u64));
        let mut items = vec![None; 5];
        h.par_each(&mut items, |_, item| {
            *item = Some((std::thread::current().id(), threads()));
        });
        let mut seen = vec![(std::thread::current().id(), threads())];
        seen.extend(items.into_iter().flatten());
        h.advance(VDur(1));
        seen
    });
    for (rank, seen) in out.results.into_iter().enumerate() {
        assert_eq!(seen.len(), 6, "rank {rank} lost a fork-join item");
        for (id, during) in seen {
            assert_eq!(id, caller, "rank {rank} ran off the calling thread");
            assert_eq!(during, before, "rank {rank} saw a thread spawned for it");
        }
    }
    assert_eq!(threads(), before);
}
