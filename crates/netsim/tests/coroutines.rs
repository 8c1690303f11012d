//! What a rank's coroutine stack has to bear: a backtrace walked from
//! inside it, a panic hook that takes one, and deep recursion.

use std::backtrace::{Backtrace, BacktraceStatus};
use std::hint::black_box;
use std::sync::Mutex;

use empi_netsim::{Engine, SimError, VDur};

#[test]
fn a_rank_can_capture_a_backtrace() {
    for shards in [1, 2] {
        let out = Engine::new(3).shards(shards).run(|h| {
            h.advance(VDur(1));
            let bt = Backtrace::force_capture();
            h.advance(VDur(1));
            (
                bt.status() == BacktraceStatus::Captured,
                bt.to_string().len(),
            )
        });
        for (captured, len) in out.results {
            assert!(captured && len > 0, "shards={shards}: nothing captured");
        }
    }
}

#[test]
fn a_panic_under_a_backtrace_hook_is_a_typed_rank_panic() {
    let seen: &'static Mutex<Vec<String>> = Box::leak(Box::default());
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let bt = Backtrace::force_capture();
        seen.lock().unwrap().push(format!("{info}\n{bt}"));
    }));
    let err = Engine::new(4)
        .try_run(|h| {
            h.advance(VDur(10));
            if h.rank() == 2 {
                panic!("rank two gives up");
            }
            h.block_on::<()>("forever", || None);
        })
        .unwrap_err();
    std::panic::set_hook(prev);
    match err {
        SimError::RankPanic { rank, message } => {
            assert_eq!(rank, 2);
            assert!(message.contains("rank two gives up"), "got: {message}");
        }
        e => panic!("expected a rank panic, got {e}"),
    }
    let seen = seen.lock().unwrap();
    assert!(
        seen.iter().any(|s| s.contains("rank two gives up")),
        "the hook never ran: {seen:?}"
    );
}

/// Recurse `depth` frames of at least 4 KiB each; returns the lowest
/// stack address reached.
fn dig(depth: usize) -> usize {
    let mut frame = [0u8; 4096];
    black_box(&mut frame);
    let here = frame.as_ptr() as usize;
    if depth == 0 {
        return here;
    }
    let deepest = dig(depth - 1);
    black_box(frame[depth % frame.len()]);
    deepest.min(here)
}

#[test]
fn a_rank_recurses_through_a_mebibyte_of_stack() {
    let out = Engine::new(2).run(|h| {
        h.advance(VDur(1));
        let top = &h as *const _ as usize;
        let used = top - dig(272);
        h.advance(VDur(1));
        used
    });
    for used in out.results {
        assert!(used >= 1 << 20, "only {used} bytes of stack used");
    }
}
