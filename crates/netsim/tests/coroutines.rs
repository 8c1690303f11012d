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
    // A static, so the hook can outlive the test without a leak.
    static SEEN: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|info| {
        let bt = Backtrace::force_capture();
        SEEN.lock().unwrap().push(format!("{info}\n{bt}"));
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
    let seen = SEEN.lock().unwrap();
    assert!(
        seen.iter().any(|s| s.contains("rank two gives up")),
        "the hook never ran: {seen:?}"
    );
}

/// Recurse `depth` frames of at least 4 KiB each; returns the lowest
/// stack pointer and the lowest frame address reached.
fn dig(depth: usize) -> (usize, usize) {
    let mut frame = [0u8; 4096];
    black_box(&mut frame);
    let here = frame.as_ptr() as usize;
    if depth == 0 {
        let sp: usize;
        // SAFETY: reads the stack pointer into a register; nothing else.
        unsafe { std::arch::asm!("mov {}, rsp", out(reg) sp, options(nomem, nostack)) };
        return (sp, here);
    }
    let (sp, deepest) = dig(depth - 1);
    black_box(frame[depth % frame.len()]);
    (sp, deepest.min(here))
}

/// The recursion runs on the rank's own stack, and its 4 KiB frames
/// reach a mebibyte below that stack's top. ASan's fake stack moves
/// address-taken frames off the rank stack (`detect_stack_use_after_return`);
/// there the frames' depth is ASan's, and only the stack pointer is the
/// rank stack's.
#[test]
fn a_rank_recurses_through_a_mebibyte_of_stack() {
    let out = Engine::new(2).run(|h| {
        h.advance(VDur(1));
        let stack = h.stack();
        let (sp, deepest) = dig(272);
        h.advance(VDur(1));
        (stack, sp, deepest)
    });
    for (stack, sp, deepest) in out.results {
        assert!(stack.len() >= 2 << 20, "a {}-byte rank stack", stack.len());
        assert!(
            stack.contains(&sp),
            "the recursion ran at {sp:#x}, off the rank stack {stack:x?}"
        );
        if stack.contains(&deepest) {
            let used = stack.end - deepest;
            assert!(used >= 1 << 20, "only {used} bytes of stack used");
        }
    }
}
