//! Property-based tests for the completion-set wait layer: the set
//! calls (`waitall`/`waitsome`/`testany`) must be bit-exact with a
//! sequential per-request `wait` loop — chaos off and chaos+ARQ on —
//! and a pipelined sender's chunked trains must complete through every
//! wait path of a plain-config receiver without panicking.
//!
//! "Bit-exact" compares statuses and plaintexts, not virtual end
//! times: retiring requests in completion order finishes *earlier*
//! than an in-order wait loop by design. Under chaos+ARQ the receives
//! are fully specified (`Src::Is`/`TagSel::Is`) so recovery identities
//! are drawn at post time — the documented caveat: wildcard receives
//! draw their flow sequence at completion, which is completion-order
//! dependent.

use empi::aead::profile::CryptoLibrary;
use empi::mpi::{Src, TagSel, World};
use empi::netsim::{NetModel, VDur};
use empi::secure::{
    Error, FaultRates, PipelineConfig, RetransmitConfig, SecureComm, SecurityConfig,
};
use proptest::prelude::*;

const TAG0: u32 = 40;

fn cfg(pipelined: bool, chaos: Option<(u64, f64)>) -> SecurityConfig {
    let mut c = SecurityConfig::new(CryptoLibrary::BoringSsl);
    if pipelined {
        c = c.with_pipeline(
            PipelineConfig::enabled()
                .with_chunk_size(1 << 13)
                .with_workers(2),
        );
    }
    if let Some((seed, rate)) = chaos {
        c = c
            .with_faults(seed, FaultRates::uniform(rate))
            .with_retransmit(
                4,
                VDur::from_micros(150),
                RetransmitConfig::DEFAULT_BUFFER_MSGS,
            );
    }
    c
}

fn payload(i: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|j| (j.wrapping_mul(31) ^ (i * 97) ^ (j >> 7)) as u8)
        .collect()
}

/// What one receiver run produced, normalised for comparison: per-slot
/// `Ok((source, tag, plaintext))` or a typed-error marker.
type RecvOutcome = Vec<Result<(usize, u32, Vec<u8>), String>>;
/// One message slot of a [`RecvOutcome`] still being assembled.
type SlotOutcome = Option<Result<(usize, u32, Vec<u8>), String>>;

fn err_kind(e: &Error) -> String {
    match e {
        Error::Crypto(_) => "crypto".into(),
        Error::Pipeline(_) => "pipeline".into(),
        Error::LengthMismatch { .. } => "length".into(),
        Error::DeliveryFailed { .. } => "delivery".into(),
        Error::Timeout { .. } => "timeout".into(),
        Error::Key(_) => "key".into(),
        Error::RankFailed { .. } => "rank-failed".into(),
    }
}

/// Drive one world: rank 0 isends `n` messages (pipelined or plain,
/// chaos-faulted or clean), rank 1 receives them with the chosen wait
/// strategy over fully-specified irecvs posted up front.
fn run_receiver(
    n: usize,
    len: usize,
    pipelined: bool,
    chaos: Option<(u64, f64)>,
    strategy: impl Fn(&SecureComm, Vec<empi::secure::SecureRequest>) -> RecvOutcome + Sync,
) -> Result<RecvOutcome, empi::mpi::SimError> {
    let w = World::flat(NetModel::ethernet_10g(), 2);
    let out = w.try_run(move |c| {
        let sc = SecureComm::new(c, cfg(pipelined, chaos)).unwrap();
        if c.rank() == 0 {
            let reqs: Vec<_> = (0..n)
                .map(|i| sc.isend(&payload(i, len), 1, TAG0 + i as u32))
                .collect();
            for r in reqs {
                if sc.wait(r).is_err() {
                    // Send-side delivery failures surface on the
                    // receive side too; keep draining.
                }
            }
            sc.pump(sc.recovery_window());
            Vec::new()
        } else {
            let reqs: Vec<_> = (0..n)
                .map(|i| sc.irecv(Src::Is(0), TagSel::Is(TAG0 + i as u32)))
                .collect();
            let res = strategy(&sc, reqs);
            sc.pump(sc.recovery_window());
            res
        }
    })?;
    Ok(out.results.into_iter().nth(1).unwrap())
}

fn sequential(sc: &SecureComm, reqs: Vec<empi::secure::SecureRequest>) -> RecvOutcome {
    reqs.into_iter()
        .map(|r| {
            sc.wait(r)
                .map(|(st, d)| (st.source, st.tag, d.unwrap_or_default().into()))
                .map_err(|e| err_kind(&e))
        })
        .collect()
}

fn via_waitall(sc: &SecureComm, reqs: Vec<empi::secure::SecureRequest>) -> RecvOutcome {
    let n = reqs.len();
    match sc.waitall(reqs) {
        Ok(res) => res
            .into_iter()
            .map(|(st, d)| Ok((st.source, st.tag, d.unwrap_or_default().into())))
            .collect(),
        Err(e) => vec![Err(err_kind(&e)); n],
    }
}

fn via_waitsome(sc: &SecureComm, reqs: Vec<empi::secure::SecureRequest>) -> RecvOutcome {
    let n = reqs.len();
    let mut pending = reqs;
    // Positions in `pending` shift as completions are drained; track
    // which original slot each pending entry corresponds to.
    let mut slot_of: Vec<usize> = (0..n).collect();
    let mut out: Vec<SlotOutcome> = vec![None; n];
    while !pending.is_empty() {
        match sc.waitsome(&mut pending) {
            Ok(done) => {
                // Indices refer to positions at call time, and entries
                // are retired in completion order; map them back to
                // original slots, then compact the survivor map.
                let retired: Vec<usize> = done.iter().map(|&(i, ..)| i).collect();
                for (i, st, d) in done {
                    out[slot_of[i]] = Some(Ok((st.source, st.tag, d.unwrap_or_default().into())));
                }
                let mut kept = Vec::with_capacity(pending.len());
                for (pos, slot) in slot_of.iter().enumerate() {
                    if !retired.contains(&pos) {
                        kept.push(*slot);
                    }
                }
                slot_of = kept;
            }
            Err(e) => {
                // A failed open aborts the call; surviving requests are
                // still in `pending`, but completed siblings were
                // dropped — mark every unresolved slot with the error.
                let kind = err_kind(&e);
                for slot in out.iter_mut().filter(|s| s.is_none()) {
                    *slot = Some(Err(kind.clone()));
                }
                return out.into_iter().map(|s| s.unwrap()).collect();
            }
        }
    }
    out.into_iter().map(|s| s.unwrap()).collect()
}

/// A testany spin loop with a waitany fallback: pure testany never
/// advances virtual time, so the fallback is what moves the clock.
fn via_testany(sc: &SecureComm, reqs: Vec<empi::secure::SecureRequest>) -> RecvOutcome {
    let n = reqs.len();
    let mut pending = reqs;
    let mut slot_of: Vec<usize> = (0..n).collect();
    let mut out: Vec<SlotOutcome> = vec![None; n];
    while !pending.is_empty() {
        let step = match sc.testany(&mut pending) {
            Ok(Some(done)) => Ok(done),
            // Nothing complete at the current instant: block for the
            // next completion instead of spinning in frozen time.
            Ok(None) => sc.waitany(&mut pending),
            Err(e) => Err(e),
        };
        match step {
            Ok((i, st, d)) => {
                out[slot_of.remove(i)] =
                    Some(Ok((st.source, st.tag, d.unwrap_or_default().into())));
            }
            Err(e) => {
                let kind = err_kind(&e);
                for slot in out.iter_mut().filter(|s| s.is_none()) {
                    *slot = Some(Err(kind.clone()));
                }
                return out.into_iter().map(|s| s.unwrap()).collect();
            }
        }
    }
    out.into_iter().map(|s| s.unwrap()).collect()
}

/// Compare a set-call outcome against the sequential baseline: every
/// successfully delivered slot must be bit-exact; error slots must
/// error in the baseline's world too (the typed kind may differ only
/// in which call observed the failure first, so kinds are not
/// compared for partial failures — but Ok/Err shape per slot is).
fn assert_matches(tag: &str, set: &RecvOutcome, seq: &RecvOutcome) {
    assert_eq!(set.len(), seq.len(), "{tag}: slot count diverged");
    let any_err = set.iter().chain(seq.iter()).any(|r| r.is_err());
    for (i, (a, b)) in set.iter().zip(seq).enumerate() {
        match (a, b) {
            (Ok(x), Ok(y)) => assert_eq!(x, y, "{tag}: slot {i} plaintext diverged"),
            // A failed open aborts a set call wholesale while the
            // sequential loop pinpoints the one bad slot — so once any
            // error is in play, mixed Ok/Err per slot is legal. What
            // is never legal is both-clean runs disagreeing.
            _ => assert!(any_err, "{tag}: slot {i} Ok/Err shape diverged"),
        }
    }
}

proptest! {
    // Each case runs two whole simulated worlds; keep counts modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Chaos off: set calls must agree with the sequential wait loop
    /// exactly, for plain and pipelined senders alike.
    #[test]
    fn set_calls_match_sequential_waits_clean(
        n in 1usize..10,
        len in 1usize..20_000,
        pipelined in any::<bool>(),
    ) {
        let seq = run_receiver(n, len, pipelined, None, sequential).unwrap();
        for (tag, strat) in [
            ("waitall", via_waitall as fn(&SecureComm, Vec<empi::secure::SecureRequest>) -> RecvOutcome),
            ("waitsome", via_waitsome),
            ("testany", via_testany),
        ] {
            let set = run_receiver(n, len, pipelined, None, strat).unwrap();
            assert_matches(tag, &set, &seq);
            // Clean runs may not error at all.
            prop_assert!(set.iter().all(|r| r.is_ok()), "{} errored on a clean world", tag);
        }
        for (i, r) in seq.iter().enumerate() {
            let want = payload(i, len);
            prop_assert_eq!(r.as_ref().unwrap().2.as_slice(), want.as_slice());
        }
    }

    /// Chaos + ARQ: same comparison under seeded fault plans. Fault
    /// verdicts are keyed by flow/chunk/attempt, not by wall order, so
    /// twin worlds see the same faults regardless of wait strategy.
    #[test]
    fn set_calls_match_sequential_waits_under_chaos(
        seed in any::<u64>(),
        rate in 0.0f64..0.12,
        n in 1usize..8,
        len in 1usize..12_000,
        pipelined in any::<bool>(),
    ) {
        let chaos = Some((seed, rate));
        let seq = run_receiver(n, len, pipelined, chaos, sequential)
            .expect("sequential waits must never deadlock under ARQ");
        for (tag, strat) in [
            ("waitall", via_waitall as fn(&SecureComm, Vec<empi::secure::SecureRequest>) -> RecvOutcome),
            ("waitsome", via_waitsome),
            ("testany", via_testany),
        ] {
            let set = run_receiver(n, len, pipelined, chaos, strat)
                .expect("set calls must never deadlock under ARQ");
            assert_matches(tag, &set, &seq);
        }
    }

    /// The acceptance path: a pipelined sender and a *plain-config*
    /// receiver exercising `wait`, `waitany`, and `waitall` on chunked
    /// trains — correct plaintexts, no panic, for any geometry.
    #[test]
    fn plain_receiver_completes_pipelined_sender_via_every_wait(
        len in 1usize..40_000,
        chunk_pow in 10u32..15,
    ) {
        let w = World::flat(NetModel::ethernet_10g(), 2);
        let out = w.try_run(move |c| {
            let local = if c.rank() == 0 {
                cfg(false, None).with_pipeline(
                    PipelineConfig::enabled()
                        .with_chunk_size(1 << chunk_pow)
                        .with_workers(2),
                )
            } else {
                cfg(false, None) // pipelining off: still must open chunked trains
            };
            let sc = SecureComm::new(c, local).unwrap();
            if c.rank() == 0 {
                for i in 0..3u32 {
                    let r = sc.isend(&payload(i as usize, len), 1, TAG0 + i);
                    sc.wait(r).unwrap();
                }
                true
            } else {
                // wait
                let r = sc.irecv(Src::Is(0), TagSel::Is(TAG0));
                let (_, d) = sc.wait(r).unwrap();
                let ok0 = d.unwrap() == payload(0, len);
                // waitany
                let mut reqs = vec![sc.irecv(Src::Is(0), TagSel::Is(TAG0 + 1))];
                let (_, _, d) = sc.waitany(&mut reqs).unwrap();
                let ok1 = d.unwrap() == payload(1, len);
                // waitall
                let reqs = vec![sc.irecv(Src::Is(0), TagSel::Is(TAG0 + 2))];
                let res = sc.waitall(reqs).unwrap();
                let ok2 = res[0].1.as_deref() == Some(&payload(2, len)[..]);
                ok0 && ok1 && ok2
            }
        });
        let out = out.expect("mixed-config waits must not deadlock");
        prop_assert!(out.results.iter().all(|&b| b));
    }
}
