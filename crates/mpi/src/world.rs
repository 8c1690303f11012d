//! World construction: spin up N ranks on a fabric and run MPI code.

use std::cell::Cell;
use std::sync::Arc;

use empi_netsim::{
    CrashKind, CrashPlan, Engine, Fabric, FabricStats, MetricsSnapshot, NetModel, Recorder,
    SimError, SimHandle, SloConfig, Topology, TraceReport, VTime,
};
use parking_lot::Mutex;

use crate::comm::Comm;
use crate::ftol::{DetectorConfig, FtolState};
use crate::state::SharedState;

/// A simulated MPI world: rank placement plus interconnect model.
pub struct World {
    model: NetModel,
    topology: Topology,
    shards: Option<usize>,
    traced: bool,
    metered: bool,
    slo: Option<SloConfig>,
    ftol: Option<DetectorConfig>,
    crash: CrashPlan,
}

/// What a finished run returns.
#[derive(Debug)]
pub struct WorldOutcome<T> {
    /// Per-rank results, in rank order.
    pub results: Vec<T>,
    /// The virtual time at which the last rank finished.
    pub end_time: VTime,
    /// Transport statistics.
    pub fabric: FabricStats,
    /// Scheduler yields (simulation overhead metric).
    pub yields: u64,
    /// The yields that changed threads (the rest kept the token).
    pub handoffs: u64,
    /// Per-rank metrics, event timeline, and byte ledgers; `Some` only
    /// when the world was built with [`World::traced`].
    pub trace: Option<TraceReport>,
    /// Latency histograms, flight-recorder flows, and the SLO verdict;
    /// `Some` only when the world was built with
    /// [`World::with_metrics`].
    pub metrics: Option<MetricsSnapshot>,
}

/// What a fault-tolerant run ([`World::try_run_ft`]) returns: like
/// [`WorldOutcome`], but per-rank results are `None` for ranks the
/// crash plan killed, and the executed deaths are reported.
#[derive(Debug)]
pub struct FtWorldOutcome<T> {
    /// Per-rank results in rank order; `None` for ranks that died
    /// before their closure returned.
    pub results: Vec<Option<T>>,
    /// Executed deaths in rank order: `Some((time, kind))` for ranks
    /// the crash plan actually killed.
    pub deaths: Vec<Option<(VTime, CrashKind)>>,
    /// The virtual time at which the last rank finished.
    pub end_time: VTime,
    /// Transport statistics.
    pub fabric: FabricStats,
    /// Scheduler yields (simulation overhead metric).
    pub yields: u64,
    /// The yields that changed threads (the rest kept the token).
    pub handoffs: u64,
    /// Per-rank metrics and timeline; `Some` only with [`World::traced`].
    pub trace: Option<TraceReport>,
    /// Histograms and counters; `Some` only with [`World::with_metrics`].
    pub metrics: Option<MetricsSnapshot>,
}

/// The `EMPI_SHARDS` fallback: unset, empty, or unparsable means 1.
fn shards_from_env() -> usize {
    std::env::var("EMPI_SHARDS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .map_or(1, |s| s.max(1))
}

impl World {
    /// A world with the given placement and network model.
    pub fn new(model: NetModel, topology: Topology) -> Self {
        World {
            model,
            topology,
            shards: None,
            traced: false,
            metered: false,
            slo: None,
            ftol: None,
            crash: CrashPlan::new(),
        }
    }

    /// Convenience: `n` ranks, one per node, on the given model.
    pub fn flat(model: NetModel, n: usize) -> Self {
        World::new(model, Topology::one_per_node(n))
    }

    /// Let up to `s` detached closures — ranks' heavy host work
    /// (crypto, kernel math) — run concurrently on real cores. Results
    /// are bit-identical for every `s`: the lane count changes
    /// wall-clock time only (see DESIGN.md §15). Defaults to the
    /// `EMPI_SHARDS` environment variable, then 1 (fully serial).
    pub fn with_shards(mut self, s: usize) -> Self {
        self.shards = Some(s.max(1));
        self
    }

    /// The lane count this world will run with: explicit
    /// [`World::with_shards`] first, then `EMPI_SHARDS`, then 1.
    pub fn shards(&self) -> usize {
        self.shards.unwrap_or_else(shards_from_env)
    }

    /// Collect a [`TraceReport`] for the run: per-rank wait/host/crypto
    /// metrics, fabric transfer events, NIC busy lanes, and per-pair
    /// byte ledgers — the recorder's span sink. Off by default.
    pub fn traced(mut self, on: bool) -> Self {
        self.traced = on;
        self
    }

    /// Collect a [`MetricsSnapshot`] for the run: per-message latency
    /// histograms, seal/open service times, ARQ repair tails, and the
    /// per-flow flight recorder — the recorder's distribution sink.
    /// Off by default. Recording never moves a virtual clock, so
    /// timing and wire bytes are bit-identical to an unmetered run.
    pub fn with_metrics(mut self, on: bool) -> Self {
        self.metered = on;
        self
    }

    /// Install an SLO watchdog (implies [`World::with_metrics`]):
    /// evaluated in virtual time at end of run, with the verdict
    /// embedded in the snapshot and — when tracing is also on — in the
    /// trace itself: a `health/verdict` span at end time on rank 0's
    /// lane, after one `health/*` span per violation.
    pub fn with_slo(mut self, cfg: SloConfig) -> Self {
        self.metered = true;
        self.slo = Some(cfg);
        self
    }

    /// Arm the lease-based failure detector on every rank with the
    /// given timing. Armed-but-idle it costs zero virtual time and
    /// zero wire bytes (detection work happens only at quiescence, a
    /// state a healthy run never reaches), so clean runs are
    /// bit-identical to an unarmed world. Required for the ft verbs
    /// ([`Comm::ft_send`], [`Comm::ft_recv`], [`Comm::agree`],
    /// [`Comm::shrink`]).
    pub fn with_ftol(mut self, cfg: DetectorConfig) -> Self {
        self.ftol = Some(cfg);
        self
    }

    /// Install a crash plan: the named ranks die (crash or hang) at
    /// their scheduled virtual times. Use [`World::try_run_ft`] to run
    /// under a plan — the plain runners treat any death as fatal.
    pub fn crash_plan(mut self, plan: CrashPlan) -> Self {
        self.crash = plan;
        self
    }

    /// Number of ranks.
    pub fn n_ranks(&self) -> usize {
        self.topology.n_ranks()
    }

    /// Build the fabric, shared state, and engine for a run.
    fn prepare(&self) -> (Arc<Mutex<SharedState>>, Engine) {
        let n = self.topology.n_ranks();
        let mut fabric = Fabric::new(self.model.clone(), self.topology.clone());
        // One recorder, built from the sinks this world asked for; a
        // world that asked for neither installs none.
        let recorder = (self.traced || self.metered)
            .then(|| Recorder::new(n, self.traced, self.metered, self.slo.clone()));
        // The fabric only feeds the span sink (transfers, NIC lanes).
        if let Some(r) = recorder.as_ref().filter(|_| self.traced) {
            fabric.set_tracer(r.clone());
        }
        let shared = Arc::new(Mutex::new(SharedState::new(fabric)));
        let diag_shared = Arc::clone(&shared);
        let diag_recorder = recorder.clone();
        let mut engine = Engine::new(n)
            .shards(self.shards())
            .crash_plan(self.crash.clone())
            .diagnostics(
                // Runs inside the scheduler's deadlock panic, where a rank
                // may still hold the state lock — try_lock, never lock
                // (flight_tail uses try_lock internally for the same
                // reason).
                move |r| {
                    let mut line = match diag_shared.try_lock() {
                        Some(s) => s.queue_report(r),
                        None => "state locked".to_string(),
                    };
                    if let Some(tail) = diag_recorder.as_ref().and_then(|m| m.flight_tail(r, 4)) {
                        line.push_str("; ");
                        line.push_str(&tail);
                    }
                    line
                },
            );
        if let Some(r) = recorder {
            engine = engine.recorder(r);
        }
        (shared, engine)
    }

    /// The one launcher behind the runners: build the world, hand the
    /// engine and the per-rank closure (a [`Comm`] around each handle)
    /// to `run`, and read the fabric statistics once it returns.
    fn launch<T, O>(
        &self,
        f: impl Fn(&Comm) -> T + Sync,
        run: impl FnOnce(&Engine, &(dyn Fn(&SimHandle) -> T + Sync)) -> Result<O, SimError>,
    ) -> Result<(O, FabricStats), SimError> {
        let (shared, engine) = self.prepare();
        let out = run(&engine, &|h| {
            f(&Comm {
                h,
                shared: Arc::clone(&shared),
                coll_seq: Cell::new(0),
                ftol: self.ftol.map(FtolState::new),
            })
        })?;
        let fabric = shared.lock().fabric.stats();
        Ok((out, fabric))
    }

    /// Run `f` on every rank; returns when all ranks finish.
    pub fn run<T, F>(&self, f: F) -> WorldOutcome<T>
    where
        T: Send,
        F: Fn(&Comm) -> T + Sync,
    {
        self.try_run(f).unwrap_or_else(|e| e.abort())
    }

    /// Like [`World::run`], but surfaces deadlocks and rank panics as
    /// a typed [`SimError`] instead of panicking — the deadlock variant
    /// carries the per-rank queue diagnostics (`unexpected=…, posted=…`)
    /// so chaos tests can assert on them.
    pub fn try_run<T, F>(&self, f: F) -> Result<WorldOutcome<T>, SimError>
    where
        T: Send,
        F: Fn(&Comm) -> T + Sync,
    {
        let (out, fabric) = self.launch(f, |engine, g| engine.try_run(g))?;
        Ok(WorldOutcome {
            results: out.results,
            end_time: out.end_time,
            fabric,
            yields: out.yields,
            handoffs: out.handoffs,
            trace: out.trace,
            metrics: out.metrics,
        })
    }

    /// Run `f` on every rank under the installed crash plan: ranks the
    /// plan kills simply stop (their result is `None`), survivors keep
    /// running and see the death through the ft verbs as typed
    /// [`crate::RankFailed`] errors. This is the only runner that
    /// tolerates executed deaths — [`World::run`] and
    /// [`World::try_run`] treat a killed rank as fatal.
    pub fn try_run_ft<T, F>(&self, f: F) -> Result<FtWorldOutcome<T>, SimError>
    where
        T: Send,
        F: Fn(&Comm) -> T + Sync,
    {
        let (out, fabric) = self.launch(f, |engine, g| engine.try_run_ft(g))?;
        Ok(FtWorldOutcome {
            results: out.results,
            deaths: out.deaths,
            end_time: out.end_time,
            fabric,
            yields: out.yields,
            handoffs: out.handoffs,
            trace: out.trace,
            metrics: out.metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Src, TagSel};
    use empi_netsim::NetModel;

    #[test]
    fn two_rank_round_trip() {
        let w = World::flat(NetModel::instant(), 2);
        let out = w.run(|c| {
            if c.rank() == 0 {
                c.send(b"hello", 1, 7);
                let (st, data) = c.recv(Src::Is(1), TagSel::Is(8));
                assert_eq!(&data[..], b"world");
                assert_eq!(st.source, 1);
                st.len
            } else {
                let (st, data) = c.recv(Src::Is(0), TagSel::Is(7));
                assert_eq!(&data[..], b"hello");
                assert_eq!(st.tag, 7);
                c.send(b"world", 0, 8);
                st.len
            }
        });
        assert_eq!(out.results, vec![5, 5]);
        assert_eq!(out.fabric.messages, 2);
    }

    #[test]
    fn pingpong_time_matches_calibration() {
        // One blocking round trip of `s` bytes must take exactly
        // 2 × pp_curve(s) of virtual time.
        for s in [1usize, 1024, 2 << 20] {
            let model = NetModel::ethernet_10g();
            let expect_oneway = model.pp_curve.time_ns(s);
            let w = World::flat(model, 2);
            let out = w.run(|c| {
                let buf = vec![0u8; s];
                if c.rank() == 0 {
                    c.send(&buf, 1, 0);
                    let _ = c.recv(Src::Is(1), TagSel::Is(1));
                } else {
                    let (_, data) = c.recv(Src::Is(0), TagSel::Is(0));
                    c.send(&data, 0, 1);
                }
            });
            let rtt = out.end_time.as_nanos();
            let expect = 2 * expect_oneway;
            let err = (rtt as f64 - expect as f64).abs() / expect as f64;
            assert!(
                err < 0.01,
                "size {s}: rtt {rtt} vs expected {expect} (err {err:.3})"
            );
        }
    }

    #[test]
    fn any_source_any_tag() {
        let w = World::flat(NetModel::instant(), 3);
        let out = w.run(|c| {
            if c.rank() == 0 {
                let mut seen = vec![];
                for _ in 0..2 {
                    let (st, data) = c.recv(Src::Any, TagSel::Any);
                    seen.push((st.source, st.tag, data.len()));
                }
                seen.sort();
                seen
            } else {
                c.send(&vec![0u8; c.rank()], 0, c.rank() as u32 * 10);
                vec![]
            }
        });
        assert_eq!(out.results[0], vec![(1, 10, 1), (2, 20, 2)]);
    }

    #[test]
    fn nonblocking_window() {
        let w = World::flat(NetModel::ethernet_10g(), 2);
        let n_msgs = 16;
        let out = w.run(|c| {
            if c.rank() == 0 {
                let reqs: Vec<_> = (0..n_msgs)
                    .map(|i| c.isend(&[i as u8; 64], 1, i as u32))
                    .collect();
                c.waitall(reqs);
                0usize
            } else {
                let reqs: Vec<_> = (0..n_msgs)
                    .map(|i| c.irecv(Src::Is(0), TagSel::Is(i as u32)))
                    .collect();
                let res = c.waitall(reqs);
                res.iter()
                    .map(|(st, data)| {
                        let d = data.as_ref().unwrap();
                        assert_eq!(d[0] as u32, st.tag);
                        d.len()
                    })
                    .sum()
            }
        });
        assert_eq!(out.results[1], 16 * 64);
    }

    #[test]
    fn rendezvous_large_message() {
        let model = NetModel::ethernet_10g();
        let big = model.eager_threshold + 1;
        let w = World::flat(model, 2);
        let out = w.run(|c| {
            if c.rank() == 0 {
                // Delay the send so the receive is posted first.
                c.compute(empi_netsim::VDur::from_micros(500));
                c.send(&vec![0xAB; big], 1, 3);
                0
            } else {
                let (st, data) = c.recv(Src::Is(0), TagSel::Is(3));
                assert!(data.iter().all(|&b| b == 0xAB));
                st.len
            }
        });
        assert_eq!(out.results[1], big);
    }

    #[test]
    fn rendezvous_sender_first() {
        let model = NetModel::ethernet_10g();
        let big = model.eager_threshold * 2;
        let w = World::flat(model, 2);
        let out = w.run(|c| {
            if c.rank() == 0 {
                c.send(&vec![1u8; big], 1, 0);
                c.now().as_nanos()
            } else {
                // Receiver arrives late: transfer starts at our post time.
                c.compute(empi_netsim::VDur::from_micros(2_000));
                let (_, data) = c.recv(Src::Is(0), TagSel::Is(0));
                assert_eq!(data.len(), big);
                c.now().as_nanos()
            }
        });
        // The sender must have blocked until the receiver showed up.
        assert!(
            out.results[0] > 2_000_000,
            "sender finished at {}",
            out.results[0]
        );
    }

    #[test]
    fn message_order_preserved_same_pair() {
        let w = World::flat(NetModel::instant(), 2);
        let out = w.run(|c| {
            if c.rank() == 0 {
                for i in 0..20u8 {
                    c.send(&[i], 1, 5);
                }
                vec![]
            } else {
                (0..20)
                    .map(|_| c.recv(Src::Is(0), TagSel::Is(5)).1[0])
                    .collect::<Vec<u8>>()
            }
        });
        assert_eq!(out.results[1], (0..20).collect::<Vec<u8>>());
    }

    #[test]
    fn typed_transfers() {
        let w = World::flat(NetModel::instant(), 2);
        let out = w.run(|c| {
            if c.rank() == 0 {
                c.send_t(&[1.5f64, 2.5, -3.0], 1, 0);
                0.0
            } else {
                let (_, v) = c.recv_vec::<f64>(Src::Is(0), TagSel::Is(0));
                v.iter().sum::<f64>()
            }
        });
        assert_eq!(out.results[1], 1.0);
    }

    #[test]
    fn traced_world_records_decomposition_and_balanced_ledgers() {
        let model = NetModel::ethernet_10g();
        let big = model.eager_threshold * 2; // rendezvous path
        let w = World::flat(model, 2).traced(true);
        let out = w.run(|c| {
            let buf = vec![7u8; big];
            if c.rank() == 0 {
                c.send(&buf, 1, 0);
                let _ = c.recv(Src::Is(1), TagSel::Is(1));
            } else {
                let (_, data) = c.recv(Src::Is(0), TagSel::Is(0));
                c.send(&data, 0, 1);
            }
        });
        let tr = out.trace.expect("traced world must return a report");
        assert_eq!(tr.n_ranks, 2);
        assert_eq!(tr.transfers, 2);
        // Conservation: every byte the fabric carried was delivered.
        for ((s, d), flow) in &tr.pairs {
            assert_eq!(
                flow.tx_bytes, flow.rx_bytes,
                "pair ({s},{d}): tx {} != rx {}",
                flow.tx_bytes, flow.rx_bytes
            );
            assert_eq!(flow.tx_msgs, flow.rx_msgs);
        }
        assert_eq!(tr.pair(0, 1).tx_bytes, big as u64);
        // Both sides charged host overhead and spent time on the wire;
        // someone waited for the rendezvous to complete.
        let d = tr.decomposition();
        assert!(d.host_ns > 0, "host overhead not recorded");
        assert!(d.wire_ns > 0, "wire time not recorded");
        assert!(d.wait_ns > 0, "rendezvous wait not recorded");
        // Transfers were attributed to the p2p op labels.
        assert!(
            tr.events.iter().any(|e| e.name.starts_with("p2p/")),
            "no p2p-labelled events in {:?}",
            tr.events.iter().map(|e| &e.name).collect::<Vec<_>>()
        );
    }

    #[test]
    fn slo_verdict_reaches_the_trace_it_judges() {
        // Regression: the run used to drain the event rings before the
        // SLO watchdog emitted its health/* events into them, so no
        // trace ever carried one.
        let w = World::flat(NetModel::ethernet_10g(), 2)
            .traced(true)
            .with_slo(crate::SloConfig::default());
        let out = w.run(|c| {
            if c.rank() == 0 {
                c.send(b"ping", 1, 0);
            } else {
                let _ = c.recv(Src::Is(0), TagSel::Is(0));
            }
        });
        let snap = out.metrics.expect("with_slo implies a snapshot");
        assert_eq!(snap.slo.verdict(), "pass");
        let tr = out.trace.expect("traced world must return a report");
        let health: Vec<_> = tr
            .events
            .iter()
            .filter(|e| e.name.starts_with("health/"))
            .map(|e| (e.name.as_str(), e.ts_ns, e.tid, e.detail.as_str()))
            .collect();
        let end = out.end_time.as_nanos();
        assert_eq!(
            health,
            vec![("health/verdict", end, 0, "pass (0 violations)")],
            "one verdict, at end time, on rank 0's lane"
        );
    }

    #[test]
    fn untraced_world_returns_no_report() {
        let w = World::flat(NetModel::instant(), 2);
        let out = w.run(|c| {
            if c.rank() == 0 {
                c.send(b"x", 1, 0);
            } else {
                let _ = c.recv(Src::Is(0), TagSel::Is(0));
            }
        });
        assert!(out.trace.is_none());
    }

    #[test]
    fn deadlock_panic_reports_queue_depths() {
        let res = std::panic::catch_unwind(|| {
            let w = World::flat(NetModel::instant(), 2);
            w.run(|c| {
                if c.rank() == 0 {
                    // Rank 1 never sends: a guaranteed deadlock.
                    let _ = c.recv(Src::Is(1), TagSel::Is(0));
                }
            });
        });
        let err = res.expect_err("deadlocked world must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| err.downcast_ref::<&str>().unwrap_or(&"").to_string());
        assert!(msg.contains("deadlock"), "got: {msg}");
        assert!(
            msg.contains("unexpected=0 posted=0 rndv=0"),
            "missing queue-depth diagnostics: {msg}"
        );
    }

    #[test]
    fn try_run_returns_typed_deadlock_with_queue_depths() {
        let w = World::flat(NetModel::instant(), 2);
        let err = w
            .try_run(|c| {
                if c.rank() == 0 {
                    // Rank 1 never sends: a guaranteed deadlock.
                    let _ = c.recv(Src::Is(1), TagSel::Is(0));
                }
            })
            .expect_err("deadlocked world must return SimError");
        match err {
            SimError::Deadlock { report, ranks } => {
                assert!(report.contains("deadlock"), "got: {report}");
                // The blocked rank appears with its recv reason and the
                // installed queue-depth diagnostics, as structured data.
                let r0 = ranks.iter().find(|d| d.rank == 0).expect("rank 0 diag");
                assert_eq!(r0.reason, "recv");
                assert!(
                    r0.detail.contains("unexpected=0 posted=0 rndv=0"),
                    "got: {:?}",
                    r0.detail
                );
            }
            e => panic!("expected deadlock, got {e}"),
        }
    }

    #[test]
    fn unexpected_before_irecv_posted() {
        let w = World::flat(NetModel::instant(), 2);
        let out = w.run(|c| {
            if c.rank() == 0 {
                c.send(b"early", 1, 9);
                0
            } else {
                // Give the message time to land in the unexpected queue.
                c.compute(empi_netsim::VDur::from_micros(100));
                let r = c.irecv(Src::Is(0), TagSel::Is(9));
                let (st, data) = c.wait(r);
                assert_eq!(&data.unwrap()[..], b"early");
                st.len
            }
        });
        assert_eq!(out.results[1], 5);
    }
}
