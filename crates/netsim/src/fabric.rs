//! Network fabric: the calibrated timing model for message transport.
//!
//! A [`NetModel`] holds the *parameters* (curves calibrated to the
//! paper's baseline measurements, DESIGN.md §5); a [`Fabric`] holds the
//! *state*: per-NIC busy timelines that make concurrent flows share the
//! wire, per-message rate floors, and the flow-contention penalty that
//! reproduces InfiniBand's 8-pair throttle (Fig. 11).
//!
//! The decomposition of a one-way blocking transfer of `s` bytes:
//!
//! ```text
//! T(s) = o_send(s) + L + s/B(s) + o_recv(s)
//! ```
//!
//! where `L` (latency) and `s/B(s)` (wire occupancy) live here, and the
//! host overheads `o_*` are derived from the calibrated ping-pong curve:
//! `o_send = o_recv = (T_pp(s) − L − s/B(s)) / 2`. The wire occupancy is
//! the only serialized resource, so multi-flow sharing and saturation
//! emerge naturally.

use empi_trace::Recorder;

use crate::curve::Curve;
use crate::time::{VDur, VTime};
use crate::topology::Topology;

/// Direction-tagged NIC timeline with a recent-flow tracker.
#[derive(Debug, Clone, Default)]
struct NicPort {
    next_free: u64,
    /// (remote rank, last use ns) of recently active flows. Flows are
    /// per rank pair, not per node: eight sender processes sharing one
    /// NIC are eight flows (the OSU multi-pair situation).
    flows: Vec<(usize, u64)>,
}

/// How long a flow counts as "active" for contention purposes.
const FLOW_WINDOW_NS: u64 = 200_000; // 200 µs

impl NicPort {
    /// Record use of the flow to `peer` at `now`, pruning stale flows,
    /// and return the number of concurrently active flows.
    fn touch_flow(&mut self, peer: usize, now: u64) -> usize {
        self.flows
            .retain(|&(_, t)| now.saturating_sub(t) <= FLOW_WINDOW_NS);
        match self.flows.iter_mut().find(|(p, _)| *p == peer) {
            Some(entry) => entry.1 = now,
            None => self.flows.push((peer, now)),
        }
        self.flows.len()
    }
}

/// Calibrated parameters of one interconnect + MPI-stack combination.
#[derive(Debug, Clone)]
pub struct NetModel {
    /// Human-readable name ("10GbE/MPICH", "40Gb IB QDR/MVAPICH2").
    pub name: &'static str,
    /// One-way wire latency between nodes.
    pub latency: VDur,
    /// Effective wire bandwidth by message size (MB/s).
    pub bw_curve: Curve,
    /// Baseline blocking ping-pong *uni-directional throughput* by size
    /// (MB/s) — Table I / Table V and Figs. 3/10 of the paper.
    pub pp_curve: Curve,
    /// Baseline single-pair *streaming* bandwidth by size (MB/s) — the
    /// per-message host occupancy in windowed non-blocking mode.
    pub stream_curve: Curve,
    /// Eager→rendezvous protocol switch (bytes).
    pub eager_threshold: usize,
    /// Minimum per-message NIC occupancy (ns): the message-rate cap.
    pub min_gap_ns: u64,
    /// Multiplier on `min_gap_ns` as a function of concurrently active
    /// flows on a port: `(flow_count, factor)` pairs, linearly
    /// interpolated. Models end-point contention (IB 8-pair throttle).
    pub contention: Vec<(usize, f64)>,
    /// Intra-node (shared-memory) one-way latency.
    pub intra_latency: VDur,
    /// Intra-node copy bandwidth (MB/s).
    pub intra_bw: f64,
    /// Fixed per-message host overhead for intra-node transfers (ns).
    pub intra_overhead_ns: u64,
}

impl NetModel {
    /// 10 Gbps Ethernet under MPICH-3.2.1 over TCP, calibrated to the
    /// paper's unencrypted baselines (Table I, Figs. 3–6, Tables II–IV).
    pub fn ethernet_10g() -> Self {
        NetModel {
            name: "10GbE/MPICH-3.2.1",
            latency: VDur::from_micros_f64(6.0),
            bw_curve: Curve::new(&[
                (64, 400.0),
                (1 << 10, 900.0),
                (16 << 10, 1180.0),
                (2 << 20, 1180.0),
            ]),
            pp_curve: Curve::new(&[
                (1, 0.050),
                (16, 0.83),
                (256, 7.01),
                (1 << 10, 17.03),
                (4 << 10, 60.0),
                (16 << 10, 200.0),
                (64 << 10, 480.0),
                (256 << 10, 800.0),
                (1 << 20, 980.0),
                (2 << 20, 1038.0),
                (4 << 20, 1060.0),
            ]),
            stream_curve: Curve::new(&[
                (1, 0.33),
                (16, 5.3),
                (256, 80.0),
                (1 << 10, 240.0),
                (4 << 10, 420.0),
                (16 << 10, 565.0),
                (64 << 10, 800.0),
                (256 << 10, 900.0),
                (1 << 20, 940.0),
                (2 << 20, 950.0),
                (4 << 20, 955.0),
            ]),
            eager_threshold: 64 << 10,
            min_gap_ns: 300,
            contention: vec![(1, 1.0), (16, 1.0)],
            intra_latency: VDur::from_micros_f64(0.6),
            intra_bw: 4000.0,
            intra_overhead_ns: 300,
        }
    }

    /// 40 Gbps InfiniBand QDR under MVAPICH2-2.3, calibrated to the
    /// paper's unencrypted baselines (Table V, Figs. 10–13, Tables
    /// VI–VIII), including the multi-pair small-message throttle.
    pub fn infiniband_40g() -> Self {
        NetModel {
            name: "40Gb-IB-QDR/MVAPICH2-2.3",
            latency: VDur::from_micros_f64(1.3),
            bw_curve: Curve::new(&[
                (64, 800.0),
                (1 << 10, 2200.0),
                (16 << 10, 3250.0),
                (256 << 10, 3250.0),
                (2 << 20, 3150.0),
            ]),
            pp_curve: Curve::new(&[
                (1, 0.57),
                (16, 9.61),
                (256, 82.34),
                (1 << 10, 272.84),
                (4 << 10, 700.0),
                (16 << 10, 1200.0),
                (64 << 10, 2000.0),
                (256 << 10, 2600.0),
                (1 << 20, 2900.0),
                (2 << 20, 3023.0),
                (4 << 20, 3060.0),
            ]),
            stream_curve: Curve::new(&[
                (1, 0.70),
                (16, 11.0),
                (256, 170.0),
                (1 << 10, 600.0),
                (4 << 10, 1400.0),
                (16 << 10, 2600.0),
                (64 << 10, 2900.0),
                (256 << 10, 3000.0),
                (1 << 20, 3050.0),
                (2 << 20, 3080.0),
                (4 << 20, 3080.0),
            ]),
            eager_threshold: 12 << 10,
            min_gap_ns: 350,
            contention: vec![(1, 1.0), (4, 1.0), (8, 1.8), (16, 2.2)],
            intra_latency: VDur::from_micros_f64(0.4),
            intra_bw: 6000.0,
            intra_overhead_ns: 200,
        }
    }

    /// Zero-cost fabric for functional tests: every transfer is
    /// instantaneous (1 ns), no contention.
    pub fn instant() -> Self {
        NetModel {
            name: "instant",
            latency: VDur(1),
            bw_curve: Curve::new(&[(1, 1e9)]),
            pp_curve: Curve::new(&[(1, 1e9)]),
            stream_curve: Curve::new(&[(1, 1e9)]),
            eager_threshold: usize::MAX,
            min_gap_ns: 0,
            contention: vec![(1, 1.0)],
            intra_latency: VDur(1),
            intra_bw: 1e9,
            intra_overhead_ns: 0,
        }
    }

    /// Wire occupancy of an `s`-byte message (ns).
    pub fn wire_time_ns(&self, s: usize) -> u64 {
        self.bw_curve.time_ns(s)
    }

    /// The model's **lookahead**: the minimum latency any message can
    /// experience on any link — `min(inter-node, intra-node)` one-way
    /// latency, and at least 1 ns. A conservative parallel scheduler
    /// may execute two ranks concurrently whenever their clocks are
    /// within this bound, because neither can affect the other sooner;
    /// equivalently, a message sent at LBTS `t` arrives no earlier
    /// than `t + min_latency()`.
    pub fn min_latency(&self) -> VDur {
        VDur(self.latency.0.min(self.intra_latency.0).max(1))
    }

    /// Per-side host overhead of a blocking transfer, from the ping-pong
    /// decomposition.
    pub fn pp_overhead_ns(&self, s: usize) -> u64 {
        let total = self.pp_curve.time_ns(s.max(1));
        let inner = self.latency.as_nanos() + self.wire_time_ns(s);
        total.saturating_sub(inner) / 2
    }

    /// Per-message host occupancy in pipelined (windowed non-blocking)
    /// mode.
    pub fn stream_overhead_ns(&self, s: usize) -> u64 {
        self.stream_curve.time_ns(s.max(1))
    }

    /// Contention factor for `flows` concurrently active flows.
    fn contention_factor(&self, flows: usize) -> f64 {
        let pts = &self.contention;
        if flows <= pts[0].0 {
            return pts[0].1;
        }
        for w in pts.windows(2) {
            if flows <= w[1].0 {
                let t = (flows - w[0].0) as f64 / (w[1].0 - w[0].0) as f64;
                return w[0].1 + t * (w[1].1 - w[0].1);
            }
        }
        pts[pts.len() - 1].1
    }
}

/// Transport statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct FabricStats {
    /// Inter-node messages carried.
    pub messages: u64,
    /// Inter-node bytes carried.
    pub bytes: u64,
    /// Intra-node messages carried.
    pub local_messages: u64,
}

/// Stateful fabric: model + per-node NIC timelines.
///
/// The MPI layer serializes access (it already holds its own lock and the
/// engine guarantees single-threaded execution).
pub struct Fabric {
    model: NetModel,
    topology: Topology,
    tx: Vec<NicPort>,
    rx: Vec<NicPort>,
    stats: FabricStats,
    tracer: Option<Recorder>,
}

impl Fabric {
    /// Build a fabric for `topology` with the given model.
    pub fn new(model: NetModel, topology: Topology) -> Self {
        let n = topology.n_nodes();
        Fabric {
            model,
            topology,
            tx: vec![NicPort::default(); n],
            rx: vec![NicPort::default(); n],
            stats: FabricStats::default(),
            tracer: None,
        }
    }

    /// Install the run's recorder: with its span sink on, every
    /// transfer is recorded with its virtual start/arrival (tagged with
    /// the sender's current op/phase labels), and NIC port busy
    /// intervals become trace lanes.
    pub fn set_tracer(&mut self, t: Recorder) {
        self.tracer = Some(t);
    }

    /// The model parameters.
    pub fn model(&self) -> &NetModel {
        &self.model
    }

    /// The rank placement.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Transport statistics so far.
    pub fn stats(&self) -> FabricStats {
        self.stats
    }

    /// Inject a `wire_bytes`-byte message from `src_rank` to `dst_rank`
    /// at virtual time `start`; returns the arrival time of the last
    /// byte at the destination.
    ///
    /// Host-side overheads are *not* included — the MPI layer charges
    /// those to the sending/receiving ranks' virtual cores.
    pub fn transmit(
        &mut self,
        src_rank: usize,
        dst_rank: usize,
        wire_bytes: usize,
        start: VTime,
    ) -> VTime {
        let src = self.topology.node_of(src_rank);
        let dst = self.topology.node_of(dst_rank);
        if src == dst {
            self.stats.local_messages += 1;
            let arrive = start
                + self.model.intra_latency
                + VDur((wire_bytes as f64 / (self.model.intra_bw * 1e6) * 1e9) as u64);
            if let Some(tracer) = &self.tracer {
                tracer.transfer(
                    src_rank,
                    dst_rank,
                    wire_bytes,
                    start.as_nanos(),
                    arrive.as_nanos(),
                    true,
                );
            }
            return arrive;
        }
        self.stats.messages += 1;
        self.stats.bytes += wire_bytes as u64;

        let wire = self.model.wire_time_ns(wire_bytes);
        let t = start.as_nanos();

        // Sender NIC: serialize departures.
        let tx = &mut self.tx[src];
        let tx_flows = tx.touch_flow(dst_rank, t);
        let tx_gap = wire
            .max((self.model.min_gap_ns as f64 * self.model.contention_factor(tx_flows)) as u64);
        let tx_start = t.max(tx.next_free);
        tx.next_free = tx_start + tx_gap;

        // Receiver NIC: serialize arrivals.
        let rx = &mut self.rx[dst];
        let rx_flows = rx.touch_flow(src_rank, tx_start);
        let rx_gap = wire
            .max((self.model.min_gap_ns as f64 * self.model.contention_factor(rx_flows)) as u64);
        let earliest = tx_start + self.model.latency.as_nanos() + wire;
        let arrive = earliest.max(rx.next_free + wire);
        rx.next_free = (arrive - wire) + rx_gap;

        if let Some(tracer) = &self.tracer {
            // The wire span starts when the sender NIC begins serving
            // the message, not at submit: back-to-back chunk frames
            // queue behind each other, and that queueing is wait time,
            // not fabric occupancy.
            tracer.transfer(src_rank, dst_rank, wire_bytes, tx_start, arrive, false);
            tracer.nic_busy(src, 0, tx_start, tx_start + tx_gap);
            tracer.nic_busy(dst, 1, arrive - wire, (arrive - wire) + rx_gap);
        }

        VTime(arrive)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eth_fabric(nodes: usize) -> Fabric {
        Fabric::new(NetModel::ethernet_10g(), Topology::one_per_node(nodes))
    }

    #[test]
    fn single_message_time_is_latency_plus_wire() {
        let mut f = eth_fabric(2);
        let arrive = f.transmit(0, 1, 2 << 20, VTime::ZERO);
        let expect = f.model.latency.as_nanos() + f.model.wire_time_ns(2 << 20);
        assert_eq!(arrive.as_nanos(), expect);
    }

    #[test]
    fn back_to_back_messages_serialize_on_the_wire() {
        let mut f = eth_fabric(2);
        let s = 1 << 20;
        let a1 = f.transmit(0, 1, s, VTime::ZERO);
        let a2 = f.transmit(0, 1, s, VTime::ZERO);
        let wire = f.model.wire_time_ns(s);
        assert_eq!(a2.as_nanos() - a1.as_nanos(), wire, "spacing = wire time");
    }

    #[test]
    fn concurrent_flows_share_the_receiver_nic() {
        // Two senders to one receiver: aggregate arrival rate is wire-
        // limited, so the second arrival is a full wire-time later.
        let mut f = Fabric::new(NetModel::ethernet_10g(), Topology::one_per_node(3));
        let s = 1 << 20;
        let a1 = f.transmit(0, 2, s, VTime::ZERO);
        let a2 = f.transmit(1, 2, s, VTime::ZERO);
        let wire = f.model.wire_time_ns(s);
        assert!(a2.as_nanos() >= a1.as_nanos() + wire);
    }

    #[test]
    fn intra_node_is_fast_and_uncontended() {
        let model = NetModel::ethernet_10g();
        let mut f = Fabric::new(model, Topology::block(4, 2));
        // Ranks 0,1 on node 0.
        let a = f.transmit(0, 1, 1024, VTime::ZERO);
        assert!(a.as_nanos() < 2_000, "intra-node transfer should be ~µs");
        assert_eq!(f.stats().local_messages, 1);
        assert_eq!(f.stats().messages, 0);
    }

    #[test]
    fn message_rate_floor_applies_to_tiny_messages() {
        let mut f = eth_fabric(2);
        let a1 = f.transmit(0, 1, 1, VTime::ZERO);
        let a2 = f.transmit(0, 1, 1, VTime::ZERO);
        assert!(
            a2.as_nanos() - a1.as_nanos() >= f.model.min_gap_ns,
            "tiny messages respect the rate cap"
        );
    }

    #[test]
    fn ib_contention_throttles_many_flows() {
        let model = NetModel::infiniband_40g();
        assert_eq!(model.contention_factor(1), 1.0);
        assert_eq!(model.contention_factor(4), 1.0);
        assert!(model.contention_factor(8) > 1.5);
    }

    #[test]
    fn pp_decomposition_reconstructs_curve() {
        // o_send + L + wire + o_recv must reproduce the calibrated
        // ping-pong time to within rounding.
        for model in [NetModel::ethernet_10g(), NetModel::infiniband_40g()] {
            for s in [1usize, 256, 1 << 10, 16 << 10, 2 << 20] {
                let total = model.pp_curve.time_ns(s);
                let rebuilt =
                    2 * model.pp_overhead_ns(s) + model.latency.as_nanos() + model.wire_time_ns(s);
                let err = (total as i64 - rebuilt as i64).abs();
                assert!(err <= 2, "{} size {s}: {total} vs {rebuilt}", model.name);
            }
        }
    }

    #[test]
    fn tracer_sees_transfers_ledger_and_nic_lanes() {
        use empi_trace::{Cat, Recorder};
        let tracer = Recorder::new(2, true, false, None);
        let mut f = eth_fabric(2);
        f.set_tracer(tracer.clone());
        let arrive = f.transmit(0, 1, 1024, VTime::ZERO);
        let r = tracer.finish(arrive.as_nanos()).0.expect("span sink on");
        assert_eq!(r.transfers, 1);
        assert_eq!(r.local_transfers, 0);
        let p = r.pair(0, 1);
        assert_eq!(p.tx_bytes, 1024);
        assert_eq!(p.tx_msgs, 1);
        // No MPI layer above us, so nothing was delivered yet.
        assert_eq!(p.rx_bytes, 0);
        assert_eq!(r.wire_ns, arrive.as_nanos());
        let wire = r.events.iter().find(|e| e.cat == Cat::Wire).unwrap();
        assert_eq!(wire.bytes, 1024);
        assert_eq!(wire.dur_ns, arrive.as_nanos());
        // One tx busy interval on node 0, one rx on node 1.
        assert_eq!(r.events.iter().filter(|e| e.cat == Cat::Nic).count(), 2);
    }

    #[test]
    fn flow_tracker_prunes_stale_entries() {
        let mut port = NicPort::default();
        assert_eq!(port.touch_flow(1, 0), 1);
        assert_eq!(port.touch_flow(2, 10), 2);
        // Within the window both still count.
        assert_eq!(port.touch_flow(3, FLOW_WINDOW_NS - 100), 3);
        // Far past the window, stale flows are pruned.
        assert_eq!(port.touch_flow(4, 3 * FLOW_WINDOW_NS), 1);
    }

    #[test]
    fn lookahead_lower_bounds_every_transmit() {
        for model in [
            NetModel::ethernet_10g(),
            NetModel::infiniband_40g(),
            NetModel::instant(),
        ] {
            let la = model.min_latency();
            assert!(la.as_nanos() >= 1, "lookahead must be nonzero");
            // Both placements: cross-node and same-node (intra link).
            for topo in [Topology::one_per_node(4), Topology::block(4, 1)] {
                let mut f = Fabric::new(model.clone(), topo);
                for size in [0usize, 1, 64, 1 << 20] {
                    let start = VTime(12_345);
                    let arrive = f.transmit(0, 3, size, start);
                    assert!(
                        arrive >= start + la,
                        "{}: {size}B arrived at {arrive} < start+lookahead",
                        f.model().name
                    );
                }
            }
        }
    }
}
