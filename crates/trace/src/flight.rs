//! Per-flow flight recorder and "black box" reports.
//!
//! Each rank keeps a bounded LRU map of flows keyed by
//! `(peer, tag, seq)`; every flow holds a small ring of its most
//! recent protocol events (post, seal, NACK, repair, open, deliver).
//! When delivery fails or times out the ring is serialized into a
//! [`BlackBox`] attached to the error, and the deadlock diagnostics
//! print the tail of the most recently touched flow.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use crate::chrome::escape;
use crate::json::{self, Value};

/// Events retained per flow.
pub const FLOW_RING: usize = 16;

/// Flows retained per rank before LRU eviction.
pub const MAX_FLOWS: usize = 128;

/// Identity of a flow as seen by one rank.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct FlowKey {
    pub peer: usize,
    pub tag: u32,
    pub seq: u64,
}

/// One recorded protocol event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlowEvent {
    /// Virtual time the event was recorded.
    pub t_ns: u64,
    /// Event kind, e.g. `post/chunked`, `nack/tx`, `repair/rx`,
    /// `open/ok`, `deliver`, `recover/abort`.
    pub kind: String,
    /// Payload bytes involved (0 when not applicable).
    pub bytes: u64,
    /// Free-form context (chunk index, attempt number, error text).
    pub detail: String,
}

impl fmt::Display for FlowEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[t={}ns {}", self.t_ns, self.kind)?;
        if self.bytes > 0 {
            write!(f, " {}B", self.bytes)?;
        }
        if !self.detail.is_empty() {
            write!(f, " {}", self.detail)?;
        }
        write!(f, "]")
    }
}

/// Event kinds that close a flow (nothing more is expected on it).
fn is_terminal(kind: &str) -> bool {
    matches!(
        kind,
        "deliver" | "retire" | "recover/ok" | "recover/abort" | "recover/timeout" | "open/fail"
    )
}

/// Event kinds that make a flow *stall-eligible*: the flow is in the
/// middle of an ARQ repair exchange, so silence past the heartbeat
/// budget means a peer stopped responding. Plain `post/*` flows are
/// deliberately excluded — a completed unacknowledged send looks
/// identical to a parked one.
pub fn is_stall_eligible(kind: &str) -> bool {
    kind.starts_with("nack/") || kind.starts_with("repair/") || kind.starts_with("salvage")
}

struct FlowRing {
    events: VecDeque<FlowEvent>,
    /// Total events ever recorded on this flow (ring may have dropped
    /// the oldest).
    total: u64,
    /// LRU stamp from the recorder's logical clock.
    touch: u64,
}

/// One rank's flight recorder.
#[derive(Default)]
pub struct FlightRecorder {
    flows: BTreeMap<FlowKey, FlowRing>,
    clock: u64,
    /// Events dropped by per-flow rings or flow eviction.
    dropped: u64,
    /// Total events recorded.
    events: u64,
}

impl FlightRecorder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn events(&self) -> u64 {
        self.events
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Append an event to `key`'s ring, evicting the least recently
    /// touched flow if the map is full.
    pub fn record(&mut self, key: FlowKey, ev: FlowEvent) {
        self.clock += 1;
        self.events += 1;
        if !self.flows.contains_key(&key) && self.flows.len() >= MAX_FLOWS {
            if let Some((&victim, _)) = self.flows.iter().min_by_key(|(_, r)| r.touch) {
                if let Some(r) = self.flows.remove(&victim) {
                    self.dropped += r.events.len() as u64;
                }
            }
        }
        let ring = self.flows.entry(key).or_insert_with(|| FlowRing {
            events: VecDeque::with_capacity(FLOW_RING),
            total: 0,
            touch: 0,
        });
        if ring.events.len() == FLOW_RING {
            ring.events.pop_front();
            self.dropped += 1;
        }
        ring.events.push_back(ev);
        ring.total += 1;
        ring.touch = self.clock;
    }

    /// Serialize `key`'s ring into a black box (None if never seen).
    pub fn black_box(&self, rank: usize, key: FlowKey) -> Option<BlackBox> {
        self.flows.get(&key).map(|r| BlackBox {
            rank,
            peer: key.peer,
            tag: key.tag,
            seq: key.seq,
            total_events: r.total,
            events: r.events.iter().cloned().collect(),
        })
    }

    /// The tail of the most recently touched non-terminal flow,
    /// rendered for deadlock diagnostics; None when idle.
    pub fn tail_line(&self, n: usize) -> Option<String> {
        let (key, ring) = self
            .flows
            .iter()
            .filter(|(_, r)| r.events.back().is_some_and(|e| !is_terminal(&e.kind)))
            .max_by_key(|(_, r)| r.touch)?;
        let tail: Vec<String> = ring
            .events
            .iter()
            .rev()
            .take(n)
            .rev()
            .map(|e| e.to_string())
            .collect();
        Some(format!(
            "flow peer={} tag={} seq={}: {}",
            key.peer,
            key.tag,
            key.seq,
            tail.join(" ")
        ))
    }

    /// Open flows (last event non-terminal) as `(key, last event,
    /// total events)` in key order, for snapshots and stall checks.
    pub fn open_flows(&self) -> impl Iterator<Item = (FlowKey, &FlowEvent, u64)> + '_ {
        self.flows.iter().filter_map(|(&k, r)| {
            let last = r.events.back()?;
            if is_terminal(&last.kind) {
                None
            } else {
                Some((k, last, r.total))
            }
        })
    }
}

/// A serialized flight-recorder ring for one failing flow, attached to
/// `Error::DeliveryFailed` / `Error::Timeout` in `empi-core`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlackBox {
    /// Rank that observed the failure.
    pub rank: usize,
    pub peer: usize,
    pub tag: u32,
    pub seq: u64,
    /// Total events the flow ever recorded (the ring keeps the last
    /// [`FLOW_RING`]).
    pub total_events: u64,
    pub events: Vec<FlowEvent>,
}

impl fmt::Display for BlackBox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "black box rank {} flow peer={} tag={} seq={} ({} events):",
            self.rank, self.peer, self.tag, self.seq, self.total_events
        )?;
        for e in &self.events {
            write!(f, " {e}")?;
        }
        Ok(())
    }
}

impl BlackBox {
    /// Versioned JSON rendering (round-trips through [`BlackBox::from_json`]).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"version\":1,\"rank\":{},\"peer\":{},\"tag\":{},\"seq\":{},\
             \"total_events\":{},\"events\":[",
            self.rank, self.peer, self.tag, self.seq, self.total_events
        );
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"t_ns\":{},\"kind\":\"{}\",\"bytes\":{},\"detail\":\"{}\"}}",
                e.t_ns,
                escape(&e.kind),
                e.bytes,
                escape(&e.detail)
            ));
        }
        out.push_str("]}");
        out
    }

    /// Parse a document produced by [`BlackBox::to_json`].
    pub fn from_json(s: &str) -> Result<BlackBox, String> {
        let v = json::parse(s)?;
        let num = |v: &Value, k: &str| -> Result<u64, String> {
            v.get(k)
                .and_then(Value::as_f64)
                .map(|n| n as u64)
                .ok_or_else(|| format!("missing numeric field '{k}'"))
        };
        let events = v
            .get("events")
            .and_then(Value::as_array)
            .ok_or("missing events array")?
            .iter()
            .map(|e| {
                Ok(FlowEvent {
                    t_ns: num(e, "t_ns")?,
                    kind: e
                        .get("kind")
                        .and_then(Value::as_str)
                        .ok_or("missing kind")?
                        .to_string(),
                    bytes: num(e, "bytes")?,
                    detail: e
                        .get("detail")
                        .and_then(Value::as_str)
                        .unwrap_or_default()
                        .to_string(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(BlackBox {
            rank: num(&v, "rank")? as usize,
            peer: num(&v, "peer")? as usize,
            tag: num(&v, "tag")? as u32,
            seq: num(&v, "seq")?,
            total_events: num(&v, "total_events")?,
            events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, kind: &str) -> FlowEvent {
        FlowEvent {
            t_ns: t,
            kind: kind.into(),
            bytes: 64,
            detail: String::new(),
        }
    }

    #[test]
    fn ring_bounds_and_counts() {
        let mut fr = FlightRecorder::new();
        let k = FlowKey {
            peer: 1,
            tag: 9,
            seq: 3,
        };
        for t in 0..FLOW_RING as u64 + 5 {
            fr.record(k, ev(t, "nack/tx"));
        }
        let bb = fr.black_box(0, k).unwrap();
        assert_eq!(bb.events.len(), FLOW_RING);
        assert_eq!(bb.total_events, FLOW_RING as u64 + 5);
        assert_eq!(bb.events[0].t_ns, 5);
        assert_eq!(fr.dropped(), 5);
    }

    #[test]
    fn lru_eviction_keeps_recent_flows() {
        let mut fr = FlightRecorder::new();
        for i in 0..MAX_FLOWS + 10 {
            let k = FlowKey {
                peer: 0,
                tag: i as u32,
                seq: 0,
            };
            fr.record(k, ev(i as u64, "post/plain"));
        }
        assert!(fr
            .black_box(
                0,
                FlowKey {
                    peer: 0,
                    tag: 0,
                    seq: 0
                }
            )
            .is_none());
        assert!(fr
            .black_box(
                0,
                FlowKey {
                    peer: 0,
                    tag: (MAX_FLOWS + 9) as u32,
                    seq: 0
                }
            )
            .is_some());
    }

    #[test]
    fn tail_line_skips_terminal_flows() {
        let mut fr = FlightRecorder::new();
        let done = FlowKey {
            peer: 0,
            tag: 1,
            seq: 0,
        };
        fr.record(done, ev(10, "deliver"));
        assert!(fr.tail_line(4).is_none());
        let stuck = FlowKey {
            peer: 2,
            tag: 7,
            seq: 5,
        };
        fr.record(stuck, ev(20, "nack/tx"));
        let line = fr.tail_line(4).unwrap();
        assert!(line.contains("peer=2 tag=7 seq=5"), "{line}");
        assert!(line.contains("nack/tx"), "{line}");
    }

    #[test]
    fn black_box_json_round_trips() {
        let bb = BlackBox {
            rank: 1,
            peer: 0,
            tag: 9,
            seq: 42,
            total_events: 3,
            events: vec![
                ev(100, "post/chunked"),
                FlowEvent {
                    t_ns: 250,
                    kind: "nack/tx".into(),
                    bytes: 0,
                    detail: "chunk 2 \"quoted\"".into(),
                },
            ],
        };
        let s = bb.to_json();
        assert_eq!(BlackBox::from_json(&s).unwrap(), bb);
    }
}
