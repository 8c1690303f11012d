//! Snapshot exporters: a versioned JSON document and Chrome
//! trace-event counter (`ph:"C"`) events.
//!
//! Both are hand-rolled (no serde) and deterministic: keys are
//! pre-sorted by the snapshot, so a fixed-seed run exports
//! byte-identical documents.

use std::fmt::Write as _;

use crate::chrome::escape;
use crate::{Key, MetricsSnapshot};

fn key_json(k: &Key) -> String {
    format!(
        "\"metric\":\"{}\",\"op\":\"{}\",\"peer\":{},\"size_class\":{}",
        k.metric.as_str(),
        escape(k.op),
        k.peer,
        k.size_class
    )
}

/// Serialize a snapshot as the versioned JSON document `tracecheck`
/// audits, and whose counters the `CONTRACTS` entries `metrics-rekey-`
/// and `metrics-ftol-` require (schema version in `"version"`).
pub fn snapshot_json(snap: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(4096);
    let _ = write!(
        out,
        "{{\"version\":{},\"n_ranks\":{},\"end_time_ns\":{}",
        snap.version, snap.n_ranks, snap.end_time_ns
    );

    let _ = write!(
        out,
        ",\"slo\":{{\"evaluated\":{},\"verdict\":\"{}\",\"violations\":[",
        snap.slo.evaluated,
        snap.slo.verdict()
    );
    for (i, v) in snap.slo.violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"kind\":\"{}\",\"rank\":{},\"subject\":\"{}\",\"observed_ns\":{},\
             \"budget_ns\":{}}}",
            v.kind,
            v.rank,
            escape(&v.subject),
            v.observed_ns,
            v.budget_ns
        );
    }
    out.push_str("]}");

    for (name, block) in snap.counter_blocks() {
        let Some(b) = block else {
            let _ = write!(out, ",\"{name}\":null");
            continue;
        };
        let _ = write!(out, ",\"{name}\":{{");
        for (i, (counter, v)) in b.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(out, "{sep}\"{counter}\":{v}");
        }
        out.push('}');
    }

    out.push_str(",\"per_rank\":[");
    for (i, l) in snap.per_rank.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"rank\":{},\"e2e_samples\":{},\"seal_samples\":{},\"open_samples\":{},\
             \"wait_samples\":{},\"repair_samples\":{},\"key_samples\":{},\"ftol_samples\":{},\
             \"flow_events\":{},\"dropped_flow_events\":{},\"dropped_points\":{}}}",
            l.rank,
            l.e2e_samples,
            l.seal_samples,
            l.open_samples,
            l.wait_samples,
            l.repair_samples,
            l.key_samples,
            l.ftol_samples,
            l.flow_events,
            l.dropped_flow_events,
            l.dropped_points
        );
    }
    out.push(']');

    out.push_str(",\"hists\":[");
    for (i, (k, h)) in snap.hists.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{{},\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50_ns\":{},\"p99_ns\":{},\
             \"p999_ns\":{},\"buckets\":[",
            key_json(k),
            h.count(),
            h.sum(),
            h.min(),
            h.max(),
            h.p50(),
            h.p99(),
            h.p999()
        );
        for (j, (idx, c)) in h.nonzero().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{idx},{c}]");
        }
        out.push_str("]}");
    }
    out.push(']');

    out.push_str(",\"series\":[");
    for (i, (k, pts)) in snap.series.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{{},\"points\":[", key_json(k));
        for (j, p) in pts.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"t_ns\":{},\"count\":{},\"p50_ns\":{},\"p99_ns\":{},\"p999_ns\":{}}}",
                p.t_ns, p.count, p.p50_ns, p.p99_ns, p.p999_ns
            );
        }
        out.push_str("]}");
    }
    out.push(']');

    out.push_str(",\"flows\":[");
    for (i, f) in snap.flows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"rank\":{},\"peer\":{},\"tag\":{},\"seq\":{},\"last_kind\":\"{}\",\
             \"last_ns\":{},\"total_events\":{}}}",
            f.rank,
            f.peer,
            f.tag,
            f.seq,
            escape(&f.last_kind),
            f.last_ns,
            f.total_events
        );
    }
    out.push_str("]}");
    out
}

/// Render percentile checkpoint series as Chrome trace counter events
/// (`ph:"C"`), one raw JSON event string per checkpoint. Merged into
/// the trace document via [`crate::chrome::to_chrome_json_with_extra`],
/// they draw p50/p99/p999 as counter tracks in `about:tracing`.
pub fn chrome_counters(snap: &MetricsSnapshot) -> Vec<String> {
    let mut out = Vec::new();
    for (k, pts) in &snap.series {
        let name = escape(&format!(
            "hist/{} {} peer={} sc={}",
            k.metric.as_str(),
            k.op,
            k.peer,
            k.size_class
        ));
        for p in pts {
            out.push(format!(
                "{{\"name\":\"{name}\",\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":{:.3},\
                 \"args\":{{\"p50_us\":{:.3},\"p99_us\":{:.3},\"p999_us\":{:.3}}}}}",
                p.t_ns as f64 / 1000.0,
                p.p50_ns as f64 / 1000.0,
                p.p99_ns as f64 / 1000.0,
                p.p999_ns as f64 / 1000.0
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CounterPoint, Histogram, Metric, RankLedger, RankMetrics, SNAPSHOT_VERSION};

    fn sample_snapshot() -> MetricsSnapshot {
        let mut h = Histogram::new();
        for v in [100u64, 200, 5000, 5000, 90_000] {
            h.record(v);
        }
        let key = Key {
            metric: Metric::E2e,
            op: "p2p/send",
            peer: 1,
            size_class: 12,
        };
        let rank = |faults_injected, ft_detected, ft_notices| RankMetrics {
            faults_injected,
            handshakes: 1,
            rekeys: 3,
            ft_detected,
            ft_notices,
            ..Default::default()
        };
        let [chaos, keys, ftol] = crate::snapshot::sum_blocks(&[rank(3, 1, 0), rank(0, 0, 2)]);
        MetricsSnapshot {
            n_ranks: 2,
            end_time_ns: 1_000_000,
            hists: vec![(key, h)],
            series: vec![(
                key,
                vec![CounterPoint {
                    t_ns: 500,
                    count: 5,
                    p50_ns: 5000,
                    p99_ns: 90_000,
                    p999_ns: 90_000,
                }],
            )],
            per_rank: vec![
                RankLedger {
                    rank: 0,
                    e2e_samples: 5,
                    ..Default::default()
                },
                RankLedger {
                    rank: 1,
                    ..Default::default()
                },
            ],
            chaos,
            keys,
            ftol,
            ..Default::default()
        }
    }

    #[test]
    fn json_parses_and_carries_fields() {
        let snap = sample_snapshot();
        let doc = snapshot_json(&snap);
        let v = crate::json::parse(&doc).expect("valid JSON");
        let version = v.get("version").unwrap().as_f64();
        assert_eq!(version, Some(SNAPSHOT_VERSION as f64));
        let hists = v.get("hists").unwrap().as_array().unwrap();
        assert_eq!(hists.len(), 1);
        assert_eq!(hists[0].get("count").unwrap().as_f64(), Some(5.0));
        assert_eq!(hists[0].get("op").unwrap().as_str(), Some("p2p/send"));
        assert_eq!(
            v.get("chaos")
                .unwrap()
                .get("faults_injected")
                .unwrap()
                .as_f64(),
            Some(3.0)
        );
        assert_eq!(
            v.get("keys").unwrap().get("rekeys").unwrap().as_f64(),
            Some(6.0)
        );
        assert_eq!(
            v.get("ftol").unwrap().get("detected").unwrap().as_f64(),
            Some(1.0)
        );
        assert_eq!(
            v.get("slo").unwrap().get("verdict").unwrap().as_str(),
            Some("unevaluated")
        );
    }

    #[test]
    fn chrome_counter_events_are_valid_json() {
        let evs = chrome_counters(&sample_snapshot());
        assert_eq!(evs.len(), 1);
        let v = crate::json::parse(&evs[0]).unwrap();
        assert_eq!(v.get("ph").unwrap().as_str(), Some("C"));
        assert_eq!(v.get("ts").unwrap().as_f64(), Some(0.5));
    }
}
