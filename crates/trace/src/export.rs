//! Snapshot exporters: Prometheus text format, a versioned JSON
//! document, and Chrome trace-event counter (`ph:"C"`) events.
//!
//! All three are hand-rolled (no serde) and deterministic: keys are
//! pre-sorted by the snapshot, so a fixed-seed run exports
//! byte-identical documents.

use std::fmt::Write as _;

use crate::chrome::escape;
use crate::{CounterBlock, Key, MetricsSnapshot};

fn key_labels(k: &Key) -> String {
    format!(
        "metric=\"{}\",op=\"{}\",comm=\"{}\",peer=\"{}\",size_class=\"{}\"",
        k.metric.as_str(),
        escape(k.op),
        k.comm,
        k.peer,
        k.size_class
    )
}

fn key_json(k: &Key) -> String {
    format!(
        "\"metric\":\"{}\",\"op\":\"{}\",\"comm\":{},\"peer\":{},\"size_class\":{}",
        k.metric.as_str(),
        escape(k.op),
        k.comm,
        k.peer,
        k.size_class
    )
}

/// The snapshot's counter blocks in export order: family name,
/// Prometheus help text, block.
type Family<'a> = (&'static str, &'static str, &'a Option<CounterBlock>);

fn counter_blocks(snap: &MetricsSnapshot) -> [Family<'_>; 3] {
    [
        ("chaos", "Fault-injection and ARQ counters.", &snap.chaos),
        (
            "keys",
            "Key-lifecycle counters (handshake/rotate/revoke).",
            &snap.keys,
        ),
        (
            "ftol",
            "Fault-tolerance counters (detect/notice/shrink/rekey).",
            &snap.ftol,
        ),
    ]
}

/// Serialize a snapshot as the versioned JSON document consumed by
/// `tracecheck --require-hist` (schema version in `"version"`).
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

    for (name, _, block) in counter_blocks(snap) {
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

/// Serialize a snapshot in the Prometheus text exposition format:
/// one `empi_latency_ns` histogram family (cumulative `_bucket` lines
/// over the non-empty buckets plus `+Inf`, `_sum`, `_count`) plus
/// counter families for flow events, chaos counters, and the SLO
/// verdict.
pub fn prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("# HELP empi_latency_ns Virtual-time latency distributions (nanoseconds).\n");
    out.push_str("# TYPE empi_latency_ns histogram\n");
    for (k, h) in &snap.hists {
        let labels = key_labels(k);
        let mut cum = 0u64;
        for (idx, c) in h.nonzero() {
            cum += c;
            let _ = writeln!(
                out,
                "empi_latency_ns_bucket{{{labels},le=\"{}\"}} {cum}",
                crate::hist::bucket_high(idx)
            );
        }
        let _ = writeln!(
            out,
            "empi_latency_ns_bucket{{{labels},le=\"+Inf\"}} {}",
            h.count()
        );
        let _ = writeln!(out, "empi_latency_ns_sum{{{labels}}} {}", h.sum());
        let _ = writeln!(out, "empi_latency_ns_count{{{labels}}} {}", h.count());
    }

    out.push_str("# HELP empi_flow_events_total Flight-recorder events per rank.\n");
    out.push_str("# TYPE empi_flow_events_total counter\n");
    for l in &snap.per_rank {
        let _ = writeln!(
            out,
            "empi_flow_events_total{{rank=\"{}\"}} {}",
            l.rank, l.flow_events
        );
    }

    for (name, help, block) in counter_blocks(snap) {
        let Some(b) = block else { continue };
        let _ = writeln!(out, "# HELP empi_{name}_total {help}");
        let _ = writeln!(out, "# TYPE empi_{name}_total counter");
        for (counter, v) in b.iter() {
            let _ = writeln!(out, "empi_{name}_total{{counter=\"{counter}\"}} {v}");
        }
    }

    out.push_str("# HELP empi_slo_violations SLO watchdog violations at snapshot.\n");
    out.push_str("# TYPE empi_slo_violations gauge\n");
    let _ = writeln!(
        out,
        "empi_slo_violations{{verdict=\"{}\"}} {}",
        snap.slo.verdict(),
        snap.slo.violations.len()
    );
    out
}

/// Validate a Prometheus text document produced by [`prometheus`]
/// (used by `tracecheck --require-hist`): line grammar, label syntax,
/// numeric values, and per-series cumulative-bucket monotonicity with
/// a final `+Inf` bucket matching `_count`.
pub fn validate_prometheus(text: &str) -> Result<(), String> {
    use std::collections::BTreeMap;
    // series labels (minus `le`) -> (last cumulative, inf seen, count)
    let mut series: BTreeMap<String, (u64, Option<u64>)> = BTreeMap::new();
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    for (ln, line) in text.lines().enumerate() {
        let ln = ln + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            if !(rest.starts_with("HELP ") || rest.starts_with("TYPE ")) {
                return Err(format!("line {ln}: unknown comment form"));
            }
            continue;
        }
        let (name, rest) = line
            .find(['{', ' '])
            .map(|i| line.split_at(i))
            .ok_or_else(|| format!("line {ln}: no value"))?;
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
            || name.starts_with(|c: char| c.is_ascii_digit())
        {
            return Err(format!("line {ln}: bad metric name '{name}'"));
        }
        let (labels, value) = if let Some(inner) = rest.strip_prefix('{') {
            let end = inner
                .find('}')
                .ok_or_else(|| format!("line {ln}: unterminated labels"))?;
            (&inner[..end], inner[end + 1..].trim())
        } else {
            ("", rest.trim())
        };
        let value: f64 = value
            .parse()
            .map_err(|_| format!("line {ln}: bad value '{value}'"))?;
        let mut le = None;
        let mut other = Vec::new();
        for pair in split_labels(labels) {
            let (k, v) = pair
                .split_once('=')
                .ok_or_else(|| format!("line {ln}: bad label '{pair}'"))?;
            let v = v
                .strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .ok_or_else(|| format!("line {ln}: unquoted label value in '{pair}'"))?;
            if k == "le" {
                le = Some(v.to_string());
            } else {
                other.push(format!("{k}={v}"));
            }
        }
        if let Some(stripped) = name.strip_suffix("_bucket") {
            let series_key = format!("{}{{{}}}", stripped, other.join(","));
            let le = le.ok_or_else(|| format!("line {ln}: bucket without le"))?;
            let e = series.entry(series_key).or_insert((0, None));
            if le == "+Inf" {
                e.1 = Some(value as u64);
            } else {
                le.parse::<u64>()
                    .map_err(|_| format!("line {ln}: bad le '{le}'"))?;
                if (value as u64) < e.0 {
                    return Err(format!("line {ln}: cumulative bucket count decreased"));
                }
                e.0 = value as u64;
            }
        } else if let Some(stripped) = name.strip_suffix("_count") {
            counts.insert(format!("{}{{{}}}", stripped, other.join(",")), value as u64);
        }
    }
    for (key, (last, inf)) in &series {
        let inf = inf.ok_or_else(|| format!("series {key}: missing +Inf bucket"))?;
        if *last > inf {
            return Err(format!("series {key}: +Inf below last finite bucket"));
        }
        if let Some(c) = counts.get(key) {
            if *c != inf {
                return Err(format!("series {key}: _count {c} != +Inf bucket {inf}"));
            }
        }
    }
    Ok(())
}

/// Split a Prometheus label body on commas that are outside quotes.
fn split_labels(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let (mut start, mut quoted, mut escaped) = (0usize, false, false);
    for (i, c) in s.char_indices() {
        match c {
            '\\' if quoted && !escaped => escaped = true,
            '"' if !escaped => quoted = !quoted,
            ',' if !quoted => {
                if i > start {
                    out.push(&s[start..i]);
                }
                start = i + 1;
                escaped = false;
            }
            _ => escaped = false,
        }
    }
    if start < s.len() {
        out.push(&s[start..]);
    }
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
    use crate::{CounterPoint, Histogram, Metric, RankLedger};

    fn sample_snapshot() -> MetricsSnapshot {
        let mut h = Histogram::new();
        for v in [100u64, 200, 5000, 5000, 90_000] {
            h.record(v);
        }
        let key = Key {
            metric: Metric::E2e,
            op: "p2p/send",
            comm: 0,
            peer: 1,
            size_class: 12,
        };
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
            chaos: Some(CounterBlock::sum([[
                ("faults_injected", 3),
                ("nacks_sent", 0),
            ]])),
            keys: Some(CounterBlock::sum([[("handshakes", 1), ("rekeys", 3)]; 2])),
            ftol: Some(CounterBlock::sum([[("detected", 1), ("notices", 2)]])),
            ..Default::default()
        }
    }

    #[test]
    fn json_parses_and_carries_fields() {
        let snap = sample_snapshot();
        let doc = snapshot_json(&snap);
        let v = crate::json::parse(&doc).expect("valid JSON");
        assert_eq!(v.get("version").unwrap().as_f64(), Some(1.0));
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
    fn prometheus_emits_and_validates() {
        let text = prometheus(&sample_snapshot());
        assert!(text.contains("empi_latency_ns_bucket"));
        assert!(text.contains("le=\"+Inf\"} 5"));
        assert!(text.contains("empi_latency_ns_count"));
        assert!(text.contains("empi_keys_total{counter=\"rekeys\"} 6"));
        assert!(text.contains("empi_ftol_total{counter=\"detected\"} 1"));
        validate_prometheus(&text).expect("valid prometheus");
    }

    #[test]
    fn validator_rejects_malformed() {
        assert!(validate_prometheus("1bad_name 3\n").is_err());
        assert!(validate_prometheus("m{x=\"1\"").is_err());
        assert!(validate_prometheus("m{le=\"10\"} nope\n").is_err());
        let shrinking = "m_bucket{le=\"10\"} 5\nm_bucket{le=\"20\"} 3\nm_bucket{le=\"+Inf\"} 5\n";
        assert!(validate_prometheus(shrinking).is_err());
        let no_inf = "m_bucket{le=\"10\"} 5\n";
        assert!(validate_prometheus(no_inf).is_err());
        let mismatch = "m_bucket{le=\"+Inf\"} 5\nm_count 4\n";
        assert!(validate_prometheus(mismatch).is_err());
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
