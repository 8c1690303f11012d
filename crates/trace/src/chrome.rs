//! Hand-rolled Chrome trace-event JSON writer.
//!
//! The output loads directly into `chrome://tracing` (or Perfetto's
//! legacy importer): a `traceEvents` array of `ph:"X"` complete
//! events with microsecond timestamps, one lane per rank plus two
//! lanes (tx/rx) per NIC, all under a single `pid`.

use crate::{Cat, TraceReport};

/// Escape a string for embedding in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

/// Serialize a report to a Chrome trace-event JSON document.
pub fn to_chrome_json(report: &TraceReport) -> String {
    to_chrome_json_with_extra(report, &[])
}

/// Like [`to_chrome_json`], appending pre-rendered raw trace events
/// (each a complete JSON object, e.g. the `ph:"C"` counter events from
/// [`crate::export::chrome_counters`]) after the report's own events.
pub fn to_chrome_json_with_extra(report: &TraceReport, extra: &[String]) -> String {
    let mut out = String::with_capacity(128 + (report.events.len() + extra.len()) * 160);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut push = |out: &mut String, item: String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&item);
    };

    // Lane names: ranks first, then per-node NIC tx/rx lanes (their
    // tids were assigned as n_ranks + 2*node + dir at record time).
    for r in 0..report.n_ranks {
        push(
            &mut out,
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{r},\
                 \"args\":{{\"name\":\"rank {r}\"}}}}"
            ),
        );
    }
    let mut nic_tids: Vec<u32> = report
        .events
        .iter()
        .filter(|e| e.cat == Cat::Nic)
        .map(|e| e.tid)
        .collect();
    nic_tids.sort_unstable();
    nic_tids.dedup();
    for tid in nic_tids {
        let lane = tid as usize - report.n_ranks;
        let (node, dir) = (lane / 2, if lane.is_multiple_of(2) { "tx" } else { "rx" });
        push(
            &mut out,
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
                 \"args\":{{\"name\":\"node {node} nic-{dir}\"}}}}"
            ),
        );
    }
    // Pipeline worker-core lanes (tids from `pipeline_tid`).
    let mut pipe_tids: Vec<u32> = report
        .events
        .iter()
        .filter(|e| e.cat == Cat::Pipeline)
        .map(|e| e.tid)
        .collect();
    pipe_tids.sort_unstable();
    pipe_tids.dedup();
    for tid in pipe_tids {
        let lane = tid - crate::PIPELINE_TID_BASE;
        let (rank, worker) = (
            lane / crate::PIPELINE_LANE_STRIDE,
            lane % crate::PIPELINE_LANE_STRIDE,
        );
        push(
            &mut out,
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
                 \"args\":{{\"name\":\"rank {rank} crypto-core {worker}\"}}}}"
            ),
        );
    }

    for e in &report.events {
        let mut args = format!("\"bytes\":{}", e.bytes);
        if !e.detail.is_empty() {
            args.push_str(&format!(",\"detail\":\"{}\"", escape(&e.detail)));
        }
        push(
            &mut out,
            format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":0,\"tid\":{},\"args\":{{{}}}}}",
                escape(&e.name),
                e.cat.as_str(),
                us(e.ts_ns),
                us(e.dur_ns),
                e.tid,
                args
            ),
        );
    }
    for e in extra {
        push(&mut out, e.clone());
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Event;

    #[test]
    fn escaping_covers_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn output_parses_and_has_lanes() {
        let report = TraceReport {
            n_ranks: 2,
            per_rank: vec![Default::default(); 2],
            events: vec![
                Event {
                    name: "recv".into(),
                    cat: Cat::Wait,
                    ts_ns: 1500,
                    dur_ns: 2500,
                    tid: 1,
                    bytes: 0,
                    detail: String::new(),
                },
                Event {
                    name: "nic-tx".into(),
                    cat: Cat::Nic,
                    ts_ns: 1000,
                    dur_ns: 500,
                    tid: 2,
                    bytes: 64,
                    detail: "0->1".into(),
                },
            ],
            ..Default::default()
        };
        let s = to_chrome_json(&report);
        let v = crate::json::parse(&s).expect("valid JSON");
        let events = v
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("traceEvents array");
        // 2 rank lane names + 1 nic lane name + 2 events.
        assert_eq!(events.len(), 5);
        let x: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .collect();
        assert_eq!(x.len(), 2);
        assert_eq!(x[0].get("ts").and_then(|t| t.as_f64()), Some(1.5));
        assert!(s.contains("node 0 nic-tx"));
    }
}
