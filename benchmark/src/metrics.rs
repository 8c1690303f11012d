//! The benchmark's metrics — name, unit, direction, bound — in one
//! place: `BENCHMARK.json`, the result lines, the tables and `compare`
//! are all made from these two lists.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use empi_trace::chrome::escape;
use empi_trace::json::Value;

use crate::workloads::SPECS;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End to end only: the share of the parent's median by which the
    /// metric may get worse before a change is a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    e2e(name, unit, better, 0.0)
}

use Better::{Higher, Lower};

/// What a user of the simulator sees, per workload, measured with
/// tracing off. Virtual time enters as a ratio, which is exact and the
/// same on every run; every other metric is host time or memory.
///
/// The host-time bounds are as wide as the contract allows because of
/// the noise floor of the 2-vCPU container the baseline was taken on:
/// a pure spin loop there runs at two speeds 25 % apart for seconds at
/// a time, and ten A/A runs of each workload spread (inter-quartile
/// distance over median) by 5 to 13 % on `host_s`.
pub const END_TO_END: [Metric; 6] = [
    e2e("host_s", "s", Lower, 0.25),
    e2e("cpu_s", "s", Lower, 0.25),
    e2e("sim_msgs_per_s", "msgs/s", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
    e2e("virt_slowdown", "x", Lower, 0.001),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Single layers, measured in the `--trace 1` pass from the outside.
/// The first block comes from the workload under trace and differs per
/// workload; the rest are direct probes, the same in every run.
pub const PER_LAYER: [Metric; 73] = [
    layer("op_p50_us", "us", Lower),
    layer("op_tail_us", "us", Lower),
    layer("op_tail_pct", "%", Higher),
    layer("op_samples", "count", Higher),
    layer("sim.msgs_per_rep", "count", Lower),
    layer("netsim.yields_per_op", "count", Lower),
    layer("netsim.par_ratio", "x", Higher),
    layer("mpi.plain_host_s", "s", Lower),
    layer("aead.cpu_share", "ratio", Lower),
    layer("core.allocs_per_msg", "count", Lower),
    layer("core.wire_expansion", "x", Lower),
    layer("pipeline.chunks_per_msg", "count", Lower),
    layer("pool.hit_ratio", "ratio", Higher),
    layer("trace.overhead_pct", "%", Lower),
    layer("trace.dropped_events", "count", Lower),
    layer("bench.span_overhead_pct", "%", Lower),
    layer("virt.rep_ns", "virt_ns", Lower),
    layer("virt.overhead_pct", "%", Lower),
    layer("virt.paper_gap_pp", "pp", Lower),
    layer("virt.crypto_share", "ratio", Lower),
    layer("virt.host_share", "ratio", Lower),
    layer("virt.wire_share", "ratio", Lower),
    layer("virt.wait_share", "ratio", Lower),
    layer("aead.seal_gbps.boringssl.256b", "GB/s", Higher),
    layer("aead.open_gbps.boringssl.256b", "GB/s", Higher),
    layer("aead.seal_gbps.boringssl.16k", "GB/s", Higher),
    layer("aead.open_gbps.boringssl.16k", "GB/s", Higher),
    layer("aead.seal_gbps.boringssl.2m", "GB/s", Higher),
    layer("aead.open_gbps.boringssl.2m", "GB/s", Higher),
    layer("aead.seal_gbps.libsodium.256b", "GB/s", Higher),
    layer("aead.open_gbps.libsodium.256b", "GB/s", Higher),
    layer("aead.seal_gbps.libsodium.16k", "GB/s", Higher),
    layer("aead.open_gbps.libsodium.16k", "GB/s", Higher),
    layer("aead.seal_gbps.libsodium.2m", "GB/s", Higher),
    layer("aead.open_gbps.libsodium.2m", "GB/s", Higher),
    layer("aead.seal_gbps.cryptopp.256b", "GB/s", Higher),
    layer("aead.open_gbps.cryptopp.256b", "GB/s", Higher),
    layer("aead.seal_gbps.cryptopp.16k", "GB/s", Higher),
    layer("aead.open_gbps.cryptopp.16k", "GB/s", Higher),
    layer("aead.seal_gbps.cryptopp.2m", "GB/s", Higher),
    layer("aead.open_gbps.cryptopp.2m", "GB/s", Higher),
    layer("aead.init_ns.boringssl", "ns", Lower),
    layer("aead.model_ratio.boringssl.2m", "x", Lower),
    layer("netsim.advance_ns.r1", "ns", Lower),
    layer("netsim.handoff_ns.r2", "ns", Lower),
    layer("netsim.handoff_ns.r64", "ns", Lower),
    layer("netsim.handoff_ns.r1024", "ns", Lower),
    layer("netsim.handoff_ns.r64.s2", "ns", Lower),
    layer("netsim.xcore_ratio.r2", "x", Lower),
    layer("netsim.xcore_ratio.r64", "x", Lower),
    layer("netsim.spawn_us_per_rank.r64", "us", Lower),
    layer("netsim.spawn_us_per_rank.r1024", "us", Lower),
    layer("netsim.shard_speedup.mp_seq", "x", Higher),
    layer("netsim.shard_speedup.mp_piped", "x", Higher),
    layer("mpi.rt_ns.256b", "ns", Lower),
    layer("mpi.rt_ns.2m", "ns", Lower),
    layer("mpi.window_ns_per_msg.2m", "ns", Lower),
    layer("mpi.alltoall_ns_per_msg.r64.1k", "ns", Lower),
    layer("mpi.match_ns.q1", "ns", Lower),
    layer("mpi.match_ns.q64", "ns", Lower),
    layer("core.record_ns.256b", "ns", Lower),
    layer("core.record_ns.2m", "ns", Lower),
    layer("core.new_us", "us", Lower),
    layer("core.alltoall_ns_per_msg.r64.1k", "ns", Lower),
    layer("pipeline.seal_frames_gbps.2m", "GB/s", Higher),
    layer("pipeline.open_frames_gbps.2m", "GB/s", Higher),
    layer("pool.take_reclaim_ns.16k", "ns", Lower),
    layer("pool.take_reclaim_ns.2m", "ns", Lower),
    layer("pool.fresh_take_ns.2m", "ns", Lower),
    layer("keys.kdf_pair_ns", "ns", Lower),
    layer("keys.handshake_host_us.r8", "us", Lower),
    layer("keys.handshake_virt_us.r8", "virt_us", Lower),
    layer("metrics.overhead_pct.pp256", "%", Lower),
];

/// How long one run measures, as `BENCHMARK.json` tells the driver.
pub const RUN_SECONDS: u64 = 10;

/// A finite `f64` as JSON, with every digit it has.
pub fn json_number(x: f64) -> String {
    assert!(x.is_finite(), "JSON has no notation for {x}");
    format!("{x:?}")
}

/// `{"name": {"value": v, "unit": "u"}, ...}` for `values`, which must
/// be exactly the metrics of `defs`, in any order.
pub fn metrics_json(defs: &[Metric], values: &[(String, f64)]) -> String {
    let by_name: BTreeMap<&str, f64> = values.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    assert_eq!(by_name.len(), values.len(), "a metric was emitted twice");
    assert_eq!(
        by_name.len(),
        defs.len(),
        "emitted metrics differ from the defined ones"
    );
    let items: Vec<String> = defs
        .iter()
        .map(|m| {
            let v = by_name
                .get(m.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", m.name));
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(*v),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

/// Objects down to this depth are written one entry per line, deeper
/// ones inline: in a result file that puts each metric on its own line.
pub const PRETTY_DEPTH: usize = 4;

pub fn render_json(v: &Value, depth: usize, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        // A ratio over a failed repetition's zero; the run says so itself.
        Value::Number(n) if !n.is_finite() => out.push_str("null"),
        // Counts read better without the `.0` a float carries.
        Value::Number(n) if n.fract() == 0.0 && n.abs() < 1e15 => {
            let _ = write!(out, "{}", *n as i64);
        }
        Value::Number(n) => out.push_str(&json_number(*n)),
        Value::String(s) => {
            let _ = write!(out, "\"{}\"", escape(s));
        }
        Value::Array(a) => {
            out.push('[');
            for (i, e) in a.iter().enumerate() {
                out.push_str(if i > 0 { ", " } else { "" });
                render_json(e, PRETTY_DEPTH, out);
            }
            out.push(']');
        }
        Value::Object(m) => {
            let pad = |d: usize| format!("\n{}", "  ".repeat(d));
            let (open, sep, close) = if depth < PRETTY_DEPTH && !m.is_empty() {
                (pad(depth + 1), format!(",{}", pad(depth + 1)), pad(depth))
            } else {
                (String::new(), ", ".into(), String::new())
            };
            out.push('{');
            for (i, (k, e)) in m.iter().enumerate() {
                out.push_str(if i > 0 { &sep } else { &open });
                let _ = write!(out, "\"{}\": ", escape(k));
                render_json(e, depth + 1, out);
            }
            out.push_str(&close);
            out.push('}');
        }
    }
}

pub fn object<const N: usize>(entries: [(&str, Value); N]) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    let rows = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let workloads = SPECS
        .iter()
        .map(|s| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", s.name, s.why))
        .collect();
    let _ = writeln!(out, "  \"workloads\": {},", rows(workloads));
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                json_number(m.bound)
            )
        })
        .collect();
    let _ = writeln!(out, "  \"end_to_end\": {},", rows(end_to_end));
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    let _ = writeln!(out, "  \"per_layer\": {}", rows(per_layer));
    out.push_str("}\n");
    out
}

/// Verdict of `compare` on one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    /// The spread between a side's own repetitions is wider than the
    /// bound, or the numbers are software-AES ones: no verdict.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compare `b` against parent `a` under `m`'s bound. `spread` is the
/// wider of the two sides' own run-to-run spreads.
pub fn verdict(m: &Metric, a: f64, b: f64, spread: f64) -> Verdict {
    if spread > m.bound {
        return Verdict::Unresolved;
    }
    // Positive when b is worse, as a share of the parent's value.
    let worse_by = match m.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    };
    if worse_by > m.bound {
        Verdict::Worse
    } else if worse_by < -m.bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// One row of `compare`'s table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    pub verdict: Verdict,
}

/// The number at `path` below `v`, if there is one.
pub fn number(v: &Value, path: &[&str]) -> Option<f64> {
    path.iter().try_fold(v, |v, k| v.get(k))?.as_f64()
}

/// Compare two result files (as `suite` writes them): one row per end-
/// to-end (metric, workload) pair both have. The second value is true
/// when any virtual-time number differs between the files.
pub fn compare(a: &Value, b: &Value) -> Result<(Vec<Row>, bool), String> {
    let workloads = |v: &Value| match v.get("workloads") {
        Some(Value::Object(m)) => Ok(m.clone()),
        _ => Err("result file has no \"workloads\" object".to_string()),
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let soft_aes = [a, b].iter().any(|v| {
        !matches!(
            v.get("env").and_then(|e| e.get("hw_aes")),
            Some(Value::Bool(true))
        )
    });
    let mut rows = Vec::new();
    let mut virt_differs = false;
    for (name, ra) in &wa {
        let Some(rb) = wb.get(name) else { continue };
        for m in &END_TO_END {
            let value = |r: &Value| number(r, &["end_to_end", m.name, "value"]);
            let (Some(va), Some(vb)) = (value(ra), value(rb)) else {
                continue;
            };
            let spread = |r: &Value| number(r, &["end_to_end", m.name, "spread"]).unwrap_or(0.0);
            let mut v = verdict(m, va, vb, spread(ra).max(spread(rb)));
            // Software-AES timings are no baseline for anything.
            if soft_aes && matches!(m.name, "host_s" | "cpu_s" | "sim_msgs_per_s" | "setup_s") {
                v = Verdict::Unresolved;
            }
            rows.push(Row {
                workload: name.clone(),
                metric: m.name,
                a: va,
                b: vb,
                verdict: v,
            });
        }
        for path in [
            ["end_to_end_detail", "virt_ns"],
            ["end_to_end_detail", "virt_plain_ns"],
        ] {
            if let (Some(x), Some(y)) = (number(ra, &path), number(rb, &path)) {
                virt_differs |= x != y;
            }
        }
    }
    if rows.is_empty() {
        return Err("the two result files share no workload".to_string());
    }
    Ok((rows, virt_differs))
}

pub fn print_rows(rows: &[Row]) {
    println!(
        "{:<10} {:<16} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "a", "b", "b/a"
    );
    for r in rows {
        println!(
            "{:<10} {:<16} {:>16.6} {:>16.6} {:>9.4}  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.b / r.a,
            r.verdict.as_str()
        );
    }
}

#[cfg(test)]
pub mod tests {
    use super::*;
    use empi_trace::json::parse;

    /// Names of metrics and workloads: a letter or digit first, then at
    /// most 63 more of letters, digits, `_`, `.` and `-`.
    pub fn valid_name(s: &str) -> bool {
        let mut chars = s.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// Units: at most 16 of letters, digits, `_`, `/`, `%`, `.` and `-`.
    pub fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_are_in_the_contract_charset_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(m.name), "bad metric name {}", m.name);
            assert!(valid_unit(m.unit), "bad unit {} of {}", m.unit, m.name);
            assert!(seen.insert(m.name), "metric {} defined twice", m.name);
        }
        for m in &END_TO_END {
            assert!(
                m.bound > 0.0 && m.bound <= 0.25,
                "{} bound {}",
                m.name,
                m.bound
            );
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn charset_rules() {
        for ok in ["host_s", "aead.seal_gbps.boringssl.2m", "9lives", "a-b"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "µs", "a/b", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["s", "msgs/s", "%", "GB/s", "virt_ns"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "µs", "a b", "seventeen_letters"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_binary_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            text,
            manifest_json(),
            "regenerate with `benchmark/run.sh manifest`"
        );
        let doc = parse(&text).expect("BENCHMARK.json must parse");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .unwrap_or_else(|| panic!("no {key}"))
                .iter()
                .map(|e| {
                    e.get("name")
                        .and_then(|n| n.as_str())
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(names("workloads"), SPECS.map(|s| s.name));
        assert_eq!(names("end_to_end"), END_TO_END.map(|m| m.name));
        assert_eq!(names("per_layer"), PER_LAYER.map(|m| m.name));
        assert_eq!(
            doc.get("run_seconds").and_then(|v| v.as_f64()),
            Some(RUN_SECONDS as f64)
        );
        assert!(text.len() <= 64 << 10);
    }

    #[test]
    fn result_lines_carry_every_digit_and_reject_strays() {
        let values: Vec<(String, f64)> = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, m)| (m.name.to_string(), 1.0 / (i as f64 + 3.0)))
            .collect();
        let doc = parse(&metrics_json(&END_TO_END, &values)).expect("valid JSON");
        assert_eq!(number(&doc, &["host_s", "value"]), Some(1.0 / 3.0));
        assert_eq!(
            doc.get("setup_s")
                .and_then(|m| m.get("unit"))
                .and_then(|u| u.as_str()),
            Some("s")
        );
        let missing = std::panic::catch_unwind(|| metrics_json(&END_TO_END, &values[1..]));
        assert!(missing.is_err());
        assert_eq!(json_number(2.0), "2.0");
        assert_eq!(json_number(1e-7), "1e-7");
    }

    #[test]
    fn bound_logic() {
        let lower = e2e("x_s", "s", Lower, 0.10);
        assert_eq!(verdict(&lower, 1.0, 1.05, 0.0), Verdict::Within);
        assert_eq!(verdict(&lower, 1.0, 0.95, 0.0), Verdict::Within);
        assert_eq!(verdict(&lower, 1.0, 1.11, 0.0), Verdict::Worse);
        assert_eq!(verdict(&lower, 1.0, 0.89, 0.0), Verdict::Better);
        assert_eq!(verdict(&lower, 1.0, 1.50, 0.11), Verdict::Unresolved);
        let higher = e2e("x_per_s", "1/s", Higher, 0.10);
        assert_eq!(verdict(&higher, 100.0, 89.0, 0.0), Verdict::Worse);
        assert_eq!(verdict(&higher, 100.0, 111.0, 0.0), Verdict::Better);
        assert_eq!(verdict(&higher, 100.0, 95.0, 0.05), Verdict::Within);
        // A ratio below 1 (mp_piped's virtual slow-down) compares the same way.
        let exact = e2e("virt_slowdown", "x", Lower, 0.001);
        assert_eq!(verdict(&exact, 0.97, 0.97, 0.0), Verdict::Within);
        assert_eq!(verdict(&exact, 0.97, 0.98, 0.0), Verdict::Worse);
    }

    fn result(host_s: f64, spread: f64, virt_ns: f64, hw_aes: bool) -> Value {
        parse(&format!(
            "{{\"env\": {{\"hw_aes\": {hw_aes}}}, \"workloads\": {{\"pp_small\": {{\
             \"end_to_end\": {{\"host_s\": {{\"value\": {host_s}, \"unit\": \"s\", \"spread\": {spread}}},\
             \"virt_slowdown\": {{\"value\": 1.758, \"unit\": \"x\", \"spread\": 0}}}},\
             \"end_to_end_detail\": {{\"virt_ns\": {virt_ns}, \"virt_plain_ns\": 5}}}}}}}}"
        ))
        .expect("test JSON")
    }

    #[test]
    fn compare_applies_bounds_per_pair_and_flags_virtual_drift() {
        let a = result(1.0, 0.01, 10.0, true);
        let (rows, drift) = compare(&a, &result(1.3, 0.01, 10.0, true)).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(
            (rows[0].metric, rows[0].verdict),
            ("host_s", Verdict::Worse)
        );
        assert_eq!(
            (rows[1].metric, rows[1].verdict),
            ("virt_slowdown", Verdict::Within)
        );
        assert!(!drift);
        let (rows, drift) = compare(&a, &result(1.2, 0.3, 11.0, true)).unwrap();
        assert_eq!(rows[0].verdict, Verdict::Unresolved);
        assert!(drift);
        // Software AES on either side: host time has no verdict.
        let (rows, _) = compare(&a, &result(0.5, 0.01, 10.0, false)).unwrap();
        assert_eq!(rows[0].verdict, Verdict::Unresolved);
        assert_eq!(rows[1].verdict, Verdict::Within);
        assert!(compare(&a, &parse("{\"workloads\": {}}").unwrap()).is_err());
        assert!(compare(&a, &parse("{}").unwrap()).is_err());
    }
}
