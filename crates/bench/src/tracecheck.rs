//! Validate Chrome trace JSON written by the `--trace` harness runs:
//! the document must parse, contain a non-empty `traceEvents` array,
//! and every lane's complete-event timestamps must be monotone
//! non-decreasing (virtual time never runs backwards). Spans on the
//! crypto-worker lanes (tid ≥ 10 000) must be pipeline chunk spans —
//! `pipe/seal` or `pipe/open` — nothing else may land there, and in
//! particular the chaos layer's `fault/*` / `retry/*` spans must stay
//! on the rank lanes where the injection/recovery happens. Used by
//! the CI trace-smoke and chaos-smoke jobs; exits non-zero on the
//! first invalid file.
//!
//! Allocation markers (`alloc/fresh`, `alloc/pooled`, `alloc/reclaim`)
//! must likewise sit on the rank lanes — buffer sourcing happens where
//! the rank runs, never on a crypto worker — and `--require-alloc`
//! additionally fails any file that carries no `alloc/*` spans at all
//! (the allocation-decomposition traces must actually decompose).
//!
//! `--require-hist` audits the metrics plane: every `metrics-*.json`
//! snapshot must parse, carry non-empty histograms whose per-bucket
//! counts sum to the advertised totals, conserve seal/open histogram
//! sample counts against the per-rank ledgers, and its sibling `.prom`
//! Prometheus export must pass the text-format validator. At least one
//! snapshot file must exist, and at least one must show load (nonzero
//! end-to-end samples).
//!
//! `key/*` spans (handshake, rotate, revoke, reject) must sit on the
//! rank lanes — the key plane lives where the rank runs, never on a
//! crypto worker — and `--require-keys` additionally fails any trace
//! file without a `key/handshake` span and any metrics snapshot whose
//! `keys` counter block is absent or shows no completed handshake (the
//! key-lifecycle artifacts must actually exercise the key plane).
//! `--forbid-rotate` checks the converse invariant — with rotation
//! disabled zero epochs may roll: any `key/rotate` span, or a snapshot
//! reporting nonzero `rekeys`, fails.
//!
//! `waitset` spans — the completion-set poller's block reason — must
//! sit on the rank lanes (a wait happens where the rank blocks, never
//! on a crypto worker), and `--require-wait` additionally fails any
//! trace file that carries none at all (the nonblocking harnesses must
//! actually drive their waits through the set poller).
//!
//! `ftol/*` spans (detect, notice, probe, shrink, rekey, plus the
//! `ftol/recv` / `ftol/send` lease-wait block reasons) must sit on the
//! rank lanes — failure detection happens where the rank blocks, never
//! on a crypto worker — and `--require-ftol` additionally fails any
//! trace file without a confirmed detection (`ftol/detect`) and a
//! completed shrink (`ftol/shrink`), and any metrics snapshot whose
//! `ftol` counter block is absent or shows no detection (the
//! fault-tolerance artifacts must actually ride the recovery ladder).
//!
//! Usage: `empi-bench tracecheck [--require-alloc] [--require-hist]
//! [--require-keys] [--forbid-rotate] [--require-wait] [--require-ftol]
//! [FILE...]` — with no file arguments, checks every `trace-*.json`
//! (and with `--require-hist`, `--require-keys`, or `--require-ftol`
//! every `metrics-*.json`) under `results/`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use empi_trace::export::validate_prometheus;
use empi_trace::json::{self, Value};

/// The optional invariants selected on the command line.
#[derive(Clone, Copy, Default)]
pub struct Flags {
    /// `--require-alloc`
    pub require_alloc: bool,
    /// `--require-wait`
    pub require_wait: bool,
    /// `--require-hist`
    pub require_hist: bool,
    /// `--require-keys`
    pub require_keys: bool,
    /// `--require-ftol`
    pub require_ftol: bool,
    /// `--forbid-rotate`
    pub forbid_rotate: bool,
}

/// Audit one Chrome trace document (see module docs); the summary on
/// success, the first violated invariant otherwise.
pub fn check(text: &str, flags: Flags) -> Result<String, String> {
    let doc = json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("missing traceEvents array")?;

    let mut lanes: BTreeMap<i64, f64> = BTreeMap::new();
    let mut spans = 0usize;
    let mut alloc_spans = 0usize;
    let mut waitset_spans = 0usize;
    let mut handshake_spans = 0usize;
    let mut rotate_spans = 0usize;
    let mut detect_spans = 0usize;
    let mut shrink_spans = 0usize;
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        if ph != "X" {
            continue; // metadata (lane names)
        }
        let tid = e
            .get("tid")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("event {i}: missing tid"))? as i64;
        let ts = e
            .get("ts")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("event {i}: missing ts"))?;
        let dur = e
            .get("dur")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("event {i}: missing dur"))?;
        if ts < 0.0 || dur < 0.0 {
            return Err(format!("event {i}: negative ts/dur ({ts}, {dur})"));
        }
        let name = e
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing name"))?;
        if tid >= empi_trace::PIPELINE_TID_BASE as i64 && name != "pipe/seal" && name != "pipe/open"
        {
            return Err(format!(
                "event {i}: unexpected span '{name}' on crypto-worker lane {tid}"
            ));
        }
        if name.starts_with("alloc/") {
            if !matches!(name, "alloc/fresh" | "alloc/pooled" | "alloc/reclaim") {
                return Err(format!("event {i}: unknown alloc span '{name}'"));
            }
            alloc_spans += 1;
        }
        if name == "waitset" {
            waitset_spans += 1;
        }
        if name.starts_with("key/") {
            match name {
                "key/handshake" => handshake_spans += 1,
                "key/rotate" => rotate_spans += 1,
                "key/revoke" | "key/reject" => {}
                _ => return Err(format!("event {i}: unknown key span '{name}'")),
            }
        }
        if name.starts_with("ftol/") {
            match name {
                "ftol/detect" => detect_spans += 1,
                "ftol/shrink" => shrink_spans += 1,
                // notice/probe/rekey activity plus the lease-wait
                // block reasons of the ft verbs.
                "ftol/notice" | "ftol/probe" | "ftol/rekey" | "ftol/recv" | "ftol/send" => {}
                _ => return Err(format!("event {i}: unknown ftol span '{name}'")),
            }
        }
        if let Some(&prev) = lanes.get(&tid) {
            if ts < prev {
                return Err(format!(
                    "event {i}: lane {tid} time runs backwards ({ts} < {prev})"
                ));
            }
        }
        lanes.insert(tid, ts);
        spans += 1;
    }
    if spans == 0 {
        return Err("no complete-span events".into());
    }
    if flags.require_alloc && alloc_spans == 0 {
        return Err("no alloc/* spans (allocation decomposition missing)".into());
    }
    if flags.require_wait && waitset_spans == 0 {
        return Err("no waitset spans (completion-set waits missing)".into());
    }
    if flags.require_keys && handshake_spans == 0 {
        return Err("no key/handshake spans (key lifecycle missing)".into());
    }
    if flags.require_ftol && detect_spans == 0 {
        return Err("no ftol/detect spans (failure detection missing)".into());
    }
    if flags.require_ftol && shrink_spans == 0 {
        return Err("no ftol/shrink spans (communicator shrink missing)".into());
    }
    if flags.forbid_rotate && rotate_spans > 0 {
        return Err(format!(
            "{rotate_spans} key/rotate spans, but rotation is disabled"
        ));
    }
    Ok(format!(
        "{spans} spans ({alloc_spans} alloc, {} key, {waitset_spans} waitset, {} ftol) \
         across {} lanes",
        handshake_spans + rotate_spans,
        detect_spans + shrink_spans,
        lanes.len()
    ))
}

/// Sum `field` over the objects of `arr`, optionally keeping only
/// objects whose `filter_key` equals `filter_val`.
fn sum_field(arr: &[Value], field: &str, filter: Option<(&str, &str)>) -> Result<u64, String> {
    let mut total = 0u64;
    for (i, e) in arr.iter().enumerate() {
        if let Some((k, want)) = filter {
            if e.get(k).and_then(Value::as_str) != Some(want) {
                continue;
            }
        }
        total += e
            .get(field)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("entry {i}: missing {field}"))? as u64;
    }
    Ok(total)
}

/// Audit one metrics snapshot and its Prometheus sibling `prom` (see
/// module docs). Returns a summary plus whether the snapshot shows load
/// (nonzero e2e samples).
pub fn check_metrics(text: &str, prom: &str, flags: Flags) -> Result<(String, bool), String> {
    let doc = json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let version = doc
        .get("version")
        .and_then(Value::as_f64)
        .ok_or("missing version")?;
    if version != 1.0 {
        return Err(format!("unsupported snapshot version {version}"));
    }
    let hists = doc
        .get("hists")
        .and_then(Value::as_array)
        .ok_or("missing hists array")?;
    if hists.is_empty() {
        return Err("no histograms in snapshot".into());
    }
    for (i, h) in hists.iter().enumerate() {
        let count = h
            .get("count")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("hist {i}: missing count"))? as u64;
        let buckets = h
            .get("buckets")
            .and_then(Value::as_array)
            .ok_or_else(|| format!("hist {i}: missing buckets"))?;
        if count == 0 || buckets.is_empty() {
            return Err(format!("hist {i}: empty histogram in snapshot"));
        }
        let mut bucket_sum = 0u64;
        for b in buckets {
            let pair = b
                .as_array()
                .ok_or_else(|| format!("hist {i}: bad bucket"))?;
            bucket_sum +=
                pair.get(1)
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("hist {i}: bad bucket count"))? as u64;
        }
        if bucket_sum != count {
            return Err(format!(
                "hist {i}: bucket counts sum to {bucket_sum}, advertised count is {count}"
            ));
        }
    }
    let per_rank = doc
        .get("per_rank")
        .and_then(Value::as_array)
        .ok_or("missing per_rank array")?;
    // Conservation: the merged histograms and the per-rank ledgers
    // count the same record() calls through independent paths.
    for (metric, ledger_field) in [("seal", "seal_samples"), ("open", "open_samples")] {
        let hist_total = sum_field(hists, "count", Some(("metric", metric)))?;
        let ledger_total = sum_field(per_rank, ledger_field, None)?;
        if hist_total != ledger_total {
            return Err(format!(
                "{metric} histogram samples ({hist_total}) do not conserve against \
                 the rank ledgers ({ledger_total})"
            ));
        }
    }
    let e2e = sum_field(hists, "count", Some(("metric", "e2e")))?;
    let keys = doc.get("keys").filter(|v| **v != Value::Null);
    let key_counter = |field: &str| -> Result<u64, String> {
        keys.and_then(|k| k.get(field))
            .and_then(Value::as_f64)
            .map(|v| v as u64)
            .ok_or_else(|| format!("keys block missing {field}"))
    };
    if flags.require_keys {
        if keys.is_none() {
            return Err("no keys counter block (key plane not exercised)".into());
        }
        if key_counter("handshakes")? == 0 {
            return Err("keys block shows zero completed handshakes".into());
        }
    }
    let ftol = doc.get("ftol").filter(|v| **v != Value::Null);
    if flags.require_ftol {
        let ftol_counter = |field: &str| -> Result<u64, String> {
            ftol.and_then(|f| f.get(field))
                .and_then(Value::as_f64)
                .map(|v| v as u64)
                .ok_or_else(|| format!("ftol block missing {field}"))
        };
        if ftol.is_none() {
            return Err("no ftol counter block (recovery ladder not exercised)".into());
        }
        if ftol_counter("detected")? == 0 {
            return Err("ftol block shows zero confirmed detections".into());
        }
        if ftol_counter("shrinks")? == 0 {
            return Err("ftol block shows zero completed shrinks".into());
        }
    }
    if flags.forbid_rotate && keys.is_some() {
        let rekeys = key_counter("rekeys")?;
        if rekeys > 0 {
            return Err(format!(
                "{rekeys} epoch rolls reported, but rotation is disabled"
            ));
        }
    }
    validate_prometheus(prom).map_err(|e| format!("invalid Prometheus export: {e}"))?;
    Ok((
        format!(
            "{} histograms, {e2e} e2e samples, prometheus valid",
            hists.len()
        ),
        e2e > 0,
    ))
}

/// Is `path` a metrics snapshot (`metrics-*`) rather than a trace?
fn is_metrics(path: &Path) -> bool {
    path.file_name()
        .is_some_and(|n| n.to_string_lossy().starts_with("metrics-"))
}

/// Audit the file at `path`: a snapshot with its `.prom` sibling, or a
/// Chrome trace (which never shows load).
pub fn check_file(path: &Path, flags: Flags) -> Result<(String, bool), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read failed: {e}"))?;
    if !is_metrics(path) {
        return check(&text, flags).map(|msg| (msg, false));
    }
    let prom_path = path.with_extension("prom");
    let prom = std::fs::read_to_string(&prom_path)
        .map_err(|e| format!("missing Prometheus sibling {}: {e}", prom_path.display()))?;
    check_metrics(&text, &prom, flags)
}

/// The `tracecheck` subcommand (usage in the module docs).
pub fn run(args: Vec<String>) -> ExitCode {
    let mut flags = Flags::default();
    let mut files: Vec<PathBuf> = args
        .into_iter()
        .filter(|a| match a.as_str() {
            "--require-alloc" => {
                flags.require_alloc = true;
                false
            }
            "--require-wait" => {
                flags.require_wait = true;
                false
            }
            "--require-hist" => {
                flags.require_hist = true;
                false
            }
            "--require-keys" => {
                flags.require_keys = true;
                false
            }
            "--require-ftol" => {
                flags.require_ftol = true;
                false
            }
            "--forbid-rotate" => {
                flags.forbid_rotate = true;
                false
            }
            _ => true,
        })
        .map(PathBuf::from)
        .collect();
    if files.is_empty() {
        let want_metrics = flags.require_hist || flags.require_keys || flags.require_ftol;
        if let Ok(dir) = std::fs::read_dir("results") {
            for entry in dir.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                let is_trace = name.starts_with("trace-") && name.ends_with(".json");
                let is_metrics =
                    want_metrics && name.starts_with("metrics-") && name.ends_with(".json");
                if is_trace || is_metrics {
                    files.push(entry.path());
                }
            }
        }
        files.sort();
    }
    if files.is_empty() {
        eprintln!("tracecheck: no trace files given and none found under results/");
        return ExitCode::FAILURE;
    }
    let mut ok = true;
    let mut metrics_files = 0usize;
    let mut loaded_snapshots = 0usize;
    for f in &files {
        metrics_files += is_metrics(f) as usize;
        match check_file(f, flags) {
            Ok((msg, loaded)) => {
                loaded_snapshots += loaded as usize;
                println!("OK   {}: {msg}", f.display());
            }
            Err(e) => {
                eprintln!("FAIL {}: {e}", f.display());
                ok = false;
            }
        }
    }
    if flags.require_hist && metrics_files == 0 {
        eprintln!("tracecheck: --require-hist but no metrics-*.json snapshots checked");
        ok = false;
    }
    if flags.require_hist && metrics_files > 0 && loaded_snapshots == 0 {
        eprintln!("tracecheck: --require-hist but every snapshot is empty of e2e samples");
        ok = false;
    }
    if flags.require_keys && metrics_files == 0 {
        eprintln!("tracecheck: --require-keys but no metrics-*.json snapshots checked");
        ok = false;
    }
    if flags.require_ftol && metrics_files == 0 {
        eprintln!("tracecheck: --require-ftol but no metrics-*.json snapshots checked");
        ok = false;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trace document whose complete spans are `(name, tid, ts)`.
    fn trace(spans: &[(&str, u32, f64)]) -> String {
        let events: Vec<String> = spans
            .iter()
            .map(|(name, tid, ts)| {
                format!(r#"{{"ph":"X","name":"{name}","pid":0,"tid":{tid},"ts":{ts},"dur":0.5}}"#)
            })
            .collect();
        format!(
            r#"{{"traceEvents":[{{"ph":"M","name":"thread_name","pid":0,"tid":0}},{}]}}"#,
            events.join(",")
        )
    }

    /// A snapshot with one seal, open and e2e histogram of `count`
    /// samples each (bucket counts `buckets`) over one rank ledger.
    fn snapshot(count: u64, buckets: [u64; 2], ledger: u64) -> String {
        let hist = |metric: &str| {
            format!(
                r#"{{"metric":"{metric}","count":{count},"buckets":[[100,{}],[200,{}]]}}"#,
                buckets[0], buckets[1]
            )
        };
        format!(
            r#"{{"version":1,"hists":[{},{},{}],"per_rank":[{{"seal_samples":{ledger},"open_samples":{ledger}}}]}}"#,
            hist("seal"),
            hist("open"),
            hist("e2e")
        )
    }

    const PROM: &str = "# TYPE empi_msgs counter\nempi_msgs{rank=\"0\"} 3\n";
    const WORKER: u32 = empi_trace::PIPELINE_TID_BASE;

    fn rejected(spans: &[(&str, u32, f64)], flags: Flags) -> String {
        check(&trace(spans), flags).expect_err("trace must be rejected")
    }

    #[test]
    fn minimal_valid_artifacts_are_accepted() {
        let doc = trace(&[
            ("send", 0, 0.0),
            ("alloc/fresh", 0, 1.0),
            ("key/handshake", 1, 0.0),
            ("pipe/seal", WORKER, 0.5),
        ]);
        let all = Flags {
            require_alloc: true,
            require_keys: true,
            ..Flags::default()
        };
        let msg = check(&doc, all).unwrap();
        assert_eq!(
            msg,
            "4 spans (1 alloc, 1 key, 0 waitset, 0 ftol) across 3 lanes"
        );
        let (msg, loaded) = check_metrics(&snapshot(2, [1, 1], 2), PROM, Flags::default()).unwrap();
        assert_eq!(msg, "3 histograms, 2 e2e samples, prometheus valid");
        assert!(loaded);
    }

    #[test]
    fn time_running_backwards_on_a_lane_is_rejected() {
        let err = rejected(
            &[("send", 0, 5.0), ("recv", 1, 0.0), ("recv", 0, 4.0)],
            Flags::default(),
        );
        assert_eq!(err, "event 3: lane 0 time runs backwards (4 < 5)");
    }

    #[test]
    fn only_pipeline_spans_may_sit_on_a_worker_lane() {
        let err = rejected(&[("fault/drop", WORKER, 0.0)], Flags::default());
        assert_eq!(
            err,
            format!("event 1: unexpected span 'fault/drop' on crypto-worker lane {WORKER}")
        );
        // The general check also covers every labelled family.
        for name in ["alloc/fresh", "waitset", "key/rotate", "ftol/detect"] {
            assert!(rejected(&[(name, WORKER + 3, 0.0)], Flags::default())
                .contains("on crypto-worker lane"));
        }
    }

    #[test]
    fn unknown_labelled_spans_are_rejected() {
        for (name, want) in [
            ("key/bogus", "event 1: unknown key span 'key/bogus'"),
            ("alloc/bogus", "event 1: unknown alloc span 'alloc/bogus'"),
            ("ftol/bogus", "event 1: unknown ftol span 'ftol/bogus'"),
        ] {
            assert_eq!(rejected(&[(name, 0, 0.0)], Flags::default()), want);
        }
    }

    #[test]
    fn require_alloc_rejects_a_trace_without_alloc_spans() {
        let spans = [("send", 0, 0.0)];
        assert!(check(&trace(&spans), Flags::default()).is_ok());
        let flags = Flags {
            require_alloc: true,
            ..Flags::default()
        };
        assert_eq!(
            rejected(&spans, flags),
            "no alloc/* spans (allocation decomposition missing)"
        );
    }

    #[test]
    fn inconsistent_snapshots_are_rejected() {
        let err = check_metrics(&snapshot(3, [1, 1], 3), PROM, Flags::default()).unwrap_err();
        assert_eq!(err, "hist 0: bucket counts sum to 2, advertised count is 3");
        let err = check_metrics(&snapshot(2, [1, 1], 5), PROM, Flags::default()).unwrap_err();
        assert_eq!(
            err,
            "seal histogram samples (2) do not conserve against the rank ledgers (5)"
        );
        let err =
            check_metrics(&snapshot(2, [1, 1], 2), "empi msgs 3\n", Flags::default()).unwrap_err();
        assert!(err.starts_with("invalid Prometheus export:"), "{err}");
    }
}
