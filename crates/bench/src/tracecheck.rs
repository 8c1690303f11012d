//! Validate Chrome trace JSON written by the `--trace` harness runs:
//! the document must parse, contain a non-empty `traceEvents` array,
//! and every lane's complete-event timestamps must be monotone
//! non-decreasing (virtual time never runs backwards). Spans on the
//! crypto-worker lanes (tid ≥ 10 000) must be pipeline chunk spans —
//! `pipe/seal` or `pipe/open` — nothing else may land there, and in
//! particular the chaos layer's `fault/*` / `retry/*` spans must stay
//! on the rank lanes where the injection/recovery happens. Used by
//! CI's smoke jobs and by tier-1 (`tests/bench_registry.rs`); exits
//! non-zero when any file is invalid.
//!
//! Allocation markers (`alloc/fresh`, `alloc/pooled`, `alloc/reclaim`),
//! `key/*` spans (handshake, rotate, revoke, reject), `waitset` spans
//! (the set poller's block reason) and `ftol/*` spans (detect, notice,
//! probe, shrink, rekey, plus the `ftol/recv` / `ftol/send` lease-wait
//! block reasons) must likewise sit on the rank lanes — buffers, keys,
//! waits and failure detection all live where the rank runs, never on a
//! crypto worker — and an unknown name in a labelled family fails.
//!
//! A `metrics-*.json` snapshot must parse, carry non-empty histograms
//! whose per-bucket counts sum to the advertised totals, conserve
//! seal/open histogram sample counts against the per-rank ledgers. A
//! run that checks any snapshot needs at least one that
//! shows load (nonzero end-to-end samples).
//!
//! Beyond those, each artifact family must show what its harness
//! exists to demonstrate: [`CONTRACTS`] names, by file-name prefix, the
//! spans a trace must hold and the counters a snapshot must report
//! positive. The file's name is the whole selector — there are no
//! flags, so CI, tier-1 and a reader at the shell check the same thing.
//!
//! Usage: `empi-bench tracecheck [FILE...]` — with no file arguments,
//! checks every `trace-*.json` and `metrics-*.json` under `results/`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use empi_trace::json::{self, Value};

/// What each artifact family must contain, keyed by file-name prefix.
/// A trace must hold at least one span matching each entry (a trailing
/// `/` matches the whole family); a snapshot must carry each
/// `block.counter` with a positive value.
pub const CONTRACTS: [(&str, &[&str]); 6] = [
    ("trace-multipair-pipe-", &["alloc/"]),
    ("trace-inflight-", &["waitset"]),
    ("trace-rekey-", &["key/handshake"]),
    ("metrics-rekey-", &["keys.handshakes"]),
    ("trace-ftol-", &["ftol/detect", "ftol/shrink"]),
    ("metrics-ftol-", &["ftol.detected", "ftol.shrinks"]),
];

/// The contract of the artifact called `name` (empty if none applies).
fn contract(name: &str) -> &'static [&'static str] {
    CONTRACTS
        .iter()
        .find(|(prefix, _)| name.starts_with(prefix))
        .map_or(&[], |(_, need)| need)
}

/// Does span `name` match contract entry `want` (`fam/` = any `fam/*`)?
fn matches(name: &str, want: &str) -> bool {
    if want.ends_with('/') {
        name.starts_with(want)
    } else {
        name == want
    }
}

/// Audit one Chrome trace document (see module docs) against the
/// universal invariants and the spans `need` names; the summary on
/// success, the first violated invariant otherwise.
pub fn check(text: &str, need: &[&str]) -> Result<String, String> {
    let doc = json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("missing traceEvents array")?;

    let mut lanes: BTreeMap<i64, f64> = BTreeMap::new();
    let mut names: BTreeMap<&str, usize> = BTreeMap::new();
    let mut spans = 0usize;
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
        let family = name.split_once('/').map_or("", |(family, _)| family);
        let known = match family {
            "alloc" => matches!(name, "alloc/fresh" | "alloc/pooled" | "alloc/reclaim"),
            "key" => matches!(
                name,
                "key/handshake" | "key/rotate" | "key/revoke" | "key/reject"
            ),
            // detect/notice/probe/shrink/rekey activity plus the
            // lease-wait block reasons of the ft verbs.
            "ftol" => matches!(
                name,
                "ftol/detect"
                    | "ftol/notice"
                    | "ftol/probe"
                    | "ftol/shrink"
                    | "ftol/rekey"
                    | "ftol/recv"
                    | "ftol/send"
            ),
            _ => true,
        };
        if !known {
            return Err(format!("event {i}: unknown {family} span '{name}'"));
        }
        if let Some(&prev) = lanes.get(&tid) {
            if ts < prev {
                return Err(format!(
                    "event {i}: lane {tid} time runs backwards ({ts} < {prev})"
                ));
            }
        }
        lanes.insert(tid, ts);
        *names.entry(name).or_default() += 1;
        spans += 1;
    }
    if spans == 0 {
        return Err("no complete-span events".into());
    }
    let count = |want: &str| -> usize {
        names
            .iter()
            .filter(|(name, _)| matches(name, want))
            .map(|(_, n)| n)
            .sum()
    };
    if let Some(want) = need.iter().find(|want| count(want) == 0) {
        let star = if want.ends_with('/') { "*" } else { "" };
        return Err(format!("no {want}{star} spans"));
    }
    Ok(format!(
        "{spans} spans ({} alloc, {} key, {} waitset, {} ftol) across {} lanes",
        count("alloc/"),
        count("key/"),
        count("waitset"),
        count("ftol/"),
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

/// Audit one metrics snapshot (see module docs) against the universal
/// invariants and the `block.counter`s `need` names. Returns a summary
/// plus whether the snapshot shows load (nonzero e2e samples).
fn check_metrics(text: &str, need: &[&str]) -> Result<(String, bool), String> {
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
    for want in need {
        let (block, counter) = want
            .split_once('.')
            .expect("a snapshot contract entry is `block.counter`");
        let counters = doc
            .get(block)
            .filter(|v| **v != Value::Null)
            .ok_or_else(|| format!("no {block} counter block"))?;
        let value = counters
            .get(counter)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{block} block missing {counter}"))?;
        if value <= 0.0 {
            return Err(format!("{block} block shows zero {counter}"));
        }
    }
    Ok((
        format!("{} histograms, {e2e} e2e samples", hists.len()),
        e2e > 0,
    ))
}

/// Is `path` a metrics snapshot (`metrics-*`) rather than a trace?
fn is_metrics(path: &Path) -> bool {
    path.file_name()
        .is_some_and(|n| n.to_string_lossy().starts_with("metrics-"))
}

/// Audit the file at `path` against the contract of its name: a
/// snapshot, or a Chrome trace (which never shows load).
pub fn check_file(path: &Path) -> Result<(String, bool), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read failed: {e}"))?;
    let need = contract(&path.file_name().unwrap_or_default().to_string_lossy());
    if !is_metrics(path) {
        return check(&text, need).map(|msg| (msg, false));
    }
    check_metrics(&text, need)
}

/// The `tracecheck` subcommand (usage in the module docs).
pub fn run(args: Vec<String>) -> ExitCode {
    let mut files: Vec<PathBuf> = args.into_iter().map(PathBuf::from).collect();
    if files.is_empty() {
        if let Ok(dir) = std::fs::read_dir("results") {
            for entry in dir.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                if (name.starts_with("trace-") || name.starts_with("metrics-"))
                    && name.ends_with(".json")
                {
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
    let mut snapshots = 0usize;
    let mut loaded_snapshots = 0usize;
    for f in &files {
        match check_file(f) {
            Ok((msg, loaded)) => {
                snapshots += is_metrics(f) as usize;
                loaded_snapshots += loaded as usize;
                println!("OK   {}: {msg}", f.display());
            }
            Err(e) => {
                eprintln!("FAIL {}: {e}", f.display());
                ok = false;
            }
        }
    }
    if snapshots > 0 && loaded_snapshots == 0 {
        eprintln!("tracecheck: every snapshot that passed is empty of e2e samples");
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
    /// samples each (bucket counts `buckets`) over one rank ledger,
    /// plus the top-level `extra` fields (`,"name":value...`).
    fn snapshot(count: u64, buckets: [u64; 2], ledger: u64, extra: &str) -> String {
        let hist = |metric: &str| {
            format!(
                r#"{{"metric":"{metric}","count":{count},"buckets":[[100,{}],[200,{}]]}}"#,
                buckets[0], buckets[1]
            )
        };
        format!(
            r#"{{"version":1,"hists":[{},{},{}],"per_rank":[{{"seal_samples":{ledger},"open_samples":{ledger}}}]{extra}}}"#,
            hist("seal"),
            hist("open"),
            hist("e2e")
        )
    }

    const WORKER: u32 = empi_trace::PIPELINE_TID_BASE;

    fn rejected(spans: &[(&str, u32, f64)], need: &[&str]) -> String {
        check(&trace(spans), need).expect_err("trace must be rejected")
    }

    #[test]
    fn minimal_valid_artifacts_are_accepted() {
        let doc = trace(&[
            ("send", 0, 0.0),
            ("alloc/fresh", 0, 1.0),
            ("key/handshake", 1, 0.0),
            ("pipe/seal", WORKER, 0.5),
        ]);
        let msg = check(&doc, &["alloc/", "key/handshake"]).unwrap();
        assert_eq!(
            msg,
            "4 spans (1 alloc, 1 key, 0 waitset, 0 ftol) across 3 lanes"
        );
        let (msg, loaded) = check_metrics(&snapshot(2, [1, 1], 2, ""), &[]).unwrap();
        assert_eq!(msg, "3 histograms, 2 e2e samples");
        assert!(loaded);
    }

    #[test]
    fn time_running_backwards_on_a_lane_is_rejected() {
        let err = rejected(&[("send", 0, 5.0), ("recv", 1, 0.0), ("recv", 0, 4.0)], &[]);
        assert_eq!(err, "event 3: lane 0 time runs backwards (4 < 5)");
    }

    #[test]
    fn only_pipeline_spans_may_sit_on_a_worker_lane() {
        let err = rejected(&[("fault/drop", WORKER, 0.0)], &[]);
        assert_eq!(
            err,
            format!("event 1: unexpected span 'fault/drop' on crypto-worker lane {WORKER}")
        );
        // The general check also covers every labelled family.
        for name in ["alloc/fresh", "waitset", "key/rotate", "ftol/detect"] {
            assert!(rejected(&[(name, WORKER + 3, 0.0)], &[]).contains("on crypto-worker lane"));
        }
    }

    #[test]
    fn unknown_labelled_spans_are_rejected() {
        for (name, want) in [
            ("key/bogus", "event 1: unknown key span 'key/bogus'"),
            ("alloc/bogus", "event 1: unknown alloc span 'alloc/bogus'"),
            ("ftol/bogus", "event 1: unknown ftol span 'ftol/bogus'"),
        ] {
            assert_eq!(rejected(&[(name, 0, 0.0)], &[]), want);
        }
    }

    #[test]
    fn contracts_are_selected_by_file_name() {
        assert_eq!(contract("trace-multipair-pipe-ethernet.json"), ["alloc/"]);
        assert_eq!(contract("trace-inflight-infiniband.json"), ["waitset"]);
        assert_eq!(
            contract("metrics-ftol-ethernet.json"),
            ["ftol.detected", "ftol.shrinks"]
        );
        // A prefix of a contracted family is not that family.
        assert!(contract("trace-multipair-ethernet.json").is_empty());
        assert!(contract("metrics-tail-ethernet.json").is_empty());
    }

    #[test]
    fn a_trace_without_its_contracted_spans_is_rejected() {
        let bare = [("send", 0, 0.0)];
        for (prefix, need) in CONTRACTS.iter().filter(|(p, _)| p.starts_with("trace-")) {
            let err = rejected(&bare, contract(&format!("{prefix}ethernet.json")));
            assert!(err.starts_with("no ") && err.contains(need[0]), "{err}");
        }
        assert_eq!(rejected(&bare, &["alloc/"]), "no alloc/* spans");
        // Both ftol spans are needed: a detection without a shrink fails.
        let detect_only = [("ftol/detect", 0, 0.0)];
        assert_eq!(
            rejected(&detect_only, contract("trace-ftol-ethernet.json")),
            "no ftol/shrink spans"
        );
        let full = trace(&[("ftol/detect", 0, 0.0), ("ftol/shrink", 0, 1.0)]);
        assert!(check(&full, contract("trace-ftol-ethernet.json")).is_ok());
    }

    #[test]
    fn a_snapshot_without_its_contracted_counters_is_rejected() {
        let need = contract("metrics-ftol-ethernet.json");
        let check_with = |extra: &str| check_metrics(&snapshot(2, [1, 1], 2, extra), need);
        assert_eq!(check_with("").unwrap_err(), "no ftol counter block");
        assert_eq!(
            check_with(r#","ftol":null"#).unwrap_err(),
            "no ftol counter block"
        );
        assert_eq!(
            check_with(r#","ftol":{"detected":1}"#).unwrap_err(),
            "ftol block missing shrinks"
        );
        assert_eq!(
            check_with(r#","ftol":{"detected":1,"shrinks":0}"#).unwrap_err(),
            "ftol block shows zero shrinks"
        );
        assert!(check_with(r#","ftol":{"detected":1,"shrinks":2}"#).is_ok());
        let keys = contract("metrics-rekey-infiniband.json");
        let err = check_metrics(&snapshot(2, [1, 1], 2, r#","keys":{"handshakes":0}"#), keys)
            .unwrap_err();
        assert_eq!(err, "keys block shows zero handshakes");
    }

    #[test]
    fn inconsistent_snapshots_are_rejected() {
        let err = check_metrics(&snapshot(3, [1, 1], 3, ""), &[]).unwrap_err();
        assert_eq!(err, "hist 0: bucket counts sum to 2, advertised count is 3");
        let err = check_metrics(&snapshot(2, [1, 1], 5, ""), &[]).unwrap_err();
        assert_eq!(
            err,
            "seal histogram samples (2) do not conserve against the rank ledgers (5)"
        );
    }
}
