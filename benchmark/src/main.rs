//! The `empi` benchmark. One run measures one workload:
//!
//! ```text
//! empi-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! prints a table and, as the last line of its standard output, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}` — the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`. `suite`, `check` and `compare` are built on that run,
//! one child process per workload.

mod metrics;
mod passes;
mod probes;
mod spans;
mod stats;
mod sys;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use empi_trace::json::{self, Value};

use metrics::{object, Metric, Verdict, END_TO_END, PER_LAYER};
use passes::{Outcome, RunArgs};
use workloads::SPECS;

const USAGE: &str = "\
usage: empi-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
       empi-benchmark suite   [--seed <n>] [--seconds <s>] [--smoke] [--out <file>]
       empi-benchmark check   [--seed <n>] [--seconds <s>] [--smoke]
       empi-benchmark compare <a.json> <b.json>
       empi-benchmark manifest

A run measures one workload for --seconds seconds on inputs made from --seed and
ends with one JSON line; --trace 1 reports the per-layer metrics and writes
benchmark/out/spans-<workload>.json. suite runs every workload both ways, one
child process each, and writes benchmark/out/results.json (or --out). check runs
the end-to-end pass twice and compares the two (the A/A gate). compare exits
non-zero on any worse end-to-end metric or any virtual-time difference. --smoke
shrinks every workload to one tiny repetition. Workloads: pp_small pp_large
mp_shard mp_piped nas_c64.";

/// Directory the benchmark writes into (`benchmark/out`, git-ignored).
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        workload: None,
        seed: 11,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => f.workload = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                f.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: not a whole number: {v}"))?;
            }
            "--seconds" => {
                let v = value()?;
                f.seconds = v
                    .parse()
                    .map_err(|_| format!("--seconds: not a number: {v}"))?;
                if !(f.seconds > 0.0 && f.seconds <= 600.0) {
                    return Err(format!("--seconds: out of range: {v}"));
                }
            }
            "--trace" => {
                f.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: expected 0 or 1, got {v}")),
                }
            }
            "--out" => f.out = Some(PathBuf::from(value()?)),
            "--smoke" => f.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(f)
}

/// The last line of a run: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
fn result_line(defs: &[Metric], o: &Outcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.correct,
        o.attempted.max(1),
        o.failed,
        metrics::metrics_json(defs, &o.values)
    )
}

fn print_table(title: &str, defs: &[Metric], o: &Outcome) {
    println!("{title}");
    for m in defs {
        let v = o
            .values
            .iter()
            .find(|(k, _)| k == m.name)
            .map_or(f64::NAN, |(_, v)| *v);
        let spread = o
            .spreads
            .iter()
            .find(|(k, _)| k == m.name)
            .map_or(String::new(), |(_, s)| {
                format!("  spread {:.1} %", s * 100.0)
            });
        println!("  {:<36} {:>18.6} {:<8}{spread}", m.name, v, m.unit);
    }
}

/// Measure one workload in this process.
fn run_one(f: &Flags) -> Result<ExitCode, String> {
    let name = f.workload.as_deref().ok_or("--workload is required")?;
    let spec = workloads::spec(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let args = RunArgs {
        spec,
        seed: f.seed,
        seconds: f.seconds,
        smoke: f.smoke,
    };
    let (defs, outcome) = if f.trace {
        (&PER_LAYER[..], passes::layers(&args, &out_dir())?)
    } else {
        (&END_TO_END[..], passes::end_to_end(&args))
    };
    let pass = if f.trace { "per layer" } else { "end to end" };
    print_table(&format!("{name} — {pass}, seed {}", f.seed), defs, &outcome);
    for note in &outcome.notes {
        println!("  {note}");
    }
    println!(
        "  correct {}  attempted {}  failed {}",
        outcome.correct, outcome.attempted, outcome.failed
    );
    // Two machine-readable lines: what `suite` keeps beside the
    // metrics, then the result itself, which must come last.
    println!("{}", outcome.detail_json());
    println!("{}", result_line(defs, &outcome));
    Ok(ExitCode::SUCCESS)
}

/// Run one workload in a child process and return its last two lines
/// parsed: `(detail, result)`.
fn child_run(name: &str, f: &Flags, trace: bool) -> Result<(Value, Value), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &f.seed.to_string()])
        .args(["--seconds", &f.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if f.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start a run of {name}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("run of {name} ended with {}:\n{text}", out.status));
    }
    let mut lines: Vec<&str> = text.lines().collect();
    let last_two = lines.split_off(lines.len().saturating_sub(2));
    println!("{}", lines.join("\n"));
    match last_two[..] {
        [detail, result] => Ok((
            json::parse(detail).map_err(|e| format!("{name}: bad detail line: {e}"))?,
            json::parse(result).map_err(|e| format!("{name}: bad result line: {e}"))?,
        )),
        _ => Err(format!("run of {name} printed no result")),
    }
}

/// One workload's entry in a result file: the runs' counts, each pass's
/// metrics with the spread between its own repetitions, its detail.
fn workload_entry(runs: &[(&str, &Value, &Value)]) -> Value {
    let mut entry = std::collections::BTreeMap::new();
    let (mut correct, mut attempted, mut failed) = (true, 0.0, 0.0);
    for &(pass, detail, result) in runs {
        let count = |key| result.get(key).and_then(Value::as_f64).unwrap_or(0.0);
        correct &= matches!(result.get("correct"), Some(Value::Bool(true)));
        attempted += count("attempted");
        failed += count("failed");
        let mut metrics = result.get("metrics").cloned().unwrap_or(Value::Null);
        if let Value::Object(by_name) = &mut metrics {
            for (name, metric) in by_name {
                let spread = detail.get("spreads").and_then(|s| s.get(name));
                if let (Value::Object(fields), Some(s)) = (metric, spread) {
                    fields.insert("spread".into(), s.clone());
                }
            }
        }
        entry.insert(pass.to_string(), metrics);
        entry.insert(format!("{pass}_detail"), detail.clone());
    }
    entry.insert("correct".into(), Value::Bool(correct));
    entry.insert("attempted".into(), Value::Number(attempted));
    entry.insert("failed".into(), Value::Number(failed));
    Value::Object(entry)
}

/// The environment guards at the head of every result file.
fn env_header(f: &Flags) -> Value {
    let env = sys::Env::detect();
    let build_s = std::env::var("EMPI_BENCH_BUILD_S")
        .ok()
        .and_then(|v| v.parse().ok())
        .map_or(Value::Null, Value::Number);
    object([
        ("git_sha", Value::String(env.git_sha)),
        ("rustc", Value::String(env.rustc)),
        ("nproc", Value::Number(env.nproc as f64)),
        ("cpu_model", Value::String(env.cpu_model)),
        ("hw_aes", Value::Bool(env.hw_aes)),
        ("seed", Value::Number(f.seed as f64)),
        ("seconds", Value::Number(f.seconds)),
        ("smoke", Value::Bool(f.smoke)),
        ("build_s", build_s),
    ])
}

/// Run every workload end to end and, if `layers`, under trace too;
/// return the result file as a document.
fn run_suite(f: &Flags, layers: bool) -> Result<Value, String> {
    let mut workloads = std::collections::BTreeMap::new();
    for s in &SPECS {
        eprintln!("== {} ==", s.name);
        let e2e = child_run(s.name, f, false)?;
        let traced = if layers {
            Some(child_run(s.name, f, true)?)
        } else {
            None
        };
        let mut runs = vec![("end_to_end", &e2e.0, &e2e.1)];
        if let Some((d, r)) = &traced {
            runs.push(("per_layer", d, r));
        }
        workloads.insert(s.name.to_string(), workload_entry(&runs));
    }
    Ok(object([
        ("schema", Value::Number(1.0)),
        ("issue", Value::Number(11.0)),
        ("env", env_header(f)),
        ("workloads", Value::Object(workloads)),
    ]))
}

/// What the suite adds to the per-workload tables: numbers that need
/// two workloads, and the correctness roll-up.
fn suite_summary(doc: &Value) -> bool {
    let e2e = |w: &str, m: &str| metrics::number(doc, &["workloads", w, "end_to_end", m, "value"]);
    let per_mb = |w: &str| Some(e2e(w, "host_s")? / workloads::spec(w)?.window_mb_per_rep()?);
    println!("summary");
    if let (Some(piped), Some(seq)) = (per_mb("mp_piped"), per_mb("mp_shard")) {
        println!(
            "  pipeline.piped_vs_seq_host.2m {:>10.4} x   ({:.4} ms/MB piped over {:.4} ms/MB sequential)",
            piped / seq,
            piped * 1e3,
            seq * 1e3
        );
    }
    let mut all_correct = true;
    if let Some(Value::Object(ws)) = doc.get("workloads") {
        for (name, w) in ws {
            let ok = matches!(w.get("correct"), Some(Value::Bool(true)));
            let failed = w.get("failed").and_then(Value::as_f64).unwrap_or(f64::NAN);
            let attempted = w
                .get("attempted")
                .and_then(Value::as_f64)
                .unwrap_or(f64::NAN);
            println!(
                "  {name:<10} correct {ok}  fail_ratio {}",
                failed / attempted
            );
            all_correct &= ok;
        }
    }
    all_correct
}

fn status(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn suite(f: &Flags) -> Result<ExitCode, String> {
    let doc = run_suite(f, true)?;
    let mut text = String::new();
    metrics::render_json(&doc, 0, &mut text);
    text.push('\n');
    let path = f
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join("results.json"));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
    let ok = suite_summary(&doc);
    println!("results written to {}", path.display());
    Ok(status(ok))
}

/// Print `compare`'s table for two parsed result files; true when no
/// end-to-end metric is worse and no virtual-time number differs.
fn compare_docs(a: &Value, b: &Value) -> Result<bool, String> {
    let (rows, virt_differs) = metrics::compare(a, b)?;
    metrics::print_rows(&rows);
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} better, {} within, {} worse, {} unresolved; virtual time {}",
        count(Verdict::Better),
        count(Verdict::Within),
        count(Verdict::Worse),
        count(Verdict::Unresolved),
        if virt_differs { "DIFFERS" } else { "bit-equal" }
    );
    Ok(count(Verdict::Worse) == 0 && !virt_differs)
}

fn compare(paths: &[String]) -> Result<ExitCode, String> {
    let [a, b] = paths else {
        return Err("compare takes two result files".into());
    };
    let load = |p: &String| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    Ok(status(compare_docs(&load(a)?, &load(b)?)?))
}

/// The A/A gate: two end-to-end passes of the same code must agree
/// within the benchmark's own bounds.
fn check(f: &Flags) -> Result<ExitCode, String> {
    let a = run_suite(f, false)?;
    let b = run_suite(f, false)?;
    let correct = suite_summary(&a) & suite_summary(&b);
    let ok = compare_docs(&a, &b)? && correct;
    println!("check {}", if ok { "passed" } else { "FAILED" });
    Ok(status(ok))
}

fn main() -> ExitCode {
    // The workloads set shards, tracing and the NAS cost model
    // themselves; what the caller's shell exports must not leak in.
    // No other thread exists yet.
    for var in ["EMPI_SHARDS", "EMPI_TRACE", "EMPI_NAS_NS_SCALE"] {
        std::env::remove_var(var);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("suite" | "check" | "compare" | "manifest")) => (c, &args[1..]),
        Some("--help" | "-h") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        None => ("suite", &args[..]),
        Some(_) => ("run", &args[..]),
    };
    let result = match command {
        "compare" => compare(rest),
        "manifest" => {
            print!("{}", metrics::manifest_json());
            Ok(ExitCode::SUCCESS)
        }
        _ => parse_flags(rest).and_then(|f| match command {
            "suite" => suite(&f),
            "check" => check(&f),
            _ => run_one(&f),
        }),
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}
