//! The two passes over one workload. `end_to_end` measures what a user
//! of the simulator sees, with tracing off. `layers` runs the workload
//! again under `World::traced(true)` with the benchmark's own spans
//! around every call into a layer, then the direct per-layer probes.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use empi_aead::AesGcm;
use empi_core::HARDCODED_KEY;

use empi_trace::json::Value;

use crate::metrics::{object, render_json, PRETTY_DEPTH};
use crate::probes;
use crate::spans::{self, Spans, NO_PARENT};
use crate::stats::{highest_supported_percentile, median, percentile_sorted, spread};
use crate::sys;
use crate::workloads::{make_inputs, run_rep, Counters, Kind, Rep, RepOpts, Spec, SplitMix64};

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// A warm-up repetition is this much shorter than a timed one.
const WARM_SHRINK: usize = 20;
/// `--smoke` shrinks every repetition by this.
const SMOKE_SHRINK: usize = 50;
/// Timed repetitions per run, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Self times must add up to the workload span this closely.
const SPAN_COVERAGE_TOLERANCE: f64 = 0.02;

pub struct RunArgs<'a> {
    pub spec: &'a Spec,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
}

impl RunArgs<'_> {
    /// A full encrypted, untraced repetition on the workload's own
    /// shards; every other repetition of a pass varies this.
    fn base_opts(&self) -> RepOpts<'static> {
        RepOpts {
            secure: true,
            traced: false,
            metered: false,
            shards: self.spec.shards(),
            shrink: if self.smoke { SMOKE_SHRINK } else { 1 },
            spans: None,
        }
    }
}

/// What one pass hands back.
#[derive(Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Vec<(String, f64)>,
    /// Inter-quartile distance over median between this run's own
    /// repetitions, for the metrics that have repetitions.
    pub spreads: Vec<(String, f64)>,
    /// Lines for the human-readable report.
    pub notes: Vec<String>,
    /// Kept beside the metrics in result files.
    pub detail: BTreeMap<String, Value>,
}

impl Outcome {
    fn count(&mut self, rep: &Rep) {
        self.attempted += rep.ops;
        self.failed += rep.failed;
    }

    fn value(&mut self, name: &str, v: f64) {
        self.values.push((name.to_string(), v));
    }

    fn sampled(&mut self, name: &str, samples: &[f64]) {
        self.value(name, median(samples));
        self.spreads.push((name.to_string(), spread(samples)));
    }

    fn number(&mut self, key: &str, v: f64) {
        self.detail.insert(key.into(), Value::Number(v));
    }

    /// One line of JSON: the detail entries plus the spreads.
    pub fn detail_json(&self) -> String {
        let mut detail = self.detail.clone();
        let spreads = self
            .spreads
            .iter()
            .map(|(k, v)| (k.clone(), Value::Number(*v)));
        detail.insert("spreads".into(), Value::Object(spreads.collect()));
        let mut out = String::new();
        render_json(&Value::Object(detail), PRETTY_DEPTH, &mut out);
        out
    }

    /// Every value must be a finite number, and none may be missing.
    fn finish(mut self, checks: &[(&str, bool)]) -> Outcome {
        self.correct = self.failed == 0;
        for (what, ok) in checks {
            if !ok {
                self.notes.push(format!("CHECK FAILED: {what}"));
                self.correct = false;
            }
        }
        for (name, v) in &mut self.values {
            if !v.is_finite() {
                self.notes.push(format!("CHECK FAILED: {name} is {v}"));
                self.correct = false;
                *v = 0.0;
            }
        }
        self
    }
}

/// `(p50 in µs, tail percentile, tail in µs)` of one batch of op
/// timings, sorted in place: the tail is the highest percentile with
/// ten samples beyond it.
fn op_latency(op_ns: &mut [u64]) -> (f64, f64, f64) {
    op_ns.sort_unstable();
    let p = highest_supported_percentile(op_ns.len());
    let us = |p| percentile_sorted(op_ns, p) as f64 / 1e3;
    (us(50.0), p, us(p))
}

fn overhead_pct(virt_ns: u64, virt_plain_ns: u64) -> f64 {
    (virt_ns as f64 / virt_plain_ns as f64 - 1.0) * 100.0
}

/// Pin to the workload's own CPUs, and say so in the header.
fn place(spec: &Spec, allowed: &[usize], out: &mut Outcome) {
    let cpus = spec.cpus(allowed);
    let pinned = sys::set_affinity(cpus);
    if !pinned {
        out.notes
            .push("sched_setaffinity failed: running unpinned".into());
    }
    out.detail.insert("pinned".into(), Value::Bool(pinned));
    let cpus = cpus.iter().map(|&c| Value::Number(c as f64)).collect();
    out.detail.insert("cpus".into(), Value::Array(cpus));
    out.number("shards", spec.shards() as f64);
}

/// NAS rows of the report: per kernel, the median host seconds over
/// `reps` and the virtual overhead against `plain`.
fn kernel_detail(reps: &[Rep], plain: &Rep, out: &mut Outcome) {
    let Some(first) = reps.first().filter(|r| !r.kernels.is_empty()) else {
        return;
    };
    let mut rows = Vec::new();
    for (i, k) in first.kernels.iter().enumerate() {
        let host: Vec<f64> = reps.iter().map(|r| r.kernels[i].host_s).collect();
        let virt_plain = plain.kernels.get(i).map_or(0, |p| p.virt_ns);
        let oh = overhead_pct(k.virt_ns, virt_plain);
        out.notes.push(format!(
            "nas.{:<3} host_s {:.4}  virt_s {:.6} plain {:.6}  overhead {:.2} %",
            k.name,
            median(&host),
            k.virt_ns as f64 / 1e9,
            virt_plain as f64 / 1e9,
            oh
        ));
        rows.push(object([
            ("name", Value::String(k.name.into())),
            ("host_s", Value::Number(median(&host))),
            ("virt_ns", Value::Number(k.virt_ns as f64)),
            ("virt_plain_ns", Value::Number(virt_plain as f64)),
            ("overhead_pct", Value::Number(oh)),
        ]));
    }
    out.detail.insert("kernels".into(), Value::Array(rows));
}

pub fn end_to_end(a: &RunArgs) -> Outcome {
    let spec = a.spec;
    let mut out = Outcome::default();
    let allowed = sys::allowed_cpus();
    place(spec, &allowed, &mut out);
    let secure = a.base_opts();

    // Set-up as a user pays it: inputs from the seed, then a short
    // repetition that fills caches and finishes lazy initialisation.
    let mut setups = Vec::new();
    let mut inputs = make_inputs(spec, a.seed);
    for _ in 0..if a.smoke { 1 } else { SETUPS } {
        let t = Instant::now();
        inputs = make_inputs(spec, a.seed);
        let warm = run_rep(
            spec,
            &inputs,
            RepOpts {
                shrink: secure.shrink * WARM_SHRINK,
                ..secure
            },
        );
        setups.push(t.elapsed().as_secs_f64());
        out.count(&warm);
    }

    let plain = run_rep(
        spec,
        &inputs,
        RepOpts {
            secure: false,
            ..secure
        },
    );
    out.count(&plain);

    // Each repetition's op timings are reduced to two numbers and
    // freed at once, so that peak memory does not grow with the count
    // of repetitions that happened to fit into the run.
    let (mut reps, mut p50, mut tails) = (Vec::new(), Vec::new(), Vec::new());
    let mut op_samples = 0;
    let start = Instant::now();
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < a.seconds {
        let mut rep = run_rep(spec, &inputs, secure);
        out.count(&rep);
        let mut op_ns = std::mem::take(&mut rep.op_ns);
        if !op_ns.is_empty() {
            op_samples = op_ns.len();
            let (median_us, pct, tail) = op_latency(&mut op_ns);
            p50.push(median_us);
            tails.push((pct, tail));
        }
        reps.push(rep);
        if a.smoke {
            break;
        }
    }

    let wall: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let cpu: Vec<f64> = reps.iter().map(|r| r.cpu_s).collect();
    let first = &reps[0];
    let host_s = median(&wall);
    out.sampled("host_s", &wall);
    out.sampled("cpu_s", &cpu);
    out.value("sim_msgs_per_s", first.msgs as f64 / host_s);
    out.value("peak_rss_mb", sys::peak_rss_mb());
    out.value("virt_slowdown", first.virt_ns as f64 / plain.virt_ns as f64);
    out.sampled("setup_s", &setups);

    let oh = overhead_pct(first.virt_ns, plain.virt_ns);
    if let Some(&(pct, _)) = tails.first() {
        let tail = median(&tails.iter().map(|t| t.1).collect::<Vec<f64>>());
        out.notes.push(format!(
            "op latency p50 {:.3} us, p{pct} {tail:.3} us: medians over {} reps of {op_samples} samples each",
            median(&p50),
            reps.len()
        ));
        out.number("op_p50_us", median(&p50));
        out.number("op_tail_pct", pct);
        out.number("op_tail_us", tail);
    }
    out.notes.push(format!(
        "virt_s {:.9} encrypted, {:.9} plain: overhead {oh:.2} % (reference {:.2} %, gap {:.2} pp)",
        first.virt_ns as f64 / 1e9,
        plain.virt_ns as f64 / 1e9,
        spec.reference_pct,
        (oh - spec.reference_pct).abs()
    ));
    let walls = wall.iter().map(|&w| Value::Number(w)).collect();
    out.detail.insert("rep_host_s".into(), Value::Array(walls));
    out.number("reps", reps.len() as f64);
    out.number("op_samples_per_rep", op_samples as f64);
    out.number("virt_ns", first.virt_ns as f64);
    out.number("virt_plain_ns", plain.virt_ns as f64);
    out.number("overhead_pct", oh);
    out.number("paper_gap_pp", (oh - spec.reference_pct).abs());
    out.number("msgs_per_rep", first.msgs as f64);
    out.number("yields_per_rep", first.yields as f64);
    let fallbacks = empi_trace::engine_counters::snapshot().hw_fallbacks;
    out.number("hw_fallbacks", fallbacks as f64);
    if fallbacks > 0 || !empi_aead::aes::hardware_acceleration_available() {
        out.notes.push(
            "software AES in use: host-time rows are no baseline (compare marks them unresolved)"
                .into(),
        );
    }
    kernel_detail(&reps, &plain, &mut out);

    let deterministic = reps
        .iter()
        .all(|r| r.virt_ns == first.virt_ns && r.msgs == first.msgs);
    out.finish(&[
        (
            "every repetition reports the same virtual time and message count",
            deterministic,
        ),
        ("rank 0 timed its ops", op_samples > 0),
        (
            "virtual time advanced",
            first.virt_ns > 0 && plain.virt_ns > 0,
        ),
    ])
}

/// Host seconds the workload's records would take in direct calls to
/// `AesGcm::{seal,open}_detached` at its mean record size.
fn direct_aead_s(c: &Counters, seed: u64) -> f64 {
    let records = if c.chunks_sealed > 0 {
        c.chunks_sealed
    } else {
        c.seals
    };
    if records == 0 || c.sealed_plain_bytes == 0 {
        return 0.0;
    }
    let size = (c.sealed_plain_bytes / records).max(1) as usize;
    let gcm = AesGcm::new(&HARDCODED_KEY).expect("AES-256 key");
    let (seal_ns, open_ns) =
        probes::seal_open_ns(&gcm, &mut SplitMix64(seed).bytes(size), probes::BUDGET);
    let opened = c.opened_plain_bytes as f64 / size as f64;
    (records as f64 * seal_ns + opened * open_ns) / 1e9
}

fn print_self_times(all: &[spans::Span], out: &mut Outcome) {
    out.notes.push(format!(
        "{:<18} {:>8} {:>12} {:>12}",
        "span", "count", "total ms", "self ms"
    ));
    for (name, (count, total, own)) in spans::by_name(all) {
        out.notes.push(format!(
            "{name:<18} {count:>8} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        ));
    }
}

pub fn layers(a: &RunArgs, out_dir: &Path) -> Result<Outcome, String> {
    let spec = a.spec;
    let mut out = Outcome::default();
    let allowed = sys::allowed_cpus();
    place(spec, &allowed, &mut out);
    let inputs = make_inputs(spec, a.seed);
    let base = a.base_opts();
    let warm = run_rep(
        spec,
        &inputs,
        RepOpts {
            shrink: base.shrink * WARM_SHRINK,
            ..base
        },
    );
    out.count(&warm);

    let rec = Spans::new();
    let run_span = rec.enter("run", NO_PARENT, 0);
    let workload_span = rec.enter("workload", run_span.id(), 0);
    let spanned = |opts: RepOpts| {
        let rep_span = rec.enter("rep", workload_span.id(), 0);
        run_rep(
            spec,
            &inputs,
            RepOpts {
                spans: Some((&rec, rep_span.id())),
                ..opts
            },
        )
    };

    // Untraced reference repetitions, spans on, for about a third of
    // the run; then one traced repetition.
    let mut refs = Vec::new();
    let start = Instant::now();
    while refs.is_empty() || (!a.smoke && start.elapsed().as_secs_f64() < a.seconds / 3.0) {
        refs.push(spanned(base));
    }
    let traced = spanned(RepOpts {
        traced: true,
        ..base
    });
    let workload_id = workload_span.id();
    drop(workload_span);

    // The same traffic unencrypted.
    let plain = run_rep(
        spec,
        &inputs,
        RepOpts {
            secure: false,
            ..base
        },
    );
    for r in refs.iter().chain([&traced, &plain]) {
        out.count(r);
    }

    let probe_span = rec.enter("probes", run_span.id(), 0);
    let probe_values = probes::run_all(a.seed, base.shrink, &allowed);
    drop(probe_span);
    drop(run_span);

    let first = &refs[0];
    let wall: Vec<f64> = refs.iter().map(|r| r.wall_s).collect();
    let cpu: Vec<f64> = refs.iter().map(|r| r.cpu_s).collect();
    let (host_s, cpu_s) = (median(&wall), median(&cpu));
    let mut pooled: Vec<u64> = refs.iter().flat_map(|r| r.op_ns.iter().copied()).collect();
    let (op_p50, tail_pct, tail) = if pooled.is_empty() {
        (f64::NAN, f64::NAN, f64::NAN)
    } else {
        op_latency(&mut pooled)
    };
    let c = traced.counters.unwrap_or_default();
    let oh = overhead_pct(first.virt_ns, plain.virt_ns);
    let messages = c.seals.max(1) as f64;
    let allocs = (c.allocs_fresh + c.allocs_pooled) as f64;
    let virt_total = (c.crypto_ns + c.host_ns + c.wire_ns + c.wait_ns).max(1) as f64;

    out.value("op_p50_us", op_p50);
    out.value("op_tail_us", tail);
    out.value("op_tail_pct", tail_pct);
    out.value("op_samples", pooled.len() as f64);
    out.value("sim.msgs_per_rep", first.msgs as f64);
    out.value(
        "netsim.yields_per_op",
        first.yields as f64 / first.op_ns.len().max(1) as f64,
    );
    out.value("netsim.par_ratio", cpu_s / host_s);
    out.value("mpi.plain_host_s", plain.wall_s);
    out.value("aead.cpu_share", direct_aead_s(&c, a.seed) / cpu_s);
    out.value("core.allocs_per_msg", allocs / messages);
    out.value(
        "core.wire_expansion",
        c.sealed_wire_bytes as f64 / c.sealed_plain_bytes.max(1) as f64,
    );
    out.value("pipeline.chunks_per_msg", c.chunks_sealed as f64 / messages);
    out.value(
        "pool.hit_ratio",
        if allocs > 0.0 {
            c.allocs_pooled as f64 / allocs
        } else {
            0.0
        },
    );
    out.value("trace.overhead_pct", (traced.wall_s / host_s - 1.0) * 100.0);
    out.value("trace.dropped_events", c.dropped_events as f64);
    let all = rec.finished();
    let scratch = Spans::new();
    let span_ns = probes::ns_per_call(probes::BUDGET, 256, || {
        drop(scratch.enter("probe", NO_PARENT, 0))
    });
    let rep_spans = all.len() as f64 / (refs.len() + 1) as f64;
    out.value(
        "bench.span_overhead_pct",
        rep_spans * span_ns / (host_s * 1e9) * 100.0,
    );
    out.value("virt.rep_ns", first.virt_ns as f64);
    out.value("virt.overhead_pct", oh);
    out.value("virt.paper_gap_pp", (oh - spec.reference_pct).abs());
    out.value("virt.crypto_share", c.crypto_ns as f64 / virt_total);
    out.value("virt.host_share", c.host_ns as f64 / virt_total);
    out.value("virt.wire_share", c.wire_ns as f64 / virt_total);
    out.value("virt.wait_share", c.wait_ns as f64 / virt_total);
    out.values.extend(probe_values);
    out.spreads.push(("host_s".into(), spread(&wall)));

    print_self_times(&all, &mut out);
    let coverage = spans::self_time_coverage(&all, workload_id);
    out.notes.push(format!(
        "self times sum to {:.3} % of the workload span; {} spans, {:.0} ns each",
        coverage * 100.0,
        all.len(),
        span_ns
    ));
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!("spans-{}.json", spec.name));
    std::fs::write(&path, spans::to_chrome_json(&all, spec.name))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    out.notes
        .push(format!("spans written to {}", path.display()));
    out.number("ref_reps", refs.len() as f64);
    out.number("host_s", host_s);
    out.number("cpu_s", cpu_s);
    out.number("traced_host_s", traced.wall_s);
    out.number("span_coverage", coverage);
    kernel_detail(&refs, &plain, &mut out);
    if matches!(spec.kind, Kind::Nas) {
        out.notes.push(
            "aead.cpu_share prices every record at the mean record size: an estimate on nas_c64"
                .into(),
        );
    }

    let same_virt = |r: &Rep| r.virt_ns == first.virt_ns;
    Ok(out.finish(&[
        (
            "tracing moves virtual time by exactly zero",
            same_virt(&traced),
        ),
        (
            "every reference repetition reports the same virtual time",
            refs.iter().all(same_virt),
        ),
        (
            "every span's parent resolves",
            spans::unresolved_parents(&all).is_empty(),
        ),
        (
            "self times sum to the workload span within 2 %",
            (coverage - 1.0).abs() <= SPAN_COVERAGE_TOLERANCE,
        ),
        (
            "the traced repetition produced a trace report",
            traced.counters.is_some(),
        ),
    ]))
}
