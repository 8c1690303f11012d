//! Source-level invariants of the stack's "one code path per layer"
//! claims, checked by reading the sources — what used to be `grep`
//! steps in a CI side job. Comment lines are ignored; test modules
//! count (a test that called the engine's deadline park directly would
//! be a second wait protocol too).

use std::path::{Path, PathBuf};

fn repo(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// Every `.rs` file under `dir`, recursively, sorted.
fn rust_files(dir: &str) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![repo(dir)];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).unwrap_or_else(|e| panic!("{}: {e}", d.display())) {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|x| x == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// `(file, line number, line)` of every non-comment source line.
fn code_lines(files: &[PathBuf]) -> Vec<(String, usize, String)> {
    let mut out = Vec::new();
    for path in files {
        let text = std::fs::read_to_string(path).unwrap();
        let name = path
            .strip_prefix(repo(""))
            .unwrap()
            .to_string_lossy()
            .into_owned();
        for (i, line) in text.lines().enumerate() {
            if !line.trim_start().starts_with("//") {
                out.push((name.clone(), i + 1, line.to_string()));
            }
        }
    }
    out
}

fn stack_sources() -> Vec<PathBuf> {
    let mut files = rust_files("crates/mpi/src");
    files.extend(rust_files("crates/core/src"));
    files
}

/// Where `needle` occurs outside its own `const` definition, as
/// `file:line` strings.
fn sites(lines: &[(String, usize, String)], needle: &str) -> Vec<String> {
    lines
        .iter()
        .filter(|(_, _, l)| l.contains(needle) && !l.trim_start().starts_with("const "))
        .map(|(f, n, _)| format!("{f}:{n}"))
        .collect()
}

/// One way to wait: the lease-armed park is the only caller of the
/// engine's deadline timer, and the idle-round guard is written once.
#[test]
fn the_lease_protocol_is_written_once() {
    let lines = code_lines(&stack_sources());
    let parks = sites(&lines, "block_on_deadline(");
    assert_eq!(parks.len(), 1, "block_on_deadline( call sites: {parks:?}");
    assert!(parks[0].starts_with("crates/mpi/src/ftol.rs"), "{parks:?}");
    let guards = sites(&lines, "MAX_IDLE_ROUNDS");
    assert_eq!(guards.len(), 1, "MAX_IDLE_ROUNDS use sites: {guards:?}");
}

/// No wait path may panic on a payload format: within the window the
/// old CI grep used (two lines before to six after), no
/// `RecvPayload::Chunked` arm is followed by `panic!`/`unreachable!`.
#[test]
fn no_wait_path_panics_on_a_payload_format() {
    let mut files: Vec<PathBuf> = ["state.rs", "comm.rs", "ftol.rs"]
        .iter()
        .map(|f| repo("crates/mpi/src").join(f))
        .collect();
    files.extend(rust_files("crates/core/src/secure_comm"));
    for path in files {
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        for (i, _) in lines
            .iter()
            .enumerate()
            .filter(|(_, l)| l.contains("RecvPayload::Chunked"))
        {
            let window = &lines[i.saturating_sub(2)..lines.len().min(i + 7)];
            let bad = window
                .iter()
                .find(|l| l.contains("panic!") || l.contains("unreachable!"));
            assert!(
                bad.is_none(),
                "{}:{}: a RecvPayload::Chunked arm sits next to `{}`",
                path.display(),
                i + 1,
                bad.unwrap().trim()
            );
        }
    }
}

/// One matching engine: the arrival queue and posted list are indexed
/// only in `state.rs`.
#[test]
fn only_state_rs_indexes_the_matching_queues() {
    let lines = code_lines(&rust_files("crates/mpi/src"));
    let outside: Vec<String> = sites(&lines, "queues[")
        .into_iter()
        .filter(|s| !s.starts_with("crates/mpi/src/state.rs"))
        .collect();
    assert!(outside.is_empty(), "queues[ outside state.rs: {outside:?}");
    assert!(
        !sites(&lines, "queues[").is_empty(),
        "state.rs no longer indexes queues[?"
    );
}

/// One collective schedule under both layers: the rounds are generated
/// in `coll.rs` and walked by `exchange`, so the transport keeps a
/// handful of `sendrecv(` sites (the exchange hop, Bruck, allreduce),
/// every algorithm threshold is compared at one site in the whole
/// stack, and the encrypted collectives do no rank arithmetic beyond
/// the scatter–allgather frame-group partition (`vrank`, the scatter
/// target, `total % n`).
#[test]
fn collective_rounds_are_written_once() {
    let non_test = |rel: &str| {
        let text = std::fs::read_to_string(repo(rel)).unwrap();
        let body = text.split("#[cfg(test)]").next().unwrap().to_string();
        let code = |l: &&str| !l.trim_start().starts_with("//");
        body.lines()
            .filter(code)
            .map(str::to_string)
            .collect::<Vec<_>>()
    };
    let coll = non_test("crates/mpi/src/coll.rs");
    let hops = coll.iter().filter(|l| l.contains("sendrecv(")).count();
    assert!(
        (1..=4).contains(&hops),
        "sendrecv( sites in coll.rs: {hops}"
    );
    for generator in ["dissemination", "recursive_doubling", "ring", "pairwise"] {
        let defs = coll
            .iter()
            .filter(|l| l.starts_with(&format!("pub fn {generator}(")))
            .count();
        assert_eq!(defs, 1, "`{generator}` generator definitions in coll.rs");
    }

    let lines = code_lines(&stack_sources());
    for threshold in [
        "BCAST_LONG_THRESHOLD",
        "BCAST_RING_THRESHOLD",
        "ALLTOALL_BRUCK_THRESHOLD",
        "ALLGATHER_LONG_THRESHOLD",
    ] {
        let uses = sites(&lines, threshold);
        assert_eq!(uses.len(), 1, "{threshold} use sites: {uses:?}");
        assert!(uses[0].starts_with("crates/mpi/src/coll.rs"), "{uses:?}");
    }

    let secure = non_test("crates/core/src/secure_comm/collectives.rs");
    let rank_math = secure.iter().filter(|l| l.contains("% n")).count();
    assert!(rank_math <= 3, "`% n` sites in collectives.rs: {rank_math}");
    assert!(
        !secure.iter().any(|l| l.contains("offsets(")),
        "collectives.rs grew its own prefix sums again (use coll::edges)"
    );
}

/// The non-comment lines of the item whose header line contains
/// `header`, up to the closing brace at the header's indentation, as
/// `(line number, line)`.
fn item_body(text: &str, header: &str) -> Vec<(usize, String)> {
    let lines: Vec<&str> = text.lines().collect();
    let start = lines
        .iter()
        .position(|l| l.contains(header) && !l.trim_start().starts_with("//"))
        .unwrap_or_else(|| panic!("no `{header}` in the file"));
    let indent = lines[start].len() - lines[start].trim_start().len();
    let close = format!("{}}}", " ".repeat(indent));
    let end = (start..lines.len())
        .find(|&i| lines[i] == close)
        .unwrap_or_else(|| panic!("`{header}` never closes"));
    (start..=end)
        .filter(|&i| !lines[i].trim_start().starts_with("//"))
        .map(|i| (i + 1, lines[i].to_string()))
        .collect()
}

/// A tenure change without the lock convoy: `grant` and `poison` run
/// under the `sched` lock and only *name* who is to be woken — the
/// wake-up itself happens in `Shared::wake`, after the guard is gone.
/// Placement is one `sched_setaffinity` call in the Linux-only module.
#[test]
fn the_engine_wakes_nobody_under_the_sched_lock() {
    let text = std::fs::read_to_string(repo("crates/netsim/src/engine.rs")).unwrap();
    for header in ["fn grant(", "fn poison("] {
        let wakes: Vec<_> = item_body(&text, header)
            .into_iter()
            .filter(|(_, l)| l.contains("notify_") || l.contains("unpark"))
            .collect();
        assert!(wakes.is_empty(), "`{header}` wakes a thread: {wakes:?}");
    }
    let calls: Vec<usize> = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim_start().starts_with("//"))
        .filter(|(_, l)| l.contains("sched_setaffinity(") && !l.contains("fn sched_setaffinity("))
        .map(|(i, _)| i + 1)
        .collect();
    assert_eq!(calls.len(), 1, "sched_setaffinity call sites: {calls:?}");
    // The first `mod place` is the Linux one; the other is its no-op twin.
    let linux = "#[cfg(target_os = \"linux\")]\nmod place {";
    assert_eq!(
        text.find(linux).map(|at| at + linux.len()),
        text.find("mod place {").map(|at| at + "mod place {".len()),
        "the first `mod place` is not behind cfg(target_os = \"linux\")"
    );
    assert!(
        item_body(&text, "mod place {")
            .iter()
            .any(|(n, _)| *n == calls[0]),
        "engine.rs:{} is outside the Linux-only `mod place`",
        calls[0]
    );
}

/// One gate for observability: a recorder is installed at run time or
/// it is absent. No manifest has a feature table, no source line is
/// compiled on a Cargo feature (CPU `target_feature`s are a different
/// thing), nothing asks whether the recorder was compiled, and
/// `empi-trace` defines one `Recorder`, not a recorder and its stub.
#[test]
fn observability_has_one_build() {
    let mut manifests = vec![repo("Cargo.toml")];
    for entry in std::fs::read_dir(repo("crates")).unwrap() {
        manifests.push(entry.unwrap().path().join("Cargo.toml"));
    }
    assert!(manifests.len() > 10, "crates/* not found: {manifests:?}");
    for path in manifests {
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            !text.lines().any(|l| l.trim() == "[features]"),
            "{} has a [features] table",
            path.display()
        );
    }

    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        files.extend(rust_files(dir));
    }
    let lines = code_lines(&files);
    // Any conditional-compilation line naming a Cargo feature, also
    // inside `all(..)` / `not(..)` and as `cfg!`/`cfg_attr`.
    let names_a_feature = |l: &str| l.contains("feature =") || l.contains("feature=");
    let gated: Vec<String> = lines
        .iter()
        .filter(|(_, _, l)| l.contains("cfg"))
        .filter(|(_, _, l)| names_a_feature(&l.replace("target_feature", "")))
        .map(|(f, n, _)| format!("{f}:{n}"))
        .collect();
    assert!(gated.is_empty(), "feature-gated lines: {gated:?}");
    let asks = sites(&lines, concat!("compiled", "_in"));
    assert!(asks.is_empty(), "the build is asked about itself: {asks:?}");

    let recorders = sites(
        &code_lines(&rust_files("crates/trace/src")),
        "pub struct Recorder",
    );
    assert_eq!(recorders.len(), 1, "`pub struct Recorder`: {recorders:?}");
}

/// `(file, line number, line)` of every non-comment line of `files`
/// outside `#[cfg(test)]` items: an inline item is skipped to the brace
/// that closes it, an out-of-line `mod x;` by skipping its file.
fn non_test_lines(files: &[PathBuf]) -> Vec<(String, usize, String)> {
    let texts: Vec<String> = files
        .iter()
        .map(|p| std::fs::read_to_string(p).unwrap())
        .collect();
    let mut test_files = Vec::new();
    let mut out = Vec::new();
    for (path, text) in files.iter().zip(&texts) {
        let lines: Vec<&str> = text.lines().collect();
        let mut keep = vec![true; lines.len()];
        for at in (0..lines.len()).filter(|&i| lines[i].trim() == "#[cfg(test)]") {
            let header = lines[at + 1];
            if let Some(m) = header.trim().strip_prefix("mod ").and_then(|m| m.strip_suffix(';')) {
                let (dir, stem) = (path.parent().unwrap(), path.file_stem().unwrap());
                let dir = match stem.to_str() {
                    Some("lib" | "main" | "mod") => dir.to_path_buf(),
                    _ => dir.join(stem),
                };
                test_files.push(dir.join(format!("{m}.rs")));
                continue;
            }
            let close = format!("{}}}", &header[..header.len() - header.trim_start().len()]);
            let end = (at..lines.len()).find(|&i| lines[i] == close).unwrap_or(lines.len() - 1);
            keep[at..=end].iter_mut().for_each(|k| *k = false);
        }
        let name = path.strip_prefix(repo("")).unwrap().to_string_lossy().into_owned();
        for (i, line) in lines.iter().enumerate() {
            if keep[i] && !line.trim_start().starts_with("//") {
                out.push((path.clone(), (name.clone(), i + 1, line.to_string())));
            }
        }
    }
    out.into_iter()
        .filter(|(path, _)| !test_files.contains(path))
        .map(|(_, line)| line)
        .collect()
}

/// One cost model: virtual time comes from calibrated models through
/// `advance` and `charge_overlapped`, never from the host clock, so the
/// simulated layers read no `Instant` outside their tests; the retired
/// measured-timing and per-peer-key knobs stay gone; and
/// `SecurityConfig` keeps at most ten `with_*` builders.
#[test]
fn virtual_time_has_one_source() {
    let mut sim = Vec::new();
    for layer in ["netsim", "mpi", "core", "pipeline", "keys"] {
        sim.extend(rust_files(&format!("crates/{layer}/src")));
    }
    let lines = non_test_lines(&sim);
    let clocks: Vec<String> = lines
        .iter()
        .filter(|(_, _, l)| l.contains("Instant") || l.contains(".elapsed()"))
        .map(|(f, n, _)| format!("{f}:{n}"))
        .collect();
    assert!(clocks.is_empty(), "host clock read in a simulated layer: {clocks:?}");
    assert!(
        lines.iter().any(|(_, _, l)| l.contains("pub fn advance(")),
        "the guard sees no engine code: is `#[cfg(test)]` stripping too much?"
    );

    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        files.extend(rust_files(dir));
    }
    let lines = code_lines(&files);
    for knob in [
        concat!("charge", "_measured"),
        concat!("time", "_scale"),
        concat!("with", "_peer_cipher"),
        concat!("Key", "Cache"),
    ] {
        let back = sites(&lines, knob);
        assert!(back.is_empty(), "`{knob}` is back: {back:?}");
    }

    let config = std::fs::read_to_string(repo("crates/core/src/config.rs")).unwrap();
    let builders = item_body(&config, "impl SecurityConfig {")
        .into_iter()
        .filter(|(_, l)| l.contains("pub fn with_"))
        .count();
    assert!(builders <= 10, "SecurityConfig has {builders} `with_*` builders");
}
