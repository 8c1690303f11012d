//! Source-level invariants of the stack's "one code path per layer"
//! claims, checked by reading the sources — what used to be `grep`
//! steps in a CI side job. Comment lines are ignored; test modules
//! count (a test that called the engine's deadline park directly would
//! be a second wait protocol too).

use std::collections::{BTreeMap, BTreeSet};
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

/// Every `.rs` file under `crates/*/src`.
fn crate_sources() -> Vec<PathBuf> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(repo("crates")).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        if repo(&format!("crates/{name}/src")).is_dir() {
            files.extend(rust_files(&format!("crates/{name}/src")));
        }
    }
    files
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
            .filter(|l| {
                let def = l.strip_prefix("pub ").unwrap_or(l);
                def.starts_with(&format!("fn {generator}("))
            })
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
/// under the `sched` lock and only *name* who runs next — nothing wakes
/// or switches under them. The stack switch is made at three sites (a
/// suspending rank, a carrier's home loop, an ended coroutine), and the
/// first two drop the guard before they switch. Nothing pins a thread:
/// a one-carrier world is the calling thread alone.
#[test]
fn the_engine_wakes_nobody_under_the_sched_lock() {
    let text = std::fs::read_to_string(repo("crates/netsim/src/engine.rs")).unwrap();
    for header in ["fn grant(", "fn poison("] {
        let wakes: Vec<_> = item_body(&text, header)
            .into_iter()
            .filter(|(_, l)| l.contains("notify_") || l.contains("unpark") || l.contains("switch("))
            .collect();
        assert!(wakes.is_empty(), "`{header}` wakes or switches: {wakes:?}");
    }
    let switches = |needle: &str| {
        text.lines()
            .filter(|l| !l.trim_start().starts_with("//") && l.contains(needle))
            .count()
    };
    // `Switch::make` and `carry` call the switch; `suspend` and `enter`
    // make a `Switch`.
    assert_eq!(
        switches("fiber::switch("),
        2,
        "fiber::switch( call sites in engine.rs"
    );
    assert_eq!(
        switches(".make()"),
        2,
        "Switch::make call sites in engine.rs"
    );
    for header in ["fn suspend<", "fn carry("] {
        let body = item_body(&text, header);
        let at = |needle: &str| body.iter().position(|(_, l)| l.contains(needle));
        let (drop, switch) = (at("drop(s)"), at("fiber::switch(").or(at(".make()")));
        assert!(
            drop.is_some() && drop < switch,
            "`{header}` switches before it drops the sched guard"
        );
    }
    let pins = code_lines(&rust_files("crates/netsim/src"))
        .into_iter()
        .filter(|(_, _, l)| l.contains("sched_setaffinity"))
        .map(|(f, n, _)| format!("{f}:{n}"))
        .collect::<Vec<_>>();
    assert!(pins.is_empty(), "the engine pins threads again: {pins:?}");
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
            if let Some(m) = header
                .trim()
                .strip_prefix("mod ")
                .and_then(|m| m.strip_suffix(';'))
            {
                let (dir, stem) = (path.parent().unwrap(), path.file_stem().unwrap());
                let dir = match stem.to_str() {
                    Some("lib" | "main" | "mod") => dir.to_path_buf(),
                    _ => dir.join(stem),
                };
                test_files.push(dir.join(format!("{m}.rs")));
                continue;
            }
            let close = format!("{}}}", &header[..header.len() - header.trim_start().len()]);
            let end = (at..lines.len())
                .find(|&i| lines[i] == close)
                .unwrap_or(lines.len() - 1);
            keep[at..=end].iter_mut().for_each(|k| *k = false);
        }
        let name = path
            .strip_prefix(repo(""))
            .unwrap()
            .to_string_lossy()
            .into_owned();
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
/// measured-timing, per-peer-key, per-communicator build, degraded-worker,
/// jitter-bound and detector-timing knobs stay gone; `SecurityConfig`
/// keeps at most seven `with_*` builders that are not deprecated; and a
/// deprecated item of `config.rs` stays only while `benchmark/src`
/// names it.
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
    assert!(
        clocks.is_empty(),
        "host clock read in a simulated layer: {clocks:?}"
    );
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
        concat!("tim", "ing: "),
        concat!("degraded", "_workers"),
        concat!("worker", "_slowdown"),
        concat!(".degr", "ade("),
        concat!("fault/", "degrade"),
        concat!("jitter", "_max_ns"),
        concat!("probe", "_rtt"),
        concat!("con", "firm: "),
    ] {
        let back = sites(&lines, knob);
        assert!(back.is_empty(), "`{knob}` is back: {back:?}");
    }

    let config = std::fs::read_to_string(repo("crates/core/src/config.rs")).unwrap();
    // The names `config.rs` defines right after a `#[deprecated]`.
    let mut shims = Vec::new();
    let mut deprecated = false;
    for line in config.lines().map(str::trim_start) {
        if line.starts_with("#[deprecated") {
            deprecated = true;
        } else if let Some(item) = ["pub fn ", "pub struct "]
            .iter()
            .find_map(|k| line.strip_prefix(k))
        {
            if deprecated {
                shims.push(idents(item)[0].to_string());
            }
            deprecated = false;
        }
    }
    let builders: Vec<String> = item_body(&config, "impl SecurityConfig {")
        .into_iter()
        .filter_map(|(_, l)| Some(idents(l.split("pub fn ").nth(1)?)[0].to_string()))
        .filter(|name| name.starts_with("with_") && !shims.contains(name))
        .collect();
    assert!(
        builders.len() <= 7,
        "SecurityConfig has {} `with_*` builders: {builders:?}",
        builders.len()
    );
    // A deprecated item exists only so that `benchmark/` keeps building:
    // once nothing there names it, it goes.
    assert!(
        !shims.is_empty() || !config.contains("#[deprecated"),
        "the deprecation scan sees no shim"
    );
    let bench = code_lines(&rust_files("benchmark/src"));
    for shim in &shims {
        assert!(
            !sites(&bench, shim).is_empty(),
            "`{shim}` is deprecated and nothing in benchmark/src names it: delete it"
        );
    }
}

/// The library sets allocator policy in one place: `fiber::settle_heap`
/// is the only code that names `mallopt` or a malloc parameter (comments
/// included) anywhere under `crates/`, and the engine's run is its only
/// caller. Wire buffers come back through `empi-pool`; the thresholds
/// stay for the ranks' own working buffers (DESIGN.md §10).
#[test]
fn malloc_policy_is_set_in_one_place() {
    let lines = all_lines(&rust_files("crates"));
    assert!(
        lines.iter().any(|(f, _, _)| f.ends_with("fiber.rs")),
        "the guard sees no engine code"
    );
    let policy: Vec<String> = lines
        .iter()
        .filter(|(f, _, l)| {
            !f.ends_with("netsim/src/fiber.rs")
                && [
                    concat!("mall", "opt"),
                    concat!("M_MMAP", "_THRESHOLD"),
                    concat!("M_TRIM", "_THRESHOLD"),
                    concat!("M_ARENA", "_MAX"),
                    concat!("M_TOP", "_PAD"),
                ]
                .iter()
                .any(|k| l.contains(k))
        })
        .map(|(f, n, l)| format!("{f}:{n}: {}", l.trim()))
        .collect();
    assert!(
        policy.is_empty(),
        "allocator policy outside fiber.rs: {policy:#?}"
    );
    let calls: Vec<String> = lines
        .iter()
        .filter(|(_, _, l)| l.contains(concat!("settle", "_heap(")) && !l.contains("fn "))
        .map(|(f, n, l)| format!("{f}:{n}: {}", l.trim()))
        .collect();
    assert!(
        calls.len() == 1 && calls[0].contains("netsim/src/engine.rs"),
        "settle_heap must be called once, from the engine's run: {calls:#?}"
    );
}

/// Ranks are coroutines that may resume on any carrier thread, so no
/// library code may key anything on the host thread: no
/// `thread_local!`, no `thread::current`, no `ThreadId` in `crates/*/src`
/// outside `#[cfg(test)]`. (Tests may ask which thread ran a rank.)
#[test]
fn ranks_have_no_thread_identity() {
    let lines = non_test_lines(&crate_sources());
    assert!(
        lines.iter().any(|(_, _, l)| l.contains("fn carry(")),
        "the guard sees no engine code: is `#[cfg(test)]` stripping too much?"
    );
    let found: Vec<String> = lines
        .iter()
        .filter(|(_, _, l)| {
            ["thread_local!", "thread::current", "ThreadId"]
                .iter()
                .any(|k| l.contains(k))
        })
        .map(|(f, n, l)| format!("{f}:{n}: {}", l.trim()))
        .collect();
    assert!(
        found.is_empty(),
        "library code observes thread identity: {found:#?}"
    );
}

/// `empi-mpi` exports what the stack calls: one request-set shape on
/// both layers (a `Vec` of requests, `Comm::waitsome` beside
/// `SecureComm::waitsome`), and no verb that only its own unit tests
/// called comes back — not the scope and completion-set API, not the
/// linear gather/scatter family, not `ShrunkComm`'s own collectives.
#[test]
fn empi_mpi_exports_what_the_stack_calls() {
    assert!(
        !repo("crates/mpi/src/request.rs").exists(),
        "crates/mpi/src/request.rs is back"
    );

    let mut files = crate_sources();
    for dir in ["src", "tests", "examples", "benchmark/src"] {
        files.extend(rust_files(dir));
    }
    // Comments count too: a doc line naming a retired item is stale.
    // The names are split so that this file does not name them itself.
    let lines = all_lines(&files);
    let retired = [
        concat!("Completion", "Set"),
        concat!("completion", "_set"),
        concat!("Scoped", "Request"),
        concat!("mod ", "request"),
        concat!("gather", "v("),
        concat!("scatter", "v("),
        concat!(".gather", "("),
        concat!(".scatter", "("),
        concat!("reduce_scatter", "_block"),
        concat!("allgather", "_one"),
        concat!(".probe", "("),
        concat!("test", "_ready"),
        concat!("ft_wait", "("),
        concat!("waitall", "_payload"),
        concat!("waitany", "_payload"),
        concat!("allreduce_sum", "_f64"),
        concat!("SHRINK_COLL", "_BASE"),
        concat!("Op::", "Gather"),
        concat!("Op::", "Scatter"),
    ];
    for name in retired {
        let back: Vec<String> = lines
            .iter()
            .filter(|(_, _, l)| l.contains(name))
            .map(|(f, n, _)| format!("{f}:{n}"))
            .collect();
        assert!(back.is_empty(), "`{name}` is back: {back:?}");
    }

    // `SecureComm` keeps its any-of wait; `Comm` does not.
    let mpi = code_lines(&rust_files("crates/mpi/src"));
    for verb in ["fn waitany", "fn probe(", "fn scope"] {
        let back = sites(&mpi, verb);
        assert!(back.is_empty(), "empi-mpi defines `{verb}` again: {back:?}");
    }
    let waitsome = sites(&mpi, "pub fn waitsome");
    assert_eq!(
        waitsome.len(),
        1,
        "`pub fn waitsome` in empi-mpi: {waitsome:?}"
    );
}

/// The identifier tokens of a line, in order.
fn idents(line: &str) -> Vec<&str> {
    line.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|t| !t.is_empty())
        .collect()
}

/// What `crates/*/src` and `src` define: `(types, names)`. Types are
/// the structs, enums, traits, unions and type aliases; names are those
/// plus every `fn`, `const`, `static` and `mod`, every enum variant and
/// every named field (a variant or a field is a definition a doc path
/// can name as well as a function).
fn workspace_items() -> (BTreeSet<String>, BTreeSet<String>) {
    let mut files = crate_sources();
    files.extend(rust_files("src"));
    let (mut types, mut names) = (BTreeSet::new(), BTreeSet::new());
    for path in files {
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            if line.trim_start().starts_with("//") {
                continue;
            }
            let toks = idents(line);
            for w in toks.windows(2) {
                let (kw, name) = (w[0], w[1].to_string());
                match kw {
                    "struct" | "enum" | "trait" | "union" | "type" => {
                        types.insert(name.clone());
                        names.insert(name);
                    }
                    "fn" | "const" | "static" | "mod" => {
                        names.insert(name);
                    }
                    _ => {}
                }
            }
            // The members of a braced struct or enum: the first
            // identifier (past any visibility) of each line one level in.
            let is_body = toks.iter().any(|&t| t == "struct" || t == "enum");
            if !(is_body && line.trim_end().ends_with('{')) {
                continue;
            }
            let indent = line.len() - line.trim_start().len();
            let close = format!("{}}}", " ".repeat(indent));
            for member in lines[i + 1..].iter().take_while(|l| **l != close) {
                let inner = member.trim_start();
                if member.len() - inner.len() != indent + 4
                    || inner.starts_with("//")
                    || inner.starts_with('#')
                {
                    continue;
                }
                let first = idents(inner)
                    .into_iter()
                    .find(|t| !["pub", "crate", "super", "in"].contains(t));
                names.extend(first.map(str::to_string));
            }
        }
    }
    (types, names)
}

/// Every backticked `Type::item` in `text` outside fenced code blocks,
/// as `(Type, item)`; `Type::{a, b}` names two items and a `with_*`
/// glob names none.
fn doc_paths(text: &str) -> Vec<(String, String)> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    let ident = |s: &str| -> String {
        s.chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect()
    };
    let mut out = Vec::new();
    for span in prose.split('`').skip(1).step_by(2) {
        let mut rest = span;
        while let Some(at) = rest.find("::") {
            let head = &rest[..at];
            let ty: String = head
                .chars()
                .rev()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect::<Vec<_>>()
                .into_iter()
                .rev()
                .collect();
            let tail = &rest[at + 2..];
            rest = tail;
            if !ty.starts_with(|c: char| c.is_ascii_uppercase()) {
                continue;
            }
            let items: Vec<&str> = match tail.strip_prefix('{') {
                Some(group) => group.split('}').next().unwrap().split(',').collect(),
                None => vec![tail],
            };
            for item in items {
                let item = item.trim();
                let name = ident(item);
                if !name.is_empty() && !item[name.len()..].starts_with('*') {
                    out.push((ty.clone(), name));
                }
            }
        }
    }
    out
}

/// Docs name real items: every backticked `Type::item` in README.md,
/// DESIGN.md, EXPERIMENTS.md and the `//!` module docs of `crates/*/src`
/// and `src` whose `Type` is defined in this workspace names something
/// `crates/*/src` or `src` still defines, and
/// every `--flag` in those three files or in a `///`/`//!` comment under
/// `crates/*/src` and `src` is one the bench still parses.
/// (`benchmark/README.md` belongs to the benchmark and is not read.)
#[test]
fn docs_name_real_items() {
    let (types, names) = workspace_items();
    assert!(
        types.contains("SecureComm") && names.contains("waitsome"),
        "the guard sees no stack definitions"
    );
    let mut stale = Vec::new();
    let mut checked = 0;
    for doc in ["README.md", "DESIGN.md", "EXPERIMENTS.md"] {
        let text = std::fs::read_to_string(repo(doc)).unwrap();
        for (ty, item) in doc_paths(&text) {
            if !types.contains(&ty) {
                continue;
            }
            checked += 1;
            if !names.contains(&item) {
                stale.push(format!("{doc}: `{ty}::{item}`"));
            }
        }
    }
    assert!(
        checked > 50,
        "only {checked} doc paths checked: is the parser blind?"
    );
    // The `//!` module docs of `crates/*/src` and `src` are held to the
    // same rule.
    let mut module_docs = crate_sources();
    module_docs.extend(rust_files("src"));
    let mut checked_modules = 0;
    for path in module_docs {
        let text = std::fs::read_to_string(&path).unwrap();
        let docs: String = text
            .lines()
            .filter_map(|l| l.trim_start().strip_prefix("//!"))
            .map(|l| format!("{l}\n"))
            .collect();
        let name = path.strip_prefix(repo("")).unwrap().display().to_string();
        for (ty, item) in doc_paths(&docs) {
            if !types.contains(&ty) {
                continue;
            }
            checked_modules += 1;
            if !names.contains(&item) {
                stale.push(format!("{name}: `{ty}::{item}`"));
            }
        }
    }
    assert!(
        checked_modules > 10,
        "only {checked_modules} module doc paths checked: is the parser blind?"
    );
    assert!(
        stale.is_empty(),
        "docs name items nothing defines: {stale:#?}"
    );

    // Every `--flag` that a `///`/`//!` comment or README, DESIGN or
    // EXPERIMENTS names is one the bench parses (a `"--…"` literal in its
    // non-test code) or cargo's `--release`, `--example` or `--workspace`.
    let mut flags: BTreeSet<String> = ["--release", "--example", "--workspace"]
        .map(String::from)
        .into();
    for (_, _, line) in non_test_lines(&rust_files("crates/bench/src")) {
        for lit in line.split('"').skip(1).step_by(2) {
            if cli_flags(lit) == [lit] {
                flags.insert(lit.to_string());
            }
        }
    }
    assert!(
        flags.contains("--shards"),
        "the guard sees no bench flags: {flags:?}"
    );
    let mut files = crate_sources();
    files.extend(rust_files("src"));
    let mut unknown = Vec::new();
    for doc in ["README.md", "DESIGN.md", "EXPERIMENTS.md"] {
        let text = std::fs::read_to_string(repo(doc)).unwrap();
        for (i, line) in text.lines().enumerate() {
            for flag in cli_flags(line).into_iter().filter(|f| !flags.contains(*f)) {
                unknown.push(format!("{doc}:{}: `{flag}`", i + 1));
            }
        }
    }
    for path in files {
        let name = path
            .strip_prefix(repo(""))
            .unwrap()
            .to_string_lossy()
            .into_owned();
        let text = std::fs::read_to_string(&path).unwrap();
        for (i, line) in text.lines().enumerate() {
            let doc = line.trim_start();
            if !(doc.starts_with("///") || doc.starts_with("//!")) {
                continue;
            }
            for flag in cli_flags(doc).into_iter().filter(|f| !flags.contains(*f)) {
                unknown.push(format!("{name}:{}: `{flag}`", i + 1));
            }
        }
    }
    assert!(
        unknown.is_empty(),
        "docs name flags nothing parses: {unknown:#?}"
    );
}

/// The `--flag` tokens of `text`: `--`, a lowercase letter, then
/// lowercase letters, digits and dashes, not glued to a word before it.
fn cli_flags(text: &str) -> Vec<&str> {
    let mut out = Vec::new();
    for (at, _) in text.match_indices("--") {
        let glued = text[..at]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_alphanumeric() || c == '-' || c == '_');
        let rest = &text[at + 2..];
        if glued || !rest.starts_with(|c: char| c.is_ascii_lowercase()) {
            continue;
        }
        let len = rest
            .find(|c: char| !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'))
            .unwrap_or(rest.len());
        out.push(&text[at..at + 2 + len]);
    }
    out
}

/// Run parameters are arguments: no library, test or example reads or
/// writes the process environment, so a caller's shell cannot move a
/// number and no test races another on a global. Every world the
/// bench runners build takes its carrier count from the call (`--shards`
/// reaches it only as an argument), and the docs name no environment
/// setting. (`env!`, `env::args` and `env::temp_dir` read nothing a
/// caller set for the run.)
#[test]
fn run_parameters_are_arguments() {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(repo("crates")).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        for sub in ["src", "tests"] {
            if repo(&format!("crates/{name}/{sub}")).is_dir() {
                files.extend(rust_files(&format!("crates/{name}/{sub}")));
            }
        }
    }
    for dir in ["src", "tests", "examples"] {
        files.extend(rust_files(dir));
    }
    let lines = code_lines(&files);
    assert!(
        lines.iter().any(|(_, _, l)| l.contains("env::args(")),
        "the guard sees no argument parsing"
    );
    // Split so that this file does not name them itself.
    for verb in [
        concat!("env::", "var("),
        concat!("env::", "var_os("),
        concat!("env::", "vars("),
        concat!("env::", "vars_os("),
        concat!("env::", "set_var("),
        concat!("env::", "remove_var("),
    ] {
        let found = sites(&lines, verb);
        assert!(
            found.is_empty(),
            "`{verb}` reads or writes the environment: {found:?}"
        );
    }

    let bench = non_test_lines(&rust_files("crates/bench/src"));
    let mut worlds = 0;
    let mut unsharded = Vec::new();
    for (at, (file, n, line)) in bench.iter().enumerate() {
        if !line.contains("World::new(") && !line.contains("World::flat(") {
            continue;
        }
        worlds += 1;
        let statement: String = bench[at..]
            .iter()
            .take_while(|(f, _, _)| f == file)
            .scan(false, |ended, (_, _, l)| {
                let first = !*ended;
                *ended |= l.contains(';');
                first.then_some(l.as_str())
            })
            .collect();
        if !statement.contains(".with_shards(") {
            unsharded.push(format!("{file}:{n}"));
        }
    }
    assert!(worlds >= 16, "only {worlds} bench worlds found");
    assert!(
        unsharded.is_empty(),
        "a bench world ignores the carrier count it was given: {unsharded:?}"
    );

    for doc in [
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        ".claude/skills/verify/SKILL.md",
    ] {
        let text = std::fs::read_to_string(repo(doc)).unwrap();
        let found: Vec<String> = text
            .lines()
            .enumerate()
            .filter(|(_, l)| l.contains(concat!("EMPI", "_")))
            .map(|(i, _)| format!("{doc}:{}", i + 1))
            .collect();
        assert!(
            found.is_empty(),
            "docs name an environment setting: {found:?}"
        );
    }
}

/// The identifiers of a line in call position — `name(`, `.name(`,
/// `Type::name(`, each also with a turbofish (`name::<T>(`) — or passed
/// as a path (`Type::name`). A field, a binding or a type that shares a
/// function's name is not a call.
fn calls(line: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let bytes = line.as_bytes();
    let word = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let mut i = 0;
    while i < bytes.len() {
        if !word(bytes[i]) || (i > 0 && word(bytes[i - 1])) {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && word(bytes[i]) {
            i += 1;
        }
        let mut rest = &line[i..];
        if let Some(generic) = rest.strip_prefix("::<") {
            // Skip the turbofish's balanced angle brackets.
            let mut depth = 1;
            let close = generic.char_indices().find(|&(_, c)| {
                depth += match c {
                    '<' => 1,
                    '>' => -1,
                    _ => 0,
                };
                depth == 0
            });
            rest = close.map_or("", |(at, _)| &generic[at + 1..]);
        }
        if rest.starts_with('(') || line[..start].ends_with("::") {
            out.push(&line[start..i]);
        }
    }
    out
}

/// The public surface is what the stack calls: every `pub fn` in
/// `crates/*/src` and `src` outside `#[cfg(test)]` is called —
/// `name(`, `.name(` or `Type::name(` (see [`calls`]), or passed as a
/// path (`Type::name`) — by another file: non-test code in
/// `crates/*/src`, `src`, `examples` or `benchmark/src`, or an
/// integration test under `tests/` or `crates/*/tests`. A unit test
/// does not make a caller: a function only its own tests call is a
/// private helper of those tests. A field or a binding of the same name
/// does not either.
#[test]
fn pub_items_have_callers() {
    // Entry points that no non-test code calls (each with the reason it
    // is public anyway).
    const ENTRY_POINTS: &[&str] = &[
        // `TraceReport::pair`: the per-pair ledger lookup that the unit
        // tests of empi-trace, empi-netsim, empi-mpi and empi-core assert
        // on; a helper shared across crates' tests has to be public.
        "pair",
    ];

    let mut defining = crate_sources();
    defining.extend(rust_files("src"));
    let mut calling = defining.clone();
    for dir in ["examples", "benchmark/src"] {
        calling.extend(rust_files(dir));
    }
    let mut tests = rust_files("tests");
    for entry in std::fs::read_dir(repo("crates")).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        if repo(&format!("crates/{name}/tests")).is_dir() {
            tests.extend(rust_files(&format!("crates/{name}/tests")));
        }
    }
    let mut named: Vec<(String, usize, String)> = non_test_lines(&calling);
    named.extend(code_lines(&tests));
    // Which files call each identifier. A `fn name(` line defines
    // `name` and calls nothing: a same-named method elsewhere is not a
    // caller.
    let mut namers: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (file, _, line) in &named {
        let defines: Vec<&str> = idents(line)
            .windows(2)
            .filter(|w| w[0] == "fn")
            .map(|w| w[1])
            .collect();
        for name in calls(line).into_iter().filter(|c| !defines.contains(c)) {
            namers.entry(name).or_default().insert(file);
        }
    }

    let mut defined = 0;
    let mut orphans = Vec::new();
    for (file, n, line) in non_test_lines(&defining) {
        let toks = idents(&line);
        let Some(at) = toks.iter().position(|&t| t == "fn") else {
            continue;
        };
        let (head, qualifiers) = (&toks[..at], ["const", "unsafe", "extern"]);
        if head.first() != Some(&"pub") || !head[1..].iter().all(|t| qualifiers.contains(t)) {
            continue;
        }
        let name = toks[at + 1];
        defined += 1;
        let elsewhere = namers
            .get(name)
            .is_some_and(|fs| fs.iter().any(|f| *f != file));
        if !elsewhere && !ENTRY_POINTS.contains(&name) {
            orphans.push(format!("{file}:{n}: {name}"));
        }
    }
    assert!(
        defined > 300,
        "only {defined} `pub fn`s found: is the scan blind?"
    );
    assert!(
        orphans.is_empty(),
        "`pub fn`s no other file calls (delete them, make them private, or \
         move them into the tests that use them): {orphans:#?}"
    );
}

/// Every `pub` field of a `pub struct` in `crates/*/src` is read as
/// `.field` somewhere: in non-test code of `crates/*/src`, `src`,
/// `examples` or `benchmark/src`, or in an integration test. A field
/// that is only ever written (`.field = …` or a struct literal) records
/// nothing anyone looks at, so it goes with everything that feeds it.
#[test]
fn pub_fields_are_read() {
    let defining = crate_sources();
    let mut reading = defining.clone();
    for dir in ["src", "examples", "benchmark/src"] {
        reading.extend(rust_files(dir));
    }
    let mut tests = rust_files("tests");
    for entry in std::fs::read_dir(repo("crates")).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        if repo(&format!("crates/{name}/tests")).is_dir() {
            tests.extend(rust_files(&format!("crates/{name}/tests")));
        }
    }
    let mut lines = non_test_lines(&reading);
    lines.extend(code_lines(&tests));
    // `.name` not followed by a plain `=`: a read (a method call of the
    // same name also counts; the match is textual).
    let mut read = BTreeSet::new();
    for (_, _, line) in &lines {
        for (at, _) in line.match_indices('.') {
            let rest = &line[at + 1..];
            let end = rest
                .find(|c: char| !(c.is_alphanumeric() || c == '_'))
                .unwrap_or(rest.len());
            let after = rest[end..].trim_start();
            let assigned = after.starts_with('=') && !after.starts_with("==");
            if end > 0 && !assigned {
                read.insert(&rest[..end]);
            }
        }
    }

    let mut fields = 0;
    let mut unread = Vec::new();
    let defs = non_test_lines(&defining);
    let mut body: Option<(&str, String)> = None;
    for (file, n, line) in &defs {
        if let Some((name, close)) = &body {
            if line == close {
                body = None;
            } else if let Some(field) = line.trim().strip_prefix("pub ") {
                let Some((field, _)) = field.split_once(':') else {
                    continue;
                };
                fields += 1;
                if !read.contains(field) {
                    unread.push(format!("{file}:{n}: {name}::{field}"));
                }
            }
            continue;
        }
        if let Some(head) = line.trim().strip_prefix("pub struct ") {
            if head.ends_with('{') {
                let name = idents(head)[0];
                let indent = &line[..line.len() - line.trim_start().len()];
                body = Some((name, format!("{indent}}}")));
            }
        }
    }
    assert!(
        fields > 250,
        "only {fields} `pub` fields found: is the scan blind?"
    );
    assert!(
        unread.is_empty(),
        "`pub` fields nothing reads (delete them and what feeds them): {unread:#?}"
    );
}

/// Every line of `files`, comments included, as `(file, line number,
/// line)`: for names that must not appear even in a doc comment.
fn all_lines(files: &[PathBuf]) -> Vec<(String, usize, String)> {
    let mut out = Vec::new();
    for path in files {
        let name = path
            .strip_prefix(repo(""))
            .unwrap()
            .to_string_lossy()
            .into_owned();
        let text = std::fs::read_to_string(path).unwrap();
        for (i, line) in text.lines().enumerate() {
            out.push((name.clone(), i + 1, line.to_string()));
        }
    }
    out
}

/// One observability plane: no layer reaches for a tracer or a metrics
/// recorder (`SimHandle::recorder()` is the one accessor), nothing names
/// the folded-in metrics crate, and `Recorder::span` is the one span
/// verb — no per-category span function comes back.
#[test]
fn observability_is_one_plane() {
    let mut layers = Vec::new();
    for layer in ["netsim", "mpi", "core", "pipeline", "keys", "nas"] {
        layers.extend(rust_files(&format!("crates/{layer}/src")));
    }
    let lines = code_lines(&layers);
    for accessor in [".tracer()", ".metrics()"] {
        let found = sites(&lines, accessor);
        assert!(found.is_empty(), "a layer calls `{accessor}`: {found:?}");
    }

    let mut files = vec![repo("Cargo.toml")];
    for entry in std::fs::read_dir(repo("crates")).unwrap() {
        files.push(entry.unwrap().path().join("Cargo.toml"));
    }
    for dir in ["crates", "src", "tests", "examples"] {
        files.extend(rust_files(dir));
    }
    let lines = code_lines(&files);
    for name in [concat!("empi", "-metrics"), concat!("empi", "_metrics")] {
        let found = sites(&lines, name);
        assert!(
            found.is_empty(),
            "`{name}` is folded into empi-trace: {found:?}"
        );
    }
    let verbs: Vec<String> = ["fault", "key", "ftol", "retry", "alloc"]
        .iter()
        .map(|cat| format!("{cat}_span("))
        .chain([concat!("health", "_event").to_string()])
        .collect();
    for verb in &verbs {
        let found = sites(&lines, verb);
        assert!(found.is_empty(), "span verb `{verb}` is back: {found:?}");
    }
}

/// No crash-plan path may abort the world: the one `simulation aborted`
/// panic is `SimError::abort`, behind the plain `run()` entry points,
/// and a world built with a crash plan runs through `try_run` or
/// `try_run_ft`, which return deaths as data.
#[test]
fn no_crash_plan_path_aborts_the_world() {
    let lines = code_lines(&rust_files("crates"));
    let arms = sites(&lines, concat!("panic!(\"simulation", " aborted"));
    assert_eq!(arms.len(), 1, "`simulation aborted` panics: {arms:?}");
    assert!(
        arms[0].starts_with("crates/netsim/src/engine.rs"),
        "{arms:?}"
    );

    let mut plain_runs = Vec::new();
    for (at, (file, n, line)) in lines.iter().enumerate() {
        if !line.contains(".crash_plan(") || file == "crates/netsim/src/engine.rs" {
            continue;
        }
        let window = lines[at..].iter().take(9).take_while(|(f, _, _)| f == file);
        if window
            .into_iter()
            .any(|(_, _, l)| l.contains(".run(") && !l.contains("try_run"))
        {
            plain_runs.push(format!("{file}:{n}"));
        }
    }
    assert!(
        plain_runs.is_empty(),
        "crash-planned worlds on the panicking run(): {plain_runs:?}"
    );
}

/// One host-thread budget: the carriers are the only threads the
/// library starts. Outside tests, nothing under `crates/*/src` or `src`
/// spawns, scopes or builds a thread except the carrier spawn in the
/// engine's run body, so the carrier count is the whole budget and a
/// fork-join (`SimHandle::par_each`) borrows carriers rather than
/// starting threads of its own.
#[test]
fn host_threads_are_carriers() {
    let engine = "crates/netsim/src/engine.rs";
    let text = std::fs::read_to_string(repo(engine)).unwrap();
    let run_body: BTreeSet<usize> = item_body(&text, "pub fn try_run_ft<")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let mut files = crate_sources();
    files.extend(rust_files("src"));
    let (carriers, others): (Vec<_>, Vec<_>) = non_test_lines(&files)
        .into_iter()
        .filter(|(_, _, l)| {
            [
                "thread::spawn",
                "thread::scope",
                "thread::Builder",
                "spawn_scoped",
            ]
            .iter()
            .any(|k| l.contains(k))
        })
        .partition(|(f, n, _)| f == engine && run_body.contains(n));
    assert!(
        carriers
            .iter()
            .any(|(_, _, l)| l.contains("thread::Builder")),
        "the guard no longer sees the carrier spawn in `try_run_ft`"
    );
    let others: Vec<String> = others
        .iter()
        .map(|(f, n, l)| format!("{f}:{n}: {}", l.trim()))
        .collect();
    assert!(
        others.is_empty(),
        "threads beside the carriers: {others:#?}"
    );
}

/// One run queue: the engine declares one `BinaryHeap`.
#[test]
fn the_engine_has_one_run_queue() {
    let engine = code_lines(&[repo("crates/netsim/src/engine.rs")]);
    let heaps = sites(&engine, "BinaryHeap<");
    assert_eq!(heaps.len(), 1, "`BinaryHeap<` in the engine: {heaps:?}");
}

/// The token is the MPI state's lock: only the token holder touches the
/// matching state, so `empi-mpi` keeps it in a `TokenCell` and names no
/// `Mutex` anywhere under `crates/mpi/src`, comments included.
#[test]
fn the_mpi_state_takes_no_lock() {
    let files = rust_files("crates/mpi/src");
    let lines = all_lines(&files);
    assert!(
        lines
            .iter()
            .any(|(_, _, l)| l.contains("TokenCell<SharedState>")),
        "the guard sees no token-guarded state"
    );
    let locks = sites(&lines, "Mutex");
    assert!(locks.is_empty(), "`Mutex` under crates/mpi/src: {locks:?}");
}

/// One GHASH reduction routine, one kernel body and one CPU probe:
/// `pclmul.rs` has one `fn reduce` with one reduction body, `empi-aead`
/// defines `fn stitched` once (generic over the register width) and steps
/// a stitched group from it alone (the in-place and out-of-place forms,
/// and the 128-bit and wide steps, are one body, not twins), and every
/// CPU feature test in `crates` sits in `kernel_width`, the crate's one
/// cached probe.
#[test]
fn the_aead_kernel_has_one_reduction_and_one_probe() {
    let pclmul = code_lines(&[repo("crates/aead/src/ghash/pclmul.rs")]);
    for needle in ["fn reduce", "_mm_slli_epi32(tmp3, 31)"] {
        let found = sites(&pclmul, needle);
        assert_eq!(found.len(), 1, "`{needle}` in pclmul.rs: {found:?}");
    }
    let aead = code_lines(&rust_files("crates/aead/src"));
    let kernels: Vec<_> = aead
        .iter()
        .filter(|(_, _, l)| l.contains("fn stitched(") || l.contains("fn stitched<"))
        .map(|(f, n, _)| format!("{f}:{n}"))
        .collect();
    assert_eq!(kernels.len(), 1, "`fn stitched` in empi-aead: {kernels:?}");
    // A call names the step itself, not an item that ends in its name.
    let calls_step = |l: &str| {
        l.match_indices("stitched_group").any(|(at, m)| {
            let before = l[..at].chars().next_back();
            let after = &l[at + m.len()..];
            !before.is_some_and(|c| c.is_alphanumeric() || c == '_')
                && !l[..at].ends_with("fn ")
                && (after.starts_with('(') || after.starts_with("::<"))
        })
    };
    let steps: Vec<_> = aead
        .iter()
        .filter(|(_, _, l)| calls_step(l))
        .map(|(f, n, _)| format!("{f}:{n}"))
        .collect();
    assert_eq!(steps.len(), 1, "`stitched_group` call sites: {steps:?}");
    let probe_file = "crates/aead/src/aes/mod.rs";
    let probe: Vec<usize> = item_body(
        &std::fs::read_to_string(repo(probe_file)).unwrap(),
        "pub(crate) fn kernel_width(",
    )
    .into_iter()
    .filter(|(_, l)| l.contains("is_x86_feature_detected!"))
    .map(|(n, _)| n)
    .collect();
    assert!(
        !probe.is_empty(),
        "`kernel_width` probes nothing: is the scan blind?"
    );
    let elsewhere: Vec<String> = code_lines(&rust_files("crates"))
        .into_iter()
        .filter(|(_, _, l)| l.contains("is_x86_feature_detected!"))
        .filter(|(f, n, _)| !(f.ends_with(probe_file) && probe.contains(n)))
        .map(|(f, n, l)| format!("{f}:{n}: {}", l.trim()))
        .collect();
    assert!(
        elsewhere.is_empty(),
        "a CPU probe outside `kernel_width`: {elsewhere:#?}"
    );
}

/// One count per event: the recorder counts every ARQ, key-plane and
/// detector event, and `Recorder::finish` renders the snapshot's
/// counter blocks. The side copies and the outcome types that carried
/// them stay gone, comments included, and no harness patches a block.
#[test]
fn every_event_is_counted_once() {
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        files.extend(rust_files(dir));
    }
    let lines = all_lines(&files);
    for name in [
        concat!("Chaos", "Stats"),
        concat!("Key", "Stats"),
        concat!("chaos", "_stats"),
        concat!("key", "_stats"),
        concat!("ftol", "_counters"),
        concat!("Ft", "Outcome"),
        concat!("FtWorld", "Outcome"),
        concat!("snap.chaos", " ="),
        concat!("snap.keys", " ="),
        concat!("snap.ftol", " ="),
    ] {
        let back: Vec<String> = lines
            .iter()
            .filter(|(_, _, l)| l.contains(name))
            .map(|(f, n, _)| format!("{f}:{n}"))
            .collect();
        assert!(back.is_empty(), "`{name}` is back: {back:?}");
    }
}

/// One chunked wire format, written once: the frame layout lives in
/// `crates/pipeline/src/frame.rs` alone. `empi-aead` keeps no chunked
/// module, `empi-mpi` carries frames as opaque bytes, one `fn encode`
/// writes the 24-byte header (which is also the AAD), and the second
/// copies stay gone, comments included.
#[test]
fn the_chunk_frame_is_written_once() {
    assert!(
        !repo("crates/aead/src/chunked.rs").exists(),
        "crates/aead/src/chunked.rs is back"
    );

    let code = code_lines(&crate_sources());
    let frame_items = ["FrameHeader", "ChunkError", "FRAME_OVERHEAD"];
    for (item, def) in frame_items.iter().zip([
        "struct FrameHeader",
        "enum ChunkError",
        "const FRAME_OVERHEAD",
    ]) {
        let found: Vec<&String> = code
            .iter()
            .filter(|(_, _, l)| l.contains(def))
            .map(|(f, _, _)| f)
            .collect();
        assert!(
            !found.is_empty(),
            "`{item}` is defined nowhere: is the scan blind?"
        );
        let stray: Vec<_> = found
            .iter()
            .filter(|f| !f.starts_with("crates/pipeline/src/"))
            .collect();
        assert!(
            stray.is_empty(),
            "`{item}` defined outside empi-pipeline: {stray:?}"
        );
    }

    let mpi = all_lines(&rust_files("crates/mpi/src"));
    for item in frame_items.iter().chain(&["FRAME_HEADER_LEN"]) {
        let named = sites(&mpi, item);
        assert!(named.is_empty(), "empi-mpi names `{item}`: {named:?}");
    }

    // The header's last field is written by exactly one line, inside
    // `FrameHeader::encode`.
    let writers = sites(&code, ".total_len.to_be_bytes()");
    assert_eq!(writers.len(), 1, "header writers: {writers:?}");
    let (file, n, _) = code
        .iter()
        .find(|(f, n, _)| writers[0] == format!("{f}:{n}"))
        .unwrap();
    let owner = code
        .iter()
        .rfind(|(f, m, l)| f == file && m < n && l.contains("fn "))
        .map(|(_, _, l)| l.trim().to_string());
    assert!(
        file == "crates/pipeline/src/frame.rs"
            && owner.as_deref().is_some_and(|l| l.contains("fn encode(")),
        "the header is written by {owner:?} in {file}"
    );
    let encoders = sites(&code_lines(&rust_files("crates/pipeline/src")), "fn encode");
    assert_eq!(
        encoders.len(),
        1,
        "`fn encode` in empi-pipeline: {encoders:?}"
    );

    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        files.extend(rust_files(dir));
    }
    let lines = all_lines(&files);
    for name in [
        concat!("Chunked", "Sealer"),
        concat!("Chunked", "Opener"),
        concat!("chunk", "_aad"),
        concat!("CHUNK_AAD", "_LEN"),
        concat!("FRAME_NONCE", "_LEN"),
        concat!("FRAME_TAG", "_LEN"),
        concat!("Reas", "sembly"),
        concat!("set", "_epoch"),
        concat!("aead::", "chunked"),
        concat!("mod ", "chunked"),
    ] {
        let back: Vec<String> = lines
            .iter()
            .filter(|(_, _, l)| l.contains(name))
            .map(|(f, n, _)| format!("{f}:{n}"))
            .collect();
        assert!(back.is_empty(), "`{name}` is back: {back:?}");
    }
}

/// One plain record, written once: `empi_keys::record` is the only
/// code that seals, parses or opens `[epoch ‖] nonce ‖ ct ‖ tag`, as
/// `crates/pipeline/src/frame.rs` is for the chunk frame. Both writers
/// call the kernel's one-pass entry points, from where the bytes are to
/// where they go; outside the AEAD crate and the bench's raw-cipher
/// harnesses no other file calls those or the in-place detached seal
/// and open, and the epoch prefix length is known in one file.
#[test]
fn the_plain_record_is_written_once() {
    const WRITERS: [&str; 2] = ["crates/keys/src/record.rs", "crates/pipeline/src/frame.rs"];
    let mut files = Vec::new();
    for entry in std::fs::read_dir(repo("crates")).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        if name == "aead" || name == "bench" {
            continue;
        }
        for dir in ["src", "tests"] {
            if repo(&format!("crates/{name}/{dir}")).is_dir() {
                files.extend(rust_files(&format!("crates/{name}/{dir}")));
            }
        }
    }
    for dir in ["src", "tests", "examples"] {
        files.extend(rust_files(dir));
    }
    let code = code_lines(&files);
    // The one-pass calls each writer must make, and the one only the
    // plain record makes (its framing is stripped by opening over it).
    let one_pass: [(&str, &[&str]); 3] = [
        (concat!("seal", "_to("), &WRITERS),
        (concat!("open", "_to("), &WRITERS),
        (concat!("open", "_to_front("), &WRITERS[..1]),
    ];
    for (call, callers) in one_pass {
        let found = sites(&code, call);
        for writer in callers {
            assert!(
                found.iter().any(|s| s.starts_with(writer)),
                "`{call}` not found in {writer}: is the scan blind?"
            );
        }
        let stray: Vec<_> = found
            .iter()
            .filter(|s| !WRITERS.iter().any(|w| s.starts_with(w)))
            .collect();
        assert!(
            stray.is_empty(),
            "`{call}` outside the record modules: {stray:?}"
        );
    }
    for call in [concat!("seal", "_detached("), concat!("open", "_detached(")] {
        let found = sites(&code, call);
        assert!(
            found.is_empty(),
            "in-place `{call}` outside empi-aead: {found:?}"
        );
    }
    let len = concat!("EPOCH_PREFIX", "_LEN");
    let prefix = sites(&code, len);
    assert!(!prefix.is_empty(), "`{len}` is defined nowhere");
    let stray: Vec<_> = prefix
        .iter()
        .filter(|s| !s.starts_with("crates/keys/src/record.rs:"))
        .collect();
    assert!(
        stray.is_empty(),
        "`{len}` outside the record module: {stray:?}"
    );
}

/// A size is priced once: the calibrated curves are evaluated only by
/// the two memo owners — `Fabric::price` in `empi-netsim` (the wire and
/// the MPI layer's host overheads) and `SecureComm::calibrated_ns` (the
/// crypto, plain records and pipeline chunks alike). Outside tests no
/// other line under `crates/{mpi,core,pipeline}/src` calls a curve or a
/// model's pricing function.
#[test]
fn a_size_is_priced_once() {
    const OWNER: &str = "crates/core/src/secure_comm/mod.rs";
    const PRICERS: [&str; 5] = [
        "time_ns(",
        "wire_time_ns(",
        "pp_overhead_ns(",
        "stream_overhead_ns(",
        "enc_time_ns(",
    ];
    let mut files = Vec::new();
    for layer in ["mpi", "core", "pipeline"] {
        files.extend(rust_files(&format!("crates/{layer}/src")));
    }
    let owner = std::fs::read_to_string(repo(OWNER)).unwrap();
    let body: BTreeSet<usize> = item_body(&owner, "fn calibrated_ns(")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let (owned, stray): (Vec<_>, Vec<_>) = non_test_lines(&files)
        .into_iter()
        .filter(|(_, _, l)| PRICERS.iter().any(|p| l.contains(p)))
        .partition(|(f, n, _)| f == OWNER && body.contains(n));
    assert!(
        !owned.is_empty(),
        "`calibrated_ns` prices nothing: is the scan blind?"
    );
    let stray: Vec<_> = stray
        .iter()
        .map(|(f, n, l)| format!("{f}:{n}: {}", l.trim()))
        .collect();
    assert!(
        stray.is_empty(),
        "priced outside the memo owners: {stray:#?}"
    );
}
