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
    let mut lines = Vec::new();
    for path in &files {
        let name = path
            .strip_prefix(repo(""))
            .unwrap()
            .to_string_lossy()
            .into_owned();
        let text = std::fs::read_to_string(path).unwrap();
        for (i, line) in text.lines().enumerate() {
            lines.push((name.clone(), i + 1, line.to_string()));
        }
    }
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
/// DESIGN.md and EXPERIMENTS.md whose `Type` is defined in this
/// workspace names something `crates/*/src` or `src` still defines, and
/// every `--flag` in a `///`/`//!` comment under `crates/*/src` and
/// `src` is one the bench still parses. (`benchmark/README.md` belongs
/// to the benchmark and is not read.)
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
    assert!(
        stale.is_empty(),
        "docs name items nothing defines: {stale:#?}"
    );

    // Every `--flag` a `///`/`//!` comment names is one the bench parses
    // (a `"--…"` literal in its non-test code) or cargo's `--release`.
    let mut flags: BTreeSet<String> = BTreeSet::from(["--release".to_string()]);
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
        "doc comments name flags nothing parses: {unknown:#?}"
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
        assert!(found.is_empty(), "`{verb}` reads or writes the environment: {found:?}");
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

    for doc in ["README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"] {
        let text = std::fs::read_to_string(repo(doc)).unwrap();
        let found: Vec<String> = text
            .lines()
            .enumerate()
            .filter(|(_, l)| l.contains(concat!("EMPI", "_")))
            .map(|(i, _)| format!("{doc}:{}", i + 1))
            .collect();
        assert!(found.is_empty(), "docs name an environment setting: {found:?}");
    }
}

/// The public surface is what the stack calls: every `pub fn` in
/// `crates/*/src` and `src` outside `#[cfg(test)]` is named, as an
/// identifier token, by another file — non-test code in `crates/*/src`,
/// `src`, `examples` or `benchmark/src`, or an integration test under
/// `tests/` or `crates/*/tests`. A unit test does not make a caller: a
/// function only its own tests call is a private helper of those tests.
#[test]
fn pub_items_have_callers() {
    // Entry points that nothing in the repository names (each with the
    // reason it is public anyway). Empty: every `pub fn` has a caller.
    const ENTRY_POINTS: &[&str] = &[];

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
    // Which files name each identifier.
    let mut namers: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (file, _, line) in &named {
        for tok in idents(line) {
            namers.entry(tok).or_default().insert(file);
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
