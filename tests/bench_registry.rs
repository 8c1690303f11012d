//! The bench runner's contracts that tier-1 can check in under two
//! seconds without running a harness: committed tables are named by the
//! rule `emit` writes them with, committed traces and snapshots pass
//! `tracecheck` (each against the contract of its name), and every invocation DESIGN.md §4 documents names a
//! registry entry with flags the one parser accepts.

use std::path::{Path, PathBuf};

use empi::bench::registry;
use empi::bench::tracecheck::check_file;
use empi::bench::{artifact_stem, BenchOpts};
use empi_trace::json::{self, Value};

fn repo(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// `results/<prefix>*.json`, sorted.
fn results(prefixes: &[&str]) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(repo("results"))
        .expect("results/ is committed")
        .map(|e| e.unwrap().path())
        .filter(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            name.ends_with(".json") && prefixes.iter().any(|pre| name.starts_with(pre))
        })
        .collect();
    files.sort();
    files
}

#[test]
fn committed_tables_are_named_by_their_titles() {
    let tables = results(&["tab-", "fig-", "ext-", "decomp-"]);
    assert!(tables.len() >= 40, "only {} tables found", tables.len());
    for path in tables {
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let title = doc
            .get("title")
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("{}: no title", path.display()));
        let stem = path.file_stem().unwrap().to_string_lossy();
        assert_eq!(artifact_stem(title), stem, "{}", path.display());
    }
}

#[test]
fn committed_traces_and_snapshots_pass_tracecheck() {
    let files = results(&["trace-", "metrics-"]);
    assert!(files
        .iter()
        .any(|p| p.to_string_lossy().contains("metrics-")));
    let mut loaded = 0;
    for path in files {
        match check_file(&path) {
            Ok((_, shows_load)) => loaded += shows_load as usize,
            Err(e) => panic!("{}: {e}", path.display()),
        }
    }
    assert!(
        loaded > 0,
        "every committed snapshot is empty of e2e samples"
    );
}

#[test]
fn design_index_invocations_name_registry_entries() {
    let design = std::fs::read_to_string(repo("DESIGN.md")).unwrap();
    let section = design
        .split("## 4. Per-experiment index")
        .nth(1)
        .and_then(|rest| rest.split("\n## ").next())
        .expect("DESIGN.md §4");
    let mut checked = 0;
    for row in section.lines().filter(|l| l.starts_with("| ")) {
        let invocation = row.split('|').nth(2).unwrap_or("");
        // Back-ticked spans are the odd pieces of a split on '`'.
        for cmd in invocation.split('`').skip(1).step_by(2) {
            let mut words = cmd.split_whitespace().map(String::from);
            let name = words.next().expect("empty invocation");
            assert!(
                registry::resolve(&name).is_some(),
                "DESIGN.md §4: `{cmd}` names no harness"
            );
            if let Err(e) = BenchOpts::try_parse(words) {
                panic!("DESIGN.md §4: `{cmd}`: {e}");
            }
            checked += 1;
        }
    }
    assert!(checked >= 15, "only {checked} invocations found in §4");
}
