//! Workspace integrity smoke test.
//!
//! The repository once shipped with `crates/target/` missing: a
//! `target/`-style ignore rule in a packing tool silently dropped the
//! whole crate, and `cargo metadata` failed before a single test could
//! run. This test encodes the invariant that every workspace member the
//! root manifest promises actually exists on disk with a manifest and
//! sources. For members in the façade's dependency graph (like
//! `crates/target/`), dropping them already fails the build at manifest
//! load — any `cargo test` run dies, which is itself the signal — while
//! this test additionally catches members *outside* that graph (the
//! vendored dependency subsets, future leaf crates) and partial drops
//! (manifest present, sources gone) that would otherwise surface later
//! or not at all.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Member entries of `[workspace] members`, with `*` globs expanded
/// against the directories present on disk.
fn member_dirs(root: &Path, manifest: &str) -> Vec<PathBuf> {
    let members_line = manifest
        .lines()
        .find(|l| l.trim_start().starts_with("members"))
        .expect("root Cargo.toml has a [workspace] members list");
    let list = members_line
        .split_once('[')
        .and_then(|(_, rest)| rest.split_once(']'))
        .map(|(inner, _)| inner)
        .expect("members list is a single-line array");
    let mut dirs = Vec::new();
    for entry in list.split(',') {
        let entry = entry.trim().trim_matches('"');
        if entry.is_empty() {
            continue;
        }
        if let Some(parent) = entry.strip_suffix("/*") {
            let parent_dir = root.join(parent);
            let listing = fs::read_dir(&parent_dir)
                .unwrap_or_else(|e| panic!("members glob `{entry}`: cannot read {parent}: {e}"));
            let mut expanded: Vec<PathBuf> = listing
                .filter_map(Result::ok)
                .map(|d| d.path())
                .filter(|p| p.is_dir())
                .collect();
            assert!(
                !expanded.is_empty(),
                "members glob `{entry}` matches no directories"
            );
            expanded.sort();
            dirs.extend(expanded);
        } else {
            dirs.push(root.join(entry));
        }
    }
    dirs
}

#[test]
fn every_workspace_member_exists_with_a_manifest() {
    let root = repo_root();
    let manifest = fs::read_to_string(root.join("Cargo.toml")).expect("read root Cargo.toml");
    let dirs = member_dirs(&root, &manifest);
    assert!(dirs.len() >= 12, "expected a full workspace, got {dirs:?}");
    for dir in &dirs {
        assert!(
            dir.join("Cargo.toml").is_file(),
            "workspace member {} has no Cargo.toml — a packing or ignore rule \
             probably dropped it (this is how crates/target/ was once lost)",
            dir.display()
        );
        assert!(
            dir.join("src").join("lib.rs").is_file() || dir.join("src").join("main.rs").is_file(),
            "workspace member {} has no src/lib.rs or src/main.rs",
            dir.display()
        );
    }
}

/// Clippy reads the minimum supported Rust from each package's own
/// `rust-version`: a member that does not inherit the workspace's gets
/// suggestions (and no `incompatible_msrv` warnings) as if there were
/// none — how fifteen `is_multiple_of` calls (1.87) once got in under
/// `rust-version = "1.75"`.
#[test]
fn every_member_inherits_the_workspace_rust_version() {
    let root = repo_root();
    let manifest = fs::read_to_string(root.join("Cargo.toml")).expect("read root Cargo.toml");
    assert!(
        manifest.contains("\nrust-version = \""),
        "[workspace.package] sets no rust-version"
    );
    let mut members = member_dirs(&root, &manifest);
    members.push(root); // the façade package
    for dir in &members {
        let text = fs::read_to_string(dir.join("Cargo.toml")).expect("read member manifest");
        assert!(
            text.lines()
                .any(|l| l.trim() == "rust-version.workspace = true"),
            "{}/Cargo.toml does not inherit `rust-version.workspace = true`",
            dir.display()
        );
    }
}

#[test]
fn every_path_dependency_in_the_root_manifest_exists() {
    let root = repo_root();
    let manifest = fs::read_to_string(root.join("Cargo.toml")).expect("read root Cargo.toml");
    let mut checked = 0;
    for line in manifest.lines() {
        let Some((_, rest)) = line.split_once("path = \"") else {
            continue;
        };
        let Some((path, _)) = rest.split_once('"') else {
            continue;
        };
        assert!(
            root.join(path).join("Cargo.toml").is_file(),
            "dependency path `{path}` in the root Cargo.toml does not exist on disk"
        );
        checked += 1;
    }
    // All 15 dhdl crates plus the 2 vendored dependency subsets.
    assert!(
        checked >= 17,
        "expected >= 17 path dependencies, saw {checked}"
    );
}

#[test]
fn the_device_model_crate_is_present() {
    // The specific regression: crates/target/ must never vanish again.
    let target = repo_root().join("crates").join("target");
    assert!(
        target.join("Cargo.toml").is_file(),
        "crates/target/Cargo.toml missing"
    );
    for f in ["lib.rs", "fpga.rs", "dram.rs", "power.rs"] {
        assert!(
            target.join("src").join(f).is_file(),
            "crates/target/src/{f} missing"
        );
    }
}

/// Every `DHDL_[A-Z0-9_]+` name in `text`, with the byte offset it
/// starts at.
fn knob_mentions(text: &str) -> impl Iterator<Item = (usize, String)> + '_ {
    text.match_indices("DHDL_").map(|(at, _)| {
        let name = text[at..]
            .chars()
            .take_while(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || *c == '_')
            .collect();
        (at, name)
    })
}

/// Every knob name in `text` that directly follows `open` and is
/// directly followed by `close`.
fn knob_names(text: &str, open: char, close: char, into: &mut BTreeSet<String>) {
    for (at, name) in knob_mentions(text) {
        if text[..at].ends_with(open) && text[at + name.len()..].starts_with(close) {
            into.insert(name);
        }
    }
}

fn rust_sources(dir: &Path, into: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("read source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_sources(&path, into);
        } else if path.extension().is_some_and(|e| e == "rs") {
            into.push(path);
        }
    }
}

/// The knobs the code reads: every `"DHDL_*"` string literal under
/// `crates/`.
fn knobs_read(root: &Path) -> BTreeSet<String> {
    let mut sources = Vec::new();
    rust_sources(&root.join("crates"), &mut sources);
    let mut read = BTreeSet::new();
    for path in &sources {
        knob_names(
            &fs::read_to_string(path).expect("read source"),
            '"',
            '"',
            &mut read,
        );
    }
    read
}

#[test]
fn the_readme_environment_table_lists_exactly_the_knobs_the_code_reads() {
    // The property: docs ≡ code. A documented knob is a backticked name
    // in the first cell of a row of README.md's environment table.
    let root = repo_root();
    let read = knobs_read(&root);
    let mut documented = BTreeSet::new();
    let readme = fs::read_to_string(root.join("README.md")).expect("read README.md");
    for row in readme.lines().filter(|l| l.starts_with("| `DHDL_")) {
        let first_cell = row[1..].split('|').next().unwrap_or("");
        knob_names(first_cell, '`', '`', &mut documented);
    }
    assert!(read.len() >= 5, "knob scan found only {read:?}");
    let undocumented: Vec<_> = read.difference(&documented).collect();
    let stale: Vec<_> = documented.difference(&read).collect();
    assert!(
        undocumented.is_empty() && stale.is_empty(),
        "README.md environment table is out of step with the code: \
         read but undocumented {undocumented:?}, documented but never read {stale:?}"
    );
}

#[test]
fn every_knob_the_code_reads_has_a_setter() {
    // A knob is configuration only if something sets it: CI, the
    // experiment script, the verification notes or the benchmark. One
    // that nothing sets is a default nobody changes — make it a constant
    // or a field the tests set instead.
    let root = repo_root();
    let mut setter_files = vec![
        root.join(".github/workflows/ci.yml"),
        root.join("run_all.sh"),
        root.join(".claude/skills/verify/SKILL.md"),
    ];
    rust_sources(&root.join("benchmark/src"), &mut setter_files);
    let mut set = BTreeSet::new();
    for path in &setter_files {
        let text =
            fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        set.extend(knob_mentions(&text).map(|(_, name)| name));
    }
    let unset: Vec<_> = knobs_read(&root).difference(&set).cloned().collect();
    assert!(
        unset.is_empty(),
        "knobs the code reads that nothing sets: {unset:?}"
    );
}

/// Whether `line` writes a JSON member by hand: a string literal holding
/// `\"name\":`, or a raw one holding `"name":`.
fn writes_json_member(line: &str) -> bool {
    line.match_indices("\":").any(|(at, _)| {
        let close = at - usize::from(line[..at].ends_with('\\'));
        let name = line[..close].trim_end_matches(|c: char| {
            c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '{' | '}')
        });
        name.len() < close && name.ends_with('"')
    })
}

#[test]
fn json_is_written_only_by_the_codec() {
    // One encoder, one escaper: every JSON file and frame goes through
    // `dhdl_obs::json`. A hand-written member is how two result files
    // once shipped without escaping their strings. Test modules (from
    // the first `#[cfg(test)]` on) may spell out the JSON they expect;
    // the serve crate's reference tree parser is test-only as a whole.
    let root = repo_root();
    let mut sources = Vec::new();
    rust_sources(&root.join("crates"), &mut sources);
    let exempt = [
        root.join("crates/obs/src/json.rs"),
        root.join("crates/serve/src/codec_tests.rs"),
    ];
    let mut scanned = 0;
    let mut found = Vec::new();
    for path in sources
        .iter()
        .filter(|p| p.components().any(|c| c.as_os_str() == "src") && !exempt.contains(p))
    {
        scanned += 1;
        let text = fs::read_to_string(path).expect("read source");
        let code = text.split("#[cfg(test)]").next().unwrap_or("");
        for (n, line) in code.lines().enumerate() {
            if line.trim_start().starts_with("//") {
                continue;
            }
            if writes_json_member(line) {
                found.push(format!("{}:{}: {}", path.display(), n + 1, line.trim()));
            }
        }
    }
    assert!(scanned >= 100, "the scan saw only {scanned} source files");
    assert!(
        found.is_empty(),
        "JSON written outside dhdl_obs::json — build a `Json` or use its \
         `ObjWriter`:\n{}",
        found.join("\n")
    );
}

#[test]
fn the_interpreter_names_nothing_of_the_tape_backend() {
    // The interpreter is the reference the tape is held to, so it
    // resolves and executes designs in code of its own: a helper shared
    // with `compile`, `tape` or `arena` would make the differential
    // oracles compare the helper with itself. Comments may name them.
    let path = repo_root().join("crates/sim/src/interp.rs");
    let text = fs::read_to_string(&path).expect("read interp.rs");
    let mut found = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let code = line.split("//").next().unwrap_or("");
        let mut names = code.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'));
        if let Some(name) = names.find(|w| ["compile", "tape", "arena"].contains(w)) {
            found.push(format!(
                "{}:{}: `{name}` in {}",
                path.display(),
                n + 1,
                line.trim()
            ));
        }
    }
    assert!(
        text.lines().count() > 500,
        "interp.rs is not the interpreter"
    );
    assert!(found.is_empty(), "{}", found.join("\n"));
}

#[test]
fn no_tracked_file_lives_under_a_results_directory() {
    // A results file is an output. A tracked one is an input that no run
    // regenerates: three trained-model files once sat under
    // `crates/bench/results/` and fed every golden. The tracked tree is
    // what the root `.gitignore`'s anchored rules leave.
    let root = repo_root();
    let gitignore = fs::read_to_string(root.join(".gitignore")).expect("read .gitignore");
    let ignored: Vec<PathBuf> = gitignore
        .lines()
        .filter_map(|rule| rule.strip_prefix('/'))
        .map(|rule| root.join(rule.trim_end_matches('/')))
        .chain([root.join(".git")])
        .collect();
    let mut pending = vec![root];
    let mut walked = 0;
    while let Some(dir) = pending.pop() {
        walked += 1;
        for entry in fs::read_dir(&dir).expect("read directory") {
            let entry = entry.expect("directory entry");
            let path = entry.path();
            if entry.file_type().expect("file type").is_dir() && !ignored.contains(&path) {
                assert_ne!(
                    entry.file_name(),
                    "results",
                    "{} is not ignored: move its files or delete them",
                    path.display()
                );
                pending.push(path);
            }
        }
    }
    // At least every member crate and its `src/`.
    assert!(walked >= 30, "the walk saw only {walked} directories");
}

#[test]
fn only_a_main_or_a_lone_test_switches_observation() {
    // `dhdl_obs::init` switches recording for the whole process. A library
    // that calls it changes what every caller records, and a test that
    // calls it beside other tests changes what they record while they
    // run. A binary's `main` owns its process, and a test alone in its
    // file runs alone in its own test binary.
    // Spelled in two halves so that this file does not match itself.
    let call = ["dhdl_obs::", "init("].concat();
    let root = repo_root();
    let mut sources = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_sources(&root.join(dir), &mut sources);
    }
    let mut allowed = 0;
    let mut found = Vec::new();
    for path in &sources {
        let text = fs::read_to_string(path).expect("read source");
        let calls: Vec<usize> = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim_start().starts_with("//") && l.contains(&call))
            .map(|(n, _)| n + 1)
            .collect();
        if calls.is_empty() {
            continue;
        }
        let relative = path.strip_prefix(&root).expect("a path under the root");
        let in_tests = relative.components().any(|c| c.as_os_str() == "tests");
        let is_main = text.lines().any(|l| l.starts_with("fn main("));
        if is_main || (in_tests && text.matches("#[test]").count() == 1) {
            allowed += 1;
        } else {
            found.extend(calls.iter().map(|n| format!("{}:{n}", relative.display())));
        }
    }
    assert!(allowed >= 1, "the scan found no `{call}` call");
    assert!(
        found.is_empty(),
        "`{call}` outside a `main` and outside a file of one test:\n{}",
        found.join("\n")
    );
}
