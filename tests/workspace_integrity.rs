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

/// Every `DHDL_[A-Z0-9_]+` name in `text` that directly follows `open`
/// and is directly followed by `close`.
fn knob_names(text: &str, open: char, close: char, into: &mut BTreeSet<String>) {
    for (at, _) in text.match_indices("DHDL_") {
        let name: String = text[at..]
            .chars()
            .take_while(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || *c == '_')
            .collect();
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

#[test]
fn the_readme_environment_table_lists_exactly_the_knobs_the_code_reads() {
    // The property: docs ≡ code. A knob is a `"DHDL_*"` string literal
    // under `crates/`; a documented knob is a backticked name in the
    // first cell of a row of README.md's environment table.
    let root = repo_root();
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
    let mut documented = BTreeSet::new();
    let readme = fs::read_to_string(root.join("README.md")).expect("read README.md");
    for row in readme.lines().filter(|l| l.starts_with("| `DHDL_")) {
        let first_cell = row[1..].split('|').next().unwrap_or("");
        knob_names(first_cell, '`', '`', &mut documented);
    }
    assert!(read.len() >= 30, "knob scan found only {read:?}");
    let undocumented: Vec<_> = read.difference(&documented).collect();
    let stale: Vec<_> = documented.difference(&read).collect();
    assert!(
        undocumented.is_empty() && stale.is_empty(),
        "README.md environment table is out of step with the code: \
         read but undocumented {undocumented:?}, documented but never read {stale:?}"
    );
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
