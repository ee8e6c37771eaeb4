//! The workspace's dependency graph stays what its manifests claim:
//! every declared dependency of a member is named by that member's code,
//! and the root lock holds only path packages, one per member. A manifest
//! line that outlives its last `use` (or a vendored stand-in that no
//! member needs) fails here instead of lingering.

use std::fs;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).to_path_buf()
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("list {}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// The names a manifest declares under `[dependencies]` and
/// `[dev-dependencies]`, as written (`yala-core`, `rand`).
fn declared_dependencies(manifest: &str) -> Vec<String> {
    let mut in_deps = false;
    let mut names = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_deps = line == "[dependencies]" || line == "[dev-dependencies]";
        } else if in_deps && !line.is_empty() && !line.starts_with('#') {
            let key = line.split('=').next().expect("a key").trim();
            names.push(key.trim_end_matches(".workspace").to_string());
        }
    }
    names
}

/// Whether `ident` occurs as a whole identifier on a non-comment line.
fn names_ident(source: &str, ident: &str) -> bool {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    source
        .lines()
        .filter(|line| !line.trim_start().starts_with("//"))
        .any(|line| {
            line.match_indices(ident).any(|(at, _)| {
                let before = line[..at].chars().next_back();
                let after = line[at + ident.len()..].chars().next();
                !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
            })
        })
}

#[test]
fn every_declared_dependency_is_used() {
    let mut unused = Vec::new();
    let mut crates: Vec<PathBuf> = fs::read_dir(root().join("crates"))
        .expect("crates directory")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|dir| dir.join("Cargo.toml").is_file())
        .collect();
    crates.sort();
    assert!(!crates.is_empty(), "no crates found");
    for dir in &crates {
        let mut files = Vec::new();
        rust_files(dir, &mut files);
        let sources: Vec<String> = files.iter().map(|f| read(f)).collect();
        for dep in declared_dependencies(&read(&dir.join("Cargo.toml"))) {
            let ident = dep.replace('-', "_");
            if !sources.iter().any(|s| names_ident(s, &ident)) {
                let name = dir.file_name().expect("crate dir").to_string_lossy();
                unused.push(format!("{name} -> {dep}"));
            }
        }
    }
    assert!(unused.is_empty(), "declared but never named: {unused:?}");
}

#[test]
fn the_lock_holds_one_path_package_per_member() {
    let lock = read(&root().join("Cargo.lock"));
    let sourced: Vec<&str> = lock.lines().filter(|l| l.starts_with("source =")).collect();
    assert!(
        sourced.is_empty(),
        "non-path packages in Cargo.lock: {sourced:?}"
    );

    let manifest = read(&root().join("Cargo.toml"));
    let members = manifest
        .split("members = [")
        .nth(1)
        .and_then(|rest| rest.split(']').next())
        .expect("a [workspace] members list");
    let n_members = members
        .lines()
        .filter(|l| l.trim().starts_with('"'))
        .count();
    let n_packages = lock.lines().filter(|l| *l == "[[package]]").count();
    assert_eq!(
        n_packages, n_members,
        "Cargo.lock packages vs workspace members"
    );
}
