//! Every metric and event name `dv_obs::names` declares is used: a
//! `pub const` there that no code outside `crates/obs` mentions names a
//! number nothing writes, and a reader of it sees a zero that means
//! nothing.

use std::path::{Path, PathBuf};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The constants `pub mod names { .. }` in `source` declares.
fn declared(source: &str) -> Vec<String> {
    let body = source
        .split_once("pub mod names {")
        .expect("dv_obs declares its names module")
        .1;
    let body = body.split("\n}").next().unwrap();
    body.lines()
        .filter_map(|line| line.trim_start().strip_prefix("pub const "))
        .map(|rest| rest.split(':').next().unwrap().to_string())
        .collect()
}

/// The `.rs` files under `dir`, build output and `skip` left out.
fn sources(dir: &Path, skip: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            if path != skip && path.file_name().is_some_and(|n| n != "target") {
                sources(&path, skip, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Whether `text` mentions `name` as a whole identifier.
fn mentions(text: &str, name: &str) -> bool {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    text.match_indices(name).any(|(at, _)| {
        let before = text[..at].chars().next_back();
        let after = text[at + name.len()..].chars().next();
        !before.is_some_and(ident) && !after.is_some_and(ident)
    })
}

/// The declared names that none of `files` mentions.
fn unused(names: &[String], files: &[String]) -> Vec<String> {
    names
        .iter()
        .filter(|name| !files.iter().any(|text| mentions(text, name)))
        .cloned()
        .collect()
}

#[test]
fn every_registry_name_is_used_outside_dv_obs() {
    let names = declared(&read(&root().join("crates/obs/src/lib.rs")));
    assert!(names.len() >= 100, "only {} names found", names.len());
    let mut paths = Vec::new();
    let skip = root().join("crates/obs");
    for dir in ["crates", "src", "tests", "examples", "benchmark"] {
        sources(&root().join(dir), &skip, &mut paths);
    }
    let files: Vec<String> = paths.iter().map(|path| read(path)).collect();
    let unused = unused(&names, &files);
    assert!(
        unused.is_empty(),
        "names nothing outside dv-obs uses: {unused:?}"
    );
}

/// A name counts as used only as a whole identifier.
#[test]
fn a_longer_identifier_does_not_use_a_name() {
    let names = ["CHECKPOINT_COUNT".to_string()];
    let longer = ["obs.counter(names::CHECKPOINT_COUNTED)".to_string()];
    assert_eq!(unused(&names, &longer), names);
    let exact = ["obs.counter(names::CHECKPOINT_COUNT)".to_string()];
    assert!(unused(&names, &exact).is_empty());
}
