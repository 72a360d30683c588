//! Every metric and event name `dv_obs::names` declares is used: a
//! `pub const` there that no code outside `crates/obs` mentions names a
//! number nothing writes, and a reader of it sees a zero that means
//! nothing. Every `pub fn` under `crates/` is named outside its file: a
//! public function nothing else calls is surface nobody uses.

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

/// Public functions that nothing outside their own file calls, each
/// kept on purpose, with the reason. The name check below matches the
/// part after `::`. A compiler-resolved scan (a `#[deprecated]` note on
/// every `pub fn` of a scratch copy, `cargo check`'s warnings grouped
/// by note) finds exactly these.
const UNCALLED_PUBLIC_FNS: &[(&str, &str)] = &[
    (
        "DejaView::clipboard",
        "the shared clipboard between sessions, §2",
    ),
    (
        "DejaView::set_clipboard",
        "the shared clipboard between sessions, §2",
    ),
    (
        "DejaView::browse_at_scale",
        "viewing the record on a PDA-sized screen, §4.1",
    ),
    (
        "DejaView::revive_from_session",
        "branchable revives, DESIGN.md §7",
    ),
    (
        "ViewerUi::resume_live",
        "the viewer's return to the live session, §2",
    ),
    (
        "TcpTransport::new",
        "the only transport over a real socket, §3's remote access",
    ),
    (
        "TcpTransport::connect",
        "the only transport over a real socket, §3's remote access",
    ),
    (
        "CommandLog::is_empty",
        "clippy pairs it with the public len",
    ),
    (
        "KeyframeStore::is_empty",
        "clippy pairs it with the public len",
    ),
];

/// The `pub fn` names `source` declares.
fn public_fns(source: &str) -> Vec<String> {
    source
        .lines()
        .filter_map(|line| {
            let line = line.trim_start();
            line.strip_prefix("pub fn ")
                .or_else(|| line.strip_prefix("pub const fn "))
        })
        .map(|rest| {
            rest.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .next()
                .unwrap()
                .to_string()
        })
        .collect()
}

/// `(file, name)` for each `pub fn` in `defining` that no other file
/// of `files` mentions and `kept` does not name.
fn uncalled(
    defining: &[(PathBuf, String)],
    files: &[(PathBuf, String)],
    kept: &[&str],
) -> Vec<(PathBuf, String)> {
    let mut out = Vec::new();
    for (path, text) in defining {
        for name in public_fns(text) {
            let called = files
                .iter()
                .any(|(other, text)| other != path && mentions(text, &name));
            if !called && !kept.contains(&name.as_str()) {
                out.push((path.clone(), name));
            }
        }
    }
    out
}

/// Every `pub fn` under `crates/` (bench and the shims left out) is
/// named in some other file, or is on `UNCALLED_PUBLIC_FNS`. A name
/// check sees only distinctive names: a `len` is "called" by every
/// other `len`, so the compiler-resolved scan stays the full check.
#[test]
fn every_public_fn_is_named_outside_its_file() {
    let mut paths = Vec::new();
    let shims = root().join("crates/shims");
    for dir in ["crates", "src", "tests", "examples", "benchmark"] {
        sources(&root().join(dir), &shims, &mut paths);
    }
    // This file names the kept functions; that is not a call.
    let this = root().join(file!());
    let files: Vec<(PathBuf, String)> = paths
        .iter()
        .filter(|p| **p != this)
        .map(|p| (p.clone(), read(p)))
        .collect();
    let bench = root().join("crates/bench");
    let defining: Vec<(PathBuf, String)> = files
        .iter()
        .filter(|(path, _)| path.starts_with(root().join("crates")) && !path.starts_with(&bench))
        .cloned()
        .collect();
    assert!(defining.len() >= 100, "only {} files found", defining.len());
    let kept: Vec<&str> = UNCALLED_PUBLIC_FNS
        .iter()
        .map(|(name, _)| name.rsplit("::").next().unwrap())
        .collect();
    let uncalled = uncalled(&defining, &files, &kept);
    assert!(
        uncalled.is_empty(),
        "public functions no other file names (make them private or delete them): {uncalled:?}"
    );
}

/// A declaration is not a call, and a kept name is not reported.
#[test]
fn a_public_fn_named_only_in_its_own_file_is_uncalled() {
    let lib = (
        PathBuf::from("lib.rs"),
        "pub fn lonely() {}\npub const fn kept() {}".to_string(),
    );
    let user = (PathBuf::from("user.rs"), "fn main() {}".to_string());
    let files = [lib.clone(), user];
    let found = uncalled(std::slice::from_ref(&lib), &files, &["kept"]);
    assert_eq!(found, vec![(lib.0.clone(), "lonely".to_string())]);
    let caller = (
        PathBuf::from("user.rs"),
        "fn main() { lonely() }".to_string(),
    );
    assert!(uncalled(
        std::slice::from_ref(&lib),
        &[lib.clone(), caller],
        &["kept"]
    )
    .is_empty());
}
