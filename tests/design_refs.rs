//! DESIGN.md's section numbers are an interface: code comments and the
//! other documents cite them as `DESIGN.md §N`. These tests hold every
//! such citation to a `## N.` heading that exists, and §3's crate
//! inventory to the crates that exist.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The numbers of DESIGN.md's `## N.` headings.
fn sections(design: &str) -> BTreeSet<u32> {
    design
        .lines()
        .filter_map(|line| line.strip_prefix("## ")?.split_once('.')?.0.parse().ok())
        .collect()
}

/// The section number of every `DESIGN.md §N` in `text`, with its line.
/// Line breaks, comment markers and `#` between the file name and the
/// section sign are read through, as a wrapped comment or paragraph
/// puts them there.
fn citations(text: &str) -> Vec<(usize, u32)> {
    let name = "DESIGN.md";
    let mut out = Vec::new();
    for (at, _) in text.match_indices(name) {
        let rest = text[at + name.len()..]
            .trim_start_matches(|c: char| c.is_whitespace() || c == '/' || c == '!' || c == '#');
        let Some(rest) = rest.strip_prefix('§') else {
            continue;
        };
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        if let Ok(n) = digits.parse() {
            out.push((text[..at].matches('\n').count() + 1, n));
        }
    }
    out
}

/// The `.rs` and `.md` files under `dir`, build output left out.
fn sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                sources(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs" || e == "md") {
            out.push(path);
        }
    }
}

/// Citations of sections `known` lacks, as `file:line: §N`.
fn unresolved(files: &[(String, String)], known: &BTreeSet<u32>) -> Vec<String> {
    let mut out = Vec::new();
    for (name, text) in files {
        for (line, n) in citations(text) {
            if !known.contains(&n) {
                out.push(format!("{name}:{line}: §{n}"));
            }
        }
    }
    out
}

#[test]
fn every_design_citation_names_a_section() {
    let design = read(&root().join("DESIGN.md"));
    let known = sections(&design);
    assert!(known.len() >= 20, "headings found: {known:?}");
    let mut paths = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        sources(&root().join(dir), &mut paths);
    }
    paths.extend(["README.md", "EXPERIMENTS.md", "ROADMAP.md"].map(|f| root().join(f)));
    let files: Vec<(String, String)> = paths
        .iter()
        .map(|path| {
            let name = path.strip_prefix(root()).unwrap_or(path);
            (name.display().to_string(), read(path))
        })
        .collect();
    let cited: usize = files.iter().map(|(_, text)| citations(text).len()).sum();
    assert!(cited >= 20, "only {cited} citations found");
    let broken = unresolved(&files, &known);
    assert!(
        broken.is_empty(),
        "citations of missing sections: {broken:?}"
    );
}

/// A renumbered section breaks the citations under it, wrapped or not.
#[test]
fn a_renumbered_section_fails_its_citations() {
    let design = "## 5. Invariants\n\n## 6. The commit path\n\n## 7. Extensions\n";
    let renumbered = design.replace("## 6.", "## 8.");
    let name = "DESIGN.md";
    let files = [
        (
            "a.rs".to_string(),
            format!("//! See {name} §6 and {name} §7.\n"),
        ),
        (
            "b.md".to_string(),
            format!("the commit turn ({name}\n§6)\n"),
        ),
        ("c.rs".to_string(), format!("/// ({name}\n/// §6)\n")),
    ];
    assert!(unresolved(&files, &sections(design)).is_empty());
    assert_eq!(
        unresolved(&files, &sections(&renumbered)),
        ["a.rs:1: §6", "b.md:1: §6", "c.rs:1: §6"]
    );
}

#[test]
fn the_inventory_names_every_crate() {
    let design = read(&root().join("DESIGN.md"));
    let start = design.find("\n## 3.").expect("a §3");
    let end = design[start + 1..]
        .find("\n## ")
        .map_or(design.len(), |e| start + 1 + e);
    let inventory = &design[start..end];
    let mut missing = Vec::new();
    for entry in std::fs::read_dir(root().join("crates")).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if path.is_dir() && name != "shims" && !inventory.contains(&format!("\n  {name}/ ")) {
            missing.push(name);
        }
    }
    assert!(missing.is_empty(), "crates §3 does not list: {missing:?}");
}
