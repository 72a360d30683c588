//! `unsafe` stays where it was put. Every crate under `crates/` (the
//! shims, which stand in for external crates, left out) denies
//! `unsafe_code` at each of its roots, and the one exception the deny
//! lets through — the carry-less-multiply CRC32 kernel's dispatch call —
//! is one scoped `allow` over one `unsafe` block, in
//! `crates/fault/src/checksum.rs`.

use std::path::{Path, PathBuf};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The crate directories under `crates/`. The shims sit a level down,
/// in `crates/shims/`, which is no crate: they are left out.
fn crates() -> Vec<PathBuf> {
    let dir = root().join("crates");
    let mut out: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.join("Cargo.toml").is_file())
        .collect();
    out.sort();
    out
}

/// The `.rs` files under `dir`, build output left out.
fn sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                sources(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// A crate's roots: its library, its main binary and each of `src/bin`.
fn crate_roots(krate: &Path) -> Vec<PathBuf> {
    let src = krate.join("src");
    let mut roots: Vec<PathBuf> = ["lib.rs", "main.rs"]
        .iter()
        .map(|name| src.join(name))
        .filter(|path| path.is_file())
        .collect();
    if src.join("bin").is_dir() {
        sources(&src.join("bin"), &mut roots);
    }
    roots
}

#[test]
fn every_crate_root_denies_unsafe_code() {
    let crates = crates();
    assert!(crates.len() >= 17, "only {} crates found", crates.len());
    let mut lax = Vec::new();
    for krate in &crates {
        let roots = crate_roots(krate);
        assert!(!roots.is_empty(), "{}: no crate root", krate.display());
        for path in roots {
            if !read(&path).lines().any(|l| l == "#![deny(unsafe_code)]") {
                lax.push(path);
            }
        }
    }
    assert!(
        lax.is_empty(),
        "crate roots without #![deny(unsafe_code)]: {lax:?}"
    );
}

#[test]
fn unsafe_code_is_allowed_once_in_the_crc32_kernel_only() {
    let mut paths = Vec::new();
    for krate in crates() {
        sources(&krate, &mut paths);
    }
    let kernel = root().join("crates/fault/src/checksum.rs");
    let marks = |text: &str| {
        let count = |needle: &str| text.matches(needle).count();
        (count("allow(unsafe_code)"), count("unsafe {"))
    };
    let mut elsewhere = Vec::new();
    for path in &paths {
        let found = marks(&read(path));
        if *path == kernel {
            assert_eq!(found, (1, 1), "one scoped allow over one unsafe block");
        } else if found != (0, 0) {
            elsewhere.push(path);
        }
    }
    assert!(
        elsewhere.is_empty(),
        "allow(unsafe_code) or an unsafe block outside {}: {elsewhere:?}",
        kernel.display()
    );
}
