//! Workspace traversal and the cross-file passes.
//!
//! Collects every `.rs` and `Cargo.toml` under the workspace root in a
//! deterministic (sorted) order, derives a [`SourceArtifact`] per
//! source, then runs the passes that need a global view: the call
//! graph analyses ([`crate::graph`]), `path-deps` over every manifest,
//! and `dead-pub` over every library's `pub` items against the whole
//! workspace's identifier usage. The same pass over each file's tokens
//! counts its non-test code lines for the clean-run summary. Per-file
//! and cross-file findings are merged *before* allow markers are
//! applied, so a single `panic-reachability` allow marker suppresses a
//! graph finding exactly like a token finding — and goes stale exactly
//! like one too.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use crate::graph;
use crate::lexer::{self, AllowSite};
use crate::parse;
use crate::rules::{self, Finding};

/// Directories never scanned: build output, VCS metadata, and the
/// seeded-violation fixtures used by xtask's own self-tests.
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures"];

/// Vendored third-party stand-ins: exempt from the style rules (their
/// job is to mimic crates.io APIs — the criterion shim *must* read the
/// wall clock) and from the code-line count, but their manifests are
/// still checked and their export surface is audited by `dead-pub`.
const SHIM_PREFIX: &str = "crates/shims/";

/// The repository benchmark: its own workspace, whose files stay as
/// they are while the program changes. Its uses of the program count
/// for `dead-pub`, its own definitions are not checked, and its code
/// lines are counted apart.
const BENCHMARK_PREFIX: &str = "crates/bench/benchmark/";

/// Is `rel` library code whose `pub` items `dead-pub` checks? Bins,
/// examples, tests, benches and the benchmark package are callers.
fn is_library(rel: &str) -> bool {
    rel.starts_with("crates/")
        && !rel.starts_with(BENCHMARK_PREFIX)
        && rel.contains("/src/")
        && !rel.contains("/src/bin/")
        && !rel.ends_with("/src/main.rs")
}

/// The package whose non-test code lines `rel` adds to, or `None` for
/// test and bench targets, shims, and sources outside `crates/`.
fn code_package(rel: &str) -> Option<&str> {
    if rel.starts_with(BENCHMARK_PREFIX) {
        return Some("benchmark");
    }
    let krate = rel.strip_prefix("crates/")?.split('/').next()?;
    let test_target = rel.contains("/tests/") || rel.contains("/benches/");
    (krate != "shims" && !test_target).then_some(krate)
}

/// What one source file contributes before allow markers are applied.
struct SourceArtifact<'a> {
    rel: &'a str,
    /// Raw per-file findings; the cross-file findings against this
    /// path join them before the file's markers are applied.
    findings: Vec<Finding>,
    /// The file's `tidy:allow` markers.
    allows: Vec<AllowSite>,
}

/// Collects the `.rs` sources and manifests under `dir`, sorted. An
/// unreadable directory is an error: skipping it would audit a partial
/// tree and report it clean.
fn walk_files(dir: &Path, rs: &mut Vec<PathBuf>, toml: &mut Vec<PathBuf>) -> Result<(), String> {
    let read_err = |e: std::io::Error| format!("read dir {}: {e}", dir.display());
    let mut paths = fs::read_dir(dir)
        .map_err(read_err)?
        .map(|entry| entry.map(|e| e.path()).map_err(read_err))
        .collect::<Result<Vec<PathBuf>, String>>()?;
    paths.sort();
    for p in paths {
        let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if p.is_dir() {
            if !SKIP_DIRS.contains(&name) {
                walk_files(&p, rs, toml)?;
            }
        } else if name == "Cargo.toml" {
            toml.push(p);
        } else if name.ends_with(".rs") {
            rs.push(p);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, p: &Path) -> String {
    p.strip_prefix(root)
        .unwrap_or(p)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// What one audit found.
#[derive(Debug)]
pub struct Audit {
    /// Findings sorted by (path, line, rule, message).
    pub findings: Vec<Finding>,
    /// `tidy:allow` markers in the scanned sources, per rule name.
    pub allows: BTreeMap<String, usize>,
    /// Non-test code lines per package under `crates/`: lines that
    /// keep a token after comment and literal blanking and lie outside
    /// the test mask, in sources outside `tests/`, `benches/` and the
    /// shims. The benchmark package is the key `benchmark`.
    pub code_lines: BTreeMap<String, usize>,
}

impl Audit {
    /// The line a clean audit prints: the rules enforced, the allow
    /// markers per rule and the non-test code lines per package (most
    /// first), and the benchmark package's code lines apart.
    pub fn summary(&self) -> String {
        let allows: usize = self.allows.values().sum();
        let mut code = self.code_lines.clone();
        let benchmark = code.remove("benchmark").unwrap_or(0);
        let lines: usize = code.values().sum();
        format!(
            "tidy: OK ({} rules enforced; {allows} allow markers: {}; {lines} non-test code \
             lines: {}; benchmark package {benchmark})",
            rules::RULES.len(),
            most_first(&self.allows),
            most_first(&code)
        )
    }
}

/// `key n` pairs, largest `n` first; a stable sort keeps equal counts
/// in key order.
fn most_first(counts: &BTreeMap<String, usize>) -> String {
    let mut by_count: Vec<(&String, &usize)> = counts.iter().collect();
    by_count.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    by_count.iter().map(|(k, n)| format!("{k} {n}")).collect::<Vec<_>>().join(", ")
}

/// Runs every tidy pass over the workspace rooted at `root`.
pub fn run(root: &Path) -> Result<Audit, String> {
    let mut rs = Vec::new();
    let mut tomls = Vec::new();
    walk_files(root, &mut rs, &mut tomls)?;
    if rs.is_empty() {
        return Err(format!("no Rust sources under {}", root.display()));
    }
    let read = |p: &PathBuf| {
        let rel = rel_path(root, p);
        match fs::read_to_string(p) {
            Ok(text) => Ok((rel, text)),
            Err(e) => Err(format!("read {rel}: {e}")),
        }
    };
    let sources = rs.iter().map(read).collect::<Result<Vec<_>, String>>()?;
    let manifests = tomls.iter().map(read).collect::<Result<Vec<_>, String>>()?;
    let scanned: Vec<&str> = sources.iter().map(|(rel, _)| rel.as_str()).collect();
    let mut audit = audit(&sources, &manifests);
    audit.findings.extend(graph::vanished_roots(&scanned, graph::HOT_PATH_ROOTS));
    audit.findings.sort();
    Ok(audit)
}

/// The full in-memory pipeline over `(path, source)` pairs: per-file
/// scans, the call-graph analyses, `dead-pub`, and allow-marker
/// application. The fixture self-tests drive the rules through this;
/// unlike [`run`], it treats the sources as a partial world, so a
/// hot-path root whose file is absent is not reported.
pub fn check_files(files: &[(&str, &str)]) -> Audit {
    audit(files, &[])
}

/// Audits sources and manifests together.
fn audit<S: AsRef<str>>(sources: &[(S, S)], manifests: &[(S, S)]) -> Audit {
    let mut arts: Vec<SourceArtifact> = Vec::new();
    let mut summaries: Vec<(String, parse::FileSummary)> = Vec::new();
    let mut code_lines: BTreeMap<String, usize> = BTreeMap::new();
    // dead-pub inputs: how often the scanned sources name each
    // identifier — a library source outside its test code only, any
    // other source in full — and every library `pub` item with how
    // often its own file names it outside test code.
    let mut named: BTreeMap<String, usize> = BTreeMap::new();
    let mut items: Vec<(&str, rules::PubItem, usize)> = Vec::new();
    for (rel, text) in sources {
        let rel = rel.as_ref();
        let blanked = lexer::blank(text.as_ref());
        let mask = rules::test_mask(&blanked.text);
        let mut own: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
        let mut code = 0;
        for (idx, line) in blanked.text.split('\n').enumerate() {
            let live = !rules::is_test_line(&mask, idx + 1);
            code += usize::from(live && !line.trim().is_empty());
            for id in rules::ident_tokens(line) {
                let (all, outside_tests) = own.entry(id).or_default();
                *all += 1;
                *outside_tests += usize::from(live);
            }
        }
        let library = is_library(rel);
        for (&id, &(all, outside_tests)) in &own {
            let uses = if library { outside_tests } else { all };
            *named.entry(id.to_string()).or_default() += uses;
        }
        if let Some(package) = code_package(rel) {
            *code_lines.entry(package.to_string()).or_default() += code;
        }
        if library {
            for item in rules::pub_items(&blanked.text) {
                if !rules::is_test_line(&mask, item.line) {
                    let (_, outside_tests) =
                        own.get(item.name.as_str()).copied().unwrap_or_default();
                    items.push((rel, item, outside_tests));
                }
            }
        }
        let mut findings = Vec::new();
        if !rel.starts_with(SHIM_PREFIX) {
            findings = rules::scan_blanked(rel, &blanked, &mask);
            summaries.push((rel.to_string(), parse::parse_blanked(&blanked.text)));
        }
        arts.push(SourceArtifact {
            rel,
            findings,
            allows: blanked.allows,
        });
    }

    // Cross-file passes: the call graph analyses, then dead-pub. A
    // `pub` item is dead when no other source names it (another
    // library's unit tests do not count) and its own file names it
    // outside test code only at the definition.
    let mut cross: BTreeMap<String, Vec<Finding>> = BTreeMap::new();
    let dead = items.into_iter().filter(|(_, item, outside_tests)| {
        named.get(&item.name) == Some(outside_tests) && *outside_tests <= 1
    });
    let dead_findings = dead.map(|(rel, item, ..)| {
        Finding::new(
            rel,
            item.line,
            "dead-pub",
            format!(
                "`pub` item `{}` is named nowhere but its definition and its own tests",
                item.name
            ),
        )
    });
    for f in graph::analyze(&summaries).into_iter().chain(dead_findings) {
        cross.entry(f.path.clone()).or_default().push(f);
    }

    let mut findings = Vec::new();
    let mut allows = BTreeMap::new();
    for art in arts {
        for site in &art.allows {
            *allows.entry(site.rule.clone()).or_insert(0) += 1;
        }
        let mut raw = art.findings;
        raw.extend(cross.remove(art.rel).unwrap_or_default());
        findings.extend(rules::apply_allows(art.rel, &art.allows, raw));
    }
    // Cross-file findings only name scanned paths; should one not, it
    // is kept unsuppressed rather than dropped.
    findings.extend(cross.into_values().flatten());
    for (rel, text) in manifests {
        findings.extend(rules::check_manifest(rel.as_ref(), text.as_ref()));
    }
    findings.sort();
    Audit {
        findings,
        allows,
        code_lines,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walking_a_regular_file_is_an_error() {
        let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml");
        let (mut rs, mut tomls) = (Vec::new(), Vec::new());
        let walked = walk_files(&manifest, &mut rs, &mut tomls);
        assert!(walked.is_err(), "{walked:?}");
        assert!(crate::tidy(&manifest).is_err());
    }
}
