//! Workspace traversal and the cross-file passes.
//!
//! Collects every `.rs` and `Cargo.toml` under the workspace root in a
//! deterministic (sorted) order, derives a [`SourceArtifact`] per
//! source, then runs the passes that need a global view: the call
//! graph analyses ([`crate::graph`]), `path-deps` over every manifest,
//! and `shim-surface` over the vendored shims against the whole
//! workspace's identifier usage. Per-file and cross-file findings are
//! merged *before* allow markers are applied, so a single
//! `panic-reachability` allow marker suppresses a graph finding
//! exactly like a token finding — and goes stale exactly like one too.

use std::collections::{BTreeMap, BTreeSet};
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
/// wall clock), but their manifests are still checked and their export
/// surface is audited by `shim-surface`.
const SHIM_PREFIX: &str = "crates/shims/";

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
}

impl Audit {
    /// The line a clean audit prints: the rules enforced and the allow
    /// markers per rule, most first.
    pub fn summary(&self) -> String {
        // A stable sort keeps equal counts in rule-name order.
        let mut by_count: Vec<(&String, &usize)> = self.allows.iter().collect();
        by_count.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
        let per_rule: Vec<String> = by_count.iter().map(|(r, n)| format!("{r} {n}")).collect();
        let (rules, total) = (rules::RULES.len(), self.allows.values().sum::<usize>());
        format!("tidy: OK ({rules} rules enforced; {total} allow markers: {})", per_rule.join(", "))
    }
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
/// scans, the call-graph analyses, shim surface (for paths under
/// `crates/shims/`), and allow-marker application. The fixture
/// self-tests drive the rules through this; unlike [`run`], it treats
/// the sources as a partial world, so a hot-path root whose file is
/// absent is not reported.
pub fn check_files(files: &[(&str, &str)]) -> Audit {
    audit(files, &[])
}

/// Audits sources and manifests together.
fn audit<S: AsRef<str>>(sources: &[(S, S)], manifests: &[(S, S)]) -> Audit {
    let mut arts: Vec<SourceArtifact> = Vec::new();
    let mut summaries: Vec<(String, parse::FileSummary)> = Vec::new();
    // Shim surface inputs: identifiers the workspace names, how often
    // the shims name each one, and every shim export.
    let mut named_outside: BTreeSet<String> = BTreeSet::new();
    let mut shim_uses: BTreeMap<String, usize> = BTreeMap::new();
    let mut exports: Vec<(&str, rules::ShimItem)> = Vec::new();
    for (rel, text) in sources {
        let rel = rel.as_ref();
        let blanked = lexer::blank(text.as_ref());
        let mut findings = Vec::new();
        if rel.starts_with(SHIM_PREFIX) {
            for id in rules::ident_tokens(&blanked.text) {
                *shim_uses.entry(id.to_string()).or_insert(0) += 1;
            }
            exports.extend(
                rules::shim_items(&blanked.text)
                    .into_iter()
                    .map(|i| (rel, i)),
            );
        } else {
            named_outside.extend(rules::ident_tokens(&blanked.text).map(str::to_string));
            findings = rules::scan_blanked(rel, &blanked);
            summaries.push((rel.to_string(), parse::parse_blanked(&blanked.text)));
        }
        arts.push(SourceArtifact {
            rel,
            findings,
            allows: blanked.allows,
        });
    }

    // Cross-file passes: the call graph analyses, then shim surface. A
    // shim export is dead when the workspace never names it and the
    // shims themselves name it at most once (the definition).
    let mut cross: BTreeMap<String, Vec<Finding>> = BTreeMap::new();
    let dead_exports = exports.into_iter().filter(|(_, item)| {
        !named_outside.contains(&item.name) && shim_uses.get(&item.name).copied().unwrap_or(0) <= 1
    });
    let shim_findings = dead_exports.map(|(rel, item)| {
        Finding::new(
            rel,
            item.line,
            "shim-surface",
            format!(
                "shim export `{}` is referenced nowhere in the workspace",
                item.name
            ),
        )
    });
    for f in graph::analyze(&summaries).into_iter().chain(shim_findings) {
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
    Audit { findings, allows }
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
