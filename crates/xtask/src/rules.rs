//! The tidy rule passes.
//!
//! Every rule scans the blanked token text produced by
//! [`crate::lexer`]; rule applicability is decided from the
//! workspace-relative path (forward slashes). Three families:
//!
//! * **determinism** — `wall-clock`, `raw-threads`, plus the call-graph
//!   rules `determinism-dataflow` and `barrier-discipline` (see
//!   [`crate::graph`]): nothing order-sensitive or wall-clock-dependent
//!   may leak into simulation state, selection, or canonical byte
//!   production.
//! * **robustness** — `panic-reachability` (call-graph, see
//!   [`crate::graph`]), `lossy-casts`, `snapshot-coverage`: nothing a
//!   hot-path root can reach may panic; memory accounting must use
//!   checked conversions; checkpoint codecs must destructure every
//!   field they serialize.
//! * **hygiene** — `forbid-unsafe`, `path-deps`, `dead-pub`: every
//!   crate forbids `unsafe`, manifests carry only path dependencies,
//!   and no library (vendored shims included) keeps a `pub` item that
//!   nothing outside its own definition and tests names (another
//!   library's unit tests do not count as a caller).
//!
//! A violation is suppressed by an inline marker on the same or the
//! preceding line:
//!
//! ```text
//! // tidy:allow(<rule>) -- <justification>
//! ```
//!
//! The justification is mandatory, the rule name must exist, and a
//! marker that suppresses nothing is itself an error (`stale-allow`),
//! so the allowlist cannot rot.
//!
//! Invariants another mechanism already enforces have no rule here:
//! clippy's `disallowed-types` bans `HashMap`/`HashSet` workspace-wide,
//! the vendored `rand` shim has no `thread_rng`, `panic-reachability`
//! covers bare indexing in the snapshot decode paths, and field
//! privacy keeps the cluster engine out of a shard's platform.

use crate::lexer::{self, AllowSite};

/// One rule's name, summary, and fix hint.
pub struct Rule {
    pub name: &'static str,
    pub family: &'static str,
    pub summary: &'static str,
    pub hint: &'static str,
}

/// Every rule tidy knows about (marker names are validated against
/// this list).
pub const RULES: &[Rule] = &[
    Rule {
        name: "wall-clock",
        family: "determinism",
        summary: "Instant::now/SystemTime::now outside the parallel crate",
        hint: "use the simulated clock (simos::SimTime); wall time makes replays \
               non-reproducible",
    },
    Rule {
        name: "raw-threads",
        family: "determinism",
        summary: "std::thread::{spawn,scope} outside the parallel crate",
        hint: "use parallel::run_jobs, which preserves output ordering at any --jobs N",
    },
    Rule {
        name: "panic-reachability",
        family: "robustness",
        summary: "panic!/unwrap/expect/bare-index transitively reachable from a hot-path root",
        hint: "return a typed error (faas::PlatformError / simos::SimError / SnapError), \
               restructure with an iterator / let-else / match / .get(), or route the \
               index through its table's one checked accessor (`HeapGraph::get(id)`, \
               `V8Heap::chunk(id)`), whose single \
               `// tidy:allow(panic-reachability) -- why` states the invariant once",
    },
    Rule {
        name: "determinism-dataflow",
        family: "determinism",
        summary: "order-sensitive f64 accumulation or unordered iteration feeding canonical bytes",
        hint: "fix the reduction order (sorted keys, Vec in canonical order, total_cmp) or \
               prove the order invariant with `// tidy:allow(determinism-dataflow) -- why`",
    },
    Rule {
        name: "barrier-discipline",
        family: "determinism",
        summary: "shard-mutating call outside the barrier round's drain",
        hint: "route shard mutation through `Cluster::run_round` (or the sanctioned \
               forwarding method); mid-round mutation breaks the byte-identical \
               replay guarantee",
    },
    Rule {
        name: "lossy-casts",
        family: "robustness",
        summary: "bare `as` integer cast in memory-accounting code",
        hint: "use simos::cast::{to_u64, to_usize, to_u32, to_u16, from_f64} or \
               T::try_from — `as` silently truncates",
    },
    Rule {
        name: "snapshot-coverage",
        family: "robustness",
        summary: "Snapshot impl without exhaustive field destructuring",
        hint: "a plain field list belongs in `snapshot::record!(T { a: A, b: B })` and a \
               tagged enum in `snapshot::record!(enum E { 0 => V { a: A }, 1 => W })`; a \
               hand-written impl must destructure every field (`let Self { a, b } = self;` / \
               `match self`) so adding a field is a compile error at the codec instead of \
               silent state loss",
    },
    Rule {
        name: "forbid-unsafe",
        family: "hygiene",
        summary: "crate root missing #![forbid(unsafe_code)]",
        hint: "add `#![forbid(unsafe_code)]` at the top of the crate root",
    },
    Rule {
        name: "path-deps",
        family: "hygiene",
        summary: "non-path dependency in a Cargo.toml",
        hint: "the build environment is offline: vendor the code under crates/shims \
               and depend on it by path",
    },
    Rule {
        name: "dead-pub",
        family: "hygiene",
        summary: "library `pub` item named nowhere but its definition and unit tests",
        hint: "delete the item, or move it behind #[cfg(test)] if only unit tests need \
               it; bins, examples, tests, benches and the benchmark package count as \
               callers, library code only outside its #[cfg(test)] items",
    },
];

/// Looks a rule up by name.
pub fn rule(name: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.name == name)
}

/// One violation (or marker problem) the auditor found. Ordered by
/// (path, line, rule, message); the hint follows from the rule.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    pub path: String,
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
    pub hint: &'static str,
}

impl Finding {
    /// A finding of `rule`, carrying that rule's fix hint.
    pub fn new(path: &str, line: usize, rule: &'static str, message: String) -> Finding {
        let hint = crate::rules::rule(rule).map_or("", |r| r.hint);
        Finding {
            path: path.to_string(),
            line,
            rule,
            message,
            hint,
        }
    }
}

// ---------------------------------------------------------------------------
// Path scoping
// ---------------------------------------------------------------------------

/// Crates whose state feeds simulation outcomes: the digest-feeding
/// code `determinism-dataflow` governs.
const SIM_STATE_CRATES: &[&str] = &[
    "simos",
    "faas",
    "desiccant",
    "hotspot",
    "v8heap",
    "cpython",
    "goruntime",
    "runtime",
    "azure-trace",
    "cluster",
];

/// Files allowed to touch real threads and wall clocks: the scoped
/// worker pool whose output is byte-identical at any job count.
const THREAD_EXEMPT: &[&str] = &["crates/parallel/src/lib.rs"];

/// Memory-accounting modules where a silently-truncating `as` cast can
/// corrupt byte totals: simos::mem, the stats modules, and the four
/// managed-heap crates.
const CAST_FILES: &[&str] = &["crates/simos/src/mem.rs", "crates/faas/src/stats.rs"];
const CAST_DIRS: &[&str] = &[
    "crates/hotspot/src/",
    "crates/v8heap/src/",
    "crates/cpython/src/",
    "crates/goruntime/src/",
];

const INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// Is `path` inside a crate whose state feeds simulation outcomes?
/// (Public: the graph analyses share this scoping.)
pub fn in_sim_state_crate(path: &str) -> bool {
    SIM_STATE_CRATES
        .iter()
        .any(|c| path.starts_with(&format!("crates/{c}/src/")))
}

fn thread_exempt(path: &str) -> bool {
    THREAD_EXEMPT.contains(&path)
}

fn in_cast_scope(path: &str) -> bool {
    CAST_FILES.contains(&path) || CAST_DIRS.iter().any(|d| path.starts_with(d))
}

/// Crates whose `Snapshot` impls feed the platform checkpoint but sit
/// outside [`SIM_STATE_CRATES`]: the heap-graph and workload-model
/// crates.
const SNAPSHOT_EXTRA_DIRS: &[&str] = &["crates/gc-core/src/", "crates/workloads/src/"];

fn in_snapshot_scope(path: &str) -> bool {
    in_sim_state_crate(path) || SNAPSHOT_EXTRA_DIRS.iter().any(|d| path.starts_with(d))
}

/// Crate roots that must carry `#![forbid(unsafe_code)]`: lib roots,
/// bin roots, and `src/bin/*` targets (tests/examples/benches are dev
/// targets and cannot ship unsafe into the library).
fn is_crate_root(path: &str) -> bool {
    path.ends_with("src/lib.rs") || path.ends_with("src/main.rs") || path.contains("/src/bin/")
}

// ---------------------------------------------------------------------------
// Test-region masking
// ---------------------------------------------------------------------------

/// Marks the lines belonging to `#[cfg(test)]` / `#[test]` items, so
/// the robustness rules can exempt test code.
pub fn test_mask(blanked: &str) -> Vec<bool> {
    let starts = lexer::line_starts(blanked);
    // 1-based line indexing: slot 0 is unused padding.
    let mut mask = vec![false; starts.len() + 1];
    let bytes = blanked.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] != b'#' {
            i += 1;
            continue;
        }
        let attr_start = i;
        let mut j = i + 1;
        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        if bytes.get(j) != Some(&b'[') {
            i += 1;
            continue;
        }
        let mut depth = 0usize;
        let content_start = j + 1;
        let mut k = j;
        while k < bytes.len() {
            match bytes[k] {
                b'[' => depth += 1,
                b']' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        let content = &blanked[content_start..k.min(bytes.len())];
        if !is_test_attr(content) {
            i = k + 1;
            continue;
        }
        // Consume any further attributes, then the item itself: up to a
        // top-level `;`, or through a balanced `{…}` block.
        let mut m = k + 1;
        loop {
            while m < bytes.len() && bytes[m].is_ascii_whitespace() {
                m += 1;
            }
            if bytes.get(m) == Some(&b'#') {
                while m < bytes.len() && bytes[m] != b']' {
                    m += 1;
                }
                m += 1;
                continue;
            }
            break;
        }
        let mut brace = 0isize;
        while m < bytes.len() {
            match bytes[m] {
                b'{' => brace += 1,
                b'}' => {
                    brace -= 1;
                    if brace == 0 {
                        break;
                    }
                }
                b';' if brace == 0 => break,
                _ => {}
            }
            m += 1;
        }
        let end = m.min(bytes.len().saturating_sub(1));
        let first = lexer::line_of(&starts, attr_start);
        let last = lexer::line_of(&starts, end);
        for l in first..=last.min(mask.len() - 1) {
            mask[l] = true;
        }
        i = m + 1;
    }
    mask
}

fn is_test_attr(content: &str) -> bool {
    let c: String = content.split_whitespace().collect();
    if c == "test" {
        return true;
    }
    c.starts_with("cfg") && c.contains("test") && !c.contains("not(test")
}

/// Is 1-based `line` inside test code, per [`test_mask`]?
pub fn is_test_line(mask: &[bool], line: usize) -> bool {
    mask.get(line).copied().unwrap_or(false)
}

// ---------------------------------------------------------------------------
// Token scanning helpers
// ---------------------------------------------------------------------------

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Yields `(start, end)` ranges of identifier-ish tokens.
fn idents(text: &str) -> Vec<(usize, usize)> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if is_ident_byte(bytes[i]) && (i == 0 || !is_ident_byte(bytes[i - 1])) {
            let start = i;
            while i < bytes.len() && is_ident_byte(bytes[i]) {
                i += 1;
            }
            out.push((start, i));
        } else {
            i += 1;
        }
    }
    out
}

fn next_nonspace(bytes: &[u8], mut i: usize) -> Option<(usize, u8)> {
    while i < bytes.len() {
        if !bytes[i].is_ascii_whitespace() {
            return Some((i, bytes[i]));
        }
        i += 1;
    }
    None
}

/// After an ident ending at `end`, matches `:: segment` (with optional
/// whitespace) and returns the segment.
fn path_segment_after(text: &str, end: usize) -> Option<&str> {
    let bytes = text.as_bytes();
    let (p, b) = next_nonspace(bytes, end)?;
    if b != b':' || bytes.get(p + 1) != Some(&b':') {
        return None;
    }
    let (s, b2) = next_nonspace(bytes, p + 2)?;
    if !is_ident_byte(b2) {
        return None;
    }
    let mut e = s;
    while e < bytes.len() && is_ident_byte(bytes[e]) {
        e += 1;
    }
    Some(&text[s..e])
}

// ---------------------------------------------------------------------------
// Source checking
// ---------------------------------------------------------------------------

/// Runs every applicable per-file rule over one source file and
/// applies its allow markers. `path` is the workspace-relative path
/// with forward slashes. (The production pipeline in [`crate::walk`]
/// uses [`scan_blanked`] instead so that graph findings and per-file
/// findings share one allow-application pass.)
pub fn check_source(path: &str, source: &str) -> Vec<Finding> {
    let blanked = lexer::blank(source);
    let raw = scan_blanked(path, &blanked, &test_mask(&blanked.text));
    apply_allows(path, &blanked.allows, raw)
}

/// The per-file rule passes over already-blanked text and its
/// [`test_mask`], returning raw findings (no allow markers applied).
pub fn scan_blanked(path: &str, blanked: &lexer::Blanked, mask: &[bool]) -> Vec<Finding> {
    let starts = lexer::line_starts(&blanked.text);
    let mut raw = Vec::new();

    scan_tokens(path, &blanked.text, &starts, mask, &mut raw);

    if in_snapshot_scope(path) {
        check_snapshot_impls(path, &blanked.text, &starts, mask, &mut raw);
    }

    if is_crate_root(path) && !has_forbid_unsafe(&blanked.text) {
        raw.push(Finding::new(
            path,
            1,
            "forbid-unsafe",
            "crate root does not declare #![forbid(unsafe_code)]".to_string(),
        ));
    }

    raw
}

fn scan_tokens(
    path: &str,
    text: &str,
    starts: &[usize],
    mask: &[bool],
    out: &mut Vec<Finding>,
) {
    let casts = in_cast_scope(path);
    let threads_ok = thread_exempt(path);
    for (s, e) in idents(text) {
        let word = &text[s..e];
        let line = lexer::line_of(starts, s);
        match word {
            "Instant" | "SystemTime"
                if !threads_ok && path_segment_after(text, e) == Some("now") =>
            {
                out.push(Finding::new(
                    path,
                    line,
                    "wall-clock",
                    format!("`{word}::now` reads the wall clock in a simulation path"),
                ));
            }
            "thread" if !threads_ok => {
                if let Some(seg) = path_segment_after(text, e) {
                    if seg == "spawn" || seg == "scope" {
                        out.push(Finding::new(
                            path,
                            line,
                            "raw-threads",
                            format!("`thread::{seg}` outside the parallel crate"),
                        ));
                    }
                }
            }
            "as" if casts && !is_test_line(mask, line) => {
                if let Some(target) = path_or_ident_after(text, e) {
                    if INT_TYPES.contains(&target) {
                        out.push(Finding::new(
                            path,
                            line,
                            "lossy-casts",
                            format!("bare `as {target}` in memory accounting silently truncates"),
                        ));
                    }
                }
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshot-coverage checking
// ---------------------------------------------------------------------------

/// How an impl block binds the value it serializes.
enum DestructureStyle {
    /// At least one exhaustive `let Self {…}` / `let Self(…)` /
    /// `match self` binding, and no rest patterns.
    Exhaustive,
    /// A destructure exists but uses a `..` rest pattern.
    Rest,
    /// No destructuring at all — fields are read ad hoc.
    Missing,
}

/// Finds every `impl Snapshot for T` (or `impl snapshot::Snapshot for
/// T`) in a checkpointed crate and demands its body destructure the
/// value exhaustively: `let Self { every, field } = self;` (or a
/// `match self` for enums). Field access by name compiles fine when a
/// field is added, so a non-destructuring codec silently drops new
/// state; the exhaustive pattern turns that into a compile error.
fn check_snapshot_impls(
    path: &str,
    text: &str,
    starts: &[usize],
    mask: &[bool],
    out: &mut Vec<Finding>,
) {
    let toks = idents(text);
    let words: Vec<&str> = toks.iter().map(|&(s, e)| &text[s..e]).collect();
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < toks.len() {
        if words[i] != "impl" {
            i += 1;
            continue;
        }
        let mut k = i + 1;
        if words.get(k) == Some(&"snapshot") {
            k += 1;
        }
        if words.get(k) != Some(&"Snapshot") || words.get(k + 1) != Some(&"for") {
            i += 1;
            continue;
        }
        let ty = words.get(k + 2).copied().unwrap_or("?");
        let line = lexer::line_of(starts, toks[k].0);
        i = k + 2;
        if is_test_line(mask, line) {
            continue;
        }
        let mut p = toks.get(k + 2).map_or(toks[k].1, |&(_, e)| e);
        while p < bytes.len() && bytes[p] != b'{' {
            p += 1;
        }
        let Some(end) = matching_delim(bytes, p, b'{', b'}') else {
            continue;
        };
        match destructure_style(&text[p..=end], ty) {
            DestructureStyle::Exhaustive => {}
            DestructureStyle::Rest => out.push(Finding::new(
                path,
                line,
                "snapshot-coverage",
                format!(
                    "Snapshot impl for `{ty}` destructures with a `..` rest pattern: \
                     a new field would silently skip the codec"
                ),
            )),
            DestructureStyle::Missing => out.push(Finding::new(
                path,
                line,
                "snapshot-coverage",
                format!(
                    "Snapshot impl for `{ty}` never destructures its fields \
                     (want `let Self {{ … }} = self;` or `match self`)"
                ),
            )),
        }
    }
}

/// Index of the delimiter closing the one at `open`, if balanced.
fn matching_delim(bytes: &[u8], open: usize, lo: u8, hi: u8) -> Option<usize> {
    if bytes.get(open) != Some(&lo) {
        return None;
    }
    let mut depth = 0usize;
    let mut p = open;
    while p < bytes.len() {
        if bytes[p] == lo {
            depth += 1;
        } else if bytes[p] == hi {
            depth -= 1;
            if depth == 0 {
                return Some(p);
            }
        }
        p += 1;
    }
    None
}

/// Classifies the destructuring discipline of one impl body. `ty` is
/// the impl target's leading ident, accepted as an alias for `Self` in
/// `let` patterns.
fn destructure_style(block: &str, ty: &str) -> DestructureStyle {
    let toks = idents(block);
    let bytes = block.as_bytes();
    let mut found = false;
    for w in 0..toks.len() {
        let (s, e) = toks[w];
        match &block[s..e] {
            "match" => {
                let selfed = toks.get(w + 1).is_some_and(|&(s2, e2)| {
                    &block[s2..e2] == "self"
                        && matches!(next_nonspace(bytes, e2), Some((_, b'{')))
                });
                if selfed {
                    found = true;
                }
            }
            "let" => {
                let Some(&(s2, e2)) = toks.get(w + 1) else {
                    continue;
                };
                let name = &block[s2..e2];
                if name != "Self" && name != ty {
                    continue;
                }
                let pattern = match next_nonspace(bytes, e2) {
                    Some((p, b'{')) => matching_delim(bytes, p, b'{', b'}').map(|c| (p, c)),
                    Some((p, b'(')) => matching_delim(bytes, p, b'(', b')').map(|c| (p, c)),
                    _ => None,
                };
                let Some((p, c)) = pattern else {
                    continue;
                };
                if block[p..c].contains("..") {
                    return DestructureStyle::Rest;
                }
                found = true;
            }
            _ => {}
        }
    }
    if found {
        DestructureStyle::Exhaustive
    } else {
        DestructureStyle::Missing
    }
}

/// The ident directly after `end` (the cast target position).
fn path_or_ident_after(text: &str, end: usize) -> Option<&str> {
    let bytes = text.as_bytes();
    let (s, b) = next_nonspace(bytes, end)?;
    if !is_ident_byte(b) {
        return None;
    }
    let mut e = s;
    while e < bytes.len() && is_ident_byte(bytes[e]) {
        e += 1;
    }
    Some(&text[s..e])
}

fn has_forbid_unsafe(blanked: &str) -> bool {
    let squeezed: String = blanked.split_whitespace().collect();
    squeezed.contains("#![forbid(unsafe_code)]")
}

// ---------------------------------------------------------------------------
// Allow-marker application
// ---------------------------------------------------------------------------

/// Filters findings through the file's `tidy:allow` markers and emits
/// `stale-allow` errors for markers that are unknown, unjustified, or
/// suppress nothing.
pub fn apply_allows(path: &str, allows: &[AllowSite], raw: Vec<Finding>) -> Vec<Finding> {
    let mut consumed = vec![false; allows.len()];
    let mut out = Vec::new();
    for f in raw {
        // Prefer a same-line marker over one on the preceding line, so
        // two adjacent flagged lines with their own markers each
        // consume their own (neither goes stale).
        let site = allows
            .iter()
            .enumerate()
            .filter(|(_, a)| {
                a.rule == f.rule
                    && (f.rule == "forbid-unsafe" || a.line == f.line || a.line + 1 == f.line)
            })
            .min_by_key(|(idx, a)| (usize::from(a.line != f.line), *idx));
        match site {
            Some((idx, _)) => consumed[idx] = true,
            None => out.push(f),
        }
    }
    for (idx, a) in allows.iter().enumerate() {
        if rule(&a.rule).is_none() {
            out.push(Finding::new(
                path,
                a.line,
                "stale-allow",
                format!("tidy:allow names unknown rule `{}`", a.rule),
            ));
        } else if !a.justified {
            out.push(Finding::new(
                path,
                a.line,
                "stale-allow",
                format!(
                    "tidy:allow({}) lacks a `-- justification` explaining the exception",
                    a.rule
                ),
            ));
        } else if !consumed[idx] {
            out.push(Finding::new(
                path,
                a.line,
                "stale-allow",
                format!("stale tidy:allow({}): it suppresses nothing", a.rule),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Manifest checking
// ---------------------------------------------------------------------------

/// Checks one Cargo.toml: every dependency in every dependency section
/// must be a path (or workspace-inherited) dependency. The build
/// environment has no crates.io access, so a `version`, `git`, or
/// registry dependency can never resolve.
pub fn check_manifest(path: &str, text: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut section = String::new();
    let mut prev_allow = false;
    for (idx, raw_line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let (content, comment) = match raw_line.find('#') {
            Some(p) => (&raw_line[..p], &raw_line[p..]),
            None => (raw_line, ""),
        };
        let allow_here = comment.contains("tidy:allow(path-deps)") && comment.contains("--");
        let allowed = allow_here || prev_allow;
        prev_allow = allow_here;
        let line = content.trim();
        if line.starts_with('[') && line.ends_with(']') {
            section = line[1..line.len() - 1].trim().to_string();
            continue;
        }
        if line.is_empty() || !is_dep_section(&section) {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim();
        let value = value.trim();
        if section_is_single_dep(&section) {
            // `[dependencies.foo]` form: flag the offending keys.
            if (key == "version" || key == "git" || key == "registry") && !allowed {
                out.push(Finding::new(
                    path,
                    lineno,
                    "path-deps",
                    format!("`{key}` dependency in [{section}] — only path deps can build offline"),
                ));
            }
            continue;
        }
        if key.ends_with(".workspace") || value.starts_with("true") {
            continue;
        }
        let ok = value.starts_with('{')
            && (value.contains("path") && value.contains('=') || value.contains("workspace"));
        if !ok && !allowed {
            out.push(Finding::new(
                path,
                lineno,
                "path-deps",
                format!("dependency `{key}` is not a path/workspace dependency"),
            ));
        }
    }
    out
}

fn is_dep_section(section: &str) -> bool {
    section_is_single_dep(section)
        || section == "dependencies"
        || section == "dev-dependencies"
        || section == "build-dependencies"
        || section == "workspace.dependencies"
        || section.ends_with(".dependencies")
        || section.ends_with(".dev-dependencies")
        || section.ends_with(".build-dependencies")
}

fn section_is_single_dep(section: &str) -> bool {
    section.starts_with("dependencies.")
        || section.starts_with("dev-dependencies.")
        || section.starts_with("build-dependencies.")
        || section.starts_with("workspace.dependencies.")
}

// ---------------------------------------------------------------------------
// Public surface (dead-pub)
// ---------------------------------------------------------------------------

/// One `pub` item a library source defines.
#[derive(Debug, Clone)]
pub struct PubItem {
    pub name: String,
    pub line: usize,
}

/// Extracts the public item names of a blanked source: `pub fn|
/// struct|enum|trait|type|const|static|mod` plus `#[macro_export]`
/// macros. `pub(..)` items are not public surface, and `pub use`
/// re-exports are skipped (their targets are counted at the
/// definition).
pub fn pub_items(text: &str) -> Vec<PubItem> {
    let starts = lexer::line_starts(text);
    let toks = idents(text);
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let (s, e) = toks[i];
        let word = &text[s..e];
        if word == "macro_rules" {
            // Exported iff preceded by #[macro_export]; cheap check:
            // look back a little in the raw text.
            let back = &text[s.saturating_sub(120)..s];
            if back.contains("macro_export") {
                if let Some(&(ns, ne)) = toks.get(i + 1) {
                    out.push(PubItem {
                        name: text[ns..ne].to_string(),
                        line: lexer::line_of(&starts, ns),
                    });
                }
            }
            i += 1;
            continue;
        }
        if word != "pub" {
            i += 1;
            continue;
        }
        // Skip `pub(crate)` etc. — not exported surface.
        if matches!(next_nonspace(text.as_bytes(), e), Some((_, b'('))) {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        // Item keywords that may precede the name.
        let mut name = None;
        while let Some(&(ks, ke)) = toks.get(j) {
            match &text[ks..ke] {
                "fn" | "struct" | "enum" | "trait" | "type" | "const" | "static" | "mod" => {
                    if let Some(&(ns, ne)) = toks.get(j + 1) {
                        name = Some((ns, ne));
                    }
                    break;
                }
                "unsafe" | "async" | "extern" | "dyn" => j += 1,
                "use" | "impl" | "crate" | "in" | "self" | "super" => break,
                _ => break,
            }
        }
        if let Some((ns, ne)) = name {
            out.push(PubItem {
                name: text[ns..ne].to_string(),
                line: lexer::line_of(&starts, ns),
            });
        }
        i += 1;
    }
    out
}

/// All identifier tokens of a blanked source (or one of its lines),
/// for usage counting.
pub fn ident_tokens(text: &str) -> impl Iterator<Item = &str> {
    idents(text).into_iter().map(move |(s, e)| &text[s..e])
}
