//! A lightweight, std-only Rust *item* parser on top of [`crate::lexer`].
//!
//! The token-level rule passes see one line at a time; the call-graph
//! analyses need to know **which function** a token belongs to and
//! **which functions that function calls**. This module extracts
//! exactly that — no types, no expressions, no macro expansion — by
//! walking the blanked token stream with a scope stack:
//!
//! * `impl` headers (including `impl Trait for Type`) establish an
//!   *owner* — the last path segment of the implemented type — so a
//!   method is identified as `Owner::name`. A `trait` definition owns
//!   its provided methods the same way (`Trait::name`), so a method
//!   call can reach a default body.
//! * `snapshot::record!(T { a: A, … })` invocations, and the enum form
//!   `record!(enum E { 0 => V { a: A }, … })`, define `T::snap` and
//!   `T::restore`, calling each listed field type's codec, so the
//!   macro-generated decode paths stay in the call graph.
//! * `fn` items open a function scope at their body brace; everything
//!   harvested until the matching close brace is attributed to the
//!   innermost open function (closures and nested blocks do not open
//!   scopes, which is the attribution the call graph wants).
//! * Inside a function, call expressions (`free(`, `Qual::assoc(`,
//!   `.method(`), panic sites (`panic!`-family macros, `.unwrap()`,
//!   `.expect(`, bare `expr[...]` indexing), and determinism-dataflow
//!   hints (`f64` accumulation, `.values()`/`.keys()` iteration,
//!   `partial_cmp`) are recorded with their line numbers.
//!
//! The output is a [`FileSummary`] per file: small, and sufficient
//! for [`crate::graph`] to build the workspace call graph.

use crate::lexer;
use crate::rules::test_mask;

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `.name(...)` — resolves to any workspace method of that name.
    Method,
    /// `name(...)` — resolves to free functions of that name.
    Free,
    /// `Qual::name(...)` — resolves through the qualifier (the string
    /// is the last path segment before the final `::`; `Self` is
    /// resolved against the caller's owner at graph-build time).
    Qual(String),
}

/// One call expression inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    pub kind: CallKind,
    pub name: String,
    pub line: usize,
}

/// One potential panic inside a function body.
#[derive(Debug, Clone)]
pub struct PanicSite {
    pub line: usize,
    /// Human-readable site kind: `panic!`, `.unwrap()`, `.expect()`,
    /// `unreachable!`, `todo!`, `unimplemented!`, or `bare index`.
    pub what: String,
}

/// A determinism-dataflow hint inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataflowKind {
    /// A `for … in ….values()/.keys()` loop in a function that also
    /// accumulates `f64`s (`+=` with `f64` in scope, or `.sum::<f64>()`).
    UnorderedFloatAccum,
    /// `.partial_cmp(` — a non-total float comparison.
    PartialCmp,
}

/// One dataflow hint with its location.
#[derive(Debug, Clone)]
pub struct DataflowSite {
    pub kind: DataflowKind,
    pub line: usize,
    pub what: String,
}

/// Everything the analyses need to know about one function.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// The function's name.
    pub name: String,
    /// Owning type's last path segment for methods/assoc fns, `""` for
    /// free functions.
    pub owner: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Declared under `#[test]`/`#[cfg(test)]` — excluded from the
    /// call graph.
    pub is_test: bool,
    pub calls: Vec<Call>,
    pub panics: Vec<PanicSite>,
    pub dataflow: Vec<DataflowSite>,
}

/// The parsed view of one source file.
#[derive(Debug, Clone, Default)]
pub struct FileSummary {
    pub fns: Vec<FnInfo>,
}

/// Keywords that look like call expressions when followed by `(`.
const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "else", "in", "as", "move", "ref", "mut",
    "let", "fn", "impl", "pub", "use", "where", "struct", "enum", "trait", "type", "const",
    "static", "crate", "super", "self", "Self", "unsafe", "async", "await", "dyn", "break",
    "continue", "yield",
];

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

#[derive(Debug)]
enum Scope {
    /// An `impl` block or a `trait` definition: the implemented type's
    /// (or the trait's) name.
    Impl(String),
    /// A function body: index into the output `fns` vec, plus the
    /// accumulation state the post-pass folds into dataflow sites.
    Fn(FnState),
    /// Any other brace pair.
    Block,
}

#[derive(Debug)]
struct FnState {
    idx: usize,
    has_f64: bool,
    plus_assigns: usize,
    /// `for … in ….values()/.keys()` loop lines, pending the f64 check.
    unordered_fors: Vec<usize>,
    /// `.sum::<f64>()` / `.product::<f64>()` lines.
    float_sums: Vec<usize>,
}

/// What the parser is waiting to attach to the next `{`.
enum Pending {
    None,
    Impl(String),
    Fn { name: String, line: usize, is_test: bool },
}

/// Parses one blanked-and-masked source file into its summary.
pub fn parse_file(source: &str) -> FileSummary {
    let blanked = lexer::blank(source);
    parse_blanked(&blanked.text)
}

/// Parses already-blanked text (the production pipeline blanks once and
/// shares the result between the rule passes and the parser).
pub fn parse_blanked(text: &str) -> FileSummary {
    let starts = lexer::line_starts(text);
    let mask = test_mask(text);
    let bytes = text.as_bytes();
    let toks = tokens(text);

    let mut fns: Vec<FnInfo> = Vec::new();
    let mut scopes: Vec<Scope> = Vec::new();
    let mut pending = Pending::None;

    let mut i = 0usize;
    while i < toks.len() {
        match &toks[i] {
            Tok::Punct(pos, b'{') => {
                let scope = match std::mem::replace(&mut pending, Pending::None) {
                    Pending::Impl(owner) => Scope::Impl(owner),
                    Pending::Fn { name, line, is_test } => {
                        let owner = scopes
                            .iter()
                            .rev()
                            .find_map(|s| match s {
                                Scope::Impl(o) => Some(o.clone()),
                                _ => None,
                            })
                            .unwrap_or_default();
                        fns.push(FnInfo {
                            name,
                            owner,
                            line,
                            is_test: is_test || line_masked(&mask, line),
                            calls: Vec::new(),
                            panics: Vec::new(),
                            dataflow: Vec::new(),
                        });
                        Scope::Fn(FnState {
                            idx: fns.len() - 1,
                            has_f64: false,
                            plus_assigns: 0,
                            unordered_fors: Vec::new(),
                            float_sums: Vec::new(),
                        })
                    }
                    Pending::None => Scope::Block,
                };
                let _ = pos;
                scopes.push(scope);
                i += 1;
            }
            Tok::Punct(_, b'}') => {
                if let Some(Scope::Fn(state)) = scopes.pop() {
                    finish_fn(&mut fns, state);
                }
                i += 1;
            }
            Tok::Punct(_, b';') => {
                // A `;` before the body brace cancels a pending header
                // (trait method declaration, `mod name;`).
                pending = Pending::None;
                i += 1;
            }
            Tok::Punct(pos, b'[') => {
                harvest_index(text, bytes, *pos, &starts, &mask, &scopes, &mut fns);
                i += 1;
            }
            Tok::Punct(pos, b'+') => {
                if bytes.get(pos + 1) == Some(&b'=') {
                    if let Some(state) = innermost_fn(&mut scopes) {
                        state.plus_assigns += 1;
                    }
                }
                i += 1;
            }
            Tok::Punct(..) => {
                i += 1;
            }
            Tok::Ident(s, e) => {
                let word = &text[*s..*e];
                match word {
                    "impl" => {
                        let (owner, next) = parse_impl_header(text, &toks, i + 1);
                        pending = Pending::Impl(owner);
                        i = next;
                    }
                    "trait" => {
                        if let Some(Tok::Ident(ns, ne)) = toks.get(i + 1) {
                            pending = Pending::Impl(text[*ns..*ne].to_string());
                            i += 2;
                        } else {
                            i += 1;
                        }
                    }
                    "record" if is_record_invocation(&toks, i) => {
                        let line = lexer::line_of(&starts, *s);
                        let (codec, next) = parse_record(text, &toks, i + 3, line);
                        let is_test = line_masked(&mask, line);
                        fns.extend(codec.into_iter().map(|f| FnInfo { is_test, ..f }));
                        i = next;
                    }
                    "fn" => {
                        if let Some(Tok::Ident(ns, ne)) = toks.get(i + 1) {
                            let line = lexer::line_of(&starts, *s);
                            pending = Pending::Fn {
                                name: text[*ns..*ne].to_string(),
                                line,
                                is_test: line_masked(&mask, line),
                            };
                            i += 2;
                        } else {
                            i += 1; // `fn(…)` pointer type
                        }
                    }
                    _ => {
                        harvest_ident(
                            text, bytes, *s, *e, &starts, &mask, &toks, i, &mut scopes, &mut fns,
                        );
                        i += 1;
                    }
                }
            }
        }
    }
    // Close any function scope left open by unbalanced input.
    while let Some(scope) = scopes.pop() {
        if let Scope::Fn(state) = scope {
            finish_fn(&mut fns, state);
        }
    }
    FileSummary { fns }
}

fn line_masked(mask: &[bool], line: usize) -> bool {
    mask.get(line).copied().unwrap_or(false)
}

fn innermost_fn(scopes: &mut [Scope]) -> Option<&mut FnState> {
    scopes.iter_mut().rev().find_map(|s| match s {
        Scope::Fn(state) => Some(state),
        _ => None,
    })
}

fn innermost_fn_idx(scopes: &[Scope]) -> Option<usize> {
    scopes.iter().rev().find_map(|s| match s {
        Scope::Fn(state) => Some(state.idx),
        _ => None,
    })
}

/// Folds a closing function scope's accumulation state into dataflow
/// sites: an unordered `for` only becomes a finding candidate when the
/// function demonstrably accumulates floats.
fn finish_fn(fns: &mut [FnInfo], state: FnState) {
    let accumulates = (state.has_f64 && state.plus_assigns > 0) || !state.float_sums.is_empty();
    let info = &mut fns[state.idx];
    if accumulates {
        for line in state.unordered_fors {
            if info
                .dataflow
                .iter()
                .any(|d| d.kind == DataflowKind::UnorderedFloatAccum && d.line == line)
            {
                continue;
            }
            info.dataflow.push(DataflowSite {
                kind: DataflowKind::UnorderedFloatAccum,
                line,
                what: "f64 accumulation over .values()/.keys() iteration".to_string(),
            });
        }
    }
}

/// One token: an identifier span or a single punctuation byte.
enum Tok {
    Ident(usize, usize),
    Punct(usize, u8),
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn tokens(text: &str) -> Vec<Tok> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        if is_ident_byte(b) {
            let start = i;
            while i < bytes.len() && is_ident_byte(bytes[i]) {
                i += 1;
            }
            out.push(Tok::Ident(start, i));
        } else {
            if !b.is_ascii_whitespace() {
                out.push(Tok::Punct(i, b));
            }
            i += 1;
        }
    }
    out
}

/// Parses an `impl` header starting at token `start` (just past the
/// `impl` keyword): skips generics, handles `impl Trait for Type`, and
/// returns `(owner, index of the token to resume at)`. The owner is the
/// last path segment of the implemented type at angle-depth 0.
fn parse_impl_header(text: &str, toks: &[Tok], start: usize) -> (String, usize) {
    let mut angle: i32 = 0;
    let mut owner = String::new();
    let mut after_for = false;
    let mut i = start;
    while i < toks.len() {
        match &toks[i] {
            Tok::Punct(_, b'{') | Tok::Punct(_, b';') => break,
            Tok::Punct(pos, b'<') => {
                angle += 1;
                let _ = pos;
            }
            // `->` in a where-clause `Fn(..) -> T` is not a closer.
            Tok::Punct(pos, b'>') if *pos == 0 || text.as_bytes()[pos - 1] != b'-' => {
                angle -= 1;
            }
            Tok::Ident(s, e) => {
                let w = &text[*s..*e];
                if angle == 0 {
                    if w == "for" {
                        after_for = true;
                        owner.clear();
                    } else if w == "where" {
                        break;
                    } else if !after_for || owner.is_empty() || !after_for_path_done(text, *s) {
                        owner = w.to_string();
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    (owner, i)
}

/// Is token `i` (the ident `record`) the head of a `record!(…)`
/// invocation? The `macro_rules! record {` definition is not.
fn is_record_invocation(toks: &[Tok], i: usize) -> bool {
    matches!(
        (toks.get(i + 1), toks.get(i + 2)),
        (Some(Tok::Punct(_, b'!')), Some(Tok::Punct(_, b'(')))
    )
}

/// Expands a `snapshot::record!` invocation into the two functions it
/// defines, `T::snap` and `T::restore`, each with one qualified call
/// per listed field to that field type's head ident (`Vec` in
/// `name: Vec<Slot>`, `u64` in the newtype `Id(u64)`, `FailReason` in
/// the enum variant `2 => Failed(why: FailReason)`). The field types
/// are written in the invocation, so this is a plain token scan, and
/// every decode path the macro generates stays visible to
/// panic-reachability. `start` is the token after `record!(`; returns
/// the index past the invocation's `)`.
fn parse_record(text: &str, toks: &[Tok], start: usize, line: usize) -> (Vec<FnInfo>, usize) {
    // The enum form lists its fields one bracket deeper, inside each
    // variant's `{ … }` or `( … )`.
    let is_enum = matches!(toks.get(start), Some(Tok::Ident(s, e)) if &text[*s..*e] == "enum");
    let fields_at = usize::from(is_enum);
    let start = start + fields_at;
    let owner = match toks.get(start) {
        Some(Tok::Ident(s, e)) => text[*s..*e].to_string(),
        _ => String::new(),
    };
    // In a field list, a field's type head is the last ident at the
    // list's own depth after its `name :` (or after a path's `::`).
    let mut heads = Vec::new();
    let mut head = None;
    let mut depth = 0usize;
    let mut i = start + 2;
    while let Some(t) = toks.get(i) {
        i += 1;
        match t {
            // The `=>` between an enum variant's tag and its name.
            Tok::Punct(pos, b'>') if text.as_bytes().get(pos.wrapping_sub(1)) == Some(&b'=') => {}
            Tok::Punct(_, b'(' | b'[' | b'{' | b'<') => depth += 1,
            Tok::Punct(_, b')' | b']' | b'}' | b'>') if depth == 0 => break,
            Tok::Punct(_, b')' | b']' | b'}' | b'>') => {
                if depth == fields_at {
                    heads.extend(head.take());
                }
                depth -= 1;
            }
            Tok::Punct(_, b':') if depth == fields_at => head = None,
            Tok::Punct(_, b',') if depth == fields_at => heads.extend(head.take()),
            Tok::Ident(s, e) if depth == fields_at => head = Some(text[*s..*e].to_string()),
            _ => {}
        }
    }
    heads.extend(head);
    // Step over an optional `skip { … }` and the invocation's `)`.
    while let Some(t) = toks.get(i) {
        i += 1;
        if matches!(t, Tok::Punct(_, b')')) {
            break;
        }
    }
    let codec = ["snap", "restore"]
        .into_iter()
        .map(|name| FnInfo {
            name: name.to_string(),
            owner: owner.clone(),
            line,
            is_test: false,
            calls: heads
                .iter()
                .map(|h| Call { kind: CallKind::Qual(h.clone()), name: name.to_string(), line })
                .collect(),
            panics: Vec::new(),
            dataflow: Vec::new(),
        })
        .collect();
    (codec, i)
}

/// After `for`, the implemented type is the first *path*; once a
/// non-`::` gap follows it (a `where` clause ident, a generic bound),
/// later idents must not overwrite the owner. Heuristic: an ident
/// continues the path iff it is immediately preceded by `::`.
fn after_for_path_done(text: &str, start: usize) -> bool {
    let bytes = text.as_bytes();
    let mut j = start;
    while j > 0 && bytes[j - 1].is_ascii_whitespace() {
        j -= 1;
    }
    !(j >= 2 && bytes[j - 1] == b':' && bytes[j - 2] == b':')
}

/// Records a bare-index panic site: a `[` whose immediately preceding
/// byte is an identifier character, `)`, or `]` — slice types
/// (`&[u8]`), array literals, attributes, and `vec![…]` all have a
/// different predecessor, and not skipping whitespace keeps `&'a [u8]`
/// out.
fn harvest_index(
    text: &str,
    bytes: &[u8],
    pos: usize,
    starts: &[usize],
    mask: &[bool],
    scopes: &[Scope],
    fns: &mut [FnInfo],
) {
    if pos == 0 {
        return;
    }
    let prev = bytes[pos - 1];
    if !is_ident_byte(prev) && prev != b')' && prev != b']' {
        return;
    }
    let Some(idx) = innermost_fn_idx(scopes) else {
        return;
    };
    let line = lexer::line_of(starts, pos);
    if line_masked(mask, line) {
        return;
    }
    let _ = text;
    fns[idx].panics.push(PanicSite {
        line,
        what: "bare index".to_string(),
    });
}

/// Harvests calls, panic sites, and dataflow hints at one identifier.
#[allow(clippy::too_many_arguments)]
fn harvest_ident(
    text: &str,
    bytes: &[u8],
    s: usize,
    e: usize,
    starts: &[usize],
    mask: &[bool],
    toks: &[Tok],
    ti: usize,
    scopes: &mut [Scope],
    fns: &mut [FnInfo],
) {
    let Some(fn_idx) = innermost_fn_idx(scopes) else {
        // `f64` outside a fn body (struct fields) is irrelevant.
        return;
    };
    let word = &text[s..e];
    let line = lexer::line_of(starts, s);
    let masked = line_masked(mask, line);

    // `f64` as a type/turbofish ident, or a suffixed literal (`0.0f64`
    // tokenizes as the ident `0f64` after the lexer's digit run).
    if word == "f64"
        || (word.ends_with("f64") && word.as_bytes()[0].is_ascii_digit())
    {
        if let Some(state) = innermost_fn(scopes) {
            state.has_f64 = true;
        }
        return;
    }
    if word == "for" {
        if let Some(l) = unordered_for(text, toks, ti) {
            let _ = l;
            if !masked {
                if let Some(state) = innermost_fn(scopes) {
                    state.unordered_fors.push(line);
                }
            }
        }
        return;
    }

    let next = next_nonspace(bytes, e);
    let is_macro = next == Some(b'!');
    if is_macro {
        if PANIC_MACROS.contains(&word) && !masked {
            fns[fn_idx].panics.push(PanicSite {
                line,
                what: format!("{word}!"),
            });
        }
        return;
    }
    if next != Some(b'(') && !(next == Some(b':') && turbofish_call(bytes, e)) {
        return;
    }

    let method = prev_nonspace(bytes, s) == Some(b'.');
    if method {
        match word {
            "unwrap" | "expect" => {
                if !masked {
                    fns[fn_idx].panics.push(PanicSite {
                        line,
                        what: format!(".{word}()"),
                    });
                }
            }
            "partial_cmp" => {
                if !masked {
                    fns[fn_idx].dataflow.push(DataflowSite {
                        kind: DataflowKind::PartialCmp,
                        line,
                        what: "`.partial_cmp(` (non-total float comparison)".to_string(),
                    });
                }
            }
            "sum" | "product" => {
                if turbofish_is_f64(text, bytes, e) && !masked {
                    // `….values().sum::<f64>()` is itself an unordered
                    // float reduction — flag the line directly when the
                    // receiver chain iterates a map.
                    let back = &text[s.saturating_sub(96)..s];
                    if back.contains("values()") || back.contains("keys()") {
                        fns[fn_idx].dataflow.push(DataflowSite {
                            kind: DataflowKind::UnorderedFloatAccum,
                            line,
                            what: "f64 reduction over .values()/.keys()".to_string(),
                        });
                    }
                    if let Some(state) = innermost_fn(scopes) {
                        state.float_sums.push(line);
                        state.has_f64 = true;
                    }
                }
                fns[fn_idx].calls.push(Call {
                    kind: CallKind::Method,
                    name: word.to_string(),
                    line,
                });
            }
            _ => {
                fns[fn_idx].calls.push(Call {
                    kind: CallKind::Method,
                    name: word.to_string(),
                    line,
                });
            }
        }
        return;
    }

    if KEYWORDS.contains(&word) {
        return;
    }

    // Qualified (`Qual::name(`) vs free (`name(`) call.
    let qual = qualifier_before(text, bytes, s);
    let kind = match qual {
        Some(q) => CallKind::Qual(q),
        None => CallKind::Free,
    };
    fns[fn_idx].calls.push(Call {
        kind,
        name: word.to_string(),
        line,
    });
}

/// Does the `for` loop at token `ti` iterate `.values()` or `.keys()`?
/// Scans ahead to the body `{` (bounded) looking for either method.
fn unordered_for(text: &str, toks: &[Tok], ti: usize) -> Option<usize> {
    for t in toks.iter().skip(ti + 1).take(40) {
        match t {
            Tok::Punct(_, b'{') => return None,
            Tok::Ident(s, e) => {
                let w = &text[*s..*e];
                if w == "values" || w == "keys" || w == "values_mut" {
                    return Some(*s);
                }
            }
            _ => {}
        }
    }
    None
}

/// Is `::<…>(`, i.e. a turbofish call, next after the ident ending at `e`?
fn turbofish_call(bytes: &[u8], e: usize) -> bool {
    let Some((p, b)) = next_nonspace_at(bytes, e) else {
        return false;
    };
    b == b':' && bytes.get(p + 1) == Some(&b':') && {
        matches!(next_nonspace_at(bytes, p + 2), Some((_, b'<')))
    }
}

/// Does `.sum::<f64>` follow — i.e. is the turbofish argument `f64`?
fn turbofish_is_f64(text: &str, bytes: &[u8], e: usize) -> bool {
    let Some((p, b)) = next_nonspace_at(bytes, e) else {
        return false;
    };
    if b != b':' || bytes.get(p + 1) != Some(&b':') {
        return false;
    }
    let Some((q, b2)) = next_nonspace_at(bytes, p + 2) else {
        return false;
    };
    if b2 != b'<' {
        return false;
    }
    let Some((r, _)) = next_nonspace_at(bytes, q + 1) else {
        return false;
    };
    text[r..].starts_with("f64")
}

fn next_nonspace(bytes: &[u8], mut i: usize) -> Option<u8> {
    while i < bytes.len() {
        if !bytes[i].is_ascii_whitespace() {
            return Some(bytes[i]);
        }
        i += 1;
    }
    None
}

fn next_nonspace_at(bytes: &[u8], mut i: usize) -> Option<(usize, u8)> {
    while i < bytes.len() {
        if !bytes[i].is_ascii_whitespace() {
            return Some((i, bytes[i]));
        }
        i += 1;
    }
    None
}

fn prev_nonspace(bytes: &[u8], i: usize) -> Option<u8> {
    let mut j = i;
    while j > 0 {
        j -= 1;
        if !bytes[j].is_ascii_whitespace() {
            return Some(bytes[j]);
        }
    }
    None
}

/// If the ident starting at `s` is preceded by `::`, returns the path
/// segment before it (`Qual` in `Qual::name`).
fn qualifier_before(text: &str, bytes: &[u8], s: usize) -> Option<String> {
    let mut j = s;
    while j > 0 && bytes[j - 1].is_ascii_whitespace() {
        j -= 1;
    }
    if j < 2 || bytes[j - 1] != b':' || bytes[j - 2] != b':' {
        return None;
    }
    let mut k = j - 2;
    while k > 0 && bytes[k - 1].is_ascii_whitespace() {
        k -= 1;
    }
    // `>::name(` — a qualified trait call `<T as Trait>::name`; treat
    // the callee as method-like by returning no qualifier.
    if k == 0 || !is_ident_byte(bytes[k - 1]) {
        return None;
    }
    let end = k;
    while k > 0 && is_ident_byte(bytes[k - 1]) {
        k -= 1;
    }
    Some(text[k..end].to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(src: &str) -> FileSummary {
        parse_file(src)
    }

    #[test]
    fn extracts_free_and_method_fns() {
        let s = summary(
            "fn free_one() { helper(); }\n\
             struct S;\n\
             impl S { fn m(&self) { self.other(); } }\n\
             impl Tr for S { fn t(&self) {} }\n",
        );
        let names: Vec<(String, String)> =
            s.fns.iter().map(|f| (f.owner.clone(), f.name.clone())).collect();
        assert_eq!(
            names,
            vec![
                (String::new(), "free_one".to_string()),
                ("S".to_string(), "m".to_string()),
                ("S".to_string(), "t".to_string()),
            ]
        );
        assert_eq!(s.fns[0].calls.len(), 1);
        assert_eq!(s.fns[0].calls[0].kind, CallKind::Free);
        assert_eq!(s.fns[1].calls[0].kind, CallKind::Method);
    }

    #[test]
    fn impl_for_generic_type_owner_is_last_segment() {
        let s = summary(
            "impl<T: Clone> Snapshot for std::vec::Vec<T> where T: Default {\n\
             fn snap(&self) { body(); } }\n",
        );
        assert_eq!(s.fns[0].owner, "Vec");
        assert_eq!(s.fns[0].name, "snap");
    }

    #[test]
    fn record_invocations_define_snap_and_restore() {
        let s = summary(
            "snapshot::record!(Slot {\n\
                 id: InstanceId,\n\
                 rows: Vec<(u64, Pid)>,\n\
                 pair: (u64, u64),\n\
                 map: std::collections::BTreeMap<u64, Heap>,\n\
             } skip { cache });\n\
             record!(Pid(u32));\n\
             macro_rules! record { ($t:ident) => {} }\n\
             snapshot::record!(enum Event {\n\
                 0 => Arrival { req: usize },\n\
                 1 => Failed(why: FailReason),\n\
                 2 => Moved { id: InstanceId, rows: Vec<(u64, Pid)>, pair: (u64, u64) },\n\
                 3 => Sweep,\n\
             });\n",
        );
        let names: Vec<(&str, &str)> =
            s.fns.iter().map(|f| (f.owner.as_str(), f.name.as_str())).collect();
        assert_eq!(
            names,
            [
                ("Slot", "snap"),
                ("Slot", "restore"),
                ("Pid", "snap"),
                ("Pid", "restore"),
                ("Event", "snap"),
                ("Event", "restore"),
            ]
        );
        let qual = |q: &str| CallKind::Qual(q.to_string());
        let slot: Vec<&CallKind> = s.fns[1].calls.iter().map(|c| &c.kind).collect();
        assert_eq!(slot, [&qual("InstanceId"), &qual("Vec"), &qual("BTreeMap")]);
        assert!(s.fns[1].calls.iter().all(|c| c.name == "restore" && c.line == 1));
        assert!(s.fns[0].calls.iter().all(|c| c.name == "snap"));
        assert_eq!(s.fns[3].calls.len(), 1);
        assert_eq!(s.fns[3].calls[0].kind, qual("u32"));
        let event: Vec<&CallKind> = s.fns[5].calls.iter().map(|c| &c.kind).collect();
        assert_eq!(
            event,
            [&qual("usize"), &qual("FailReason"), &qual("InstanceId"), &qual("Vec")]
        );
        assert!(s.fns[5].calls.iter().all(|c| c.name == "restore" && c.line == 9));
        assert!(s.fns[4].calls.iter().all(|c| c.name == "snap"));
    }

    #[test]
    fn qualified_calls_capture_the_qualifier() {
        let s = summary("fn f() { Foo::bar(); baz::qux(); Self::me(); }\n");
        let kinds: Vec<&CallKind> = s.fns[0].calls.iter().map(|c| &c.kind).collect();
        assert_eq!(kinds.len(), 3);
        assert_eq!(*kinds[0], CallKind::Qual("Foo".to_string()));
        assert_eq!(*kinds[1], CallKind::Qual("baz".to_string()));
        assert_eq!(*kinds[2], CallKind::Qual("Self".to_string()));
    }

    #[test]
    fn panic_sites_are_harvested() {
        let s = summary(
            "fn f(v: &[u32]) -> u32 {\n\
             let x = v.first().unwrap();\n\
             let y: u32 = v.iter().sum();\n\
             if *x > 3 { panic!(\"boom\"); }\n\
             v[0] + y\n}\n",
        );
        let whats: Vec<&str> = s.fns[0].panics.iter().map(|p| p.what.as_str()).collect();
        assert_eq!(whats, vec![".unwrap()", "panic!", "bare index"]);
    }

    #[test]
    fn test_fns_are_marked() {
        let s = summary(
            "fn prod() {}\n\
             #[cfg(test)]\nmod tests {\n#[test]\nfn t() { x.unwrap(); }\n}\n",
        );
        assert!(!s.fns[0].is_test);
        assert!(s.fns[1].is_test);
    }

    #[test]
    fn unordered_float_accum_needs_both_halves() {
        // values() loop + f64 accumulation → flagged.
        let s = summary(
            "fn f(m: &Map) -> f64 { let mut t = 0.0f64;\n\
             for v in m.values() { t += v; }\nt }\n",
        );
        assert!(s.fns[0]
            .dataflow
            .iter()
            .any(|d| d.kind == DataflowKind::UnorderedFloatAccum));
        // values() loop without float accumulation → clean.
        let s2 = summary("fn g(m: &Map) { for v in m.values() { use_it(v); } }\n");
        assert!(s2.fns[0].dataflow.is_empty());
        // ordered iteration with f64 accumulation → clean.
        let s3 = summary(
            "fn h(v: &[f64]) -> f64 { let mut t = 0.0f64;\n\
             for x in v.iter() { t += x; }\nt }\n",
        );
        assert!(s3.fns[0].dataflow.is_empty());
    }

    #[test]
    fn sum_turbofish_f64_is_an_accumulation() {
        let s = summary("fn f(m: &Map) -> f64 { let mut t = 0.0; for v in m.values() { t = t.max(*v); } m.values().sum::<f64>() + t }\n");
        assert!(s.fns[0]
            .dataflow
            .iter()
            .any(|d| d.kind == DataflowKind::UnorderedFloatAccum));
    }

    #[test]
    fn partial_cmp_is_a_dataflow_site() {
        let s = summary("fn f(a: f64, b: f64) { let _ = a.partial_cmp(&b); }\n");
        let kinds: Vec<&DataflowKind> = s.fns[0].dataflow.iter().map(|d| &d.kind).collect();
        assert!(kinds.contains(&&DataflowKind::PartialCmp));
    }

    #[test]
    fn closures_attribute_to_the_enclosing_fn() {
        let s = summary("fn outer() { let c = |x: u32| helper(x); c(3); }\n");
        assert!(s.fns[0].calls.iter().any(|c| c.name == "helper"));
    }

    #[test]
    fn trait_decls_without_bodies_do_not_open_scopes() {
        let s = summary(
            "trait T { fn decl(&self) -> u32; }\n\
             fn after() { real(); }\n",
        );
        assert_eq!(s.fns.len(), 1);
        assert_eq!(s.fns[0].name, "after");
    }

    #[test]
    fn trait_provided_methods_are_owned_by_the_trait() {
        let s = summary(
            "pub trait Heap: Sized {\n\
                 fn release(&mut self) -> u64;\n\
                 fn reclaim(&mut self) -> u64 { self.release() }\n\
             }\n\
             fn after() {}\n",
        );
        let names: Vec<(&str, &str)> =
            s.fns.iter().map(|f| (f.owner.as_str(), f.name.as_str())).collect();
        assert_eq!(names, [("Heap", "reclaim"), ("", "after")]);
        assert_eq!(s.fns[0].calls[0].name, "release");
    }

    #[test]
    fn vec_macro_and_attributes_are_not_bare_indexes() {
        let s = summary(
            "#[derive(Debug)]\nfn f() { let v = vec![1, 2]; let a = [0u8; 4]; g(&a); }\n",
        );
        assert!(s.fns[0].panics.is_empty());
    }
}
