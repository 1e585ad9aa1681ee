//! `cargo xtask tidy`: a workspace determinism-and-invariant auditor.
//!
//! Everything this repro produces — the figure harnesses, the chaos
//! runs, the golden-replay digest — rests on the simulation being
//! bit-deterministic and panic-free under injected faults. Nothing
//! *statically* prevented a PR from reintroducing nondeterminism
//! (HashMap iteration order leaking into selection, `Instant::now` in
//! a sim path) or panics in platform event handling; this crate is
//! that static gate. See `EXPERIMENTS.md` § "Static analysis gates"
//! for the rule catalogue and the exception workflow.
//!
//! The crate is std-only by necessity (no crates.io access), so it is
//! modelled on rustc's `tidy`: a small lexer blanks comments and
//! literals ([`lexer`]), token rule passes scan one file at a time
//! ([`rules`]), and — beyond what rustc's tidy does — an item parser
//! ([`parse`]) feeds a workspace call graph ([`graph`]) whose
//! analyses see *across* files: panic-reachability from hot-path
//! roots and determinism dataflow into canonical bytes. A full run
//! over the workspace takes well under a second, so tidy keeps no
//! cache. Each invariant has one enforcement point, and tidy keeps
//! only what no compiler check can state: where clippy (the thread
//! and hash-collection bans, the cast lints) or type privacy (the
//! shard boundary, the barrier round) already checks an invariant,
//! tidy does not. Run it with `cargo run -p xtask -- tidy` (tier1.sh
//! does, before the tests).

#![forbid(unsafe_code)]

pub mod graph;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod walk;

pub use rules::{check_manifest, check_source, Finding, Rule, RULES};
pub use walk::{check_files, Audit};

use std::path::Path;

/// Runs the full audit over `root`.
pub fn tidy(root: &Path) -> Result<Audit, String> {
    walk::run(root)
}
