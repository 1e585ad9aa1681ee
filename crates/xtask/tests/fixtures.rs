//! The auditor's self-test: every rule must fire on its seeded
//! fixture (and only there), markers must suppress and go stale
//! correctly, the real workspace must audit clean, and the clippy
//! settings that replaced former tidy rules must still be in place.
//!
//! The fixtures live in `crates/xtask/fixtures/`, which the workspace
//! walker skips, so the seeded violations never pollute a real
//! `cargo run -p xtask -- tidy`.

use std::fs;
use std::path::Path;

use xtask::graph::{panic_reachability, Graph, Root};
use xtask::parse::parse_file;
use xtask::rules::{self, Finding};
use xtask::{check_files, check_manifest, check_source, RULES};

fn fixture(name: &str) -> String {
    let p = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
}

/// Asserts `findings` is exactly one violation of `rule`.
fn assert_single(findings: &[Finding], rule: &str) {
    let hits: Vec<&Finding> = findings.iter().filter(|f| f.rule == rule).collect();
    assert_eq!(
        hits.len(),
        1,
        "expected exactly one `{rule}` finding, got: {findings:?}"
    );
    assert_eq!(
        findings.len(),
        1,
        "expected no findings besides `{rule}`, got: {findings:?}"
    );
}

#[test]
fn every_source_rule_fires_on_its_seeded_fixture() {
    // (rule, fixture file, pretend in-scope path)
    let cases = [
        ("wall-clock", "wall_clock.rs", "crates/faas/src/fake.rs"),
        (
            "snapshot-coverage",
            "snapshot_coverage.rs",
            "crates/faas/src/fake.rs",
        ),
        ("forbid-unsafe", "forbid_unsafe.rs", "crates/fake/src/lib.rs"),
    ];
    for (rule, file, path) in cases {
        let findings = check_source(path, &fixture(file));
        assert_single(&findings, rule);
    }
}

#[test]
fn seeded_violations_vanish_outside_their_rule_scope() {
    // The same sources are clean where the rule does not apply: a
    // codec outside the checkpointed crates. (The forbid-unsafe
    // fixture is scanned as a non-root file.)
    let cases = [
        ("snapshot_coverage.rs", "crates/xtask/src/fake.rs"),
        ("forbid_unsafe.rs", "crates/fake/src/notroot.rs"),
    ];
    for (file, path) in cases {
        let findings = check_source(path, &fixture(file));
        assert!(
            findings.is_empty(),
            "{file} as {path} should be clean, got: {findings:?}"
        );
    }
}

#[test]
fn path_deps_fires_on_versioned_dependency() {
    let findings = check_manifest("crates/fake/Cargo.toml", &fixture("path_deps.toml"));
    assert_single(&findings, "path-deps");
    assert!(findings[0].message.contains("serde"), "{findings:?}");
}

/// A pretend workspace source that names `used_helper` only.
const CALLER: &str = "fn caller() -> u64 { used_helper() }";

#[test]
fn dead_pub_flags_an_item_only_its_own_tests_name() {
    let lib = fixture("dead_pub.rs");
    // A vendored shim export and a crate item alike.
    for path in ["crates/shims/fake/src/lib.rs", "crates/faas/src/fake.rs"] {
        let files = [("crates/cluster/src/caller.rs", CALLER), (path, lib.as_str())];
        let findings = check_files(&files).findings;
        assert_single(&findings, "dead-pub");
        assert_eq!(findings[0].path, path, "{findings:?}");
        assert!(findings[0].message.contains("dead_helper"), "{findings:?}");
    }
}

#[test]
fn dead_pub_counts_tests_and_the_benchmark_package_as_callers() {
    let lib = fixture("dead_pub.rs");
    let both = "fn caller() -> u64 { used_helper() + dead_helper() }";
    for user in ["crates/faas/tests/oracle.rs", "crates/bench/benchmark/src/run.rs"] {
        let files = [("crates/faas/src/fake.rs", lib.as_str()), (user, both)];
        let findings = check_files(&files).findings;
        assert!(findings.is_empty(), "{user} names both helpers: {findings:?}");
    }
    // The benchmark package's own definitions are not checked.
    let findings = check_files(&[("crates/bench/benchmark/src/fake.rs", lib.as_str())]).findings;
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn dead_pub_ignores_another_librarys_unit_tests() {
    let lib = fixture("dead_pub.rs");
    // Another library names `dead_helper` only in its test module.
    let tested = "fn caller() -> u64 { used_helper() }\n\n#[cfg(test)]\nmod tests {\n    \
                  #[test]\n    fn calls() {\n        assert_eq!(dead_helper(), 13);\n    }\n}\n";
    let files = [("crates/cluster/src/caller.rs", tested), ("crates/faas/src/fake.rs", lib.as_str())];
    let findings = check_files(&files).findings;
    assert_single(&findings, "dead-pub");
    assert!(findings[0].message.contains("dead_helper"), "{findings:?}");
    // The same test module in a test target still counts as a caller.
    let files = [("crates/cluster/tests/oracle.rs", tested), ("crates/faas/src/fake.rs", lib.as_str())];
    let findings = check_files(&files).findings;
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn justified_marker_suppresses_a_dead_pub_finding() {
    let lib = fixture("dead_pub.rs").replace(
        "pub fn dead_helper",
        "// tidy:allow(dead-pub) -- fixture: the oracle `dead_helper_is_thirteen` checks\npub fn dead_helper",
    );
    let files = [("crates/cluster/src/caller.rs", CALLER), ("crates/faas/src/fake.rs", lib.as_str())];
    let audit = check_files(&files);
    assert!(audit.findings.is_empty(), "{:?}", audit.findings);
    assert_eq!(audit.allows.get("dead-pub"), Some(&1));
}

#[test]
fn stale_allow_fires_for_unknown_unjustified_and_unconsumed_markers() {
    let findings = check_source("crates/simos/src/fake.rs", &fixture("stale_allow.rs"));
    assert_eq!(
        findings.len(),
        3,
        "expected three stale-allow findings, got: {findings:?}"
    );
    assert!(findings.iter().all(|f| f.rule == "stale-allow"));
    assert!(findings[0].message.contains("unknown rule"), "{findings:?}");
    assert!(findings[1].message.contains("lacks a"), "{findings:?}");
    assert!(findings[2].message.contains("suppresses nothing"), "{findings:?}");
}

#[test]
fn justified_marker_suppresses_the_violation() {
    let src = "\
// tidy:allow(wall-clock) -- host timing, never reaches simulation state
pub fn started() -> Instant { Instant::now() }
pub fn stopped() -> Instant { Instant::now() }
";
    // Marker covers its own line and the next; the second clock read
    // on line 3 is NOT covered.
    let findings = check_source("crates/faas/src/fake.rs", src);
    assert_single(&findings, "wall-clock");
    assert_eq!(findings[0].line, 3, "{findings:?}");
}

#[test]
fn every_rule_in_the_catalogue_has_family_and_hint() {
    assert_eq!(RULES.len(), 7);
    for r in RULES {
        assert!(
            ["determinism", "robustness", "hygiene"].contains(&r.family),
            "{} has odd family {}",
            r.name,
            r.family
        );
        assert!(!r.summary.is_empty() && !r.hint.is_empty(), "{}", r.name);
        assert!(rules::rule(r.name).is_some());
    }
}

#[test]
fn panic_reachability_fires_through_the_call_graph() {
    let src = fixture("panic_reachability.rs");
    let findings = check_files(&[("crates/faas/src/platform.rs", &src)]).findings;
    assert_single(&findings, "panic-reachability");
    assert!(findings[0].message.contains(".unwrap()"), "{findings:?}");
    assert!(
        findings[0].message.contains("try_run_until"),
        "finding should carry the call chain from the root: {findings:?}"
    );
}

#[test]
fn panic_reachability_flags_a_bare_index_below_container_open() {
    let src = fixture("panic_reachability_decode.rs");
    let findings = check_files(&[("crates/snapshot/src/frame.rs", &src)]).findings;
    assert_single(&findings, "panic-reachability");
    assert!(findings[0].message.contains("bare index"), "{findings:?}");
    assert!(
        findings[0].message.contains("Container::open"),
        "finding should carry the call chain from the root: {findings:?}"
    );
}

#[test]
fn panic_reachability_sees_through_record_codecs() {
    let src = fixture("panic_reachability_record.rs");
    let path = "crates/faas/src/platform.rs";
    let findings = check_files(&[(path, &src)]).findings;
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(
        findings
            .iter()
            .all(|f| f.rule == "panic-reachability" && f.message.contains("bare index")),
        "{findings:?}"
    );
    let struct_record = "snapshot::record!(Slot { id: u64, heap: Heap });";
    let enum_record = "snapshot::record!(enum Event { 0 => Sweep, 1 => Grow { id: u64, arena: Arena } });";
    let struct_chain = "Slot::restore → Heap::restore";
    let enum_chain = "Event::restore → Arena::restore";
    for chain in [struct_chain, enum_chain] {
        assert!(
            findings.iter().any(|f| f.message.contains(chain)),
            "a chain must run through {chain}: {findings:?}"
        );
    }
    // Without a record, nothing reaches the codec behind it.
    for (record, kept) in [(struct_record, enum_chain), (enum_record, struct_chain)] {
        let unreached = src.replace(record, "");
        let findings = check_files(&[(path, &unreached)]).findings;
        assert_single(&findings, "panic-reachability");
        assert!(findings[0].message.contains(kept), "{findings:?}");
    }
}

#[test]
fn panic_reachability_sees_through_provided_trait_methods() {
    let src = fixture("panic_reachability_trait.rs");
    let path = "crates/faas/src/platform.rs";
    let findings = check_files(&[(path, &src)]).findings;
    assert_single(&findings, "panic-reachability");
    assert!(findings[0].message.contains("bare index"), "{findings:?}");
    assert!(
        findings[0].message.contains("Platform::try_run_until")
            && findings[0].message.contains("ManagedHeap::reclaim → HotSpotHeap::release_free"),
        "the chain must run through the provided method: {findings:?}"
    );
    // The façade's macro delegation reaches the provided method too.
    let files = [(path.to_string(), parse_file(&src))];
    let from_facade = panic_reachability(
        &Graph::build(&files),
        &[Root { path, owner: Some("RuntimeHeap"), name: "reclaim" }],
    );
    assert_eq!(from_facade.len(), 1, "{from_facade:?}");
    assert!(
        from_facade[0]
            .message
            .contains("RuntimeHeap::reclaim → ManagedHeap::reclaim → HotSpotHeap::release_free"),
        "{from_facade:?}"
    );
    // Without the hook call in the default body, nothing reaches it.
    let unreached = src.replace("self.release_free(sys)?", "0");
    let findings = check_files(&[(path, &unreached)]).findings;
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn determinism_dataflow_fires_on_digest_feeding_float_accum() {
    let src = fixture("determinism_dataflow.rs");
    let findings = check_files(&[("crates/gc-core/src/fake.rs", &src)]).findings;
    assert_single(&findings, "determinism-dataflow");
    assert!(findings[0].message.contains("digest"), "{findings:?}");
}

#[test]
fn graph_rules_respect_their_scopes() {
    // The same seeded sources are clean where the analyses do not
    // apply: harness code is graph-exempt, and non-digest crates are
    // outside the dataflow scope.
    let cases = [
        ("panic_reachability.rs", "crates/bench/src/fake.rs"),
        ("panic_reachability_decode.rs", "crates/xtask/src/fake.rs"),
        ("determinism_dataflow.rs", "crates/parallel/src/fake.rs"),
    ];
    for (file, path) in cases {
        let src = fixture(file);
        let findings = check_files(&[(path, &src)]).findings;
        assert!(
            findings.is_empty(),
            "{file} as {path} should be clean, got: {findings:?}"
        );
    }
}

#[test]
fn justified_marker_suppresses_a_graph_finding() {
    let src = fixture("panic_reachability.rs").replace(
        "slots.first().unwrap().id",
        "// tidy:allow(panic-reachability) -- fixture invariant\n    slots.first().unwrap().id",
    );
    let findings = check_files(&[("crates/faas/src/platform.rs", &src)]).findings;
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn a_clean_audit_counts_its_allow_markers_per_rule() {
    let lib = fixture("dead_pub.rs");
    let audit = check_files(&[
        ("crates/faas/src/platform.rs", &fixture("allow_counts.rs")),
        // Unit-test modules and test targets add no code lines; the
        // benchmark package is counted apart.
        ("crates/bench/benchmark/src/fake.rs", &lib),
        ("crates/faas/tests/fake.rs", &lib),
    ]);
    assert!(audit.findings.is_empty(), "{:?}", audit.findings);
    assert_eq!(
        audit.summary(),
        "tidy: OK (7 rules enforced; 3 allow markers: panic-reachability 2, wall-clock 1; \
         18 non-test code lines: faas 18; benchmark package 6)"
    );
    // Every marker is load-bearing: without them the findings return.
    let bare: String = fixture("allow_counts.rs")
        .lines()
        .map(|l| l.split("// tidy:allow").next().unwrap_or(l))
        .collect::<Vec<_>>()
        .join("\n");
    let findings = check_files(&[("crates/faas/src/platform.rs", &bare)]).findings;
    let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
    assert_eq!(rules, ["panic-reachability", "panic-reachability", "wall-clock"], "{findings:?}");
}

#[test]
fn the_real_workspace_audits_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let findings = xtask::tidy(&root).expect("tidy runs").findings;
    assert!(
        findings.is_empty(),
        "workspace has tidy violations:\n{}",
        findings
            .iter()
            .map(|f| format!("{}:{}: [{}] {}", f.path, f.line, f.rule, f.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The modules whose `as` casts clippy's cast lints police: the four
/// managed-heap crates (at their roots) and two accounting modules.
const CAST_SCOPES: &[&str] = &[
    "crates/hotspot/src/lib.rs",
    "crates/v8heap/src/lib.rs",
    "crates/cpython/src/lib.rs",
    "crates/goruntime/src/lib.rs",
    "crates/simos/src/mem.rs",
    "crates/faas/src/stats.rs",
];

#[test]
fn clippy_holds_the_thread_ban_and_the_cast_lints() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let read = |rel: &str| {
        fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"))
    };
    let config = read("clippy.toml");
    let methods: String = config
        .lines()
        .skip_while(|l| !l.starts_with("disallowed-methods"))
        .take_while(|l| *l != "]")
        .collect();
    for path in ["std::thread::spawn", "std::thread::scope"] {
        assert!(
            methods.contains(&format!("path = \"{path}\"")),
            "clippy.toml's disallowed-methods must ban {path}: {methods:?}"
        );
    }
    let deny = "#![cfg_attr(not(test),deny(clippy::cast_possible_truncation,\
                clippy::cast_sign_loss,clippy::cast_possible_wrap))]";
    for rel in CAST_SCOPES {
        let code: String = xtask::lexer::blank(&read(rel)).text.split_whitespace().collect();
        assert!(code.contains(deny), "{rel} must carry `{deny}`");
    }
}
