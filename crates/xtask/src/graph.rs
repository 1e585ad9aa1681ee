//! The workspace call graph and its two syntax-aware analyses.
//!
//! Nodes are the non-test functions extracted by [`crate::parse`];
//! edges are resolved *by name* (method calls to every workspace
//! method of that name, `Qual::name` calls through the qualifier,
//! free calls to free functions). That is an over-approximation — a
//! `.push(…)` anywhere may resolve to `EventQueue::push` — which is
//! exactly the right polarity for a lint: reachability never misses a
//! real path, and a spurious edge can be silenced at the panic site
//! with a justified `tidy:allow`.
//!
//! Two analyses run on the graph:
//!
//! * **panic-reachability** — from the declared hot-path roots (the
//!   platform event drain, the shard round drain, the Desiccant sweep,
//!   event-queue push/pop, snapshot decode), every transitively
//!   reachable `panic!`-family macro, `.unwrap()`, `.expect()`, or
//!   bare slice index is a finding. This replaces the old per-file
//!   textual `no-panic` rule: the old rule saw six files; this one
//!   sees every function a hot path can actually reach.
//! * **determinism-dataflow** — functions that canonical byte
//!   producers (`state_bytes`, `digest`, `snap`, checkpoint encoders)
//!   transitively call must not accumulate `f64`s over unordered
//!   iteration or compare floats non-totally: their results flow into
//!   the bytes and can differ run-to-run.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::parse::{CallKind, DataflowKind, FileSummary};
use crate::rules::{in_sim_state_crate, Finding};

/// One declared hot-path root.
#[derive(Debug, Clone)]
pub struct Root {
    /// Workspace-relative path the root function lives in.
    pub path: &'static str,
    /// Owning type (`None` for free functions).
    pub owner: Option<&'static str>,
    /// Function name.
    pub name: &'static str,
}

/// The production root set: the hot paths whose panic-freedom the
/// platform's headline guarantees rest on.
pub const HOT_PATH_ROOTS: &[Root] = &[
    // The platform event drain (PR 2's typed-error discipline).
    Root { path: "crates/faas/src/platform.rs", owner: Some("Platform"), name: "try_run_until" },
    Root { path: "crates/faas/src/platform.rs", owner: Some("Platform"), name: "run_until" },
    // The cluster round drain: place → parallel shard drains → merge.
    Root { path: "crates/cluster/src/engine/round.rs", owner: Some("Cluster"), name: "run_round" },
    Root { path: "crates/cluster/src/shard.rs", owner: Some("Shard"), name: "run" },
    // The Desiccant sweep (reclaim selection runs once per sweep tick).
    Root {
        path: "crates/desiccant/src/manager.rs",
        owner: Some("Desiccant"),
        name: "select_reclaims",
    },
    // The event queue's per-event operations.
    Root { path: "crates/faas/src/queue.rs", owner: Some("EventQueue"), name: "push" },
    Root { path: "crates/faas/src/queue.rs", owner: Some("EventQueue"), name: "pop" },
    // Snapshot decode faces arbitrary bytes during recovery.
    Root { path: "crates/snapshot/src/lib.rs", owner: None, name: "decode" },
    Root { path: "crates/snapshot/src/frame.rs", owner: Some("Container"), name: "open" },
];

/// Function names whose bodies produce canonical bytes: checkpoint
/// codecs, state digests, and report serialization. Reverse
/// reachability from these defines the digest-feeding set.
pub const BYTE_SINKS: &[&str] = &[
    "state_bytes",
    "digest",
    "snap",
    "checkpoint_base",
    "checkpoint_delta",
    "canonical_bytes",
];

/// Paths never entered into the call graph: harness/auditor code that
/// *drives* the simulation rather than being reachable from it, and
/// test-only sources. (Per-file token rules still scan these.)
fn graph_exempt(path: &str) -> bool {
    path.starts_with("crates/bench/")
        || path.starts_with("crates/xtask/")
        || path.starts_with("examples/")
        || path.starts_with("tests/")
        || path.starts_with("src/")
        || path.contains("/tests/")
        || path.contains("/benches/")
}

/// Crates whose digest-feeding functions the determinism-dataflow
/// analysis governs: the sim-state crates plus the checkpoint codec
/// and the heap/workload state it serializes.
fn in_dataflow_scope(path: &str) -> bool {
    in_sim_state_crate(path)
        || path.starts_with("crates/snapshot/src/")
        || path.starts_with("crates/gc-core/src/")
        || path.starts_with("crates/workloads/src/")
}

struct Node<'a> {
    path: &'a str,
    info: &'a crate::parse::FnInfo,
}

/// The resolved call graph over a set of file summaries.
pub struct Graph<'a> {
    nodes: Vec<Node<'a>>,
    /// Forward adjacency (caller → callees), deduplicated.
    edges: Vec<Vec<usize>>,
    /// Every non-exempt file path that went into the graph (root
    /// declarations are only checked for drift against present files).
    paths: BTreeSet<&'a str>,
}

impl<'a> Graph<'a> {
    /// Builds the graph from `(path, summary)` pairs, skipping test
    /// functions and graph-exempt paths.
    pub fn build(files: &'a [(String, FileSummary)]) -> Graph<'a> {
        let mut nodes = Vec::new();
        let mut paths = BTreeSet::new();
        for (path, summary) in files {
            if graph_exempt(path) {
                continue;
            }
            paths.insert(path.as_str());
            for info in &summary.fns {
                if !info.is_test {
                    nodes.push(Node { path, info });
                }
            }
        }
        // Resolution indexes.
        let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut free: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut exact: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for (i, n) in nodes.iter().enumerate() {
            if n.info.owner.is_empty() {
                free.entry(&n.info.name).or_default().push(i);
            } else {
                methods.entry(&n.info.name).or_default().push(i);
                exact
                    .entry((&n.info.owner, &n.info.name))
                    .or_default()
                    .push(i);
            }
        }
        let mut edges: Vec<Vec<usize>> = Vec::with_capacity(nodes.len());
        for n in &nodes {
            let mut out: BTreeSet<usize> = BTreeSet::new();
            for call in &n.info.calls {
                let name = call.name.as_str();
                match &call.kind {
                    CallKind::Method => {
                        if let Some(v) = methods.get(name) {
                            out.extend(v.iter().copied());
                        }
                    }
                    CallKind::Free => {
                        if let Some(v) = free.get(name) {
                            out.extend(v.iter().copied());
                        }
                    }
                    CallKind::Qual(q) => {
                        let owner = if q == "Self" { n.info.owner.as_str() } else { q.as_str() };
                        if let Some(v) = exact.get(&(owner, name)) {
                            out.extend(v.iter().copied());
                        } else if let Some(v) = free.get(name) {
                            out.extend(v.iter().copied());
                        } else if let Some(v) = methods.get(name) {
                            // `Type::method(recv)` UFCS form.
                            out.extend(
                                v.iter().copied().filter(|&i| nodes[i].info.owner == *owner),
                            );
                        }
                    }
                }
            }
            edges.push(out.into_iter().collect());
        }
        Graph { nodes, edges, paths }
    }

    fn label(&self, i: usize) -> String {
        let n = &self.nodes[i];
        if n.info.owner.is_empty() {
            n.info.name.clone()
        } else {
            format!("{}::{}", n.info.owner, n.info.name)
        }
    }

    /// Node indices matching a root spec: path equality, name equality,
    /// owner equality when given.
    fn resolve_root(&self, root: &Root) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| {
                n.path == root.path
                    && n.info.name == root.name
                    && root.owner.is_none_or(|o| n.info.owner == o)
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// BFS from `starts` over `adj`; returns the parent array
    /// (`usize::MAX` = unvisited, self-parent = start node).
    fn bfs(&self, starts: &[usize], adj: &[Vec<usize>]) -> Vec<usize> {
        let mut parent = vec![usize::MAX; self.nodes.len()];
        let mut q = VecDeque::new();
        for &s in starts {
            if parent[s] == usize::MAX {
                parent[s] = s;
                q.push_back(s);
            }
        }
        while let Some(u) = q.pop_front() {
            for &v in &adj[u] {
                if parent[v] == usize::MAX {
                    parent[v] = u;
                    q.push_back(v);
                }
            }
        }
        parent
    }

    /// The call chain root → … → `i`, as `A::b → C::d` labels,
    /// truncated in the middle when long.
    fn chain(&self, parent: &[usize], mut i: usize) -> String {
        let mut labels = vec![self.label(i)];
        while parent[i] != i {
            i = parent[i];
            labels.push(self.label(i));
        }
        labels.reverse();
        if labels.len() > 5 {
            let skipped = labels.len() - 4;
            let head = labels[..2].join(" → ");
            let tail = labels[labels.len() - 2..].join(" → ");
            format!("{head} → …{skipped} more… → {tail}")
        } else {
            labels.join(" → ")
        }
    }
}

/// The finding for a declared root the code no longer has.
fn drift(root: &Root) -> Finding {
    Finding::new(
        root.path,
        1,
        "panic-reachability",
        format!(
            "declared hot-path root `{}{}` not found — the analyzer's root set \
             has drifted from the code",
            root.owner.map(|o| format!("{o}::")).unwrap_or_default(),
            root.name
        ),
    )
}

/// Full-tree drift: one finding per root whose file is not among the
/// `scanned` paths. [`panic_reachability`] cannot see these — it only
/// checks roots against files in the graph, because fixture runs
/// (`check_files`) hand it a partial world — so a renamed or moved
/// root file would otherwise drop its whole reachable set silently.
pub fn vanished_roots(scanned: &[&str], roots: &[Root]) -> Vec<Finding> {
    roots
        .iter()
        .filter(|root| !scanned.contains(&root.path))
        .map(drift)
        .collect()
}

/// Runs panic-reachability over the graph with the given root set.
/// Returns raw findings (allow markers are applied by the caller).
pub fn panic_reachability(graph: &Graph<'_>, roots: &[Root]) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut starts = Vec::new();
    for root in roots {
        let matched = graph.resolve_root(root);
        // Only a scanned file's roots count here; [`vanished_roots`]
        // covers files the full tree lacks.
        if matched.is_empty() && graph.paths.contains(root.path) {
            out.push(drift(root));
        }
        starts.extend(matched);
    }
    let parent = graph.bfs(&starts, &graph.edges);
    for (i, n) in graph.nodes.iter().enumerate() {
        if parent[i] == usize::MAX {
            continue;
        }
        for site in &n.info.panics {
            out.push(Finding::new(
                n.path,
                site.line,
                "panic-reachability",
                format!(
                    "`{}` is reachable from a hot-path root: {}",
                    site.what,
                    graph.chain(&parent, i)
                ),
            ));
        }
    }
    out
}

/// Runs determinism-dataflow: flags unordered float accumulation and
/// non-total float comparison in functions from which a canonical-byte
/// sink is reachable.
pub fn determinism_dataflow(graph: &Graph<'_>, sinks: &[&str]) -> Vec<Finding> {
    // Forward BFS *from* the sink nodes: data flows into canonical
    // bytes through the sink's callees (their return values and the
    // state they compute), so the digest-feeding set is everything a
    // sink transitively calls — the sinks themselves included.
    let sink_nodes: Vec<usize> = graph
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| sinks.contains(&n.info.name.as_str()))
        .map(|(i, _)| i)
        .collect();
    let parent = graph.bfs(&sink_nodes, &graph.edges);
    let mut out = Vec::new();
    for (i, n) in graph.nodes.iter().enumerate() {
        if parent[i] == usize::MAX || !in_dataflow_scope(n.path) {
            continue;
        }
        // The nearest sink this function feeds, for the message.
        let mut j = i;
        while parent[j] != j {
            j = parent[j];
        }
        let sink = graph.label(j);
        for site in &n.info.dataflow {
            let msg = match site.kind {
                DataflowKind::UnorderedFloatAccum => format!(
                    "{} in `{}` feeds canonical bytes (`{sink}`): f64 addition is not \
                     associative, so a varying order changes the digest",
                    site.what,
                    graph.label(i)
                ),
                DataflowKind::PartialCmp => format!(
                    "{} in `{}` feeds canonical bytes (`{sink}`): use total_cmp",
                    site.what,
                    graph.label(i)
                ),
            };
            out.push(Finding::new(n.path, site.line, "determinism-dataflow", msg));
        }
    }
    out
}

/// Runs both graph analyses with the production configuration.
pub fn analyze(files: &[(String, FileSummary)]) -> Vec<Finding> {
    let graph = Graph::build(files);
    let mut out = panic_reachability(&graph, HOT_PATH_ROOTS);
    out.extend(determinism_dataflow(&graph, BYTE_SINKS));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file;

    fn files(srcs: &[(&str, &str)]) -> Vec<(String, FileSummary)> {
        srcs.iter()
            .map(|(p, s)| ((*p).to_string(), parse_file(s)))
            .collect()
    }

    #[test]
    fn panic_reaches_through_two_hops() {
        let fs = files(&[(
            "crates/faas/src/platform.rs",
            "impl Platform {\n\
             pub fn try_run_until(&mut self) { self.step(); }\n\
             fn step(&mut self) { helper(self); }\n\
             }\n\
             fn helper(p: &mut Platform) { p.slots.get(0).unwrap(); }\n",
        )]);
        let graph = Graph::build(&fs);
        let findings = panic_reachability(&graph, HOT_PATH_ROOTS);
        // The two declared Platform roots resolve (run_until is absent
        // here, so it reports drift) — filter to the reachable-panic
        // finding.
        let hits: Vec<_> = findings
            .iter()
            .filter(|f| f.message.contains(".unwrap()"))
            .collect();
        assert_eq!(hits.len(), 1, "{findings:?}");
        assert_eq!(hits[0].line, 5);
        assert!(hits[0].message.contains("try_run_until"), "{:?}", hits[0]);
    }

    #[test]
    fn unreached_panics_are_clean() {
        let fs = files(&[(
            "crates/faas/src/platform.rs",
            "impl Platform { pub fn try_run_until(&mut self) { fine(); } }\n\
             impl Platform { pub fn run_until(&mut self) { self.try_run_until(); } }\n\
             fn fine() {}\n\
             fn cold_path() { boom.unwrap(); }\n",
        )]);
        let graph = Graph::build(&fs);
        let findings = panic_reachability(
            &graph,
            &[
                Root {
                    path: "crates/faas/src/platform.rs",
                    owner: Some("Platform"),
                    name: "try_run_until",
                },
                Root {
                    path: "crates/faas/src/platform.rs",
                    owner: Some("Platform"),
                    name: "run_until",
                },
            ],
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn missing_root_reports_drift() {
        let fs = files(&[("crates/faas/src/platform.rs", "fn unrelated() {}\n")]);
        let graph = Graph::build(&fs);
        let findings = panic_reachability(
            &graph,
            &[Root {
                path: "crates/faas/src/platform.rs",
                owner: Some("Platform"),
                name: "try_run_until",
            }],
        );
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("drifted"), "{findings:?}");
    }

    #[test]
    fn vanished_root_file_reports_drift() {
        let roots = [
            Root { path: "crates/faas/src/queue.rs", owner: Some("EventQueue"), name: "push" },
            Root { path: "crates/faas/src/gone.rs", owner: Some("Platform"), name: "run_until" },
        ];
        let scanned = ["crates/faas/src/lib.rs", "crates/faas/src/queue.rs"];
        let findings = vanished_roots(&scanned, &roots);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].path, "crates/faas/src/gone.rs");
        assert!(findings[0].message.contains("drifted"), "{findings:?}");
    }

    #[test]
    fn test_fns_neither_root_nor_reach() {
        let fs = files(&[(
            "crates/faas/src/queue.rs",
            "impl EventQueue { pub fn push(&mut self) { ok(); } \
             pub fn pop(&mut self) { ok(); } }\n\
             fn ok() {}\n\
             #[cfg(test)]\nmod tests {\n#[test]\nfn t() { broken().unwrap(); }\n}\n",
        )]);
        let graph = Graph::build(&fs);
        let findings = panic_reachability(
            &graph,
            &[
                Root { path: "crates/faas/src/queue.rs", owner: Some("EventQueue"), name: "push" },
                Root { path: "crates/faas/src/queue.rs", owner: Some("EventQueue"), name: "pop" },
            ],
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn dataflow_flags_only_digest_feeding_fns() {
        let fs = files(&[(
            "crates/cluster/src/router.rs",
            "impl Router {\n\
             pub fn state_bytes(&self) -> Vec<u8> { encode_stuff(self.total) }\n\
             fn refresh(&mut self, m: &Map) {\n\
                 let mut t = 0.0f64;\n\
                 for v in m.values() { t += v; }\n\
                 self.total = t;\n\
             }\n\
             fn unrelated(&self, m: &Map) -> f64 {\n\
                 let mut t = 0.0f64;\n\
                 for v in m.values() { t += v; }\n\
                 t\n\
             }\n\
             }\n\
             fn encode_stuff(total: f64) -> Vec<u8> { Vec::new() }\n",
        )]);
        // `refresh` is neither a sink nor called by one, so the
        // digest-feeding set must not include it; `helper` below IS
        // called by the sink and must be flagged.
        let fs2 = files(&[(
            "crates/cluster/src/router.rs",
            "impl Router {\n\
             pub fn state_bytes(&self) -> Vec<u8> { self.helper() }\n\
             fn helper(&self) -> Vec<u8> {\n\
                 let mut t = 0.0f64;\n\
                 for v in self.map.values() { t += v; }\n\
                 encode_stuff(t)\n\
             }\n\
             }\n\
             fn encode_stuff(total: f64) -> Vec<u8> { Vec::new() }\n",
        )]);
        let g2 = Graph::build(&fs2);
        let findings = determinism_dataflow(&g2, BYTE_SINKS);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("state_bytes"), "{findings:?}");

        // The original: refresh/unrelated never reach a sink → clean.
        let g1 = Graph::build(&fs);
        let findings = determinism_dataflow(&g1, BYTE_SINKS);
        assert!(findings.is_empty(), "{findings:?}");
    }
}
