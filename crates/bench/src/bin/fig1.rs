//! Figure 1: the frozen-garbage ratios.
//!
//! For every Table-1 function, run the §3.1 protocol (100 iterations in
//! the same instance(s), vanilla behaviour) and report `avg_ratio` and
//! `max_ratio` — real memory over ideal memory at each freeze point.
//!
//! Flags: `--list` prints Table 1 instead; `--quick` uses 30
//! iterations; `--jobs N` fans the studies over N worker threads
//! (output is identical at any job count); `--check` asserts the
//! paper-shape invariants:
//! every function has ratio > 1, `hotel-searching` peaks above 4×, and
//! the per-language means land near the paper's 2.72 (Java) / 2.15
//! (JavaScript).

#![forbid(unsafe_code)]

use bench::cli::{check, Flags};
use bench::report;
use bench::{run_studies_parallel, Mode, StudyConfig};
use faas_runtime::Language;

fn main() {
    let flags = Flags::parse(&["--list"], &[]);
    if flags.has("--list") {
        report::caption("Table 1: evaluated FaaS functions", &["language", "function", "chain_len", "kernel"]);
        for f in workloads::catalog() {
            report::row(&[
                f.language.name().into(),
                f.name.into(),
                f.chain_len.to_string(),
                format!("{:?}", f.kernel),
            ]);
        }
        return;
    }
    let cfg = StudyConfig {
        iterations: if flags.quick { 30 } else { 100 },
        ..StudyConfig::default()
    };
    report::caption(
        "Figure 1: ratios for frozen garbage (USS / ideal)",
        &["language", "function", "avg_ratio", "max_ratio"],
    );
    let mut means: Vec<(Language, f64, f64)> = Vec::new();
    let specs = workloads::catalog();
    let outcomes = run_studies_parallel(&specs, &[Mode::Vanilla], &cfg, flags.jobs());
    for (spec, mut row) in specs.into_iter().zip(outcomes) {
        let out = row.pop().expect("one mode per spec");
        report::row(&[
            spec.language.name().into(),
            spec.name.into(),
            report::ratio(out.avg_ratio()),
            report::ratio(out.max_ratio()),
        ]);
        means.push((spec.language, out.avg_ratio(), out.max_ratio()));
        if spec.name == "hotel-searching" {
            check(&flags, out.max_ratio() > 4.0, "hotel-searching peaks above 4x (paper: >5x)");
        }
        check(
            &flags,
            out.avg_ratio() >= 1.0 && out.max_ratio() >= out.avg_ratio(),
            &format!("{}: ratios are coherent", spec.name),
        );
    }
    for lang in [Language::Java, Language::JavaScript] {
        let maxes: Vec<f64> = means
            .iter()
            .filter(|(l, _, _)| *l == lang)
            .map(|(_, _, m)| *m)
            .collect();
        let mean = maxes.iter().sum::<f64>() / maxes.len() as f64;
        let target = if lang == Language::Java { 2.72 } else { 2.15 };
        println!("# mean max_ratio {}: {:.2} (paper {target})", lang.name(), mean);
        check(
            &flags,
            (mean - target).abs() < 1.0,
            &format!("{} mean max_ratio within 1.0 of the paper's {target}", lang.name()),
        );
    }
}
