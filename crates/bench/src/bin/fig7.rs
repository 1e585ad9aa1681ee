//! Figure 7: single instance's memory consumption after repetitive
//! executions — vanilla vs. eager vs. Desiccant (with the ideal
//! baseline), per function.
//!
//! Paper magnitudes: Desiccant reduces memory vs. vanilla by
//! 1.21–4.57× for Java (2.78× mean) and 1.51–3.04× for JavaScript
//! (1.93× mean); it beats eager everywhere (1.36× / 1.55× mean); and it
//! lands within 0.1 % (Java) / 6.4 % (JavaScript) of the ideal.
//!
//! Flags: `--quick`, `--check`, `--jobs N` (output is identical at any
//! job count).

#![forbid(unsafe_code)]

use bench::cli::{check, Flags};
use bench::report;
use bench::{run_studies_parallel, Mode, StudyConfig};
use faas_runtime::Language;

fn main() {
    let flags = Flags::parse(&[], &[]);
    let cfg = StudyConfig {
        iterations: if flags.quick { 30 } else { 100 },
        ..StudyConfig::default()
    };
    report::caption(
        "Figure 7: memory after repetitive executions (MiB)",
        &["language", "function", "vanilla", "eager", "desiccant", "ideal", "vanilla/desiccant", "eager/desiccant"],
    );
    let mut by_lang: Vec<(Language, f64, f64, f64)> = Vec::new();
    let specs = workloads::catalog();
    let outcomes = run_studies_parallel(
        &specs,
        &[Mode::Vanilla, Mode::Eager, Mode::Desiccant],
        &cfg,
        flags.jobs(),
    );
    for (spec, row) in specs.into_iter().zip(outcomes) {
        let [vanilla, eager, desiccant]: [_; 3] = row.try_into().expect("three modes per spec");
        let vd = vanilla.final_uss as f64 / desiccant.final_uss.max(1) as f64;
        let ed = eager.final_uss as f64 / desiccant.final_uss.max(1) as f64;
        let gap = desiccant.final_uss as f64 / desiccant.final_ideal.max(1) as f64 - 1.0;
        report::row(&[
            spec.language.name().into(),
            spec.name.into(),
            report::mib(vanilla.final_uss),
            report::mib(eager.final_uss),
            report::mib(desiccant.final_uss),
            report::mib(desiccant.final_ideal),
            report::ratio(vd),
            report::ratio(ed),
        ]);
        by_lang.push((spec.language, vd, ed, gap));
        check(
            &flags,
            desiccant.final_uss <= eager.final_uss,
            &format!("{}: desiccant at or below eager", spec.name),
        );
        if spec.name != "mapreduce" {
            check(
                &flags,
                eager.final_uss <= vanilla.final_uss + (vanilla.final_uss / 10),
                &format!("{}: eager at or below vanilla", spec.name),
            );
        }
    }
    for lang in [Language::Java, Language::JavaScript] {
        let rows: Vec<_> = by_lang.iter().filter(|(l, ..)| *l == lang).collect();
        let mean = |f: fn(&(Language, f64, f64, f64)) -> f64| {
            rows.iter().map(|r| f(r)).sum::<f64>() / rows.len() as f64
        };
        let (vd, ed, gap) = (mean(|r| r.1), mean(|r| r.2), mean(|r| r.3));
        let target_vd = if lang == Language::Java { 2.78 } else { 1.93 };
        println!(
            "# {}: mean vanilla/desiccant {:.2} (paper {target_vd}), mean eager/desiccant {:.2}, mean gap to ideal {:.1}%",
            lang.name(),
            vd,
            ed,
            gap * 100.0
        );
        check(
            &flags,
            (vd - target_vd).abs() < 1.2,
            &format!("{} mean reduction near the paper's {target_vd}", lang.name()),
        );
        check(&flags, ed > 1.0, &format!("{}: desiccant beats eager on average", lang.name()));
        check(
            &flags,
            gap < 0.10,
            &format!("{}: desiccant lands within 10% of ideal", lang.name()),
        );
    }
}
