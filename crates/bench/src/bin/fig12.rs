//! Figure 12: memory consumption under different memory settings
//! (256 MiB / 512 MiB / 1 GiB budgets).
//!
//! Four panels: (a) Java mean, (b) JavaScript mean, (c) `clock` — flat
//! regardless of budget, (d) `fft` — vanilla/eager balloon with the
//! budget (young cap scales) while Desiccant stays put, reaching the
//! paper's headline 6.72× at 1 GiB.
//!
//! Flags: `--quick`, `--check`, `--jobs N`.

#![forbid(unsafe_code)]

use bench::cli::{check, Flags};
use bench::report;
use bench::{run_study_jobs, Mode, StudyConfig};
use faas_runtime::Language;

const BUDGETS: [(u64, &str); 3] = [(256 << 20, "256MiB"), (512 << 20, "512MiB"), (1 << 30, "1GiB")];
const MODES: [Mode; 3] = [Mode::Vanilla, Mode::Eager, Mode::Desiccant];

fn main() {
    let flags = Flags::parse(&[], &[]);
    let iterations = if flags.quick { 30 } else { 100 };
    let specs = workloads::catalog();
    // One flat job list: (budget × function × mode) for panels a/b,
    // then (budget × {clock, fft} × mode) for panels c/d.
    let cfg_for = |budget| StudyConfig {
        budget,
        iterations,
        ..StudyConfig::default()
    };
    let mut work = Vec::new();
    for (budget, _) in BUDGETS {
        for &spec in &specs {
            for mode in MODES {
                work.push((spec, mode, cfg_for(budget)));
            }
        }
    }
    let panel_cd_start = work.len();
    for (budget, _) in BUDGETS {
        for name in ["clock", "fft"] {
            let spec = workloads::by_name(name).expect("catalog function");
            for mode in MODES {
                work.push((spec, mode, cfg_for(budget)));
            }
        }
    }
    let outcomes = run_study_jobs(flags.jobs(), &work);
    // Panels (a) and (b): per-language means.
    report::caption(
        "Figure 12a/b: mean memory per language (MiB)",
        &["budget", "language", "vanilla", "eager", "desiccant", "vanilla/desiccant"],
    );
    let mut java_reduction = Vec::new();
    let mut js_reduction = Vec::new();
    for (b, (_, label)) in BUDGETS.into_iter().enumerate() {
        let by_budget = &outcomes[b * specs.len() * 3..(b + 1) * specs.len() * 3];
        for lang in [Language::Java, Language::JavaScript] {
            let mut v = 0u64;
            let mut e = 0u64;
            let mut d = 0u64;
            let mut n = 0u64;
            for (i, _) in specs.iter().enumerate().filter(|(_, f)| f.language == lang) {
                v += by_budget[3 * i].final_uss;
                e += by_budget[3 * i + 1].final_uss;
                d += by_budget[3 * i + 2].final_uss;
                n += 1;
            }
            let reduction = v as f64 / d.max(1) as f64;
            report::row(&[
                label.into(),
                lang.name().into(),
                report::mib(v / n),
                report::mib(e / n),
                report::mib(d / n),
                report::ratio(reduction),
            ]);
            if lang == Language::Java {
                java_reduction.push(reduction);
            } else {
                js_reduction.push(reduction);
            }
        }
    }
    println!(
        "# java reduction across budgets: {:?} (paper: 2.75x -> 2.94x, stable)",
        java_reduction.iter().map(|r| format!("{r:.2}")).collect::<Vec<_>>()
    );
    println!(
        "# js reduction across budgets: {:?} (paper: 1.69x -> 2.10x, growing)",
        js_reduction.iter().map(|r| format!("{r:.2}")).collect::<Vec<_>>()
    );
    check(
        &flags,
        js_reduction.last().expect("rows") > js_reduction.first().expect("rows"),
        "javascript reduction grows with the budget",
    );
    // Panels (c) and (d): clock and fft.
    report::caption(
        "Figure 12c/d: clock and fft across budgets (MiB)",
        &["budget", "function", "vanilla", "eager", "desiccant", "vanilla/desiccant"],
    );
    let mut fft_reduction = Vec::new();
    let mut clock_vanilla = Vec::new();
    let mut cd = outcomes[panel_cd_start..].chunks_exact(3);
    for (_, label) in BUDGETS {
        for name in ["clock", "fft"] {
            let [v, e, d] = cd.next().expect("a chunk per (budget, function)") else {
                unreachable!("chunks_exact(3) yields three-element chunks");
            };
            let (v, e, d) = (v.final_uss, e.final_uss, d.final_uss);
            let reduction = v as f64 / d.max(1) as f64;
            report::row(&[
                label.into(),
                name.into(),
                report::mib(v),
                report::mib(e),
                report::mib(d),
                report::ratio(reduction),
            ]);
            if name == "fft" {
                fft_reduction.push(reduction);
            } else {
                clock_vanilla.push(v);
            }
        }
    }
    println!(
        "# fft reduction at 1GiB: {:.2}x (paper headline: 6.72x)",
        fft_reduction.last().expect("rows")
    );
    check(
        &flags,
        fft_reduction.last().expect("rows") > fft_reduction.first().expect("rows"),
        "fft's reduction grows with the budget",
    );
    check(
        &flags,
        *fft_reduction.last().expect("rows") > 4.0,
        "fft reaches a large reduction at 1GiB (paper 6.72x)",
    );
    let clock_growth = *clock_vanilla.last().expect("rows") as f64
        / (*clock_vanilla.first().expect("rows")).max(1) as f64;
    check(
        &flags,
        clock_growth < 1.3,
        "clock's memory stays stable across budgets",
    );
}
