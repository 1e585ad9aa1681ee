//! Figure 4: frozen-garbage ratios under different memory settings
//! (256 MiB / 512 MiB / 1 GiB instance budgets).
//!
//! The paper's observation: Java's ratios stay roughly flat (HotSpot
//! controls its heap regardless of budget), while JavaScript's grow
//! with the budget (V8's young-generation cap scales with the heap, so
//! `fft`'s average ratio climbs from 3.27× to 7.11×).
//!
//! Flags: `--quick`, `--check`, `--jobs N`.

#![forbid(unsafe_code)]

use bench::cli::{check, Flags};
use bench::report;
use bench::{run_study_jobs, Mode, StudyConfig};
use faas_runtime::Language;

fn main() {
    let flags = Flags::parse(&[], &[]);
    let budgets: &[(u64, &str)] = &[(256 << 20, "256MiB"), (512 << 20, "512MiB"), (1 << 30, "1GiB")];
    report::caption(
        "Figure 4: average of ratios under different memory settings",
        &["budget", "language", "mean_avg_ratio", "mean_max_ratio", "fft_avg_ratio"],
    );
    // The whole budget × function sweep is one flat job list; each
    // budget gets its own config.
    let specs = workloads::catalog();
    let work: Vec<_> = budgets
        .iter()
        .flat_map(|&(budget, _)| {
            let cfg = StudyConfig {
                budget,
                iterations: if flags.quick { 30 } else { 100 },
                ..StudyConfig::default()
            };
            specs.iter().map(move |&spec| (spec, Mode::Vanilla, cfg))
        })
        .collect();
    let outcomes = run_study_jobs(flags.jobs(), &work);
    let mut js_fft_avg = Vec::new();
    let mut java_means = Vec::new();
    let mut js_means = Vec::new();
    for (b, &(_, label)) in budgets.iter().enumerate() {
        let by_budget = &outcomes[b * specs.len()..(b + 1) * specs.len()];
        for lang in [Language::Java, Language::JavaScript] {
            let mut avg = Vec::new();
            let mut max = Vec::new();
            let mut fft = 0.0;
            for (spec, out) in specs.iter().zip(by_budget).filter(|(f, _)| f.language == lang) {
                avg.push(out.avg_ratio());
                max.push(out.max_ratio());
                if spec.name == "fft" {
                    fft = out.avg_ratio();
                }
            }
            let mean_avg = avg.iter().sum::<f64>() / avg.len() as f64;
            let mean_max = max.iter().sum::<f64>() / max.len() as f64;
            report::row(&[
                label.into(),
                lang.name().into(),
                report::ratio(mean_avg),
                report::ratio(mean_max),
                if lang == Language::JavaScript {
                    report::ratio(fft)
                } else {
                    "-".into()
                },
            ]);
            if lang == Language::JavaScript {
                js_fft_avg.push(fft);
                js_means.push(mean_avg);
            } else {
                java_means.push(mean_avg);
            }
        }
    }
    // Paper shape: Java roughly flat, JS (and especially fft) growing.
    let java_growth = java_means.last().expect("rows") / java_means.first().expect("rows");
    let fft_growth = js_fft_avg.last().expect("rows") / js_fft_avg.first().expect("rows");
    println!("# java mean growth 256MiB -> 1GiB: {java_growth:.2}x (paper: slight)");
    println!(
        "# fft avg_ratio growth 256MiB -> 1GiB: {fft_growth:.2}x (paper: 3.27 -> 7.11 = 2.17x)"
    );
    check(&flags, java_growth < 1.5, "java ratios stay roughly flat across budgets");
    check(&flags, fft_growth > 1.5, "fft's ratio grows substantially with the budget");
    check(
        &flags,
        js_means.last().expect("rows") > js_means.first().expect("rows"),
        "javascript mean ratio grows with the budget",
    );
}
