//! Figure 13: the execution overhead after reclamation (§5.6).
//!
//! Protocol: 130 invocations, reclaim, 10 more; compare mean latency
//! after vs. before. Paper magnitudes: ≈8.3 % mean overhead for
//! Desiccant; swapping the same memory costs far more (2.37× for
//! `sort`); and the §4.7 weak-preserving mode saves `data-analysis`
//! (2.14×) and `unionfind` (1.74×) from deoptimization slowdowns.
//!
//! Flags: `--quick` (skips half the functions), `--check`,
//! `--ablate-weak` (adds the keep-weak vs. aggressive comparison),
//! `--jobs N`.

#![forbid(unsafe_code)]

use bench::cli::{check, Flags};
use bench::report;
use bench::{run_jobs, run_overhead_study, Mode, StudyConfig};
use workloads::FunctionSpec;

fn main() {
    let flags = Flags::parse(&["--ablate-weak"], &[]);
    let cfg = StudyConfig::default();
    let ablate = flags.has("--ablate-weak") || !flags.quick;
    let specs: Vec<_> = workloads::catalog()
        .into_iter()
        .enumerate()
        .filter(|&(i, _)| !(flags.quick && i % 2 == 1))
        .map(|(_, spec)| spec)
        .collect();
    // One flat job list: the per-function Desiccant studies, the sort
    // swap comparison, and (unless skipped) the weak-ref ablation.
    let sort = workloads::by_name("sort").expect("catalog function");
    let mut work: Vec<(FunctionSpec, Mode, StudyConfig)> =
        specs.iter().map(|&spec| (spec, Mode::Desiccant, cfg)).collect();
    work.push((sort, Mode::Desiccant, cfg));
    work.push((sort, Mode::Swap, cfg));
    if ablate {
        for name in ["data-analysis", "unionfind"] {
            let spec = workloads::by_name(name).expect("catalog function");
            work.push((spec, Mode::Desiccant, cfg));
            work.push((spec, Mode::Desiccant, StudyConfig { keep_weak: false, ..cfg }));
        }
    }
    let outcomes = run_jobs(flags.jobs(), &work, |(spec, mode, cfg)| {
        run_overhead_study(spec, *mode, cfg)
    });
    report::caption(
        "Figure 13: execution overhead after reclamation",
        &["language", "function", "overhead"],
    );
    let mut overheads = Vec::new();
    for (spec, out) in specs.iter().zip(&outcomes) {
        let overhead = out.overhead();
        report::row(&[
            spec.language.name().into(),
            spec.name.into(),
            format!("{:.3}", overhead),
        ]);
        overheads.push(overhead);
        check(
            &flags,
            overhead < 1.6,
            &format!("{}: post-reclaim overhead is modest", spec.name),
        );
    }
    let mean = overheads.iter().sum::<f64>() / overheads.len() as f64;
    println!(
        "# mean overhead {:.1}% (paper 8.3%)",
        (mean - 1.0) * 100.0
    );
    check(&flags, mean < 1.25, "mean overhead stays small (paper 8.3%)");

    // Swap comparison on sort (§5.6: 2.37x slower re-execution).
    let (d, s) = (&outcomes[specs.len()], &outcomes[specs.len() + 1]);
    println!(
        "# sort: desiccant overhead {:.2}, swap overhead {:.2} (paper: swap 2.37x slower)",
        d.overhead(),
        s.overhead()
    );
    check(
        &flags,
        s.overhead() > d.overhead() * 1.3,
        "swapping costs much more than reclamation on re-execution",
    );

    if ablate {
        report::caption(
            "Figure 13 (weak-ref ablation): keep-weak vs aggressive reclaim",
            &["function", "keep_weak_overhead", "aggressive_overhead"],
        );
        let mut pairs = outcomes[specs.len() + 2..].chunks_exact(2);
        for name in ["data-analysis", "unionfind"] {
            let [gentle, aggressive] = pairs.next().expect("a chunk per ablated function") else {
                unreachable!("chunks_exact(2) yields two-element chunks");
            };
            report::row(&[
                name.into(),
                format!("{:.2}", gentle.overhead()),
                format!("{:.2}", aggressive.overhead()),
            ]);
            check(
                &flags,
                aggressive.overhead() > gentle.overhead() * 1.25,
                &format!("{name}: weak preservation avoids a deopt slowdown"),
            );
        }
        println!("# paper: aggressive collection slows data-analysis 2.14x, unionfind 1.74x");
    }
}
