//! Calibration view: per-function Figure-1/7 numbers side by side.
//!
//! Not a paper figure — a development tool to tune the workload
//! personalities. Prints, per function: vanilla/eager/desiccant/ideal
//! final USS (MiB), avg and max frozen-garbage ratios, and the
//! reductions the paper reports in §5.2.
//!
//! Flags: `--jobs N`.

#![forbid(unsafe_code)]

use bench::cli::Flags;
use bench::{run_studies_parallel, Mode, StudyConfig};

fn main() {
    let flags = Flags::parse(&[], &[]);
    let cfg = StudyConfig::default();
    println!(
        "{:<16} {:>4} {:>8} {:>8} {:>8} {:>8} {:>6} {:>6} {:>6} {:>6} {:>8}",
        "function", "lang", "vanilla", "eager", "desic", "ideal", "avg_r", "max_r", "v/d", "e/d", "live_mb"
    );
    let mut java_max_ratios = Vec::new();
    let mut js_max_ratios = Vec::new();
    let mut java_vd = Vec::new();
    let mut js_vd = Vec::new();
    let specs = workloads::catalog();
    let outcomes = run_studies_parallel(
        &specs,
        &[Mode::Vanilla, Mode::Eager, Mode::Desiccant],
        &cfg,
        flags.jobs(),
    );
    for (spec, row) in specs.into_iter().zip(outcomes) {
        let [vanilla, eager, desic]: [_; 3] = row.try_into().expect("three modes per spec");
        let mb = |b: u64| b as f64 / (1 << 20) as f64;
        let vd = vanilla.final_uss as f64 / desic.final_uss.max(1) as f64;
        let ed = eager.final_uss as f64 / desic.final_uss.max(1) as f64;
        println!(
            "{:<16} {:>4} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>6.2} {:>6.2} {:>6.2} {:>6.2} {:>8.2}",
            spec.name,
            if spec.language == faas_runtime::Language::Java { "java" } else { "js" },
            mb(vanilla.final_uss),
            mb(eager.final_uss),
            mb(desic.final_uss),
            mb(desic.final_ideal),
            vanilla.avg_ratio(),
            vanilla.max_ratio(),
            vd,
            ed,
            mb(desic.final_live),
        );
        if spec.language == faas_runtime::Language::Java {
            java_max_ratios.push(vanilla.max_ratio());
            java_vd.push(vd);
        } else {
            js_max_ratios.push(vanilla.max_ratio());
            js_vd.push(vd);
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!();
    println!(
        "java: mean max_ratio {:.2} (paper 2.72), mean v/d {:.2} (paper 2.78)",
        mean(&java_max_ratios),
        mean(&java_vd)
    );
    println!(
        "js:   mean max_ratio {:.2} (paper 2.15), mean v/d {:.2} (paper 1.93)",
        mean(&js_max_ratios),
        mean(&js_vd)
    );
}
