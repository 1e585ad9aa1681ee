//! Ablation: the §4.6 shared-library unmap optimization.
//!
//! On the Lambda flavour (no sharing), unmapping a sole-user library is
//! pure profit memory-wise, at the cost of refaulting the hot part on
//! the next invocation. This harness quantifies both sides.
//!
//! Flags: `--quick`, `--check`.

#![forbid(unsafe_code)]

use bench::cli::{check, Flags};
use bench::report;
use bench::{run_overhead_study, run_study, Mode, StudyConfig};

fn main() {
    let flags = Flags::parse(&[], &[]);
    let iterations = if flags.quick { 30 } else { 100 };
    report::caption(
        "Ablation: library unmap optimization (Lambda env)",
        &["function", "uss_without_mib", "uss_with_mib", "saving_mib", "overhead_without", "overhead_with"],
    );
    for name in ["file-hash", "fft"] {
        let spec = workloads::by_name(name).expect("catalog function");
        let without_cfg = StudyConfig {
            iterations,
            lambda_env: true,
            unmap_libs: false,
            ..StudyConfig::default()
        };
        let with_cfg = StudyConfig {
            unmap_libs: true,
            ..without_cfg
        };
        let without = run_study(&spec, Mode::Desiccant, &without_cfg);
        let with = run_study(&spec, Mode::Desiccant, &with_cfg);
        let o_without = run_overhead_study(&spec, Mode::Desiccant, &without_cfg);
        let o_with = run_overhead_study(&spec, Mode::Desiccant, &with_cfg);
        report::row(&[
            name.into(),
            report::mib(without.final_uss),
            report::mib(with.final_uss),
            report::mib(without.final_uss.saturating_sub(with.final_uss)),
            format!("{:.3}", o_without.overhead()),
            format!("{:.3}", o_with.overhead()),
        ]);
        check(
            &flags,
            with.final_uss < without.final_uss,
            &format!("{name}: unmap saves memory"),
        );
        check(
            &flags,
            o_with.overhead() >= o_without.overhead() * 0.98,
            &format!("{name}: unmap costs some refault overhead"),
        );
    }
}
