//! Figure 2: memory-consumption curves for two representative
//! functions — `file-hash` (Java) and `fft` (JavaScript) — under
//! vanilla, eager, and ideal, over 100 invocations.
//!
//! Also prints the §3.2 statistics the paper quotes inline: the eager
//! heap size and live bytes for `file-hash` (7.88 MiB / 1.07 MiB in the
//! paper — 86.4 % free), and `fft`'s heap size under vanilla
//! (41.40 MiB, young generation pinned at its 32 MiB cap).
//!
//! Flags: `--quick` (30 iterations), `--check`, `--jobs N`.

#![forbid(unsafe_code)]

use bench::cli::{check, Flags};
use bench::report;
use bench::{run_studies_parallel, Mode, StudyConfig};

fn main() {
    let flags = Flags::parse(&[], &[]);
    let cfg = StudyConfig {
        iterations: if flags.quick { 30 } else { 100 },
        ..StudyConfig::default()
    };
    let names = ["file-hash", "fft"];
    let specs: Vec<_> = names
        .iter()
        .map(|name| workloads::by_name(name).expect("catalog function"))
        .collect();
    let outcomes = run_studies_parallel(
        &specs,
        &[Mode::Vanilla, Mode::Eager],
        &cfg,
        flags.jobs(),
    );
    for (name, row) in names.into_iter().zip(outcomes) {
        let [vanilla, eager]: [_; 2] = row.try_into().expect("two modes per spec");
        report::caption(
            &format!("Figure 2: memory consumption curve for {name}"),
            &["iteration", "vanilla_mib", "eager_mib", "ideal_mib"],
        );
        let step = (cfg.iterations as usize / 20).max(1);
        for i in (0..vanilla.uss.len()).step_by(step) {
            report::row(&[
                (i + 1).to_string(),
                report::mib(vanilla.uss[i]),
                report::mib(eager.uss[i]),
                report::mib(vanilla.ideal[i]),
            ]);
        }
        let v_final = *vanilla.uss.last().expect("nonempty series");
        let e_final = *eager.uss.last().expect("nonempty series");
        let i_final = *vanilla.ideal.last().expect("nonempty series");
        println!(
            "# {name}: eager heap committed {} MiB, live {} MiB ({}% of heap is free)",
            report::mib(*eager.heap_committed.last().expect("nonempty")),
            report::mib(eager.final_live),
            ((1.0 - eager.final_live as f64
                / (*eager.heap_committed.last().expect("nonempty")).max(1) as f64)
                * 100.0)
                .round(),
        );
        println!(
            "# {name}: vanilla heap committed {} MiB",
            report::mib(*vanilla.heap_committed.last().expect("nonempty"))
        );
        check(
            &flags,
            e_final <= v_final,
            &format!("{name}: eager is at or below vanilla"),
        );
        check(
            &flags,
            i_final < e_final,
            &format!("{name}: eager stays above the ideal curve"),
        );
        if name == "fft" {
            // §3.2.2: eager barely helps fft — the young generation
            // never shrinks under its allocation rate.
            check(
                &flags,
                e_final as f64 > v_final as f64 * 0.5,
                "fft: eager GC reduces memory by far less than 2x (young gen pinned)",
            );
            check(
                &flags,
                *vanilla.heap_committed.last().expect("nonempty") >= 32 << 20,
                "fft: vanilla heap reaches the 32 MiB young cap and beyond",
            );
        }
        if name == "file-hash" {
            // §3.2.1: most of the eager heap is free pages.
            let committed = *eager.heap_committed.last().expect("nonempty");
            check(
                &flags,
                eager.final_live * 3 < committed,
                "file-hash: >2/3 of the eager heap is free pages",
            );
        }
    }
}
