//! Figure 11: memory efficiency on the Lambda environment (§5.4).
//!
//! Lambda packs functions as container images and never shares library
//! pages between instances, so the §4.6 unmap optimization bites
//! harder. The paper reports 2.08× mean improvement for Java (six
//! functions — image-pipeline is excluded because its external calls
//! don't run on the vanilla Corretto image) and 2.76× for JavaScript.
//!
//! Flags: `--quick`, `--check`, `--jobs N`.

#![forbid(unsafe_code)]

use bench::cli::{check, Flags};
use bench::report;
use bench::{run_study_jobs, Mode, StudyConfig};
use faas_runtime::Language;

fn main() {
    let flags = Flags::parse(&[], &[]);
    let cfg = StudyConfig {
        iterations: if flags.quick { 30 } else { 100 },
        lambda_env: true,
        unmap_libs: true,
        ..StudyConfig::default()
    };
    report::caption(
        "Figure 11: memory efficiency on AWS Lambda (MiB)",
        &["language", "function", "vanilla", "desiccant", "improvement"],
    );
    // §5.4: image-pipeline's external calls are unsupported on the
    // vanilla Corretto image; the paper reports the other Java
    // functions.
    let specs: Vec<_> = workloads::catalog()
        .into_iter()
        .filter(|f| f.name != "image-pipeline")
        .collect();
    // One flat job list: the (function × mode) matrix plus the three
    // fft unmap-ablation studies appended at the end.
    let fft = workloads::by_name("fft").expect("catalog function");
    let ow_cfg = StudyConfig {
        lambda_env: false,
        unmap_libs: false,
        iterations: cfg.iterations,
        ..StudyConfig::default()
    };
    let nounmap_cfg = StudyConfig {
        unmap_libs: false,
        ..cfg
    };
    let mut work: Vec<_> = specs
        .iter()
        .flat_map(|&spec| {
            [(spec, Mode::Vanilla, cfg), (spec, Mode::Desiccant, cfg)]
        })
        .collect();
    work.push((fft, Mode::Desiccant, ow_cfg));
    work.push((fft, Mode::Desiccant, nounmap_cfg));
    work.push((fft, Mode::Desiccant, cfg));
    let outcomes = run_study_jobs(flags.jobs(), &work);
    let mut by_lang: Vec<(Language, f64)> = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let (vanilla, desiccant) = (&outcomes[2 * i], &outcomes[2 * i + 1]);
        let improvement = vanilla.final_uss as f64 / desiccant.final_uss.max(1) as f64;
        report::row(&[
            spec.language.name().into(),
            spec.name.into(),
            report::mib(vanilla.final_uss),
            report::mib(desiccant.final_uss),
            report::ratio(improvement),
        ]);
        by_lang.push((spec.language, improvement));
        check(
            &flags,
            improvement > 1.0,
            &format!("{}: desiccant improves on Lambda", spec.name),
        );
    }
    for lang in [Language::Java, Language::JavaScript] {
        let v: Vec<f64> = by_lang
            .iter()
            .filter(|(l, _)| *l == lang)
            .map(|(_, i)| *i)
            .collect();
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        let target = if lang == Language::Java { 2.08 } else { 2.76 };
        println!("# {} mean improvement {:.2}x (paper {target}x)", lang.name(), mean);
        check(
            &flags,
            mean > 1.5,
            &format!("{}: mean Lambda improvement is substantial", lang.name()),
        );
    }
    // The unmap optimization matters more on Lambda than on OpenWhisk.
    let [ow, lam_nounmap, lam_unmap] = &outcomes[2 * specs.len()..] else {
        unreachable!("three ablation studies appended to the job list");
    };
    println!(
        "# fft desiccant USS: openwhisk {} MiB, lambda w/o unmap {} MiB, lambda with unmap {} MiB",
        report::mib(ow.final_uss),
        report::mib(lam_nounmap.final_uss),
        report::mib(lam_unmap.final_uss)
    );
    check(
        &flags,
        lam_unmap.final_uss < lam_nounmap.final_uss,
        "unmap optimization is effective on Lambda",
    );
}
