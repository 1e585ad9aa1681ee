//! Figure 8: per-instance RSS and PSS improvement as concurrent
//! instances of the same function share libraries.
//!
//! Protocol (§5.2): launch N instances of `fft` on one host, run the
//! iterations in each, and compare per-instance RSS/PSS between vanilla
//! and Desiccant (reclaim + the §4.6 unmap optimization). With one
//! instance both metrics improve alike (the paper reports 4.16×); as N
//! grows the libraries amortize and PSS approaches USS.
//!
//! Flags: `--quick`, `--check`.

#![forbid(unsafe_code)]

use bench::cli::{check, Flags};
use bench::report;
use faas_runtime::{Instance, RuntimeImage};
use simos::{SimDuration, SimTime, System};
use workloads::FunctionState;

fn main() {
    let flags = Flags::parse(&[], &[]);
    let iterations = if flags.quick { 20 } else { 100 };
    let spec = workloads::by_name("fft").expect("catalog function");
    report::caption(
        "Figure 8: per-instance RSS/PSS improvement vs concurrent instances (fft)",
        &["instances", "rss_improvement", "pss_improvement", "pss_minus_uss_mib"],
    );
    let mut one_instance_rss = 0.0;
    let mut gaps = Vec::new();
    for n in [1usize, 2, 4, 8] {
        // Vanilla world and Desiccant world, each with n instances.
        let run = |reclaim: bool| -> (f64, f64, f64) {
            let mut sys = System::new();
            let image = RuntimeImage::openwhisk(spec.language);
            let libs = image.register_files(&mut sys);
            let mut insts: Vec<(Instance, FunctionState)> = (0..n)
                .map(|i| {
                    (
                        Instance::launch(&mut sys, &image, &libs, 256 << 20, 0.14)
                            .expect("instance fits"),
                        FunctionState::new(0, 7 + i as u64),
                    )
                })
                .collect();
            let mut now = SimTime::ZERO;
            for _ in 0..iterations {
                for (inst, state) in insts.iter_mut() {
                    let r = inst
                        .invoke(&mut sys, now, &spec.exec, |ctx| state.invoke(&spec, ctx))
                        .expect("workload fits");
                    now += r.wall_time;
                }
                now += SimDuration::from_millis(100);
            }
            if reclaim {
                for (inst, _) in insts.iter_mut() {
                    inst.reclaim(&mut sys, now, true).expect("reclaim ok");
                    inst.unmap_private_libs(&mut sys).expect("unmap ok");
                }
            }
            let inst0 = &insts[0].0;
            (
                inst0.rss(&sys) as f64,
                inst0.pss(&sys),
                inst0.uss(&sys) as f64,
            )
        };
        let (v_rss, v_pss, _v_uss) = run(false);
        let (d_rss, d_pss, d_uss) = run(true);
        let rss_improvement = v_rss / d_rss.max(1.0);
        let pss_improvement = v_pss / d_pss.max(1.0);
        let gap = (d_pss - d_uss) / (1 << 20) as f64;
        report::row(&[
            n.to_string(),
            report::ratio(rss_improvement),
            report::ratio(pss_improvement),
            format!("{gap:.2}"),
        ]);
        if n == 1 {
            one_instance_rss = rss_improvement;
            check(
                &flags,
                (rss_improvement - pss_improvement).abs() < 0.3,
                "n=1: RSS and PSS improve alike (nothing is shared)",
            );
        }
        gaps.push(gap);
    }
    println!("# paper: 4.16x at one instance; PSS approaches USS as instances share");
    check(
        &flags,
        one_instance_rss > 2.0,
        "single-instance RSS improvement is large (paper 4.16x)",
    );
    // With one instance nothing is shared and the gap is trivially
    // zero; sharing starts at n = 2 and the per-instance PSS share of
    // the libraries halves with every doubling.
    check(
        &flags,
        gaps.last().expect("rows") < &gaps[1],
        "PSS-USS gap shrinks as instances share libraries",
    );
}
