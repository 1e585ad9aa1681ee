//! `--compare BASE.json NEW.json`: one row per (workload, end-to-end
//! metric), judged by the bound and direction `BENCHMARK.json`
//! declares; one per simulated outcome, held exact in its direction
//! when both runs used the same seed; and the failed fraction of every
//! workload.

use crate::json::{num, Json};
use crate::spec::Spec;
use crate::stats::{verdict, Better, Bound, Summary, Verdict};

/// The per-workload documents of a results file: either the merged
/// results of a full pass or a single workload's file.
fn workloads(doc: &Json) -> Vec<(String, &Json)> {
    match doc.get("workloads") {
        Some(ws) => ws.fields().iter().map(|(k, v)| (k.clone(), v)).collect(),
        None => doc
            .get("workload")
            .and_then(Json::as_str)
            .map(|w| vec![(w.to_string(), doc)])
            .unwrap_or_default(),
    }
}

fn summary(w: &Json, metric: &str) -> Option<Summary> {
    let m = w.get("metrics")?.get(metric)?;
    let median = m.get("value")?.as_f64()?;
    let p25 = m.get("p25").and_then(Json::as_f64).unwrap_or(median);
    let p75 = m.get("p75").and_then(Json::as_f64).unwrap_or(median);
    Some(Summary { p25, median, p75 })
}

fn seed(doc: &Json, w: &Json) -> Option<f64> {
    w.get("seed")
        .or_else(|| doc.get("seed"))
        .and_then(Json::as_f64)
}

fn failed_frac(w: &Json) -> f64 {
    let get = |k| w.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    get("failed") / get("attempted").max(1.0)
}

/// Prints the comparison; `Ok(true)` when nothing got worse.
pub fn compare(spec: &Spec, base: &Json, new: &Json) -> Result<bool, String> {
    let base_ws = workloads(base);
    let new_ws = workloads(new);
    let mut ok = true;
    let mut rows = 0;
    println!("workload metric base new unit verdict");
    for (name, b) in &base_ws {
        let Some((_, n)) = new_ws.iter().find(|(w, _)| w == name) else {
            continue;
        };
        let mut judged: Vec<(&str, &str, Bound, Better)> = spec
            .end_to_end
            .iter()
            .map(|d| (d.name.as_str(), d.unit.as_str(), d.bound, d.better))
            .collect();
        if seed(base, b) == seed(new, n) {
            let exact = Bound {
                share: 0.0,
                floor: 0.0,
            };
            for (metric, m) in b.get("metrics").map(Json::fields).unwrap_or_default() {
                let better = match m.get("better").and_then(Json::as_str) {
                    Some("lower") => Better::Lower,
                    Some("higher") => Better::Higher,
                    _ => continue,
                };
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                judged.push((metric.as_str(), unit, exact, better));
            }
        }
        for (metric, unit, bound, better) in judged {
            let (Some(bs), Some(ns)) = (summary(b, metric), summary(n, metric)) else {
                continue;
            };
            let v = verdict(bs, ns, bound, better);
            ok &= v != Verdict::Worse;
            rows += 1;
            println!(
                "{name} {metric} {} {} {unit} {}",
                num(bs.median),
                num(ns.median),
                v.label()
            );
        }
        let (bf, nf) = (failed_frac(b), failed_frac(n));
        let label = if nf > bf {
            "worse"
        } else if nf < bf {
            "better"
        } else {
            "same"
        };
        ok &= nf <= bf;
        println!("{name} failed_frac {} {} frac {label}", num(bf), num(nf));
    }
    if rows == 0 {
        return Err("the two files share no workload and metric".to_string());
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(wall: f64, failed: u64) -> Json {
        sim_doc(wall, failed, 11, 50.0)
    }

    fn sim_doc(wall: f64, failed: u64, seed: u64, p99: f64) -> Json {
        Json::parse(&format!(
            "{{\"seed\": {seed}, \"workloads\": {{\"w\": {{\"attempted\": 100, \"failed\": {failed}, \"metrics\": {{\
             \"wall_s\": {{\"value\": {wall}, \"unit\": \"s\", \"p25\": {wall}, \"p75\": {wall}}}, \
             \"sim_p99_ms\": {{\"value\": {p99}, \"unit\": \"ms\", \"better\": \"lower\"}}}}}}}}}}"
        ))
        .expect("valid")
    }

    #[test]
    fn worse_wall_time_or_more_failures_fail_the_comparison() {
        let spec = Spec::load().expect("BENCHMARK.json parses");
        let bound = spec
            .end_to_end
            .iter()
            .find(|d| d.name == "wall_s")
            .expect("wall_s")
            .bound
            .share;
        assert_eq!(compare(&spec, &doc(1.0, 0), &doc(1.0, 0)), Ok(true));
        assert_eq!(
            compare(&spec, &doc(1.0, 0), &doc(1.0 + 2.0 * bound, 0)),
            Ok(false)
        );
        assert_eq!(
            compare(&spec, &doc(1.0, 0), &doc(1.0 - 2.0 * bound, 0)),
            Ok(true)
        );
        assert_eq!(compare(&spec, &doc(1.0, 0), &doc(1.0, 1)), Ok(false));
        assert!(compare(&spec, &doc(1.0, 0), &Json::parse("{}").expect("valid")).is_err());
    }

    #[test]
    fn simulated_outcomes_are_exact_on_the_same_seed_only() {
        let spec = Spec::load().expect("BENCHMARK.json parses");
        assert_eq!(
            compare(
                &spec,
                &sim_doc(1.0, 0, 11, 50.0),
                &sim_doc(1.0, 0, 11, 49.0)
            ),
            Ok(true)
        );
        assert_eq!(
            compare(
                &spec,
                &sim_doc(1.0, 0, 11, 50.0),
                &sim_doc(1.0, 0, 11, 50.001)
            ),
            Ok(false)
        );
        assert_eq!(
            compare(&spec, &sim_doc(1.0, 0, 11, 50.0), &sim_doc(1.0, 0, 7, 80.0)),
            Ok(true)
        );
    }
}
