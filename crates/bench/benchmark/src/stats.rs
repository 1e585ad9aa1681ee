//! Order statistics over timing samples, and the regression rule
//! `--compare` applies.

/// Quartiles `(p25, p50, p75)` by Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
/// spreads the benchmark prints match the ones computed from its
/// output. A single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x, x);
    }
    let at = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(2), at(3))
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// The highest of p50, p90, p99 and p99.9 with at least ten samples
/// beyond it, as `(label, value)`; `None` below twenty samples.
/// Nearest rank on the sorted samples.
pub fn tail(values: &[f64]) -> Option<(&'static str, f64)> {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    [("p99.9", 999), ("p99", 990), ("p90", 900), ("p50", 500)]
        .into_iter()
        .map(|(label, permille)| (label, (permille * n).div_ceil(1000).max(1)))
        .find(|&(_, rank)| n >= rank + 10)
        .map(|(label, rank)| (label, v[rank - 1]))
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// How far a metric may worsen: a share of the base median, but never
/// less than an absolute floor (timings of a few milliseconds move by
/// more than any share of themselves).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    pub share: f64,
    pub floor: f64,
}

impl Bound {
    pub fn allowed(&self, base: f64) -> f64 {
        (self.share * base.abs()).max(self.floor)
    }
}

/// A metric as measured: median and quartiles over a run's reps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub p25: f64,
    pub median: f64,
    pub p75: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let (p25, median, p75) = quartiles(values);
        Summary { p25, median, p75 }
    }

    #[cfg(test)]
    pub fn exact(x: f64) -> Summary {
        Summary {
            p25: x,
            median: x,
            p75: x,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// A side's p25–p75 spread is wider than the bound, so a move of
    /// the median within it says nothing.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

pub fn verdict(base: Summary, new: Summary, bound: Bound, better: Better) -> Verdict {
    let allowed = bound.allowed(base.median);
    let spread = (base.p75 - base.p25).max(new.p75 - new.p25);
    let worse_by = match better {
        Better::Lower => new.median - base.median,
        Better::Higher => base.median - new.median,
    };
    if spread > allowed {
        Verdict::Unresolved
    } else if worse_by > allowed {
        Verdict::Worse
    } else if worse_by < -allowed {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
        assert_eq!(median(&[5.0, 1.0, 3.0, 2.0, 4.0]), 3.0);
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_beyond() {
        let v = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail(&v(19)), None);
        assert_eq!(tail(&v(20)), Some(("p50", 10.0)));
        assert_eq!(tail(&v(99)), Some(("p50", 50.0)));
        assert_eq!(tail(&v(100)), Some(("p90", 90.0)));
        assert_eq!(tail(&v(1000)), Some(("p99", 990.0)));
        assert_eq!(tail(&v(10_000)), Some(("p99.9", 9990.0)));
    }

    #[test]
    fn verdict_applies_share_floor_and_direction() {
        let bound = Bound {
            share: 0.1,
            floor: 0.0,
        };
        let x = Summary::exact;
        assert_eq!(
            verdict(x(1.0), x(1.05), bound, Better::Lower),
            Verdict::Same
        );
        assert_eq!(
            verdict(x(1.0), x(1.2), bound, Better::Lower),
            Verdict::Worse
        );
        assert_eq!(
            verdict(x(1.0), x(0.8), bound, Better::Lower),
            Verdict::Better
        );
        assert_eq!(
            verdict(x(1.0), x(1.2), bound, Better::Higher),
            Verdict::Better
        );
        assert_eq!(
            verdict(x(1.0), x(0.8), bound, Better::Higher),
            Verdict::Worse
        );
        // The absolute floor dominates for small values.
        let floored = Bound {
            share: 0.1,
            floor: 0.005,
        };
        assert_eq!(
            verdict(x(0.002), x(0.006), floored, Better::Lower),
            Verdict::Same
        );
        assert_eq!(
            verdict(x(0.002), x(0.008), floored, Better::Lower),
            Verdict::Worse
        );
        // A spread wider than the bound leaves the verdict open.
        let noisy = Summary {
            p25: 0.8,
            median: 1.0,
            p75: 1.3,
        };
        assert_eq!(
            verdict(x(1.0), noisy, bound, Better::Lower),
            Verdict::Unresolved
        );
        // A zero bound is exact: deterministic metrics must not move.
        let exact = Bound {
            share: 0.0,
            floor: 0.0,
        };
        assert_eq!(verdict(x(3.0), x(3.0), exact, Better::Lower), Verdict::Same);
        assert_eq!(
            verdict(x(3.0), x(3.0001), exact, Better::Lower),
            Verdict::Worse
        );
    }
}
