//! Minimal flag parsing shared by the figure harnesses.
//!
//! Every harness accepts:
//!
//! * `--check` — assert the paper-shape invariants and exit non-zero on
//!   violation (used by the integration tests);
//! * `--quick` — smaller iteration counts / sweeps for fast runs;
//! * `--jobs N` — worker threads for the study matrix (default: all
//!   available cores; `--jobs 1` runs serially);
//! * harness-specific flags documented in each binary.

/// Parsed common flags.
#[derive(Debug, Clone, Default)]
pub struct Flags {
    /// Assert shape invariants.
    pub check: bool,
    /// Reduced workload for fast runs.
    pub quick: bool,
    /// Worker threads requested with `--jobs`; `None` means use all
    /// available cores.
    pub jobs: Option<usize>,
    /// Remaining positional / harness-specific arguments.
    pub rest: Vec<String>,
}

impl Flags {
    /// Parses `std::env::args` (skipping the binary name).
    pub fn parse() -> Flags {
        Self::from_args(std::env::args().skip(1))
    }

    /// Parses an explicit argument list.
    pub fn from_args(args: impl Iterator<Item = String>) -> Flags {
        let mut flags = Flags::default();
        let mut want_jobs = false;
        for a in args {
            if want_jobs {
                want_jobs = false;
                flags.jobs = a.parse().ok().filter(|&n| n > 0);
                if flags.jobs.is_none() {
                    eprintln!("ignoring invalid --jobs value: {a}");
                }
                continue;
            }
            match a.as_str() {
                "--check" => flags.check = true,
                "--quick" => flags.quick = true,
                "--jobs" => want_jobs = true,
                _ => {
                    if let Some(n) = a.strip_prefix("--jobs=") {
                        flags.jobs = n.parse().ok().filter(|&n| n > 0);
                        if flags.jobs.is_none() {
                            eprintln!("ignoring invalid --jobs value: {n}");
                        }
                    } else {
                        flags.rest.push(a);
                    }
                }
            }
        }
        flags
    }

    /// True if a harness-specific flag is present.
    pub fn has(&self, flag: &str) -> bool {
        self.rest.iter().any(|a| a == flag)
    }

    /// The value of a harness-specific `--flag value` or `--flag=value`
    /// argument, if present.
    pub fn value_of(&self, flag: &str) -> Option<&str> {
        let eq = format!("{flag}=");
        for (i, a) in self.rest.iter().enumerate() {
            if a == flag {
                return self.rest.get(i + 1).map(String::as_str);
            }
            if let Some(v) = a.strip_prefix(&eq) {
                return Some(v);
            }
        }
        None
    }

    /// The typed value of a harness-specific flag: `Ok(None)` when the
    /// flag is absent, and an error naming the flag when it is present
    /// with a missing or unparsable value — a malformed value must not
    /// silently turn a gate off.
    pub fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        match self.value_of(flag) {
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("invalid {flag} value: `{v}`")),
            None if self.has(flag) => Err(format!("{flag} needs a value")),
            None => Ok(None),
        }
    }

    /// Effective worker-thread count: the `--jobs` value, or every
    /// available core.
    pub fn jobs(&self) -> usize {
        self.jobs.unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        })
    }
}

/// Asserts a shape invariant when `--check` is active; always logs it.
pub fn check(flags: &Flags, ok: bool, what: &str) {
    if ok {
        eprintln!("check ok: {what}");
    } else if flags.check {
        eprintln!("CHECK FAILED: {what}");
        std::process::exit(1);
    } else {
        eprintln!("check WARNING (not enforced without --check): {what}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_known_and_unknown_flags() {
        let f = Flags::from_args(
            ["--check", "--list", "--quick"].iter().map(|s| s.to_string()),
        );
        assert!(f.check);
        assert!(f.quick);
        assert!(f.has("--list"));
        assert!(!f.has("--nope"));
    }

    #[test]
    fn value_of_supports_both_spellings() {
        let f = Flags::from_args(
            ["--fault-seed", "7", "--fault-rate=0.01"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(f.value_of("--fault-seed"), Some("7"));
        assert_eq!(f.value_of("--fault-rate"), Some("0.01"));
        assert_eq!(f.value_of("--missing"), None);
        // A trailing flag with no value yields None.
        let f = Flags::from_args(["--fault-seed"].iter().map(|s| s.to_string()));
        assert_eq!(f.value_of("--fault-seed"), None);
    }

    #[test]
    fn parsed_rejects_malformed_values_by_name() {
        let args = |a: &[&str]| Flags::from_args(a.iter().map(|s| s.to_string()));
        let f = args(&["--crash-every", "400", "--fault-rate=0.05"]);
        assert_eq!(f.parsed::<u64>("--crash-every"), Ok(Some(400)));
        assert_eq!(f.parsed::<f64>("--fault-rate"), Ok(Some(0.05)));
        assert_eq!(f.parsed::<u64>("--crash-at"), Ok(None));
        let err = args(&["--crash-every", "4OO"]).parsed::<u64>("--crash-every").unwrap_err();
        assert!(err.contains("--crash-every") && err.contains("4OO"), "{err}");
        let err = args(&["--fault-seed=x"]).parsed::<u64>("--fault-seed").unwrap_err();
        assert!(err.contains("--fault-seed"), "{err}");
        let err = args(&["--corrupt-at"]).parsed::<usize>("--corrupt-at").unwrap_err();
        assert!(err.contains("--corrupt-at") && err.contains("needs a value"), "{err}");
    }

    #[test]
    fn parses_jobs_in_both_spellings() {
        let f = Flags::from_args(["--jobs", "4"].iter().map(|s| s.to_string()));
        assert_eq!(f.jobs, Some(4));
        assert_eq!(f.jobs(), 4);
        let f = Flags::from_args(["--jobs=2"].iter().map(|s| s.to_string()));
        assert_eq!(f.jobs, Some(2));
        // Invalid and zero values fall back to auto.
        let f = Flags::from_args(["--jobs", "zero"].iter().map(|s| s.to_string()));
        assert_eq!(f.jobs, None);
        assert!(f.jobs() >= 1);
        let f = Flags::from_args(["--jobs=0"].iter().map(|s| s.to_string()));
        assert_eq!(f.jobs, None);
    }
}
