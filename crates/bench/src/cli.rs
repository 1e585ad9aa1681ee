//! Minimal flag parsing shared by the figure harnesses.
//!
//! Every harness accepts:
//!
//! * `--check` — assert the paper-shape invariants and exit non-zero on
//!   violation (used by the integration tests);
//! * `--quick` — smaller iteration counts / sweeps for fast runs;
//! * `--jobs N` — worker threads for the study matrix (default: all
//!   available cores; `--jobs 1` runs serially);
//! * harness-specific flags documented in each binary, which each
//!   harness declares to [`Flags::parse`].
//!
//! Anything else — an unknown or misspelt flag, a stray argument, a
//! `--jobs` value that is not a positive integer, a declared value
//! flag with no value — exits 2 with a message: a misspelt gate flag
//! must not silently drop its gate.

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
    /// The harness-specific flags given, each value flag followed by
    /// its value unless written `--flag=value`.
    pub rest: Vec<String>,
}

impl Flags {
    /// Parses `std::env::args` (skipping the binary name) for a harness
    /// that accepts the common flags plus the `switches` and the
    /// `values` (flags that take a value). Exits 2 with a message on
    /// anything else.
    pub fn parse(switches: &[&str], values: &[&str]) -> Flags {
        Self::from_args(std::env::args().skip(1), switches, values).unwrap_or_else(|e| {
            let bin = std::env::args().next().unwrap_or_default();
            let name = bin.rsplit('/').next().unwrap_or("harness");
            eprintln!("{name}: {e}");
            std::process::exit(2)
        })
    }

    /// Parses an explicit argument list, as [`Flags::parse`] does,
    /// returning the message instead of exiting.
    pub fn from_args(
        mut args: impl Iterator<Item = String>,
        switches: &[&str],
        values: &[&str],
    ) -> Result<Flags, String> {
        let mut flags = Flags::default();
        while let Some(a) = args.next() {
            let (name, inline) = match a.split_once('=') {
                Some((name, v)) => (name, Some(v.to_string())),
                None => (a.as_str(), None),
            };
            match name {
                "--check" if inline.is_none() => flags.check = true,
                "--quick" if inline.is_none() => flags.quick = true,
                "--jobs" => {
                    let v = inline
                        .or_else(|| args.next())
                        .ok_or("--jobs needs a value")?;
                    let n = v.parse().ok().filter(|&n: &usize| n > 0);
                    flags.jobs = Some(n.ok_or(format!(
                        "invalid --jobs value: `{v}` (want a positive integer)"
                    ))?);
                }
                _ if inline.is_none() && switches.contains(&name) => flags.rest.push(a),
                _ if values.contains(&name) => {
                    flags.rest.push(a.clone());
                    if inline.is_none() {
                        let v = args.next().ok_or(format!("{name} needs a value"))?;
                        flags.rest.push(v);
                    }
                }
                _ => return Err(format!("unknown flag `{a}`")),
            }
        }
        Ok(flags)
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

    fn args(a: &[&str]) -> Result<Flags, String> {
        Flags::from_args(
            a.iter().map(|s| s.to_string()),
            &["--list"],
            &["--fault-seed", "--fault-rate", "--crash-every", "--crash-at", "--corrupt-at"],
        )
    }

    #[test]
    fn parses_common_and_declared_flags() {
        let f = args(&["--check", "--list", "--quick"]).unwrap();
        assert!(f.check);
        assert!(f.quick);
        assert!(f.has("--list"));
        assert!(!f.has("--nope"));
    }

    #[test]
    fn unknown_flags_and_stray_arguments_are_rejected() {
        // A misspelt gate flag must not run the harness without its gate.
        let err = args(&["--quick", "--check", "--crash-evry", "400"]).unwrap_err();
        assert!(err.contains("--crash-evry"), "{err}");
        for bad in [&["stray"][..], &["--list=1"], &["--check=yes"], &["--Quick"]] {
            assert!(args(bad).is_err(), "{bad:?} accepted");
        }
        let err = args(&["--crash-every"]).unwrap_err();
        assert!(err.contains("--crash-every") && err.contains("needs a value"), "{err}");
    }

    #[test]
    fn value_of_supports_both_spellings() {
        let f = args(&["--fault-seed", "7", "--fault-rate=0.01"]).unwrap();
        assert_eq!(f.value_of("--fault-seed"), Some("7"));
        assert_eq!(f.value_of("--fault-rate"), Some("0.01"));
        assert_eq!(f.value_of("--crash-at"), None);
    }

    #[test]
    fn parsed_rejects_malformed_values_by_name() {
        let f = args(&["--crash-every", "400", "--fault-rate=0.05"]).unwrap();
        assert_eq!(f.parsed::<u64>("--crash-every"), Ok(Some(400)));
        assert_eq!(f.parsed::<f64>("--fault-rate"), Ok(Some(0.05)));
        assert_eq!(f.parsed::<u64>("--crash-at"), Ok(None));
        let err = args(&["--crash-every", "4OO"]).unwrap().parsed::<u64>("--crash-every");
        let err = err.unwrap_err();
        assert!(err.contains("--crash-every") && err.contains("4OO"), "{err}");
        let err = args(&["--fault-seed=x"]).unwrap().parsed::<u64>("--fault-seed").unwrap_err();
        assert!(err.contains("--fault-seed"), "{err}");
        let err = args(&["--corrupt-at="]).unwrap().parsed::<usize>("--corrupt-at").unwrap_err();
        assert!(err.contains("--corrupt-at"), "{err}");
    }

    #[test]
    fn parses_jobs_in_both_spellings() {
        let f = args(&["--jobs", "4"]).unwrap();
        assert_eq!(f.jobs, Some(4));
        assert_eq!(f.jobs(), 4);
        let f = args(&["--jobs=2"]).unwrap();
        assert_eq!(f.jobs, Some(2));
        assert!(args(&[]).unwrap().jobs() >= 1);
    }

    #[test]
    fn invalid_jobs_values_are_rejected() {
        for bad in [&["--jobs", "zero"][..], &["--jobs=0"], &["--jobs", "-1"], &["--jobs"]] {
            let err = args(bad).unwrap_err();
            assert!(err.contains("--jobs"), "{bad:?}: {err}");
        }
    }
}
