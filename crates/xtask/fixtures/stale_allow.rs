//! Seeded stale-allow violations, one of each kind:
//! an allow naming a rule that does not exist, an allow with no
//! justification, and a justified allow whose line has no violation.
//! Scanned by the self-test as `crates/simos/src/fake.rs`.

// tidy:allow(no-such-rule) -- the rule name is bogus
pub const A: u64 = 1;

// tidy:allow(raw-threads)
pub const B: u64 = 2;

// tidy:allow(wall-clock) -- justified, but nothing here violates it
pub const C: u64 = 3;
