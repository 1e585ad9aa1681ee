//! Seeded violation: a library `pub fn` that only its own unit test
//! names. The dead-pub self-test scans this as a crate source and as a
//! vendored shim, each against a tiny pretend workspace that names
//! `used_helper` but not `dead_helper`.

pub fn used_helper() -> u64 {
    7
}

pub fn dead_helper() -> u64 {
    13
}

#[cfg(test)]
mod tests {
    #[test]
    fn dead_helper_is_thirteen() {
        assert_eq!(super::dead_helper(), 13);
    }
}
