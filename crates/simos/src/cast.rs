//! Checked integer conversions for memory accounting.
//!
//! Clippy's cast lints (`cast_possible_truncation`, `cast_sign_loss`,
//! `cast_possible_wrap`), denied in non-test code at the heap crates'
//! roots and atop `simos::mem` and `faas::stats`, forbid lossy `as`
//! casts in accounting code: `as` silently truncates, and a truncated
//! byte count corrupts USS/PSS/RSS totals without failing any
//! invariant check nearby. These helpers make every conversion a
//! loud panic on overflow instead — on the supported 64-bit targets
//! all of them are lossless for the value ranges the simulator
//! produces (addresses, page counts, and sizes all fit in `u64`, and
//! `u64` indexes all fit in `usize`).

/// Widens to `u64`; panics if the value cannot be represented.
#[track_caller]
pub fn to_u64<T>(v: T) -> u64
where
    u64: TryFrom<T>,
    <u64 as TryFrom<T>>::Error: core::fmt::Debug,
{
    u64::try_from(v).expect("accounting value exceeds u64") // tidy:allow(panic-reachability) -- deliberately-checked accounting cast; overflow means simulator state corruption
}

/// Converts to `usize`; panics if the value cannot be represented
/// (impossible for in-range page/slot indexes on 64-bit targets).
#[track_caller]
pub fn to_usize<T>(v: T) -> usize
where
    usize: TryFrom<T>,
    <usize as TryFrom<T>>::Error: core::fmt::Debug,
{
    usize::try_from(v).expect("accounting index exceeds usize") // tidy:allow(panic-reachability) -- deliberately-checked accounting cast; overflow means simulator state corruption
}

/// Narrows to `u32`; panics instead of truncating.
#[track_caller]
pub fn to_u32<T>(v: T) -> u32
where
    u32: TryFrom<T>,
    <u32 as TryFrom<T>>::Error: core::fmt::Debug,
{
    u32::try_from(v).expect("accounting value exceeds u32") // tidy:allow(panic-reachability) -- deliberately-checked accounting cast; overflow means simulator state corruption
}

/// Narrows to `u16`; panics instead of truncating.
#[track_caller]
pub fn to_u16<T>(v: T) -> u16
where
    u16: TryFrom<T>,
    <u16 as TryFrom<T>>::Error: core::fmt::Debug,
{
    u16::try_from(v).expect("accounting value exceeds u16") // tidy:allow(panic-reachability) -- deliberately-checked accounting cast; overflow means simulator state corruption
}

/// Converts a finite, non-negative `f64` (a sizing heuristic's output)
/// to `u64` with the same truncate-toward-zero semantics as `as`, but
/// panicking on NaN or negative inputs instead of silently yielding 0.
#[track_caller]
pub fn u64_from_f64(v: f64) -> u64 {
    assert!(
        v.is_finite() && v >= 0.0,
        "accounting value must be finite and non-negative: {v}"
    );
    v as u64
}

/// [`u64_from_f64`], then to `usize`.
#[track_caller]
pub fn usize_from_f64(v: f64) -> usize {
    to_usize(u64_from_f64(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widening_and_narrowing_round_trip() {
        assert_eq!(to_u64(7usize), 7u64);
        assert_eq!(to_usize(7u64), 7usize);
        assert_eq!(to_u32(65_536u64), 65_536u32);
        assert_eq!(to_u16(9u64), 9u16);
        assert_eq!(to_usize(31u32), 31usize);
    }

    #[test]
    fn f64_truncates_toward_zero_like_as() {
        assert_eq!(u64_from_f64(3.9), 3);
        assert_eq!(u64_from_f64(0.0), 0);
        assert_eq!(usize_from_f64(12.5), 12);
    }

    #[test]
    #[should_panic]
    fn narrowing_overflow_panics() {
        to_u16(1u64 << 20);
    }

    #[test]
    #[should_panic]
    fn nan_panics() {
        u64_from_f64(f64::NAN);
    }
}
