//! CSV-style report output, in the spirit of the artifact's `parse.sh`
//! scripts (caption row + data rows on stdout), plus the wall-clock
//! timer and JSON helpers the `BENCH_*.json` harnesses share.

use std::fs;
use std::path::Path;

/// Prints the caption row of a figure's CSV output.
pub fn caption(figure: &str, columns: &[&str]) {
    println!("# {figure}");
    println!("{}", columns.join(","));
}

/// Formats a byte count as mebibytes with two decimals.
pub fn mib(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / (1 << 20) as f64)
}

/// Formats a ratio with two decimals.
pub fn ratio(x: f64) -> String {
    format!("{x:.2}")
}

/// Prints one CSV data row.
pub fn row(fields: &[String]) {
    println!("{}", fields.join(","));
}

/// Wall-clock seconds spent in `f`: a host measurement that never
/// enters simulation state.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    // tidy:allow(wall-clock) -- the perf harnesses measure host speed; wall time never enters simulation state
    let t0 = std::time::Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// Formats a JSON number with three decimals (`null` if not finite).
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.3}")
    } else {
        "null".to_string()
    }
}

/// Writes `body` to `dir/name`, creating `dir`; exits 1 on failure.
pub fn write_json(dir: &Path, name: &str, body: &str) {
    if let Err(e) = fs::create_dir_all(dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }
    let path = dir.join(name);
    if let Err(e) = fs::write(&path, body) {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_is_stable() {
        assert_eq!(mib(1 << 20), "1.00");
        assert_eq!(mib(3 << 19), "1.50");
        assert_eq!(ratio(1.25), "1.25");
        assert_eq!(ratio(4.5), "4.50");
    }
}
