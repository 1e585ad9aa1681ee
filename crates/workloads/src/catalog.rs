//! The Table-1 function catalog with calibrated personalities.
//!
//! Calibration targets (paper magnitudes, reproduced in shape):
//!
//! * Java functions pay a large first-invocation initialization that
//!   balloons the heap (§5.2);
//! * `file-hash` retains ≈1 MiB live in a much larger heap (§3.2.1);
//! * `fft` allocates heavily with survivors held to function exit,
//!   ratcheting V8's young generation to its cap (§3.2.2);
//! * `hotel-searching` has the largest temp-to-live ratio (max ratio
//!   above 5× in Figure 1);
//! * `mapreduce`'s mapper hands multi-MiB intermediates to the reducer
//!   that outlive the exit-time GC (§5.2);
//! * `data-analysis` and `unionfind` are the deopt-sensitive functions
//!   of §5.6 (2.14× / 1.74× slowdown under aggressive GC).

use faas_runtime::{ExecProfile, Language};
use simos::SimDuration;

use crate::spec::{FunctionSpec, KernelKind, MemProfile};

const KIB: u64 = 1 << 10;
const MIB: u64 = 1 << 20;

fn java_exec() -> ExecProfile {
    ExecProfile {
        warmup_factor: 3.0,
        warmup_tau: 8.0,
        deopt_sensitivity: 0.3,
    }
}

fn js_exec(deopt_sensitivity: f64) -> ExecProfile {
    ExecProfile {
        warmup_factor: 2.0,
        warmup_tau: 6.0,
        deopt_sensitivity,
    }
}

#[allow(clippy::too_many_arguments)]
fn mem(
    temp_bytes: u64,
    temp_obj_size: u64,
    hold_fraction: f64,
    init_bytes: u64,
    state_per_invoke: u64,
    state_cap: u64,
    intermediate_bytes: u64,
) -> MemProfile {
    MemProfile {
        temp_bytes,
        temp_obj_size: temp_obj_size as u32,
        hold_fraction,
        init_bytes,
        state_per_invoke,
        state_cap: state_cap.max(state_per_invoke),
        intermediate_bytes,
    }
}

/// All 20 evaluated functions, Java first, in Table-1 order.
pub fn catalog() -> Vec<FunctionSpec> {
    use KernelKind as K;
    use Language::{Java, JavaScript as Js};
    let ms = SimDuration::from_millis;
    vec![
        // ---------------- Java ----------------
        FunctionSpec {
            name: "time",
            language: Java,
            chain_len: 1,
            kernel: K::Time,
            mem: mem(96 * KIB, 8 * KIB, 0.2, 512 * KIB, 0, 0, 0),
            compute: ms(1),
            exec: java_exec(),
        },
        FunctionSpec {
            name: "sort",
            language: Java,
            chain_len: 1,
            kernel: K::Sort,
            mem: mem(6 * MIB, 96 * KIB, 0.5, MIB, 0, 0, 0),
            compute: ms(18),
            exec: java_exec(),
        },
        FunctionSpec {
            name: "file-hash",
            language: Java,
            chain_len: 1,
            kernel: K::Hash,
            mem: mem(4608 * KIB, 128 * KIB, 0.3, 900 * KIB, 16 * KIB, 1100 * KIB, 0),
            compute: ms(12),
            exec: java_exec(),
        },
        FunctionSpec {
            name: "image-resize",
            language: Java,
            chain_len: 1,
            kernel: K::Image,
            mem: mem(11 * MIB, 256 * KIB, 0.4, 2 * MIB, 0, 0, 0),
            compute: ms(35),
            exec: java_exec(),
        },
        FunctionSpec {
            name: "image-pipeline",
            language: Java,
            chain_len: 4,
            kernel: K::Image,
            mem: mem(7 * MIB, 192 * KIB, 0.4, 1536 * KIB, 0, 0, 3 * MIB),
            compute: ms(20),
            exec: java_exec(),
        },
        FunctionSpec {
            name: "hotel-searching",
            language: Java,
            chain_len: 3,
            kernel: K::Search,
            mem: mem(38 * MIB, 64 * KIB, 0.35, 2 * MIB, 0, 0, 512 * KIB),
            compute: ms(25),
            exec: java_exec(),
        },
        FunctionSpec {
            name: "mapreduce",
            language: Java,
            chain_len: 2,
            kernel: K::WordCount,
            mem: mem(MIB, 64 * KIB, 0.10, MIB, 0, 0, 3 * MIB),
            compute: ms(18),
            exec: java_exec(),
        },
        FunctionSpec {
            name: "specjbb2015",
            language: Java,
            chain_len: 3,
            kernel: K::Transaction,
            mem: mem(8 * MIB, 48 * KIB, 0.4, 3 * MIB, 64 * KIB, 6 * MIB, MIB),
            compute: ms(30),
            exec: java_exec(),
        },
        // ---------------- JavaScript ----------------
        FunctionSpec {
            name: "clock",
            language: Js,
            chain_len: 1,
            kernel: K::Time,
            mem: mem(64 * KIB, 4 * KIB, 0.2, 128 * KIB, 0, 0, 0),
            compute: ms(1),
            exec: js_exec(0.3),
        },
        FunctionSpec {
            name: "dynamic-html",
            language: Js,
            chain_len: 1,
            kernel: K::Html,
            mem: mem(2304 * KIB, 16 * KIB, 0.4, 300 * KIB, 0, 0, 0),
            compute: ms(5),
            exec: js_exec(0.4),
        },
        FunctionSpec {
            name: "factor",
            language: Js,
            chain_len: 1,
            kernel: K::Factor,
            mem: mem(1536 * KIB, 16 * KIB, 0.3, 100 * KIB, 0, 0, 0),
            compute: ms(30),
            exec: js_exec(0.4),
        },
        FunctionSpec {
            name: "fft",
            language: Js,
            chain_len: 1,
            kernel: K::Fft,
            mem: mem(18 * MIB, 32 * KIB, 0.7, 600 * KIB, 0, 0, 0),
            compute: ms(22),
            exec: js_exec(0.5),
        },
        FunctionSpec {
            name: "fibonacci",
            language: Js,
            chain_len: 1,
            kernel: K::Fibonacci,
            mem: mem(768 * KIB, 8 * KIB, 0.3, 64 * KIB, 0, 0, 0),
            compute: ms(15),
            exec: js_exec(0.3),
        },
        FunctionSpec {
            name: "filesystem",
            language: Js,
            chain_len: 1,
            kernel: K::Hash,
            mem: mem(3 * MIB, 32 * KIB, 0.35, 200 * KIB, 0, 0, 0),
            compute: ms(8),
            exec: js_exec(0.4),
        },
        FunctionSpec {
            name: "matrix",
            language: Js,
            chain_len: 1,
            kernel: K::Matrix,
            mem: mem(10 * MIB, 64 * KIB, 0.6, MIB, 0, 0, 0),
            compute: ms(28),
            exec: js_exec(0.5),
        },
        FunctionSpec {
            name: "pi",
            language: Js,
            chain_len: 1,
            kernel: K::Pi,
            mem: mem(640 * KIB, 8 * KIB, 0.3, 64 * KIB, 0, 0, 0),
            compute: ms(35),
            exec: js_exec(0.3),
        },
        FunctionSpec {
            name: "unionfind",
            language: Js,
            chain_len: 1,
            kernel: K::UnionFind,
            mem: mem(4608 * KIB, 32 * KIB, 0.5, 2 * MIB, 32 * KIB, 2 * MIB, 0),
            compute: ms(15),
            // §5.6: 1.74× slowdown when its JIT code is collected.
            exec: js_exec(0.74),
        },
        FunctionSpec {
            name: "web-server",
            language: Js,
            chain_len: 1,
            kernel: K::Html,
            mem: mem(2 * MIB, 16 * KIB, 0.4, 3 * MIB, 16 * KIB, 3 * MIB, 0),
            compute: ms(5),
            exec: js_exec(0.4),
        },
        FunctionSpec {
            name: "data-analysis",
            language: Js,
            chain_len: 6,
            kernel: K::Aggregate,
            mem: mem(6 * MIB, 48 * KIB, 0.5, MIB, 0, 0, 2 * MIB),
            compute: ms(12),
            // §5.6: 2.14× slowdown when its JIT code is collected.
            exec: js_exec(1.14),
        },
        FunctionSpec {
            name: "alexa",
            language: Js,
            chain_len: 8,
            kernel: K::Search,
            mem: mem(3 * MIB, 24 * KIB, 0.4, 800 * KIB, 0, 0, 512 * KIB),
            compute: ms(8),
            exec: js_exec(0.4),
        },
    ]
}

/// Looks a function up by its Table-1 name.
pub fn by_name(name: &str) -> Option<FunctionSpec> {
    catalog().into_iter().find(|f| f.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_matches_table_1() {
        let fns = catalog();
        assert_eq!(fns.len(), 20);
        let count = |lang| fns.iter().filter(|f| f.language == lang).count();
        assert_eq!(count(Language::Java), 8);
        assert_eq!(count(Language::JavaScript), 12);
        for f in &fns {
            f.validate();
        }
        // Chain lengths from Table 1.
        for (name, len) in [
            ("image-pipeline", 4),
            ("hotel-searching", 3),
            ("mapreduce", 2),
            ("specjbb2015", 3),
            ("data-analysis", 6),
            ("alexa", 8),
        ] {
            assert_eq!(by_name(name).unwrap().chain_len, len, "{name}");
        }
    }

    #[test]
    fn names_are_unique() {
        let fns = catalog();
        let mut names: Vec<_> = fns.iter().map(|f| f.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), fns.len());
    }

    #[test]
    fn deopt_sensitive_functions_are_marked() {
        assert!(by_name("data-analysis").unwrap().exec.deopt_sensitivity > 1.0);
        assert!(by_name("unionfind").unwrap().exec.deopt_sensitivity > 0.7);
    }

    #[test]
    fn nominal_durations_scale_with_chain() {
        let mr = by_name("mapreduce").unwrap();
        let single = by_name("file-hash").unwrap();
        assert!(mr.nominal_duration(0.14) > single.nominal_duration(0.14));
    }
}
