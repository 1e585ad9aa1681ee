//! Std-only scoped-thread worker pool with input-order results.
//!
//! Everything parallel in this workspace runs the same shape of work:
//! a list of self-contained items (figure studies, cluster shards),
//! each computing its result without reading any other item's state.
//! That makes the work embarrassingly parallel, and it makes parallel
//! execution *exactly* reproducible: an item computes the same result
//! no matter which worker runs it or when, and [`run_jobs`] hands the
//! results back in input order, so every downstream consumer — stdout,
//! digests, barrier merges — is byte-identical between `--jobs 1` and
//! `--jobs N`.
//!
//! The pool is std-only: `std::thread::scope` workers pull item
//! indices from a shared atomic counter and write results into
//! per-item slots. This crate exists at the bottom of the dependency
//! graph so that both the figure harnesses (`bench::parallel`) and the
//! sharded cluster engine (`cluster`) can share the one audited
//! threading primitive — clippy's `disallowed-methods` (the root
//! `clippy.toml`) bans `thread::{spawn,scope}` everywhere else.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `f` over every item on `jobs` worker threads, returning results
/// in input order.
///
/// `jobs <= 1` (or a single item) degenerates to a plain serial loop on
/// the calling thread — exactly the pre-pool behaviour. A worker panic
/// propagates out of the scope and aborts the caller, as it would
/// serially.
pub fn run_jobs<I, T, F>(jobs: usize, items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    let jobs = jobs.max(1).min(items.len().max(1));
    if jobs == 1 {
        return items.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    // Uncontended per-item slots; Mutex (rather than OnceLock) keeps the
    // bound at `T: Send` without requiring `T: Sync`.
    let slots: Vec<Mutex<Option<T>>> = items.iter().map(|_| Mutex::new(None)).collect();
    #[allow(
        clippy::disallowed_methods,
        reason = "the one worker pool: results go back in input order at any job count"
    )]
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(idx) else { break };
                let result = f(item);
                // tidy:allow(panic-reachability) -- idx came from items.get(); slots is the same length. Poison means a sibling worker already panicked
                let prev = slots[idx].lock().expect("slot lock poisoned").replace(result);
                debug_assert!(prev.is_none(), "two workers claimed item {idx}");
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                // tidy:allow(panic-reachability) -- poison requires a worker panic, which already aborted the scope
                .expect("slot lock poisoned")
                // tidy:allow(panic-reachability) -- the claim counter hands every index to exactly one worker
                .expect("worker filled every slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_jobs_preserves_input_order() {
        let items: Vec<usize> = (0..257).collect();
        let doubled = run_jobs(8, &items, |&i| i * 2);
        assert_eq!(doubled, items.iter().map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn run_jobs_serial_and_empty_edge_cases() {
        let items = [1, 2, 3];
        assert_eq!(run_jobs(1, &items, |&i| i + 1), vec![2, 3, 4]);
        assert_eq!(run_jobs(0, &items, |&i| i + 1), vec![2, 3, 4]);
        let empty: [u32; 0] = [];
        assert!(run_jobs(4, &empty, |&i| i).is_empty());
    }

    #[test]
    fn run_jobs_works_with_interior_mutability_items() {
        // The cluster engine's usage shape: items carry `&Mutex<T>`
        // slots the worker mutates, results come back in input order.
        let cells: Vec<Mutex<u64>> = (0..32).map(Mutex::new).collect();
        let refs: Vec<&Mutex<u64>> = cells.iter().collect();
        let out = run_jobs(4, &refs, |cell| {
            let mut guard = cell.lock().expect("test lock");
            *guard += 1;
            *guard
        });
        assert_eq!(out, (1..=32).collect::<Vec<u64>>());
    }
}
