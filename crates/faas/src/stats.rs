//! Platform statistics: the Figure 9/10 metrics.

use simos::{SimDuration, SimTime};

use crate::histogram::LatencyHistogram;

/// Counters and distributions collected by the platform.
#[derive(Debug, Clone, Default)]
pub struct PlatformStats {
    /// Requests submitted.
    pub submitted: u64,
    /// Requests fully completed (all chain stages).
    pub completed: u64,
    /// Requests that terminated with a failure (retries exhausted,
    /// deadline exceeded, breaker open, or rejected outright).
    pub failed: u64,
    /// Cold boots that failed partway through startup.
    pub boot_failures: u64,
    /// Instances that crashed mid-stage (injected faults plus genuine
    /// runtime heap exhaustion).
    pub crashes: u64,
    /// Crashes caused by the managed heap exhausting its budget.
    pub heap_exhaustions: u64,
    /// Frozen instances killed by the cgroup OOM killer under cache
    /// overcommit.
    pub oom_kills: u64,
    /// Thaws that failed, losing the frozen instance (the request
    /// falls back to a cold boot transparently).
    pub thaw_failures: u64,
    /// Retry attempts scheduled after a failure.
    pub retries: u64,
    /// Requests that exhausted their retry budget.
    pub retry_gave_up: u64,
    /// Circuit-breaker trips (a function quarantined).
    pub breaker_trips: u64,
    /// Requests fast-failed by an open breaker.
    pub breaker_fast_fails: u64,
    /// Reclamations that failed (injected or genuine runtime errors);
    /// they burn the timeout's CPU but release nothing.
    pub reclaim_failures: u64,
    /// Cold boots rejected because the estimated footprint exceeds the
    /// entire cache budget (see `Platform::try_start_stage`).
    pub rejected_too_large: u64,
    /// Tolerated stale events (e.g. `ReclaimDone` for an instance
    /// evicted mid-reclaim).
    pub stale_events: u64,
    /// Instance acquisitions served by a frozen (warm) instance.
    pub warm_starts: u64,
    /// Instance acquisitions that required a cold boot.
    pub cold_boots: u64,
    /// Instances evicted (destroyed) under memory pressure.
    pub evictions: u64,
    /// Reclamations performed by the memory manager.
    pub reclamations: u64,
    /// Bytes released by reclamations.
    pub reclaimed_bytes: u64,
    /// End-to-end request latency.
    pub latency: LatencyHistogram,
    /// Busy core-nanoseconds spent executing functions.
    pub exec_core_ns: f64,
    /// Busy core-nanoseconds spent cold-booting.
    pub boot_core_ns: f64,
    /// Busy core-nanoseconds spent on exit-time eager GC.
    pub gc_core_ns: f64,
    /// Busy core-nanoseconds spent on reclamations.
    pub reclaim_core_ns: f64,
    /// When the statistics window started.
    pub window_start: SimTime,
}

impl PlatformStats {
    /// Total injected-or-genuine fault events of every class. Zero in
    /// any fault-free run — the standing regression check that the
    /// fault machinery stays inert by default.
    pub fn fault_events(&self) -> u64 {
        self.boot_failures
            + self.crashes
            + self.oom_kills
            + self.thaw_failures
            + self.reclaim_failures
    }

    /// Requests that have terminated, successfully or not.
    pub fn terminated(&self) -> u64 {
        self.completed + self.failed
    }

    /// Cold-boot fraction of all instance acquisitions.
    pub fn cold_boot_fraction(&self) -> f64 {
        let total = self.cold_boots + self.warm_starts;
        if total == 0 {
            0.0
        } else {
            self.cold_boots as f64 / total as f64
        }
    }

    /// Cold boots per second over the window ending at `now`.
    pub fn cold_boot_rate(&self, now: SimTime) -> f64 {
        let window = now.saturating_since(self.window_start).as_secs_f64();
        if window <= 0.0 {
            0.0
        } else {
            self.cold_boots as f64 / window
        }
    }

    /// Completed requests per second over the window ending at `now`.
    pub fn throughput(&self, now: SimTime) -> f64 {
        let window = now.saturating_since(self.window_start).as_secs_f64();
        if window <= 0.0 {
            0.0
        } else {
            self.completed as f64 / window
        }
    }

    /// Mean CPU utilization (0..=1) over the window ending at `now`,
    /// for a machine with `cores` cores.
    pub fn cpu_utilization(&self, now: SimTime, cores: f64) -> f64 {
        let window = now.saturating_since(self.window_start).as_nanos() as f64;
        if window <= 0.0 {
            return 0.0;
        }
        let busy = self.exec_core_ns + self.boot_core_ns + self.gc_core_ns + self.reclaim_core_ns;
        (busy / (cores * window)).min(1.0)
    }

    /// The reclamation share of CPU (the paper reports ≤ 6.2 %).
    pub fn reclaim_cpu_fraction(&self, now: SimTime, cores: f64) -> f64 {
        let window = now.saturating_since(self.window_start).as_nanos() as f64;
        if window <= 0.0 {
            return 0.0;
        }
        (self.reclaim_core_ns / (cores * window)).min(1.0)
    }

    /// Resets the window (used after warm-up, §5.3).
    pub fn reset(&mut self, now: SimTime) {
        *self = PlatformStats {
            window_start: now,
            ..PlatformStats::default()
        };
    }

    /// Records busy core time for one activity.
    pub(crate) fn record_core_time(&mut self, kind: CoreTimeKind, wall: SimDuration, cpus: f64) {
        let ns = wall.as_nanos() as f64 * cpus;
        match kind {
            CoreTimeKind::Exec => self.exec_core_ns += ns,
            CoreTimeKind::Boot => self.boot_core_ns += ns,
            CoreTimeKind::Gc => self.gc_core_ns += ns,
            CoreTimeKind::Reclaim => self.reclaim_core_ns += ns,
        }
    }
}

/// Kinds of busy core time.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CoreTimeKind {
    Exec,
    Boot,
    Gc,
    Reclaim,
}

snapshot::record!(PlatformStats {
    submitted: u64,
    completed: u64,
    failed: u64,
    boot_failures: u64,
    crashes: u64,
    heap_exhaustions: u64,
    oom_kills: u64,
    thaw_failures: u64,
    retries: u64,
    retry_gave_up: u64,
    breaker_trips: u64,
    breaker_fast_fails: u64,
    reclaim_failures: u64,
    rejected_too_large: u64,
    stale_events: u64,
    warm_starts: u64,
    cold_boots: u64,
    evictions: u64,
    reclamations: u64,
    reclaimed_bytes: u64,
    latency: LatencyHistogram,
    exec_core_ns: f64,
    boot_core_ns: f64,
    gc_core_ns: f64,
    reclaim_core_ns: f64,
    window_start: SimTime,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_divide_by_window() {
        let s = PlatformStats {
            cold_boots: 10,
            warm_starts: 30,
            completed: 40,
            ..PlatformStats::default()
        };
        let now = SimTime(20_000_000_000);
        assert!((s.cold_boot_rate(now) - 0.5).abs() < 1e-9);
        assert!((s.throughput(now) - 2.0).abs() < 1e-9);
        assert!((s.cold_boot_fraction() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn utilization_sums_components() {
        let mut s = PlatformStats::default();
        s.record_core_time(CoreTimeKind::Exec, SimDuration::from_secs(4), 1.0);
        s.record_core_time(CoreTimeKind::Boot, SimDuration::from_secs(2), 1.0);
        s.record_core_time(CoreTimeKind::Reclaim, SimDuration::from_secs(2), 0.5);
        let now = SimTime(10_000_000_000);
        // (4 + 2 + 1) busy core-seconds on 2 cores over 10 s = 0.35.
        assert!((s.cpu_utilization(now, 2.0) - 0.35).abs() < 1e-9);
        assert!((s.reclaim_cpu_fraction(now, 2.0) - 0.05).abs() < 1e-9);
    }

    #[test]
    fn reset_moves_window() {
        let mut s = PlatformStats {
            completed: 100,
            ..PlatformStats::default()
        };
        s.reset(SimTime(5_000_000_000));
        assert_eq!(s.completed, 0);
        assert_eq!(s.window_start, SimTime(5_000_000_000));
        assert_eq!(s.throughput(SimTime(5_000_000_000)), 0.0);
    }

    #[test]
    fn fault_events_sum_every_class() {
        let mut s = PlatformStats::default();
        assert_eq!(s.fault_events(), 0);
        s.boot_failures = 1;
        s.crashes = 2;
        s.oom_kills = 3;
        s.thaw_failures = 4;
        s.reclaim_failures = 5;
        assert_eq!(s.fault_events(), 15);
        s.completed = 7;
        s.failed = 2;
        assert_eq!(s.terminated(), 9);
    }

    #[test]
    fn zero_window_is_safe() {
        let s = PlatformStats::default();
        assert_eq!(s.throughput(SimTime::ZERO), 0.0);
        assert_eq!(s.cpu_utilization(SimTime::ZERO, 4.0), 0.0);
    }
}
