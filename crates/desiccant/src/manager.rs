//! The Desiccant manager: activation, selection, feedback.

use faas::{FrozenView, InstanceId, MemoryManager, ReclaimProfile};
use simos::SimTime;

use crate::config::{DesiccantConfig, SelectionPolicy};
use crate::profile::ProfileStore;

/// Desiccant's own counters (the platform separately accounts the CPU
/// its reclamations consume).
#[derive(Debug, Clone, Copy, Default)]
pub struct DesiccantStats {
    /// Sweeps where the activation condition held.
    pub activations: u64,
    /// Sweeps where it did not.
    pub idle_sweeps: u64,
    /// Reclamations requested.
    pub reclaims_requested: u64,
    /// Evictions observed (what drives the threshold down).
    pub evictions_seen: u64,
    /// Reclamation failures reported by the platform; the affected
    /// instances are deprioritized until they reclaim successfully.
    pub reclaim_failures_seen: u64,
}

/// The freeze-aware memory manager (see the crate docs).
#[derive(Debug, Clone)]
pub struct Desiccant {
    config: DesiccantConfig,
    profiles: ProfileStore,
    threshold: f64,
    stats: DesiccantStats,
}

impl Desiccant {
    /// Creates a manager with the given configuration.
    pub fn new(config: DesiccantConfig) -> Desiccant {
        config.validate();
        Desiccant {
            config,
            profiles: ProfileStore::new(),
            threshold: config.low_threshold,
            stats: DesiccantStats::default(),
        }
    }

    /// The current activation threshold (fraction of the cache budget
    /// that frozen instances may occupy before reclamation starts).
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Counters.
    pub fn stats(&self) -> DesiccantStats {
        self.stats
    }

    /// The profile store (for inspection in tests and harnesses).
    pub fn profiles(&self) -> &ProfileStore {
        &self.profiles
    }
}

impl MemoryManager for Desiccant {
    fn name(&self) -> &'static str {
        "desiccant"
    }

    fn select_reclaims(
        &mut self,
        now: SimTime,
        cache_budget: u64,
        cache_used: u64,
        frozen: &[FrozenView],
    ) -> Vec<InstanceId> {
        // Activation (§4.2): the platform is under memory pressure and
        // frozen instances hold reclaimable memory. Pressure is judged
        // on total cache occupancy (running instances reserve their
        // budget; frozen ones are charged their measured USS).
        let frozen_used: u64 = frozen.iter().map(|f| f.charge).sum();
        let active = frozen_used > 0
            && cache_used.max(frozen_used) as f64 > self.threshold * cache_budget as f64;
        if !active {
            self.stats.idle_sweeps += 1;
            if self.config.dynamic_threshold {
                self.threshold =
                    (self.threshold + self.config.threshold_step).min(self.config.high_threshold);
            }
            return Vec::new();
        }
        self.stats.activations += 1;

        // Candidates: frozen long enough, not already reclaimed since
        // their last use, and not marked as reclaim-failed — those are
        // left to the platform's LRU eviction (graceful degradation).
        let mut candidates: Vec<&FrozenView> = frozen
            .iter()
            .filter(|f| {
                !f.reclaimed
                    && !self.profiles.is_failed(f.id)
                    && now.saturating_since(f.frozen_since) >= self.config.freeze_timeout
            })
            .collect();

        match self.config.selection {
            SelectionPolicy::Throughput => {
                let mut scored: Vec<(f64, &FrozenView)> = candidates
                    .iter()
                    .map(|f| {
                        let est = self.profiles.estimate(f.id, f.function, f.heap_resident);
                        (est.throughput, *f)
                    })
                    .filter(|(thr, _)| *thr > 0.0)
                    .collect();
                scored.sort_by(|a, b| {
                    b.0.total_cmp(&a.0).then(a.1.id.cmp(&b.1.id))
                });
                candidates = scored.into_iter().map(|(_, f)| f).collect();
            }
            SelectionPolicy::OldestFrozen => {
                candidates.sort_by_key(|f| (f.frozen_since, f.id));
            }
            SelectionPolicy::Unordered => {}
        }

        let picks: Vec<InstanceId> = candidates
            .into_iter()
            .take(self.config.max_reclaims_per_sweep)
            .map(|f| f.id)
            .collect();
        self.stats.reclaims_requested += picks.len() as u64;
        picks
    }

    fn note_eviction(&mut self, _now: SimTime, _function: &str) {
        self.stats.evictions_seen += 1;
        if self.config.dynamic_threshold {
            // §4.5.1: evictions mean the platform is short on memory —
            // snap the threshold down so reclamation kicks in earlier.
            self.threshold = self.config.low_threshold;
        }
    }

    fn note_destroyed(&mut self, id: InstanceId) {
        self.profiles.drop_instance(id);
    }

    fn note_reclaimed(
        &mut self,
        _now: SimTime,
        id: InstanceId,
        function: &str,
        profile: ReclaimProfile,
    ) {
        self.profiles.record(id, function, &profile);
    }

    fn note_reclaim_failed(&mut self, _now: SimTime, id: InstanceId, _function: &str) {
        self.stats.reclaim_failures_seen += 1;
        self.profiles.mark_failed(id);
    }

    fn keep_weak(&self) -> bool {
        self.config.keep_weak
    }

    fn unmap_libs(&self) -> bool {
        self.config.unmap_libs
    }

    fn snapshot_state(&self) -> Vec<u8> {
        use snapshot::Snapshot;
        let Desiccant {
            // Constructor-provided, not state: the restoring manager
            // must already carry the same configuration.
            config: _,
            profiles,
            threshold,
            stats,
        } = self;
        let mut w = snapshot::Writer::new();
        profiles.snap(&mut w);
        threshold.snap(&mut w);
        stats.snap(&mut w);
        w.into_bytes()
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), snapshot::SnapError> {
        use snapshot::Snapshot;
        let mut r = snapshot::Reader::new(bytes);
        let profiles = ProfileStore::restore(&mut r)?;
        let threshold = f64::restore(&mut r)?;
        let stats = DesiccantStats::restore(&mut r)?;
        r.finish()?;
        if !threshold.is_finite()
            || threshold < self.config.low_threshold
            || threshold > self.config.high_threshold
        {
            return Err(snapshot::SnapError::Corrupt(
                "Desiccant threshold outside configured band",
            ));
        }
        self.profiles = profiles;
        self.threshold = threshold;
        self.stats = stats;
        Ok(())
    }
}

snapshot::record!(DesiccantStats {
    activations: u64,
    idle_sweeps: u64,
    reclaims_requested: u64,
    evictions_seen: u64,
    reclaim_failures_seen: u64,
});

#[cfg(test)]
mod tests {
    use super::*;
    use simos::SimDuration;

    fn view(
        id: u64,
        function: &'static str,
        frozen_ms: u64,
        heap_resident: u64,
        charge: u64,
    ) -> FrozenView {
        FrozenView {
            id: InstanceId(id),
            function,
            stage: 0,
            frozen_since: SimTime(frozen_ms * 1_000_000),
            heap_resident,
            charge,
            reclaimed: false,
        }
    }

    fn profile(live: u64, cpu_ms: u64) -> ReclaimProfile {
        ReclaimProfile {
            live_bytes: live,
            released_bytes: 0,
            cpu_time: SimDuration::from_millis(cpu_ms),
        }
    }

    const GIB: u64 = 1 << 30;

    #[test]
    fn inactive_below_threshold() {
        let mut d = Desiccant::new(DesiccantConfig::default());
        // 100 MiB frozen in a 2 GiB cache: far below 60 %.
        let frozen = vec![view(1, "fft", 0, 80 << 20, 100 << 20)];
        let picks = d.select_reclaims(SimTime(10_000_000_000), 2 * GIB, 300 << 20, &frozen);
        assert!(picks.is_empty());
        assert_eq!(d.stats().idle_sweeps, 1);
    }

    #[test]
    fn activates_over_threshold_and_respects_timeout() {
        let mut d = Desiccant::new(DesiccantConfig::default());
        let now = SimTime(10_000_000_000);
        let frozen = vec![
            // Frozen long ago: candidate.
            view(1, "fft", 0, 300 << 20, 700 << 20),
            // Frozen 100 ms ago: below the 1 s timeout.
            view(2, "fft", 9_900, 300 << 20, 700 << 20),
        ];
        let picks = d.select_reclaims(now, 2 * GIB, 14 * (100 << 20), &frozen);
        assert_eq!(picks, vec![InstanceId(1)]);
    }

    #[test]
    fn threshold_drops_on_eviction_and_drifts_back() {
        let mut d = Desiccant::new(DesiccantConfig::default());
        let start = d.threshold();
        // Idle sweeps raise it.
        for i in 0..20 {
            d.select_reclaims(SimTime(i), 2 * GIB, 0, &[]);
        }
        assert!(d.threshold() > start);
        d.note_eviction(SimTime(100), "fft");
        assert!((d.threshold() - 0.60).abs() < 1e-9);
    }

    #[test]
    fn static_threshold_never_moves() {
        let mut d = Desiccant::new(DesiccantConfig {
            dynamic_threshold: false,
            ..DesiccantConfig::default()
        });
        for i in 0..10 {
            d.select_reclaims(SimTime(i), 2 * GIB, 0, &[]);
        }
        d.note_eviction(SimTime(100), "fft");
        assert!((d.threshold() - 0.60).abs() < 1e-9);
    }

    #[test]
    fn throughput_selection_prefers_most_reclaimable() {
        let mut d = Desiccant::new(DesiccantConfig {
            max_reclaims_per_sweep: 1,
            ..DesiccantConfig::default()
        });
        // Teach the store: "fat" releases a lot quickly, "lean" barely
        // anything slowly.
        d.note_reclaimed(SimTime(0), InstanceId(1), "fat", profile(10 << 20, 5));
        d.note_reclaimed(SimTime(0), InstanceId(2), "lean", profile(90 << 20, 50));
        let now = SimTime(10_000_000_000);
        let frozen = vec![
            view(20, "lean", 0, 100 << 20, 700 << 20),
            view(10, "fat", 0, 100 << 20, 700 << 20),
        ];
        let picks = d.select_reclaims(now, 2 * GIB, 1400 << 20, &frozen);
        assert_eq!(picks, vec![InstanceId(10)], "fat instance reclaims 9× more per cpu-second");
    }

    #[test]
    fn already_reclaimed_instances_are_skipped() {
        let mut d = Desiccant::new(DesiccantConfig::default());
        let now = SimTime(10_000_000_000);
        let mut v = view(1, "fft", 0, 300 << 20, 1400 << 20);
        v.reclaimed = true;
        let picks = d.select_reclaims(now, 2 * GIB, 1400 << 20, &[v]);
        assert!(picks.is_empty());
    }

    #[test]
    fn batch_limit_is_enforced() {
        let mut d = Desiccant::new(DesiccantConfig {
            max_reclaims_per_sweep: 2,
            ..DesiccantConfig::default()
        });
        let now = SimTime(10_000_000_000);
        let frozen: Vec<FrozenView> = (0..8)
            .map(|i| view(i, "fft", 0, 200 << 20, 200 << 20))
            .collect();
        let picks = d.select_reclaims(now, 2 * GIB, 1600 << 20, &frozen);
        assert_eq!(picks.len(), 2);
    }

    #[test]
    fn reclaim_failed_instances_are_deprioritized_until_success() {
        let mut d = Desiccant::new(DesiccantConfig::default());
        let now = SimTime(10_000_000_000);
        let frozen = vec![view(1, "fft", 0, 300 << 20, 1400 << 20)];
        // Before any failure the instance is selectable.
        assert_eq!(
            d.select_reclaims(now, 2 * GIB, 1400 << 20, &frozen),
            vec![InstanceId(1)]
        );
        // After a failed reclaim it is skipped: LRU eviction handles
        // the pressure instead.
        d.note_reclaim_failed(now, InstanceId(1), "fft");
        assert_eq!(d.stats().reclaim_failures_seen, 1);
        assert!(d.select_reclaims(now, 2 * GIB, 1400 << 20, &frozen).is_empty());
        // A later successful reclaim rehabilitates it.
        d.note_reclaimed(now, InstanceId(1), "fft", profile(10 << 20, 5));
        assert_eq!(
            d.select_reclaims(now, 2 * GIB, 1400 << 20, &frozen),
            vec![InstanceId(1)]
        );
    }

    #[test]
    fn destroyed_instance_profiles_are_dropped() {
        let mut d = Desiccant::new(DesiccantConfig::default());
        d.note_reclaimed(SimTime(0), InstanceId(7), "f", profile(1 << 20, 10));
        assert_eq!(d.profiles().instances_profiled(), 1);
        d.note_destroyed(InstanceId(7));
        assert_eq!(d.profiles().instances_profiled(), 0);
    }
}
