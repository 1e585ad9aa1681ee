//! Reclamation profiles and throughput estimation (§4.5.2).
//!
//! Two facts make the estimator work: live bytes at function exit are
//! stable (FaaS functions are near-stateless), and a tracing
//! collector's cost is proportional to live bytes — so both the numer
//! and denominator of the throughput formula can be estimated from a
//! few samples.

use std::collections::{BTreeMap, BTreeSet};

use faas::slab::{IdMap, Slab};
use faas::{InstanceId, ReclaimProfile};


/// A running mean over observed values.
#[derive(Debug, Clone, Copy, Default)]
struct RunningMean {
    sum: f64,
    n: u64,
}

impl RunningMean {
    fn push(&mut self, v: f64) {
        self.sum += v;
        self.n += 1;
    }

    fn mean(&self) -> Option<f64> {
        if self.n == 0 {
            None
        } else {
            Some(self.sum / self.n as f64)
        }
    }
}

/// Aggregated profile for one instance, function, or the whole fleet.
#[derive(Debug, Clone, Copy, Default)]
struct Profile {
    live_bytes: RunningMean,
    cpu_time_secs: RunningMean,
}

impl Profile {
    fn push(&mut self, p: &ReclaimProfile) {
        self.live_bytes.push(p.live_bytes as f64);
        self.cpu_time_secs.push(p.cpu_time.as_secs_f64().max(1e-9));
    }

    fn estimate(&self) -> Option<(f64, f64)> {
        Some((self.live_bytes.mean()?, self.cpu_time_secs.mean()?))
    }
}

/// An estimated reclamation throughput for a candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputEstimate {
    /// Expected bytes released.
    pub expected_release: f64,
    /// Expected CPU seconds.
    pub expected_cpu_secs: f64,
    /// `expected_release / expected_cpu_secs`.
    pub throughput: f64,
    /// True if no profile existed at any level (the estimate fell back
    /// to "assume everything above zero live bytes is reclaimable").
    pub unprofiled: bool,
}

/// The profile store: per-instance, per-function, and global averages,
/// consulted in that order (§4.5.2's "handling new instances").
#[derive(Debug, Clone, Default)]
pub struct ProfileStore {
    /// Per-instance profiles in a slab arena: the sweep's selection
    /// loop calls [`ProfileStore::estimate`] once per frozen instance,
    /// so the lookup is O(1) via `by_id` instead of a tree walk. The
    /// wire format is unchanged — snapshots still carry id-sorted
    /// `(id, profile)` rows.
    per_instance: Slab<(InstanceId, Profile)>,
    by_id: IdMap,
    per_function: BTreeMap<String, Profile>,
    global: Profile,
    /// Instances whose last reclamation failed: selection skips them
    /// until a successful reclaim (or destruction) clears the mark, so
    /// a wedged runtime degrades to plain LRU eviction instead of
    /// burning CPU on doomed retries.
    failed: BTreeSet<InstanceId>,
}

impl ProfileStore {
    /// Creates an empty store.
    pub fn new() -> ProfileStore {
        ProfileStore::default()
    }

    /// Records a completed reclamation's profile. A success clears any
    /// standing failure mark — the runtime evidently recovered.
    pub fn record(&mut self, id: InstanceId, function: &str, profile: &ReclaimProfile) {
        let h = match self.by_id.get(id) {
            Some(h) => h,
            None => {
                let h = self.per_instance.insert((id, Profile::default()));
                self.by_id.set(id, h);
                h
            }
        };
        if let Some((_, p)) = self.per_instance.get_mut(h) {
            p.push(profile);
        }
        self.per_function
            .entry(function.to_string())
            .or_default()
            .push(profile);
        self.global.push(profile);
        self.failed.remove(&id);
    }

    /// Marks `id` as having failed its last reclamation.
    pub fn mark_failed(&mut self, id: InstanceId) {
        self.failed.insert(id);
    }

    /// Whether `id`'s last reclamation failed.
    pub fn is_failed(&self, id: InstanceId) -> bool {
        self.failed.contains(&id)
    }

    /// Drops the per-instance profile of a destroyed instance.
    pub fn drop_instance(&mut self, id: InstanceId) {
        if let Some(h) = self.by_id.clear(id) {
            self.per_instance.remove(h);
        }
        self.failed.remove(&id);
    }

    /// Number of distinct instances with profiles.
    #[cfg(test)]
    pub(crate) fn instances_profiled(&self) -> usize {
        self.per_instance.len()
    }

    /// Estimates the reclamation throughput of an instance whose heap
    /// currently holds `heap_resident` bytes.
    pub fn estimate(
        &self,
        id: InstanceId,
        function: &str,
        heap_resident: u64,
    ) -> ThroughputEstimate {
        let (live, cpu, unprofiled) = self
            .by_id
            .get(id)
            .and_then(|h| self.per_instance.get(h))
            .and_then(|(_, p)| p.estimate())
            .or_else(|| self.per_function.get(function).and_then(Profile::estimate))
            .map(|(l, c)| (l, c, false))
            .or_else(|| self.global.estimate().map(|(l, c)| (l, c, false)))
            // Nothing profiled anywhere yet: assume everything is
            // reclaimable at a nominal cost so bootstrap happens.
            .unwrap_or((0.0, 0.010, true));
        let expected_release = (heap_resident as f64 - live).max(0.0);
        let expected_cpu_secs = cpu.max(1e-9);
        ThroughputEstimate {
            expected_release,
            expected_cpu_secs,
            throughput: expected_release / expected_cpu_secs,
            unprofiled,
        }
    }
}

mod snap_impls {
    use super::*;
    use snapshot::{Reader, SnapError, Snapshot, Writer};

    snapshot::record!(RunningMean { sum: f64, n: u64 });

    snapshot::record!(Profile {
        live_bytes: RunningMean,
        cpu_time_secs: RunningMean,
    });

    impl Snapshot for ProfileStore {
        // The per-instance slab is serialized as id-sorted
        // `(id, profile)` rows — byte-identical to the old
        // `BTreeMap<InstanceId, Profile>` wire format, so existing
        // checkpoint digests are unchanged.
        fn snap(&self, w: &mut Writer) {
            let Self {
                per_instance,
                by_id: _,
                per_function,
                global,
                failed,
            } = self;
            let mut rows: Vec<(InstanceId, &Profile)> =
                per_instance.iter().map(|(_, (id, p))| (*id, p)).collect();
            rows.sort_unstable_by_key(|(id, _)| *id);
            w.usize(rows.len());
            for (id, p) in rows {
                id.snap(w);
                p.snap(w);
            }
            per_function.snap(w);
            global.snap(w);
            failed.snap(w);
        }

        fn restore(r: &mut Reader<'_>) -> Result<ProfileStore, SnapError> {
            let n = r.seq_len()?;
            let mut per_instance = Slab::new();
            let mut by_id = IdMap::new();
            let mut prev: Option<InstanceId> = None;
            for _ in 0..n {
                let id = InstanceId::restore(r)?;
                if prev.is_some_and(|p| p >= id) {
                    return Err(SnapError::Corrupt("profile table not id-sorted"));
                }
                prev = Some(id);
                let p = Profile::restore(r)?;
                let h = per_instance.insert((id, p));
                by_id.set(id, h);
            }
            Ok(ProfileStore {
                per_instance,
                by_id,
                per_function: BTreeMap::restore(r)?,
                global: Profile::restore(r)?,
                failed: BTreeSet::restore(r)?,
            })
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use faas::ReclaimProfile;
        use simos::SimDuration;

        #[test]
        fn profile_store_round_trips() {
            let mut store = ProfileStore::new();
            store.record(
                InstanceId(3),
                "fft",
                &ReclaimProfile {
                    live_bytes: 5 << 20,
                    released_bytes: 20 << 20,
                    cpu_time: SimDuration::from_millis(12),
                },
            );
            store.mark_failed(InstanceId(9));
            let bytes = snapshot::encode(&store);
            let back: ProfileStore = snapshot::decode(&bytes).unwrap();
            assert_eq!(snapshot::encode(&back), bytes);
            assert!(back.is_failed(InstanceId(9)));
            assert_eq!(back.instances_profiled(), 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simos::SimDuration;

    fn profile(live_mb: u64, cpu_ms: u64) -> ReclaimProfile {
        ReclaimProfile {
            live_bytes: live_mb << 20,
            released_bytes: 0,
            cpu_time: SimDuration::from_millis(cpu_ms),
        }
    }

    #[test]
    fn estimate_prefers_instance_then_function_then_global() {
        let mut store = ProfileStore::new();
        let a = InstanceId(1);
        let b = InstanceId(2);
        store.record(a, "fft", &profile(2, 10));
        store.record(b, "sort", &profile(8, 40));

        // Instance-level profile wins for `a`.
        let est = store.estimate(a, "fft", 32 << 20);
        assert!((est.expected_release - (30 << 20) as f64).abs() < 1.0);
        assert!((est.expected_cpu_secs - 0.010).abs() < 1e-9);

        // Unknown instance of a known function uses the function mean.
        let est = store.estimate(InstanceId(9), "sort", 32 << 20);
        assert!((est.expected_release - (24 << 20) as f64).abs() < 1.0);
        assert!((est.expected_cpu_secs - 0.040).abs() < 1e-9);

        // Unknown function falls back to the global mean (live 5 MiB,
        // cpu 25 ms).
        let est = store.estimate(InstanceId(9), "matrix", 32 << 20);
        assert!((est.expected_release - (27 << 20) as f64).abs() < 1.0);
        assert!((est.expected_cpu_secs - 0.025).abs() < 1e-9);
        assert!(!est.unprofiled);
    }

    #[test]
    fn empty_store_bootstraps_optimistically() {
        let store = ProfileStore::new();
        let est = store.estimate(InstanceId(0), "fft", 16 << 20);
        assert!(est.unprofiled);
        assert!((est.expected_release - (16 << 20) as f64).abs() < 1.0);
        assert!(est.throughput > 0.0);
    }

    #[test]
    fn means_average_multiple_samples() {
        let mut store = ProfileStore::new();
        let id = InstanceId(3);
        store.record(id, "f", &profile(2, 10));
        store.record(id, "f", &profile(4, 30));
        let est = store.estimate(id, "f", 10 << 20);
        // Mean live = 3 MiB, mean cpu = 20 ms.
        assert!((est.expected_release - (7 << 20) as f64).abs() < 1.0);
        assert!((est.expected_cpu_secs - 0.020).abs() < 1e-9);
    }

    #[test]
    fn destroyed_instances_fall_back_to_function_profile() {
        let mut store = ProfileStore::new();
        let id = InstanceId(4);
        store.record(id, "f", &profile(2, 10));
        store.drop_instance(id);
        assert_eq!(store.instances_profiled(), 0);
        // Function-level knowledge survives.
        let est = store.estimate(id, "f", 10 << 20);
        assert!(!est.unprofiled);
        assert!((est.expected_release - (8 << 20) as f64).abs() < 1.0);
    }

    #[test]
    fn failure_marks_clear_on_success_or_destruction() {
        let mut store = ProfileStore::new();
        let a = InstanceId(8);
        let b = InstanceId(9);
        store.mark_failed(a);
        store.mark_failed(b);
        assert!(store.is_failed(a) && store.is_failed(b));
        assert_eq!(store.failed.len(), 2);
        // A later successful reclaim rehabilitates the instance.
        store.record(a, "f", &profile(2, 10));
        assert!(!store.is_failed(a));
        // Destruction clears the mark too (ids are never reused, but
        // the set must not grow without bound).
        store.drop_instance(b);
        assert!(!store.is_failed(b));
        assert_eq!(store.failed.len(), 0);
    }

    #[test]
    fn zero_resident_yields_zero_throughput() {
        let mut store = ProfileStore::new();
        store.record(InstanceId(5), "f", &profile(4, 10));
        let est = store.estimate(InstanceId(5), "f", 1 << 20);
        assert_eq!(est.expected_release, 0.0);
        assert_eq!(est.throughput, 0.0);
    }
}
