//! Deterministic fault injection.
//!
//! Real platforms operate under memory pressure where cold boots fail,
//! instances are OOM-killed mid-stage, and reclamations race thaws and
//! time out. The simulator models a fail-free world by default; this
//! module adds a *seeded, virtual-clock-driven* fault schedule on top:
//!
//! * a [`FaultPlan`] gives each fault class an independent probability,
//!   drawn at the corresponding lifecycle decision point (boot start,
//!   stage start, thaw, reclaim start, cache-charge increase);
//! * a [`FaultInjector`] owns a dedicated splitmix64 stream seeded from
//!   the plan, advanced **only** at decision points — never by the
//!   simulation itself — so a given `(plan, workload)` pair always
//!   produces the same fault schedule;
//! * when no plan is installed ([`crate::PlatformConfig::faults`] is
//!   `None`) the injector does not exist and no draw ever happens:
//!   the platform is byte-identical to a build without this module
//!   (pinned by `bench`'s golden-replay checksum test).

/// Per-decision-point fault probabilities, all in `[0, 1]`.
///
/// A probability of zero disables that fault class without disturbing
/// the draw sequence of the others (each decision point consumes
/// exactly one draw only when its class is enabled).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the injector's private random stream.
    pub seed: u64,
    /// A cold boot fails partway through container/runtime startup.
    pub boot_fail: f64,
    /// A running instance crashes mid-stage.
    pub crash: f64,
    /// Thawing (unpausing) a frozen instance fails; the instance is
    /// lost and the request falls back to a cold boot.
    pub thaw_fail: f64,
    /// A reclamation fails (runtime wedged / cgroup probe timeout):
    /// CPU is burned for the timeout but no memory is released.
    pub reclaim_fail: f64,
    /// Under cache overcommit, the cgroup OOM killer takes out the
    /// largest frozen instance.
    pub oom_kill: f64,
}

impl FaultPlan {
    /// A plan injecting every fault class at the same `rate`.
    pub fn uniform(seed: u64, rate: f64) -> FaultPlan {
        FaultPlan {
            seed,
            boot_fail: rate,
            crash: rate,
            thaw_fail: rate,
            reclaim_fail: rate,
            oom_kill: rate,
        }
    }

    /// A plan with every class disabled (useful to verify the fault
    /// machinery is inert: it must behave identically to no plan).
    pub fn disabled(seed: u64) -> FaultPlan {
        FaultPlan::uniform(seed, 0.0)
    }

    /// True if every fault class has probability zero.
    pub fn is_inert(&self) -> bool {
        self.boot_fail == 0.0
            && self.crash == 0.0
            && self.thaw_fail == 0.0
            && self.reclaim_fail == 0.0
            && self.oom_kill == 0.0
    }

    /// Sanity checks.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]` or not finite.
    pub fn validate(&self) {
        for (name, p) in [
            ("boot_fail", self.boot_fail),
            ("crash", self.crash),
            ("thaw_fail", self.thaw_fail),
            ("reclaim_fail", self.reclaim_fail),
            ("oom_kill", self.oom_kill),
        ] {
            assert!(
                p.is_finite() && (0.0..=1.0).contains(&p),
                "fault probability {name} = {p} outside [0, 1]"
            );
        }
    }
}

/// The seeded fault stream: decides, at each lifecycle decision point,
/// whether the planned fault fires.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    state: Stream,
}

/// The private splitmix64 stream behind every seeded schedule in this
/// module. Its one word of state is the whole cursor; splitmix64
/// tolerates any seed, including zero.
#[derive(Debug, Clone, Copy)]
struct Stream(u64);

impl Stream {
    /// One step of the stream.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// One Bernoulli draw with probability `p`. `p == 0` consumes no
    /// randomness, so disabling one fault class does not shift the
    /// schedule of the others.
    fn roll(&mut self, p: f64) -> bool {
        p > 0.0 && self.unit() < p
    }
}

impl FaultInjector {
    /// Creates an injector over `plan` (validated).
    pub fn new(plan: FaultPlan) -> FaultInjector {
        plan.validate();
        FaultInjector {
            plan,
            state: Stream(plan.seed),
        }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// A uniform fraction in `[0.1, 0.9)` — the point within a boot or
    /// stage at which an injected failure strikes.
    fn strike_point(&mut self) -> f64 {
        0.1 + 0.8 * self.state.unit()
    }

    /// Decides whether the cold boot starting now fails; `Some(frac)`
    /// is the fraction of the boot time spent before the failure.
    pub fn boot_fails(&mut self) -> Option<f64> {
        if self.state.roll(self.plan.boot_fail) {
            Some(self.strike_point())
        } else {
            None
        }
    }

    /// Decides whether the stage starting now crashes; `Some(frac)` is
    /// the fraction of the stage wall time before the crash.
    pub fn stage_crashes(&mut self) -> Option<f64> {
        if self.state.roll(self.plan.crash) {
            Some(self.strike_point())
        } else {
            None
        }
    }

    /// Decides whether this thaw fails (losing the instance).
    pub fn thaw_fails(&mut self) -> bool {
        self.state.roll(self.plan.thaw_fail)
    }

    /// Decides whether the reclamation starting now fails.
    pub fn reclaim_fails(&mut self) -> bool {
        self.state.roll(self.plan.reclaim_fail)
    }

    /// Decides whether the OOM killer fires for the current overcommit.
    pub fn oom_strikes(&mut self) -> bool {
        self.state.roll(self.plan.oom_kill)
    }
}

mod snap_impls {
    use super::*;
    use snapshot::{Reader, SnapError, Snapshot, Writer};

    impl Snapshot for FaultPlan {
        fn snap(&self, w: &mut Writer) {
            let Self {
                seed,
                boot_fail,
                crash,
                thaw_fail,
                reclaim_fail,
                oom_kill,
            } = self;
            seed.snap(w);
            boot_fail.snap(w);
            crash.snap(w);
            thaw_fail.snap(w);
            reclaim_fail.snap(w);
            oom_kill.snap(w);
        }

        fn restore(r: &mut Reader<'_>) -> Result<FaultPlan, SnapError> {
            let plan = FaultPlan {
                seed: u64::restore(r)?,
                boot_fail: f64::restore(r)?,
                crash: f64::restore(r)?,
                thaw_fail: f64::restore(r)?,
                reclaim_fail: f64::restore(r)?,
                oom_kill: f64::restore(r)?,
            };
            for p in [
                plan.boot_fail,
                plan.crash,
                plan.thaw_fail,
                plan.reclaim_fail,
                plan.oom_kill,
            ] {
                if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                    return Err(SnapError::Corrupt("fault probability outside [0, 1]"));
                }
            }
            Ok(plan)
        }
    }

    // The stream cursor must survive, and `FaultPlan::restore`
    // already re-checks the ranges `FaultInjector::new` would assert.
    // On the wire the cursor is its one `u64`.
    snapshot::record!(Stream(u64));
    snapshot::record!(FaultInjector { plan: FaultPlan, state: Stream });

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn injector_snapshot_preserves_stream_position() {
            let mut a = FaultInjector::new(FaultPlan::uniform(77, 0.4));
            for _ in 0..137 {
                a.thaw_fails();
            }
            let bytes = snapshot::encode(&a);
            let mut b: FaultInjector = snapshot::decode(&bytes).unwrap();
            for _ in 0..500 {
                assert_eq!(a.boot_fails(), b.boot_fails());
                assert_eq!(a.oom_strikes(), b.oom_strikes());
            }
        }

        #[test]
        fn crash_plan_schedules() {
            let once = CrashPlan::at(100);
            assert_eq!(once.next_after(0), Some(100));
            assert_eq!(once.next_after(99), Some(100));
            assert_eq!(once.next_after(100), None);
            let periodic = CrashPlan::every(50);
            assert_eq!(periodic.next_after(0), Some(50));
            assert_eq!(periodic.next_after(50), Some(100));
            assert_eq!(periodic.next_after(149), Some(150));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let mut a = FaultInjector::new(FaultPlan::uniform(7, 0.3));
        let mut b = FaultInjector::new(FaultPlan::uniform(7, 0.3));
        for _ in 0..1000 {
            assert_eq!(a.boot_fails(), b.boot_fails());
            assert_eq!(a.stage_crashes(), b.stage_crashes());
            assert_eq!(a.thaw_fails(), b.thaw_fails());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FaultInjector::new(FaultPlan::uniform(1, 0.5));
        let mut b = FaultInjector::new(FaultPlan::uniform(2, 0.5));
        let hits = |inj: &mut FaultInjector| -> Vec<bool> {
            (0..256).map(|_| inj.thaw_fails()).collect()
        };
        assert_ne!(hits(&mut a), hits(&mut b));
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let mut inj = FaultInjector::new(FaultPlan::uniform(42, 0.25));
        let n = 100_000;
        let hits = (0..n).filter(|_| inj.reclaim_fails()).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.01, "observed rate {rate}");
    }

    #[test]
    fn zero_rate_consumes_no_randomness() {
        let mut a = FaultInjector::new(FaultPlan {
            crash: 0.0,
            ..FaultPlan::uniform(9, 0.5)
        });
        let mut b = FaultInjector::new(FaultPlan {
            crash: 0.0,
            ..FaultPlan::uniform(9, 0.5)
        });
        // Interleave disabled draws on `a` only; enabled draws must
        // still agree, because disabled classes touch no state.
        let mut seq_a = Vec::new();
        let mut seq_b = Vec::new();
        for _ in 0..100 {
            assert!(a.stage_crashes().is_none());
            seq_a.push(a.thaw_fails());
            seq_b.push(b.thaw_fails());
        }
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn strike_points_stay_in_range() {
        let mut inj = FaultInjector::new(FaultPlan::uniform(3, 1.0));
        for _ in 0..1000 {
            let f = inj.boot_fails().expect("rate 1.0 always fires");
            assert!((0.1..0.9).contains(&f));
        }
    }

    #[test]
    #[should_panic]
    fn out_of_range_probability_rejected() {
        FaultPlan {
            crash: 1.5,
            ..FaultPlan::disabled(0)
        }
        .validate();
    }

    #[test]
    fn inertness_predicate() {
        assert!(FaultPlan::disabled(5).is_inert());
        assert!(!FaultPlan::uniform(5, 0.1).is_inert());
    }
}

/// A deterministic *kill schedule* for crash-recovery testing: the
/// platform is killed (its event loop aborted mid-run) once it has
/// handled a given number of events, either once or periodically.
///
/// Unlike the probabilistic [`FaultPlan`] classes — which the platform
/// absorbs and retries — a `CrashPlan` models losing the whole process:
/// the driver is expected to restore the latest checkpoint, replay its
/// journal, and continue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    first: u64,
    every: Option<u64>,
}

impl CrashPlan {
    /// Kill once, after `n` handled events.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero (the run would die before doing anything).
    pub fn at(n: u64) -> CrashPlan {
        assert!(n > 0, "crash point must be positive");
        CrashPlan { first: n, every: None }
    }

    /// Kill after every `n` handled events (at `n`, `2n`, `3n`, ...).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn every(n: u64) -> CrashPlan {
        assert!(n > 0, "crash interval must be positive");
        CrashPlan {
            first: n,
            every: Some(n),
        }
    }

    /// The smallest scheduled crash point strictly greater than
    /// `handled`, or `None` when the schedule is exhausted.
    pub fn next_after(&self, handled: u64) -> Option<u64> {
        match self.every {
            None => (self.first > handled).then_some(self.first),
            Some(step) => {
                let periods = handled / step + 1;
                periods.checked_mul(step)
            }
        }
    }
}

/// How a checkpoint write to the simulated durable store is corrupted.
///
/// Each variant models one real failure of a non-atomic multi-write
/// checkpoint protocol; the framed container format
/// ([`snapshot::frame`]) is designed so every one of them is detected
/// at open time rather than silently restored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageFault {
    /// The write is torn at a frame boundary: a clean prefix of whole
    /// frames persists, the commit record is lost.
    TornWrite,
    /// The object is cut at an arbitrary byte offset — a ragged tail
    /// that may end mid-frame.
    Truncate,
    /// A single bit flips at a (seeded or pinned) byte offset.
    BitFlip,
    /// The body persists but the trailing commit record is the
    /// *previous* checkpoint's — a stale commit spliced over new
    /// frames, as when the commit sector write is reordered and lost.
    StaleCommit,
}

impl StorageFault {
    /// Short name for diagnostics and panic messages.
    pub fn name(&self) -> &'static str {
        match self {
            StorageFault::TornWrite => "torn-write",
            StorageFault::Truncate => "truncate",
            StorageFault::BitFlip => "bit-flip",
            StorageFault::StaleCommit => "stale-commit",
        }
    }
}

/// Per-class probabilities of corrupting one checkpoint write, plus an
/// optional pinned corruption offset. All probabilities in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageFaultPlan {
    /// Seed of the private splitmix64 stream.
    pub seed: u64,
    /// Probability the write is torn at a frame boundary.
    pub torn_write: f64,
    /// Probability the write is cut at an arbitrary byte offset.
    pub truncate: f64,
    /// Probability one bit flips.
    pub bit_flip: f64,
    /// Probability the commit record is the previous checkpoint's.
    pub stale_commit: f64,
    /// When set, a bit flip strikes at exactly this byte offset
    /// (clamped to the object) instead of a drawn one.
    pub corrupt_at: Option<u64>,
}

impl StorageFaultPlan {
    /// A plan corrupting writes with every class at the same `rate`.
    pub fn uniform(seed: u64, rate: f64) -> StorageFaultPlan {
        StorageFaultPlan {
            seed,
            torn_write: rate,
            truncate: rate,
            bit_flip: rate,
            stale_commit: rate,
            corrupt_at: None,
        }
    }

    /// A plan injecting only frame-boundary torn writes at `rate`.
    pub fn torn(seed: u64, rate: f64) -> StorageFaultPlan {
        StorageFaultPlan {
            torn_write: rate,
            ..StorageFaultPlan::uniform(seed, 0.0)
        }
    }

    /// A plan flipping one bit of *every* write at byte `offset`.
    pub fn corrupt_at(seed: u64, offset: u64) -> StorageFaultPlan {
        StorageFaultPlan {
            bit_flip: 1.0,
            corrupt_at: Some(offset),
            ..StorageFaultPlan::uniform(seed, 0.0)
        }
    }

    /// True if every class has probability zero.
    pub fn is_inert(&self) -> bool {
        self.torn_write == 0.0
            && self.truncate == 0.0
            && self.bit_flip == 0.0
            && self.stale_commit == 0.0
    }

    /// Sanity checks.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]` or not finite.
    pub fn validate(&self) {
        for (name, p) in [
            ("torn_write", self.torn_write),
            ("truncate", self.truncate),
            ("bit_flip", self.bit_flip),
            ("stale_commit", self.stale_commit),
        ] {
            assert!(
                p.is_finite() && (0.0..=1.0).contains(&p),
                "storage fault probability {name} = {p} outside [0, 1]"
            );
        }
    }
}

/// The seeded storage fault stream: decides, at each checkpoint write,
/// whether and how the write is corrupted. Classes are drawn in a
/// fixed order (torn, truncate, flip, stale) and the first that fires
/// wins; zero-probability classes consume no randomness, so disabling
/// one does not shift the schedule of the others.
#[derive(Debug, Clone)]
pub struct StorageFaultInjector {
    plan: StorageFaultPlan,
    state: Stream,
}

impl StorageFaultInjector {
    /// Creates an injector over `plan` (validated).
    pub fn new(plan: StorageFaultPlan) -> StorageFaultInjector {
        plan.validate();
        StorageFaultInjector {
            plan,
            state: Stream(plan.seed),
        }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &StorageFaultPlan {
        &self.plan
    }

    /// Decides the fate of the checkpoint write happening now.
    pub fn next_fault(&mut self) -> Option<StorageFault> {
        for (fault, p) in [
            (StorageFault::TornWrite, self.plan.torn_write),
            (StorageFault::Truncate, self.plan.truncate),
            (StorageFault::BitFlip, self.plan.bit_flip),
            (StorageFault::StaleCommit, self.plan.stale_commit),
        ] {
            if self.state.roll(p) {
                return Some(fault);
            }
        }
        None
    }

    /// A uniform index in `[0, n)`; `n` must be nonzero.
    pub fn pick_index(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0, "pick_index over an empty range");
        self.state.next_u64() % n.max(1)
    }
}

#[cfg(test)]
mod storage_tests {
    use super::*;

    #[test]
    fn storage_schedule_is_deterministic() {
        let mut a = StorageFaultInjector::new(StorageFaultPlan::uniform(9, 0.4));
        let mut b = StorageFaultInjector::new(StorageFaultPlan::uniform(9, 0.4));
        for _ in 0..500 {
            assert_eq!(a.next_fault(), b.next_fault());
        }
    }

    #[test]
    fn inert_plan_never_faults() {
        let mut inj = StorageFaultInjector::new(StorageFaultPlan::uniform(3, 0.0));
        assert!(StorageFaultPlan::uniform(3, 0.0).is_inert());
        for _ in 0..100 {
            assert_eq!(inj.next_fault(), None);
        }
    }

    #[test]
    fn corrupt_at_plan_always_flips() {
        let plan = StorageFaultPlan::corrupt_at(1, 64);
        assert_eq!(plan.corrupt_at, Some(64));
        let mut inj = StorageFaultInjector::new(plan);
        for _ in 0..20 {
            assert_eq!(inj.next_fault(), Some(StorageFault::BitFlip));
        }
    }

    #[test]
    #[should_panic]
    fn storage_plan_rejects_bad_probability() {
        StorageFaultPlan {
            torn_write: -0.5,
            ..StorageFaultPlan::uniform(0, 0.0)
        }
        .validate();
    }
}

// ---------------------------------------------------------------------------
// Fleet-level outage schedules
// ---------------------------------------------------------------------------

/// How a shard is unavailable during an [`OutageWindow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutageKind {
    /// The machine is off: nothing executes, state is frozen, and on
    /// heal the shard must re-admit itself from its durable checkpoint
    /// stream and catch up through its journal.
    Down,
    /// The machine keeps running but is unreachable from the router:
    /// no new work arrives and no barrier report gets out, yet
    /// in-flight work drains normally.
    Partitioned,
}

impl OutageKind {
    /// Short name for reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            OutageKind::Down => "down",
            OutageKind::Partitioned => "partitioned",
        }
    }
}

/// One contiguous span of barrier rounds during which one shard is
/// unavailable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutageWindow {
    /// The shard the window applies to.
    pub shard: u32,
    /// First dark round (round indices count completed barriers).
    pub start: u64,
    /// Number of consecutive dark rounds (must be positive).
    pub rounds: u64,
    /// Whether the shard is off or merely unreachable.
    pub kind: OutageKind,
    /// A *planned* window is announced one round ahead, giving the
    /// shard a chance to drain its warm set before going dark.
    pub planned: bool,
}

impl OutageWindow {
    fn covers(&self, shard: u32, round: u64) -> bool {
        self.shard == shard && round >= self.start && round - self.start < self.rounds
    }
}

/// A deterministic fleet outage schedule: per-shard windows of whole
/// barrier rounds during which the shard is [`OutageKind::Down`] or
/// [`OutageKind::Partitioned`].
///
/// The schedule is pure data, evaluated by round index — never by
/// wall clock or event count — so a cluster replaying it is
/// byte-identical at any worker count and under any kill schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OutagePlan {
    /// The windows, in whatever order they were declared.
    pub windows: Vec<OutageWindow>,
}

impl OutagePlan {
    /// A plan over explicit windows.
    pub fn new(windows: Vec<OutageWindow>) -> OutagePlan {
        OutagePlan { windows }
    }

    /// A seeded plan: `count` windows drawn from a private splitmix64
    /// stream, each hitting a uniform shard in `[0, shards)` for
    /// `1..=max_len` rounds starting somewhere in `[1, horizon)`.
    /// Kind and plannedness are drawn per window. Windows may overlap;
    /// [`OutagePlan::dark`] resolves overlaps with `Down` winning.
    ///
    /// # Panics
    ///
    /// Panics if `shards`, `horizon`, or `max_len` is zero.
    pub fn seeded(seed: u64, shards: u32, horizon: u64, count: usize, max_len: u64) -> OutagePlan {
        assert!(shards > 0, "a plan needs at least one shard");
        assert!(horizon > 1, "horizon must leave room for a window");
        assert!(max_len > 0, "windows must have positive length");
        let mut stream = Stream(seed);
        let windows = (0..count)
            .map(|_| {
                let shard = (stream.next_u64() % u64::from(shards)) as u32;
                let start = 1 + stream.next_u64() % (horizon - 1);
                let rounds = 1 + stream.next_u64() % max_len;
                let draw = stream.next_u64();
                let kind = if draw & 1 == 0 { OutageKind::Down } else { OutageKind::Partitioned };
                let planned = kind == OutageKind::Down && draw & 2 == 0;
                OutageWindow { shard, start, rounds, kind, planned }
            })
            .collect();
        OutagePlan { windows }
    }

    /// True when no window exists.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// How `shard` is unavailable at `round`, or `None` when it is
    /// reachable. Overlapping windows resolve with `Down` winning —
    /// a machine that is off is off, whatever else the schedule says.
    pub fn dark(&self, shard: u32, round: u64) -> Option<OutageKind> {
        let mut hit = None;
        for w in &self.windows {
            if w.covers(shard, round) {
                if w.kind == OutageKind::Down {
                    return Some(OutageKind::Down);
                }
                hit = Some(OutageKind::Partitioned);
            }
        }
        hit
    }

    /// True when a *planned* window of `shard` starts exactly at
    /// `round` and the shard is reachable in the round before — the
    /// drain signal the engine raises one round ahead of the outage.
    pub fn planned_entry(&self, shard: u32, round: u64) -> bool {
        self.windows
            .iter()
            .any(|w| w.planned && w.shard == shard && w.start == round)
    }

    /// The first round index past every window (`0` for an empty
    /// plan) — the point after which the whole fleet is healed.
    pub fn horizon(&self) -> u64 {
        self.windows
            .iter()
            .map(|w| w.start.saturating_add(w.rounds))
            .max()
            .unwrap_or(0)
    }

    /// Sanity checks against a concrete fleet size.
    ///
    /// # Panics
    ///
    /// Panics if a window names a shard outside `[0, shards)`, has
    /// zero length, or darkens the whole fleet at once forever (every
    /// plan must leave the fleet collectively reachable: at least one
    /// shard outside every round's union of windows is not required,
    /// but a window set covering all shards in the same round is
    /// almost always a configuration bug, so it is rejected).
    pub fn validate(&self, shards: u32) {
        for w in &self.windows {
            assert!(w.shard < shards, "outage window names shard {} of {shards}", w.shard);
            assert!(w.rounds > 0, "outage window must cover at least one round");
        }
        for round in 0..self.horizon() {
            let all_dark = (0..shards).all(|s| self.dark(s, round).is_some());
            assert!(!all_dark, "outage plan darkens every shard at round {round}");
        }
    }
}

#[cfg(test)]
mod outage_tests {
    use super::*;

    #[test]
    fn dark_resolves_overlap_with_down_winning() {
        let plan = OutagePlan::new(vec![
            OutageWindow { shard: 1, start: 2, rounds: 3, kind: OutageKind::Partitioned, planned: false },
            OutageWindow { shard: 1, start: 3, rounds: 1, kind: OutageKind::Down, planned: false },
        ]);
        assert_eq!(plan.dark(1, 1), None);
        assert_eq!(plan.dark(1, 2), Some(OutageKind::Partitioned));
        assert_eq!(plan.dark(1, 3), Some(OutageKind::Down));
        assert_eq!(plan.dark(1, 4), Some(OutageKind::Partitioned));
        assert_eq!(plan.dark(1, 5), None);
        assert_eq!(plan.dark(0, 3), None);
        assert_eq!(plan.horizon(), 5);
    }

    #[test]
    fn planned_entry_fires_only_at_window_start() {
        let plan = OutagePlan::new(vec![OutageWindow {
            shard: 2,
            start: 4,
            rounds: 2,
            kind: OutageKind::Down,
            planned: true,
        }]);
        assert!(plan.planned_entry(2, 4));
        assert!(!plan.planned_entry(2, 5));
        assert!(!plan.planned_entry(1, 4));
    }

    #[test]
    fn seeded_plans_are_deterministic_and_valid() {
        let a = OutagePlan::seeded(42, 8, 30, 6, 4);
        let b = OutagePlan::seeded(42, 8, 30, 6, 4);
        assert_eq!(a, b);
        assert_eq!(a.windows.len(), 6);
        a.validate(8);
        let c = OutagePlan::seeded(43, 8, 30, 6, 4);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "darkens every shard")]
    fn validate_rejects_whole_fleet_outages() {
        OutagePlan::new(vec![
            OutageWindow { shard: 0, start: 1, rounds: 1, kind: OutageKind::Down, planned: false },
            OutageWindow { shard: 1, start: 1, rounds: 1, kind: OutageKind::Partitioned, planned: false },
        ])
        .validate(2);
    }
}
