//! The cluster front-end: placement policies, per-shard health, and
//! barrier-state folds.
//!
//! The router is the only component that sees more than one shard, and
//! it sees shards *only* through their [`ShardReport`]s. Its decision
//! inputs are therefore frozen at the last barrier: every arrival of a
//! round is placed from the same snapshot, in the one canonical
//! arrival order, on the engine's thread — which is what makes
//! placement (and hence the whole replay) independent of `--jobs N`.
//!
//! Two policies:
//!
//! * **hash-affinity** — FNV-1a of the catalog index, modulo the shard
//!   count. Stable, stateless, maximizes warm-instance reuse per
//!   function; the baseline every FaaS front-end starts from.
//! * **cold-start-aware** — COCOA-style: prefer a shard holding a
//!   frozen (thaw-able) instance of the function, the least-loaded
//!   one when several are warm (load = in-flight requests at the last
//!   barrier plus the assignments already made this round, so one
//!   round's burst cannot herd onto one shard); fall back to
//!   hash-affinity when no shard is warm.
//!
//! # Failure awareness
//!
//! A [`Health`] tracker per shard turns missing barrier reports into
//! an Up → Suspect → Down → Probing machine; every policy places only
//! onto routable (non-`Down`) shards. Hash affinity fails over by
//! probing `(home + k) % shards` for the first routable candidate, so
//! the moment the home shard reports again the failover evaporates
//! and affinity snaps back — nothing to garbage-collect.
//!
//! Migration offers accepted at a barrier become *overrides*: the
//! function's future placements re-home to the least-pressured other
//! routable shard. Overrides take precedence under every policy — they
//! exist to bleed pressure off a shard, which any policy must respect.
//! Drain offers (planned outages) additionally record their origin,
//! and the override is dropped the moment the origin shard is
//! routable again — restoring hash affinity on heal.

use std::collections::BTreeMap;

use snapshot::{Reader, SnapError, Snapshot, Writer};

use crate::fnv64_bytes;
use crate::frontend::ShedReason;
use crate::health::{Health, HealthPolicy, HealthState};
use crate::msg::{MigrationOffer, ShardReport};

/// Placement policy of the cluster front-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// FNV(fn_idx) % shards.
    HashAffinity,
    /// Prefer shards with a frozen instance of the function.
    ColdStartAware,
}

impl Placement {
    /// Short name for reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Placement::HashAffinity => "hash-affinity",
            Placement::ColdStartAware => "cold-start-aware",
        }
    }
}

impl Snapshot for Placement {
    fn snap(&self, w: &mut Writer) {
        let tag: u8 = match self {
            Placement::HashAffinity => 0,
            Placement::ColdStartAware => 2,
        };
        tag.snap(w);
    }

    fn restore(r: &mut Reader<'_>) -> Result<Placement, SnapError> {
        match u8::restore(r)? {
            0 => Ok(Placement::HashAffinity),
            // Tag 1 was the retired least-loaded policy; it stays
            // reserved, so old bytes carrying it decode as corrupt.
            2 => Ok(Placement::ColdStartAware),
            _ => Err(SnapError::Corrupt("unknown placement tag")),
        }
    }
}

/// One placement decision of the front end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routing {
    /// The request goes to `primary`, with an optional same-round
    /// hedge copy on a second shard.
    Placed {
        /// The shard the request lands on.
        primary: u32,
        /// The hedge target, when hedging is on and the primary is
        /// `Suspect` or `Probing`.
        hedge: Option<u32>,
    },
    /// The request is refused at admission.
    Shed(ShedReason),
}

/// The front-end router: placement state, per-shard health, and the
/// last-barrier view of every shard.
#[derive(Debug, PartialEq)]
pub struct Router {
    policy: Placement,
    shards: u32,
    health_policy: HealthPolicy,
    /// Migration re-homes: `fn_idx -> shard`. Consulted before the
    /// policy under every policy.
    overrides: BTreeMap<usize, u32>,
    /// Drain re-homes still waiting for their origin shard to heal:
    /// `fn_idx -> origin shard`. Dropped (with the override) when the
    /// origin is routable again.
    drain_origin: BTreeMap<usize, u32>,
    /// Per-shard health trackers (index = shard id).
    health: Vec<Health>,
    /// Last-barrier report per shard (index = shard id). A shard that
    /// has never reported holds [`ShardReport::empty`].
    view: Vec<ShardReport>,
    /// Assignments made in the current round, per shard — the
    /// intra-round tie-breaker that stops load-aware choices herding.
    assigned: Vec<u64>,
    /// Placement attempts performed (initial placements plus retries
    /// and hedges are *not* separated here; request-level accounting
    /// lives in the front end).
    routed: u64,
    /// Migration offers accepted (overrides written).
    migrations: u64,
    /// View rows actually copied by `absorb` — a cost counter for the
    /// skip-unchanged fast path, never part of the canonical state.
    view_copies: u64,
}

impl Router {
    /// A router over `shards` shards with the given policy.
    pub fn new(policy: Placement, shards: u32, health_policy: HealthPolicy) -> Router {
        assert!(shards > 0, "a cluster needs at least one shard");
        Router {
            policy,
            shards,
            health_policy,
            overrides: BTreeMap::new(),
            drain_origin: BTreeMap::new(),
            health: vec![Health::new(); shards as usize],
            view: (0..shards).map(ShardReport::empty).collect(),
            assigned: vec![0; shards as usize],
            routed: 0,
            migrations: 0,
            view_copies: 0,
        }
    }

    /// The configured policy.
    pub fn policy(&self) -> Placement {
        self.policy
    }

    /// Migration overrides currently in force.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Placement attempts performed so far (includes retries).
    pub fn routed(&self) -> u64 {
        self.routed
    }

    /// The health state of one shard (`Up` for out-of-range ids).
    pub fn health(&self, shard: u32) -> HealthState {
        self.health.get(shard as usize).map_or(HealthState::Up, |h| h.state())
    }

    /// View rows copied by `absorb` so far (cost counter for the
    /// skip-unchanged fast path; not part of the canonical state).
    pub fn view_copies(&self) -> u64 {
        self.view_copies
    }

    /// Places one request, returning where it goes — or a typed shed
    /// when admission refuses it. Must be called in canonical arrival
    /// order on the engine thread.
    ///
    /// `queue_budget > 0` sheds the request when the chosen shard's
    /// queue depth (last-barrier in-flight plus this round's
    /// assignments) has reached the budget. `hedge` places a second
    /// copy on the least-loaded other routable shard whenever the
    /// primary is `Suspect` or `Probing`.
    pub fn place(&mut self, fn_idx: usize, queue_budget: u64, hedge: bool) -> Routing {
        let n = self.shards as usize;
        let routable: Vec<bool> = (0..n)
            .map(|s| self.health.get(s).is_none_or(|h| h.state().routable()))
            .collect();
        if !routable.iter().any(|&r| r) {
            return Routing::Shed(ShedReason::Unroutable);
        }
        let primary = match self.overrides.get(&fn_idx) {
            Some(&s) if routable.get(s as usize).copied().unwrap_or(false) => s,
            // An override pointing at an unroutable shard falls back
            // to the policy (which routes around Down shards itself).
            _ => match self.policy {
                Placement::HashAffinity => self.affine(fn_idx, &routable),
                Placement::ColdStartAware => self.warmest(fn_idx, &routable),
            },
        };
        if queue_budget > 0 && self.load(primary as usize) >= queue_budget {
            return Routing::Shed(ShedReason::Overload);
        }
        let hedge_to = if hedge
            && matches!(self.health(primary), HealthState::Suspect | HealthState::Probing)
        {
            self.backup(primary, &routable)
        } else {
            None
        };
        self.routed += 1;
        if let Some(count) = self.assigned.get_mut(primary as usize) {
            *count += 1;
        }
        if let Some(h) = hedge_to {
            if let Some(count) = self.assigned.get_mut(h as usize) {
                *count += 1;
            }
        }
        Routing::Placed { primary, hedge: hedge_to }
    }

    fn hash_shard(&self, fn_idx: usize) -> u32 {
        let h = fnv64_bytes(&(fn_idx as u64).to_le_bytes());
        (h % u64::from(self.shards)) as u32
    }

    /// Hash affinity with linear failover: the first routable shard in
    /// `(home + k) % shards` order. With everything Up this is exactly
    /// the home shard, so affinity restores itself on heal.
    fn affine(&self, fn_idx: usize, routable: &[bool]) -> u32 {
        let home = self.hash_shard(fn_idx);
        (0..self.shards)
            .map(|k| ((u64::from(home) + u64::from(k)) % u64::from(self.shards)) as u32)
            .find(|&c| routable.get(c as usize).copied().unwrap_or(false))
            .unwrap_or(home)
    }

    /// Effective load of shard `s`: last-barrier in-flight plus what
    /// this round has already assigned to it.
    fn load(&self, s: usize) -> u64 {
        let at_barrier = self.view.get(s).map_or(0, |r| r.in_flight);
        at_barrier + self.assigned.get(s).copied().unwrap_or(0)
    }

    fn warmest(&self, fn_idx: usize, routable: &[bool]) -> u32 {
        let warm = (0..self.shards as usize)
            .filter(|&s| routable.get(s).copied().unwrap_or(false))
            .filter(|&s| self.view.get(s).is_some_and(|r| r.warm.contains_key(&fn_idx)))
            .min_by_key(|&s| {
                let cache = self.view.get(s).map_or(0, |r| r.cache_used);
                (self.load(s), cache, s)
            });
        match warm {
            Some(s) => s as u32,
            None => self.affine(fn_idx, routable),
        }
    }

    /// The hedge target: least-loaded routable shard other than the
    /// primary.
    fn backup(&self, primary: u32, routable: &[bool]) -> Option<u32> {
        (0..self.shards as usize)
            .filter(|&s| s as u32 != primary && routable.get(s).copied().unwrap_or(false))
            .min_by_key(|&s| {
                let cache = self.view.get(s).map_or(0, |r| r.cache_used);
                (self.load(s), cache, s)
            })
            .map(|s| s as u32)
    }

    /// Folds the barrier's report slots (canonical shard order; `None`
    /// = the shard was unreachable this round) into the routing view,
    /// advances the health machine, and accepts migration offers.
    ///
    /// The view refresh skips shards whose report is byte-identical to
    /// the held row — most shards most rounds — without changing the
    /// resulting state by a single byte (pinned by this module's
    /// tests). An accepted offer re-homes the function to the
    /// least-pressured *routable* shard other than the offerer; the
    /// target's viewed cache charge is bumped by the offered charge
    /// immediately, so a barrier full of offers spreads instead of
    /// dog-piling one target.
    pub fn absorb(&mut self, reports: &[Option<ShardReport>]) {
        self.absorb_inner(reports, true);
    }

    /// The unconditional-copy reference fold the skip-path tests pin
    /// `absorb` against.
    #[cfg(test)]
    pub fn absorb_clone_all(&mut self, reports: &[Option<ShardReport>]) {
        self.absorb_inner(reports, false);
    }

    fn absorb_inner(&mut self, reports: &[Option<ShardReport>], skip_unchanged: bool) {
        assert_eq!(reports.len(), self.shards as usize, "one report slot per shard");
        for (s, slot) in reports.iter().enumerate() {
            let Some(rep) = slot else { continue };
            if let Some(row) = self.view.get_mut(s) {
                if !skip_unchanged || row != rep {
                    *row = rep.clone();
                    self.view_copies += 1;
                }
            }
        }
        for (s, slot) in reports.iter().enumerate() {
            let was_down = self
                .health
                .get(s)
                .is_some_and(|h| h.state() == HealthState::Down);
            if let Some(h) = self.health.get_mut(s) {
                h.observe(slot.is_some(), self.health_policy);
            }
            let routable_now = self.health.get(s).is_none_or(|h| h.state().routable());
            if was_down && routable_now {
                // The shard is reachable again: drop the drain
                // re-homes it emitted before going dark, restoring
                // hash affinity for its functions.
                let healed: Vec<usize> = self
                    .drain_origin
                    .iter()
                    .filter(|&(_, &origin)| origin as usize == s)
                    .map(|(&fn_idx, _)| fn_idx)
                    .collect();
                for fn_idx in healed {
                    self.overrides.remove(&fn_idx);
                    self.drain_origin.remove(&fn_idx);
                }
            }
        }
        for a in &mut self.assigned {
            *a = 0;
        }
        let offers: Vec<MigrationOffer> = reports
            .iter()
            .flatten()
            .flat_map(|r| r.offers.iter().copied())
            .collect();
        for offer in offers {
            let target = (0..self.shards as usize)
                .filter(|&s| s as u32 != offer.from)
                .filter(|&s| self.health.get(s).is_none_or(|h| h.state().routable()))
                .min_by_key(|&s| {
                    let cached = self.view.get(s).map_or(0, |r| r.cache_used);
                    (cached, self.load(s), s)
                })
                .map(|s| s as u32);
            // No routable target (single shard, or everything else is
            // dark): the offer has nowhere to go.
            let Some(target) = target else { continue };
            if offer.drain {
                self.drain_origin.insert(offer.fn_idx, offer.from);
            }
            // Re-homing to where the function already lives is a no-op
            // offer; skip it so `migrations` counts real moves.
            if self.overrides.get(&offer.fn_idx) == Some(&target) {
                continue;
            }
            self.overrides.insert(offer.fn_idx, target);
            if let Some(row) = self.view.get_mut(target as usize) {
                row.cache_used += offer.charge;
            }
            self.migrations += 1;
        }
    }

    /// Serializes every routing-relevant byte of state. Folded into
    /// the cluster digest: two runs that routed identically — and only
    /// those — produce identical bytes.
    pub fn state_bytes(&self) -> Vec<u8> {
        let Router {
            policy,
            shards,
            health_policy,
            overrides,
            drain_origin,
            health,
            view,
            assigned,
            routed,
            migrations,
            // A wall-cost counter for the absorb fast path; identical
            // state reached through different skip decisions must
            // digest identically.
            view_copies: _,
        } = self;
        let mut w = Writer::new();
        policy.snap(&mut w);
        shards.snap(&mut w);
        health_policy.snap(&mut w);
        overrides.snap(&mut w);
        drain_origin.snap(&mut w);
        health.snap(&mut w);
        view.snap(&mut w);
        assigned.snap(&mut w);
        routed.snap(&mut w);
        migrations.snap(&mut w);
        w.into_bytes()
    }

    /// Rebuilds a router from [`Router::state_bytes`] — the
    /// restore half of the health-state checkpoint contract. The
    /// cost counter comes back zero.
    pub fn decode(r: &mut Reader<'_>) -> Result<Router, SnapError> {
        let policy = Placement::restore(r)?;
        let shards = u32::restore(r)?;
        if shards == 0 {
            return Err(SnapError::Corrupt("router over zero shards"));
        }
        let health_policy = HealthPolicy::restore(r)?;
        let overrides = BTreeMap::restore(r)?;
        let drain_origin = BTreeMap::restore(r)?;
        let health = Vec::restore(r)?;
        let view = Vec::restore(r)?;
        let assigned = Vec::restore(r)?;
        let routed = u64::restore(r)?;
        let migrations = u64::restore(r)?;
        Ok(Router {
            policy,
            shards,
            health_policy,
            overrides,
            drain_origin,
            health,
            view,
            assigned,
            routed,
            migrations,
            view_copies: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fnv64_bytes as fnv;
    use simos::SimTime;

    fn report(shard: u32, in_flight: u64, cache_used: u64) -> ShardReport {
        ShardReport {
            in_flight,
            cache_used,
            cache_budget: 1 << 30,
            ..ShardReport::empty(shard)
        }
    }

    fn slots(reports: Vec<ShardReport>) -> Vec<Option<ShardReport>> {
        reports.into_iter().map(Some).collect()
    }

    /// Satellite pin: the skip-unchanged absorb must land on bytes
    /// identical to the unconditional-copy fold over any sequence of
    /// barriers, while actually skipping the untouched rows.
    #[test]
    fn absorb_skip_path_pins_the_digest() {
        let mk = || Router::new(Placement::ColdStartAware, 4, HealthPolicy::default());
        let (mut fast, mut naive) = (mk(), mk());
        let barriers: Vec<Vec<Option<ShardReport>>> = vec![
            slots((0..4).map(|s| report(s, 5, 100)).collect()),
            // Identical barrier: every row unchanged.
            slots((0..4).map(|s| report(s, 5, 100)).collect()),
            // Only shard 2 changes.
            slots(
                (0..4)
                    .map(|s| if s == 2 { report(s, 9, 400) } else { report(s, 5, 100) })
                    .collect(),
            ),
            // Shard 1 unreachable, shard 3 changes.
            vec![
                Some(report(0, 5, 100)),
                None,
                Some(report(2, 9, 400)),
                Some(report(3, 1, 50)),
            ],
        ];
        for reports in &barriers {
            fast.absorb(reports);
            naive.absorb_clone_all(reports);
        }
        let (a, b) = (fast.state_bytes(), naive.state_bytes());
        assert_eq!(a, b, "skip path changed the canonical bytes");
        assert_eq!(fnv(&a), fnv(&b));
        // The fast path must have skipped real work: barrier 2 copies
        // nothing, barrier 3 copies one row (shard 2), and barrier 4
        // copies one (shard 3 — shard 2's report repeats barrier 3's).
        assert_eq!(naive.view_copies(), 15);
        assert_eq!(fast.view_copies(), 4 + 1 + 1);
    }

    #[test]
    fn missed_reports_drive_the_health_machine_and_failover() {
        let mut r = Router::new(Placement::HashAffinity, 4, HealthPolicy::default());
        let full = || slots((0..4).map(|s| report(s, 0, 0)).collect());
        r.absorb(&full());
        // Find a function whose home is shard 1.
        let fn_idx = (0..64)
            .find(|&f| {
                matches!(r.place(f, 0, false), Routing::Placed { primary: 1, .. })
            })
            .expect("some function homes on shard 1");
        // Shard 1 stops reporting: Suspect (still routable, still the
        // affinity target), then Down (failover).
        let dark = |down: u32| -> Vec<Option<ShardReport>> {
            (0..4u32)
                .map(|s| (s != down).then(|| report(s, 0, 0)))
                .collect()
        };
        r.absorb(&dark(1));
        assert_eq!(r.health(1), HealthState::Suspect);
        assert!(matches!(r.place(fn_idx, 0, false), Routing::Placed { primary: 1, .. }));
        r.absorb(&dark(1));
        assert_eq!(r.health(1), HealthState::Down);
        let Routing::Placed { primary, .. } = r.place(fn_idx, 0, false) else {
            panic!("placement must not shed with three shards up");
        };
        assert_ne!(primary, 1, "Down shard still targeted");
        // Heal: probation, then affinity snaps back.
        r.absorb(&full());
        assert_eq!(r.health(1), HealthState::Probing);
        r.absorb(&full());
        assert_eq!(r.health(1), HealthState::Up);
        assert!(matches!(r.place(fn_idx, 0, false), Routing::Placed { primary: 1, .. }));
    }

    #[test]
    fn whole_fleet_down_sheds_unroutable() {
        let mut r = Router::new(Placement::HashAffinity, 2, HealthPolicy::default());
        let nothing: Vec<Option<ShardReport>> = vec![None, None];
        for _ in 0..3 {
            r.absorb(&nothing);
        }
        assert!((0..2).all(|s| r.health(s) == HealthState::Down));
        assert_eq!(r.place(0, 0, false), Routing::Shed(ShedReason::Unroutable));
    }

    #[test]
    fn queue_budget_sheds_overload() {
        let mut r = Router::new(Placement::HashAffinity, 2, HealthPolicy::default());
        r.absorb(&slots(vec![report(0, 3, 0), report(1, 3, 0)]));
        let home = |s| (0..64).find(|&f| r.hash_shard(f) == s).expect("some function homes there");
        let (f0, f1) = (home(0), home(1));
        // Budget 4: one assignment per shard fits, then depth hits the
        // budget on the home shard and the next request sheds.
        assert!(matches!(r.place(f0, 4, false), Routing::Placed { primary: 0, .. }));
        assert!(matches!(r.place(f1, 4, false), Routing::Placed { primary: 1, .. }));
        assert_eq!(r.place(f0, 4, false), Routing::Shed(ShedReason::Overload));
    }

    #[test]
    fn hedge_fires_only_for_suspect_or_probing_primaries() {
        let mut r = Router::new(Placement::HashAffinity, 4, HealthPolicy::default());
        let fn_idx = (0..64)
            .find(|&f| matches!(r.place(f, 0, true), Routing::Placed { primary: 2, .. }))
            .expect("some function homes on shard 2");
        assert!(matches!(r.place(fn_idx, 0, true), Routing::Placed { hedge: None, .. }));
        let dark: Vec<Option<ShardReport>> = (0..4u32)
            .map(|s| (s != 2).then(|| report(s, 0, 0)))
            .collect();
        r.absorb(&dark);
        assert_eq!(r.health(2), HealthState::Suspect);
        let Routing::Placed { primary, hedge } = r.place(fn_idx, 0, true) else {
            panic!("hedged placement must not shed");
        };
        assert_eq!(primary, 2);
        let backup = hedge.expect("suspect primary gets a hedge");
        assert_ne!(backup, 2);
    }

    #[test]
    fn drain_offers_rehome_and_release_on_heal() {
        let mut r = Router::new(Placement::HashAffinity, 4, HealthPolicy::default());
        let fn_idx = (0..64)
            .find(|&f| matches!(r.place(f, 0, false), Routing::Placed { primary: 3, .. }))
            .expect("some function homes on shard 3");
        // Shard 3 announces a drain of fn_idx, then goes dark.
        let mut draining = report(3, 0, 0);
        draining.offers.push(MigrationOffer { from: 3, fn_idx, charge: 64 << 20, drain: true });
        let mut reports = slots((0..4).map(|s| report(s, 0, 0)).collect());
        reports[3] = Some(draining);
        r.absorb(&reports);
        assert_eq!(r.migrations(), 1);
        let Routing::Placed { primary: rehomed, .. } = r.place(fn_idx, 0, false) else {
            panic!("drained function must still place");
        };
        assert_ne!(rehomed, 3, "drain must re-home off the announcing shard");
        let dark: Vec<Option<ShardReport>> =
            (0..4u32).map(|s| (s != 3).then(|| report(s, 0, 0))).collect();
        r.absorb(&dark);
        r.absorb(&dark);
        assert_eq!(r.health(3), HealthState::Down);
        // Heal: the drain override is released and affinity restores.
        let full = slots((0..4).map(|s| report(s, 0, 0)).collect());
        r.absorb(&full);
        assert_eq!(r.health(3), HealthState::Probing);
        assert!(matches!(r.place(fn_idx, 0, false), Routing::Placed { primary: 3, .. }));
    }

    #[test]
    fn retired_placement_tag_is_corrupt() {
        // Tag 1 was the least-loaded policy.
        let mut r = Reader::new(&[1]);
        assert!(matches!(Placement::restore(&mut r), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn state_bytes_decode_round_trips() {
        let mut r = Router::new(Placement::ColdStartAware, 3, HealthPolicy::default());
        let mut rep1 = report(1, 7, 900);
        rep1.warm.insert(
            4,
            faas::FrozenFnSummary { count: 2, charge: 300, oldest_frozen: SimTime(17) },
        );
        rep1.offers.push(MigrationOffer { from: 1, fn_idx: 4, charge: 300, drain: true });
        r.absorb(&[Some(report(0, 2, 100)), Some(rep1), None]);
        let _ = r.place(4, 0, true);
        let bytes = r.state_bytes();
        let mut reader = Reader::new(&bytes);
        let back = Router::decode(&mut reader).expect("decode");
        reader.finish().expect("no trailing bytes");
        assert_eq!(back.state_bytes(), bytes);
        assert_eq!(back.health(2), r.health(2));
    }
}
