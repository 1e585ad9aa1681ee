//! The router-side per-shard health state machine.
//!
//! The router never probes a shard directly — its only signal is
//! whether the shard's barrier report arrived. That observation is
//! folded here, once per shard per barrier, in canonical shard order
//! on the engine thread, which keeps the whole machine deterministic
//! at any worker count:
//!
//! ```text
//!            miss                miss > suspect_to_down
//!   Up ───────────▶ Suspect ───────────────────────────▶ Down
//!    ▲                 │ report                            │ report
//!    │                 ▼                                   ▼
//!    └───────────── (back to Up)                        Probing
//!    ▲                                                     │
//!    └── report × probe_rounds ────────────────────────────┘
//!                       (a miss while Probing relapses to Down)
//! ```
//!
//! `Down` is the only non-routable state: `Suspect` keeps taking
//! traffic (one missed barrier is usually a partition blip, and
//! hedging covers the risk), and `Probing` takes traffic on probation
//! so a healed shard re-earns its place — which is also what lets
//! hash-affinity snap back to the home shard the moment it reports
//! again.

/// Router-observed availability of one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Reporting normally.
    Up,
    /// Missed at least one barrier report; still routable.
    Suspect,
    /// Missed enough consecutive reports to be declared unavailable.
    /// Not routable.
    Down,
    /// Reporting again after `Down`; routable on probation.
    Probing,
}

impl HealthState {
    /// Whether the placement policies may target the shard.
    pub fn routable(self) -> bool {
        self != HealthState::Down
    }

    /// Short name for reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            HealthState::Up => "up",
            HealthState::Suspect => "suspect",
            HealthState::Down => "down",
            HealthState::Probing => "probing",
        }
    }
}

snapshot::record!(enum HealthState { 0 => Up, 1 => Suspect, 2 => Down, 3 => Probing });

/// Thresholds of the health machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthPolicy {
    /// Consecutive missed barriers tolerated in `Suspect` before the
    /// shard is declared `Down` (the first miss enters `Suspect`, so a
    /// shard goes dark after `1 + suspect_to_down` total misses).
    pub suspect_to_down: u32,
    /// Consecutive successful barriers required in `Probing` before
    /// the shard is trusted `Up` again.
    pub probe_rounds: u32,
}

impl Default for HealthPolicy {
    fn default() -> HealthPolicy {
        HealthPolicy {
            suspect_to_down: 1,
            probe_rounds: 2,
        }
    }
}

/// One shard's health tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Health {
    state: HealthState,
    /// Consecutive missed barriers while `Suspect`.
    misses: u32,
    /// Consecutive successful barriers while `Probing`.
    probes: u32,
}

impl Default for Health {
    fn default() -> Health {
        Health::new()
    }
}

impl Health {
    /// A fresh tracker: every shard starts trusted.
    pub fn new() -> Health {
        Health {
            state: HealthState::Up,
            misses: 0,
            probes: 0,
        }
    }

    /// The current state.
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// Folds one barrier observation: `reported` is whether the
    /// shard's report arrived at this barrier.
    pub fn observe(&mut self, reported: bool, policy: HealthPolicy) {
        self.state = match (self.state, reported) {
            (HealthState::Up, true) => HealthState::Up,
            (HealthState::Up, false) => {
                self.misses = 1;
                HealthState::Suspect
            }
            (HealthState::Suspect, true) => {
                self.misses = 0;
                HealthState::Up
            }
            (HealthState::Suspect, false) => {
                self.misses += 1;
                if self.misses > policy.suspect_to_down {
                    HealthState::Down
                } else {
                    HealthState::Suspect
                }
            }
            (HealthState::Down, true) => {
                self.probes = 1;
                if self.probes >= policy.probe_rounds {
                    HealthState::Up
                } else {
                    HealthState::Probing
                }
            }
            (HealthState::Down, false) => HealthState::Down,
            (HealthState::Probing, true) => {
                self.probes += 1;
                if self.probes >= policy.probe_rounds {
                    self.probes = 0;
                    HealthState::Up
                } else {
                    HealthState::Probing
                }
            }
            (HealthState::Probing, false) => {
                self.probes = 0;
                HealthState::Down
            }
        };
        if self.state == HealthState::Up {
            self.misses = 0;
        }
    }
}

// Both are part of the router's canonical state.
snapshot::record!(HealthPolicy { suspect_to_down: u32, probe_rounds: u32 });
snapshot::record!(Health { state: HealthState, misses: u32, probes: u32 });

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> HealthPolicy {
        HealthPolicy { suspect_to_down: 1, probe_rounds: 2 }
    }

    #[test]
    fn misses_walk_up_suspect_down() {
        let mut h = Health::new();
        h.observe(false, policy());
        assert_eq!(h.state(), HealthState::Suspect);
        assert!(h.state().routable());
        h.observe(false, policy());
        assert_eq!(h.state(), HealthState::Down);
        assert!(!h.state().routable());
        h.observe(false, policy());
        assert_eq!(h.state(), HealthState::Down);
    }

    #[test]
    fn one_blip_recovers_without_leaving_routable() {
        let mut h = Health::new();
        h.observe(false, policy());
        h.observe(true, policy());
        assert_eq!(h.state(), HealthState::Up);
    }

    #[test]
    fn heal_goes_through_probation() {
        let mut h = Health::new();
        for _ in 0..3 {
            h.observe(false, policy());
        }
        assert_eq!(h.state(), HealthState::Down);
        h.observe(true, policy());
        assert_eq!(h.state(), HealthState::Probing);
        assert!(h.state().routable());
        h.observe(true, policy());
        assert_eq!(h.state(), HealthState::Up);
    }

    #[test]
    fn probing_relapses_on_a_miss() {
        let mut h = Health::new();
        for _ in 0..2 {
            h.observe(false, policy());
        }
        h.observe(true, policy());
        assert_eq!(h.state(), HealthState::Probing);
        h.observe(false, policy());
        assert_eq!(h.state(), HealthState::Down);
        // Probation starts over.
        h.observe(true, policy());
        assert_eq!(h.state(), HealthState::Probing);
    }

    #[test]
    fn single_probe_round_heals_immediately() {
        let pol = HealthPolicy { suspect_to_down: 0, probe_rounds: 1 };
        let mut h = Health::new();
        h.observe(false, pol);
        h.observe(false, pol);
        assert_eq!(h.state(), HealthState::Down);
        h.observe(true, pol);
        assert_eq!(h.state(), HealthState::Up);
    }

    #[test]
    fn codec_round_trips() {
        let mut h = Health::new();
        for reported in [false, false, false, true] {
            h.observe(reported, policy());
        }
        let back: Health = snapshot::decode(&snapshot::encode(&h)).expect("decode");
        assert_eq!(h, back);
    }

    #[test]
    fn health_state_wire_tags_are_pinned() {
        use HealthState::*;
        for (state, tag) in [(Up, 0u8), (Suspect, 1), (Down, 2), (Probing, 3)] {
            assert_eq!(snapshot::encode(&state), [tag]);
            assert_eq!(snapshot::decode(&[tag]), Ok(state));
        }
    }
}
