//! The Desiccant layer, measured from outside: a [`MemoryManager`]
//! that forwards every trait method to [`Desiccant`] inside a span and
//! counts the work each call carries. The platform cannot tell it from
//! the manager it wraps, so its checkpoints are byte-identical.

use desiccant::{Desiccant, DesiccantConfig};
use faas::{FrozenView, InstanceId, MemoryManager, ReclaimProfile};
use simos::SimTime;

use crate::trace::{count, span};

pub struct Probe(Desiccant);

impl Probe {
    pub fn boxed() -> Box<dyn MemoryManager> {
        Box::new(Probe(Desiccant::new(DesiccantConfig::default())))
    }
}

impl MemoryManager for Probe {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn select_reclaims(
        &mut self,
        now: SimTime,
        cache_budget: u64,
        cache_used: u64,
        frozen: &[FrozenView],
    ) -> Vec<InstanceId> {
        let picked = span("desiccant.select_reclaims", || {
            self.0
                .select_reclaims(now, cache_budget, cache_used, frozen)
        });
        count("desiccant.select_calls", 1);
        count("desiccant.views_scanned", frozen.len() as u64);
        count("desiccant.picked", picked.len() as u64);
        picked
    }

    fn note_eviction(&mut self, now: SimTime, function: &str) {
        span("desiccant.note_eviction", || {
            self.0.note_eviction(now, function)
        });
        count("desiccant.evictions_noted", 1);
    }

    fn note_destroyed(&mut self, id: InstanceId) {
        span("desiccant.note_destroyed", || self.0.note_destroyed(id));
    }

    fn note_reclaimed(
        &mut self,
        now: SimTime,
        id: InstanceId,
        function: &str,
        profile: ReclaimProfile,
    ) {
        span("desiccant.note_reclaimed", || {
            self.0.note_reclaimed(now, id, function, profile)
        });
        count("desiccant.reclaims_noted", 1);
    }

    fn note_reclaim_failed(&mut self, now: SimTime, id: InstanceId, function: &str) {
        span("desiccant.note_reclaim_failed", || {
            self.0.note_reclaim_failed(now, id, function)
        });
    }

    fn keep_weak(&self) -> bool {
        self.0.keep_weak()
    }

    fn unmap_libs(&self) -> bool {
        self.0.unmap_libs()
    }

    fn snapshot_state(&self) -> Vec<u8> {
        span("desiccant.snapshot_state", || self.0.snapshot_state())
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), snapshot::SnapError> {
        span("desiccant.restore_state", || self.0.restore_state(bytes))
    }
}
