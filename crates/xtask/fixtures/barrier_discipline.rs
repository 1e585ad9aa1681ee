//! Seeded violation: a cluster-engine method outside the barrier
//! protocol drives `Shard::advance` directly. The self-test scans
//! this as a cluster source that is not `shard.rs`.

impl Cluster {
    fn sneak_work(&mut self, barrier: SimTime) {
        for shard in &mut self.shards {
            shard.advance(barrier);
        }
    }
}
