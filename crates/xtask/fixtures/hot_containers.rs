//! Seeded violation: an id-keyed ordered map in a sim-state crate.
//! Scanned by the self-test as `crates/faas/src/fake.rs`.

pub struct InstanceId(pub u64);

/// The commented-out map and the test-module map below must NOT
/// count; only the real `by_id` field may be flagged.
// type Shadow = BTreeMap<InstanceId, u64>;
pub struct Fake {
    by_id: std::collections::BTreeMap<InstanceId, u64>,
    // A BTreeMap keyed on anything else is fine.
    by_name: std::collections::BTreeMap<String, u64>,
}

#[cfg(test)]
mod tests {
    use super::InstanceId;
    // Test code is exempt: oracles may use the slow containers.
    type Lookup = std::collections::BTreeMap<InstanceId, u64>;
}
