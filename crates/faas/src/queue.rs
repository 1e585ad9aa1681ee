//! The simulator's event queue: a binary min-heap keyed on
//! `(SimTime, seq)`.
//!
//! The pop order is `(time, seq)`: earliest first, FIFO within a
//! timestamp via the strictly increasing `seq` the platform stamps on
//! every event. Checkpoints serialize the queue through
//! [`EventQueue::sorted_entries`] and restore it through
//! [`EventQueue::from_sorted`], so the bytes depend only on the
//! pending schedule, never on the heap's internal layout.
//!
//! Why a plain heap: the deepest queue any benchmark workload reaches
//! is 7,810 pending events, and at such depths a calendar queue
//! measured no faster end to end (EXPERIMENTS.md, "Perf methodology
//! and trajectory").

use std::collections::BinaryHeap;

use simos::SimTime;

/// One queued entry, ordered so that `BinaryHeap` (a max-heap) pops
/// the minimum `(at, seq)` first.
#[derive(Debug, Clone)]
struct Item<T> {
    at: SimTime,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Item<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl<T> Eq for Item<T> {}
impl<T> PartialOrd for Item<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Item<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want min-(time, seq).
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The platform's event queue: min-first on `(time, seq)`, FIFO within
/// equal timestamps (callers must supply strictly increasing `seq`
/// values, as the platform does).
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Item<T>>,
}

impl<T> Default for EventQueue<T> {
    fn default() -> EventQueue<T> {
        EventQueue::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> EventQueue<T> {
        EventQueue {
            heap: BinaryHeap::new(),
        }
    }

    /// Rebuilds a queue from entries in canonical `(time, seq)` order —
    /// the checkpoint restore path. Rejects out-of-order or duplicate
    /// keys so a corrupt snapshot cannot smuggle in an impossible
    /// schedule.
    pub fn from_sorted(items: Vec<(SimTime, u64, T)>) -> Result<EventQueue<T>, &'static str> {
        let mut heap = BinaryHeap::with_capacity(items.len());
        let mut prev: Option<(SimTime, u64)> = None;
        for (at, seq, payload) in items {
            if prev.is_some_and(|p| p >= (at, seq)) {
                return Err("event queue entries not in strict (time, seq) order");
            }
            prev = Some((at, seq));
            heap.push(Item { at, seq, payload });
        }
        Ok(EventQueue { heap })
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Queues `payload` at `(at, seq)`.
    pub fn push(&mut self, at: SimTime, seq: u64, payload: T) {
        self.heap.push(Item { at, seq, payload });
    }

    /// Key of the next item to pop, without removing it.
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(|i| (i.at, i.seq))
    }

    /// Removes and returns the minimum-`(time, seq)` item.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        self.heap.pop().map(|i| (i.at, i.seq, i.payload))
    }

    /// Every queued entry in canonical `(time, seq)` order — the
    /// checkpoint serialization order.
    pub fn sorted_entries(&self) -> Vec<(SimTime, u64, &T)> {
        let mut entries: Vec<(SimTime, u64, &T)> = self
            .heap
            .iter()
            .map(|i| (i.at, i.seq, &i.payload))
            .collect();
        entries.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn pops_in_time_seq_order() {
        let mut q = EventQueue::new();
        let mut seed = 7u64;
        let mut keys = Vec::new();
        for seq in 0..5_000u64 {
            let at = SimTime(splitmix(&mut seed) % 50_000_000_000);
            keys.push((at, seq));
            q.push(at, seq, seq);
        }
        keys.sort();
        for &(at, seq) in &keys {
            assert_eq!(q.peek_key(), Some((at, seq)));
            let (pat, pseq, payload) = q.pop().expect("item");
            assert_eq!((pat, pseq, payload), (at, seq, seq));
        }
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn duplicate_timestamps_are_fifo_by_seq() {
        let mut q = EventQueue::new();
        let t = SimTime(123_456_789);
        for seq in 0..100u64 {
            q.push(t, seq, seq);
        }
        for want in 0..100u64 {
            assert_eq!(q.pop().map(|(_, s, _)| s), Some(want));
        }
    }

    #[test]
    fn from_sorted_rejects_disorder_and_duplicates() {
        let ok = vec![
            (SimTime(1), 1, ()),
            (SimTime(1), 2, ()),
            (SimTime(9), 3, ()),
        ];
        assert!(EventQueue::from_sorted(ok).is_ok());
        let unsorted = vec![(SimTime(9), 1, ()), (SimTime(1), 2, ())];
        assert!(EventQueue::from_sorted(unsorted).is_err());
        let dup = vec![(SimTime(1), 1, ()), (SimTime(1), 1, ())];
        assert!(EventQueue::from_sorted(dup).is_err());
    }

    #[test]
    fn sorted_entries_round_trip_through_from_sorted() {
        let mut q = EventQueue::new();
        let mut seed = 11u64;
        for seq in 0..500u64 {
            q.push(SimTime(splitmix(&mut seed) % 5_000_000_000), seq, seq);
        }
        // Consume part of the schedule, then rebuild canonically.
        for _ in 0..123 {
            q.pop();
        }
        let entries: Vec<(SimTime, u64, u64)> = q
            .sorted_entries()
            .into_iter()
            .map(|(at, seq, p)| (at, seq, *p))
            .collect();
        let mut rebuilt = EventQueue::from_sorted(entries).expect("sorted");
        loop {
            let a = q.pop();
            let b = rebuilt.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
