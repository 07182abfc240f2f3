//! The engine's pending-event queue: a monotone radix queue.
//!
//! Simulated time never goes backwards — every event is pushed at or after
//! the time of the last one dispatched — so the queue can bucket events by
//! how far they lie from that time instead of comparing them with each
//! other (the radix heap of Ahuja, Mehlhorn, Orlin and Tarjan, *Faster
//! algorithms for the shortest path problem*, JACM 1990).
//!
//! With `last` the time of the last popped event, bucket 0 holds the
//! events at `last` and bucket `b ∈ 1..=64` the events whose `at ^ last`
//! has its highest set bit at `b − 1`; a `u64` mask marks the non-empty
//! buckets. Once bucket 0 runs out, a pop takes the lowest non-empty
//! bucket, advances `last` to its earliest time and moves each of its
//! events into bucket 0 if it is due then and into a strictly lower bucket
//! if not, so an event is moved at most 64 times in all.
//!
//! Events of one instant pop in push order, with no sequence number and
//! no sorting, because every bucket is a FIFO list. A push is appended. A
//! redistribution only fills buckets below the lowest non-empty one, which
//! are all empty, and it walks its source bucket in order.
//!
//! The lists are threaded through per-slot arrays, so the queue holds one
//! time and one link per engine slab slot however the events spread over
//! the buckets.

use crate::time::SimTime;

/// A queued event: its time and the engine slab slot holding its payload.
pub(crate) struct Entry {
    pub(crate) at: SimTime,
    pub(crate) slot: u32,
}

/// The end of a list.
const NIL: u32 = u32::MAX;

/// A monotone radix queue of [`Entry`]s, popped in time order and, within
/// one time, in push order.
pub(crate) struct RadixQueue {
    /// The time of the last popped entry.
    last: u64,
    /// `at[slot]`: the time of the entry queued under `slot`.
    at: Vec<u64>,
    /// `next[slot]`: the slot after `slot` in its bucket, or `NIL`.
    next: Vec<u32>,
    /// The first and last slot of each bucket, `NIL` when it is empty.
    heads: [u32; 65],
    tails: [u32; 65],
    /// Bit `b − 1` is set iff bucket `b ≥ 1` is non-empty.
    occupied: u64,
    /// `mins[b]`: the earliest time in bucket `b ≥ 1`, or `u64::MAX`.
    mins: [u64; 65],
}

impl RadixQueue {
    pub(crate) fn new() -> Self {
        RadixQueue {
            last: 0,
            at: Vec::new(),
            next: Vec::new(),
            heads: [NIL; 65],
            tails: [NIL; 65],
            occupied: 0,
            mins: [u64::MAX; 65],
        }
    }

    /// Queues `entry`. Its time must not precede the last popped entry's,
    /// and no queued entry may hold its slot.
    pub(crate) fn push(&mut self, entry: Entry) {
        let slot = entry.slot as usize;
        if slot >= self.at.len() {
            self.at.resize(slot + 1, 0);
            self.next.resize(slot + 1, NIL);
        }
        let at = entry.at.as_micros();
        self.at[slot] = at;
        self.file(entry.slot, at);
    }

    /// Pops the earliest entry, first pushed among equals, unless the
    /// queue is empty or that entry is due after `deadline`.
    pub(crate) fn pop(&mut self, deadline: SimTime) -> Option<Entry> {
        let deadline = deadline.as_micros();
        if self.heads[0] == NIL {
            if self.occupied == 0 {
                return None;
            }
            let b = self.occupied.trailing_zeros() as usize + 1;
            let next = self.mins[b];
            if next > deadline {
                return None;
            }
            // Every entry of bucket `b` differs from the old `last` first
            // at bit `b − 1`, as `next` does, so relative to `next` it is
            // due now or in a bucket below `b`.
            self.last = next;
            self.occupied &= !(1 << (b - 1));
            self.mins[b] = u64::MAX;
            let mut slot = std::mem::replace(&mut self.heads[b], NIL);
            while slot != NIL {
                let after = self.next[slot as usize];
                self.file(slot, self.at[slot as usize]);
                slot = after;
            }
        } else if self.last > deadline {
            return None;
        }
        let slot = self.heads[0];
        self.heads[0] = self.next[slot as usize];
        Some(Entry {
            at: SimTime::from_micros(self.last),
            slot,
        })
    }

    /// Appends `slot`, due at `at`, to the tail of its bucket.
    fn file(&mut self, slot: u32, at: u64) {
        let b = 64 - (at ^ self.last).leading_zeros() as usize;
        if b > 0 {
            self.occupied |= 1 << (b - 1);
            self.mins[b] = self.mins[b].min(at);
        }
        self.next[slot as usize] = NIL;
        match self.heads[b] {
            NIL => self.heads[b] = slot,
            _ => self.next[self.tails[b] as usize] = slot,
        }
        self.tails[b] = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random monotone pushes interleaved with deadline-bounded pops
        /// come out exactly as from a binary heap over `(at, push index)`.
        #[test]
        fn pops_match_a_binary_heap(
            ops in proptest::collection::vec((0u8..10, any::<u64>(), 0u64..6), 1..600),
            near_max in any::<bool>(),
        ) {
            let mut queue = RadixQueue::new();
            let mut oracle = BinaryHeap::new();
            let mut last = if near_max { u64::MAX - 1_000 } else { 0 };
            queue.last = last;
            let mut pushed = 0u64;
            let mut popped = 0usize;
            for (op, raw, small) in ops {
                // A gap from `last`: nothing, a few µs, a power of two, or
                // anything up to `u64::MAX`.
                let gap = match raw % 4 {
                    0 => 0,
                    1 => small,
                    2 => 1 << (raw >> 58),
                    _ => raw >> (raw % 64),
                };
                let time = last.saturating_add(gap);
                if op < 6 {
                    // Pushes, some in bursts at `last` or at one instant.
                    for _ in 0..=(small * u64::from(op == 0)) {
                        // The slot stands for the push index.
                        let entry = Entry { at: SimTime::from_micros(time), slot: pushed as u32 };
                        queue.push(entry);
                        oracle.push(Reverse((time, pushed)));
                        pushed += 1;
                    }
                } else {
                    // Pops until the deadline, which may fall before `last`.
                    let deadline = if op == 6 { last.saturating_sub(small) } else { time };
                    loop {
                        let want = match oracle.peek() {
                            Some(&Reverse((at, _))) if at <= deadline => oracle.pop().map(|Reverse(key)| key),
                            _ => None,
                        };
                        let got = queue
                            .pop(SimTime::from_micros(deadline))
                            .map(|entry| (entry.at.as_micros(), u64::from(entry.slot)));
                        prop_assert_eq!(got, want, "pop {} by deadline {}", popped, deadline);
                        let Some((at, _)) = got else { break };
                        last = at;
                        popped += 1;
                    }
                }
            }
            let drained: Vec<_> = std::iter::from_fn(|| queue.pop(SimTime::MAX))
                .map(|entry| (entry.at.as_micros(), u64::from(entry.slot)))
                .collect();
            let want: Vec<_> = std::iter::from_fn(|| oracle.pop().map(|Reverse(key)| key)).collect();
            prop_assert_eq!(drained, want);
        }
    }
}
