//! Fluid-flow link model.
//!
//! Every node owns two `Pipe`s — an uplink and a downlink. A pipe
//! serializes messages FIFO at its current rate; the rate can change at any
//! simulated instant (that is how DDoS windows are modelled) and the bytes
//! already transmitted for the in-flight message are preserved across the
//! change. A rate of zero stalls the pipe without losing data, which models
//! a completely saturated victim.

use crate::message::NodeId;
use crate::time::{SimDuration, SimTime};

/// An in-flight or queued transfer.
#[derive(Clone, Debug)]
pub(crate) struct Transfer<M> {
    pub from: NodeId,
    pub to: NodeId,
    pub msg: M,
    /// Total bytes on the wire (payload + framing overhead).
    pub total_bytes: u64,
    /// Bytes still to serialize through the current pipe.
    pub bytes_left: f64,
    /// Last instant at which `bytes_left` was up to date.
    pub last_update: SimTime,
}

/// What the engine must do after a pipe operation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum PipeAction {
    /// Nothing to schedule (pipe idle, or stalled at rate 0).
    None,
    /// Schedule a completion event for the head transfer.
    Schedule { at: SimTime, generation: u64 },
}

/// One direction of a node's link.
pub(crate) struct Pipe<M> {
    /// Raw link rate in bytes per second. Zero means stalled.
    rate: f64,
    /// Bytes per second consumed by *aggregate background traffic* —
    /// directory load from client fleets and other flows that are modelled
    /// in bulk rather than as individual [`Transfer`]s. The pipe
    /// serializes simulated messages at `rate − background` (floored at
    /// zero), so a link saturated by millions of clients stalls exactly
    /// like a DDoS victim.
    background: f64,
    current: Option<Transfer<M>>,
    queue: std::collections::VecDeque<Transfer<M>>,
    /// Bumped whenever the head transfer's completion time changes, so
    /// stale completion events can be recognized and dropped.
    generation: u64,
}

impl<M> Pipe<M> {
    /// Creates a pipe with the given rate in **bits** per second.
    pub fn new(rate_bits_per_sec: f64) -> Self {
        Pipe {
            rate: rate_bits_per_sec.max(0.0) / 8.0,
            background: 0.0,
            current: None,
            queue: std::collections::VecDeque::new(),
            generation: 0,
        }
    }

    /// Current background load in bits per second.
    pub fn background_bits_per_sec(&self) -> f64 {
        self.background * 8.0
    }

    /// Bytes per second left for simulated transfers after background load.
    fn effective_rate(&self) -> f64 {
        (self.rate - self.background).max(0.0)
    }

    /// Enqueues a transfer, starting it immediately if the pipe is idle.
    pub fn enqueue(&mut self, now: SimTime, transfer: Transfer<M>) -> PipeAction {
        self.queue.push_back(transfer);
        if self.current.is_none() {
            self.start_next(now)
        } else {
            PipeAction::None
        }
    }

    /// Pops the next queued transfer into the in-flight slot.
    fn start_next(&mut self, now: SimTime) -> PipeAction {
        debug_assert!(self.current.is_none());
        match self.queue.pop_front() {
            None => PipeAction::None,
            Some(mut t) => {
                t.last_update = now;
                self.current = Some(t);
                self.generation += 1;
                self.completion_action(now)
            }
        }
    }

    /// Computes the completion event for the in-flight transfer, if the pipe
    /// is flowing.
    fn completion_action(&self, now: SimTime) -> PipeAction {
        match &self.current {
            Some(t) if self.effective_rate() > 0.0 => {
                let secs = t.bytes_left / self.effective_rate();
                PipeAction::Schedule {
                    at: now + SimDuration::from_secs_f64(secs),
                    generation: self.generation,
                }
            }
            _ => PipeAction::None,
        }
    }

    /// Handles a completion event. Returns the finished transfer (if the
    /// event is current) and the follow-up scheduling action.
    pub fn complete(&mut self, now: SimTime, generation: u64) -> (Option<Transfer<M>>, PipeAction) {
        if generation != self.generation || self.current.is_none() {
            // A stale event from before a rate change; ignore it.
            return (None, PipeAction::None);
        }
        let finished = self.current.take();
        let next = self.start_next(now);
        (finished, next)
    }

    /// Changes the pipe rate (bits/s), crediting progress made so far.
    pub fn set_rate(&mut self, now: SimTime, rate_bits_per_sec: f64) -> PipeAction {
        let new_rate = rate_bits_per_sec.max(0.0) / 8.0;
        let background = self.background;
        self.retune(now, new_rate, background)
    }

    /// Changes the background load (bits/s), crediting progress made so
    /// far. Background load models aggregate traffic (e.g. a client
    /// fleet's directory fetches) without materializing per-flow
    /// transfers; it composes with [`Pipe::set_rate`] so a DDoS window and
    /// fleet load stack on the same link.
    pub fn set_background_load(&mut self, now: SimTime, load_bits_per_sec: f64) -> PipeAction {
        let rate = self.rate;
        let new_background = load_bits_per_sec.max(0.0) / 8.0;
        self.retune(now, rate, new_background)
    }

    /// Applies a new `(rate, background)` pair at `now`, preserving the
    /// in-flight transfer's progress at the *old* effective rate.
    fn retune(&mut self, now: SimTime, rate: f64, background: f64) -> PipeAction {
        let old_effective = self.effective_rate();
        if let Some(t) = &mut self.current {
            let elapsed = now.since(t.last_update).as_secs_f64();
            t.bytes_left = (t.bytes_left - elapsed * old_effective).max(0.0);
            t.last_update = now;
        }
        self.rate = rate;
        self.background = background;
        if self.current.is_some() {
            self.generation += 1;
            self.completion_action(now)
        } else {
            PipeAction::None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Link-state probes only these tests read.
    impl<M> Pipe<M> {
        /// Current raw rate in bits per second.
        fn rate_bits_per_sec(&self) -> f64 {
            self.rate * 8.0
        }

        /// Number of transfers queued behind the in-flight one.
        fn queued(&self) -> usize {
            self.queue.len() + usize::from(self.current.is_some())
        }

        /// Bytes not yet serialized (in-flight remainder plus queued sizes).
        fn backlog_bytes(&self) -> f64 {
            let head = self.current.as_ref().map_or(0.0, |t| t.bytes_left);
            let queued: f64 = self.queue.iter().map(|t| t.total_bytes as f64).sum();
            head + queued
        }
    }

    fn transfer(bytes: u64) -> Transfer<u8> {
        Transfer {
            from: NodeId(0),
            to: NodeId(1),
            msg: 0,
            total_bytes: bytes,
            bytes_left: bytes as f64,
            last_update: SimTime::ZERO,
        }
    }

    fn at(action: PipeAction) -> SimTime {
        match action {
            PipeAction::Schedule { at, .. } => at,
            PipeAction::None => panic!("expected schedule"),
        }
    }

    #[test]
    fn fifo_serialization_times() {
        // 8 Mbit/s = 1 MB/s. Two 1 MB messages take 1 s each, in order.
        let mut pipe: Pipe<u8> = Pipe::new(8e6);
        let a1 = pipe.enqueue(SimTime::ZERO, transfer(1_000_000));
        assert_eq!(at(a1), SimTime::from_secs(1));
        let a2 = pipe.enqueue(SimTime::ZERO, transfer(1_000_000));
        assert_eq!(a2, PipeAction::None);

        let gen = match a1 {
            PipeAction::Schedule { generation, .. } => generation,
            _ => unreachable!(),
        };
        let (done, next) = pipe.complete(SimTime::from_secs(1), gen);
        assert!(done.is_some());
        assert_eq!(at(next), SimTime::from_secs(2));
    }

    #[test]
    fn rate_change_preserves_progress() {
        // 1 MB at 1 MB/s; halfway through the rate drops 10×.
        let mut pipe: Pipe<u8> = Pipe::new(8e6);
        pipe.enqueue(SimTime::ZERO, transfer(1_000_000));
        let action = pipe.set_rate(SimTime::from_millis(500), 8e5);
        // 0.5 MB remain at 0.1 MB/s → 5 s more.
        assert_eq!(
            at(action),
            SimTime::from_millis(500) + SimDuration::from_secs(5)
        );
    }

    #[test]
    fn stale_completion_ignored() {
        let mut pipe: Pipe<u8> = Pipe::new(8e6);
        let a = pipe.enqueue(SimTime::ZERO, transfer(1_000_000));
        let gen = match a {
            PipeAction::Schedule { generation, .. } => generation,
            _ => unreachable!(),
        };
        // Rate change bumps the generation; the old event must be a no-op.
        pipe.set_rate(SimTime::from_millis(1), 8e6);
        let (done, next) = pipe.complete(SimTime::from_secs(1), gen);
        assert!(done.is_none());
        assert_eq!(next, PipeAction::None);
    }

    #[test]
    fn zero_rate_stalls_and_resumes() {
        let mut pipe: Pipe<u8> = Pipe::new(0.0);
        let a = pipe.enqueue(SimTime::ZERO, transfer(1_000_000));
        assert_eq!(a, PipeAction::None);
        assert_eq!(pipe.queued(), 1);
        // Restore 8 Mbit/s at t = 10 s; the transfer finishes 1 s later.
        let action = pipe.set_rate(SimTime::from_secs(10), 8e6);
        assert_eq!(at(action), SimTime::from_secs(11));
    }

    #[test]
    fn background_load_slows_serialization() {
        // 8 Mbit/s raw, 6 Mbit/s background → 2 Mbit/s = 0.25 MB/s left.
        let mut pipe: Pipe<u8> = Pipe::new(8e6);
        pipe.set_background_load(SimTime::ZERO, 6e6);
        let a = pipe.enqueue(SimTime::ZERO, transfer(1_000_000));
        assert_eq!(at(a), SimTime::from_secs(4));
        assert_eq!(pipe.rate_bits_per_sec(), 8e6, "raw rate unchanged");
        assert_eq!(pipe.background_bits_per_sec(), 6e6);
    }

    #[test]
    fn background_saturation_stalls_and_composes_with_rate() {
        let mut pipe: Pipe<u8> = Pipe::new(8e6);
        // Background exceeding the link rate stalls the pipe outright.
        let a = pipe.enqueue(SimTime::ZERO, transfer(1_000_000));
        assert_eq!(at(a), SimTime::from_secs(1));
        let stalled = pipe.set_background_load(SimTime::from_millis(500), 10e6);
        assert_eq!(stalled, PipeAction::None);
        // Raising the raw rate above the load resumes from the half-sent
        // point: 0.5 MB left at (16 − 10) Mbit/s = 0.75 MB/s.
        let resumed = pipe.set_rate(SimTime::from_secs(10), 16e6);
        let expect = SimTime::from_secs(10) + SimDuration::from_secs_f64(500_000.0 / 750_000.0);
        assert_eq!(at(resumed), expect);
    }

    #[test]
    fn background_change_credits_progress() {
        // 1 MB at 1 MB/s for 0.5 s, then background eats half the link:
        // 0.5 MB left at 0.5 MB/s → done at 1.5 s.
        let mut pipe: Pipe<u8> = Pipe::new(8e6);
        pipe.enqueue(SimTime::ZERO, transfer(1_000_000));
        let action = pipe.set_background_load(SimTime::from_millis(500), 4e6);
        assert_eq!(at(action), SimTime::from_micros(1_500_000));
    }

    #[test]
    fn backlog_accounting() {
        let mut pipe: Pipe<u8> = Pipe::new(8e6);
        pipe.enqueue(SimTime::ZERO, transfer(1_000_000));
        pipe.enqueue(SimTime::ZERO, transfer(500_000));
        assert_eq!(pipe.backlog_bytes(), 1_500_000.0);
        assert_eq!(pipe.queued(), 2);
    }
}
