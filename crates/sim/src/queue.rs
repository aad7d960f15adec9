//! The discrete-event queue at the heart of the simulator.
//!
//! Events are ordered by `(time, sequence)` where the sequence number is the
//! insertion order; ties in time therefore fire in the order they were
//! scheduled, which makes whole-simulation replay bit-for-bit deterministic.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// An event together with its firing time and deterministic tie-breaker.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap but we need earliest-first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Error returned when scheduling into the past.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleInPast {
    /// The current simulation clock.
    pub now: SimTime,
    /// The rejected target time.
    pub requested: SimTime,
}

impl std::fmt::Display for ScheduleInPast {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cannot schedule event at {} before current time {}",
            self.requested, self.now
        )
    }
}

impl std::error::Error for ScheduleInPast {}

/// A time-ordered event queue with a monotonically advancing clock.
///
/// # Examples
///
/// ```
/// use flexpipe_sim::queue::EventQueue;
/// use flexpipe_sim::time::{SimDuration, SimTime};
///
/// let mut q: EventQueue<&str> = EventQueue::new();
/// q.schedule_after(SimDuration::from_secs(2), "later").unwrap();
/// q.schedule_after(SimDuration::from_secs(1), "sooner").unwrap();
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "sooner")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2), "later")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    now: SimTime,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
        }
    }

    /// The current simulation clock (time of the most recently popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// Scheduling exactly at the current clock is allowed (the event fires
    /// "immediately", after already-queued events at the same instant).
    pub fn schedule(&mut self, at: SimTime, event: E) -> Result<(), ScheduleInPast> {
        if at < self.now {
            return Err(ScheduleInPast {
                now: self.now,
                requested: at,
            });
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { at, seq, event });
        Ok(())
    }

    /// Schedules `event` after a relative delay from the current clock.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) -> Result<(), ScheduleInPast> {
        self.schedule(self.now + delay, event)
    }

    /// Schedules `event` at the current clock instant.
    pub fn schedule_now(&mut self, event: E) {
        self.schedule(self.now, event)
            .expect("scheduling at the current instant cannot fail");
    }

    /// The firing time of the next event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.at)
    }

    /// Pops the next event, advancing the clock to its firing time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let scheduled = self.heap.pop()?;
        debug_assert!(scheduled.at >= self.now, "event queue time went backwards");
        self.now = scheduled.at;
        Some((scheduled.at, scheduled.event))
    }

    /// The events tied at the earliest firing time, in deterministic
    /// insertion order: index 0 is exactly what [`EventQueue::pop`] would
    /// fire next. Empty when no events are pending.
    ///
    /// This is the schedule-exploration seam: a driver that wants to
    /// permute same-instant orderings reads the batch here and commits a
    /// choice with [`EventQueue::pop_tied`].
    pub fn front_batch(&self) -> Vec<&E> {
        let Some(t) = self.peek_time() else {
            return Vec::new();
        };
        let mut tied: Vec<&Scheduled<E>> = self.heap.iter().filter(|s| s.at == t).collect();
        tied.sort_by_key(|s| s.seq);
        tied.into_iter().map(|s| &s.event).collect()
    }

    /// Pops the `index`-th event (insertion order) of the front same-time
    /// batch, advancing the clock to its firing time. `pop_tied(0)` is
    /// identical to [`EventQueue::pop`]. Events skipped over keep their
    /// original sequence numbers, so subsequent pops see the rest of the
    /// batch in unchanged relative order. Returns `None` when the queue is
    /// empty or `index` is out of range for the front batch (the queue is
    /// left untouched).
    pub fn pop_tied(&mut self, index: usize) -> Option<(SimTime, E)> {
        // The canonical choice needs no walk over the batch, which keeps a
        // driver stepping `pop_tied(0)` through a large same-instant batch
        // linear instead of quadratic.
        if index == 0 {
            return self.pop();
        }
        let t = self.peek_time()?;
        let mut batch = Vec::new();
        while self.heap.peek().is_some_and(|s| s.at == t) {
            batch.push(self.heap.pop().expect("peeked"));
        }
        if index >= batch.len() {
            self.heap.extend(batch);
            return None;
        }
        let chosen = batch.swap_remove(index);
        self.heap.extend(batch);
        debug_assert!(chosen.at >= self.now, "event queue time went backwards");
        self.now = chosen.at;
        Some((chosen.at, chosen.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), 'c').unwrap();
        q.schedule(SimTime::from_secs(1), 'a').unwrap();
        q.schedule(SimTime::from_secs(2), 'b').unwrap();
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_fire_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..10 {
            q.schedule(t, i).unwrap();
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ()).unwrap();
        q.schedule(SimTime::from_secs(5), ()).unwrap();
        q.schedule(SimTime::from_secs(9), ()).unwrap();
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
        }
        assert_eq!(q.now(), SimTime::from_secs(9));
    }

    #[test]
    fn rejects_scheduling_in_past() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2), ()).unwrap();
        q.pop();
        let err = q.schedule(SimTime::from_secs(1), ()).unwrap_err();
        assert_eq!(err.requested, SimTime::from_secs(1));
        assert_eq!(err.now, SimTime::from_secs(2));
    }

    #[test]
    fn schedule_at_now_is_allowed() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2), 1).unwrap();
        q.pop();
        q.schedule_now(2);
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), 2)));
    }

    #[test]
    fn front_batch_lists_ties_in_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2), 'x').unwrap();
        q.schedule(SimTime::from_secs(1), 'a').unwrap();
        q.schedule(SimTime::from_secs(1), 'b').unwrap();
        q.schedule(SimTime::from_secs(1), 'c').unwrap();
        assert_eq!(q.front_batch(), vec![&'a', &'b', &'c']);
        // Reading the batch does not disturb the queue.
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), 'a')));
        let empty: EventQueue<char> = EventQueue::new();
        assert!(empty.front_batch().is_empty());
    }

    #[test]
    fn pop_tied_zero_matches_pop() {
        let mut a = EventQueue::new();
        let mut b = EventQueue::new();
        for q in [&mut a, &mut b] {
            q.schedule(SimTime::from_secs(1), 'a').unwrap();
            q.schedule(SimTime::from_secs(1), 'b').unwrap();
            q.schedule(SimTime::from_secs(3), 'c').unwrap();
        }
        loop {
            let x = a.pop();
            let y = b.pop_tied(0);
            assert_eq!(x, y);
            if x.is_none() {
                break;
            }
        }
    }

    #[test]
    fn pop_tied_permutes_only_the_front_batch() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..4 {
            q.schedule(t, i).unwrap();
        }
        q.schedule(SimTime::from_secs(2), 99).unwrap();
        // Fire the batch as 2, 0, 3, 1: skipped events keep their order.
        assert_eq!(q.pop_tied(2), Some((t, 2)));
        assert_eq!(q.front_batch(), vec![&0, &1, &3]);
        assert_eq!(q.pop_tied(0), Some((t, 0)));
        assert_eq!(q.pop_tied(1), Some((t, 3)));
        assert_eq!(q.pop_tied(0), Some((t, 1)));
        // The later event is untouched and out-of-range choices are inert.
        assert_eq!(q.pop_tied(1), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_tied(0), Some((SimTime::from_secs(2), 99)));
        assert_eq!(q.pop_tied(0), None);
    }
}
