//! The discrete-event queue at the heart of the simulator.
//!
//! Events are ordered by `(time, sequence)` where the sequence number is the
//! insertion order; ties in time therefore fire in the order they were
//! scheduled, which makes whole-simulation replay bit-for-bit deterministic.
//!
//! The heap orders small fixed-size keys — `(time, sequence, slot)`, 24
//! bytes — while the events themselves sit in a slab whose slots are
//! reused as events fire. A push or pop moves keys, never events, and the
//! slab never holds more slots than the peak number of pending events.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// A pending event's heap key: its firing time, its deterministic
/// tie-breaker and the slab slot holding the event itself. Keys order by
/// `(at, seq)`; `seq` is unique, so the slot never decides an order.
#[derive(Debug, Clone, Copy)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl Key {
    /// `(at, seq)` as one integer: comparing two keys is one 128-bit
    /// comparison, which compiles without branches.
    fn order(&self) -> u128 {
        (u128::from(self.at.as_nanos()) << 64) | u128::from(self.seq)
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.order() == other.order()
    }
}
impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap but we need earliest-first.
        other.order().cmp(&self.order())
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
    heap: BinaryHeap<Key>,
    /// Event storage: `Some` for every slot a pending key names, `None`
    /// for the slots listed in `free`.
    slab: Vec<Option<E>>,
    /// Vacant slab slots, reused last-freed first.
    free: Vec<u32>,
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
            slab: Vec::new(),
            free: Vec::new(),
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
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(event);
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len()).expect("pending events fit a u32 slot");
                self.slab.push(Some(event));
                slot
            }
        };
        self.heap.push(Key { at, seq, slot });
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
        self.heap.peek().map(|k| k.at)
    }

    /// Pops the next event, advancing the clock to its firing time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let key = self.heap.pop()?;
        Some(self.fire(key))
    }

    /// Takes `key`'s event out of the slab, frees its slot and advances the
    /// clock to its firing time.
    fn fire(&mut self, key: Key) -> (SimTime, E) {
        debug_assert!(key.at >= self.now, "event queue time went backwards");
        let event = self.slab[key.slot as usize]
            .take()
            .expect("a pending key names an occupied slot");
        self.free.push(key.slot);
        self.now = key.at;
        (key.at, event)
    }

    /// The event stored in `key`'s slot.
    fn event(&self, key: &Key) -> &E {
        self.slab[key.slot as usize]
            .as_ref()
            .expect("a pending key names an occupied slot")
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
        let mut tied: Vec<&Key> = self.heap.iter().filter(|k| k.at == t).collect();
        tied.sort_by_key(|k| k.seq);
        tied.into_iter().map(|k| self.event(k)).collect()
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
        while self.heap.peek().is_some_and(|k| k.at == t) {
            batch.push(self.heap.pop().expect("peeked"));
        }
        if index >= batch.len() {
            self.heap.extend(batch);
            return None;
        }
        let chosen = batch.swap_remove(index);
        self.heap.extend(batch);
        Some(self.fire(chosen))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// The naive reference the queue is held to: every pending event in a
    /// vector kept sorted by `(time, seq)`.
    #[derive(Default)]
    struct SortedModel {
        now: u64,
        next_seq: u64,
        pending: Vec<(u64, u64, u32)>,
    }

    impl SortedModel {
        fn schedule(&mut self, at: u64, event: u32) {
            self.pending.push((at, self.next_seq, event));
            self.next_seq += 1;
            self.pending.sort_unstable();
        }

        fn front_batch(&self) -> Vec<u32> {
            let Some(&(t, _, _)) = self.pending.first() else {
                return Vec::new();
            };
            self.pending
                .iter()
                .take_while(|&&(at, _, _)| at == t)
                .map(|&(_, _, e)| e)
                .collect()
        }

        fn pop_tied(&mut self, index: usize) -> Option<(u64, u32)> {
            if index >= self.front_batch().len() {
                return None;
            }
            let (at, _, event) = self.pending.remove(index);
            self.now = at;
            Some((at, event))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random interleavings of every queue operation, with delays of
        /// 0–3 ns so that most events tie: the queue returns exactly the
        /// reference model's events, times and lengths, and its slab never
        /// grows past the peak number of pending events.
        #[test]
        fn queue_matches_the_sorted_reference(
            ops in prop::collection::vec((0u32..5, 0u64..4, 0usize..6), 1..400)
        ) {
            let mut q: EventQueue<u32> = EventQueue::new();
            let mut model = SortedModel::default();
            let mut next_event = 0u32;
            let mut peak = 0usize;
            for (op, delay, index) in ops {
                match op {
                    0 => {
                        let at = model.now + delay;
                        q.schedule(SimTime::from_nanos(at), next_event).unwrap();
                        model.schedule(at, next_event);
                        next_event += 1;
                    }
                    1 => {
                        q.schedule_now(next_event);
                        model.schedule(model.now, next_event);
                        next_event += 1;
                    }
                    2 => {
                        let got = q.pop().map(|(t, e)| (t.as_nanos(), e));
                        prop_assert_eq!(got, model.pop_tied(0));
                    }
                    3 => {
                        let got = q.pop_tied(index).map(|(t, e)| (t.as_nanos(), e));
                        prop_assert_eq!(got, model.pop_tied(index));
                    }
                    _ => {
                        let got: Vec<u32> = q.front_batch().into_iter().copied().collect();
                        prop_assert_eq!(got, model.front_batch());
                    }
                }
                prop_assert_eq!(q.len(), model.pending.len());
                prop_assert_eq!(q.now().as_nanos(), model.now);
                peak = peak.max(q.len());
                prop_assert!(
                    q.slab.len() <= peak,
                    "slab holds {} slots, peak pending {}",
                    q.slab.len(),
                    peak
                );
            }
            // Draining both gives the same tail.
            while let Some((t, e)) = q.pop() {
                prop_assert_eq!(Some((t.as_nanos(), e)), model.pop_tied(0));
            }
            prop_assert!(model.pending.is_empty());
        }
    }
}
