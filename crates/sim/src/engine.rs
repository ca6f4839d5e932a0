//! Event queue: the heart of the discrete-event engine.
//!
//! Events are generic payloads scheduled at absolute times; same-instant
//! events pop in schedule (FIFO) order, which makes every simulation in
//! this workspace deterministic. Cancellation is lazy: the entry stays in
//! the heap (removed when it would pop), and liveness is tracked in a set
//! of *pending* sequence numbers that shrinks as events fire — so the
//! bookkeeping is bounded by the number of queued events and cannot grow
//! without bound over a long campaign, no matter how many events are
//! cancelled (or how often dead [`EventId`]s are re-cancelled).

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// Handle identifying a scheduled event (for cancellation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

/// Observer of the simulation step loop, called once per popped event with
/// the clock before and after the pop. Runtime monitors (invariant
/// registries, trace recorders) implement this to watch every step without
/// the handler having to know about them. `()` is the no-op probe.
pub trait StepProbe {
    /// Called after an event pops, before the handler runs. `prev` is the
    /// clock before the pop, `now` the popped event's timestamp.
    fn on_event(&mut self, prev: SimTime, now: SimTime);
}

impl StepProbe for () {
    fn on_event(&mut self, _prev: SimTime, _now: SimTime) {}
}

/// A deterministic event queue carrying payloads of type `E`.
#[derive(Debug)]
pub struct EventQueue<E> {
    now: SimTime,
    next_seq: u64,
    heap: BinaryHeap<Reverse<Entry<E>>>,
    /// Sequence numbers scheduled but neither fired nor cancelled. An
    /// entry popping off the heap consults (and prunes) this set, so its
    /// size is always ≤ `heap.len()` — cancellation leaves no tombstone
    /// behind once the entry pops.
    live: HashSet<u64>,
}

#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl<E> EventQueue<E> {
    /// A fresh queue at time zero.
    pub fn new() -> Self {
        Self {
            now: SimTime::ZERO,
            next_seq: 0,
            heap: BinaryHeap::new(),
            live: HashSet::new(),
        }
    }

    /// Current simulation time (the time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules a payload at absolute time `at`.
    ///
    /// # Panics
    /// If `at` is in the past.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule into the past ({at} < {})",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.live.insert(seq);
        self.heap.push(Reverse(Entry { at, seq, payload }));
        EventId(seq)
    }

    /// Schedules a payload `delay` after now.
    pub fn schedule_in(&mut self, delay: SimTime, payload: E) -> EventId {
        self.schedule_at(self.now + delay, payload)
    }

    /// Cancels a previously scheduled event. Cancelling an already-fired or
    /// already-cancelled event is a no-op (returns `false`) and — unlike a
    /// tombstone scheme — costs no memory: over an arbitrarily long
    /// campaign the bookkeeping stays bounded by the number of *pending*
    /// events.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.live.remove(&id.0)
    }

    /// Pops the next live event, advancing `now` to its timestamp.
    /// Cancelled entries encountered on the way are dropped for good
    /// (their bookkeeping was already pruned at `cancel` time).
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(Reverse(entry)) = self.heap.pop() {
            if !self.live.remove(&entry.seq) {
                continue;
            }
            self.now = entry.at;
            return Some((entry.at, entry.payload));
        }
        None
    }

    /// Number of live events still queued.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether no live events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Runs the simulation loop: pops events and feeds them to `handler`
    /// (which may schedule more) until the queue drains, `handler` returns
    /// `false`, or `max_events` fire. Returns the number of events handled.
    pub fn run(
        &mut self,
        max_events: usize,
        handler: impl FnMut(&mut Self, SimTime, E) -> bool,
    ) -> usize {
        self.run_with_probe(max_events, &mut (), handler)
    }

    /// [`Self::run`] with a [`StepProbe`] observing every pop: the probe
    /// sees the clock before and after each event fires, letting runtime
    /// monitors check time-monotonicity (and anything else per-step)
    /// without entangling the handler.
    pub fn run_with_probe(
        &mut self,
        max_events: usize,
        probe: &mut impl StepProbe,
        mut handler: impl FnMut(&mut Self, SimTime, E) -> bool,
    ) -> usize {
        let mut handled = 0;
        while handled < max_events {
            let prev = self.now;
            let Some((t, e)) = self.pop() else { break };
            probe.on_event(prev, t);
            handled += 1;
            if !handler(self, t, e) {
                break;
            }
        }
        handled
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(30), "c");
        q.schedule_at(SimTime::from_nanos(10), "a");
        q.schedule_at(SimTime::from_nanos(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(q.now(), SimTime::from_nanos(30));
    }

    #[test]
    fn fifo_tie_break_at_same_instant() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(1);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancellation() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_nanos(10), 1);
        q.schedule_at(SimTime::from_nanos(20), 2);
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel is a no-op");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some(2));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut q: EventQueue<i32> = EventQueue::new();
        assert!(!q.cancel(EventId(99)));
    }

    #[test]
    fn cancel_after_fire_is_a_noop() {
        // regression: cancelling an already-fired event used to insert a
        // permanent tombstone, corrupting len() (underflow) and leaking
        // memory over long campaigns
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_nanos(1), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some(1));
        assert!(!q.cancel(a), "cancelling a fired event must be a no-op");
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
        // the queue must remain fully usable afterwards
        q.schedule_at(SimTime::from_nanos(2), 2);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some(2));
    }

    #[test]
    fn cancellation_bookkeeping_stays_bounded_over_long_campaigns() {
        // a campaign-shaped workload: schedule, fire, (re-)cancel dead
        // handles, and cancel live ones — for many iterations. With the
        // old tombstone set this accumulated one entry per dead cancel;
        // now liveness tracking is bounded by the pending-event count,
        // observable through len() staying exact throughout.
        let mut q = EventQueue::new();
        let mut dead: Vec<EventId> = Vec::new();
        for i in 0..10_000u64 {
            let fired = q.schedule_at(SimTime::from_nanos(2 * i + 1), i);
            assert_eq!(q.pop().map(|(_, e)| e), Some(i));
            dead.push(fired);
            // every dead handle re-cancelled each round: all no-ops
            if i % 1000 == 0 {
                for &id in &dead {
                    assert!(!q.cancel(id));
                }
            }
            // a scheduled-then-cancelled timer, like a retry timeout
            let timeout = q.schedule_at(SimTime::from_nanos(2 * i + 2), i);
            assert!(q.cancel(timeout));
            assert_eq!(q.len(), 0, "iteration {i}");
        }
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(10), 1);
        q.pop();
        q.schedule_at(SimTime::from_nanos(5), 2);
    }

    #[test]
    fn run_loop_reschedules() {
        // a self-perpetuating tick that stops after 5 firings
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(1), ());
        let mut fired = 0;
        let handled = q.run(100, |q, t, ()| {
            fired += 1;
            if fired < 5 {
                q.schedule_at(t + SimTime::from_nanos(10), ());
            }
            true
        });
        assert_eq!(handled, 5);
        assert_eq!(q.now(), SimTime::from_nanos(41));
    }

    #[test]
    fn run_respects_event_budget() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(1), ());
        let handled = q.run(3, |q, t, ()| {
            q.schedule_at(t + SimTime::from_nanos(1), ());
            true
        });
        assert_eq!(handled, 3);
        assert_eq!(q.len(), 1, "the never-fired reschedule remains");
    }

    #[test]
    fn probe_sees_every_pop_with_monotone_clock() {
        struct Recorder(Vec<(SimTime, SimTime)>);
        impl StepProbe for Recorder {
            fn on_event(&mut self, prev: SimTime, now: SimTime) {
                self.0.push((prev, now));
            }
        }
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(5), ());
        q.schedule_at(SimTime::from_nanos(5), ());
        q.schedule_at(SimTime::from_nanos(9), ());
        let mut probe = Recorder(Vec::new());
        let handled = q.run_with_probe(100, &mut probe, |_, _, ()| true);
        assert_eq!(handled, 3);
        assert_eq!(
            probe.0,
            vec![
                (SimTime::ZERO, SimTime::from_nanos(5)),
                (SimTime::from_nanos(5), SimTime::from_nanos(5)),
                (SimTime::from_nanos(5), SimTime::from_nanos(9)),
            ]
        );
    }
}
