//! The event queue and simulation driver.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

use crate::SimTime;

/// Token identifying a scheduled event, usable for cancellation.
///
/// Tokens are unique within one [`Simulation`] instance.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventToken(u64);

struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    cancelled: bool,
    payload: E,
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
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first. The sequence number breaks ties deterministically in
        // scheduling order.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic discrete-event simulation queue.
///
/// Events are arbitrary payloads of type `E` scheduled at virtual instants.
/// [`Simulation::pop`] delivers them in nondecreasing time order, breaking
/// ties by scheduling order, and advances the clock to each event's
/// timestamp. The driver loop lives with the caller, which keeps this engine
/// free of any trait gymnastics:
///
/// ```
/// use fluidicl_des::{SimDuration, Simulation};
///
/// #[derive(Debug)]
/// enum Ev { Ping, Pong }
///
/// let mut sim = Simulation::new();
/// sim.schedule_at(sim.now() + SimDuration::from_nanos(5), Ev::Ping);
/// let mut log = Vec::new();
/// while let Some((t, ev)) = sim.pop() {
///     match ev {
///         Ev::Ping => {
///             log.push((t, "ping"));
///             sim.schedule_at(t + SimDuration::from_nanos(3), Ev::Pong);
///         }
///         Ev::Pong => log.push((t, "pong")),
///     }
/// }
/// assert_eq!(log.len(), 2);
/// assert_eq!(sim.now().as_nanos(), 8);
/// ```
pub struct Simulation<E> {
    now: SimTime,
    next_seq: u64,
    queue: BinaryHeap<Scheduled<E>>,
    cancelled: Vec<u64>,
    delivered: u64,
}

impl<E> Default for Simulation<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulation<E> {
    /// Creates an empty simulation with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Self::starting_at(SimTime::ZERO)
    }

    /// Creates an empty simulation with the clock at `start`.
    ///
    /// The FluidiCL runtime seeds per-kernel simulations with the global
    /// virtual clock so that consecutive kernels share one timeline.
    pub fn starting_at(start: SimTime) -> Self {
        Simulation {
            now: start,
            next_seq: 0,
            queue: BinaryHeap::new(),
            cancelled: Vec::new(),
            delivered: 0,
        }
    }

    /// The current virtual time (timestamp of the most recently popped event,
    /// or the start time if none has been popped).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Schedules `payload` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current clock: delivering into the
    /// past would break causality.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) -> EventToken {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at:?} now={:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Scheduled {
            at,
            seq,
            cancelled: false,
            payload,
        });
        EventToken(seq)
    }

    /// Cancels a previously scheduled event. Returns `true` if the event was
    /// still pending, `false` if it had already been delivered or cancelled.
    ///
    /// Cancellation is lazy: the slot stays in the heap and is skipped when
    /// popped, which keeps cancellation O(log n) amortised.
    pub fn cancel(&mut self, token: EventToken) -> bool {
        if token.0 >= self.next_seq || self.cancelled.contains(&token.0) {
            return false;
        }
        // We cannot look inside the heap cheaply, so remember the sequence
        // number and filter on pop. Delivered events have strictly smaller
        // seq than anything pending *only* in FIFO workloads, so track
        // explicitly instead.
        let pending = self.queue.iter().any(|s| s.seq == token.0 && !s.cancelled);
        if pending {
            self.cancelled.push(token.0);
        }
        pending
    }

    /// Pops the next event, advancing the clock to its timestamp.
    ///
    /// Returns `None` when the queue is empty (cancelled events are skipped
    /// silently).
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(s) = self.queue.pop() {
            if let Some(idx) = self.cancelled.iter().position(|&c| c == s.seq) {
                self.cancelled.swap_remove(idx);
                continue;
            }
            debug_assert!(s.at >= self.now, "event queue delivered out of order");
            self.now = s.at;
            self.delivered += 1;
            return Some((s.at, s.payload));
        }
        None
    }
}

impl<E> fmt::Debug for Simulation<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("pending", &(self.queue.len() - self.cancelled.len()))
            .field("delivered", &self.delivered)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimDuration;

    #[test]
    fn delivers_in_time_order() {
        let mut sim = Simulation::new();
        sim.schedule_at(SimTime::from_nanos(30), "c");
        sim.schedule_at(SimTime::from_nanos(10), "a");
        sim.schedule_at(SimTime::from_nanos(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| sim.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_in_scheduling_order() {
        let mut sim = Simulation::new();
        let t = SimTime::from_nanos(5);
        for i in 0..10 {
            sim.schedule_at(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| sim.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut sim = Simulation::new();
        sim.schedule_at(SimTime::from_nanos(7), ());
        assert_eq!(sim.now(), SimTime::ZERO);
        sim.pop();
        assert_eq!(sim.now(), SimTime::from_nanos(7));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut sim = Simulation::new();
        sim.schedule_at(SimTime::from_nanos(10), ());
        sim.pop();
        sim.schedule_at(SimTime::from_nanos(5), ());
    }

    #[test]
    fn cancel_suppresses_delivery() {
        let mut sim = Simulation::new();
        let a = sim.schedule_at(SimTime::from_nanos(1), "a");
        sim.schedule_at(SimTime::from_nanos(2), "b");
        assert!(sim.cancel(a));
        assert!(!sim.cancel(a), "double cancel reports false");
        let order: Vec<_> = std::iter::from_fn(|| sim.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["b"]);
    }

    #[test]
    fn cancel_after_delivery_is_false() {
        let mut sim = Simulation::new();
        let a = sim.schedule_at(SimTime::from_nanos(1), ());
        sim.pop();
        assert!(!sim.cancel(a));
    }

    #[test]
    fn starting_at_offsets_timeline() {
        let mut sim = Simulation::starting_at(SimTime::from_nanos(100));
        assert_eq!(sim.now(), SimTime::from_nanos(100));
        sim.schedule_at(sim.now() + SimDuration::from_nanos(5), ());
        let (t, _) = sim.pop().unwrap();
        assert_eq!(t, SimTime::from_nanos(105));
    }

    #[test]
    fn counters_track_activity() {
        let mut sim = Simulation::new();
        let a = sim.schedule_at(SimTime::from_nanos(1), ());
        sim.schedule_at(SimTime::from_nanos(2), ());
        sim.cancel(a);
        while sim.pop().is_some() {}
        assert_eq!(sim.delivered(), 1, "cancelled events are not delivered");
    }
}
