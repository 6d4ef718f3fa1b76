//! Fixed-schedule (open-loop) pacing. Request `i` is *due* at
//! `start + i * period` whatever the system under test is doing; when the
//! previous response overruns, the next request goes out late and its
//! latency is still taken from the due time, so a stall is charged to
//! every request it delayed (no coordinated omission).

use std::time::{Duration, Instant};

/// Time source, abstracted so the schedule arithmetic is testable.
pub trait Clock {
    /// Time since the clock's origin.
    fn now(&self) -> Duration;
    /// Blocks until `now() >= t` (returns at once when already past).
    fn wait_until(&self, t: Duration);
}

/// Wall clock. Sleeps to within [`SPIN`] of the target and spins the
/// rest: a bare `sleep` overshoots by tens of microseconds, which would
/// be charged to every sub-millisecond read.
#[derive(Debug, Clone, Copy)]
pub struct RealClock {
    origin: Instant,
}

const SPIN: Duration = Duration::from_micros(150);

impl RealClock {
    pub fn new(origin: Instant) -> Self {
        RealClock { origin }
    }
}

impl Clock for RealClock {
    fn now(&self) -> Duration {
        self.origin.elapsed()
    }

    fn wait_until(&self, t: Duration) {
        let now = self.now();
        if t > now + SPIN {
            std::thread::sleep(t - now - SPIN);
        }
        while self.now() < t {
            std::hint::spin_loop();
        }
    }
}

/// One fired operation, timed against its schedule slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fired<T> {
    /// When the operation was due.
    pub due: Duration,
    /// How long after `due` it actually started (0 when on time).
    pub late: Duration,
    /// Completion time minus `due`: the latency a user on the schedule
    /// saw, queueing behind earlier overruns included.
    pub latency: Duration,
    /// When it completed, on the clock.
    pub done: Duration,
    pub result: T,
}

/// An open-loop schedule of evenly spaced slots.
#[derive(Debug)]
pub struct OpenLoop<C: Clock> {
    clock: C,
    start: Duration,
    period: Duration,
    next: u32,
}

impl<C: Clock> OpenLoop<C> {
    /// Slots at `start`, `start + period`, … on `clock`.
    pub fn new(clock: C, start: Duration, period: Duration) -> Self {
        OpenLoop {
            clock,
            start,
            period,
            next: 0,
        }
    }

    /// Slots fired so far.
    pub fn fired(&self) -> u32 {
        self.next
    }

    /// Waits for the next slot (or starts at once when already past it)
    /// and runs `op`.
    pub fn fire<T>(&mut self, op: impl FnOnce() -> T) -> Fired<T> {
        let due = self.start + self.period * self.next;
        self.next += 1;
        self.clock.wait_until(due);
        let started = self.clock.now();
        let result = op();
        let done = self.clock.now();
        Fired {
            due,
            late: started.saturating_sub(due),
            latency: done.saturating_sub(due),
            done,
            result,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when told to.
    struct FakeClock(Cell<Duration>);

    impl FakeClock {
        fn advance(&self, d: Duration) {
            self.0.set(self.0.get() + d);
        }
    }

    impl Clock for &FakeClock {
        fn now(&self) -> Duration {
            self.0.get()
        }
        fn wait_until(&self, t: Duration) {
            if t > self.0.get() {
                self.0.set(t);
            }
        }
    }

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn latency_is_measured_from_the_due_time() {
        let clock = FakeClock(Cell::new(Duration::ZERO));
        let mut sched = OpenLoop::new(&clock, 10 * MS, 5 * MS);

        // Slot 0 is due at 10 ms; the op takes 2 ms.
        let a = sched.fire(|| clock.advance(2 * MS));
        assert_eq!(
            (a.due, a.late, a.latency),
            (10 * MS, Duration::ZERO, 2 * MS)
        );

        // Slot 1 (due 15 ms) stalls for 12 ms, overrunning slots 2 and 3.
        let b = sched.fire(|| clock.advance(12 * MS));
        assert_eq!(
            (b.due, b.late, b.latency),
            (15 * MS, Duration::ZERO, 12 * MS)
        );

        // Slot 2 was due at 20 ms but starts at 27 ms: 7 ms late, and its
        // 1 ms of service reads as 8 ms to a user on the schedule.
        let c = sched.fire(|| clock.advance(MS));
        assert_eq!((c.due, c.late, c.latency), (20 * MS, 7 * MS, 8 * MS));
        assert_eq!(c.done, 28 * MS);

        // Slot 3 (due 25 ms) is still behind; slot 4 (due 30 ms) catches up.
        let d = sched.fire(|| clock.advance(MS));
        assert_eq!((d.late, d.latency), (3 * MS, 4 * MS));
        let e = sched.fire(|| clock.advance(MS));
        assert_eq!((e.due, e.late, e.latency), (30 * MS, Duration::ZERO, MS));
        assert_eq!(sched.fired(), 5);
    }
}
