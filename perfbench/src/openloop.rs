//! Open-loop accounting: requests leave on a fixed schedule whatever the
//! server does, and each is timed from when it was due, so a stall shows
//! up in every request queued behind it.
//!
//! Times are nanoseconds from the start of the run, read from a
//! [`Clock`]; the arithmetic is kept free of the real clock so it can be
//! checked against a fake one.

use std::time::{Duration, Instant};

/// A source of time the sender waits on.
pub trait Clock {
    /// Nanoseconds since the clock's origin.
    fn now(&self) -> u64;
    /// Blocks until `now() >= t` (returns at once when already past).
    fn sleep_until(&mut self, t: u64);
}

/// The host clock.
pub struct RealClock {
    origin: Instant,
}

impl RealClock {
    /// A clock whose origin is `origin`.
    pub fn new(origin: Instant) -> Self {
        RealClock { origin }
    }
}

impl Clock for RealClock {
    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn sleep_until(&mut self, t: u64) {
        let now = self.now();
        if t > now {
            std::thread::sleep(Duration::from_nanos(t - now));
        }
    }
}

/// Due times of `count` requests sent at `rate` per second from `start`.
pub fn schedule(start: u64, rate: f64, count: usize) -> Vec<u64> {
    (0..count)
        .map(|i| start + (i as f64 * 1e9 / rate).round() as u64)
        .collect()
}

/// Sends request `i` at `due[i]` (never earlier; late when the previous
/// send ran long) and returns the time each was actually sent. Stops at
/// the first send error and returns the times sent so far.
pub fn run_schedule<C: Clock>(
    clock: &mut C,
    due: &[u64],
    mut send: impl FnMut(usize) -> std::io::Result<()>,
) -> Vec<u64> {
    let mut sent = Vec::with_capacity(due.len());
    for (i, &t) in due.iter().enumerate() {
        clock.sleep_until(t);
        let at = clock.now();
        if send(i).is_err() {
            break;
        }
        sent.push(at);
    }
    sent
}

/// How late each send left, in milliseconds.
pub fn lateness_ms(due: &[u64], sent: &[u64]) -> Vec<f64> {
    due.iter()
        .zip(sent)
        .map(|(&d, &s)| s.saturating_sub(d) as f64 / 1e6)
        .collect()
}

/// The backlog at `t`: requests due by `t` whose response had not
/// arrived by `t`, whether the server or a stalled sender held them up.
/// `recv[i]` is `None` for a response that never arrived.
pub fn outstanding_at(t: u64, due: &[u64], recv: &[Option<u64>]) -> usize {
    due.iter()
        .enumerate()
        .filter(|&(i, &d)| d <= t && recv.get(i).copied().flatten().is_none_or(|r| r > t))
        .count()
}

/// Latency of each request from its due time, in milliseconds; a request
/// that failed or never got a response is infinitely late.
pub fn latency_from_due_ms(due: &[u64], recv: &[Option<u64>], ok: &[bool]) -> Vec<f64> {
    due.iter()
        .enumerate()
        .map(
            |(i, &d)| match (recv.get(i).copied().flatten(), ok.get(i)) {
                (Some(r), Some(true)) => r.saturating_sub(d) as f64 / 1e6,
                _ => f64::INFINITY,
            },
        )
        .collect()
}

/// Whether a rate step counts toward the highest sustained rate: its tail
/// meets the limit (failures count as missing it), and what was still
/// outstanding when the step's schedule ended fits within what the rate
/// can have in flight inside the limit, i.e. the backlog did not grow.
pub fn step_sustained(tail_ms: f64, limit_ms: f64, outstanding_end: usize, rate: f64) -> bool {
    let in_flight = (rate * limit_ms / 1000.0).ceil().max(1.0) as usize;
    tail_ms <= limit_ms && outstanding_end <= in_flight
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::cell::Cell;
    use std::rc::Rc;

    /// A clock that only moves when told: sleeping jumps to the target,
    /// and a send can advance it through a shared handle.
    struct FakeClock {
        now: Rc<Cell<u64>>,
    }

    impl FakeClock {
        fn new() -> Self {
            FakeClock {
                now: Rc::new(Cell::new(0)),
            }
        }
    }

    impl Clock for FakeClock {
        fn now(&self) -> u64 {
            self.now.get()
        }
        fn sleep_until(&mut self, t: u64) {
            self.now.set(self.now.get().max(t));
        }
    }

    const MS: u64 = 1_000_000;

    #[test]
    fn schedule_spaces_requests_by_the_rate() {
        assert_eq!(schedule(5, 500.0, 3), vec![5, 5 + 2 * MS, 5 + 4 * MS]);
    }

    #[test]
    fn a_fast_sender_is_never_late() {
        let due = schedule(0, 500.0, 5);
        let mut clock = FakeClock::new();
        let sent = run_schedule(&mut clock, &due, |_| Ok(()));
        assert_eq!(sent, due);
        assert!(lateness_ms(&due, &sent).iter().all(|&l| l == 0.0));
    }

    #[test]
    fn a_slow_sender_falls_behind_and_lateness_accumulates() {
        // Due every 2 ms, but each send blocks for 3 ms: request i leaves
        // i ms late, and the loop never sends early to catch up.
        let due = schedule(0, 500.0, 5);
        let mut clock = FakeClock::new();
        let now = Rc::clone(&clock.now);
        let sent = run_schedule(&mut clock, &due, |_| {
            now.set(now.get() + 3 * MS);
            Ok(())
        });
        assert_eq!(sent, vec![0, 3 * MS, 6 * MS, 9 * MS, 12 * MS]);
        assert_eq!(lateness_ms(&due, &sent), vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn a_send_error_stops_the_schedule() {
        let due = schedule(0, 1000.0, 4);
        let mut clock = FakeClock::new();
        let sent = run_schedule(&mut clock, &due, |i| {
            if i == 2 {
                Err(std::io::Error::other("closed"))
            } else {
                Ok(())
            }
        });
        assert_eq!(sent.len(), 2);
    }

    #[test]
    fn backlog_counts_due_but_unanswered() {
        let due = [0, 10, 20, 30];
        let recv = [Some(5), Some(40), None, Some(31)];
        assert_eq!(outstanding_at(25, &due, &recv), 2); // #1 and #2
        assert_eq!(outstanding_at(35, &due, &recv), 2); // #1 and #2
        assert_eq!(outstanding_at(45, &due, &recv), 1); // #2 never came
        assert_eq!(outstanding_at(0, &due, &recv), 1); // #0 just due
    }

    #[test]
    fn a_stalled_sender_shows_in_the_backlog() {
        // Due every 2 ms, each send blocks 3 ms, each response takes 1 ms
        // after its send. At 8 ms all five are due; #0..#2 were answered
        // (at 1, 4, 7 ms), #3 left at 9 ms and #4 at 12 ms: a backlog of
        // two, although neither had been sent by then.
        let due = schedule(0, 500.0, 5);
        let mut clock = FakeClock::new();
        let now = Rc::clone(&clock.now);
        let sent = run_schedule(&mut clock, &due, |_| {
            now.set(now.get() + 3 * MS);
            Ok(())
        });
        let recv: Vec<Option<u64>> = sent.iter().map(|&s| Some(s + MS)).collect();
        assert_eq!(outstanding_at(8 * MS, &due, &recv), 2);
        assert_eq!(outstanding_at(20 * MS, &due, &recv), 0);
    }

    #[test]
    fn latency_runs_from_the_due_time_and_failures_are_infinite() {
        let due = [0, 2 * MS, 4 * MS];
        let recv = [Some(3 * MS), Some(9 * MS), None];
        let lat = latency_from_due_ms(&due, &recv, &[true, true, true]);
        assert_eq!(&lat[..2], &[3.0, 7.0]);
        assert!(lat[2].is_infinite());
        let lat = latency_from_due_ms(&due, &recv, &[true, false, true]);
        assert!(lat[1].is_infinite());
    }

    #[test]
    fn a_growing_backlog_fails_the_step() {
        // 1000/s with a 20 ms limit may have 20 in flight.
        assert!(step_sustained(15.0, 20.0, 20, 1000.0));
        assert!(!step_sustained(15.0, 20.0, 21, 1000.0));
        assert!(!step_sustained(25.0, 20.0, 0, 1000.0));
        assert!(!step_sustained(f64::INFINITY, 20.0, 0, 1000.0));
    }
}
