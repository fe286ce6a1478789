//! Load generation: a seeded open-loop arrival schedule and a closed-loop
//! sliding window.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::time::Duration;

/// A Poisson arrival schedule at `rate_per_s`, as offsets from the start
/// of the phase, covering `span`: the same `(rate, span, seed)` always
/// gives the same schedule.
pub fn poisson_schedule(rate_per_s: f64, span: Duration, seed: u64) -> Vec<Duration> {
    assert!(rate_per_s.is_finite() && rate_per_s > 0.0, "arrival rate must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut offsets = Vec::with_capacity((rate_per_s * span.as_secs_f64() * 1.05) as usize + 16);
    let mut at = 0.0f64;
    loop {
        // Inverse-CDF exponential gap; `1 - u` is in (0, 1].
        let u: f64 = rng.gen();
        at += -(1.0 - u).ln() / rate_per_s;
        if at >= span.as_secs_f64() {
            return offsets;
        }
        offsets.push(Duration::from_secs_f64(at));
    }
}

/// The arrivals of `schedule` due by `now`, starting from index `next`:
/// the burst an open-loop submitter sends after waking.
pub fn due(schedule: &[Duration], next: usize, now: Duration) -> std::ops::Range<usize> {
    let end = next + schedule[next..].partition_point(|&at| at <= now);
    next..end
}

/// Runs a closed loop keeping exactly `window` operations in flight: once
/// the window is full it waits on the oldest, then submits the next.
/// Submits while `more()` holds, then drains.
pub fn run_window<H>(
    window: usize,
    mut more: impl FnMut() -> bool,
    mut submit: impl FnMut() -> H,
    mut wait: impl FnMut(H),
) {
    assert!(window > 0, "a window holds at least one operation");
    let mut in_flight: VecDeque<H> = VecDeque::with_capacity(window);
    while more() {
        if in_flight.len() == window {
            wait(in_flight.pop_front().expect("a full window has an oldest"));
        }
        in_flight.push_back(submit());
    }
    for handle in in_flight {
        wait(handle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn a_fixed_seed_reproduces_the_schedule() {
        let span = Duration::from_millis(200);
        let a = poisson_schedule(20_000.0, span, 42);
        assert_eq!(a, poisson_schedule(20_000.0, span, 42));
        assert_ne!(a, poisson_schedule(20_000.0, span, 43));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.last().is_some_and(|&last| last < span));
        // About rate × span arrivals.
        assert!((3_600..4_400).contains(&a.len()), "{}", a.len());
    }

    #[test]
    fn due_returns_every_overdue_arrival_in_one_burst() {
        let ms = Duration::from_millis;
        let schedule = [ms(1), ms(2), ms(2), ms(5), ms(9)];
        assert_eq!(due(&schedule, 0, ms(0)), 0..0);
        assert_eq!(due(&schedule, 0, ms(3)), 0..3);
        assert_eq!(due(&schedule, 3, ms(8)), 3..4);
        assert_eq!(due(&schedule, 4, ms(20)), 4..5);
        assert_eq!(due(&schedule, 5, ms(20)), 5..5);
    }

    #[test]
    fn the_window_keeps_exactly_w_requests_in_flight() {
        const W: usize = 8;
        const TOTAL: usize = 100;
        let in_flight = Cell::new(0usize);
        let submitted = Cell::new(0usize);
        let mut seen_at_submit = Vec::new();
        let mut completed = Vec::new();
        run_window(
            W,
            || submitted.get() < TOTAL,
            || {
                seen_at_submit.push(in_flight.get());
                in_flight.set(in_flight.get() + 1);
                submitted.set(submitted.get() + 1);
                submitted.get() - 1
            },
            |id| {
                in_flight.set(in_flight.get() - 1);
                completed.push(id);
            },
        );
        // Filling: 0..W-1 in flight at each submit; afterwards every
        // submit follows a wait on a full window, so W-1 remain in
        // flight and the submit brings it back to exactly W.
        assert_eq!(&seen_at_submit[..W], &(0..W).collect::<Vec<_>>()[..]);
        assert!(seen_at_submit[W..].iter().all(|&n| n == W - 1));
        // Oldest first, everything drained.
        assert_eq!(completed, (0..TOTAL).collect::<Vec<_>>());
        assert_eq!(in_flight.get(), 0);
    }
}
