//! Clock abstraction: real time for live deployments, virtual time for
//! simulation.
//!
//! Long-horizon experiments (a week of Figure 5 availability samples,
//! 57,149 Figure 7 impact samples) cannot run in real time. Components
//! take a [`Clock`] so the same controller/server code runs against
//! [`SystemClock`] in live TCP deployments and against a shared
//! [`SimClock`] in event-driven simulations.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use inca_report::Timestamp;

/// Source of "now".
pub trait Clock: Send + Sync {
    /// The current time.
    fn now(&self) -> Timestamp;
}

/// The real wall clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct SystemClock;

impl Clock for SystemClock {
    fn now(&self) -> Timestamp {
        Timestamp::now()
    }
}

/// A shared, manually-advanced virtual clock.
///
/// Cloning yields another handle to the same instant; advancing one
/// handle advances them all, so every component of a simulated
/// deployment observes a single coherent timeline.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now: Arc<AtomicU64>,
}

impl SimClock {
    /// A clock starting at `t`.
    pub fn starting_at(t: Timestamp) -> SimClock {
        SimClock { now: Arc::new(AtomicU64::new(t.as_secs())) }
    }

    /// Advances by `secs`, returning the new time.
    pub fn advance(&self, secs: u64) -> Timestamp {
        let new = self.now.fetch_add(secs, Ordering::SeqCst) + secs;
        Timestamp::from_secs(new)
    }

    /// Jumps directly to `t`. Time never moves backwards: earlier
    /// targets are ignored and the current time returned.
    pub fn set(&self, t: Timestamp) -> Timestamp {
        let mut cur = self.now.load(Ordering::SeqCst);
        while t.as_secs() > cur {
            match self.now.compare_exchange(
                cur,
                t.as_secs(),
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return t,
                Err(actual) => cur = actual,
            }
        }
        Timestamp::from_secs(cur)
    }
}

impl Clock for SimClock {
    fn now(&self) -> Timestamp {
        Timestamp::from_secs(self.now.load(Ordering::SeqCst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_clock_is_sane() {
        let now = SystemClock.now();
        // After 2020, before 2100.
        assert!(now.as_secs() > 1_577_836_800);
        assert!(now.as_secs() < 4_102_444_800);
    }

    #[test]
    fn sim_clock_starts_where_told() {
        let t = Timestamp::from_gmt(2004, 6, 29, 0, 0, 0);
        let clock = SimClock::starting_at(t);
        assert_eq!(clock.now(), t);
    }

    #[test]
    fn advance_moves_all_handles() {
        let clock = SimClock::starting_at(Timestamp::from_secs(100));
        let other = clock.clone();
        clock.advance(50);
        assert_eq!(other.now().as_secs(), 150);
        other.advance(10);
        assert_eq!(clock.now().as_secs(), 160);
    }

    #[test]
    fn set_never_goes_backwards() {
        let clock = SimClock::starting_at(Timestamp::from_secs(1_000));
        assert_eq!(clock.set(Timestamp::from_secs(500)).as_secs(), 1_000);
        assert_eq!(clock.now().as_secs(), 1_000);
        assert_eq!(clock.set(Timestamp::from_secs(2_000)).as_secs(), 2_000);
    }

    #[test]
    fn clock_trait_object_usable() {
        let sim = SimClock::starting_at(Timestamp::from_secs(7));
        let clocks: Vec<Box<dyn Clock>> = vec![Box::new(SystemClock), Box::new(sim.clone())];
        assert_eq!(clocks[1].now().as_secs(), 7);
    }

    #[test]
    fn concurrent_advance_is_consistent() {
        let clock = SimClock::starting_at(Timestamp::from_secs(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = clock.clone();
                std::thread::spawn(move || {
                    for _ in 0..1_000 {
                        c.advance(1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(clock.now().as_secs(), 8_000);
    }
}
