//! Virtual time: an injectable clock behind every deadline and sleep.
//!
//! Everything in the system that observes the passage of time — budget
//! deadlines, serve idle reaping, client retry backoff, injected fault
//! delays — does so through a [`Clock`], not through `Instant::now()` /
//! `thread::sleep` directly. Production wires in [`SystemClock`], which
//! is exactly those primitives. Tests wire in a shared [`VirtualClock`]
//! whose `now()` only moves when someone calls [`VirtualClock::advance`]
//! (or sleeps on it, which advances instantly): retry schedules, queue
//! shedding and deadline trips become exact, repeatable assertions
//! instead of wall-clock races. A [`TickingClock`] moves a fixed tick
//! per read instead, and counts its reads: what a stage recorder laps on
//! it is a count of reads, exact, and so is the cost of reading it.
//!
//! `std::time::Instant` is opaque — it cannot be fabricated — so the
//! virtual clock anchors itself to one real instant captured at
//! construction and reports `base + offset`, where `offset` is a
//! monotonically growing atomic nanosecond counter. All arithmetic on
//! the returned instants (comparison, `duration_since`, adding a
//! timeout) behaves exactly as with real instants.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A source of monotonic time and a way to wait on it. See the module
/// docs. Implementations must be cheap to call from hot loops: `now()`
/// is consulted from budget checks.
pub trait Clock: Send + Sync + fmt::Debug {
    /// The current monotonic instant.
    fn now(&self) -> Instant;

    /// Blocks the calling thread until `d` has passed *on this clock*.
    /// For [`SystemClock`] that is a real sleep; for [`VirtualClock`]
    /// the clock advances immediately and the call returns.
    fn sleep(&self, d: Duration);
}

/// The real clock: `Instant::now()` and `thread::sleep`. Stateless;
/// every instance is interchangeable.
#[derive(Debug, Default, Clone, Copy)]
pub struct SystemClock;

impl Clock for SystemClock {
    fn now(&self) -> Instant {
        Instant::now()
    }

    fn sleep(&self, d: Duration) {
        if !d.is_zero() {
            std::thread::sleep(d);
        }
    }
}

/// A shared handle to the system clock — the default wiring everywhere
/// a `ServeConfig`/`Budget`/`Client` needs an `Arc<dyn Clock>`.
pub fn system_clock() -> Arc<dyn Clock> {
    Arc::new(SystemClock)
}

/// A manually advanced clock for deterministic tests.
///
/// Time stands still until [`advance`](VirtualClock::advance) is called
/// (concurrently safe; share the clock behind an `Arc`). Sleeps do not
/// block: they advance the clock by the requested duration and record
/// it, so a test can assert the *exact* sequence of delays a retry loop
/// or a fault schedule produced via [`sleeps`](VirtualClock::sleeps).
#[derive(Debug)]
pub struct VirtualClock {
    /// The real instant this clock was anchored to; `now()` reports
    /// `base + offset`.
    base: Instant,
    /// Nanoseconds advanced so far.
    offset: AtomicU64,
    /// Every duration passed to `sleep`, in call order.
    sleeps: Mutex<Vec<Duration>>,
}

impl VirtualClock {
    /// A fresh clock anchored at the current real instant, with zero
    /// virtual time elapsed.
    pub fn new() -> Self {
        VirtualClock {
            base: Instant::now(),
            offset: AtomicU64::new(0),
            sleeps: Mutex::new(Vec::new()),
        }
    }

    /// Moves virtual time forward by `d`. Never moves it backward;
    /// saturates at ~584 years of virtual time.
    pub fn advance(&self, d: Duration) {
        let nanos = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        let mut cur = self.offset.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(nanos);
            match self
                .offset
                .compare_exchange(cur, next, Ordering::AcqRel, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Total virtual time elapsed since construction.
    pub fn elapsed(&self) -> Duration {
        Duration::from_nanos(self.offset.load(Ordering::Acquire))
    }

    /// Every duration slept on this clock so far, in call order — the
    /// exact backoff/delay schedule observed by the code under test.
    pub fn sleeps(&self) -> Vec<Duration> {
        self.sleeps
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Clears the recorded sleep log (the clock itself keeps running).
    pub fn clear_sleeps(&self) {
        self.sleeps
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clear();
    }
}

impl Default for VirtualClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> Instant {
        self.base + self.elapsed()
    }

    fn sleep(&self, d: Duration) {
        self.sleeps
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(d);
        self.advance(d);
    }
}

/// A clock that moves forward a fixed tick every time it is read, and
/// counts the reads. Laps of a [`Stages`](crate::Stages) recorder on it
/// are whole ticks, so stage sums are exact assertions, and the read
/// count is what a code path costs in clock reads. Sleeps advance it
/// instantly, like [`VirtualClock`].
#[derive(Debug)]
pub struct TickingClock {
    base: Instant,
    tick: u64,
    /// Nanoseconds advanced so far.
    offset: AtomicU64,
    reads: AtomicU64,
}

impl TickingClock {
    /// A clock anchored at the current real instant that moves `tick`
    /// per read.
    pub fn new(tick: Duration) -> Self {
        TickingClock {
            base: Instant::now(),
            tick: u64::try_from(tick.as_nanos()).unwrap_or(u64::MAX),
            offset: AtomicU64::new(0),
            reads: AtomicU64::new(0),
        }
    }

    /// How often the clock has been read.
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Acquire)
    }
}

impl Clock for TickingClock {
    fn now(&self) -> Instant {
        self.reads.fetch_add(1, Ordering::AcqRel);
        let before = self.offset.fetch_add(self.tick, Ordering::AcqRel);
        self.base + Duration::from_nanos(before + self.tick)
    }

    fn sleep(&self, d: Duration) {
        let nanos = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.offset.fetch_add(nanos, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_ticking_clock_moves_one_tick_per_read() {
        let c = TickingClock::new(Duration::from_millis(1));
        let a = c.now();
        let b = c.now();
        assert_eq!(b - a, Duration::from_millis(1));
        c.sleep(Duration::from_millis(5));
        assert_eq!(c.now() - b, Duration::from_millis(6));
        assert_eq!(c.reads(), 3);
    }

    #[test]
    fn system_clock_moves_forward() {
        let c = SystemClock;
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }

    #[test]
    fn virtual_time_stands_still_until_advanced() {
        let c = VirtualClock::new();
        let a = c.now();
        assert_eq!(c.now(), a, "no advance, no motion");
        c.advance(Duration::from_millis(250));
        assert_eq!(c.now() - a, Duration::from_millis(250));
        assert_eq!(c.elapsed(), Duration::from_millis(250));
    }

    #[test]
    fn virtual_sleeps_are_instant_and_recorded() {
        let c = VirtualClock::new();
        c.sleep(Duration::from_secs(3600)); // returns immediately
        c.sleep(Duration::from_millis(5));
        assert_eq!(
            c.elapsed(),
            Duration::from_secs(3600) + Duration::from_millis(5)
        );
        assert_eq!(
            c.sleeps(),
            vec![Duration::from_secs(3600), Duration::from_millis(5)]
        );
        c.clear_sleeps();
        assert!(c.sleeps().is_empty());
        assert_eq!(
            c.elapsed(),
            Duration::from_secs(3600) + Duration::from_millis(5),
            "clearing the log does not rewind the clock"
        );
    }

    #[test]
    fn concurrent_advances_accumulate_exactly() {
        let c = Arc::new(VirtualClock::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.advance(Duration::from_nanos(3));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.elapsed(), Duration::from_nanos(4 * 1000 * 3));
    }

    #[test]
    fn trait_objects_share_one_virtual_timeline() {
        let v = Arc::new(VirtualClock::new());
        let as_dyn: Arc<dyn Clock> = v.clone();
        let t0 = as_dyn.now();
        v.advance(Duration::from_secs(1));
        assert_eq!(as_dyn.now() - t0, Duration::from_secs(1));
    }
}
