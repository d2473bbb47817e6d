//! Cooperative compile budgets: a wall-clock deadline and/or a machine
//! step cap, checked at the engine's scheduling points.
//!
//! A [`Budget`] is **cooperative**: nothing preempts a compile. Instead
//! the owning pipeline threads an `Arc<Budget>` through its context and
//! the hot loops — the commit loop and the fused
//! discrimination-tree walks — call [`Budget::charge`] /
//! [`Budget::check`] at coarse intervals. The first check past the
//! limit trips a **sticky** exceeded flag; every later check on any
//! thread observes it immediately, so the whole compile unwinds through
//! ordinary `Result` plumbing within one check interval. Sessions
//! and caches stay fully reusable afterwards — exceeding a budget
//! is an error *return*, never a teardown.
//!
//! Checks are designed to be cheap enough for inner loops: a step
//! charge is one relaxed atomic add, and wall-clock reads are amortized
//! by only sampling the clock every [`Budget::WALL_CHECK_MASK`]+1
//! charged steps.
//!
//! Wall time is read through an injected [`Clock`], so deadline
//! behavior is deterministically testable: hand the budget a
//! [`VirtualClock`](crate::VirtualClock) via [`Budget::with_clock`] and
//! advance it manually to trip (or not trip) the deadline at an exact
//! virtual instant. [`Budget::deadline_at`] rebases the deadline onto
//! an absolute instant — a server uses it to anchor the deadline at
//! request *admission* rather than compile start, so queue wait counts
//! against the budget too.

use crate::clock::{system_clock, Clock};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cooperative per-compile resource budget. See the module docs.
///
/// `Budget` is `Send + Sync`; share one behind an `Arc`. A
/// default-constructed budget is unlimited and never trips.
#[derive(Debug)]
pub struct Budget {
    /// The originally requested timeout span (kept for error messages).
    timeout: Option<Duration>,
    /// Absolute wall-clock deadline, if any.
    deadline: Option<Instant>,
    /// Cap on charged machine steps, if any.
    step_limit: Option<u64>,
    /// Machine steps charged so far.
    steps: AtomicU64,
    /// Sticky: set by the first check that observes an exhausted
    /// budget, observed by every later check.
    exceeded: AtomicBool,
    /// The clock the deadline is measured against.
    clock: Arc<dyn Clock>,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            timeout: None,
            deadline: None,
            step_limit: None,
            steps: AtomicU64::new(0),
            exceeded: AtomicBool::new(false),
            clock: system_clock(),
        }
    }
}

impl Budget {
    /// Charged-step interval between wall-clock samples in
    /// [`Budget::charge`]: the clock is read when the running step
    /// count crosses a multiple of `WALL_CHECK_MASK + 1`.
    pub const WALL_CHECK_MASK: u64 = 0xFF;

    /// A budget with the given wall-clock timeout (from now, on the
    /// system clock) and/or machine-step cap. `None` for both yields an
    /// unlimited budget.
    pub fn new(timeout: Option<Duration>, step_limit: Option<u64>) -> Self {
        Self::with_clock(timeout, step_limit, system_clock())
    }

    /// [`Budget::new`], measuring the deadline against an injected
    /// clock — the deadline is `clock.now() + timeout`.
    pub fn with_clock(
        timeout: Option<Duration>,
        step_limit: Option<u64>,
        clock: Arc<dyn Clock>,
    ) -> Self {
        Budget {
            timeout,
            deadline: timeout.map(|d| clock.now() + d),
            step_limit,
            steps: AtomicU64::new(0),
            exceeded: AtomicBool::new(false),
            clock,
        }
    }

    /// Rebases the wall deadline onto an absolute instant on this
    /// budget's clock, keeping the original timeout label for
    /// [`Budget::describe`]. A serve worker uses this to anchor the
    /// deadline at request admission: time spent queued counts, so a
    /// whole request — not just its compile — fits the timeout.
    pub fn deadline_at(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// An unlimited budget: every check passes, nothing is ever
    /// exceeded. Useful as a neutral default.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// True if this budget can never trip (no deadline, no step cap).
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.step_limit.is_none()
    }

    /// Records `n` machine steps against the budget and returns whether
    /// work may continue (`false` = budget exceeded, unwind now). The
    /// step cap is checked on every call; the wall clock only when the
    /// running count crosses a [`Budget::WALL_CHECK_MASK`] boundary, so
    /// this is safe to call with small `n` from inner loops.
    pub fn charge(&self, n: u64) -> bool {
        if self.exceeded.load(Ordering::Relaxed) {
            return false;
        }
        if self.is_unlimited() {
            return true;
        }
        let before = self.steps.fetch_add(n, Ordering::Relaxed);
        let after = before.saturating_add(n);
        if let Some(cap) = self.step_limit {
            if after > cap {
                return self.trip();
            }
        }
        // Sample the clock when the count crosses an interval boundary
        // (always for large charges).
        let crossed = (before >> 8) != (after >> 8) || n > Self::WALL_CHECK_MASK;
        if crossed && self.wall_expired() {
            return self.trip();
        }
        true
    }

    /// Checks the budget without charging steps — the wall clock is
    /// always sampled. Returns whether work may continue. Use at coarse
    /// scheduling points (per node, per sweep).
    pub fn check(&self) -> bool {
        if self.exceeded.load(Ordering::Relaxed) {
            return false;
        }
        if let Some(cap) = self.step_limit {
            if self.steps.load(Ordering::Relaxed) > cap {
                return self.trip();
            }
        }
        if self.wall_expired() {
            return self.trip();
        }
        true
    }

    /// True once any check has observed an exhausted budget. Sticky.
    pub fn exceeded(&self) -> bool {
        self.exceeded.load(Ordering::Relaxed)
    }

    /// Machine steps charged so far.
    pub fn steps(&self) -> u64 {
        self.steps.load(Ordering::Relaxed)
    }

    /// Human-readable description of the configured limits, for error
    /// messages: `"timeout_ms=50"`, `"step_limit=1000"`, or both joined
    /// with a space. Empty for an unlimited budget.
    pub fn describe(&self) -> String {
        let mut parts = Vec::new();
        if let Some(t) = self.timeout {
            parts.push(format!("timeout_ms={}", t.as_millis()));
        }
        if let Some(cap) = self.step_limit {
            parts.push(format!("step_limit={cap}"));
        }
        parts.join(" ")
    }

    fn wall_expired(&self) -> bool {
        matches!(self.deadline, Some(d) if self.clock.now() >= d)
    }

    fn trip(&self) -> bool {
        self.exceeded.store(true, Ordering::Relaxed);
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;

    #[test]
    fn unlimited_budgets_never_trip() {
        let b = Budget::unlimited();
        assert!(b.is_unlimited());
        for _ in 0..10 {
            assert!(b.charge(1_000_000));
            assert!(b.check());
        }
        assert!(!b.exceeded());
    }

    #[test]
    fn step_caps_trip_sticky_and_report_steps() {
        let b = Budget::new(None, Some(100));
        assert!(b.charge(100)); // exactly at the cap is still fine
        assert!(!b.charge(1)); // first step past the cap trips
        assert!(b.exceeded());
        assert!(!b.check());
        assert!(!b.charge(0), "sticky: everything fails after a trip");
        assert!(b.steps() >= 101);
    }

    #[test]
    fn zero_timeout_trips_on_first_check() {
        let b = Budget::new(Some(Duration::from_millis(0)), None);
        assert!(!b.check());
        assert!(b.exceeded());
    }

    #[test]
    fn generous_wall_deadline_passes_checks() {
        let b = Budget::new(Some(Duration::from_secs(3600)), None);
        assert!(b.check());
        assert!(b.charge(1));
        assert!(!b.exceeded());
    }

    #[test]
    fn small_charges_amortize_but_eventually_see_the_clock() {
        let b = Budget::new(Some(Duration::from_millis(0)), None);
        // Small charges may skip the clock until an interval boundary,
        // but 512 single-step charges must cross at least one.
        let mut tripped = false;
        for _ in 0..512 {
            if !b.charge(1) {
                tripped = true;
                break;
            }
        }
        assert!(tripped);
        assert!(b.exceeded());
    }

    #[test]
    fn large_charges_sample_the_clock_immediately() {
        let b = Budget::new(Some(Duration::from_millis(0)), None);
        assert!(!b.charge(1_000));
        assert!(b.exceeded());
    }

    #[test]
    fn describe_names_the_configured_limits() {
        assert_eq!(Budget::unlimited().describe(), "");
        assert_eq!(Budget::new(None, Some(42)).describe(), "step_limit=42");
        let b = Budget::new(Some(Duration::from_millis(5)), Some(7));
        let d = b.describe();
        assert!(d.contains("timeout_ms="), "{d}");
        assert!(d.ends_with("step_limit=7"), "{d}");
    }

    #[test]
    fn virtual_deadlines_trip_at_the_exact_advance() {
        let clock = Arc::new(VirtualClock::new());
        let b = Budget::with_clock(Some(Duration::from_millis(50)), None, clock.clone());
        assert!(b.check());
        clock.advance(Duration::from_millis(49));
        assert!(b.check(), "one tick before the deadline still passes");
        clock.advance(Duration::from_millis(1));
        assert!(!b.check(), "reaching the deadline trips");
        assert!(b.exceeded());
    }

    #[test]
    fn deadline_at_rebases_but_keeps_the_label() {
        let clock = Arc::new(VirtualClock::new());
        let admitted = clock.now();
        let b = Budget::with_clock(Some(Duration::from_millis(10)), None, clock.clone())
            .deadline_at(admitted + Duration::from_millis(10));
        // Simulate 10 ms of queue wait: the rebased deadline has passed
        // even though the budget itself was constructed "later".
        clock.advance(Duration::from_millis(10));
        assert!(!b.check(), "queue wait counts against the deadline");
        assert_eq!(b.describe(), "timeout_ms=10");
    }

    #[test]
    fn virtual_step_and_wall_limits_compose() {
        let clock = Arc::new(VirtualClock::new());
        let b = Budget::with_clock(Some(Duration::from_secs(1)), Some(1000), clock.clone());
        assert!(b.charge(1000));
        assert!(b.check(), "within both limits");
        clock.advance(Duration::from_secs(2));
        assert!(!b.check(), "wall trips independently of steps");
    }
}
