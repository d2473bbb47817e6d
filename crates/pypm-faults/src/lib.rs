//! # pypm-faults — a failpoint registry for chaos testing
//!
//! Production code declares **named injection sites** (`"cache.read"`,
//! `"serve.compile"`, …) by calling [`fires`] at the point where a fault
//! could plausibly occur. A disarmed registry — the default — reduces
//! every site to one relaxed atomic load, so shipping the hooks costs
//! nothing. Tests (or an operator reproducing a failure) arm the
//! registry with a **fault spec**, either programmatically via [`arm`]
//! or through the `PYPM_FAULTS` environment variable, which is read
//! once on first use.
//!
//! ## Spec grammar
//!
//! A spec is a `;`-separated list of entries:
//!
//! ```text
//! entry   := site "=" action [ "*" count ] [ "%" percent ]
//!          | "seed" "=" u64
//! action  := "panic" | "io" | "torn" | "delay:" millis
//! ```
//!
//! * `*count` — the entry fires at most `count` times, then goes inert.
//! * `%percent` — each arrival fires with the given probability
//!   (0–100), decided by a seeded deterministic PRNG so a given
//!   `seed=` value replays the same schedule.
//! * Entries are matched in order; the first live entry whose site
//!   matches decides the outcome.
//!
//! Example: `PYPM_FAULTS="seed=42;cache.write=io%25;serve.compile=panic*1"`
//! fails a quarter of cache-dir writes and panics the first served compile.
//!
//! ## Interpreting actions
//!
//! [`fires`] only *reports* the action; the call site applies it.
//! `Panic` sites call `panic!`, `Io`/`Torn` sites skip or truncate the
//! I/O they guard, `Delay` sites sleep. The convenience wrapper
//! [`sleep_if_delayed`] handles the common delay idiom.
//!
//! Delay sleeps go through an injectable [`Clock`]: [`set_clock`] lets
//! a test route every `delay:ms` action onto a shared
//! `pypm_core::VirtualClock`, so injected slowness advances virtual
//! time instantly instead of stalling the test suite.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use pypm_core::clock::{system_clock, Clock};
use pypm_core::SplitMix64;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, Once, OnceLock};

/// What an armed failpoint injects at its site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Panic at the site (exercises unwind/recovery paths).
    Panic,
    /// Fail the I/O operation the site guards (the caller skips or
    /// errors the read/write).
    Io,
    /// Tear the write the site guards: perform the temporary write but
    /// skip the commit/rename, leaving an orphan behind.
    Torn,
    /// Sleep for the given number of milliseconds before proceeding.
    Delay(u64),
}

#[derive(Debug)]
struct Entry {
    site: String,
    action: Action,
    /// Remaining fire count; `None` = unlimited.
    remaining: Option<u64>,
    /// Fire probability in percent; `None` = always.
    percent: Option<u8>,
}

#[derive(Debug)]
struct Registry {
    entries: Vec<Entry>,
    /// The `%percent` sampling's generator.
    rng: SplitMix64,
}

/// Fast-path flag: false ⇒ no entry is live, [`fires`] returns
/// immediately.
static ARMED: AtomicBool = AtomicBool::new(false);

static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();

static ENV_INIT: Once = Once::new();

fn registry() -> &'static Mutex<Registry> {
    REGISTRY.get_or_init(|| {
        Mutex::new(Registry {
            entries: Vec::new(),
            rng: SplitMix64(0x5eed_f417),
        })
    })
}

fn ensure_env_init() {
    ENV_INIT.call_once(|| {
        if let Ok(spec) = std::env::var("PYPM_FAULTS") {
            if !spec.trim().is_empty() {
                if let Err(e) = arm(&spec) {
                    eprintln!("warning: ignoring invalid PYPM_FAULTS: {e}");
                }
            }
        }
    });
}

fn parse_action(s: &str) -> Result<Action, String> {
    if let Some(ms) = s.strip_prefix("delay:") {
        return ms
            .parse::<u64>()
            .map(Action::Delay)
            .map_err(|_| format!("invalid delay millis {ms:?}"));
    }
    match s {
        "panic" => Ok(Action::Panic),
        "io" => Ok(Action::Io),
        "torn" => Ok(Action::Torn),
        other => Err(format!(
            "unknown action {other:?} (expected panic|io|torn|delay:<ms>)"
        )),
    }
}

fn parse_entry(s: &str) -> Result<ParsedEntry, String> {
    let (site, rhs) = s
        .split_once('=')
        .ok_or_else(|| format!("entry {s:?} is not site=action"))?;
    let site = site.trim();
    if site.is_empty() {
        return Err(format!("entry {s:?} has an empty site"));
    }
    if site == "seed" {
        let seed = rhs
            .trim()
            .parse::<u64>()
            .map_err(|_| format!("invalid seed {rhs:?}"))?;
        return Ok(ParsedEntry::Seed(seed));
    }
    // action[*count][%percent] — count and percent may appear in either
    // order, each at most once.
    let mut rest = rhs.trim();
    let mut count: Option<u64> = None;
    let mut percent: Option<u8> = None;
    while let Some(i) = rest.rfind(['*', '%']) {
        // Only split on a suffix that parses as a number; `delay:`
        // millis contain no '*'/'%' so this terminates cleanly.
        let (head, tail) = rest.split_at(i);
        let val = &tail[1..];
        match tail.as_bytes()[0] {
            b'*' => {
                if count.is_some() {
                    return Err(format!("entry {s:?} repeats *count"));
                }
                count = Some(
                    val.parse::<u64>()
                        .map_err(|_| format!("invalid count {val:?} in {s:?}"))?,
                );
            }
            b'%' => {
                if percent.is_some() {
                    return Err(format!("entry {s:?} repeats %percent"));
                }
                let p = val
                    .parse::<u8>()
                    .map_err(|_| format!("invalid percent {val:?} in {s:?}"))?;
                if p > 100 {
                    return Err(format!("percent {p} > 100 in {s:?}"));
                }
                percent = Some(p);
            }
            _ => unreachable!(),
        }
        rest = head;
    }
    let action = parse_action(rest.trim())?;
    Ok(ParsedEntry::Fault(Entry {
        site: site.to_string(),
        action,
        remaining: count,
        percent,
    }))
}

enum ParsedEntry {
    Seed(u64),
    Fault(Entry),
}

/// Arms the registry with the given fault spec, replacing any previous
/// schedule. See the module docs for the grammar. An invalid spec
/// leaves the registry disarmed and returns a description of the first
/// bad entry.
pub fn arm(spec: &str) -> Result<(), String> {
    let mut entries = Vec::new();
    let mut seed: Option<u64> = None;
    for part in spec.split(';') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        match parse_entry(part)? {
            ParsedEntry::Seed(s) => seed = Some(s),
            ParsedEntry::Fault(e) => entries.push(e),
        }
    }
    let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
    if let Some(s) = seed {
        reg.rng = SplitMix64(s);
    }
    let live = !entries.is_empty();
    reg.entries = entries;
    ARMED.store(live, Ordering::Release);
    Ok(())
}

/// Disarms every failpoint. Sites return to the one-atomic-load fast
/// path; the PRNG seed is preserved.
pub fn disarm() {
    let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
    reg.entries.clear();
    ARMED.store(false, Ordering::Release);
}

/// True when at least one failpoint entry is live. One relaxed atomic
/// load — this is the cost a disarmed site pays.
pub fn armed() -> bool {
    ensure_env_init();
    ARMED.load(Ordering::Relaxed)
}

/// Consults the registry at a named site. Returns the action to inject,
/// or `None` (the overwhelmingly common case) when the site should
/// proceed normally. Decrements `*count` budgets and samples `%percent`
/// probabilities as a side effect.
pub fn fires(site: &str) -> Option<Action> {
    if !armed() {
        return None;
    }
    let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
    let mut chosen: Option<Action> = None;
    let mut any_live = false;
    for i in 0..reg.entries.len() {
        if reg.entries[i].remaining == Some(0) {
            continue;
        }
        any_live = true;
        if chosen.is_some() || reg.entries[i].site != site {
            continue;
        }
        if let Some(p) = reg.entries[i].percent {
            let roll = reg.rng.next_u64() % 100;
            if roll >= u64::from(p) {
                continue;
            }
        }
        if let Some(rem) = reg.entries[i].remaining.as_mut() {
            *rem -= 1;
        }
        chosen = Some(reg.entries[i].action);
    }
    if !any_live {
        // Every entry exhausted its count — restore the fast path.
        ARMED.store(false, Ordering::Release);
    }
    chosen
}

/// The clock `delay:ms` actions sleep on. `None` until [`set_clock`]
/// is called; the system clock is used in that case.
static CLOCK: OnceLock<Mutex<Option<Arc<dyn Clock>>>> = OnceLock::new();

fn clock_slot() -> &'static Mutex<Option<Arc<dyn Clock>>> {
    CLOCK.get_or_init(|| Mutex::new(None))
}

/// Routes every `delay:ms` action onto the given clock. Chaos tests
/// install a shared `VirtualClock` here so injected slowness advances
/// virtual time instantly instead of stalling the run; pass a
/// `SystemClock` (or call [`reset_clock`]) to restore real sleeps.
pub fn set_clock(clock: Arc<dyn Clock>) {
    *clock_slot().lock().unwrap_or_else(|p| p.into_inner()) = Some(clock);
}

/// Restores `delay:ms` actions to real `thread::sleep` timing.
pub fn reset_clock() {
    *clock_slot().lock().unwrap_or_else(|p| p.into_inner()) = None;
}

fn delay_clock() -> Arc<dyn Clock> {
    clock_slot()
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .clone()
        .unwrap_or_else(system_clock)
}

/// Convenience wrapper for delay sites: sleeps (on the registered
/// clock, see [`set_clock`]) if the site fires with [`Action::Delay`],
/// and reports whether any action fired (so a site can combine a delay
/// schedule with, say, a panic schedule).
pub fn sleep_if_delayed(site: &str) -> Option<Action> {
    let action = fires(site)?;
    if let Action::Delay(ms) = action {
        delay_clock().sleep(std::time::Duration::from_millis(ms));
    }
    Some(action)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Registry state is process-global; tests serialize on this lock
    /// and disarm before returning.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn guard() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disarmed_sites_never_fire() {
        let _g = guard();
        disarm();
        assert!(!armed());
        assert_eq!(fires("cache.read"), None);
    }

    #[test]
    fn counted_entries_exhaust_and_rearm_the_fast_path() {
        let _g = guard();
        arm("worker.panic=panic*2").unwrap();
        assert_eq!(fires("worker.panic"), Some(Action::Panic));
        assert_eq!(fires("worker.panic"), Some(Action::Panic));
        assert_eq!(fires("worker.panic"), None);
        // The exhausted schedule flips the global flag back off.
        assert!(!armed());
        disarm();
    }

    #[test]
    fn unmatched_sites_do_not_consume_counts() {
        let _g = guard();
        arm("cache.write=torn*1").unwrap();
        assert_eq!(fires("cache.read"), None);
        assert_eq!(fires("cache.write"), Some(Action::Torn));
        disarm();
    }

    #[test]
    fn percent_sampling_is_seed_deterministic() {
        let _g = guard();
        let sample = |seed: u64| -> Vec<bool> {
            arm(&format!("seed={seed};worker.slow=delay:0%50")).unwrap();
            let v: Vec<bool> = (0..32).map(|_| fires("worker.slow").is_some()).collect();
            disarm();
            v
        };
        let a = sample(7);
        let b = sample(7);
        let c = sample(8);
        assert_eq!(a, b, "same seed must replay the same schedule");
        assert!(a.iter().any(|&x| x) && a.iter().any(|&x| !x));
        assert_ne!(a, c, "different seeds should differ (32 draws)");
    }

    #[test]
    fn delay_actions_parse_and_sleep() {
        let _g = guard();
        reset_clock();
        arm("worker.slow=delay:1*1").unwrap();
        let t0 = std::time::Instant::now();
        assert_eq!(sleep_if_delayed("worker.slow"), Some(Action::Delay(1)));
        assert!(t0.elapsed() >= std::time::Duration::from_millis(1));
        disarm();
    }

    #[test]
    fn delays_route_through_a_registered_virtual_clock() {
        let _g = guard();
        let clock = Arc::new(pypm_core::VirtualClock::new());
        set_clock(clock.clone());
        arm("worker.slow=delay:5000*1").unwrap();
        let t0 = std::time::Instant::now();
        assert_eq!(sleep_if_delayed("worker.slow"), Some(Action::Delay(5000)));
        assert!(
            t0.elapsed() < std::time::Duration::from_millis(4000),
            "a virtual delay must not block for real"
        );
        assert_eq!(clock.elapsed(), std::time::Duration::from_millis(5000));
        assert_eq!(clock.sleeps(), vec![std::time::Duration::from_millis(5000)]);
        reset_clock();
        disarm();
    }

    #[test]
    fn bad_specs_are_rejected_with_reasons() {
        let _g = guard();
        for (spec, needle) in [
            ("cache.read", "not site=action"),
            ("=panic", "empty site"),
            ("x=explode", "unknown action"),
            ("x=panic*many", "invalid count"),
            ("x=panic%200", "> 100"),
            ("x=delay:soon", "invalid delay"),
            ("seed=abc", "invalid seed"),
            ("x=panic*1*2", "repeats *count"),
        ] {
            let err = arm(spec).unwrap_err();
            assert!(err.contains(needle), "{spec:?} -> {err:?}");
        }
        disarm();
    }

    #[test]
    fn seed_only_specs_leave_the_registry_disarmed() {
        let _g = guard();
        arm("seed=99").unwrap();
        assert!(!armed());
        disarm();
    }
}
