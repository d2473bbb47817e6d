//! The stage spine: where one compile, or one served request, spends
//! its time, named by a closed list of stages and read off the injected
//! [`Clock`].
//!
//! A [`Stages`] recorder is read by *laps*. Each boundary between two
//! stages is one clock read, and the time since the previous boundary
//! is charged to the stage that just ended. Nothing is timed twice and
//! nothing falls between two stages, so the stages of one recorder sum
//! to its last lap minus its first, exactly, by construction; under a
//! clock that moves a fixed tick per read that is an assertion, not an
//! approximation.
//!
//! Laps are taken where the work is: the engine's pipeline laps the
//! rewrite pass's setup, trie build, collection, term-view build and
//! scan and its own validation; a serve worker laps the session copy, the model
//! build, the cache key, render, cache put and the session drop around
//! it, handing its recorder to the pipeline so the two share one
//! timeline; a serve connection thread laps the frame read, the cache
//! probe, the queue wait, the reply wake and the frame write.
//! [`StageTotals`] sums recorders across threads for the server's
//! `stats` document.

use crate::clock::Clock;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One stage of a compile or of a served request, in the order a
/// served miss passes through them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// A request frame, from its first byte to its last, and the parse.
    FrameRead,
    /// The connection thread's key-memo lookup and cache probe.
    CacheProbe,
    /// Admission into the queue until a worker takes the request.
    QueueWait,
    /// Copying the worker's pristine library session for the request.
    SessionCopy,
    /// Building the named model into that copy.
    ModelBuild,
    /// Encoding and hashing the request into its cache key (or charging
    /// the remembered cost of that), and the worker's own probe.
    CacheKey,
    /// Assembling the pipeline and the rewrite pass's driver, up to its
    /// matcher.
    PassSetup,
    /// Fetching or building the rewrite pass's fused trie.
    TrieBuild,
    /// Mark-sweep collection of the graph around the scan.
    Gc,
    /// Creating the rewrite scan's term view: its per-node tables, every
    /// live node unseen. No term is interned here.
    ViewBuild,
    /// The rewrite scan: interning each node it reads, admission,
    /// machine probes, commits, repair.
    Scan,
    /// Validating the graph after a pass (and whatever a pass that laps
    /// nothing of its own spent).
    Validate,
    /// Rendering the `pypm.pipeline.v1` report.
    Render,
    /// Storing the report in the result cache.
    CachePut,
    /// Dropping the request's session and graph.
    SessionDrop,
    /// The worker's send of the reply to the connection thread.
    ReplySend,
    /// From the worker's send stamp until the connection thread holds
    /// the reply.
    ReplyWake,
    /// Writing the response frame.
    FrameWrite,
}

impl Stage {
    /// How many stages there are.
    pub const COUNT: usize = 18;

    /// Every stage, in enum order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::FrameRead,
        Stage::CacheProbe,
        Stage::QueueWait,
        Stage::SessionCopy,
        Stage::ModelBuild,
        Stage::CacheKey,
        Stage::PassSetup,
        Stage::TrieBuild,
        Stage::Gc,
        Stage::ViewBuild,
        Stage::Scan,
        Stage::Validate,
        Stage::Render,
        Stage::CachePut,
        Stage::SessionDrop,
        Stage::ReplySend,
        Stage::ReplyWake,
        Stage::FrameWrite,
    ];

    /// The stage's stable name in JSON documents.
    pub fn name(self) -> &'static str {
        match self {
            Stage::FrameRead => "frame_read",
            Stage::CacheProbe => "cache_probe",
            Stage::QueueWait => "queue_wait",
            Stage::SessionCopy => "session_copy",
            Stage::ModelBuild => "model_build",
            Stage::CacheKey => "cache_key",
            Stage::PassSetup => "pass_setup",
            Stage::TrieBuild => "trie_build",
            Stage::Gc => "gc",
            Stage::ViewBuild => "view_build",
            Stage::Scan => "scan",
            Stage::Validate => "validate",
            Stage::Render => "render",
            Stage::CachePut => "cache_put",
            Stage::SessionDrop => "session_drop",
            Stage::ReplySend => "reply_send",
            Stage::ReplyWake => "reply_wake",
            Stage::FrameWrite => "frame_write",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What one stage was charged: how many laps ended it, and their sum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Laps charged to the stage.
    pub count: u64,
    /// Their total, in nanoseconds.
    pub nanos: u64,
}

/// A lap recorder over one [`Clock`] (see the module docs).
///
/// # Examples
///
/// ```
/// use pypm_core::{Stage, Stages, VirtualClock};
/// use std::sync::Arc;
/// use std::time::Duration;
///
/// let clock = Arc::new(VirtualClock::new());
/// let mut stages = Stages::new(clock.clone());
/// let first = stages.start();
/// clock.advance(Duration::from_micros(30));
/// stages.lap(Stage::ModelBuild);
/// clock.advance(Duration::from_micros(12));
/// let last = stages.lap(Stage::Render);
/// assert_eq!(stages.get(Stage::ModelBuild).nanos, 30_000);
/// assert_eq!(stages.total(), last - first);
/// ```
#[derive(Clone)]
pub struct Stages {
    clock: Arc<dyn Clock>,
    /// The last boundary; `None` until [`Stages::start`].
    last: Option<Instant>,
    tally: [Tally; Stage::COUNT],
}

impl fmt::Debug for Stages {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut map = f.debug_map();
        for (stage, tally) in self.iter().filter(|(_, t)| t.count > 0) {
            map.entry(&stage.name(), &tally);
        }
        map.finish()
    }
}

impl Stages {
    /// An empty recorder on `clock`, not started: nothing is read yet.
    pub fn new(clock: Arc<dyn Clock>) -> Self {
        Stages {
            clock,
            last: None,
            tally: [Tally::default(); Stage::COUNT],
        }
    }

    /// Reads the clock for the first boundary and returns it.
    pub fn start(&mut self) -> Instant {
        let now = self.clock.now();
        self.last = Some(now);
        now
    }

    /// The last boundary, if started.
    pub fn last(&self) -> Option<Instant> {
        self.last
    }

    /// Ends `stage` now: one clock read, the time since the last
    /// boundary charged to `stage`. Returns the new boundary. On a
    /// recorder that was never started this only starts it (and fails a
    /// debug assertion: a lap there is a misplaced one).
    pub fn lap(&mut self, stage: Stage) -> Instant {
        let now = self.clock.now();
        self.lap_at(stage, now);
        now
    }

    /// Ends `stage` at `at`, an instant read elsewhere on the same
    /// clock (another thread's stamp): no clock read of its own.
    pub fn lap_at(&mut self, stage: Stage, at: Instant) {
        debug_assert!(self.last.is_some(), "lap of {stage} before start");
        if let Some(last) = self.last {
            let nanos = at.saturating_duration_since(last).as_nanos();
            let t = &mut self.tally[stage as usize];
            t.count += 1;
            t.nanos += u64::try_from(nanos).unwrap_or(u64::MAX);
        }
        self.last = Some(at);
    }

    /// Moves the boundary to `at`, an instant read elsewhere on the same
    /// clock, without charging anything: a start at another thread's
    /// stamp, or a skip over a span that belongs to another recorder's
    /// stages.
    pub fn skip_to(&mut self, at: Instant) {
        self.last = Some(at);
    }

    /// Zeroes every stage's tally, keeping the clock and the boundary.
    pub fn clear(&mut self) {
        self.tally = [Tally::default(); Stage::COUNT];
    }

    /// What `stage` was charged.
    pub fn get(&self, stage: Stage) -> Tally {
        self.tally[stage as usize]
    }

    /// Every stage with its tally, in enum order.
    pub fn iter(&self) -> impl Iterator<Item = (Stage, Tally)> + '_ {
        Stage::ALL.into_iter().zip(self.tally.iter().copied())
    }

    /// The sum over every stage: the last boundary minus the first,
    /// less any span skipped with [`Stages::skip_to`].
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.tally.iter().map(|t| t.nanos).sum())
    }
}

/// [`Stages`] summed across threads: per stage, a lap count and a total
/// in nanoseconds, each one relaxed atomic.
#[derive(Debug, Default)]
pub struct StageTotals {
    tally: [(AtomicU64, AtomicU64); Stage::COUNT],
}

impl StageTotals {
    /// Adds every stage `stages` charged.
    pub fn add(&self, stages: &Stages) {
        for (stage, t) in stages.iter().filter(|(_, t)| t.count > 0) {
            let (count, nanos) = &self.tally[stage as usize];
            count.fetch_add(t.count, Ordering::Relaxed);
            nanos.fetch_add(t.nanos, Ordering::Relaxed);
        }
    }

    /// The sum so far for `stage`.
    pub fn get(&self, stage: Stage) -> Tally {
        let (count, nanos) = &self.tally[stage as usize];
        Tally {
            count: count.load(Ordering::Relaxed),
            nanos: nanos.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;

    #[test]
    fn names_are_unique_and_in_enum_order() {
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            assert_eq!(stage as usize, i);
        }
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Stage::COUNT);
    }

    #[test]
    fn laps_partition_the_span_between_first_and_last_boundary() {
        let clock = Arc::new(VirtualClock::new());
        let mut stages = Stages::new(clock.clone());
        let first = stages.start();
        for (i, stage) in [Stage::Scan, Stage::Gc, Stage::Scan]
            .into_iter()
            .enumerate()
        {
            clock.advance(Duration::from_micros(10 * (i as u64 + 1)));
            stages.lap(stage);
        }
        let last = stages.last().unwrap();
        assert_eq!(stages.total(), last - first);
        assert_eq!(
            stages.get(Stage::Scan),
            Tally {
                count: 2,
                nanos: 40_000
            }
        );
        assert_eq!(stages.get(Stage::Gc).nanos, 20_000);

        // A skipped span is nobody's; a cleared copy goes on from the
        // boundary with nothing charged.
        clock.advance(Duration::from_micros(5));
        stages.skip_to(clock.now());
        let mut next = stages.clone();
        next.clear();
        assert_eq!((next.total(), next.last()), (Duration::ZERO, stages.last()));
        clock.advance(Duration::from_micros(7));
        next.lap(Stage::FrameWrite);
        assert_eq!(next.total(), Duration::from_micros(7));
        assert_eq!(stages.total(), last - first);

        let totals = StageTotals::default();
        totals.add(&stages);
        totals.add(&next);
        assert_eq!(totals.get(Stage::Scan).count, 2);
        assert_eq!(totals.get(Stage::FrameWrite).nanos, 7_000);
        assert_eq!(totals.get(Stage::Render), Tally::default());
    }
}
