//! The bounded, deadline-aware admission queue between connection
//! threads and compile workers.
//!
//! Admission is non-blocking (full ⇒ the caller answers OVERLOADED
//! immediately); dequeue is earliest-deadline-first among budgeted
//! entries, FIFO among unbudgeted ones (an absent deadline sorts as
//! infinity, so budgeted work always goes first — it is the work that
//! can still be lost to time).

use super::protocol::CompileRequest;
use super::worker::Keyed;
use std::sync::mpsc;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// What a worker sends back for one entry: the response and the two
/// stamps the connection thread splits its wait by.
pub(super) struct Reply {
    pub(super) status: u8,
    pub(super) payload: String,
    /// When the worker took the entry: the end of its queue wait.
    pub(super) started: Instant,
    /// The worker's last stage boundary before it sent this reply.
    pub(super) sent: Instant,
}

/// One admitted compile, stamped for deadline-aware scheduling.
pub(super) struct QueueEntry {
    pub(super) req: CompileRequest,
    /// A one-slot channel the connection thread made before admission,
    /// so the worker's send is a store and a wake.
    pub(super) reply: mpsc::SyncSender<Reply>,
    /// When admission control accepted this request: its cache probe
    /// is behind it, its queue wait starts here.
    pub(super) admitted_at: Instant,
    /// The request's absolute deadline (its effective `timeout_ms` from
    /// the end of its frame read, just before `admitted_at`), if it has
    /// one. Drives both the EDF dequeue order and queue-time shedding.
    pub(super) deadline: Option<Instant>,
    /// The key the connection thread probed the cache under, and
    /// missed, when the server had keyed this request before: the
    /// worker compiles and stores under it without recomputing it.
    pub(super) keyed: Option<Keyed>,
    /// Admission order — the FIFO tiebreak.
    pub(super) seq: u64,
}

/// What a worker pulled off the queue.
pub(super) enum Popped {
    Entry(QueueEntry),
    /// Drain: the worker should exit. Delivered only after every
    /// admitted entry has been dequeued.
    Poison,
}

/// Why admission was refused.
pub(super) enum AdmitError {
    /// The bounded queue is full — answer `STATUS_OVERLOADED`.
    Full,
    /// The server is draining — answer `STATUS_SHUTTING_DOWN`.
    Closed,
}

struct QueueInner {
    /// Admitted entries in admission order. Selection is an O(n) scan —
    /// the queue is bounded and small, and EDF needs no heap at this
    /// size.
    entries: Vec<QueueEntry>,
    /// Workers currently blocked in [`JobQueue::pop`]. Admission
    /// capacity is `depth + waiting`: with `depth == 0` that is a
    /// rendezvous — admit only when a worker is free.
    waiting: usize,
    /// Outstanding drain tokens; delivered only once `entries` is dry.
    poison: usize,
    /// Set on drain: every further admission is refused.
    closed: bool,
    next_seq: u64,
}

pub(super) struct JobQueue {
    inner: Mutex<QueueInner>,
    ready: Condvar,
    depth: usize,
}

impl JobQueue {
    pub(super) fn new(depth: usize) -> JobQueue {
        JobQueue {
            inner: Mutex::new(QueueInner {
                entries: Vec::new(),
                waiting: 0,
                poison: 0,
                closed: false,
                next_seq: 0,
            }),
            ready: Condvar::new(),
            depth,
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueInner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Non-blocking admission: accepts iff the server is not draining
    /// and the queue holds fewer entries than `depth` plus the number
    /// of workers already blocked waiting for work.
    pub(super) fn try_admit(
        &self,
        req: CompileRequest,
        reply: mpsc::SyncSender<Reply>,
        admitted_at: Instant,
        deadline: Option<Instant>,
        keyed: Option<Keyed>,
    ) -> Result<(), AdmitError> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(AdmitError::Closed);
        }
        if inner.entries.len() >= self.depth + inner.waiting {
            return Err(AdmitError::Full);
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.entries.push(QueueEntry {
            req,
            reply,
            admitted_at,
            deadline,
            keyed,
            seq,
        });
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until an entry (EDF order) or a drain token is available.
    /// Entries always win over poison, so a drain delivers every
    /// admitted response before the workers exit.
    pub(super) fn pop(&self) -> Popped {
        let mut inner = self.lock();
        loop {
            if let Some(i) = Self::select(&inner.entries) {
                return Popped::Entry(inner.entries.remove(i));
            }
            if inner.poison > 0 {
                inner.poison -= 1;
                return Popped::Poison;
            }
            inner.waiting += 1;
            inner = self.ready.wait(inner).unwrap_or_else(|p| p.into_inner());
            inner.waiting -= 1;
        }
    }

    /// The index to dequeue next: the budgeted entry with the earliest
    /// `(deadline, seq)`, else the longest-queued unbudgeted entry.
    pub(super) fn select(entries: &[QueueEntry]) -> Option<usize> {
        let mut best: Option<(usize, Instant, u64)> = None;
        let mut first_unbudgeted: Option<usize> = None;
        for (i, e) in entries.iter().enumerate() {
            match e.deadline {
                Some(d) => {
                    if best.map_or(true, |(_, bd, bs)| (d, e.seq) < (bd, bs)) {
                        best = Some((i, d, e.seq));
                    }
                }
                None => {
                    if first_unbudgeted.is_none() {
                        first_unbudgeted = Some(i);
                    }
                }
            }
        }
        best.map(|(i, _, _)| i).or(first_unbudgeted)
    }

    /// Starts the drain: refuses every further admission and leaves one
    /// poison token per worker behind the already-admitted entries.
    pub(super) fn close_and_poison(&self, workers: usize) {
        let mut inner = self.lock();
        inner.closed = true;
        inner.poison += workers;
        drop(inner);
        self.ready.notify_all();
    }
}
