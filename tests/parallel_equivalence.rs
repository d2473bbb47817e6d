//! The parallel-matching contract: a [`RewritePass`] run with `jobs > 1`
//! (sharded candidate discovery, serial commit — see the
//! `pypm_engine::shard` module docs) must be **byte-identical** to the
//! fully serial `jobs = 1` run — same firing sequence, same final graph
//! down to node ids, and the same value for every semantic counter
//! (`match_attempts`, `matches_found`, `machine_steps`, …) — under both
//! sweep policies, across the full model zoo.
//!
//! The correctness argument is local (probe outcomes are deterministic
//! per `(pattern, term)`, and the serial commit scan consumes them in
//! its canonical order); this suite is the global check.
//!
//! Set `PYPM_JOBS=<n>` to add an extra job count to every comparison —
//! the CI matrix leg uses it to sweep job counts without code changes.

mod common;

use common::{node_rows, FiringLog, Outcome};
use pypm::dsl::LibraryConfig;
use pypm::engine::{
    MatcherBackend, ParallelConfig, PassStats, Pipeline, RewritePass, Session, SweepPolicy,
};
use pypm::graph::Graph;
use std::cell::RefCell;
use std::rc::Rc;

/// The job counts every comparison sweeps (1 is the serial reference).
fn job_counts() -> Vec<usize> {
    let mut jobs = vec![1usize, 2, 8];
    if let Ok(Some(extra)) = pypm::perf::parallel::jobs_from_env("PYPM_JOBS") {
        if !jobs.contains(&extra) {
            jobs.push(extra);
        }
    }
    jobs
}

/// [`common::run_rewrite`] under the default matcher backend.
fn run(
    build: &dyn Fn(&mut Session) -> Graph,
    cfg: LibraryConfig,
    policy: SweepPolicy,
    jobs: usize,
) -> (Outcome, PassStats) {
    common::run_rewrite(build, cfg, policy, jobs, MatcherBackend::default())
}

fn assert_parallel_equivalent(name: &str, build: &dyn Fn(&mut Session) -> Graph) {
    for (cname, cfg) in [
        ("both", LibraryConfig::both as fn() -> LibraryConfig),
        ("all", LibraryConfig::all),
    ] {
        for policy in SweepPolicy::ALL {
            let (serial, serial_stats) = run(build, cfg(), policy, 1);
            for jobs in job_counts().into_iter().filter(|&j| j > 1) {
                let (parallel, pstats) = run(build, cfg(), policy, jobs);
                assert_eq!(
                    serial, parallel,
                    "{name}/{cname}/{policy}: jobs={jobs} diverged from serial"
                );
                // Machine-work diagnostics may only shrink (filtered
                // probes run no machine), never grow.
                assert!(
                    pstats.machine_steps <= serial_stats.machine_steps,
                    "{name}/{cname}/{policy}: jobs={jobs} did more machine work"
                );
                // The parallel block must actually account the probes:
                // everything the commit scan consumed was either warmed
                // or probed inline, and per-shard counts sum up.
                assert_eq!(pstats.parallel.jobs as usize, jobs);
                assert_eq!(
                    pstats.parallel.probes_filtered
                        + pstats.parallel.probes_reused
                        + pstats.parallel.probes_inline,
                    pstats.match_attempts,
                    "{name}/{cname}/{policy}: consumed probes must equal match attempts"
                );
                assert_eq!(
                    pstats.parallel.probes_by_shard.iter().sum::<u64>(),
                    pstats.parallel.probes_executed,
                    "{name}/{cname}/{policy}: shard counts must sum to probes executed"
                );
                assert_eq!(pstats.parallel.probes_by_shard.len(), jobs);
            }
        }
    }
}

/// Every HuggingFace-zoo transformer.
#[test]
fn hf_zoo_parallel_matches_serial() {
    for cfg in pypm::models::hf_zoo() {
        assert_parallel_equivalent(cfg.name, &|s| cfg.build(s));
    }
}

/// Every TorchVision-zoo CNN.
#[test]
fn tv_zoo_parallel_matches_serial() {
    for cfg in pypm::models::tv_zoo() {
        assert_parallel_equivalent(cfg.name, &|s| cfg.build(s));
    }
}

/// The memoization claim behind the perf win: on a rewrite-heavy model
/// under the restart policy, the warm phases execute far fewer machine
/// runs than the serial pass (which re-probes every sweep), while the
/// consumed-probe counters stay identical.
#[test]
fn parallel_restart_memoizes_probes_on_bert_small() {
    let cfg = pypm::models::hf_zoo()
        .into_iter()
        .find(|c| c.name == "bert-small")
        .unwrap();
    let (_, serial) = run(
        &|s| cfg.build(s),
        LibraryConfig::both(),
        SweepPolicy::RestartOnRewrite,
        1,
    );
    let (_, parallel) = run(
        &|s| cfg.build(s),
        LibraryConfig::both(),
        SweepPolicy::RestartOnRewrite,
        4,
    );
    assert!(serial.rewrites_fired > 0, "model must actually rewrite");
    assert_eq!(serial.match_attempts, parallel.match_attempts);
    let speculative = parallel.parallel.probes_executed + parallel.parallel.probes_inline;
    assert!(
        speculative * 2 < serial.match_attempts,
        "expected ≥2× fewer machine runs via memoization: {} executed vs {} serial attempts",
        speculative,
        serial.match_attempts,
    );
    assert!(parallel.parallel.warm_batches >= 1);
}

/// Batch compilation must be invisible in the results: running a batch
/// of graphs through one `Pipeline::run_batch` (shared session stores,
/// one warm worker pool across all graphs) yields, per graph, exactly
/// the outcome of sequential standalone `Pipeline::run` calls over the
/// same session — at every job count and under every sweep policy.
#[test]
fn run_batch_is_byte_identical_to_sequential_runs() {
    let models = ["bert-tiny", "vgg11", "bert-tiny"];
    let build = |name: &str, s: &mut Session| -> Graph {
        if let Some(cfg) = pypm::models::hf_zoo().into_iter().find(|c| c.name == name) {
            cfg.build(s)
        } else {
            pypm::models::tv_zoo()
                .into_iter()
                .find(|c| c.name == name)
                .unwrap()
                .build(s)
        }
    };
    for policy in SweepPolicy::ALL {
        for jobs in [1usize, 2, 8] {
            // Sequential reference: one session, graphs built up front
            // (matching the batch path's symbol-interning order), one
            // Pipeline::run per graph.
            let mut s_seq = Session::new();
            let mut seq_graphs: Vec<Graph> = models.iter().map(|m| build(m, &mut s_seq)).collect();
            let mut seq = Vec::new();
            for g in &mut seq_graphs {
                let rules = s_seq.load_library(LibraryConfig::both());
                let report = Pipeline::new(&mut s_seq)
                    .with(RewritePass::new(rules).policy(policy))
                    .parallelism(ParallelConfig::with_jobs(jobs))
                    .run(g)
                    .expect("sequential run succeeds");
                let t = report.total();
                seq.push((
                    node_rows(g, &s_seq),
                    t.rewrites_fired,
                    t.match_attempts,
                    t.matches_found,
                    t.sweeps,
                ));
            }
            // Batched: same graphs, one run_batch, one shared pool.
            let mut s_batch = Session::new();
            let mut graphs: Vec<Graph> = models.iter().map(|m| build(m, &mut s_batch)).collect();
            let rules = s_batch.load_library(LibraryConfig::both());
            let reports = Pipeline::new(&mut s_batch)
                .with(RewritePass::new(rules).policy(policy))
                .parallelism(ParallelConfig::with_jobs(jobs))
                .run_batch(&mut graphs)
                .expect("batch run succeeds");
            assert_eq!(reports.len(), models.len());
            let mut total_pool_rounds = 0;
            let mut total_reuse = 0;
            for (i, (report, g)) in reports.iter().zip(&graphs).enumerate() {
                let t = report.total();
                assert_eq!(
                    t.parallel.batch_graphs,
                    models.len() as u64,
                    "{policy}/jobs={jobs}: batch size surfaces in every report"
                );
                let got = (
                    node_rows(g, &s_batch),
                    t.rewrites_fired,
                    t.match_attempts,
                    t.matches_found,
                    t.sweeps,
                );
                assert_eq!(
                    seq[i], got,
                    "{policy}/jobs={jobs}: graph {i} diverged under batching"
                );
                total_pool_rounds += t.parallel.pool_rounds;
                total_reuse += t.parallel.pool_spawn_reuse;
            }
            // Pool accounting: only the very first pooled round of the
            // run is cold; every later one reuses warm threads.
            if total_pool_rounds > 0 {
                assert_eq!(
                    total_reuse,
                    total_pool_rounds - 1,
                    "{policy}/jobs={jobs}: all but the first pool round reuse warm threads"
                );
            } else {
                assert_eq!(total_reuse, 0);
            }
        }
    }
}

/// `ParallelConfig::auto` resolves to the machine's parallelism and
/// stays byte-identical too (smoke-level: one model, one policy).
#[test]
fn auto_parallelism_is_equivalent_on_bert_tiny() {
    let cfg = pypm::models::hf_zoo()
        .into_iter()
        .find(|c| c.name == "bert-tiny")
        .unwrap();
    let (serial, _) = run(
        &|s| cfg.build(s),
        LibraryConfig::all(),
        SweepPolicy::Incremental,
        1,
    );
    let auto = ParallelConfig::auto().jobs.max(2);
    let (parallel, _) = run(
        &|s| cfg.build(s),
        LibraryConfig::all(),
        SweepPolicy::Incremental,
        auto,
    );
    assert_eq!(serial, parallel);
}

/// The survival contract a long-lived `pypmc serve` process depends
/// on: a mid-compile worker panic fails that one run with a clean
/// error, and the *same session* (term store restored by the loan
/// guard, pool still warm) compiles the next graph successfully — with
/// results identical to an undisturbed fresh-session run.
#[test]
fn session_survives_an_injected_worker_panic() {
    let cfg = pypm::models::hf_zoo()
        .into_iter()
        .find(|c| c.name == "bert-small")
        .unwrap();
    // Everything about a compile that is independent of term interning
    // (the retry session has extra interned terms from the failed run).
    let compile = |s: &mut Session| {
        let mut g = cfg.build(s);
        let rules = s.load_library(LibraryConfig::both());
        let log = Rc::new(RefCell::new(FiringLog::default()));
        let report = Pipeline::new(s)
            .with(RewritePass::new(rules).policy(SweepPolicy::RestartOnRewrite))
            .parallelism(ParallelConfig::with_jobs(4))
            .observe(log.clone())
            .run(&mut g)
            .expect("compile succeeds");
        let stats = report.total();
        let fired = std::mem::take(&mut log.borrow_mut().fired);
        (fired, stats.rewrites_fired, stats.match_attempts)
    };

    let mut fresh = Session::new();
    let want = compile(&mut fresh);
    assert!(want.1 > 0, "model must actually rewrite");

    let mut s = Session::new();
    let mut g = cfg.build(&mut s);
    let rules = s.load_library(LibraryConfig::both());
    pypm::faults::arm("worker.panic=panic*1").expect("valid fault spec");
    // Per-pattern discovery keeps the warm phase large enough to fan
    // across pool workers — the fused tree rejects so many pairs that
    // the tiny remainder runs on the caller thread and the injected
    // pool-task panic would never fire.
    let err = Pipeline::new(&mut s)
        .with(
            RewritePass::new(rules)
                .policy(SweepPolicy::RestartOnRewrite)
                .matcher(MatcherBackend::PerPattern),
        )
        .parallelism(ParallelConfig::with_jobs(4))
        .run(&mut g)
        .expect_err("the injected panic must fail the run");
    pypm::faults::disarm();
    assert!(
        err.to_string().contains("panic"),
        "error must surface the worker panic: {err}"
    );

    let got = compile(&mut s);
    assert_eq!(want, got, "retry in the survivor session diverged");
}
