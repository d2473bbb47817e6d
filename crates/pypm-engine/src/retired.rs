//! What outlives the retired `jobs` axis (PR 16: ROADMAP's "Closed since
//! the last re-anchor" and its profile ledger): the two live keys of the `parallel` block of
//! `pypm.pipeline.v1`, and the names the repo benchmark's frozen
//! measured surface still compiles against.

/// The `parallel` block of a pass's report. Every key the block had
/// beyond these fields is rendered as a literal zero.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParallelStats {
    /// `1` for a pass that probes (the match phase is serial), `0` for
    /// one that does not.
    pub jobs: u64,
    /// Graphs compiled by the owning [`crate::Pipeline::run`] /
    /// [`crate::Pipeline::run_batch`] invocation (1 for a plain `run`).
    pub batch_graphs: u64,
    /// Always 0 — inert; kept for the benchmark's frozen surface;
    /// removed with ROADMAP item 4 (e).
    pub probes_executed: u64,
}

/// Inert; kept for the benchmark's frozen surface; removed with ROADMAP
/// item 4 (e).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParallelConfig;

impl ParallelConfig {
    /// Inert; kept for the benchmark's frozen surface; removed with
    /// ROADMAP item 4 (e). Any count means the serial pass.
    pub fn with_jobs(_jobs: usize) -> Self {
        ParallelConfig
    }
}

impl crate::Pipeline<'_> {
    /// Inert; kept for the benchmark's frozen surface; removed with
    /// ROADMAP item 4 (e). Returns the pipeline unchanged.
    pub fn parallelism(self, _parallel: ParallelConfig) -> Self {
        self
    }
}
