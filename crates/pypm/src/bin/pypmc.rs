//! `pypmc` — a command-line driver for the PyPM reproduction.
//!
//! ```text
//! pypmc list-models                         list both model zoos
//! pypmc compile <model>... [--config C] [--sweep-policy P] [--matcher M]
//!                          [--stats-json FILE] [--dot]
//!                                           compile one or more models and
//!                                           report rewrite stats + simulated
//!                                           cost per model
//! pypmc serve [--addr A] [--workers N] [--queue N]
//!             [--cache N] [--cache-dir DIR] [--cache-dir-max-bytes N]
//!             [--request-timeout-ms N] [--step-limit N]
//!             [--idle-timeout-ms N]
//!                                           long-lived compile session server
//!                                           (see the `pypm::serve` docs for
//!                                           the framed TCP protocol)
//! pypmc library [--format text|binary] [-o FILE]
//!                                           dump the paper's pattern library
//! pypmc dump <model> [--config C] [-o FILE] write a model's graph + ruleset
//!                                           as one PYPMWIRE container
//! pypmc load <file>                         decode a PYPMWIRE container and
//!                                           report what it holds
//! pypmc partition <model> [--pattern P]     directed graph partitioning (§4.2)
//! pypmc explain <model> <pattern>           per-node match diagnostics
//! ```
//!
//! Configurations `C`: `baseline`, `fmha`, `epilog`, `both` (default),
//! `all` — each optionally suffixed `+synthN` (e.g. `all+synth39`) to
//! append `N` synthetic never-matching rules for matcher-scaling
//! experiments. Sweep policies `P`: `incremental` (default —
//! dirty-node worklist) or `restart` (the paper-faithful reference
//! scan; identical result, more match attempts). Matcher backends `M`:
//! `fused` (default — one discrimination tree over the whole rule set) or
//! `per-pattern` (the reference ablation); both fire byte-identical
//! rewrite sequences. `--jobs` is retired with the parallel match phase
//! it selected: `--jobs 1` is accepted as a no-op, any other value is
//! rejected with exit code 2 and a message saying so. With several
//! models, the whole batch compiles through one `Pipeline::run_batch`
//! over shared session stores.
//! `--stats-json` writes the pipeline report in the stable
//! `pypm.pipeline.v1` schema (including the additive `incremental` and
//! `parallel` counter blocks); for a batch it writes a `pypm.batch.v1`
//! document wrapping one report per model.
//!
//! `serve --cache N` sizes the in-memory compile-result cache (default
//! 128 entries; 0 disables it without a directory), and `--cache-dir
//! DIR` additionally persists results as checksummed `PYPMWIRE` report
//! containers so a restarted server keeps hitting;
//! `--cache-dir-max-bytes N` caps that directory, evicting the oldest
//! entries first (evictions are reported in the `stats` verb's
//! `pypm.serve.stats.v1` document). `serve --request-timeout-ms N` /
//! `--step-limit N` set default per-compile budgets (wall clock /
//! deterministic machine steps); a request's own `timeout_ms=` /
//! `step_limit=` keys win, and an exhausted budget answers
//! `DEADLINE_EXCEEDED` while the worker keeps serving. Zero or
//! non-numeric budget values are rejected with exit code 2 — omit the
//! flag for no limit. The server compiles `(incremental, fused)` over
//! the five plain configurations; `P`, `M` and `+synthN` are `compile`
//! flags, not request keys. `dump`/`load`
//! round-trip graphs and rulesets through the `PYPMWIRE` container
//! format (`pypm::wire`): `dump` writes the canonical encoding, `load`
//! decodes any container (or a legacy raw `PYPMB1` ruleset) and reports
//! its contents, failing cleanly on corrupt input.
//!
//! Unknown flags and stray positional arguments are rejected with exit
//! code 2 and a usage line — every subcommand declares exactly what it
//! accepts. A reader that closes stdout early (`pypmc … | head`) ends
//! the output with exit 0; any other failure to write it is exit 1.

use pypm::cli_args::{self, parse_or_usage, Spec};
use pypm::core::json::{Layout, Writer};
use pypm::dsl::{binary, text, LibraryConfig};
use pypm::engine::{explain_at, partition, summary, Pipeline, RewritePass, Session};
use pypm::perf::CostModel;
use std::io::{self, Write};
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    // The server writes its two lines itself and holds no lock on
    // stdout while it runs.
    if args.first().map(String::as_str) == Some("serve") {
        exit(serve(rest));
    }
    let mut out = io::stdout().lock();
    let written = match args.first().map(String::as_str) {
        Some("list-models") => list_models(&mut out, rest),
        Some("compile") => compile(&mut out, rest),
        Some("library") => library(&mut out, rest),
        Some("dump") => dump(&mut out, rest),
        Some("load") => load(&mut out, rest),
        Some("partition") => run_partition(&mut out, rest),
        Some("explain") => run_explain(&mut out, rest),
        _ => {
            eprintln!(
                "usage: pypmc <list-models|compile|serve|library|dump|load|partition|explain> [...]"
            );
            eprintln!("see the module docs (`cargo doc -p pypm`) for details");
            Ok(2)
        }
    };
    let code = match written.and_then(|code| out.flush().map(|()| code)) {
        Ok(code) => code,
        // Whoever reads our stdout stopped (`pypmc … | head`): what it
        // did not read it did not want, so that is no failure.
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => 0,
        Err(e) => {
            eprintln!("cannot write to stdout: {e}");
            1
        }
    };
    exit(code);
}

fn list_models(out: &mut impl Write, args: &[String]) -> io::Result<i32> {
    let spec = Spec {
        usage: "pypmc list-models",
        positionals: (0, 0),
        value_flags: &[],
        bool_flags: &[],
    };
    if let Err(code) = parse_or_usage(&spec, args) {
        return Ok(code);
    }
    writeln!(out, "HuggingFace-style transformers:")?;
    for c in pypm::models::hf_zoo() {
        writeln!(
            out,
            "  {:<22} {} layers, hidden {}, seq {}, gelu {:?}, scale {:?}",
            c.name, c.layers, c.hidden, c.seq, c.gelu, c.scale
        )?;
    }
    writeln!(out, "\nTorchVision-style CNNs:")?;
    for c in pypm::models::tv_zoo() {
        writeln!(
            out,
            "  {:<22} {} stages, {} classifier layers, res {}",
            c.name,
            c.stages.len(),
            c.classifier.len(),
            c.resolution
        )?;
    }
    Ok(0)
}

fn compile(out: &mut impl Write, args: &[String]) -> io::Result<i32> {
    let spec = Spec {
        usage: "pypmc compile <model>... [--config C] [--sweep-policy P] [--matcher M] \
                [--stats-json FILE] [--dot]",
        positionals: (1, usize::MAX),
        value_flags: &[
            "--config",
            "--sweep-policy",
            "--matcher",
            "--jobs",
            "--stats-json",
        ],
        bool_flags: &["--dot"],
    };
    let parsed = match parse_or_usage(&spec, args) {
        Ok(p) => p,
        Err(code) => return Ok(code),
    };
    let models = &parsed.positionals;
    let config_arg = parsed.value("--config").unwrap_or("both");
    let Some(lib) = cli_args::lib_config(config_arg) else {
        eprintln!("unknown config {config_arg}");
        return Ok(2);
    };
    let policy = match cli_args::resolve_policy(&parsed) {
        Ok(policy) => policy,
        Err(e) => {
            eprintln!("{e}");
            return Ok(2);
        }
    };
    let matcher = match cli_args::resolve_matcher(&parsed) {
        Ok(matcher) => matcher,
        Err(e) => {
            eprintln!("{e}");
            return Ok(2);
        }
    };
    if let Err(e) = cli_args::retired("jobs", parsed.value("--jobs").unwrap_or("1"), "1") {
        eprintln!("error: {e}");
        eprintln!("usage: {}", spec.usage);
        return Ok(2);
    }

    // One session for the whole batch: shared symbol/term/pattern
    // stores across every graph — the Pipeline::run_batch entry point.
    let mut s = Session::new();
    let mut graphs = Vec::with_capacity(models.len());
    for model in models {
        let Some(g) = pypm::build_model(&mut s, model) else {
            eprintln!("unknown model {model}; try `pypmc list-models`");
            return Ok(1);
        };
        graphs.push(g);
    }
    let cm = CostModel::new();
    let before: Vec<(usize, f64)> = graphs
        .iter()
        .map(|g| {
            (
                g.live_count(),
                cm.graph_cost(g, &s.syms, &s.registry, &s.ops),
            )
        })
        .collect();

    let rules = s.load_library(lib);
    let recipe = pypm::CompileRecipe {
        policy,
        matcher,
        budget: None,
        stages: None,
    };
    let reports = match pypm::compile_batch(&mut s, &mut graphs, rules, recipe) {
        Ok(reports) => reports,
        Err(e) => {
            eprintln!("rewrite pass failed: {e}");
            return Ok(1);
        }
    };
    // The pipeline validates each graph after every mutating pass; the
    // baseline (no-pass) graphs are valid by construction.
    for (i, (model, g)) in models.iter().zip(&graphs).enumerate() {
        if i > 0 {
            writeln!(out)?;
        }
        let stats = reports[i].total();
        let (before_nodes, before_cost) = before[i];
        let after_cost = cm.graph_cost(g, &s.syms, &s.registry, &s.ops);
        writeln!(out, "model      {model}")?;
        writeln!(out, "nodes      {before_nodes} -> {}", g.live_count())?;
        writeln!(
            out,
            "rewrites   {} fired / {} matches / {} attempts",
            stats.rewrites_fired, stats.matches_found, stats.match_attempts
        )?;
        writeln!(
            out,
            "matcher    {:.2} ms, {} machine steps, {} backtracks, {} sweeps",
            stats.duration.as_secs_f64() * 1e3,
            stats.machine_steps,
            stats.machine_backtracks,
            stats.sweeps
        )?;
        writeln!(
            out,
            "term view  {} builds, {} patches, {} nodes revisited, {} reindexed",
            stats.view_builds, stats.view_patches, stats.nodes_revisited, stats.nodes_reindexed
        )?;
        writeln!(
            out,
            "backend    {}: {} pairs admitted / {} rejected, {} terms walked, {} trie steps",
            stats.matcher.backend,
            stats.matcher.pairs_admitted,
            stats.matcher.pairs_rejected,
            stats.matcher.terms_walked,
            stats.matcher.trie_steps
        )?;
        writeln!(
            out,
            "inference  {before_cost:.1} µs -> {after_cost:.1} µs ({:.3}x)",
            before_cost / after_cost
        )?;
    }
    if let Some(path) = parsed.value("--stats-json") {
        let payload = if models.len() == 1 {
            reports[0].to_json()
        } else {
            batch_json(models, &reports)
        };
        if let Err(e) = std::fs::write(path, payload) {
            eprintln!("cannot write {path}: {e}");
            return Ok(1);
        }
    }
    if parsed.has("--dot") {
        for g in &graphs {
            writeln!(out, "\n{}", g.to_dot(&s.syms))?;
        }
    }
    Ok(0)
}

/// Renders a batch compile's reports as one `pypm.batch.v1` document:
/// each model's full `pypm.pipeline.v1` report, in input order. A
/// single-model compile keeps emitting the bare pipeline report, so
/// existing consumers see no change.
fn batch_json(models: &[String], reports: &[pypm::engine::PipelineReport]) -> String {
    let mut w = Writer::new();
    w.begin_object(Layout::Lines);
    w.key("schema").string("pypm.batch.v1");
    w.key("graphs").begin_array(Layout::Lines);
    for (model, report) in models.iter().zip(reports) {
        w.begin_object(Layout::Inline);
        w.key("model").string(model);
        w.key("report").raw(report.to_json().trim_end());
        w.end();
    }
    w.end();
    w.end();
    w.finish() + "\n"
}

fn serve(args: &[String]) -> i32 {
    match try_serve(args) {
        Ok(code) | Err(code) => code,
    }
}

/// The value of `flag` as a number, or the diagnostic for one that is
/// not `what`.
fn number<T: std::str::FromStr>(
    parsed: &cli_args::Parsed,
    flag: &str,
    what: &str,
) -> Result<Option<T>, String> {
    parsed
        .value(flag)
        .map(|v| {
            v.parse()
                .map_err(|_| format!("invalid {flag} {v}: not {what}"))
        })
        .transpose()
}

fn try_serve(args: &[String]) -> Result<i32, i32> {
    let spec = Spec {
        usage: "pypmc serve [--addr A] [--workers N] [--queue N] \
                [--cache N] [--cache-dir DIR] [--cache-dir-max-bytes N] \
                [--request-timeout-ms N] [--step-limit N] [--idle-timeout-ms N]",
        positionals: (0, 0),
        value_flags: &[
            "--addr",
            "--jobs",
            "--workers",
            "--queue",
            "--cache",
            "--cache-dir",
            "--cache-dir-max-bytes",
            "--request-timeout-ms",
            "--step-limit",
            "--idle-timeout-ms",
        ],
        bool_flags: &[],
    };
    let parsed = parse_or_usage(&spec, args)?;
    let usage_error = |e: String| {
        eprintln!("error: {e}");
        eprintln!("usage: {}", spec.usage);
        2
    };
    let mut config = pypm::serve::ServeConfig::default();
    if let Some(addr) = parsed.value("--addr") {
        config.addr = addr.to_owned();
    }
    cli_args::retired("jobs", parsed.value("--jobs").unwrap_or("1"), "1").map_err(usage_error)?;
    config.cache_dir = parsed.value("--cache-dir").map(str::to_owned);
    config.cache_dir_max_bytes =
        number(&parsed, "--cache-dir-max-bytes", "a non-negative integer").map_err(usage_error)?;
    // Default compile budgets: a request's own timeout_ms=/step_limit=
    // keys override them. Zero is rejected — "no limit" is spelled by
    // omitting the flag, and a zero budget would refuse every compile.
    for (flag, slot) in [
        ("--request-timeout-ms", &mut config.request_timeout_ms),
        ("--step-limit", &mut config.step_limit),
    ] {
        match number(&parsed, flag, "a positive integer").map_err(usage_error)? {
            Some(0) => {
                let e = format!("{flag} must be positive (omit it for no limit)");
                return Err(usage_error(e));
            }
            limit => *slot = limit,
        }
    }
    // Idle-connection reaping: how long a connection may sit between
    // request frames before the server drops it. Zero disables reaping
    // (idle connections are kept forever); omitting keeps the default.
    if let Some(ms) = number::<u64>(&parsed, "--idle-timeout-ms", "a non-negative integer")
        .map_err(usage_error)?
    {
        config.idle_timeout_ms = (ms > 0).then_some(ms);
    }
    for (flag, slot) in [
        ("--workers", &mut config.workers),
        ("--queue", &mut config.queue_depth),
        ("--cache", &mut config.cache_capacity),
    ] {
        if let Some(n) = number(&parsed, flag, "a non-negative integer").map_err(usage_error)? {
            *slot = n;
        }
    }
    if config.workers == 0 {
        eprintln!("error: --workers must be at least 1");
        return Err(2);
    }
    let server = pypm::serve::Server::bind(config).map_err(|e| {
        eprintln!("cannot bind: {e}");
        1
    })?;
    // The line scripts/tests scrape for the resolved port.
    println!("listening on {}", server.addr());
    let _ = std::io::stdout().flush();
    // Runs until a client sends `shutdown`; the drain finishes queued
    // compiles before join returns. Whoever launched us may have
    // hung up on our stdout long ago — that must not turn a clean
    // drain into a broken-pipe panic.
    server.join();
    let _ = writeln!(std::io::stdout(), "server drained, exiting");
    Ok(0)
}

fn library(out: &mut impl Write, args: &[String]) -> io::Result<i32> {
    let spec = Spec {
        usage: "pypmc library [--format text|binary] [-o FILE]",
        positionals: (0, 0),
        value_flags: &["--format", "-o"],
        bool_flags: &[],
    };
    let parsed = match parse_or_usage(&spec, args) {
        Ok(p) => p,
        Err(code) => return Ok(code),
    };
    let mut s = Session::new();
    let rules = s.load_library(LibraryConfig::all());
    let format = parsed.value("--format").unwrap_or("text");
    let payload: Vec<u8> = match format {
        "text" => text::print_ruleset(&rules, &s.syms, &s.pats).into_bytes(),
        "binary" => binary::encode(&rules, &s.syms, &s.pats),
        other => {
            eprintln!("unknown format {other} (want text|binary)");
            return Ok(2);
        }
    };
    match parsed.value("-o") {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &payload) {
                eprintln!("cannot write {path}: {e}");
                return Ok(1);
            }
            writeln!(out, "wrote {} bytes to {path}", payload.len())?;
        }
        None => {
            out.write_all(&payload)?;
        }
    }
    Ok(0)
}

fn dump(out: &mut impl Write, args: &[String]) -> io::Result<i32> {
    let spec = Spec {
        usage: "pypmc dump <model> [--config C] [-o FILE]",
        positionals: (1, 1),
        value_flags: &["--config", "-o"],
        bool_flags: &[],
    };
    let parsed = match parse_or_usage(&spec, args) {
        Ok(p) => p,
        Err(code) => return Ok(code),
    };
    let model = &parsed.positionals[0];
    let config_arg = parsed.value("--config").unwrap_or("both");
    let Some(lib) = cli_args::lib_config(config_arg) else {
        eprintln!("unknown config {config_arg}");
        return Ok(2);
    };
    let mut s = Session::new();
    let Some(g) = pypm::build_model(&mut s, model) else {
        eprintln!("unknown model {model}; try `pypmc list-models`");
        return Ok(1);
    };
    let rules = s.load_library(lib);
    let payload = s.wire_bundle(&g, &rules);
    match parsed.value("-o") {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &payload) {
                eprintln!("cannot write {path}: {e}");
                return Ok(1);
            }
            writeln!(
                out,
                "wrote {} bytes to {path}: {} nodes, {} outputs, {} rules",
                payload.len(),
                g.live_count(),
                g.outputs().len(),
                rules.len()
            )?;
        }
        None => {
            out.write_all(&payload)?;
        }
    }
    Ok(0)
}

fn load(out: &mut impl Write, args: &[String]) -> io::Result<i32> {
    let spec = Spec {
        usage: "pypmc load <file>",
        positionals: (1, 1),
        value_flags: &[],
        bool_flags: &[],
    };
    let parsed = match parse_or_usage(&spec, args) {
        Ok(p) => p,
        Err(code) => return Ok(code),
    };
    let path = &parsed.positionals[0];
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return Ok(1);
        }
    };
    let mut s = Session::new();
    // A bundle is the common case (`pypmc dump` writes one); a bare
    // ruleset container — or the legacy raw PYPMB1 encoding `pypmc
    // library --format binary` writes — still loads.
    Ok(match s.load_wire_bundle(&bytes) {
        Ok((g, rules)) => {
            if let Err(e) = g.validate() {
                eprintln!("decoded graph fails validation: {e:?}");
                return Ok(1);
            }
            let identical = s.wire_bundle(&g, &rules)[..] == bytes[..];
            writeln!(
                out,
                "loaded {path}: {} nodes, {} outputs, {} rules{}",
                g.live_count(),
                g.outputs().len(),
                rules.len(),
                if identical {
                    " (canonical: re-encodes byte-identically)"
                } else {
                    ""
                }
            )?;
            0
        }
        Err(pypm::wire::WireError::MissingSection { .. })
        | Err(pypm::wire::WireError::BadMagic) => match s.load_wire_ruleset(&bytes) {
            Ok(rules) => {
                writeln!(
                    out,
                    "loaded {path}: {} rules (no graph section)",
                    rules.len()
                )?;
                0
            }
            Err(e) => {
                eprintln!("cannot decode {path}: {e}");
                1
            }
        },
        Err(e) => {
            eprintln!("cannot decode {path}: {e}");
            1
        }
    })
}

fn run_explain(out: &mut impl Write, args: &[String]) -> io::Result<i32> {
    let spec = Spec {
        usage: "pypmc explain <model> <pattern>",
        positionals: (2, 2),
        value_flags: &[],
        bool_flags: &[],
    };
    let parsed = match parse_or_usage(&spec, args) {
        Ok(p) => p,
        Err(code) => return Ok(code),
    };
    let (model, pattern) = (&parsed.positionals[0], &parsed.positionals[1]);
    let mut s = Session::new();
    let Some(mut g) = pypm::build_model(&mut s, model) else {
        eprintln!("unknown model {model}; try `pypmc list-models`");
        return Ok(1);
    };
    let rules = s.load_library(LibraryConfig::all());
    if rules.find(pattern).is_none() {
        eprintln!("unknown pattern {pattern}; library patterns:");
        for def in &rules.patterns {
            eprintln!("  {}", def.name);
        }
        return Ok(1);
    }
    // Static phase: machine-trace diagnostics for the pattern at every
    // node of the untouched graph.
    let mut matched = 0u32;
    let mut failed = 0u32;
    let mut worst: Option<pypm::engine::Explanation> = None;
    for node in g.topo_order() {
        if let Some(e) = explain_at(&mut s, &rules, &g, node, pattern, 1_000_000) {
            if e.matched {
                matched += 1;
                writeln!(out, "{e}")?;
            } else {
                failed += 1;
                if worst.as_ref().map(|w| w.steps < e.steps).unwrap_or(true) {
                    worst = Some(e);
                }
            }
        }
    }
    writeln!(out, "{matched} nodes matched, {failed} did not.")?;
    if let Some(w) = worst {
        writeln!(
            out,
            "
most expensive failed attempt:
{w}"
        )?;
    }
    // Dynamic phase: run the full compilation and report from its
    // firing log where the pattern actually fired or was rejected.
    let report = match Pipeline::new(&mut s)
        .with(RewritePass::new(rules.clone()))
        .run(&mut g)
    {
        Ok(report) => report,
        Err(e) => {
            eprintln!("rewrite pass failed: {e}");
            return Ok(1);
        }
    };
    writeln!(out, "\nduring compilation (full library):")?;
    write!(
        out,
        "{}",
        summary(&report.passes()[0].firings, &rules, Some(pattern))
    )?;
    Ok(0)
}

fn run_partition(out: &mut impl Write, args: &[String]) -> io::Result<i32> {
    let spec = Spec {
        usage: "pypmc partition <model> [--pattern P]",
        positionals: (1, 1),
        value_flags: &["--pattern"],
        bool_flags: &[],
    };
    let parsed = match parse_or_usage(&spec, args) {
        Ok(p) => p,
        Err(code) => return Ok(code),
    };
    let model = &parsed.positionals[0];
    let pattern = parsed.value("--pattern").unwrap_or("MatMulEpilog");
    let mut s = Session::new();
    let Some(g) = pypm::build_model(&mut s, model) else {
        eprintln!("unknown model {model}; try `pypmc list-models`");
        return Ok(1);
    };
    let rules = s.load_library(LibraryConfig::all());
    if rules.find(pattern).is_none() {
        eprintln!("unknown pattern {pattern}; library patterns:");
        for def in &rules.patterns {
            eprintln!("  {}", def.name);
        }
        return Ok(1);
    }
    let parts = partition(&mut s, &rules, &g, pattern);
    let cm = CostModel::new();
    writeln!(
        out,
        "{model}: {} {pattern} partitions over {} nodes",
        parts.len(),
        g.live_count()
    )?;
    for p in &parts {
        let per_node: f64 = p
            .nodes
            .iter()
            .map(|&n| cm.node_cost(&g, &s.syms, &s.registry, &s.ops, n))
            .sum();
        let fused = cm.fused_region_cost(&g, &s.registry, &s.ops, &p.nodes, &p.frontier, p.root);
        writeln!(
            out,
            "  root {:?}: {} nodes, {} frontier inputs, {per_node:.1} µs per-node vs {fused:.1} µs fused",
            p.root,
            p.size(),
            p.frontier.len()
        )?;
    }
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pypm::graph::Graph;

    /// `pypm.batch.v1` is pinned byte-for-byte to a document captured
    /// from the `format!`-built renderer this writer replaced. The
    /// wrapped reports come from pass-free pipelines, so they carry no
    /// wall-clock noise.
    #[test]
    fn batch_json_is_byte_identical_to_the_pinned_golden() {
        let mut s = Session::new();
        let mut graphs = vec![Graph::new(), Graph::new()];
        let reports = Pipeline::new(&mut s).run_batch(&mut graphs).unwrap();
        let models = ["quo\"te\\d".to_owned(), "vgg11".to_owned()];
        let json = batch_json(&models, &reports);
        assert_eq!(json, include_str!("../../../../tests/golden/batch_v1.json"));
    }
}
