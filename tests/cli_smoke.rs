//! Smoke tests of the `pypmc` CLI binary: every subcommand must run on
//! a real model/ruleset with the expected exit status and output shape.

mod common;

use common::{at, compile_stats_json, text_at, uint_at};
use std::process::{Command, Output};

fn pypmc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pypmc"))
        .args(args)
        .output()
        .expect("failed to spawn pypmc")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The `rewrites   F fired / M matches / A attempts` line of a compile.
fn rewrites_line(text: &str) -> &str {
    text.lines()
        .find(|l| l.starts_with("rewrites"))
        .expect("rewrites line")
}

#[test]
fn no_args_prints_usage_and_fails() {
    let out = pypmc(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn list_models_names_both_zoos() {
    let out = pypmc(&["list-models"]);
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    assert!(text.contains("bert-small"), "missing HF zoo entry:\n{text}");
    assert!(text.contains("resnet"), "missing TV zoo entry:\n{text}");
}

#[test]
fn compile_reports_stats_and_cost() {
    let out = pypmc(&["compile", "bert-small"]);
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    assert!(text.contains("rewrites"), "missing rewrite stats:\n{text}");
}

#[test]
fn compile_unknown_model_fails() {
    let out = pypmc(&["compile", "no-such-model"]);
    assert!(!out.status.success());
}

#[test]
fn compile_accepts_every_sweep_policy() {
    // Both policies reach the same fixpoint; the CLI reports the same
    // rewrite count and final cost line for each.
    let mut rewrite_lines = Vec::new();
    for policy in ["restart", "incremental"] {
        let out = pypmc(&["compile", "bert-tiny", "--sweep-policy", policy]);
        assert!(out.status.success(), "{policy}: {out:?}");
        let text = stdout(&out);
        assert!(text.contains("term view"), "{policy}: {text}");
        let fired = rewrites_line(&text).split('/').next().unwrap();
        rewrite_lines.push(fired.trim().to_owned());
    }
    assert_eq!(rewrite_lines[0], rewrite_lines[1]);
}

#[test]
fn compile_policy_alias_is_rejected() {
    // The pre-incremental `--policy` spelling is gone: it takes the
    // unknown-flag path like any other typo.
    let out = pypmc(&["compile", "bert-tiny", "--policy", "incremental"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag --policy"), "{err}");
    assert!(err.contains("usage: pypmc compile"), "{err}");
}

#[test]
fn compile_jobs_zero_and_garbage_are_rejected() {
    // The axis is retired: every value but the no-op `1` exits 2 with
    // the one retirement message, before anything is printed.
    for bad in ["2", "0", "x", "four", "-3", ""] {
        let out = pypmc(&["compile", "bert-tiny", "--jobs", bad]);
        assert_eq!(out.status.code(), Some(2), "--jobs {bad:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("retired"), "--jobs {bad:?}: {err}");
        assert!(err.contains("drop the flag"), "--jobs {bad:?}: {err}");
        assert!(err.contains("usage: pypmc compile"), "{err}");
        assert!(out.stdout.is_empty(), "--jobs {bad:?}: {out:?}");
    }
}

#[test]
fn compile_jobs_one_is_a_no_op_and_the_environment_is_not_read() {
    let (_, plain) = compile_stats_json(&["bert-tiny"]);
    let (_, flagged) = compile_stats_json(&["bert-tiny", "--jobs", "1"]);
    assert_eq!(
        common::mask_volatile(&flagged),
        common::mask_volatile(&plain)
    );
    // The environment override of the worker count is gone with it.
    let (_, json) = common::compile_stats_json_with_env(&["bert-tiny"], &[("PYPM_JOBS", "4")]);
    assert_eq!(common::mask_volatile(&json), common::mask_volatile(&plain));
    assert_eq!(uint_at(&common::parse(&json), "totals.parallel.jobs"), 1);
}

#[test]
fn compile_matcher_flag_env_and_diagnostics() {
    // Both backends compile to identical rewrite lines; the backend
    // line names which matcher ran.
    let mut rewrite_lines = Vec::new();
    for matcher in ["per-pattern", "fused"] {
        let out = pypmc(&["compile", "bert-tiny", "--matcher", matcher]);
        assert!(out.status.success(), "--matcher {matcher}: {out:?}");
        let text = stdout(&out);
        assert!(text.contains(&format!("backend    {matcher}:")), "{text}");
        rewrite_lines.push(rewrites_line(&text).to_owned());
    }
    assert_eq!(rewrite_lines[0], rewrite_lines[1]);
    // The flag is the only selector: the retired `PYPM_MATCHER`
    // override is ignored, whatever it holds.
    for env in ["per-pattern", "fuse"] {
        let out = Command::new(env!("CARGO_BIN_EXE_pypmc"))
            .args(["compile", "bert-tiny"])
            .env("PYPM_MATCHER", env)
            .output()
            .expect("failed to spawn pypmc");
        assert!(out.status.success(), "{out:?}");
        assert!(stdout(&out).contains("backend    fused:"), "{out:?}");
    }
}

#[test]
fn compile_unknown_matcher_fails_loudly() {
    let out = pypmc(&["compile", "bert-tiny", "--matcher", "bogus"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("unknown matcher backend bogus"),
        "should name the bad value: {err}"
    );
    assert!(
        err.contains("per-pattern|fused"),
        "should list the vocabulary: {err}"
    );
}

#[test]
fn compile_synth_config_suffix_scales_the_library() {
    // `+synthN` appends N synthetic never-firing rules: fired/matched
    // counts are unchanged from the base config (attempts legitimately
    // grow — the extra rules are still probed), and a malformed suffix
    // is an unknown config, not a silent default.
    let base = pypmc(&["compile", "bert-tiny", "--config", "all"]);
    assert!(base.status.success(), "{base:?}");
    let synth = pypmc(&["compile", "bert-tiny", "--config", "all+synth39"]);
    assert!(synth.status.success(), "{synth:?}");
    let rewrites = |out: &Output| {
        let text = stdout(out);
        let fired_and_matched: Vec<_> = rewrites_line(&text).split(" / ").take(2).collect();
        fired_and_matched.join(" / ")
    };
    assert_eq!(rewrites(&base), rewrites(&synth));
    for config in ["all+synthX", "all+synth513"] {
        let out = pypmc(&["compile", "bert-tiny", "--config", config]);
        assert_eq!(out.status.code(), Some(2), "{config}: {out:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("unknown config"),
            "{config}: {out:?}"
        );
    }
}

#[test]
fn compile_unknown_sweep_policy_fails_loudly() {
    let out = pypmc(&["compile", "bert-tiny", "--sweep-policy", "bogus"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("unknown sweep policy bogus"),
        "should name the bad value: {err}"
    );
    assert!(
        err.contains("(want restart|incremental)"),
        "should list the vocabulary: {err}"
    );
    // The retired `continue` policy gets the same answer.
    let out = pypmc(&["compile", "bert-tiny", "--sweep-policy", "continue"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("(want restart|incremental)"), "{err}");
}

#[test]
fn unknown_flags_are_rejected_with_usage() {
    // The classic typo: `--polcy` must not silently run the default
    // policy.
    let out = pypmc(&["compile", "bert-tiny", "--polcy", "restart"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag --polcy"), "{err}");
    assert!(err.contains("usage: pypmc compile"), "{err}");
}

#[test]
fn stray_positionals_are_rejected_with_usage() {
    // `compile` is absent on purpose: it now takes a whole batch of
    // models (see the batch tests below).
    for args in [
        &["list-models", "extra"][..],
        &["explain", "bert-tiny", "MMxyT", "extra"][..],
        &["partition", "bert-tiny", "extra"][..],
    ] {
        let out = pypmc(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("unexpected argument 'extra'"),
            "{args:?}: {err}"
        );
        assert!(err.contains("usage:"), "{args:?}: {err}");
    }
}

#[test]
fn batch_compile_reports_every_model_and_matches_individual_runs() {
    // One invocation, three graphs: per-model blocks in input order,
    // and each model's rewrite line byte-identical to its standalone
    // compile (batching shares stores but never changes results).
    let batch = pypmc(&["compile", "bert-tiny", "vgg11", "bert-tiny"]);
    assert!(batch.status.success(), "{batch:?}");
    let text = stdout(&batch);
    assert_eq!(text.matches("model      bert-tiny").count(), 2, "{text}");
    assert_eq!(text.matches("model      vgg11").count(), 1, "{text}");
    let batch_rewrites: Vec<&str> = text.lines().filter(|l| l.starts_with("rewrites")).collect();
    assert_eq!(batch_rewrites.len(), 3, "{text}");
    for (i, model) in ["bert-tiny", "vgg11"].into_iter().enumerate() {
        let solo = pypmc(&["compile", model]);
        assert!(solo.status.success(), "{solo:?}");
        assert_eq!(batch_rewrites[i], rewrites_line(&stdout(&solo)), "{model}");
    }
    // Unknown models fail the whole batch before compiling anything.
    let bad = pypmc(&["compile", "bert-tiny", "no-such-model"]);
    assert_eq!(bad.status.code(), Some(1), "{bad:?}");
}

#[test]
fn batch_compile_stats_json_wraps_per_model_reports() {
    let (_, json) = compile_stats_json(&["bert-tiny", "vgg11"]);
    let doc = common::parse(&json);
    assert_eq!(text_at(&doc, "schema"), "pypm.batch.v1");
    let graphs = at(&doc, "graphs").as_array().expect("graphs array");
    let models: Vec<&str> = graphs.iter().map(|g| text_at(g, "model")).collect();
    assert_eq!(models, ["bert-tiny", "vgg11"]);
    for graph in graphs {
        assert_eq!(text_at(graph, "report.schema"), "pypm.pipeline.v1");
        assert_eq!(uint_at(graph, "report.totals.parallel.batch_graphs"), 2);
    }
}

#[test]
fn flag_missing_value_is_rejected() {
    let out = pypmc(&["compile", "bert-tiny", "--sweep-policy"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing value for --sweep-policy"));
}

#[test]
fn compile_stats_json_writes_pipeline_report() {
    let (_, json) = compile_stats_json(&["bert-tiny"]);
    let doc = common::parse_report(&json);
    let passes = at(&doc, "passes").as_array().expect("passes array");
    assert_eq!(text_at(&passes[0], "name"), "rewrite");
    assert!(uint_at(&passes[0], "rewrites_fired") > 0, "{json}");
    // The additive incremental and parallel blocks ride along in every
    // report.
    uint_at(&passes[0], "incremental.view_builds");
    uint_at(&passes[0], "incremental.nodes_reindexed");
    assert!(uint_at(&passes[0], "parallel.jobs") >= 1, "{json}");
    assert!(
        at(&passes[0], "parallel.probes_by_shard")
            .as_array()
            .is_some(),
        "{json}"
    );
}

#[test]
fn compile_stats_json_unwritable_path_fails_cleanly() {
    // A missing parent directory must produce a clean error + exit 1
    // *after* compilation — never a panic mid-report.
    let dir = std::env::temp_dir().join("pypmc_no_such_dir");
    std::fs::remove_dir_all(&dir).ok();
    let path = dir.join("stats.json");
    let out = pypmc(&[
        "compile",
        "bert-tiny",
        "--stats-json",
        path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot write"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    // Compilation ran to completion first: the stats still printed.
    assert!(stdout(&out).contains("rewrites"), "{}", stdout(&out));
}

#[test]
fn serve_subcommand_listens_compiles_and_drains() {
    use std::io::BufRead;
    let mut child = Command::new(env!("CARGO_BIN_EXE_pypmc"))
        .args(["serve", "--workers", "1"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("failed to spawn pypmc serve");
    let mut line = String::new();
    std::io::BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut line)
        .unwrap();
    let addr: std::net::SocketAddr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {line}"))
        .parse()
        .expect("bound address");
    let mut c = pypm::client::Client::connect(addr).unwrap();
    let (status, body) = c.request("compile bert-tiny").unwrap();
    assert_eq!(status, pypm::serve::protocol::STATUS_OK, "{body}");
    let report = common::parse_report(&body);
    assert_eq!(uint_at(&report, "totals.parallel.jobs"), 1);
    let (status, _) = c.request("shutdown").unwrap();
    assert_eq!(status, pypm::serve::protocol::STATUS_OK);
    let out = child.wait().expect("server exits after drain");
    assert!(out.success(), "{out:?}");
}

#[test]
fn serve_rejects_bad_flags_and_values() {
    let out = pypmc(&["serve", "--bogus"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag --bogus"));
    for retired in ["0", "2", "x"] {
        let out = pypmc(&["serve", "--jobs", retired]);
        assert_eq!(out.status.code(), Some(2), "--jobs {retired}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("retired"), "--jobs {retired}: {err}");
        assert!(err.contains("drop the flag"), "--jobs {retired}: {err}");
        assert!(out.stdout.is_empty(), "--jobs {retired}: {out:?}");
    }
    let out = pypmc(&["serve", "--workers", "0"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let out = pypmc(&["serve", "--queue", "lots"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let out = pypmc(&["serve", "--cache", "many"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let out = pypmc(&["serve", "--cache-dir"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing value for --cache-dir"));
}

#[test]
fn serve_rejects_zero_and_garbage_budget_flags_with_usage() {
    // "No limit" is spelled by omitting the flag: zero and non-numeric
    // budget values exit 2 and print the usage line.
    for args in [
        &["serve", "--request-timeout-ms", "0"][..],
        &["serve", "--request-timeout-ms", "soon"],
        &["serve", "--request-timeout-ms", "-50"],
        &["serve", "--step-limit", "0"],
        &["serve", "--step-limit", "many"],
    ] {
        let out = pypmc(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage: pypmc serve"), "{args:?}: {err}");
        assert!(
            err.contains(args[1]),
            "{args:?}: error does not name the flag: {err}"
        );
    }
}

#[test]
fn dump_and_load_roundtrip_a_model() {
    let dir = std::env::temp_dir().join(format!("pypmc_dump_load_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bert-tiny.pypmw");
    let path_s = path.to_str().unwrap();

    let out = pypmc(&["dump", "bert-tiny", "--config", "all", "-o", path_s]);
    assert!(out.status.success(), "{out:?}");
    assert!(stdout(&out).contains("wrote"), "{}", stdout(&out));
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(&bytes[..8], b"PYPMWIRE", "container magic leads the file");

    let out = pypmc(&["load", path_s]);
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    assert!(text.contains("nodes"), "{text}");
    assert!(
        text.contains("re-encodes byte-identically"),
        "dump output must be canonical: {text}"
    );

    // Corrupt one payload byte: load must fail cleanly, not panic.
    let mut mangled = bytes.clone();
    let last = mangled.len() - 1;
    mangled[last] ^= 0x10;
    std::fs::write(&path, &mangled).unwrap();
    let out = pypmc(&["load", path_s]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot decode"), "{err}");
    assert!(!err.contains("panicked"), "{err}");

    std::fs::remove_dir_all(&dir).ok();
}

/// Text is how a person reads the library; its rendering is pinned
/// byte for byte, so a printer change shows up as a golden diff.
#[test]
fn library_text_is_the_pinned_golden() {
    let out = pypmc(&["library"]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(stdout(&out), include_str!("golden/library_text_v1.txt"));
}

/// The DOT export of a compile, its tensor metadata labels included
/// (`input f32[1x64x32]`, `opaque f32[1x64x2x2]`), is pinned byte for
/// byte. Only the `digraph` sections are compared: the summary above
/// them carries a wall time.
#[test]
fn dot_labels_are_the_pinned_golden() {
    let out = pypmc(&["compile", "bert-tiny", "resnet18", "--dot"]);
    assert!(out.status.success(), "{out:?}");
    let mut dot = String::new();
    let mut inside = false;
    for line in stdout(&out).lines() {
        inside |= line.starts_with("digraph ");
        if inside {
            dot.push_str(line);
            dot.push('\n');
        }
        inside &= line != "}";
    }
    assert_eq!(dot, include_str!("golden/dot_v1.txt"));
}

#[test]
fn load_reads_a_legacy_binary_library() {
    let dir = std::env::temp_dir().join(format!("pypmc_load_legacy_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("library.pypmb");
    let path_s = path.to_str().unwrap();
    let out = pypmc(&["library", "--format", "binary", "-o", path_s]);
    assert!(out.status.success(), "{out:?}");
    let out = pypmc(&["load", path_s]);
    assert!(out.status.success(), "{out:?}");
    assert!(stdout(&out).contains("rules"), "{}", stdout(&out));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dump_rejects_unknown_model_and_config() {
    let out = pypmc(&["dump", "no-such-model"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let out = pypmc(&["dump", "bert-tiny", "--config", "bogus"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let out = pypmc(&["load", "/no/such/file.pypmw"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

/// The regions `pypmc partition` claims, with their frontiers and
/// costs, are pinned byte for byte on one model of each zoo.
#[test]
fn partition_reports_regions() {
    let mut text = String::new();
    for model in ["bert-tiny", "resnet18"] {
        let out = pypmc(&["partition", model]);
        assert!(out.status.success(), "{out:?}");
        text += &stdout(&out);
    }
    assert_eq!(text, include_str!("golden/partition_v1.txt"));
}

#[test]
fn partition_unknown_pattern_fails_loudly() {
    let out = pypmc(&["partition", "bert-tiny", "--pattern", "Bogus"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown pattern Bogus"), "{err}");
    assert!(err.contains("MatMulEpilog"), "should list patterns: {err}");
}

#[test]
fn explain_reports_static_and_dynamic_sections() {
    let out = pypmc(&["explain", "bert-tiny", "MHA"]);
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    assert!(text.contains("nodes matched"), "{text}");
    assert!(text.contains("during compilation"), "{text}");
    assert!(text.contains("rewrites fired"), "{text}");
}

#[test]
fn a_reader_that_hangs_up_ends_the_output_quietly() {
    // The reader closes the pipe before pypmc has built its model, so
    // its first line meets a broken pipe: that ends the command with
    // exit 0, not a panic.
    let mut child = Command::new(env!("CARGO_BIN_EXE_pypmc"))
        .args(["explain", "bert-tiny", "MatMulEpilog"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("failed to spawn pypmc");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("pypmc exits");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{out:?}");
    assert!(!err.contains("panicked"), "{err}");
}
