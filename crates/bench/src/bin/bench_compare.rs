//! `bench_compare` — the CI bench-regression gate.
//!
//! ```text
//! bench_compare <baseline.json> <current.json>
//! ```
//!
//! Compares two `BENCH_rewrite_pass.json` documents (schema
//! `pypm.bench.rewrite_pass.v6`, row-compatible with v5 down to v1 —
//! the per-jobs sub-series v3–v5 carried are not read) and exits
//! non-zero when the current run regressed against the checked-in
//! baseline:
//!
//! * **Counter drift fails, always.** `mean_match_attempts`,
//!   `mean_matches_found` and `mean_rewrites_fired` are deterministic
//!   for a given engine — any difference for a (model, config, policy)
//!   cell present in both documents means the rewrite behaviour changed
//!   and the baseline must be regenerated deliberately (with the
//!   change's justification in the PR).
//! * **Wall-clocks across the two documents are printed, not gated.**
//!   The baseline was timed on one machine and the current run on
//!   another, on sub-millisecond cells; the two walls of each cell are
//!   information (`min_wall_ms` when both documents carry it, the mean
//!   otherwise). Speed claims are checked by the repo benchmark.
//! * **Lost coverage fails.** A (model, config) row or a policy series
//!   present in the baseline but missing from the current document
//!   means the bench silently stopped measuring something.
//!
//! * **Fused-matcher scaling regressions fail.** Within the *current*
//!   document's v5 `rules_scaling` section, the matcher backends must
//!   agree exactly on the semantic counters (the fused matcher's
//!   admission-soundness contract), and at ≥4× rules (`synth >= 39`)
//!   the fused backend must admit at least 3× fewer match probes per
//!   node than per-pattern, with its wall-clock at most 25 % above
//!   per-pattern's in the same document; and at 16× rules
//!   (`synth >= 195`) the fused wall-clock may have grown from 1×
//!   (`synth == 0`, same model) by at most 0.04 of what per-pattern's
//!   grew over the same rows — fewer probes must show as time, not
//!   only as a count. Scaling cells also compare
//!   against the baseline like ordinary rows (as `rules:<config>`
//!   series keyed by backend).
//!
//! New rows/policies in the current document are reported but pass
//! (the trajectory is allowed to grow).

use pypm::core::json::{self, Value};
use std::collections::BTreeMap;
use std::process::exit;

/// The counters that must not drift at all, present in every schema.
const EXACT_COUNTERS: [&str; 3] = [
    "mean_match_attempts",
    "mean_matches_found",
    "mean_rewrites_fired",
];

/// Deterministic counters newer schemas added (v4:
/// `mean_nodes_reindexed`; v5 scaling cells: machine steps, admitted
/// probes and the probes/node ratio). Compared exactly whenever both
/// documents carry them; absent from older baselines without failing
/// the gate.
const OPTIONAL_EXACT_COUNTERS: [&str; 4] = [
    "mean_nodes_reindexed",
    "mean_machine_steps",
    "mean_pairs_admitted",
    "probes_per_node",
];

/// The synth level from which the sublinearity bar applies (4× the base
/// rule count) and the required probes/node advantage.
const SUBLINEAR_FROM_SYNTH: f64 = 39.0;
const SUBLINEAR_FACTOR: f64 = 3.0;

/// The wall-clock bar beside it: from this synth level (16× the base
/// rule count) the fused backend's *marginal* wall — its wall here less
/// its wall on the same model at `synth == 0` — may be at most this
/// share of per-pattern's marginal wall over the same two rows. A
/// difference inside one document cancels the fixed cost of the pass
/// under both (the restart scan, the view, the firings), so what is
/// left is what the added rules cost; per-pattern probes every rule at
/// every node, so its marginal is the linear yardstick. Fused read
/// 0.016–0.020 of it over eight emits (four before and four after the
/// restart scan's order went lazy); a visit that asked every pattern
/// about every node — the test-only literal loop, forced on — read
/// 0.058–0.064 with the probes/node bar still met.
const WALL_SUBLINEAR_FROM_SYNTH: f64 = 195.0;
const WALL_MARGINAL_SHARE: f64 = 0.04;

/// How far above per-pattern's wall the fused wall of the same scaling
/// row — same document, same machine, same run — may read from
/// [`SUBLINEAR_FROM_SYNTH`] on.
const FUSED_WALL_TOLERANCE: f64 = 0.25;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(summary) => {
            println!("{summary}");
            println!("bench-compare: OK");
        }
        Err(failures) => {
            for f in &failures {
                eprintln!("bench-compare: FAIL: {f}");
            }
            exit(1);
        }
    }
}

/// One policy series' comparable numbers.
#[derive(Debug, Clone, PartialEq)]
struct Series {
    /// Mean wall-clock (always present).
    wall_ms: f64,
    /// Min-of-runs wall-clock (v2 documents only).
    min_wall_ms: Option<f64>,
    counters: Vec<(String, f64)>,
}

impl Series {
    /// The wall to compare inside one document: the min of the runs
    /// where the schema has it (the best case of a deterministic
    /// CPU-bound loop is insensitive to scheduler interference).
    fn wall(&self) -> f64 {
        self.min_wall_ms.unwrap_or(self.wall_ms)
    }

    /// Counter value by name, if this series carries it.
    fn counter(&self, name: &str) -> Option<f64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// (model, config) → policy name → series.
type Table = BTreeMap<(String, String), BTreeMap<String, Series>>;

/// One v5 `rules_scaling` row, kept in structured form for the
/// intra-document sublinearity gate (its cells also land in the
/// [`Table`] as `rules:<config>` rows for the ordinary drift gates).
#[derive(Debug, Clone)]
struct ScalingRow {
    model: String,
    config: String,
    synth: f64,
    backends: BTreeMap<String, Series>,
}

fn run(args: &[String]) -> Result<String, Vec<String>> {
    let [baseline, current] = args else {
        return Err(vec![
            "usage: bench_compare <baseline.json> <current.json>".to_owned()
        ]);
    };
    let (baseline, _) = load_table(baseline).map_err(|e| vec![e])?;
    let (current, cur_scaling) = load_table(current).map_err(|e| vec![e])?;

    let mut failures = Vec::new();
    let mut lines = Vec::new();
    // Intra-document gate: the fused matcher's scaling contract,
    // checked on every gate run. Admission must be sound (semantic
    // counters agree between backends), and past 4x rules it must pay
    // off (>=3x fewer probes/node than per-pattern, wall no worse).
    for row in &cur_scaling {
        let (Some(per), Some(fused)) = (row.backends.get("per-pattern"), row.backends.get("fused"))
        else {
            failures.push(format!(
                "{}/rules:{}: scaling row is missing a matcher backend series",
                row.model, row.config
            ));
            continue;
        };
        for name in EXACT_COUNTERS {
            let (p, f) = (per.counter(name), fused.counter(name));
            if p != f {
                failures.push(format!(
                    "{}/rules:{}: {name} differs between matcher backends \
                     ({p:?} vs {f:?}) — fused admission dropped a live probe",
                    row.model, row.config
                ));
            }
        }
        if row.synth < SUBLINEAR_FROM_SYNTH {
            continue;
        }
        match (
            per.counter("probes_per_node"),
            fused.counter("probes_per_node"),
        ) {
            (Some(p), Some(f)) if f * SUBLINEAR_FACTOR > p => failures.push(format!(
                "{}/rules:{}: fused probes/node {f:.3} is not {SUBLINEAR_FACTOR}x below \
                 per-pattern's {p:.3} — the fused matcher stopped being sublinear in rule count",
                row.model, row.config
            )),
            (None, _) | (_, None) => failures.push(format!(
                "{}/rules:{}: scaling row lacks probes_per_node",
                row.model, row.config
            )),
            _ => {}
        }
        let (per_wall, fused_wall) = (per.wall(), fused.wall());
        if per_wall > 0.0 && fused_wall / per_wall > 1.0 + FUSED_WALL_TOLERANCE {
            failures.push(format!(
                "{}/rules:{}: fused wall {fused_wall:.3}ms exceeds per-pattern's \
                 {per_wall:.3}ms beyond tolerance — fused lost its wall advantage at scale",
                row.model, row.config
            ));
        }
        if row.synth < WALL_SUBLINEAR_FROM_SYNTH {
            continue;
        }
        // A unit row missing a backend is reported where it is visited.
        let unit = cur_scaling
            .iter()
            .find(|r| r.model == row.model && r.synth == 0.0);
        if let Some((unit_per, unit_fused)) =
            unit.and_then(|r| Some((r.backends.get("per-pattern")?, r.backends.get("fused")?)))
        {
            let fused_marginal = fused_wall - unit_fused.wall();
            let per_marginal = per_wall - unit_per.wall();
            if fused_marginal > WALL_MARGINAL_SHARE * per_marginal {
                failures.push(format!(
                    "{}/rules:{}: fused wall grew {fused_marginal:.3}ms from 1x rules, more than \
                     {WALL_MARGINAL_SHARE} of per-pattern's {per_marginal:.3}ms — \
                     the fused matcher's wall-clock stopped being sublinear in rule count",
                    row.model, row.config
                ));
            }
        }
    }
    let mut compared = 0usize;
    for (cell, base_policies) in &baseline {
        let Some(cur_policies) = current.get(cell) else {
            failures.push(format!(
                "{}/{}: row present in baseline but missing from current run",
                cell.0, cell.1
            ));
            continue;
        };
        for (policy, base) in base_policies {
            let Some(cur) = cur_policies.get(policy) else {
                failures.push(format!(
                    "{}/{}/{policy}: policy series lost since baseline",
                    cell.0, cell.1
                ));
                continue;
            };
            compared += 1;
            // Name-based: a v4 current compared against a v3 baseline
            // only gates the counters both documents measure.
            for (name, base_v) in &base.counters {
                let Some(cur_v) = cur.counter(name) else {
                    failures.push(format!(
                        "{}/{}/{policy}: counter {name} lost since baseline",
                        cell.0, cell.1
                    ));
                    continue;
                };
                if *base_v != cur_v {
                    failures.push(format!(
                        "{}/{}/{policy}: {name} drifted {base_v} -> {cur_v}",
                        cell.0, cell.1
                    ));
                }
            }
            // Two machines, so information only — and the same
            // statistic on both sides, or it is not even that.
            let (stat, base_wall, cur_wall) = match (base.min_wall_ms, cur.min_wall_ms) {
                (Some(b), Some(c)) => ("min", b, c),
                _ => ("mean", base.wall_ms, cur.wall_ms),
            };
            lines.push(format!(
                "  {}/{}/{policy}: {stat} wall {base_wall:.3}ms -> {cur_wall:.3}ms (not gated)",
                cell.0, cell.1,
            ));
        }
    }
    for cell in current.keys() {
        if !baseline.contains_key(cell) {
            lines.push(format!(
                "  {}/{}: new row (not in baseline), skipped",
                cell.0, cell.1
            ));
        }
    }
    if failures.is_empty() {
        Ok(format!(
            "bench-compare: {compared} policy series compared, counters exact\n{}",
            lines.join("\n")
        ))
    } else {
        Err(failures)
    }
}

fn load_table(path: &str) -> Result<(Table, Vec<ScalingRow>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let schema = doc.get("schema").and_then(Value::as_str).unwrap_or("");
    if !schema.starts_with("pypm.bench.rewrite_pass.") {
        return Err(format!("{path}: unexpected schema '{schema}'"));
    }
    let rows = doc
        .get("rows")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{path}: no rows array"))?;
    let mut table = Table::new();
    for row in rows {
        let model = row
            .get("model")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: row without model"))?
            .to_owned();
        let config = row
            .get("config")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: row without config"))?
            .to_owned();
        let mut policies = BTreeMap::new();
        match row.get("policies") {
            // v2 on: one series per policy.
            Some(Value::Object(map)) => {
                for (policy, series) in map {
                    policies.insert(policy.clone(), read_series(path, series)?);
                }
            }
            // v1 rows carry the restart numbers at the top level.
            _ => {
                policies.insert("restart".to_owned(), read_series(path, row)?);
            }
        }
        table.insert((model, config), policies);
    }
    // v5: the `rules_scaling` section. Each row lands twice — in the
    // structured list for the intra-document sublinearity gate, and in
    // the table as a `rules:<config>` row (policy keys = backend names)
    // so the ordinary drift/coverage gates cover it too.
    let mut scaling = Vec::new();
    if let Some(Value::Array(rows)) = doc.get("rules_scaling") {
        for row in rows {
            let model = row
                .get("model")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("{path}: scaling row without model"))?
                .to_owned();
            let config = row
                .get("config")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("{path}: scaling row without config"))?
                .to_owned();
            let synth = row
                .get("synth")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{path}: scaling row without synth"))?;
            let Some(Value::Object(map)) = row.get("backends") else {
                return Err(format!("{path}: scaling row without backends"));
            };
            let mut backends = BTreeMap::new();
            for (backend, series) in map {
                backends.insert(backend.clone(), read_series(path, series)?);
            }
            table.insert((model.clone(), format!("rules:{config}")), backends.clone());
            scaling.push(ScalingRow {
                model,
                config,
                synth,
                backends,
            });
        }
    }
    Ok((table, scaling))
}

fn read_series(path: &str, v: &Value) -> Result<Series, String> {
    let num = |key: &str| {
        v.get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{path}: series without {key}"))
    };
    let mut counters = Vec::new();
    for key in EXACT_COUNTERS {
        counters.push((key.to_owned(), num(key)?));
    }
    for key in OPTIONAL_EXACT_COUNTERS {
        if let Some(value) = v.get(key).and_then(Value::as_f64) {
            counters.push((key.to_owned(), value));
        }
    }
    // v1 documents only have the mean.
    Ok(Series {
        wall_ms: num("mean_wall_ms")?,
        min_wall_ms: v.get("min_wall_ms").and_then(Value::as_f64),
        counters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(wall: f64, attempts: f64) -> String {
        format!(
            r#"{{"schema": "pypm.bench.rewrite_pass.v6", "rows": [
                {{"model": "m", "config": "both", "runs": 5,
                  "mean_wall_ms": {wall}, "mean_match_attempts": {attempts},
                  "mean_matches_found": 2.0, "mean_rewrites_fired": 2.0,
                  "policies": {{"restart": {{"mean_wall_ms": {wall}, "min_wall_ms": {wall},
                    "mean_match_attempts": {attempts}, "mean_matches_found": 2.0,
                    "mean_rewrites_fired": 2.0, "mean_view_builds": 3.0,
                    "mean_view_patches": 0.0, "mean_nodes_revisited": 9.0}}}}}}]}}"#
        )
    }

    fn write(name: &str, content: &str) -> String {
        let path =
            std::env::temp_dir().join(format!("bench_compare_{name}_{}.json", std::process::id()));
        std::fs::write(&path, content).unwrap();
        path.to_str().unwrap().to_owned()
    }

    #[test]
    fn identical_documents_pass() {
        let a = write("id_a", &doc(1.0, 100.0));
        let b = write("id_b", &doc(1.0, 100.0));
        assert!(run(&[a.clone(), b.clone()]).is_ok());
        std::fs::remove_file(a).ok();
        std::fs::remove_file(b).ok();
    }

    #[test]
    fn counter_drift_fails_even_when_faster() {
        let a = write("drift_a", &doc(1.0, 100.0));
        let b = write("drift_b", &doc(0.5, 99.0));
        let err = run(&[a.clone(), b.clone()]).unwrap_err();
        assert!(
            err[0].contains("mean_match_attempts drifted 100 -> 99"),
            "{err:?}"
        );
        std::fs::remove_file(a).ok();
        std::fs::remove_file(b).ok();
    }

    #[test]
    fn walls_across_documents_are_printed_not_gated() {
        let a = write("wall_a", &doc(1.0, 100.0));
        let b = write("wall_b", &doc(1.3, 100.0));
        let summary = run(&[a.clone(), b.clone()]).unwrap();
        assert!(
            summary.contains("m/both/restart: min wall 1.000ms -> 1.300ms (not gated)"),
            "{summary}"
        );
        let err = run(&[
            a.clone(),
            b.clone(),
            "--wall-tolerance".into(),
            "0.5".into(),
        ]);
        assert!(err.unwrap_err()[0].starts_with("usage:"));
        std::fs::remove_file(a).ok();
        std::fs::remove_file(b).ok();
    }

    #[test]
    fn lost_rows_fail_new_rows_pass() {
        let two_rows = doc(1.0, 100.0).replace(
            r#""rows": ["#,
            r#""rows": [
                {"model": "extra", "config": "fmha", "runs": 5,
                 "mean_wall_ms": 1.0, "mean_match_attempts": 5.0,
                 "mean_matches_found": 1.0, "mean_rewrites_fired": 1.0},"#,
        );
        let one = write("lost_one", &doc(1.0, 100.0));
        let two = write("lost_two", &two_rows);
        // Baseline has two rows, current has one: coverage loss.
        let err = run(&[two.clone(), one.clone()]).unwrap_err();
        assert!(err[0].contains("missing from current run"), "{err:?}");
        // Baseline has one row, current grew one: fine.
        assert!(run(&[one.clone(), two.clone()]).is_ok());
        std::fs::remove_file(one).ok();
        std::fs::remove_file(two).ok();
    }

    /// One `rules_scaling` row with both matcher backends at the given
    /// synth level, per-pattern reading 2 ms.
    fn scaling_row(synth: f64, fused_attempts: f64, fused_probes: f64, fused_wall: f64) -> String {
        scaling_row_walls(synth, fused_attempts, fused_probes, 2.0, fused_wall)
    }

    fn scaling_row_walls(
        synth: f64,
        fused_attempts: f64,
        fused_probes: f64,
        per_wall: f64,
        fused_wall: f64,
    ) -> String {
        format!(
            r#"{{"model": "m", "config": "all+synth{synth}", "synth": {synth},
                  "rule_patterns": 52, "runs": 2,
                  "backends": {{
                    "per-pattern": {{"mean_wall_ms": {per_wall}, "min_wall_ms": {per_wall},
                      "mean_match_attempts": 100.0, "mean_matches_found": 2.0,
                      "mean_rewrites_fired": 2.0, "mean_pairs_admitted": 100.0,
                      "probes_per_node": 52.0}},
                    "fused": {{"mean_wall_ms": {fused_wall}, "min_wall_ms": {fused_wall},
                      "mean_match_attempts": {fused_attempts}, "mean_matches_found": 2.0,
                      "mean_rewrites_fired": 2.0, "mean_pairs_admitted": 10.0,
                      "probes_per_node": {fused_probes}}}}}}}"#
        )
    }

    /// A document with one ordinary row plus the given `rules_scaling`
    /// rows.
    fn doc_with_scaling_rows(rows: &[String]) -> String {
        let base = doc(1.0, 100.0).replace("]}", "],");
        format!(r#"{base} "rules_scaling": [{}]}}"#, rows.join(","))
    }

    fn doc_with_scaling(
        synth: f64,
        fused_attempts: f64,
        fused_probes: f64,
        fused_wall: f64,
    ) -> String {
        doc_with_scaling_rows(&[scaling_row(synth, fused_attempts, fused_probes, fused_wall)])
    }

    #[test]
    fn sublinear_scaling_passes_and_backend_counter_drift_fails() {
        let good = doc_with_scaling(39.0, 100.0, 8.0, 1.0);
        let a = write("scale_a", &good);
        let b = write("scale_b", &good);
        assert!(run(&[a.clone(), b.clone()]).is_ok());
        // The fused backend dropping a live probe (match_attempts no
        // longer agree) fails intra-document, even self-compared.
        let broken = doc_with_scaling(39.0, 99.0, 8.0, 1.0);
        let c = write("scale_c", &broken);
        let err = run(&[c.clone(), c.clone()]).unwrap_err();
        assert!(
            err.iter()
                .any(|f| f.contains("mean_match_attempts differs between matcher backends")),
            "{err:?}"
        );
        std::fs::remove_file(a).ok();
        std::fs::remove_file(b).ok();
        std::fs::remove_file(c).ok();
    }

    #[test]
    fn losing_the_probes_per_node_advantage_at_4x_rules_fails() {
        // probes/node 20 vs per-pattern's 52: under the required 3x.
        let flat = doc_with_scaling(39.0, 100.0, 20.0, 1.0);
        let a = write("sub_a", &flat);
        let err = run(&[a.clone(), a.clone()]).unwrap_err();
        assert!(
            err.iter()
                .any(|f| f.contains("stopped being sublinear in rule count")),
            "{err:?}"
        );
        // The same ratio below the synth threshold is not gated.
        let small = doc_with_scaling(13.0, 100.0, 20.0, 1.0);
        let b = write("sub_b", &small);
        assert!(run(&[b.clone(), b.clone()]).is_ok());
        std::fs::remove_file(a).ok();
        std::fs::remove_file(b).ok();
    }

    #[test]
    fn fused_wall_regression_at_scale_fails_intra_document() {
        // Fused 3.0ms vs per-pattern 2.0ms: +50% is beyond the +25%
        // allowed — fused lost its wall advantage.
        let slow = doc_with_scaling(39.0, 100.0, 8.0, 3.0);
        let a = write("fwall_a", &slow);
        let err = run(&[a.clone(), a.clone()]).unwrap_err();
        assert!(
            err.iter()
                .any(|f| f.contains("lost its wall advantage at scale")),
            "{err:?}"
        );
        // 2.4ms is +20%: inside it.
        let b = write("fwall_b", &doc_with_scaling(39.0, 100.0, 8.0, 2.4));
        assert!(run(&[b.clone(), b.clone()]).is_ok());
        std::fs::remove_file(a).ok();
        std::fs::remove_file(b).ok();
    }

    #[test]
    fn fused_wall_growing_with_the_rule_count_fails_intra_document() {
        // Per-pattern reads 2ms at 1x and 12ms at `synth`: a 10ms
        // marginal, so fused may grow by 0.4ms.
        let doc_at = |synth: f64, unit_wall: f64, wall_at_synth: f64| {
            doc_with_scaling_rows(&[
                scaling_row_walls(0.0, 100.0, 8.0, 2.0, unit_wall),
                scaling_row_walls(synth, 100.0, 8.0, 12.0, wall_at_synth),
            ])
        };
        // 1.0 -> 1.3ms: a 0.3ms marginal, 0.03 of per-pattern's.
        let a = write("wsub_a", &doc_at(195.0, 1.0, 1.3));
        assert!(run(&[a.clone(), a.clone()]).is_ok());
        // 1.0 -> 1.5ms: 0.05 of per-pattern's — while still far below
        // per-pattern's 12ms, so only this bar can object.
        let b = write("wsub_b", &doc_at(195.0, 1.0, 1.5));
        let err = run(&[b.clone(), b.clone()]).unwrap_err();
        assert_eq!(err.len(), 1, "{err:?}");
        assert!(
            err[0].contains("wall-clock stopped being sublinear in rule count"),
            "{err:?}"
        );
        // A smaller fixed cost under both backends moves no marginal:
        // 0.1 -> 0.35ms is 3.5x the 1x wall and 0.025 of per-pattern's
        // growth.
        let c = write("wsub_c", &doc_at(195.0, 0.1, 0.35));
        assert!(run(&[c.clone(), c.clone()]).is_ok());
        // Below 16x the same growth is not gated.
        let d = write("wsub_d", &doc_at(39.0, 1.0, 1.5));
        assert!(run(&[d.clone(), d.clone()]).is_ok());
        for path in [a, b, c, d] {
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn scaling_cells_compare_against_the_baseline_as_rules_rows() {
        // The fused series' admitted-probe count drifted since the
        // baseline: caught by the ordinary exact-counter gate on the
        // `rules:<config>` row (mean_pairs_admitted is optional-exact).
        let a = write(
            "sbase_a",
            &doc_with_scaling(39.0, 100.0, 8.0, 1.0).replace(
                r#""mean_pairs_admitted": 10.0"#,
                r#""mean_pairs_admitted": 11.0"#,
            ),
        );
        let b = write("sbase_b", &doc_with_scaling(39.0, 100.0, 8.0, 1.0));
        let err = run(&[a.clone(), b.clone()]).unwrap_err();
        assert!(
            err.iter().any(|f| {
                f.contains("rules:all+synth39/fused") && f.contains("mean_pairs_admitted drifted")
            }),
            "{err:?}"
        );
        // Dropping the whole section is lost coverage.
        let c = write("sbase_c", &doc(1.0, 100.0));
        let err = run(&[b.clone(), c.clone()]).unwrap_err();
        assert!(
            err.iter()
                .any(|f| f.contains("rules:all+synth39") && f.contains("missing from current")),
            "{err:?}"
        );
        std::fs::remove_file(a).ok();
        std::fs::remove_file(b).ok();
        std::fs::remove_file(c).ok();
    }

    #[test]
    fn v1_rows_compare_as_restart_series() {
        let v1 = r#"{"schema": "pypm.bench.rewrite_pass.v1", "rows": [
            {"model": "m", "config": "both", "runs": 5, "mean_wall_ms": 1.0,
             "mean_match_attempts": 100.0, "mean_matches_found": 2.0,
             "mean_rewrites_fired": 2.0}]}"#;
        let a = write("v1_a", v1);
        let b = write("v1_b", &doc(1.1, 100.0));
        // v1 baseline vs v2 current: restart series lines up.
        assert!(run(&[a.clone(), b.clone()]).is_ok());
        std::fs::remove_file(a).ok();
        std::fs::remove_file(b).ok();
    }
}
