//! The paper's four evaluation series (§4.1, Figs. 10–13), pinned byte
//! for byte to `tests/golden/figures_v1.json`.
//!
//! `fig10_hf` … `fig13_tv_compile` print these from an analytical cost
//! model over the seeded zoos, compiled by the default engine, so every
//! value is deterministic: a change to `CostModel`, a model builder or a
//! rule that moves a speedup fails here. The series are computed by the
//! same `compile_four_ways`, `compile_cost_points`, histogram buckets and
//! `geomean` the binaries print. The compile-time figures are pinned on
//! their counters; no wall-clock value is.
//!
//! On a mismatch the fresh document is written to
//! `target/tmp/figures_v1.json`; a deliberate change copies it over the
//! golden and says in its description which values moved and why.

use bench::{
    compile_cost_points, compile_four_ways, geomean, histogram_buckets, CompileCostPoint, ModelRow,
    CONFIG_NAMES,
};
use pypm::core::json::{Layout, Writer};

/// Figs. 10–11: per model, the simulated inference time and live node
/// count under each configuration; the speedup histograms of the three
/// non-baseline configurations; the geomean speedup of `both`.
fn speedup_series(w: &mut Writer, rows: &[ModelRow]) {
    w.begin_object(Layout::Lines);
    w.key("models").begin_array(Layout::Lines);
    for row in rows {
        w.begin_object(Layout::Inline);
        w.key("model").string(&row.name);
        w.key("inference_us").begin_object(Layout::Inline);
        for (name, outcome) in CONFIG_NAMES.iter().zip(&row.outcomes) {
            w.key(name).fixed(outcome.inference_us, 3);
        }
        w.end();
        w.key("nodes_after").begin_object(Layout::Inline);
        for (name, outcome) in CONFIG_NAMES.iter().zip(&row.outcomes) {
            w.key(name).scalar(outcome.nodes_after);
        }
        w.end();
        w.end();
    }
    w.end();
    w.key("histogram_buckets").begin_object(Layout::Lines);
    for (i, name) in CONFIG_NAMES.iter().enumerate().skip(1) {
        let speedups: Vec<f64> = rows.iter().map(|r| r.speedup(i)).collect();
        w.key(name).begin_array(Layout::Inline);
        for count in histogram_buckets(&speedups).2 {
            w.scalar(count);
        }
        w.end();
    }
    w.end();
    let both: Vec<f64> = rows.iter().map(|r| r.speedup(3)).collect();
    w.key("geomean_both").fixed(geomean(&both), 6);
    w.end();
}

/// Figs. 12–13: per (model, pattern group), the matches found, match
/// attempts and machine steps.
fn cost_series(w: &mut Writer, points: &[CompileCostPoint]) {
    w.begin_array(Layout::Lines);
    for p in points {
        w.begin_object(Layout::Inline);
        w.key("model").string(&p.model);
        w.key("pattern").string(p.pattern);
        w.key("matches").scalar(p.matches);
        w.key("attempts").scalar(p.attempts);
        w.key("steps").scalar(p.steps);
        w.end();
    }
    w.end();
}

fn render() -> String {
    let hf = pypm_models::hf_zoo();
    let tv = pypm_models::tv_zoo();
    let hf_rows: Vec<ModelRow> = hf
        .iter()
        .map(|c| compile_four_ways(c.name, |s| c.build(s)))
        .collect();
    let tv_rows: Vec<ModelRow> = tv
        .iter()
        .map(|c| compile_four_ways(c.name, |s| c.build(s)))
        .collect();
    let hf_points: Vec<CompileCostPoint> = hf
        .iter()
        .flat_map(|c| compile_cost_points(c.name, |s| c.build(s)))
        .collect();
    let tv_points: Vec<CompileCostPoint> = tv
        .iter()
        .flat_map(|c| compile_cost_points(c.name, |s| c.build(s)))
        .collect();

    let mut w = Writer::new();
    w.begin_object(Layout::Lines);
    w.key("schema").string("pypm.figures.v1");
    w.key("fig10_hf");
    speedup_series(&mut w, &hf_rows);
    w.key("fig11_tv");
    speedup_series(&mut w, &tv_rows);
    w.key("fig12_hf_compile");
    cost_series(&mut w, &hf_points);
    w.key("fig13_tv_compile");
    cost_series(&mut w, &tv_points);
    w.end();
    let mut doc = w.finish();
    doc.push('\n');
    doc
}

#[test]
fn the_four_figure_series_match_their_golden() {
    let fresh = render();
    let golden = include_str!("../../../tests/golden/figures_v1.json");
    if fresh != golden {
        let path = concat!(env!("CARGO_TARGET_TMPDIR"), "/figures_v1.json");
        std::fs::write(path, &fresh).expect("write the fresh figure series");
        let line = fresh
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .map_or_else(
                || "the line count".to_owned(),
                |i| format!("line {}", i + 1),
            );
        panic!("the figure series differ from tests/golden/figures_v1.json at {line}; the fresh document is {path}");
    }
}
