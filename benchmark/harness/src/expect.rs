//! Expected outputs. The reference is the paper-faithful machine —
//! `matcher=per-pattern, policy=restart` — never the path under test:
//! `benchmark/expected.json` holds its outputs for the default seed,
//! and for any other seed a 1-in-16 sample is recomputed after the run.

use crate::cold::{compile, Engine};
use crate::inputs::{cold_lib, cold_programs, serve_keys};
use crate::json::{self, quote};
use crate::trace::Tracer;
use crate::util::hex16;
use std::time::Instant;

pub const DEFAULT_SEED: u64 = 1;
pub const EXPECTED_PATH: &str = "benchmark/expected.json";

/// What is compared of one compiled program.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Output {
    pub rewrites_fired: u64,
    pub out_nodes: u64,
    pub digest: u64,
}

/// Whether program `at` of a seed without an expected file is
/// recomputed on the reference machine.
pub fn sampled(seed: u64, at: usize) -> bool {
    (at as u64).wrapping_add(seed).is_multiple_of(16)
}

#[derive(Debug)]
pub struct Expected {
    pub seed: u64,
    pub cold: Vec<(String, Output)>,
    pub serve: Vec<(String, Output)>,
}

impl Expected {
    /// Reads `benchmark/expected.json` from the checkout the benchmark
    /// runs in.
    ///
    /// # Errors
    ///
    /// The file is missing or is not an expected-output file.
    pub fn load() -> Result<Expected, String> {
        let text = std::fs::read_to_string(EXPECTED_PATH).map_err(|e| {
            format!("cannot read {EXPECTED_PATH} (run from the repository root): {e}")
        })?;
        Expected::parse(&text).map_err(|e| format!("{EXPECTED_PATH}: {e}"))
    }

    fn parse(text: &str) -> Result<Expected, String> {
        let doc = json::parse(text)?;
        let list = |key: &str| -> Result<Vec<(String, Output)>, String> {
            doc.arr(key)
                .ok_or(format!("no {key} list"))?
                .iter()
                .map(|row| {
                    let num =
                        |k: &str| row.num(k).map(|n| n as u64).ok_or(format!("row lacks {k}"));
                    let digest = row.str("digest").ok_or("row lacks digest")?;
                    Ok((
                        row.str("input").ok_or("row lacks input")?.to_owned(),
                        Output {
                            rewrites_fired: num("rewrites_fired")?,
                            out_nodes: num("out_nodes")?,
                            digest: u64::from_str_radix(digest, 16)
                                .map_err(|_| format!("digest {digest} is not hex"))?,
                        },
                    ))
                })
                .collect()
        };
        Ok(Expected {
            seed: doc.num("seed").ok_or("no seed")? as u64,
            cold: list("cold")?,
            serve: list("serve")?,
        })
    }

    /// The outputs for `labels`, in their order.
    ///
    /// # Errors
    ///
    /// The inputs the harness generates are not the file's: it is stale.
    pub fn outputs_for(
        rows: &[(String, Output)],
        labels: &[String],
    ) -> Result<Vec<Output>, String> {
        let stale = "is stale: regenerate it with `pypm_benchmark expected`";
        if rows.len() != labels.len() {
            return Err(format!("{EXPECTED_PATH} {stale}"));
        }
        rows.iter()
            .zip(labels)
            .map(|((input, output), label)| {
                if input == label {
                    Ok(*output)
                } else {
                    Err(format!("{EXPECTED_PATH} {stale} ({input} ≠ {label})"))
                }
            })
            .collect()
    }
}

/// Compiles every input of the default seed on the reference machine
/// and renders `benchmark/expected.json`.
///
/// # Errors
///
/// A reference compile failed.
pub fn generate() -> Result<String, String> {
    let mut tr = Tracer::new(false, Instant::now());
    let render = |label: String, c: crate::cold::Compiled| {
        format!(
            "    {{\"input\": {}, \"rewrites_fired\": {}, \"out_nodes\": {}, \"digest\": \"{}\"}}",
            quote(&label),
            c.stats.rewrites_fired,
            c.out_nodes,
            hex16(c.digest)
        )
    };
    let mut cold = Vec::new();
    for p in cold_programs(DEFAULT_SEED) {
        let cfg = p.config();
        let c = compile(
            |s| cfg.build(s),
            cold_lib(),
            Engine::reference(),
            &mut tr,
            0,
        )?;
        cold.push(render(p.label(), c));
    }
    let mut serve = Vec::new();
    for key in serve_keys() {
        let c = compile(
            |s| key.model.build(s),
            key.lib(),
            Engine::reference(),
            &mut tr,
            0,
        )?;
        serve.push(render(key.label(), c));
    }
    Ok(format!(
        "{{\n  \"schema\": \"pypm.benchmark.expected.v1\",\n  \"seed\": {DEFAULT_SEED},\n  \
         \"reference\": \"matcher=per-pattern policy=restart jobs=1\",\n  \
         \"cold\": [\n{}\n  ],\n  \"serve\": [\n{}\n  ]\n}}\n",
        cold.join(",\n"),
        serve.join(",\n")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_in_sixteen_programs_is_sampled_whatever_the_seed() {
        for seed in [1, 2, 12345] {
            let picked = (0..41).filter(|&at| sampled(seed, at)).count();
            assert!((2..=3).contains(&picked), "seed {seed}: {picked}");
        }
    }

    #[test]
    fn reads_its_own_format_and_notices_stale_rows() {
        let text = r#"{"schema": "pypm.benchmark.expected.v1", "seed": 1,
            "cold": [{"input": "a", "rewrites_fired": 3, "out_nodes": 9, "digest": "00000000000000ff"}],
            "serve": []}"#;
        let e = Expected::parse(text).unwrap();
        assert_eq!(e.seed, 1);
        let out = Expected::outputs_for(&e.cold, &["a".to_owned()]).unwrap();
        assert_eq!(out[0].digest, 255);
        assert!(Expected::outputs_for(&e.cold, &["b".to_owned()]).is_err());
        assert!(Expected::outputs_for(&e.cold, &[]).is_err());
        assert!(Expected::parse("{}").is_err());
    }

    /// The committed file is the one this harness would generate inputs
    /// for: same programs, same working set.
    #[test]
    fn the_committed_file_matches_the_generated_inputs() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../expected.json");
        let e = Expected::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(e.seed, DEFAULT_SEED);
        let cold: Vec<String> = cold_programs(DEFAULT_SEED)
            .iter()
            .map(|p| p.label())
            .collect();
        Expected::outputs_for(&e.cold, &cold).unwrap();
        let serve: Vec<String> = serve_keys().iter().map(|k| k.label()).collect();
        Expected::outputs_for(&e.serve, &serve).unwrap();
    }
}
