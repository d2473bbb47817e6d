//! Seeded inputs. The program under test receives only what is made
//! here; `--seed` is all that varies between runs of one workload.

use crate::util::{fnv64, SplitMix64};
use pypm::cli_args::lib_config;
use pypm::dsl::LibraryConfig;
use pypm::engine::Session;
use pypm::graph::Graph;
use pypm::models::{hf_zoo, tv_zoo, GeluVariant, ScaleVariant, TransformerConfig, VisionConfig};
use std::collections::HashSet;

/// One input program of the `cold_deep_*` workloads: a deep transformer.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    pub layers: usize,
    pub hidden: i64,
    pub gelu: GeluVariant,
    pub scale: ScaleVariant,
    pub opaque_layernorm: bool,
}

impl Program {
    pub fn config(&self) -> TransformerConfig {
        TransformerConfig {
            name: "deep",
            layers: self.layers,
            hidden: self.hidden,
            seq: 64,
            batch: 1,
            mlp_factor: 4,
            gelu: self.gelu,
            scale: self.scale,
            opaque_layernorm: self.opaque_layernorm,
        }
    }

    /// The program's row label in result and expected-output files.
    pub fn label(&self) -> String {
        format!(
            "layers={} hidden={} gelu={:?} scale={:?} opaque_layernorm={}",
            self.layers, self.hidden, self.gelu, self.scale, self.opaque_layernorm
        )
    }
}

/// The rule library every cold program is compiled against.
pub fn cold_lib() -> LibraryConfig {
    lib_config("both").expect("`both` is a config of the measured surface")
}

pub const COLD_LAYERS: std::ops::RangeInclusive<usize> = 80..=120;

/// The `cold_deep_*` program list: one program per depth in
/// [`COLD_LAYERS`], in seeded order, each other property a seeded
/// balanced column (so two seeds draw the same mix in another order and
/// pairing — a run's medians then move with the code, not the seed).
/// `opaque_layernorm` holds for 9 of the 41, a 1-in-5 column.
pub fn cold_programs(seed: u64) -> Vec<Program> {
    let mut rng = SplitMix64::new(seed ^ 0xc01d_c01d);
    let mut layers: Vec<usize> = COLD_LAYERS.collect();
    let n = layers.len();
    rng.shuffle(&mut layers);
    let mut column = |values: &[usize]| {
        let mut col: Vec<usize> = (0..n).map(|i| values[i % values.len()]).collect();
        rng.shuffle(&mut col);
        col
    };
    let hidden = column(&[32, 48, 64]);
    let gelu = column(&[0, 1]);
    let scale = column(&[0, 1, 2]);
    let opaque = column(&[1, 0, 0, 0, 0]);
    (0..n)
        .map(|i| Program {
            layers: layers[i],
            hidden: hidden[i] as i64,
            gelu: [GeluVariant::DivTwo, GeluVariant::MulHalf][gelu[i]],
            scale: [ScaleVariant::Mul, ScaleVariant::Div, ScaleVariant::None][scale[i]],
            opaque_layernorm: opaque[i] == 1,
        })
        .collect()
}

/// A zoo model, built in-process for the reference compile and the
/// layer probes of the `serve_*` workloads.
#[derive(Debug, Clone)]
pub enum ZooModel {
    Hf(TransformerConfig),
    Tv(VisionConfig),
}

impl ZooModel {
    pub fn name(&self) -> &'static str {
        match self {
            ZooModel::Hf(c) => c.name,
            ZooModel::Tv(c) => c.name,
        }
    }

    pub fn build(&self, session: &mut Session) -> Graph {
        match self {
            ZooModel::Hf(c) => c.build(session),
            ZooModel::Tv(c) => c.build(session),
        }
    }
}

pub const SERVE_CONFIGS: [&str; 4] = ["baseline", "fmha", "epilog", "both"];

/// One distinct request of the `serve_*` workloads.
#[derive(Debug, Clone)]
pub struct ServeKey {
    pub model: ZooModel,
    pub config: &'static str,
}

impl ServeKey {
    pub fn request_line(&self) -> String {
        format!("compile {} config={}", self.model.name(), self.config)
    }

    pub fn label(&self) -> String {
        format!("{} config={}", self.model.name(), self.config)
    }

    pub fn lib(&self) -> LibraryConfig {
        lib_config(self.config).expect("a config of the measured surface")
    }
}

/// Every zoo model of distinct content × every serve config, in zoo
/// order: the working set of both `serve_*` workloads. The server's
/// cache is addressed by content, and some zoo models are one graph
/// under two names (`bert-base`, `electra-base`); only the first name
/// of each graph is kept, so that two keys never share a cache entry.
pub fn serve_keys() -> Vec<ServeKey> {
    let mut seen = HashSet::new();
    let models = hf_zoo()
        .into_iter()
        .map(ZooModel::Hf)
        .chain(tv_zoo().into_iter().map(ZooModel::Tv))
        .filter(|model| {
            let mut session = Session::new();
            let graph = model.build(&mut session);
            seen.insert(fnv64(&session.wire_graph(&graph)))
        });
    models
        .flat_map(|model| {
            SERVE_CONFIGS.map(|config| ServeKey {
                model: model.clone(),
                config,
            })
        })
        .collect()
}

/// `serve_miss`: the order every connection cycles through, a seeded
/// permutation of every key. The connections start evenly spaced round
/// the cycle, so between two requests of one key lie some 45 other keys
/// even with four of them: an LRU of 16 entries never holds the one
/// asked for.
pub fn miss_cycle(seed: u64, keys: usize) -> Vec<u16> {
    let mut order: Vec<u16> = (0..keys as u16).collect();
    SplitMix64::new(seed ^ 0x5e47_e001).shuffle(&mut order);
    order
}

pub const HIT_CYCLE_LEN: usize = 4096;

/// `serve_hit`: a seeded ranking of the keys, then [`HIT_CYCLE_LEN`]
/// draws with P(rank r) ∝ 1/r — Zipf with s = 1.
pub fn hit_cycle(seed: u64, keys: usize) -> Vec<u16> {
    let mut rng = SplitMix64::new(seed ^ 0x5e47_e002);
    let mut ranked: Vec<u16> = (0..keys as u16).collect();
    rng.shuffle(&mut ranked);
    let weights: Vec<f64> = (1..=keys).map(|r| 1.0 / r as f64).collect();
    let total: f64 = weights.iter().sum();
    (0..HIT_CYCLE_LEN)
        .map(|_| {
            let mut u = rng.unit() * total;
            let mut pick = keys - 1;
            for (i, w) in weights.iter().enumerate() {
                if u < *w {
                    pick = i;
                    break;
                }
                u -= w;
            }
            ranked[pick]
        })
        .collect()
}

/// A digest of generated inputs, for the determinism test and the
/// result files.
pub fn digest_of(lines: impl IntoIterator<Item = String>) -> u64 {
    let mut all = String::new();
    for line in lines {
        all.push_str(&line);
        all.push('\n');
    }
    fnv64(all.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cold_digest(seed: u64) -> u64 {
        digest_of(cold_programs(seed).iter().map(Program::label))
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(cold_digest(1), cold_digest(1));
        assert_ne!(cold_digest(1), cold_digest(2));
        assert_eq!(miss_cycle(1, 208), miss_cycle(1, 208));
        assert_ne!(miss_cycle(1, 208), miss_cycle(2, 208));
        assert_eq!(hit_cycle(1, 208), hit_cycle(1, 208));
        assert_ne!(hit_cycle(1, 208), hit_cycle(2, 208));
    }

    #[test]
    fn every_seed_draws_the_same_balanced_mix() {
        for seed in [1, 2, 99] {
            let programs = cold_programs(seed);
            assert_eq!(programs.len(), 41);
            let mut layers: Vec<usize> = programs.iter().map(|p| p.layers).collect();
            layers.sort_unstable();
            assert_eq!(layers, COLD_LAYERS.collect::<Vec<_>>());
            let opaque = programs.iter().filter(|p| p.opaque_layernorm).count();
            assert_eq!(opaque, 9, "41 slots of a 1-in-5 column");
            let narrow = programs.iter().filter(|p| p.hidden == 32).count();
            assert_eq!(narrow, 14);
        }
    }

    #[test]
    fn the_working_set_is_the_distinct_zoo_times_four_configs() {
        let keys = serve_keys();
        let zoo = hf_zoo().len() + tv_zoo().len();
        assert!(keys.len().is_multiple_of(4) && keys.len() > 128 && keys.len() <= zoo * 4);
        let names: HashSet<&str> = keys.iter().map(|k| k.model.name()).collect();
        assert!(names.contains("bert-base") && !names.contains("electra-base"));
        assert_eq!(keys[0].request_line(), "compile bert-tiny config=baseline");
        let mut cycle = miss_cycle(5, keys.len());
        cycle.sort_unstable();
        assert_eq!(cycle, (0..keys.len() as u16).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let cycle = hit_cycle(3, 208);
        let mut counts = vec![0usize; 208];
        for &k in &cycle {
            counts[k as usize] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        // Rank 1 holds 1/H(208) ≈ 17% of the draws, rank 2 half that.
        assert!(counts[0] > 550 && counts[0] < 850, "{}", counts[0]);
        assert!(counts[1] < counts[0]);
    }
}
