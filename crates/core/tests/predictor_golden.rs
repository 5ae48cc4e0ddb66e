//! Bit-identity proof for predictor training: an FNV-1a digest of the JSON
//! that [`Predictor::save`] writes for two training configurations.
//!
//! The trained model depends on every measured training time and on the
//! order the rows are fed to the GBDT, so a change to how training measures
//! its candidates must leave these digests unchanged. The full-space
//! configuration trains at feat 32, where 28 of the 196 candidates are
//! twins (their tiling knob clamps to the same tile as an earlier
//! candidate's), so it also pins the time each twin is given.

use ugrapher_core::abstraction::OpInfo;
use ugrapher_core::schedule::ParallelInfo;
use ugrapher_core::tune::{Predictor, PredictorConfig};
use ugrapher_gbdt::GbdtParams;
use ugrapher_sim::DeviceConfig;

/// Digest of the model trained on [`PredictorConfig::quick`].
const QUICK_DIGEST: u64 = 0x2f25_b876_3c47_a60e;
/// Digest of the model trained on [`full_space_config`].
const FULL_SPACE_DIGEST: u64 = 0x657a_5780_7363_8abe;

/// 64-bit FNV-1a over bytes.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One small graph, one operator at feat 32, every schedule of the space.
fn full_space_config() -> PredictorConfig {
    PredictorConfig {
        num_graphs: 1,
        vertex_range: (200, 400),
        degree_range: (3.0, 6.0),
        ops: vec![OpInfo::weighted_aggregation_sum()],
        feat_dims: vec![32],
        schedules: ParallelInfo::space(),
        gbdt: GbdtParams {
            num_trees: 20,
            max_depth: 4,
            ..GbdtParams::default()
        },
        seed: 11,
        ..PredictorConfig::quick(DeviceConfig::v100())
    }
}

/// Digest of the JSON the trained model saves.
fn saved_digest(config: &PredictorConfig, name: &str) -> u64 {
    let path = std::env::temp_dir().join(format!(
        "ugrapher_predictor_golden_{name}_{}.json",
        std::process::id()
    ));
    Predictor::train(config).save(&path).expect("model saves");
    let saved = std::fs::read(&path).expect("saved model reads back");
    let _ = std::fs::remove_file(&path);
    fnv(&saved)
}

#[test]
fn quick_model_is_bit_identical() {
    let digest = saved_digest(&PredictorConfig::quick(DeviceConfig::v100()), "quick");
    assert_eq!(digest, QUICK_DIGEST, "got {digest:#018x}");
}

#[test]
fn full_space_model_is_bit_identical() {
    let digest = saved_digest(&full_space_config(), "full_space");
    assert_eq!(digest, FULL_SPACE_DIGEST, "got {digest:#018x}");
}
