//! The pretrained-weights fixture.
//!
//! Every workload deploys the repository's quick-scale pretrained
//! VGG9-BWNN. Training it takes about a minute, so the checkpoint is
//! cached under `perfbench/.fixtures/`, keyed by the full experiment
//! configuration (seed included), with a sidecar holding the key text and
//! an FNV-1a digest of the checkpoint bytes. A checkpoint whose sidecar
//! is missing, names another configuration, or disagrees with the bytes
//! on disk is deleted and retrained, never reused. The one-time training
//! cost is reported in the run record and is not part of any set-up
//! metric.

use std::path::{Path, PathBuf};
use std::time::Instant;

use membit_bench::{experiment_config, Scale};
use membit_core::{Experiment, ExperimentConfig};

use crate::stats::Digest;
use crate::BoxResult;

/// Seed of the pretrained weights and of the synthetic data set. Fixed:
/// the workload seed varies the device, the noise and the input order,
/// not the trained model.
const FIXTURE_SEED: u64 = 2022;

/// A ready fixture.
pub struct Fixture {
    /// Experiment configuration whose checkpoint is cached and verified.
    pub config: ExperimentConfig,
    /// Cache key (FNV-1a of the configuration's debug text).
    pub key: u64,
    /// Seconds spent pretraining in this run, if the cache was cold.
    pub pretrain_s: Option<f64>,
}

fn digest_bytes(bytes: &[u8]) -> u64 {
    let mut d = Digest::default();
    d.bytes(bytes);
    d.0
}

fn sidecar_text(checkpoint: &[u8], key_text: &str) -> String {
    format!("{:016x}\n{key_text}\n", digest_bytes(checkpoint))
}

/// Whether `ckpt` is a checkpoint of `key_text` whose bytes match the
/// digest its sidecar recorded.
fn verified(ckpt: &Path, sidecar: &Path, key_text: &str) -> bool {
    match (std::fs::read(ckpt), std::fs::read_to_string(sidecar)) {
        (Ok(bytes), Ok(text)) => text == sidecar_text(&bytes, key_text),
        _ => false,
    }
}

fn remove(path: &Path) {
    if path.exists() {
        std::fs::remove_file(path).ok();
    }
}

/// Verifies the cached fixture under `dir`, or trains and caches it.
///
/// # Errors
///
/// Propagates training and I/O errors.
pub fn prepare(dir: &Path) -> BoxResult<Fixture> {
    std::fs::create_dir_all(dir)?;
    let mut config = experiment_config(Scale::Quick, FIXTURE_SEED);
    config.checkpoint = None;
    config.work_dir = None;
    config.resume = false;
    let key_text = format!("{config:?}");
    let key = digest_bytes(key_text.as_bytes());
    let ckpt: PathBuf = dir.join(format!("pretrained_{key:016x}.ckpt"));
    let sidecar = dir.join(format!("pretrained_{key:016x}.sum"));
    config.checkpoint = Some(ckpt.clone());

    if verified(&ckpt, &sidecar, &key_text) {
        return Ok(Fixture {
            config,
            key,
            pretrain_s: None,
        });
    }
    if ckpt.exists() || sidecar.exists() {
        eprintln!("# cached checkpoint does not match its checksum or configuration; retraining");
    }
    remove(&ckpt);
    remove(&sidecar);
    eprintln!(
        "# pretraining the fixture model (one-time, cached under {})",
        dir.display()
    );
    let t = Instant::now();
    Experiment::setup(config.clone())?;
    let pretrain_s = t.elapsed().as_secs_f64();
    let tmp = sidecar.with_extension("sum.tmp");
    std::fs::write(&tmp, sidecar_text(&std::fs::read(&ckpt)?, &key_text))?;
    std::fs::rename(&tmp, &sidecar)?;
    Ok(Fixture {
        config,
        key,
        pretrain_s: Some(pretrain_s),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sidecar_binds_bytes_and_configuration() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".fixtures")
            .join(format!("selftest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (ckpt, sum) = (dir.join("a.ckpt"), dir.join("a.sum"));
        assert!(!verified(&ckpt, &sum, "cfg"), "missing files never verify");
        std::fs::write(&ckpt, b"weights").unwrap();
        assert!(
            !verified(&ckpt, &sum, "cfg"),
            "a checkpoint without sidecar is not reused"
        );
        std::fs::write(&sum, sidecar_text(b"weights", "cfg")).unwrap();
        assert!(verified(&ckpt, &sum, "cfg"));
        assert!(!verified(&ckpt, &sum, "other cfg"));
        std::fs::write(&ckpt, b"weighty").unwrap();
        assert!(!verified(&ckpt, &sum, "cfg"), "corrupt bytes are detected");
        std::fs::remove_dir_all(&dir).ok();
    }
}
