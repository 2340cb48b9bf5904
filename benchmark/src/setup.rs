//! Set-up: corpus → tokenizer → the three trained models → grammar
//! oracle. The same work on every run, timed as `setup_s`.
//!
//! Training the three models takes ≈ 20 s on two cores, and the driver
//! makes some ninety runs of this program per checkout, so the trained
//! models are kept as files under `out/models/` — built once per
//! checkout like the binary itself — and set-up *loads* them. The file
//! name carries a hash of every source file under `crates/` and
//! `vendor/`, so a checkout whose code differs in any way trains its
//! own models and can never load another version's. `core.train_ntp_s`
//! in the traced run keeps training speed in view.

use crate::stats::Digest;
use std::path::{Path, PathBuf};
use std::time::Instant;
use verispec_core::{TrainConfig, TrainMethod};
use verispec_eval::{ModelScale, Pipeline, PipelineConfig};
use verispec_grammar::GrammarOracle;
use verispec_lm::{GpuCostModel, MlpLm};

/// The smallest configuration whose samples parse at all (the 96/420/1
/// speed-bench configuration parses 0 of 138 samples for every engine,
/// which would turn the quality metrics into constants). Equal to
/// `Scale::quick().pipeline`.
pub const PIPELINE: PipelineConfig = PipelineConfig {
    corpus_size: 192,
    corpus_seed: 0xC0FFEE,
    vocab: 480,
    n_heads: 6,
    epochs: 2,
    seed: 17,
};

pub const MODEL_SCALE: ModelScale = ModelScale::Small;

pub const METHODS: [TrainMethod; 3] = [TrainMethod::Ntp, TrainMethod::Medusa, TrainMethod::Ours];

/// Everything the workloads run against.
pub struct Setup {
    pub pipe: Pipeline,
    pub ntp: MlpLm,
    pub medusa: MlpLm,
    pub ours: MlpLm,
    pub oracle: GrammarOracle,
    pub cost: GpuCostModel,
}

impl Setup {
    /// The timed set-up: builds the pipeline, loads the three models
    /// from `models` (see [`ensure_models`]) and builds the oracle.
    pub fn build(models: &Path) -> Result<Setup, String> {
        let pipe = Pipeline::build(PIPELINE);
        let [ntp, medusa, ours] = METHODS.map(|m| load_model(&pipe, models, m));
        let oracle = GrammarOracle::from_tokenizer(&pipe.tokenizer);
        Ok(Setup {
            pipe,
            ntp: ntp?,
            medusa: medusa?,
            ours: ours?,
            oracle,
            cost: MODEL_SCALE.cost_model(),
        })
    }

    pub fn model(&self, method: TrainMethod) -> &MlpLm {
        match method {
            TrainMethod::Ntp => &self.ntp,
            TrainMethod::Medusa => &self.medusa,
            TrainMethod::Ours => &self.ours,
        }
    }
}

/// Trains one model exactly as `Pipeline::model_for` would, but never
/// touching its `target/verispec-cache` disk cache.
pub fn train(pipe: &Pipeline, method: TrainMethod) -> MlpLm {
    let sequences = pipe.sequences_for(method, (1, 1));
    let tc = TrainConfig {
        epochs: pipe.config.epochs,
        seed: pipe.config.seed,
        ..TrainConfig::paper_defaults(method)
    };
    verispec_core::train(pipe.lm_config(MODEL_SCALE, method), &sequences, &tc).0
}

fn model_path(models: &Path, method: TrainMethod) -> PathBuf {
    models.join(format!("{}.json", method.name().to_lowercase()))
}

fn load_model(pipe: &Pipeline, models: &Path, method: TrainMethod) -> Result<MlpLm, String> {
    let path = model_path(models, method);
    let bytes = std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let model: MlpLm =
        serde_json::from_slice(&bytes).map_err(|e| format!("parse {}: {e}", path.display()))?;
    if model.config() != &pipe.lm_config(MODEL_SCALE, method) {
        return Err(format!("{} holds a model of another shape", path.display()));
    }
    Ok(model)
}

/// Makes sure `out/models/<source hash>/` holds the three trained
/// models, training whichever are missing; returns the directory and
/// the seconds spent training (0 when all were there).
pub fn ensure_models(out: &Path, repo: &Path) -> Result<(PathBuf, f64), String> {
    let dir = out.join("models").join(source_hash(repo)?);
    let missing: Vec<TrainMethod> = METHODS
        .into_iter()
        .filter(|&m| !model_path(&dir, m).exists())
        .collect();
    if missing.is_empty() {
        return Ok((dir, 0.0));
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    eprintln!(
        "training {} model(s) into {} (once per checkout)",
        missing.len(),
        dir.display()
    );
    let started = Instant::now();
    let pipe = Pipeline::build(PIPELINE);
    for method in missing {
        let model = train(&pipe, method);
        let bytes = serde_json::to_vec(&model).map_err(|e| e.to_string())?;
        // Write beside the target and rename, so a run that is killed
        // half-way never leaves a truncated model to be loaded later.
        let path = model_path(&dir, method);
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, bytes).map_err(|e| format!("write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &path).map_err(|e| format!("rename {}: {e}", path.display()))?;
    }
    Ok((dir, started.elapsed().as_secs_f64()))
}

/// Digest of the training configuration and of the path and bytes of
/// every `.rs` and `Cargo.toml` under `crates/` and `vendor/`, visited
/// in sorted order.
fn source_hash(repo: &Path) -> Result<String, String> {
    let mut files = Vec::new();
    for top in ["crates", "vendor"] {
        collect_sources(&repo.join(top), &mut files)?;
    }
    files.sort();
    let mut digest = Digest::default();
    digest.bytes(format!("{PIPELINE:?}{MODEL_SCALE:?}").as_bytes());
    for path in files {
        let rel = path.strip_prefix(repo).unwrap_or(&path);
        digest.bytes(rel.to_string_lossy().as_bytes());
        digest.bytes(&std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?);
    }
    Ok(digest.hex())
}

fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("list {}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                collect_sources(&path, out)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs")
            || path.file_name().is_some_and(|n| n == "Cargo.toml")
        {
            out.push(path);
        }
    }
    Ok(())
}
