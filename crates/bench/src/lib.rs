//! Shared helpers for the VeriSpec benchmark harness binaries and the
//! artifact benches.
//!
//! Each binary regenerates one paper artifact or answers one question
//! about it:
//!
//! | binary | artifact |
//! |--------|----------|
//! | `table1_quality` | Table I — quality grid, and the Fig. 6 series (pass@5 vs data size) from the same cells |
//! | `table2_speed`   | Table II — tokens/s and speedup |
//! | `fig1_tradeoff`  | Fig. 1 — speed vs quality scatter |
//! | `fig5_steps`     | Fig. 5 — decode traces |
//! | `probe_gen`      | developer probe: raw generations and verdicts per method (`--full` only) |
//!
//! All but `probe_gen` parse [`HarnessArgs`]: `--scale quick|full`
//! (default `full`), `--samples N` and `--problems N` (overriding the
//! scale's samples per prompt and per-benchmark problem cap, whichever
//! side of `--scale` they stand), and `--json <path>` to write a JSON
//! artifact next to the stdout table.
//!
//! Under `benches/`, `latency_under_load` and `quality_gate` regenerate
//! the committed `BENCH_*.json` artifacts. Neither reads a wall clock —
//! that is `benchmark/`'s job.

use std::path::Path;
use verispec_eval::Scale;

/// Serialises `value` as pretty JSON to `path`.
///
/// # Panics
///
/// Panics when `value` does not serialise or `path` cannot be written:
/// a run that did not produce its artifact must not exit 0.
fn write_json_file<T: serde::Serialize>(path: &Path, value: &T) {
    let body = serde_json::to_string_pretty(value).expect("serialize artifact");
    std::fs::write(path, body).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprintln!("wrote {}", path.display());
}

/// Records a sweep as the committed artifact `name` (`BENCH_*.json`) at
/// the workspace root — unless `violations` (the sweep's gate function
/// over the same rows) is non-empty, in which case every violated gate
/// is listed and the process exits non-zero with the file untouched.
/// The committed file stays on disk either way, so "exit 0" is the only
/// evidence CI has that it was regenerated.
///
/// # Panics
///
/// Panics when the artifact cannot be serialised or written.
pub fn write_gated_artifact<T: serde::Serialize>(name: &str, rows: &T, violations: &[String]) {
    if !violations.is_empty() {
        eprintln!("{name} not written: {} gate(s) violated", violations.len());
        for v in violations {
            eprintln!("  - {v}");
        }
        std::process::exit(1);
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    write_json_file(&root.join(name), rows);
}

/// Parses the common `--scale` / `--json` / `--samples` / `--problems`
/// CLI arguments.
pub struct HarnessArgs {
    /// Experiment scale.
    pub scale: Scale,
    /// Optional JSON artifact path.
    pub json: Option<String>,
}

impl HarnessArgs {
    /// Parses `std::env::args`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on unknown arguments.
    pub fn parse() -> HarnessArgs {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses `args` (the program name already skipped). `--samples`
    /// and `--problems` override the scale on either side of `--scale`.
    fn parse_from(args: impl IntoIterator<Item = String>) -> HarnessArgs {
        let mut scale = Scale::full();
        let (mut samples, mut problems) = (None, None);
        let mut json = None;
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--scale" => {
                    let v = args.next().unwrap_or_default();
                    scale = match v.as_str() {
                        "quick" => Scale::quick(),
                        "full" => Scale::full(),
                        other => panic!("unknown scale `{other}` (use quick|full)"),
                    };
                }
                "--json" => json = args.next(),
                "--samples" => {
                    samples = Some(
                        args.next()
                            .and_then(|v| v.parse().ok())
                            .expect("--samples N"),
                    );
                }
                "--problems" => {
                    problems = Some(
                        args.next()
                            .and_then(|v| v.parse().ok())
                            .expect("--problems N"),
                    );
                }
                "--help" | "-h" => {
                    println!(
                        "usage: <bin> [--scale quick|full] [--samples N] [--problems N] \
                         [--json PATH]"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown argument `{other}`"),
            }
        }
        scale.n_samples = samples.unwrap_or(scale.n_samples);
        scale.problem_limit = problems.or(scale.problem_limit);
        HarnessArgs { scale, json }
    }

    /// Writes a serializable artifact to the `--json` path, if given.
    pub fn write_json<T: serde::Serialize>(&self, value: &T) {
        if let Some(path) = &self.json {
            write_json_file(Path::new(path), value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scale_of(args: &[&str]) -> Scale {
        HarnessArgs::parse_from(args.iter().map(|a| a.to_string())).scale
    }

    /// `--samples 2 --scale quick` once ran the quick scale's 4 samples:
    /// the `--scale` arm replaced the overrides parsed before it.
    #[test]
    fn overrides_hold_on_either_side_of_the_scale() {
        let overrides = ["--samples", "2", "--problems", "3"];
        let after = scale_of(&[&["--scale", "quick"][..], &overrides].concat());
        let before = scale_of(&[&overrides[..], &["--scale", "quick"]].concat());
        assert_eq!(before, after);
        assert_eq!((after.n_samples, after.problem_limit), (2, Some(3)));
        assert_eq!(after.pipeline, Scale::quick().pipeline);
    }
}
