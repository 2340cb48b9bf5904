//! Shared helpers for the VeriSpec benchmark harness binaries and the
//! artifact benches.
//!
//! Each binary regenerates one paper artifact:
//!
//! | binary | artifact |
//! |--------|----------|
//! | `table1_quality` | Table I — quality grid, and the Fig. 6 series (pass@5 vs data size) from the same cells |
//! | `fig5_steps`     | Fig. 5 — decode traces |
//!
//! Speed (Table II) is measured by the benchmark under `benchmark/`.
//!
//! Both parse [`HarnessArgs`]: `--scale quick|full`
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

/// The flags every harness binary accepts.
const USAGE: &str = "usage: <bin> [--scale quick|full] [--samples N] [--problems N] [--json PATH]";

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
    /// Panics with a usage message on unknown arguments and on a flag
    /// whose value is missing or is the next flag.
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
                    scale = match value_of(&a, &mut args).as_str() {
                        "quick" => Scale::quick(),
                        "full" => Scale::full(),
                        other => panic!("unknown scale `{other}` (use quick|full)\n{USAGE}"),
                    };
                }
                "--json" => json = Some(value_of(&a, &mut args)),
                "--samples" => samples = Some(count_of(&a, &mut args)),
                "--problems" => problems = Some(count_of(&a, &mut args)),
                "--help" | "-h" => {
                    println!("{USAGE}");
                    std::process::exit(0);
                }
                other => panic!("unknown argument `{other}`\n{USAGE}"),
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

/// The value after `flag`. A missing value, or the next flag in its
/// place, is a usage error, so `--json` without a path cannot exit 0
/// without its artifact.
fn value_of(flag: &str, args: &mut impl Iterator<Item = String>) -> String {
    match args.next() {
        Some(v) if !v.starts_with("--") => v,
        _ => panic!("`{flag}` needs a value\n{USAGE}"),
    }
}

/// The count after `flag`.
fn count_of(flag: &str, args: &mut impl Iterator<Item = String>) -> usize {
    let v = value_of(flag, args);
    v.parse()
        .unwrap_or_else(|_| panic!("`{flag}` takes a count, not `{v}`\n{USAGE}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> HarnessArgs {
        HarnessArgs::parse_from(args.iter().map(|a| a.to_string()))
    }

    fn scale_of(args: &[&str]) -> Scale {
        parse(args).scale
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

    /// `--json` with no path once parsed as "no artifact" and exited 0.
    #[test]
    #[should_panic(expected = "`--json` needs a value")]
    fn a_json_flag_without_a_path_is_a_usage_error() {
        parse(&["--json"]);
    }

    #[test]
    #[should_panic(expected = "`--json` needs a value")]
    fn a_json_flag_followed_by_a_flag_is_a_usage_error() {
        parse(&["--json", "--scale", "quick"]);
    }
}
