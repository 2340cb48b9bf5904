//! Benchmark suites: RTLLM-sim (29 problems) and VGen-sim (17 problems).
//!
//! The sizes are pinned by the paper's Pass-Rate quanta (Table I values
//! are multiples of 1/29 ≈ 3.45% and 1/17 ≈ 5.88%). RTLLM-style prompts
//! give only a high-level description; VGen-style prompts additionally
//! embed the module header, which the model continues — the paper calls
//! these "low-level prompts … the most challenging cases" and the header
//! seeding is why VGen scores run higher than RTLLM in Table I.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use verispec_data::families::all_families;
use verispec_data::{alpaca_prompt, GeneratedModule};
use verispec_verilog::fragment::fragmentize_source;

/// How a benchmark phrases its prompts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PromptStyle {
    /// High-level description only (RTLLM-like).
    Rtllm,
    /// Description plus the module header to continue (VGen-like).
    Vgen,
}

/// One benchmark problem.
#[derive(Debug, Clone)]
pub struct Problem {
    /// Stable identifier (e.g. `rtllm_03_counter`).
    pub id: String,
    /// Prompt style.
    pub style: PromptStyle,
    /// Reference module (interface + golden model + canonical source).
    pub module: GeneratedModule,
    /// Plain module header (`module name (...);`), present for VGen style.
    pub plain_header: Option<String>,
    /// `[FRAG]`-tagged header for syntax-aligned models.
    pub tagged_header: Option<String>,
}

impl Problem {
    /// The full inference prompt for a plain-text model.
    pub fn prompt_plain(&self) -> String {
        let mut p = alpaca_prompt(&self.module.description);
        if let Some(h) = &self.plain_header {
            p.push_str(h);
        }
        p
    }

    /// The full inference prompt for a `[FRAG]`-trained model.
    pub fn prompt_tagged(&self) -> String {
        let mut p = alpaca_prompt(&self.module.description);
        if let Some(h) = &self.tagged_header {
            p.push_str(h);
        }
        p
    }

    /// Text the judge should prepend to the model's continuation (the
    /// header for VGen-style problems, already plain).
    pub fn completion_prefix(&self) -> &str {
        self.plain_header.as_deref().unwrap_or("")
    }
}

/// A named set of problems.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Suite name (`RTLLM-sim` / `VGen-sim`).
    pub name: &'static str,
    /// The problems.
    pub problems: Vec<Problem>,
}

/// Extracts the header (up to and including the port-list `;` and its
/// newline) from a module source.
fn header_of(source: &str) -> Option<String> {
    let semi = source.find(';')?;
    let rest = &source[semi + 1..];
    let nl = rest
        .find('\n')
        .map(|i| semi + 1 + i + 1)
        .unwrap_or(semi + 1);
    Some(source[..nl].to_string())
}

/// Extracts the tagged header: everything up to and including the first
/// `[FRAG];[FRAG]` plus trailing newline.
fn tagged_header_of(tagged: &str) -> Option<String> {
    let marker = "[FRAG];[FRAG]";
    let pos = tagged.find(marker)? + marker.len();
    let rest = &tagged[pos..];
    let nl = rest.find('\n').map(|i| pos + i + 1).unwrap_or(pos);
    Some(tagged[..nl].to_string())
}

fn build_problems(prefix: &str, style: PromptStyle, count: usize, seed: u64) -> Vec<Problem> {
    let families = all_families();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut problems = Vec::with_capacity(count);
    for i in 0..count {
        let (fname, gen) = families[i % families.len()];
        let mut module = gen(&mut rng);
        // Benchmark prompts follow the same convention as the training
        // corpus: the naming sentence closes the instruction.
        module.description = verispec_data::with_naming_tail(&module.description, &module.name);
        let (plain_header, tagged_header) = if style == PromptStyle::Vgen {
            let plain = header_of(&module.source);
            let tagged = fragmentize_source(&module.source)
                .ok()
                .and_then(|t| tagged_header_of(&t));
            (plain, tagged)
        } else {
            (None, None)
        };
        problems.push(Problem {
            id: format!("{prefix}_{i:02}_{fname}"),
            style,
            module,
            plain_header,
            tagged_header,
        });
    }
    problems
}

/// The RTLLM-sim suite: 29 high-level-prompt problems.
pub fn rtllm_sim() -> Benchmark {
    Benchmark {
        name: "RTLLM-sim",
        problems: build_problems("rtllm", PromptStyle::Rtllm, 29, 0x52544C),
    }
}

/// The VGen-sim suite: 17 header-seeded problems.
pub fn vgen_sim() -> Benchmark {
    Benchmark {
        name: "VGen-sim",
        problems: build_problems("vgen", PromptStyle::Vgen, 17, 0x5647454E),
    }
}

/// Extra prompt set for the speed evaluation (the paper augments RTLLM
/// and VGen with GPT-4-generated prompts to reach 575; we draw more
/// samples from the same generator distribution).
pub fn speed_prompts(count: usize, seed: u64) -> Vec<Problem> {
    let half = count / 2;
    let mut v = build_problems("speed_r", PromptStyle::Rtllm, half, seed);
    v.extend(build_problems(
        "speed_v",
        PromptStyle::Vgen,
        count - half,
        seed ^ 0xABCD,
    ));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_sizes_match_paper_quanta() {
        assert_eq!(rtllm_sim().problems.len(), 29);
        assert_eq!(vgen_sim().problems.len(), 17);
    }

    #[test]
    fn suites_are_deterministic() {
        let a = rtllm_sim();
        let b = rtllm_sim();
        for (x, y) in a.problems.iter().zip(&b.problems) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.module.source, y.module.source);
        }
    }

    #[test]
    fn vgen_problems_carry_headers() {
        for p in vgen_sim().problems {
            let h = p.plain_header.as_ref().expect("plain header");
            assert!(h.starts_with("module "), "{h}");
            assert!(h.trim_end().ends_with(";"), "{h}");
            let th = p.tagged_header.as_ref().expect("tagged header");
            assert!(th.contains("[FRAG]module[FRAG]"), "{th}");
            assert!(th.trim_end().ends_with("[FRAG];[FRAG]"), "{th}");
            assert!(
                p.module.source.starts_with(h),
                "header must prefix the source"
            );
        }
    }

    #[test]
    fn rtllm_problems_have_no_headers() {
        for p in rtllm_sim().problems {
            assert!(p.plain_header.is_none());
            assert_eq!(p.completion_prefix(), "");
        }
    }

    #[test]
    fn prompts_end_with_response_marker_or_header() {
        let r = &rtllm_sim().problems[0];
        assert!(r.prompt_plain().ends_with("### Response:\n"));
        let v = &vgen_sim().problems[0];
        assert!(v.prompt_plain().contains("### Response:\n"));
        assert!(v.prompt_plain().ends_with('\n'));
        assert!(v.prompt_tagged().contains("[FRAG]"));
    }

    #[test]
    fn speed_prompt_count() {
        assert_eq!(speed_prompts(10, 1).len(), 10);
        assert_eq!(speed_prompts(7, 1).len(), 7);
    }

    #[test]
    fn problems_cover_many_families() {
        let fams: std::collections::HashSet<&str> = rtllm_sim()
            .problems
            .iter()
            .map(|p| p.module.family)
            .collect();
        assert!(fams.len() >= 20, "{}", fams.len());
    }
}
