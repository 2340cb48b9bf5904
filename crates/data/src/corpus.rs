//! The corpus construction pipeline (paper §III-A, Fig. 2):
//! generate → structure filter → comment filter → syntax check
//! (Stagira substitute) → dedup → `[FRAG]` tagging → Alpaca formatting.

use crate::dedup::dedup_indices;
use crate::families::all_families;
use crate::iface::GeneratedModule;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use verispec_verilog::check;
use verispec_verilog::fragment::fragmentize_tokens;
use verispec_verilog::lexer::lex_full;
use verispec_verilog::parser::parse_tokens;
use verispec_verilog::significant::SignificantTokens;

/// One cleaned corpus entry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CorpusItem {
    /// Module name.
    pub name: String,
    /// Family identifier.
    pub family: String,
    /// Natural-language instruction.
    pub description: String,
    /// Cleaned Verilog source.
    pub source: String,
    /// `[FRAG]`-tagged source (for the paper's method).
    pub tagged_source: String,
}

/// Pipeline statistics, mirroring the filters of Fig. 2.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CorpusStats {
    /// Modules generated before filtering.
    pub generated: usize,
    /// Dropped by the `module`/`endmodule` structure filter.
    pub dropped_structure: usize,
    /// Dropped as mostly-comments.
    pub dropped_comments: usize,
    /// Dropped by the syntax check.
    pub dropped_syntax: usize,
    /// Dropped as near-duplicates.
    pub dropped_duplicates: usize,
    /// Items retained.
    pub retained: usize,
}

/// Configuration of the corpus builder.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CorpusConfig {
    /// Number of raw modules to generate.
    pub size: usize,
    /// RNG seed.
    pub seed: u64,
    /// Near-duplicate similarity threshold.
    pub dedup_threshold: f64,
    /// Maximum comment fraction.
    pub max_comment_ratio: f64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        Self {
            size: 512,
            seed: 0xC0FFEE,
            dedup_threshold: 0.95,
            max_comment_ratio: 0.8,
        }
    }
}

/// A cleaned, deduplicated corpus.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Corpus {
    /// Retained items.
    pub items: Vec<CorpusItem>,
    /// Pipeline statistics.
    pub stats: CorpusStats,
}

impl Corpus {
    /// Runs the full pipeline of Fig. 2.
    pub fn build(cfg: &CorpusConfig) -> Corpus {
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let families = all_families();
        let mut raw: Vec<GeneratedModule> = Vec::with_capacity(cfg.size);
        for i in 0..cfg.size {
            let (_, gen) = families[i % families.len()];
            let mut gm = gen(&mut rng);
            // Formatting entropy: scraped corpora mix styles.
            let profile = crate::style::StyleProfile::sample(&mut rng);
            gm.source = crate::style::restyle(&gm.source, profile);
            raw.push(gm);
        }
        Self::refine(raw, cfg)
    }

    /// Refines generated modules: the filters, the dedup and the
    /// `[FRAG]` tagging of Fig. 2.
    ///
    /// Each source is lexed once: the structure filter, the comment
    /// ratio, the syntax check and the `[FRAG]` tagging all read that one
    /// token stream. A source that does not lex fails the structure
    /// filter.
    fn refine(raw: Vec<GeneratedModule>, cfg: &CorpusConfig) -> Corpus {
        let mut stats = CorpusStats {
            generated: raw.len(),
            ..Default::default()
        };
        let mut cleaned: Vec<(GeneratedModule, String)> = Vec::new();

        for gm in raw {
            // Structure filter: complete module/endmodule pairs.
            let lexed = match lex_full(&gm.source) {
                Ok(lexed) if check::structure_ok_tokens(&lexed.tokens) => lexed,
                _ => {
                    stats.dropped_structure += 1;
                    continue;
                }
            };
            // Comment filter.
            if lexed.comment_ratio() > cfg.max_comment_ratio {
                stats.dropped_comments += 1;
                continue;
            }
            // Syntax check (Stagira substitute) + AST for significant
            // tokens.
            let Ok(file) = parse_tokens(&lexed.tokens) else {
                stats.dropped_syntax += 1;
                continue;
            };
            let sig = SignificantTokens::from_source_file(&file);
            let tagged = fragmentize_tokens(&gm.source, &lexed.tokens, &sig);
            cleaned.push((gm, tagged));
        }

        // Dedup on the cleaned source text.
        let docs: Vec<&str> = cleaned.iter().map(|(gm, _)| gm.source.as_str()).collect();
        let kept = dedup_indices(&docs, cfg.dedup_threshold);
        stats.dropped_duplicates = cleaned.len() - kept.len();

        let mut kept = kept.into_iter().peekable();
        let items: Vec<CorpusItem> = cleaned
            .into_iter()
            .enumerate()
            .filter(|(i, _)| kept.next_if_eq(i).is_some())
            .map(|(_, (gm, tagged))| CorpusItem {
                // End every instruction with the standardized naming
                // sentence (see `crate::naming`).
                description: crate::naming::with_naming_tail(&gm.description, &gm.name),
                name: gm.name,
                family: gm.family.to_string(),
                source: gm.source,
                tagged_source: tagged,
            })
            .collect();
        stats.retained = items.len();
        Corpus { items, stats }
    }

    /// The paper's data-size sweep: a prefix fraction of the corpus
    /// (1/4, 1/2, 3/4, 1 of the items, deterministically): the first
    /// `len · numerator / denominator` items, rounded down.
    ///
    /// # Panics
    ///
    /// If `denominator` is 0 or `numerator` exceeds it: the fraction
    /// must lie in `[0, 1]`.
    pub fn subset(&self, numerator: usize, denominator: usize) -> &[CorpusItem] {
        assert!(
            denominator != 0 && numerator <= denominator,
            "data-size fraction {numerator}/{denominator} is not in [0, 1]"
        );
        &self.items[..self.items.len() * numerator / denominator]
    }
}

/// The fixed Alpaca instruction preamble every formatted item and
/// prompt starts with. Exposed so serving paths can ingest (tokenize +
/// session-append) it **once** and share it across requests: it ends
/// in a lone `\n` and descriptions start with a non-whitespace
/// character, so the boundary is a pre-tokenization word boundary and
/// splitting the encode there is exact.
const ALPACA_PREAMBLE: &str = "Below is an instruction that describes a task. Write a response that appropriately completes the request.\n\n### Instruction:\n";

/// The shared Alpaca preamble (see [`alpaca_format`] /
/// [`alpaca_prompt`], which both start with it).
pub fn alpaca_preamble() -> &'static str {
    ALPACA_PREAMBLE
}

/// Formats an item in Alpaca instruction style (paper §IV-A1).
pub fn alpaca_format(description: &str, code: &str) -> String {
    format!("{ALPACA_PREAMBLE}{description}\n\n### Response:\n{code}")
}

/// The instruction-only prefix used at inference time (the prompt).
pub fn alpaca_prompt(description: &str) -> String {
    format!("{ALPACA_PREAMBLE}{description}\n\n### Response:\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iface::{Golden, Interface};
    use std::sync::Arc;

    fn fake(src: &str) -> GeneratedModule {
        GeneratedModule {
            name: "m".into(),
            family: "fake",
            source: src.to_string(),
            description: "desc".into(),
            interface: Interface::comb(vec![], vec![]),
            golden: Golden::Comb(Arc::new(|_| vec![])),
        }
    }

    #[test]
    fn build_produces_items_across_families() {
        let corpus = Corpus::build(&CorpusConfig {
            size: 96,
            ..Default::default()
        });
        assert!(corpus.stats.retained > 48, "stats: {:?}", corpus.stats);
        let families: std::collections::HashSet<&str> =
            corpus.items.iter().map(|i| i.family.as_str()).collect();
        assert!(families.len() >= 20, "family coverage {}", families.len());
        for item in &corpus.items {
            assert!(item.tagged_source.contains("[FRAG]"));
            assert_eq!(
                verispec_verilog::fragment::defragmentize(&item.tagged_source),
                item.source
            );
        }
    }

    #[test]
    fn refine_drops_malformed_sources() {
        let raw = vec![
            fake("module good(input a, output y); assign y = a; endmodule"),
            fake("module broken(input a, output y); assign y = a;"), // no endmodule
            fake("// nothing but comments\n// more comments"),
            fake("module bad_syntax(input a output y); endmodule"), // missing comma
        ];
        let corpus = Corpus::refine(raw, &CorpusConfig::default());
        assert_eq!(corpus.stats.generated, 4);
        assert_eq!(corpus.stats.retained, 1);
        assert!(corpus.stats.dropped_structure >= 2, "{:?}", corpus.stats);
        assert_eq!(corpus.stats.dropped_syntax, 1);
    }

    #[test]
    fn unlexable_sources_fail_the_structure_filter() {
        let raw = vec![fake(
            "module m(input a, output y); /* unterminated endmodule",
        )];
        let corpus = Corpus::refine(raw, &CorpusConfig::default());
        assert_eq!(corpus.stats.dropped_structure, 1, "{:?}", corpus.stats);
        assert_eq!(corpus.stats.retained, 0);
    }

    #[test]
    fn refine_dedups_identical_modules() {
        let src = "module dup(input a, output y); assign y = a; endmodule";
        let raw = vec![fake(src), fake(src), fake(src)];
        let corpus = Corpus::refine(raw, &CorpusConfig::default());
        assert_eq!(corpus.stats.retained, 1);
        assert_eq!(corpus.stats.dropped_duplicates, 2);
    }

    #[test]
    fn subsets_are_prefixes() {
        let corpus = Corpus::build(&CorpusConfig {
            size: 64,
            ..Default::default()
        });
        let half = corpus.subset(1, 2);
        let full = corpus.subset(1, 1);
        assert_eq!(full.len(), corpus.items.len());
        assert_eq!(half.len(), corpus.items.len() / 2);
        for (a, b) in half.iter().zip(full) {
            assert_eq!(a.name, b.name);
        }
    }

    #[test]
    #[should_panic(expected = "data-size fraction 1/0 is not in [0, 1]")]
    fn a_subset_of_denominator_zero_panics_naming_the_fraction() {
        let corpus = Corpus::build(&CorpusConfig {
            size: 8,
            ..Default::default()
        });
        corpus.subset(1, 0);
    }

    #[test]
    #[should_panic(expected = "data-size fraction 3/2 is not in [0, 1]")]
    fn a_subset_past_the_whole_corpus_panics_naming_the_fraction() {
        let corpus = Corpus::build(&CorpusConfig {
            size: 8,
            ..Default::default()
        });
        corpus.subset(3, 2);
    }

    #[test]
    fn alpaca_round_trip_prompt_is_prefix() {
        let full = alpaca_format("Do a thing.", "module m; endmodule");
        let prompt = alpaca_prompt("Do a thing.");
        assert!(full.starts_with(&prompt));
    }

    /// FNV-1a over every item's name, family, description, source and
    /// tagged source, each field prefixed by its length.
    fn items_digest(corpus: &Corpus) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for item in &corpus.items {
            for field in [
                item.name.as_str(),
                &item.family,
                &item.description,
                &item.source,
                &item.tagged_source,
            ] {
                for b in (field.len() as u64)
                    .to_le_bytes()
                    .iter()
                    .chain(field.as_bytes())
                {
                    h ^= u64::from(*b);
                    h = h.wrapping_mul(0x1000_0000_01b3);
                }
            }
        }
        h
    }

    /// Every item and every count of the benchmark's (192) and the
    /// quality gate's (640) corpus, pinned byte for byte to the builder
    /// that lexed each module four times and mixed every MinHash seed
    /// per shingle.
    #[test]
    fn build_matches_the_golden_at_192_and_640() {
        let golden = [
            (192, 0xbe98_6464_fe1d_ec30u64, 9, 183),
            (640, 0xd066_f61a_fa8b_a9b5, 112, 528),
        ];
        for (size, digest, dropped_duplicates, retained) in golden {
            let corpus = Corpus::build(&CorpusConfig {
                size,
                ..Default::default()
            });
            let stats = CorpusStats {
                generated: size,
                dropped_duplicates,
                retained,
                ..Default::default()
            };
            assert_eq!(corpus.stats, stats, "corpus size {size}");
            assert_eq!(items_digest(&corpus), digest, "corpus size {size}");
        }
    }

    #[test]
    fn build_is_deterministic() {
        let cfg = CorpusConfig {
            size: 40,
            ..Default::default()
        };
        let a = Corpus::build(&cfg);
        let b = Corpus::build(&cfg);
        assert_eq!(a.items.len(), b.items.len());
        for (x, y) in a.items.iter().zip(&b.items) {
            assert_eq!(x.source, y.source);
        }
    }
}
