//! Dataset construction walk-through (paper §III-A, Figs. 2–3).
//!
//! Generates raw Verilog modules, runs the refinement pipeline (structure
//! filter, comment filter, syntax check, MinHash dedup), then shows the
//! paper's syntactic-fragment machinery on a concrete module: significant
//! tokens, `[FRAG]` tagging, and the syntax-enriched label grid with its
//! growing `[IGNORE]` fractions.
//!
//! Run with:
//! ```sh
//! cargo run --release --example data_pipeline
//! ```

use std::collections::BTreeSet;
use verispec::core::LabelGrid;
use verispec::data::{Corpus, CorpusConfig};
use verispec::tokenizer::{special, BpeTrainer};
use verispec::verilog::{lex, TokenKind};

fn main() {
    println!("== VeriSpec data pipeline ==\n");

    // 1. Corpus refinement with statistics (Fig. 2).
    let corpus = Corpus::build(&CorpusConfig {
        size: 256,
        ..Default::default()
    });
    let s = corpus.stats;
    println!("generated          : {}", s.generated);
    println!("dropped (structure): {}", s.dropped_structure);
    println!("dropped (comments) : {}", s.dropped_comments);
    println!("dropped (syntax)   : {}", s.dropped_syntax);
    println!("dropped (dedup)    : {}", s.dropped_duplicates);
    println!("retained           : {}\n", s.retained);

    // 2. Significant tokens + [FRAG] segmentation (Fig. 3) on the
    //    first register-like item.
    let item = corpus
        .items
        .iter()
        .find(|i| i.family == "data_register")
        .unwrap_or(&corpus.items[0]);
    println!(
        "--- module `{}` ({}) ---\n{}",
        item.name, item.family, item.source
    );

    let tokens = lex(&item.source).expect("corpus items lex");
    let idents: BTreeSet<&str> = tokens
        .iter()
        .filter_map(|t| match &t.kind {
            TokenKind::Ident(name) => Some(name.as_str()),
            _ => None,
        })
        .collect();
    println!("significant identifiers: {idents:?}\n");
    println!("[FRAG]-tagged source:\n{}\n", item.tagged_source);

    // 3. Syntax-enriched labels (Fig. 4): tokenize and build the grid.
    let tok = BpeTrainer::new(512).train(corpus.items.iter().map(|i| i.tagged_source.as_str()));
    let ids = tok.encode(&item.tagged_source);
    let n_heads = 10;
    let grid = LabelGrid::syntax_enriched_parallel(&ids, n_heads);
    println!(
        "label grid: {} positions x {} heads",
        grid.seq_len(),
        n_heads
    );
    for h in [1, 3, 5, 10] {
        println!(
            "  head {h:>2}: {:>5.1}% of positions masked [IGNORE]",
            100.0 * grid.ignore_fraction(h)
        );
    }
    println!(
        "\nthe growing mask is what lets later heads train on easy, \
         fragment-aligned targets (paper §III-C)"
    );

    // 4. Show one column of the grid, like Fig. 4's "After" panel.
    let col = ids.len() / 3;
    println!("\nlabel column at position {col}:");
    for h in 0..=n_heads {
        let l = grid.label(h, col);
        let text = if l == special::IGNORE {
            "[IGNORE]".to_string()
        } else {
            format!("{:?}", tok.token_text(l))
        };
        let row = if h == 0 {
            "base".to_string()
        } else {
            format!("head {h}")
        };
        println!("  {row:>7}: {text}");
    }
}
