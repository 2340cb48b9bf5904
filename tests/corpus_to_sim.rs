//! Integration between the corpus generators, the Verilog front-end, and
//! the simulator: every retained corpus item parses, round-trips through
//! the printer, fragmentizes reversibly, and elaborates.

use verispec::data::{Corpus, CorpusConfig};
use verispec::sim::elaborate;
use verispec::verilog::fragment::{defragmentize, fragmentize};
use verispec::verilog::printer::print_source_file;

#[test]
fn corpus_items_survive_the_full_front_end() {
    let corpus = Corpus::build(&CorpusConfig {
        size: 128,
        ..Default::default()
    });
    assert!(corpus.stats.retained >= 64, "{:?}", corpus.stats);
    for item in &corpus.items {
        // Parse.
        let file = verispec::verilog::parse(&item.source)
            .unwrap_or_else(|e| panic!("[{}] parse: {e}", item.family));
        // Print -> reparse stability (modulo normalization).
        let printed = print_source_file(&file);
        let reparsed = verispec::verilog::parse(&printed)
            .unwrap_or_else(|e| panic!("[{}] reparse: {e}\n{printed}", item.family));
        assert_eq!(
            reparsed.normalized(),
            file.normalized(),
            "[{}] print/parse round trip",
            item.family
        );
        // Fragment round trip.
        let tagged = fragmentize(&item.source).expect("fragmentize");
        assert_eq!(defragmentize(&tagged), item.source, "[{}]", item.family);
        assert_eq!(
            tagged, item.tagged_source,
            "[{}] pipeline tagging agrees",
            item.family
        );
        // Elaborate.
        elaborate(&file.modules[0])
            .unwrap_or_else(|e| panic!("[{}] elaborate: {e}\n{}", item.family, item.source));
    }
}

#[test]
fn corpus_stats_are_consistent() {
    let corpus = Corpus::build(&CorpusConfig {
        size: 100,
        ..Default::default()
    });
    let s = corpus.stats;
    assert_eq!(
        s.generated,
        s.dropped_structure
            + s.dropped_comments
            + s.dropped_syntax
            + s.dropped_duplicates
            + s.retained,
        "{s:?}"
    );
    assert_eq!(corpus.items.len(), s.retained);
}
