//! Corpus-filter helpers (paper §III-A).
//!
//! The dataset pipeline retains only files that pass the parser's syntax
//! check ([`parse`](crate::parse): code that parses is *cleaned code*)
//! and drops files without a complete `module`/`endmodule` structure or
//! consisting mostly of comments
//! ([`LexOutput::comment_ratio`](crate::lexer::LexOutput::comment_ratio)).
//! The pipeline lexes each file once and hands the one token stream to
//! [`structure_ok_tokens`], [`parse_tokens`](crate::parser::parse_tokens)
//! (the syntax check) and
//! [`fragmentize_tokens`](crate::fragment::fragmentize_tokens), whose
//! tagging reads the tokens alone.

use crate::lexer::lex_full;
use crate::token::{Keyword, Token};
use crate::TokenKind;

/// Quick structural filter: balanced `module`/`endmodule` pairs, at least
/// one of them, and no text after the final `endmodule` other than
/// whitespace or comments.
///
/// This runs before full parsing so obviously truncated files are
/// rejected cheaply, mirroring the paper's "filter out files lacking
/// complete `module` and `endmodule` structures".
pub fn structure_ok(src: &str) -> bool {
    lex_full(src).is_ok_and(|out| structure_ok_tokens(&out.tokens))
}

/// [`structure_ok`] over a token stream that has been lexed already.
pub fn structure_ok_tokens(tokens: &[Token]) -> bool {
    let mut depth = 0i32;
    let mut pairs = 0usize;
    let mut after_last = false;
    for t in tokens {
        match &t.kind {
            TokenKind::Keyword(Keyword::Module) => {
                if depth > 0 {
                    return false; // nested module
                }
                depth += 1;
                after_last = false;
            }
            TokenKind::Keyword(Keyword::Endmodule) => {
                depth -= 1;
                if depth < 0 {
                    return false;
                }
                pairs += 1;
                after_last = true;
            }
            TokenKind::Eof => break,
            _ => {
                if after_last && depth == 0 {
                    return false; // trailing junk after final endmodule
                }
                if depth == 0 {
                    return false; // tokens before any module
                }
            }
        }
    }
    depth == 0 && pairs > 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_wellformed_module() {
        assert!(crate::parse("module m(input a, output y); assign y = a; endmodule").is_ok());
        assert!(structure_ok(
            "module m(input a, output y); assign y = a; endmodule"
        ));
    }

    #[test]
    fn rejects_truncated_module() {
        assert!(crate::parse("module m(input a, output y); assign y = a;").is_err());
        assert!(!structure_ok("module m(input a, output y); assign y = a;"));
    }

    #[test]
    fn rejects_trailing_junk() {
        assert!(!structure_ok("module m(); endmodule garbage"));
    }

    #[test]
    fn rejects_tokens_before_module() {
        assert!(!structure_ok("wire x; module m(); endmodule"));
    }

    #[test]
    fn rejects_nested_modules() {
        assert!(!structure_ok("module a(); module b(); endmodule endmodule"));
    }

    #[test]
    fn accepts_multiple_sequential_modules() {
        assert!(structure_ok("module a(); endmodule\nmodule b(); endmodule"));
    }

    #[test]
    fn comment_ratio_bounds() {
        let comment_ratio = |src| lex_full(src).expect("lexes").comment_ratio();
        assert_eq!(comment_ratio(""), 0.0);
        assert!(comment_ratio("// all comment") > 0.9);
        let r = comment_ratio("module m(); endmodule // note");
        assert!(r > 0.0 && r < 0.5);
    }

    #[test]
    fn structure_ok_allows_comments_after_endmodule() {
        assert!(structure_ok("module m(); endmodule // done"));
    }
}
