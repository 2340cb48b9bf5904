//! `[FRAG]` segmentation of Verilog source text (paper §III-C, Fig. 3).
//!
//! Each syntactically significant token is wrapped in `[FRAG]` markers;
//! everything between two markers is a *fragment* that is safe to treat as
//! an atomic unit during decoding. The speculative decoder's integrity
//! check truncates committed tokens at the last fragment boundary, which
//! is what keeps every decoding step syntactically complete (Fig. 5).

use crate::lexer::lex;
use crate::parser::parse_tokens;
use crate::significant::SignificantTokens;
use crate::token::{Token, TokenKind};
use crate::Result;

/// The fragment-boundary marker inserted between significant tokens.
const FRAG_MARKER: &str = "[FRAG]";

/// Wraps every significant token of `src` in `[FRAG]` markers.
///
/// Whitespace and comments between tokens are preserved verbatim, so
/// [`defragmentize`] restores the original text exactly.
///
/// In addition to the token classes reported by
/// [`SignificantTokens::is_significant_text`], the module header's port
/// list delimiters `(`, `)` and the header's closing `;` are wrapped,
/// matching the paper's Fig.-3 example
/// (`[FRAG]module[FRAG] [FRAG]mux2to1[FRAG] [FRAG]([FRAG]`).
///
/// # Errors
///
/// Returns an error if `src` fails to lex.
///
/// # Examples
///
/// ```
/// use verispec_verilog::{parse, fragment, significant::SignificantTokens};
/// let src = "module inv(input a, output y);\n  assign y = ~a;\nendmodule";
/// let sig = SignificantTokens::from_source_file(&parse(src)?);
/// let tagged = fragment::fragmentize(src, &sig)?;
/// assert!(tagged.starts_with("[FRAG]module[FRAG]"));
/// assert_eq!(fragment::defragmentize(&tagged), src);
/// # Ok::<(), verispec_verilog::Error>(())
/// ```
pub fn fragmentize(src: &str, sig: &SignificantTokens) -> Result<String> {
    Ok(fragmentize_tokens(src, &lex(src)?, sig))
}

/// Parses `src` and wraps its significant tokens: [`fragmentize`] with
/// the [`SignificantTokens`] of `src`'s own syntax tree, lexing `src`
/// once for both.
///
/// # Errors
///
/// Returns an error if `src` fails to lex or to parse.
pub fn fragmentize_source(src: &str) -> Result<String> {
    let tokens = lex(src)?;
    let sig = SignificantTokens::from_source_file(&parse_tokens(&tokens)?);
    Ok(fragmentize_tokens(src, &tokens, &sig))
}

/// [`fragmentize`] over `src`'s token stream as [`lex`] returns it, for
/// a caller that has lexed (and parsed) the source already.
///
/// # Panics
///
/// If a token's span does not lie within `src`.
pub fn fragmentize_tokens(src: &str, tokens: &[Token], sig: &SignificantTokens) -> String {
    let mut result = String::with_capacity(src.len() * 2);
    let mut prev_end = 0usize;

    // Tiny state machine for the module header:
    // `module IDENT [#( ... )] ( ... ) ;`
    // so the port-list parens and the header's closing semicolon are
    // wrapped like the paper's example. The `#(...)` parameter list is
    // tracked so its parens are *not* mistaken for the port list.
    #[derive(PartialEq)]
    enum Header {
        Idle,
        SawModule,
        SawName,
        SawHash,
        InParams(u32),
        InPorts(u32),
        AfterPorts,
    }
    let mut header = Header::Idle;

    for tok in tokens {
        if tok.kind == TokenKind::Eof {
            break;
        }
        // Preserve inter-token text (whitespace and comments).
        result.push_str(&src[prev_end..tok.span.start]);
        prev_end = tok.span.end;
        let text = tok.span.slice(src);

        let structural = match (&header, &tok.kind) {
            (Header::SawModule, TokenKind::Ident(_)) => {
                header = Header::SawName;
                false
            }
            (Header::SawName, TokenKind::Hash) => {
                header = Header::SawHash;
                false
            }
            (Header::SawHash, TokenKind::LParen) => {
                header = Header::InParams(1);
                false
            }
            (Header::InParams(1), TokenKind::RParen) => {
                header = Header::SawName;
                false
            }
            (Header::InParams(d), TokenKind::LParen) => {
                header = Header::InParams(d + 1);
                false
            }
            (Header::InParams(d), TokenKind::RParen) => {
                header = Header::InParams(d - 1);
                false
            }
            (Header::SawName, TokenKind::LParen) => {
                header = Header::InPorts(1);
                true
            }
            (Header::InPorts(1), TokenKind::RParen) => {
                header = Header::AfterPorts;
                true
            }
            (Header::InPorts(d), TokenKind::LParen) => {
                header = Header::InPorts(d + 1);
                false
            }
            (Header::InPorts(d), TokenKind::RParen) => {
                header = Header::InPorts(d - 1);
                false
            }
            (Header::AfterPorts | Header::SawName, TokenKind::Semi) => {
                header = Header::Idle;
                true
            }
            _ => false,
        };
        if tok.kind == TokenKind::Keyword(crate::token::Keyword::Module) {
            header = Header::SawModule;
        }

        if structural || sig.is_significant_text(text) {
            result.push_str(FRAG_MARKER);
            result.push_str(text);
            result.push_str(FRAG_MARKER);
        } else {
            result.push_str(text);
        }
    }
    result.push_str(&src[prev_end..]);
    result
}

/// Removes every `[FRAG]` marker from `tagged`, restoring plain Verilog.
pub fn defragmentize(tagged: &str) -> String {
    tagged.replace(FRAG_MARKER, "")
}

/// Splits tagged text into fragments (the pieces between markers),
/// dropping empty pieces that arise from adjacent markers.
pub fn fragments(tagged: &str) -> Vec<&str> {
    tagged
        .split(FRAG_MARKER)
        .filter(|s| !s.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    const FIG3_SRC: &str = "module data_register (
    input clk,
    input [3:0] data_in,
    output reg [3:0] data_out
);
    always @(posedge clk) begin
        data_out <= data_in;
    end
endmodule";

    fn tag(src: &str) -> String {
        let sig = SignificantTokens::from_source_file(&parse(src).expect("parse"));
        fragmentize(src, &sig).expect("fragmentize")
    }

    #[test]
    fn fragmentize_source_equals_parse_then_fragmentize() {
        for src in [
            FIG3_SRC,
            "module m #(parameter W = 4)(input [W-1:0] a, output y); assign y = a[0]; endmodule",
        ] {
            assert_eq!(fragmentize_source(src).expect("tags"), tag(src));
        }
        assert!(fragmentize_source("module m(input a output y); endmodule").is_err());
        assert!(fragmentize_source("module m; /* unterminated").is_err());
    }

    #[test]
    fn fig3_example_wraps_expected_tokens() {
        let tagged = tag(FIG3_SRC);
        for frag in [
            "[FRAG]module[FRAG]",
            "[FRAG]data_register[FRAG]",
            "[FRAG]([FRAG]",
            "[FRAG]input[FRAG]",
            "[FRAG]clk[FRAG]",
            "[FRAG]3[FRAG]",
            "[FRAG]data_in[FRAG]",
            "[FRAG]output[FRAG]",
            "[FRAG]reg[FRAG]",
            "[FRAG])[FRAG]",
            "[FRAG];[FRAG]",
            "[FRAG]always[FRAG]",
            "[FRAG]posedge[FRAG]",
            "[FRAG]begin[FRAG]",
            "[FRAG]<=[FRAG]",
            "[FRAG]end[FRAG]",
            "[FRAG]endmodule[FRAG]",
        ] {
            assert!(tagged.contains(frag), "expected {frag} in:\n{tagged}");
        }
        // The paper's example leaves commas and `@(` unwrapped.
        assert!(!tagged.contains("[FRAG],[FRAG]"));
        assert!(!tagged.contains("[FRAG]@[FRAG]"));
    }

    #[test]
    fn defragmentize_restores_source_exactly() {
        let tagged = tag(FIG3_SRC);
        assert_eq!(defragmentize(&tagged), FIG3_SRC);
    }

    #[test]
    fn preserves_comments_verbatim() {
        let src = "module m(input a, output y); // keep me\nassign y = a; /* and me */ endmodule";
        let tagged = tag(src);
        assert!(tagged.contains("// keep me"));
        assert!(tagged.contains("/* and me */"));
        assert_eq!(defragmentize(&tagged), src);
    }

    #[test]
    fn inner_parens_are_not_structural() {
        let src = "module m(input a, b, output y); assign y = (a & b) | a; endmodule";
        let tagged = tag(src);
        // The expression parens stay unwrapped: exactly one wrapped lparen
        // (the port list's) in the whole module.
        assert_eq!(tagged.matches("[FRAG]([FRAG]").count(), 1, "{tagged}");
        assert!(
            tagged.contains("([FRAG]a[FRAG]"),
            "expression lparen should be bare: {tagged}"
        );
        assert!(tagged.contains("[FRAG])[FRAG][FRAG];[FRAG]"));
    }

    #[test]
    fn parameter_header_ports_still_wrap() {
        let src =
            "module m #(parameter W = 4)(input [W-1:0] a, output y); assign y = a[0]; endmodule";
        let tagged = tag(src);
        assert_eq!(defragmentize(&tagged), src);
        assert!(tagged.contains("[FRAG]W[FRAG]"));
        // The parameter-list parens stay bare; the port-list lparen wraps.
        assert!(
            tagged.contains("#("),
            "param lparen must stay bare: {tagged}"
        );
        assert!(
            tagged.contains(")[FRAG]([FRAG]"),
            "port lparen must wrap: {tagged}"
        );
    }

    #[test]
    fn fragments_split_and_count() {
        let tagged = tag("module m(input a, output y); assign y = a; endmodule");
        let frags = fragments(&tagged);
        assert!(frags.contains(&"module"));
        assert!(frags.contains(&"assign"));
        assert!(tagged.matches(FRAG_MARKER).count() >= 2 * 6);
    }

    #[test]
    fn numbers_are_always_wrapped() {
        let tagged = tag("module m(output [7:0] y); assign y = 8'hAB; endmodule");
        assert!(tagged.contains("[FRAG]8'hAB[FRAG]"));
        assert!(tagged.contains("[FRAG]7[FRAG]"));
        assert!(tagged.contains("[FRAG]0[FRAG]"));
    }
}
