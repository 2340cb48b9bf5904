//! `[FRAG]` segmentation of Verilog source text (paper §III-C, Fig. 3).
//!
//! Each syntactically significant token is wrapped in `[FRAG]` markers;
//! everything between two markers is a *fragment* that is safe to treat as
//! an atomic unit during decoding. The speculative decoder's integrity
//! check truncates committed tokens at the last fragment boundary, which
//! is what keeps every decoding step syntactically complete (Fig. 5).
//!
//! # Which tokens are wrapped
//!
//! Every significant token ([`crate::significant`]): identifiers,
//! literals, reserved words, `=` and `<=`. So are the module header's
//! port-list parentheses and its closing `;`
//! (`[FRAG]module[FRAG] [FRAG]mux2to1[FRAG] [FRAG]([FRAG]`). Every other
//! token stays bare. Tagging thus reads the token stream alone: it needs
//! no parse, and a module's header tags the same on its own as at the
//! head of the module.

use crate::lexer::lex;
use crate::significant::is_significant;
use crate::token::{Keyword, Token, TokenKind};
use crate::Result;

/// The fragment-boundary marker inserted between significant tokens.
const FRAG_MARKER: &str = "[FRAG]";

/// Wraps every significant token of `src` in `[FRAG]` markers.
///
/// Whitespace and comments between tokens are preserved verbatim, so
/// [`defragmentize`] restores the original text exactly. `src` need not
/// parse.
///
/// # Errors
///
/// Returns an error if `src` fails to lex.
///
/// # Examples
///
/// ```
/// use verispec_verilog::fragment;
/// let src = "module inv(input a, output y);\n  assign y = ~a;\nendmodule";
/// let tagged = fragment::fragmentize(src)?;
/// assert!(tagged.starts_with("[FRAG]module[FRAG] [FRAG]inv[FRAG][FRAG]([FRAG]"));
/// assert_eq!(fragment::defragmentize(&tagged), src);
/// # Ok::<(), verispec_verilog::Error>(())
/// ```
pub fn fragmentize(src: &str) -> Result<String> {
    Ok(fragmentize_tokens(src, &lex(src)?))
}

/// [`fragmentize`] over `src`'s token stream as [`lex`] returns it, for
/// a caller that has lexed the source already.
///
/// # Panics
///
/// If a token's span does not lie within `src`.
pub fn fragmentize_tokens(src: &str, tokens: &[Token]) -> String {
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
        if tok.kind == TokenKind::Keyword(Keyword::Module) {
            header = Header::SawModule;
        }
        if structural || is_significant(&tok.kind) {
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
        fragmentize(src).expect("fragmentize")
    }

    /// Tagging reads tokens only: a lex error is an error, but a source
    /// that lexes tags whether or not it parses.
    #[test]
    fn fragmentize_fails_only_on_a_lex_error() {
        assert!(fragmentize("module m; /* unterminated").is_err());
        let src = "module m(input a output y); endmodule";
        assert!(parse(src).is_err());
        let tagged = tag(src);
        assert!(
            tagged.contains("[FRAG]a[FRAG] [FRAG]output[FRAG]"),
            "{tagged}"
        );
        assert_eq!(defragmentize(&tagged), src);
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
        // The blocking assignment wraps like the non-blocking one.
        let tagged = tag("module m(output y); assign y = 1'b0; endmodule");
        assert!(tagged.contains("[FRAG]=[FRAG]"), "{tagged}");
    }

    /// The paper's extra-keyword list: each is a reserved word, so each
    /// wraps.
    #[test]
    fn the_papers_extra_keywords_all_wrap() {
        for kw in [
            "module",
            "endmodule",
            "input",
            "output",
            "inout",
            "wire",
            "reg",
            "integer",
            "parameter",
            "localparam",
            "assign",
            "always",
            "initial",
            "begin",
            "end",
            "if",
            "else",
            "case",
            "casez",
            "casex",
            "endcase",
            "default",
            "for",
            "while",
            "posedge",
            "negedge",
            "signed",
        ] {
            assert_eq!(tag(kw), format!("[FRAG]{kw}[FRAG]"));
        }
    }

    /// An escaped identifier is an identifier token, so it wraps, spelled
    /// with its backslash.
    #[test]
    fn escaped_identifiers_wrap_like_every_identifier() {
        let src = "module m(input \\bus[0] , output y); assign y = \\bus[0] ; endmodule";
        parse(src).expect("parses");
        let tagged = tag(src);
        assert_eq!(
            tagged.matches("[FRAG]\\bus[0][FRAG]").count(),
            2,
            "{tagged}"
        );
        assert_eq!(defragmentize(&tagged), src);
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
    fn numbers_are_always_wrapped() {
        let tagged = tag("module m(output [7:0] y); assign y = 8'hAB; endmodule");
        assert!(tagged.contains("[FRAG]8'hAB[FRAG]"));
        assert!(tagged.contains("[FRAG]7[FRAG]"));
        assert!(tagged.contains("[FRAG]0[FRAG]"));
    }
}
