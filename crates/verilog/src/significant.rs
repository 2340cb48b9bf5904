//! Which tokens are *syntactically significant* (paper §III-C, Fig. 3).
//!
//! The paper names them in two steps, and both are token classes of
//! [`lex`](crate::lex):
//!
//! 1. **Leaves of the parse tree** — identifiers and literals
//!    (`data_register`, `clk`, `3`, …). The parser keeps the name of every
//!    identifier it consumes (module, port, declaration, instance, label
//!    or expression), so on a source that parses the tree's identifier
//!    leaves are exactly its [`TokenKind::Ident`] tokens, and its literal
//!    leaves its [`TokenKind::Number`] tokens.
//! 2. **Extra keywords** — `module`, `endmodule`, `input`, `output`,
//!    `inout`, `wire`, `reg`, `integer`, `parameter`, `localparam`,
//!    `assign`, `always`, `initial`, `begin`, `end`, `if`, `else`, `case`,
//!    `casez`, `casex`, `endcase`, `default`, `for`, `while`, `posedge`,
//!    `negedge` and `signed`. All of them are reserved words, and every
//!    reserved word ([`TokenKind::Keyword`]) is significant.
//!
//! The assignment operators `=` and `<=` are significant too, as the
//! Fig.-3 example wraps them (`<=` also where it compares: the lexer
//! cannot tell the two apart). Every other token kind is not.
//! [`crate::fragment`] wraps each significant token in `[FRAG]` markers.

use crate::token::TokenKind;

/// Whether a token of this kind is syntactically significant.
///
/// # Examples
///
/// ```
/// use verispec_verilog::{significant::is_significant, TokenKind};
/// assert!(is_significant(&TokenKind::Ident("clk".into())));
/// assert!(is_significant(&TokenKind::Le));
/// assert!(!is_significant(&TokenKind::Comma));
/// ```
pub fn is_significant(kind: &TokenKind) -> bool {
    matches!(
        kind,
        TokenKind::Keyword(_)
            | TokenKind::Ident(_)
            | TokenKind::Number(_)
            | TokenKind::Assign
            | TokenKind::Le
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::fragmentize;
    use crate::lexer::lex;
    use crate::parser::parse;

    /// Every lexed use of each of `names` in `src` (a source that parses)
    /// is a significant identifier token, and each is wrapped in tagging.
    fn assert_every_use_wraps(src: &str, names: &[&str]) {
        parse(src).expect("parses");
        let tokens = lex(src).expect("lexes");
        let tagged = fragmentize(src).expect("fragmentize");
        for name in names {
            let uses: Vec<_> = tokens
                .iter()
                .filter(|t| matches!(&t.kind, TokenKind::Ident(n) if n == name))
                .collect();
            assert!(!uses.is_empty(), "missing {name}");
            assert!(uses.iter().all(|t| is_significant(&t.kind)), "{name}");
            let wrapped = tagged.matches(&format!("[FRAG]{name}[FRAG]")).count();
            assert_eq!(wrapped, uses.len(), "{name} in:\n{tagged}");
        }
    }

    #[test]
    fn collects_fig3_style_tokens() {
        // The paper's Fig. 3 example.
        let src = "module data_register(
               input clk,
               input [3:0] data_in,
               output reg [3:0] data_out
             );
               always @(posedge clk) begin
                 data_out <= data_in;
               end
             endmodule";
        assert_every_use_wraps(src, &["data_register", "clk", "data_in", "data_out"]);
        let significant = |text: &str| {
            let tok = lex(src)
                .expect("lexes")
                .into_iter()
                .find(|t| t.span.slice(src) == text)
                .unwrap_or_else(|| panic!("no token {text}"));
            is_significant(&tok.kind)
        };
        // Extra keywords, numbers and `<=` are significant too.
        assert!(significant("module"));
        assert!(significant("posedge"));
        assert!(significant("3"));
        assert!(significant("<="));
        assert!(!significant(","));
        assert!(!significant("@"));
    }

    #[test]
    fn collects_from_instances_and_params() {
        assert_every_use_wraps(
            "module top #(parameter W = 4)(input a, output y);
               sub #(.W(W)) u_sub (.x(a), .z(y));
             endmodule",
            &["top", "W", "sub", "u_sub", "x", "z", "a", "y"],
        );
    }

    #[test]
    fn collects_from_case_and_loops() {
        assert_every_use_wraps(
            "module f(input [1:0] s, output reg [3:0] y);
               integer i;
               always @(*) begin
                 case (s)
                   2'b00: y = 4'h1;
                   default: for (i = 0; i < 4; i = i + 1) y[i] = s[0];
                 endcase
               end
             endmodule",
            &["f", "s", "y", "i"],
        );
    }
}
