//! Lexical tokens for the Verilog subset.

use crate::span::Span;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Verilog keywords recognized by the lexer.
///
/// The set covers the synthesizable subset plus the handful of extra
/// constructs the paper's Fig.-3 "extra keywords" list calls out
/// (`negedge`, `endmodule`, `casez`, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)] // variants mirror the Verilog keywords one-to-one
pub enum Keyword {
    Module,
    Endmodule,
    Input,
    Output,
    Inout,
    Wire,
    Reg,
    Integer,
    Genvar,
    Parameter,
    Localparam,
    Assign,
    Always,
    Initial,
    Begin,
    End,
    If,
    Else,
    Case,
    Casez,
    Casex,
    Endcase,
    Default,
    For,
    While,
    Repeat,
    Forever,
    Posedge,
    Negedge,
    Or,
    Signed,
    Generate,
    Endgenerate,
    Function,
    Endfunction,
    Task,
    Endtask,
}

impl Keyword {
    /// Looks up a keyword from its source spelling.
    #[allow(clippy::should_implement_trait)] // fallible lookup, not std::str::FromStr
    pub fn from_str(s: &str) -> Option<Keyword> {
        use Keyword::*;
        Some(match s {
            "module" => Module,
            "endmodule" => Endmodule,
            "input" => Input,
            "output" => Output,
            "inout" => Inout,
            "wire" => Wire,
            "reg" => Reg,
            "integer" => Integer,
            "genvar" => Genvar,
            "parameter" => Parameter,
            "localparam" => Localparam,
            "assign" => Assign,
            "always" => Always,
            "initial" => Initial,
            "begin" => Begin,
            "end" => End,
            "if" => If,
            "else" => Else,
            "case" => Case,
            "casez" => Casez,
            "casex" => Casex,
            "endcase" => Endcase,
            "default" => Default,
            "for" => For,
            "while" => While,
            "repeat" => Repeat,
            "forever" => Forever,
            "posedge" => Posedge,
            "negedge" => Negedge,
            "or" => Or,
            "signed" => Signed,
            "generate" => Generate,
            "endgenerate" => Endgenerate,
            "function" => Function,
            "endfunction" => Endfunction,
            "task" => Task,
            "endtask" => Endtask,
            _ => return None,
        })
    }

    /// The canonical source spelling of the keyword.
    pub fn as_str(&self) -> &'static str {
        use Keyword::*;
        match self {
            Module => "module",
            Endmodule => "endmodule",
            Input => "input",
            Output => "output",
            Inout => "inout",
            Wire => "wire",
            Reg => "reg",
            Integer => "integer",
            Genvar => "genvar",
            Parameter => "parameter",
            Localparam => "localparam",
            Assign => "assign",
            Always => "always",
            Initial => "initial",
            Begin => "begin",
            End => "end",
            If => "if",
            Else => "else",
            Case => "case",
            Casez => "casez",
            Casex => "casex",
            Endcase => "endcase",
            Default => "default",
            For => "for",
            While => "while",
            Repeat => "repeat",
            Forever => "forever",
            Posedge => "posedge",
            Negedge => "negedge",
            Or => "or",
            Signed => "signed",
            Generate => "generate",
            Endgenerate => "endgenerate",
            Function => "function",
            Endfunction => "endfunction",
            Task => "task",
            Endtask => "endtask",
        }
    }
}

impl fmt::Display for Keyword {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The kind of a lexical token, together with any payload.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TokenKind {
    /// A reserved word such as `module` or `posedge`.
    Keyword(Keyword),
    /// An identifier (simple or escaped).
    Ident(String),
    /// A system identifier such as `$signed` (the `$` is included).
    SysIdent(String),
    /// Any numeric literal, kept as its raw spelling (`8'hFF`, `42`, …).
    Number(String),
    /// A string literal (quotes stripped).
    Str(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `:`
    Colon,
    /// `.`
    Dot,
    /// `@`
    At,
    /// `#`
    Hash,
    /// `?`
    Question,
    /// `=`
    Assign,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `**`
    Power,
    /// `!`
    Bang,
    /// `~`
    Tilde,
    /// `&`
    Amp,
    /// `|`
    Pipe,
    /// `^`
    Caret,
    /// `~&`
    TildeAmp,
    /// `~|`
    TildePipe,
    /// `~^` or `^~`
    TildeCaret,
    /// `&&`
    AmpAmp,
    /// `||`
    PipePipe,
    /// `==`
    EqEq,
    /// `!=`
    BangEq,
    /// `===`
    EqEqEq,
    /// `!==`
    BangEqEq,
    /// `<`
    Lt,
    /// `<=` (also the non-blocking assignment operator)
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `<<<`
    AShl,
    /// `>>>`
    AShr,
    /// `+:` (indexed part-select, ascending)
    PlusColon,
    /// `-:` (indexed part-select, descending)
    MinusColon,
    /// End of input sentinel.
    Eof,
}

impl TokenKind {
    /// The source spelling for fixed-spelling tokens; payload-carrying
    /// kinds return their payload text.
    pub fn text(&self) -> String {
        use TokenKind::*;
        match self {
            Keyword(k) => k.as_str().to_string(),
            Ident(s) => s.clone(),
            SysIdent(s) => s.clone(),
            Number(s) => s.clone(),
            Str(s) => format!("\"{s}\""),
            LParen => "(".into(),
            RParen => ")".into(),
            LBracket => "[".into(),
            RBracket => "]".into(),
            LBrace => "{".into(),
            RBrace => "}".into(),
            Semi => ";".into(),
            Comma => ",".into(),
            Colon => ":".into(),
            Dot => ".".into(),
            At => "@".into(),
            Hash => "#".into(),
            Question => "?".into(),
            Assign => "=".into(),
            Plus => "+".into(),
            Minus => "-".into(),
            Star => "*".into(),
            Slash => "/".into(),
            Percent => "%".into(),
            Power => "**".into(),
            Bang => "!".into(),
            Tilde => "~".into(),
            Amp => "&".into(),
            Pipe => "|".into(),
            Caret => "^".into(),
            TildeAmp => "~&".into(),
            TildePipe => "~|".into(),
            TildeCaret => "~^".into(),
            AmpAmp => "&&".into(),
            PipePipe => "||".into(),
            EqEq => "==".into(),
            BangEq => "!=".into(),
            EqEqEq => "===".into(),
            BangEqEq => "!==".into(),
            Lt => "<".into(),
            Le => "<=".into(),
            Gt => ">".into(),
            Ge => ">=".into(),
            Shl => "<<".into(),
            Shr => ">>".into(),
            AShl => "<<<".into(),
            AShr => ">>>".into(),
            PlusColon => "+:".into(),
            MinusColon => "-:".into(),
            Eof => String::new(),
        }
    }
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text())
    }
}

/// A lexical token with its source location.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// Where it sits in the source text.
    pub span: Span,
}

impl Token {
    /// Creates a token of `kind` at `span`.
    pub fn new(kind: TokenKind, span: Span) -> Self {
        Self { kind, span }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_round_trip() {
        for s in ["module", "endmodule", "posedge", "casez", "localparam"] {
            let kw = Keyword::from_str(s).expect("keyword");
            assert_eq!(kw.as_str(), s);
        }
    }

    #[test]
    fn non_keyword_is_none() {
        assert_eq!(Keyword::from_str("modules"), None);
        assert_eq!(Keyword::from_str(""), None);
        assert_eq!(
            Keyword::from_str("Module"),
            None,
            "keywords are case-sensitive"
        );
    }

    #[test]
    fn token_kind_text_round_trip() {
        assert_eq!(TokenKind::Le.text(), "<=");
        assert_eq!(TokenKind::AShr.text(), ">>>");
        assert_eq!(TokenKind::Number("4'b1010".into()).text(), "4'b1010");
        assert_eq!(TokenKind::Ident("clk".into()).text(), "clk");
    }
}
