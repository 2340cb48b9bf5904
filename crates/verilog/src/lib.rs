//! Verilog front-end for VeriSpec: lexer, parser, AST, pretty-printer,
//! syntax checking, and the paper's syntactic-fragment pipeline.
//!
//! This crate is the stand-in for the *Stagira* incremental Verilog parser
//! used by the paper (§III-A). It covers the synthesizable RTL subset that
//! the VeriSpec corpus generators emit and that the behavioral simulator
//! (`verispec-sim`) executes:
//!
//! * modules with ANSI or non-ANSI port declarations,
//! * `wire`/`reg`/`integer`/`parameter`/`localparam` declarations
//!   (including memories),
//! * continuous assignments,
//! * `always` / `initial` processes with `begin`/`end`, `if`, `case*`,
//!   `for`, `while`, and blocking / non-blocking assignments,
//! * module instantiation (ordered and named connections),
//! * the full Verilog expression grammar (ternary, reductions, shifts,
//!   concatenation, replication, bit/part selects, based literals).
//!
//! On top of the front-end it implements the paper's Fig.-3 pipeline:
//! segmenting source text into fragments delimited by the `[FRAG]` marker
//! around every **syntactically significant token** ([`fragment`]), a
//! class the lexer's token kinds decide ([`significant`]).
//!
//! # Examples
//!
//! ```
//! use verispec_verilog::{parse, fragment::fragmentize};
//!
//! let src = "module inv(input a, output y); assign y = ~a; endmodule";
//! let file = parse(src)?;
//! assert_eq!(file.modules[0].name, "inv");
//!
//! let tagged = fragmentize(src)?;
//! assert!(tagged.contains("[FRAG]module[FRAG]"));
//! # Ok::<(), verispec_verilog::Error>(())
//! ```

#![deny(missing_docs)]

pub mod ast;
pub mod check;
pub mod fragment;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod significant;
pub mod span;
pub mod token;

pub use ast::{Module, SourceFile};
pub use check::structure_ok;
pub use lexer::lex;
pub use parser::parse;
pub use printer::print_source_file;
pub use span::Span;
pub use token::{Keyword, Token, TokenKind};

use std::fmt;

/// Errors produced by the Verilog front-end.
///
/// Carries a byte-offset [`Span`] into the original source plus a
/// human-readable message, so callers can point at the offending text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    /// Location of the error in the input source.
    pub span: Span,
    /// Human-readable description of the problem.
    pub message: String,
}

impl Error {
    /// Creates a new error covering `span`.
    pub fn new(span: Span, message: impl Into<String>) -> Self {
        Self {
            span,
            message: message.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at bytes {}..{}",
            self.message, self.span.start, self.span.end
        )
    }
}

impl std::error::Error for Error {}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, Error>;
