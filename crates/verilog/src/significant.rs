//! Extraction of *syntactically significant tokens* (paper §III-C, Fig. 3).
//!
//! The paper identifies significant tokens in two steps:
//!
//! 1. **AST keywords** — leaf nodes and information-carrying non-terminals
//!    harvested from the parse tree (identifiers and numeric literals:
//!    `data_register`, `clk`, `3`, …).
//! 2. **Extra keywords** — a fixed list of common Verilog constructs
//!    (`module`, `endmodule`, `reg`, `case`, `endcase`, `posedge`, …).
//!
//! Their union drives the `[FRAG]` segmentation implemented in
//! [`crate::fragment`].

use crate::ast::*;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// The set of syntactically significant tokens for one or more modules.
///
/// Identifiers and literal spellings are collected from the AST;
/// reserved words and structural operators are implicitly significant and
/// are checked by [`SignificantTokens::is_significant_text`] without being
/// stored.
///
/// # Examples
///
/// ```
/// use verispec_verilog::{parse, significant::SignificantTokens};
/// let f = parse("module m(input clk, output reg [3:0] q); always @(posedge clk) q <= q + 1; endmodule")?;
/// let sig = SignificantTokens::from_source_file(&f);
/// assert!(sig.contains_ident("clk"));
/// assert!(sig.contains_ident("q"));
/// assert!(sig.is_significant_text("posedge"));
/// assert!(!sig.is_significant_text(","));
/// # Ok::<(), verispec_verilog::Error>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SignificantTokens {
    idents: BTreeSet<String>,
}

impl SignificantTokens {
    /// Builds the set from every module in a source file.
    pub fn from_source_file(file: &SourceFile) -> Self {
        let mut s = Self::default();
        for m in &file.modules {
            s.add_module(m);
        }
        s
    }

    /// Adds every identifier the module declares or references.
    pub fn add_module(&mut self, m: &Module) {
        self.idents.insert(m.name.clone());
        for p in &m.params {
            self.idents.insert(p.name.clone());
            self.add_expr(&p.value);
            if let Some(r) = &p.range {
                self.add_range(r);
            }
        }
        for p in &m.ports {
            self.idents.insert(p.name.clone());
            if let Some(r) = &p.range {
                self.add_range(r);
            }
        }
        for item in &m.items {
            self.add_item(item);
        }
    }

    fn add_item(&mut self, item: &Item) {
        match item {
            Item::Net(nd) => {
                if let Some(r) = &nd.range {
                    self.add_range(r);
                }
                for (name, init) in &nd.nets {
                    self.idents.insert(name.clone());
                    if let Some(e) = init {
                        self.add_expr(e);
                    }
                }
            }
            Item::Reg(rd) => {
                if let Some(r) = &rd.range {
                    self.add_range(r);
                }
                for rv in &rd.regs {
                    self.idents.insert(rv.name.clone());
                    if let Some(mem) = &rv.mem {
                        self.add_range(mem);
                    }
                    if let Some(init) = &rv.init {
                        self.add_expr(init);
                    }
                }
            }
            Item::Integer(names) | Item::Genvar(names) => {
                self.idents.extend(names.iter().cloned());
            }
            Item::Param(decls) | Item::Localparam(decls) => {
                for d in decls {
                    self.idents.insert(d.name.clone());
                    self.add_expr(&d.value);
                    if let Some(r) = &d.range {
                        self.add_range(r);
                    }
                }
            }
            Item::Assign(assigns) => {
                for (lhs, rhs) in assigns {
                    self.add_lvalue(lhs);
                    self.add_expr(rhs);
                }
            }
            Item::Always(ab) => {
                if let Sensitivity::List(evs) = &ab.sensitivity {
                    for ev in evs {
                        self.idents.insert(ev.signal.clone());
                    }
                }
                self.add_stmt(&ab.body);
            }
            Item::Initial(body) => self.add_stmt(body),
            Item::Instance(inst) => {
                self.idents.insert(inst.module.clone());
                self.idents.insert(inst.name.clone());
                for c in inst.params.iter().chain(&inst.conns) {
                    match c {
                        Connection::Ordered(e) => self.add_expr(e),
                        Connection::Named(port, e) => {
                            self.idents.insert(port.clone());
                            if let Some(e) = e {
                                self.add_expr(e);
                            }
                        }
                    }
                }
            }
            Item::PortDecl(pd) => {
                self.idents.extend(pd.names.iter().cloned());
                if let Some(r) = &pd.range {
                    self.add_range(r);
                }
            }
        }
    }

    fn add_stmt(&mut self, stmt: &Stmt) {
        match stmt {
            Stmt::Block { label, stmts } => {
                if let Some(l) = label {
                    self.idents.insert(l.clone());
                }
                for s in stmts {
                    self.add_stmt(s);
                }
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.add_expr(cond);
                self.add_stmt(then_branch);
                if let Some(e) = else_branch {
                    self.add_stmt(e);
                }
            }
            Stmt::Case {
                scrutinee,
                arms,
                default,
                ..
            } => {
                self.add_expr(scrutinee);
                for arm in arms {
                    for l in &arm.labels {
                        self.add_expr(l);
                    }
                    self.add_stmt(&arm.body);
                }
                if let Some(d) = default {
                    self.add_stmt(d);
                }
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.add_stmt(init);
                self.add_expr(cond);
                self.add_stmt(step);
                self.add_stmt(body);
            }
            Stmt::While { cond, body } | Stmt::Repeat { count: cond, body } => {
                self.add_expr(cond);
                self.add_stmt(body);
            }
            Stmt::Blocking { lhs, rhs } | Stmt::NonBlocking { lhs, rhs } => {
                self.add_lvalue(lhs);
                self.add_expr(rhs);
            }
            Stmt::Null => {}
        }
    }

    fn add_lvalue(&mut self, lv: &LValue) {
        match lv {
            LValue::Ident(n) => {
                self.idents.insert(n.clone());
            }
            LValue::Bit(n, i) => {
                self.idents.insert(n.clone());
                self.add_expr(i);
            }
            LValue::Part(n, r) => {
                self.idents.insert(n.clone());
                self.add_range(r);
            }
            LValue::IndexedPart {
                name, base, width, ..
            } => {
                self.idents.insert(name.clone());
                self.add_expr(base);
                self.add_expr(width);
            }
            LValue::Concat(parts) => {
                for p in parts {
                    self.add_lvalue(p);
                }
            }
        }
    }

    fn add_expr(&mut self, e: &Expr) {
        let mut ids = Vec::new();
        e.collect_idents(&mut ids);
        for id in ids {
            self.idents.insert(id.to_string());
        }
    }

    fn add_range(&mut self, r: &Range) {
        self.add_expr(&r.msb);
        self.add_expr(&r.lsb);
    }

    /// Whether `name` was harvested from the AST.
    pub fn contains_ident(&self, name: &str) -> bool {
        self.idents.contains(name)
    }

    /// Number of distinct identifiers harvested.
    pub fn len(&self) -> usize {
        self.idents.len()
    }

    /// Whether no identifiers were harvested.
    pub fn is_empty(&self) -> bool {
        self.idents.is_empty()
    }

    /// Iterates over the harvested identifiers in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.idents.iter().map(String::as_str)
    }

    /// Whether a raw token spelling is significant under this set.
    ///
    /// Keywords, numeric literals, and the assignment operators are
    /// significant unconditionally (the paper's "extra keywords" plus the
    /// operators its Fig.-3 example wraps); identifiers are significant
    /// when they appear in the harvested set.
    pub fn is_significant_text(&self, text: &str) -> bool {
        if crate::token::Keyword::from_str(text).is_some() {
            return true;
        }
        if matches!(text, "=" | "<=") {
            return true;
        }
        if text
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_digit() || c == '\'')
        {
            return true;
        }
        self.contains_ident(text)
    }
}

/// The paper's "extra keywords" — constructs that are always significant
/// regardless of whether they appear in a particular AST.
///
/// Exposed for documentation and tests; [`SignificantTokens`] treats every
/// reserved word as significant.
pub const EXTRA_KEYWORDS: &[&str] = &[
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
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn sig_for(src: &str) -> SignificantTokens {
        SignificantTokens::from_source_file(&parse(src).expect("parse"))
    }

    #[test]
    fn collects_fig3_style_tokens() {
        // The paper's Fig. 3 example.
        let sig = sig_for(
            "module data_register(
               input clk,
               input [3:0] data_in,
               output reg [3:0] data_out
             );
               always @(posedge clk) begin
                 data_out <= data_in;
               end
             endmodule",
        );
        for id in ["data_register", "clk", "data_in", "data_out"] {
            assert!(sig.contains_ident(id), "missing {id}");
        }
        // Extra keywords and numbers are significant without being stored.
        assert!(sig.is_significant_text("module"));
        assert!(sig.is_significant_text("posedge"));
        assert!(sig.is_significant_text("3"));
        assert!(sig.is_significant_text("<="));
        assert!(!sig.is_significant_text(","));
        assert!(!sig.is_significant_text("@"));
        assert!(!sig.is_significant_text("unrelated_name"));
    }

    #[test]
    fn collects_from_instances_and_params() {
        let sig = sig_for(
            "module top #(parameter W = 4)(input a, output y);
               sub #(.W(W)) u_sub (.x(a), .z(y));
             endmodule",
        );
        for id in ["top", "W", "sub", "u_sub", "x", "z", "a", "y"] {
            assert!(sig.contains_ident(id), "missing {id}");
        }
    }

    #[test]
    fn collects_from_case_and_loops() {
        let sig = sig_for(
            "module f(input [1:0] s, output reg [3:0] y);
               integer i;
               always @(*) begin
                 case (s)
                   2'b00: y = 4'h1;
                   default: for (i = 0; i < 4; i = i + 1) y[i] = s[0];
                 endcase
               end
             endmodule",
        );
        for id in ["f", "s", "y", "i"] {
            assert!(sig.contains_ident(id), "missing {id}");
        }
    }

    #[test]
    fn extra_keywords_are_all_reserved_words() {
        for kw in EXTRA_KEYWORDS {
            assert!(
                crate::token::Keyword::from_str(kw).is_some(),
                "{kw} must be a lexer keyword"
            );
        }
    }

    #[test]
    fn iter_is_sorted_and_len_matches() {
        let sig = sig_for("module m(input b, a, output c); assign c = a | b; endmodule");
        let v: Vec<&str> = sig.iter().collect();
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(v, sorted);
        assert_eq!(sig.len(), v.len());
        assert!(!sig.is_empty());
    }
}
