//! Recursive-descent parser for the Verilog subset.
//!
//! Expressions use precedence climbing driven by
//! [`BinaryOp::precedence`]; statements and module items are parsed with
//! straightforward one-token lookahead.

use crate::ast::*;
use crate::lexer::lex;
use crate::span::Span;
use crate::token::{Keyword, Token, TokenKind};
use crate::{Error, Result};

/// Parses a complete source file (one or more modules).
///
/// # Errors
///
/// Returns the first lexical or syntactic error encountered.
///
/// # Examples
///
/// ```
/// let file = verispec_verilog::parse(
///     "module top(input a, b, output y); assign y = a & b; endmodule",
/// )?;
/// assert_eq!(file.modules[0].ports.len(), 3);
/// # Ok::<(), verispec_verilog::Error>(())
/// ```
pub fn parse(src: &str) -> Result<SourceFile> {
    parse_tokens(&lex(src)?)
}

/// Parses a source file from its token stream, as [`lex`] (or
/// [`lex_full`](crate::lexer::lex_full)) returns it: a caller that has
/// lexed the source already parses it without lexing it again.
///
/// # Errors
///
/// Returns the first syntactic error, or an error if `tokens` does not
/// end in its one `Eof` token.
pub fn parse_tokens(tokens: &[Token]) -> Result<SourceFile> {
    match tokens.last() {
        Some(t) if t.kind == TokenKind::Eof => Parser::new(tokens).source_file(),
        last => Err(Error::new(
            last.map_or(Span::point(0), |t| t.span),
            "token stream does not end in `Eof`",
        )),
    }
}

/// Parses a single expression, for tests and constant folding helpers.
///
/// # Errors
///
/// Returns an error if the text is not exactly one expression.
pub fn parse_expr(src: &str) -> Result<Expr> {
    let tokens = lex(src)?;
    let mut p = Parser::new(&tokens);
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

struct Parser<'t> {
    tokens: &'t [Token],
    pos: usize,
}

impl<'t> Parser<'t> {
    fn new(tokens: &'t [Token]) -> Self {
        Self { tokens, pos: 0 }
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn at(&self, kind: &TokenKind) -> bool {
        &self.peek().kind == kind
    }

    fn at_keyword(&self, kw: Keyword) -> bool {
        matches!(&self.peek().kind, TokenKind::Keyword(k) if *k == kw)
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_keyword(&mut self, kw: Keyword) -> bool {
        if self.at_keyword(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<Token> {
        if self.at(kind) {
            Ok(self.bump())
        } else {
            let t = self.peek();
            Err(Error::new(
                t.span,
                format!("expected `{}`, found `{}`", kind.text(), t.kind.text()),
            ))
        }
    }

    fn expect_keyword(&mut self, kw: Keyword) -> Result<Token> {
        if self.at_keyword(kw) {
            Ok(self.bump())
        } else {
            let t = self.peek();
            Err(Error::new(
                t.span,
                format!(
                    "expected keyword `{}`, found `{}`",
                    kw.as_str(),
                    t.kind.text()
                ),
            ))
        }
    }

    fn expect_ident(&mut self) -> Result<String> {
        match &self.peek().kind {
            TokenKind::Ident(name) => {
                let name = name.clone();
                self.bump();
                Ok(name)
            }
            other => {
                let span = self.peek().span;
                Err(Error::new(
                    span,
                    format!("expected identifier, found `{}`", other.text()),
                ))
            }
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        if self.at(&TokenKind::Eof) {
            Ok(())
        } else {
            let t = self.peek();
            Err(Error::new(
                t.span,
                format!("expected end of input, found `{}`", t.kind.text()),
            ))
        }
    }

    // ------------------------------------------------------------------
    // Top level
    // ------------------------------------------------------------------

    fn source_file(&mut self) -> Result<SourceFile> {
        let mut modules = Vec::new();
        while !self.at(&TokenKind::Eof) {
            modules.push(self.module()?);
        }
        if modules.is_empty() {
            return Err(Error::new(Span::point(0), "no modules in input"));
        }
        Ok(SourceFile { modules })
    }

    fn module(&mut self) -> Result<Module> {
        self.expect_keyword(Keyword::Module)?;
        let name = self.expect_ident()?;
        let mut module = Module::new(name);

        if self.eat(&TokenKind::Hash) {
            self.expect(&TokenKind::LParen)?;
            loop {
                // `parameter` keyword is optional after the first entry.
                self.eat_keyword(Keyword::Parameter);
                let range = self.optional_range()?;
                let pname = self.expect_ident()?;
                self.expect(&TokenKind::Assign)?;
                let value = self.expr()?;
                module.params.push(ParamDecl {
                    range,
                    name: pname,
                    value,
                });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
        }

        if self.eat(&TokenKind::LParen) {
            if !self.at(&TokenKind::RParen) {
                // Port entries carry the last-seen direction/range forward:
                // `input a, b, output y` declares two inputs and one output.
                let mut last_dir: Option<Direction> = None;
                let mut last_net: Option<NetKind> = None;
                let mut last_signed = false;
                let mut last_range: Option<Range> = None;
                loop {
                    let dir = self.optional_direction();
                    let explicit = dir.is_some();
                    if explicit {
                        last_dir = dir;
                        last_net = None;
                        last_signed = false;
                        last_range = None;
                    }
                    if explicit || last_dir.is_some() {
                        let net = self.optional_net_kind();
                        if net.is_some() {
                            last_net = net;
                        }
                        if self.eat_keyword(Keyword::Signed) {
                            last_signed = true;
                        }
                        if let Some(r) = self.optional_range()? {
                            last_range = Some(r);
                        }
                    }
                    let pname = self.expect_ident()?;
                    module.ports.push(Port {
                        dir: last_dir,
                        net: last_net,
                        signed: last_signed,
                        range: last_range.clone(),
                        name: pname,
                    });
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
            }
            self.expect(&TokenKind::RParen)?;
        }
        self.expect(&TokenKind::Semi)?;

        while !self.at_keyword(Keyword::Endmodule) {
            if self.at(&TokenKind::Eof) {
                let span = self.peek().span;
                return Err(Error::new(span, "missing `endmodule`"));
            }
            module.items.push(self.module_item()?);
        }
        self.expect_keyword(Keyword::Endmodule)?;
        Ok(module)
    }

    fn optional_direction(&mut self) -> Option<Direction> {
        let dir = match &self.peek().kind {
            TokenKind::Keyword(Keyword::Input) => Direction::Input,
            TokenKind::Keyword(Keyword::Output) => Direction::Output,
            TokenKind::Keyword(Keyword::Inout) => Direction::Inout,
            _ => return None,
        };
        self.bump();
        Some(dir)
    }

    fn optional_net_kind(&mut self) -> Option<NetKind> {
        let net = match &self.peek().kind {
            TokenKind::Keyword(Keyword::Wire) => NetKind::Wire,
            TokenKind::Keyword(Keyword::Reg) => NetKind::Reg,
            _ => return None,
        };
        self.bump();
        Some(net)
    }

    fn optional_range(&mut self) -> Result<Option<Range>> {
        if !self.eat(&TokenKind::LBracket) {
            return Ok(None);
        }
        let msb = self.expr()?;
        self.expect(&TokenKind::Colon)?;
        let lsb = self.expr()?;
        self.expect(&TokenKind::RBracket)?;
        Ok(Some(Range { msb, lsb }))
    }

    // ------------------------------------------------------------------
    // Module items
    // ------------------------------------------------------------------

    fn module_item(&mut self) -> Result<Item> {
        let t = self.peek().clone();
        match &t.kind {
            TokenKind::Keyword(Keyword::Input)
            | TokenKind::Keyword(Keyword::Output)
            | TokenKind::Keyword(Keyword::Inout) => self.port_decl_item(),
            TokenKind::Keyword(Keyword::Wire) => self.net_decl_item(),
            TokenKind::Keyword(Keyword::Reg) => self.reg_decl_item(),
            TokenKind::Keyword(Keyword::Integer) => {
                self.bump();
                let names = self.ident_list()?;
                self.expect(&TokenKind::Semi)?;
                Ok(Item::Integer(names))
            }
            TokenKind::Keyword(Keyword::Genvar) => {
                self.bump();
                let names = self.ident_list()?;
                self.expect(&TokenKind::Semi)?;
                Ok(Item::Genvar(names))
            }
            TokenKind::Keyword(Keyword::Parameter) => {
                self.bump();
                let decls = self.param_decl_list()?;
                self.expect(&TokenKind::Semi)?;
                Ok(Item::Param(decls))
            }
            TokenKind::Keyword(Keyword::Localparam) => {
                self.bump();
                let decls = self.param_decl_list()?;
                self.expect(&TokenKind::Semi)?;
                Ok(Item::Localparam(decls))
            }
            TokenKind::Keyword(Keyword::Assign) => {
                self.bump();
                let mut assigns = Vec::new();
                loop {
                    let lhs = self.lvalue()?;
                    self.expect(&TokenKind::Assign)?;
                    let rhs = self.expr()?;
                    assigns.push((lhs, rhs));
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
                self.expect(&TokenKind::Semi)?;
                Ok(Item::Assign(assigns))
            }
            TokenKind::Keyword(Keyword::Always) => {
                self.bump();
                let sensitivity = self.sensitivity()?;
                let body = self.stmt()?;
                Ok(Item::Always(AlwaysBlock { sensitivity, body }))
            }
            TokenKind::Keyword(Keyword::Initial) => {
                self.bump();
                let body = self.stmt()?;
                Ok(Item::Initial(body))
            }
            TokenKind::Ident(_) => self.instance_item(),
            other => Err(Error::new(
                t.span,
                format!("expected module item, found `{}`", other.text()),
            )),
        }
    }

    fn port_decl_item(&mut self) -> Result<Item> {
        let dir = self
            .optional_direction()
            .expect("caller checked direction keyword");
        let net = self.optional_net_kind();
        let signed = self.eat_keyword(Keyword::Signed);
        let range = self.optional_range()?;
        let names = self.ident_list()?;
        self.expect(&TokenKind::Semi)?;
        Ok(Item::PortDecl(PortDecl {
            dir,
            net,
            signed,
            range,
            names,
        }))
    }

    fn net_decl_item(&mut self) -> Result<Item> {
        self.expect_keyword(Keyword::Wire)?;
        let signed = self.eat_keyword(Keyword::Signed);
        let range = self.optional_range()?;
        let mut nets = Vec::new();
        loop {
            let name = self.expect_ident()?;
            let init = if self.eat(&TokenKind::Assign) {
                Some(self.expr()?)
            } else {
                None
            };
            nets.push((name, init));
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::Semi)?;
        Ok(Item::Net(NetDecl {
            signed,
            range,
            nets,
        }))
    }

    fn reg_decl_item(&mut self) -> Result<Item> {
        self.expect_keyword(Keyword::Reg)?;
        let signed = self.eat_keyword(Keyword::Signed);
        let range = self.optional_range()?;
        let mut regs = Vec::new();
        loop {
            let name = self.expect_ident()?;
            let mem = self.optional_range()?;
            let init = if self.eat(&TokenKind::Assign) {
                Some(self.expr()?)
            } else {
                None
            };
            regs.push(RegVar { name, mem, init });
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::Semi)?;
        Ok(Item::Reg(RegDecl {
            signed,
            range,
            regs,
        }))
    }

    fn param_decl_list(&mut self) -> Result<Vec<ParamDecl>> {
        let shared_range = self.optional_range()?;
        let mut decls = Vec::new();
        loop {
            let name = self.expect_ident()?;
            self.expect(&TokenKind::Assign)?;
            let value = self.expr()?;
            decls.push(ParamDecl {
                range: shared_range.clone(),
                name,
                value,
            });
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        Ok(decls)
    }

    fn ident_list(&mut self) -> Result<Vec<String>> {
        let mut names = vec![self.expect_ident()?];
        while self.eat(&TokenKind::Comma) {
            names.push(self.expect_ident()?);
        }
        Ok(names)
    }

    fn instance_item(&mut self) -> Result<Item> {
        let module = self.expect_ident()?;
        let mut params = Vec::new();
        if self.eat(&TokenKind::Hash) {
            self.expect(&TokenKind::LParen)?;
            params = self.connection_list()?;
            self.expect(&TokenKind::RParen)?;
        }
        let name = self.expect_ident()?;
        self.expect(&TokenKind::LParen)?;
        let conns = if self.at(&TokenKind::RParen) {
            Vec::new()
        } else {
            self.connection_list()?
        };
        self.expect(&TokenKind::RParen)?;
        self.expect(&TokenKind::Semi)?;
        Ok(Item::Instance(Instance {
            module,
            params,
            name,
            conns,
        }))
    }

    fn connection_list(&mut self) -> Result<Vec<Connection>> {
        let mut conns = Vec::new();
        loop {
            if self.eat(&TokenKind::Dot) {
                let port = self.expect_ident()?;
                self.expect(&TokenKind::LParen)?;
                let expr = if self.at(&TokenKind::RParen) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(&TokenKind::RParen)?;
                conns.push(Connection::Named(port, expr));
            } else {
                conns.push(Connection::Ordered(self.expr()?));
            }
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        Ok(conns)
    }

    fn sensitivity(&mut self) -> Result<Sensitivity> {
        self.expect(&TokenKind::At)?;
        if self.eat(&TokenKind::Star) {
            return Ok(Sensitivity::Star);
        }
        self.expect(&TokenKind::LParen)?;
        if self.eat(&TokenKind::Star) {
            self.expect(&TokenKind::RParen)?;
            return Ok(Sensitivity::Star);
        }
        let mut events = Vec::new();
        loop {
            let edge = if self.eat_keyword(Keyword::Posedge) {
                Some(Edge::Pos)
            } else if self.eat_keyword(Keyword::Negedge) {
                Some(Edge::Neg)
            } else {
                None
            };
            let signal = self.expect_ident()?;
            events.push(EventExpr { edge, signal });
            if self.eat_keyword(Keyword::Or) || self.eat(&TokenKind::Comma) {
                continue;
            }
            break;
        }
        self.expect(&TokenKind::RParen)?;
        Ok(Sensitivity::List(events))
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn stmt(&mut self) -> Result<Stmt> {
        let t = self.peek().clone();
        match &t.kind {
            TokenKind::Keyword(Keyword::Begin) => {
                self.bump();
                let label = if self.eat(&TokenKind::Colon) {
                    Some(self.expect_ident()?)
                } else {
                    None
                };
                let mut stmts = Vec::new();
                while !self.at_keyword(Keyword::End) {
                    if self.at(&TokenKind::Eof) {
                        return Err(Error::new(self.peek().span, "missing `end`"));
                    }
                    stmts.push(self.stmt()?);
                }
                self.expect_keyword(Keyword::End)?;
                Ok(Stmt::Block { label, stmts })
            }
            TokenKind::Keyword(Keyword::If) => {
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let cond = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                let then_branch = Box::new(self.stmt()?);
                let else_branch = if self.eat_keyword(Keyword::Else) {
                    Some(Box::new(self.stmt()?))
                } else {
                    None
                };
                Ok(Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                })
            }
            TokenKind::Keyword(kw @ (Keyword::Case | Keyword::Casez | Keyword::Casex)) => {
                let kind = match kw {
                    Keyword::Case => CaseKind::Case,
                    Keyword::Casez => CaseKind::Casez,
                    _ => CaseKind::Casex,
                };
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let scrutinee = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                let mut arms = Vec::new();
                let mut default = None;
                while !self.at_keyword(Keyword::Endcase) {
                    if self.at(&TokenKind::Eof) {
                        return Err(Error::new(self.peek().span, "missing `endcase`"));
                    }
                    if self.eat_keyword(Keyword::Default) {
                        self.eat(&TokenKind::Colon);
                        if default.is_some() {
                            return Err(Error::new(t.span, "duplicate `default` arm"));
                        }
                        default = Some(Box::new(self.stmt()?));
                        continue;
                    }
                    let mut labels = vec![self.expr()?];
                    while self.eat(&TokenKind::Comma) {
                        labels.push(self.expr()?);
                    }
                    self.expect(&TokenKind::Colon)?;
                    let body = self.stmt()?;
                    arms.push(CaseArm { labels, body });
                }
                self.expect_keyword(Keyword::Endcase)?;
                Ok(Stmt::Case {
                    kind,
                    scrutinee,
                    arms,
                    default,
                })
            }
            TokenKind::Keyword(Keyword::For) => {
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let init = Box::new(self.assign_stmt_no_semi()?);
                self.expect(&TokenKind::Semi)?;
                let cond = self.expr()?;
                self.expect(&TokenKind::Semi)?;
                let step = Box::new(self.assign_stmt_no_semi()?);
                self.expect(&TokenKind::RParen)?;
                let body = Box::new(self.stmt()?);
                Ok(Stmt::For {
                    init,
                    cond,
                    step,
                    body,
                })
            }
            TokenKind::Keyword(Keyword::While) => {
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let cond = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                let body = Box::new(self.stmt()?);
                Ok(Stmt::While { cond, body })
            }
            TokenKind::Keyword(Keyword::Repeat) => {
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let count = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                let body = Box::new(self.stmt()?);
                Ok(Stmt::Repeat { count, body })
            }
            TokenKind::Semi => {
                self.bump();
                Ok(Stmt::Null)
            }
            TokenKind::Ident(_) | TokenKind::LBrace => {
                let stmt = self.assign_stmt_no_semi()?;
                self.expect(&TokenKind::Semi)?;
                Ok(stmt)
            }
            other => Err(Error::new(
                t.span,
                format!("expected statement, found `{}`", other.text()),
            )),
        }
    }

    /// Parses `lvalue = expr` or `lvalue <= expr` without the trailing `;`,
    /// shared by ordinary assignments and `for` headers.
    fn assign_stmt_no_semi(&mut self) -> Result<Stmt> {
        let lhs = self.lvalue()?;
        if self.eat(&TokenKind::Assign) {
            let rhs = self.expr()?;
            Ok(Stmt::Blocking { lhs, rhs })
        } else if self.eat(&TokenKind::Le) {
            let rhs = self.expr()?;
            Ok(Stmt::NonBlocking { lhs, rhs })
        } else {
            let t = self.peek();
            Err(Error::new(
                t.span,
                format!("expected `=` or `<=`, found `{}`", t.kind.text()),
            ))
        }
    }

    fn lvalue(&mut self) -> Result<LValue> {
        if self.eat(&TokenKind::LBrace) {
            let mut parts = vec![self.lvalue()?];
            while self.eat(&TokenKind::Comma) {
                parts.push(self.lvalue()?);
            }
            self.expect(&TokenKind::RBrace)?;
            return Ok(LValue::Concat(parts));
        }
        let name = self.expect_ident()?;
        if !self.eat(&TokenKind::LBracket) {
            return Ok(LValue::Ident(name));
        }
        let first = self.expr()?;
        if self.eat(&TokenKind::Colon) {
            let lsb = self.expr()?;
            self.expect(&TokenKind::RBracket)?;
            return Ok(LValue::Part(name, Box::new(Range { msb: first, lsb })));
        }
        if self.eat(&TokenKind::PlusColon) {
            let width = self.expr()?;
            self.expect(&TokenKind::RBracket)?;
            return Ok(LValue::IndexedPart {
                name,
                base: Box::new(first),
                width: Box::new(width),
                ascending: true,
            });
        }
        if self.eat(&TokenKind::MinusColon) {
            let width = self.expr()?;
            self.expect(&TokenKind::RBracket)?;
            return Ok(LValue::IndexedPart {
                name,
                base: Box::new(first),
                width: Box::new(width),
                ascending: false,
            });
        }
        self.expect(&TokenKind::RBracket)?;
        Ok(LValue::Bit(name, Box::new(first)))
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    /// Full expression: ternary has the lowest precedence and is
    /// right-associative.
    pub(crate) fn expr(&mut self) -> Result<Expr> {
        let cond = self.binary_expr(0)?;
        if self.eat(&TokenKind::Question) {
            let then_e = self.expr()?;
            self.expect(&TokenKind::Colon)?;
            let else_e = self.expr()?;
            Ok(Expr::Ternary(
                Box::new(cond),
                Box::new(then_e),
                Box::new(else_e),
            ))
        } else {
            Ok(cond)
        }
    }

    fn binary_expr(&mut self, min_prec: u8) -> Result<Expr> {
        let mut lhs = self.unary_expr()?;
        while let Some(op) = self.peek_binary_op() {
            let prec = op.precedence();
            if prec < min_prec {
                break;
            }
            self.bump();
            // All Verilog binary operators are left-associative except `**`.
            let next_min = if op == BinaryOp::Pow { prec } else { prec + 1 };
            let rhs = self.binary_expr(next_min)?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn peek_binary_op(&self) -> Option<BinaryOp> {
        use TokenKind::*;
        Some(match &self.peek().kind {
            Plus => BinaryOp::Add,
            Minus => BinaryOp::Sub,
            Star => BinaryOp::Mul,
            Slash => BinaryOp::Div,
            Percent => BinaryOp::Mod,
            Power => BinaryOp::Pow,
            Shl => BinaryOp::Shl,
            Shr => BinaryOp::Shr,
            AShl => BinaryOp::AShl,
            AShr => BinaryOp::AShr,
            Lt => BinaryOp::Lt,
            Le => BinaryOp::Le,
            Gt => BinaryOp::Gt,
            Ge => BinaryOp::Ge,
            EqEq => BinaryOp::Eq,
            BangEq => BinaryOp::Ne,
            EqEqEq => BinaryOp::CaseEq,
            BangEqEq => BinaryOp::CaseNe,
            Amp => BinaryOp::BitAnd,
            Pipe => BinaryOp::BitOr,
            Caret => BinaryOp::BitXor,
            TildeCaret => BinaryOp::BitXnor,
            AmpAmp => BinaryOp::LogAnd,
            PipePipe => BinaryOp::LogOr,
            _ => return None,
        })
    }

    fn unary_expr(&mut self) -> Result<Expr> {
        use TokenKind::*;
        let op = match &self.peek().kind {
            Plus => Some(UnaryOp::Plus),
            Minus => Some(UnaryOp::Minus),
            Bang => Some(UnaryOp::Not),
            Tilde => Some(UnaryOp::BitNot),
            Amp => Some(UnaryOp::RedAnd),
            Pipe => Some(UnaryOp::RedOr),
            Caret => Some(UnaryOp::RedXor),
            TildeAmp => Some(UnaryOp::RedNand),
            TildePipe => Some(UnaryOp::RedNor),
            TildeCaret => Some(UnaryOp::RedXnor),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let operand = self.unary_expr()?;
            return Ok(Expr::Unary(op, Box::new(operand)));
        }
        self.primary_expr()
    }

    fn primary_expr(&mut self) -> Result<Expr> {
        let t = self.peek().clone();
        match &t.kind {
            TokenKind::Number(raw) => {
                let lit = Literal::parse(raw, t.span)?;
                self.bump();
                Ok(Expr::Number(lit))
            }
            TokenKind::Ident(name) => {
                let name = name.clone();
                self.bump();
                if !self.eat(&TokenKind::LBracket) {
                    return Ok(Expr::Ident(name));
                }
                let first = self.expr()?;
                if self.eat(&TokenKind::Colon) {
                    let lsb = self.expr()?;
                    self.expect(&TokenKind::RBracket)?;
                    return Ok(Expr::Part(name, Box::new(Range { msb: first, lsb })));
                }
                if self.eat(&TokenKind::PlusColon) {
                    let width = self.expr()?;
                    self.expect(&TokenKind::RBracket)?;
                    return Ok(Expr::IndexedPart {
                        name,
                        base: Box::new(first),
                        width: Box::new(width),
                        ascending: true,
                    });
                }
                if self.eat(&TokenKind::MinusColon) {
                    let width = self.expr()?;
                    self.expect(&TokenKind::RBracket)?;
                    return Ok(Expr::IndexedPart {
                        name,
                        base: Box::new(first),
                        width: Box::new(width),
                        ascending: false,
                    });
                }
                self.expect(&TokenKind::RBracket)?;
                Ok(Expr::Bit(name, Box::new(first)))
            }
            TokenKind::SysIdent(name) => {
                let name = name.clone();
                self.bump();
                let mut args = Vec::new();
                if self.eat(&TokenKind::LParen) {
                    if !self.at(&TokenKind::RParen) {
                        args.push(self.expr()?);
                        while self.eat(&TokenKind::Comma) {
                            args.push(self.expr()?);
                        }
                    }
                    self.expect(&TokenKind::RParen)?;
                }
                Ok(Expr::SysCall(name, args))
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::LBrace => {
                self.bump();
                let first = self.expr()?;
                // `{n{a, b}}` replication: first expr followed by `{`.
                if self.at(&TokenKind::LBrace) {
                    self.bump();
                    let mut items = vec![self.expr()?];
                    while self.eat(&TokenKind::Comma) {
                        items.push(self.expr()?);
                    }
                    self.expect(&TokenKind::RBrace)?;
                    self.expect(&TokenKind::RBrace)?;
                    return Ok(Expr::Repeat(Box::new(first), items));
                }
                let mut items = vec![first];
                while self.eat(&TokenKind::Comma) {
                    items.push(self.expr()?);
                }
                self.expect(&TokenKind::RBrace)?;
                Ok(Expr::Concat(items))
            }
            other => Err(Error::new(
                t.span,
                format!("expected expression, found `{}`", other.text()),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_one(src: &str) -> Module {
        let f = parse(src).unwrap_or_else(|e| panic!("parse failed: {e}\nsource: {src}"));
        assert_eq!(f.modules.len(), 1);
        f.modules.into_iter().next().expect("one module")
    }

    #[test]
    fn a_token_stream_without_its_eof_is_an_error() {
        let src = "module m(input a, output y); assign y = a; endmodule";
        let tokens = lex(src).expect("lexes");
        assert_eq!(parse_tokens(&tokens), parse(src));
        let err = parse_tokens(&tokens[..tokens.len() - 1]).expect_err("no Eof");
        assert!(err.message.contains("does not end in `Eof`"), "{err}");
        assert!(parse_tokens(&[]).is_err());
    }

    #[test]
    fn parses_ansi_module() {
        let m = parse_one(
            "module mux2to1(input wire [3:0] a, b, input sel, output [3:0] y);
               assign y = sel ? b : a;
             endmodule",
        );
        assert_eq!(m.name, "mux2to1");
        assert_eq!(m.ports.len(), 4);
        assert_eq!(m.ports[0].dir, Some(Direction::Input));
        assert_eq!(m.ports[1].name, "b");
        assert!(m.ports[1].range.is_some(), "range carries over to `b`");
        assert!(
            m.ports[2].range.is_none(),
            "explicit `input sel` resets range"
        );
        assert_eq!(m.ports[3].dir, Some(Direction::Output));
        assert!(matches!(m.items[0], Item::Assign(_)));
    }

    #[test]
    fn parses_non_ansi_module() {
        let m = parse_one(
            "module f(a, y);
               input a;
               output reg y;
               always @(a) y = ~a;
             endmodule",
        );
        assert_eq!(m.ports.len(), 2);
        assert_eq!(m.ports[0].dir, None);
        assert!(matches!(m.items[0], Item::PortDecl(_)));
        assert!(matches!(
            m.items[1],
            Item::PortDecl(PortDecl {
                net: Some(NetKind::Reg),
                ..
            })
        ));
    }

    #[test]
    fn parses_parameter_header() {
        let m = parse_one(
            "module adder #(parameter W = 8, N = 2)(input [W-1:0] a, output [W-1:0] s);
               assign s = a + N;
             endmodule",
        );
        assert_eq!(m.params.len(), 2);
        assert_eq!(m.params[0].name, "W");
        assert_eq!(m.params[1].name, "N");
    }

    #[test]
    fn parses_always_posedge_with_nonblocking() {
        let m = parse_one(
            "module r(input clk, d, output reg q);
               always @(posedge clk) q <= d;
             endmodule",
        );
        let Item::Always(ab) = &m.items[0] else {
            panic!("expected always")
        };
        let Sensitivity::List(evs) = &ab.sensitivity else {
            panic!("expected list")
        };
        assert_eq!(evs[0].edge, Some(Edge::Pos));
        assert!(matches!(ab.body, Stmt::NonBlocking { .. }));
    }

    #[test]
    fn parses_async_reset_style_sensitivity() {
        let m = parse_one(
            "module r(input clk, rst_n, d, output reg q);
               always @(posedge clk or negedge rst_n)
                 if (!rst_n) q <= 1'b0; else q <= d;
             endmodule",
        );
        let Item::Always(ab) = &m.items[0] else {
            panic!("expected always")
        };
        let Sensitivity::List(evs) = &ab.sensitivity else {
            panic!("expected list")
        };
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[1].edge, Some(Edge::Neg));
    }

    #[test]
    fn parses_star_sensitivity_both_spellings() {
        for src in [
            "module c(input a, output reg y); always @* y = a; endmodule",
            "module c(input a, output reg y); always @(*) y = a; endmodule",
        ] {
            let m = parse_one(src);
            let Item::Always(ab) = &m.items[0] else {
                panic!("expected always")
            };
            assert_eq!(ab.sensitivity, Sensitivity::Star);
        }
    }

    #[test]
    fn parses_case_with_default() {
        let m = parse_one(
            "module alu(input [1:0] op, input [3:0] a, b, output reg [3:0] y);
               always @(*) begin
                 case (op)
                   2'b00: y = a + b;
                   2'b01: y = a - b;
                   2'b10, 2'b11: y = a & b;
                   default: y = 4'b0;
                 endcase
               end
             endmodule",
        );
        let Item::Always(ab) = &m.items[0] else {
            panic!("expected always")
        };
        let Stmt::Block { stmts, .. } = &ab.body else {
            panic!("expected block")
        };
        let Stmt::Case { arms, default, .. } = &stmts[0] else {
            panic!("expected case")
        };
        assert_eq!(arms.len(), 3);
        assert_eq!(arms[2].labels.len(), 2);
        assert!(default.is_some());
    }

    #[test]
    fn parses_for_loop() {
        let m = parse_one(
            "module p(input [7:0] a, output reg [7:0] y);
               integer i;
               always @(*) begin
                 for (i = 0; i < 8; i = i + 1)
                   y[i] = a[7 - i];
               end
             endmodule",
        );
        let Item::Always(ab) = &m.items[1] else {
            panic!("expected always")
        };
        let Stmt::Block { stmts, .. } = &ab.body else {
            panic!("expected block")
        };
        assert!(matches!(stmts[0], Stmt::For { .. }));
    }

    #[test]
    fn parses_memory_declaration() {
        let m = parse_one(
            "module ram(input clk); reg [7:0] mem [0:15]; always @(posedge clk) mem[0] <= 8'h00; endmodule",
        );
        let Item::Reg(rd) = &m.items[0] else {
            panic!("expected reg decl")
        };
        assert!(rd.regs[0].mem.is_some());
    }

    #[test]
    fn parses_instance_with_named_connections() {
        let m = parse_one(
            "module top(input a, b, output y);
               and_gate #(.W(1)) u0 (.x(a), .y(b), .z(y));
             endmodule",
        );
        let Item::Instance(inst) = &m.items[0] else {
            panic!("expected instance")
        };
        assert_eq!(inst.module, "and_gate");
        assert_eq!(inst.name, "u0");
        assert_eq!(inst.params.len(), 1);
        assert_eq!(inst.conns.len(), 3);
    }

    #[test]
    fn parses_instance_with_ordered_connections() {
        let m = parse_one("module top(input a, output y); inv u1 (a, y); endmodule");
        let Item::Instance(inst) = &m.items[0] else {
            panic!("expected instance")
        };
        assert!(matches!(inst.conns[0], Connection::Ordered(_)));
    }

    #[test]
    fn expression_precedence() {
        let e = parse_expr("a + b * c").expect("parse");
        let Expr::Binary(BinaryOp::Add, _, rhs) = e else {
            panic!("expected add at top")
        };
        assert!(matches!(*rhs, Expr::Binary(BinaryOp::Mul, _, _)));
    }

    #[test]
    fn ternary_is_right_associative() {
        let e = parse_expr("a ? b : c ? d : e").expect("parse");
        let Expr::Ternary(_, _, else_e) = e else {
            panic!("expected ternary")
        };
        assert!(matches!(*else_e, Expr::Ternary(_, _, _)));
    }

    #[test]
    fn power_is_right_associative() {
        let e = parse_expr("a ** b ** c").expect("parse");
        let Expr::Binary(BinaryOp::Pow, _, rhs) = e else {
            panic!("expected pow")
        };
        assert!(matches!(*rhs, Expr::Binary(BinaryOp::Pow, _, _)));
    }

    #[test]
    fn reduction_vs_binary_ampersand() {
        let e = parse_expr("a & &b").expect("parse");
        let Expr::Binary(BinaryOp::BitAnd, _, rhs) = e else {
            panic!("expected bitand")
        };
        assert!(matches!(*rhs, Expr::Unary(UnaryOp::RedAnd, _)));
    }

    #[test]
    fn parses_concat_and_repeat() {
        let e = parse_expr("{a, b[0], 2'b01}").expect("parse");
        assert!(matches!(e, Expr::Concat(ref v) if v.len() == 3));
        let e = parse_expr("{4{1'b0}}").expect("parse");
        assert!(matches!(e, Expr::Repeat(_, ref v) if v.len() == 1));
        let e = parse_expr("{2{a, b}}").expect("parse");
        assert!(matches!(e, Expr::Repeat(_, ref v) if v.len() == 2));
    }

    #[test]
    fn parses_part_selects() {
        assert!(matches!(
            parse_expr("a[7:4]").expect("parse"),
            Expr::Part(_, _)
        ));
        assert!(matches!(
            parse_expr("a[i +: 4]").expect("parse"),
            Expr::IndexedPart {
                ascending: true,
                ..
            }
        ));
        assert!(matches!(
            parse_expr("a[i -: 4]").expect("parse"),
            Expr::IndexedPart {
                ascending: false,
                ..
            }
        ));
    }

    #[test]
    fn parses_syscall() {
        let e = parse_expr("$signed(a) >>> 1").expect("parse");
        let Expr::Binary(BinaryOp::AShr, lhs, _) = e else {
            panic!("expected >>>")
        };
        assert!(matches!(*lhs, Expr::SysCall(ref n, _) if n == "$signed"));
    }

    #[test]
    fn concat_lvalue_assignment() {
        let m = parse_one(
            "module s(input [3:0] a, output [1:0] hi, lo);
               assign {hi, lo} = a;
             endmodule",
        );
        let Item::Assign(assigns) = &m.items[0] else {
            panic!("expected assign")
        };
        assert!(matches!(assigns[0].0, LValue::Concat(_)));
    }

    #[test]
    fn error_on_missing_endmodule() {
        assert!(parse("module m(input a);").is_err());
    }

    #[test]
    fn error_on_garbage_item() {
        assert!(parse("module m(); 42; endmodule").is_err());
    }

    #[test]
    fn error_on_empty_input() {
        assert!(parse("").is_err());
        assert!(parse("   // just a comment\n").is_err());
    }

    #[test]
    fn multiple_modules_in_one_file() {
        let f = parse(
            "module a(input x, output y); assign y = x; endmodule
             module b(input x, output y); assign y = ~x; endmodule",
        )
        .expect("parse");
        assert_eq!(f.modules.len(), 2);
    }

    #[test]
    fn initial_block_with_repeat_and_while() {
        let m = parse_one(
            "module t();
               reg [3:0] i;
               initial begin
                 i = 0;
                 repeat (3) i = i + 1;
                 while (i > 0) i = i - 1;
               end
             endmodule",
        );
        assert!(matches!(m.items[1], Item::Initial(_)));
    }

    #[test]
    fn wire_with_initializer() {
        let m = parse_one("module w(input a); wire b = ~a, c; endmodule");
        let Item::Net(nd) = &m.items[0] else {
            panic!("expected net decl")
        };
        assert!(nd.nets[0].1.is_some());
        assert!(nd.nets[1].1.is_none());
    }

    #[test]
    fn localparam_and_parameter_items() {
        let m = parse_one(
            "module p();
               parameter W = 4;
               localparam [1:0] S0 = 2'b00, S1 = 2'b01;
             endmodule",
        );
        assert!(matches!(&m.items[0], Item::Param(ps) if ps.len() == 1));
        assert!(matches!(&m.items[1], Item::Localparam(ps) if ps.len() == 2));
    }

    #[test]
    fn named_begin_block() {
        let m = parse_one("module n(input a); always @(*) begin : blk ; end endmodule");
        let Item::Always(ab) = &m.items[0] else {
            panic!("expected always")
        };
        assert!(matches!(&ab.body, Stmt::Block { label: Some(l), .. } if l == "blk"));
    }
}
