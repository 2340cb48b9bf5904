//! Canonical pretty-printer for the AST.
//!
//! The printer emits parseable Verilog with stable formatting; together
//! with the parser it satisfies the round-trip property
//! `parse(print(ast)) == ast`, which the corpus generators and the
//! fragmenter rely on.

use crate::ast::*;
use std::fmt::Write as _;

/// Pretty-prints a whole source file.
///
/// # Examples
///
/// ```
/// use verispec_verilog::{parse, print_source_file};
/// let file = parse("module inv(input a,output y);assign y=~a;endmodule")?;
/// let printed = print_source_file(&file);
/// assert!(printed.contains("assign y = ~a;"));
/// // Round trip is stable:
/// assert_eq!(parse(&printed)?, file);
/// # Ok::<(), verispec_verilog::Error>(())
/// ```
pub fn print_source_file(file: &SourceFile) -> String {
    let mut out = String::new();
    for (i, m) in file.modules.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        print_module_into(m, &mut out);
    }
    out
}

fn print_module_into(m: &Module, out: &mut String) {
    out.push_str("module ");
    out.push_str(&m.name);
    if !m.params.is_empty() {
        out.push_str(" #(\n");
        for (i, p) in m.params.iter().enumerate() {
            out.push_str("    parameter ");
            if let Some(r) = &p.range {
                let _ = write!(out, "{} ", range_str(r));
            }
            let _ = write!(out, "{} = {}", p.name, expr_str(&p.value));
            out.push_str(if i + 1 < m.params.len() { ",\n" } else { "\n" });
        }
        out.push(')');
    }
    if !m.ports.is_empty() {
        out.push_str(" (\n");
        for (i, p) in m.ports.iter().enumerate() {
            out.push_str("    ");
            out.push_str(&port_str(p));
            out.push_str(if i + 1 < m.ports.len() { ",\n" } else { "\n" });
        }
        out.push(')');
    }
    out.push_str(";\n");
    for item in &m.items {
        print_item(item, 1, out);
    }
    out.push_str("endmodule\n");
}

fn indent(level: usize, out: &mut String) {
    for _ in 0..level {
        out.push_str("    ");
    }
}

fn port_str(p: &Port) -> String {
    let mut s = String::new();
    if let Some(d) = p.dir {
        s.push_str(d.as_str());
        s.push(' ');
    }
    if let Some(net) = p.net {
        s.push_str(match net {
            NetKind::Wire => "wire ",
            NetKind::Reg => "reg ",
        });
    }
    if p.signed {
        s.push_str("signed ");
    }
    if let Some(r) = &p.range {
        s.push_str(&range_str(r));
        s.push(' ');
    }
    s.push_str(&p.name);
    s
}

fn range_str(r: &Range) -> String {
    format!("[{}:{}]", expr_str(&r.msb), expr_str(&r.lsb))
}

fn print_item(item: &Item, level: usize, out: &mut String) {
    indent(level, out);
    match item {
        Item::Net(nd) => {
            out.push_str("wire ");
            if nd.signed {
                out.push_str("signed ");
            }
            if let Some(r) = &nd.range {
                let _ = write!(out, "{} ", range_str(r));
            }
            for (i, (name, init)) in nd.nets.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(name);
                if let Some(e) = init {
                    let _ = write!(out, " = {}", expr_str(e));
                }
            }
            out.push_str(";\n");
        }
        Item::Reg(rd) => {
            out.push_str("reg ");
            if rd.signed {
                out.push_str("signed ");
            }
            if let Some(r) = &rd.range {
                let _ = write!(out, "{} ", range_str(r));
            }
            for (i, rv) in rd.regs.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&rv.name);
                if let Some(mem) = &rv.mem {
                    let _ = write!(out, " {}", range_str(mem));
                }
                if let Some(init) = &rv.init {
                    let _ = write!(out, " = {}", expr_str(init));
                }
            }
            out.push_str(";\n");
        }
        Item::Integer(names) => {
            let _ = writeln!(out, "integer {};", names.join(", "));
        }
        Item::Genvar(names) => {
            let _ = writeln!(out, "genvar {};", names.join(", "));
        }
        Item::Param(decls) | Item::Localparam(decls) => {
            out.push_str(if matches!(item, Item::Param(_)) {
                "parameter "
            } else {
                "localparam "
            });
            if let Some(r) = decls.first().and_then(|d| d.range.as_ref()) {
                let _ = write!(out, "{} ", range_str(r));
            }
            for (i, d) in decls.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{} = {}", d.name, expr_str(&d.value));
            }
            out.push_str(";\n");
        }
        Item::Assign(assigns) => {
            out.push_str("assign ");
            for (i, (lhs, rhs)) in assigns.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{} = {}", lvalue_str(lhs), expr_str(rhs));
            }
            out.push_str(";\n");
        }
        Item::Always(ab) => {
            out.push_str("always ");
            match &ab.sensitivity {
                Sensitivity::Star => out.push_str("@(*)"),
                Sensitivity::List(evs) => {
                    out.push_str("@(");
                    for (i, ev) in evs.iter().enumerate() {
                        if i > 0 {
                            out.push_str(" or ");
                        }
                        if let Some(edge) = ev.edge {
                            out.push_str(match edge {
                                Edge::Pos => "posedge ",
                                Edge::Neg => "negedge ",
                            });
                        }
                        out.push_str(&ev.signal);
                    }
                    out.push(')');
                }
            }
            out.push(' ');
            print_stmt(&ab.body, level, true, out);
        }
        Item::Initial(body) => {
            out.push_str("initial ");
            print_stmt(body, level, true, out);
        }
        Item::Instance(inst) => {
            out.push_str(&inst.module);
            if !inst.params.is_empty() {
                out.push_str(" #(");
                print_connections(&inst.params, out);
                out.push(')');
            }
            let _ = write!(out, " {} (", inst.name);
            print_connections(&inst.conns, out);
            out.push_str(");\n");
        }
        Item::PortDecl(pd) => {
            out.push_str(pd.dir.as_str());
            out.push(' ');
            if let Some(net) = pd.net {
                out.push_str(match net {
                    NetKind::Wire => "wire ",
                    NetKind::Reg => "reg ",
                });
            }
            if pd.signed {
                out.push_str("signed ");
            }
            if let Some(r) = &pd.range {
                let _ = write!(out, "{} ", range_str(r));
            }
            out.push_str(&pd.names.join(", "));
            out.push_str(";\n");
        }
    }
}

fn print_connections(conns: &[Connection], out: &mut String) {
    for (i, c) in conns.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        match c {
            Connection::Ordered(e) => out.push_str(&expr_str(e)),
            Connection::Named(port, Some(e)) => {
                let _ = write!(out, ".{}({})", port, expr_str(e));
            }
            Connection::Named(port, None) => {
                let _ = write!(out, ".{}()", port);
            }
        }
    }
}

/// Prints `stmt`; `inline_head` is true when the caller already emitted
/// indentation and a prefix (e.g. `always @(posedge clk) `).
fn print_stmt(stmt: &Stmt, level: usize, inline_head: bool, out: &mut String) {
    if !inline_head {
        indent(level, out);
    }
    match stmt {
        Stmt::Block { label, stmts } => {
            out.push_str("begin");
            if let Some(l) = label {
                let _ = write!(out, " : {l}");
            }
            out.push('\n');
            for s in stmts {
                print_stmt(s, level + 1, false, out);
            }
            indent(level, out);
            out.push_str("end\n");
        }
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => {
            let _ = write!(out, "if ({})", expr_str(cond));
            // Guard against the dangling-else ambiguity: if the then branch
            // ends in an else-less `if`, a following `else` would re-attach
            // to it on reparse, so wrap the branch in `begin`/`end`.
            if else_branch.is_some() && then_branch.has_dangling_if_tail() {
                out.push_str(" begin\n");
                print_stmt(then_branch, level + 1, false, out);
                indent(level, out);
                out.push_str("end\n");
            } else {
                print_branch(then_branch, level, out);
            }
            if let Some(els) = else_branch {
                indent(level, out);
                out.push_str("else");
                print_branch(els, level, out);
            }
        }
        Stmt::Case {
            kind,
            scrutinee,
            arms,
            default,
        } => {
            let _ = writeln!(out, "{} ({})", kind.as_str(), expr_str(scrutinee));
            for arm in arms {
                indent(level + 1, out);
                let labels: Vec<String> = arm.labels.iter().map(expr_str).collect();
                let _ = write!(out, "{}:", labels.join(", "));
                print_branch(&arm.body, level + 1, out);
            }
            if let Some(d) = default {
                indent(level + 1, out);
                out.push_str("default:");
                print_branch(d, level + 1, out);
            }
            indent(level, out);
            out.push_str("endcase\n");
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
        } => {
            let _ = write!(
                out,
                "for ({}; {}; {})",
                assign_str(init),
                expr_str(cond),
                assign_str(step)
            );
            print_branch(body, level, out);
        }
        Stmt::While { cond, body } => {
            let _ = write!(out, "while ({})", expr_str(cond));
            print_branch(body, level, out);
        }
        Stmt::Repeat { count, body } => {
            let _ = write!(out, "repeat ({})", expr_str(count));
            print_branch(body, level, out);
        }
        Stmt::Blocking { lhs, rhs } => {
            let _ = writeln!(out, "{} = {};", lvalue_str(lhs), expr_str(rhs));
        }
        Stmt::NonBlocking { lhs, rhs } => {
            let _ = writeln!(out, "{} <= {};", lvalue_str(lhs), expr_str(rhs));
        }
        Stmt::Null => out.push_str(";\n"),
    }
}

/// Prints a statement that hangs off a control header: blocks continue on
/// the same line, other statements go on the next line indented.
fn print_branch(stmt: &Stmt, level: usize, out: &mut String) {
    if matches!(stmt, Stmt::Block { .. }) {
        out.push(' ');
        print_stmt(stmt, level, true, out);
    } else {
        out.push('\n');
        print_stmt(stmt, level + 1, false, out);
    }
}

/// Renders a blocking/non-blocking assignment without the trailing `;`,
/// for `for (...)` headers.
fn assign_str(stmt: &Stmt) -> String {
    match stmt {
        Stmt::Blocking { lhs, rhs } => format!("{} = {}", lvalue_str(lhs), expr_str(rhs)),
        Stmt::NonBlocking { lhs, rhs } => format!("{} <= {}", lvalue_str(lhs), expr_str(rhs)),
        other => panic!("for-header statement must be an assignment, got {other:?}"),
    }
}

/// Renders an l-value.
pub fn lvalue_str(lv: &LValue) -> String {
    match lv {
        LValue::Ident(n) => n.clone(),
        LValue::Bit(n, i) => format!("{}[{}]", n, expr_str(i)),
        LValue::Part(n, r) => format!("{}{}", n, range_str(r)),
        LValue::IndexedPart {
            name,
            base,
            width,
            ascending,
        } => format!(
            "{}[{} {}: {}]",
            name,
            expr_str(base),
            if *ascending { "+" } else { "-" },
            expr_str(width)
        ),
        LValue::Concat(parts) => {
            let inner: Vec<String> = parts.iter().map(lvalue_str).collect();
            format!("{{{}}}", inner.join(", "))
        }
    }
}

/// Renders an expression with minimal parentheses.
pub fn expr_str(e: &Expr) -> String {
    expr_prec(e, 0)
}

/// Renders `e`; wraps in parentheses when its precedence is below
/// `min_prec` (the binding power required by the surrounding context).
fn expr_prec(e: &Expr, min_prec: u8) -> String {
    match e {
        Expr::Number(l) => l.to_source(),
        Expr::Ident(n) => n.clone(),
        Expr::Unary(op, inner) => {
            // Unary binds tighter than all binary operators (prec 12).
            let inner_s = expr_prec(inner, 12);
            // Avoid `- -x` gluing into `--x` ambiguity and `&&` from `& &x`.
            let sep = if needs_space(op, inner) { " " } else { "" };
            let s = format!("{}{}{}", op.as_str(), sep, inner_s);
            if min_prec > 12 {
                format!("({s})")
            } else {
                s
            }
        }
        Expr::Binary(op, a, b) => {
            let prec = op.precedence();
            // Left-assoc: left child may be same precedence; right child
            // must bind tighter. `**` is the mirror image.
            let (lmin, rmin) = if *op == BinaryOp::Pow {
                (prec + 1, prec)
            } else {
                (prec, prec + 1)
            };
            let s = format!(
                "{} {} {}",
                expr_prec(a, lmin),
                op.as_str(),
                expr_prec(b, rmin)
            );
            if prec < min_prec {
                format!("({s})")
            } else {
                s
            }
        }
        Expr::Ternary(c, t, f) => {
            // Ternary has the lowest precedence; parenthesize unless at
            // the top of an expression context.
            let s = format!(
                "{} ? {} : {}",
                expr_prec(c, 1),
                expr_prec(t, 0),
                expr_prec(f, 0)
            );
            if min_prec > 0 {
                format!("({s})")
            } else {
                s
            }
        }
        Expr::Bit(n, i) => format!("{}[{}]", n, expr_str(i)),
        Expr::Part(n, r) => format!("{}{}", n, range_str(r)),
        Expr::IndexedPart {
            name,
            base,
            width,
            ascending,
        } => format!(
            "{}[{} {}: {}]",
            name,
            expr_str(base),
            if *ascending { "+" } else { "-" },
            expr_str(width)
        ),
        Expr::Concat(items) => {
            let inner: Vec<String> = items.iter().map(expr_str).collect();
            format!("{{{}}}", inner.join(", "))
        }
        Expr::Repeat(n, items) => {
            let inner: Vec<String> = items.iter().map(expr_str).collect();
            format!("{{{}{{{}}}}}", expr_prec(n, 12), inner.join(", "))
        }
        Expr::SysCall(name, args) => {
            let inner: Vec<String> = args.iter().map(expr_str).collect();
            format!("{}({})", name, inner.join(", "))
        }
    }
}

/// Whether a space is needed between a unary operator and its operand to
/// avoid re-lexing as a different token (`- -x`, `& &x`, `~ ~x`).
fn needs_space(op: &UnaryOp, inner: &Expr) -> bool {
    if let Expr::Unary(inner_op, _) = inner {
        let a = op.as_str();
        let b = inner_op.as_str();
        // Conservative: same leading char or concatenation forms a longer op.
        let glued = format!("{a}{b}");
        a.ends_with(b.chars().next().unwrap_or(' '))
            || matches!(
                glued.as_str(),
                "&&" | "||" | "~&" | "~|" | "~^" | "^~" | "**"
            )
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse, parse_expr};

    fn round_trip(src: &str) {
        let file = parse(src).unwrap_or_else(|e| panic!("parse failed: {e}\n{src}"));
        let printed = print_source_file(&file);
        let reparsed = parse(&printed).unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
        assert_eq!(reparsed, file, "round trip changed the AST:\n{printed}");
    }

    #[test]
    fn round_trips_mux() {
        round_trip(
            "module mux2to1(input [3:0] a, b, input sel, output [3:0] y);
               assign y = sel ? b : a;
             endmodule",
        );
    }

    #[test]
    fn round_trips_register_with_reset() {
        round_trip(
            "module dff(input clk, rst_n, d, output reg q);
               always @(posedge clk or negedge rst_n)
                 if (!rst_n) q <= 1'b0;
                 else q <= d;
             endmodule",
        );
    }

    #[test]
    fn round_trips_alu_case() {
        round_trip(
            "module alu(input [1:0] op, input [3:0] a, b, output reg [3:0] y);
               always @(*) case (op)
                 2'b00: y = a + b;
                 2'b01: y = a - b;
                 default: y = 4'h0;
               endcase
             endmodule",
        );
    }

    #[test]
    fn round_trips_for_loop_and_memory() {
        round_trip(
            "module fifo(input clk);
               reg [7:0] mem [0:15];
               integer i;
               initial begin
                 for (i = 0; i < 16; i = i + 1) mem[i] = 8'h00;
               end
             endmodule",
        );
    }

    #[test]
    fn round_trips_instances() {
        round_trip(
            "module top(input a, b, output y);
               wire w;
               and2 #(.W(1)) u0 (.x(a), .y(b), .z(w));
               inv u1 (w, y);
             endmodule",
        );
    }

    #[test]
    fn round_trips_parameters() {
        round_trip(
            "module p #(parameter W = 8, D = 16)(input [W-1:0] a, output [W-1:0] y);
               localparam HALF = D / 2;
               assign y = a + HALF;
             endmodule",
        );
    }

    #[test]
    fn round_trips_concat_repeat_partselect() {
        round_trip(
            "module c(input [7:0] a, output [15:0] y, output [3:0] z);
               assign y = {2{a}};
               assign z = a[5 +: 4] ^ a[7 -: 4] ^ {a[0], a[1], a[2], a[3]};
             endmodule",
        );
    }

    #[test]
    fn parenthesizes_by_precedence() {
        let e = parse_expr("(a + b) * c").expect("parse");
        assert_eq!(expr_str(&e), "(a + b) * c");
        let e = parse_expr("a + b * c").expect("parse");
        assert_eq!(expr_str(&e), "a + b * c");
    }

    #[test]
    fn nested_ternary_prints_parseably() {
        let e = parse_expr("a ? b : c ? d : e").expect("parse");
        let s = expr_str(&e);
        let e2 = parse_expr(&s).expect("reparse");
        assert_eq!(e, e2);
    }

    #[test]
    fn ternary_inside_binary_is_parenthesized() {
        let e = Expr::Binary(
            BinaryOp::Add,
            Box::new(parse_expr("a ? b : c").expect("parse")),
            Box::new(Expr::ident("d")),
        );
        let s = expr_str(&e);
        assert_eq!(parse_expr(&s).expect("reparse"), e);
        assert!(s.starts_with('('), "ternary under + must be wrapped: {s}");
    }

    #[test]
    fn double_negation_keeps_space() {
        let e = parse_expr("- -a").expect("parse");
        let s = expr_str(&e);
        assert_eq!(parse_expr(&s).expect("reparse"), e, "printed: {s}");
    }

    #[test]
    fn reduction_after_bitand_keeps_space() {
        let e = parse_expr("a & &b").expect("parse");
        let s = expr_str(&e);
        assert_eq!(parse_expr(&s).expect("reparse"), e, "printed: {s}");
    }

    #[test]
    fn shift_of_sum_needs_no_parens() {
        // Verilog gives `+` higher precedence than `<<`, so the printer may
        // legally drop the parentheses; the AST must survive the trip.
        let e = parse_expr("(a + b) << 1").expect("parse");
        let s = expr_str(&e);
        assert_eq!(s, "a + b << 1");
        assert_eq!(parse_expr(&s).expect("reparse"), e);
        // The converse direction does need them.
        let e = parse_expr("a + (b << 1)").expect("parse");
        let s = expr_str(&e);
        assert_eq!(s, "a + (b << 1)");
        assert_eq!(parse_expr(&s).expect("reparse"), e);
    }
}
