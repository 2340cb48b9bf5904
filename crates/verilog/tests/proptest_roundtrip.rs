//! Property tests: `parse(print(ast)) == ast` on randomly generated ASTs,
//! fragmentize/defragmentize inverse on the printed text, and a printed
//! header tagging the same on its own as at the head of its module.

use proptest::prelude::*;
use verispec_verilog::ast::*;
use verispec_verilog::fragment::{defragmentize, fragmentize};
use verispec_verilog::printer::print_source_file;
use verispec_verilog::{lex, parse};

/// Identifiers drawn from a fixed pool so expressions reference declared
/// names often enough to be realistic.
fn ident_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("a".to_string()),
        Just("b".to_string()),
        Just("sel".to_string()),
        Just("clk".to_string()),
        Just("rst_n".to_string()),
        Just("data_in".to_string()),
        Just("data_out".to_string()),
        Just("count".to_string()),
        Just("state".to_string()),
        "[a-z][a-z0-9_]{0,6}".prop_map(|s| s),
    ]
}

fn literal_strategy() -> impl Strategy<Value = Literal> {
    prop_oneof![
        (0u64..1_000_000).prop_map(Literal::unsized_dec),
        (1u32..=16, any::<u64>()).prop_map(|(w, v)| {
            let mask = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
            Literal::sized(w, Base::Bin, v & mask)
        }),
        (1u32..=16, any::<u64>()).prop_map(|(w, v)| {
            let mask = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
            Literal::sized(w, Base::Hex, v & mask)
        }),
        (1u32..=8, any::<u64>(), any::<u64>()).prop_map(|(w, v, z)| {
            let mask = (1u64 << w) - 1;
            let z_mask = z & mask;
            Literal {
                width: Some(w),
                signed: false,
                base: Base::Bin,
                value: v & mask & !z_mask,
                x_mask: 0,
                z_mask,
            }
        }),
    ]
}

fn expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        literal_strategy().prop_map(Expr::Number),
        ident_strategy().prop_map(Expr::Ident),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            (any::<u8>(), inner.clone()).prop_map(|(op, e)| {
                let ops = [
                    UnaryOp::Minus,
                    UnaryOp::Not,
                    UnaryOp::BitNot,
                    UnaryOp::RedAnd,
                    UnaryOp::RedOr,
                    UnaryOp::RedXor,
                ];
                Expr::Unary(ops[op as usize % ops.len()], Box::new(e))
            }),
            (any::<u8>(), inner.clone(), inner.clone()).prop_map(|(op, a, b)| {
                let ops = [
                    BinaryOp::Add,
                    BinaryOp::Sub,
                    BinaryOp::Mul,
                    BinaryOp::BitAnd,
                    BinaryOp::BitOr,
                    BinaryOp::BitXor,
                    BinaryOp::Shl,
                    BinaryOp::Shr,
                    BinaryOp::Eq,
                    BinaryOp::Lt,
                    BinaryOp::LogAnd,
                    BinaryOp::LogOr,
                ];
                Expr::Binary(ops[op as usize % ops.len()], Box::new(a), Box::new(b))
            }),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, t, f)| Expr::Ternary(
                Box::new(c),
                Box::new(t),
                Box::new(f)
            )),
            (ident_strategy(), inner.clone()).prop_map(|(n, i)| Expr::Bit(n, Box::new(i))),
            (ident_strategy(), 0u64..16, 0u64..16).prop_map(|(n, msb, lsb)| {
                Expr::Part(
                    n,
                    Box::new(Range {
                        msb: Expr::unsized_dec(msb),
                        lsb: Expr::unsized_dec(lsb),
                    }),
                )
            }),
            prop::collection::vec(inner.clone(), 1..4).prop_map(Expr::Concat),
            (1u64..5, prop::collection::vec(inner, 1..3))
                .prop_map(|(n, es)| Expr::Repeat(Box::new(Expr::unsized_dec(n)), es)),
        ]
    })
}

fn lvalue_strategy() -> impl Strategy<Value = LValue> {
    prop_oneof![
        ident_strategy().prop_map(LValue::Ident),
        (ident_strategy(), expr_strategy()).prop_map(|(n, i)| LValue::Bit(n, Box::new(i))),
        (ident_strategy(), 0u64..16, 0u64..16).prop_map(|(n, m, l)| {
            LValue::Part(
                n,
                Box::new(Range {
                    msb: Expr::unsized_dec(m),
                    lsb: Expr::unsized_dec(l),
                }),
            )
        }),
    ]
}

fn stmt_strategy() -> impl Strategy<Value = Stmt> {
    let assign = prop_oneof![
        (lvalue_strategy(), expr_strategy()).prop_map(|(lhs, rhs)| Stmt::Blocking { lhs, rhs }),
        (lvalue_strategy(), expr_strategy()).prop_map(|(lhs, rhs)| Stmt::NonBlocking { lhs, rhs }),
    ];
    assign.prop_recursive(3, 16, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4)
                .prop_map(|stmts| Stmt::Block { label: None, stmts }),
            (
                expr_strategy(),
                inner.clone(),
                prop::option::of(inner.clone())
            )
                .prop_map(|(cond, t, e)| Stmt::If {
                    cond,
                    then_branch: Box::new(t),
                    else_branch: e.map(Box::new),
                }),
            (
                expr_strategy(),
                prop::collection::vec((expr_strategy(), inner.clone()), 1..3)
            )
                .prop_map(|(scrutinee, arms)| Stmt::Case {
                    kind: CaseKind::Case,
                    scrutinee,
                    arms: arms
                        .into_iter()
                        .map(|(l, body)| CaseArm {
                            labels: vec![l],
                            body
                        })
                        .collect(),
                    default: None,
                }),
        ]
    })
}

fn module_strategy() -> impl Strategy<Value = Module> {
    (
        ident_strategy(),
        prop::collection::vec((ident_strategy(), prop::option::of(0u64..32)), 1..5),
        prop::collection::vec(stmt_strategy(), 0..3),
        prop::collection::vec((lvalue_strategy(), expr_strategy()), 0..3),
    )
        .prop_map(|(name, ports, stmts, assigns)| {
            let mut m = Module::new(format!("m_{name}"));
            let n_ports = ports.len();
            for (i, (pname, width)) in ports.into_iter().enumerate() {
                let dir = if i + 1 == n_ports {
                    Direction::Output
                } else {
                    Direction::Input
                };
                let range = width.map(|w| Range::constant(w, 0));
                // Deduplicate port names by position suffix.
                m.ports.push(Port::ansi(dir, range, format!("{pname}_{i}")));
            }
            for (i, stmt) in stmts.into_iter().enumerate() {
                m.items.push(Item::Always(AlwaysBlock {
                    sensitivity: if i % 2 == 0 {
                        Sensitivity::Star
                    } else {
                        Sensitivity::List(vec![EventExpr {
                            edge: Some(Edge::Pos),
                            signal: "clk".into(),
                        }])
                    },
                    body: stmt,
                }));
            }
            if !assigns.is_empty() {
                m.items.push(Item::Assign(assigns));
            }
            m
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn print_parse_round_trip(m in module_strategy()) {
        let file = SourceFile { modules: vec![m] };
        let printed = print_source_file(&file);
        let reparsed = parse(&printed)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
        // Compared modulo single-statement block insertion: the printer may
        // add `begin`/`end` to defuse the dangling-else ambiguity.
        prop_assert_eq!(reparsed.normalized(), file.normalized(), "printed:\n{}", printed);
    }

    #[test]
    fn fragment_round_trip(m in module_strategy()) {
        let file = SourceFile { modules: vec![m] };
        let printed = print_source_file(&file);
        let tagged = fragmentize(&printed).expect("fragmentize");
        prop_assert_eq!(defragmentize(&tagged), printed);
    }

    #[test]
    fn a_header_tags_as_the_head_of_its_module(m in module_strategy()) {
        let printed = print_source_file(&SourceFile { modules: vec![m.clone()] });
        let bare = SourceFile { modules: vec![Module { items: Vec::new(), ..m }] };
        let printed_bare = print_source_file(&bare);
        let header = printed_bare.strip_suffix("endmodule\n").expect("printed module ends");
        let tagged_header = fragmentize(header).expect("fragmentize header");
        let tagged = fragmentize(&printed).expect("fragmentize");
        prop_assert!(
            tagged.starts_with(&tagged_header),
            "header:\n{}\nmodule:\n{}",
            tagged_header,
            tagged
        );
    }

    #[test]
    fn expr_round_trip(e in expr_strategy()) {
        let s = verispec_verilog::printer::expr_str(&e);
        let reparsed = verispec_verilog::parser::parse_expr(&s)
            .unwrap_or_else(|err| panic!("reparse failed: {err}\n{s}"));
        prop_assert_eq!(reparsed, e, "printed: {}", s);
    }

    #[test]
    fn lexer_never_panics_on_ascii(s in "[ -~\n\t]{0,200}") {
        let _ = lex(&s);
    }

    #[test]
    fn parser_never_panics_on_ascii(s in "[ -~\n\t]{0,200}") {
        let _ = parse(&s);
    }

    #[test]
    fn literal_source_round_trip(l in literal_strategy()) {
        let s = l.to_source();
        let reparsed = Literal::parse(&s, verispec_verilog::Span::point(0))
            .unwrap_or_else(|e| panic!("reparse failed: {e} for `{s}`"));
        prop_assert_eq!(reparsed, l, "printed: {}", s);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lexer_never_panics_on_unicode(s in "\\PC{0,160}") {
        let _ = lex(&s);
    }

    #[test]
    fn parser_never_panics_on_unicode(s in "\\PC{0,160}") {
        let _ = parse(&s);
    }
}

#[test]
fn lexer_rejects_multibyte_gracefully() {
    // The exact failure mode seen in generated text: a replacement char
    // mid-module. Must error, not panic.
    let src = "module m(input a);\n assign y = i[\u{FFFD}D other];\nendmodule";
    let err = lex(src).expect_err("must reject");
    assert!(err.message.contains("unexpected character"));
}
