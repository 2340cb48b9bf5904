//! The judge under wrong answers: every single-site mutant of a
//! reference that changes what the design computes must fail.
//!
//! Each reference completion is lexed, and every site after its module
//! header (a completion that starts with `module` has its header up to
//! the first `;`) makes one mutant per replacement:
//!
//! * a binary or reduction operator becomes each other member of its
//!   group: `&` `|` `^`; `+` `-`; `==` `!=`; `<` `<=`; `>` `>=`; `<<`
//!   `>>` (a `<=` outside parentheses is a non-blocking assignment and
//!   is left alone);
//! * a `~` is dropped (`~^` becomes `^`);
//! * `1'b0` and `1'b1` trade places;
//! * `posedge` becomes `negedge`;
//! * the operand after a `?` is inverted: `? x` becomes `? ~x`.
//!
//! Every mutant is judged at one seed. Each must come back as a verdict,
//! never a panic; each `posedge` → `negedge` mutant must fail, since
//! the judge compares a clocked design at its active edge. The mutants
//! that pass must be exactly [`SURVIVORS`]: each is named by its problem
//! and its mutated line, with the reason it passes. A mutant that starts
//! to fail leaves the list stale, and one that starts to pass is a hole
//! in the judge; both fail the test. The mutation score is printed.

use std::panic::{catch_unwind, AssertUnwindSafe};

use verispec_eval::benchmarks::{rtllm_sim, vgen_sim, Problem};
use verispec_eval::judge::{judge, Verdict};
use verispec_verilog::{lex, Keyword, TokenKind};

/// The stimulus seed every mutant is judged at.
const SEED: u64 = 0xBEEF;

/// The mutants that pass the judge, by problem and mutated line, with
/// why. Equivalent mutants compute what the reference computes on every
/// input the interface allows; open survivors compute something else
/// that the judge does not yet see.
const SURVIVORS: &[(&str, &str, &str)] = &[
    (
        "rtllm_11_bit_reverse",
        "for (i = 0; i <= 5; i = i + 1)",
        "equivalent: the extra pass writes `dout[5]`, which does not exist, so the write is dropped",
    ),
    (
        "rtllm_12_popcount",
        "for (i = 0; i <= 5; i = i + 1)",
        "equivalent here: the extra pass adds `din[5]`, past the top bit, which a 2-state \
         simulator reads as 0",
    ),
    (
        "rtllm_14_absdiff",
        "assign y = (a >= b) ? (a - b) : (b - a);",
        "equivalent: the tie `a == b` gives 0 on either arm",
    ),
    (
        "rtllm_15_minmax",
        "assign min_val = (a <= b) ? a : b;",
        "equivalent: on the tie `a == b` both arms are the same value",
    ),
    (
        "rtllm_15_minmax",
        "assign max_val = (a <= b) ? b : a;",
        "equivalent: on the tie `a == b` both arms are the same value",
    ),
    (
        "rtllm_17_majority",
        "assign y = (a & b) ^ (a & c) | (b & c);",
        "equivalent: `a & b` and `a & c` are both 1 only when `b & c` is 1 too",
    ),
    (
        "rtllm_17_majority",
        "assign y = (a & b) | (a & c) ^ (b & c);",
        "equivalent: `a & c` and `b & c` are both 1 only when `a & b` is 1 too",
    ),
    (
        "rtllm_24_edge_detector",
        "prev <= 1'b1;",
        "open (ROADMAP item 19(b)): the reset state is never compared, and the first edge after \
         reset overwrites it",
    ),
    (
        "rtllm_24_edge_detector",
        "pulse <= 1'b1;",
        "open (ROADMAP item 19(b)): the reset state is never compared, and the first edge after \
         reset overwrites it",
    ),
    (
        "rtllm_25_clock_divider",
        "tick <= 1'b1;",
        "open (ROADMAP item 19(b)): the reset state is never compared, and the first edge after \
         reset overwrites it",
    ),
    (
        "rtllm_26_fsm_detector",
        "S_101:  state <= din ? ~S_1 : S_10;",
        "open (ROADMAP item 19(c)): `~S_1` is `S_10`, so a 1 after a detection goes to `S_10`; \
         the 24 random vectors never follow that with the 0 1 that tells the two apart",
    ),
    (
        "rtllm_28_pwm",
        "pwm_out <= 1'b1;",
        "open (ROADMAP item 19(b)): the reset state is never compared, and the first edge after \
         reset overwrites it",
    ),
    (
        "vgen_11_bit_reverse",
        "for (i = 0; i <= 8; i = i + 1)",
        "equivalent: the extra pass writes `dout[8]`, which does not exist, so the write is dropped",
    ),
    (
        "vgen_12_popcount",
        "for (i = 0; i <= 4; i = i + 1)",
        "equivalent here: the extra pass adds `din[4]`, past the top bit, which a 2-state \
         simulator reads as 0",
    ),
    (
        "vgen_14_absdiff",
        "assign y = (a >= b) ? (a - b) : (b - a);",
        "equivalent: the tie `a == b` gives 0 on either arm",
    ),
    (
        "vgen_15_minmax",
        "assign min_val = (a <= b) ? a : b;",
        "equivalent: on the tie `a == b` both arms are the same value",
    ),
    (
        "vgen_15_minmax",
        "assign max_val = (a <= b) ? b : a;",
        "equivalent: on the tie `a == b` both arms are the same value",
    ),
];

/// One single-site mutant of a reference completion.
struct Mutant {
    problem: String,
    /// Which replacement made it, e.g. "`<` → `<=`".
    kind: String,
    code: String,
    /// The mutated line, trimmed.
    line: String,
}

/// The reference source less what the prompt already supplies.
fn reference_completion(p: &Problem) -> &str {
    let source = &p.module.source;
    source.strip_prefix(p.completion_prefix()).unwrap_or(source)
}

/// The operators a binary or reduction operator is swapped with.
fn swaps(kind: &TokenKind) -> &'static [&'static str] {
    match kind {
        TokenKind::Amp => &["|", "^"],
        TokenKind::Pipe => &["&", "^"],
        TokenKind::Caret => &["&", "|"],
        TokenKind::Plus => &["-"],
        TokenKind::Minus => &["+"],
        TokenKind::EqEq => &["!="],
        TokenKind::BangEq => &["=="],
        TokenKind::Lt => &["<="],
        TokenKind::Le => &["<"],
        TokenKind::Gt => &[">="],
        TokenKind::Ge => &[">"],
        TokenKind::Shl => &[">>"],
        TokenKind::Shr => &["<<"],
        _ => &[],
    }
}

/// Every single-site mutant of `p`'s reference completion.
fn mutants(p: &Problem) -> Vec<Mutant> {
    let code = reference_completion(p);
    let tokens = lex(code).expect("a reference lexes");
    let body = if matches!(tokens[0].kind, TokenKind::Keyword(Keyword::Module)) {
        1 + tokens
            .iter()
            .position(|t| t.kind == TokenKind::Semi)
            .expect("a header ends in `;`")
    } else {
        0
    };
    let mut out = Vec::new();
    // Replaces `start..end` by `by`; `kind` names the replacement.
    let mut edit = |start: usize, end: usize, by: &str, kind: String| {
        let mut mutated = code.to_string();
        mutated.replace_range(start..end, by);
        let line_start = code[..start].rfind('\n').map_or(0, |i| i + 1);
        let after = start + by.len();
        let line_end = mutated[after..]
            .find('\n')
            .map_or(mutated.len(), |i| after + i);
        out.push(Mutant {
            problem: p.id.clone(),
            kind,
            line: mutated[line_start..line_end].trim().to_string(),
            code: mutated,
        });
    };
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate() {
        let (start, end) = (t.span.start, t.span.end);
        match &t.kind {
            TokenKind::LParen => depth += 1,
            TokenKind::RParen => depth = depth.saturating_sub(1),
            _ => {}
        }
        if i < body {
            continue;
        }
        let mut replace =
            |by: &str| edit(start, end, by, format!("`{}` → `{by}`", &code[start..end]));
        match &t.kind {
            TokenKind::Le if depth == 0 => {}
            TokenKind::Tilde => replace(""),
            TokenKind::TildeCaret => replace("^"),
            TokenKind::TildeAmp => replace("&"),
            TokenKind::TildePipe => replace("|"),
            TokenKind::Number(n) if n == "1'b0" => replace("1'b1"),
            TokenKind::Number(n) if n == "1'b1" => replace("1'b0"),
            TokenKind::Keyword(Keyword::Posedge) => replace("negedge"),
            TokenKind::Question => {
                let operand = tokens[i + 1].span.start;
                edit(operand, operand, "~", "`? x` → `? ~x`".into());
            }
            kind => {
                for by in swaps(kind) {
                    replace(by);
                }
            }
        }
    }
    out
}

#[test]
fn single_site_mutants_fail_except_the_listed_survivors() {
    let mut problems = 0;
    let mut all = Vec::new();
    for bench in [rtllm_sim(), vgen_sim()] {
        for p in &bench.problems {
            let made = mutants(p);
            problems += usize::from(!made.is_empty());
            for m in made {
                let verdict = catch_unwind(AssertUnwindSafe(|| judge(&m.code, p, SEED)))
                    .unwrap_or_else(|_| panic!("{}: {} panicked the judge", m.problem, m.kind));
                all.push((m, verdict));
            }
        }
    }
    let (mut syntax, mut functional, mut negedge) = (0, 0, 0);
    let mut survivors = Vec::new();
    for (m, verdict) in &all {
        let on_negedge = m.kind == "`posedge` → `negedge`";
        negedge += usize::from(on_negedge);
        match verdict {
            Verdict::SyntaxFail(_) => syntax += 1,
            Verdict::FunctionalFail(_) => functional += 1,
            Verdict::Pass => {
                assert!(
                    !on_negedge,
                    "{}: the design on the falling edge passed",
                    m.problem
                );
                survivors.push((m.problem.as_str(), m.line.as_str(), m.kind.as_str()));
            }
        }
    }
    assert_eq!(negedge, 11, "one falling-edge mutant per clocked reference");
    let killed = syntax + functional;
    println!(
        "{} mutants on {problems} problems: {syntax} syntax fails, {functional} functional \
         fails, {} pass; mutation score {killed}/{} = {:.3}",
        all.len(),
        survivors.len(),
        all.len(),
        killed as f64 / all.len() as f64
    );
    for (problem, line, kind) in &survivors {
        println!("survivor {problem}: {kind}: {line}");
    }
    let listed: Vec<(&str, &str)> = SURVIVORS.iter().map(|&(p, l, _)| (p, l)).collect();
    let found: Vec<(&str, &str)> = survivors.iter().map(|&(p, l, _)| (p, l)).collect();
    assert_eq!(found, listed, "the surviving mutants changed");
}
