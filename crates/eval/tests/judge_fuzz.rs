//! The judge under hostile samples: references mutated the ways a model's
//! output goes wrong — bytes deleted, spans duplicated, literals and
//! widths blown up, keywords dropped in, loops added — must each come back
//! from `stage_judge` as a verdict, never as a panic, and a legal but
//! huge loop must fail on the simulation's one statement budget instead
//! of running to the end on every settle sweep of every vector.

use std::sync::OnceLock;

use verispec_eval::benchmarks::{rtllm_sim, vgen_sim, Problem};
use verispec_eval::{stage_judge, StageOutcome};

/// Every problem of both benchmarks, built once per test binary.
fn problems() -> &'static [Problem] {
    static ALL: OnceLock<Vec<Problem>> = OnceLock::new();
    ALL.get_or_init(|| {
        rtllm_sim()
            .problems
            .into_iter()
            .chain(vgen_sim().problems)
            .collect()
    })
}

/// The reference source less what the prompt already supplies.
fn reference_completion(p: &Problem) -> &str {
    let source = &p.module.source;
    source.strip_prefix(p.completion_prefix()).unwrap_or(source)
}

struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) % n.max(1) as u64) as usize
    }

    fn pick<'a>(&mut self, options: &[&'a str]) -> &'a str {
        options[self.below(options.len())]
    }
}

/// A character boundary of `code` at or after a random byte.
fn boundary(code: &str, rng: &mut Lcg) -> usize {
    let mut at = rng.below(code.len() + 1);
    while !code.is_char_boundary(at) {
        at += 1;
    }
    at
}

/// One hostile edit of `code`.
fn mutate(code: &mut String, rng: &mut Lcg) {
    match rng.below(6) {
        // Bytes deleted.
        0 => {
            let at = boundary(code, rng);
            let mut end = (at + 1 + rng.below(8)).min(code.len());
            while !code.is_char_boundary(end) {
                end += 1;
            }
            code.replace_range(at..end, "");
        }
        // A span duplicated somewhere else.
        1 => {
            let (a, b) = (boundary(code, rng), boundary(code, rng));
            let span = code[a.min(b)..a.max(b)].to_string();
            let at = boundary(code, rng);
            code.insert_str(at, &span);
        }
        // A huge literal.
        2 => {
            let literal = rng.pick(&[
                " 64'hFFFF_FFFF_FFFF_FFFF ",
                " 128'd340282366920938463463374607431768211455 ",
                " 99999999999999999999999 ",
                " 'd18446744073709551616 ",
                " 32'b1 << 4294967295 ",
            ]);
            let at = boundary(code, rng);
            code.insert_str(at, literal);
        }
        // A huge width, in place of the first range or dropped in.
        3 => {
            let width = rng.pick(&["[65535:0]", "[1000000:0]", "[4294967295:0]", "[0:65535]"]);
            match code.find("[") {
                Some(open) if rng.below(2) == 0 => {
                    let close = code[open..].find(']').map_or(code.len(), |c| open + c + 1);
                    code.replace_range(open..close, width);
                }
                _ => {
                    let at = boundary(code, rng);
                    code.insert_str(at, width);
                }
            }
        }
        // A stray keyword.
        4 => {
            let keyword = rng.pick(&[
                " module ",
                " endmodule ",
                " begin ",
                " end ",
                " always @(*) ",
                " assign ",
                " case ",
                " endcase ",
                " posedge ",
                " reg ",
                " integer ",
                " initial ",
            ]);
            let at = boundary(code, rng);
            code.insert_str(at, keyword);
        }
        // A loop: a bound blown up, or a new loop at a statement start.
        _ => {
            if let Some(at) = code.find("i < ") {
                let end = code[at + 4..]
                    .find(|c: char| !c.is_ascii_alphanumeric() && c != '_')
                    .map_or(code.len(), |e| at + 4 + e);
                code.replace_range(at + 4..end, "65535");
            } else {
                let body = rng.pick(&[
                    " for (k = 0; k < 65535; k = k + 1) ; ",
                    " while (1) ; ",
                    " repeat (100000) ; ",
                ]);
                let at = code
                    .find("begin")
                    .map_or_else(|| boundary(code, rng), |b| b + 5);
                code.insert_str(at, body);
            }
        }
    }
}

/// Mutated samples judged by the property test.
const CASES: u64 = 2048;

#[test]
fn stage_judge_gives_a_verdict_on_every_mutated_reference() {
    // A seeded property test: each case picks a problem and one to three
    // edits from its seed; a panic inside `stage_judge` fails the test
    // with that case on the stack, and a failed assertion names it.
    let problems = problems();
    for case in 0..CASES {
        let mut rng = Lcg(0x5EED_F022 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let p = &problems[rng.below(problems.len())];
        let mut code = reference_completion(p).to_string();
        for _ in 0..1 + rng.below(3) {
            mutate(&mut code, &mut rng);
        }
        let StageOutcome {
            parsed,
            elaborated,
            passed,
        } = stage_judge(&code, p, case);
        // The stages nest: a design passes only if it elaborated, and
        // elaborates only if it parsed.
        assert!(!passed || elaborated, "case {case}, {}: {code}", p.id);
        assert!(!elaborated || parsed, "case {case}, {}: {code}", p.id);
    }
}

#[test]
fn a_legal_loop_past_the_budget_fails_the_simulation_not_the_gate() {
    // Every popcount reference counts with a `for` over the input's
    // width. Bounded at 65,535 instead, the design is still legal and
    // still computes the count (bits past the width read as zero), but
    // one pass of its loop costs more than a whole judged simulation
    // may spend: the sample is a functional fail, found at once.
    let mut checked = 0;
    for p in problems().iter().filter(|p| p.module.family == "popcount") {
        let code = reference_completion(p);
        let at = code.find("i < ").expect("a bounded loop") + 4;
        let end = at + code[at..].find(';').expect("the loop condition ends");
        let looping = format!("{}65535{}", &code[..at], &code[end..]);
        let outcome = stage_judge(&looping, p, 0xBEEF);
        assert!(outcome.parsed && outcome.elaborated, "{}: {looping}", p.id);
        assert!(!outcome.passed, "{}: the budget must stop the loop", p.id);
        checked += 1;
    }
    assert!(checked > 0, "no popcount problem to loop");
}
