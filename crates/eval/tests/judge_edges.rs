//! Edge-case tests for the judge: the failure taxonomy a testbench
//! compile would produce, exercised through realistic mutations of
//! reference solutions.

use verispec_eval::benchmarks::{rtllm_sim, vgen_sim, Benchmark, Problem};
use verispec_eval::judge::{judge, Verdict};
use verispec_eval::{stage_judge, StageOutcome};

/// What the model would generate for `p` if it wrote the reference: its
/// source, less what the prompt already supplies.
fn reference_completion(p: &Problem) -> &str {
    let source = &p.module.source;
    source.strip_prefix(p.completion_prefix()).unwrap_or(source)
}

/// The first problem's reference followed by a second, junk module.
fn extra_trailing_module(bench: &Benchmark) -> (&Problem, String) {
    let p = &bench.problems[0];
    let code = format!(
        "{}\nmodule extra_junk(input x, output y);\n    assign y = x;\nendmodule\n",
        p.module.source
    );
    (p, code)
}

/// A combinational problem with >= 2 inputs, one input dropped from the
/// port list (keeping the body) — elaboration then sees an undeclared
/// identifier.
fn missing_port(bench: &Benchmark) -> (&Problem, String) {
    let p = bench
        .problems
        .iter()
        .find(|p| p.module.interface.clock.is_none() && p.module.interface.inputs.len() >= 2)
        .expect("combinational problem");
    let victim = &p.module.interface.inputs[0].name;
    // Remove the port from the header line only.
    let mut lines: Vec<String> = p.module.source.lines().map(String::from).collect();
    let before = lines.len();
    lines.retain(|l| !(l.trim_start().starts_with("input") && l.contains(victim.as_str())));
    assert!(lines.len() < before, "port line must have been removed");
    (p, lines.join("\n"))
}

/// The comparator with its whole body replaced by constant drivers:
/// compiles, wrong.
fn stuck_output(bench: &Benchmark) -> (&Problem, String) {
    let p = bench
        .problems
        .iter()
        .find(|p| p.module.family == "comparator")
        .expect("comparator in suite");
    let header_end = p.module.source.find(';').expect("header");
    let header = &p.module.source[..=header_end];
    let mut body = String::new();
    for o in &p.module.interface.outputs {
        body.push_str(&format!("\n    assign {} = 0;", o.name));
    }
    (p, format!("{header}{body}\nendmodule\n"))
}

/// Generations with no module in them.
const EMPTY_GENERATIONS: [&str; 4] = ["", "    \n\n   ", "endmodule", "// just a comment"];

/// VGen's `bin2gray` body computing `bin ^ (bin << 1)` instead of
/// `>> 1`: compiles, wrong values.
fn wrong_shift(bench: &Benchmark) -> (&Problem, String) {
    let p = bench
        .problems
        .iter()
        .find(|p| p.module.family == "bin2gray")
        .expect("bin2gray in suite");
    let body = reference_completion(p).replace(">> 1", "<< 1");
    (p, body.replace(">>1", "<<1"))
}

#[test]
fn every_reference_judges_pass_with_multiple_seeds() {
    for bench in [rtllm_sim(), vgen_sim()] {
        for p in bench.problems.iter().take(10) {
            for seed in [1u64, 99, 12345] {
                assert_eq!(
                    judge(reference_completion(p), p, seed),
                    Verdict::Pass,
                    "{} seed {seed}",
                    p.id
                );
            }
        }
    }
}

#[test]
fn every_reference_solution_passes_every_stage_of_the_quality_gate() {
    // The quality gate's positive control: a gate that reads 0.0 for
    // every engine is believed only if it reads 1.0 for the answers.
    // Every problem's reference source, with what the prompt already
    // supplies stripped, must parse, elaborate and simulate correctly.
    let all = StageOutcome {
        parsed: true,
        elaborated: true,
        passed: true,
    };
    for bench in [rtllm_sim(), vgen_sim()] {
        assert!(!bench.problems.is_empty());
        for p in &bench.problems {
            let code = reference_completion(p);
            assert_eq!(stage_judge(code, p, 0xBEEF), all, "{}", p.id);
        }
    }
}

#[test]
fn the_verdict_and_the_stages_agree_on_every_sample() {
    // `judge` and `stage_judge` are two projections of one walk: a
    // sample fails to parse only where the verdict is a parse failure,
    // elaborates exactly when it is syntax-correct, and passes exactly
    // when it is functionally correct — on every reference and every
    // mutation this file builds.
    let (rtllm, vgen) = (rtllm_sim(), vgen_sim());
    let mut samples: Vec<(&Problem, String)> = rtllm
        .problems
        .iter()
        .chain(&vgen.problems)
        .map(|p| (p, reference_completion(p).to_string()))
        .collect();
    samples.extend([
        extra_trailing_module(&rtllm),
        missing_port(&rtllm),
        stuck_output(&rtllm),
        wrong_shift(&vgen),
    ]);
    let first = &rtllm.problems[0];
    samples.extend(EMPTY_GENERATIONS.map(|code| (first, code.to_string())));
    // A module that parses under a name the testbench does not ask for.
    let (source, name) = (&first.module.source, &first.module.name);
    samples.push((first, source.replacen(name, "renamed", 1)));
    let mut seen = [false; 3];
    for (p, code) in &samples {
        let (verdict, stages) = (judge(code, p, 5), stage_judge(code, p, 5));
        let unparsed = matches!(&verdict, Verdict::SyntaxFail(why) if why.starts_with("parse: "));
        assert_eq!(!stages.parsed, unparsed, "{}: {verdict:?}", p.id);
        assert_eq!(
            stages.elaborated,
            verdict.syntax_ok(),
            "{}: {verdict:?}",
            p.id
        );
        assert_eq!(
            stages.passed,
            verdict.functional_ok(),
            "{}: {verdict:?}",
            p.id
        );
        seen[usize::from(stages.parsed) + usize::from(stages.elaborated)] = true;
    }
    assert_eq!(
        seen, [true; 3],
        "parse, elaborate and simulate failures all met"
    );
}

#[test]
fn extra_trailing_module_is_tolerated_if_named_module_present() {
    // Models sometimes emit a second junk module; iverilog still compiles
    // as long as the testbench's target module exists and is correct.
    let bench = rtllm_sim();
    let (p, code) = extra_trailing_module(&bench);
    assert_eq!(judge(&code, p, 5), Verdict::Pass, "{}", p.id);
}

#[test]
fn missing_port_is_syntax_fail() {
    let bench = rtllm_sim();
    let (p, code) = missing_port(&bench);
    let v = judge(&code, p, 5);
    assert!(matches!(v, Verdict::SyntaxFail(_)), "{}: {v:?}", p.id);
}

#[test]
fn stuck_output_is_functional_fail() {
    let bench = rtllm_sim();
    let (p, code) = stuck_output(&bench);
    let v = judge(&code, p, 5);
    assert!(
        matches!(v, Verdict::FunctionalFail(_)),
        "{}: {v:?}\n{code}",
        p.id
    );
}

#[test]
fn empty_and_whitespace_generations_fail_syntax() {
    let p = &rtllm_sim().problems[0];
    for code in EMPTY_GENERATIONS {
        let v = judge(code, p, 5);
        assert!(matches!(v, Verdict::SyntaxFail(_)), "{code:?} -> {v:?}");
    }
}

#[test]
fn vgen_body_with_wrong_width_logic_fails_functionally() {
    let bench = vgen_sim();
    let (p, body) = wrong_shift(&bench);
    let v = judge(&body, p, 5);
    assert!(matches!(v, Verdict::FunctionalFail(_)), "{}: {v:?}", p.id);
}

#[test]
fn clocked_references_fail_on_the_other_edge() {
    // The judge compares at the active edge: a testbench that compares
    // only after a whole low→high→low pulse sees a design clocked on
    // either edge updated once, so it cannot tell `posedge` from
    // `negedge`.
    let mut clocked = 0;
    for bench in [rtllm_sim(), vgen_sim()] {
        for p in &bench.problems {
            let code = reference_completion(p);
            if !code.contains("posedge") {
                continue;
            }
            clocked += 1;
            assert_eq!(judge(code, p, 0xBEEF), Verdict::Pass, "{}", p.id);
            let negedge = code.replace("posedge", "negedge");
            assert!(
                matches!(judge(&negedge, p, 0xBEEF), Verdict::FunctionalFail(_)),
                "{}: the reference clocked on negedge passed",
                p.id
            );
        }
    }
    assert_eq!(clocked, 11, "clocked references in the suites");
}
