//! Edge-case tests for the judge: the failure taxonomy a testbench
//! compile would produce, exercised through realistic mutations of
//! reference solutions.

use verispec_eval::benchmarks::{rtllm_sim, vgen_sim};
use verispec_eval::judge::{judge, Verdict};
use verispec_eval::{stage_judge, StageOutcome};

#[test]
fn every_reference_judges_pass_with_multiple_seeds() {
    for bench in [rtllm_sim(), vgen_sim()] {
        for p in bench.problems.iter().take(10) {
            let completion = match &p.plain_header {
                Some(h) => p.module.source.strip_prefix(h.as_str()).expect("prefix"),
                None => p.module.source.as_str(),
            };
            for seed in [1u64, 99, 12345] {
                assert_eq!(
                    judge(completion, p, seed),
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
            let source = &p.module.source;
            let code = source.strip_prefix(p.completion_prefix()).unwrap_or(source);
            assert_eq!(stage_judge(code, p, 0xBEEF), all, "{}", p.id);
        }
    }
}

#[test]
fn extra_trailing_module_is_tolerated_if_named_module_present() {
    // Models sometimes emit a second junk module; iverilog still compiles
    // as long as the testbench's target module exists and is correct.
    let bench = rtllm_sim();
    let p = &bench.problems[0];
    let code = format!(
        "{}\nmodule extra_junk(input x, output y);\n    assign y = x;\nendmodule\n",
        p.module.source
    );
    assert_eq!(judge(&code, p, 5), Verdict::Pass, "{}", p.id);
}

#[test]
fn missing_port_is_syntax_fail() {
    let bench = rtllm_sim();
    // Find a combinational problem with >= 2 inputs and drop one input
    // from the port list (keeping the body) — elaboration then sees an
    // undeclared identifier.
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
    let code = lines.join("\n");
    let v = judge(&code, p, 5);
    assert!(matches!(v, Verdict::SyntaxFail(_)), "{}: {v:?}", p.id);
}

#[test]
fn stuck_output_is_functional_fail() {
    let bench = rtllm_sim();
    let p = bench
        .problems
        .iter()
        .find(|p| p.module.family == "comparator")
        .expect("comparator in suite");
    // Replace the whole body with constant drivers: compiles, wrong.
    let header_end = p.module.source.find(';').expect("header");
    let header = &p.module.source[..=header_end];
    let outs = &p.module.interface.outputs;
    let mut body = String::new();
    for o in outs {
        body.push_str(&format!("\n    assign {} = 0;", o.name));
    }
    let code = format!("{header}{body}\nendmodule\n");
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
    for code in ["", "    \n\n   ", "endmodule", "// just a comment"] {
        let v = judge(code, p, 5);
        assert!(matches!(v, Verdict::SyntaxFail(_)), "{code:?} -> {v:?}");
    }
}

#[test]
fn vgen_body_with_wrong_width_logic_fails_functionally() {
    let bench = vgen_sim();
    let p = bench
        .problems
        .iter()
        .find(|p| p.module.family == "bin2gray")
        .expect("bin2gray in suite");
    // gray = bin ^ (bin << 1) instead of >> 1: compiles, wrong values.
    let header = p.plain_header.as_ref().expect("header");
    let body = p
        .module
        .source
        .strip_prefix(header.as_str())
        .expect("prefix")
        .replace(">> 1", "<< 1")
        .replace(">>1", "<<1");
    let v = judge(&body, p, 5);
    assert!(matches!(v, Verdict::FunctionalFail(_)), "{}: {v:?}", p.id);
}
