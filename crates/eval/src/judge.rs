//! The judge: scores generated Verilog against a benchmark problem,
//! reproducing the paper's §IV-B2 protocol with the simulator standing in
//! for iverilog.
//!
//! * **Syntax** pass: the code parses, elaborates, and exposes the
//!   interface the testbench instantiates (module name, ports, widths) —
//!   everything iverilog would need to compile design + testbench
//!   together.
//! * **Functional** pass: syntax pass *and* the design matches the
//!   problem's golden model on all stimulus vectors.

use crate::benchmarks::Problem;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use verispec_data::Golden;
use verispec_sim::{elaborate, run_combinational, run_sequential, Design, ResetSpec, SeqSpec};

/// Judge outcome for one generated sample.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// Parse/elaborate/interface failure (would not compile with the
    /// testbench).
    SyntaxFail(String),
    /// Compiles, but output mismatches or the simulation faulted.
    FunctionalFail(String),
    /// Matches the golden model on every vector.
    Pass,
}

impl Verdict {
    /// Whether the sample counts as syntactically correct.
    pub fn syntax_ok(&self) -> bool {
        !matches!(self, Verdict::SyntaxFail(_))
    }

    /// Whether the sample counts as functionally correct.
    pub fn functional_ok(&self) -> bool {
        matches!(self, Verdict::Pass)
    }
}

/// Number of stimulus vectors applied per functional check.
pub const JUDGE_VECTORS: usize = 24;

/// Scores one generated completion (code text, `[FRAG]` markers already
/// stripped) against a problem. A parse or elaborate failure is a
/// [`Verdict::SyntaxFail`], a simulate failure a
/// [`Verdict::FunctionalFail`] — the same walk
/// [`crate::quality::stage_judge`] reports stage by stage.
pub fn judge(code: &str, problem: &Problem, seed: u64) -> Verdict {
    match walk(code, problem, seed) {
        Ok(()) => Verdict::Pass,
        Err((Stage::Parse | Stage::Elaborate, why)) => Verdict::SyntaxFail(why),
        Err((Stage::Simulate, why)) => Verdict::FunctionalFail(why),
    }
}

/// The stage of the protocol a sample failed at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stage {
    /// The completed source does not parse.
    Parse,
    /// The expected module is missing, does not elaborate, or does not
    /// expose the interface the testbench instantiates.
    Elaborate,
    /// The design faults in simulation or mismatches the golden model.
    Simulate,
}

/// The judging protocol, walked once for [`judge`] and
/// [`crate::quality::stage_judge`] alike: parse, find the module the
/// testbench instantiates, elaborate it, check its interface, then
/// simulate it against the golden model on seeded stimuli. `Ok` for a
/// sample that passes every stage, otherwise the stage it failed at
/// and why.
pub(crate) fn walk(code: &str, problem: &Problem, seed: u64) -> Result<(), (Stage, String)> {
    // For VGen-style problems the header came from the prompt; the model
    // generated only the continuation.
    let full_source = format!("{}{}", problem.completion_prefix(), code);

    let file =
        verispec_verilog::parse(&full_source).map_err(|e| (Stage::Parse, format!("parse: {e}")))?;
    // The testbench instantiates the module by name; take the module with
    // the expected name, or fail syntax like a testbench compile would.
    let want = &problem.module.name;
    let Some(module) = file.modules.iter().find(|m| &m.name == want) else {
        return Err((
            Stage::Elaborate,
            format!(
                "testbench needs module `{want}`, generated `{}`",
                file.modules
                    .first()
                    .map(|m| m.name.as_str())
                    .unwrap_or("<none>")
            ),
        ));
    };
    let design = elaborate(module).map_err(|e| (Stage::Elaborate, format!("elaborate: {e}")))?;
    check_interface(&design, problem).map_err(|e| (Stage::Elaborate, e))?;

    // Functional comparison against the golden model.
    let fail = |why: String| Err((Stage::Simulate, why));
    let iface = &problem.module.interface;
    let mut rng = SmallRng::seed_from_u64(seed);
    let vectors = iface.random_stimuli(&mut rng, JUDGE_VECTORS);
    let result = match (&problem.module.golden, iface.clock.as_ref()) {
        (Golden::Comb(f), None) => run_combinational(&design, &vectors, |ins| f(ins)),
        (Golden::Seq(factory), Some(clock)) => {
            let spec = SeqSpec {
                clock: clock.clone(),
                reset: iface.reset.as_ref().map(|r| ResetSpec {
                    signal: r.signal.clone(),
                    active_low: r.active_low,
                    cycles: 2,
                }),
            };
            let mut golden = factory();
            run_sequential(&design, &spec, &vectors, |ins| golden(ins))
        }
        _ => return fail("inconsistent golden/clock".into()),
    };
    match result {
        Err(e) => fail(format!("simulation: {e}")),
        Ok(tb) if tb.passed => Ok(()),
        Ok(tb) => fail(match tb.mismatches.first() {
            Some(m) => format!(
                "cycle {}: {} expected {:#x}, got {:#x}",
                m.cycle, m.signal, m.expected, m.got
            ),
            None => "mismatch".into(),
        }),
    }
}

/// Checks that the design exposes every port the testbench drives and
/// observes, with the right directions and widths.
fn check_interface(design: &Design, problem: &Problem) -> Result<(), String> {
    use verispec_verilog::ast::Direction;
    let iface = &problem.module.interface;
    let mut required: Vec<(&str, u32, Direction)> = Vec::new();
    for p in &iface.inputs {
        required.push((&p.name, p.width, Direction::Input));
    }
    for p in &iface.outputs {
        required.push((&p.name, p.width, Direction::Output));
    }
    if let Some(clk) = &iface.clock {
        required.push((clk, 1, Direction::Input));
    }
    if let Some(rst) = &iface.reset {
        required.push((&rst.signal, 1, Direction::Input));
    }
    for (name, width, dir) in required {
        let Some(id) = design.signal_id(name) else {
            return Err(format!("missing port `{name}`"));
        };
        let sig = design.signal(id);
        if sig.dir != Some(dir) {
            return Err(format!("port `{name}` has wrong direction"));
        }
        if sig.width != width {
            return Err(format!(
                "port `{name}` is {} bits, testbench expects {width}",
                sig.width
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::{rtllm_sim, vgen_sim};

    /// The reference solution must always pass its own testbench.
    #[test]
    fn reference_solutions_pass() {
        for p in rtllm_sim().problems.iter().take(12) {
            let v = judge(&p.module.source, p, 7);
            assert_eq!(v, Verdict::Pass, "{}: {:?}", p.id, v);
        }
    }

    #[test]
    fn vgen_reference_body_passes_with_header_prefix() {
        for p in vgen_sim().problems.iter().take(8) {
            // The model would generate only the body; reconstruct it by
            // stripping the header from the reference.
            let header = p.plain_header.as_ref().expect("header");
            let body = p.module.source.strip_prefix(header).expect("prefix");
            let v = judge(body, p, 7);
            assert_eq!(v, Verdict::Pass, "{}: {:?}", p.id, v);
        }
    }

    #[test]
    fn garbage_is_syntax_fail() {
        let p = &rtllm_sim().problems[0];
        let v = judge("this is not verilog at all {{{", p, 7);
        assert!(matches!(v, Verdict::SyntaxFail(_)), "{v:?}");
        assert!(!v.syntax_ok());
    }

    #[test]
    fn wrong_module_name_is_syntax_fail() {
        let p = &rtllm_sim().problems[0];
        let code = p.module.source.replacen(&p.module.name, "totally_else", 1);
        let v = judge(&code, p, 7);
        assert!(matches!(v, Verdict::SyntaxFail(_)), "{v:?}");
    }

    #[test]
    fn wrong_logic_is_functional_fail() {
        // Find a problem whose source contains a flippable operator.
        let bench = rtllm_sim();
        let p = bench
            .problems
            .iter()
            .find(|p| p.module.source.contains(" + "))
            .expect("an arithmetic problem");
        let code = p.module.source.replacen(" + ", " - ", 1);
        let v = judge(&code, p, 7);
        assert!(
            matches!(v, Verdict::FunctionalFail(_)),
            "flipped operator must fail functionally: {v:?}"
        );
        assert!(v.syntax_ok(), "but it still compiles");
    }

    #[test]
    fn wrong_port_width_is_syntax_fail() {
        let bench = rtllm_sim();
        // A problem with a multi-bit port whose range text we can tweak.
        let p = bench
            .problems
            .iter()
            .find(|p| p.module.source.contains("[3:0]") || p.module.source.contains("[7:0]"))
            .expect("multi-bit problem");
        let code = if p.module.source.contains("[3:0]") {
            p.module.source.replace("[3:0]", "[14:0]")
        } else {
            p.module.source.replace("[7:0]", "[14:0]")
        };
        let v = judge(&code, p, 7);
        assert!(matches!(v, Verdict::SyntaxFail(_)), "{v:?}");
    }

    #[test]
    fn truncated_code_is_syntax_fail() {
        let p = &rtllm_sim().problems[0];
        let cut = &p.module.source[..p.module.source.len() / 2];
        let v = judge(cut, p, 7);
        assert!(matches!(v, Verdict::SyntaxFail(_)), "{v:?}");
    }
}
