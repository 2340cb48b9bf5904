//! Testbench harness: drives a DUT against a golden reference model
//! (the iverilog-testbench substitute, paper §IV-B2).
//!
//! Two protocols are provided:
//!
//! * [`run_combinational`] — per stimulus vector: apply inputs, settle,
//!   compare every listed output with the golden closure's expectation.
//! * [`run_sequential`] — reset phase (whole clock pulses; golden
//!   models start in their reset state), then per cycle: apply inputs,
//!   settle, raise the clock, settle, compare outputs, lower the clock.
//!   The compare sits at the active (rising) edge, before the falling
//!   one, so a design clocked on the wrong edge has not updated when it
//!   is read. Golden closures therefore model post-edge behaviour.

use crate::elab::{Design, SimResult};
use crate::interp::Sim;
use serde::{Deserialize, Serialize};

/// One stimulus vector: `(input name, value)` pairs.
pub type InputVector = Vec<(String, u64)>;

/// Expected outputs for one vector: `(output name, value)` pairs.
pub type OutputVector = Vec<(String, u64)>;

/// A recorded expectation failure.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mismatch {
    /// Vector / cycle index at which the mismatch occurred.
    pub cycle: usize,
    /// Output signal name.
    pub signal: String,
    /// Golden-model expectation.
    pub expected: u64,
    /// DUT value.
    pub got: u64,
}

/// Outcome of a testbench run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TbResult {
    /// Whether every comparison matched.
    pub passed: bool,
    /// Vectors / cycles executed before stopping.
    pub cycles_run: usize,
    /// First few mismatches (the run stops at the first failing cycle).
    pub mismatches: Vec<Mismatch>,
}

/// Reset wiring for sequential testbenches.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResetSpec {
    /// Reset signal name.
    pub signal: String,
    /// Whether the reset is active-low (`rst_n`).
    pub active_low: bool,
    /// Clock cycles to hold reset asserted before the test.
    pub cycles: usize,
}

/// Clocking/reset description for [`run_sequential`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeqSpec {
    /// Clock signal name.
    pub clock: String,
    /// Optional reset wiring.
    pub reset: Option<ResetSpec>,
}

/// Runs a combinational test: for each vector, inputs are applied, the
/// design settles, and each golden `(name, value)` expectation is
/// compared.
///
/// # Errors
///
/// Propagates simulator faults (oscillation, runtime errors); the caller
/// treats those as functional failures too.
pub fn run_combinational(
    design: &Design,
    vectors: &[InputVector],
    mut golden: impl FnMut(&InputVector) -> OutputVector,
) -> SimResult<TbResult> {
    let mut sim = Sim::new(design)?;
    let mut result = TbResult {
        passed: true,
        cycles_run: 0,
        mismatches: Vec::new(),
    };
    for (cycle, vec) in vectors.iter().enumerate() {
        for (name, value) in vec {
            sim.set(name, *value)?;
        }
        result.cycles_run = cycle + 1;
        if !compare(&mut sim, cycle, &golden(vec), &mut result)? {
            break;
        }
    }
    Ok(result)
}

/// Runs a sequential test; see the module docs for the cycle protocol.
///
/// The golden closure is called once per post-reset cycle with that
/// cycle's inputs and must return the expected outputs *after* the
/// rising clock edge.
///
/// # Errors
///
/// Propagates simulator faults.
pub fn run_sequential(
    design: &Design,
    spec: &SeqSpec,
    vectors: &[InputVector],
    mut golden: impl FnMut(&InputVector) -> OutputVector,
) -> SimResult<TbResult> {
    let mut sim = Sim::new(design)?;
    sim.set(&spec.clock, 0)?;

    // Reset phase: assert reset, clock a few cycles, deassert.
    if let Some(rst) = &spec.reset {
        let (assert_v, deassert_v) = if rst.active_low { (0, 1) } else { (1, 0) };
        sim.set(&rst.signal, assert_v)?;
        for _ in 0..rst.cycles.max(1) {
            sim.clock_pulse(&spec.clock)?;
        }
        sim.set(&rst.signal, deassert_v)?;
    }

    let mut result = TbResult {
        passed: true,
        cycles_run: 0,
        mismatches: Vec::new(),
    };
    for (cycle, vec) in vectors.iter().enumerate() {
        for (name, value) in vec {
            sim.set(name, *value)?;
        }
        sim.set(&spec.clock, 1)?;
        result.cycles_run = cycle + 1;
        if !compare(&mut sim, cycle, &golden(vec), &mut result)? {
            break;
        }
        sim.set(&spec.clock, 0)?;
    }
    Ok(result)
}

/// Compares expectations; records mismatches and returns whether to
/// continue.
fn compare(
    sim: &mut Sim<'_>,
    cycle: usize,
    expected: &OutputVector,
    result: &mut TbResult,
) -> SimResult<bool> {
    for (name, exp) in expected {
        let got = sim.get(name)?;
        if got != *exp {
            result.passed = false;
            result.mismatches.push(Mismatch {
                cycle,
                signal: name.clone(),
                expected: *exp,
                got,
            });
        }
    }
    Ok(result.passed)
}
