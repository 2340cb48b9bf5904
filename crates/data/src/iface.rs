//! Interfaces between generated modules, golden reference models, and
//! the testbench harness.
//!
//! Every corpus generator produces a [`GeneratedModule`]: Verilog source,
//! a natural-language description (the GPT-4 substitution of paper
//! §III-A), and a [`Golden`] reference model the simulator harness can
//! drive. Benchmark problems in `verispec-eval` reuse the same shapes.

use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// `(signal name, value)` pairs applied per cycle (mirrors
/// `verispec_sim::InputVector` without creating a hard dependency).
pub type InputVector = Vec<(String, u64)>;

/// Expected `(signal name, value)` pairs.
pub type OutputVector = Vec<(String, u64)>;

/// One data input/output of a module.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PortSpec {
    /// Signal name.
    pub name: String,
    /// Width in bits.
    pub width: u32,
}

impl PortSpec {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, width: u32) -> Self {
        Self {
            name: name.into(),
            width,
        }
    }
}

/// Reset wiring (mirrors `verispec_sim::ResetSpec`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResetWiring {
    /// Reset signal name.
    pub signal: String,
    /// Active-low flag.
    pub active_low: bool,
}

/// The testable interface of a module: data ports plus clock/reset
/// wiring. Clock and reset are *not* listed among `inputs`; the harness
/// drives them.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Interface {
    /// Data inputs.
    pub inputs: Vec<PortSpec>,
    /// Observed outputs.
    pub outputs: Vec<PortSpec>,
    /// Clock signal, when sequential.
    pub clock: Option<String>,
    /// Reset wiring, when present.
    pub reset: Option<ResetWiring>,
}

impl Interface {
    /// A purely combinational interface.
    pub fn comb(inputs: Vec<PortSpec>, outputs: Vec<PortSpec>) -> Self {
        Self {
            inputs,
            outputs,
            clock: None,
            reset: None,
        }
    }

    /// A clocked interface.
    pub fn seq(
        inputs: Vec<PortSpec>,
        outputs: Vec<PortSpec>,
        clock: impl Into<String>,
        reset: Option<ResetWiring>,
    ) -> Self {
        Self {
            inputs,
            outputs,
            clock: Some(clock.into()),
            reset,
        }
    }

    /// Generates `n` random stimulus vectors (uniform per input width,
    /// with all-zeros and all-ones corners injected first).
    pub fn random_stimuli(&self, rng: &mut SmallRng, n: usize) -> Vec<InputVector> {
        let mut vectors = Vec::with_capacity(n);
        for i in 0..n {
            let vec: InputVector = self
                .inputs
                .iter()
                .map(|p| {
                    let max = if p.width == 64 {
                        u64::MAX
                    } else {
                        (1u64 << p.width) - 1
                    };
                    let v = match i {
                        0 => 0,
                        1 => max,
                        _ => rng.gen::<u64>() & max,
                    };
                    (p.name.clone(), v)
                })
                .collect();
            vectors.push(vec);
        }
        vectors
    }
}

/// A golden reference model.
///
/// Sequential factories return a fresh stateful closure per run; the
/// closure models *post-clock-edge* outputs given the cycle's inputs
/// (see `verispec_sim::run_sequential`).
#[derive(Clone)]
pub enum Golden {
    /// Pure function of the inputs.
    Comb(Arc<dyn Fn(&InputVector) -> OutputVector + Send + Sync>),
    /// Factory of fresh per-run sequential models.
    #[allow(clippy::type_complexity)]
    Seq(Arc<dyn Fn() -> Box<dyn FnMut(&InputVector) -> OutputVector + Send> + Send + Sync>),
}

impl std::fmt::Debug for Golden {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Golden::Comb(_) => f.write_str("Golden::Comb(..)"),
            Golden::Seq(_) => f.write_str("Golden::Seq(..)"),
        }
    }
}

/// Looks up an input by name in a stimulus vector (helper for golden
/// closures).
pub fn input(ins: &InputVector, name: &str) -> u64 {
    ins.iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or_else(|| panic!("stimulus vector missing input `{name}`"))
}

/// Masks `v` to `width` bits.
pub fn mask(v: u64, width: u32) -> u64 {
    if width >= 64 {
        v
    } else {
        v & ((1u64 << width) - 1)
    }
}

/// A generated corpus/benchmark module.
#[derive(Debug, Clone)]
pub struct GeneratedModule {
    /// Module name as it appears in the source.
    pub name: String,
    /// Family identifier (e.g. `"mux2"`, `"counter_up"`).
    pub family: &'static str,
    /// Verilog source text.
    pub source: String,
    /// Natural-language description (instruction text).
    pub description: String,
    /// Testable interface.
    pub interface: Interface,
    /// Reference model.
    pub golden: Golden,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn stimuli_respect_widths_and_corners() {
        let iface = Interface::comb(
            vec![PortSpec::new("a", 4), PortSpec::new("b", 64)],
            vec![PortSpec::new("y", 4)],
        );
        let mut rng = SmallRng::seed_from_u64(1);
        let v = iface.random_stimuli(&mut rng, 10);
        assert_eq!(v.len(), 10);
        assert!(
            v[0].iter().all(|(_, x)| *x == 0),
            "first vector is all zeros"
        );
        assert_eq!(v[1][0].1, 0xF, "second vector is all ones (masked)");
        assert_eq!(v[1][1].1, u64::MAX);
        for vec in &v {
            assert!(vec[0].1 <= 0xF);
        }
    }

    #[test]
    fn input_lookup() {
        let v: InputVector = vec![("a".into(), 3), ("b".into(), 9)];
        assert_eq!(input(&v, "b"), 9);
    }

    #[test]
    #[should_panic(expected = "missing input")]
    fn input_lookup_missing_panics() {
        let v: InputVector = vec![("a".into(), 3)];
        let _ = input(&v, "zz");
    }

    #[test]
    fn mask_behaviour() {
        assert_eq!(mask(0xFFFF, 8), 0xFF);
        assert_eq!(mask(u64::MAX, 64), u64::MAX);
        assert_eq!(mask(5, 1), 1);
    }
}
