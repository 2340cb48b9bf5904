//! The request model: what a client submits to the serving engine and
//! what it gets back.

use serde::{Deserialize, Serialize};
use verispec_core::{DecodeConfig, DecodeOutput};
use verispec_lm::TokenId;

/// Which decoding engine a request runs under. All choices drive the
/// same target model; the choice controls speculation shape and the
/// syntax-integrity check.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum EngineChoice {
    /// Conventional next-token prediction (no speculation).
    Ntp,
    /// MEDUSA top-1 chain speculation (no tree, no syntax check).
    MedusaChain,
    /// MEDUSA tree speculation: entry `i` is head `i+1`'s top-k width.
    MedusaTree(Vec<usize>),
    /// The paper's syntax-aligned speculation ("Ours"), chain or tree.
    SyntaxAligned {
        /// Optional candidate-tree widths (`None` = top-1 chain).
        tree: Option<Vec<usize>>,
    },
    /// Grammar-constrained syntax-aligned speculation: each candidate
    /// tree node's children are viability-filtered through its own
    /// lexer state by the engine's [`verispec_grammar::GrammarOracle`] (configured via
    /// [`crate::ServeEngine::with_grammar`]; without one the request runs as
    /// plain [`EngineChoice::SyntaxAligned`]).
    GrammarTree {
        /// Optional candidate-tree widths (`None` = top-1 chain).
        tree: Option<Vec<usize>>,
    },
}

impl EngineChoice {
    /// Human-readable engine name.
    pub fn name(&self) -> &'static str {
        match self {
            EngineChoice::Ntp => "NTP",
            EngineChoice::MedusaChain => "Medusa-chain",
            EngineChoice::MedusaTree(_) => "Medusa-tree",
            EngineChoice::SyntaxAligned { tree: None } => "Ours-chain",
            EngineChoice::SyntaxAligned { tree: Some(_) } => "Ours-tree",
            EngineChoice::GrammarTree { .. } => "Grammar-tree",
        }
    }

    /// Resolves the request's base [`DecodeConfig`] into the engine's
    /// effective one (tree widths, syntax alignment). The serial
    /// baseline a served run is compared against must use the same
    /// resolution.
    pub fn decode_config(&self, base: &DecodeConfig) -> DecodeConfig {
        match self {
            EngineChoice::Ntp | EngineChoice::MedusaChain => DecodeConfig {
                syntax_aligned: false,
                tree: None,
                ..base.clone()
            },
            EngineChoice::MedusaTree(widths) => DecodeConfig {
                syntax_aligned: false,
                tree: Some(widths.clone()),
                ..base.clone()
            },
            EngineChoice::SyntaxAligned { tree } | EngineChoice::GrammarTree { tree } => {
                DecodeConfig {
                    syntax_aligned: true,
                    tree: tree.clone(),
                    ..base.clone()
                }
            }
        }
    }
}

/// One generation request submitted to the serving engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Client-chosen identifier; completions are reported under it.
    pub id: u64,
    /// Full prompt token ids (a prefix-cache hit at admission ingests
    /// only the part past the cached stem).
    pub prompt: Vec<TokenId>,
    /// Decoding engine for this request.
    pub engine: EngineChoice,
    /// Budgets, sampling, seed, EOS. Tree/syntax fields are overridden
    /// by [`EngineChoice::decode_config`].
    pub cfg: DecodeConfig,
    /// Tick at which the request becomes visible to admission (0 =
    /// immediately). Models request arrival in an open-loop workload.
    pub arrival: u64,
    /// Optional SLO deadline: the absolute tick by which the request
    /// should finish. Consumed by the earliest-deadline-first tick
    /// order ([`crate::TickOrder::Edf`]) and the SLO-attainment
    /// telemetry; `None` means best-effort.
    pub deadline: Option<u64>,
    /// Multi-tenant request class (tenant id). Class 0 is the default;
    /// classes index into the per-class weighted-fairness shares
    /// ([`crate::ServeConfig::class_weights`] /
    /// [`crate::TickOrder::WeightedFair`]). Purely a scheduling tag —
    /// outputs are class-invariant.
    #[serde(default)]
    pub class: u32,
}

impl Request {
    /// A request with default arrival (immediately admissible), no
    /// deadline, and the default tenant class (0).
    pub fn new(id: u64, prompt: Vec<TokenId>, engine: EngineChoice, cfg: DecodeConfig) -> Self {
        Request {
            id,
            prompt,
            engine,
            cfg,
            arrival: 0,
            deadline: None,
            class: 0,
        }
    }

    /// Sets the SLO deadline (absolute tick).
    pub fn with_deadline(mut self, deadline: u64) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the multi-tenant request class (tenant id).
    pub fn with_class(mut self, class: u32) -> Self {
        self.class = class;
        self
    }
}

/// A finished request with scheduling metadata.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Completion {
    /// The request id.
    pub id: u64,
    /// The generation result — bit-identical to the serial
    /// single-session engine's output for the same request.
    pub output: DecodeOutput,
    /// Tick at which the request was submitted (arrival tick).
    pub submitted: u64,
    /// Tick at which it was first admitted to the active set.
    pub admitted: u64,
    /// Tick of its final decoding step.
    pub finished: u64,
    /// Largest gap in ticks between consecutive scheduled steps while
    /// active — the starvation metric the scheduler's aging bounds.
    pub max_service_gap: u64,
    /// Tick of every decoding step, aligned with `output.trace` (each
    /// step commits at least one token, so `step_ticks[0]` is the
    /// time-to-first-token tick and consecutive differences are the
    /// inter-commit gaps the latency telemetry aggregates).
    pub step_ticks: Vec<u64>,
    /// Engine-relative wall-clock seconds at which the request became
    /// visible (submission or arrival-channel receipt).
    pub seen_secs: f64,
    /// Engine-relative wall-clock seconds of the first committed token.
    pub first_token_secs: Option<f64>,
    /// Engine-relative wall-clock seconds of the final decoding step.
    pub finished_secs: f64,
    /// The request's SLO deadline tick, echoed from [`Request`].
    pub deadline: Option<u64>,
    /// Candidate tokens this request speculated across all steps (the
    /// speculation it *paid for*; excludes the always-committed base
    /// token). The input adaptive policies steer by, surfaced for bench
    /// reports.
    pub proposed_tokens: usize,
    /// Speculated tokens the verifier accepted (the speculation that
    /// *cashed out*).
    pub accepted_tokens: usize,
}

impl Completion {
    /// Tick at which the request committed its first token.
    pub fn first_token_tick(&self) -> Option<u64> {
        self.step_ticks.first().copied()
    }

    /// Queueing delay in ticks: submission to first admission.
    pub fn queue_ticks(&self) -> u64 {
        self.admitted.saturating_sub(self.submitted)
    }

    /// Whether the request met its deadline (`None` without one).
    pub fn met_deadline(&self) -> Option<bool> {
        self.deadline.map(|d| self.finished <= d)
    }

    /// Fraction of speculated tokens accepted, `None` if the request
    /// never speculated.
    pub fn acceptance_rate(&self) -> Option<f64> {
        (self.proposed_tokens > 0)
            .then(|| self.accepted_tokens as f64 / self.proposed_tokens as f64)
    }

    /// Tick-space equality: every field except the wall-clock seconds
    /// (`seen_secs` / `first_token_secs` / `finished_secs`), which
    /// measure real elapsed time and legitimately differ between two
    /// drives of the same deterministic schedule. The threaded-vs-
    /// lockstep parity tests compare completions with this.
    pub fn same_schedule(&self, other: &Completion) -> bool {
        self.id == other.id
            && self.output == other.output
            && self.submitted == other.submitted
            && self.admitted == other.admitted
            && self.finished == other.finished
            && self.max_service_gap == other.max_service_gap
            && self.step_ticks == other.step_ticks
            && self.deadline == other.deadline
            && self.proposed_tokens == other.proposed_tokens
            && self.accepted_tokens == other.accepted_tokens
    }
}
