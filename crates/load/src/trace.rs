//! Arrival-trace record/replay: a compact, serializable capture of a
//! workload's *realized* arrivals that replays bit-identically.
//!
//! The generators in [`crate::generator`] are synthetic: a workload is
//! a seed plus distributions. For regression hunting ("this exact
//! arrival pattern made p99 blow up") the realized draw itself is the
//! artifact worth keeping. An [`ArrivalTrace`] records, per request,
//! exactly what the ISSUE of record is: `(tick, prompt-id, engine,
//! budget, seed)` — plus the sampling draw and optional SLO deadline —
//! with prompts deduplicated into a table so the trace stays compact
//! under prompt families. Shared config (EOS, acceptance) is stored
//! once as the base [`DecodeConfig`].
//!
//! Round-tripping through JSON (`to_json` / `from_json`, via the
//! vendored serde) and replaying yields a request sequence equal to
//! the original field-for-field, so serving it reproduces the original
//! run's outputs and tick schedule exactly (the serving engine is a
//! deterministic function of its requests).

use serde::{Deserialize, Serialize};
use verispec_core::DecodeConfig;
use verispec_lm::{Sampling, TokenId};
use verispec_serve::{EngineChoice, FaultPlan, Request};

/// One recorded arrival.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEntry {
    /// Request id.
    pub id: u64,
    /// Arrival tick.
    pub tick: u64,
    /// Index into [`ArrivalTrace::prompts`].
    pub prompt_id: usize,
    /// Decoding engine.
    pub engine: EngineChoice,
    /// Decode budget (`max_tokens`).
    pub budget: usize,
    /// Sampling draw.
    pub sampling: Sampling,
    /// Per-request RNG seed.
    pub seed: u64,
    /// Optional SLO deadline tick.
    pub deadline: Option<u64>,
    /// Tenant class ([`Request::class`]).
    pub class: u32,
}

/// A recorded request sequence: the replayable form of one workload
/// realization, carrying the failure scenario ([`FaultPlan`]) the run
/// is to replay under. Every field is required; tenant shares are not
/// part of a trace but of the [`verispec_serve::ServeConfig`] it
/// replays under.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ArrivalTrace {
    /// The workload seed the trace was drawn from (provenance only —
    /// replay never re-derives anything from it).
    pub workload_seed: u64,
    /// Request-config fields shared by every entry (EOS, acceptance);
    /// per-entry fields override `max_tokens`, `sampling`, and `seed`.
    pub base: DecodeConfig,
    /// Deduplicated prompt table.
    pub prompts: Vec<Vec<TokenId>>,
    /// One entry per request, in submission order.
    pub entries: Vec<TraceEntry>,
    /// The worker crash/restart schedule the trace replays under; the
    /// empty plan for fault-free traces.
    pub faults: FaultPlan,
}

/// The coldest temperature a trace entry may sample at. The samplers
/// divide every logit by it, so zero, a negative or a NaN is refused by
/// their assertions and a subnormal one (`1e-40`) overflows the scaled
/// row; at this floor — a hundredth of the coldest draw any workload
/// makes — a logit would have to pass `10³⁴` to do that.
const MIN_TEMPERATURE: f32 = 1e-4;

// Hand-written so an entry no engine can run — one pointing outside
// the prompt table, sampling at a temperature the samplers refuse — is
// a parse error rather than a panic at replay, inside a worker's tick.
// So is a request id two entries share: the latency report joins
// completions to requests by id, so the second would be reported under
// the first's engine and deadline. An engine `EngineChoice` has no
// variant for is refused by the derive, with an unknown-variant error.
impl serde::Deserialize for ArrivalTrace {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let trace = ArrivalTrace {
            workload_seed: serde::Deserialize::from_value(v.field("workload_seed")?)?,
            base: serde::Deserialize::from_value(v.field("base")?)?,
            prompts: serde::Deserialize::from_value(v.field("prompts")?)?,
            entries: serde::Deserialize::from_value(v.field("entries")?)?,
            faults: serde::Deserialize::from_value(v.field("faults")?)?,
        };
        let mut first_at = std::collections::HashMap::with_capacity(trace.entries.len());
        let refused = trace.entries.iter().enumerate().find_map(|(pos, e)| {
            if let Some(first) = first_at.insert(e.id, pos) {
                return Some(format!(
                    "trace entries {first} and {pos} share request id {}",
                    e.id
                ));
            }
            if e.prompt_id >= trace.prompts.len() {
                return Some(format!(
                    "trace entry {} names prompt {} of a table of {}",
                    e.id,
                    e.prompt_id,
                    trace.prompts.len()
                ));
            }
            match (e.sampling, &e.engine) {
                (Sampling::Temperature { temperature, .. }, _)
                    if !(temperature.is_finite() && temperature >= MIN_TEMPERATURE) =>
                {
                    Some(format!(
                        "trace entry {}: sampling.temperature {temperature} is not a finite \
                         temperature of at least {MIN_TEMPERATURE}",
                        e.id
                    ))
                }
                _ => None,
            }
        });
        match refused {
            Some(why) => Err(serde::Error::new(why)),
            None => Ok(trace),
        }
    }
}

impl ArrivalTrace {
    /// Records `requests` (as produced by
    /// [`crate::generator::Workload::requests`]) into a trace.
    ///
    /// `base` must carry the shared config the workload's mix used —
    /// replay rebuilds each request as `DecodeConfig { max_tokens,
    /// sampling, seed, ..base }`, so any per-request deviation in the
    /// shared fields would not survive the round trip. Debug builds
    /// assert this.
    pub fn record(requests: &[Request], workload_seed: u64, base: &DecodeConfig) -> Self {
        let mut prompts: Vec<Vec<TokenId>> = Vec::new();
        let entries = requests
            .iter()
            .map(|req| {
                debug_assert_eq!(
                    DecodeConfig {
                        max_tokens: base.max_tokens,
                        sampling: base.sampling,
                        seed: base.seed,
                        ..req.cfg.clone()
                    },
                    *base,
                    "request {} deviates from the shared base config",
                    req.id
                );
                let prompt_id = match prompts.iter().position(|p| p == &req.prompt) {
                    Some(i) => i,
                    None => {
                        prompts.push(req.prompt.clone());
                        prompts.len() - 1
                    }
                };
                TraceEntry {
                    id: req.id,
                    tick: req.arrival,
                    prompt_id,
                    engine: req.engine.clone(),
                    budget: req.cfg.max_tokens,
                    sampling: req.cfg.sampling,
                    seed: req.cfg.seed,
                    deadline: req.deadline,
                    class: req.class,
                }
            })
            .collect();
        ArrivalTrace {
            workload_seed,
            base: base.clone(),
            prompts,
            entries,
            faults: FaultPlan::none(),
        }
    }

    /// Attaches the failure scenario the trace replays under
    /// (builder-style).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Rebuilds the recorded request sequence, field-for-field equal to
    /// what was recorded.
    pub fn replay(&self) -> Vec<Request> {
        self.entries
            .iter()
            .map(|e| Request {
                id: e.id,
                prompt: self.prompts[e.prompt_id].clone(),
                engine: e.engine.clone(),
                cfg: DecodeConfig {
                    max_tokens: e.budget,
                    sampling: e.sampling,
                    seed: e.seed,
                    ..self.base.clone()
                },
                arrival: e.tick,
                deadline: e.deadline,
                class: e.class,
            })
            .collect()
    }

    /// Serializes the trace to pretty JSON.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parses a trace back from JSON. Malformed input — truncated
    /// JSON, a missing field — and an entry no engine can run — a
    /// `prompt_id` outside the prompt table, a sampling temperature that
    /// is not finite or is below `1e-4` (zero, negative, NaN, subnormal)
    /// — is an `Err` naming the entry, never a panic here or in the tick
    /// that would have served it. Two entries with one request id are an
    /// `Err` naming the id and both entry positions, and an engine
    /// [`EngineChoice`] has no variant for is an unknown-variant `Err`.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{ArrivalProcess, PromptFamily, RequestMix, Workload};
    use verispec_lm::{GpuCostModel, MlpLm, MlpLmConfig};
    use verispec_serve::{ServeConfig, ServeEngine, ServeReport};

    fn workload(deadline_slack: Option<f64>) -> Workload {
        Workload {
            process: ArrivalProcess::Poisson { rate: 0.4 },
            mix: RequestMix {
                engines: vec![
                    (
                        EngineChoice::SyntaxAligned {
                            tree: Some(vec![2, 2]),
                        },
                        2.0,
                    ),
                    (EngineChoice::Ntp, 1.0),
                    (EngineChoice::MedusaTree(vec![2]), 1.0),
                ],
                families: vec![
                    (
                        PromptFamily {
                            name: "short".into(),
                            prompts: vec![(vec![1, 2], 6), (vec![3], 5)],
                        },
                        1.0,
                    ),
                    (
                        PromptFamily {
                            name: "long".into(),
                            prompts: vec![(vec![1, 2, 3, 4, 5], 10)],
                        },
                        1.0,
                    ),
                ],
                greedy_fraction: 0.5,
                temperature: (0.4, 0.9),
                base: DecodeConfig::default(),
                deadline_slack,
            },
            count: 24,
            seed: 0xCAFE,
        }
    }

    #[test]
    fn json_round_trip_replays_field_for_field() {
        for slack in [None, Some(3.0)] {
            let w = workload(slack);
            let requests = w.requests();
            let trace = ArrivalTrace::record(&requests, w.seed, &w.mix.base);
            let json = trace.to_json().expect("trace serializes");
            let back = ArrivalTrace::from_json(&json).expect("trace parses");
            assert_eq!(back, trace, "trace survived the JSON round trip");
            assert_eq!(back.replay(), requests, "replay is field-for-field exact");
            // Prompt dedup actually deduplicates: 24 requests over 3
            // distinct prompts.
            assert_eq!(back.prompts.len(), 3);
        }
    }

    #[test]
    fn a_trace_without_faults_or_a_class_is_refused() {
        let committed = include_str!("../tests/traces/eviction_churn.json");
        let trace = ArrivalTrace::from_json(committed).expect("the committed trace parses");
        let json = serde_json::to_string(&trace).expect("serializes");
        let no_faults = json.replace(r#","faults":{"events":[]}"#, "");
        let no_class = json.replacen(r#","class":0"#, "", 1);
        for (older, field) in [(no_faults, "faults"), (no_class, "class")] {
            assert_ne!(older, json, "{field} was cut");
            let err = ArrivalTrace::from_json(&older).expect_err("a field is missing");
            assert!(err.to_string().contains(field), "{field}: {err}");
        }
    }

    #[test]
    fn corrupt_traces_are_errors_not_panics() {
        let committed = include_str!("../tests/traces/eviction_churn.json");
        let trace = ArrivalTrace::from_json(committed).expect("the committed trace parses");
        // One entry bumped past the prompt table.
        let mut bumped = trace.clone();
        bumped.entries[0].prompt_id = bumped.prompts.len();
        let json = bumped.to_json().expect("serializes");
        let err = ArrivalTrace::from_json(&json).expect_err("out-of-range prompt_id");
        assert!(err.to_string().contains("names prompt"), "{err}");
        // A truncated file.
        assert!(ArrivalTrace::from_json(&committed[..committed.len() / 2]).is_err());
        assert!(ArrivalTrace::from_json("").is_err());
    }

    #[test]
    fn a_request_id_two_entries_share_is_a_parse_error_naming_both() {
        let committed = include_str!("../tests/traces/eviction_churn.json");
        let mut trace = ArrivalTrace::from_json(committed).expect("the committed trace parses");
        let (id, last) = (trace.entries[2].id, trace.entries.len() - 1);
        trace.entries[last].id = id;
        let json = trace.to_json().expect("serializes");
        let err = ArrivalTrace::from_json(&json).expect_err("duplicate id");
        assert!(
            err.to_string()
                .contains(&format!("entries 2 and {last} share request id {id}")),
            "{err}"
        );
    }

    #[test]
    fn entries_no_engine_can_run_are_parse_errors_naming_them() {
        let committed = include_str!("../tests/traces/eviction_churn.json");
        let trace = ArrivalTrace::from_json(committed).expect("the committed trace parses");
        let id = trace.entries[1].id;
        let edited = |edit: &dyn Fn(&mut TraceEntry)| {
            let mut trace = trace.clone();
            edit(&mut trace.entries[1]);
            trace.to_json().expect("serializes")
        };
        let parse = |json: &str| {
            ArrivalTrace::from_json(json)
                .map(|_| ())
                .map_err(|e| e.to_string())
        };
        // Temperatures the samplers assert against or overflow on, as a
        // file can spell them: each would have parsed and then died
        // inside a worker's tick.
        let sentinel = edited(&|e| e.sampling = Sampling::temperature(0.15625));
        for t in ["0.0", "-0.5", "1e-40", "9e-5"] {
            let err = parse(&sentinel.replace("0.15625", t)).expect_err("refused");
            assert!(
                err.contains(&format!("entry {id}:")) && err.contains("sampling.temperature"),
                "{t}: {err}"
            );
        }
        // A temperature that overflows to infinity is not JSON's: the
        // parser refuses it before any entry is read.
        let err = parse(&sentinel.replace("0.15625", "1e999")).expect_err("refused");
        assert!(
            err.contains("invalid number") && err.contains("out of range"),
            "{err}"
        );
        // The floor itself and greedy are servable.
        assert_eq!(parse(&sentinel.replace("0.15625", "1e-4")), Ok(()));
        assert_eq!(parse(&edited(&|e| e.sampling = Sampling::Greedy)), Ok(()));
    }

    #[test]
    fn an_engine_no_build_has_is_a_parse_error() {
        // A trace naming draft-verify, which no engine runs, is refused
        // where it enters — an unknown variant — and not at replay.
        let committed = include_str!("../tests/traces/eviction_churn.json");
        let mut trace = ArrivalTrace::from_json(committed).expect("the committed trace parses");
        trace.entries[1].engine = EngineChoice::MedusaTree(vec![424_242]);
        let json = serde_json::to_string(&trace).expect("serializes");
        let sentinel = r#""engine":{"MedusaTree":[424242]}"#;
        assert_eq!(json.matches(sentinel).count(), 1, "{json}");
        // The removed variant's name, as older traces spelled it.
        let removed = concat!("Draft", "Verify");
        let draft = json.replace(
            sentinel,
            &format!(r#""engine":{{"{removed}":{{"gamma":3}}}}"#),
        );
        let err = ArrivalTrace::from_json(&draft).expect_err("an unknown engine");
        assert!(err.to_string().contains(removed), "{err}");
        // The sentinel itself is an engine the build has.
        assert!(ArrivalTrace::from_json(&json).is_ok());
    }

    #[test]
    fn replayed_trace_serves_bit_identically() {
        let model = MlpLm::new(MlpLmConfig::tiny(16));
        let cost = GpuCostModel::codellama_like();
        let cfg = ServeConfig::concurrency(4);
        let w = workload(Some(2.5));
        let requests = w.requests();
        let trace = ArrivalTrace::record(&requests, w.seed, &w.mix.base);
        let json = trace.to_json().expect("serializes");
        let replayed = ArrivalTrace::from_json(&json).expect("parses").replay();
        let serve = |requests: Vec<Request>| -> ServeReport {
            let mut engine = ServeEngine::new(&model, cfg.clone());
            for req in requests {
                engine.submit(req);
            }
            engine.run(&cost)
        };
        let original = serve(requests);
        let again = serve(replayed);
        assert_eq!(
            original.completions.len(),
            again.completions.len(),
            "replay lost requests"
        );
        for (a, b) in original.completions.iter().zip(&again.completions) {
            assert_eq!(a.output.tokens, b.output.tokens, "request {} tokens", a.id);
            assert_eq!(a.step_ticks, b.step_ticks, "request {} schedule", a.id);
            assert_eq!(a.deadline, b.deadline);
        }
        assert_eq!(original.stats, again.stats);
    }
}
