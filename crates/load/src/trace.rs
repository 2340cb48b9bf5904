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

use serde::Serialize;
use verispec_core::DecodeConfig;
use verispec_lm::{Sampling, TokenId};
use verispec_serve::{EngineChoice, FaultPlan, Request};

/// One recorded arrival.
#[derive(Debug, Clone, PartialEq, Serialize)]
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
    /// Tenant class ([`Request::class`]); 0 in traces recorded before
    /// classes existed.
    pub class: u32,
}

// Hand-written so traces recorded before `class` existed still parse
// (the vendored derive requires every field to be present).
impl serde::Deserialize for TraceEntry {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Ok(TraceEntry {
            id: serde::Deserialize::from_value(v.field("id")?)?,
            tick: serde::Deserialize::from_value(v.field("tick")?)?,
            prompt_id: serde::Deserialize::from_value(v.field("prompt_id")?)?,
            engine: serde::Deserialize::from_value(v.field("engine")?)?,
            budget: serde::Deserialize::from_value(v.field("budget")?)?,
            sampling: serde::Deserialize::from_value(v.field("sampling")?)?,
            seed: serde::Deserialize::from_value(v.field("seed")?)?,
            deadline: serde::Deserialize::from_value(v.field("deadline")?)?,
            class: match v.field("class") {
                Ok(f) => serde::Deserialize::from_value(f)?,
                Err(_) => 0,
            },
        })
    }
}

/// A recorded request sequence: the replayable form of one workload
/// realization, optionally carrying the failure scenario
/// ([`FaultPlan`]) the run is to replay under.
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
    /// The failure scenario (worker crash/restart schedule and/or
    /// tenant shares) the trace replays under; the empty plan for
    /// fault-free traces, including every trace recorded before fault
    /// injection existed.
    pub faults: FaultPlan,
}

/// The coldest temperature a trace entry may sample at. The samplers
/// divide every logit by it, so zero, a negative or a NaN is refused by
/// their assertions and a subnormal one (`1e-40`) overflows the scaled
/// row; at this floor — a hundredth of the coldest draw any workload
/// makes — a logit would have to pass `10³⁴` to do that.
const MIN_TEMPERATURE: f32 = 1e-4;

// Hand-written so traces recorded before `faults` existed still parse,
// and so an entry no engine can run — one pointing outside the prompt
// table, sampling at a temperature the samplers refuse, drafting blocks
// of no tokens — is a parse error rather than a panic at replay, inside
// a worker's tick. So is a request id two entries share: the latency
// report joins completions to requests by id, so the second would be
// reported under the first's engine and deadline.
impl serde::Deserialize for ArrivalTrace {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let trace = ArrivalTrace {
            workload_seed: serde::Deserialize::from_value(v.field("workload_seed")?)?,
            base: serde::Deserialize::from_value(v.field("base")?)?,
            prompts: serde::Deserialize::from_value(v.field("prompts")?)?,
            entries: serde::Deserialize::from_value(v.field("entries")?)?,
            faults: match v.field("faults") {
                Ok(f) => serde::Deserialize::from_value(f)?,
                Err(_) => FaultPlan::none(),
            },
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
                (_, EngineChoice::DraftVerify { gamma: 0 }) => Some(format!(
                    "trace entry {}: engine.gamma 0 drafts no token (at least 1)",
                    e.id
                )),
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
    /// is not finite or is below `1e-4` (zero, negative, NaN, subnormal),
    /// a `DraftVerify` `gamma` of 0 — is an `Err` naming the entry,
    /// never a panic here or in the tick that would have served it. Two
    /// entries with one request id are an `Err` naming the id and both
    /// entry positions.
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
    fn traces_from_before_faults_and_classes_still_parse() {
        let w = workload(Some(3.0));
        let requests = w.requests();
        let trace = ArrivalTrace::record(&requests, w.seed, &w.mix.base)
            .with_faults(FaultPlan::none().crash(10, 0).restart(20, 0));
        let json = trace.to_json().expect("serializes");
        // Re-shape into the pre-fault era: drop `faults` from the
        // trace and `class` from every entry, as a trace committed
        // before this release would look.
        let mut v: serde::Value = serde_json::from_str(&json).expect("value parses");
        let serde::Value::Map(fields) = &mut v else {
            panic!("trace serializes as a map")
        };
        fields.retain(|(k, _)| !matches!(k, serde::Value::Str(s) if s == "faults"));
        for (k, val) in fields.iter_mut() {
            if matches!(k, serde::Value::Str(s) if s == "entries") {
                let serde::Value::Seq(items) = val else {
                    panic!("entries serialize as a sequence")
                };
                for item in items {
                    let serde::Value::Map(entry) = item else {
                        panic!("entry serializes as a map")
                    };
                    entry.retain(|(k, _)| !matches!(k, serde::Value::Str(s) if s == "class"));
                }
            }
        }
        let old_json = serde_json::to_string(&v).expect("re-serializes");
        let back = ArrivalTrace::from_json(&old_json).expect("pre-fault-era trace parses");
        assert_eq!(
            back.faults,
            FaultPlan::none(),
            "missing faults default empty"
        );
        assert!(
            back.entries.iter().all(|e| e.class == 0),
            "missing classes default to tenant 0"
        );
        assert_eq!(back.entries.len(), requests.len());
        assert_eq!(back.prompts, trace.prompts);
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
        for t in ["0.0", "-0.5", "1e-40", "9e-5", "1e999"] {
            let err = parse(&sentinel.replace("0.15625", t)).expect_err("refused");
            assert!(
                err.contains(&format!("entry {id}:")) && err.contains("sampling.temperature"),
                "{t}: {err}"
            );
        }
        // A draft block of no tokens dies at admission.
        let err = parse(&edited(&|e| {
            e.engine = EngineChoice::DraftVerify { gamma: 0 }
        }))
        .expect_err("refused");
        assert!(
            err.contains(&format!("entry {id}:")) && err.contains("engine.gamma"),
            "{err}"
        );
        // The floor itself, greedy and a one-token block are servable.
        assert_eq!(parse(&sentinel.replace("0.15625", "1e-4")), Ok(()));
        assert_eq!(parse(&edited(&|e| e.sampling = Sampling::Greedy)), Ok(()));
        let block = |e: &mut TraceEntry| e.engine = EngineChoice::DraftVerify { gamma: 1 };
        assert_eq!(parse(&edited(&block)), Ok(()));
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
