//! The metric tables. `BENCHMARK.json` at the repo root lists the same
//! names, units and directions (a test holds the two together), and a
//! run fails unless it reports exactly these.

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may get worse before a change counts as a regression.
    pub bound: Option<f64>,
    /// A count that is a pure function of the inputs: it must repeat
    /// bit for bit on every pass and between two runs of one commit.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn timed(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: "lower",
        bound: None,
        exact: false,
    }
}

const fn ratio(name: &'static str, better: &'static str) -> Def {
    Def {
        name,
        unit: "ratio",
        better,
        bound: None,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
        exact: true,
    }
}

/// Reported with `--trace 0`, on every workload.
pub const END_TO_END: &[Def] = &[
    e2e("tok_s", "1/s", "higher", 0.20),
    e2e("lat_p50_ms", "ms", "lower", 0.25),
    e2e("lat_p95_ms", "ms", "lower", 0.25),
    e2e("ttft_p50_ms", "ms", "lower", 0.25),
    e2e("ttft_p95_ms", "ms", "lower", 0.25),
    e2e("tpot_p50_ms", "ms", "lower", 0.25),
    e2e("real_speedup", "ratio", "higher", 0.20),
    e2e("sim_speedup", "ratio", "higher", 0.10),
    e2e("peak_rss_mb", "MB", "lower", 0.20),
    e2e("setup_s", "s", "lower", 0.25),
];

/// Reported with `--trace 1`. A metric whose layer the workload never
/// enters reads 0 there (README.md says which is which).
pub const PER_LAYER: &[Def] = &[
    // Set-up, replayed piece by piece.
    timed("data.corpus_build_s", "s"),
    timed("tokenizer.train_s", "s"),
    timed("core.train_ntp_s", "s"),
    timed("grammar.oracle_build_ms", "ms"),
    timed("load.generate_ms", "ms"),
    timed("load.report_ms", "ms"),
    // Text layers, probed over the 46 reference designs.
    timed("tokenizer.encode_us_per_prompt", "us"),
    timed("tokenizer.decode_us_per_sample", "us"),
    timed("verilog.defragmentize_us_per_sample", "us"),
    timed("verilog.parse_us_per_module", "us"),
    timed("sim.judge_us_per_design", "us"),
    exact("eval.control_pass_rate", "ratio", "higher"),
    // Kernels, probed on one session of the Ours model at tree [2,2].
    timed("lm.append_ns_per_token", "ns"),
    timed("lm.fork_us", "us"),
    timed("lm.multi_logits_us", "us"),
    timed("lm.verify_batch_us_per_node", "us"),
    exact("lm.flops_per_node", "count", "lower"),
    exact("lm.bytes_per_node", "count", "lower"),
    // Decode engines, from the offline_eval pass.
    timed("eval.judge_us_per_sample", "us"),
    exact("eval.parse_rate", "ratio", "higher"),
    exact("eval.sim_pass_rate", "ratio", "higher"),
    exact("core.tok_per_step.ntp", "count", "higher"),
    exact("core.tok_per_step.medusa", "count", "higher"),
    exact("core.tok_per_step.ours", "count", "higher"),
    exact("core.tok_per_step.grammar", "count", "higher"),
    exact("core.accept_rate.medusa", "ratio", "higher"),
    exact("core.accept_rate.ours", "ratio", "higher"),
    exact("core.accept_rate.grammar", "ratio", "higher"),
    timed("core.decode_us_per_step.ntp", "us"),
    timed("core.decode_us_per_step.medusa", "us"),
    timed("core.decode_us_per_step.ours", "us"),
    timed("core.decode_us_per_step.grammar", "us"),
    timed("core.self_us_per_step.ours", "us"),
    ratio("grammar.step_overhead_frac", "lower"),
    exact("grammar.considered", "count", "lower"),
    exact("grammar.pruned", "count", "higher"),
    // One engine, driven by hand over the workload's requests.
    timed("serve.engine.submit_us_p50", "us"),
    timed("serve.engine.tick_ms_p50", "ms"),
    timed("serve.engine.tick_ms_p95", "ms"),
    exact("serve.engine.ticks", "count", "lower"),
    exact("serve.engine.batch_mean", "count", "higher"),
    exact("serve.engine.fused_verify_nodes", "count", "lower"),
    timed("serve.engine.tick_us_per_node", "us"),
    ratio("serve.engine.fusion_gain", "higher"),
    // Scheduler and tick-space service levels of the fleet run.
    exact("serve.tok_per_tick", "count", "higher"),
    exact("serve.ttft_p99_ticks", "count", "lower"),
    exact("serve.slo_attain", "ratio", "higher"),
    exact("serve.scheduler.queue_ticks_p99", "count", "lower"),
    exact("serve.scheduler.deferred_steps", "count", "lower"),
    exact("serve.scheduler.preemptions", "count", "lower"),
    exact("serve.scheduler.shed", "count", "lower"),
    // Prefix cache.
    exact("serve.prefix.hit_rate", "ratio", "higher"),
    exact("serve.prefix.tokens_saved", "count", "higher"),
    exact("serve.prefix.evictions", "count", "lower"),
    timed("serve.prefix.lookup_us", "us"),
    timed("serve.prefix.insert_us", "us"),
    // Routing and the runtimes.
    exact("serve.dispatch.affine_share", "ratio", "higher"),
    exact("serve.dispatch.worker_imbalance", "ratio", "lower"),
    ratio("serve.runtime.overhead_frac", "lower"),
    exact("serve.runtime.idle_ticks_skipped", "count", "higher"),
    ratio("serve.threaded.speedup", "higher"),
    // The instruments themselves.
    exact("trace.events", "count", "lower"),
    ratio("trace.overhead_frac", "lower"),
    ratio("trace.span_residual_frac", "lower"),
    timed("trace.fold_ms", "ms"),
    timed("trace.chrome_export_ms", "ms"),
];

/// Name → value pairs of one run, checked against a table on the way
/// out so a metric can be neither forgotten nor invented.
#[derive(Debug, Clone, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            !self.0.iter().any(|(n, _)| *n == name),
            "metric {name} reported twice"
        );
        self.0.push((name, value));
    }

    pub fn extend(&mut self, pairs: &[(&'static str, f64)]) {
        for &(name, value) in pairs {
            self.set(name, value);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// The values in `table` order; names `table` lists but the run did
    /// not set read 0 when `fill` is on (per-layer metrics of layers
    /// the workload never enters), and are an error otherwise.
    pub fn in_order(&self, table: &[Def], fill: bool) -> Result<Vec<(Def, f64)>, String> {
        if let Some((stray, _)) = self
            .0
            .iter()
            .find(|(n, _)| !table.iter().any(|d| d.name == *n))
        {
            return Err(format!("metric {stray} is not in the table"));
        }
        table
            .iter()
            .map(|d| match self.get(d.name) {
                Some(v) if v.is_finite() => Ok((*d, v)),
                Some(v) => Err(format!("metric {} is {v}", d.name)),
                None if fill => Ok((*d, 0.0)),
                None => Err(format!("metric {} was not measured", d.name)),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn listed(doc: &Value, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        let Value::Seq(items) = doc.field(key).expect("key present") else {
            panic!("{key} is not a list");
        };
        items
            .iter()
            .map(|m| {
                let s = |k: &str| m.field(k).expect(k).as_str().expect(k).to_string();
                let bound = match m.field("bound") {
                    Ok(Value::Float(b)) => Some(*b),
                    _ => None,
                };
                (s("name"), s("unit"), s("better"), bound)
            })
            .collect()
    }

    fn table(defs: &[Def]) -> Vec<(String, String, String, Option<f64>)> {
        defs.iter()
            .map(|d| (d.name.into(), d.unit.into(), d.better.into(), d.bound))
            .collect()
    }

    /// `BENCHMARK.json` and the harness list the same metrics, so every
    /// per-layer metric the file names is one a run reports
    /// (`Values::in_order` fails the run otherwise).
    #[test]
    fn benchmark_json_lists_exactly_the_tables() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        let doc: Value = serde_json::from_str(&text).expect("valid JSON");
        assert_eq!(listed(&doc, "end_to_end"), table(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), table(PER_LAYER));
        let Value::Seq(workloads) = doc.field("workloads").expect("workloads") else {
            panic!("workloads is not a list");
        };
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| w.field("name").expect("name").as_str().expect("string"))
            .collect();
        let kinds: Vec<&str> = crate::workloads::Kind::ALL
            .iter()
            .map(|k| k.name())
            .collect();
        assert_eq!(names, kinds);
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(d.name), "{}", d.name);
            assert!(unit_ok(d.unit), "{}", d.unit);
            assert!(d.better == "higher" || d.better == "lower", "{}", d.name);
            assert!(seen.insert(d.name), "{} listed twice", d.name);
        }
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
    }

    #[test]
    fn values_refuse_strays_and_gaps() {
        let mut v = Values::default();
        v.set("tok_s", 1.0);
        assert!(v.in_order(END_TO_END, false).is_err(), "gaps are errors");
        assert_eq!(
            v.in_order(END_TO_END, true).expect("filled").len(),
            END_TO_END.len()
        );
        v.set("nonsense", 1.0);
        assert!(v.in_order(END_TO_END, true).is_err(), "strays are errors");
    }
}
