//! Latency-under-load bench: the serve-aware Table II. An open-loop
//! Poisson workload (seeded arrivals, mixed short/long prompts, greedy
//! and sampled) is served through `verispec-serve`'s **paced** drive
//! (`Drive::Paced`: each request routed when its arrival tick falls
//! due) at three offered-load levels — light, near the NTP
//! service capacity, and overload — once per method (syntax-aligned
//! tree speculation, MEDUSA tree, NTP) with identical arrivals,
//! prompts, budgets, and seeds: equal offered load, only the engine
//! differs.
//!
//! On top of the method sweep, each load level runs the **speculation
//! policy A/B**: the same arrivals forced to Ours-tree, now carrying
//! SLO deadlines, served under a fixed per-tick verify capacity with
//! earliest-deadline-first scheduling and load-shedding admission
//! control, once per policy — static (frozen tree), adaptive
//! (per-request history-driven speculation length), and budgeted
//! (shrink-to-fit packing of the tick's candidate budget). The rows
//! record SLO attainment and acceptance rates alongside the latency
//! percentiles — the measured answer to "Performance or Illusion?"
//! under batch pressure.
//!
//! Finally, the **dispatch sweep**: one Ours-tree workload at a
//! fleet-saturating offered load (4× the Table II overload level — a
//! speculative engine's effective capacity is several NTP-capacities,
//! so saturating four of them takes real heat), served once on a
//! single engine as the melt-down baseline, then routed across 1/2/4
//! independent engine workers under each routing policy (round-robin,
//! join-shortest-queue by ready depth, join-least-loaded by
//! outstanding candidate-token cost), every cell at equal offered
//! load — the JSQ-vs-RR tail-latency comparison. Dispatched
//! completions are asserted token-identical to the single-engine
//! reference (and one-worker cells tick-identical) before any row is
//! recorded.
//!
//! On top of that, the **Zipf shared-stem cache sweep**: a workload
//! whose prompts mostly extend a few hot stems (Zipf-weighted), served
//! with paced prompt ingestion so ingestion work costs ticks, measured
//! cache-off vs cache-on across 1/2/4 workers under round-robin,
//! least-loaded, and the cache-aware prefix-affine route — all at one
//! equal offered load. The rows carry the prefix-cache telemetry
//! (hit/miss, tokens saved, depth histogram, eviction and residency
//! peaks); every cell's completions are asserted token-identical to an
//! uncached single-engine reference before recording, and
//! `load_gate_violations` gates that cache-on beats cache-off on TTFT
//! p99 and that prefix-affine out-hits round-robin on fleets.
//!
//! Emits `BENCH_load.json` at the workspace root with exact
//! p50/p90/p99 queueing delay, TTFT, per-token inter-commit gaps, and
//! end-to-end latency in scheduler ticks, alongside session-eviction
//! high-water stats — every cell an exact function of the code, so a
//! rerun writes the same bytes. Every paced run is asserted
//! token-for-token and tick-for-tick identical to batch submission
//! before its numbers are recorded, and every workload's realized
//! arrivals are asserted to round-trip bit-identically through the
//! JSON `ArrivalTrace`. The file is written only once
//! `load_gate_violations` holds of the rows; a violated gate or a
//! failed write exits non-zero and leaves the committed file untouched.
//!
//! `--test` runs a shrunk workload (CI smoke) but still sweeps all
//! three load levels and emits the artifact.

use verispec_bench::write_gated_artifact;
use verispec_eval::{
    load_gate_violations, render_load_bench, run_load_bench, ModelScale, Pipeline, PipelineConfig,
    Scale,
};

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    // A small one-epoch pipeline: the sweep measures scheduling, not
    // model quality.
    let pipeline = PipelineConfig {
        corpus_size: 96,
        vocab: 420,
        n_heads: 6,
        epochs: 1,
        ..Default::default()
    };
    // More requests than the pool (8), so queueing — the thing the
    // percentiles measure — actually occurs even in the CI smoke.
    let speed_prompt_count = if test_mode { 12 } else { 48 };
    // Offered load as a fraction of the NTP service capacity
    // (`max_batch` tokens/tick): light, near-saturation, overload.
    // Speculation raises effective capacity by its tokens-per-step
    // factor, which is exactly the gap the percentiles expose.
    let utilizations = [0.25, 0.9, 2.0];
    let scale = Scale {
        pipeline,
        speed_prompt_count,
        ..Scale::quick()
    };
    let pipe = Pipeline::build(scale.pipeline);
    let rows = run_load_bench(&scale, &pipe, ModelScale::Small, &utilizations);
    print!("{}", render_load_bench(&rows));
    write_gated_artifact("BENCH_load.json", &rows, &load_gate_violations(&rows));
}
