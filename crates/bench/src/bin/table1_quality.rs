//! Regenerates **Table I**: pass@k and Pass Rate for Function and Syntax
//! across {Ours, Medusa, NTP} × {Large, Small} × data fractions ×
//! {RTLLM-sim, VGen-sim}.

use verispec_bench::HarnessArgs;
use verispec_eval::{render_fig6, render_table1, run_table1, Pipeline};

fn main() {
    let args = HarnessArgs::parse();
    eprintln!("building pipeline (corpus + tokenizer + datasets)...");
    let pipe = Pipeline::build(args.scale.pipeline);
    eprintln!(
        "corpus: {} items; training/evaluating {} cells...",
        pipe.corpus.stats.retained,
        2 * args.scale.data_fractions.len() * 3
    );
    let cells = run_table1(&args.scale, &pipe);
    println!("{}", render_table1(&cells));

    // Fig. 6 falls out of the same cells; print it here so a single full
    // run covers both artifacts.
    print!("\n{}", render_fig6(&cells));
    args.write_json(&cells);
}
