//! Regenerates **Fig. 1**: the speed/quality scatter (tokens/s vs
//! functional Pass Rate on RTLLM-sim) for the Large model.

use verispec_bench::HarnessArgs;
use verispec_eval::{run_fig1, Pipeline};

fn main() {
    let args = HarnessArgs::parse();
    eprintln!("building pipeline...");
    let pipe = Pipeline::build(args.scale.pipeline);
    let points = run_fig1(&args.scale, &pipe);
    println!("Fig. 1 — speed vs quality (Large model, RTLLM-sim)");
    println!("method    tokens/s    func-pass-rate(%)   syntax-pass-rate(%)");
    for p in &points {
        println!(
            "{:<8} {:>9.2}    {:>13.2}    {:>15.2}",
            p.method, p.speed, p.pass_rate, p.syntax_pass_rate
        );
    }
    // ASCII scatter on the syntax axis: the laptop-scale models pass
    // almost no functional check, so that axis cannot separate methods.
    let max_speed = points.iter().map(|p| p.speed).fold(1.0, f64::max);
    println!("\n  syntax pass-rate ^");
    for row in (0..=10).rev() {
        let lo = row as f64 * 10.0;
        let mut line = format!("  {:>7.0}% |", lo);
        for col in 0..40 {
            let s_lo = col as f64 / 40.0 * max_speed;
            let s_hi = (col + 1) as f64 / 40.0 * max_speed;
            let mark = points.iter().find(|p| {
                p.speed >= s_lo
                    && p.speed < s_hi
                    && p.syntax_pass_rate >= lo
                    && p.syntax_pass_rate < lo + 10.0
            });
            line.push(match mark.map(|p| p.method) {
                Some("Ours") => 'O',
                Some("Medusa") => 'M',
                Some("NTP") => 'N',
                _ => ' ',
            });
        }
        println!("{line}");
    }
    println!(
        "           +{} -> tokens/s (max {max_speed:.0})",
        "-".repeat(40)
    );
    args.write_json(&points);
}
