//! `compare A.json B.json`: two `out/result.json` files (A the parent,
//! B the change — or the same commit twice, for the A/A check) held
//! against the bounds in `BENCHMARK.json`, one row per workload and
//! end-to-end metric.

use serde::Value;
use std::path::Path;

/// One side of a row: the reported value and the per-pass spread
/// behind it, where there were passes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

impl Side {
    /// Distance between the quartiles as a share of the median.
    fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.value.abs()
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// The rule of the choosing-metrics guide: worse when the median moved
/// the wrong way by more than the bound; unresolved when the run-to-run
/// spread is wider than the bound, unless every pass of B reads better
/// than every pass of A.
pub fn verdict(a: Side, b: Side, higher_is_better: bool, bound: f64) -> Verdict {
    let (worse_by, all_better) = if higher_is_better {
        ((a.value - b.value) / a.value.abs(), b.min > a.max)
    } else {
        ((b.value - a.value) / a.value.abs(), b.max < a.min)
    };
    if all_better {
        Verdict::Ok
    } else if a.spread().max(b.spread()) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn read(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))
}

fn number(v: &Value) -> Option<f64> {
    match *v {
        Value::Float(f) => Some(f),
        Value::UInt(u) => Some(u as f64),
        Value::Int(i) => Some(i as f64),
        _ => None,
    }
}

fn items<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    match v.field(key) {
        Ok(Value::Seq(items)) => Ok(items),
        _ => Err(format!("no list `{key}`")),
    }
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.field(key).ok().and_then(Value::as_str).unwrap_or("")
}

fn side(metric: &Value) -> Option<Side> {
    let value = number(metric.field("value").ok()?)?;
    let or_value = |key: &str| metric.field(key).ok().and_then(number).unwrap_or(value);
    Some(Side {
        value,
        q1: or_value("q1"),
        q3: or_value("q3"),
        min: or_value("min"),
        max: or_value("max"),
    })
}

fn find_run<'a>(doc: &'a Value, workload: &str, trace: bool) -> Option<&'a Value> {
    items(doc, "runs").ok()?.iter().find(|r| {
        text(r, "workload") == workload && r.field("trace").ok() == Some(&Value::Bool(trace))
    })
}

/// Prints the table; `Ok(false)` when any row is `worse` or B failed
/// more operations than A.
pub fn compare(a_path: &Path, b_path: &Path, benchmark_json: &Path) -> Result<bool, String> {
    let (a, b, contract) = (read(a_path)?, read(b_path)?, read(benchmark_json)?);
    let mut clean = true;
    println!(
        "{:<14} {:<14} {:>14} {:>14} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "B vs A", "spread", "bound"
    );
    for workload in items(&contract, "workloads")? {
        let name = text(workload, "name");
        let (Some(ra), Some(rb)) = (find_run(&a, name, false), find_run(&b, name, false)) else {
            println!("{name:<14} (not in both files)");
            continue;
        };
        for metric in items(&contract, "end_to_end")? {
            let metric_name = text(metric, "name");
            let higher = text(metric, "better") == "higher";
            let bound = metric.field("bound").ok().and_then(number).unwrap_or(0.0);
            let lookup = |run: &Value| {
                run.field("metrics")
                    .ok()?
                    .field(metric_name)
                    .ok()
                    .and_then(side)
            };
            let (Some(sa), Some(sb)) = (lookup(ra), lookup(rb)) else {
                return Err(format!("{name}: {metric_name} missing from a result file"));
            };
            let v = verdict(sa, sb, higher, bound);
            clean &= v != Verdict::Worse;
            println!(
                "{:<14} {:<14} {:>14.5} {:>14.5} {:>+8.2}% {:>7.2}% {:>5.0}%  {}",
                name,
                metric_name,
                sa.value,
                sb.value,
                (sb.value / sa.value - 1.0) * 100.0,
                sa.spread().max(sb.spread()) * 100.0,
                bound * 100.0,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }

        // Failures, correctness and the digest, both trace modes.
        for trace in [false, true] {
            let (Some(ra), Some(rb)) = (find_run(&a, name, trace), find_run(&b, name, trace))
            else {
                continue;
            };
            let count =
                |run: &Value, key: &str| run.field(key).ok().and_then(number).unwrap_or(0.0);
            let frac = |run: &Value| count(run, "failed") / count(run, "attempted").max(1.0);
            if frac(rb) > frac(ra) || rb.field("correct").ok() == Some(&Value::Bool(false)) {
                clean = false;
                println!(
                    "{name:<14} trace={} B fails more or is incorrect: WORSE",
                    trace as u8
                );
            }
            if text(ra, "output_digest") != text(rb, "output_digest") {
                println!(
                    "{name:<14} trace={} output_digest differs: {} vs {}",
                    trace as u8,
                    text(ra, "output_digest"),
                    text(rb, "output_digest")
                );
            }
            // Exact metrics must repeat between two runs of one commit;
            // between two commits a difference is information.
            if let (Ok(Value::Map(ma)), Ok(mb)) = (ra.field("metrics"), rb.field("metrics")) {
                for (key, entry) in ma {
                    let Some(key) = key.as_str() else { continue };
                    if entry.field("exact").ok() != Some(&Value::Bool(true)) {
                        continue;
                    }
                    let other = mb.field(key).ok().and_then(|m| m.field("value").ok());
                    if entry.field("value").ok() != other {
                        println!("{name:<14} exact metric {key} differs");
                    }
                }
            }
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steady(value: f64) -> Side {
        Side {
            value,
            q1: value * 0.99,
            q3: value * 1.01,
            min: value * 0.98,
            max: value * 1.02,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        // Within the bound either way.
        assert_eq!(
            verdict(steady(100.0), steady(95.0), true, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            verdict(steady(100.0), steady(105.0), false, 0.10),
            Verdict::Ok
        );
        // Past the bound in the bad direction only.
        assert_eq!(
            verdict(steady(100.0), steady(85.0), true, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(steady(100.0), steady(85.0), false, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            verdict(steady(100.0), steady(115.0), false, 0.10),
            Verdict::Worse
        );
        // A spread wider than the bound resolves nothing...
        let noisy = Side {
            q1: 80.0,
            q3: 120.0,
            min: 70.0,
            max: 130.0,
            ..steady(100.0)
        };
        assert_eq!(
            verdict(noisy, steady(80.0), true, 0.10),
            Verdict::Unresolved
        );
        // ...unless every pass of B beats every pass of A.
        assert_eq!(verdict(noisy, steady(200.0), true, 0.10), Verdict::Ok);
    }
}
