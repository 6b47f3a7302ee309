//! `fbmark compare A.json B.json`: is B the same as A, better or worse?
//!
//! One row per workload × end-to-end metric, judged against the bound
//! `BENCHMARK.json` fixes for the metric. A is the base of every ratio.

use crate::json::Json;
use std::path::Path;

#[derive(Debug, PartialEq, Clone, Copy)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// The runs of A or of B differ among themselves by more than the
    /// bound, so a difference between A and B of that size means nothing.
    Unresolved,
}

/// Judge medians `a` (the base) and `b` of a metric for which `higher` is
/// or is not better, given each side's recorded spread.
pub fn verdict(a: f64, b: f64, higher: bool, spread: f64, bound: f64) -> Verdict {
    if spread > bound {
        return Verdict::Unresolved;
    }
    // How much worse b is than a, as a share of a.
    let worse_by = if higher { (a - b) / a } else { (b - a) / a };
    if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn field(v: &Json, path: &[&str]) -> Option<f64> {
    path.iter()
        .try_fold(v, |v, key| v.get(key))
        .and_then(Json::as_f64)
}

/// Print the comparison; `Ok(false)` when any metric is worse or B fails
/// a larger share of its operations than A.
pub fn compare(a_path: &Path, b_path: &Path, benchmark_json: &Path) -> Result<bool, String> {
    let (a, b, spec) = (load(a_path)?, load(b_path)?, load(benchmark_json)?);
    let metrics = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let workloads = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or_else(|| format!("{} has no workloads", a_path.display()))?;
    println!(
        "{:<18} {:<28} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "A (base)", "B", "B/A", "bound"
    );
    let mut ok = true;
    for workload in workloads.keys() {
        for m in metrics {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let bound = field(m, &["bound"]).ok_or("metric without a bound")?;
            let higher = m.get("better").and_then(Json::as_str) == Some("higher");
            let side = |file: &Json, what: &str| {
                field(file, &["workloads", workload, name, what])
                    .ok_or_else(|| format!("{workload}/{name}/{what} missing"))
            };
            let (ma, mb) = (side(&a, "median")?, side(&b, "median")?);
            let spread = side(&a, "spread")?.max(side(&b, "spread")?);
            let v = verdict(ma, mb, higher, spread, bound);
            ok &= v != Verdict::Worse;
            println!(
                "{workload:<18} {name:<28} {ma:>14.4} {mb:>14.4} {:>9.4} {bound:>6}  {}",
                mb / ma,
                format!("{v:?}").to_lowercase()
            );
        }
        let failure_rate = |file: &Json| {
            let get = |what| field(file, &["workloads", workload, what]).unwrap_or(0.0);
            get("failed_ops") / get("attempted_ops").max(1.0)
        };
        let (fa, fb) = (failure_rate(&a), failure_rate(&b));
        if fb > fa {
            ok = false;
            println!("{workload:<18} failed_ops/attempted_ops rose from {fa} to {fb}: worse");
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // Throughput, 10 % bound.
        assert_eq!(verdict(100.0, 95.0, true, 0.02, 0.1), Verdict::Same);
        assert_eq!(verdict(100.0, 85.0, true, 0.02, 0.1), Verdict::Worse);
        assert_eq!(verdict(100.0, 115.0, true, 0.02, 0.1), Verdict::Better);
        // Latency: lower is better.
        assert_eq!(verdict(100.0, 115.0, false, 0.02, 0.1), Verdict::Worse);
        assert_eq!(verdict(100.0, 85.0, false, 0.02, 0.1), Verdict::Better);
        // Runs that disagree among themselves settle nothing.
        assert_eq!(verdict(100.0, 50.0, true, 0.3, 0.1), Verdict::Unresolved);
    }
}
