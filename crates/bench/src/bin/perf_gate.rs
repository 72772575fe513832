//! The bench gate: fresh `perfbench` result lines against a committed
//! baseline line.
//!
//! ```text
//! perf_gate <tolerance-pct> <baseline> <run>...
//! ```
//!
//! Each file holds the standard output of one `perfbench --trace 0` run,
//! or only its result line: the gate reads the last line, the JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. The baseline and every
//! fresh run must be `"correct": true` with `"failed": 0`, and the best
//! fresh `sim_speed` may fall at most `<tolerance-pct>` percent below the
//! baseline's. The best run's result line is printed last; committed as
//! the baseline, it re-records it (`scripts/ci.sh`, stage `bench-gate`).
//!
//! Exits 0 on a pass, 1 on a failed gate, 2 on a usage error.

use std::process::ExitCode;

use nimblock_ser::{parse, Json};

/// The last non-empty line of a run's output: its result line.
fn result_line(output: &str) -> &str {
    output.lines().rev().find(|l| !l.trim().is_empty()).unwrap_or_default()
}

/// The `sim_speed` of a clean run, read from its output's result line.
fn sim_speed(output: &str) -> Result<f64, String> {
    let doc = parse(result_line(output)).map_err(|e| format!("malformed result line: {e}"))?;
    if doc.get("correct") != Some(&Json::Bool(true)) {
        return Err("the run is not \"correct\": true".to_owned());
    }
    if doc.get("failed").and_then(Json::as_u64) != Some(0) {
        return Err("the run has failed ops".to_owned());
    }
    doc.get("metrics")
        .and_then(|m| m.get("sim_speed"))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .filter(|v| *v > 0.0)
        .ok_or_else(|| "the result line has no sim_speed".to_owned())
}

/// What the gate found: the best run, a summary line, and the verdict.
#[derive(Debug)]
struct Verdict {
    best: usize,
    summary: String,
    pass: bool,
}

/// Judges the runs' outputs against the baseline's. `Err` names a line
/// that is malformed or comes from a run that was not clean.
fn judge(tolerance_pct: f64, baseline: &str, runs: &[String]) -> Result<Verdict, String> {
    let base = sim_speed(baseline).map_err(|e| format!("baseline: {e}"))?;
    let speeds = runs
        .iter()
        .enumerate()
        .map(|(i, run)| sim_speed(run).map_err(|e| format!("run {}: {e}", i + 1)))
        .collect::<Result<Vec<f64>, String>>()?;
    let best = (0..speeds.len())
        .max_by(|&a, &b| speeds[a].total_cmp(&speeds[b]))
        .ok_or("no runs to judge")?;
    let top = speeds[best];
    // Products, not a ratio: a run exactly at the tolerance passes.
    let pass = top * 100.0 >= base * (100.0 - tolerance_pct);
    let listed: Vec<String> = speeds.iter().map(|s| format!("{s:.0}")).collect();
    let summary = format!(
        "sim_speed runs [{}] simsec/s: best {top:.0} is {:+.1} % against the baseline's \
         {base:.0} (tolerance {tolerance_pct} %): {}",
        listed.join(", "),
        (top / base - 1.0) * 100.0,
        if pass { "ok" } else { "REGRESSION" },
    );
    Ok(Verdict { best, summary, pass })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let tolerance = args.first().and_then(|t| t.parse::<f64>().ok());
    let (Some(tolerance), Some(paths)) = (
        tolerance.filter(|t| (0.0..100.0).contains(t)),
        args.get(1..).filter(|paths| paths.len() >= 2),
    ) else {
        eprintln!("usage: perf_gate <tolerance-pct in [0, 100)> <baseline> <run>...");
        return ExitCode::from(2);
    };
    let texts = match paths
        .iter()
        .map(|path| std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}")))
        .collect::<Result<Vec<String>, String>>()
    {
        Ok(texts) => texts,
        Err(e) => {
            eprintln!("bench gate: {e}");
            return ExitCode::from(2);
        }
    };
    match judge(tolerance, &texts[0], &texts[1..]) {
        Ok(verdict) => {
            println!("bench gate: {}", verdict.summary);
            println!("{}", result_line(&texts[1 + verdict.best]));
            if verdict.pass {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("bench gate: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(correct: bool, failed: u64, sim_speed: f64) -> String {
        format!(
            "workload fleet | seed 2023 | untraced (end-to-end)\n\
             {{\"correct\": {correct}, \"attempted\": 58, \"failed\": {failed}, \"metrics\": \
             {{\"sim_speed\": {{\"value\": {sim_speed}, \"unit\": \"simsec/s\"}}, \
             \"setup_s\": {{\"value\": 0.5, \"unit\": \"s\"}}}}}}\n"
        )
    }

    fn clean(sim_speed: f64) -> String {
        line(true, 0, sim_speed)
    }

    #[test]
    fn the_best_run_holds_the_bound_exactly_at_the_tolerance() {
        let base = clean(1_000_000.0);
        let runs = [clean(700_000.0), clean(850_000.0), clean(800_000.0)];
        let verdict = judge(15.0, &base, &runs).unwrap();
        assert!(verdict.pass, "{}", verdict.summary);
        assert_eq!(verdict.best, 1);
        let verdict = judge(40.0, &base, &[clean(600_000.0)]).unwrap();
        assert!(verdict.pass, "{}", verdict.summary);
        let verdict = judge(15.0, &base, &[clean(2_000_000.0)]).unwrap();
        assert!(verdict.pass && verdict.summary.contains("+100.0 %"), "{}", verdict.summary);
    }

    #[test]
    fn just_past_the_tolerance_fails() {
        let base = clean(1_000_000.0);
        let runs = [clean(849_999.0), clean(700_000.0)];
        let verdict = judge(15.0, &base, &runs).unwrap();
        assert!(!verdict.pass, "{}", verdict.summary);
        assert!(verdict.summary.ends_with("REGRESSION"), "{}", verdict.summary);
        assert!(!judge(40.0, &base, &[clean(599_999.0)]).unwrap().pass);
    }

    #[test]
    fn a_run_that_is_not_clean_fails_whatever_its_speed() {
        let base = clean(1_000.0);
        let incorrect = judge(15.0, &base, &[clean(2_000.0), line(false, 0, 2_000.0)]);
        assert!(incorrect.unwrap_err().starts_with("run 2:"));
        let failed_ops = judge(15.0, &base, &[line(true, 1, 2_000.0)]);
        assert!(failed_ops.unwrap_err().contains("failed ops"));
        assert!(judge(15.0, &line(false, 0, 1_000.0), &[clean(2_000.0)]).is_err());
    }

    #[test]
    fn a_missing_sim_speed_or_a_malformed_line_fails() {
        let base = clean(1_000.0);
        let no_speed = "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
                        {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}";
        assert!(judge(15.0, &base, &[no_speed.to_owned()]).unwrap_err().contains("no sim_speed"));
        let truncated = clean(2_000.0).trim_end().trim_end_matches('}').to_owned();
        assert!(judge(15.0, &base, &[truncated]).unwrap_err().contains("malformed"));
        assert!(judge(15.0, &base, &[String::new()]).is_err());
        assert!(judge(15.0, &base, &[]).is_err());
    }
}
