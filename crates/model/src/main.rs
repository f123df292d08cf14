//! `nvdimmc-model` CLI: run an exploration, or replay/minimize a
//! schedule artifact.
//!
//! ```text
//! nvdimmc-model explore  [--preset smoke|ci|bughunt] [--set key=value]
//!                        [--expect-violation RULE] [--write-schedule PATH] [--min-states N]
//! nvdimmc-model replay   PATH [--expect-violation RULE]
//! nvdimmc-model minimize PATH OUT
//! ```
//!
//! Exit code 0 on success (including an *expected* violation), 1 on an
//! unexpected verdict, 2 on usage errors.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use nvdimmc_model::{explore, from_text, minimize, replay, to_text, ExploreReport, ModelParams};
use std::process::ExitCode;
use std::time::Instant;

fn preset(name: &str) -> Option<ModelParams> {
    match name {
        "smoke" => Some(ModelParams::smoke()),
        "ci" => Some(ModelParams::ci()),
        "bughunt" => Some(ModelParams::bug_hunt()),
        _ => None,
    }
}

fn print_report(r: &ExploreReport, secs: f64) {
    println!(
        "explore: states={} transitions={} terminals={} depth={} truncated={} wall={secs:.2}s",
        r.distinct_states, r.transitions, r.terminals, r.max_depth_seen, r.truncated,
    );
    if let Some(v) = &r.violation {
        println!(
            "explore: VIOLATION [{}]: {} ({} actions)",
            v.violation.rule,
            v.violation.message,
            v.schedule.len()
        );
    }
}

struct ExploreArgs {
    params: ModelParams,
    expect: Option<String>,
    write_schedule: Option<String>,
    min_states: u64,
}

fn parse_explore_args(args: &[String]) -> Result<ExploreArgs, String> {
    let mut out = ExploreArgs {
        params: ModelParams::ci(),
        expect: None,
        write_schedule: None,
        min_states: 0,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--preset" => {
                let v = value("--preset")?;
                out.params = preset(&v).ok_or_else(|| format!("unknown preset {v:?}"))?;
            }
            "--set" => {
                // Reuses the schedule-header grammar: `--set txns=2`.
                let v = value("--set")?;
                let merged = format!("{} {v}", out.params.to_header());
                out.params = ModelParams::from_header(&merged)?;
            }
            "--expect-violation" => out.expect = Some(value("--expect-violation")?),
            "--write-schedule" => out.write_schedule = Some(value("--write-schedule")?),
            "--min-states" => {
                let v = value("--min-states")?;
                out.min_states = v.parse().map_err(|e| format!("--min-states: {e}"))?;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

fn cmd_explore(args: &[String]) -> Result<ExitCode, String> {
    let a = parse_explore_args(args)?;
    let start = Instant::now();
    let r = explore(&a.params);
    print_report(&r, start.elapsed().as_secs_f64());
    if let (Some(path), Some(found)) = (&a.write_schedule, &r.violation) {
        let minimal = minimize(&a.params, &found.schedule, &found.violation.rule);
        let text = to_text(&a.params, &minimal, Some(&found.violation));
        std::fs::write(path, text).map_err(|e| format!("write {path}: {e}"))?;
        println!(
            "minimized schedule ({} -> {} actions) written to {path}",
            found.schedule.len(),
            minimal.len()
        );
    }
    match (&a.expect, &r.violation) {
        (Some(rule), Some(found)) if found.violation.rule == *rule => Ok(ExitCode::SUCCESS),
        (Some(rule), Some(found)) => {
            eprintln!(
                "expected violation of {rule} but found {}",
                found.violation.rule
            );
            Ok(ExitCode::FAILURE)
        }
        (Some(rule), None) => {
            eprintln!("expected violation of {rule} but the exploration was clean");
            Ok(ExitCode::FAILURE)
        }
        (None, Some(_)) => Ok(ExitCode::FAILURE),
        (None, None) => {
            if r.distinct_states < a.min_states {
                eprintln!(
                    "explored {} states, below the required floor {}",
                    r.distinct_states, a.min_states
                );
                return Ok(ExitCode::FAILURE);
            }
            Ok(ExitCode::SUCCESS)
        }
    }
}

fn cmd_replay(args: &[String]) -> Result<ExitCode, String> {
    let path = args.first().ok_or("replay needs a schedule path")?;
    let expect = match args.get(1).map(String::as_str) {
        Some("--expect-violation") => Some(
            args.get(2)
                .ok_or("--expect-violation needs a value")?
                .clone(),
        ),
        Some(other) => return Err(format!("unknown argument {other:?}")),
        None => None,
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let (params, schedule) = from_text(&text)?;
    let r = replay(&params, &schedule);
    println!(
        "{path}: applied={} skipped={} terminal={} violation={:?}",
        r.applied,
        r.skipped,
        r.terminal,
        r.violation.as_ref().map(|v| &v.rule)
    );
    let ok = match expect {
        Some(rule) => r.violation.as_ref().is_some_and(|v| v.rule == rule),
        None => r.violation.is_none(),
    };
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_minimize(args: &[String]) -> Result<ExitCode, String> {
    let path = args.first().ok_or("minimize needs a schedule path")?;
    let out = args.get(1).ok_or("minimize needs an output path")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let (params, schedule) = from_text(&text)?;
    let r = replay(&params, &schedule);
    let Some(v) = r.violation else {
        eprintln!("{path} does not violate anything; nothing to minimize");
        return Ok(ExitCode::FAILURE);
    };
    let minimal = minimize(&params, &schedule, &v.rule);
    std::fs::write(out, to_text(&params, &minimal, Some(&v)))
        .map_err(|e| format!("write {out}: {e}"))?;
    println!(
        "{} -> {} actions, written to {out}",
        schedule.len(),
        minimal.len()
    );
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => ("explore", &args[..]),
    };
    let result = match cmd {
        "explore" => cmd_explore(rest),
        "replay" => cmd_replay(rest),
        "minimize" => cmd_minimize(rest),
        other => Err(format!(
            "unknown command {other:?} (expected explore|replay|minimize)"
        )),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("nvdimmc-model: {msg}");
            ExitCode::from(2)
        }
    }
}
