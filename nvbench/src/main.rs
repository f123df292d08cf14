//! `nvbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints a readable summary followed, as the
//! last line of standard output, by one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Exits non-zero when
//! any correctness check failed.

use nvbench::{json_line, run, Workload};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: nvbench --workload <{}> --seed <n> --seconds <1..=600> --trace <0|1>",
        names.join("|")
    )
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<u64>().map_err(|_| bad())?;
                if !(1..=600).contains(&s) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let out = run(args.workload, args.seed, args.seconds, args.trace);
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "attempted {} failed {} latency samples {}",
        out.attempted, out.failed, out.samples
    );
    if !out.slice_us.is_empty() {
        let mut s = out.slice_us.clone();
        s.sort_by(f64::total_cmp);
        println!(
            "raw host us/op of {} slices: min {:.3} median {:.3} max {:.3}",
            s.len(),
            s[0],
            s[s.len() / 2],
            s[s.len() - 1]
        );
    }
    for m in &out.metrics {
        println!("{:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for p in out.problems.iter().take(20) {
        println!("FAILED CHECK: {p}");
    }
    println!("{}", json_line(&out));
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
