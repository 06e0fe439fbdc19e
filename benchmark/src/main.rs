//! The repo's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! rescue-benchmark --workload W --seed N --seconds S --trace 0|1   one workload, one process
//! rescue-benchmark run   --seed N [--seconds S] [--out FILE]       every workload, tracing off
//! rescue-benchmark trace --seed N [--seconds S] [--out FILE]       every workload, traced
//! rescue-benchmark agree A.json B.json                             two result sets vs the bounds
//! ```

mod bench;
mod client;
mod cpu;
mod inputs;
mod layers;
mod report;
mod stats;
mod trace;
mod traced;
mod workloads;

use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: rescue-benchmark --workload W --seed N --seconds S --trace 0|1 [--quick]\n\
         \x20      rescue-benchmark run|trace --seed N [--seconds S] [--quick] [--out FILE]\n\
         \x20      rescue-benchmark agree A.json B.json\n\
         workloads: {}",
        bench::workload_names()
    );
    ExitCode::from(2)
}

struct Flags {
    /// `workload` stays empty under `run` and `trace`, which take them all.
    run: bench::Args,
    out: Option<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut out = None;
    let mut f = bench::Args {
        workload: String::new(),
        seed: 11,
        seconds: report::spec().run_seconds,
        trace: false,
        quick: false,
        corrupt: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => f.workload = value()?,
            "--seed" => f.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                f.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if f.seconds.is_nan() || f.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                f.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => f.quick = true,
            "--corrupt-reference" => f.corrupt = true,
            "--out" => out = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Flags { run: f, out })
}

fn main() -> ExitCode {
    // The engine must run at its default: one evaluation thread.
    if std::env::var_os("RESCUE_EVAL_THREADS").is_some() {
        eprintln!("refusing to run: RESCUE_EVAL_THREADS is set; unset it (the benchmark pins the engine default)");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(first) = args.first() else {
        return usage();
    };
    let outcome = match first.as_str() {
        "agree" if args.len() == 3 => report::agree(&args[1], &args[2]),
        "run" | "trace" => {
            parse_flags(&args[1..]).and_then(|f| report::all_workloads(first == "trace", &f))
        }
        _ => parse_flags(&args).and_then(|f| {
            if f.run.workload.is_empty() {
                return Err("missing --workload".to_owned());
            }
            report::one_workload(&f.run)
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("rescue-benchmark: {e}");
            usage()
        }
    }
}
