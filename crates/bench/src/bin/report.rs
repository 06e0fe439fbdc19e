//! Regenerate the experiment tables recorded in EXPERIMENTS.md, and the
//! counters baseline `COUNTERS.json`.
//!
//! ```text
//! cargo run -p rescue-bench --release --bin report            # all experiments
//! cargo run -p rescue-bench --release --bin report -- e5      # one experiment
//! cargo run -p rescue-bench --release --bin report -- --json-out COUNTERS.json
//!                                  # regenerate the counters baseline
//! cargo run -p rescue-bench --release --bin report -- --profile-out stacks.txt
//!                                  # folded-stack rule profile of the run
//! cargo run -p rescue-bench --release --bin report -- --trace-out t.json
//!                                  # also record a dQSQ profile trace
//! cargo run -p rescue-bench --release --bin report -- --peer-stats
//!                                  # per-peer dashboard of a 3-peer dQSQ run
//! cargo run -p rescue-bench --release --bin report -- --merged-trace-out m.json
//!                                  # causally merged multi-process trace
//! cargo run -p rescue-bench --release --bin report -- --wire-trace-out w.json
//!                                  # merged client↔server serving-path trace
//! ```
//!
//! `--json-out FILE` writes the exact work counters of every experiment
//! run (candidates scanned and facts) and the non-test line count of
//! every crate, with no wall time, so the same code always writes the
//! same bytes. Run over all experiments it regenerates the checked-in
//! `COUNTERS.json`, which CI compares with a fresh run by `diff`.
//! `--profile-out FILE` merges the per-rule profiles of every experiment
//! that ran with one (E5, E8, E17) and writes them as folded stacks
//! (`stratum;rule;variant wall_us` per line), ready for any flamegraph
//! renderer.
//!
//! Usage errors — an unknown experiment id, a flag missing its value —
//! print a diagnostic and exit with status 2.

use rescue_bench::EXPERIMENTS;
use std::process::ExitCode;

const USAGE: &str = "usage: report [IDS...] [--json-out FILE] \
[--profile-out FILE] [--trace-out FILE] [--merged-trace-out FILE] [--wire-trace-out FILE] \
[--peer-stats]";

/// A usage error: printed to stderr with the usage line, exit status 2
/// (distinct from 1, which runtime failures like unwritable files use).
fn usage_err(msg: &str) -> String {
    format!("{msg}\n{USAGE}")
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value_of = |flag: &str| -> Result<Option<String>, String> {
        match args.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => Ok(Some(v.clone())),
                _ => Err(usage_err(&format!("{flag} needs a value"))),
            },
        }
    };
    let trace_out = value_of("--trace-out")?;
    let json_out = value_of("--json-out")?;
    let merged_out = value_of("--merged-trace-out")?;
    let wire_trace_out = value_of("--wire-trace-out")?;
    let profile_out = value_of("--profile-out")?;
    let peer_stats = args.iter().any(|a| a == "--peer-stats");
    let value_flags = [
        "--trace-out",
        "--json-out",
        "--merged-trace-out",
        "--wire-trace-out",
        "--profile-out",
    ];
    let mut skip_next = false;
    let filter: Vec<&String> = args
        .iter()
        .filter(|a| {
            if skip_next {
                skip_next = false;
                return false;
            }
            if value_flags.contains(&a.as_str()) {
                skip_next = true;
            }
            !a.starts_with("--")
        })
        .collect();
    if let Some(bad) = args.iter().find(|a| {
        a.starts_with("--") && !value_flags.contains(&a.as_str()) && a.as_str() != "--peer-stats"
    }) {
        return Err(usage_err(&format!("unknown flag {bad}")));
    }

    let ids: Vec<&str> = if filter.is_empty() {
        EXPERIMENTS.iter().map(|(id, _)| *id).collect()
    } else {
        filter.iter().map(|s| s.as_str()).collect()
    };
    if let Some(bad) = ids
        .iter()
        .find(|id| EXPERIMENTS.iter().all(|(k, _)| k != *id))
    {
        return Err(usage_err(&format!("unknown experiment {bad}")));
    }
    let tables: Vec<_> = ids
        .iter()
        .map(|id| rescue_bench::run_one(id).expect("ids validated above"))
        .collect();
    for t in &tables {
        println!("{}", t.to_markdown());
    }

    if let Some(path) = json_out {
        let crates = rescue_bench::crates_dir();
        let lines = rescue_bench::source_lines(&crates)
            .map_err(|e| format!("counting lines under {}: {e}", crates.display()))?;
        let payload = rescue_bench::counters_json(&tables, &lines);
        std::fs::write(&path, &payload).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path} ({} bytes)", payload.len());
    }

    if let Some(path) = profile_out {
        let merged = rescue_bench::merged_profile(&tables);
        std::fs::write(&path, merged.folded()).map_err(|e| format!("writing {path}: {e}"))?;
        if merged.is_empty() {
            eprintln!(
                "wrote {path} (empty: none of the selected experiments runs profiled — \
                 include e5, e8 or e17)"
            );
        } else {
            eprintln!("wrote {path} ({} frame(s))", merged.entries.len());
            eprint!("{}", merged.table(5));
        }
    }

    // The E15 workload run once with per-peer collectors: the plain-text
    // peer dashboard and/or the causally merged multi-process trace.
    if peer_stats || merged_out.is_some() {
        let (table, merged) = rescue_bench::experiments::peer_stats_profile();
        if peer_stats {
            println!("{table}");
        }
        if let Some(path) = merged_out {
            std::fs::write(&path, &merged).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote {path} ({} bytes)", merged.len());
        }
    }

    // The serving path traced end to end: client and server collectors
    // recorded over one loopback load run and causally merged, so the
    // timeline shows each client send flow-paired with the server-side
    // session handling (the `--wire-trace-out FILE` payload; CI validates
    // it with `validate_trace --expect-cross-process`).
    if let Some(path) = wire_trace_out {
        let trace = rescue_bench::experiments::wire_trace_profile();
        std::fs::write(&path, &trace).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path} ({} bytes)", trace.len());
    }

    // A recorded dQSQ profile run alongside the tables: the same workload
    // as E13, exported as Chrome trace_event JSON for Perfetto.
    if let Some(path) = trace_out {
        let trace = rescue_bench::experiments::trace_profile();
        std::fs::write(&path, &trace).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path} ({} bytes)", trace.len());
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            // Usage errors carry the usage line; runtime errors don't.
            if e.contains(USAGE) {
                ExitCode::from(2)
            } else {
                ExitCode::FAILURE
            }
        }
    }
}
