//! Regenerate the experiment tables recorded in EXPERIMENTS.md.
//!
//! ```text
//! cargo run -p rescue-bench --release --bin report            # all experiments
//! cargo run -p rescue-bench --release --bin report -- e5      # one experiment
//! cargo run -p rescue-bench --release --bin report -- --json  # JSON output
//! cargo run -p rescue-bench --release --bin report -- --json-out BENCH_4.json
//!                                  # machine-readable perf trajectory
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
//! `--json-out FILE` writes one perf record per experiment run — wall
//! time, candidates scanned, facts, and (for profiled experiments) the
//! top-5 rule attribution — the file CI archives so the repo's perf
//! trajectory stays diffable across commits. `--profile-out FILE` merges
//! the per-rule profiles of every experiment that ran with one (E5, E8,
//! E17) and writes them as folded stacks (`stratum;rule;variant wall_us`
//! per line), ready for any flamegraph renderer.
//!
//! Usage errors — an unknown experiment id, a flag missing its value —
//! print a diagnostic and exit with status 2.

use rescue_bench::{PerfEntry, Table};
use std::process::ExitCode;
use std::time::Instant;

const ALL_IDS: [&str; 18] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e15", "e16",
    "e17", "e18", "e19",
];

const USAGE: &str = "usage: report [IDS...] [--json] [--json-out FILE] \
[--profile-out FILE] [--trace-out FILE] [--merged-trace-out FILE] [--wire-trace-out FILE] \
[--peer-stats]";

fn run_one(id: &str) -> Option<Table> {
    match id {
        "e1" => Some(rescue_bench::experiments::e1_running_example()),
        "e2" => Some(rescue_bench::experiments::e2_qsq_vs_seminaive()),
        "e3" => Some(rescue_bench::experiments::e3_theorem1()),
        "e4" => Some(rescue_bench::experiments::e4_theorem2_unfolding()),
        "e5" => Some(rescue_bench::experiments::e5_theorem4_materialization()),
        "e6" => Some(rescue_bench::experiments::e6_messages()),
        "e7" => Some(rescue_bench::experiments::e7_extensions()),
        "e8" => Some(rescue_bench::experiments::e8_wall_time()),
        "e9" => Some(rescue_bench::experiments::e9_magic_vs_qsq()),
        "e10" => Some(rescue_bench::experiments::e10_sup_placement()),
        "e11" => Some(rescue_bench::experiments::e11_incremental()),
        "e12" => Some(rescue_bench::experiments::e12_join_plan()),
        "e13" => Some(rescue_bench::experiments::e13_telemetry()),
        "e15" => Some(rescue_bench::experiments::e15_distributed_observability()),
        "e16" => Some(rescue_bench::experiments::e16_online_latency()),
        "e17" => Some(rescue_bench::experiments::e17_profiler_overhead()),
        "e18" => Some(rescue_bench::experiments::e18_multi_tenant_service()),
        "e19" => Some(rescue_bench::experiments::e19_exposition_overhead()),
        _ => None,
    }
}

/// A usage error: printed to stderr with the usage line, exit status 2
/// (distinct from 1, which runtime failures like unwritable files use).
fn usage_err(msg: &str) -> String {
    format!("{msg}\n{USAGE}")
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
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
        a.starts_with("--")
            && !value_flags.contains(&a.as_str())
            && !["--json", "--peer-stats"].contains(&a.as_str())
    }) {
        return Err(usage_err(&format!("unknown flag {bad}")));
    }

    let ids: Vec<String> = if filter.is_empty() {
        ALL_IDS.iter().map(|s| s.to_string()).collect()
    } else {
        filter.iter().map(|s| (*s).clone()).collect()
    };
    if let Some(bad) = ids.iter().find(|id| !ALL_IDS.contains(&id.as_str())) {
        return Err(usage_err(&format!("unknown experiment {bad}")));
    }
    let mut tables = Vec::new();
    let mut perf = Vec::new();
    for id in &ids {
        let t0 = Instant::now();
        let table = run_one(id).expect("ids validated above");
        let wall_ms = t0.elapsed().as_micros() as f64 / 1000.0;
        perf.push(PerfEntry::from_table(&table, wall_ms));
        tables.push(table);
    }

    if json {
        println!("{}", rescue_bench::tables_to_json(&tables));
    } else {
        for t in &tables {
            println!("{}", t.to_markdown());
        }
    }

    if let Some(path) = json_out {
        let payload = rescue_bench::perf_trajectory_json(&perf);
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
