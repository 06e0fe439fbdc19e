//! `dlog` — evaluate a dDatalog program file against a query.
//!
//! ```text
//! dlog PROGRAM.dl --query 'R@r("1", Y)' [--engine semi|stratified|qsq|magic]
//!      [--max-facts N] [--max-depth D] [--explain] [--stats]
//! ```
//!
//! The program file uses the syntax of `rescue_datalog::parser` (rules,
//! facts, `%` comments). The query's ground arguments are its bound ones.

use rescue::datalog as rescue_datalog;
use rescue::qsq as rescue_qsq;
use rescue_datalog::{
    explain, parse_atom, parse_program, seminaive, seminaive_stratified, Database, EvalBudget,
    EvalOptions, TermStore,
};
use std::process::ExitCode;

struct Options {
    program_path: String,
    query: String,
    engine: String,
    max_facts: usize,
    max_depth: Option<u32>,
    explain: bool,
    stats: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let mut opts = Options {
        program_path: String::new(),
        query: String::new(),
        engine: "semi".to_owned(),
        max_facts: 10_000_000,
        max_depth: None,
        explain: false,
        stats: false,
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--query" => opts.query = args.next().ok_or("--query needs a value")?,
            "--engine" => opts.engine = args.next().ok_or("--engine needs a value")?,
            "--max-facts" => {
                opts.max_facts = args
                    .next()
                    .ok_or("--max-facts needs a value")?
                    .parse()
                    .map_err(|e| format!("--max-facts: {e}"))?
            }
            "--max-depth" => {
                opts.max_depth = Some(
                    args.next()
                        .ok_or("--max-depth needs a value")?
                        .parse()
                        .map_err(|e| format!("--max-depth: {e}"))?,
                )
            }
            "--explain" => opts.explain = true,
            "--stats" => opts.stats = true,
            "--help" | "-h" => return Err(USAGE.to_owned()),
            path if !path.starts_with('-') && opts.program_path.is_empty() => {
                opts.program_path = path.to_owned()
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if opts.program_path.is_empty() || opts.query.is_empty() {
        return Err(USAGE.to_owned());
    }
    Ok(opts)
}

const USAGE: &str = "usage: dlog PROGRAM.dl --query 'R@p(X)' \
[--engine semi|stratified|qsq|magic] [--max-facts N] [--max-depth D] [--explain] [--stats]";

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let opts = parse_args()?;
    let src =
        std::fs::read_to_string(&opts.program_path).map_err(|e| format!("reading program: {e}"))?;
    let mut store = TermStore::new();
    let prog = parse_program(&src, &mut store).map_err(|e| e.to_string())?;
    prog.validate(&store).map_err(|e| e.to_string())?;
    let query = parse_atom(&opts.query, &mut store).map_err(|e| e.to_string())?;
    let budget = EvalBudget {
        max_facts: opts.max_facts,
        max_term_depth: opts.max_depth,
        ..Default::default()
    };

    let mut db = Database::new();
    let (answers, stats_line): (Vec<Vec<rescue_datalog::TermId>>, String) =
        match opts.engine.as_str() {
            "semi" | "stratified" => {
                let stats = match opts.engine.as_str() {
                    "semi" => seminaive(&prog, &mut store, &mut db, &budget),
                    _ => {
                        let options = EvalOptions::default();
                        seminaive_stratified(&prog, &mut store, &mut db, &budget, &options)
                    }
                }
                .map_err(|e| e.to_string())?;
                let rows = rescue_qsq::filter_answers(&db, &store, &query);
                (
                    rows,
                    format!(
                        "{} facts, {} iterations, {} firings",
                        db.total_facts(),
                        stats.iterations,
                        stats.rule_firings
                    ),
                )
            }
            "qsq" => {
                let run = rescue_qsq::qsq_answer(&prog, &query, &mut store, &mut db, &budget)
                    .map_err(|e| e.to_string())?;
                let line = format!(
                    "{} derived (ans {} / sup {} / in {}), {} iterations",
                    run.materialized.derived_total(),
                    run.materialized.adorned,
                    run.materialized.sup,
                    run.materialized.input,
                    run.stats.iterations
                );
                (run.answers, line)
            }
            "magic" => {
                let run = rescue_qsq::magic_answer(&prog, &query, &mut store, &mut db, &budget)
                    .map_err(|e| e.to_string())?;
                let line = format!(
                    "{} derived (ans {} / magic {}), {} iterations",
                    run.materialized.derived_total(),
                    run.materialized.adorned,
                    run.materialized.input,
                    run.stats.iterations
                );
                (run.answers, line)
            }
            other => {
                return Err(format!(
                    "unknown engine {other}: the engines are semi, stratified, qsq and magic"
                ))
            }
        };

    let mut rendered: Vec<String> = answers
        .iter()
        .map(|row| {
            let cells: Vec<String> = row.iter().map(|&t| store.display(t)).collect();
            cells.join(", ")
        })
        .collect();
    rendered.sort();
    for r in &rendered {
        println!("{r}");
    }
    eprintln!("({} answers)", rendered.len());
    if opts.stats {
        eprintln!("{stats_line}");
    }
    if opts.explain {
        if !matches!(opts.engine.as_str(), "semi" | "stratified") {
            return Err("--explain requires a bottom-up engine (semi/stratified)".into());
        }
        if let Some(first) = answers.first() {
            if let Some(d) = explain(&prog, &mut store, &mut db, query.pred, first) {
                eprintln!("\nderivation of the first answer:\n{}", d.render(&store));
            }
        }
    }
    Ok(())
}
