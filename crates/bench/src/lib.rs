//! # rescue-bench
//!
//! The experiment harness: every figure and formal claim of the paper maps
//! to one experiment here (see DESIGN.md §4 for the index). Each
//! experiment returns a [`Table`] that the `report` binary renders as the
//! markdown recorded in EXPERIMENTS.md, and whose exact work counters,
//! together with the non-test line count of every crate, make the
//! counters baseline `COUNTERS.json` (see [`counters_json`]).

pub mod experiments;

use rescue_telemetry::json::Obj;
use rescue_telemetry::profile::ProfileReport;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

/// One experiment's tabular result.
#[derive(Clone, Debug)]
pub struct Table {
    pub id: String,
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
    /// Prose summary of what the numbers show (the "shape" claim).
    pub summary: String,
    /// Explicit work counters for the counters baseline, accumulated with
    /// [`Table::absorb_stats`] by experiments whose tables don't expose
    /// them as summable columns. [`counters_json`] prefers these over
    /// column sums.
    pub perf_candidates: Option<u64>,
    pub perf_facts: Option<u64>,
    /// Per-rule hot-spot attribution accumulated across the experiment's
    /// profiled fixpoints (only experiments run with an enabled collector
    /// fill it — see [`Table::absorb_stats`]). Lands in
    /// `report --profile-out` as folded stacks.
    pub profile: Option<ProfileReport>,
}

impl Table {
    pub fn new(id: &str, title: &str, headers: &[&str]) -> Self {
        Table {
            id: id.to_owned(),
            title: title.to_owned(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            summary: String::new(),
            perf_candidates: None,
            perf_facts: None,
            profile: None,
        }
    }

    /// Fold one fixpoint run's engine counters into the table's counters
    /// (candidates scanned + facts derived), and its per-rule
    /// attribution — when the run was profiled — into the table's
    /// [`ProfileReport`]. Call once per evaluation the experiment
    /// performs; the totals land in `report --json-out`.
    pub fn absorb_stats(&mut self, stats: &rescue_datalog::EvalStats) {
        *self.perf_candidates.get_or_insert(0) += stats.candidates_scanned as u64;
        *self.perf_facts.get_or_insert(0) += stats.facts_derived as u64;
        if !stats.per_rule.is_empty() {
            let p = self.profile.get_or_insert_with(ProfileReport::new);
            for e in &stats.per_rule {
                p.push(e.clone());
            }
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "ragged table row");
        self.rows.push(cells);
    }

    /// Render as GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "### {} — {}\n", self.id.to_uppercase(), self.title);
        let _ = writeln!(s, "| {} |", self.headers.join(" | "));
        let _ = writeln!(
            s,
            "|{}|",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for r in &self.rows {
            let _ = writeln!(s, "| {} |", r.join(" | "));
        }
        if !self.summary.is_empty() {
            let _ = writeln!(s, "\n{}", self.summary);
        }
        s
    }
}

/// Sum one named numeric column of `table` (cells that don't parse — `—`
/// markers, units — are skipped; a missing column is `None`).
fn column_sum(table: &Table, header: &str) -> Option<u64> {
    let idx = table.headers.iter().position(|h| h == header)?;
    Some(
        table
            .rows
            .iter()
            .filter_map(|r| r[idx].parse::<u64>().ok())
            .sum(),
    )
}

/// Render the counters baseline (`report --json-out`, checked in as
/// `COUNTERS.json`): each experiment's exact counters, one experiment per
/// line in run order, and [`source_lines`] per crate, one crate per line.
/// No wall time goes in, so two runs of the same code write the same
/// bytes, and CI compares a fresh file with the checked-in one by `diff`.
/// A counter an experiment does not record is left out.
pub fn counters_json(tables: &[Table], lines: &BTreeMap<String, u64>) -> String {
    let experiments = tables.iter().fold(Obj::lines(), |o, t| {
        let candidates = t
            .perf_candidates
            .or_else(|| column_sum(t, "candidates scanned"));
        let facts = t.perf_facts.or_else(|| column_sum(t, "facts"));
        let mut entry = Obj::new();
        if let Some(n) = candidates {
            entry = entry.num("candidates_scanned", n);
        }
        if let Some(n) = facts {
            entry = entry.num("facts", n);
        }
        o.raw(&t.id, &entry.finish())
    });
    let lines = lines
        .iter()
        .fold(Obj::lines(), |o, (name, n)| o.num(name, *n));
    Obj::lines()
        .raw("experiments", &experiments.finish())
        .raw("lines", &lines.finish())
        .finish()
        + "\n"
}

/// The workspace's `crates/` directory, where [`source_lines`] counts.
pub fn crates_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the bench crate sits in crates/")
        .to_path_buf()
}

/// Non-test lines of Rust per crate: for every `<crates>/<name>/src/**/*.rs`,
/// the lines above the file's first `#[cfg(test)]` (all of them when it
/// has none), summed per crate name.
pub fn source_lines(crates: &Path) -> io::Result<BTreeMap<String, u64>> {
    fn walk(dir: &Path, total: &mut u64) -> io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_dir() {
                walk(&path, total)?;
            } else if path.extension().is_some_and(|x| x == "rs") {
                let src = std::fs::read_to_string(&path)?;
                *total += src
                    .lines()
                    .take_while(|l| l.trim() != "#[cfg(test)]")
                    .count() as u64;
            }
        }
        Ok(())
    }
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(crates)? {
        let dir = entry?.path();
        let src = dir.join("src");
        if src.is_dir() {
            let name = dir.file_name().expect("a read_dir entry has a name");
            let mut total = 0;
            walk(&src, &mut total)?;
            out.insert(name.to_string_lossy().into_owned(), total);
        }
    }
    Ok(out)
}

/// Merge the profiles of every table that carries one into a single
/// [`ProfileReport`] (the `report --profile-out` payload).
pub fn merged_profile(tables: &[Table]) -> ProfileReport {
    let mut out = ProfileReport::new();
    for t in tables {
        if let Some(p) = &t.profile {
            for e in &p.entries {
                out.push(e.clone());
            }
        }
    }
    out
}

/// An experiment's id and the function that runs it.
pub type Experiment = (&'static str, fn() -> Table);

/// The experiment registry: every experiment, in index order. E14 (the
/// parallel fixpoint) was removed with the worker pool (DESIGN.md §10).
pub const EXPERIMENTS: [Experiment; 18] = [
    ("e1", experiments::e1_running_example),
    ("e2", experiments::e2_qsq_vs_seminaive),
    ("e3", experiments::e3_theorem1),
    ("e4", experiments::e4_theorem2_unfolding),
    ("e5", experiments::e5_theorem4_materialization),
    ("e6", experiments::e6_messages),
    ("e7", experiments::e7_extensions),
    ("e8", experiments::e8_wall_time),
    ("e9", experiments::e9_magic_vs_qsq),
    ("e10", experiments::e10_sup_placement),
    ("e11", experiments::e11_incremental),
    ("e12", experiments::e12_join_plan),
    ("e13", experiments::e13_telemetry),
    ("e15", experiments::e15_distributed_observability),
    ("e16", experiments::e16_online_latency),
    ("e17", experiments::e17_profiler_overhead),
    ("e18", experiments::e18_multi_tenant_service),
    ("e19", experiments::e19_exposition_overhead),
];

/// Run the experiment registered as `id`; `None` for an unknown id.
pub fn run_one(id: &str) -> Option<Table> {
    EXPERIMENTS
        .iter()
        .find(|(k, _)| *k == id)
        .map(|(_, run)| run())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescue_telemetry::json::{parse, Value};

    fn baseline() -> Value {
        let path = crates_dir().join("../COUNTERS.json");
        let src = std::fs::read_to_string(&path).expect("COUNTERS.json is checked in");
        parse(&src).expect("COUNTERS.json parses")
    }

    /// A new or retired experiment fails here until the baseline is
    /// regenerated with `report --json-out COUNTERS.json`.
    #[test]
    fn baseline_names_every_registered_experiment() {
        let v = baseline();
        let experiments = v.get("experiments").and_then(Value::as_object);
        let mut ids: Vec<&str> = experiments
            .expect("an experiments object")
            .keys()
            .map(String::as_str)
            .collect();
        let mut registry: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
        ids.sort_unstable();
        registry.sort_unstable();
        assert_eq!(ids, registry);
    }

    /// An edited `src` file or a new crate fails here, without running an
    /// experiment, until the baseline is regenerated.
    #[test]
    fn baseline_line_counts_match_the_sources() {
        let v = baseline();
        let lines: BTreeMap<String, u64> = v
            .get("lines")
            .and_then(Value::as_object)
            .expect("a lines object")
            .iter()
            .map(|(k, n)| (k.clone(), n.as_number().expect("a count") as u64))
            .collect();
        let fresh = source_lines(&crates_dir()).expect("crates/ is readable");
        assert_eq!(
            lines, fresh,
            "COUNTERS.json is stale: regenerate it with `report --json-out COUNTERS.json`"
        );
    }
}
