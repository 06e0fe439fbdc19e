//! # rescue-bench
//!
//! The experiment harness: every figure and formal claim of the paper maps
//! to one experiment here (see DESIGN.md §4 for the index). Each
//! experiment returns a [`Table`] that the `report` binary renders as the
//! markdown recorded in EXPERIMENTS.md; the Criterion benches under
//! `benches/` measure the wall-time side of the same workloads. Tables and
//! perf records go out as JSON through the workspace's one writer,
//! `rescue_telemetry::json`.

pub mod experiments;

use rescue_telemetry::json::{self, Arr, Obj};
use rescue_telemetry::profile::ProfileReport;
use std::fmt::Write as _;

/// One experiment's tabular result.
#[derive(Clone, Debug)]
pub struct Table {
    pub id: String,
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
    /// Prose summary of what the numbers show (the "shape" claim).
    pub summary: String,
    /// Explicit work counters for the perf record, accumulated with
    /// [`Table::absorb_stats`] by experiments whose tables don't expose
    /// them as summable columns. [`PerfEntry::from_table`] prefers these
    /// over column sums.
    pub perf_candidates: Option<u64>,
    pub perf_facts: Option<u64>,
    /// Per-rule hot-spot attribution accumulated across the experiment's
    /// profiled fixpoints (only experiments run with an enabled collector
    /// fill it — see [`Table::absorb_stats`]). Lands in the perf record
    /// as the top-k rule table and in `report --profile-out` as folded
    /// stacks.
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

    /// Fold one fixpoint run's engine counters into the table's perf
    /// record (candidates scanned + facts derived), and its per-rule
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

    /// Render as a JSON object.
    pub fn to_json(&self) -> String {
        let rows = self
            .rows
            .iter()
            .fold(Arr::new(), |a, r| a.raw(&json::strings(r)));
        Obj::new()
            .str("id", &self.id)
            .str("title", &self.title)
            .raw("headers", &json::strings(&self.headers))
            .raw("rows", &rows.finish())
            .str("summary", &self.summary)
            .finish()
    }
}

/// Render a slice of tables as a JSON array, one table per line (see
/// [`Table::to_json`]).
pub fn tables_to_json(tables: &[Table]) -> String {
    tables
        .iter()
        .fold(Arr::lines(), |a, t| a.raw(&t.to_json()))
        .finish()
}

/// One experiment's machine-readable perf record: wall time of the whole
/// experiment plus the work counters its table reports (when it has the
/// matching columns). This is the `report --json-out` payload, the file CI
/// archives per run so the perf trajectory of the repo is diffable.
#[derive(Clone, Debug)]
pub struct PerfEntry {
    pub id: String,
    pub title: String,
    pub wall_ms: f64,
    /// Sum of the table's "candidates scanned" column, if present.
    pub candidates_scanned: Option<u64>,
    /// Sum of the table's "facts" column, if present.
    pub facts: Option<u64>,
    /// Total profiled wall time across the experiment's rules, µs
    /// (`None` when the experiment ran unprofiled).
    pub profile_wall_us: Option<u64>,
    /// The experiment's hottest rules by wall share, hottest first — the
    /// per-rule record `perfdiff --max-rule-share-gain` gates on.
    pub top_rules: Vec<TopRule>,
}

/// One hot rule in a [`PerfEntry`]: the folded-stack frame
/// (`stratum;rule;variant`) plus its exact attribution.
#[derive(Clone, Debug)]
pub struct TopRule {
    pub frame: String,
    pub wall_us: u64,
    pub candidates: u64,
}

/// How many of an experiment's hottest rules the perf record keeps.
pub const TOP_RULES: usize = 5;

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

impl PerfEntry {
    pub fn from_table(table: &Table, wall_ms: f64) -> Self {
        let (profile_wall_us, top_rules) = match &table.profile {
            None => (None, Vec::new()),
            Some(p) => (
                Some(p.totals().wall_us),
                p.top_k(TOP_RULES)
                    .into_iter()
                    .map(|r| TopRule {
                        frame: r.frame(),
                        wall_us: r.wall_us,
                        candidates: r.candidates,
                    })
                    .collect(),
            ),
        };
        PerfEntry {
            id: table.id.clone(),
            title: table.title.clone(),
            wall_ms,
            candidates_scanned: table
                .perf_candidates
                .or_else(|| column_sum(table, "candidates scanned")),
            facts: table.perf_facts.or_else(|| column_sum(table, "facts")),
            profile_wall_us,
            top_rules,
        }
    }
}

/// Render the perf trajectory as JSON, one experiment per line:
/// experiment id → wall time, work counters, and (for profiled
/// experiments) the top-k rule attribution. Schema v2 — v1 files (no
/// per-rule records) are still accepted by `perfdiff`.
pub fn perf_trajectory_json(entries: &[PerfEntry]) -> String {
    let opt = |v: Option<u64>| v.map_or_else(|| "null".to_owned(), |n| n.to_string());
    let experiments = entries.iter().fold(Obj::lines(), |o, e| {
        let rules = e.top_rules.iter().fold(Arr::new(), |a, r| {
            a.raw(
                &Obj::new()
                    .str("frame", &r.frame)
                    .num("wall_us", r.wall_us)
                    .num("candidates", r.candidates)
                    .finish(),
            )
        });
        let entry = Obj::new()
            .str("title", &e.title)
            .fixed("wall_ms", e.wall_ms, 3)
            .raw("candidates_scanned", &opt(e.candidates_scanned))
            .raw("facts", &opt(e.facts))
            .raw("profile_wall_us", &opt(e.profile_wall_us))
            .raw("top_rules", &rules.finish());
        o.raw(&e.id, &entry.finish())
    });
    Obj::new()
        .str("schema", "rescue-bench-perf-v2")
        .raw("experiments", &experiments.finish())
        .finish()
        + "\n"
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

/// Run every experiment, in index order.
pub fn all_experiments() -> Vec<Table> {
    vec![
        experiments::e1_running_example(),
        experiments::e2_qsq_vs_naive(),
        experiments::e3_theorem1(),
        experiments::e4_theorem2_unfolding(),
        experiments::e5_theorem4_materialization(),
        experiments::e6_messages(),
        experiments::e7_extensions(),
        experiments::e8_wall_time(),
        experiments::e9_magic_vs_qsq(),
        experiments::e10_sup_placement(),
        experiments::e11_incremental(),
        experiments::e12_join_plan(),
        experiments::e13_telemetry(),
        experiments::e15_distributed_observability(),
        experiments::e16_online_latency(),
        experiments::e17_profiler_overhead(),
        experiments::e18_multi_tenant_service(),
        experiments::e19_exposition_overhead(),
    ]
}
