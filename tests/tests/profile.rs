//! The continuous-profiling contract, end to end:
//!
//! * **Exactness** — the per-rule attribution ([`EvalStats::per_rule`])
//!   is not a sample: summed over all rules (plus the `(seed)`
//!   pseudo-rule for EDB loading) it reproduces the engine's aggregate
//!   counters to the unit.
//! * **Observability is free of side effects** — profiling on vs off
//!   leaves the model, the insertion stamps (via provenance-bearing
//!   rows), and every pre-existing counter byte-identical. Only
//!   wall-clock fields may differ.
//! * **The folded export round-trips** — the `profile.*` counters a
//!   traced run folds into its [`Collector`] parse back into the same
//!   per-rule table, and every folded line has the documented
//!   `stratum;rule;variant wall_us` shape.
//! * **Failed runs leave a flight dump** — a [`DiagnosisSession`] that
//!   dies on a blown fact budget can still write a schema-valid
//!   postmortem ([`validate_flight`]).

use rescue_datalog::{
    seminaive_opts, Database, EvalBudget, EvalOptions, EvalStats, Program, TermStore,
};
use rescue_diagnosis::{unfolding_program, AlarmSeq, DiagnosisSession, EncodeOptions};
use rescue_petri::{random_net, random_run, NetConfig, PetriNet};
use rescue_telemetry::flight::validate_flight;
use rescue_telemetry::profile::ProfileReport;
use rescue_telemetry::Collector;

fn net(seed: u64) -> PetriNet {
    random_net(&NetConfig {
        peers: 2,
        states_per_peer: 3,
        extra_transitions: 1,
        links: 1,
        alphabet: 2,
        joins: 1,
        seed,
    })
}

/// One traced evaluation of `prog`: the stats, the sorted rendered model,
/// and the collector the run folded its telemetry into.
fn run(
    prog: &Program,
    store: &mut TermStore,
    profile: bool,
) -> (EvalStats, Vec<String>, Collector) {
    let mut db = Database::new();
    let budget = EvalBudget {
        max_term_depth: Some(8),
        ..Default::default()
    };
    let collector = Collector::enabled();
    let options = EvalOptions {
        profile,
        collector: collector.clone(),
        ..Default::default()
    };
    let stats = seminaive_opts(prog, store, &mut db, &budget, &options).unwrap();
    let mut rows: Vec<String> = Vec::new();
    for pred in db.predicates() {
        let name = store.sym_str(pred.name).to_owned();
        let peer = store.sym_str(pred.peer.0).to_owned();
        for row in db.relation(pred).unwrap().rows() {
            let args: Vec<String> = row.iter().map(|&t| store.display(t)).collect();
            rows.push(format!("{name}@{peer}({})", args.join(",")));
        }
    }
    rows.sort();
    (stats, rows, collector)
}

/// Drop the nondeterministic wall fields and the attribution itself, for
/// comparing a profiled run against an unprofiled one.
fn without_attribution(stats: EvalStats) -> EvalStats {
    let mut s = stats.with_walls_zeroed();
    s.per_rule.clear();
    s
}

#[test]
fn attribution_sums_reproduce_the_engine_totals() {
    for seed in [3, 17, 42] {
        let mut store = TermStore::new();
        let prog = unfolding_program(&net(seed), &mut store, &EncodeOptions::default());
        let (stats, _, _) = run(&prog, &mut store, true);
        assert!(
            !stats.per_rule.is_empty(),
            "seed {seed}: profiled run produced no attribution"
        );
        let sum = |f: fn(&rescue_telemetry::profile::RuleStat) -> u64| -> u64 {
            stats.per_rule.iter().map(f).sum()
        };
        assert_eq!(
            sum(|r| r.candidates),
            stats.candidates_scanned as u64,
            "seed {seed}: candidate attribution is not exact"
        );
        assert_eq!(
            sum(|r| r.firings),
            stats.rule_firings as u64,
            "seed {seed}: firing attribution is not exact"
        );
        assert_eq!(
            sum(|r| r.facts),
            stats.facts_derived as u64,
            "seed {seed}: fact attribution is not exact (seed pseudo-rule included)"
        );
        assert_eq!(
            sum(|r| r.sip_filtered),
            stats.sip_filtered as u64,
            "seed {seed}: sip attribution is not exact"
        );
    }
}

#[test]
fn profiling_and_thread_count_change_nothing_observable() {
    for seed in [3, 42] {
        let mut store = TermStore::new();
        let prog = unfolding_program(&net(seed), &mut store, &EncodeOptions::default());
        let (base_stats, base_rows, _) = run(&prog, &mut store.clone(), true);
        let (stats, rows, collector) = run(&prog, &mut store.clone(), false);
        assert_eq!(base_rows, rows, "seed {seed}: profile=off moved the model");
        assert!(
            stats.per_rule.is_empty(),
            "seed {seed}: unprofiled run attributed anyway"
        );
        assert_eq!(
            without_attribution(base_stats),
            without_attribution(stats),
            "seed {seed}: profiling changed a pre-existing counter"
        );
        assert!(
            ProfileReport::from_snapshot(&collector.snapshot()).is_empty(),
            "seed {seed}: unprofiled run folded profile counters"
        );
    }
}

#[test]
fn folded_counters_round_trip_the_attribution() {
    let mut store = TermStore::new();
    let prog = unfolding_program(&net(42), &mut store, &EncodeOptions::default());
    let (stats, _, collector) = run(&prog, &mut store, true);
    let report = ProfileReport::from_snapshot(&collector.snapshot());
    assert_eq!(
        report.entries.len(),
        stats.per_rule.len(),
        "fold/parse dropped or invented rules"
    );
    let totals = report.totals();
    assert_eq!(totals.candidates, stats.candidates_scanned as u64);
    assert_eq!(totals.firings, stats.rule_firings as u64);
    assert_eq!(totals.facts, stats.facts_derived as u64);

    let folded = report.folded();
    assert_eq!(folded.lines().count(), report.entries.len());
    for line in folded.lines() {
        let (frame, wall) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("no wall field in folded line {line:?}"));
        assert!(
            wall.parse::<u64>().is_ok(),
            "wall field is not a number in {line:?}"
        );
        let segments: Vec<&str> = frame.split(';').collect();
        assert_eq!(
            segments.len(),
            3,
            "frame is not stratum;rule;variant: {line:?}"
        );
        assert!(
            segments[0].starts_with("stratum"),
            "first segment is not a stratum: {line:?}"
        );
    }
}

#[test]
fn budget_exhaustion_leaves_a_loadable_flight_dump() {
    let net = net(42);
    let run = random_run(&net, 7, 4).expect("generated nets are safe");
    let alarms = AlarmSeq::from_run(&net, &run);
    // Find a fact budget the session can be built under but the alarm
    // sequence blows through; the right ballpark depends on the net, so
    // probe upward until a push fails mid-run.
    let mut dump = None;
    for max_facts in [100, 200, 400, 800, 1600, 3200, 6400] {
        let budget = EvalBudget {
            max_facts,
            ..Default::default()
        };
        let Ok(mut session) = DiagnosisSession::with_budget(&net, "supervisor0", budget) else {
            continue;
        };
        session.set_collector(Collector::enabled());
        let mut pushed_ok = 0;
        let mut failed = false;
        for a in &alarms.alarms {
            match session.push_alarm(a) {
                Ok(_) => pushed_ok += 1,
                Err(_) => {
                    failed = true;
                    break;
                }
            }
        }
        // Insist on at least one *successful* traced push first, so the
        // dump demonstrably carries telemetry from before the failure.
        if failed && pushed_ok > 0 {
            dump = Some(session.flight_dump("fact budget exhausted"));
            break;
        }
    }
    let dump = dump.expect("some fact budget admits the session but not the alarms");
    let summary = validate_flight(&dump).expect("flight dump fails its own schema");
    assert_eq!(summary.reason, "fact budget exhausted");
    assert!(
        summary.counters > 0,
        "the dump carries no metrics from the traced session"
    );
}
