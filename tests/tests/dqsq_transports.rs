//! One dQSQ run of a three-peer telecom diagnosis on both transports.
//!
//! The simulator is deterministic, so its merged engine counters, network
//! counters and per-peer fact counts are pinned to the values the engine
//! produced before the peers moved onto `EvalSession` and the round loop
//! onto the dependency index: that refactor may change how a resume is
//! scheduled, never what it computes. The threaded transport delivers the
//! same tuples in batches cut by the OS scheduler, so its message and
//! round counts vary from run to run; what it must reproduce is every
//! peer's model, and the counters that depend on the model alone.
//!
//! The pins belong to one diagnosis program, not to the engine alone. They
//! moved once when the program did. The greedy-interleaving gate of the
//! §4.2 encoding gives each configuration one explanation id instead of one
//! per interleaving of concurrent alarms, so every relation keyed by the id
//! shrank; and the supervisor stopped generating rules for preset arities
//! a peer has no transition of, so fewer plans compile and fewer empty
//! requests travel. `iterations` 1301 → 893, `facts_derived` 2354 → 1645,
//! `rule_firings` 4044 → 2548, `plans_compiled` 2823 → 2718, `messages`
//! 555 → 392, supervisor-owned facts 1710 → 1127. The engine and the
//! transports did not change.
//!
//! The two compile counters moved once more when the engine stopped
//! compiling full plans for semi-naive runs: a peer's session compiles
//! only its Δ-plans. `plans_compiled` 2718 → 1550 and `plan_reorders`
//! 53612 → 39752; every other count is unchanged.
//!
//! They moved again when the supervisor began carrying each prefix's cut:
//! one `Cut(z, g(u, c), f)` atom per parent replaced the
//! `TransInConf` × `NotParent` pair, and `NotParent` is gone. `iterations`
//! 893 → 695, `facts_derived` 1645 → 828, `duplicate_derivations`
//! 946 → 228, `rule_firings` 2548 → 1013, `index_probes` 2492 → 1616,
//! `candidates_scanned` 3764 → 1962, `plan_reorders` 39752 → 30403,
//! `subplans_shared` 746 → 530, `plans_compiled` 1550 → 1464, `messages`
//! 392 → 349, `bytes` 13310 → 10741; owned/cached facts per peer: p0
//! (287, 158) → (231, 66), p1 (137, 151) → (135, 66), p2 (94, 123) →
//! (109, 39), supervisor (1127, 159) → (353, 114). p2 owns more because
//! the cut asks the net peers for the outputs of each prefix's last event
//! (`Places(m, y)` with `y` bound). The engine and the transports did not
//! change.
//!
//! They moved again when a peer began to work in activations: it applies
//! every message waiting for it, resumes once, and sends each subscriber
//! one message carrying a batch per relation that grew; a subscription
//! lists every relation read from one owner. Fewer resumes mean fewer
//! rounds and fewer plan reorders; the model, and so every firing and
//! derivation count, is unchanged. `iterations` 695 → 392,
//! `index_probes` 1616 → 1612, `candidates_scanned` 1962 → 1918,
//! `plan_reorders` 30403 → 11463, `subplans_shared` 530 → 491,
//! `messages` and `sim_steps` 349 → 122, `bytes` 10741 → 10108. Every
//! owned/cached fact count is unchanged.

use rescue_datalog::{Atom, EvalBudget, EvalStats, Program, Rule, TermStore};
use rescue_diagnosis::{diagnosis_program, AlarmSeq};
use rescue_dqsq::{run_distributed, run_distributed_threaded, DistOptions, DistRun};
use rescue_net::NetStats;
use rescue_petri::{random_net, random_run, NetConfig};
use rescue_qsq::{rewrite_with, split_edb_facts, SupPlacement};

/// The distributed program `diagnose_dqsq` runs for a seeded telecom net
/// (3 peers, plus the supervisor) and 4 alarms.
fn telecom_dqsq_program(store: &mut TermStore) -> Program {
    let net = random_net(&NetConfig {
        seed: 7,
        ..NetConfig::default()
    });
    let run = random_run(&net, 7, 4).unwrap();
    let alarms = AlarmSeq::from_run(&net, &run);
    assert_eq!(alarms.len(), 4);
    let dp = diagnosis_program(&net, &alarms, "supervisor", store);
    let (rules, edb) = split_edb_facts(&dp.program);
    let rw = rewrite_with(&rules, &dp.query, store, SupPlacement::AtomPeer).unwrap();
    let mut dist = rw.program.clone();
    for (pred, row) in edb {
        dist.push(Rule::fact(Atom::new(pred, row.to_vec())));
    }
    dist.push(Rule::fact(Atom::new(rw.seed_pred, rw.seed_row.to_vec())));
    dist
}

/// Every peer's owned relations, rows sorted, plus its (owned, cached)
/// fact counts.
type Models = Vec<(String, Vec<(String, Vec<String>)>, (usize, usize))>;

fn models(run: &DistRun) -> Models {
    run.peers
        .iter()
        .map(|p| {
            let mut rels: Vec<(String, Vec<String>)> = p
                .owned_facts()
                .into_iter()
                .map(|(name, rows)| {
                    let mut rows: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
                    rows.sort();
                    (name, rows)
                })
                .collect();
            rels.sort();
            (p.name().to_owned(), rels, p.fact_counts())
        })
        .collect()
}

#[test]
fn sim_counters_are_pinned_and_threaded_reproduces_every_peer_model() {
    let mut store = TermStore::new();
    let dist = telecom_dqsq_program(&mut store);

    let run = run_distributed(&dist, &store, &DistOptions::default()).unwrap();
    let pinned = EvalStats {
        iterations: 392,
        facts_derived: 828,
        duplicate_derivations: 228,
        rule_firings: 1013,
        depth_skipped: 0,
        index_probes: 1612,
        candidates_scanned: 1918,
        plan_reorders: 11463,
        sip_filtered: 0,
        subplans_shared: 491,
        plans_compiled: 1464,
        per_rule: Vec::new(),
    };
    assert_eq!(run.total_stats().with_walls_zeroed(), pinned);
    // `bytes` measures the wire format (per-channel term dictionaries);
    // the message and step counts do not depend on it.
    let pinned_net = NetStats {
        messages: 122,
        bytes: 10108,
        sim_steps: 122,
        events_processed: 0,
    };
    assert_eq!(run.net, pinned_net);
    let reference = models(&run);
    let counts: Vec<(&str, (usize, usize))> = reference
        .iter()
        .map(|(name, _, counts)| (name.as_str(), *counts))
        .collect();
    let pinned_counts = [
        ("p0", (231, 66)),
        ("p1", (135, 66)),
        ("p2", (109, 39)),
        ("supervisor", (353, 114)),
    ];
    assert_eq!(counts, pinned_counts);

    // Real threads: the same models. Each peer still enumerates every
    // combination of body facts exactly once however its input was
    // batched, so firings, derivations and duplicates are the model's too.
    let threaded = run_distributed_threaded(&dist, &store, EvalBudget::default()).unwrap();
    assert_eq!(models(&threaded), reference);
    let t = threaded.total_stats();
    assert_eq!(
        (t.facts_derived, t.rule_firings, t.duplicate_derivations),
        (
            pinned.facts_derived,
            pinned.rule_firings,
            pinned.duplicate_derivations
        )
    );
    assert_eq!(t.plans_compiled, pinned.plans_compiled);
    assert!(threaded.net.messages > 0 && threaded.net.sim_steps == 0);
}
