//! The greedy-interleaving gate of the §4.2 encoding: an extension by an
//! alarm of a lower-ranked peer than the previous alarm's is admitted only
//! if the prefix's last event produced one of the new event's parents.
//!
//! On random three-peer nets with ternary joins (so that the `Gate1`,
//! `Gate2` and `Gate3` tables all take part) and 3 to 6 alarms, on which the
//! depth-bounded engines stay cheap, the gate must keep every
//! configuration:
//!
//! * (a) QSQ, dQSQ, bottom-up and an online session fed alarm by alarm all
//!   compute the dedicated diagnoser's answer;
//! * (b) the explanation ids of the QSQ model stand for exactly the
//!   (configuration, index vector) states the dedicated diagnoser explores;
//! * (c) dQSQ still materializes exactly the diagnoser's events (Theorem 4).

use proptest::prelude::*;
use rescue_datalog::{Database, EvalBudget, TermData, TermId, TermStore};
use rescue_diagnosis::pipeline::{
    diagnose_dqsq, diagnose_qsq, diagnose_seminaive, PipelineOptions,
};
use rescue_diagnosis::supervisor::sup_names;
use rescue_diagnosis::{diagnose_baseline, diagnosis_program, AlarmSeq, DiagnosisSession};
use rescue_petri::{random_net, random_run, NetConfig, UnfoldLimits, Unfolding};
use rescue_qsq::qsq_answer;
use std::collections::{BTreeSet, HashSet};

/// At least one cross-peer link, so that a peer's event can cause another
/// peer's; no chord transitions, which would multiply the unfolding the
/// depth-bounded engines (bottom-up, the session) must build.
fn arb_cfg() -> impl Strategy<Value = NetConfig> {
    (0u64..1000, 2usize..4, 1usize..3, 2usize..4, 0usize..3).prop_map(
        |(seed, states, links, alphabet, joins)| NetConfig {
            seed,
            peers: 3,
            states_per_peer: states,
            extra_transitions: 0,
            links,
            alphabet,
            joins,
        },
    )
}

/// The same observation with the peers' blocks in reverse order of first
/// appearance. Each peer's subsequence is kept, so the diagnosis is the
/// same; but a peer the run reached later now ranks lower, so an event
/// caused by a higher-ranked peer's event — the extensions only the gate's
/// `last` rows admit — is the common case instead of a rare one.
fn peers_reversed(alarms: &AlarmSeq) -> AlarmSeq {
    let mut out = Vec::with_capacity(alarms.len());
    for peer in alarms.peers().into_iter().rev() {
        out.extend(alarms.alarms.iter().filter(|a| a.peer == peer).cloned());
    }
    AlarmSeq { alarms: out }
}

/// The events of explanation id `id`: the right arguments along its
/// `h(h(…h(r)…, x₁), x₂)` chain.
fn events_of(store: &TermStore, mut id: TermId) -> BTreeSet<TermId> {
    let mut events = BTreeSet::new();
    while let TermData::App(_, args) = store.data(id) {
        if args.len() != 2 {
            break;
        }
        events.insert(args[1]);
        id = args[0];
    }
    events
}

/// The distinct (event set, index vector) pairs over the explanation ids
/// of the QSQ model of `alarms`.
fn qsq_states(net: &rescue_petri::PetriNet, alarms: &AlarmSeq) -> usize {
    let mut store = TermStore::new();
    let dp = diagnosis_program(net, alarms, "supervisor", &mut store);
    let mut db = Database::new();
    qsq_answer(
        &dp.program,
        &dp.query,
        &mut store,
        &mut db,
        &EvalBudget::default(),
    )
    .unwrap();
    let k = alarms.peers().len();
    let adorned = format!("{}__", sup_names::CONFIG_PREFIXES);
    let mut states: HashSet<(BTreeSet<TermId>, Vec<TermId>)> = HashSet::new();
    for (pred, rel) in db.iter() {
        if !store.sym_str(pred.name).starts_with(&adorned) {
            continue;
        }
        for row in rel.rows() {
            states.insert((events_of(&store, row[0]), row[3..3 + k].to_vec()));
        }
    }
    states.len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn the_gate_keeps_every_configuration(cfg in arb_cfg(), run_seed in 0u64..100, len in 3usize..7) {
        let net = random_net(&cfg);
        let run = random_run(&net, run_seed, len).expect("generated nets are safe");
        let alarms = peers_reversed(&AlarmSeq::from_run(&net, &run));
        prop_assume!(alarms.len() >= 3);
        // The depth-bounded engines (bottom-up, the session) build the
        // whole unfolding to depth |A|+1 whatever the gate does; keep the
        // nets on which that stays small.
        let limits = UnfoldLimits {
            max_depth: alarms.len() as u32 + 1,
            max_events: 600,
        };
        prop_assume!(!Unfolding::build(&net, &limits).is_truncated());
        let (base, stats) = diagnose_baseline(&net, &alarms);
        let opts = PipelineOptions::default();

        // (a) every engine and the online session agree with [8].
        let qsq = diagnose_qsq(&net, &alarms, &opts).unwrap();
        prop_assert_eq!(&qsq.diagnosis, &base, "QSQ on {}", alarms);
        let dqsq = diagnose_dqsq(&net, &alarms, &opts).unwrap();
        prop_assert_eq!(&dqsq.diagnosis, &base, "dQSQ on {}", alarms);
        let bu = diagnose_seminaive(&net, &alarms, &opts).unwrap();
        prop_assert_eq!(&bu.diagnosis, &base, "bottom-up on {}", alarms);
        let mut session = DiagnosisSession::new(&net, "supervisor").unwrap();
        let mut online = session.diagnosis();
        for alarm in &alarms.alarms {
            online = session.push_alarm(alarm).unwrap();
        }
        prop_assert_eq!(&online, &base, "session on {}", alarms);

        // (b) one state per (configuration, index vector) that [8] explores.
        prop_assert_eq!(qsq_states(&net, &alarms), stats.states, "QSQ states on {}", alarms);

        // (c) Theorem 4.
        prop_assert_eq!(dqsq.distinct_events, stats.events, "dQSQ events on {}", alarms);
    }
}
