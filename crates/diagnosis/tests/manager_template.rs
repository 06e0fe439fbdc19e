//! Sessions that `create` clones from a net's shared zero-alarm template
//! are indistinguishable from sessions built from scratch, and independent
//! of their siblings.

use rescue_diagnosis::{Alarm, AlarmSeq, DiagnosisSession, ManagerConfig, SessionManager};
use rescue_petri::{figure1, random_net, random_run, NetConfig, PetriNet};

/// The `telecom3` net of `tests/tests/amortized_eval.rs`.
fn telecom3() -> PetriNet {
    random_net(&NetConfig {
        peers: 3,
        states_per_peer: 3,
        extra_transitions: 1,
        links: 2,
        alphabet: 3,
        joins: 0,
        seed: 42,
    })
}

fn clones_equal_fresh_sessions_and_each_other_not(net: PetriNet, alarms: &[Alarm]) {
    let config = ManagerConfig::default();
    let mut reference =
        DiagnosisSession::with_budget(&net, &config.supervisor, config.budget).unwrap();
    let zero = (reference.diagnosis(), reference.database().total_facts());
    let mut mgr = SessionManager::new(config);
    mgr.register_net("net", net);
    // While `anchor` is resident, `a` and `b` are clones of its template.
    for id in ["anchor", "a", "b"] {
        mgr.create(Some(id), None).unwrap();
    }
    let read = |id: &str| {
        mgr.inspect(id, |s| {
            (s.diagnosis(), s.database().total_facts(), s.total_stats())
        })
        .unwrap()
    };
    assert_eq!(read("a"), read("b"));
    for alarm in alarms {
        let slice = std::slice::from_ref(alarm);
        mgr.push("a", slice).unwrap();
        let want = reference.push_batch(slice).unwrap();
        let want = (
            want,
            reference.database().total_facts(),
            reference.total_stats(),
        );
        assert_eq!(read("a"), want, "clone diverged after {alarm:?}");
        let (diagnosis, facts, _) = read("b");
        assert_eq!((diagnosis, facts), zero, "a push leaked into a sibling");
    }
}

#[test]
fn figure1_clones_equal_fresh_sessions() {
    let alarms = AlarmSeq::from_pairs(&[("b", "p1"), ("a", "p2"), ("c", "p1")]);
    clones_equal_fresh_sessions_and_each_other_not(figure1(), &alarms.alarms);
}

#[test]
fn telecom3_clones_equal_fresh_sessions() {
    let net = telecom3();
    let alarms = AlarmSeq::from_run(&net, &random_run(&net, 7, 4).unwrap());
    assert!(!alarms.alarms.is_empty());
    clones_equal_fresh_sessions_and_each_other_not(net, &alarms.alarms);
}
