//! Shared helpers for the cross-crate integration tests.

pub mod reference;

use rescue_diagnosis::AlarmSeq;
use rescue_petri::{random_net, random_run, NetConfig, PetriNet};

/// A deterministic family of small distributed nets, varied enough to
/// exercise cross-peer places, conflicts, loops and 1/2-ary presets.
pub fn small_nets() -> Vec<(String, PetriNet)> {
    let mut v = vec![
        ("figure1".to_owned(), rescue_petri::figure1()),
        (
            "producer_consumer".to_owned(),
            rescue_petri::producer_consumer(),
        ),
        (
            "three_peer_chain".to_owned(),
            rescue_petri::three_peer_chain(),
        ),
    ];
    for seed in 0..4 {
        let cfg = NetConfig {
            seed,
            peers: 2,
            links: 1,
            states_per_peer: 2,
            extra_transitions: 1,
            alphabet: 2,
            joins: 0,
        };
        v.push((format!("random{seed}"), random_net(&cfg)));
    }
    v
}

/// Sample a feasible alarm sequence of (at most) `len` alarms from a run
/// of `net`, deterministically in `seed`.
pub fn sampled_alarms(net: &PetriNet, seed: u64, len: usize) -> AlarmSeq {
    let run = random_run(net, seed, len).expect("nets under test are safe");
    AlarmSeq::from_run(net, &run)
}

/// An infeasible variant: reverse the sampled sequence (often violates
/// per-peer order) — useful to exercise the empty-diagnosis path.
pub fn reversed_alarms(net: &PetriNet, seed: u64, len: usize) -> AlarmSeq {
    let mut a = sampled_alarms(net, seed, len);
    a.alarms.reverse();
    a
}
