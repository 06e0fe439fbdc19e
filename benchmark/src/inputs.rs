//! Seeded input generation: telecom nets and alarm streams drawn from
//! `--seed`, filtered to a narrow *instance class* so that two seeds give
//! different inputs of the same difficulty, each with its reference
//! diagnoses from the dedicated diagnoser of [8] (`diagnose_baseline`).
//!
//! The class filter uses only engine-independent facts: the split of the
//! alarms over the peers, the number of explanation states the dedicated
//! diagnoser explores, and the size of the net's unfolding prefix. An
//! optimisation of the Datalog engines therefore cannot change which
//! inputs a seed selects.

use crate::layers;
use rescue::diagnosis::Diagnosis;
use rescue::petri::{NetConfig, PetriNet};
use rescue::{Alarm, AlarmSeq};
use rustc_hash::FxHasher;
use std::hash::Hasher;
use std::time::Instant;

/// The paper-experiment telecom family (`crates/bench`'s `telecom_net(3, _)`).
const TELECOM: NetConfig = NetConfig {
    peers: 3,
    states_per_peer: 3,
    extra_transitions: 1,
    links: 2,
    alphabet: 3,
    joins: 0,
    seed: 0,
};

/// Which generated (net, alarm sequence) pairs a workload accepts.
pub struct Class {
    /// |A|.
    pub alarms: usize,
    /// Alarms per peer, ascending.
    pub shape: &'static [usize],
    /// Explanation states `diagnose_baseline` explores, inclusive band.
    pub states: (usize, usize),
    /// Events of the net's unfolding prefix at this depth, inclusive band
    /// (the bottom-up session's cost follows the net, not the alarms).
    pub unfolding: Option<(u32, usize, usize)>,
}

/// One diagnosis problem and its reference answers.
pub struct Instance {
    pub net: PetriNet,
    pub alarms: AlarmSeq,
    /// `prefix_refs[k]` is the reference diagnosis of the first `k + 1`
    /// alarms; the last entry is the diagnosis of the whole sequence.
    pub prefix_refs: Vec<Diagnosis>,
}

impl Instance {
    pub fn reference(&self) -> &Diagnosis {
        self.prefix_refs.last().expect("instances have alarms")
    }
}

/// What generating one workload's inputs cost, for the `petri` and
/// `baseline` layers.
#[derive(Default)]
pub struct GenCost {
    pub gen_ms: f64,
    pub baseline_ms: f64,
    pub baseline_calls: u64,
}

/// Running FxHash of every accepted `.pn` text and alarm sequence.
#[derive(Default)]
pub struct Fingerprint(FxHasher);

impl Fingerprint {
    fn absorb(&mut self, inst: &Instance) {
        self.0.write(layers::petri_text(&inst.net).as_bytes());
        self.0.write(inst.alarms.to_string().as_bytes());
    }

    /// 48 bits, so the value survives a round trip through a JSON number.
    pub fn value(&self) -> u64 {
        self.0.finish() & ((1 << 48) - 1)
    }
}

/// SplitMix64 over (seed, stream, index): independent sub-seeds.
pub fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut x = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(index.wrapping_mul(0x94D0_49BB_1331_11EB));
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn prefix_refs(net: &PetriNet, alarms: &AlarmSeq, cost: &mut GenCost) -> Vec<Diagnosis> {
    (1..=alarms.len())
        .map(|k| {
            let prefix = AlarmSeq::new(alarms.alarms[..k].to_vec());
            let t = Instant::now();
            let (d, _) = layers::baseline(net, &prefix);
            cost.baseline_ms += t.elapsed().as_secs_f64() * 1e3;
            cost.baseline_calls += 1;
            d
        })
        .collect()
}

/// The first `n` telecom instances of `class` in the candidate stream
/// `(seed, stream)`.
pub fn telecom(
    seed: u64,
    stream: u64,
    class: &Class,
    n: usize,
    fp: &mut Fingerprint,
    cost: &mut GenCost,
) -> Vec<Instance> {
    let mut out = Vec::with_capacity(n);
    let mut i = 0u64;
    while out.len() < n {
        i += 1;
        assert!(i < 200_000, "instance class too narrow: {n} wanted");
        let t = Instant::now();
        let net = layers::petri_net(&NetConfig {
            seed: mix(seed, stream, 2 * i),
            ..TELECOM
        });
        let alarms = layers::petri_run(&net, mix(seed, stream, 2 * i + 1), class.alarms);
        cost.gen_ms += t.elapsed().as_secs_f64() * 1e3;
        if alarms.len() != class.alarms {
            continue;
        }
        let mut shape: Vec<usize> = (0..TELECOM.peers)
            .map(|p| alarms.subsequence(&format!("p{p}")).len())
            .collect();
        shape.sort_unstable();
        if shape != class.shape {
            continue;
        }
        let t = Instant::now();
        let (_, stats) = layers::baseline(&net, &alarms);
        cost.baseline_ms += t.elapsed().as_secs_f64() * 1e3;
        cost.baseline_calls += 1;
        if stats.states < class.states.0 || stats.states > class.states.1 {
            continue;
        }
        if let Some((depth, lo, hi)) = class.unfolding {
            let t = Instant::now();
            let events = layers::petri_unfolding_events(&net, depth);
            cost.gen_ms += t.elapsed().as_secs_f64() * 1e3;
            if events < lo || events > hi {
                continue;
            }
        }
        let inst = Instance {
            prefix_refs: prefix_refs(&net, &alarms, cost),
            net,
            alarms,
        };
        fp.absorb(&inst);
        out.push(inst);
    }
    out
}

/// `n` alarm streams of `len` alarms on the paper's Figure 1 net.
pub fn figure1(
    seed: u64,
    stream: u64,
    len: usize,
    n: usize,
    fp: &mut Fingerprint,
    cost: &mut GenCost,
) -> Vec<Instance> {
    let net = layers::petri_figure1();
    let mut out = Vec::with_capacity(n);
    let mut i = 0u64;
    while out.len() < n {
        i += 1;
        let t = Instant::now();
        let alarms = layers::petri_run(&net, mix(seed, stream, i), len);
        cost.gen_ms += t.elapsed().as_secs_f64() * 1e3;
        if alarms.len() != len {
            continue;
        }
        let inst = Instance {
            prefix_refs: prefix_refs(&net, &alarms, cost),
            net: net.clone(),
            alarms,
        };
        fp.absorb(&inst);
        out.push(inst);
    }
    out
}

/// Swap in a wrong reference for the first instance (the negative test:
/// the op must then count as failed and the command exit nonzero).
pub fn corrupt_reference(instances: &mut [Instance]) {
    for d in &mut instances[0].prefix_refs {
        *d = Diagnosis::from_sets(vec![vec!["not-an-event".to_owned()]]);
    }
}

pub fn alarm_token(a: &Alarm) -> String {
    format!("{}@{}", a.symbol, a.peer)
}
