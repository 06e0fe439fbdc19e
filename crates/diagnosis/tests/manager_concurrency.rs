//! The [`SessionManager`] shared by threads: per-session locking must buy
//! isolation (nobody waits behind another session's lock) without costing
//! exactness (every diagnosis, fact count and rollup equals a
//! single-threaded run) or the admission cap.
//!
//! Interleavings are forced with barriers and channels; the only timeout
//! is a hang guard, never an assertion about speed.

use rescue_datalog::{Absorb, EvalStats};
use rescue_diagnosis::{Alarm, AlarmSeq, ManagerConfig, ManagerError, SessionManager};
use rescue_petri::figure1;
use std::sync::mpsc;
use std::sync::Barrier;
use std::time::Duration;

const THREADS: usize = 8;
const PER_THREAD: usize = 16;

fn manager(max_sessions: usize) -> SessionManager {
    let mut mgr = SessionManager::new(ManagerConfig {
        max_sessions,
        ..ManagerConfig::default()
    });
    mgr.register_net("figure1", figure1());
    mgr
}

/// Session `k`'s stream: a rotation of the Figure 1 alarms, so sessions
/// differ in their diagnoses and in how much they derive.
fn stream(k: usize) -> Vec<Alarm> {
    let mut alarms = AlarmSeq::from_pairs(&[("b", "p1"), ("a", "p2"), ("c", "p1")]).alarms;
    alarms.rotate_left(k % 3);
    alarms
}

/// One whole lifecycle minus the destroy: create `s<k>`, push its stream
/// one alarm at a time.
fn run_session(mgr: &SessionManager, k: usize) {
    let id = mgr.create(Some(&format!("s{k}")), None).unwrap();
    for alarm in &stream(k) {
        mgr.push(&id, std::slice::from_ref(alarm)).unwrap();
    }
}

#[test]
fn eight_threads_of_sessions_equal_a_single_threaded_run() {
    let total = THREADS * PER_THREAD;
    let shared = manager(4096);
    let start = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (shared, start) = (&shared, &start);
            s.spawn(move || {
                start.wait();
                for k in (t * PER_THREAD)..((t + 1) * PER_THREAD) {
                    run_session(shared, k);
                }
            });
        }
    });
    let solo = manager(4096);
    for k in 0..total {
        run_session(&solo, k);
    }

    let mut sum = EvalStats::default();
    for k in 0..total {
        let id = format!("s{k}");
        assert_eq!(shared.diagnosis(&id), solo.diagnosis(&id), "{id}");
        let (a, b) = (
            shared.session_stats(&id).unwrap(),
            solo.session_stats(&id).unwrap(),
        );
        assert_eq!((a.alarms, a.facts, a.pushes), (b.alarms, b.facts, b.pushes));
        assert_eq!(a.eval, b.eval, "{id} did the same engine work");
        sum.absorb(&a.eval);
    }
    let (a, b) = (shared.stats(), solo.stats());
    assert_eq!(a.eval, sum, "the rollup is the sum of its sessions");
    assert_eq!(a.eval, b.eval);
    assert_eq!((a.created, a.resident), (total as u64, total));
    assert_eq!(a.alarms_accepted, 3 * total as u64);

    // Retirement moves work between the two halves of the rollup, exactly.
    for k in 0..total / 2 {
        shared.destroy(&format!("s{k}")).unwrap();
    }
    assert_eq!(shared.stats().eval, sum);
}

#[test]
fn a_push_on_b_returns_while_a_thread_holds_session_a() {
    let mgr = manager(8);
    let a = mgr.create(Some("a"), None).unwrap();
    let b = mgr.create(Some("b"), None).unwrap();
    let (held_tx, held_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::scope(|s| {
        let mgr = &mgr;
        let holder = s.spawn(move || {
            mgr.inspect(&a, |_| {
                held_tx.send(()).unwrap();
                release_rx.recv().unwrap();
            })
        });
        held_rx.recv().unwrap();
        // Session `a`'s lock is held and stays held. Everything that does
        // not name `a` must still complete; run it on its own thread so a
        // regression is a failed assertion, not a hung test.
        s.spawn(move || {
            let pushed = mgr.push(&b, &stream(0)).unwrap().alarms_total;
            let c = mgr.create(Some("c"), None).unwrap();
            mgr.detach(&c).unwrap();
            mgr.destroy(&c).unwrap();
            let lite = mgr.stats_lite();
            done_tx.send((pushed, lite.resident, mgr.session_ids().len()))
        });
        let done = done_rx.recv_timeout(Duration::from_secs(60));
        release_tx.send(()).unwrap();
        holder.join().unwrap().unwrap();
        assert_eq!(done, Ok((3, 2, 2)), "session b waited behind session a");
    });
    assert_eq!(mgr.push("a", &stream(0)).unwrap().alarms_total, 3);
}

#[test]
fn create_at_the_cap_from_eight_threads_never_exceeds_it() {
    const CAP: usize = 4;
    let mgr = manager(CAP);
    for k in 0..CAP {
        mgr.create(Some(&format!("held{k}")), None).unwrap();
    }
    let full = mgr.stats();
    let storm = |mgr: &SessionManager| -> usize {
        let start = Barrier::new(THREADS);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        let r = mgr.create(None, None);
                        assert!(mgr.resident() <= CAP, "cap exceeded");
                        match r {
                            Ok(_) => 1,
                            Err(ManagerError::AdmissionDenied { cap, .. }) => {
                                assert_eq!(cap, CAP);
                                0
                            }
                            Err(e) => panic!("unexpected refusal {e}"),
                        }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        })
    };

    // Every resident session attached: all eight are refused, and a
    // refusal builds nothing.
    assert_eq!(storm(&mgr), 0);
    let refused = mgr.stats();
    assert_eq!(refused.rejected, THREADS as u64);
    assert_eq!(refused.created, CAP as u64);
    assert_eq!(
        refused.eval, full.eval,
        "a refused create paid no saturation"
    );

    // Every resident session detached: exactly CAP creates win a slot by
    // eviction, the rest find every slot attached or reserved.
    for k in 0..CAP {
        mgr.detach(&format!("held{k}")).unwrap();
    }
    assert_eq!(storm(&mgr), CAP);
    let s = mgr.stats();
    assert_eq!(s.created + s.rejected, (CAP + 2 * THREADS) as u64);
    assert_eq!((s.created, s.evicted), (2 * CAP as u64, CAP as u64));
    assert_eq!((s.resident, s.attached), (CAP, CAP));
    // Eight saturations were paid for in all: four retired, four resident.
    assert_eq!(s.eval.facts_derived, 2 * full.eval.facts_derived);
}

#[test]
fn destroy_and_eviction_racing_a_push_lose_nothing() {
    const CAP: usize = 6;
    const ROUNDS: usize = 40;
    let mgr = manager(CAP);
    let start = Barrier::new(4);
    let accepted: usize = std::thread::scope(|s| {
        // Churn: keep creating detached sessions under the cap, so the
        // LRU ones are evicted while the pushers are still on them; every
        // other round destroys the session it just made.
        s.spawn(|| {
            start.wait();
            for round in 0..ROUNDS {
                let id = format!("r{}", round % (CAP + 2));
                match mgr.create(Some(&id), None) {
                    Ok(_) => mgr.detach(&id).unwrap(),
                    Err(ManagerError::DuplicateSession(_)) => {}
                    Err(e) => panic!("create: {e}"),
                }
                if round % 2 == 1 {
                    match mgr.destroy(&id) {
                        Ok(()) | Err(ManagerError::UnknownSession(_)) => {}
                        Err(e) => panic!("destroy: {e}"),
                    }
                }
            }
        });
        let pushers: Vec<_> = (0..3)
            .map(|p| {
                let (mgr, start) = (&mgr, &start);
                s.spawn(move || {
                    start.wait();
                    let mut accepted = 0;
                    for round in 0..ROUNDS {
                        let id = format!("r{}", (round + p) % (CAP + 2));
                        let alarm = &stream(0)[round % 3];
                        match mgr.push(&id, std::slice::from_ref(alarm)) {
                            Ok(r) => accepted += r.accepted,
                            Err(ManagerError::UnknownSession(_)) => {}
                            Err(e) => panic!("push on {id}: {e}"),
                        }
                    }
                    accepted
                })
            })
            .collect();
        pushers.into_iter().map(|h| h.join().unwrap()).sum()
    });
    let s = mgr.stats();
    assert_eq!(s.alarms_accepted, accepted as u64, "no accepted alarm lost");
    assert_eq!(s.failed, 0);
    assert!(s.resident <= CAP);
    assert_eq!(s.created, s.resident as u64 + s.destroyed + s.evicted);
    // Work done on sessions that were unlinked mid-push was still retired:
    // destroying what is left moves everything into the retired half.
    let before = s.eval;
    for id in mgr.session_ids() {
        mgr.destroy(&id).unwrap();
    }
    assert_eq!(mgr.stats().eval, before);
}
