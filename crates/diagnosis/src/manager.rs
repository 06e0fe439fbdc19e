//! Multi-tenant session lifecycle: one [`SessionManager`] hosting many
//! concurrent [`DiagnosisSession`]s.
//!
//! The paper's supervisor is inherently online — alarms arrive one at a
//! time and the diagnosis net is extended incrementally — and a real
//! deployment watches many components at once, one supervisor session per
//! monitored subsystem. This module is the shared substrate under both
//! entry points that serve that shape: the `rescue-server` binary (many
//! sessions over TCP) and `diagnose --follow` (one session over stdin) are
//! both thin clients of the same manager, so lifecycle behavior — budget
//! handling, flight dumps on failure, admission control — cannot drift
//! between them.
//!
//! Responsibilities:
//!
//! * **registry** — sessions are keyed by a caller-chosen (or generated)
//!   string id; `create`/`attach`/`detach`/`destroy` manage residency;
//! * **admission control** — at the configured session cap, creating
//!   another session first tries to evict the least-recently-used
//!   *detached* session; if every resident session is attached the create
//!   is refused with [`ManagerError::AdmissionDenied`] (counted in
//!   telemetry, never a panic);
//! * **bounded ingestion** — each push lands in a per-session bounded
//!   queue before evaluation; a batch that overflows it is truncated and
//!   the reply carries an explicit backpressure count
//!   ([`PushReply::dropped`]) so the client retries the remainder;
//! * **budgets and postmortems** — every session runs under the
//!   configured [`EvalBudget`]; a blown budget marks the session failed
//!   (sticky until destroyed), detaches it (making it evictable), and
//!   captures its [`flight dump`](DiagnosisSession::flight_dump);
//! * **telemetry rollups** — `manager.*` counters plus aggregated
//!   [`EvalStats`] across live and retired sessions.
//!
//! Detach/attach is pure bookkeeping — the session state never moves — so
//! a detached-then-reattached session is *byte-identical* to one that was
//! never detached (pinned by the lifecycle tests).
//!
//! # Locking
//!
//! The paper couples no two supervisors, and neither does the manager. A
//! short **registry lock** owns what admission and LRU need (the id map
//! with `attached`/`last_used`, the clocks, the lifecycle counters,
//! retired engine stats); each session sits behind **its own lock**. One
//! rule: *the registry lock is never held while a session lock is awaited
//! or while the engine runs.* `push` looks the session up under the
//! registry, evaluates under the session lock alone, and re-takes the
//! registry for two counter bumps. `create` reserves the id and the
//! residency slot *before* building, so the cap is never exceeded and a
//! refused create builds nothing. It then clones the net's zero-alarm
//! template under that net's template lock alone, building the template
//! first when no session of the net is resident. `destroy` and eviction
//! unlink under the registry, then retire the victim's stats behind
//! whatever push is in flight on it. The session lock is also the fault boundary: a panic in
//! one session's evaluation becomes its sticky `SessionFailed`.

use crate::alarm::Alarm;
use crate::direct::Diagnosis;
use crate::session::DiagnosisSession;
use rescue_datalog::{Absorb, EvalBudget, EvalStats};
use rescue_petri::PetriNet;
use rescue_telemetry::{Collector, Histogram};
use rustc_hash::FxHashMap;
use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard, Weak};
use std::time::Instant;

/// Manager-level policy knobs, shared by the server and the CLI.
#[derive(Clone, Debug)]
pub struct ManagerConfig {
    /// Cap on resident sessions (admission control + LRU eviction floor).
    pub max_sessions: usize,
    /// Per-session bounded ingest queue: the largest alarm batch one
    /// `push` may hand to evaluation. Overflow is reported, not dropped
    /// silently.
    pub ingest_capacity: usize,
    /// Evaluation budget applied to every session (fact/iteration caps;
    /// the term-depth bound stays session-managed).
    pub budget: EvalBudget,
    /// Supervisor peer name for every session (must not collide with a
    /// net peer; checked at `create`).
    pub supervisor: String,
}

impl Default for ManagerConfig {
    fn default() -> Self {
        ManagerConfig {
            max_sessions: 4096,
            ingest_capacity: 1024,
            budget: EvalBudget::default(),
            supervisor: "supervisor0".to_owned(),
        }
    }
}

/// Any refusal or failure the manager can answer with. All of these are
/// protocol-visible replies, not process failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ManagerError {
    UnknownSession(String),
    DuplicateSession(String),
    /// `create` named a net the manager has no registration for.
    UnknownNet(String),
    /// The supervisor peer name collides with a peer of the chosen net.
    SupervisorCollision(String),
    /// Session cap reached and every resident session is attached.
    AdmissionDenied {
        resident: usize,
        cap: usize,
    },
    /// The session's evaluation died (typically a blown fact budget). The
    /// session is sticky-failed until destroyed; `flight` is its
    /// postmortem (`rescue-flight-v1` JSON, valid even when untraced).
    SessionFailed {
        id: String,
        reason: String,
        flight: String,
    },
}

impl fmt::Display for ManagerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManagerError::UnknownSession(id) => write!(f, "unknown session {id}"),
            ManagerError::DuplicateSession(id) => write!(f, "session {id} already exists"),
            ManagerError::UnknownNet(name) => write!(f, "unknown net {name}"),
            ManagerError::SupervisorCollision(name) => {
                write!(f, "supervisor name {name} collides with a net peer")
            }
            ManagerError::AdmissionDenied { resident, cap } => {
                write!(
                    f,
                    "admission denied: {resident} attached session(s) at cap {cap}"
                )
            }
            ManagerError::SessionFailed { id, reason, .. } => {
                write!(f, "session {id} failed: {reason}")
            }
        }
    }
}

impl std::error::Error for ManagerError {}

/// Outcome of one `push`: how much of the batch was admitted, and the
/// diagnosis after the admitted prefix.
#[derive(Clone, Debug)]
pub struct PushReply {
    /// Alarms admitted and evaluated by this call.
    pub accepted: usize,
    /// Alarms refused because the batch overflowed the bounded ingest
    /// queue — the explicit backpressure signal; the client should retry
    /// them (possibly in smaller batches) after this reply.
    pub dropped: usize,
    /// The queue bound the batch was admitted against.
    pub capacity: usize,
    /// Total alarms the session has absorbed so far.
    pub alarms_total: usize,
    /// Diagnosis of everything absorbed so far.
    pub diagnosis: Diagnosis,
}

/// One session's externally visible accounting (`stats` verb).
#[derive(Clone, Debug)]
pub struct SessionStats {
    pub id: String,
    pub alarms: usize,
    pub facts: usize,
    pub attached: bool,
    pub failed: Option<String>,
    /// Successful `push` calls the session has served.
    pub pushes: u64,
    /// Alarms admitted by the most recent push — how deep the bounded
    /// ingest queue got on the last batch.
    pub last_batch: usize,
    /// p50 of per-push evaluation latency (µs), over the session's life.
    pub push_p50_us: u64,
    /// p99 of per-push evaluation latency (µs), over the session's life.
    pub push_p99_us: u64,
    /// Aggregate engine counters over every resume the session ran.
    pub eval: EvalStats,
}

/// Manager-wide rollup (`stats` verb without a session).
#[derive(Clone, Debug, Default)]
pub struct ManagerStats {
    pub resident: usize,
    pub attached: usize,
    pub created: u64,
    pub destroyed: u64,
    pub evicted: u64,
    pub rejected: u64,
    pub failed: u64,
    pub alarms_accepted: u64,
    pub backpressure_replies: u64,
    /// Engine counters summed over resident *and* retired sessions.
    pub eval: EvalStats,
}

/// Everything one session owns, behind that session's own lock.
struct Managed {
    session: DiagnosisSession,
    /// The zero-alarm session this one was cloned from, kept alive for as
    /// long as this session is, so the net's next `create` can clone it.
    _template: Arc<DiagnosisSession>,
    failed: Option<String>,
    /// Postmortem captured at failure time.
    flight: String,
    /// Set once destroy/eviction has read the final stats: a push that lost
    /// that race answers `UnknownSession` rather than do unaccounted work.
    retired: bool,
    /// Successful pushes served (the live-metrics table's ops column).
    pushes: u64,
    /// Alarms admitted by the most recent push.
    last_batch: usize,
    /// Per-push evaluation latency, µs (session-local, so the metrics
    /// table can show per-tenant percentiles without a collector).
    push_lat: Histogram,
}

impl Managed {
    /// The sticky failure reply, if the session has failed.
    fn failure(&self, id: &str) -> Option<ManagerError> {
        let reason = self.failed.clone()?;
        let (id, flight) = (id.to_owned(), self.flight.clone());
        Some(ManagerError::SessionFailed { id, reason, flight })
    }

    /// Mark the session failed (sticky) and capture its postmortem.
    fn fail(&mut self, id: &str, reason: String) -> ManagerError {
        self.flight = self.session.flight_dump(&reason);
        self.failed = Some(reason);
        self.failure(id).expect("just failed")
    }
}

type Slot = Arc<Mutex<Managed>>;

/// What admission and LRU need to know of a session without its lock.
struct Entry {
    /// `None` while `create` is still building the session: the id and
    /// the residency slot are taken, but nothing is addressable yet.
    slot: Option<Slot>,
    attached: bool,
    /// LRU tick of the last create/attach/push touching this session.
    last_used: u64,
}

/// Everything behind the registry lock.
#[derive(Default)]
struct Registry {
    sessions: FxHashMap<String, Entry>,
    /// Monotone LRU clock; bumped by every touch.
    clock: u64,
    /// Generated-id counter (`s0`, `s1`, …).
    next_id: u64,
    counters: ManagerStats,
    /// Stats of destroyed/evicted sessions, so the rollup loses no work.
    retired_eval: EvalStats,
}

impl Registry {
    /// Look up a built session, optionally bumping its LRU tick.
    fn entry(&mut self, id: &str, touch: bool) -> Result<(&mut Entry, Slot), ManagerError> {
        let unknown = || ManagerError::UnknownSession(id.to_owned());
        let e = self.sessions.get_mut(id).ok_or_else(unknown)?;
        let slot = e.slot.clone().ok_or_else(unknown)?;
        if touch {
            self.clock += 1;
            e.last_used = self.clock;
        }
        Ok((e, slot))
    }

    /// Make room for one more session: at the cap, unlink the LRU detached
    /// session for the caller to retire, or refuse if all are attached.
    fn admit(&mut self, cap: usize) -> Result<Option<(String, Slot)>, ManagerError> {
        if self.sessions.len() < cap {
            return Ok(None);
        }
        let victim = self
            .sessions
            .iter()
            .filter(|(_, e)| !e.attached)
            .min_by_key(|(_, e)| e.last_used)
            .map(|(id, _)| id.clone());
        match victim {
            Some(id) => {
                let e = self.sessions.remove(&id).expect("victim just found");
                self.counters.evicted += 1;
                // Reservations are attached, so a victim is always built.
                Ok(e.slot.map(|slot| (id, slot)))
            }
            None => {
                self.counters.rejected += 1;
                let resident = self.sessions.len();
                Err(ManagerError::AdmissionDenied { resident, cap })
            }
        }
    }
}

fn us_since(t0: Instant) -> u64 {
    t0.elapsed().as_micros() as u64
}

fn panic_reason(payload: &(dyn Any + Send)) -> String {
    let text = payload.downcast_ref::<String>().map(String::as_str);
    let text = text.or_else(|| payload.downcast_ref::<&str>().copied());
    format!("panic: {}", text.unwrap_or("<non-string payload>"))
}

/// A creatable net and the template its sessions are cloned from.
struct Net {
    name: String,
    net: PetriNet,
    /// The net's zero-alarm session, while any session cloned from it is
    /// resident (each holds an `Arc` to it). Dead otherwise: a template
    /// per registered net for the server's whole life would keep every
    /// idle net's program and plans in memory.
    template: Mutex<Weak<DiagnosisSession>>,
}

/// The registry of nets and sessions. Internally synchronised: once set
/// up (`&mut self`), every method takes `&self`, so the server shares one
/// manager between its connection threads and the CLI owns one outright.
pub struct SessionManager {
    config: ManagerConfig,
    nets: Vec<Net>,
    collector: Collector,
    registry: Mutex<Registry>,
}

impl SessionManager {
    pub fn new(config: ManagerConfig) -> Self {
        SessionManager {
            config,
            nets: Vec::new(),
            collector: Collector::disabled(),
            registry: Mutex::default(),
        }
    }

    /// Route manager counters and every *future* session's telemetry to
    /// `collector` (existing sessions keep their sink).
    pub fn set_collector(&mut self, collector: Collector) {
        self.collector = collector;
    }

    /// Make `net` creatable under `name`. First registration is the
    /// default net for `create` calls that name none.
    pub fn register_net(&mut self, name: &str, net: PetriNet) {
        self.nets.push(Net {
            name: name.to_owned(),
            net,
            template: Mutex::default(),
        });
    }

    /// Registered net names, registration order.
    pub fn net_names(&self) -> Vec<String> {
        self.nets.iter().map(|n| n.name.clone()).collect()
    }

    pub fn config(&self) -> &ManagerConfig {
        &self.config
    }

    fn registry(&self) -> MutexGuard<'_, Registry> {
        // Registry critical sections are map edits and counter bumps, each
        // leaving the data valid, so a poison flag carries no information.
        self.registry.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Run `f` on the session behind `slot`, under that session's lock
    /// and no other. This is the tenant fault boundary: a panic inside `f`
    /// (or a lock found poisoned by one) becomes the sticky `SessionFailed`
    /// with a flight dump, and the session is detached, hence evictable.
    fn with_slot<R>(
        &self,
        id: &str,
        slot: &Slot,
        f: impl FnOnce(&mut Managed) -> Result<R, ManagerError>,
    ) -> Result<R, ManagerError> {
        let t0 = Instant::now();
        let mut m = slot.lock().unwrap_or_else(|e| e.into_inner());
        self.collector
            .record("manager.session_wait_us", us_since(t0));
        if m.retired {
            return Err(ManagerError::UnknownSession(id.to_owned()));
        }
        let was_failed = m.failed.is_some();
        // Exact while the guard is held: nobody else can poison or clear.
        if slot.is_poisoned() && !was_failed {
            m.fail(id, "panic: a thread died holding this lock".to_owned());
        }
        slot.clear_poison();
        let out = catch_unwind(AssertUnwindSafe(|| f(&mut m))).unwrap_or_else(|payload| {
            let failure = m.failure(id);
            Err(failure.unwrap_or_else(|| m.fail(id, panic_reason(&*payload))))
        });
        let newly_failed = !was_failed && m.failed.is_some();
        drop(m);
        if newly_failed {
            let mut reg = self.registry();
            reg.counters.failed += 1;
            // Failed sessions are evictable (unless the id was reused).
            let ours = |e: &&mut Entry| e.slot.as_ref().is_some_and(|s| Arc::ptr_eq(s, slot));
            if let Some(e) = reg.sessions.get_mut(id).filter(ours) {
                e.attached = false;
            }
            drop(reg);
            self.collector.count("manager.sessions_failed", 1);
        }
        out
    }

    /// Retire an unlinked session's stats into the graveyard accumulator,
    /// after whatever push is still in flight on it.
    fn retire(&self, id: &str, slot: &Slot) {
        let last = self.with_slot(id, slot, |m| {
            m.retired = true;
            Ok(m.session.total_stats())
        });
        if let Ok(stats) = last {
            self.registry().retired_eval.absorb(&stats);
        }
    }

    /// `net`'s live template, or a freshly built one on a miss. The slot
    /// stays locked while building, so a second `create` of the same net
    /// waits and reuses instead of building twice. A failed build leaves
    /// the slot as it was: nothing is cached.
    fn template(&self, net: &Net) -> Result<Arc<DiagnosisSession>, String> {
        // A panicking build never wrote the slot, so a poison flag carries
        // no information.
        let mut slot = net.template.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(template) = slot.upgrade() {
            self.collector.count("manager.templates_reused", 1);
            return Ok(template);
        }
        let (supervisor, budget) = (&self.config.supervisor, self.config.budget);
        let template = DiagnosisSession::with_budget(&net.net, supervisor, budget)
            .map_err(|e| e.to_string())?;
        let template = Arc::new(template);
        *slot = Arc::downgrade(&template);
        self.collector.count("manager.templates_built", 1);
        Ok(template)
    }

    /// Create a session (attached to the caller) and return its id. `id`
    /// defaults to a generated `s<N>`; `net` to the first registered net.
    ///
    /// The session is a clone of the net's zero-alarm template, which is
    /// built on the first `create` while none of the net's sessions is
    /// resident and shared by every later one.
    pub fn create(&self, id: Option<&str>, net: Option<&str>) -> Result<String, ManagerError> {
        let found = match net {
            Some(name) => self.nets.iter().find(|n| n.name == name),
            None => self.nets.first(),
        };
        let unknown = || ManagerError::UnknownNet(net.unwrap_or("<none registered>").to_owned());
        let net = found.ok_or_else(unknown)?;
        let supervisor = &self.config.supervisor;
        if net.net.peer_by_name(supervisor).is_some() {
            return Err(ManagerError::SupervisorCollision(supervisor.clone()));
        }
        // Reserve the id and the residency slot before building.
        let (id, victim) = {
            let mut reg = self.registry();
            let id = match id {
                Some(given) => {
                    if reg.sessions.contains_key(given) {
                        return Err(ManagerError::DuplicateSession(given.to_owned()));
                    }
                    given.to_owned()
                }
                None => loop {
                    let candidate = format!("s{}", reg.next_id);
                    reg.next_id += 1;
                    if !reg.sessions.contains_key(&candidate) {
                        break candidate;
                    }
                },
            };
            let victim = reg
                .admit(self.config.max_sessions)
                .inspect_err(|_| self.collector.count("manager.sessions_rejected", 1))?;
            reg.clock += 1;
            let reservation = Entry {
                slot: None,
                attached: true,
                last_used: reg.clock,
            };
            reg.sessions.insert(id.clone(), reservation);
            (id, victim)
        };
        if let Some((victim, slot)) = victim {
            self.collector.count("manager.sessions_evicted", 1);
            self.retire(&victim, &slot);
        }
        // A build that blows its budget, or panics, gives the reservation back.
        let built = catch_unwind(AssertUnwindSafe(|| {
            let t0 = Instant::now();
            let template = self.template(net)?;
            let mut session = DiagnosisSession::clone(&template);
            session.set_collector(self.collector.clone());
            self.collector
                .record("manager.create_latency_us", us_since(t0));
            Ok(Arc::new(Mutex::new(Managed {
                session,
                _template: template,
                failed: None,
                flight: String::new(),
                retired: false,
                pushes: 0,
                last_batch: 0,
                push_lat: Histogram::default(),
            })))
        }))
        .unwrap_or_else(|payload| Err(panic_reason(&*payload)));
        let mut reg = self.registry();
        match built {
            Ok(slot) => {
                let e = reg.sessions.get_mut(&id);
                e.expect("only its creator removes a reservation").slot = Some(slot);
                reg.counters.created += 1;
                drop(reg);
                self.collector.count("manager.sessions_created", 1);
                Ok(id)
            }
            Err(reason) => {
                reg.sessions.remove(&id);
                reg.counters.failed += 1;
                drop(reg);
                self.collector.count("manager.sessions_failed", 1);
                let flight = Collector::disabled().flight_dump("session creation failed");
                Err(ManagerError::SessionFailed { id, reason, flight })
            }
        }
    }

    /// Re-attach to an existing session; returns its alarm count so the
    /// client can resynchronize. Idempotent on an already-attached id.
    pub fn attach(&self, id: &str) -> Result<usize, ManagerError> {
        let slot = {
            let mut reg = self.registry();
            let (e, slot) = reg.entry(id, true)?;
            e.attached = true;
            slot
        };
        self.with_slot(id, &slot, |m| Ok(m.session.len()))
    }

    /// Detach: the session stays resident with all state, but becomes a
    /// candidate for LRU eviction under admission pressure.
    pub fn detach(&self, id: &str) -> Result<(), ManagerError> {
        self.registry().entry(id, false)?.0.attached = false;
        Ok(())
    }

    /// Drop a session outright (its stats survive in the rollup).
    pub fn destroy(&self, id: &str) -> Result<(), ManagerError> {
        let slot = {
            let mut reg = self.registry();
            let slot = reg.entry(id, false)?.1;
            reg.sessions.remove(id);
            reg.counters.destroyed += 1;
            slot
        };
        self.collector.count("manager.sessions_destroyed", 1);
        self.retire(id, &slot);
        Ok(())
    }

    /// Ingest a batch of alarms: admit up to the queue bound, evaluate
    /// the admitted prefix with one batched resume
    /// ([`DiagnosisSession::push_batch`]), and reply with the diagnosis
    /// plus an explicit count of alarms refused by backpressure.
    ///
    /// A blown budget marks the session failed (sticky), detaches it, and
    /// captures the flight dump into the error.
    pub fn push(&self, id: &str, alarms: &[Alarm]) -> Result<PushReply, ManagerError> {
        let t0 = Instant::now();
        let slot = {
            let mut reg = self.registry();
            self.collector
                .record("manager.registry_wait_us", us_since(t0));
            reg.entry(id, true)?.1
        };
        let capacity = self.config.ingest_capacity;
        let accepted = alarms.len().min(capacity);
        let dropped = alarms.len() - accepted;
        let reply = self.with_slot(id, &slot, |m| {
            if let Some(failure) = m.failure(id) {
                return Err(failure);
            }
            let t0 = Instant::now();
            match m.session.push_batch(&alarms[..accepted]) {
                Ok(diagnosis) => {
                    let us = us_since(t0);
                    m.pushes += 1;
                    m.last_batch = accepted;
                    m.push_lat.record(us);
                    self.collector.record("manager.push_latency_us", us);
                    Ok(PushReply {
                        accepted,
                        dropped,
                        capacity,
                        alarms_total: m.session.len(),
                        diagnosis,
                    })
                }
                Err(e) => Err(m.fail(id, e.to_string())),
            }
        })?;
        let mut reg = self.registry();
        reg.counters.alarms_accepted += accepted as u64;
        reg.counters.backpressure_replies += u64::from(dropped > 0);
        drop(reg);
        let c = &self.collector;
        c.count("manager.alarms_accepted", accepted as u64);
        c.record("manager.ingest_depth", accepted as u64);
        c.count("manager.backpressure_replies", u64::from(dropped > 0));
        Ok(reply)
    }

    /// Run `f` on one session under that session's lock (the read path
    /// of [`diagnosis`](Self::diagnosis)); no other session waits on it.
    pub fn inspect<R>(
        &self,
        id: &str,
        f: impl FnOnce(&DiagnosisSession) -> R,
    ) -> Result<R, ManagerError> {
        let slot = self.registry().entry(id, false)?.1;
        self.with_slot(id, &slot, |m| Ok(f(&m.session)))
    }

    /// Current diagnosis without pushing anything.
    pub fn diagnosis(&self, id: &str) -> Result<Diagnosis, ManagerError> {
        self.inspect(id, DiagnosisSession::diagnosis)
    }

    /// Per-session accounting (the `stats SESSION` verb).
    pub fn session_stats(&self, id: &str) -> Result<SessionStats, ManagerError> {
        let mut reg = self.registry();
        let (attached, slot) = reg.entry(id, false).map(|(e, s)| (e.attached, s))?;
        drop(reg);
        self.with_slot(id, &slot, |m| {
            Ok(SessionStats {
                id: id.to_owned(),
                alarms: m.session.len(),
                facts: m.session.database().total_facts(),
                attached,
                failed: m.failed.clone(),
                pushes: m.pushes,
                last_batch: m.last_batch,
                push_p50_us: m.push_lat.percentile(0.50),
                push_p99_us: m.push_lat.percentile(0.99),
                eval: m.session.total_stats(),
            })
        })
    }

    /// Per-session accounting for up to `top` sessions, most recently
    /// used first — the `metrics` verb's live table (`rescue-top`'s
    /// backing data). `top == 0` means every resident session; one
    /// destroyed while the table is taken is skipped.
    pub fn session_table(&self, top: usize) -> Vec<SessionStats> {
        let mut ids = self.session_ids();
        if top > 0 {
            ids.truncate(top);
        }
        ids.iter()
            .filter_map(|id| self.session_stats(id).ok())
            .collect()
    }

    /// The session's per-rule attribution (the `profile SESSION` verb) —
    /// empty unless the manager's collector traces with profiling on.
    pub fn session_profile(
        &self,
        id: &str,
    ) -> Result<rescue_telemetry::profile::ProfileReport, ManagerError> {
        Ok(self.session_stats(id)?.eval.profile())
    }

    /// A failed session's captured postmortem (empty string otherwise).
    pub fn session_flight(&self, id: &str) -> Result<String, ManagerError> {
        let slot = self.registry().entry(id, false)?.1;
        self.with_slot(id, &slot, |m| Ok(m.flight.clone()))
    }

    /// Resident session ids, most recently used first.
    pub fn session_ids(&self) -> Vec<String> {
        let reg = self.registry();
        let mut ids: Vec<(&String, u64)> = reg
            .sessions
            .iter()
            .filter(|(_, e)| e.slot.is_some())
            .map(|(id, e)| (id, e.last_used))
            .collect();
        ids.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        ids.into_iter().map(|(id, _)| id.clone()).collect()
    }

    /// Sessions holding a residency slot (reservations included).
    pub fn resident(&self) -> usize {
        self.registry().sessions.len()
    }

    /// Manager-wide rollup: lifecycle counters plus engine counters summed
    /// over retired and resident sessions, each read under its own lock.
    /// Never counts work twice; may miss a session retired meanwhile.
    pub fn stats(&self) -> ManagerStats {
        let mut s = self.stats_lite();
        let slots: Vec<(String, Slot)> = {
            let reg = self.registry();
            s.eval = reg.retired_eval.clone();
            let built = |(id, e): (&String, &Entry)| Some((id.clone(), e.slot.clone()?));
            reg.sessions.iter().filter_map(built).collect()
        };
        for (id, slot) in &slots {
            if let Ok(eval) = self.with_slot(id, slot, |m| Ok(m.session.total_stats())) {
                s.eval.absorb(&eval);
            }
        }
        s
    }

    /// The lifecycle rollup alone, engine stats left at their default.
    /// The `metrics` scrape path calls this on every poll, so it stays two
    /// counts over the registry and touches no session — absorbing engine
    /// stats from a thousand live sessions (what [`stats`](Self::stats)
    /// does) is milliseconds a scraper must not steal from serving.
    pub fn stats_lite(&self) -> ManagerStats {
        let reg = self.registry();
        let mut s = reg.counters.clone();
        s.resident = reg.sessions.len();
        s.attached = reg.sessions.values().filter(|e| e.attached).count();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alarm::AlarmSeq;
    use rescue_petri::figure1;

    fn alarms() -> Vec<Alarm> {
        AlarmSeq::from_pairs(&[("b", "p1"), ("a", "p2"), ("c", "p1")]).alarms
    }

    fn manager(max_sessions: usize, ingest: usize) -> SessionManager {
        let mut mgr = SessionManager::new(ManagerConfig {
            max_sessions,
            ingest_capacity: ingest,
            ..ManagerConfig::default()
        });
        mgr.register_net("figure1", figure1());
        mgr
    }

    #[test]
    fn detach_attach_push_equals_uninterrupted_session() {
        let seq = alarms();
        // Interrupted: create → push one → detach → attach → push rest.
        let mgr = manager(8, 64);
        let id = mgr.create(Some("a"), None).unwrap();
        mgr.push(&id, &seq[..1]).unwrap();
        mgr.detach(&id).unwrap();
        let resumed_at = mgr.attach(&id).unwrap();
        assert_eq!(resumed_at, 1);
        let interrupted = mgr.push(&id, &seq[1..]).unwrap();

        // Uninterrupted control in a fresh manager.
        let mgr2 = manager(8, 64);
        let id2 = mgr2.create(Some("a"), None).unwrap();
        mgr2.push(&id2, &seq[..1]).unwrap();
        let control = mgr2.push(&id2, &seq[1..]).unwrap();

        assert_eq!(interrupted.diagnosis, control.diagnosis);
        assert_eq!(interrupted.alarms_total, control.alarms_total);
        assert_eq!(
            mgr.session_stats(&id).unwrap().facts,
            mgr2.session_stats(&id2).unwrap().facts,
            "detach/attach must not perturb the model"
        );
    }

    #[test]
    fn eviction_under_pressure_takes_the_lru_detached_session() {
        let mgr = manager(2, 64);
        let a = mgr.create(Some("a"), None).unwrap();
        let b = mgr.create(Some("b"), None).unwrap();
        mgr.detach(&a).unwrap();
        mgr.detach(&b).unwrap();
        // Touch b so a is the LRU detached session.
        mgr.attach(&b).unwrap();
        mgr.detach(&b).unwrap();
        let c = mgr.create(Some("c"), None).unwrap();
        assert_eq!(mgr.resident(), 2);
        assert!(mgr.diagnosis(&a).is_err(), "a was evicted");
        assert!(mgr.diagnosis(&b).is_ok());
        assert!(mgr.diagnosis(&c).is_ok());
        let s = mgr.stats();
        assert_eq!(s.evicted, 1);
        assert_eq!(s.rejected, 0);
        // Attaching the evicted id is an UnknownSession, not a panic.
        assert_eq!(
            mgr.attach(&a),
            Err(ManagerError::UnknownSession("a".to_owned()))
        );
    }

    #[test]
    fn admission_denied_when_every_resident_session_is_attached() {
        let mgr = manager(2, 64);
        mgr.create(Some("a"), None).unwrap();
        mgr.create(Some("b"), None).unwrap();
        match mgr.create(Some("c"), None) {
            Err(ManagerError::AdmissionDenied { resident, cap }) => {
                assert_eq!((resident, cap), (2, 2));
            }
            other => panic!("expected AdmissionDenied, got {other:?}"),
        }
        let s = mgr.stats();
        assert_eq!(s.rejected, 1);
        assert_eq!(s.resident, 2);
        // Detaching one makes the next create succeed by eviction.
        mgr.detach("a").unwrap();
        mgr.create(Some("c"), None).unwrap();
        assert_eq!(mgr.stats().evicted, 1);
    }

    #[test]
    fn overflowing_batch_gets_an_explicit_backpressure_reply() {
        let seq = alarms();
        let mgr = manager(8, 2);
        let id = mgr.create(None, None).unwrap();
        let r = mgr.push(&id, &seq).unwrap();
        assert_eq!(r.accepted, 2);
        assert_eq!(r.dropped, 1);
        assert_eq!(r.capacity, 2);
        assert_eq!(r.alarms_total, 2);
        // Retrying the remainder lands the session exactly where a
        // well-sized batch would have.
        let r2 = mgr.push(&id, &seq[r.accepted..]).unwrap();
        assert_eq!(r2.dropped, 0);
        assert_eq!(r2.alarms_total, 3);
        let control = manager(8, 64);
        let cid = control.create(None, None).unwrap();
        let rc = control.push(&cid, &seq).unwrap();
        assert_eq!(r2.diagnosis, rc.diagnosis);
        assert_eq!(mgr.stats().backpressure_replies, 1);
    }

    #[test]
    fn blown_budget_is_sticky_detached_and_carries_a_flight_dump() {
        let mut mgr = SessionManager::new(ManagerConfig {
            // Enough for figure1's create-time saturation (62 facts) but
            // not for three alarms' worth of unfolding (174).
            budget: EvalBudget {
                max_facts: 120,
                ..EvalBudget::default()
            },
            ..ManagerConfig::default()
        });
        mgr.register_net("figure1", figure1());
        let id = mgr.create(Some("tight"), None).unwrap();
        let err = mgr.push(&id, &alarms()).unwrap_err();
        let ManagerError::SessionFailed { reason, flight, .. } = err else {
            panic!("expected SessionFailed, got {err:?}");
        };
        assert!(reason.contains("budget"), "reason: {reason}");
        rescue_telemetry::json::parse(&flight).expect("flight dump is valid JSON");
        // Sticky: further pushes keep failing without touching the engine.
        assert!(matches!(
            mgr.push(&id, &alarms()),
            Err(ManagerError::SessionFailed { .. })
        ));
        let st = mgr.session_stats(&id).unwrap();
        assert!(st.failed.is_some());
        assert!(!st.attached, "failed sessions become evictable");
        assert_eq!(mgr.stats().failed, 1);
        assert!(!mgr.session_flight(&id).unwrap().is_empty());
        // Destroy clears it.
        mgr.destroy(&id).unwrap();
        assert!(mgr.session_stats(&id).is_err());
    }

    #[test]
    fn rollup_counts_survive_retirement() {
        let seq = alarms();
        let mgr = manager(8, 64);
        let id = mgr.create(None, None).unwrap();
        mgr.push(&id, &seq).unwrap();
        let live = mgr.stats().eval.rule_firings;
        assert!(live > 0);
        mgr.destroy(&id).unwrap();
        assert_eq!(
            mgr.stats().eval.rule_firings,
            live,
            "retired sessions keep their work in the rollup"
        );
        assert_eq!(mgr.stats().alarms_accepted, seq.len() as u64);
    }

    #[test]
    fn generated_ids_are_unique_and_stable() {
        let mgr = manager(8, 64);
        let a = mgr.create(None, None).unwrap();
        let b = mgr.create(None, None).unwrap();
        assert_ne!(a, b);
        assert!(mgr.create(Some(&a), None).is_err(), "duplicate id refused");
        assert!(mgr.create(None, Some("nope")).is_err(), "unknown net");
    }

    /// The sticky reply a panicked session must keep giving.
    fn assert_panicked(r: Result<PushReply, ManagerError>) {
        let Err(ManagerError::SessionFailed { reason, flight, .. }) = r else {
            panic!("expected SessionFailed, got {r:?}");
        };
        assert!(reason.starts_with("panic: "), "reason: {reason}");
        rescue_telemetry::json::parse(&flight).expect("flight dump is valid JSON");
    }

    #[test]
    fn a_poisoned_session_lock_fails_that_session_and_no_other() {
        let seq = alarms();
        let mgr = manager(8, 64);
        let sick = mgr.create(Some("sick"), None).unwrap();
        let well = mgr.create(Some("well"), None).unwrap();
        mgr.push(&sick, &seq[..1]).unwrap();
        // A thread dies holding the sick session's lock.
        let slot = mgr.registry().entry(&sick, false).unwrap().1;
        let died = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = slot.lock().unwrap();
                panic!("tenant bug");
            })
            .join()
        });
        assert!(died.is_err() && slot.is_poisoned());

        // The next caller turns the poison into the sticky failure ...
        assert_panicked(mgr.push(&sick, &seq[1..]));
        assert_panicked(mgr.push(&sick, &seq[1..]));
        let st = mgr.session_stats(&sick).unwrap();
        assert!(st.failed.is_some() && !st.attached, "failed and evictable");
        assert_eq!(st.alarms, 1, "the failed push never reached the engine");
        assert!(mgr.diagnosis(&sick).is_ok(), "reads still answer");
        // ... while the neighbour never notices,
        let control = manager(8, 64);
        let cid = control.create(None, None).unwrap();
        assert_eq!(
            mgr.push(&well, &seq).unwrap().diagnosis,
            control.push(&cid, &seq).unwrap().diagnosis
        );
        // and destroy clears the failed session like any other.
        mgr.destroy(&sick).unwrap();
        assert!(mgr.session_stats(&sick).is_err());
        let s = mgr.stats();
        assert_eq!((s.failed, s.destroyed, s.resident), (1, 1, 1));
        assert_eq!(s.alarms_accepted, 1 + seq.len() as u64);
    }

    #[test]
    fn a_panic_under_a_session_lock_is_contained_and_reported() {
        let seq = alarms();
        let mgr = manager(8, 64);
        let sick = mgr.create(Some("sick"), None).unwrap();
        let well = mgr.create(Some("well"), None).unwrap();
        let r: Result<(), _> = mgr.inspect(&sick, |_| panic!("tenant bug {}", 7));
        let Err(ManagerError::SessionFailed { reason, .. }) = r else {
            panic!("expected SessionFailed, got {r:?}");
        };
        assert_eq!(reason, "panic: tenant bug 7");
        // The lock was released cleanly: the failure is sticky, not a hang.
        assert_panicked(mgr.push(&sick, &seq));
        assert!(!mgr.session_flight(&sick).unwrap().is_empty());
        assert_eq!(mgr.push(&well, &seq).unwrap().alarms_total, seq.len());
        assert_eq!(mgr.stats().failed, 1);
    }

    #[test]
    fn a_template_lives_exactly_as_long_as_a_session_of_its_net() {
        let mut mgr = manager(8, 64);
        let collector = Collector::enabled();
        mgr.set_collector(collector.clone());
        mgr.create(Some("a"), None).unwrap();
        mgr.create(Some("b"), None).unwrap(); // a lives: reused
        mgr.destroy("a").unwrap();
        mgr.destroy("b").unwrap();
        assert!(mgr.nets[0].template.lock().unwrap().upgrade().is_none());
        mgr.create(Some("c"), None).unwrap(); // nothing resident: rebuilt
        let snap = collector.snapshot();
        let counts = |name: &str| snap.counter(&format!("manager.templates_{name}"));
        assert_eq!((counts("built"), counts("reused")), (2, 1));
        assert_eq!(snap.histogram("manager.create_latency_us").count, 3);
    }

    #[test]
    fn a_create_that_blows_its_budget_gives_the_reservation_back() {
        let mut mgr = SessionManager::new(ManagerConfig {
            // Below figure1's 62 zero-alarm facts.
            budget: EvalBudget {
                max_facts: 30,
                ..EvalBudget::default()
            },
            ..ManagerConfig::default()
        });
        mgr.register_net("figure1", figure1());
        for _ in 0..2 {
            let err = mgr.create(Some("tight"), None).unwrap_err();
            let ManagerError::SessionFailed { reason, .. } = err else {
                panic!("expected SessionFailed, got {err:?}");
            };
            assert!(reason.contains("budget"), "reason: {reason}");
            assert_eq!(mgr.resident(), 0);
        }
        // The second create failed the same way: nothing was cached.
        assert_eq!(mgr.stats().failed, 2);
    }

    #[test]
    fn lock_waits_are_recorded_as_histograms_when_tracing() {
        let mut mgr = manager(8, 64);
        let collector = Collector::enabled();
        mgr.set_collector(collector.clone());
        let id = mgr.create(None, None).unwrap();
        for a in &alarms() {
            mgr.push(&id, std::slice::from_ref(a)).unwrap();
        }
        let snap = collector.snapshot();
        assert_eq!(snap.histogram("manager.registry_wait_us").count, 3);
        assert!(snap.histogram("manager.session_wait_us").count >= 3);
    }
}
