//! Every call the benchmark makes *below* the façades, one thin function
//! per layer. The timed runs never come here (they call `diagnose_qsq`,
//! `diagnose_dqsq`, `DiagnosisSession`, `rescue_server::spawn` and wire
//! text only); input generation and the traced run do. A PR that changes
//! one of the public functions used in this file changes the ruler, and
//! triggers a follow-up benchmark issue (README.md, "Pinned surface").

use rescue::datalog::{
    seminaive_opts, Database, EvalBudget, EvalOptions, EvalStats, Program, Rule, Subst, TermId,
    TermStore,
};
use rescue::diagnosis::{
    diagnose_baseline, diagnosis_program, extract_diagnosis, BaselineStats, Diagnosis,
    DiagnosisProgram, ManagerConfig, PushReply, SessionManager,
};
use rescue::dqsq::{run_distributed, run_distributed_threaded, DistOptions, DistRun};
use rescue::petri::{
    figure1, print_net, random_net, random_run, NetConfig, PetriNet, UnfoldLimits, Unfolding,
};
use rescue::qsq::{filter_answers, rewrite, rewrite_with, split_edb_facts, RewriteOutput};
use rescue::{Alarm, AlarmSeq, DiagnosisSession};
use rescue_server::wire;

/// Supervisor peer of every batch façade (`PipelineOptions::default()`).
pub const SUPERVISOR: &str = "supervisor";

// ---- petri ---------------------------------------------------------------

pub fn petri_net(cfg: &NetConfig) -> PetriNet {
    random_net(cfg)
}

pub fn petri_figure1() -> PetriNet {
    figure1()
}

pub fn petri_run(net: &PetriNet, seed: u64, len: usize) -> AlarmSeq {
    let run = random_run(net, seed, len).expect("random_run fires only enabled transitions");
    AlarmSeq::from_run(net, &run)
}

pub fn petri_text(net: &PetriNet) -> String {
    print_net(net)
}

pub fn petri_unfolding_events(net: &PetriNet, depth: u32) -> usize {
    Unfolding::build(net, &UnfoldLimits::depth(depth)).num_events()
}

// ---- baseline ------------------------------------------------------------

pub fn baseline(net: &PetriNet, alarms: &AlarmSeq) -> (Diagnosis, BaselineStats) {
    diagnose_baseline(net, alarms)
}

// ---- encode --------------------------------------------------------------

pub fn encode(net: &PetriNet, alarms: &AlarmSeq, store: &mut TermStore) -> DiagnosisProgram {
    diagnosis_program(net, alarms, SUPERVISOR, store)
}

// ---- qsq -----------------------------------------------------------------

/// A rewritten diagnosis program ready to evaluate: the rules, the
/// extensional facts lifted out of it, and where to read the answers.
pub struct Rewritten {
    pub rw: RewriteOutput,
    pub edb: rescue::qsq::eval::EdbFacts,
}

/// The centralized rewriting of `diagnose_qsq`.
pub fn qsq_rewrite(dp: &DiagnosisProgram, store: &mut TermStore) -> Rewritten {
    let (rules, edb) = split_edb_facts(&dp.program);
    let rw = rewrite(&rules, &dp.query, store).expect("the diagnosis program rewrites");
    Rewritten { rw, edb }
}

/// The placement-aware rewriting of `diagnose_dqsq`.
pub fn dqsq_rewrite(dp: &DiagnosisProgram, store: &mut TermStore) -> Rewritten {
    let (rules, edb) = split_edb_facts(&dp.program);
    let rw = rewrite_with(
        &rules,
        &dp.query,
        store,
        rescue::qsq::SupPlacement::AtomPeer,
    )
    .expect("the diagnosis program rewrites");
    Rewritten { rw, edb }
}

// ---- datalog -------------------------------------------------------------

/// Seed the database and run the fixpoint over the rewritten program.
pub fn datalog_eval(r: &Rewritten, store: &mut TermStore, db: &mut Database) -> EvalStats {
    for (pred, row) in &r.edb {
        db.insert(*pred, row.clone());
    }
    db.insert(r.rw.seed_pred, r.rw.seed_row.clone());
    seminaive_opts(
        &r.rw.program,
        store,
        db,
        &EvalBudget::default(),
        &EvalOptions::default(),
    )
    .expect("Proposition 1: the rewritten program terminates")
}

// ---- extract -------------------------------------------------------------

pub fn extract(r: &Rewritten, store: &TermStore, db: &Database) -> Diagnosis {
    extract_diagnosis(&filter_answers(db, store, &r.rw.answer_atom), store)
}

pub fn extract_rows(rows: &[Vec<TermId>], store: &TermStore) -> Diagnosis {
    extract_diagnosis(rows, store)
}

// ---- dqsq / net ----------------------------------------------------------

/// The program the peers run: rewritten rules, extensional facts at their
/// sites, and the `in-Q` seed at the query's site.
pub fn dqsq_program(r: &Rewritten) -> Program {
    let mut dist = r.rw.program.clone();
    for (pred, row) in &r.edb {
        dist.push(Rule::fact(rescue::datalog::Atom::new(*pred, row.to_vec())));
    }
    dist.push(Rule::fact(rescue::datalog::Atom::new(
        r.rw.seed_pred,
        r.rw.seed_row.to_vec(),
    )));
    dist
}

pub fn dqsq_run(dist: &Program, store: &TermStore) -> DistRun {
    run_distributed(dist, store, &DistOptions::default()).expect("the distributed run converges")
}

pub fn dqsq_run_threaded(dist: &Program, store: &TermStore) -> DistRun {
    run_distributed_threaded(dist, store, EvalBudget::default())
        .expect("the threaded distributed run converges")
}

/// Import the answers from the query relation's owner.
pub fn dqsq_collect(run: &DistRun, r: &Rewritten, store: &mut TermStore) -> Vec<Vec<TermId>> {
    let name = store.sym_str(r.rw.answer_pred.name).to_owned();
    let peer = store.sym_str(r.rw.answer_pred.peer.0).to_owned();
    let mut answers = Vec::new();
    for row in run.facts_of(&name, &peer) {
        let ids: Vec<TermId> = row.iter().map(|t| store.import(t)).collect();
        let mut s = Subst::new();
        if ids
            .iter()
            .zip(r.rw.answer_atom.args.iter())
            .all(|(&g, &p)| store.match_term(p, g, &mut s))
        {
            answers.push(ids);
        }
    }
    answers
}

pub fn dqsq_tuples_sent(run: &DistRun) -> u64 {
    run.peers.iter().map(|p| p.tuples_sent()).sum()
}

// ---- session -------------------------------------------------------------

pub fn session_create(net: &PetriNet) -> DiagnosisSession {
    DiagnosisSession::new(net, SUPERVISOR).expect("the initial saturation fits the budget")
}

pub fn session_push(s: &mut DiagnosisSession, alarm: &Alarm) -> Diagnosis {
    s.push_alarm(alarm).expect("the resume fits the budget")
}

pub fn session_diagnosis(s: &DiagnosisSession) -> Diagnosis {
    s.diagnosis()
}

/// (facts in the model, engine counters over every resume).
pub fn session_totals(s: &DiagnosisSession) -> (usize, EvalStats) {
    (s.database().total_facts(), s.total_stats())
}

// ---- manager -------------------------------------------------------------

pub fn manager_new(nets: &[(String, PetriNet)]) -> SessionManager {
    let mut m = SessionManager::new(ManagerConfig::default());
    for (name, net) in nets {
        m.register_net(name, net.clone());
    }
    m
}

pub fn manager_create(m: &mut SessionManager, id: &str, net: &str) {
    m.create(Some(id), Some(net)).expect("create is admitted");
}

pub fn manager_push(m: &mut SessionManager, id: &str, alarm: &Alarm) -> PushReply {
    m.push(id, std::slice::from_ref(alarm))
        .expect("the push is accepted")
}

pub fn manager_destroy(m: &mut SessionManager, id: &str) {
    m.destroy(id).expect("the session exists");
}

// ---- wire ----------------------------------------------------------------

pub fn wire_parse(line: &str) -> wire::Request {
    wire::parse_request(line).expect("recorded request lines parse")
}

/// Render a push reply with the server's public writer (`Obj` +
/// `diagnosis_json`), field for field like its `push` summary line.
pub fn wire_render(id: &str, r: &PushReply) -> String {
    wire::ok("push")
        .str("session", id)
        .num("accepted", r.accepted as u64)
        .num("dropped", r.dropped as u64)
        .num("capacity", r.capacity as u64)
        .num("alarms", r.alarms_total as u64)
        .num("explanations", r.diagnosis.len() as u64)
        .raw("diagnosis", &wire::diagnosis_json(&r.diagnosis))
        .finish()
}

/// The canonical JSON of a diagnosis, as replies embed it.
pub fn wire_diagnosis(d: &Diagnosis) -> String {
    wire::diagnosis_json(d)
}

// ---- engine default ------------------------------------------------------

/// Evaluation threads every façade uses by default.
pub fn eval_threads() -> usize {
    rescue::datalog::default_threads()
}
