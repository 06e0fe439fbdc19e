//! # rescue-diagnosis
//!
//! The paper's application: diagnosis of asynchronous discrete event
//! systems, four ways —
//!
//! * [`direct`] — a brute-force oracle implementing the §2 definition
//!   literally (small inputs only; certifies everything else);
//! * [`baseline`] — the dedicated incremental diagnoser of Benveniste,
//!   Fabre, Haar & Jard \[8\] (§4.3), with materialization accounting;
//! * [`encode`] + [`extensions`] — the §4.1 unfolding encoding and the one
//!   supervisor encoding (the §4.2 alarm sequence is its chain-automaton
//!   case), whose evaluation by any of the engines (semi-naive / QSQ /
//!   dQSQ) solves the same problem declaratively; [`supervisor`]
//!   reads the answer;
//! * [`pipeline`] — drivers running the Datalog route end to end and
//!   reporting the Theorem 3 / Theorem 4 comparisons.
//!
//! [`alarm`] holds the alarm-sequence machinery; [`extensions`] also states
//! the §4.4 problem (hidden transitions, alarm patterns).

pub mod alarm;
pub mod baseline;
pub mod direct;
pub mod encode;
pub mod extensions;
pub mod manager;
pub mod pipeline;
pub mod session;
pub mod supervisor;

pub use alarm::{Alarm, AlarmSeq};
pub use baseline::{diagnose_baseline, BaselineStats};
pub use direct::{diagnose_oracle, Diagnosis};
pub use encode::{petri_facts, unfolding_program, EncodeOptions};
pub use extensions::{
    complete_with_empty, diagnose_extended_reference, extended_program, Automaton, ExtendedSpec,
};
pub use manager::{
    ManagerConfig, ManagerError, ManagerStats, PushReply, SessionManager, SessionStats,
};
pub use pipeline::{
    diagnose_dqsq, diagnose_magic, diagnose_qsq, diagnose_seminaive, EngineReport, PipelineOptions,
};
pub use session::DiagnosisSession;
pub use supervisor::{
    diagnosis_program, explain_answer, extract_diagnosis, extract_from_db, DiagnosisProgram,
};
