//! Full-system assembly: processes, scheduling, the experiment session and
//! the persistent result store.
//!
//! This crate plays the role gem5's full-system mode plus the run scripts play
//! in the paper: it owns the cores, the (defended) memory model, the software
//! threads and the OS-lite behaviour that MuonTrap's protection hinges on —
//! protection-domain switches. It exposes three layers:
//!
//! * [`system::System`] — a multicore machine onto which processes and their
//!   threads are loaded, scheduled round-robin with a time quantum, and run to
//!   completion. Syscalls, sandbox markers and context switches are forwarded
//!   to the memory model as [`ooo_core::DomainSwitch`] events so every defense
//!   sees exactly the same OS behaviour.
//! * [`session`] — the measurement harness behind the `figure` binary and
//!   the timing harnesses: declare a (workloads × defenses) grid on an
//!   [`session::ExperimentSession`], run it in parallel with shared
//!   `Unprotected` baselines, and get a JSON-serialisable
//!   [`session::RunReport`] back.
//! * [`store`] — a content-addressed, on-disk store of raw simulation
//!   results, keyed by a fingerprint of (workload, defense, machine,
//!   simulator version). Attached to a session via
//!   [`session::ExperimentSession::with_store`], it makes re-running an
//!   unchanged grid free: every cell is a cache hit and zero simulations
//!   execute.
//! * [`runner`] — the sharded, work-stealing execution subsystem: a session
//!   is *planned* into fingerprint-keyed [`runner::WorkUnit`]s, units are
//!   *claimed* through expiring lease files under the store directory (so
//!   any number of processes cooperate on one grid and crashed shards'
//!   work is stolen), results *stream* as JSONL [`runner::RunEvent`]s, and
//!   [`runner::merge_events`] folds any set of event logs back into the
//!   deterministic [`session::RunReport`]. `ExperimentSession::run` itself
//!   is the single-process instantiation of this pipeline.
//!
//! The original free-function experiment harness (`simsys::experiment`) has
//! been removed; [`session::ExperimentSession`] and the raw
//! [`session::simulate`] primitive replace it.

#![forbid(unsafe_code)]

pub mod runner;
pub mod session;
pub mod store;
pub mod system;

pub use runner::{
    merge_events, merge_events_lenient, Plan, RunEvent, ShardOptions, ShardSummary, UnitKind,
    WorkUnit,
};
pub use session::{CellResult, ExperimentResult, ExperimentSession, RunReport};
pub use store::ResultStore;
pub use system::{System, SystemReport};
