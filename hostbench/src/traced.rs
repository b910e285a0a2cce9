//! The traced simulation path.
//!
//! `simsys::session::simulate` builds its memory model internally, so the
//! traced run drives the same public steps itself — `DefenseKind::build`,
//! then `System::{new,load_workload,run}` — with a [`TimedModel`] around the
//! built model, a span at each step, and the allocation counter on around
//! `System::run`. The result is the same `ExperimentResult` `simulate`
//! returns, bit for bit (the benchmark's tests check it).

use std::rc::Rc;

use defenses::DefenseKind;
use simkit::config::SystemConfig;
use simsys::session::ExperimentResult;
use simsys::system::System;
use workloads::Workload;

use crate::alloc::count_allocations;
use crate::timed::{MmCounters, TimedModel};
use crate::trace;

/// One simulation run by the traced path.
#[derive(Debug)]
pub struct TracedUnit {
    /// What `simulate` would have returned.
    pub result: ExperimentResult,
    /// Per-core pipeline ticks performed (`System::events_processed`).
    pub ticks: u64,
    /// Heap allocations during `System::run`.
    pub allocs: u64,
    /// Per-method memory-model counters.
    pub mm: Rc<MmCounters>,
}

/// Simulates `workload` under `kind` on `config`, traced.
pub fn simulate(workload: &Workload, kind: DefenseKind, config: &SystemConfig) -> TracedUnit {
    let (model, mm) = trace::span("defenses.build", || TimedModel::wrap(kind.build(config)));
    let mut system = trace::span("system.load", || {
        let mut system = System::new(config, Box::new(model));
        system.load_workload(&workload.thread_programs, workload.shared_memory);
        system
    });
    let (report, allocs) = trace::span("system.run", || {
        count_allocations(|| system.run(workload.cycle_budget))
    });
    TracedUnit {
        result: ExperimentResult {
            workload: workload.name.clone(),
            defense: kind.label().to_string(),
            cycles: report.cycles,
            committed: report.committed,
            completed: report.completed,
            stats: report.stats,
        },
        ticks: system.events_processed(),
        allocs,
        mm,
    }
}
