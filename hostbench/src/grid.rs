//! Figure plans, their seed permutation, and timed local execution.

use std::io::{self, Write};
use std::time::Instant;

use simkit::config::SystemConfig;
use simkit::fingerprint::Fingerprint;
use simkit::rng::SimRng;
use simsys::runner::{self, Plan, RunEvent, UnitKind};
use simsys::session::RunReport;
use simsys::store::ResultStore;
use workloads::Scale;

use crate::trace;

/// The seed at which every plan executes exactly as committed.
pub const DEFAULT_SEED: u64 = 0;

/// Builds the plan of figure `name` with one session worker, recording the
/// session construction (which generates the workload programs) and the
/// planning (which fingerprints every unit) as spans.
///
/// # Panics
/// Panics on a name `bench::figure_session` does not know.
pub fn plan(name: &str, scale: Scale, store: Option<&ResultStore>) -> Plan {
    let session = trace::span("workloads.gen", || {
        bench::figure_session(name, scale, &SystemConfig::paper_default(), 1, store)
            .unwrap_or_else(|| panic!("unknown figure {name}"))
    });
    trace::span("session.plan", || session.plan())
}

/// A plan whose units execute in a seed-chosen order.
#[derive(Debug, Clone)]
pub struct Permuted {
    /// The reordered plan; unit indices are renumbered to their new slots.
    pub plan: Plan,
    /// `cell_order[i]` is the committed index of the plan's `i`-th cell.
    cell_order: Vec<usize>,
}

impl Permuted {
    /// Shuffles the baselines and the cells of `plan` with `rng`; at
    /// [`DEFAULT_SEED`] (`rng == None`) the order stays as committed.
    pub fn new(mut plan: Plan, rng: Option<&mut SimRng>) -> Permuted {
        let mut cell_order: Vec<usize> = (0..plan.cells.len()).collect();
        if let Some(rng) = rng {
            rng.shuffle(&mut plan.baselines);
            let mut paired: Vec<_> = cell_order.into_iter().zip(plan.cells).collect();
            rng.shuffle(&mut paired);
            (cell_order, plan.cells) = paired.into_iter().unzip();
        }
        for (i, unit) in plan.baselines.iter_mut().enumerate() {
            unit.index = i;
        }
        for (i, unit) in plan.cells.iter_mut().enumerate() {
            unit.index = i;
        }
        Permuted { plan, cell_order }
    }

    /// Puts the cells of a report merged from this plan back into committed
    /// order.
    pub fn restore(&self, mut report: RunReport) -> RunReport {
        let mut slots: Vec<_> = report.cells.drain(..).map(Some).collect();
        let mut cells = vec![None; slots.len()];
        for (i, &committed) in self.cell_order.iter().enumerate() {
            cells[committed] = slots[i].take();
        }
        report.cells = cells
            .into_iter()
            .map(|c| c.expect("every cell restored"))
            .collect();
        report
    }
}

/// An event sink that keeps no bytes: it timestamps each flush, and the
/// runner flushes once per resolved unit.
#[derive(Debug, Default)]
pub struct StampSink {
    /// One instant per resolved unit, in resolution order.
    pub stamps: Vec<Instant>,
}

impl Write for StampSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stamps.push(Instant::now());
        Ok(())
    }
}

/// How one local execution of a permuted plan went.
#[derive(Debug)]
pub struct Execution {
    /// Host milliseconds each unit took to resolve, in resolution order.
    pub unit_ms: Vec<((UnitKind, Fingerprint), f64)>,
    /// Units the runner simulated instead of reading them back.
    pub simulated: usize,
    /// Units resolved (baselines and cells).
    pub units: usize,
}

/// Runs `permuted` through `runner::execute_local` (one worker) and
/// `runner::merge_events`, timing every unit by the instant its event lands.
/// Returns the merged report, cells in committed order, with a zero wall
/// clock so that pages rendered from it are the same on every run.
pub fn execute(permuted: &Permuted, store: Option<&ResultStore>) -> (RunReport, Execution) {
    let mut sink = StampSink::default();
    let started = Instant::now();
    let events = trace::span("runner.execute", || {
        runner::execute_local(&permuted.plan, store, false, 1, Some(&mut sink))
    });
    // One worker resolves the baselines, then the cells, each in plan order.
    let ids = permuted
        .plan
        .baselines
        .iter()
        .chain(&permuted.plan.cells)
        .map(|unit| (unit.kind, unit.fingerprint));
    assert_eq!(sink.stamps.len(), events.len(), "one event per unit");
    let mut previous = started;
    let unit_ms = ids
        .zip(&sink.stamps)
        .map(|(id, &stamp)| {
            let ms = stamp.duration_since(previous).as_secs_f64() * 1e3;
            previous = stamp;
            (id, ms)
        })
        .collect();
    let simulated = events
        .iter()
        .filter(|e| matches!(e, RunEvent::Completed { .. }))
        .count();
    let units = events.len();
    let report = trace::span("runner.merge", || {
        runner::merge_events(&permuted.plan, events, 0.0)
    })
    .expect("a local execution resolves every cell");
    (
        permuted.restore(report),
        Execution {
            unit_ms,
            simulated,
            units,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::json::ToJson;

    fn json(report: RunReport) -> String {
        report.to_json().to_string_compact()
    }

    #[test]
    fn a_permuted_order_gives_the_committed_report() {
        let plan = plan("domain", Scale::Tiny, None);
        let (committed, _) = execute(&Permuted::new(plan.clone(), None), None);
        let mut rng = SimRng::seed_from(7);
        let permuted = Permuted::new(plan.clone(), Some(&mut rng));
        let order: Vec<_> = permuted.plan.cells.iter().map(|u| u.fingerprint).collect();
        let original: Vec<_> = plan.cells.iter().map(|u| u.fingerprint).collect();
        assert_ne!(order, original, "seed 7 reorders the domain grid");
        let (report, shuffled) = execute(&permuted, None);
        assert_eq!(json(committed), json(report));
        assert_eq!(shuffled.unit_ms.len(), shuffled.units);
        assert_eq!(shuffled.simulated, shuffled.units);
    }
}
