//! The traced run must measure the simulator without changing it.
//!
//! * The traced path returns what `simulate()` returns, byte for byte, on
//!   a sample of units of each grid workload.
//! * Both decorators forward every trait method, the defaulted ones
//!   included. An unforwarded default would still run — but would answer
//!   with the trait's default (`is_idle` → `true`, `sweep_temp` → `Ok`), and
//!   the event loop or the store would change behaviour without any error.

use std::cell::RefCell;
use std::io;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use hostbench::timed::{StoreCounters, TimedBackend, TimedModel, MM_METHODS};
use hostbench::{grid, traced};
use memsys::PageTable;
use ooo_core::memmodel::{DomainSwitch, MemAccessCtx, MemOutcome, MemoryModel};
use simkit::addr::VirtAddr;
use simkit::cycles::Cycle;
use simkit::json::ToJson;
use simkit::stats::StatSet;
use simsys::store::backend::{ObjectMeta, StoreBackend};
use workloads::Scale;

#[test]
fn traced_path_matches_simulate_on_sampled_units() {
    for figure in ["fig3", "domain", "fig5"] {
        let plan = grid::plan(figure, Scale::Small, None);
        let last = plan.cells.len() - 1;
        let sample = [
            &plan.baselines[0],
            &plan.cells[0],
            &plan.cells[last / 2],
            &plan.cells[last],
        ];
        for unit in sample {
            let traced = traced::simulate(&unit.workload, unit.defense, &unit.config);
            let plain = simsys::session::simulate(&unit.workload, unit.defense, &unit.config);
            assert_eq!(
                traced.result.to_json().to_string_compact(),
                plain.to_json().to_string_compact(),
                "{figure}: {} under {}",
                unit.workload.name,
                unit.defense.label()
            );
            assert!(traced.ticks > 0 && traced.allocs > 0);
        }
    }
}

/// Answers every method with a value no default would give, and logs calls.
struct ProbeModel {
    calls: Rc<RefCell<Vec<&'static str>>>,
}

impl ProbeModel {
    fn log(&self, method: &'static str) {
        self.calls.borrow_mut().push(method);
    }
}

impl MemoryModel for ProbeModel {
    fn name(&self) -> &str {
        self.log("name");
        "probe"
    }
    fn needs_taint_tracking(&self) -> bool {
        self.log("needs_taint_tracking");
        true
    }
    fn fetch_instruction(&mut self, _ctx: &MemAccessCtx) -> MemOutcome {
        self.log("fetch_instruction");
        MemOutcome::Done { latency: 11 }
    }
    fn load(&mut self, _ctx: &MemAccessCtx) -> MemOutcome {
        self.log("load");
        MemOutcome::RetryWhenNonSpeculative
    }
    fn store_address_ready(&mut self, _ctx: &MemAccessCtx) {
        self.log("store_address_ready");
    }
    fn commit_access(&mut self, _ctx: &MemAccessCtx) -> u64 {
        self.log("commit_access");
        7
    }
    fn on_squash(&mut self, _core: usize, _when: Cycle) {
        self.log("on_squash");
    }
    fn commit_fetch(&mut self, _ctx: &MemAccessCtx) {
        self.log("commit_fetch");
    }
    fn set_page_table(&mut self, _core: usize, _table: PageTable) {
        self.log("set_page_table");
    }
    fn on_domain_switch(&mut self, _core: usize, _kind: DomainSwitch, _when: Cycle) {
        self.log("on_domain_switch");
    }
    fn tick(&mut self, _core: usize, _now: Cycle) {
        self.log("tick");
    }
    fn is_idle(&self, _core: usize) -> bool {
        self.log("is_idle");
        false
    }
    fn next_event(&self, _core: usize, _now: Cycle) -> Cycle {
        self.log("next_event");
        Cycle::new(1234)
    }
    fn stats(&self) -> StatSet {
        self.log("stats");
        let mut stats = StatSet::new();
        stats.add("probe.answers", 1);
        stats
    }
}

#[test]
fn timed_model_forwards_every_method() {
    let calls = Rc::new(RefCell::new(Vec::new()));
    let (mut model, counters) = TimedModel::wrap(Box::new(ProbeModel {
        calls: Rc::clone(&calls),
    }));
    let ctx = MemAccessCtx::simple(
        0,
        VirtAddr::new(0x1000),
        VirtAddr::new(0x400),
        Cycle::ZERO,
        false,
    );
    assert_eq!(model.name(), "probe");
    assert!(model.needs_taint_tracking());
    assert_eq!(
        model.fetch_instruction(&ctx),
        MemOutcome::Done { latency: 11 }
    );
    assert_eq!(model.load(&ctx), MemOutcome::RetryWhenNonSpeculative);
    model.store_address_ready(&ctx);
    assert_eq!(model.commit_access(&ctx), 7);
    model.on_squash(0, Cycle::ZERO);
    model.commit_fetch(&ctx);
    model.set_page_table(0, PageTable::new(4096, 0));
    model.on_domain_switch(0, DomainSwitch::Syscall, Cycle::ZERO);
    model.tick(0, Cycle::ZERO);
    assert!(!model.is_idle(0));
    assert_eq!(model.next_event(0, Cycle::ZERO), Cycle::new(1234));
    assert_eq!(model.stats().counter("probe.answers"), 1);

    let mut seen = calls.borrow().clone();
    seen.sort_unstable();
    let mut expected: Vec<&str> = MM_METHODS.to_vec();
    expected.extend(["name", "needs_taint_tracking", "stats"]);
    expected.sort_unstable();
    assert_eq!(seen, expected, "each method reached the model exactly once");
    for (m, method) in MM_METHODS.iter().enumerate() {
        assert_eq!(counters.calls(m), 1, "{method} counted once");
    }
    assert_eq!(counters.load_retries(), 1);
}

/// A store backend that logs calls and answers unlike any default.
#[derive(Debug, Default)]
struct ProbeBackend {
    calls: Mutex<Vec<&'static str>>,
}

impl ProbeBackend {
    fn log(&self, method: &'static str) {
        self.calls.lock().expect("probe log lock").push(method);
    }
}

impl StoreBackend for ProbeBackend {
    fn label(&self) -> String {
        self.log("label");
        "probe".into()
    }
    fn read(&self, _name: &str) -> io::Result<Option<Vec<u8>>> {
        self.log("read");
        Ok(Some(b"abc".to_vec()))
    }
    fn put_atomic(&self, _name: &str, _bytes: &[u8]) -> io::Result<()> {
        self.log("put_atomic");
        Ok(())
    }
    fn create_new(&self, _name: &str, _bytes: &[u8]) -> io::Result<bool> {
        self.log("create_new");
        Ok(false)
    }
    fn remove(&self, _name: &str) -> io::Result<()> {
        self.log("remove");
        Ok(())
    }
    fn list(&self, _prefix: &str) -> io::Result<Vec<ObjectMeta>> {
        self.log("list");
        Ok(vec![ObjectMeta {
            name: "x".into(),
            len: 3,
            modified_unix_ms: 9,
        }])
    }
    fn sweep_temp(&self, _grace: Duration) -> io::Result<()> {
        self.log("sweep_temp");
        Err(io::Error::other("probe sweep"))
    }
}

#[test]
fn timed_backend_forwards_every_method() {
    let probe = Arc::new(ProbeBackend::default());
    let (backend, counters) = TimedBackend::wrap(Arc::clone(&probe) as Arc<dyn StoreBackend>);
    assert_eq!(backend.label(), "probe");
    assert_eq!(backend.read("a").unwrap(), Some(b"abc".to_vec()));
    backend.put_atomic("a", b"xyz").unwrap();
    assert!(!backend.create_new("a", b"xyz").unwrap());
    backend.remove("a").unwrap();
    assert_eq!(backend.list("").unwrap().len(), 1);
    assert!(
        backend.sweep_temp(Duration::ZERO).is_err(),
        "sweep_temp reaches the backend"
    );

    let mut seen = probe.calls.lock().unwrap().clone();
    seen.sort_unstable();
    let mut expected = vec![
        "label",
        "read",
        "put_atomic",
        "create_new",
        "remove",
        "list",
        "sweep_temp",
    ];
    expected.sort_unstable();
    assert_eq!(
        seen, expected,
        "each method reached the backend exactly once"
    );
    assert_eq!(StoreCounters::get(&counters.reads), 1);
    assert_eq!(StoreCounters::get(&counters.bytes_read), 3);
    assert_eq!(StoreCounters::get(&counters.puts), 1);
}
