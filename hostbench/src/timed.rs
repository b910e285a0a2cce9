//! Timing decorators for the traced run.
//!
//! Both forward every trait method — the defaulted ones too. A defaulted
//! method left unforwarded would still compile and run, but would answer
//! with the trait's default instead of the model's: `is_idle`'s default of
//! `true`, for instance, lets the event loop skip MuonTrap's pending
//! invalidations and silently changes the simulated result.

use std::cell::Cell;
use std::io;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use memsys::PageTable;
use ooo_core::memmodel::{DomainSwitch, MemAccessCtx, MemOutcome, MemoryModel};
use simkit::cycles::Cycle;
use simkit::stats::StatSet;
use simsys::store::backend::{ObjectMeta, StoreBackend};

use crate::trace;

/// The `MemoryModel` methods the decorator times, in metric order.
pub const MM_METHODS: [&str; 11] = [
    "load",
    "fetch_instruction",
    "commit_access",
    "commit_fetch",
    "store_address_ready",
    "tick",
    "is_idle",
    "next_event",
    "on_squash",
    "on_domain_switch",
    "set_page_table",
];

const LOAD: usize = 0;
const FETCH_INSTRUCTION: usize = 1;
const COMMIT_ACCESS: usize = 2;
const COMMIT_FETCH: usize = 3;
const STORE_ADDRESS_READY: usize = 4;
const TICK: usize = 5;
const IS_IDLE: usize = 6;
const NEXT_EVENT: usize = 7;
const ON_SQUASH: usize = 8;
const ON_DOMAIN_SWITCH: usize = 9;
const SET_PAGE_TABLE: usize = 10;

/// Per-method call counts and host time of one decorated model. `Cell`s,
/// because `is_idle` and `next_event` take `&self`.
#[derive(Debug, Default)]
pub struct MmCounters {
    calls: [Cell<u64>; 11],
    ns: [Cell<u64>; 11],
    load_retries: Cell<u64>,
}

impl MmCounters {
    /// Calls of `MM_METHODS[method]`.
    pub fn calls(&self, method: usize) -> u64 {
        self.calls[method].get()
    }

    /// Host nanoseconds inside `MM_METHODS[method]`.
    pub fn ns(&self, method: usize) -> u64 {
        self.ns[method].get()
    }

    /// Host nanoseconds inside every timed method.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().map(Cell::get).sum()
    }

    /// Loads answered `RetryWhenNonSpeculative`.
    pub fn load_retries(&self) -> u64 {
        self.load_retries.get()
    }

    fn record(&self, method: usize, started: Instant) {
        let ns = started.elapsed().as_nanos() as u64;
        self.calls[method].set(self.calls[method].get() + 1);
        self.ns[method].set(self.ns[method].get() + ns);
    }
}

/// Times every call into the wrapped memory model (the defense, and the
/// filter caches and hierarchy behind it).
pub struct TimedModel {
    inner: Box<dyn MemoryModel>,
    counters: Rc<MmCounters>,
}

impl TimedModel {
    /// Wraps `inner`; read the numbers through the returned counters.
    pub fn wrap(inner: Box<dyn MemoryModel>) -> (TimedModel, Rc<MmCounters>) {
        let counters = Rc::new(MmCounters::default());
        (
            TimedModel {
                inner,
                counters: Rc::clone(&counters),
            },
            counters,
        )
    }
}

impl MemoryModel for TimedModel {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn needs_taint_tracking(&self) -> bool {
        self.inner.needs_taint_tracking()
    }

    fn fetch_instruction(&mut self, ctx: &MemAccessCtx) -> MemOutcome {
        let started = Instant::now();
        let outcome = self.inner.fetch_instruction(ctx);
        self.counters.record(FETCH_INSTRUCTION, started);
        outcome
    }

    fn load(&mut self, ctx: &MemAccessCtx) -> MemOutcome {
        let started = Instant::now();
        let outcome = self.inner.load(ctx);
        self.counters.record(LOAD, started);
        if outcome == MemOutcome::RetryWhenNonSpeculative {
            self.counters
                .load_retries
                .set(self.counters.load_retries.get() + 1);
        }
        outcome
    }

    fn store_address_ready(&mut self, ctx: &MemAccessCtx) {
        let started = Instant::now();
        self.inner.store_address_ready(ctx);
        self.counters.record(STORE_ADDRESS_READY, started);
    }

    fn commit_access(&mut self, ctx: &MemAccessCtx) -> u64 {
        let started = Instant::now();
        let extra = self.inner.commit_access(ctx);
        self.counters.record(COMMIT_ACCESS, started);
        extra
    }

    fn on_squash(&mut self, core: usize, when: Cycle) {
        let started = Instant::now();
        self.inner.on_squash(core, when);
        self.counters.record(ON_SQUASH, started);
    }

    fn commit_fetch(&mut self, ctx: &MemAccessCtx) {
        let started = Instant::now();
        self.inner.commit_fetch(ctx);
        self.counters.record(COMMIT_FETCH, started);
    }

    fn set_page_table(&mut self, core: usize, table: PageTable) {
        let started = Instant::now();
        self.inner.set_page_table(core, table);
        self.counters.record(SET_PAGE_TABLE, started);
    }

    fn on_domain_switch(&mut self, core: usize, kind: DomainSwitch, when: Cycle) {
        let started = Instant::now();
        self.inner.on_domain_switch(core, kind, when);
        self.counters.record(ON_DOMAIN_SWITCH, started);
    }

    fn tick(&mut self, core: usize, now: Cycle) {
        let started = Instant::now();
        self.inner.tick(core, now);
        self.counters.record(TICK, started);
    }

    fn is_idle(&self, core: usize) -> bool {
        let started = Instant::now();
        let idle = self.inner.is_idle(core);
        self.counters.record(IS_IDLE, started);
        idle
    }

    fn next_event(&self, core: usize, now: Cycle) -> Cycle {
        let started = Instant::now();
        let next = self.inner.next_event(core, now);
        self.counters.record(NEXT_EVENT, started);
        next
    }

    fn stats(&self) -> StatSet {
        self.inner.stats()
    }
}

/// Store traffic seen by a [`TimedBackend`]. Atomics, because backends are
/// shared across threads.
#[derive(Debug, Default)]
pub struct StoreCounters {
    /// `read` calls.
    pub reads: AtomicU64,
    /// Host nanoseconds inside `read`.
    pub read_ns: AtomicU64,
    /// Bytes `read` returned.
    pub bytes_read: AtomicU64,
    /// `put_atomic` calls.
    pub puts: AtomicU64,
    /// Host nanoseconds inside `put_atomic`.
    pub put_ns: AtomicU64,
}

impl StoreCounters {
    /// Reads a counter (relaxed: plain statistics).
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

/// Times reads and writes of the wrapped store backend and records a span
/// for each; the other methods are forwarded untimed.
#[derive(Debug)]
pub struct TimedBackend {
    inner: Arc<dyn StoreBackend>,
    counters: Arc<StoreCounters>,
}

impl TimedBackend {
    /// Wraps `inner`; read the numbers through the returned counters.
    pub fn wrap(inner: Arc<dyn StoreBackend>) -> (TimedBackend, Arc<StoreCounters>) {
        let counters = Arc::new(StoreCounters::default());
        (
            TimedBackend {
                inner,
                counters: Arc::clone(&counters),
            },
            counters,
        )
    }
}

impl StoreBackend for TimedBackend {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        let started = Instant::now();
        let result = trace::span("store.read", || self.inner.read(name));
        let c = &self.counters;
        c.read_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        c.reads.fetch_add(1, Ordering::Relaxed);
        if let Ok(Some(bytes)) = &result {
            c.bytes_read
                .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        }
        result
    }

    fn put_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let started = Instant::now();
        let result = trace::span("store.put", || self.inner.put_atomic(name, bytes));
        let c = &self.counters;
        c.put_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        c.puts.fetch_add(1, Ordering::Relaxed);
        result
    }

    fn create_new(&self, name: &str, bytes: &[u8]) -> io::Result<bool> {
        self.inner.create_new(name, bytes)
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.inner.remove(name)
    }

    fn list(&self, prefix: &str) -> io::Result<Vec<ObjectMeta>> {
        self.inner.list(prefix)
    }

    fn sweep_temp(&self, grace: Duration) -> io::Result<()> {
        self.inner.sweep_temp(grace)
    }
}
