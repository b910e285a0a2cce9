//! The out-of-order pipeline.
//!
//! [`OooCore`] is an execute-at-issue out-of-order timing model. Instructions
//! are fetched along the predicted path, dispatched into a reorder buffer,
//! executed once their operands are available and a functional unit is free,
//! and retired in program order. Wrong-path instructions genuinely execute —
//! including their memory accesses, which go through the pluggable
//! [`MemoryModel`] — and are squashed when the mispredicted branch resolves.
//! Stores update functional memory only at commit, so architectural state is
//! always correct; the speculative damage the paper studies is confined to the
//! cache side, exactly as on real hardware.
//!
//! # The hot loop
//!
//! [`tick`](OooCore::tick) is the innermost loop of every experiment, so it is
//! written to be allocation-free and to avoid re-deriving anything a cheap
//! incremental structure can carry (see ARCHITECTURE.md § "The hot path"):
//!
//! * committed events go into a **caller-provided buffer** instead of a fresh
//!   `Vec` per cycle;
//! * each ROB entry records **dispatch-time producer links** (the sequence
//!   number of the in-flight producer of each source register, captured from a
//!   register scoreboard), so operand lookup is O(1) instead of a backward
//!   ROB scan;
//! * a **done-prefix counter** tracks how many entries at the head are
//!   finished, so commit-readiness and the `rdcycle` "all older done" gate are
//!   O(1);
//! * **in-flight load/store counters** and ordered sequence queues of stores
//!   and unresolved branches replace the per-cycle `rob.iter().filter()`
//!   scans of the fetch, disambiguation and speculation-visibility paths;
//! * issue is **wakeup/select**: bitsets of waiting, ready, parked and
//!   serialising entries plus producer→consumer and store→load wakeup lists
//!   (`IssueSelect`) let the issue stage visit only its candidates instead
//!   of every ROB entry;
//! * a tick that did no work reports itself [`quiescent`](OooCore::quiescent)
//!   and can name the [`next_wake`](OooCore::next_wake) cycle, which lets the
//!   driving loop **fast-forward over idle cycles** (crediting them via
//!   [`skip_idle_cycles`](OooCore::skip_idle_cycles)) with bit-identical
//!   statistics — see `tests/hotpath_golden.rs` for the equivalence proof.

use std::collections::VecDeque;
use std::sync::OnceLock;

use simkit::addr::VirtAddr;
use simkit::config::{PipelineConfig, SystemConfig};
use simkit::cycles::Cycle;
use simkit::stats::StatSet;
use simkit::timeq::EventQueue;

use uarch_isa::inst::{eval_alu, eval_branch, eval_fpu, InstClass, Instruction, MemWidth};
use uarch_isa::prog::INST_BYTES;
use uarch_isa::reg::{Reg, NUM_REGS};

use crate::branch::{BranchPredictor, BranchUpdate};
use crate::context::ThreadContext;
use crate::events::CoreEvent;
use crate::memmodel::{MemAccessCtx, MemOutcome, MemoryModel};

/// Whether `MUONTRAP_NAIVE_LOOP` asks for the naive one-tick-per-cycle loop
/// (no idle-cycle fast-forward). Read once per process; the result is cached.
/// The simulated behaviour is bit-identical either way — the switch exists so
/// the `perf` binary can measure the speedup and tests can cross-check.
pub fn naive_loop_requested() -> bool {
    static NAIVE: OnceLock<bool> = OnceLock::new();
    *NAIVE.get_or_init(|| std::env::var_os("MUONTRAP_NAIVE_LOOP").is_some_and(|v| v != "0"))
}

/// Sentinel for "no in-flight producer: read the architectural register".
const NO_PRODUCER: u64 = u64::MAX;

/// Execution status of a reorder-buffer entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Dispatched, waiting for operands or a functional unit.
    Waiting,
    /// Executing; the result is available at the contained cycle.
    Executing(Cycle),
    /// A memory access the memory model asked to retry once
    /// non-speculative: the issue stage re-polls it every cycle.
    Parked,
    /// Finished executing.
    Done,
}

/// What one [`OooCore::try_issue_at`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Attempt {
    /// The entry started (or finished) executing, or a parked entry
    /// re-polled the memory model.
    Issued,
    /// Nothing changed; the entry may succeed on a later cycle.
    Refused,
    /// An atomic or serialising entry past the ROB head: nothing changed,
    /// and nothing will until it heads the ROB.
    AwaitHead,
    /// A load behind the older store with this sequence number, whose
    /// address is still unknown: nothing changed, and nothing will until
    /// that store computes its address.
    AwaitStore(u64),
}

/// One reorder-buffer entry.
#[derive(Debug, Clone)]
struct RobEntry {
    seq: u64,
    pc: usize,
    inst: Instruction,
    status: Status,
    result: Option<u64>,
    /// Sequence numbers of the youngest older producer of each source
    /// register, captured from the scoreboard at dispatch ([`NO_PRODUCER`]
    /// means the architectural register file). In-order commit guarantees the
    /// link stays correct for the entry's whole life: the linked producer
    /// either still sits in the ROB or has committed its result to the
    /// register file, and a squash that removes a producer removes every
    /// (younger) consumer with it.
    src_producers: [u64; 2],
    /// Computed virtual address for memory operations.
    mem_addr: Option<VirtAddr>,
    /// Value to be stored (for stores/atomics), captured at execute.
    store_data: Option<u64>,
    /// Fetch-time prediction: the instruction index fetched after this one.
    predicted_next: usize,
    /// Resolved actual next PC (valid once `Done` for control flow).
    actual_next: usize,
}

impl RobEntry {
    fn is_done(&self) -> bool {
        matches!(self.status, Status::Done)
    }

    fn is_memory(&self) -> bool {
        self.inst.class().is_memory()
    }

    fn is_load(&self) -> bool {
        matches!(self.inst.class(), InstClass::Load | InstClass::Atomic)
    }

    fn is_store(&self) -> bool {
        matches!(self.inst.class(), InstClass::Store | InstClass::Atomic)
    }

    fn is_branch(&self) -> bool {
        self.inst.class().is_control()
    }
}

/// End of an intrusive list (a consumer or a store-waiter list).
const NIL: u32 = u32::MAX;

/// A bitset over the issue-select ring slots.
#[derive(Debug, Clone)]
struct SlotBits(Box<[u64]>);

impl SlotBits {
    fn new(slots: usize) -> Self {
        SlotBits(vec![0; slots / 64].into_boxed_slice())
    }

    fn insert(&mut self, slot: usize) {
        self.0[slot / 64] |= 1 << (slot % 64);
    }

    fn remove(&mut self, slot: usize) {
        self.0[slot / 64] &= !(1 << (slot % 64));
    }

    fn contains(&self, slot: usize) -> bool {
        self.0[slot / 64] >> (slot % 64) & 1 != 0
    }
}

/// The `n`-th (0-based) sequence number in `from..end`, in sequence order,
/// whose ring slot (`seq & mask`) is set in the bitset whose word `w` is
/// `word(w)`. `end - from` must not exceed the ring size (`mask + 1`, a
/// multiple of 64, so the ring wraps at a word boundary).
fn nth_set(
    mask: u64,
    from: u64,
    end: u64,
    mut n: usize,
    word: impl Fn(usize) -> u64,
) -> Option<u64> {
    let mut seq = from;
    while seq < end {
        let slot = (seq & mask) as usize;
        let offset = slot % 64;
        let span = (64 - offset as u64).min(end - seq);
        let mut bits = word(slot / 64) >> offset;
        if span < 64 {
            bits &= (1 << span) - 1;
        }
        let ones = bits.count_ones() as usize;
        if n < ones {
            for _ in 0..n {
                bits &= bits - 1;
            }
            return Some(seq + u64::from(bits.trailing_zeros()));
        }
        n -= ones;
        seq += span;
    }
    None
}

/// Wakeup/select state of the issue stage: which ROB entries are issue
/// candidates, maintained incrementally so that selecting costs
/// O(candidates) per tick instead of a walk over the whole ROB.
///
/// An entry lives in ring slot `seq & mask`. The ROB is contiguous in
/// sequence numbers and never longer than the ring, so live entries never
/// share a slot. Invariants (checked after every tick in the unit tests):
///
/// * `waiting` holds exactly the `Status::Waiting` entries;
/// * `pending` of a Waiting entry counts its source operands whose linked
///   producer is in flight and not yet `Done`; every other slot holds 0;
/// * `ready` holds the Waiting entries with nothing left to wait for: no
///   pending operand, and no known refusal that only a later event lifts.
///   Those refused entries sit in `head_wait` (an atomic past the head,
///   until it heads the ROB) or on the `store_waiters` list of the older
///   store whose unknown address stopped a load;
/// * `parked` holds exactly the `Status::Parked` entries;
/// * `barrier` holds the unfinished serialising entries;
/// * the consumer list of an unfinished producer holds one node per pending
///   (consumer, source operand) link on it, youngest consumer first; every
///   other list is empty.
#[derive(Debug, Clone)]
struct IssueSelect {
    mask: u64,
    waiting: SlotBits,
    ready: SlotBits,
    parked: SlotBits,
    barrier: SlotBits,
    head_wait: SlotBits,
    pending: Box<[u8]>,
    /// Per producer slot, the first node of its consumer list ([`NIL`] when
    /// empty). Node `consumer_slot * 2 + source` stands for the consumer's
    /// link through source operand `source`, so the lists never allocate.
    consumers: Box<[u32]>,
    /// Per store slot, the first node of the list of loads waiting for the
    /// store's address. A waiting load has no pending operand, so its
    /// source-0 node (`load_slot * 2`) is free to stand for it.
    store_waiters: Box<[u32]>,
    /// Per node, the next node of its list.
    next_node: Box<[u32]>,
}

impl IssueSelect {
    fn new(rob_entries: usize) -> Self {
        let slots = rob_entries.next_power_of_two().max(64);
        IssueSelect {
            mask: slots as u64 - 1,
            waiting: SlotBits::new(slots),
            ready: SlotBits::new(slots),
            parked: SlotBits::new(slots),
            barrier: SlotBits::new(slots),
            head_wait: SlotBits::new(slots),
            pending: vec![0; slots].into_boxed_slice(),
            consumers: vec![NIL; slots].into_boxed_slice(),
            store_waiters: vec![NIL; slots].into_boxed_slice(),
            next_node: vec![NIL; slots * 2].into_boxed_slice(),
        }
    }

    fn slot(&self, seq: u64) -> usize {
        (seq & self.mask) as usize
    }

    /// Forgets every entry (the ROB was emptied).
    fn clear(&mut self) {
        for bits in [
            &mut self.waiting,
            &mut self.ready,
            &mut self.parked,
            &mut self.barrier,
            &mut self.head_wait,
        ] {
            bits.0.fill(0);
        }
        self.pending.fill(0);
        self.consumers.fill(NIL);
        self.store_waiters.fill(NIL);
    }

    /// Registers the newly dispatched entry `seq`. `blockers[source]` names
    /// the unfinished in-flight producer of that source operand, if any;
    /// the entry is linked onto each one's consumer list.
    fn dispatch(&mut self, seq: u64, blockers: [Option<u64>; 2], serialising: bool) {
        let slot = self.slot(seq);
        let mut pending = 0;
        for (source, producer) in blockers.iter().enumerate() {
            if let Some(producer) = *producer {
                let node = slot * 2 + source;
                let producer_slot = self.slot(producer);
                self.next_node[node] = self.consumers[producer_slot];
                self.consumers[producer_slot] = node as u32;
                pending += 1;
            }
        }
        self.pending[slot] = pending;
        self.waiting.insert(slot);
        if pending == 0 {
            self.ready.insert(slot);
        }
        if serialising {
            self.barrier.insert(slot);
        }
    }

    /// Entry `seq` reached `Done`: it no longer blocks as a barrier, and each
    /// linked consumer has one operand fewer pending.
    fn finish(&mut self, seq: u64) {
        let slot = self.slot(seq);
        self.barrier.remove(slot);
        let mut node = std::mem::replace(&mut self.consumers[slot], NIL);
        while node != NIL {
            let consumer = node as usize / 2;
            debug_assert!(self.pending[consumer] > 0, "pending-count underflow");
            self.pending[consumer] -= 1;
            if self.pending[consumer] == 0 {
                self.ready.insert(consumer);
            }
            node = self.next_node[node as usize];
        }
    }

    /// The Waiting entry `seq` issued; `parked` if the memory model parked
    /// its access for a retry.
    fn issue(&mut self, seq: u64, parked: bool) {
        let slot = self.slot(seq);
        self.waiting.remove(slot);
        self.ready.remove(slot);
        if parked {
            self.parked.insert(slot);
        }
    }

    /// The parked entry `seq`'s retry went through.
    fn unpark(&mut self, seq: u64) {
        let slot = self.slot(seq);
        self.parked.remove(slot);
    }

    /// The ready entry `seq` cannot issue before it heads the ROB.
    fn await_head(&mut self, seq: u64) {
        let slot = self.slot(seq);
        self.ready.remove(slot);
        self.head_wait.insert(slot);
    }

    /// Entry `head` now heads the ROB.
    fn reached_head(&mut self, head: u64) {
        let slot = self.slot(head);
        if self.head_wait.contains(slot) {
            self.head_wait.remove(slot);
            self.ready.insert(slot);
        }
    }

    /// The ready load `seq` cannot issue before the older store `store`
    /// computes its address.
    fn await_store(&mut self, seq: u64, store: u64) {
        let slot = self.slot(seq);
        let store_slot = self.slot(store);
        self.ready.remove(slot);
        self.next_node[slot * 2] = self.store_waiters[store_slot];
        self.store_waiters[store_slot] = (slot * 2) as u32;
    }

    /// Store `seq` computed its address: the loads waiting for it are ready.
    fn store_resolved(&mut self, seq: u64) {
        let slot = self.slot(seq);
        let mut node = std::mem::replace(&mut self.store_waiters[slot], NIL);
        while node != NIL {
            self.ready.insert(node as usize / 2);
            node = self.next_node[node as usize];
        }
    }

    /// Squashes the entries `kept_tail + 1 .. end` of the ROB that starts at
    /// `head`. Their slots are cleared, and their nodes are unlinked from the
    /// survivors' lists; leaving them would wake the reclaimed sequence
    /// numbers twice. On a consumer list they sit at the front, since
    /// consumers are pushed in sequence order.
    fn squash(&mut self, head: u64, kept_tail: u64, end: u64) {
        for seq in kept_tail + 1..end {
            let slot = self.slot(seq);
            self.waiting.remove(slot);
            self.ready.remove(slot);
            self.parked.remove(slot);
            self.barrier.remove(slot);
            self.head_wait.remove(slot);
            self.pending[slot] = 0;
            self.consumers[slot] = NIL;
            self.store_waiters[slot] = NIL;
        }
        let (head_slot, mask) = (self.slot(head) as u64, self.mask);
        let squashed =
            |node: u32| head + ((u64::from(node) / 2).wrapping_sub(head_slot) & mask) > kept_tail;
        for producer in head..=kept_tail {
            let slot = self.slot(producer);
            while self.consumers[slot] != NIL && squashed(self.consumers[slot]) {
                self.consumers[slot] = self.next_node[self.consumers[slot] as usize];
            }
            // Loads join a store's waiters as they are refused, not in
            // sequence order, so the squashed ones may sit anywhere.
            let mut prev = NIL;
            let mut node = self.store_waiters[slot];
            while node != NIL {
                let next = self.next_node[node as usize];
                if !squashed(node) {
                    prev = node;
                } else if prev == NIL {
                    self.store_waiters[slot] = next;
                } else {
                    self.next_node[prev as usize] = next;
                }
                node = next;
            }
        }
    }

    /// The `n`-th (0-based) Waiting entry in `from..end`.
    fn nth_waiting(&self, from: u64, end: u64, n: usize) -> Option<u64> {
        nth_set(self.mask, from, end, n, |w| self.waiting.0[w])
    }

    /// The oldest unfinished serialising entry in `from..end`.
    fn next_barrier(&self, from: u64, end: u64) -> Option<u64> {
        nth_set(self.mask, from, end, 0, |w| self.barrier.0[w])
    }

    /// The oldest issue candidate — ready or parked — in `from..end`.
    fn next_candidate(&self, from: u64, end: u64) -> Option<u64> {
        nth_set(self.mask, from, end, 0, |w| {
            self.ready.0[w] | self.parked.0[w]
        })
    }
}

/// Statistics accumulated by one core.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoreStats {
    /// Cycles this core has been ticked (idle cycles skipped by the
    /// fast-forward loop are credited here, so the count is identical to the
    /// naive loop's).
    pub cycles: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Committed loads.
    pub loads: u64,
    /// Committed stores.
    pub stores: u64,
    /// Committed branches (conditional only).
    pub branches: u64,
    /// Mispredicted branches (of any kind) that caused a squash.
    pub mispredictions: u64,
    /// Instructions squashed from the ROB.
    pub squashed: u64,
    /// Loads that were issued speculatively and later squashed.
    pub squashed_loads: u64,
    /// Accesses the memory model asked to retry non-speculatively.
    pub mem_retries: u64,
}

impl CoreStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Converts the statistics into a generic [`StatSet`].
    pub fn to_stat_set(&self, prefix: &str) -> StatSet {
        let mut s = StatSet::new();
        s.add(&format!("{prefix}.cycles"), self.cycles);
        s.add(&format!("{prefix}.committed"), self.committed);
        s.add(&format!("{prefix}.loads"), self.loads);
        s.add(&format!("{prefix}.stores"), self.stores);
        s.add(&format!("{prefix}.branches"), self.branches);
        s.add(&format!("{prefix}.mispredictions"), self.mispredictions);
        s.add(&format!("{prefix}.squashed"), self.squashed);
        s.add(&format!("{prefix}.squashed_loads"), self.squashed_loads);
        s.add(&format!("{prefix}.mem_retries"), self.mem_retries);
        s.set_scalar(&format!("{prefix}.ipc"), self.ipc());
        s
    }
}

/// The out-of-order core.
pub struct OooCore {
    core_id: usize,
    pipeline: PipelineConfig,
    predictor: BranchPredictor,
    rob: VecDeque<RobEntry>,
    next_seq: u64,
    thread: Option<ThreadContext>,
    /// Speculative fetch program counter (instruction index).
    fetch_pc: usize,
    /// Front end is refilling until this cycle (misprediction or I-miss).
    fetch_stalled_until: Cycle,
    /// Fetch stops after a halt or running off the program.
    fetch_halted: bool,
    /// Last instruction-cache line fetched, to charge I-fetch once per line.
    last_fetch_line: Option<u64>,
    /// Commit is stalled until this cycle (memory model commit charges).
    commit_stalled_until: Cycle,
    halted: bool,
    stats: CoreStats,

    // --- incremental hot-loop structures --------------------------------
    /// Length of the contiguous `Done` prefix at the ROB head: the head
    /// `done_prefix` entries are finished. O(1) commit-readiness and the
    /// `rdcycle` "every older instruction done" gate.
    done_prefix: usize,
    /// Register scoreboard: for each architectural register, the sequence
    /// number of its youngest in-flight producer ([`NO_PRODUCER`] if the
    /// committed register file holds the current value).
    reg_producer: [u64; NUM_REGS],
    /// In-flight loads (atomics count), maintained at dispatch/commit/squash.
    loads_in_flight: usize,
    /// In-flight stores (atomics count), maintained at dispatch/commit/squash.
    stores_in_flight: usize,
    /// Sequence numbers of in-flight stores, oldest first, for memory
    /// disambiguation: a load walks only the (few) older stores instead of
    /// every older ROB entry.
    store_seqs: VecDeque<u64>,
    /// Sequence numbers of in-flight control-flow instructions that have not
    /// resolved, oldest first; resolved/committed entries are lazily popped,
    /// so the front is always the oldest unresolved branch.
    branch_seqs: VecDeque<u64>,
    /// Whether the last [`tick`](Self::tick) performed any pipeline work.
    tick_active: bool,
    /// Completion tickets: `(done_at, seq)` pushed whenever an entry enters
    /// `Executing(done_at)` with a finite time. The complete stage pops the
    /// due tickets instead of scanning the whole ROB, and
    /// [`next_wake`](Self::next_wake) is the heap minimum. Squashes leave
    /// stale tickets behind; they are validated (and discarded) on pop.
    completion_q: EventQueue<u64>,
    /// Reusable scratch of due sequence numbers for the complete stage.
    due_scratch: Vec<u64>,
    /// Wakeup/select state of the issue stage (see [`IssueSelect`]).
    select: IssueSelect,
    // Reusable scratch for the taint walk (STT support) — allocated once.
    taint_stack: Vec<usize>,
    taint_visited: Vec<bool>,
}

impl OooCore {
    /// Creates a core with the given id using the pipeline and predictor
    /// parameters from `config`.
    pub fn new(core_id: usize, config: &SystemConfig) -> Self {
        OooCore {
            core_id,
            pipeline: config.pipeline,
            predictor: BranchPredictor::new(&config.branch_predictor),
            rob: VecDeque::with_capacity(config.pipeline.rob_entries),
            next_seq: 0,
            thread: None,
            fetch_pc: 0,
            fetch_stalled_until: Cycle::ZERO,
            fetch_halted: false,
            last_fetch_line: None,
            commit_stalled_until: Cycle::ZERO,
            halted: true,
            stats: CoreStats::default(),
            done_prefix: 0,
            reg_producer: [NO_PRODUCER; NUM_REGS],
            loads_in_flight: 0,
            stores_in_flight: 0,
            store_seqs: VecDeque::new(),
            branch_seqs: VecDeque::new(),
            tick_active: false,
            completion_q: EventQueue::new(),
            due_scratch: Vec::new(),
            select: IssueSelect::new(config.pipeline.rob_entries),
            taint_stack: Vec::new(),
            taint_visited: Vec::new(),
        }
    }

    /// This core's identifier.
    pub fn id(&self) -> usize {
        self.core_id
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Whether the core currently has no runnable thread (idle or halted).
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Read-only access to the running thread's context, if any.
    pub fn thread(&self) -> Option<&ThreadContext> {
        self.thread.as_ref()
    }

    /// Mutable access to the branch predictor (the OS model flushes the BTB on
    /// context switches when that mitigation is enabled).
    pub fn predictor_mut(&mut self) -> &mut BranchPredictor {
        &mut self.predictor
    }

    /// The sequence number of the ROB head (or of the next dispatch when the
    /// ROB is empty). `rob[i].seq == head_seq() + i` always holds: dispatch
    /// appends consecutive numbers, commit pops the front, squash truncates a
    /// suffix — the ROB is contiguous in sequence numbers.
    fn head_seq(&self) -> u64 {
        self.rob.front().map_or(self.next_seq, |e| e.seq)
    }

    /// Installs a thread on this core, discarding any in-flight speculative
    /// work, and returns the previously running thread's context.
    pub fn swap_thread(&mut self, new_thread: Option<ThreadContext>) -> Option<ThreadContext> {
        self.rob.clear();
        self.done_prefix = 0;
        self.reg_producer = [NO_PRODUCER; NUM_REGS];
        self.loads_in_flight = 0;
        self.stores_in_flight = 0;
        self.store_seqs.clear();
        self.branch_seqs.clear();
        self.completion_q.clear();
        self.select.clear();
        self.last_fetch_line = None;
        let old = self.thread.take();
        self.thread = new_thread;
        if let Some(t) = &self.thread {
            self.fetch_pc = t.pc;
            self.fetch_halted = t.halted;
            self.halted = t.halted;
        } else {
            self.halted = true;
            self.fetch_halted = true;
        }
        old
    }

    /// Runs a single-threaded program to completion on this core with the
    /// given memory model, returning the cycle at which it halted.
    ///
    /// Idle stretches (every in-flight instruction waiting on a known wake
    /// cycle, fetch stalled) are fast-forwarded; the reported cycle count and
    /// all statistics are identical to ticking every cycle.
    ///
    /// # Errors
    /// Returns `Err(cycles_simulated)` if the program does not halt within
    /// `max_cycles`.
    pub fn run_to_halt(
        &mut self,
        thread: ThreadContext,
        mem: &mut dyn MemoryModel,
        max_cycles: u64,
    ) -> Result<u64, u64> {
        self.swap_thread(Some(thread));
        let fast_forward = !naive_loop_requested();
        let mut events = Vec::new();
        let mut now = Cycle::ZERO;
        while !self.halted && now.raw() < max_cycles {
            events.clear();
            self.tick(now, mem, &mut events);
            now += 1;
            // Skip only when this tick did nothing AND the memory model has
            // no queued background work its per-cycle tick would advance.
            if fast_forward && !self.tick_active && mem.is_idle(self.core_id) {
                let wake = self.next_wake(now).raw().min(max_cycles);
                if wake > now.raw() {
                    self.skip_idle_cycles(wake - now.raw());
                    now = Cycle::new(wake);
                }
            }
        }
        if self.halted {
            Ok(now.raw())
        } else {
            Err(now.raw())
        }
    }

    /// Advances the core by one cycle, appending the architectural events that
    /// committed during this cycle to `events` (the buffer is *not* cleared —
    /// the caller owns and reuses it, so the hot loop never allocates).
    pub fn tick(&mut self, now: Cycle, mem: &mut dyn MemoryModel, events: &mut Vec<CoreEvent>) {
        if self.thread.is_none() || self.halted {
            self.tick_active = false;
            return;
        }
        self.stats.cycles += 1;
        mem.tick(self.core_id, now);

        let committed_before = self.stats.committed;
        let commit_active = {
            self.commit_stage(now, mem, events);
            self.stats.committed != committed_before
        };
        let complete_active = self.complete_stage(now, mem);
        let issue_active = self.issue_stage(now, mem);
        let fetch_active = self.fetch_stage(now, mem);
        self.tick_active = commit_active || complete_active || issue_active || fetch_active;
        #[cfg(test)]
        self.assert_select_invariants();
    }

    /// Whether the last [`tick`](Self::tick) performed no pipeline work at
    /// all (no commit, completion, issue, retry poll, or fetch progress). A
    /// quiescent core's state is a pure function of the cycle timers, so the
    /// driving loop may jump to [`next_wake`](Self::next_wake) and credit the
    /// skipped cycles with [`skip_idle_cycles`](Self::skip_idle_cycles)
    /// without changing any observable behaviour.
    pub fn quiescent(&self) -> bool {
        !self.tick_active
    }

    /// The earliest tick cycle at or after `now` (the *next* tick's cycle) at
    /// which a quiescent core can make progress again: the earliest in-flight
    /// completion, the end of a fetch stall, or the end of a commit stall
    /// with a finished head. [`Cycle::NEVER`] when nothing is pending (the
    /// core is deadlocked or drained; the naive loop would spin to the cycle
    /// budget, and the fast-forward loop jumps there directly). Stale timers
    /// already behind `now` are ignored — on a quiescent core they cannot be
    /// what the pipeline is waiting for.
    pub fn next_wake(&self, now: Cycle) -> Cycle {
        // The completion heap's minimum. It may name a squashed instruction
        // (stale tickets are only discarded when popped), in which case the
        // wake is early: the tick at that cycle is a no-op that drains the
        // stale entry — behaviour the naive loop also exhibits, since it
        // ticks every cycle anyway.
        let mut wake = self.completion_q.peek().max_of(now);
        if self.done_prefix > 0 && self.commit_stalled_until >= now {
            wake = wake.min(self.commit_stalled_until);
        }
        if !self.fetch_halted && self.fetch_stalled_until >= now {
            wake = wake.min(self.fetch_stalled_until);
        }
        wake
    }

    /// Credits `skipped` fast-forwarded idle cycles to this core's cycle
    /// counter, exactly as if [`tick`](Self::tick) had been called (and done
    /// nothing) on each of them.
    pub fn skip_idle_cycles(&mut self, skipped: u64) {
        if self.thread.is_some() && !self.halted {
            self.stats.cycles += skipped;
        }
    }

    // ------------------------------------------------------------------
    // commit
    // ------------------------------------------------------------------

    fn commit_stage(&mut self, now: Cycle, mem: &mut dyn MemoryModel, events: &mut Vec<CoreEvent>) {
        if now < self.commit_stalled_until {
            return;
        }
        let width = self.pipeline.width;
        for _ in 0..width {
            if self.done_prefix == 0 {
                break;
            }
            let entry = self.rob.pop_front().expect("done prefix implies a head");
            self.done_prefix -= 1;
            self.retire_bookkeeping(&entry);
            self.retire_entry(&entry, now, mem, events);
            if self.halted || now < self.commit_stalled_until {
                break;
            }
        }
        self.select.reached_head(self.head_seq());
    }

    /// Updates the incremental structures for a popped (committed) entry.
    fn retire_bookkeeping(&mut self, entry: &RobEntry) {
        if entry.is_load() {
            self.loads_in_flight -= 1;
        }
        if entry.is_store() {
            self.stores_in_flight -= 1;
            // Memory operations commit in order, so this store is the front.
            debug_assert_eq!(self.store_seqs.front(), Some(&entry.seq));
            self.store_seqs.pop_front();
        }
        if entry.is_branch() && self.branch_seqs.front() == Some(&entry.seq) {
            self.branch_seqs.pop_front();
        }
        if let Some(dest) = entry.inst.dest() {
            if self.reg_producer[dest.index()] == entry.seq {
                self.reg_producer[dest.index()] = NO_PRODUCER;
            }
        }
    }

    fn retire_entry(
        &mut self,
        entry: &RobEntry,
        now: Cycle,
        mem: &mut dyn MemoryModel,
        events: &mut Vec<CoreEvent>,
    ) {
        let entry_pc_addr = self.pc_addr(entry.pc);
        let thread = self.thread.as_mut().expect("running thread");
        self.stats.committed += 1;

        // Architectural register update.
        if let (Some(dest), Some(result)) = (entry.inst.dest(), entry.result) {
            thread.regs.write(dest, result);
        }

        // Memory effects and commit-time notifications.
        if entry.is_memory() {
            let addr = entry.mem_addr.expect("memory op has an address");
            if entry.is_store() {
                let data = entry.store_data.expect("store has data");
                let width = match entry.inst {
                    Instruction::Store { width, .. } => width,
                    _ => MemWidth::Double,
                };
                thread.memory.borrow_mut().write(addr, data, width);
                self.stats.stores += 1;
            }
            if entry.is_load() {
                self.stats.loads += 1;
            }
            let ctx = MemAccessCtx {
                core: self.core_id,
                vaddr: addr,
                pc: entry_pc_addr,
                when: now,
                speculative: false,
                is_store: entry.is_store(),
                under_unresolved_branch: false,
                addr_tainted_spectre: false,
                addr_tainted_future: false,
            };
            let extra = mem.commit_access(&ctx);
            if extra > 0 {
                self.commit_stalled_until = now.saturating_add(extra);
            }
        }

        if matches!(entry.inst.class(), InstClass::Branch) {
            self.stats.branches += 1;
        }

        // Notify the memory model that the instruction itself committed, so
        // instruction-filter-cache lines can be marked committed (§4.7).
        let fetch_ctx = MemAccessCtx {
            core: self.core_id,
            vaddr: entry_pc_addr,
            pc: entry_pc_addr,
            when: now,
            speculative: false,
            is_store: false,
            under_unresolved_branch: false,
            addr_tainted_spectre: false,
            addr_tainted_future: false,
        };
        mem.commit_fetch(&fetch_ctx);

        // Committed program counter follows the actual path.
        thread.pc = entry.actual_next;

        match entry.inst {
            Instruction::Syscall { code } => events.push(CoreEvent::Syscall(code)),
            Instruction::SandboxEnter => events.push(CoreEvent::SandboxEnter),
            Instruction::SandboxExit => events.push(CoreEvent::SandboxExit),
            Instruction::Halt => {
                thread.halted = true;
                self.halted = true;
                self.fetch_halted = true;
                events.push(CoreEvent::Halted);
            }
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // complete (writeback + branch resolution)
    // ------------------------------------------------------------------

    /// Moves finished executions to `Done`, oldest first, resolving branches.
    /// Returns whether any entry changed state (squashes included).
    ///
    /// Driven by the completion-ticket heap: only the tickets due at `now`
    /// are popped, so the stage costs O(completions · log ROB) instead of a
    /// full ROB scan per cycle. Tickets are validated against the entry they
    /// name — squashes leave stale tickets behind, and a squash followed by
    /// re-dispatch reuses sequence numbers, so a ticket is live only if its
    /// entry is still `Executing` at exactly the ticketed cycle. (A stale
    /// ticket that collides with a reused sequence number *and* its new
    /// completion time merely completes an entry that is genuinely due;
    /// the entry's own ticket then pops as a harmless duplicate.)
    fn complete_stage(&mut self, now: Cycle, mem: &mut dyn MemoryModel) -> bool {
        let head = self.head_seq();
        let rob_len = self.rob.len() as u64;
        let mut due = std::mem::take(&mut self.due_scratch);
        due.clear();
        while let Some((ticket_time, seq)) = self.completion_q.pop_due(now) {
            if seq < head || seq - head >= rob_len {
                continue; // committed or squashed: stale
            }
            match self.rob[(seq - head) as usize].status {
                Status::Executing(done_at) if done_at == ticket_time => due.push(seq),
                _ => {} // already Done (duplicate) or re-issued: stale
            }
        }
        // Process in program order: the done prefix extends front-to-back and
        // the *oldest* mispredicted branch must be the one that squashes.
        due.sort_unstable();
        due.dedup();
        let mut squash_after: Option<(usize, usize)> = None; // (rob index, redirect pc)
        let mut transitions = false;
        for &seq in due.iter() {
            let idx = (seq - head) as usize;
            transitions = true;
            self.rob[idx].status = Status::Done;
            self.select.finish(seq);
            if idx == self.done_prefix {
                // Extend the done prefix over this entry and any previously
                // finished entries it unblocks.
                self.done_prefix += 1;
                while self.done_prefix < self.rob.len() && self.rob[self.done_prefix].is_done() {
                    self.done_prefix += 1;
                }
            }
            if self.rob[idx].is_branch() {
                let (mispredicted, redirect) = self.resolve_branch(idx);
                if mispredicted {
                    // Younger due entries stay `Executing`; the squash below
                    // removes them, exactly as the scan-based stage left them
                    // untransitioned when it broke at the first mispredict.
                    squash_after = Some((idx, redirect));
                    break;
                }
            }
        }
        self.due_scratch = due;
        if let Some((idx, redirect)) = squash_after {
            self.squash_younger_than(idx, redirect, now, mem);
        }
        transitions
    }

    /// Resolves the control-flow instruction at ROB index `idx`. Returns
    /// whether it was mispredicted and the correct next instruction index.
    fn resolve_branch(&mut self, idx: usize) -> (bool, usize) {
        let entry = &self.rob[idx];
        let actual_next = entry.actual_next;
        let mispredicted = actual_next != entry.predicted_next;
        let conditional = matches!(entry.inst.class(), InstClass::Branch);
        let taken = match entry.inst {
            Instruction::Branch { .. } => actual_next != entry.pc + 1,
            _ => true,
        };
        let update = BranchUpdate {
            pc: self.pc_addr(entry.pc),
            taken,
            target: actual_next,
            conditional,
        };
        self.predictor.update(&update, mispredicted);
        if mispredicted {
            self.stats.mispredictions += 1;
        }
        (mispredicted, actual_next)
    }

    /// Squashes every ROB entry younger than index `idx` and redirects fetch.
    fn squash_younger_than(
        &mut self,
        idx: usize,
        redirect: usize,
        now: Cycle,
        mem: &mut dyn MemoryModel,
    ) {
        let removed = self.rob.len().saturating_sub(idx + 1);
        if removed > 0 {
            for e in self.rob.iter().skip(idx + 1) {
                self.stats.squashed += 1;
                if e.is_load() && !matches!(e.status, Status::Waiting) {
                    self.stats.squashed_loads += 1;
                }
                if e.is_load() {
                    self.loads_in_flight -= 1;
                }
                if e.is_store() {
                    self.stores_in_flight -= 1;
                }
            }
            // Completion tickets of removed entries go stale in the heap
            // (validated away on pop); the issue-select state is maintained
            // eagerly.
            let head = self.head_seq();
            let max_kept_seq = head + idx as u64;
            self.select.squash(head, max_kept_seq, self.next_seq);
            self.rob.truncate(idx + 1);
            self.done_prefix = self.done_prefix.min(idx + 1);
            // Reclaim the squashed sequence numbers so `rob[i].seq ==
            // head_seq + i` stays true for entries dispatched down the
            // corrected path (the O(1) producer links depend on it).
            self.next_seq = max_kept_seq + 1;
            while self.store_seqs.back().is_some_and(|&s| s > max_kept_seq) {
                self.store_seqs.pop_back();
            }
            while self.branch_seqs.back().is_some_and(|&s| s > max_kept_seq) {
                self.branch_seqs.pop_back();
            }
            // Roll the scoreboard back to the youngest surviving producers.
            self.reg_producer = [NO_PRODUCER; NUM_REGS];
            for e in &self.rob {
                if let Some(dest) = e.inst.dest() {
                    self.reg_producer[dest.index()] = e.seq;
                }
            }
        }
        mem.on_squash(self.core_id, now);
        self.predictor.clear_ras();
        self.fetch_pc = redirect;
        self.fetch_halted = false;
        self.last_fetch_line = None;
        self.fetch_stalled_until = now.saturating_add(self.pipeline.mispredict_penalty);
    }

    // ------------------------------------------------------------------
    // issue / execute
    // ------------------------------------------------------------------

    /// Attempts to start execution of ready instructions. Returns whether any
    /// instruction issued or any parked memory access re-polled the memory
    /// model (both make the cycle non-quiescent).
    ///
    /// Wakeup/select: only the issue candidates — `Waiting` entries whose
    /// operands are all available, and parked memory retries — are visited,
    /// oldest first. An operand-blocked entry would refuse to issue without
    /// any side effect, and a finished or executing one is no candidate, so
    /// skipping them is invisible. So is skipping an entry whose refusal
    /// only a later event lifts (an atomic past the head, a load behind an
    /// older store with an unknown address): it returns to the candidates
    /// the moment that event happens, before the walk would reach it.
    fn issue_stage(&mut self, now: Cycle, mem: &mut dyn MemoryModel) -> bool {
        let head = self.head_seq();
        let mut limit = head + self.rob.len() as u64;
        // The instruction window: only the first `iq_entries` Waiting entries
        // (operand-blocked ones included) are candidates, and nothing younger
        // than the window — a parked retry included — is visited.
        if let Some(seq) = self
            .select
            .nth_waiting(head, limit, self.pipeline.iq_entries)
        {
            limit = seq;
        }
        // An unfinished serialising instruction past the head blocks every
        // younger instruction. It can itself execute only at the ROB head,
        // where it is a candidate like any other.
        if let Some(seq) = self.select.next_barrier(head + 1, limit) {
            limit = seq;
        }

        let mut issued = 0usize;
        let mut attempts = 0usize;
        let mut int_used = 0usize;
        let mut fp_used = 0usize;
        let mut muldiv_used = 0usize;
        let mut mem_ports_used = 0usize;
        let mut from = head;
        while issued < self.pipeline.width {
            let Some(seq) = self.select.next_candidate(from, limit) else {
                break;
            };
            from = seq + 1;
            let idx = (seq - head) as usize;
            if self.entry_is_parked(idx) {
                // A previously delayed memory access: retry it (the memory
                // model re-evaluates its condition; at the head it is
                // non-speculative and must succeed). The poll reaches the
                // memory model, so a cycle with a parked retry is never
                // quiescent.
                attempts += 1;
                if self.try_issue_at(idx, now, mem) == Attempt::Issued {
                    issued += 1;
                    mem_ports_used += 1;
                    if !self.entry_is_parked(idx) {
                        self.select.unpark(seq);
                    }
                }
                continue;
            }
            // Functional unit availability.
            let class = self.rob[idx].inst.class();
            let fu_ok = match class {
                InstClass::IntAlu
                | InstClass::Branch
                | InstClass::Jump
                | InstClass::Call
                | InstClass::Return
                | InstClass::Nop
                | InstClass::SandboxMarker
                | InstClass::Syscall
                | InstClass::Barrier
                | InstClass::Halt => int_used < self.pipeline.int_alus,
                InstClass::FpAlu => fp_used < self.pipeline.fp_alus,
                InstClass::MulDiv => muldiv_used < self.pipeline.mul_div_units,
                InstClass::Load | InstClass::Store | InstClass::Atomic => mem_ports_used < 4,
            };
            if !fu_ok {
                continue;
            }
            match self.try_issue_at(idx, now, mem) {
                Attempt::Issued => {
                    issued += 1;
                    // The memory model may park the access for a later
                    // retry: it leaves Waiting but remains a candidate.
                    self.select.issue(seq, self.entry_is_parked(idx));
                    match class {
                        InstClass::FpAlu => fp_used += 1,
                        InstClass::MulDiv => muldiv_used += 1,
                        InstClass::Load | InstClass::Store | InstClass::Atomic => {
                            mem_ports_used += 1
                        }
                        _ => int_used += 1,
                    }
                }
                Attempt::Refused => {}
                // Refusals only a later event lifts: leave the candidates
                // until it happens.
                Attempt::AwaitHead => self.select.await_head(seq),
                Attempt::AwaitStore(store) => self.select.await_store(seq, store),
            }
        }
        issued > 0 || attempts > 0
    }

    /// Whether entry `idx` is parked waiting for a memory-model retry.
    fn entry_is_parked(&self, idx: usize) -> bool {
        matches!(self.rob[idx].status, Status::Parked)
    }

    /// The value of source register `reg` as seen through its dispatch-time
    /// producer link: the linked in-flight producer's result once it is done,
    /// the architectural register if the producer already committed (or none
    /// existed), `None` while the producer is still executing.
    fn operand_value(&self, reg: Reg, producer_seq: u64) -> Option<u64> {
        if reg.is_zero() {
            return Some(0);
        }
        if producer_seq != NO_PRODUCER && producer_seq >= self.head_seq() {
            let producer = &self.rob[(producer_seq - self.head_seq()) as usize];
            debug_assert_eq!(producer.inst.dest(), Some(reg));
            // Execute-at-issue: results exist as soon as the producer starts
            // executing, but consumers model the dependency latency by
            // forwarding only once the producer is Done.
            return if producer.is_done() {
                producer.result
            } else {
                None
            };
        }
        let thread = self.thread.as_ref()?;
        Some(thread.regs.read(reg))
    }

    /// Attempts to execute the entry at ROB index `idx`. Every refusal
    /// happens before any state changes.
    fn try_issue_at(&mut self, idx: usize, now: Cycle, mem: &mut dyn MemoryModel) -> Attempt {
        let inst = self.rob[idx].inst;
        let class = inst.class();

        // Serialising instructions and atomics execute only at the ROB head.
        if (inst.is_serialising() || matches!(class, InstClass::Atomic)) && idx != 0 {
            return Attempt::AwaitHead;
        }
        // A cycle-counter read waits until every older instruction has
        // finished so it observes an accurate time (like lfence; rdtsc). The
        // done-prefix counter answers "are all older entries done?" in O(1).
        if matches!(inst, Instruction::ReadCycle { .. }) && self.done_prefix < idx {
            return Attempt::Refused;
        }

        // Gather operand values through the dispatch-time producer links.
        let (src_regs, num_sources) = inst.source_regs();
        let links = self.rob[idx].src_producers;
        let mut operands = [0u64; 2];
        for slot in 0..num_sources {
            match self.operand_value(src_regs[slot], links[slot]) {
                Some(v) => operands[slot] = v,
                None => return Attempt::Refused,
            }
        }
        let operands = &operands[..num_sources];

        match class {
            InstClass::Load | InstClass::Store | InstClass::Atomic => {
                self.issue_memory(idx, now, mem, operands)
            }
            _ => {
                self.issue_non_memory(idx, now, operands);
                Attempt::Issued
            }
        }
    }

    fn issue_non_memory(&mut self, idx: usize, now: Cycle, operands: &[u64]) {
        let entry = &mut self.rob[idx];
        let latency = entry.inst.exec_latency();
        let mut result = None;
        let mut actual_next = entry.pc + 1;
        match entry.inst {
            Instruction::AluReg { op, .. } => result = Some(eval_alu(op, operands[0], operands[1])),
            Instruction::AluImm { op, imm, .. } => {
                result = Some(eval_alu(op, operands[0], imm as u64))
            }
            Instruction::LoadImm { imm, .. } => result = Some(imm),
            Instruction::Fpu { op, .. } => result = Some(eval_fpu(op, operands[0], operands[1])),
            Instruction::Branch { cond, target, .. } => {
                let taken = eval_branch(cond, operands[0], operands[1]);
                actual_next = if taken { target } else { entry.pc + 1 };
            }
            Instruction::Jump { target } => actual_next = target,
            Instruction::JumpIndirect { offset, .. } => {
                actual_next = operands[0].wrapping_add(offset as u64) as usize;
            }
            Instruction::Call { target, .. } => {
                result = Some((entry.pc + 1) as u64);
                actual_next = target;
            }
            Instruction::Return { .. } => actual_next = operands[0] as usize,
            Instruction::ReadCycle { .. } => result = Some(now.raw()),
            _ => {}
        }
        entry.result = result;
        entry.actual_next = actual_next;
        let done_at = now.saturating_add(latency);
        let seq = entry.seq;
        entry.status = Status::Executing(done_at);
        self.completion_q.push(done_at, seq);
    }

    fn issue_memory(
        &mut self,
        idx: usize,
        now: Cycle,
        mem: &mut dyn MemoryModel,
        operands: &[u64],
    ) -> Attempt {
        let inst = self.rob[idx].inst;
        // Compute the effective address and (for stores) the data value.
        let (addr, data) = match inst {
            Instruction::Load { offset, .. } => {
                (VirtAddr::new(operands[0].wrapping_add(offset as u64)), None)
            }
            Instruction::Store { offset, .. } => (
                VirtAddr::new(operands[1].wrapping_add(offset as u64)),
                Some(operands[0]),
            ),
            Instruction::AtomicSwap { .. } | Instruction::AtomicAdd { .. } => {
                (VirtAddr::new(operands[1]), Some(operands[0]))
            }
            _ => unreachable!("issue_memory called for non-memory instruction"),
        };

        // Memory disambiguation: a load may not issue past an older store
        // whose address is unknown; if an older store to the same address has
        // its data, forward it. Only the in-flight stores are walked (youngest
        // first), not every older ROB entry.
        let is_load = matches!(inst.class(), InstClass::Load | InstClass::Atomic);
        let mut forwarded_value = None;
        if is_load {
            let head = self.head_seq();
            let seq = self.rob[idx].seq;
            let older = self.store_seqs.partition_point(|&s| s < seq);
            for &store_seq in self.store_seqs.range(..older).rev() {
                let store = &self.rob[(store_seq - head) as usize];
                debug_assert!(store.is_store());
                match store.mem_addr {
                    None => return Attempt::AwaitStore(store_seq),
                    Some(a) if a == addr => {
                        forwarded_value = store.store_data;
                        break;
                    }
                    Some(_) => continue,
                }
            }
        }

        let under_unresolved_branch = self.has_older_unresolved_branch(idx);
        let (ts, tf) = if mem.needs_taint_tracking() {
            self.address_taint(idx)
        } else {
            (false, false)
        };
        let speculative = idx != 0;
        let pc_vaddr = self.pc_addr(self.rob[idx].pc);

        if self.rob[idx].is_store() {
            // A store (or atomic) address becomes known: wake the loads
            // that stopped at it.
            self.select.store_resolved(self.rob[idx].seq);
        }
        let entry = &mut self.rob[idx];
        entry.mem_addr = Some(addr);
        entry.store_data = data;

        match inst.class() {
            InstClass::Store => {
                // Stores execute (compute address/data) without touching the
                // cache; the write happens at commit. Tell the memory model so
                // it can prefetch the line in shared state if it wants.
                let ctx = MemAccessCtx {
                    core: self.core_id,
                    vaddr: addr,
                    pc: pc_vaddr,
                    when: now,
                    speculative,
                    is_store: true,
                    under_unresolved_branch,
                    addr_tainted_spectre: ts,
                    addr_tainted_future: tf,
                };
                let done_at = now.saturating_add(1);
                let seq = entry.seq;
                entry.status = Status::Executing(done_at);
                entry.actual_next = entry.pc + 1;
                self.completion_q.push(done_at, seq);
                mem.store_address_ready(&ctx);
                Attempt::Issued
            }
            InstClass::Load | InstClass::Atomic => {
                let pc_addr = pc_vaddr;
                let is_atomic = matches!(inst.class(), InstClass::Atomic);
                if let Some(value) = forwarded_value {
                    // Store-to-load forwarding: 1-cycle, no cache access.
                    let entry = &mut self.rob[idx];
                    entry.result = Some(value);
                    entry.actual_next = entry.pc + 1;
                    let done_at = now.saturating_add(1);
                    let seq = entry.seq;
                    entry.status = Status::Executing(done_at);
                    self.completion_q.push(done_at, seq);
                    return Attempt::Issued;
                }
                let ctx = MemAccessCtx {
                    core: self.core_id,
                    vaddr: addr,
                    pc: pc_addr,
                    when: now,
                    speculative,
                    is_store: is_atomic,
                    under_unresolved_branch,
                    addr_tainted_spectre: ts,
                    addr_tainted_future: tf,
                };
                match mem.load(&ctx) {
                    MemOutcome::Done { latency } => {
                        // Functional read happens now (execute-at-issue).
                        let thread = self.thread.as_ref().expect("running thread");
                        let width = match inst {
                            Instruction::Load { width, .. } => width,
                            _ => MemWidth::Double,
                        };
                        let loaded = thread.memory.borrow().read(addr, width);
                        let entry = &mut self.rob[idx];
                        entry.result = Some(loaded);
                        entry.actual_next = entry.pc + 1;
                        let done_at = now.saturating_add(latency.max(1));
                        let seq = entry.seq;
                        entry.status = Status::Executing(done_at);
                        self.completion_q.push(done_at, seq);
                        // Atomics perform their read-modify-write functionally
                        // at execute time; they only run at the ROB head, so
                        // this is never speculative.
                        if is_atomic {
                            let thread = self.thread.as_ref().expect("running thread");
                            let new_value = match inst {
                                Instruction::AtomicSwap { .. } => data.unwrap_or(0),
                                Instruction::AtomicAdd { .. } => {
                                    loaded.wrapping_add(data.unwrap_or(0))
                                }
                                _ => unreachable!(),
                            };
                            thread
                                .memory
                                .borrow_mut()
                                .write(addr, new_value, MemWidth::Double);
                            let entry = &mut self.rob[idx];
                            entry.store_data = Some(new_value);
                        }
                        Attempt::Issued
                    }
                    MemOutcome::RetryWhenNonSpeculative => {
                        self.stats.mem_retries += 1;
                        // Park the entry; the issue stage re-polls it.
                        let entry = &mut self.rob[idx];
                        entry.status = Status::Parked;
                        entry.actual_next = entry.pc + 1;
                        Attempt::Issued
                    }
                }
            }
            _ => unreachable!(),
        }
    }

    /// Computes the taint of entry `idx`'s address operands for speculative
    /// taint tracking (STT): whether any value feeding the address was
    /// produced by an in-flight load that is still "unsafe".
    ///
    /// A source load is unsafe under the *Spectre* attack model while it has
    /// an older unresolved conditional branch, and under the *Futuristic*
    /// model while any older instruction remains in the reorder buffer at all
    /// (conservatively, the load can be squashed — by an interrupt, fault or
    /// ordering violation of anything older — until it reaches the head).
    /// Taint is recomputed every time the access is (re)tried, so it naturally
    /// clears when the source load becomes safe — which is exactly when STT
    /// un-blocks the dependent transmitter.
    ///
    /// The walk follows the dispatch-time producer links, so no register scan
    /// is needed; the work list and visited set are reusable scratch buffers.
    fn address_taint(&mut self, idx: usize) -> (bool, bool) {
        let mut spectre = false;
        let mut future = false;
        let head = self.head_seq();
        let mut worklist = std::mem::take(&mut self.taint_stack);
        let mut visited = std::mem::take(&mut self.taint_visited);
        worklist.clear();
        visited.clear();
        visited.resize(idx, false);

        let push_links = |rob: &VecDeque<RobEntry>, at: usize, worklist: &mut Vec<usize>| {
            let (src_regs, num_sources) = rob[at].inst.source_regs();
            let links = rob[at].src_producers;
            for slot in 0..num_sources {
                if src_regs[slot].is_zero() || links[slot] == NO_PRODUCER || links[slot] < head {
                    continue;
                }
                worklist.push((links[slot] - head) as usize);
            }
        };
        push_links(&self.rob, idx, &mut worklist);

        while let Some(producer) = worklist.pop() {
            if visited[producer] {
                continue;
            }
            visited[producer] = true;
            if self.rob[producer].is_load() {
                if self.has_older_unresolved_branch(producer) {
                    spectre = true;
                }
                if producer > 0 {
                    future = true;
                }
            }
            // Follow the producer's own operands further up the chain.
            push_links(&self.rob, producer, &mut worklist);
            if spectre && future {
                break;
            }
        }
        self.taint_stack = worklist;
        self.taint_visited = visited;
        (spectre, future)
    }

    /// Whether any conditional branch older than ROB index `idx` has not yet
    /// resolved (finished executing). Answered from the ordered queue of
    /// unresolved control-flow sequence numbers: resolved or departed fronts
    /// are lazily popped, after which the front *is* the oldest unresolved
    /// branch.
    fn has_older_unresolved_branch(&mut self, idx: usize) -> bool {
        let head = self.head_seq();
        while let Some(&seq) = self.branch_seqs.front() {
            if seq < head {
                // Committed (branches commit only once resolved).
                self.branch_seqs.pop_front();
                continue;
            }
            let entry = &self.rob[(seq - head) as usize];
            if entry.is_done() {
                self.branch_seqs.pop_front();
                continue;
            }
            return seq < head + idx as u64;
        }
        false
    }

    // ------------------------------------------------------------------
    // fetch / dispatch
    // ------------------------------------------------------------------

    /// Fetches and dispatches along the predicted path. Returns whether any
    /// progress or state change happened (instructions dispatched, an I-cache
    /// access performed, fetch halted or stalled).
    fn fetch_stage(&mut self, now: Cycle, mem: &mut dyn MemoryModel) -> bool {
        if self.fetch_halted || now < self.fetch_stalled_until {
            return false;
        }
        let mut active = false;
        let line_bytes = 64;
        for _ in 0..self.pipeline.width {
            if self.rob.len() >= self.pipeline.rob_entries {
                break;
            }
            let Some(thread) = self.thread.as_ref() else {
                break;
            };
            let Some(inst) = thread.program.fetch(self.fetch_pc) else {
                self.fetch_halted = true;
                active = true;
                break;
            };
            if inst.class().is_memory() {
                if matches!(inst.class(), InstClass::Load | InstClass::Atomic)
                    && self.loads_in_flight >= self.pipeline.lq_entries
                {
                    break;
                }
                if matches!(inst.class(), InstClass::Store | InstClass::Atomic)
                    && self.stores_in_flight >= self.pipeline.sq_entries
                {
                    break;
                }
            }

            // Instruction-cache timing, charged once per new line.
            let fetch_addr = thread.program.inst_addr(self.fetch_pc);
            let fetch_line = fetch_addr.raw() / line_bytes;
            if self.last_fetch_line != Some(fetch_line) {
                let ctx = MemAccessCtx {
                    core: self.core_id,
                    vaddr: fetch_addr,
                    pc: fetch_addr,
                    when: now,
                    speculative: !self.rob.is_empty(),
                    is_store: false,
                    under_unresolved_branch: self.has_older_unresolved_branch(self.rob.len()),
                    addr_tainted_spectre: false,
                    addr_tainted_future: false,
                };
                let latency = match mem.fetch_instruction(&ctx) {
                    MemOutcome::Done { latency } => latency,
                    MemOutcome::RetryWhenNonSpeculative => 1,
                };
                active = true;
                self.last_fetch_line = Some(fetch_line);
                if latency > 1 {
                    self.fetch_stalled_until = now.saturating_add(latency);
                    break;
                }
            }

            // Branch prediction decides the next fetch PC.
            let pc = self.fetch_pc;
            let pc_vaddr = self.pc_addr(pc);
            let predicted_next = match inst {
                Instruction::Branch { target, .. } => {
                    if self.predictor.predict_direction(pc_vaddr) {
                        target
                    } else {
                        pc + 1
                    }
                }
                Instruction::Jump { target } => target,
                Instruction::JumpIndirect { .. } => self
                    .predictor
                    .predict_indirect_target(pc_vaddr)
                    .unwrap_or(pc + 1),
                Instruction::Call { target, .. } => {
                    self.predictor.push_return(pc + 1);
                    target
                }
                Instruction::Return { .. } => self
                    .predictor
                    .predict_return()
                    .or_else(|| self.predictor.predict_indirect_target(pc_vaddr))
                    .unwrap_or(pc + 1),
                _ => pc + 1,
            };

            // Capture the dispatch-time producer links from the scoreboard
            // (noting which producers are still unfinished, for wakeup),
            // then claim the destination register for this entry.
            let (src_regs, num_sources) = inst.source_regs();
            let head = self.head_seq();
            let mut src_producers = [NO_PRODUCER; 2];
            let mut blockers = [None; 2];
            for src in 0..num_sources {
                if !src_regs[src].is_zero() {
                    let producer = self.reg_producer[src_regs[src].index()];
                    src_producers[src] = producer;
                    if producer != NO_PRODUCER
                        && producer >= head
                        && !self.rob[(producer - head) as usize].is_done()
                    {
                        blockers[src] = Some(producer);
                    }
                }
            }

            let entry = RobEntry {
                seq: self.next_seq,
                pc,
                inst,
                status: Status::Waiting,
                result: None,
                src_producers,
                mem_addr: None,
                store_data: None,
                predicted_next,
                actual_next: pc + 1,
            };
            if let Some(dest) = inst.dest() {
                self.reg_producer[dest.index()] = entry.seq;
            }
            if entry.is_load() {
                self.loads_in_flight += 1;
            }
            if entry.is_store() {
                self.stores_in_flight += 1;
                self.store_seqs.push_back(entry.seq);
            }
            if entry.is_branch() {
                self.branch_seqs.push_back(entry.seq);
            }
            self.select
                .dispatch(entry.seq, blockers, inst.is_serialising());
            self.next_seq += 1;
            self.rob.push_back(entry);
            self.fetch_pc = predicted_next;
            active = true;

            if matches!(inst, Instruction::Halt) {
                // Stop fetching past a halt on the speculative path.
                self.fetch_halted = true;
                break;
            }
        }
        active
    }

    fn pc_addr(&self, pc: usize) -> VirtAddr {
        match &self.thread {
            Some(t) => t.program.inst_addr(pc),
            None => VirtAddr::new(pc as u64 * INST_BYTES),
        }
    }

    /// Recomputes the issue-select state from the ROB and asserts that the
    /// incremental [`IssueSelect`] matches it: every bitset, every pending
    /// count and every list (see the invariants listed there).
    #[cfg(test)]
    fn assert_select_invariants(&self) {
        let sel = &self.select;
        let head = self.head_seq();
        let seq_of =
            |slot: usize| head + (slot.wrapping_sub(sel.slot(head)) & sel.mask as usize) as u64;
        let live = |slot: usize| seq_of(slot) < head + self.rob.len() as u64;
        let entry = |seq: u64| &self.rob[(seq - head) as usize];
        let walk = |mut node: u32| {
            let mut nodes = Vec::new();
            while node != NIL {
                nodes.push(node as usize);
                node = sel.next_node[node as usize];
            }
            nodes
        };
        // Loads waiting for a store's address: each waits on exactly one
        // older, still address-less store.
        let mut store_waiting = std::collections::HashSet::new();
        for store in &self.rob {
            for node in walk(sel.store_waiters[sel.slot(store.seq)]) {
                let load = seq_of(node / 2);
                assert_eq!(node % 2, 0, "store waiter {load} uses its source-0 node");
                assert!(load > store.seq && live(node / 2), "store waiter {load}");
                assert!(
                    store.is_store() && store.mem_addr.is_none(),
                    "store {}",
                    store.seq
                );
                assert!(entry(load).is_load(), "store waiter {load} is a load");
                assert!(
                    store_waiting.insert(load),
                    "load {load} waits on two stores"
                );
            }
        }
        // Expected consumer-list nodes per producer ROB index, in push order.
        let mut expected_links: Vec<Vec<usize>> = vec![Vec::new(); self.rob.len()];
        for (i, e) in self.rob.iter().enumerate() {
            let slot = sel.slot(e.seq);
            let is_waiting = matches!(e.status, Status::Waiting);
            let (regs, sources) = e.inst.source_regs();
            let mut blocked = 0;
            let links = regs.iter().zip(e.src_producers).take(sources);
            for (source, (&reg, producer_seq)) in links.enumerate() {
                if self.operand_value(reg, producer_seq).is_none() {
                    assert!(
                        is_waiting,
                        "seq {} issued with operand {source} unavailable",
                        e.seq
                    );
                    blocked += 1;
                    let producer = (producer_seq - head) as usize;
                    expected_links[producer].push(slot * 2 + source);
                }
            }
            let head_waiting = sel.head_wait.contains(slot);
            if head_waiting {
                assert!(
                    i > 0 && is_waiting && blocked == 0,
                    "head wait of seq {}",
                    e.seq
                );
                assert!(matches!(e.inst.class(), InstClass::Atomic) || e.inst.is_serialising());
            }
            if store_waiting.contains(&e.seq) {
                assert!(
                    is_waiting && blocked == 0 && !head_waiting,
                    "store wait of seq {}",
                    e.seq
                );
            }
            let ready =
                is_waiting && blocked == 0 && !head_waiting && !store_waiting.contains(&e.seq);
            assert_eq!(
                sel.waiting.contains(slot),
                is_waiting,
                "waiting bit of seq {}",
                e.seq
            );
            assert_eq!(
                usize::from(sel.pending[slot]),
                blocked,
                "pending count of seq {}",
                e.seq
            );
            assert_eq!(
                sel.ready.contains(slot),
                ready,
                "ready bit of seq {}",
                e.seq
            );
            assert_eq!(
                sel.parked.contains(slot),
                matches!(e.status, Status::Parked),
                "parked bit of seq {}",
                e.seq
            );
            assert_eq!(
                sel.barrier.contains(slot),
                !e.is_done() && e.inst.is_serialising(),
                "barrier bit of seq {}",
                e.seq
            );
        }
        for (i, e) in self.rob.iter().enumerate() {
            // Pushed in (consumer, source) order, so the list is the reverse.
            let mut expected = std::mem::take(&mut expected_links[i]);
            expected.reverse();
            let list = walk(sel.consumers[sel.slot(e.seq)]);
            assert_eq!(list, expected, "consumer list of seq {}", e.seq);
        }
        for slot in (0..=sel.mask as usize).filter(|&slot| !live(slot)) {
            for (name, bits) in [
                ("waiting", &sel.waiting),
                ("ready", &sel.ready),
                ("parked", &sel.parked),
                ("barrier", &sel.barrier),
                ("head-wait", &sel.head_wait),
            ] {
                assert!(!bits.contains(slot), "{name} bit set on dead slot {slot}");
            }
            assert_eq!(sel.pending[slot], 0, "pending count on dead slot {slot}");
            assert_eq!(
                sel.consumers[slot], NIL,
                "consumer list on dead slot {slot}"
            );
            assert_eq!(
                sel.store_waiters[slot], NIL,
                "store waiters on dead slot {slot}"
            );
        }
    }
}

impl std::fmt::Debug for OooCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OooCore")
            .field("core_id", &self.core_id)
            .field("rob_occupancy", &self.rob.len())
            .field("fetch_pc", &self.fetch_pc)
            .field("halted", &self.halted)
            .field("committed", &self.stats.committed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memmodel::FixedLatencyMemory;
    use uarch_isa::interp::Interpreter;
    use uarch_isa::prog::{Program, ProgramBuilder};
    use uarch_isa::reg::Reg;

    fn run_program(program: &Program) -> (OooCore, ThreadContext, u64) {
        let cfg = SystemConfig::paper_default();
        let mut core = OooCore::new(0, &cfg);
        let mut mem = FixedLatencyMemory::default();
        let thread = ThreadContext::new(program.clone(), 0);
        let cycles = core
            .run_to_halt(thread, &mut mem, 2_000_000)
            .expect("program should halt");
        let finished = core.swap_thread(None).expect("thread present");
        (core, finished, cycles)
    }

    /// Runs a program while ticking every single cycle (no fast-forward),
    /// mirroring the naive pre-optimization loop.
    fn run_program_naive(program: &Program) -> (OooCore, ThreadContext, u64) {
        let cfg = SystemConfig::paper_default();
        let mut core = OooCore::new(0, &cfg);
        let mut mem = FixedLatencyMemory::default();
        core.swap_thread(Some(ThreadContext::new(program.clone(), 0)));
        let cycles = tick_to_halt(&mut core, &mut mem, |_| {});
        let finished = core.swap_thread(None).expect("thread present");
        (core, finished, cycles)
    }

    /// Runs a program on both the functional interpreter and the OoO core and
    /// asserts the architectural register results match.
    fn assert_matches_interpreter(program: &Program, regs_to_check: &[Reg]) {
        let mut interp = Interpreter::new(program);
        let golden = interp.run(5_000_000).expect("interpreter halts");
        let (_, finished, _) = run_program(program);
        for reg in regs_to_check {
            assert_eq!(
                finished.regs.read(*reg),
                golden.regs.read(*reg),
                "architectural mismatch in {reg}"
            );
        }
    }

    #[test]
    fn straight_line_arithmetic_matches_interpreter() {
        let mut b = ProgramBuilder::new("alu");
        b.li(Reg::X1, 10);
        b.li(Reg::X2, 3);
        b.mul(Reg::X3, Reg::X1, Reg::X2);
        b.sub(Reg::X4, Reg::X3, Reg::X2);
        b.addi(Reg::X5, Reg::X4, 100);
        b.halt();
        let p = b.build().unwrap();
        assert_matches_interpreter(&p, &[Reg::X3, Reg::X4, Reg::X5]);
    }

    #[test]
    fn loop_with_memory_matches_interpreter() {
        // Sum an array of 32 values through loads in a loop.
        let mut b = ProgramBuilder::new("sum-array");
        let values: Vec<u64> = (0..32).map(|i| i * 7 + 1).collect();
        b.data_u64(VirtAddr::new(0x1_0000), &values);
        let top = b.new_label();
        b.li(Reg::X1, 0x1_0000); // base
        b.li(Reg::X2, 0); // index
        b.li(Reg::X3, 0); // sum
        b.bind_label(top);
        b.shli(Reg::X4, Reg::X2, 3);
        b.add(Reg::X4, Reg::X1, Reg::X4);
        b.load(Reg::X5, Reg::X4, 0);
        b.add(Reg::X3, Reg::X3, Reg::X5);
        b.addi(Reg::X2, Reg::X2, 1);
        b.blt_imm(Reg::X2, 32, top);
        b.halt();
        let p = b.build().unwrap();
        assert_matches_interpreter(&p, &[Reg::X3]);
        let (_, finished, _) = run_program(&p);
        assert_eq!(finished.regs.read(Reg::X3), values.iter().sum::<u64>());
    }

    #[test]
    fn stores_then_loads_round_trip() {
        let mut b = ProgramBuilder::new("store-load");
        b.li(Reg::X1, 0x2_0000);
        b.li(Reg::X2, 1234);
        b.store(Reg::X2, Reg::X1, 0);
        b.load(Reg::X3, Reg::X1, 0);
        b.addi(Reg::X3, Reg::X3, 1);
        b.halt();
        let p = b.build().unwrap();
        assert_matches_interpreter(&p, &[Reg::X3]);
        let (_, finished, _) = run_program(&p);
        assert_eq!(finished.regs.read(Reg::X3), 1235);
    }

    #[test]
    fn calls_and_returns_match_interpreter() {
        let mut b = ProgramBuilder::new("calls");
        let func = b.new_label();
        let done = b.new_label();
        b.li(Reg::X1, 1);
        b.call(func, Reg::X30);
        b.call(func, Reg::X30);
        b.jump(done);
        b.bind_label(func);
        b.shli(Reg::X1, Reg::X1, 2);
        b.ret(Reg::X30);
        b.bind_label(done);
        b.halt();
        let p = b.build().unwrap();
        assert_matches_interpreter(&p, &[Reg::X1]);
    }

    #[test]
    fn data_dependent_branches_match_interpreter() {
        // A loop whose branch direction depends on loaded data, with an
        // irregular pattern so mispredictions occur.
        let mut b = ProgramBuilder::new("branchy");
        let values: Vec<u64> = (0..64).map(|i| (i * 2654435761u64) % 7).collect();
        b.data_u64(VirtAddr::new(0x3_0000), &values);
        let top = b.new_label();
        let skip = b.new_label();
        b.li(Reg::X1, 0x3_0000);
        b.li(Reg::X2, 0);
        b.li(Reg::X3, 0);
        b.bind_label(top);
        b.shli(Reg::X4, Reg::X2, 3);
        b.add(Reg::X4, Reg::X1, Reg::X4);
        b.load(Reg::X5, Reg::X4, 0);
        b.li(Reg::X6, 3);
        b.blt(Reg::X5, Reg::X6, skip);
        b.addi(Reg::X3, Reg::X3, 1);
        b.bind_label(skip);
        b.addi(Reg::X2, Reg::X2, 1);
        b.blt_imm(Reg::X2, 64, top);
        b.halt();
        let p = b.build().unwrap();
        assert_matches_interpreter(&p, &[Reg::X3]);
        let (core, _, _) = run_program(&p);
        assert!(
            core.stats().mispredictions > 0,
            "irregular branches should mispredict"
        );
        assert!(
            core.stats().squashed > 0,
            "mispredictions should squash wrong-path work"
        );
    }

    #[test]
    fn wrong_path_loads_reach_the_memory_model() {
        // Train a branch not-taken, then make it taken once: the wrong-path
        // load behind the mispredicted branch must reach the memory model and
        // then be squashed.
        let mut b = ProgramBuilder::new("wrong-path");
        b.data_u64(VirtAddr::new(0x9000), &[0]);
        let top = b.new_label();
        let skip = b.new_label();
        let after = b.new_label();
        b.li(Reg::X1, 0);
        b.li(Reg::X9, 0x9000);
        b.bind_label(top);
        // if X1 < 20 skip the "secret" load, else fall through to it.
        b.li(Reg::X2, 20);
        b.blt(Reg::X1, Reg::X2, skip);
        b.load(Reg::X3, Reg::X9, 0); // executed speculatively when mispredicted
        b.jump(after);
        b.bind_label(skip);
        b.nop();
        b.bind_label(after);
        b.addi(Reg::X1, Reg::X1, 1);
        b.blt_imm(Reg::X1, 24, top);
        b.halt();
        let p = b.build().unwrap();
        let (core, _, _) = run_program(&p);
        assert!(core.stats().mispredictions > 0);
        // The functional result is unaffected by wrong-path execution.
        assert_matches_interpreter(&p, &[Reg::X1, Reg::X3]);
    }

    #[test]
    fn rdcycle_reads_increase_monotonically() {
        let mut b = ProgramBuilder::new("rdcycle");
        b.rdcycle(Reg::X1);
        b.li(Reg::X5, 0x4_0000);
        b.load(Reg::X6, Reg::X5, 0);
        b.add(Reg::X7, Reg::X6, Reg::X6);
        b.rdcycle(Reg::X2);
        b.sub(Reg::X3, Reg::X2, Reg::X1);
        b.halt();
        let p = b.build().unwrap();
        let (_, finished, _) = run_program(&p);
        let delta = finished.regs.read(Reg::X3);
        assert!(
            delta > 0,
            "the second rdcycle must observe later time than the first"
        );
        assert!((delta as i64) > 0);
    }

    #[test]
    fn atomics_are_executed_at_the_head_and_update_memory() {
        let mut b = ProgramBuilder::new("atomic");
        b.data_u64(VirtAddr::new(0x5000), &[10]);
        b.li(Reg::X1, 0x5000);
        b.li(Reg::X2, 5);
        b.amoadd(Reg::X3, Reg::X2, Reg::X1);
        b.load(Reg::X4, Reg::X1, 0);
        b.halt();
        let p = b.build().unwrap();
        assert_matches_interpreter(&p, &[Reg::X3, Reg::X4]);
        let (_, finished, _) = run_program(&p);
        assert_eq!(finished.regs.read(Reg::X3), 10);
        assert_eq!(finished.regs.read(Reg::X4), 15);
    }

    #[test]
    fn spec_barrier_and_syscall_programs_complete() {
        let mut b = ProgramBuilder::new("serialising");
        b.li(Reg::X1, 1);
        b.spec_barrier();
        b.addi(Reg::X1, Reg::X1, 1);
        b.syscall(7);
        b.addi(Reg::X1, Reg::X1, 1);
        b.sandbox_enter();
        b.addi(Reg::X1, Reg::X1, 1);
        b.sandbox_exit();
        b.halt();
        let p = b.build().unwrap();
        assert_matches_interpreter(&p, &[Reg::X1]);
    }

    #[test]
    fn core_reports_committed_events() {
        let mut b = ProgramBuilder::new("events");
        b.syscall(3);
        b.sandbox_enter();
        b.sandbox_exit();
        b.halt();
        let p = b.build().unwrap();
        let cfg = SystemConfig::paper_default();
        let mut core = OooCore::new(0, &cfg);
        let mut mem = FixedLatencyMemory::default();
        core.swap_thread(Some(ThreadContext::new(p, 0)));
        let mut seen = Vec::new();
        let mut now = Cycle::ZERO;
        while !core.is_halted() && now.raw() < 10_000 {
            core.tick(now, &mut mem, &mut seen);
            now += 1;
        }
        assert_eq!(
            seen,
            vec![
                CoreEvent::Syscall(3),
                CoreEvent::SandboxEnter,
                CoreEvent::SandboxExit,
                CoreEvent::Halted
            ]
        );
    }

    #[test]
    fn ipc_is_positive_and_bounded_by_width() {
        let mut b = ProgramBuilder::new("ipc");
        let top = b.new_label();
        b.li(Reg::X1, 0);
        b.bind_label(top);
        for _ in 0..8 {
            b.addi(Reg::X2, Reg::X2, 1);
        }
        b.addi(Reg::X1, Reg::X1, 1);
        b.blt_imm(Reg::X1, 200, top);
        b.halt();
        let p = b.build().unwrap();
        let (core, _, _) = run_program(&p);
        let ipc = core.stats().ipc();
        assert!(
            ipc > 0.5,
            "simple ALU loop should achieve reasonable IPC, got {ipc}"
        );
        assert!(ipc <= 8.0, "IPC cannot exceed the commit width");
    }

    #[test]
    fn fast_forward_matches_the_naive_loop_exactly() {
        // The event-skipping loop must be invisible: same halt cycle, same
        // statistics, same architectural state, on a workload that mixes
        // memory stalls (idle stretches to skip), mispredicted branches,
        // serialising instructions and store-to-load forwarding.
        let mut b = ProgramBuilder::new("ff-equivalence");
        let values: Vec<u64> = (0..64).map(|i| (i * 2654435761u64) % 13).collect();
        b.data_u64(VirtAddr::new(0x6_0000), &values);
        let top = b.new_label();
        let skip = b.new_label();
        b.li(Reg::X1, 0x6_0000);
        b.li(Reg::X2, 0);
        b.li(Reg::X3, 0);
        b.bind_label(top);
        b.shli(Reg::X4, Reg::X2, 3);
        b.add(Reg::X4, Reg::X1, Reg::X4);
        b.load(Reg::X5, Reg::X4, 0);
        b.store(Reg::X5, Reg::X4, 512);
        b.load(Reg::X6, Reg::X4, 512);
        b.li(Reg::X7, 6);
        b.blt(Reg::X6, Reg::X7, skip);
        b.addi(Reg::X3, Reg::X3, 1);
        b.spec_barrier();
        b.bind_label(skip);
        b.addi(Reg::X2, Reg::X2, 1);
        b.blt_imm(Reg::X2, 64, top);
        b.halt();
        let p = b.build().unwrap();

        let (fast_core, fast_ctx, fast_cycles) = run_program(&p);
        let (naive_core, naive_ctx, naive_cycles) = run_program_naive(&p);
        assert_eq!(fast_cycles, naive_cycles, "halt cycle must be identical");
        assert_eq!(
            fast_core.stats(),
            naive_core.stats(),
            "every statistic must be identical"
        );
        assert_eq!(fast_ctx.regs.snapshot(), naive_ctx.regs.snapshot());
    }

    #[test]
    fn quiescent_ticks_report_a_wake_cycle() {
        // A load with a long fixed latency parks the core: the tick after
        // issue must be quiescent with the load's completion as the wake.
        let mut b = ProgramBuilder::new("wake");
        b.li(Reg::X1, 0x7_0000);
        b.load(Reg::X2, Reg::X1, 0);
        b.add(Reg::X3, Reg::X2, Reg::X2);
        b.halt();
        let p = b.build().unwrap();
        let cfg = SystemConfig::paper_default();
        let mut core = OooCore::new(0, &cfg);
        let mut mem = FixedLatencyMemory::new(200, 1);
        core.swap_thread(Some(ThreadContext::new(p, 0)));
        let mut events = Vec::new();
        let mut quiet_with_wake = false;
        let mut now = Cycle::ZERO;
        while !core.is_halted() && now.raw() < 10_000 {
            core.tick(now, &mut mem, &mut events);
            if core.quiescent() {
                let wake = core.next_wake(now + 1);
                assert!(wake > now, "wake must be in the future");
                if wake != Cycle::NEVER {
                    quiet_with_wake = true;
                }
            }
            now += 1;
        }
        assert!(core.is_halted());
        assert!(
            quiet_with_wake,
            "a 200-cycle load must produce quiescent ticks with a known wake"
        );
    }

    #[test]
    fn swap_thread_preserves_architectural_state() {
        let mut b = ProgramBuilder::new("first");
        b.li(Reg::X1, 77);
        b.halt();
        let p1 = b.build().unwrap();
        let cfg = SystemConfig::paper_default();
        let mut core = OooCore::new(0, &cfg);
        let mut mem = FixedLatencyMemory::default();
        core.swap_thread(Some(ThreadContext::new(p1, 0)));
        let mut events = Vec::new();
        let mut now = Cycle::ZERO;
        while !core.is_halted() && now.raw() < 10_000 {
            core.tick(now, &mut mem, &mut events);
            now += 1;
        }
        let saved = core.swap_thread(None).expect("context returned");
        assert_eq!(saved.regs.read(Reg::X1), 77);
        assert!(saved.halted);
        assert!(core.is_halted());
    }

    #[test]
    fn run_to_halt_times_out_on_infinite_loops() {
        let mut b = ProgramBuilder::new("spin");
        let top = b.here();
        b.jump(top);
        let p = b.build().unwrap();
        let cfg = SystemConfig::paper_default();
        let mut core = OooCore::new(0, &cfg);
        let mut mem = FixedLatencyMemory::default();
        let result = core.run_to_halt(ThreadContext::new(p, 0), &mut mem, 5_000);
        assert!(result.is_err());
    }

    /// Ticks `core` every cycle until it halts, calling `inspect` after each
    /// tick (every tick also checks the issue-select invariants). Returns the
    /// halt cycle.
    fn tick_to_halt(
        core: &mut OooCore,
        mem: &mut dyn MemoryModel,
        mut inspect: impl FnMut(&OooCore),
    ) -> u64 {
        let mut events = Vec::new();
        let mut now = Cycle::ZERO;
        while !core.is_halted() && now.raw() < 2_000_000 {
            core.tick(now, mem, &mut events);
            inspect(core);
            now += 1;
        }
        assert!(core.is_halted(), "program should halt");
        now.raw()
    }

    fn waiting_entries(core: &OooCore) -> usize {
        core.rob
            .iter()
            .filter(|e| e.status == Status::Waiting)
            .count()
    }

    /// The ROB entry at fetch index `pc`, if one is in flight.
    fn entry_at_pc(core: &OooCore, pc: usize) -> Option<&RobEntry> {
        core.rob.iter().find(|e| e.pc == pc)
    }

    /// Sequence numbers of the consumers linked to producer `seq`, in list
    /// order (one per pending source operand).
    fn consumers_of(core: &OooCore, seq: u64) -> Vec<u64> {
        let sel = &core.select;
        let head = core.head_seq();
        let mut out = Vec::new();
        let mut node = sel.consumers[sel.slot(seq)];
        while node != NIL {
            let slot = node as usize / 2;
            out.push(head + (slot.wrapping_sub(sel.slot(head)) & sel.mask as usize) as u64);
            node = sel.next_node[node as usize];
        }
        out
    }

    #[test]
    fn serialising_entry_blocks_younger_issue_until_it_reaches_the_head() {
        let mut b = ProgramBuilder::new("mid-rob-barrier");
        b.li(Reg::X1, 0x7000);
        b.load(Reg::X2, Reg::X1, 0); // pc 1: holds the head for 100 cycles
        b.spec_barrier(); // pc 2
        b.li(Reg::X3, 5); // pc 3: independent of everything
        b.addi(Reg::X4, Reg::X3, 1);
        b.halt();
        let p = b.build().unwrap();
        let mut core = OooCore::new(0, &SystemConfig::paper_default());
        let mut mem = FixedLatencyMemory::new(100, 1);
        core.swap_thread(Some(ThreadContext::new(p.clone(), 0)));
        let (mut blocked_ticks, mut issued_at_head) = (0, false);
        tick_to_halt(&mut core, &mut mem, |core| {
            let (Some(barrier), Some(younger)) = (entry_at_pc(core, 2), entry_at_pc(core, 3))
            else {
                return;
            };
            if barrier.seq > core.head_seq() {
                assert_eq!(
                    younger.status,
                    Status::Waiting,
                    "issued past a mid-ROB barrier"
                );
                blocked_ticks += 1;
            } else if younger.status != Status::Waiting {
                issued_at_head = true;
            }
        });
        assert!(
            blocked_ticks > 50,
            "the barrier sat behind the load ({blocked_ticks} ticks)"
        );
        assert!(
            issued_at_head,
            "younger work issues once the barrier heads the ROB"
        );
        let finished = core.swap_thread(None).unwrap();
        assert_eq!(finished.regs.read(Reg::X4), 6);
    }

    #[test]
    fn only_the_first_iq_entries_waiting_entries_are_issue_candidates() {
        // `blocked` entries wait on a long load; the independent `li` behind
        // them is ready at once but issues early only inside the window.
        let run = |blocked: usize| {
            let mut b = ProgramBuilder::new("window");
            b.li(Reg::X1, 0x7000);
            b.load(Reg::X2, Reg::X1, 0);
            for k in 0..blocked {
                b.addi(Reg::X3, Reg::X2, k as i64);
            }
            let li_pc = b.len();
            b.li(Reg::X5, 9);
            b.halt();
            let cfg = SystemConfig::small_test();
            let mut core = OooCore::new(0, &cfg);
            let mut mem = FixedLatencyMemory::new(100, 1);
            core.swap_thread(Some(ThreadContext::new(b.build().unwrap(), 0)));
            let (mut overflowed, mut issued_early) = (false, false);
            tick_to_halt(&mut core, &mut mem, |core| {
                overflowed |= waiting_entries(core) > cfg.pipeline.iq_entries;
                let load_pending = entry_at_pc(core, 1).is_some_and(|e| !e.is_done());
                if load_pending
                    && entry_at_pc(core, li_pc).is_some_and(|e| e.status != Status::Waiting)
                {
                    issued_early = true;
                }
            });
            (overflowed, issued_early)
        };
        assert_eq!(
            run(20),
            (true, false),
            "20 blocked entries fill the 16-entry window"
        );
        assert_eq!(
            run(10),
            (false, true),
            "10 blocked entries leave room in the window"
        );
    }

    #[test]
    fn both_sources_from_one_producer_wake_once_it_is_done() {
        let mut b = ProgramBuilder::new("twin-sources");
        b.data_u64(VirtAddr::new(0x7000), &[21]);
        b.li(Reg::X1, 0x7000);
        b.load(Reg::X2, Reg::X1, 0); // pc 1
        b.add(Reg::X3, Reg::X2, Reg::X2); // pc 2
        b.halt();
        let p = b.build().unwrap();
        let mut core = OooCore::new(0, &SystemConfig::paper_default());
        let mut mem = FixedLatencyMemory::new(30, 1);
        core.swap_thread(Some(ThreadContext::new(p, 0)));
        let mut doubly_linked = false;
        tick_to_halt(&mut core, &mut mem, |core| {
            if let (Some(load), Some(add)) = (entry_at_pc(core, 1), entry_at_pc(core, 2)) {
                if !load.is_done() {
                    assert_eq!(core.select.pending[core.select.slot(add.seq)], 2);
                    assert_eq!(consumers_of(core, load.seq), [add.seq, add.seq]);
                    doubly_linked = true;
                }
            }
        });
        assert!(doubly_linked);
        assert_eq!(core.swap_thread(None).unwrap().regs.read(Reg::X3), 42);
    }

    #[test]
    fn redispatched_consumers_relink_to_a_surviving_producer() {
        // The branch resolves long before the load that both of its paths
        // consume, so every mispredict squashes consumers linked to the
        // (surviving) load, and the corrected path links anew, reusing the
        // squashed sequence numbers.
        let mut b = ProgramBuilder::new("relink");
        b.data_u64(VirtAddr::new(0xa000), &[7]);
        let (top, skip, after) = (b.new_label(), b.new_label(), b.new_label());
        b.li(Reg::X9, 0xa000);
        b.li(Reg::X1, 0);
        b.bind_label(top);
        b.load(Reg::X5, Reg::X9, 0);
        b.li(Reg::X2, 20);
        b.blt(Reg::X1, Reg::X2, skip);
        b.add(Reg::X6, Reg::X5, Reg::X1);
        b.jump(after);
        b.bind_label(skip);
        b.add(Reg::X7, Reg::X5, Reg::X1);
        b.bind_label(after);
        b.add(Reg::X8, Reg::X8, Reg::X6);
        b.add(Reg::X8, Reg::X8, Reg::X7);
        b.addi(Reg::X1, Reg::X1, 1);
        b.blt_imm(Reg::X1, 24, top);
        b.halt();
        let p = b.build().unwrap();
        let mut core = OooCore::new(0, &SystemConfig::paper_default());
        let mut mem = FixedLatencyMemory::new(40, 1);
        core.swap_thread(Some(ThreadContext::new(p.clone(), 0)));
        let (mut squashed, mut reused) = (0, None::<std::ops::Range<u64>>);
        let mut relinked = false;
        let mut tail = 0;
        tick_to_halt(&mut core, &mut mem, |core| {
            if core.stats.squashed > squashed {
                squashed = core.stats.squashed;
                reused = Some(core.next_seq..tail);
            }
            tail = core.next_seq;
            let Some(range) = &reused else { return };
            for producer in core
                .rob
                .iter()
                .filter(|e| e.seq < range.start && !e.is_done())
            {
                relinked |= consumers_of(core, producer.seq)
                    .iter()
                    .any(|c| range.contains(c));
            }
        });
        assert!(squashed > 0, "the branch must mispredict");
        assert!(
            relinked,
            "a re-dispatched consumer must link to a surviving producer"
        );
        let mut interp = Interpreter::new(&p);
        let golden = interp.run(1_000_000).unwrap();
        let finished = core.swap_thread(None).unwrap();
        assert_eq!(finished.regs.snapshot(), golden.regs.snapshot());
    }

    /// A memory model that parks speculative loads to every third doubleword
    /// (as a delay-until-non-speculative defense would) and charges the rest
    /// an address-dependent latency.
    struct ParkingMemory(FixedLatencyMemory);

    impl MemoryModel for ParkingMemory {
        fn name(&self) -> &str {
            "parking"
        }
        fn fetch_instruction(&mut self, ctx: &MemAccessCtx) -> MemOutcome {
            self.0.fetch_instruction(ctx)
        }
        fn load(&mut self, ctx: &MemAccessCtx) -> MemOutcome {
            let word = ctx.vaddr.raw() / 8;
            if ctx.speculative && word.is_multiple_of(3) {
                return MemOutcome::RetryWhenNonSpeculative;
            }
            MemOutcome::Done {
                latency: 1 + word % 5 * 6,
            }
        }
        fn store_address_ready(&mut self, ctx: &MemAccessCtx) {
            self.0.store_address_ready(ctx)
        }
        fn commit_access(&mut self, ctx: &MemAccessCtx) -> u64 {
            self.0.commit_access(ctx)
        }
        fn on_squash(&mut self, core: usize, when: Cycle) {
            self.0.on_squash(core, when)
        }
        fn on_domain_switch(
            &mut self,
            core: usize,
            kind: crate::memmodel::DomainSwitch,
            when: Cycle,
        ) {
            self.0.on_domain_switch(core, kind, when)
        }
        fn stats(&self) -> StatSet {
            self.0.stats()
        }
    }

    /// A seeded random program looping `iterations` times over a body of
    /// ALU, multiply, load, store, atomic, barrier and short forward-branch
    /// operations on a 64-doubleword scratch region with random contents, so
    /// branch directions depend on loaded data.
    fn random_branchy_program(rng: &mut simkit::rng::SimRng, iterations: u64) -> Program {
        let mut b = ProgramBuilder::new("random-branchy");
        let data: Vec<u64> = (0..64).map(|_| rng.below(1 << 12)).collect();
        b.data_u64(VirtAddr::new(0x9000), &data);
        b.li(Reg::X1, 0x9000);
        b.li(Reg::X31, 0);
        let top = b.here();
        let len = rng.in_range(10, 60) as usize;
        let mut targets: Vec<(usize, uarch_isa::prog::Label)> = Vec::new();
        let reg = |rng: &mut simkit::rng::SimRng| Reg::from_index(2 + rng.below(28) as usize);
        for i in 0..len {
            for (_, label) in targets.iter().filter(|(at, _)| *at == i) {
                b.bind_label(*label);
            }
            targets.retain(|(at, _)| *at != i);
            let (rd, rs1, rs2) = (reg(rng), reg(rng), reg(rng));
            match rng.below(10) {
                0 | 1 => {
                    b.add(rd, rs1, rs2);
                }
                2 => {
                    b.addi(rd, rs1, rng.below(64) as i64);
                }
                3 => {
                    b.mul(rd, rs1, rs2);
                }
                4 | 5 => {
                    b.andi(Reg::X30, rs1, 0x1f8);
                    b.add(Reg::X30, Reg::X30, Reg::X1);
                    b.load(rd, Reg::X30, 0);
                }
                6 => {
                    b.andi(Reg::X30, rs1, 0x1f8);
                    b.add(Reg::X30, Reg::X30, Reg::X1);
                    b.store(rs2, Reg::X30, 0);
                }
                7 => {
                    b.andi(Reg::X30, rs1, 0x1f8);
                    b.add(Reg::X30, Reg::X30, Reg::X1);
                    b.amoadd(rd, rs2, Reg::X30);
                }
                8 => {
                    let label = b.new_label();
                    b.blt(rs1, rs2, label);
                    targets.push(((i + 1 + rng.below(4) as usize).min(len), label));
                }
                _ => {
                    if rng.chance(1, 3) {
                        b.spec_barrier();
                    } else {
                        b.li(rd, rng.below(1 << 12));
                    }
                }
            }
        }
        for (_, label) in targets {
            b.bind_label(label);
        }
        b.addi(Reg::X31, Reg::X31, 1);
        b.blt_imm(Reg::X31, iterations, top);
        b.halt();
        b.build().expect("random program builds")
    }

    #[test]
    fn random_programs_keep_the_select_invariants_on_a_small_window() {
        // ROB 32 / IQ 16: the window overflows, the 64-slot ring wraps, and
        // squashes reuse sequence numbers. Every tick checks the invariants.
        let cfg = SystemConfig::small_test();
        let (mut overflowed, mut squashed, mut parked) = (false, 0, 0);
        for seed in 0..48 {
            let mut rng = simkit::rng::SimRng::seed_from(0x5e1e_c700 + seed);
            let p = random_branchy_program(&mut rng, 4);
            let golden = Interpreter::new(&p)
                .run(1_000_000)
                .expect("interpreter halts");

            let mut core = OooCore::new(0, &cfg);
            let mut mem = ParkingMemory(FixedLatencyMemory::default());
            core.swap_thread(Some(ThreadContext::new(p.clone(), 0)));
            let cycles = tick_to_halt(&mut core, &mut mem, |core| {
                overflowed |= waiting_entries(core) > cfg.pipeline.iq_entries;
            });
            let ticked = core.swap_thread(None).unwrap();
            assert_eq!(
                ticked.regs.snapshot(),
                golden.regs.snapshot(),
                "seed {seed}"
            );
            squashed += core.stats().squashed;
            parked += core.stats().mem_retries;

            let mut fast = OooCore::new(0, &cfg);
            let mut mem = ParkingMemory(FixedLatencyMemory::default());
            let fast_cycles = fast
                .run_to_halt(ThreadContext::new(p, 0), &mut mem, 2_000_000)
                .expect("halts");
            assert_eq!(
                (fast_cycles, fast.stats()),
                (cycles, core.stats()),
                "seed {seed}"
            );
        }
        assert!(overflowed, "some program must overflow the issue window");
        assert!(squashed > 0, "some program must squash");
        assert!(parked > 0, "some program must park a load");
    }

    #[test]
    fn stats_convert_to_stat_set() {
        let mut b = ProgramBuilder::new("stats");
        b.li(Reg::X1, 1);
        b.halt();
        let p = b.build().unwrap();
        let (core, _, _) = run_program(&p);
        let set = core.stats().to_stat_set("core0");
        assert!(set.counter("core0.committed") >= 2);
        assert!(set.scalar("core0.ipc").is_some());
    }
}
