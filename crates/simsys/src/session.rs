//! The experiment session: a parallel, baseline-memoizing grid runner.
//!
//! Every figure in the paper's evaluation is a grid — workloads on one axis,
//! defense configurations on the other, each cell an execution time
//! normalised to the unprotected baseline. [`ExperimentSession`] is the one
//! runner behind all of them:
//!
//! * **Baseline memoization.** The normalisation denominator is an
//!   `Unprotected` run of the same workload. The session runs it once per
//!   (workload, machine) pair and shares it across every column, so an
//!   M-defense figure costs M+1 simulations per workload instead of 2M.
//!   Because the unprotected machine ignores the filter-cache geometry and
//!   protection toggles, sweeps over those knobs (figures 5, 6, 8, 9) share a
//!   single baseline per workload as well; see [`baseline_machine`].
//! * **Parallel execution.** Grid cells are independent simulations, so the
//!   session fans them out over a thread pool (default
//!   [`std::thread::available_parallelism`]). Results are placed by cell
//!   index, so the report ordering is deterministic regardless of thread
//!   count or scheduling.
//! * **Structured reports.** [`run`](ExperimentSession::run) returns a
//!   [`RunReport`] — per-cell [`CellResult`]s, normalised times, per-column
//!   geometric means and wall-clock metadata — which serialises to JSON
//!   through [`simkit::json`] (this build is offline, so that module stands
//!   in for serde; the wire format is plain JSON).
//! * **Persistent result store.** With
//!   [`with_store`](ExperimentSession::with_store), every raw simulation is
//!   keyed by a content fingerprint of its inputs and persisted in a
//!   [`ResultStore`]. A re-run of an unchanged
//!   grid — regenerating a figure after editing unrelated code — performs
//!   zero simulations; [`CellResult::cached`] and
//!   [`RunReport::sims_executed`] record the provenance so harnesses can
//!   assert hit rates. See [`crate::store`] for the keying rules.
//!
//! # Example
//!
//! ```
//! use simsys::session::ExperimentSession;
//! use defenses::DefenseKind;
//! use simkit::config::SystemConfig;
//! use workloads::{spec_suite, Scale};
//!
//! let report = ExperimentSession::new()
//!     .title("two kernels under MuonTrap and STT")
//!     .scale(Scale::Tiny)
//!     .workloads(spec_suite(Scale::Tiny).into_iter().take(2))
//!     .defenses([DefenseKind::MuonTrap, DefenseKind::SttSpectre])
//!     .config(SystemConfig::small_test())
//!     .run();
//! assert_eq!(report.cells.len(), 4);
//! assert_eq!(report.baseline_sims, 2); // one Unprotected run per workload
//! assert!(report.geomeans().iter().all(|g| *g > 0.0));
//! ```

use std::collections::HashMap;
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use simkit::config::{ProtectionConfig, SystemConfig};
use simkit::fingerprint::Fingerprint;
use simkit::json::{FromJson, Json, JsonError, ToJson};
use simkit::stats::{geometric_mean, StatSet};

use defenses::DefenseKind;
use workloads::{Scale, Workload};

use crate::runner::{self, Plan, UnitKind, WorkUnit};
use crate::store::{self, ResultStore};
use crate::system::System;

/// Result of running one workload under one configuration: the raw output of
/// [`simulate`], before any baseline normalisation.
///
/// This is also the unit the on-disk [`ResultStore`] persists, so it
/// round-trips through JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentResult {
    /// Workload name.
    pub workload: String,
    /// Defense label.
    pub defense: String,
    /// Simulated cycles to completion.
    pub cycles: u64,
    /// Committed instructions.
    pub committed: u64,
    /// Whether the run finished within its cycle budget.
    pub completed: bool,
    /// All statistics collected from the cores and the memory model.
    pub stats: StatSet,
}

impl ExperimentResult {
    /// Instructions per cycle for this run.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }
}

impl ToJson for ExperimentResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::Str(self.workload.clone())),
            ("defense", Json::Str(self.defense.clone())),
            ("cycles", Json::UInt(self.cycles)),
            ("committed", Json::UInt(self.committed)),
            ("completed", Json::Bool(self.completed)),
            ("stats", self.stats.to_json()),
        ])
    }
}

impl FromJson for ExperimentResult {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let str_field = |name: &str| -> Result<String, JsonError> {
            json.get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| JsonError::missing(name))
        };
        Ok(ExperimentResult {
            workload: str_field("workload")?,
            defense: str_field("defense")?,
            cycles: json
                .get("cycles")
                .and_then(Json::as_u64)
                .ok_or_else(|| JsonError::missing("cycles"))?,
            committed: json
                .get("committed")
                .and_then(Json::as_u64)
                .ok_or_else(|| JsonError::missing("committed"))?,
            completed: json
                .get("completed")
                .and_then(Json::as_bool)
                .ok_or_else(|| JsonError::missing("completed"))?,
            stats: StatSet::from_json(
                json.get("stats")
                    .ok_or_else(|| JsonError::missing("stats"))?,
            )?,
        })
    }
}

/// One column of the experiment grid: a labelled defense on a machine.
#[derive(Debug, Clone, PartialEq)]
struct Column {
    label: String,
    kind: DefenseKind,
    config: SystemConfig,
}

/// Builder and runner for one experiment grid.
///
/// Construct with [`ExperimentSession::new`], declare the grid through the
/// chained setters, then call [`run`](ExperimentSession::run).
#[derive(Debug, Clone)]
pub struct ExperimentSession {
    title: String,
    scale: Option<Scale>,
    workloads: Vec<Workload>,
    defenses: Vec<(Option<String>, DefenseKind)>,
    config: SystemConfig,
    config_sweep: Option<Vec<(String, SystemConfig)>>,
    threads: usize,
    memoize: bool,
    process_cache: bool,
    store: Option<ResultStore>,
}

impl ExperimentSession {
    /// A session with an empty grid on the paper-default machine.
    pub fn new() -> Self {
        ExperimentSession {
            title: String::new(),
            scale: None,
            workloads: Vec::new(),
            defenses: Vec::new(),
            config: SystemConfig::paper_default(),
            config_sweep: None,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            memoize: true,
            process_cache: false,
            store: None,
        }
    }

    /// Sets the report title.
    pub fn title(mut self, title: impl Into<String>) -> Self {
        self.title = title.into();
        self
    }

    /// Records the workload scale in the report (metadata only; the workloads
    /// themselves are whatever [`workloads`](Self::workloads) receives).
    pub fn scale(mut self, scale: Scale) -> Self {
        self.scale = Some(scale);
        self
    }

    /// Sets the workload axis of the grid.
    pub fn workloads(mut self, workloads: impl IntoIterator<Item = Workload>) -> Self {
        self.workloads = workloads.into_iter().collect();
        self
    }

    /// Sets the defense axis of the grid, labelled by [`DefenseKind::label`].
    pub fn defenses(mut self, kinds: impl IntoIterator<Item = DefenseKind>) -> Self {
        self.defenses = kinds.into_iter().map(|k| (None, k)).collect();
        self
    }

    /// Sets the defense axis with explicit column labels (used by the
    /// cumulative cost-breakdown figures, where several
    /// [`DefenseKind::MuonTrapCustom`] entries would otherwise share a label).
    pub fn defenses_labeled(
        mut self,
        kinds: impl IntoIterator<Item = (String, DefenseKind)>,
    ) -> Self {
        self.defenses = kinds.into_iter().map(|(l, k)| (Some(l), k)).collect();
        self
    }

    /// Sets the machine configuration every cell runs on.
    pub fn config(mut self, config: SystemConfig) -> Self {
        self.config = config;
        self
    }

    /// Sweeps machine configurations instead of defenses: the grid's columns
    /// become the labelled configurations, each run under every defense set
    /// via [`defenses`](Self::defenses) (typically exactly one — the
    /// filter-cache sweeps of figures 5 and 6 use MuonTrap only).
    pub fn config_sweep(
        mut self,
        configs: impl IntoIterator<Item = (String, SystemConfig)>,
    ) -> Self {
        self.config_sweep = Some(configs.into_iter().collect());
        self
    }

    /// Sets the worker-thread count (clamped to at least 1). Defaults to
    /// [`std::thread::available_parallelism`].
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Disables baseline memoization: every cell re-runs its own `Unprotected`
    /// baseline, as the pre-session harness did. Only useful for validating
    /// that memoization does not change results; costs ~2× the simulations.
    pub fn memoize(mut self, memoize: bool) -> Self {
        self.memoize = memoize;
        self
    }

    /// Shares baseline runs through a process-wide in-memory cache, so
    /// separate sessions over the same (workload, machine) pairs — e.g. a
    /// harness constructing one session per sweep point — skip repeated
    /// baselines. Off by default so [`RunReport::baseline_sims`] counts are
    /// self-contained and tests stay order-independent. For persistence
    /// *across* processes, use [`with_store`](Self::with_store) instead.
    pub fn process_cache(mut self, enabled: bool) -> Self {
        self.process_cache = enabled;
        self
    }

    /// Backs the session with a content-addressed on-disk result store rooted
    /// at `path` (created if absent). Every raw simulation — baselines and
    /// grid cells — is looked up by an input fingerprint before being
    /// dispatched and persisted after it completes, so re-running an
    /// unchanged grid performs zero simulations. See [`crate::store`].
    ///
    /// # Panics
    /// Panics if the store directory cannot be created; use
    /// [`store`](Self::store) with [`ResultStore::open`] to handle the error.
    pub fn with_store(self, path: impl Into<PathBuf>) -> Self {
        let path = path.into();
        let store = ResultStore::open(&path)
            .unwrap_or_else(|e| panic!("cannot open result store at {}: {e}", path.display()));
        self.store(Some(store))
    }

    /// Sets (or clears) the result store backing this session. See
    /// [`with_store`](Self::with_store).
    pub fn store(mut self, store: Option<ResultStore>) -> Self {
        self.store = store;
        self
    }

    fn columns(&self) -> Vec<Column> {
        match &self.config_sweep {
            None => self
                .defenses
                .iter()
                .map(|(label, kind)| Column {
                    label: label.clone().unwrap_or_else(|| kind.label().to_string()),
                    kind: *kind,
                    config: self.config.clone(),
                })
                .collect(),
            Some(sweep) => sweep
                .iter()
                .flat_map(|(cfg_label, cfg)| {
                    self.defenses.iter().map(move |(label, kind)| {
                        let kind_label = label.clone().unwrap_or_else(|| kind.label().to_string());
                        Column {
                            // With a single defense the configuration label is
                            // the whole story (figure 5's "64 B", "128 B", ...).
                            label: if self.defenses.len() == 1 {
                                cfg_label.clone()
                            } else {
                                format!("{cfg_label}/{kind_label}")
                            },
                            kind: *kind,
                            config: cfg.clone(),
                        }
                    })
                })
                .collect(),
        }
    }

    /// Derives the pure, host-independent execution [`Plan`] of this grid:
    /// every baseline and cell as a self-describing, fingerprint-keyed
    /// [`runner::WorkUnit`], in deterministic order.
    ///
    /// Planning performs no I/O and no simulation, and uses only
    /// [`store::cell_fingerprint`] for identity — so any two processes given
    /// the same session description derive interchangeable plans, which is
    /// what lets [`run_sharded`](Self::run_sharded) shards coordinate through
    /// nothing but a shared store directory.
    pub fn plan(&self) -> Plan {
        let columns = self.columns();
        let mut baselines: Vec<WorkUnit> = Vec::new();
        let mut seen: HashMap<Fingerprint, usize> = HashMap::new();
        let mut cells: Vec<WorkUnit> = Vec::new();
        for workload in &self.workloads {
            for column in &columns {
                let baseline_config = baseline_machine(&column.config);
                let baseline_fp =
                    store::cell_fingerprint(workload, DefenseKind::Unprotected, &baseline_config);
                // With memoization, one baseline unit per distinct machine;
                // without, one per cell (the validation mode's semantics).
                if !self.memoize || !seen.contains_key(&baseline_fp) {
                    seen.insert(baseline_fp, baselines.len());
                    baselines.push(WorkUnit {
                        kind: UnitKind::Baseline,
                        index: baselines.len(),
                        workload: workload.clone(),
                        defense: DefenseKind::Unprotected,
                        config: baseline_config.clone(),
                        fingerprint: baseline_fp,
                        column: None,
                        baseline: None,
                        copies_baseline: false,
                    });
                }
                let copies_baseline = column.kind == DefenseKind::Unprotected;
                let fingerprint = if copies_baseline {
                    // An explicit Unprotected column *is* the baseline.
                    baseline_fp
                } else {
                    store::cell_fingerprint(workload, column.kind, &column.config)
                };
                cells.push(WorkUnit {
                    kind: UnitKind::Cell,
                    index: cells.len(),
                    workload: workload.clone(),
                    defense: column.kind,
                    config: column.config.clone(),
                    fingerprint,
                    column: Some(column.label.clone()),
                    baseline: Some(baseline_fp),
                    copies_baseline,
                });
            }
        }
        Plan {
            title: self.title.clone(),
            scale: self.scale.map(|s| s.name().to_string()),
            threads: self.threads,
            workloads: self.workloads.iter().map(|w| w.name.clone()).collect(),
            columns: columns.into_iter().map(|c| c.label).collect(),
            baselines,
            cells,
            memoized: self.memoize,
        }
    }

    /// Runs the grid and returns the structured report.
    ///
    /// Since the runner refactor this is exactly
    /// [`plan`](Self::plan) → [`runner::execute_local`]
    /// → [`runner::merge_events`]: the same
    /// plan/execute/stream/merge pipeline a multi-process
    /// [`run_sharded`](Self::run_sharded) run uses, collapsed onto one
    /// process. Cells are executed in parallel across the configured thread
    /// pool; report ordering (workload-major, column-minor) is deterministic
    /// and independent of the thread count. With a
    /// [`store`](Self::with_store) attached, each simulation is first looked
    /// up by input fingerprint and results are persisted as they complete.
    pub fn run(self) -> RunReport {
        self.run_with_events(None)
    }

    /// [`run`](Self::run), additionally streaming one
    /// [`runner::RunEvent`] JSONL line to `sink` as
    /// each unit resolves (what `--events FILE` wires up on the binaries).
    pub fn run_with_events(self, sink: Option<&mut (dyn Write + Send)>) -> RunReport {
        let started = Instant::now();
        let plan = self.plan();
        let events = runner::execute_local(
            &plan,
            self.store.as_ref(),
            self.process_cache,
            self.threads,
            sink,
        );
        let wall_clock_ms = started.elapsed().as_secs_f64() * 1e3;
        let report = runner::merge_events(&plan, events, wall_clock_ms)
            .expect("a local execution resolves every cell");
        // Session-level telemetry: how much work this run did and how fast
        // it resolved cells, labelled by report title so concurrent sessions
        // in one process keep separate series.
        let metrics = obs::global();
        metrics.inc(
            "session.sims_executed",
            &[("figure", &report.title)],
            report.sims_executed as u64,
        );
        metrics.inc(
            "session.cells_resolved",
            &[("figure", &report.title)],
            report.cells.len() as u64,
        );
        if wall_clock_ms > 0.0 {
            metrics.set_gauge(
                "session.cells_per_sec",
                &[("figure", &report.title)],
                report.cells.len() as f64 / (wall_clock_ms / 1e3),
            );
        }
        report
    }

    /// Executes this session as one shard of a cooperating multi-process run.
    ///
    /// Every shard of the run must be constructed with the same grid and a
    /// store on the same directory, and share `options.run_id`. Units are
    /// handed out through expiring lease files under the store, so shards
    /// steal work from each other (and from crashed predecessors); results
    /// stream to `sink` as JSONL [`runner::RunEvent`]s.
    /// Fold the event logs into the final [`RunReport`] with
    /// [`runner::merge_events`] (or the `merge`
    /// binary).
    ///
    /// # Errors
    /// Returns an error when no store is attached, the store is read-only, or
    /// lease/store writes fail.
    pub fn run_sharded(
        &self,
        options: &runner::ShardOptions,
        sink: &mut (dyn Write + Send),
    ) -> io::Result<runner::ShardSummary> {
        let store = self.store.as_ref().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "a sharded run needs a result store (shards coordinate through its directory)",
            )
        })?;
        let plan = self.plan();
        runner::execute_shard(&plan, store, options, self.threads, sink)
    }
}

impl Default for ExperimentSession {
    fn default() -> Self {
        ExperimentSession::new()
    }
}

/// Runs `workload` under `kind` on a machine described by `config` — the one
/// raw simulation primitive everything else builds on.
///
/// No baseline is run and nothing is normalised or cached; callers that want
/// normalised times or memoization declare a grid on [`ExperimentSession`]
/// instead.
pub fn simulate(workload: &Workload, kind: DefenseKind, config: &SystemConfig) -> ExperimentResult {
    let started = std::time::Instant::now();
    let memory_model = kind.build(config);
    let mut system = System::new(config, memory_model);
    system.load_workload(&workload.thread_programs, workload.shared_memory);
    let report = system.run(workload.cycle_budget);
    // Per-unit simulation latency, visible in `--metrics` snapshots and any
    // registry dump; keyed by defense so sweeps show which columns dominate.
    obs::global().observe(
        "sim.unit_ms",
        &[("defense", kind.label())],
        started.elapsed().as_millis() as u64,
    );
    // Timing-loop traffic: per-core pipeline ticks the run performed
    // (the naive loop ticks every running core every cycle). `perf` reads
    // the delta to derive sim-cycles-per-event.
    obs::global().inc("sim.events", &[], system.events_processed());
    ExperimentResult {
        workload: workload.name.clone(),
        defense: kind.label().to_string(),
        cycles: report.cycles,
        committed: report.committed,
        completed: report.completed,
        stats: report.stats,
    }
}

/// The machine an `Unprotected` baseline actually sees.
///
/// The unprotected model instantiates no filter caches, no filter TLB and no
/// protection mechanisms, so two configurations differing only in those knobs
/// have identical baselines. Canonicalising them lets the filter-cache sweeps
/// of figures 5/6 and the cost breakdowns of figures 8/9 share one baseline
/// per workload. Every field the unprotected hierarchy *does* read (cores,
/// line size, pipeline, L1/L2 geometry, TLB, DRAM, prefetcher, scheduler
/// quantum) is preserved.
pub fn baseline_machine(config: &SystemConfig) -> SystemConfig {
    let mut cfg = config.clone();
    let canonical = SystemConfig::paper_default();
    cfg.protection = ProtectionConfig::unprotected();
    cfg.data_filter = canonical.data_filter;
    cfg.inst_filter = canonical.inst_filter;
    cfg.filter_tlb_entries = canonical.filter_tlb_entries;
    cfg
}

/// Key of a memoized baseline: the workload plus its canonical baseline
/// machine. Full values, not hashes, so cache hits can never alias distinct
/// experiments.
type BaselineKey = (Workload, SystemConfig);
/// The process-wide cache stores results only; store provenance is per-run.
type ProcessCache = HashMap<BaselineKey, Arc<ExperimentResult>>;

/// Process-wide baseline cache shared by sessions with
/// [`ExperimentSession::process_cache`] enabled (harnesses that construct a
/// fresh session per sweep point).
fn process_cache() -> &'static Mutex<ProcessCache> {
    static CACHE: OnceLock<Mutex<ProcessCache>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

pub(crate) fn process_cache_get(
    workload: &Workload,
    config: &SystemConfig,
) -> Option<ExperimentResult> {
    process_cache()
        .lock()
        .unwrap()
        .get(&(workload.clone(), config.clone()))
        .map(|arc| (**arc).clone())
}

pub(crate) fn process_cache_put(
    workload: &Workload,
    config: &SystemConfig,
    value: Arc<ExperimentResult>,
) {
    process_cache()
        .lock()
        .unwrap()
        .insert((workload.clone(), config.clone()), value);
}

/// One grid cell of a [`RunReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Workload (benchmark) name.
    pub workload: String,
    /// Column label (defense label, or sweep-point label for config sweeps).
    pub column: String,
    /// Defense label of the model that produced [`cycles`](Self::cycles).
    pub defense: String,
    /// Simulated cycles to completion.
    pub cycles: u64,
    /// Committed instructions.
    pub committed: u64,
    /// Whether the run finished within its cycle budget.
    pub completed: bool,
    /// Whether this cell's simulation was satisfied by the on-disk result
    /// store instead of being executed (always `false` without a store; for
    /// `Unprotected` columns, the provenance of the shared baseline run).
    pub cached: bool,
    /// Simulated cycles of the shared `Unprotected` baseline.
    pub baseline_cycles: u64,
    /// `cycles / baseline_cycles` (1.0 = no overhead; the y-axis of the
    /// normalised-execution-time figures).
    pub normalized_time: f64,
    /// All statistics collected from the cores and the memory model.
    pub stats: StatSet,
}

impl CellResult {
    /// Instructions per cycle for this cell.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }
}

/// The structured result of one [`ExperimentSession::run`].
///
/// Cells are ordered workload-major, column-minor: the cell for workload `w`
/// and column `c` is `cells[w * columns.len() + c]`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Session title.
    pub title: String,
    /// Workload scale recorded via [`ExperimentSession::scale`], if any.
    pub scale: Option<String>,
    /// Worker-thread count the grid ran on.
    pub threads: usize,
    /// Wall-clock duration of the whole grid, in milliseconds.
    pub wall_clock_ms: f64,
    /// Number of `Unprotected` baseline simulations actually executed
    /// (store and process-cache hits are not executions).
    pub baseline_sims: usize,
    /// Total simulations actually executed for this report — baselines plus
    /// grid cells, excluding every store, process-cache and memoization hit.
    /// A re-run of an unchanged grid against a warm store reports zero.
    pub sims_executed: usize,
    /// Workload names, grid order.
    pub workloads: Vec<String>,
    /// Column labels, grid order.
    pub columns: Vec<String>,
    /// All grid cells, workload-major.
    pub cells: Vec<CellResult>,
}

impl RunReport {
    /// The cell for workload index `w` and column index `c`.
    pub fn cell(&self, w: usize, c: usize) -> &CellResult {
        &self.cells[w * self.columns.len() + c]
    }

    /// Total simulations this report paid for (cells that were not satisfied
    /// by the baseline cache, plus the baselines themselves). This is the
    /// *logical* grid cost; [`sims_executed`](Self::sims_executed) is the
    /// number actually run once store hits are subtracted.
    pub fn total_sims(&self) -> usize {
        let unprotected_cells = self
            .cells
            .iter()
            .filter(|cell| cell.defense == DefenseKind::Unprotected.label())
            .count();
        self.baseline_sims + self.cells.len() - unprotected_cells
    }

    /// Number of grid cells whose simulation came from the result store.
    pub fn cached_cells(&self) -> usize {
        self.cells.iter().filter(|cell| cell.cached).count()
    }

    /// Fraction of grid cells satisfied by the result store (0.0 with no
    /// store or a cold one, 1.0 for a fully warm re-run; 0.0 for an empty
    /// grid).
    pub fn cache_hit_rate(&self) -> f64 {
        if self.cells.is_empty() {
            0.0
        } else {
            self.cached_cells() as f64 / self.cells.len() as f64
        }
    }

    /// The geometric mean of each column's normalised times (the "geomean"
    /// bar the paper reports in figures 3 and 4).
    pub fn geomeans(&self) -> Vec<f64> {
        (0..self.columns.len())
            .map(|c| {
                let column: Vec<f64> = (0..self.workloads.len())
                    .map(|w| self.cell(w, c).normalized_time)
                    .collect();
                geometric_mean(&column)
            })
            .collect()
    }

    /// Renders the report as an aligned text table (what `figure <name>`
    /// prints without `--json`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        out.push_str(&format!("{:<16}", "workload"));
        for c in &self.columns {
            out.push_str(&format!("{c:>24}"));
        }
        out.push('\n');
        for w in 0..self.workloads.len() {
            out.push_str(&format!("{:<16}", self.workloads[w]));
            for c in 0..self.columns.len() {
                out.push_str(&format!("{:>24.3}", self.cell(w, c).normalized_time));
            }
            out.push('\n');
        }
        out.push_str(&format!("{:<16}", "geomean"));
        for g in self.geomeans() {
            out.push_str(&format!("{g:>24.3}"));
        }
        out.push('\n');
        out
    }
}

impl ToJson for CellResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::Str(self.workload.clone())),
            ("column", Json::Str(self.column.clone())),
            ("defense", Json::Str(self.defense.clone())),
            ("cycles", Json::UInt(self.cycles)),
            ("committed", Json::UInt(self.committed)),
            ("completed", Json::Bool(self.completed)),
            ("cached", Json::Bool(self.cached)),
            ("baseline_cycles", Json::UInt(self.baseline_cycles)),
            ("normalized_time", Json::Num(self.normalized_time)),
            ("stats", self.stats.to_json()),
        ])
    }
}

impl FromJson for CellResult {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let str_field = |name: &str| -> Result<String, JsonError> {
            json.get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| JsonError::missing(name))
        };
        Ok(CellResult {
            workload: str_field("workload")?,
            column: str_field("column")?,
            defense: str_field("defense")?,
            cycles: json
                .get("cycles")
                .and_then(Json::as_u64)
                .ok_or_else(|| JsonError::missing("cycles"))?,
            committed: json
                .get("committed")
                .and_then(Json::as_u64)
                .ok_or_else(|| JsonError::missing("committed"))?,
            completed: json
                .get("completed")
                .and_then(Json::as_bool)
                .ok_or_else(|| JsonError::missing("completed"))?,
            cached: json
                .get("cached")
                .and_then(Json::as_bool)
                .ok_or_else(|| JsonError::missing("cached"))?,
            baseline_cycles: json
                .get("baseline_cycles")
                .and_then(Json::as_u64)
                .ok_or_else(|| JsonError::missing("baseline_cycles"))?,
            normalized_time: json
                .get("normalized_time")
                .and_then(Json::as_f64)
                .ok_or_else(|| JsonError::missing("normalized_time"))?,
            stats: StatSet::from_json(
                json.get("stats")
                    .ok_or_else(|| JsonError::missing("stats"))?,
            )?,
        })
    }
}

impl ToJson for RunReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("title", Json::Str(self.title.clone())),
            (
                "scale",
                match &self.scale {
                    Some(s) => Json::Str(s.clone()),
                    None => Json::Null,
                },
            ),
            ("threads", Json::UInt(self.threads as u64)),
            ("wall_clock_ms", Json::Num(self.wall_clock_ms)),
            ("baseline_sims", Json::UInt(self.baseline_sims as u64)),
            ("sims_executed", Json::UInt(self.sims_executed as u64)),
            (
                "workloads",
                Json::Arr(self.workloads.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "columns",
                Json::Arr(self.columns.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "geomeans",
                Json::Arr(self.geomeans().into_iter().map(Json::Num).collect()),
            ),
            (
                "cells",
                Json::Arr(self.cells.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

impl FromJson for RunReport {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let str_list = |name: &str| -> Result<Vec<String>, JsonError> {
            json.get(name)
                .and_then(Json::as_arr)
                .ok_or_else(|| JsonError::missing(name))?
                .iter()
                .map(|v| {
                    v.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| JsonError::missing(name))
                })
                .collect()
        };
        let scale = match json.get("scale") {
            Some(Json::Null) | None => None,
            Some(Json::Str(s)) => Some(s.clone()),
            Some(_) => return Err(JsonError::missing("scale")),
        };
        Ok(RunReport {
            title: json
                .get("title")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| JsonError::missing("title"))?,
            scale,
            threads: json
                .get("threads")
                .and_then(Json::as_usize)
                .ok_or_else(|| JsonError::missing("threads"))?,
            wall_clock_ms: json
                .get("wall_clock_ms")
                .and_then(Json::as_f64)
                .ok_or_else(|| JsonError::missing("wall_clock_ms"))?,
            baseline_sims: json
                .get("baseline_sims")
                .and_then(Json::as_usize)
                .ok_or_else(|| JsonError::missing("baseline_sims"))?,
            sims_executed: json
                .get("sims_executed")
                .and_then(Json::as_usize)
                .ok_or_else(|| JsonError::missing("sims_executed"))?,
            workloads: str_list("workloads")?,
            columns: str_list("columns")?,
            cells: json
                .get("cells")
                .and_then(Json::as_arr)
                .ok_or_else(|| JsonError::missing("cells"))?
                .iter()
                .map(CellResult::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::json;
    use workloads::spec_suite;

    fn tiny_session(workloads_count: usize, kinds: &[DefenseKind]) -> ExperimentSession {
        ExperimentSession::new()
            .title("test grid")
            .scale(Scale::Tiny)
            .workloads(spec_suite(Scale::Tiny).into_iter().take(workloads_count))
            .defenses(kinds.iter().copied())
            .config(SystemConfig::small_test())
    }

    #[test]
    fn grid_shape_and_ordering_are_deterministic() {
        let report = tiny_session(3, &[DefenseKind::MuonTrap, DefenseKind::InsecureL0]).run();
        assert_eq!(report.workloads.len(), 3);
        assert_eq!(report.columns, vec!["muontrap", "insecure-l0"]);
        assert_eq!(report.cells.len(), 6);
        for (w, name) in report.workloads.iter().enumerate() {
            for c in 0..report.columns.len() {
                let cell = report.cell(w, c);
                assert_eq!(&cell.workload, name);
                assert_eq!(cell.column, report.columns[c]);
                assert!(cell.normalized_time > 0.0);
            }
        }
    }

    #[test]
    fn one_baseline_per_workload_and_unprotected_columns_are_free() {
        let report = tiny_session(2, &[DefenseKind::Unprotected, DefenseKind::MuonTrap]).run();
        assert_eq!(report.baseline_sims, 2);
        // 2 baselines + 2 muontrap cells; the 2 unprotected cells reuse them.
        assert_eq!(report.total_sims(), 4);
        for w in 0..2 {
            assert_eq!(report.cell(w, 0).normalized_time, 1.0);
            assert_eq!(report.cell(w, 0).cycles, report.cell(w, 0).baseline_cycles);
        }
    }

    #[test]
    fn config_sweep_shares_one_baseline_per_workload() {
        let base = SystemConfig::small_test();
        let sweep: Vec<(String, SystemConfig)> = [64u64, 128, 512]
            .into_iter()
            .map(|size| {
                let mut cfg = base.clone();
                cfg.data_filter = simkit::config::CacheConfig::new(
                    size,
                    (size / cfg.line_bytes).max(1) as usize,
                    1,
                    4,
                );
                (format!("{size} B"), cfg)
            })
            .collect();
        let report = ExperimentSession::new()
            .workloads(spec_suite(Scale::Tiny).into_iter().take(2))
            .defenses([DefenseKind::MuonTrap])
            .config_sweep(sweep)
            .run();
        assert_eq!(report.columns, vec!["64 B", "128 B", "512 B"]);
        // The sweep only varies filter-cache geometry, which the unprotected
        // baseline ignores — one baseline per workload, not per sweep point.
        assert_eq!(report.baseline_sims, 2);
    }

    #[test]
    fn unmemoized_runs_match_memoized_cell_for_cell() {
        let kinds = [DefenseKind::MuonTrap, DefenseKind::SttSpectre];
        let memoized = tiny_session(2, &kinds).run();
        let unmemoized = tiny_session(2, &kinds).memoize(false).run();
        assert!(unmemoized.baseline_sims > memoized.baseline_sims);
        assert_eq!(memoized.cells, unmemoized.cells);
        assert_eq!(memoized.columns, unmemoized.columns);
    }

    #[test]
    fn parallel_and_serial_runs_produce_identical_ordered_results() {
        let kinds = [DefenseKind::MuonTrap, DefenseKind::InsecureL0];
        let serial = tiny_session(4, &kinds).threads(1).run();
        let parallel = tiny_session(4, &kinds).threads(4).run();
        assert_eq!(serial.cells, parallel.cells);
        assert_eq!(serial.workloads, parallel.workloads);
        assert_eq!(serial.geomeans(), parallel.geomeans());
    }

    #[test]
    fn report_json_round_trips() {
        let report = tiny_session(2, &[DefenseKind::MuonTrap]).run();
        let text = report.to_json().to_string_compact();
        let back = RunReport::from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, report);
        // Pretty form parses to the same document too.
        let pretty =
            RunReport::from_json(&json::parse(&report.to_json().to_string_pretty()).unwrap())
                .unwrap();
        assert_eq!(pretty, report);
    }

    #[test]
    fn render_includes_title_columns_and_geomean() {
        let report = tiny_session(2, &[DefenseKind::MuonTrap]).run();
        let text = report.render();
        assert!(text.contains("test grid"));
        assert!(text.contains("muontrap"));
        assert!(text.contains("geomean"));
    }

    #[test]
    fn process_cache_reuses_baselines_across_sessions() {
        // Use a distinctive machine so parallel-running tests cannot have
        // primed the cache for these keys.
        let mut cfg = SystemConfig::small_test();
        cfg.scheduler_quantum = 19_997;
        let workloads: Vec<Workload> = spec_suite(Scale::Tiny)
            .into_iter()
            .skip(5)
            .take(2)
            .collect();
        let first = ExperimentSession::new()
            .workloads(workloads.clone())
            .defenses([DefenseKind::MuonTrap])
            .config(cfg.clone())
            .process_cache(true)
            .run();
        assert_eq!(first.baseline_sims, 2);
        let second = ExperimentSession::new()
            .workloads(workloads)
            .defenses([DefenseKind::MuonTrap])
            .config(cfg)
            .process_cache(true)
            .run();
        assert_eq!(
            second.baseline_sims, 0,
            "second session must hit the process cache"
        );
        assert_eq!(first.cells, second.cells);
    }

    fn temp_store_dir(tag: &str) -> std::path::PathBuf {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos();
        std::env::temp_dir().join(format!(
            "muontrap-session-test-{tag}-{}-{nanos}",
            std::process::id()
        ))
    }

    /// Strips the store-provenance flag so cold and warm runs compare equal
    /// on the simulation payload.
    fn without_provenance(cells: &[CellResult]) -> Vec<CellResult> {
        cells
            .iter()
            .cloned()
            .map(|mut cell| {
                cell.cached = false;
                cell
            })
            .collect()
    }

    #[test]
    fn warm_store_rerun_simulates_nothing_and_matches_cell_for_cell() {
        let dir = temp_store_dir("warm");
        let session =
            || tiny_session(2, &[DefenseKind::Unprotected, DefenseKind::MuonTrap]).with_store(&dir);
        let cold = session().run();
        assert_eq!(cold.baseline_sims, 2);
        assert_eq!(cold.sims_executed, 4); // 2 baselines + 2 muontrap cells
        assert_eq!(cold.cached_cells(), 0);
        assert_eq!(cold.cache_hit_rate(), 0.0);

        let warm = session().run();
        assert_eq!(warm.sims_executed, 0, "warm store must satisfy every cell");
        assert_eq!(warm.baseline_sims, 0);
        assert_eq!(warm.cached_cells(), warm.cells.len());
        assert_eq!(warm.cache_hit_rate(), 1.0);
        assert!(warm.cells.iter().all(|cell| cell.cached));
        assert_eq!(
            without_provenance(&cold.cells),
            without_provenance(&warm.cells),
            "store hits must reproduce simulated results exactly"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_misses_only_the_changed_cells() {
        let dir = temp_store_dir("partial");
        let first = tiny_session(2, &[DefenseKind::MuonTrap])
            .with_store(&dir)
            .run();
        assert_eq!(first.sims_executed, 4);

        // Adding a column re-uses the stored baselines and MuonTrap cells;
        // only the two new STT cells simulate.
        let second = tiny_session(2, &[DefenseKind::MuonTrap, DefenseKind::SttSpectre])
            .with_store(&dir)
            .run();
        assert_eq!(second.sims_executed, 2);
        assert_eq!(second.baseline_sims, 0);
        for (w, name) in second.workloads.iter().enumerate() {
            assert!(second.cell(w, 0).cached, "{name} muontrap cell must hit");
            assert!(!second.cell(w, 1).cached, "{name} stt cell must miss");
        }
        assert_eq!(second.cached_cells(), 2);
        assert_eq!(second.cache_hit_rate(), 0.5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_store_entries_fall_back_to_resimulation() {
        let dir = temp_store_dir("corrupt");
        let session = || tiny_session(1, &[DefenseKind::MuonTrap]).with_store(&dir);
        let cold = session().run();
        assert_eq!(cold.sims_executed, 2);

        // Vandalise every entry on disk; the rerun must quietly re-simulate
        // everything and produce identical numbers.
        let store = crate::store::ResultStore::open(&dir).unwrap();
        let mut vandalised = 0;
        for shard in std::fs::read_dir(&dir).unwrap() {
            for entry in std::fs::read_dir(shard.unwrap().path()).unwrap() {
                std::fs::write(entry.unwrap().path(), "not json at all").unwrap();
                vandalised += 1;
            }
        }
        assert_eq!(vandalised, 2);
        let recovered = session().run();
        assert_eq!(
            recovered.sims_executed, 2,
            "corrupt entries must re-simulate"
        );
        assert_eq!(recovered.cached_cells(), 0);
        assert_eq!(
            without_provenance(&cold.cells),
            without_provenance(&recovered.cells)
        );
        // And the rewrite healed the store.
        assert_eq!(store.len(), 2);
        assert_eq!(session().run().sims_executed, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn process_cache_hits_write_through_to_the_store() {
        // A distinctive machine so concurrently-running tests cannot have
        // primed the process cache for these keys.
        let mut cfg = SystemConfig::small_test();
        cfg.scheduler_quantum = 19_993;
        let workloads: Vec<Workload> = spec_suite(Scale::Tiny)
            .into_iter()
            .skip(3)
            .take(1)
            .collect();
        let session = || {
            ExperimentSession::new()
                .workloads(workloads.clone())
                .defenses([DefenseKind::MuonTrap])
                .config(cfg.clone())
        };
        // Prime the process cache with no store attached.
        let first = session().process_cache(true).run();
        assert_eq!(first.baseline_sims, 1);
        // The baseline now comes from the process cache, but must still be
        // written through to the newly attached store...
        let dir = temp_store_dir("writethrough");
        let second = session().process_cache(true).with_store(&dir).run();
        assert_eq!(second.baseline_sims, 0);
        // ...so a store-only rerun (e.g. a fresh process) is fully warm.
        let third = session().with_store(&dir).run();
        assert_eq!(
            third.sims_executed, 0,
            "process-cache hits must leave the store warm"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_respects_config_and_scale_changes() {
        let dir = temp_store_dir("keys");
        let report = tiny_session(1, &[DefenseKind::MuonTrap])
            .with_store(&dir)
            .run();
        assert_eq!(report.sims_executed, 2);
        // A different machine shares nothing with the stored entries.
        let other_machine = tiny_session(1, &[DefenseKind::MuonTrap])
            .config(SystemConfig::paper_default())
            .with_store(&dir)
            .run();
        assert_eq!(other_machine.sims_executed, 2);
        // A different workload set shares nothing either.
        let other_workload = ExperimentSession::new()
            .workloads(spec_suite(Scale::Tiny).into_iter().skip(1).take(1))
            .defenses([DefenseKind::MuonTrap])
            .config(SystemConfig::small_test())
            .with_store(&dir)
            .run();
        assert_eq!(other_workload.sims_executed, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn baseline_machine_canonicalises_protection_knobs_only() {
        let mut swept = SystemConfig::small_test();
        swept.data_filter = simkit::config::CacheConfig::new(64, 1, 1, 1);
        swept.protection = ProtectionConfig::muontrap_parallel_l1();
        let base = baseline_machine(&SystemConfig::small_test());
        assert_eq!(baseline_machine(&swept), base);
        // Fields the unprotected machine does read must be preserved.
        let mut bigger = SystemConfig::small_test();
        bigger.l2 = simkit::config::CacheConfig::new(128 * 1024, 8, 20, 8);
        assert_ne!(baseline_machine(&bigger), base);
    }
}
