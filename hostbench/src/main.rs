//! Host-time benchmark of the MuonTrap reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path hostbench/Cargo.toml -- \
//!     --workload spec-grid|parsec-sweep|warm-report --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root: the output check reads the committed
//! goldens under `tests/goldens/hotpath/`, and temporary stores and span files
//! go under `.bench_work/`. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and the metrics — the end-to-end
//! ones with `--trace 0`, the per-layer ones with `--trace 1`. See
//! `hostbench/README.md` for what each workload and metric means.

use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use hostbench::golden::{self, Golden, Provenance};
use hostbench::grid::{self, Permuted, DEFAULT_SEED};
use hostbench::stats::{geometric_mean, median, tail};
use hostbench::timed::{StoreCounters, TimedBackend, MM_METHODS};
use hostbench::trace::{self, Trace};
use hostbench::traced::{self, TracedUnit};
use simkit::fingerprint::Fingerprint;
use simkit::json::Json;
use simkit::rng::SimRng;
use simsys::runner::{Plan, UnitKind, WorkUnit};
use simsys::session::{ExperimentResult, RunReport};
use simsys::store::{FsBackend, ResultStore};
use workloads::Scale;

const USAGE: &str =
    "usage: hostbench --workload spec-grid|parsec-sweep|warm-report --seed N --seconds S --trace 0|1";

/// The scale every workload runs at. A tiny-scale grid pass takes about 2 s,
/// so a run times several and reports their median, which sheds host
/// slowdowns of a few seconds; a small-scale pass (about 30 s) would fill a
/// run alone and carry every slowdown within it.
const SCALE: Scale = Scale::Tiny;
/// Run id stamped into rendered provenance lines.
const RUN_ID: &str = "hostbench";
/// Set-ups per run on the grid workloads (generation + planning).
const GRID_SETUPS: usize = 51;
/// Store fills per run on `warm-report`.
const WARM_FILLS: usize = 2;
/// Traced (and untraced reference) regenerations in a traced `warm-report`.
const TRACED_REGENS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    SpecGrid,
    ParsecSweep,
    WarmReport,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "spec-grid" => Some(Workload::SpecGrid),
            "parsec-sweep" => Some(Workload::ParsecSweep),
            "warm-report" => Some(Workload::WarmReport),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::SpecGrid => "spec-grid",
            Workload::ParsecSweep => "parsec-sweep",
            Workload::WarmReport => "warm-report",
        }
    }

    fn figures(self) -> &'static [&'static str] {
        match self {
            Workload::SpecGrid => &["fig3", "domain"],
            Workload::ParsecSweep => &["fig5"],
            Workload::WarmReport => &bench::FIGURE_NAMES,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// What a run reports.
struct Outcome {
    errors: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Human-readable context printed above the result line.
    notes: Vec<String>,
}

impl Outcome {
    fn new() -> Outcome {
        Outcome {
            errors: Vec::new(),
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn check(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            self.errors.push(e);
        }
    }

    fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    Json::Str(m.name.clone()).to_string_compact(),
                    m.value,
                    Json::Str(m.unit.to_string()).to_string_compact()
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn seeded(seed: u64) -> Option<SimRng> {
    (seed != DEFAULT_SEED).then(|| SimRng::seed_from(seed))
}

fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn load_goldens(root: &Path, workload: Workload) -> Result<HashMap<&'static str, Golden>, String> {
    workload
        .figures()
        .iter()
        .map(|name| Ok((*name, golden::load(root, name, SCALE)?)))
        .collect()
}

/// A plan unit across repetitions: its figure, kind and fingerprint.
type UnitId = (&'static str, UnitKind, Fingerprint);

/// Samples gathered by an untraced run. Its first document (a grid pass or
/// a regeneration) warms the process up: it is checked like every other but
/// not timed.
struct Timed {
    /// How every report of the workload relates to its golden.
    provenance: Provenance,
    setup_s: Vec<f64>,
    /// Host time of each timed document.
    doc_ms: Vec<f64>,
    /// Host time of each unit, one sample per timed document.
    unit_ms: HashMap<UnitId, Vec<f64>>,
    /// Cells and committed instructions of one document.
    doc_cells: u64,
    doc_committed: u64,
}

impl Timed {
    fn new(provenance: Provenance) -> Timed {
        Timed {
            provenance,
            setup_s: Vec::new(),
            doc_ms: Vec::new(),
            unit_ms: HashMap::new(),
            doc_cells: 0,
            doc_committed: 0,
        }
    }

    /// Folds one figure of a document into the totals and checks it against
    /// its golden; `warm_up` marks the untimed first document.
    fn add(
        &mut self,
        out: &mut Outcome,
        figure: &'static str,
        report: &RunReport,
        exec: grid::Execution,
        golden: &Golden,
        warm_up: bool,
    ) {
        out.check(golden::check(report, golden, self.provenance));
        out.attempted += exec.units as u64;
        out.failed += report.cells.iter().filter(|c| !c.completed).count() as u64;
        if self.provenance == Provenance::Warm {
            // A unit simulated during a warm regeneration missed the store.
            out.failed += exec.simulated as u64;
        }
        if warm_up {
            self.doc_cells += report.cells.len() as u64;
            self.doc_committed += report.cells.iter().map(|c| c.committed).sum::<u64>();
            return;
        }
        for ((kind, fingerprint), ms) in exec.unit_ms {
            self.unit_ms
                .entry((figure, kind, fingerprint))
                .or_default()
                .push(ms);
        }
    }

    fn report(self, out: &mut Outcome) -> Result<(), String> {
        let doc_ms = median(&self.doc_ms);
        let doc_tail = tail(&self.doc_ms);
        // One sample per unit: the median of its repetitions in this run.
        let unit_ms: Vec<f64> = self.unit_ms.values().map(|ms| median(ms)).collect();
        let unit_tail = tail(&unit_ms);
        out.metric("setup_s", median(&self.setup_s), "s");
        out.metric("cells_per_s", self.doc_cells as f64 * 1e3 / doc_ms, "1/s");
        out.metric("doc_ms_p50", doc_ms, "ms");
        out.metric("unit_ms_gmean", geometric_mean(&unit_ms), "ms");
        out.metric("unit_ms_tail", unit_tail.value, "ms");
        out.metric("peak_rss_mib", peak_rss_mib()?, "MiB");
        out.notes.push(format!(
            "setup_s is the median of {} set-ups; doc_ms_p50 is the median of {} documents, \
             whose p{:.1} is {:.3} ms; unit_ms_tail is p{:.1} of {} unit medians",
            self.setup_s.len(),
            self.doc_ms.len(),
            doc_tail.percentile,
            doc_tail.value,
            unit_tail.percentile,
            unit_tail.samples
        ));
        out.notes.push(format!(
            "one document resolves {} cells committing {} simulated instructions: \
             {:.4} Minst/s at the median document",
            self.doc_cells,
            self.doc_committed,
            self.doc_committed as f64 / doc_ms / 1e3
        ));
        Ok(())
    }
}

/// Whether the timed phase started at `phase` still has room for another
/// document like the last one (`last_ms`); it always times one.
fn another_fits(phase: Option<Instant>, last_ms: f64, seconds: f64) -> bool {
    phase.is_none_or(|phase| ms_since(phase) + last_ms <= seconds * 1e3)
}

/// A grid workload, untraced: simulate every unit of its figures (in seed
/// order) and render each figure's page, for whole passes. The first pass
/// warms up; the timed phase starts after it.
fn grid_timed(workload: Workload, args: &Args, root: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let mut timed = Timed::new(Provenance::Simulated);
    let mut plans: Vec<(&str, Plan)> = Vec::new();
    for _ in 0..GRID_SETUPS {
        let started = Instant::now();
        plans = workload
            .figures()
            .iter()
            .map(|name| (*name, grid::plan(name, SCALE, None)))
            .collect();
        timed.setup_s.push(started.elapsed().as_secs_f64());
    }
    let goldens = load_goldens(root, workload)?;
    let mut rng = seeded(args.seed);
    let mut phase = None;
    loop {
        let permuted: Vec<Permuted> = plans
            .iter()
            .map(|(_, plan)| Permuted::new(plan.clone(), rng.as_mut()))
            .collect();
        let started = Instant::now();
        let mut executions = Vec::new();
        for ((name, _), permuted) in plans.iter().zip(&permuted) {
            let (report, exec) = grid::execute(permuted, None);
            let page = bench::render::figure_document(name, &report, RUN_ID)
                .expect("every grid figure has chart metadata");
            std::hint::black_box(page);
            executions.push((*name, report, exec));
        }
        let pass_ms = ms_since(started);
        let warm_up = phase.is_none();
        if !warm_up {
            timed.doc_ms.push(pass_ms);
        }
        for (name, report, exec) in executions {
            timed.add(&mut out, name, &report, exec, &goldens[name], warm_up);
        }
        if !another_fits(phase, pass_ms, args.seconds) {
            break;
        }
        phase.get_or_insert_with(Instant::now);
    }
    timed.report(&mut out)?;
    Ok(out)
}

/// One whole-document regeneration against a store.
struct Regeneration {
    html: String,
    /// Figure name, report and execution, per figure.
    figures: Vec<(&'static str, RunReport, grid::Execution)>,
    census_programs: usize,
}

/// What `report --scale tiny --html-only` does against a warm store: plan
/// every figure, resolve every unit from the store, merge, run the speclint
/// census and render the evaluation document. The reports carry zero wall
/// clocks, so the document is byte-identical across repetitions.
fn regenerate(store: &ResultStore, rng: &mut Option<SimRng>) -> Regeneration {
    let mut reports = Vec::new();
    let mut executions = Vec::new();
    for name in bench::FIGURE_NAMES {
        let plan = grid::plan(name, SCALE, Some(store));
        let (report, exec) = grid::execute(&Permuted::new(plan, rng.as_mut()), Some(store));
        reports.push((name.to_string(), report));
        executions.push((name, exec));
    }
    let census = trace::span("speclint.census", || {
        bench::lint::corpus_census(SCALE, &speclint::AnalyzerConfig::default())
    });
    let html = trace::span("render.html", || {
        bench::render::evaluation_document(&reports, RUN_ID, SCALE.name(), Some(&census))
    });
    let figures = executions
        .into_iter()
        .zip(reports)
        .map(|((name, exec), (_, report))| (name, report, exec))
        .collect();
    Regeneration {
        html,
        figures,
        census_programs: census.programs.len(),
    }
}

fn fs_store(dir: &Path) -> Result<ResultStore, String> {
    fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(ResultStore::with_backend(Arc::new(FsBackend::new(dir))))
}

/// `warm-report`, untraced: fill fresh stores (the set-up), then regenerate
/// the whole evaluation document from the last one: once to warm up, then
/// for the run's seconds.
fn warm_timed(args: &Args, root: &Path, work: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let mut timed = Timed::new(Provenance::Warm);
    let goldens = load_goldens(root, Workload::WarmReport)?;
    let mut store = None;
    for fill in 0..WARM_FILLS {
        let dir = work.join(format!("store{fill}"));
        let started = Instant::now();
        let filled = fs_store(&dir)?;
        let reports: Vec<(&str, RunReport)> = bench::FIGURE_NAMES
            .iter()
            .map(|name| {
                let session = bench::figure_session(
                    name,
                    SCALE,
                    &simkit::config::SystemConfig::paper_default(),
                    1,
                    Some(&filled),
                )
                .expect("every listed figure resolves");
                (*name, session.run())
            })
            .collect();
        timed.setup_s.push(started.elapsed().as_secs_f64());
        for (name, report) in &reports {
            out.check(golden::check(report, &goldens[name], Provenance::Shared));
        }
        if let Some((old, _)) = store.replace((dir, filled)) {
            let _ = fs::remove_dir_all(old);
        }
    }
    let (_, store) = store.expect("at least one fill");
    let mut rng = seeded(args.seed);
    let mut first_html: Option<String> = None;
    let mut phase = None;
    loop {
        let started = Instant::now();
        let regen = regenerate(&store, &mut rng);
        let doc_ms = ms_since(started);
        let warm_up = phase.is_none();
        if !warm_up {
            timed.doc_ms.push(doc_ms);
        }
        match &first_html {
            None => first_html = Some(regen.html),
            Some(first) if *first != regen.html => out
                .errors
                .push("the regenerated document differs between repetitions".into()),
            Some(_) => {}
        }
        for (name, report, exec) in regen.figures {
            timed.add(&mut out, name, &report, exec, &goldens[name], warm_up);
        }
        if !another_fits(phase, doc_ms, args.seconds) {
            break;
        }
        phase.get_or_insert_with(Instant::now);
    }
    timed.report(&mut out)?;
    Ok(out)
}

/// Layer totals of the traced simulations.
#[derive(Default)]
struct Layers {
    mm_calls: [u64; 11],
    mm_ns: [u64; 11],
    mm_ns_by_label: BTreeMap<String, u64>,
    load_retries: u64,
    ticks: u64,
    allocs: u64,
    cycles: u64,
    committed: u64,
    components: BTreeMap<&'static str, u64>,
}

/// Modelled-component counters summed from every simulation's `StatSet`:
/// (metric, counter suffix, whether it is per core (`core<N>.<suffix>`)).
const COMPONENTS: [(&str, &str, bool); 9] = [
    ("hierarchy.l1d_misses", "hierarchy.l1d_misses", false),
    ("hierarchy.l2_misses", "hierarchy.l2_misses", false),
    ("muontrap.l0d_hits", "muontrap.l0d_hits", false),
    ("muontrap.l0d_misses", "muontrap.l0d_misses", false),
    ("muontrap.filter_flushes", "muontrap.filter_flushes", false),
    ("core.squashed", "squashed", true),
    ("core.mem_retries", "mem_retries", true),
    ("stt.blocked_transmits", "stt.blocked_transmits", false),
    ("invisispec.exposures", "invisispec.exposures", false),
];

fn is_core_counter(key: &str, suffix: &str) -> bool {
    key.strip_prefix("core")
        .and_then(|rest| rest.split_once('.'))
        .is_some_and(|(id, name)| {
            !id.is_empty() && id.bytes().all(|b| b.is_ascii_digit()) && name == suffix
        })
}

impl Layers {
    fn add(&mut self, unit: &TracedUnit) {
        for m in 0..MM_METHODS.len() {
            self.mm_calls[m] += unit.mm.calls(m);
            self.mm_ns[m] += unit.mm.ns(m);
        }
        *self
            .mm_ns_by_label
            .entry(unit.result.defense.clone())
            .or_default() += unit.mm.total_ns();
        self.load_retries += unit.mm.load_retries();
        self.ticks += unit.ticks;
        self.allocs += unit.allocs;
        self.cycles += unit.result.cycles;
        self.committed += unit.result.committed;
        for (metric, suffix, per_core) in COMPONENTS {
            let sum: u64 = if per_core {
                unit.result
                    .stats
                    .iter_counters()
                    .filter(|(k, _)| is_core_counter(k, suffix))
                    .map(|(_, v)| v)
                    .sum()
            } else {
                unit.result.stats.counter(suffix)
            };
            *self.components.entry(metric).or_default() += sum;
        }
    }
}

/// Simulates `units` of the plan titled `title` with the traced path,
/// calling `each` on every result.
fn traced_units<'a>(
    title: &str,
    units: impl IntoIterator<Item = &'a WorkUnit>,
    layers: &mut Layers,
    mut each: impl FnMut(Fingerprint, &ExperimentResult) -> Result<(), String>,
) -> Result<(), String> {
    for unit in units {
        let label = || format!("{title}/{}/{}", unit.kind.name(), unit.fingerprint.to_hex());
        let traced = trace::in_unit(label, || {
            trace::span("unit", || {
                traced::simulate(&unit.workload, unit.defense, &unit.config)
            })
        });
        layers.add(&traced);
        each(unit.fingerprint, &traced.result)?;
    }
    Ok(())
}

/// The units of `plan` a runner simulates, baselines first.
fn simulated_units(plan: &Plan) -> impl Iterator<Item = &WorkUnit> {
    plan.baselines
        .iter()
        .chain(plan.cells.iter().filter(|u| !u.copies_baseline))
}

/// Checks traced results against the untraced run's report of the same plan.
fn same_as_untraced(
    plan: &Plan,
    report: &RunReport,
    traced: &HashMap<Fingerprint, ExperimentResult>,
) -> Result<(), String> {
    for (unit, cell) in plan.cells.iter().zip(&report.cells) {
        let result = &traced[&unit.fingerprint];
        let baseline = &traced[&unit.baseline.expect("cells name a baseline")];
        let same = result.cycles == cell.cycles
            && result.committed == cell.committed
            && result.completed == cell.completed
            && result.stats == cell.stats
            && baseline.cycles == cell.baseline_cycles;
        if !same {
            return Err(format!(
                "{}: traced {}/{} differs from the untraced run",
                plan.title, cell.workload, cell.column
            ));
        }
    }
    Ok(())
}

/// Per-layer metrics common to every traced run.
fn layer_metrics(out: &mut Outcome, layers: &Layers, trace: &Trace, units: usize) {
    let ms = |ns: u64| ns as f64 / 1e6;
    for (m, method) in MM_METHODS.iter().enumerate() {
        out.metric(
            format!("mm.{method}.calls"),
            layers.mm_calls[m] as f64,
            "count",
        );
        out.metric(format!("mm.{method}.ms"), ms(layers.mm_ns[m]), "ms");
    }
    let mm_ns: u64 = layers.mm_ns.iter().sum();
    let label_ns = |label: &str| layers.mm_ns_by_label.get(label).copied().unwrap_or(0);
    out.metric("mm.ms", ms(mm_ns), "ms");
    out.metric("mm.ms.unprotected", ms(label_ns("unprotected")), "ms");
    out.metric("mm.ms.muontrap", ms(label_ns("muontrap")), "ms");
    let split: Vec<String> = layers
        .mm_ns_by_label
        .iter()
        .map(|(label, ns)| format!("{label} {:.3}", ms(*ns)))
        .collect();
    out.notes
        .push(format!("mm.ms by defense label (ms): {}", split.join(", ")));
    let loads = layers.mm_calls[0].max(1);
    out.metric(
        "mm.load.retry_frac",
        layers.load_retries as f64 / loads as f64,
        "fraction",
    );
    let run_ms = trace.total_ms("system.run");
    out.metric("system.run_ms", run_ms, "ms");
    out.metric("system.self_ms", run_ms - ms(mm_ns), "ms");
    out.metric("system.ticks", layers.ticks as f64, "count");
    out.metric(
        "system.ns_per_tick",
        run_ms * 1e6 / layers.ticks.max(1) as f64,
        "ns",
    );
    out.metric("system.allocs", layers.allocs as f64, "count");
    out.metric(
        "system.allocs_per_kinst",
        layers.allocs as f64 * 1e3 / layers.committed.max(1) as f64,
        "count",
    );
    out.metric("sim.cycles", layers.cycles as f64, "count");
    out.metric("sim.committed", layers.committed as f64, "count");
    out.metric("defenses.build_ms", trace.total_ms("defenses.build"), "ms");
    out.metric("system.load_ms", trace.total_ms("system.load"), "ms");
    for (metric, _, _) in COMPONENTS {
        out.metric(metric, layers.components[metric] as f64, "count");
    }
    out.metric("workloads.gen_ms", trace.total_ms("workloads.gen"), "ms");
    out.metric("session.plan_ms", trace.total_ms("session.plan"), "ms");
    out.metric("session.units", units as f64, "count");
    out.metric("runner.execute_ms", trace.total_ms("runner.execute"), "ms");
    out.metric("runner.merge_ms", trace.total_ms("runner.merge"), "ms");
}

fn store_metrics(out: &mut Outcome, counters: Option<&StoreCounters>) {
    let get = |f: fn(&StoreCounters) -> &std::sync::atomic::AtomicU64| {
        counters.map_or(0, |c| StoreCounters::get(f(c)))
    };
    out.metric("store.reads", get(|c| &c.reads) as f64, "count");
    out.metric("store.read_ms", get(|c| &c.read_ns) as f64 / 1e6, "ms");
    out.metric("store.bytes_read", get(|c| &c.bytes_read) as f64, "bytes");
    out.metric("store.puts", get(|c| &c.puts) as f64, "count");
    out.metric("store.put_ms", get(|c| &c.put_ns) as f64 / 1e6, "ms");
}

fn finish_trace(
    out: &mut Outcome,
    trace: &Trace,
    path: &Path,
    overhead: (f64, f64),
) -> Result<(), String> {
    let (traced_ms, untraced_ms) = overhead;
    out.metric("trace.overhead_ms", traced_ms - untraced_ms, "ms");
    out.metric(
        "trace.overhead_frac",
        (traced_ms - untraced_ms) / untraced_ms,
        "fraction",
    );
    out.metric(
        "fail_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        "fraction",
    );
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let mut file = std::io::BufWriter::new(
        fs::File::create(path).map_err(|e| format!("cannot create {}: {e}", path.display()))?,
    );
    trace
        .write_jsonl(&mut file)
        .and_then(|()| std::io::Write::flush(&mut file))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    out.notes.push(format!(
        "{} spans written to {}; tracing overhead {:.1} ms on {:.1} ms untraced",
        trace.spans.len(),
        path.display(),
        traced_ms - untraced_ms,
        untraced_ms
    ));
    for (name, totals) in trace.totals() {
        out.notes.push(format!(
            "span {name}: {} calls, {:.3} ms total, {:.3} ms self",
            totals.count,
            totals.total_ns as f64 / 1e6,
            totals.self_ns as f64 / 1e6
        ));
    }
    Ok(())
}

/// A grid workload, traced: one untraced pass through the runner (the
/// reference for results and for tracing overhead), then the same units
/// through the traced path.
fn grid_traced(
    workload: Workload,
    args: &Args,
    root: &Path,
    spans: &Path,
) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let goldens = load_goldens(root, workload)?;
    trace::start();
    let plans: Vec<(&str, Plan)> = workload
        .figures()
        .iter()
        .map(|name| (*name, grid::plan(name, SCALE, None)))
        .collect();
    let mut rng = seeded(args.seed);
    let permuted: Vec<Permuted> = plans
        .iter()
        .map(|(_, plan)| Permuted::new(plan.clone(), rng.as_mut()))
        .collect();
    let mut html_bytes = 0;
    let mut references = Vec::new();
    let started = Instant::now();
    for ((name, _), permuted) in plans.iter().zip(&permuted) {
        let (report, exec) = grid::execute(permuted, None);
        let page = trace::span("render.html", || {
            bench::render::figure_document(name, &report, RUN_ID)
                .expect("every grid figure has chart metadata")
        });
        html_bytes += page.len();
        references.push((report, exec));
    }
    let untraced_ms = ms_since(started);
    let mut layers = Layers::default();
    let mut results = HashMap::new();
    let started = Instant::now();
    // Committed order, whatever the seed: allocation counts depend on the
    // order units share the process in, and must repeat exactly.
    for (_, plan) in &plans {
        traced_units(
            &plan.title,
            simulated_units(plan),
            &mut layers,
            |fingerprint, result| {
                results.insert(fingerprint, result.clone());
                Ok(())
            },
        )?;
    }
    let traced_ms = ms_since(started);
    let trace = trace::finish();
    let mut units = 0;
    for ((name, plan), (report, exec)) in plans.iter().zip(&references) {
        out.check(golden::check(report, &goldens[name], Provenance::Simulated));
        out.check(same_as_untraced(plan, report, &results));
        out.attempted += exec.units as u64;
        out.failed += report.cells.iter().filter(|c| !c.completed).count() as u64;
        units += plan.baselines.len() + plan.cells.len();
    }
    layer_metrics(&mut out, &layers, &trace, units);
    store_metrics(&mut out, None);
    out.metric("speclint.census_ms", 0.0, "ms");
    out.metric("speclint.programs", 0.0, "count");
    out.metric("render.html_ms", trace.total_ms("render.html"), "ms");
    out.metric("render.html_bytes", html_bytes as f64, "bytes");
    finish_trace(&mut out, &trace, spans, (traced_ms, untraced_ms))?;
    Ok(out)
}

/// `warm-report`, traced: fill the store through the traced path and a
/// timed backend (the set-up), then regenerate the document in a block of
/// untraced runs (the overhead reference) and a block of traced ones.
fn warm_traced(args: &Args, root: &Path, work: &Path, spans: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let goldens = load_goldens(root, Workload::WarmReport)?;
    let dir = work.join("store");
    let plain = fs_store(&dir)?;
    let (backend, counters) = TimedBackend::wrap(Arc::new(FsBackend::new(&dir)));
    let timed = ResultStore::with_backend(Arc::new(backend));
    let mut rng = seeded(args.seed);
    let mut layers = Layers::default();
    trace::start();
    // The fill keeps the committed order, as the grids' traced pass does.
    for name in bench::FIGURE_NAMES {
        let plan = grid::plan(name, SCALE, Some(&timed));
        // As the runner does: look each unit up, simulate and store misses.
        let misses: Vec<&WorkUnit> = simulated_units(&plan)
            .filter(|u| timed.get(u.fingerprint).is_none())
            .collect();
        traced_units(&plan.title, misses, &mut layers, |fingerprint, result| {
            timed
                .put(fingerprint, result)
                .map_err(|e| format!("store put failed: {e}"))
        })?;
    }
    let regen_ms = |store: &ResultStore, rng: &mut Option<SimRng>| {
        let started = Instant::now();
        let regen = regenerate(store, rng);
        (ms_since(started), regen)
    };
    let untraced: Vec<_> = trace::untraced(|| {
        (0..TRACED_REGENS)
            .map(|_| regen_ms(&plain, &mut rng))
            .collect()
    });
    let traced: Vec<_> = (0..TRACED_REGENS)
        .map(|_| regen_ms(&timed, &mut rng))
        .collect();
    let trace = trace::finish();
    let first = &untraced[0].1.html;
    for (_, regen) in untraced.iter().chain(&traced) {
        if regen.html != *first {
            out.errors
                .push("the regenerated document differs between repetitions".into());
        }
        for (name, report, exec) in &regen.figures {
            out.check(golden::check(report, &goldens[name], Provenance::Warm));
            out.attempted += exec.units as u64;
            out.failed += exec.simulated as u64;
        }
    }
    let one = &traced[0].1;
    let units = one.figures.iter().map(|(_, _, e)| e.units).sum::<usize>();
    let median_ms =
        |runs: &[(f64, Regeneration)]| median(&runs.iter().map(|r| r.0).collect::<Vec<_>>());
    layer_metrics(&mut out, &layers, &trace, units);
    store_metrics(&mut out, Some(&counters));
    out.metric(
        "speclint.census_ms",
        trace.total_ms("speclint.census"),
        "ms",
    );
    out.metric("speclint.programs", one.census_programs as f64, "count");
    out.metric("render.html_ms", trace.total_ms("render.html"), "ms");
    out.metric("render.html_bytes", one.html.len() as f64, "bytes");
    finish_trace(
        &mut out,
        &trace,
        spans,
        (median_ms(&traced), median_ms(&untraced)),
    )?;
    Ok(out)
}

fn run(args: &Args, root: &Path, work: &Path) -> Result<Outcome, String> {
    let spans = root.join(".bench_work").join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    match (args.workload, args.trace) {
        (Workload::WarmReport, false) => warm_timed(args, root, work),
        (Workload::WarmReport, true) => warm_traced(args, root, work, &spans),
        (grid, false) => grid_timed(grid, args, root),
        (grid, true) => grid_traced(grid, args, root, &spans),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("hostbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root: PathBuf = match std::env::current_dir() {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("hostbench: no working directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !golden::path(&root, "fig3", SCALE).is_file() {
        eprintln!("hostbench: run from the repository root (no committed goldens here)");
        return ExitCode::FAILURE;
    }
    let work =
        root.join(".bench_work")
            .join(format!("{}-{}", args.workload.name(), std::process::id()));
    let outcome = run(&args, &root, &work);
    let _ = fs::remove_dir_all(&work);
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("hostbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "# hostbench {} seed {} ({} mode)",
        args.workload.name(),
        args.seed,
        if args.trace { "traced" } else { "timed" }
    );
    for metric in &outcome.metrics {
        println!(
            "# {:<28} {:>18.6} {}",
            metric.name, metric.value, metric.unit
        );
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    for error in &outcome.errors {
        eprintln!("hostbench: output check failed: {error}");
    }
    if let Some(bad) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("hostbench: metric {} is not finite", bad.name);
        return ExitCode::FAILURE;
    }
    println!("{}", outcome.result_line());
    if outcome.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
