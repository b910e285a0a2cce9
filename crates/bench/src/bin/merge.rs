//! Folds shard event logs back into the deterministic figure report.
//!
//! `merge` rebuilds the named figure's [`Plan`](simsys::runner::Plan) (the
//! same pure derivation every shard used), reads any number of JSONL event
//! logs, and emits the merged [`RunReport`](simsys::session::RunReport) as
//! JSON on stdout — identical in content to what a single-process
//! `figure NAME --json` run of the same grid produces. Events are deduplicated per
//! work unit with execution provenance preferred, so feeding it a killed
//! shard's partial log alongside the resumed run's log keeps the
//! simulated-once accounting intact.
//!
//! ```text
//! merge --figure fig5 --scale small s0.jsonl s1.jsonl > figure5.json
//! ```
//!
//! Pass `--scale`/`--threads` matching the shard invocations so the rebuilt
//! plan (title, grid shape, recorded thread count) lines up. Incomplete logs
//! — a grid cell no stream resolved — are an error, not a silent hole.
//!
//! `--html FILE` renders the merged report as the figure's self-contained
//! HTML page (`--html-only` suppresses the JSON): a multi-host run produces
//! exactly the artefact a local `figure NAME --html` run would, because the merged
//! report is bit-identical to the local one.
//!
//! # Watching a live fleet
//!
//! With `--watch`, `merge` does not require complete logs: it *tails* them
//! while the shards are still writing, redrawing an in-terminal dashboard
//! (per-shard progress, steal and cache-hit counters, a cells/sec rate and
//! ETA, stalled-shard detection from heartbeat age) every `--interval-ms`
//! until every unit of the plan has resolved. `--once` renders exactly one
//! frame — with "now" pinned to the newest event timestamp, so the output
//! is deterministic — and exits, which is what tests and CI consume.
//!
//! `--html-live FILE` (usable with or without `--watch`) atomically rewrites
//! `FILE` on the same cadence: while units are missing it is a partial
//! report page that reloads itself via a script-free meta refresh, and once
//! the fleet completes it is replaced by the strict merge's figure document
//! — byte-identical to what `--html FILE` would have produced.
//!
//! ```text
//! merge --figure domain --scale tiny --watch --html-live live.html s0.jsonl s1.jsonl
//! ```

use simkit::json::ToJson;
use simsys::runner;

use bench::watch::{self, FleetView, LogTail, WatchOptions};

fn main() {
    let mut figure: Option<String> = None;
    let mut logs: Vec<std::path::PathBuf> = Vec::new();
    let mut rest: Vec<String> = Vec::new();
    let mut watch_mode = false;
    let mut once = false;
    let mut html_live: Option<std::path::PathBuf> = None;
    let mut interval_ms: u64 = 1_000;
    let mut stall_ms: u64 = 15_000;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--figure" {
            match args.next() {
                Some(value) => figure = Some(value),
                None => exit_usage("--figure needs a name"),
            }
        } else if arg == "--watch" {
            watch_mode = true;
        } else if arg == "--once" {
            watch_mode = true;
            once = true;
        } else if arg == "--html-live" {
            match args.next() {
                Some(value) => html_live = Some(std::path::PathBuf::from(value)),
                None => exit_usage("--html-live needs a file path"),
            }
        } else if arg == "--interval-ms" {
            interval_ms = parse_ms(args.next(), "--interval-ms");
        } else if arg == "--stall-ms" {
            stall_ms = parse_ms(args.next(), "--stall-ms");
        } else if arg == "--help" || arg == "-h" {
            println!("{}", usage());
            return;
        } else if arg.starts_with("--") {
            rest.push(arg.clone());
            // Forward the flag's value too, when it takes one.
            if matches!(
                arg.as_str(),
                "--scale" | "--threads" | "--store" | "--run-id" | "--html"
            ) {
                if let Some(value) = args.next() {
                    rest.push(value);
                }
            }
        } else {
            logs.push(std::path::PathBuf::from(arg));
        }
    }
    let options = match bench::cli::CliOptions::parse(&rest) {
        Ok(options) => options,
        Err(message) => exit_usage(&message),
    };
    let Some(figure) = figure else {
        exit_usage("--figure NAME is required");
    };
    if logs.is_empty() {
        exit_usage("at least one event log is required");
    }

    let config = simkit::config::SystemConfig::paper_default();
    let Some(session) =
        bench::figure_session(&figure, options.scale, &config, options.threads, None)
    else {
        exit_usage(&format!(
            "unknown figure `{figure}` (expected one of {})",
            bench::FIGURE_NAMES.join(", ")
        ));
    };
    let plan = session.plan();

    if watch_mode || html_live.is_some() {
        run_watch(
            &figure,
            &plan,
            &logs,
            &options,
            watch_mode,
            once,
            html_live.as_deref(),
            interval_ms,
            stall_ms,
        );
        bench::cli::write_metrics(&options);
        return;
    }

    let mut events = Vec::new();
    for path in &logs {
        let file = std::fs::File::open(path).unwrap_or_else(|e| {
            eprintln!("cannot open event log {}: {e}", path.display());
            std::process::exit(2);
        });
        let parsed = runner::read_events(std::io::BufReader::new(file)).unwrap_or_else(|e| {
            eprintln!("{}: {e}", path.display());
            std::process::exit(2);
        });
        events.extend(parsed);
    }
    let wall_clock_ms = runner::merged_wall_clock_ms(events.iter());
    match runner::merge_events(&plan, events, wall_clock_ms) {
        Ok(report) => {
            bench::cli::write_metrics(&options);
            bench::cli::write_html(&options, || {
                bench::render::figure_document(&figure, &report, &options.run_id)
                    .expect("figure resolved above, so it is registered")
            });
            if !options.html_only {
                println!("{}", report.to_json().to_string_pretty());
            }
        }
        Err(e) => {
            eprintln!("merge failed: {e}");
            std::process::exit(1);
        }
    }
}

/// The `--watch` / `--html-live` loop: tail, fold, render, repeat until the
/// fleet completes (or after one frame, with `--once`).
#[allow(clippy::too_many_arguments)]
fn run_watch(
    figure: &str,
    plan: &runner::Plan,
    logs: &[std::path::PathBuf],
    options: &bench::cli::CliOptions,
    watch_mode: bool,
    once: bool,
    html_live: Option<&std::path::Path>,
    interval_ms: u64,
    stall_ms: u64,
) {
    let mut tails: Vec<LogTail> = logs.iter().map(LogTail::new).collect();
    let refresh_seconds = (interval_ms.div_ceil(1_000)).max(1) as u32;
    loop {
        for tail in &mut tails {
            if let Err(e) = tail.poll() {
                eprintln!("cannot read {}: {e}", tail.path().display());
            }
        }
        let events: Vec<runner::RunEvent> = tails
            .iter()
            .flat_map(|tail| tail.events.iter().cloned())
            .collect();
        let opts = WatchOptions {
            stall_after_ms: stall_ms,
            // `--once` pins "now" to the newest event stamp so the frame is
            // deterministic; live mode reads the clock for stall ages.
            now_ms: once.then(|| events.iter().filter_map(|e| e.t_ms()).max().unwrap_or(0)),
            ..WatchOptions::default()
        };
        let view = FleetView::fold(plan, &events, &opts);
        if watch_mode {
            use std::io::Write as _;
            if !once {
                // The one piece of terminal state the watch owns: clear and
                // home before each live frame. `--once` stays plain text.
                print!("\x1b[2J\x1b[H");
            }
            print!("{}", watch::render_frame(&view, &opts));
            let _ = std::io::stdout().flush();
        }
        if let Some(path) = html_live {
            let html = if view.complete() {
                let wall_clock_ms = runner::merged_wall_clock_ms(events.iter());
                match runner::merge_events(plan, events, wall_clock_ms) {
                    Ok(report) => bench::render::figure_document(figure, &report, &options.run_id)
                        .expect("figure resolved above, so it is registered"),
                    Err(e) => {
                        eprintln!("merge failed: {e}");
                        std::process::exit(1);
                    }
                }
            } else {
                watch::live_document(
                    figure,
                    plan,
                    events,
                    &view,
                    &options.run_id,
                    refresh_seconds,
                    stall_ms,
                )
                .expect("figure resolved above, so it is registered")
            };
            if let Err(e) = watch::write_atomic(path, &html) {
                eprintln!("cannot write live page {}: {e}", path.display());
                std::process::exit(2);
            }
        }
        if once || view.complete() {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(50)));
    }
}

fn parse_ms(value: Option<String>, flag: &str) -> u64 {
    match value.as_deref().map(str::parse::<u64>) {
        Some(Ok(ms)) => ms,
        _ => exit_usage(&format!("{flag} needs a millisecond count")),
    }
}

fn usage() -> String {
    format!(
        "usage: merge --figure NAME [--scale tiny|small|large] [--threads N] \
         [--html FILE [--html-only]] [--watch [--once]] [--html-live FILE] \
         [--interval-ms N] [--stall-ms N] EVENTS.jsonl [EVENTS.jsonl ...]\nfigures: {}",
        bench::FIGURE_NAMES.join(", ")
    )
}

fn exit_usage(message: &str) -> ! {
    eprintln!("{message}\n{}", usage());
    std::process::exit(2);
}
