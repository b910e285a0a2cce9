//! Acceptance tests for the session-backed figure harness:
//!
//! * figure 3 costs exactly one `Unprotected` simulation per workload,
//! * parallel and serial grid runs are result-identical, and parallelism
//!   pays off wherever the host actually has more than one core,
//! * the `figure fig3 --json` binary output parses back into a [`RunReport`],
//! * `figure` rejects unknown names and shard flags with exit code 2.

use std::process::Command;

use simkit::config::SystemConfig;
use simkit::json::{self, FromJson};
use simsys::session::RunReport;
use workloads::Scale;

/// Figure 3 at tiny scale, run in-process on `threads` workers.
fn figure3(config: &SystemConfig, threads: usize) -> RunReport {
    bench::figure_session("fig3", Scale::Tiny, config, threads, None)
        .expect("fig3 is registered")
        .run()
}

#[test]
fn figure3_runs_exactly_one_baseline_simulation_per_workload() {
    let config = SystemConfig::small_test();
    let report = figure3(&config, 2);
    assert_eq!(
        report.baseline_sims,
        report.workloads.len(),
        "figure 3 must run one Unprotected baseline per workload, no more"
    );
    // Five protected columns per workload, all normalised against that one
    // baseline run.
    assert_eq!(report.columns.len(), 5);
    for w in 0..report.workloads.len() {
        let baseline = report.cell(w, 0).baseline_cycles;
        assert!(baseline > 0);
        for c in 1..report.columns.len() {
            assert_eq!(report.cell(w, c).baseline_cycles, baseline);
        }
    }
}

#[test]
fn four_thread_figure3_matches_serial_and_wins_on_multicore_hosts() {
    let config = SystemConfig::small_test();
    let serial = figure3(&config, 1);
    let parallel = figure3(&config, 4);
    assert_eq!(
        serial.cells, parallel.cells,
        "thread count must not change results"
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores > 1 {
        // Tiny-scale runtimes are small enough that scheduling noise on a
        // loaded host can flip a single measurement; require the win on the
        // best of a few attempts rather than one shot.
        let mut timings = vec![(serial.wall_clock_ms, parallel.wall_clock_ms)];
        for _ in 0..2 {
            let (best_serial, best_parallel) = best_of(&timings);
            if best_parallel < best_serial {
                break;
            }
            timings.push((
                figure3(&config, 1).wall_clock_ms,
                figure3(&config, 4).wall_clock_ms,
            ));
        }
        let (best_serial, best_parallel) = best_of(&timings);
        assert!(
            best_parallel < best_serial,
            "4 threads (best {best_parallel:.0} ms) should beat 1 thread \
             (best {best_serial:.0} ms) on a {cores}-core host; attempts: {timings:?}"
        );
    } else {
        // A single-core host cannot demonstrate the speedup; result equality
        // above is the meaningful check there.
        eprintln!(
            "single-core host: serial {:.0} ms vs 4-thread {:.0} ms (speedup not asserted)",
            serial.wall_clock_ms, parallel.wall_clock_ms
        );
    }
}

fn best_of(timings: &[(f64, f64)]) -> (f64, f64) {
    let best_serial = timings
        .iter()
        .map(|(s, _)| *s)
        .fold(f64::INFINITY, f64::min);
    let best_parallel = timings
        .iter()
        .map(|(_, p)| *p)
        .fold(f64::INFINITY, f64::min);
    (best_serial, best_parallel)
}

#[test]
fn fig3_json_output_parses_back_into_a_run_report() {
    let output = Command::new(env!("CARGO_BIN_EXE_figure"))
        .args(["fig3", "--json", "--scale", "tiny", "--threads", "2"])
        .output()
        .expect("figure binary runs");
    assert!(output.status.success(), "fig3 --json failed: {output:?}");
    let stdout = String::from_utf8(output.stdout).expect("figure emits UTF-8");
    let parsed = json::parse(&stdout).expect("fig3 --json emits valid JSON");
    let report = RunReport::from_json(&parsed).expect("fig3 --json is a RunReport");
    assert_eq!(report.scale.as_deref(), Some("tiny"));
    assert_eq!(report.threads, 2);
    assert_eq!(
        report.cells.len(),
        report.workloads.len() * report.columns.len()
    );
    assert_eq!(report.baseline_sims, report.workloads.len());
    assert!(report.cells.iter().all(|cell| cell.completed));
}

#[test]
fn figure_binary_rejects_unknown_names_and_shard_flags() {
    let figure = |args: &[&str]| {
        let output = Command::new(env!("CARGO_BIN_EXE_figure"))
            .args(args)
            .output()
            .expect("figure binary runs");
        assert!(output.stdout.is_empty(), "{args:?} printed a report");
        (
            output.status.code(),
            String::from_utf8_lossy(&output.stderr).into_owned(),
        )
    };

    let (code, stderr) = figure(&["nope"]);
    assert_eq!(code, Some(2), "unknown names are usage errors: {stderr}");
    assert!(stderr.contains("unknown figure `nope`"), "{stderr}");
    for name in bench::FIGURE_NAMES.iter().chain(&["table1"]) {
        assert!(stderr.contains(name), "usage must list `{name}`: {stderr}");
    }

    let store = std::env::temp_dir().join(format!("muontrap-figure-shard-{}", std::process::id()));
    let events = store.join("e.jsonl");
    let (code, stderr) = figure(&[
        "fig3",
        "--shard-id",
        "0",
        "--shard-count",
        "2",
        "--store",
        store.to_str().unwrap(),
        "--events",
        events.to_str().unwrap(),
        "--run-id",
        "r1",
    ]);
    assert_eq!(code, Some(2), "figure never runs as a shard: {stderr}");
    assert!(stderr.contains("shard --figure"), "{stderr}");
    assert!(!store.exists(), "a rejected shard must not touch the store");
}
