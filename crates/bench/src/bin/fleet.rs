//! Supervises a local fleet of `shard` processes over one figure's grid.
//!
//! ```text
//! fleet --figure fig5 --scale small --store /data/store \
//!       --run-id nightly --shards 4
//! ```
//!
//! spawns four `shard` processes (found beside this binary, or via
//! `--shard-bin`), tails their event logs into a live stderr status line,
//! restarts any that crash (up to `--max-restarts` each; the store's
//! expiring leases hand the crashed shard's units to its replacement), and
//! finally folds every attempt's log into the merged figure report on
//! stdout — byte-identical to a single-process `figure NAME --json` run.
//!
//! Exit status: 0 when the merge covered the whole grid, 1 when any cell
//! was left unresolved, 2 on usage errors. See [`bench::fleet`] for the
//! supervisor's lifecycle and guarantees.

use simkit::json::ToJson;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", bench::fleet::usage());
        return;
    }
    let options = match bench::fleet::FleetOptions::parse(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}\n{}", bench::fleet::usage());
            std::process::exit(2);
        }
    };
    match bench::fleet::supervise(&options) {
        Ok(outcome) => {
            if let Some(path) = &options.metrics {
                bench::cli::write_metrics_to(path);
            }
            match &outcome.report {
                Some(report) => println!("{}", report.to_json().to_string_pretty()),
                None => {
                    eprintln!(
                        "fleet: merge incomplete: {}",
                        outcome.merge_error.as_deref().unwrap_or("unknown"),
                    );
                    std::process::exit(1);
                }
            }
        }
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    }
}
