//! Regenerates one table or figure of the paper's evaluation by name:
//! `table1` or any [`bench::FIGURE_NAMES`] entry (`fig3`…`fig9`,
//! `shootout`, `domain`). Every argument after the name goes to the shared
//! flag parser ([`bench::cli`]: `--json`, `--scale`, `--threads`,
//! `--store`, `--events`, `--html`/`--html-only`, `--metrics`, `--tiny`).
//!
//! ```text
//! cargo run --release --bin figure -- fig3 --scale tiny --threads 2
//! cargo run --release --bin figure -- fig5 --json --store /data/store > figure5.json
//! cargo run --release --bin figure -- table1 --json
//! ```
//!
//! Text mode prints Table 1 followed by the figure's aligned table
//! ([`bench::render::figure_text`]); `--json` prints the full session
//! [`RunReport`](simsys::session::RunReport); `--html FILE` writes the
//! figure's self-contained page. `table1` prints the simulated system
//! configuration (`--json`: as an object) and has no chart, so it rejects
//! `--html`. A figure runs whole in this process: for a sharded run use
//! `shard --figure NAME` and fold the logs with `merge`.

use simkit::config::SystemConfig;
use simkit::json::ToJson;

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_default();
    let rest: Vec<String> = args.collect();
    if name == "--help" || name == "-h" || rest.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage());
        return;
    }
    if name != "table1" && !bench::FIGURE_NAMES.contains(&name.as_str()) {
        exit_usage(&format!("unknown figure `{name}`"));
    }
    let options = match bench::cli::CliOptions::parse(&rest) {
        Ok(options) => options,
        Err(message) => exit_usage(&message),
    };
    if options.shard_id.is_some() {
        eprintln!(
            "figure runs the whole grid in one process; use `shard --figure {name}` \
             per shard and fold the logs with `merge`"
        );
        std::process::exit(2);
    }
    if name == "table1" {
        if options.html.is_some() {
            eprintln!("table1 has no chart to render; use `report --html` for the full page");
            std::process::exit(2);
        }
        if options.json {
            println!("{}", bench::table1_json().to_string_pretty());
        } else {
            println!("{}", bench::table1());
        }
        return;
    }

    let config = SystemConfig::paper_default();
    let store = options.open_store();
    let session = bench::figure_session(
        &name,
        options.scale,
        &config,
        options.threads,
        store.as_ref(),
    )
    .expect("the name was checked against FIGURE_NAMES");
    let mut events = bench::cli::open_events(&options);
    let report = session.run_with_events(match &mut events {
        Some(file) => Some(file),
        None => None,
    });
    bench::cli::write_metrics(&options);
    bench::cli::write_html(&options, || {
        bench::render::figure_document(&name, &report, &options.run_id)
            .expect("every FIGURE_NAMES entry is registered")
    });
    if options.html_only {
        return;
    }
    if options.json {
        println!("{}", report.to_json().to_string_pretty());
    } else {
        println!("{}", bench::table1());
        println!("{}", bench::render::figure_text(&name, &report));
    }
}

fn usage() -> String {
    format!(
        "{}\nnames: {}, table1",
        bench::cli::usage().replacen("<binary>", "figure NAME", 1),
        bench::FIGURE_NAMES.join(", ")
    )
}

fn exit_usage(message: &str) -> ! {
    eprintln!("{message}\n{}", usage());
    std::process::exit(2);
}
