//! End-to-end acceptance for the HTML evaluation report.
//!
//! Drives the real binaries the way CI and readers do:
//!
//! * `report --html` (cold store) must write a self-contained document with
//!   one SVG chart per [`bench::FIGURE_NAMES`] entry plus the domain-switch
//!   summary table;
//! * the warm-store re-render must be served entirely from the store and say
//!   so in the per-figure provenance lines;
//! * `merge --html` over an event log must produce the same artefact a
//!   direct run produces, because merged reports are bit-identical.

use std::path::PathBuf;
use std::process::Command;

fn temp_dir(tag: &str) -> PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .subsec_nanos();
    let dir = std::env::temp_dir().join(format!(
        "muontrap-html-report-{tag}-{}-{nanos}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn run_ok(binary: &str, args: &[&str]) -> String {
    let output = Command::new(binary)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("{binary} spawns: {e}"));
    assert!(
        output.status.success(),
        "{binary} {args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf-8 stdout")
}

/// The self-containment contract CI enforces on the artifact: nothing
/// URL-shaped, no scripts, no external stylesheets.
fn assert_self_contained(html: &str) {
    assert!(!html.contains("http"), "external URL in report");
    assert!(!html.contains("<script"), "script in report");
    assert!(!html.contains("<link"), "external stylesheet in report");
    assert!(!html.contains("@import"), "CSS import in report");
}

#[test]
fn report_html_covers_every_figure_and_rerenders_from_the_warm_store() {
    let dir = temp_dir("report");
    let store = dir.join("store");
    let html_path = dir.join("report.html");

    // Cold run: fills the store, writes the HTML and still emits the JSON
    // document on stdout.
    let stdout = run_ok(
        env!("CARGO_BIN_EXE_report"),
        &[
            "--scale",
            "tiny",
            "--store",
            store.to_str().unwrap(),
            "--html",
            html_path.to_str().unwrap(),
            "--run-id",
            "cold-run",
        ],
    );
    assert!(
        stdout.contains("\"figures\""),
        "JSON document still printed"
    );
    let html = std::fs::read_to_string(&html_path).expect("HTML artefact written");
    assert!(html.starts_with("<!doctype html>"));
    assert_eq!(
        html.matches("<svg ").count(),
        bench::FIGURE_NAMES.len(),
        "one chart per figure"
    );
    assert!(
        html.contains("Domain-switch summary"),
        "domain table present"
    );
    assert!(html.contains("syscall-storm") && html.contains("sandbox-hop"));
    assert!(html.contains("run cold-run"), "provenance stamped");
    assert_self_contained(&html);

    // Warm run: --html-only, zero simulations, and the provenance says so.
    let warm_path = dir.join("warm.html");
    let stdout = run_ok(
        env!("CARGO_BIN_EXE_report"),
        &[
            "--scale",
            "tiny",
            "--store",
            store.to_str().unwrap(),
            "--html",
            warm_path.to_str().unwrap(),
            "--html-only",
            "--run-id",
            "warm-run",
        ],
    );
    assert!(stdout.trim().is_empty(), "--html-only suppresses stdout");
    let warm = std::fs::read_to_string(&warm_path).expect("warm HTML written");
    assert_eq!(warm.matches("<svg ").count(), bench::FIGURE_NAMES.len());
    // "cells: 0 simulated", not bare "0 simulated": the latter is also a
    // suffix of "10 simulated" and would false-pass on a partially cold
    // store.
    assert_eq!(
        warm.matches("cells: 0 simulated").count(),
        bench::FIGURE_NAMES.len(),
        "every figure served from the warm store"
    );
    assert!(warm.contains("hit rate 1"));
    assert_self_contained(&warm);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn merge_html_reproduces_the_direct_figure_artefact() {
    let dir = temp_dir("merge");
    let store = dir.join("store");
    let events = dir.join("events.jsonl");
    let direct_path = dir.join("direct.html");
    let merged_path = dir.join("merged.html");

    // A direct run of one figure (the small Parsec-like grid), streaming
    // its event log.
    run_ok(
        env!("CARGO_BIN_EXE_figure"),
        &[
            "fig4",
            "--scale",
            "tiny",
            "--store",
            store.to_str().unwrap(),
            "--events",
            events.to_str().unwrap(),
            "--html",
            direct_path.to_str().unwrap(),
            "--html-only",
            "--run-id",
            "same-run",
        ],
    );
    // Folding that single complete log must render the identical page
    // (modulo wall clock, which lives in the provenance line).
    run_ok(
        env!("CARGO_BIN_EXE_merge"),
        &[
            "--figure",
            "fig4",
            "--scale",
            "tiny",
            "--run-id",
            "same-run",
            "--html",
            merged_path.to_str().unwrap(),
            "--html-only",
            events.to_str().unwrap(),
        ],
    );
    let strip_provenance = |html: &str| -> String {
        html.lines()
            .filter(|line| !line.contains("class=\"provenance\""))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let direct = std::fs::read_to_string(&direct_path).expect("direct HTML");
    let merged = std::fs::read_to_string(&merged_path).expect("merged HTML");
    assert_eq!(
        strip_provenance(&direct),
        strip_provenance(&merged),
        "merge --html must reproduce the direct artefact"
    );
    assert_self_contained(&merged);

    std::fs::remove_dir_all(&dir).ok();
}
