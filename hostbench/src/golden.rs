//! Read-only comparison against the committed hot-path goldens
//! (`tests/goldens/hotpath/<figure>-<scale>.json`).
//!
//! As in `tests/hotpath_golden.rs`, the wall clock is zeroed and `cached` is
//! ignored (cleared on every cell). The goldens are the serialiser's own
//! pretty output, so a report matches exactly when its pretty JSON equals
//! the recorded text — compared as text, because `simkit::json::parse`
//! takes seconds on a golden of this size. A report run against a store
//! does not compare the recorded simulation counts, and a warm report must
//! have simulated nothing.

use std::path::{Path, PathBuf};

use simkit::json::ToJson;
use simsys::session::RunReport;
use workloads::Scale;

/// The golden recording of figure `name` at `scale` under `root`.
pub fn path(root: &Path, name: &str, scale: Scale) -> PathBuf {
    root.join("tests/goldens/hotpath")
        .join(format!("{name}-{}.json", scale.name()))
}

/// One recorded report.
#[derive(Debug, Clone)]
pub struct Golden {
    text: String,
    sims_executed: usize,
    baseline_sims: usize,
}

/// Loads a golden.
///
/// # Errors
/// Returns a message when the file is missing or lacks the top-level
/// simulation counts.
pub fn load(root: &Path, name: &str, scale: Scale) -> Result<Golden, String> {
    let path = path(root, name, scale);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let count = |key: &str| {
        let prefix = format!("  \"{key}\": ");
        text.lines()
            .find_map(|line| line.strip_prefix(prefix.as_str()))
            .and_then(|rest| rest.trim_end_matches(',').parse().ok())
            .ok_or_else(|| format!("{} has no top-level {key}", path.display()))
    };
    Ok(Golden {
        sims_executed: count("sims_executed")?,
        baseline_sims: count("baseline_sims")?,
        text: text.trim_end().to_string(),
    })
}

/// How a report is expected to relate to its golden.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Every unit was simulated: the recorded simulation counts must match.
    Simulated,
    /// Run against a store that earlier figures of the same fill already
    /// wrote to, so shared baselines may have been read back: the
    /// simulation counts are not compared.
    Shared,
    /// Every unit came from a warm store: no simulations at all.
    Warm,
}

/// Checks `report` against `golden`; `Err` names the first line that
/// differs.
///
/// # Errors
/// Returns a message naming the first difference.
pub fn check(report: &RunReport, golden: &Golden, provenance: Provenance) -> Result<(), String> {
    let mut report = report.clone();
    report.wall_clock_ms = 0.0;
    for cell in &mut report.cells {
        cell.cached = false;
    }
    if provenance == Provenance::Warm && report.sims_executed != 0 {
        return Err(format!(
            "{}: {} simulations against a warm store",
            report.title, report.sims_executed
        ));
    }
    if provenance != Provenance::Simulated {
        report.sims_executed = golden.sims_executed;
        report.baseline_sims = golden.baseline_sims;
    }
    let produced = report.to_json().to_string_pretty();
    if produced.trim_end() == golden.text {
        return Ok(());
    }
    let (line, (ours, recorded)) = produced
        .lines()
        .chain(std::iter::repeat("<end>"))
        .zip(golden.text.lines().chain(std::iter::repeat("<end>")))
        .enumerate()
        .find(|(_, (a, b))| a != b)
        .expect("unequal texts differ on some line");
    Err(format!(
        "{} differs from its golden at line {}: `{}` != `{}`",
        report.title,
        line + 1,
        ours.trim(),
        recorded.trim()
    ))
}
