//! Shared harness code behind the `figure` binary and its siblings.
//!
//! Every grid in the paper's evaluation section (§6) is registered here by
//! name: [`figure_session`] resolves any [`FIGURE_NAMES`] entry to its
//! *un-run* [`simsys::session::ExperimentSession`], so baselines are
//! memoized per workload and grid cells run in parallel. The run yields a
//! structured [`RunReport`](simsys::session::RunReport) that serialises to JSON (`--json`) or renders
//! as the classic aligned text table ([`render::figure_text`]).
//!
//! | Paper artefact | Entry point | Binary |
//! |----------------|-------------|--------|
//! | Table 1        | [`table1`] | `figure table1` |
//! | Figures 3–9    | [`figure_session`]`("fig3")`…`("fig9")` | `figure fig3` … `figure fig9` |
//! | Defense zoo    | [`figure_session`]`("shootout")` | `figure shootout` |
//! | §4.8 stress    | [`figure_session`]`("domain")` | `figure domain`, `attacks_report` |
//! | Attacks 1–6    | [`security_matrix`] | `attacks_report` |
//! | Static census  | [`lint::corpus_census`] | `speclint` |
//!
//! The named form is also what the `shard`, `merge` and `fleet` binaries
//! use: every process of a multi-host run rebuilds the identical plan from
//! the figure name, then coordinates purely through the shared store
//! directory (see [`simsys::runner`]).
//!
//! The `report` binary regenerates everything at once into one JSON
//! document, and — with `--html` — into one self-contained HTML page: one
//! SVG chart per figure plus the domain-switch summary table, rendered by
//! the [`reportgen`] crate through this crate's chart-metadata registry
//! ([`render::figure_meta`]). `figure` and `merge` accept the same flag
//! for their single figure.

#![forbid(unsafe_code)]

pub mod cli;
pub mod fleet;
pub mod lint;
pub mod perf;
pub mod render;
pub mod watch;

use simkit::config::{ProtectionConfig, SystemConfig};
use simkit::json::{Json, ToJson};

use attacks::AttackOutcome;
use defenses::{DefenseKind, DefenseRegistry};
use simsys::session::ExperimentSession;
use simsys::store::ResultStore;
use workloads::{domain_switch_suite, parsec_suite, spec_suite, Scale, Workload};

/// Table 1: the simulated system configuration.
pub fn table1() -> String {
    format!(
        "== Table 1: system configuration ==\n{}",
        SystemConfig::paper_default()
    )
}

/// Table 1 as JSON (the `table1 --json` output).
pub fn table1_json() -> Json {
    let cfg = SystemConfig::paper_default();
    Json::obj([
        ("cores", Json::UInt(cfg.cores as u64)),
        ("line_bytes", Json::UInt(cfg.line_bytes)),
        ("pipeline_width", Json::UInt(cfg.pipeline.width as u64)),
        ("rob_entries", Json::UInt(cfg.pipeline.rob_entries as u64)),
        ("l1d_bytes", Json::UInt(cfg.l1d.size_bytes)),
        ("l2_bytes", Json::UInt(cfg.l2.size_bytes)),
        ("data_filter_bytes", Json::UInt(cfg.data_filter.size_bytes)),
        ("data_filter_ways", Json::UInt(cfg.data_filter.ways as u64)),
        ("description", Json::Str(format!("{cfg}"))),
    ])
}

/// The cumulative protection configurations of figures 8 and 9, in the order
/// the paper stacks them.
pub fn cumulative_protection_kinds(include_parallel_l1: bool) -> Vec<(String, DefenseKind)> {
    let mut insecure = ProtectionConfig::insecure_l0();
    insecure.prefetch_at_commit = false;

    let fcache_only = ProtectionConfig {
        data_filter_cache: true,
        secure_filter: true,
        coherence_protection: false,
        instruction_filter_cache: false,
        prefetch_at_commit: false,
        clear_on_misspeculate: false,
        parallel_l1_access: false,
        filter_tlb: true,
    };
    let coherency = ProtectionConfig {
        coherence_protection: true,
        ..fcache_only
    };
    let ifcache = ProtectionConfig {
        instruction_filter_cache: true,
        ..coherency
    };
    let prefetching = ProtectionConfig {
        prefetch_at_commit: true,
        ..ifcache
    };
    let clear_misspec = ProtectionConfig {
        clear_on_misspeculate: true,
        ..prefetching
    };

    let mut kinds = vec![
        (
            "insecure L0".to_string(),
            DefenseKind::MuonTrapCustom(insecure),
        ),
        (
            "fcache only".to_string(),
            DefenseKind::MuonTrapCustom(fcache_only),
        ),
        (
            "coherency".to_string(),
            DefenseKind::MuonTrapCustom(coherency),
        ),
        ("ifcache".to_string(), DefenseKind::MuonTrapCustom(ifcache)),
        (
            "prefetching".to_string(),
            DefenseKind::MuonTrapCustom(prefetching),
        ),
        (
            "clear misspec".to_string(),
            DefenseKind::MuonTrapCustom(clear_misspec),
        ),
    ];
    if include_parallel_l1 {
        let parallel = ProtectionConfig {
            parallel_l1_access: true,
            ..prefetching
        };
        kinds.push((
            "parallel L1d".to_string(),
            DefenseKind::MuonTrapCustom(parallel),
        ));
    }
    kinds
}

/// The names [`figure_session`] resolves, in `report`-document order.
pub const FIGURE_NAMES: [&str; 9] = [
    "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "shootout", "domain",
];

/// Resolves a figure name (see [`FIGURE_NAMES`]) to its un-run
/// [`ExperimentSession`]; `None` for unknown names.
///
/// This is the planning entry point of every front end: `figure` runs the
/// session locally, while the `shard` and `merge` binaries both rebuild it
/// from the name, so every process of a run derives the identical
/// [`Plan`](simsys::runner::Plan) and they coordinate purely through the
/// shared store directory. Titles, column labels, suites and sweeps feed
/// the unit fingerprints, so they must not drift.
pub fn figure_session(
    name: &str,
    scale: Scale,
    config: &SystemConfig,
    threads: usize,
    store: Option<&ResultStore>,
) -> Option<ExperimentSession> {
    let session = |title: &str, workloads: Vec<Workload>| {
        ExperimentSession::new()
            .title(title)
            .scale(scale)
            .workloads(workloads)
            .config(config.clone())
            .threads(threads)
            .store(store.cloned())
    };
    let session = match name {
        // MuonTrap, InvisiSpec (both variants) and STT (both variants).
        "fig3" => session(
            "Figure 3: SPEC CPU2006-like, normalised execution time (lower is better)",
            spec_suite(scale),
        )
        .defenses(DefenseKind::figure3_set()),
        "fig4" => session(
            "Figure 4: Parsec-like (4 threads), normalised execution time (lower is better)",
            parsec_suite(scale, config.cores),
        )
        .defenses(DefenseKind::figure3_set()),
        // One baseline per workload: the swept filter-cache geometry is
        // invisible to the unprotected machine.
        "fig5" => {
            let sizes: [u64; 7] = [64, 128, 256, 512, 1024, 2048, 4096];
            let sweep = sizes.map(|size| {
                // Fully associative at every size, as in the paper's sweep.
                (
                    format!("{size} B"),
                    config.with_data_filter(size, (size / config.line_bytes) as usize),
                )
            });
            session(
                "Figure 5: filter-cache size sweep (fully associative), Parsec-like",
                parsec_suite(scale, config.cores),
            )
            .defenses([DefenseKind::MuonTrap])
            .config_sweep(sweep)
        }
        "fig6" => {
            let ways: [usize; 6] = [1, 2, 4, 8, 16, 32];
            let sweep = ways.map(|w| (format!("{w}-way"), config.with_data_filter(2048, w)));
            session(
                "Figure 6: 2 KiB filter-cache associativity sweep, Parsec-like",
                parsec_suite(scale, config.cores),
            )
            .defenses([DefenseKind::MuonTrap])
            .config_sweep(sweep)
        }
        // The figure's rates are `muontrap.*` counter ratios of each cell;
        // the registry entry in `render` names the two counters.
        "fig7" => session(
            "Figure 7: fraction of writes triggering filter-cache invalidation broadcasts",
            spec_suite(scale),
        )
        .defenses([DefenseKind::MuonTrap]),
        "fig8" => session(
            "Figure 8: cumulative protection mechanisms, Parsec-like",
            parsec_suite(scale, config.cores),
        )
        .defenses_labeled(cumulative_protection_kinds(false)),
        "fig9" => session(
            "Figure 9: cumulative protection mechanisms (+ parallel L1d), SPEC-like",
            spec_suite(scale),
        )
        .defenses_labeled(cumulative_protection_kinds(true)),
        // Every member of the defense zoo on one axis. Shares its
        // MuonTrap/InvisiSpec/STT cells (and every baseline) with figure 3
        // through the result store.
        "shootout" => session(
            "Defense shoot-out: every modelled defense, SPEC-like, normalised execution time",
            spec_suite(scale),
        )
        .defenses(DefenseKind::shootout_set()),
        // The §4.8 stress grid: kernels that force a filter-cache flush every
        // few hundred instructions, under the figure-3 defense set.
        "domain" => session(
            "Domain-switch stress (§4.8): syscall/sandbox-heavy kernels, normalised execution time",
            domain_switch_suite(scale),
        )
        .defenses(DefenseKind::figure3_set()),
        _ => return None,
    };
    Some(session)
}

/// The raw outcome of every attack against every configuration the security
/// argument compares: the full [`DefenseRegistry::standard`] catalogue, in
/// registration order, so a newly registered defense can never silently fall
/// out of the attack report.
pub fn security_outcomes(config: &SystemConfig) -> Vec<AttackOutcome> {
    let registry = DefenseRegistry::standard();
    let mut outcomes = Vec::new();
    for (_, kind) in registry.iter() {
        outcomes.push(attacks::spectre_prime_probe(kind, config));
        outcomes.extend(attacks::litmus::run_litmus_suite(kind, config));
    }
    outcomes
}

/// The security matrix: every attack against every configuration, reporting
/// which configurations leak (the paper's qualitative security argument).
pub fn security_matrix(config: &SystemConfig) -> String {
    let mut out = String::new();
    out.push_str("== Security litmus: does the attack extract information? ==\n");
    let mut current_defense = String::new();
    for outcome in security_outcomes(config) {
        if outcome.defense != current_defense {
            current_defense = outcome.defense.clone();
            out.push_str(&format!("--- {current_defense} ---\n"));
        }
        out.push_str(&format!(
            "  {:40} leaked: {}\n",
            outcome.attack, outcome.leaked
        ));
    }
    out
}

/// The security matrix as JSON (the `attacks_report --json` output).
pub fn security_json(config: &SystemConfig) -> Json {
    Json::Arr(
        security_outcomes(config)
            .iter()
            .map(ToJson::to_json)
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_mentions_the_core_count() {
        assert!(table1().contains("cores: 4"));
        assert_eq!(table1_json().get("cores").and_then(Json::as_u64), Some(4));
    }

    #[test]
    fn cumulative_kinds_grow_monotonically() {
        let kinds = cumulative_protection_kinds(true);
        assert_eq!(kinds.len(), 7);
        assert_eq!(kinds[0].0, "insecure L0");
        assert_eq!(kinds.last().unwrap().0, "parallel L1d");
    }

    #[test]
    fn tiny_figure_3_subset_runs() {
        // A smoke test over two workloads so the full harness logic (shared
        // baseline, normalisation, geomean) is exercised quickly, down to the
        // text table `figure fig3` prints.
        let cfg = SystemConfig::small_test();
        let report = ExperimentSession::new()
            .title("smoke")
            .workloads(spec_suite(Scale::Tiny).into_iter().take(2))
            .defenses([DefenseKind::MuonTrap])
            .config(cfg)
            .run();
        assert_eq!(report.workloads.len(), 2);
        assert!(report
            .cells
            .iter()
            .all(|c| c.normalized_time > 0.2 && c.normalized_time < 5.0));
        let product: f64 = report.cells.iter().map(|c| c.normalized_time).product();
        assert!((report.geomeans()[0] - product.sqrt()).abs() < 1e-9);
        let text = render::figure_text("fig3", &report);
        assert_eq!(text, report.render());
        assert_eq!(text.lines().count(), 5, "title, header, two rows, geomean");
        assert_eq!(
            text.lines().last().unwrap(),
            format!("{:<16}{:>24.3}", "geomean", report.geomeans()[0])
        );
    }

    #[test]
    fn figure_session_resolves_every_name_and_rejects_unknowns() {
        let cfg = SystemConfig::small_test();
        for name in FIGURE_NAMES {
            let session = figure_session(name, Scale::Tiny, &cfg, 1, None)
                .unwrap_or_else(|| panic!("figure {name} must resolve"));
            let plan = session.plan();
            assert!(!plan.cells.is_empty(), "figure {name} plans an empty grid");
            assert!(!plan.title.is_empty());
            // Planning is deterministic across resolutions — the property
            // the shard/merge binaries rely on.
            let again = figure_session(name, Scale::Tiny, &cfg, 1, None)
                .unwrap()
                .plan();
            assert_eq!(
                plan.cells.iter().map(|c| c.fingerprint).collect::<Vec<_>>(),
                again
                    .cells
                    .iter()
                    .map(|c| c.fingerprint)
                    .collect::<Vec<_>>()
            );
        }
        assert!(figure_session("fig12", Scale::Tiny, &cfg, 1, None).is_none());
    }

    #[test]
    fn domain_switch_grid_runs_the_new_kernels_under_every_defense() {
        let report = figure_session("domain", Scale::Tiny, &SystemConfig::small_test(), 2, None)
            .unwrap()
            .run();
        assert_eq!(report.workloads, vec!["syscall-storm", "sandbox-hop"]);
        assert_eq!(report.columns.len(), DefenseKind::figure3_set().len());
        for cell in &report.cells {
            assert!(cell.completed, "{} under {}", cell.workload, cell.column);
            assert!(cell.normalized_time > 0.2 && cell.normalized_time < 6.0);
        }
        // The kernels actually exercise the flush path: MuonTrap reports
        // syscall and sandbox flushes on these workloads.
        let muontrap = report
            .cells
            .iter()
            .find(|c| c.defense == DefenseKind::MuonTrap.label())
            .expect("muontrap column exists");
        assert!(
            muontrap.stats.counter("muontrap.syscall_flushes")
                + muontrap.stats.counter("muontrap.sandbox_flushes")
                > 0,
            "domain-switch kernels must trigger filter-cache flushes"
        );
    }

    #[test]
    fn figure7_rates_are_fractions() {
        let mut cfg = SystemConfig::small_test();
        cfg.cores = 1;
        let report = ExperimentSession::new()
            .title("fig7 smoke")
            .workloads(spec_suite(Scale::Tiny).into_iter().take(2))
            .defenses([DefenseKind::MuonTrap])
            .config(cfg)
            .run();
        let text = render::figure_text("fig7", &report);
        let rates: Vec<f64> = text
            .lines()
            .skip(2)
            .take(2)
            .map(|row| row.split_whitespace().last().unwrap().parse().unwrap())
            .collect();
        assert_eq!(rates.len(), 2);
        assert!(rates.iter().all(|r| (0.0..=1.0).contains(r)));
        for (cell, rate) in report.cells.iter().zip(&rates) {
            let ratio = cell.stats.ratio(
                "muontrap.store_upgrade_broadcasts",
                "muontrap.committed_stores",
            );
            assert_eq!(format!("{rate:.3}"), format!("{ratio:.3}"));
        }
    }
}
