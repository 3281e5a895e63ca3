//! Determinism of the simulation engine.
//!
//! Every daemon runs on its own seeded RNG and every tick's reports
//! drain through one deterministic, branch-ordered batched submission
//! — so two runs of a deployment with the same seed must produce the
//! exact same outcome: status page bytes, cache document bytes,
//! verification passes, health alerts and per-daemon counters all
//! have to match.

use inca::prelude::*;

/// Everything observable about a finished run, in comparable form.
#[derive(PartialEq, Debug)]
struct Fingerprint {
    status_page: String,
    cache_document: String,
    cached_reports: usize,
    received_reports: u64,
    verification_passes: u64,
    health_page: Option<String>,
    daemon_stats: Vec<(u64, u64, u64, u64, u64)>,
}

fn run_seeded(seed: u64) -> Fingerprint {
    let start = Timestamp::from_gmt(2004, 7, 7, 0, 0, 0);
    let end = start + 2 * 3_600;
    let deployment = teragrid_deployment(seed, start, end);
    let outcome = SimRun::new(
        deployment,
        SimOptions {
            // Fresh registry and sinks per run: metrics isolation, and
            // no cross-run trace-id reuse muddying the comparison.
            obs: Some(Obs::new()),
            health_rules: Some(default_rules("teragrid")),
            ..Default::default()
        },
    )
    .run();
    Fingerprint {
        status_page: render_status_page(&outcome.final_page),
        cache_document: outcome
            .server
            .with_depot(|d| d.cache().document().to_string()),
        cached_reports: outcome.server.with_depot(|d| d.cache().report_count()),
        received_reports: outcome.server.with_depot(|d| d.stats().report_count()),
        verification_passes: outcome.verification_passes,
        health_page: outcome.health_page,
        daemon_stats: outcome
            .daemons
            .iter()
            .map(|d| {
                let s = d.stats();
                (s.executed, s.succeeded, s.failed, s.killed, s.forward_errors)
            })
            .collect(),
    }
}

#[test]
fn same_seed_runs_are_identical() {
    let first = run_seeded(42);
    // Sanity: the fingerprint captures a real run, not an empty one.
    assert!(first.received_reports > 1_000);
    assert!(first.verification_passes >= 10);
    assert!(first.health_page.is_some());

    let second = run_seeded(42);
    assert_eq!(first.status_page, second.status_page, "status page bytes diverged");
    assert_eq!(first.cache_document, second.cache_document, "depot cache document diverged");
    assert_eq!(first.health_page, second.health_page, "health page diverged");
    assert_eq!(first, second, "simulation outcome diverged between same-seed runs");
}
