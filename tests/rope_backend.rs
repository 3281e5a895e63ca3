//! End-to-end byte-identity for the O(report) write path.
//!
//! The rope cache and the binary envelope are fast paths beside the
//! paper's splice cache and XML envelope — encodings, not different
//! semantics. A full simulated deployment run on the fast path, even
//! under aggressive forward-fault injection, must end with a depot
//! cache byte-identical to the fault-free run on the 2004 path.

use inca::prelude::*;
use inca::sim::ForwardFaultConfig;

const SDSC: &str = "tg-login1.caltech.teragrid.org";
const PSC: &str = "rachel.psc.edu";

fn horizon() -> (Timestamp, Timestamp) {
    let start = Timestamp::from_gmt(2004, 7, 7, 0, 0, 0);
    (start, start + 2 * 3_600)
}

fn chaos_schedule(start: Timestamp) -> ForwardFaultConfig {
    let s = start.as_secs();
    ForwardFaultConfig {
        partitions: vec![(SDSC.to_string(), s + 1_800, s + 3_300)],
        restarts: vec![(PSC.to_string(), s + 2_400), (SDSC.to_string(), s + 5_400)],
        ..ForwardFaultConfig::chaos(7)
    }
}

struct Outcome {
    cache_document: String,
    cached_reports: usize,
    ingested_reports: u64,
    duplicates: u64,
    retries: u64,
}

fn run(backend: CacheBackend, mode: EnvelopeMode, faults: Option<ForwardFaultConfig>) -> Outcome {
    let (start, end) = horizon();
    let mut deployment = teragrid_deployment(42, start, end);
    deployment.retain_resources(&[SDSC, PSC]);
    let obs = Obs::new();
    let outcome = SimRun::new(
        deployment,
        SimOptions {
            obs: Some(obs.clone()),
            verify_every_secs: None,
            forward_faults: faults,
            cache_backend: backend,
            envelope_mode: mode,
            ..Default::default()
        },
    )
    .run();
    Outcome {
        cache_document: outcome.server.with_depot(|d| d.cache().document().to_string()),
        cached_reports: outcome.server.with_depot(|d| d.cache().report_count()),
        ingested_reports: outcome.server.with_depot(|d| d.stats().report_count()),
        duplicates: outcome.server.duplicate_count(),
        retries: obs
            .metrics()
            .counter_value("inca_daemon_retries_total", &[])
            .unwrap_or(0),
    }
}

#[test]
fn rope_binary_run_is_byte_identical_to_splice_body_run() {
    let baseline = run(CacheBackend::Splice, EnvelopeMode::Body, None);
    assert!(baseline.ingested_reports > 200, "baseline must be a real run");
    let fast = run(CacheBackend::Rope, EnvelopeMode::Binary, None);
    assert_eq!(fast.ingested_reports, baseline.ingested_reports);
    assert_eq!(fast.cached_reports, baseline.cached_reports);
    assert_eq!(
        fast.cache_document, baseline.cache_document,
        "rope+binary cache must be byte-identical to splice+XML"
    );
}

#[test]
fn chaotic_rope_binary_run_converges_to_the_fault_free_splice_cache() {
    let (start, _) = horizon();
    let baseline = run(CacheBackend::Splice, EnvelopeMode::Body, None);
    let chaotic = run(CacheBackend::Rope, EnvelopeMode::Binary, Some(chaos_schedule(start)));
    // The chaos actually bit on the fast path too.
    assert!(chaotic.retries > 0, "fault schedule must force retries");
    assert!(chaotic.duplicates > 0, "lost acks must produce absorbed duplicates");
    // Exactly-once and byte-identity both survive the encoding swap.
    assert_eq!(chaotic.ingested_reports, baseline.ingested_reports);
    assert_eq!(
        chaotic.cache_document, baseline.cache_document,
        "chaotic rope+binary cache must converge to the fault-free splice cache"
    );
}
