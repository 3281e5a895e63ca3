//! The tracked federation-scale baseline (`BENCH_fed.json` at the
//! repo root).
//!
//! Scale curve for the federated depot tier: N grid sites (one
//! availability report each) spread over 8 depot partitions, measuring
//! at each N
//!
//! * the cold global-merge latency (`global_query_us`) — every
//!   partition's reports materialized and merged in canonical order,
//! * the memoized repeat (`memo_hit_us`) — what a steady-state global
//!   query costs while no partition ingests,
//! * the site-scoped query latency (`site_query_us`) — routed to the
//!   one owning partition, O(result) regardless of N,
//! * the largest partition cache (`largest_cache_bytes`) against a
//!   per-partition byte bound that a single depot swallowing the VO
//!   would trip,
//! * and byte-identity of the merged document against a single-depot
//!   oracle fed the same payloads (`oracle_identical`).
//!
//! Flags: `--smoke` shrinks the curve to a seconds-long sanity pass
//! (CI gate); `--out PATH` overrides the default output path
//! `BENCH_fed.json`. Full mode self-gates: the oracle must match at
//! every point, every partition must hold a share of the VO under the
//! byte bound, and site queries must stay under a loose ceiling.

use std::time::Instant;

use inca_obs::Obs;
use inca_report::{BranchId, ReportBuilder, Timestamp};
use inca_server::{CentralizedController, ControllerConfig, Depot, Federation, FederationConfig};
use inca_wire::message::{ClientMessage, ServerResponse};

const N_PARTITIONS: usize = 8;

struct Config {
    smoke: bool,
    out: String,
    /// Site counts, ascending.
    sites: Vec<usize>,
}

fn parse_args() -> Config {
    let mut smoke = false;
    let mut out = "BENCH_fed.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => {
                out = args.next().unwrap_or_else(|| {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                })
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: fed_scale [--smoke] [--out PATH]");
                std::process::exit(2);
            }
        }
    }
    let sites = if smoke { vec![50, 200] } else { vec![50, 100, 200, 400] };
    Config { smoke, out, sites }
}

/// One availability report per site, hosts deterministic in the site
/// index — the same shape `Vo::grid` produces, without paying for the
/// failure models the bench does not probe.
fn leaf_payloads(sites: usize) -> Vec<(String, Vec<u8>)> {
    (0..sites)
        .map(|s| {
            let site = format!("site{s:03}");
            let host = format!("node0.{site}.grid.example.org");
            let builder = ReportBuilder::new("probe.avail", "1")
                .host(&host)
                .gmt(Timestamp::from_secs(1_089_158_400))
                .body_value("status", if s % 5 == 0 { "down" } else { "up" });
            let report =
                if s % 5 == 0 { builder.failure("unreachable") } else { builder.success() }
                    .unwrap();
            let branch: BranchId =
                format!("reporter=probe.avail,resource={host},site={site},vo=grid")
                    .parse()
                    .unwrap();
            (host.clone(), ClientMessage::report(host, branch, &report).encode())
        })
        .collect()
}

struct Point {
    sites: usize,
    partitions: usize,
    reports: usize,
    global_query_us: f64,
    memo_hit_us: f64,
    site_query_us: f64,
    largest_cache_bytes: usize,
    over_bound: usize,
    oracle_identical: bool,
}

fn bench_point(sites: usize) -> Point {
    // The bound a lopsided map would trip: well under the whole VO's
    // bytes, comfortably over one partition's fair share (~1/8).
    let cache_byte_bound = sites * 300;
    let fed = Federation::new(
        FederationConfig {
            partitions: (0..N_PARTITIONS).map(|i| format!("depot{i}")).collect(),
            vo: "grid".into(),
            cache_byte_bound: Some(cache_byte_bound),
            ..FederationConfig::default()
        },
        Obs::new(),
    );
    let payloads = leaf_payloads(sites);
    let now = Timestamp::from_secs(1_089_158_400);
    for (response, _) in fed.submit_batch(&payloads, now) {
        assert_eq!(response, ServerResponse::Ack, "bench submission rejected");
    }

    // Cold merge: materialize and merge every partition.
    let started = Instant::now();
    let merged = fed.global_document().expect("global merge");
    let global_query_us = started.elapsed().as_secs_f64() * 1e6;

    // Steady state: the memo answers while nothing ingests.
    let started = Instant::now();
    let again = fed.global_document().expect("memo hit");
    let memo_hit_us = started.elapsed().as_secs_f64() * 1e6;
    assert_eq!(merged, again);

    // Site-scoped queries route to one partition; average a sample.
    let sample = sites.min(20);
    let started = Instant::now();
    for s in 0..sample {
        let query: BranchId = format!("site=site{s:03},vo=grid").parse().unwrap();
        let hits = fed.reports(Some(&query)).expect("site query");
        assert_eq!(hits.len(), 1);
    }
    let site_query_us = started.elapsed().as_secs_f64() * 1e6 / sample.max(1) as f64;

    // The oracle: one depot, same payloads, byte-identical document.
    let oracle = CentralizedController::new(
        ControllerConfig::default(),
        Depot::with_obs(Obs::new()),
    );
    for (host, payload) in &payloads {
        let (response, _) = oracle.submit(host, payload, now);
        assert_eq!(response, ServerResponse::Ack);
    }
    let oracle_identical = oracle.with_depot(|d| *d.cache().document() == *merged);

    Point {
        sites,
        partitions: N_PARTITIONS,
        reports: fed.report_count(),
        global_query_us,
        memo_hit_us,
        site_query_us,
        largest_cache_bytes: fed.largest_cache_bytes(),
        over_bound: fed.over_bound_partitions().len(),
        oracle_identical,
    }
}

fn main() {
    let cfg = parse_args();
    eprintln!("fed_scale: site counts {:?}, {N_PARTITIONS} partitions", cfg.sites);

    let points: Vec<Point> = cfg.sites.iter().map(|&s| bench_point(s)).collect();
    for p in &points {
        eprintln!(
            "  {} sites: global merge {:.0}us (memo {:.1}us), site query {:.1}us, \
             largest cache {} bytes, oracle identical: {}",
            p.sites,
            p.global_query_us,
            p.memo_hit_us,
            p.site_query_us,
            p.largest_cache_bytes,
            p.oracle_identical
        );
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"fed_scale\",\n");
    json.push_str(&format!("  \"mode\": \"{}\",\n", if cfg.smoke { "smoke" } else { "full" }));
    json.push_str(&format!("  \"partitions\": {N_PARTITIONS},\n"));
    json.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"sites\": {}, \"partitions\": {}, \"reports\": {}, \
             \"global_query_us\": {:.1}, \"memo_hit_us\": {:.2}, \"site_query_us\": {:.2}, \
             \"largest_cache_bytes\": {}, \"over_bound\": {}, \"oracle_identical\": {}}}{}\n",
            p.sites,
            p.partitions,
            p.reports,
            p.global_query_us,
            p.memo_hit_us,
            p.site_query_us,
            p.largest_cache_bytes,
            p.over_bound,
            p.oracle_identical,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n");
    json.push_str("}\n");

    std::fs::write(&cfg.out, &json).expect("write bench output");
    eprintln!("wrote {}", cfg.out);

    // Smoke gates in verify.sh on the JSON; full mode self-gates here.
    if !cfg.smoke {
        let mut failed = false;
        for p in &points {
            if !p.oracle_identical {
                eprintln!("FAIL: merged document diverged from the oracle at {} sites", p.sites);
                failed = true;
            }
            if p.reports != p.sites {
                eprintln!("FAIL: {} of {} reports cached", p.reports, p.sites);
                failed = true;
            }
            if p.over_bound > 0 {
                eprintln!(
                    "FAIL: {} partitions over the {}-byte bound at {} sites",
                    p.over_bound,
                    p.sites * 300,
                    p.sites
                );
                failed = true;
            }
            if p.site_query_us > 20_000.0 {
                eprintln!(
                    "FAIL: site query {:.0}us at {} sites above the 20ms ceiling",
                    p.site_query_us, p.sites
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}
