//! What a run reports: the correctness tally, the metrics, and the
//! host facts behind them.

use std::collections::BTreeMap;

use crate::stats::quantile;

/// End-to-end metrics, printed on every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ack_p50_ms", "ms"),
    ("sat_rps", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("rss_mb", "MiB"),
];

/// Per-layer metrics, printed on every traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 40] = [
    // The open-loop ack p99 swings several-fold between runs on a
    // 2-core host (rope-arena compaction stalls sit at the percentile's
    // edge on `ingest_small`), so it is reported here rather than gated
    // as an end-to-end metric.
    ("ack_p99_ms", "ms"),
    ("gen.lag_p99_ms", "ms"),
    ("wire.encode_us", "us"),
    ("wire.frame_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.envelope_encode_us", "us"),
    ("wire.envelope_decode_us", "us"),
    ("wire.bytes_per_report", "bytes"),
    ("controller.submit_us", "us"),
    ("controller.admit_us", "us"),
    ("controller.lock_wait_p99_us", "us"),
    ("dedup.observe_us", "us"),
    ("dedup.duplicates", "count"),
    ("reactor.residual_us", "us"),
    ("reactor.wakeups_per_report", "ratio"),
    ("reactor.frames_per_batch", "frames"),
    ("reactor.backpressure_pauses", "count"),
    ("spool.enqueue_us", "us"),
    ("spool.ack_us", "us"),
    ("depot.unpack_us", "us"),
    ("depot.insert_us", "us"),
    ("depot.archive_us", "us"),
    ("depot.garbage_ratio", "ratio"),
    ("depot.compactions", "count"),
    ("depot.cache_bytes", "bytes"),
    ("depot.share", "ratio"),
    ("depot.response_p50_ms", "ms"),
    ("archive.writes_per_report", "ratio"),
    ("query.report_us", "us"),
    ("query.reports_us", "us"),
    ("query.document_us", "us"),
    ("temporal.window_us", "us"),
    ("consumer.status_page_us", "us"),
    ("query.memo_hit_ratio", "ratio"),
    ("sim.reports", "count"),
    ("daemon.forward_errors", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("budget.e2e_us", "us"),
    ("budget.stages_us", "us"),
    ("fail_ratio", "ratio"),
];

/// Correctness accounting: every attempted operation, and the ones the
/// oracles failed (rejected, lost, wrong answer, missing or duplicated
/// report at the end).
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    notes: Vec<String>,
}

impl Tally {
    /// Counts `n` attempted operations that succeeded so far.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Records `n` failures among the attempted operations.
    pub fn fail(&mut self, n: u64, why: impl FnOnce() -> String) {
        if n > 0 {
            self.failed += n;
            if self.notes.len() < 20 {
                self.notes.push(format!("{n} failed: {}", why()));
            }
        }
    }

    /// One oracle check: an attempted operation that fails unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(1, why);
        }
    }

    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}

/// An open-loop run is valid only if its sender kept the schedule far
/// better than the latency it measured: at each reported quantile (p50
/// and p99) the sender's lag must stay under half the same sender's ack
/// latency, so no reported figure is set by the generator. A late
/// sender (or too few samples to tell) counts as one failed operation.
///
/// Like is compared with like: on a virtual machine the hypervisor
/// pauses a vCPU now and then, which puts the lag p99 near the ack p50
/// of a fast server although it moves neither reported figure.
pub fn check_schedule(tally: &mut Tally, lags_s: &[f64], acks_s: &[f64]) {
    let ms = |s: Option<f64>| s.map_or(f64::NAN, |s| s * 1e3);
    for (q, name) in [(0.5, "p50"), (0.99, "p99")] {
        let (lag, ack) = (quantile(lags_s, q), quantile(acks_s, q));
        eprintln!(
            "schedule: sender lag {name} {:.4} ms vs ack {name} {:.4} ms",
            ms(lag),
            ms(ack)
        );
        tally.check(
            matches!((lag, ack), (Some(l), Some(a)) if l < a / 2.0),
            || {
                format!(
                    "invalid run: the sender's lag {name} {:.4} ms is not under half its ack {name} {:.4} ms",
                    ms(lag),
                    ms(ack)
                )
            },
        );
    }
}

/// Named metric values, filled in by a workload.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(f64::NAN)
    }
}

/// The result line: exactly `correct`, `attempted`, `failed` and the
/// metrics of `names`, each with its unit. Errors if a metric is
/// missing or not a finite number.
pub fn result_line(
    tally: &Tally,
    metrics: &Metrics,
    names: &[(&str, &str)],
) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted.max(1),
        tally.failed
    );
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = metrics.get(name);
        if !value.is_finite() {
            return Err(format!("metric {name} was not measured ({value})"));
        }
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    out.push_str("}}");
    Ok(out)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Cores this process may run on (as it started, before any pinning).
pub fn nproc() -> usize {
    crate::net::allowed_cpus().len().max(1)
}

/// The host facts recorded beside every result, as one JSON object.
pub fn host_facts(workload: &str, seed: u64, offered_rate: f64, trace: bool) -> String {
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    // The generator shares the server's core when there is only one.
    let shares = nproc() < 2;
    let layout = "reactor alone on core 0; generator (one thread, one connection) on core 1";
    format!(
        "{{\"host\": {{\"nproc\": {}, \"generator_shares_server_cores\": {shares}, \"core_layout\": \"{layout}\", \"build_profile\": \"{profile}\", \"git_commit\": \"{commit}\", \"workload\": \"{workload}\", \"seed\": {seed}, \"offered_rate_per_s\": {offered_rate}, \"traced\": {trace}}}}}",
        nproc()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_names_every_metric_and_each_workloads_fixed_rate() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let flat: String = text.chars().filter(|c| !c.is_whitespace()).collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(flat.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let rates = [
            ("ingest_small", crate::ingest::SMALL_RATE),
            ("ingest_large_archived", crate::ingest::LARGE_RATE),
        ];
        for (workload, rate) in rates {
            let entry = format!("\"name\":\"{workload}\",\"why\":\"");
            let why = flat
                .split(&entry)
                .nth(1)
                .unwrap_or_else(|| panic!("no workload {workload}"));
            let why = why.split('"').next().expect("why text");
            assert!(
                why.contains(&format!("at{rate}reports/s")),
                "{workload}: rate {rate} not in {why:?}"
            );
        }
    }

    #[test]
    fn an_injected_wrong_answer_makes_fail_ratio_nonzero() {
        let mut tally = Tally::default();
        tally.attempt(99);
        assert_eq!(tally.fail_ratio(), 0.0);
        tally.check("expected" == "expected", || "same".into());
        assert_eq!(tally.fail_ratio(), 0.0);
        tally.check("expected" == "injected", || "wrong answer".into());
        assert_eq!(tally.attempted, 101);
        assert!(tally.fail_ratio() > 0.0);
        assert_eq!(tally.notes().len(), 1);
    }

    #[test]
    fn a_late_sender_makes_the_run_invalid() {
        // Acks of 200 µs; a sender 10 µs late is on schedule.
        let acks = vec![200e-6; 2_000];
        let mut on_time = Tally::default();
        check_schedule(&mut on_time, &vec![10e-6; 2_000], &acks);
        assert_eq!((on_time.attempted, on_time.failed), (2, 0));

        // One send in fifty is 1 ms late: the lag p99 is past half the
        // ack p99, so the run fails.
        let lags: Vec<f64> = (0..2_000)
            .map(|i| if i % 50 == 0 { 1e-3 } else { 10e-6 })
            .collect();
        let mut late = Tally::default();
        check_schedule(&mut late, &lags, &acks);
        assert_eq!(late.failed, 1);
        assert!(
            late.notes()[0].contains("invalid run"),
            "{:?}",
            late.notes()
        );

        // Too few samples to state a p99 is not a valid run either.
        let mut short = Tally::default();
        check_schedule(&mut short, &lags[..100], &acks[..100]);
        assert_eq!(short.failed, 1);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.5);
        let line = result_line(
            &Tally {
                attempted: 3,
                ..Tally::default()
            },
            &m,
            &[("setup_s", "s")],
        )
        .unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!(result_line(&Tally::default(), &m, &[("rss_mb", "MiB")]).is_err());
    }
}
