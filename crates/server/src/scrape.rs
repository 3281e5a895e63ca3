//! The self-scrape pipeline: Inca monitoring Inca.
//!
//! The paper's depot archives *resource* telemetry; the framework's
//! own vital signs (spool depth, insert latency, alert state) have so
//! far only existed as instantaneous values on the exposition page. A
//! [`MetricsScraper`] closes the loop, DiPerF-style: on a fixed
//! cadence it snapshots every series in a
//! [`MetricsRegistry`](inca_obs::metrics::MetricsRegistry) (via
//! [`sample`](inca_obs::metrics::MetricsRegistry::sample)) and records
//! it into the depot's [`ArchiveStore`] under a `self:`-prefixed
//! series name, using tiered multi-resolution layouts
//! ([`ArchiveStore::record_tiered`]) so a year of framework history
//! stays cheap. Because they are ordinary archive series, the
//! [`TemporalQuery`](crate::temporal::TemporalQuery) surface —
//! windowed aggregates, multi-resolution fetches, incident bounds —
//! works on them unchanged.
//!
//! Naming scheme (labels render sorted, inside `{…}`):
//!
//! | instrument | series recorded |
//! |---|---|
//! | gauge | `self:<name>[{k=v,…}]` (the value) |
//! | counter | `self:<name>[{k=v,…}]:rate` (per-second delta) |
//! | histogram | `self:<name>[{k=v,…}]:p50`, `…:p99`, `…:count_rate` |
//!
//! Counter and count rates need two scrapes before their first point
//! (a rate is a delta); gauges and quantiles record from the first
//! pass. Empty histograms are skipped entirely.

use std::collections::BTreeMap;
use std::sync::Arc;

use inca_obs::metrics::{Counter, Gauge, SampleValue};
use inca_obs::Obs;
use inca_report::Timestamp;
use inca_rrd::ArchivePolicy;

use crate::depot::archive::ArchiveStore;

/// Prefix distinguishing self-scraped framework series from resource
/// series in the shared archive namespace.
pub const SELF_SERIES_PREFIX: &str = "self:";

/// Default tiered layout for self-scraped series: raw samples for a
/// week, 6× consolidation for 90 days, 36× for a year (mirroring the
/// classic RRDTool tiering the availability archives use).
pub const SELF_SCRAPE_TIERS: [(u32, u64); 2] = [(6, 90 * 86_400), (36, 365 * 86_400)];

/// Periodically samples a metrics registry into archive series. See
/// the [module docs](self) for the naming scheme.
#[derive(Debug)]
pub struct MetricsScraper {
    obs: Obs,
    period_secs: u64,
    policy: ArchivePolicy,
    tiers: Vec<(u32, u64)>,
    /// Last seen cumulative count per rate series (counter values and
    /// histogram counts), with its sample time.
    prev: BTreeMap<String, (u64, Timestamp)>,
    /// `inca_scrape_passes_total`.
    passes: Arc<Counter>,
    /// `inca_scrape_series` — series written by the latest pass.
    series_gauge: Arc<Gauge>,
}

impl MetricsScraper {
    /// A scraper sampling `obs`'s registry every `period_secs`
    /// (the caller owns the cadence — [`MetricsScraper::scrape`] does
    /// the work whenever invoked; the period only sizes the archives).
    /// Uses a one-week raw window with [`SELF_SCRAPE_TIERS`] rollups.
    pub fn new(obs: &Obs, period_secs: u64) -> MetricsScraper {
        MetricsScraper {
            obs: obs.clone(),
            period_secs: period_secs.max(1),
            policy: ArchivePolicy::every("self-scrape", 7 * 86_400),
            tiers: SELF_SCRAPE_TIERS.to_vec(),
            prev: BTreeMap::new(),
            passes: obs.metrics().counter(
                "inca_scrape_passes_total",
                "Completed self-scrape passes over the metrics registry.",
            ),
            series_gauge: obs.metrics().gauge(
                "inca_scrape_series",
                "Archive series written by the most recent self-scrape pass.",
            ),
        }
    }

    /// The scrape cadence the archives are sized for.
    pub fn period_secs(&self) -> u64 {
        self.period_secs
    }

    /// Runs one scrape pass at time `now`: every registered series is
    /// sampled and recorded into `archive`. Returns how many archive
    /// series were written this pass.
    pub fn scrape(&mut self, archive: &mut ArchiveStore, now: Timestamp) -> usize {
        self.passes.inc();
        let mut written = 0;
        for series in self.obs.metrics().sample() {
            let base = series_name(&series.name, &series.labels);
            match series.value {
                SampleValue::Gauge(v) => {
                    self.record(archive, &base, now, v);
                    written += 1;
                }
                SampleValue::Counter(count) => {
                    written += self.record_rate(archive, format!("{base}:rate"), now, count);
                }
                SampleValue::Histogram { count, sum: _, p50, p99 } => {
                    if count == 0 {
                        continue;
                    }
                    if let Some(p50) = p50 {
                        self.record(archive, &format!("{base}:p50"), now, p50);
                        written += 1;
                    }
                    if let Some(p99) = p99 {
                        self.record(archive, &format!("{base}:p99"), now, p99);
                        written += 1;
                    }
                    written +=
                        self.record_rate(archive, format!("{base}:count_rate"), now, count);
                }
            }
        }
        self.series_gauge.set(written as f64);
        written
    }

    fn record(&self, archive: &mut ArchiveStore, series: &str, now: Timestamp, value: f64) {
        archive.record_tiered(series, &self.policy, self.period_secs, &self.tiers, now, value);
    }

    /// Records the per-second rate of a cumulative count, once a
    /// previous sample exists. Returns the number of points written
    /// (0 or 1).
    fn record_rate(
        &mut self,
        archive: &mut ArchiveStore,
        series: String,
        now: Timestamp,
        count: u64,
    ) -> usize {
        let prev = self.prev.insert(series.clone(), (count, now));
        let Some((prev_count, prev_t)) = prev else { return 0 };
        let dt = now - prev_t;
        if dt == 0 {
            return 0;
        }
        // A counter reset (restart) would make the delta negative;
        // clamp to the new cumulative value, as RRDTool does.
        let delta = count.saturating_sub(prev_count).min(count);
        self.record(archive, &series, now, delta as f64 / dt as f64);
        1
    }
}

/// `self:<name>` with sorted labels rendered as `{k=v,…}` when present.
fn series_name(name: &str, labels: &[(String, String)]) -> String {
    let mut out = format!("{SELF_SERIES_PREFIX}{name}");
    if !labels.is_empty() {
        out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(k);
            out.push('=');
            out.push_str(v);
        }
        out.push('}');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use inca_rrd::ConsolidationFn;

    fn setup() -> (Obs, ArchiveStore, MetricsScraper) {
        let obs = Obs::new();
        let archive = ArchiveStore::with_obs(&obs);
        let scraper = MetricsScraper::new(&obs, 60);
        (obs, archive, scraper)
    }

    #[test]
    fn gauges_record_from_first_pass_counters_need_two() {
        let (obs, mut archive, mut scraper) = setup();
        let depth = obs.metrics().gauge("inca_daemon_spool_depth", "depth");
        let fires = obs.metrics().counter("inca_daemon_retries_total", "fires");
        depth.set(3.0);
        fires.add(120);

        let t0 = Timestamp::from_secs(600_000);
        scraper.scrape(&mut archive, t0);
        assert!(archive
            .fetch_series("self:inca_daemon_spool_depth", ConsolidationFn::Average, t0 - 60, t0)
            .is_some());
        assert!(
            archive.fetch_series(
                "self:inca_daemon_retries_total:rate",
                ConsolidationFn::Average,
                t0 - 60,
                t0
            )
            .is_none(),
            "a rate needs two samples"
        );

        fires.add(60);
        depth.set(5.0);
        let t1 = t0 + 60;
        scraper.scrape(&mut archive, t1);
        let rate = archive
            .fetch_series(
                "self:inca_daemon_retries_total:rate",
                ConsolidationFn::Average,
                t0,
                t1,
            )
            .expect("rate series exists after second pass");
        let points: Vec<f64> = rate.known_points().map(|(_, v)| v).collect();
        assert!(
            points.iter().any(|v| (v - 1.0).abs() < 1e-9),
            "60 fires over 60s is 1/s, got {points:?}"
        );
    }

    #[test]
    fn histograms_scrape_quantiles_and_skip_when_empty() {
        let (obs, mut archive, mut scraper) = setup();
        let hist = obs.metrics().histogram(
            "inca_depot_insert_seconds",
            "insert latency",
            &inca_obs::metrics::DEFAULT_LATENCY_BOUNDS,
        );
        let t0 = Timestamp::from_secs(600_000);
        scraper.scrape(&mut archive, t0);
        assert!(
            !archive.series_names().iter().any(|s| s.contains("insert_seconds")),
            "empty histograms are skipped"
        );

        for _ in 0..100 {
            hist.observe(0.004);
        }
        let t1 = t0 + 60;
        scraper.scrape(&mut archive, t1);
        for suffix in ["p50", "p99"] {
            assert!(
                archive
                    .fetch_series(
                        &format!("self:inca_depot_insert_seconds:{suffix}"),
                        ConsolidationFn::Average,
                        t0,
                        t1,
                    )
                    .is_some(),
                "missing {suffix} series; have {:?}",
                archive.series_names()
            );
        }
    }

    #[test]
    fn labelled_series_get_stable_names_and_scraper_observes_itself() {
        let (obs, mut archive, mut scraper) = setup();
        obs.metrics()
            .gauge_with("inca_health_alert", &[("rule", "spool"), ("subject", "d1")], "alert")
            .set(1.0);
        let t0 = Timestamp::from_secs(600_000);
        let written = scraper.scrape(&mut archive, t0);
        assert!(written >= 2, "labelled gauge + scraper's own gauge");
        assert!(archive
            .series_names()
            .iter()
            .any(|s| s == "self:inca_health_alert{rule=spool,subject=d1}"));

        // Two passes in: the scraper's own pass counter has a rate
        // series — Inca monitoring Inca monitoring Inca.
        scraper.scrape(&mut archive, t0 + 60);
        assert!(archive
            .series_names()
            .iter()
            .any(|s| s == "self:inca_scrape_passes_total:rate"));
    }
}
