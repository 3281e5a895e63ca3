//! The round-robin database proper.
//!
//! An [`Rrd`] owns a set of data sources, converts each raw update into
//! per-second rates, assembles *primary data points* (PDPs) at fixed
//! step boundaries, and fans completed PDPs out to its archives. The
//! database never grows: all storage is in fixed-size rings, which is
//! why the paper calls RRDTool "a scalable solution for archiving
//! numerical data".
//!
//! PDP semantics (documented simplification of RRDTool): within one
//! step, the PDP is the time-weighted average of the known rates; the
//! PDP is *unknown* when less than half of the step interval had known
//! data.

use std::fmt;

use inca_report::Timestamp;

use crate::ds::DataSource;
use crate::rra::{ConsolidationFn, Rra};

/// Errors from RRD operations.
#[derive(Debug, Clone, PartialEq)]
pub enum RrdError {
    /// Updates must strictly advance time.
    TimeNotAdvancing {
        /// Time of the most recent accepted update.
        last: Timestamp,
        /// The rejected update time.
        offered: Timestamp,
    },
    /// The update carried the wrong number of values.
    WrongValueCount {
        /// Number of data sources defined.
        expected: usize,
        /// Number of values offered.
        found: usize,
    },
    /// No archive with the requested consolidation function exists.
    NoArchive {
        /// The requested function.
        cf: ConsolidationFn,
    },
    /// The named data source does not exist.
    NoSuchSource {
        /// The requested name.
        name: String,
    },
    /// Invalid construction parameters.
    Invalid(String),
}

impl fmt::Display for RrdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RrdError::TimeNotAdvancing { last, offered } => {
                write!(f, "update at {offered} does not advance past {last}")
            }
            RrdError::WrongValueCount { expected, found } => {
                write!(f, "expected {expected} values, found {found}")
            }
            RrdError::NoArchive { cf } => write!(f, "no {} archive defined", cf.as_str()),
            RrdError::NoSuchSource { name } => write!(f, "no data source named {name:?}"),
            RrdError::Invalid(msg) => write!(f, "invalid RRD definition: {msg}"),
        }
    }
}

impl std::error::Error for RrdError {}

/// Per-data-source PDP assembly state.
#[derive(Debug, Clone)]
struct DsState {
    last_raw: Option<f64>,
    /// Σ rate·seconds over the known part of the current step.
    accum: f64,
    /// Seconds of the current step with known data.
    known_secs: u64,
}

/// The result of a temporal fetch: a regular series of consolidated
/// points.
#[derive(Debug, Clone, PartialEq)]
pub struct FetchResult {
    /// Seconds covered by each point.
    pub step: u64,
    /// Points as `(interval_end, value)` pairs, oldest first; unknown
    /// values are `NaN`.
    pub points: Vec<(Timestamp, f64)>,
}

impl FetchResult {
    /// Points with known (non-NaN) values only.
    pub fn known_points(&self) -> impl Iterator<Item = (Timestamp, f64)> + '_ {
        self.points.iter().copied().filter(|(_, v)| !v.is_nan())
    }

    /// Series equality that treats unknown (NaN) points as equal —
    /// `PartialEq` cannot, since `NaN != NaN`.
    pub fn same_series(&self, other: &FetchResult) -> bool {
        self.step == other.step
            && self.points.len() == other.points.len()
            && self
                .points
                .iter()
                .zip(&other.points)
                .all(|((ta, va), (tb, vb))| {
                    ta == tb && (va == vb || (va.is_nan() && vb.is_nan()))
                })
    }
}

/// Definition of one archive (applied to every data source).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArchiveDef {
    /// Consolidation function.
    pub cf: ConsolidationFn,
    /// Allowed unknown fraction per CDP.
    pub xff: f64,
    /// PDPs per CDP.
    pub steps: u32,
    /// Ring capacity.
    pub rows: usize,
}

/// A multi-source round-robin database.
#[derive(Debug, Clone)]
pub struct Rrd {
    step: u64,
    sources: Vec<DataSource>,
    /// `archives[a].1[ds]` is the ring for archive `a`, source `ds`.
    archives: Vec<(ArchiveDef, Vec<Rra>)>,
    /// CDPs completed per archive (drives end-timestamp computation).
    cdp_counts: Vec<u64>,
    states: Vec<DsState>,
    /// Step boundary at which the first PDP interval began.
    origin: Timestamp,
    /// Boundary at which the current PDP completes.
    pdp_end: Timestamp,
    last_update: Timestamp,
}

impl Rrd {
    /// Creates a database whose first PDP interval starts at the step
    /// boundary at or before `start`.
    pub fn new(
        start: Timestamp,
        step: u64,
        sources: Vec<DataSource>,
        archives: Vec<ArchiveDef>,
    ) -> Result<Rrd, RrdError> {
        if step == 0 {
            return Err(RrdError::Invalid("step must be positive".into()));
        }
        if sources.is_empty() {
            return Err(RrdError::Invalid("at least one data source required".into()));
        }
        if archives.is_empty() {
            return Err(RrdError::Invalid("at least one archive required".into()));
        }
        for i in 0..sources.len() {
            for j in i + 1..sources.len() {
                if sources[i].name == sources[j].name {
                    return Err(RrdError::Invalid(format!(
                        "duplicate data source name {:?}",
                        sources[i].name
                    )));
                }
            }
        }
        let origin = Timestamp::from_secs(start.as_secs() - start.as_secs() % step);
        let archive_rings: Vec<(ArchiveDef, Vec<Rra>)> = archives
            .iter()
            .map(|def| {
                let rings = sources
                    .iter()
                    .map(|_| Rra::new(def.cf, def.xff, def.steps, def.rows))
                    .collect();
                (*def, rings)
            })
            .collect();
        let n_archives = archive_rings.len();
        Ok(Rrd {
            step,
            states: sources
                .iter()
                .map(|_| DsState { last_raw: None, accum: 0.0, known_secs: 0 })
                .collect(),
            sources,
            archives: archive_rings,
            cdp_counts: vec![0; n_archives],
            origin,
            pdp_end: origin + step,
            last_update: start,
        })
    }

    /// Convenience constructor: one gauge source named `value` plus a
    /// single-step AVERAGE archive holding `rows` entries — the typical
    /// Inca archival target.
    pub fn single_gauge(start: Timestamp, step: u64, rows: usize) -> Rrd {
        Rrd::new(
            start,
            step,
            vec![DataSource::gauge("value", step * 2)],
            vec![ArchiveDef { cf: ConsolidationFn::Average, xff: 0.5, steps: 1, rows }],
        )
        .expect("static definition is valid")
    }

    /// The base step in seconds.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// The data sources.
    pub fn sources(&self) -> &[DataSource] {
        &self.sources
    }

    /// Time of the last accepted update.
    pub fn last_update(&self) -> Timestamp {
        self.last_update
    }

    /// Applies an update with one raw value per data source.
    ///
    /// A gap of many steps costs O(steps · rows) per archive, not
    /// O(gap): every whole step after the first carries the same rate,
    /// so those PDPs are identical and go to the archives as one run.
    pub fn update(&mut self, t: Timestamp, values: &[f64]) -> Result<(), RrdError> {
        self.advance(t, values, true)
    }

    /// [`Rrd::update`], with the closed-form catch-up switchable so the
    /// tests can hold it against the one-PDP-at-a-time walk.
    fn advance(&mut self, t: Timestamp, values: &[f64], catch_up: bool) -> Result<(), RrdError> {
        if t <= self.last_update {
            return Err(RrdError::TimeNotAdvancing { last: self.last_update, offered: t });
        }
        if values.len() != self.sources.len() {
            return Err(RrdError::WrongValueCount {
                expected: self.sources.len(),
                found: values.len(),
            });
        }
        let elapsed = t - self.last_update;
        let rates: Vec<Option<f64>> = self
            .sources
            .iter()
            .zip(self.states.iter())
            .zip(values.iter())
            .map(|((ds, st), &raw)| ds.rate(st.last_raw, raw, elapsed))
            .collect();

        // Distribute the interval [last_update, t) across step
        // boundaries, completing PDPs as they are crossed.
        let mut cursor = self.last_update;
        while cursor < t {
            let seg_end = self.pdp_end.min(t);
            let seg_len = seg_end - cursor;
            for (state, rate) in self.states.iter_mut().zip(rates.iter()) {
                if let Some(r) = rate {
                    state.accum += r * seg_len as f64;
                    state.known_secs += seg_len;
                }
            }
            cursor = seg_end;
            if cursor == self.pdp_end {
                let pdps = self.complete_pdp();
                // A whole step started from a fresh PDP: each further
                // whole step before `t` repeats exactly these PDPs.
                let repeats = (t - cursor) / self.step;
                if catch_up && seg_len == self.step && repeats > 0 {
                    self.fan_out(&pdps, repeats);
                    cursor = cursor + repeats * self.step;
                }
            }
        }

        for (state, &raw) in self.states.iter_mut().zip(values.iter()) {
            state.last_raw = if raw.is_finite() { Some(raw) } else { None };
        }
        self.last_update = t;
        Ok(())
    }

    /// Single-source convenience update.
    pub fn update_single(&mut self, t: Timestamp, value: f64) -> Result<(), RrdError> {
        self.update(t, &[value])
    }

    /// Closes the current PDP of every source, feeds the archives and
    /// returns the PDPs.
    fn complete_pdp(&mut self) -> Vec<f64> {
        let step = self.step;
        let pdps: Vec<f64> = self
            .states
            .iter_mut()
            .map(|state| {
                let pdp = if state.known_secs * 2 >= step {
                    state.accum / state.known_secs as f64
                } else {
                    f64::NAN
                };
                state.accum = 0.0;
                state.known_secs = 0;
                pdp
            })
            .collect();
        self.fan_out(&pdps, 1);
        pdps
    }

    /// Feeds `n` copies of one PDP per source to every archive and
    /// moves the PDP boundary `n` steps on.
    fn fan_out(&mut self, pdps: &[f64], n: u64) {
        for ((_, rings), count) in self.archives.iter_mut().zip(&mut self.cdp_counts) {
            // Every ring of an archive shares its steps, so all
            // complete the same number of CDPs.
            let mut completed = 0;
            for (ring, &pdp) in rings.iter_mut().zip(pdps) {
                completed = ring.push_repeated(pdp, n);
            }
            *count += completed;
        }
        self.pdp_end = self.pdp_end + n * self.step;
    }

    /// End timestamp of the most recent completed CDP of archive `idx`.
    fn archive_end(&self, idx: usize) -> Timestamp {
        let def = self.archives[idx].0;
        let span = self.step * def.steps as u64;
        self.origin + self.cdp_counts[idx] * span
    }

    /// Fetches consolidated data from the best archive with the given
    /// function over `(start, end]`.
    ///
    /// Preference order: finest resolution among archives whose
    /// retention reaches back to `start`; if none does, the archive
    /// with the longest retention.
    pub fn fetch(
        &self,
        cf: ConsolidationFn,
        start: Timestamp,
        end: Timestamp,
    ) -> Result<FetchResult, RrdError> {
        self.fetch_source(cf, 0, start, end)
    }

    /// Like [`Rrd::fetch`] but selects a data source by index.
    pub fn fetch_source(
        &self,
        cf: ConsolidationFn,
        source: usize,
        start: Timestamp,
        end: Timestamp,
    ) -> Result<FetchResult, RrdError> {
        let candidates = self.cf_candidates(cf, source)?;
        let finest_covering = candidates
            .iter()
            .copied()
            .filter(|&i| self.archive_covers(i, source, start))
            .min_by_key(|&i| self.archives[i].0.steps);
        let chosen = finest_covering
            .unwrap_or_else(|| self.longest_retention(&candidates, source));
        Ok(self.emit_points(chosen, source, start, end))
    }

    /// Consolidation-aware multi-resolution fetch over `(start, end]`:
    /// picks the archive whose resolution best matches `target_step`
    /// seconds per point.
    ///
    /// Selection rules (also documented in `docs/QUERYING.md`):
    ///
    /// 1. Only archives with the requested consolidation function are
    ///    considered ([`RrdError::NoArchive`] otherwise).
    /// 2. Among archives whose retention covers `start`, those at least
    ///    as fine as the target (CDP span ≤ `target_step`) are
    ///    preferred; of those, the one whose span is closest to
    ///    `target_step` wins (ties go to the finer archive) — the
    ///    fewest points that still meet the requested resolution.
    /// 3. When no covering archive is fine enough, the covering archive
    ///    with the span closest to the target wins anyway: a full
    ///    window at reduced resolution beats a truncated fine series.
    /// 4. When nothing covers `start`, the candidate with the longest
    ///    retention wins, exactly like [`Rrd::fetch`].
    pub fn fetch_resolution(
        &self,
        cf: ConsolidationFn,
        start: Timestamp,
        end: Timestamp,
        target_step: u64,
    ) -> Result<FetchResult, RrdError> {
        self.fetch_source_resolution(cf, 0, start, end, target_step)
    }

    /// Like [`Rrd::fetch_resolution`] but selects a data source by
    /// index.
    pub fn fetch_source_resolution(
        &self,
        cf: ConsolidationFn,
        source: usize,
        start: Timestamp,
        end: Timestamp,
        target_step: u64,
    ) -> Result<FetchResult, RrdError> {
        let candidates = self.cf_candidates(cf, source)?;
        let span = |i: usize| self.step * self.archives[i].0.steps as u64;
        let covering: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&i| self.archive_covers(i, source, start))
            .collect();
        let fine_covering: Vec<usize> =
            covering.iter().copied().filter(|&i| span(i) <= target_step).collect();
        let pool = if fine_covering.is_empty() { covering } else { fine_covering };
        let chosen = pool
            .iter()
            .copied()
            .min_by_key(|&i| (span(i).abs_diff(target_step), span(i)))
            .unwrap_or_else(|| self.longest_retention(&candidates, source));
        Ok(self.emit_points(chosen, source, start, end))
    }

    /// Indices of archives with the requested consolidation function,
    /// after validating the data-source index.
    fn cf_candidates(&self, cf: ConsolidationFn, source: usize) -> Result<Vec<usize>, RrdError> {
        if source >= self.sources.len() {
            return Err(RrdError::NoSuchSource { name: format!("#{source}") });
        }
        let candidates: Vec<usize> = self
            .archives
            .iter()
            .enumerate()
            .filter(|(_, (def, _))| def.cf == cf)
            .map(|(i, _)| i)
            .collect();
        if candidates.is_empty() {
            return Err(RrdError::NoArchive { cf });
        }
        Ok(candidates)
    }

    /// Whether archive `idx`'s retention reaches back to `start`.
    fn archive_covers(&self, idx: usize, source: usize, start: Timestamp) -> bool {
        let (def, rings) = &self.archives[idx];
        let span = self.step * def.steps as u64;
        let ring_len = rings[source].len() as u64;
        let archive_start = self.archive_end(idx) - ring_len * span;
        archive_start <= start
    }

    /// The candidate with the longest retention (the [`Rrd::fetch`]
    /// fallback when nothing covers the window start).
    fn longest_retention(&self, candidates: &[usize], source: usize) -> usize {
        *candidates
            .iter()
            .max_by_key(|&&i| {
                let (def, rings) = &self.archives[i];
                rings[source].len() as u64 * self.step * def.steps as u64
            })
            .expect("candidates nonempty")
    }

    /// Emits archive `chosen`'s points inside `(start, end]`.
    fn emit_points(
        &self,
        chosen: usize,
        source: usize,
        start: Timestamp,
        end: Timestamp,
    ) -> FetchResult {
        let (def, rings) = &self.archives[chosen];
        let span = self.step * def.steps as u64;
        let arch_end = self.archive_end(chosen);
        let values = rings[source].values();
        let mut points = Vec::new();
        for (i, v) in values.iter().enumerate() {
            let point_end = arch_end - (values.len() - 1 - i) as u64 * span;
            if point_end > start && point_end <= end {
                points.push((point_end, *v));
            }
        }
        FetchResult { step: span, points }
    }

    /// Most recent known value from any archive with `cf`.
    pub fn last_known(&self, cf: ConsolidationFn) -> Option<(Timestamp, f64)> {
        self.fetch(cf, Timestamp::EPOCH, self.last_update + 1)
            .ok()?
            .known_points()
            .last()
    }

    /// Approximate bytes of ring storage (capacity, not fill) — the
    /// bounded-storage property that keeps depot administration low.
    pub fn storage_bytes(&self) -> usize {
        self.archives
            .iter()
            .map(|(def, rings)| rings.len() * def.rows * std::mem::size_of::<f64>())
            .sum()
    }

    /// Serializes the full database state (definition + rings +
    /// in-progress accumulators) to a line-oriented text form — the
    /// depot's persistent-storage requirement. Floats are stored as
    /// hex bits so restore is bit-exact.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        out.push_str("rrd v1\n");
        out.push_str(&format!(
            "time step={} origin={} pdp_end={} last_update={}\n",
            self.step,
            self.origin.as_secs(),
            self.pdp_end.as_secs(),
            self.last_update.as_secs()
        ));
        for (ds, state) in self.sources.iter().zip(&self.states) {
            let ds_type = match ds.ds_type {
                crate::ds::DsType::Gauge => "gauge",
                crate::ds::DsType::Counter => "counter",
                crate::ds::DsType::Derive => "derive",
                crate::ds::DsType::Absolute => "absolute",
            };
            out.push_str(&format!(
                "source name={} type={ds_type} heartbeat={} min={} max={} last_raw={} accum={} known={}\n",
                ds.name,
                ds.heartbeat,
                ds.min.map_or("-".to_string(), |v| format!("{:016x}", v.to_bits())),
                ds.max.map_or("-".to_string(), |v| format!("{:016x}", v.to_bits())),
                state.last_raw.map_or("-".to_string(), |v| format!("{:016x}", v.to_bits())),
                format!("{:016x}", state.accum.to_bits()),
                state.known_secs,
            ));
        }
        for (idx, (def, rings)) in self.archives.iter().enumerate() {
            out.push_str(&format!(
                "archive cf={} xff={:016x} steps={} rows={} cdp_count={}\n",
                def.cf.as_str(),
                def.xff.to_bits(),
                def.steps,
                def.rows,
                self.cdp_counts[idx]
            ));
            for ring in rings {
                out.push_str("  ");
                out.push_str(&ring.dump_line());
                out.push('\n');
            }
        }
        out
    }

    /// Restores a database from [`Rrd::dump`] output.
    pub fn restore(text: &str) -> Result<Rrd, RrdError> {
        let bad = |m: String| RrdError::Invalid(m);
        let mut lines = text.lines().peekable();
        match lines.next() {
            Some("rrd v1") => {}
            other => return Err(bad(format!("unknown dump header {other:?}"))),
        }
        let time_line = lines.next().ok_or_else(|| bad("missing time line".into()))?;
        let kv = parse_kv(time_line.strip_prefix("time ").ok_or_else(|| bad("bad time line".into()))?);
        let get = |k: &str| -> Result<u64, RrdError> {
            kv.get(k)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| bad(format!("missing/bad {k}")))
        };
        let step = get("step")?;
        let origin = Timestamp::from_secs(get("origin")?);
        let pdp_end = Timestamp::from_secs(get("pdp_end")?);
        let last_update = Timestamp::from_secs(get("last_update")?);

        let mut sources = Vec::new();
        let mut states = Vec::new();
        while lines.peek().map_or(false, |l| l.starts_with("source ")) {
            let line = lines.next().expect("peeked");
            let kv = parse_kv(line.strip_prefix("source ").expect("checked"));
            let opt_bits = |k: &str| -> Result<Option<f64>, RrdError> {
                match kv.get(k).map(String::as_str) {
                    None => Err(bad(format!("missing {k}"))),
                    Some("-") => Ok(None),
                    Some(s) => u64::from_str_radix(s, 16)
                        .map(|b| Some(f64::from_bits(b)))
                        .map_err(|e| bad(format!("bad {k}: {e}"))),
                }
            };
            let ds_type = match kv.get("type").map(String::as_str) {
                Some("gauge") => crate::ds::DsType::Gauge,
                Some("counter") => crate::ds::DsType::Counter,
                Some("derive") => crate::ds::DsType::Derive,
                Some("absolute") => crate::ds::DsType::Absolute,
                other => return Err(bad(format!("bad source type {other:?}"))),
            };
            sources.push(DataSource {
                name: kv.get("name").cloned().ok_or_else(|| bad("missing source name".into()))?,
                ds_type,
                heartbeat: kv
                    .get("heartbeat")
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad("bad heartbeat".into()))?,
                min: opt_bits("min")?,
                max: opt_bits("max")?,
            });
            states.push(DsState {
                last_raw: opt_bits("last_raw")?,
                accum: opt_bits("accum")?.unwrap_or(0.0),
                known_secs: kv
                    .get("known")
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad("bad known".into()))?,
            });
        }
        if sources.is_empty() {
            return Err(bad("dump contains no sources".into()));
        }

        let mut archives = Vec::new();
        let mut cdp_counts = Vec::new();
        while let Some(line) = lines.next() {
            let header = line
                .strip_prefix("archive ")
                .ok_or_else(|| bad(format!("expected archive line, found {line:?}")))?;
            let kv = parse_kv(header);
            let cf = match kv.get("cf").map(String::as_str) {
                Some("AVERAGE") => ConsolidationFn::Average,
                Some("MIN") => ConsolidationFn::Min,
                Some("MAX") => ConsolidationFn::Max,
                Some("LAST") => ConsolidationFn::Last,
                other => return Err(bad(format!("bad cf {other:?}"))),
            };
            let xff = kv
                .get("xff")
                .and_then(|v| u64::from_str_radix(v, 16).ok())
                .map(f64::from_bits)
                .ok_or_else(|| bad("bad xff".into()))?;
            let steps: u32 =
                kv.get("steps").and_then(|v| v.parse().ok()).ok_or_else(|| bad("bad steps".into()))?;
            let rows: usize =
                kv.get("rows").and_then(|v| v.parse().ok()).ok_or_else(|| bad("bad rows".into()))?;
            let cdp_count: u64 = kv
                .get("cdp_count")
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| bad("bad cdp_count".into()))?;
            let mut rings = Vec::with_capacity(sources.len());
            for _ in 0..sources.len() {
                let ring_line = lines
                    .next()
                    .ok_or_else(|| bad("dump truncated inside archive".into()))?;
                rings.push(
                    Rra::restore_line(cf, xff, steps, rows, ring_line)
                        .map_err(|e| bad(format!("bad ring line: {e}")))?,
                );
            }
            archives.push((ArchiveDef { cf, xff, steps, rows }, rings));
            cdp_counts.push(cdp_count);
        }
        if archives.is_empty() {
            return Err(bad("dump contains no archives".into()));
        }
        Ok(Rrd { step, sources, archives, cdp_counts, states, origin, pdp_end, last_update })
    }
}

fn parse_kv(s: &str) -> std::collections::BTreeMap<String, String> {
    s.split_whitespace()
        .filter_map(|part| part.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(secs: u64) -> Timestamp {
        Timestamp::from_secs(secs)
    }

    fn simple_rrd() -> Rrd {
        Rrd::single_gauge(ts(0), 60, 100)
    }

    #[test]
    fn construction_validates() {
        assert!(Rrd::new(ts(0), 0, vec![DataSource::gauge("v", 60)], vec![]).is_err());
        assert!(Rrd::new(ts(0), 60, vec![], vec![]).is_err());
        assert!(Rrd::new(
            ts(0),
            60,
            vec![DataSource::gauge("v", 60)],
            vec![]
        )
        .is_err());
        assert!(Rrd::new(
            ts(0),
            60,
            vec![DataSource::gauge("v", 60), DataSource::gauge("v", 60)],
            vec![ArchiveDef { cf: ConsolidationFn::Average, xff: 0.5, steps: 1, rows: 1 }]
        )
        .is_err());
    }

    #[test]
    fn gauge_updates_produce_pdps() {
        let mut rrd = simple_rrd();
        for i in 1..=5 {
            rrd.update_single(ts(i * 60), 10.0 * i as f64).unwrap();
        }
        let fetched = rrd.fetch(ConsolidationFn::Average, ts(0), ts(301)).unwrap();
        assert_eq!(fetched.step, 60);
        assert_eq!(fetched.points.len(), 5);
        // The PDP covering (0,60] saw the rate 10 (the first update's
        // value applies over the whole first interval).
        assert_eq!(fetched.points[0], (ts(60), 10.0));
        assert_eq!(fetched.points[4].0, ts(300));
    }

    #[test]
    fn updates_must_advance() {
        let mut rrd = simple_rrd();
        rrd.update_single(ts(60), 1.0).unwrap();
        assert!(matches!(
            rrd.update_single(ts(60), 2.0),
            Err(RrdError::TimeNotAdvancing { .. })
        ));
        assert!(matches!(
            rrd.update_single(ts(30), 2.0),
            Err(RrdError::TimeNotAdvancing { .. })
        ));
    }

    #[test]
    fn wrong_value_count_rejected() {
        let mut rrd = simple_rrd();
        assert!(matches!(
            rrd.update(ts(60), &[1.0, 2.0]),
            Err(RrdError::WrongValueCount { expected: 1, found: 2 })
        ));
    }

    #[test]
    fn heartbeat_gap_becomes_unknown() {
        let mut rrd = simple_rrd(); // heartbeat = 120s
        rrd.update_single(ts(60), 5.0).unwrap();
        // Long silence then a new value: the gap exceeds the heartbeat.
        rrd.update_single(ts(600), 7.0).unwrap();
        let fetched = rrd.fetch(ConsolidationFn::Average, ts(0), ts(601)).unwrap();
        let known: Vec<(Timestamp, f64)> = fetched.known_points().collect();
        // Only the first PDP (rate 5.0) is known; the gap is NaN.
        assert_eq!(known, [(ts(60), 5.0)]);
        let unknown = fetched.points.iter().filter(|(_, v)| v.is_nan()).count();
        assert_eq!(unknown, fetched.points.len() - 1);
    }

    #[test]
    fn sub_step_updates_time_weighted() {
        let mut rrd = simple_rrd();
        // Rate 10 for the first 30 s, rate 20 for the last 30 s.
        rrd.update_single(ts(30), 10.0).unwrap();
        rrd.update_single(ts(60), 20.0).unwrap();
        let fetched = rrd.fetch(ConsolidationFn::Average, ts(0), ts(61)).unwrap();
        assert_eq!(fetched.points, [(ts(60), 15.0)]);
    }

    #[test]
    fn multi_archive_consolidation() {
        let mut rrd = Rrd::new(
            ts(0),
            60,
            vec![DataSource::gauge("v", 120)],
            vec![
                ArchiveDef { cf: ConsolidationFn::Average, xff: 0.5, steps: 1, rows: 10 },
                ArchiveDef { cf: ConsolidationFn::Average, xff: 0.5, steps: 5, rows: 10 },
                ArchiveDef { cf: ConsolidationFn::Max, xff: 0.5, steps: 5, rows: 10 },
            ],
        )
        .unwrap();
        for i in 1..=10 {
            rrd.update_single(ts(i * 60), i as f64).unwrap();
        }
        // Fine archive holds the last 10 minutes.
        let fine = rrd.fetch(ConsolidationFn::Average, ts(0), ts(601)).unwrap();
        assert_eq!(fine.step, 60);
        assert_eq!(fine.points.len(), 10);
        // Coarse archive: CDP1 over rates 1..5 → 3, CDP2 over 6..10 → 8.
        // (Rates: update at i*60 sets rate i over ((i-1)*60, i*60].)
        let coarse = rrd.fetch_source(ConsolidationFn::Average, 0, ts(0), ts(601)).unwrap();
        // fetch prefers the finest covering archive; force coarse by
        // asking for a window the fine archive cannot cover after wrap.
        assert_eq!(coarse.step, 60);
        let max = rrd.fetch(ConsolidationFn::Max, ts(0), ts(601)).unwrap();
        assert_eq!(max.step, 300);
        assert_eq!(max.points, [(ts(300), 5.0), (ts(600), 10.0)]);
    }

    #[test]
    fn fetch_falls_back_to_coarse_archive_when_fine_wrapped() {
        let mut rrd = Rrd::new(
            ts(0),
            60,
            vec![DataSource::gauge("v", 120)],
            vec![
                ArchiveDef { cf: ConsolidationFn::Average, xff: 0.5, steps: 1, rows: 5 },
                ArchiveDef { cf: ConsolidationFn::Average, xff: 0.5, steps: 10, rows: 50 },
            ],
        )
        .unwrap();
        for i in 1..=60 {
            rrd.update_single(ts(i * 60), 1.0).unwrap();
        }
        // Fine archive only holds 5 minutes; a query from t=0 must use
        // the 10-minute archive.
        let fetched = rrd.fetch(ConsolidationFn::Average, ts(0), ts(3601)).unwrap();
        assert_eq!(fetched.step, 600);
        assert_eq!(fetched.points.len(), 6);
        // A recent query uses the fine archive.
        let recent = rrd.fetch(ConsolidationFn::Average, ts(3400), ts(3601)).unwrap();
        assert_eq!(recent.step, 60);
    }

    #[test]
    fn fetch_resolution_picks_span_closest_to_target() {
        let mut rrd = Rrd::new(
            ts(0),
            60,
            vec![DataSource::gauge("v", 120)],
            vec![
                ArchiveDef { cf: ConsolidationFn::Average, xff: 0.5, steps: 1, rows: 120 },
                ArchiveDef { cf: ConsolidationFn::Average, xff: 0.5, steps: 5, rows: 120 },
                ArchiveDef { cf: ConsolidationFn::Average, xff: 0.5, steps: 15, rows: 120 },
            ],
        )
        .unwrap();
        for i in 1..=90 {
            rrd.update_single(ts(i * 60), (i % 4) as f64).unwrap();
        }
        // A coarse target picks the 15-minute archive even though the
        // fine archive also covers the window.
        let coarse = rrd.fetch_resolution(ConsolidationFn::Average, ts(0), ts(5_401), 900).unwrap();
        assert_eq!(coarse.step, 900);
        // An intermediate target lands on the 5-minute archive.
        let mid = rrd.fetch_resolution(ConsolidationFn::Average, ts(0), ts(5_401), 300).unwrap();
        assert_eq!(mid.step, 300);
        // A finer-than-available target keeps the finest archive.
        let fine = rrd.fetch_resolution(ConsolidationFn::Average, ts(0), ts(5_401), 60).unwrap();
        assert_eq!(fine.step, 60);
        // A target between archive spans rounds to the closest span
        // at or below it (rule 3): 600 s → the 5-minute archive.
        let between =
            rrd.fetch_resolution(ConsolidationFn::Average, ts(0), ts(5_401), 600).unwrap();
        assert_eq!(between.step, 300);
    }

    #[test]
    fn fetch_resolution_falls_back_when_all_archives_coarser() {
        let mut rrd = Rrd::new(
            ts(0),
            60,
            vec![DataSource::gauge("v", 120)],
            vec![ArchiveDef { cf: ConsolidationFn::Average, xff: 0.5, steps: 10, rows: 50 }],
        )
        .unwrap();
        for i in 1..=30 {
            rrd.update_single(ts(i * 60), 1.0).unwrap();
        }
        // Requesting finer data than exists returns the finest (only)
        // archive rather than erroring (rule 2).
        let f = rrd.fetch_resolution(ConsolidationFn::Average, ts(0), ts(1_801), 60).unwrap();
        assert_eq!(f.step, 600);
    }

    #[test]
    fn fetch_resolution_uses_retention_fallback_like_fetch() {
        let mut rrd = Rrd::new(
            ts(0),
            60,
            vec![DataSource::gauge("v", 120)],
            vec![
                ArchiveDef { cf: ConsolidationFn::Average, xff: 0.5, steps: 1, rows: 5 },
                ArchiveDef { cf: ConsolidationFn::Average, xff: 0.5, steps: 10, rows: 50 },
            ],
        )
        .unwrap();
        for i in 1..=60 {
            rrd.update_single(ts(i * 60), 1.0).unwrap();
        }
        // The fine archive only holds 5 minutes; a fine-target query
        // from t=0 must fall back to the coarse archive (rule 4).
        let f = rrd.fetch_resolution(ConsolidationFn::Average, ts(0), ts(3_601), 60).unwrap();
        assert_eq!(f.step, 600);
        // The same query over a recent window stays fine.
        let recent =
            rrd.fetch_resolution(ConsolidationFn::Average, ts(3_400), ts(3_601), 60).unwrap();
        assert_eq!(recent.step, 60);
    }

    #[test]
    fn missing_cf_errors() {
        let rrd = simple_rrd();
        assert!(matches!(
            rrd.fetch(ConsolidationFn::Min, ts(0), ts(100)),
            Err(RrdError::NoArchive { .. })
        ));
    }

    #[test]
    fn missing_source_errors() {
        let rrd = simple_rrd();
        assert!(matches!(
            rrd.fetch_source(ConsolidationFn::Average, 3, ts(0), ts(100)),
            Err(RrdError::NoSuchSource { .. })
        ));
    }

    #[test]
    fn last_known_returns_latest() {
        let mut rrd = simple_rrd();
        for i in 1..=4 {
            rrd.update_single(ts(i * 60), i as f64).unwrap();
        }
        let (t, v) = rrd.last_known(ConsolidationFn::Average).unwrap();
        assert_eq!(t, ts(240));
        assert_eq!(v, 4.0);
        assert!(simple_rrd().last_known(ConsolidationFn::Average).is_none());
    }

    #[test]
    fn storage_is_bounded() {
        let mut rrd = Rrd::single_gauge(ts(0), 60, 100);
        let before = rrd.storage_bytes();
        for i in 1..=10_000u64 {
            rrd.update_single(ts(i * 60), (i % 7) as f64).unwrap();
        }
        assert_eq!(rrd.storage_bytes(), before, "ring storage must never grow");
        let fetched = rrd.fetch(ConsolidationFn::Average, ts(0), ts(10_000 * 60 + 1)).unwrap();
        assert_eq!(fetched.points.len(), 100, "only the ring capacity is retained");
    }

    #[test]
    fn counter_source_rates() {
        let mut rrd = Rrd::new(
            ts(0),
            60,
            vec![DataSource::counter("reports", 120)],
            vec![ArchiveDef { cf: ConsolidationFn::Average, xff: 0.5, steps: 1, rows: 10 }],
        )
        .unwrap();
        rrd.update_single(ts(60), 0.0).unwrap();
        rrd.update_single(ts(120), 600.0).unwrap(); // 10/sec
        rrd.update_single(ts(180), 1200.0).unwrap(); // 10/sec
        let fetched = rrd.fetch(ConsolidationFn::Average, ts(0), ts(181)).unwrap();
        let known: Vec<f64> = fetched.known_points().map(|(_, v)| v).collect();
        assert_eq!(known, [10.0, 10.0]);
    }

    #[test]
    fn multi_source_update_and_fetch() {
        let mut rrd = Rrd::new(
            ts(0),
            60,
            vec![DataSource::gauge("up", 120), DataSource::gauge("down", 120)],
            vec![ArchiveDef { cf: ConsolidationFn::Average, xff: 0.5, steps: 1, rows: 10 }],
        )
        .unwrap();
        rrd.update(ts(60), &[100.0, 50.0]).unwrap();
        rrd.update(ts(120), &[110.0, 60.0]).unwrap();
        let up = rrd.fetch_source(ConsolidationFn::Average, 0, ts(0), ts(121)).unwrap();
        let down = rrd.fetch_source(ConsolidationFn::Average, 1, ts(0), ts(121)).unwrap();
        assert_eq!(up.points[0].1, 100.0);
        assert_eq!(down.points[0].1, 50.0);
    }

    #[test]
    fn dump_restore_roundtrips_exactly() {
        let mut rrd = Rrd::new(
            ts(90),
            60,
            vec![
                DataSource::gauge("up", 120).with_min(0.0),
                DataSource::counter("reports", 180),
            ],
            vec![
                ArchiveDef { cf: ConsolidationFn::Average, xff: 0.5, steps: 1, rows: 20 },
                ArchiveDef { cf: ConsolidationFn::Max, xff: 0.25, steps: 5, rows: 8 },
            ],
        )
        .unwrap();
        for i in 1..=17u64 {
            rrd.update(ts(90 + i * 45), &[(i % 7) as f64 + 0.125, i as f64 * 10.0]).unwrap();
        }
        let dump = rrd.dump();
        let restored = Rrd::restore(&dump).unwrap();
        // Identical dumps imply identical state.
        assert_eq!(restored.dump(), dump);
        // Fetches agree exactly (NaN-aware comparison).
        let range = (ts(0), rrd.last_update() + 1);
        for cf in [ConsolidationFn::Average, ConsolidationFn::Max] {
            for src in 0..2 {
                let a = restored.fetch_source(cf, src, range.0, range.1).unwrap();
                let b = rrd.fetch_source(cf, src, range.0, range.1).unwrap();
                assert!(a.same_series(&b), "{a:?} != {b:?}");
            }
        }
        // And future updates behave identically.
        let mut a = rrd.clone();
        let mut b = restored;
        a.update(a.last_update() + 60, &[3.5, 500.0]).unwrap();
        b.update(b.last_update() + 60, &[3.5, 500.0]).unwrap();
        assert_eq!(a.dump(), b.dump());
    }

    #[test]
    fn restore_rejects_garbage() {
        assert!(Rrd::restore("").is_err());
        assert!(Rrd::restore("rrd v2\n").is_err());
        assert!(Rrd::restore("rrd v1\ntime step=60 origin=0 pdp_end=60 last_update=0\n").is_err());
        let mut truncated = simple_rrd().dump();
        truncated.truncate(truncated.len() / 2);
        let _ = Rrd::restore(&truncated); // must not panic
    }

    #[test]
    fn dump_restore_preserves_nan_rings() {
        let mut rrd = simple_rrd();
        rrd.update_single(ts(60), 5.0).unwrap();
        rrd.update_single(ts(600), 7.0).unwrap(); // heartbeat gap → NaNs
        let restored = Rrd::restore(&rrd.dump()).unwrap();
        let a = rrd.fetch(ConsolidationFn::Average, ts(0), ts(601)).unwrap();
        let b = restored.fetch(ConsolidationFn::Average, ts(0), ts(601)).unwrap();
        assert_eq!(a.points.len(), b.points.len());
        for ((ta, va), (tb, vb)) in a.points.iter().zip(&b.points) {
            assert_eq!(ta, tb);
            assert!(va == vb || (va.is_nan() && vb.is_nan()));
        }
    }

    #[test]
    fn unaligned_start_aligns_to_step() {
        let mut rrd = Rrd::single_gauge(ts(90), 60, 10);
        // First PDP interval is (60, 120]; an update at 120 completes it
        // with 30 known seconds out of 60 → known (exactly half).
        rrd.update_single(ts(120), 4.0).unwrap();
        let fetched = rrd.fetch(ConsolidationFn::Average, ts(0), ts(121)).unwrap();
        assert_eq!(fetched.points, [(ts(120), 4.0)]);
    }

    /// The depot's archive layouts (single, tiered, with extremes) on
    /// small rings, plus a two-source database whose long-heartbeat
    /// source keeps its rate known across a gap (the policy layouts'
    /// gauges turn a long gap unknown).
    fn gap_layouts(start: Timestamp, period: u64) -> Vec<Rrd> {
        use crate::policy::ArchivePolicy;
        let policy = ArchivePolicy::every_nth("gap", 2, 24 * period);
        let tiered = policy.build_tiered(start, period, &[(3, 60 * period)]).unwrap();
        let archives: Vec<ArchiveDef> = tiered.archives.iter().map(|(def, _)| *def).collect();
        let sources = vec![
            DataSource::gauge("known", 1_000_000 * period),
            DataSource::gauge("value", 2 * period),
        ];
        vec![
            policy.build(start, period).unwrap(),
            tiered,
            policy.clone().with_extremes().build(start, period).unwrap(),
            Rrd::new(start, period, sources, archives).unwrap(),
        ]
    }

    /// Seconds the longest ring of `rrd` spans.
    fn ring_span(rrd: &Rrd) -> u64 {
        let spans = rrd.archives.iter().map(|(def, _)| def.rows as u64 * def.steps as u64);
        spans.max().unwrap() * rrd.step
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn gap_catch_up_dumps_byte_identical_to_the_stepwise_walk(
            start in 1_000_000u64..1_000_600,
            updates in proptest::collection::vec((0u64..5_001, -1e3f64..1e3, 0u8..8), 1..12),
        ) {
            let period = 600;
            for (mut fast, mut oracle) in gap_layouts(ts(start), period)
                .into_iter()
                .zip(gap_layouts(ts(start), period))
            {
                let span = ring_span(&fast);
                let mut t = start;
                for &(gap_permille, value, pick) in &updates {
                    // 0–5 ring spans; about a third of the gaps stay
                    // within one step.
                    t += 1 + match pick % 3 {
                        0 => gap_permille % period,
                        _ => gap_permille * span / 1_000,
                    };
                    let value = if pick == 7 { f64::NAN } else { value };
                    let values = vec![value; fast.sources.len()];
                    fast.advance(ts(t), &values, true).unwrap();
                    oracle.advance(ts(t), &values, false).unwrap();
                    proptest::prop_assert_eq!(fast.dump(), oracle.dump());
                }
            }
        }
    }
}
