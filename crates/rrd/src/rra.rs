//! Round-robin archives: fixed-size rings of consolidated data points.
//!
//! Each archive consolidates `steps` primary data points (PDPs) into one
//! consolidated data point (CDP) with a consolidation function, and
//! keeps the most recent `rows` CDPs in a ring. The `xff` factor
//! ("x-files factor", straight from RRDTool) is the fraction of a
//! consolidation interval that may be unknown while the CDP is still
//! regarded as known.

/// How multiple primary data points combine into one archived value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConsolidationFn {
    /// Arithmetic mean of the known PDPs.
    Average,
    /// Minimum of the known PDPs.
    Min,
    /// Maximum of the known PDPs.
    Max,
    /// The most recent known PDP.
    Last,
}

impl ConsolidationFn {
    /// Short uppercase name (`AVERAGE`, `MIN`, `MAX`, `LAST`).
    pub fn as_str(self) -> &'static str {
        match self {
            ConsolidationFn::Average => "AVERAGE",
            ConsolidationFn::Min => "MIN",
            ConsolidationFn::Max => "MAX",
            ConsolidationFn::Last => "LAST",
        }
    }
}

/// Accumulator state for the CDP currently being built.
#[derive(Debug, Clone, Default)]
struct CdpAccum {
    sum: f64,
    min: f64,
    max: f64,
    last: f64,
    known: u32,
    total: u32,
}

impl CdpAccum {
    fn push(&mut self, pdp: f64) {
        self.total += 1;
        if pdp.is_nan() {
            return;
        }
        if self.known == 0 {
            self.min = pdp;
            self.max = pdp;
        } else {
            self.min = self.min.min(pdp);
            self.max = self.max.max(pdp);
        }
        self.sum += pdp;
        self.last = pdp;
        self.known += 1;
    }

    fn finish(&self, cf: ConsolidationFn, xff: f64) -> f64 {
        if self.total == 0 || self.known == 0 {
            return f64::NAN;
        }
        let unknown_fraction = 1.0 - self.known as f64 / self.total as f64;
        if unknown_fraction > xff {
            return f64::NAN;
        }
        match cf {
            ConsolidationFn::Average => self.sum / self.known as f64,
            ConsolidationFn::Min => self.min,
            ConsolidationFn::Max => self.max,
            ConsolidationFn::Last => self.last,
        }
    }
}

/// One round-robin archive (per data source storage is managed by the
/// parent RRD; an `Rra` holds the ring for a single data source).
#[derive(Debug, Clone)]
pub struct Rra {
    /// Consolidation function.
    pub cf: ConsolidationFn,
    /// Allowed unknown fraction per CDP, in `[0, 1)`.
    pub xff: f64,
    /// PDPs per CDP.
    pub steps: u32,
    /// Ring capacity in CDPs.
    pub rows: usize,
    ring: Vec<f64>,
    /// Index of the next slot to write.
    head: usize,
    /// Number of CDPs written so far (saturates at `rows`).
    filled: usize,
    accum: CdpAccum,
}

impl Rra {
    /// Creates an empty archive.
    ///
    /// # Panics
    /// Panics if `steps == 0` or `rows == 0` — an archive must hold
    /// something.
    pub fn new(cf: ConsolidationFn, xff: f64, steps: u32, rows: usize) -> Rra {
        assert!(steps > 0, "steps must be positive");
        assert!(rows > 0, "rows must be positive");
        assert!((0.0..1.0).contains(&xff), "xff must be in [0, 1)");
        Rra {
            cf,
            xff,
            steps,
            rows,
            ring: vec![f64::NAN; rows],
            head: 0,
            filled: 0,
            accum: CdpAccum::default(),
        }
    }

    /// Feeds one PDP; returns `Some(cdp)` when a consolidation interval
    /// completed and was written to the ring.
    pub fn push_pdp(&mut self, pdp: f64) -> Option<f64> {
        self.accum.push(pdp);
        if self.accum.total < self.steps {
            return None;
        }
        let cdp = self.accum.finish(self.cf, self.xff);
        self.accum = CdpAccum::default();
        self.ring[self.head] = cdp;
        self.head = (self.head + 1) % self.rows;
        self.filled = (self.filled + 1).min(self.rows);
        Some(cdp)
    }

    /// Feeds `n` copies of one PDP — what a gap of `n` whole steps
    /// produces — and returns how many CDPs completed. Identical to `n`
    /// calls of [`Rra::push_pdp`], bit for bit, in O(steps + rows)
    /// instead of O(n): every CDP that starts and ends inside the run
    /// has the same value, so only the last `rows` of them are written.
    pub(crate) fn push_repeated(&mut self, pdp: f64, n: u64) -> u64 {
        let steps = u64::from(self.steps);
        // Finish the CDP already in progress one PDP at a time.
        let lead = n.min(steps - u64::from(self.accum.total));
        let mut completed = 0;
        for _ in 0..lead {
            completed += u64::from(self.push_pdp(pdp).is_some());
        }
        let rest = n - lead;
        let whole = rest / steps;
        if whole > 0 {
            let mut accum = CdpAccum::default();
            for _ in 0..steps {
                accum.push(pdp);
            }
            let cdp = accum.finish(self.cf, self.xff);
            // Past `rows` writes the ring holds only `cdp`, wherever
            // its head stands.
            let written = whole.min(self.rows as u64) as usize;
            for _ in 0..written {
                self.ring[self.head] = cdp;
                self.head = (self.head + 1) % self.rows;
            }
            self.filled = (self.filled + written).min(self.rows);
            completed += whole;
        }
        for _ in 0..rest % steps {
            self.push_pdp(pdp);
        }
        completed
    }

    /// Number of CDPs currently stored.
    pub fn len(&self) -> usize {
        self.filled
    }

    /// Whether no CDP has been stored yet.
    pub fn is_empty(&self) -> bool {
        self.filled == 0
    }

    /// Stored CDPs oldest-first.
    pub fn values(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.filled);
        let start = (self.head + self.rows - self.filled) % self.rows;
        for i in 0..self.filled {
            out.push(self.ring[(start + i) % self.rows]);
        }
        out
    }

    /// Seconds covered by one CDP given the RRD base step.
    pub fn cdp_span(&self, base_step: u64) -> u64 {
        base_step * self.steps as u64
    }

    /// Serializes the ring and in-progress accumulator as one text
    /// line (dump/restore support; NaN renders as `nan`).
    pub fn dump_line(&self) -> String {
        let values: Vec<String> = self.values().iter().map(|v| fmt_f64(*v)).collect();
        format!(
            "accum {} {} {} {} {} {} ; ring {}",
            fmt_f64(self.accum.sum),
            fmt_f64(self.accum.min),
            fmt_f64(self.accum.max),
            fmt_f64(self.accum.last),
            self.accum.known,
            self.accum.total,
            values.join(" ")
        )
    }

    /// Rebuilds an archive from its definition plus a
    /// [`Rra::dump_line`] payload.
    pub fn restore_line(
        cf: ConsolidationFn,
        xff: f64,
        steps: u32,
        rows: usize,
        line: &str,
    ) -> Result<Rra, String> {
        let line = line.trim();
        let rest = line.strip_prefix("accum ").ok_or("missing 'accum' prefix")?;
        let (accum_part, ring_part) =
            rest.split_once(" ; ring").ok_or("missing '; ring' separator")?;
        let fields: Vec<&str> = accum_part.split_whitespace().collect();
        if fields.len() != 6 {
            return Err(format!("expected 6 accumulator fields, found {}", fields.len()));
        }
        let mut rra = Rra::new(cf, xff, steps, rows);
        rra.accum = CdpAccum {
            sum: parse_f64(fields[0])?,
            min: parse_f64(fields[1])?,
            max: parse_f64(fields[2])?,
            last: parse_f64(fields[3])?,
            known: fields[4].parse().map_err(|e| format!("bad known count: {e}"))?,
            total: fields[5].parse().map_err(|e| format!("bad total count: {e}"))?,
        };
        for value in ring_part.split_whitespace() {
            let v = parse_f64(value)?;
            rra.ring[rra.head] = v;
            rra.head = (rra.head + 1) % rra.rows;
            rra.filled = (rra.filled + 1).min(rra.rows);
        }
        Ok(rra)
    }
}

fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "nan".to_string()
    } else {
        // Bit-exact roundtrip via hex bits.
        format!("{:016x}", v.to_bits())
    }
}

fn parse_f64(s: &str) -> Result<f64, String> {
    if s == "nan" {
        return Ok(f64::NAN);
    }
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|e| format!("bad f64 bits {s:?}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_consolidation() {
        let mut rra = Rra::new(ConsolidationFn::Average, 0.5, 4, 8);
        assert_eq!(rra.push_pdp(1.0), None);
        assert_eq!(rra.push_pdp(2.0), None);
        assert_eq!(rra.push_pdp(3.0), None);
        assert_eq!(rra.push_pdp(4.0), Some(2.5));
        assert_eq!(rra.values(), [2.5]);
    }

    #[test]
    fn min_max_last() {
        let mut min = Rra::new(ConsolidationFn::Min, 0.5, 3, 4);
        let mut max = Rra::new(ConsolidationFn::Max, 0.5, 3, 4);
        let mut last = Rra::new(ConsolidationFn::Last, 0.5, 3, 4);
        for v in [5.0, 1.0, 3.0] {
            min.push_pdp(v);
            max.push_pdp(v);
            last.push_pdp(v);
        }
        assert_eq!(min.values(), [1.0]);
        assert_eq!(max.values(), [5.0]);
        assert_eq!(last.values(), [3.0]);
    }

    #[test]
    fn ring_wraps_keeping_most_recent() {
        let mut rra = Rra::new(ConsolidationFn::Last, 0.0, 1, 3);
        for v in 1..=5 {
            rra.push_pdp(v as f64);
        }
        assert_eq!(rra.values(), [3.0, 4.0, 5.0]);
        assert_eq!(rra.len(), 3);
    }

    #[test]
    fn xff_tolerates_bounded_unknowns() {
        // xff = 0.5: up to half the PDPs may be unknown.
        let mut rra = Rra::new(ConsolidationFn::Average, 0.5, 4, 4);
        rra.push_pdp(2.0);
        rra.push_pdp(f64::NAN);
        rra.push_pdp(4.0);
        let cdp = rra.push_pdp(f64::NAN).unwrap();
        assert_eq!(cdp, 3.0); // average of known values
    }

    #[test]
    fn xff_rejects_excess_unknowns() {
        let mut rra = Rra::new(ConsolidationFn::Average, 0.25, 4, 4);
        rra.push_pdp(2.0);
        rra.push_pdp(f64::NAN);
        rra.push_pdp(f64::NAN);
        let cdp = rra.push_pdp(8.0).unwrap();
        assert!(cdp.is_nan());
    }

    #[test]
    fn all_unknown_interval_is_unknown() {
        let mut rra = Rra::new(ConsolidationFn::Average, 0.9, 2, 2);
        rra.push_pdp(f64::NAN);
        let cdp = rra.push_pdp(f64::NAN).unwrap();
        assert!(cdp.is_nan());
    }

    #[test]
    fn one_step_archive_stores_every_pdp() {
        let mut rra = Rra::new(ConsolidationFn::Average, 0.0, 1, 10);
        for v in [1.5, 2.5, 3.5] {
            assert!(rra.push_pdp(v).is_some());
        }
        assert_eq!(rra.values(), [1.5, 2.5, 3.5]);
    }

    #[test]
    fn cdp_span() {
        let rra = Rra::new(ConsolidationFn::Average, 0.5, 6, 100);
        assert_eq!(rra.cdp_span(600), 3_600);
    }

    #[test]
    #[should_panic(expected = "steps must be positive")]
    fn zero_steps_panics() {
        Rra::new(ConsolidationFn::Average, 0.5, 0, 1);
    }

    #[test]
    #[should_panic(expected = "xff must be in [0, 1)")]
    fn bad_xff_panics() {
        Rra::new(ConsolidationFn::Average, 1.0, 1, 1);
    }
}
