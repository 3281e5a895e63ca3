//! GMT timestamps for report headers.
//!
//! Inca headers record "the time at which [the reporter] ran" in GMT.
//! The framework itself only needs seconds-since-epoch arithmetic (cron
//! periods, archive steps), but headers and status pages render ISO-8601
//! text, so [`Timestamp`] converts both ways using the standard
//! civil-from-days algorithm — no external time crate required, and the
//! conversion is exact for the proleptic Gregorian calendar.

use std::fmt;
use std::ops::{Add, Sub};
use std::str::FromStr;

/// Seconds since the Unix epoch, always interpreted as GMT/UTC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// The Unix epoch itself.
    pub const EPOCH: Timestamp = Timestamp(0);

    /// Creates a timestamp from seconds since the epoch.
    pub fn from_secs(secs: u64) -> Self {
        Timestamp(secs)
    }

    /// The wall clock, truncated to whole seconds (the epoch if the
    /// system clock reads before it).
    pub fn now() -> Self {
        let since_epoch = std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH);
        Timestamp(since_epoch.map_or(0, |d| d.as_secs()))
    }

    /// Builds a timestamp from a civil GMT date and time.
    ///
    /// `month` is 1-based, `day` is 1-based. Dates before 1970 are not
    /// representable and panic in debug builds via the days computation.
    pub fn from_gmt(year: i64, month: u32, day: u32, hour: u32, minute: u32, second: u32) -> Self {
        let days = days_from_civil(year, month, day);
        debug_assert!(days >= 0, "dates before 1970 are not representable");
        let secs =
            days as u64 * 86_400 + hour as u64 * 3_600 + minute as u64 * 60 + second as u64;
        Timestamp(secs)
    }

    /// Seconds since the epoch.
    pub fn as_secs(self) -> u64 {
        self.0
    }

    /// The civil GMT date `(year, month, day)` of this instant.
    pub fn date(self) -> (i64, u32, u32) {
        civil_from_days((self.0 / 86_400) as i64)
    }

    /// The GMT time of day `(hour, minute, second)`.
    pub fn time_of_day(self) -> (u32, u32, u32) {
        let s = self.0 % 86_400;
        ((s / 3_600) as u32, ((s % 3_600) / 60) as u32, (s % 60) as u32)
    }

    /// Day of week, 0 = Sunday … 6 = Saturday (the epoch was a Thursday).
    ///
    /// Used by the maintenance-window failure model: the paper notes
    /// Mondays are TeraGrid preventative-maintenance days (§4.1).
    pub fn weekday(self) -> u32 {
        (((self.0 / 86_400) + 4) % 7) as u32
    }

    /// Minute within the hour (0–59); cron scheduling helper.
    pub fn minute_of_hour(self) -> u32 {
        ((self.0 % 3_600) / 60) as u32
    }

    /// Truncates to the start of the containing hour.
    pub fn truncate_to_hour(self) -> Timestamp {
        Timestamp(self.0 - self.0 % 3_600)
    }

    /// Truncates to the start of the containing GMT day.
    pub fn truncate_to_day(self) -> Timestamp {
        Timestamp(self.0 - self.0 % 86_400)
    }
}

impl Add<u64> for Timestamp {
    type Output = Timestamp;
    fn add(self, rhs: u64) -> Timestamp {
        Timestamp(self.0 + rhs)
    }
}

impl Sub<u64> for Timestamp {
    type Output = Timestamp;
    fn sub(self, rhs: u64) -> Timestamp {
        Timestamp(self.0.saturating_sub(rhs))
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = u64;
    fn sub(self, rhs: Timestamp) -> u64 {
        self.0.saturating_sub(rhs.0)
    }
}

impl fmt::Display for Timestamp {
    /// Renders as ISO-8601 GMT, e.g. `2004-07-07T14:03:00Z`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.date();
        let (hh, mm, ss) = self.time_of_day();
        write!(f, "{y:04}-{m:02}-{d:02}T{hh:02}:{mm:02}:{ss:02}Z")
    }
}

impl FromStr for Timestamp {
    type Err = String;

    /// Parses the ISO-8601 GMT form produced by `Display`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        let body = s.strip_suffix('Z').unwrap_or(s);
        let (date, time) = body
            .split_once('T')
            .ok_or_else(|| format!("missing 'T' separator in timestamp {s:?}"))?;
        let mut dp = date.split('-');
        let mut tp = time.split(':');
        let parse = |part: Option<&str>, what: &str| -> Result<i64, String> {
            part.ok_or_else(|| format!("missing {what} in {s:?}"))?
                .parse::<i64>()
                .map_err(|e| format!("bad {what} in {s:?}: {e}"))
        };
        let year = parse(dp.next(), "year")?;
        let month = parse(dp.next(), "month")? as u32;
        let day = parse(dp.next(), "day")? as u32;
        let hour = parse(tp.next(), "hour")? as u32;
        let minute = parse(tp.next(), "minute")? as u32;
        let second = parse(tp.next(), "second")? as u32;
        if !(1..=12).contains(&month) || !(1..=31).contains(&day) {
            return Err(format!("date out of range in {s:?}"));
        }
        if hour > 23 || minute > 59 || second > 59 {
            return Err(format!("time out of range in {s:?}"));
        }
        let days = days_from_civil(year, month, day);
        if days < 0 {
            return Err(format!("timestamps before 1970 unsupported: {s:?}"));
        }
        Ok(Timestamp::from_gmt(year, month, day, hour, minute, second))
    }
}

/// Days since 1970-01-01 for a civil date (Howard Hinnant's algorithm).
fn days_from_civil(year: i64, month: u32, day: u32) -> i64 {
    let y = if month <= 2 { year - 1 } else { year };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as u64; // [0, 399]
    let mp = (month + 9) % 12; // March = 0
    let doy = (153 * mp as u64 + 2) / 5 + day as u64 - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe as i64 - 719_468
}

/// Civil date from days since 1970-01-01 (inverse of `days_from_civil`).
fn civil_from_days(days: i64) -> (i64, u32, u32) {
    let z = days + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64; // [0, 146096]
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_renders_correctly() {
        assert_eq!(Timestamp::EPOCH.to_string(), "1970-01-01T00:00:00Z");
    }

    #[test]
    fn paper_week_dates() {
        // The TeraGrid depot was monitored July 7–14, 2004 (§5.2.1).
        let t = Timestamp::from_gmt(2004, 7, 7, 0, 0, 0);
        assert_eq!(t.to_string(), "2004-07-07T00:00:00Z");
        assert_eq!(t.date(), (2004, 7, 7));
        // July 7 2004 was a Wednesday.
        assert_eq!(t.weekday(), 3);
    }

    #[test]
    fn monday_detection() {
        // July 5 2004 was a Monday (maintenance day).
        let t = Timestamp::from_gmt(2004, 7, 5, 9, 0, 0);
        assert_eq!(t.weekday(), 1);
    }

    #[test]
    fn roundtrip_display_parse() {
        for secs in [0u64, 1_089_158_400, 1_700_000_000, 86_399, 86_400, 4_102_444_799] {
            let t = Timestamp::from_secs(secs);
            let parsed: Timestamp = t.to_string().parse().unwrap();
            assert_eq!(parsed, t, "roundtrip failed for {secs}");
        }
    }

    #[test]
    fn leap_year_handling() {
        let t = Timestamp::from_gmt(2004, 2, 29, 12, 0, 0);
        assert_eq!(t.date(), (2004, 2, 29));
        let next_day = t + 86_400;
        assert_eq!(next_day.date(), (2004, 3, 1));
        // 2100 is not a leap year.
        let t = Timestamp::from_gmt(2100, 2, 28, 0, 0, 0) + 86_400;
        assert_eq!(t.date(), (2100, 3, 1));
    }

    #[test]
    fn time_of_day_components() {
        let t = Timestamp::from_gmt(2004, 7, 7, 13, 45, 31);
        assert_eq!(t.time_of_day(), (13, 45, 31));
        assert_eq!(t.minute_of_hour(), 45);
    }

    #[test]
    fn truncation() {
        let t = Timestamp::from_gmt(2004, 7, 7, 13, 45, 31);
        assert_eq!(t.truncate_to_hour().to_string(), "2004-07-07T13:00:00Z");
        assert_eq!(t.truncate_to_day().to_string(), "2004-07-07T00:00:00Z");
    }

    #[test]
    fn arithmetic() {
        let t = Timestamp::from_secs(100);
        assert_eq!((t + 50).as_secs(), 150);
        assert_eq!((t - 30).as_secs(), 70);
        assert_eq!(Timestamp::from_secs(150) - t, 50);
        // Saturating at zero.
        assert_eq!((t - 1_000).as_secs(), 0);
        assert_eq!(t - Timestamp::from_secs(500), 0);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("not a time".parse::<Timestamp>().is_err());
        assert!("2004-07-07".parse::<Timestamp>().is_err());
        assert!("2004-13-01T00:00:00Z".parse::<Timestamp>().is_err());
        assert!("2004-01-32T00:00:00Z".parse::<Timestamp>().is_err());
        assert!("2004-01-01T24:00:00Z".parse::<Timestamp>().is_err());
        assert!("1960-01-01T00:00:00Z".parse::<Timestamp>().is_err());
    }

    #[test]
    fn weekday_cycles() {
        let sunday = Timestamp::from_gmt(2004, 7, 4, 0, 0, 0);
        for offset in 0..7 {
            let t = sunday + offset * 86_400;
            assert_eq!(t.weekday(), offset as u32);
        }
    }
}
