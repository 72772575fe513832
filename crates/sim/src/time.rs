//! Virtual-time newtypes.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use nimblock_ser::impl_json_newtype;

/// A point in virtual time, measured in microseconds since simulation start.
///
/// `SimTime` is an absolute timestamp; spans of time are represented by
/// [`SimDuration`]. The distinction mirrors `std::time::Instant` versus
/// `std::time::Duration` and prevents the classic bug of adding two
/// timestamps.
///
/// # Example
///
/// ```
/// use nimblock_sim::{SimDuration, SimTime};
///
/// let start = SimTime::from_millis(400);
/// let end = start + SimDuration::from_millis(80);
/// assert_eq!(end - start, SimDuration::from_millis(80));
/// assert_eq!(end.as_micros(), 480_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl_json_newtype!(SimTime);

/// A span of virtual time, measured in microseconds.
///
/// # Example
///
/// ```
/// use nimblock_sim::SimDuration;
///
/// let reconfig = SimDuration::from_millis(80);
/// assert_eq!(reconfig * 3, SimDuration::from_millis(240));
/// assert_eq!(reconfig.as_secs_f64(), 0.08);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl_json_newtype!(SimDuration);

impl SimTime {
    /// The simulation epoch (time zero).
    pub const ZERO: SimTime = SimTime(0);

    /// A timestamp later than any timestamp produced in practice.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a timestamp `micros` microseconds after the epoch.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates a timestamp `millis` milliseconds after the epoch.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000)
    }

    /// Creates a timestamp `secs` seconds after the epoch.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000)
    }

    /// Returns the number of whole microseconds since the epoch.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the number of whole milliseconds since the epoch.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the time since the epoch as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the span from `earlier` to `self`, or [`SimDuration::ZERO`]
    /// if `earlier` is actually later than `self`.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Returns the span from the epoch to `self`.
    pub const fn elapsed(self) -> SimDuration {
        SimDuration(self.0)
    }

    /// Returns the index of the tumbling window of length `window` that
    /// contains this timestamp: window `w` covers
    /// `[w * window, (w + 1) * window)`. Time-series aggregation keys
    /// every sample by this index, so windows are a pure function of
    /// virtual time.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero — a zero-length window contains no
    /// timestamps.
    pub const fn window_index(self, window: SimDuration) -> u64 {
        assert!(!window.is_zero(), "window length must be non-zero");
        self.0 / window.0
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// A span longer than any span produced in practice.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a span of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a span of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// Creates a span of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000)
    }

    /// Creates a span from fractional seconds, rounding to whole microseconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration seconds must be finite and non-negative, got {secs}"
        );
        SimDuration((secs * 1e6).round() as u64)
    }

    /// Returns the number of whole microseconds in the span.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the number of whole milliseconds in the span.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the span as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns `true` if the span is empty.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies the span by an integer factor, saturating at the maximum.
    pub const fn saturating_mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }

    /// Adds two spans, saturating at the maximum.
    pub const fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }

    /// Returns the ratio of `self` to `other` as a float.
    ///
    /// Returns `0.0` when `other` is zero; callers comparing shares of a
    /// total want an empty total to contribute nothing, not a NaN.
    pub fn ratio(self, other: SimDuration) -> f64 {
        if other.is_zero() {
            0.0
        } else {
            self.0 as f64 / other.0 as f64
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;

    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub for SimTime {
    type Output = SimDuration;

    /// Returns the span from `rhs` to `self`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`; use
    /// [`SimTime::saturating_since`] when ordering is not guaranteed.
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;

    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;

    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_constructors_agree() {
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1_000));
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1_000));
        assert_eq!(SimDuration::from_secs(2).as_millis(), 2_000);
    }

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_millis(500);
        let d = SimDuration::from_millis(80);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn saturating_since_clamps_to_zero() {
        let early = SimTime::from_millis(10);
        let late = SimTime::from_millis(20);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_millis(10));
    }

    #[test]
    fn duration_from_secs_f64_rounds() {
        assert_eq!(SimDuration::from_secs_f64(0.0000015).as_micros(), 2);
        assert_eq!(SimDuration::from_secs_f64(0.08), SimDuration::from_millis(80));
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn duration_from_negative_secs_panics() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn duration_ratio_handles_zero_denominator() {
        let d = SimDuration::from_millis(5);
        assert_eq!(d.ratio(SimDuration::ZERO), 0.0);
        assert!((d.ratio(SimDuration::from_millis(10)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn duration_sum_over_iterator() {
        let total: SimDuration = (1..=4).map(SimDuration::from_millis).sum();
        assert_eq!(total, SimDuration::from_millis(10));
    }

    #[test]
    fn display_formats_as_seconds() {
        assert_eq!(SimTime::from_millis(1500).to_string(), "1.500000s");
        assert_eq!(SimDuration::from_micros(80_000).to_string(), "0.080000s");
    }

    #[test]
    fn window_index_tumbles_on_exact_boundaries() {
        let w = SimDuration::from_millis(10);
        assert_eq!(SimTime::ZERO.window_index(w), 0);
        assert_eq!(SimTime::from_micros(9_999).window_index(w), 0);
        assert_eq!(SimTime::from_micros(10_000).window_index(w), 1);
        assert_eq!(SimTime::from_millis(25).window_index(w), 2);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn window_index_rejects_zero_windows() {
        let _ = SimTime::from_millis(1).window_index(SimDuration::ZERO);
    }

    #[test]
    fn ordering_is_chronological() {
        assert!(SimTime::ZERO < SimTime::from_micros(1));
        assert!(SimDuration::from_millis(1) < SimDuration::from_secs(1));
    }
}
