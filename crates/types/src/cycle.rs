use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in hot-clock cycles.
///
/// All latencies reported by this workspace are in the clock domain of the
/// execution hardware ("hot clock"), matching Table I of the paper.
///
/// `Cycle` is an absolute timestamp; durations are plain `u64`s obtained via
/// [`Cycle::since`] or subtraction of two `Cycle`s.
///
/// # Examples
///
/// ```
/// use gpu_types::Cycle;
///
/// let start = Cycle::new(100);
/// let end = start + 45;
/// assert_eq!(end - start, 45);
/// assert_eq!(end.since(start), 45);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(u64);

impl Cycle {
    /// The beginning of simulated time.
    pub const ZERO: Cycle = Cycle(0);

    /// The end of simulated time: later than every reachable timestamp, so
    /// it is the identity of a `min` over pending event times ("nothing
    /// scheduled").
    pub const MAX: Cycle = Cycle(u64::MAX);

    /// Creates a timestamp at the given absolute cycle count.
    #[inline]
    pub const fn new(cycle: u64) -> Self {
        Cycle(cycle)
    }

    /// Returns the raw cycle count.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Returns the duration in cycles since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is later than `self`.
    #[inline]
    pub fn since(self, earlier: Cycle) -> u64 {
        debug_assert!(
            earlier.0 <= self.0,
            "Cycle::since: earlier ({}) is after self ({})",
            earlier.0,
            self.0
        );
        self.0.wrapping_sub(earlier.0)
    }

    /// Returns the duration since `earlier`, or `None` if `earlier` is later.
    #[inline]
    pub fn checked_since(self, earlier: Cycle) -> Option<u64> {
        self.0.checked_sub(earlier.0)
    }

    /// Returns the duration since `earlier`, clamping to zero if `earlier`
    /// is later than `self`.
    #[inline]
    pub fn saturating_since(self, earlier: Cycle) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// Advances the timestamp by one cycle.
    #[inline]
    pub fn tick(&mut self) {
        self.0 += 1;
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;

    #[inline]
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign<u64> for Cycle {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub for Cycle {
    type Output = u64;

    /// Duration between two timestamps, in cycles.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    #[inline]
    fn sub(self, rhs: Cycle) -> u64 {
        self.since(rhs)
    }
}

impl From<u64> for Cycle {
    fn from(cycle: u64) -> Self {
        Cycle(cycle)
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_default() {
        assert_eq!(Cycle::default(), Cycle::ZERO);
        assert_eq!(Cycle::ZERO.get(), 0);
    }

    #[test]
    fn arithmetic_roundtrip() {
        let a = Cycle::new(17);
        let b = a + 25;
        assert_eq!(b.get(), 42);
        assert_eq!(b - a, 25);
        assert_eq!(b.since(a), 25);
    }

    #[test]
    fn checked_since_detects_order() {
        let a = Cycle::new(10);
        let b = Cycle::new(20);
        assert_eq!(b.checked_since(a), Some(10));
        assert_eq!(a.checked_since(b), None);
        assert_eq!(a.saturating_since(b), 0);
    }

    #[test]
    fn tick_advances_one() {
        let mut c = Cycle::new(7);
        c.tick();
        assert_eq!(c.get(), 8);
        c += 2;
        assert_eq!(c.get(), 10);
    }

    #[test]
    fn ordering_follows_value() {
        assert!(Cycle::new(1) < Cycle::new(2));
        assert_eq!(Cycle::from(5u64), Cycle::new(5));
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(Cycle::new(3).to_string(), "cycle 3");
    }
}
