//! Memory-access coalescing.
//!
//! Merges a warp's per-lane accesses into the minimal set of line-sized
//! memory transactions, following compute-capability-2.x rules: one
//! transaction per distinct cache line touched by the active lanes.

use gpu_isa::LaneAccess;
use gpu_types::Addr;

/// Coalesces per-lane accesses into unique line-aligned transaction
/// addresses, sorted ascending.
///
/// Accesses that straddle a line boundary contribute both lines (possible
/// for 8-byte accesses that are only 4-byte aligned).
///
/// # Panics
///
/// Panics if `line_size` is not a power of two.
///
/// # Examples
///
/// ```
/// use gpu_sim::coalesce;
/// use gpu_isa::{LaneAccess, Width};
/// use gpu_types::Addr;
///
/// // 32 consecutive 4-byte accesses starting at 0x1000 fit in one line.
/// let accesses: Vec<LaneAccess> = (0..32)
///     .map(|lane| LaneAccess {
///         lane,
///         addr: Addr::new(0x1000 + 4 * lane as u64),
///         width: Width::W4,
///     })
///     .collect();
/// assert_eq!(coalesce(&accesses, 128), vec![Addr::new(0x1000)]);
/// ```
pub fn coalesce(accesses: &[LaneAccess], line_size: u64) -> Vec<Addr> {
    let mut lines = Vec::with_capacity(accesses.len());
    coalesce_into(accesses, line_size, &mut lines);
    lines
}

/// [`coalesce`] into a caller-owned buffer, which is cleared first: the SM
/// keeps one so that an issue past warm-up allocates nothing.
///
/// # Panics
///
/// Panics if `line_size` is not a power of two.
pub fn coalesce_into(accesses: &[LaneAccess], line_size: u64, lines: &mut Vec<Addr>) {
    assert!(
        line_size.is_power_of_two(),
        "line size must be a power of two"
    );
    lines.clear();
    for a in accesses {
        let first = a.addr.align_down(line_size);
        let last = (a.addr + (a.width.bytes() - 1)).align_down(line_size);
        lines.push(first);
        if last != first {
            lines.push(last);
        }
    }
    lines.sort_unstable();
    lines.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_isa::Width;

    fn acc(lane: u32, addr: u64, width: Width) -> LaneAccess {
        LaneAccess {
            lane,
            addr: Addr::new(addr),
            width,
        }
    }

    #[test]
    fn fully_coalesced_warp_is_one_line() {
        let accesses: Vec<_> = (0..32)
            .map(|l| acc(l, 0x8000 + 4 * l as u64, Width::W4))
            .collect();
        assert_eq!(coalesce(&accesses, 128), vec![Addr::new(0x8000)]);
    }

    #[test]
    fn strided_warp_fans_out() {
        // Stride of one line per lane: 32 distinct lines.
        let accesses: Vec<_> = (0..32).map(|l| acc(l, 128 * l as u64, Width::W4)).collect();
        let lines = coalesce(&accesses, 128);
        assert_eq!(lines.len(), 32);
        assert_eq!(lines[0], Addr::new(0));
        assert_eq!(lines[31], Addr::new(31 * 128));
    }

    #[test]
    fn unaligned_wide_access_spans_two_lines() {
        let accesses = vec![acc(0, 124, Width::W8)];
        assert_eq!(coalesce(&accesses, 128), vec![Addr::new(0), Addr::new(128)]);
    }

    #[test]
    fn duplicate_addresses_merge() {
        let accesses = vec![acc(0, 0x100, Width::W4), acc(1, 0x100, Width::W4)];
        assert_eq!(coalesce(&accesses, 128), vec![Addr::new(0x100)]);
    }

    #[test]
    fn empty_input_is_empty() {
        assert!(coalesce(&[], 128).is_empty());
    }

    #[test]
    fn misaligned_scatter_within_two_lines() {
        let accesses = vec![
            acc(0, 0x10, Width::W4),
            acc(1, 0x90, Width::W4),
            acc(2, 0x7c, Width::W4),
        ];
        let lines = coalesce(&accesses, 128);
        assert_eq!(lines, vec![Addr::new(0), Addr::new(0x80)]);
    }
}
