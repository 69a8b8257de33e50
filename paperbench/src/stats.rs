//! Order statistics for the benchmark's timings.
//!
//! Percentiles are nearest-rank over the sorted samples and are named in
//! basis points (`9900` = p99) so that rank arithmetic stays in integers.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Tail percentiles the benchmark may report, highest first (basis points).
pub const TAIL_LADDER_BP: [u32; 5] = [9999, 9990, 9900, 9500, 9000];

/// 1-based nearest rank of percentile `bp` among `n` samples.
fn rank(n: usize, bp: u32) -> usize {
    let r = (n * bp as usize).div_ceil(10_000);
    r.clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank percentile `bp` of `n`.
#[must_use]
pub fn samples_beyond(n: usize, bp: u32) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, bp)
    }
}

/// The highest percentile of [`TAIL_LADDER_BP`] with at least
/// [`MIN_TAIL_SAMPLES`] samples beyond it, or `None` for too few samples.
#[must_use]
pub fn tail_percentile_bp(n: usize) -> Option<u32> {
    TAIL_LADDER_BP
        .into_iter()
        .find(|&bp| samples_beyond(n, bp) >= MIN_TAIL_SAMPLES)
}

/// Nearest-rank percentile `bp` of already sorted, non-empty samples.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn percentile_sorted(sorted: &[f64], bp: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), bp) - 1]
}

/// Sorts `values` and returns their median (mean of the middle two for an
/// even count).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}
