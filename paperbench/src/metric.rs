//! A [`Metric`] wrapper that counts distance evaluations.

use o2o_geo::{Euclidean, Metric, Point};
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards every query to [`Euclidean`] and counts the point pairs
/// evaluated: one per [`Metric::distance`] call and one per target of a
/// [`Metric::distances_into`] batch. Answers are Euclidean's own, bit for
/// bit, so a dispatcher built over it makes the same decisions.
#[derive(Debug, Default)]
pub struct CountingMetric {
    pairs: AtomicU64,
}

impl CountingMetric {
    /// A counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Point pairs evaluated so far.
    #[must_use]
    pub fn pairs(&self) -> u64 {
        self.pairs.load(Ordering::Relaxed)
    }
}

impl Metric for CountingMetric {
    fn distance(&self, a: Point, b: Point) -> f64 {
        // A statistic that publishes no other data, so `Relaxed` suffices.
        self.pairs.fetch_add(1, Ordering::Relaxed);
        Euclidean.distance(a, b)
    }

    fn distances_into(&self, origin: Point, targets: &[Point], out: &mut [f64]) {
        self.pairs
            .fetch_add(targets.len() as u64, Ordering::Relaxed);
        Euclidean.distances_into(origin, targets, out);
    }
}
