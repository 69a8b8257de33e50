//! A gauge of how fast the machine runs at the moment.
//!
//! On a shared machine the other tenants' load slows this process by up to
//! half for minutes at a time, with no steal time to show for it and no
//! hardware counters to count work instead. The gauge times a fixed kernel
//! of the benchmark's own between frames: a preference build in miniature
//! (planar distances from a point to a fleet, the ones within a radius
//! sorted) whose data fit in this core's own caches, so that neither the
//! program's memory use nor any change to the program moves its speed. The
//! benchmark scales its timings by the gauge's speed relative to
//! [`REFERENCE_MS`].
//!
//! The gauge follows part of the load, not all of it: over runs of eight
//! NYC days on a 2-vCPU VM it cut the spread of the mean day from 11% to
//! 8% (coefficient of variation). Kernels that read a table larger than
//! the core's cache followed the load better on NYC days, but their speed
//! moved with the program's own cache use from one Boston day to the next,
//! so they were not kept.

use std::time::Instant;

/// The kernel's time on an unloaded machine, milliseconds: the benchmark's
/// timings read as if the machine ran at the speed this stands for.
pub const REFERENCE_MS: f64 = 2.0;

/// Fleet size and request points of one kernel run.
const FLEET: usize = 2048;
const POINTS: usize = 64;

/// Runs the kernel once and returns its wall-clock in milliseconds.
#[must_use]
pub fn kernel_ms() -> f64 {
    let started = Instant::now();
    let mut state = 0x2545_F491_4F6C_DD1D_u64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 * 10.0
    };
    let fleet: Vec<(f64, f64)> = (0..FLEET).map(|_| (next(), next())).collect();
    let mut near: Vec<(f64, u32)> = Vec::with_capacity(FLEET);
    let mut acc = 0.0;
    for _ in 0..POINTS {
        let (x, y) = (next(), next());
        near.clear();
        for (i, &(tx, ty)) in fleet.iter().enumerate() {
            let d = ((tx - x).powi(2) + (ty - y).powi(2)).sqrt();
            if d < 3.0 {
                near.push((d, i as u32));
            }
        }
        near.sort_by(|a, b| a.0.total_cmp(&b.0));
        acc += near.first().map_or(0.0, |n| n.0);
    }
    std::hint::black_box(acc);
    started.elapsed().as_secs_f64() * 1e3
}

/// The kernel's times over one stretch of a run.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    samples_ms: Vec<f64>,
}

impl Gauge {
    /// Runs the kernel once and records its time.
    pub fn sample(&mut self) {
        self.samples_ms.push(kernel_ms());
    }

    /// Milliseconds the gauge itself took.
    #[must_use]
    pub fn spent_ms(&self) -> f64 {
        self.samples_ms.iter().sum()
    }

    /// Reference time over the mean measured time of the kernel: multiply
    /// a timing taken during this stretch by it to read the timing at the
    /// reference speed. 1 with no samples.
    #[must_use]
    pub fn factor(&self) -> f64 {
        if self.samples_ms.is_empty() {
            1.0
        } else {
            REFERENCE_MS * self.samples_ms.len() as f64 / self.spent_ms()
        }
    }
}

/// Frames between two gauge samples inside a timed day: about 2 ms of
/// gauge per 60 ms of NYC dispatch.
pub const SAMPLE_EVERY: u64 = 40;

/// Samples the gauge every [`SAMPLE_EVERY`] frames, after the frame's
/// timed dispatch.
impl crate::adapter::FrameHook for Gauge {
    fn on_frame(
        &mut self,
        ctx: &o2o_sim::FrameContext<'_>,
        _: &[o2o_sim::FrameAssignment],
        _: f64,
    ) {
        if ctx.frame.is_multiple_of(SAMPLE_EVERY) {
            self.sample();
        }
    }
}
