//! The benchmark-side [`DispatchPolicy`] adapter that times every frame.

use o2o_core::Degraded;
use o2o_sim::{DispatchPolicy, FrameAssignment, FrameContext};
use std::time::Instant;

/// Work done after a frame's timed dispatch: correctness checks or the
/// per-layer replay. Its cost never enters the frame's latency.
pub trait FrameHook {
    /// Called once per dispatched frame with the policy's input and output
    /// and the measured dispatch latency.
    fn on_frame(&mut self, ctx: &FrameContext<'_>, out: &[FrameAssignment], dispatch_ms: f64);
}

impl FrameHook for () {
    fn on_frame(&mut self, _: &FrameContext<'_>, _: &[FrameAssignment], _: f64) {}
}

/// Latency and shape of one dispatched frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameRecord {
    /// Frame index.
    pub frame: u64,
    /// Wall-clock of the policy's `dispatch` call, in milliseconds.
    pub dispatch_ms: f64,
    /// Requests handed to the policy.
    pub pending: u32,
    /// Idle taxis handed to the policy.
    pub idle: u32,
    /// Requests of the batch that were not in the previous batch.
    pub new_requests: u32,
}

/// Wraps a policy, timing each `dispatch` call and passing the frame to a
/// [`FrameHook`] afterwards. Every other trait method is forwarded, so the
/// engine treats the wrapped policy exactly as the bare one.
pub struct Timed<P, H> {
    inner: P,
    hook: H,
    frames: Vec<FrameRecord>,
}

impl<P: DispatchPolicy, H: FrameHook> Timed<P, H> {
    /// Wraps `inner`, handing each frame to `hook` after it is timed.
    pub fn new(inner: P, hook: H) -> Self {
        Timed {
            inner,
            hook,
            frames: Vec::with_capacity(4096),
        }
    }

    /// Consumes the adapter, returning the frame records and the hook.
    pub fn into_parts(self) -> (Vec<FrameRecord>, H) {
        (self.frames, self.hook)
    }
}

impl<P: DispatchPolicy, H: FrameHook> DispatchPolicy for Timed<P, H> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn dispatch(&mut self, ctx: &FrameContext<'_>) -> Vec<FrameAssignment> {
        let started = Instant::now();
        let out = self.inner.dispatch(ctx);
        let dispatch_ms = started.elapsed().as_secs_f64() * 1e3;
        self.frames.push(FrameRecord {
            frame: ctx.frame,
            dispatch_ms,
            pending: ctx.pending.len() as u32,
            idle: ctx.idle_taxis.len() as u32,
            new_requests: ctx
                .delta
                .map_or(ctx.pending.len(), |d| d.new_requests.len())
                as u32,
        });
        self.hook.on_frame(ctx, &out, dispatch_ms);
        out
    }

    fn wants_pickup_distances(&self) -> bool {
        self.inner.wants_pickup_distances()
    }

    fn wants_taxi_grid(&self) -> bool {
        self.inner.wants_taxi_grid()
    }

    fn take_degradation(&mut self) -> Option<Degraded> {
        self.inner.take_degradation()
    }
}
