//! The two kinds of benchmark run and their result.
//!
//! * [`end_to_end`] (`--trace 0`): timed days of distinct traces
//!   (single-threaded, recorder disabled), each after its timed set-ups,
//!   then the check run. Reports the end-to-end metrics.
//! * [`traced`] (`--trace 1`): untraced days and days with the default
//!   in-memory recorder, alternating, then a day with the per-layer
//!   replay. Reports the per-layer metrics.

use crate::adapter::{FrameHook, FrameRecord, Timed};
use crate::checks::{FailTally, FrameCheck, NstdOracle, SharingCheck};
use crate::replay::{span, NstdReplay, SharingReplay};
use crate::speed::Gauge;
use crate::stats::{median, percentile_sorted, samples_beyond, tail_percentile_bp};
use crate::workload::Workload;
use o2o_obs::Recorder;
use o2o_par::Parallelism;
use o2o_sim::{DispatchPolicy, FrameAssignment, FrameContext, SimConfig, SimReport, Simulator};
use o2o_trace::{Request, Taxi, Trace};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::time::Instant;

/// Set-ups before each timed day: at least this many, and at least
/// [`SETUP_MIN_S`] seconds of them. `setup_s` is the fastest of all the
/// run's set-ups, which are spread over the run. One set-up takes 1.5 ms
/// (Boston) to 15 ms (NYC), and on a shared machine the median of a run's
/// set-ups moves by half with the other tenants' load, which comes and
/// goes over seconds to minutes; the fastest set-up of a minute-long run
/// stays within a few percent, and still grows with any work added to
/// set-up.
const SETUPS: usize = 20;
const SETUP_MIN_S: f64 = 0.1;

/// Trace generations per traced run; `trace.generate_ms` is their median.
const TRACED_SETUPS: usize = 3;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every check passed (see also [`Outcome::passed`]).
    pub correct: bool,
    /// Dispatched frames counted.
    pub attempted: u64,
    /// Dispatched frames that failed a check or had a dispatch error.
    pub failed: u64,
    /// Metrics for the JSON line, in output order.
    pub metrics: Vec<Metric>,
    /// Metrics printed with the others but left out of the JSON line
    /// (signed, always zero on correct code, or descriptive).
    pub info: Vec<Metric>,
    /// Human-readable lines printed before the JSON line.
    pub notes: Vec<String>,
}

impl Outcome {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn info(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.info.push(Metric { name, value, unit });
    }

    /// The value of metric `name`, if reported.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Every check passed and every metric, printed-only ones too, is
    /// finite.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.correct
            && self
                .metrics
                .iter()
                .chain(&self.info)
                .all(|m| m.value.is_finite())
    }

    /// The JSON result line (`correct`, `attempted`, `failed`, `metrics`).
    /// A non-finite value is written as `null`, and the run is then
    /// reported incorrect ([`Outcome::passed`]).
    #[must_use]
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    format!("{}", m.value)
                } else {
                    "null".to_string()
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.passed(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The simulator of every run: paper engine defaults, `par` threads for
/// the per-frame precomputation.
fn simulator(par: Parallelism, recorder: Recorder) -> Simulator {
    Simulator::new(SimConfig::default())
        .with_parallelism(par)
        .with_recorder(recorder)
}

fn policy(w: &Workload, par: Parallelism) -> Box<dyn DispatchPolicy + Send> {
    w.kind.build_parallel(w.params, par)
}

/// One simulated day through the timing adapter.
struct Day<H> {
    /// The engine's report.
    report: SimReport,
    /// Per-frame latency and shape.
    frames: Vec<FrameRecord>,
    /// `Simulator::run` wall-clock, seconds.
    wall_s: f64,
    /// The hook after the day.
    hook: H,
}

impl<H> Day<H> {
    /// Σ frame dispatch latency, milliseconds.
    fn dispatch_ms(&self) -> f64 {
        self.frames.iter().map(|f| f.dispatch_ms).sum()
    }
}

/// Runs `trace` through a fresh policy of workload `w` with the policy and
/// the engine on `par` threads, the engine recording through `recorder`,
/// and `hook` seeing every frame.
fn run_day<H: FrameHook>(
    w: &Workload,
    trace: &Trace,
    par: Parallelism,
    recorder: Recorder,
    hook: H,
) -> Day<H> {
    let sim = simulator(par, recorder);
    let mut timed = Timed::new(policy(w, par), hook);
    let started = Instant::now();
    let report = sim.run(trace, &mut timed);
    let wall_s = started.elapsed().as_secs_f64();
    let (frames, hook) = timed.into_parts();
    Day {
        report,
        frames,
        wall_s,
        hook,
    }
}

/// Resets this process's peak resident set (`VmHWM`) to its current
/// resident set, so that [`peak_rss_mb`] then reads the peak since the
/// reset. Returns whether the kernel took the reset (Linux 4.0 and later).
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set of this process in MiB (`VmHWM`), if readable.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Checks every run makes on a report of the workload's day.
fn report_problems(trace: &Trace, report: &SimReport) -> Vec<String> {
    let mut problems = Vec::new();
    if report.served + report.unserved_at_end != trace.requests.len() {
        problems.push(format!(
            "served {} + unserved {} != {} requests",
            report.served,
            report.unserved_at_end,
            trace.requests.len()
        ));
    }
    let reported = [
        report.served_ratio(),
        report.avg_delay_min(),
        report.avg_passenger_dissatisfaction(),
        report.avg_taxi_dissatisfaction(),
        report.total_drive_km,
    ];
    if reported.iter().any(|x| !x.is_finite()) {
        problems.push("non-finite reported metric".to_string());
    }
    problems
}

/// Marks every frame with a `SimReport::dispatch_errors` entry as failed.
fn tally_dispatch_errors(tally: &mut FailTally, report: &SimReport) {
    for e in &report.dispatch_errors {
        let frame = match e {
            o2o_sim::DispatchError::UnknownTaxi { frame, .. }
            | o2o_sim::DispatchError::RequestNotPending { frame, .. }
            | o2o_sim::DispatchError::PrecomputeFailed { frame, .. } => *frame,
        };
        tally.fail(frame, e.to_string());
    }
}

/// Sums over dispatched frames behind a workload's shape.
#[derive(Debug, Default)]
struct Shape {
    frames: f64,
    pending: f64,
    idle: f64,
    new_requests: f64,
}

impl Shape {
    fn add(&mut self, frames: &[FrameRecord]) {
        for f in frames {
            self.frames += 1.0;
            self.pending += f64::from(f.pending);
            self.idle += f64::from(f.idle);
            self.new_requests += f64::from(f.new_requests);
        }
    }

    /// Mean pending batch, mean idle fleet and batch carry ratio
    /// (1 − new requests / pending, pooled over frames).
    fn means(&self) -> (f64, f64, f64) {
        let n = self.frames.max(1.0);
        let carry = if self.pending > 0.0 {
            1.0 - self.new_requests / self.pending
        } else {
            0.0
        };
        (self.pending / n, self.idle / n, carry)
    }
}

/// Generates the trace and builds the policy at least [`SETUPS`] times
/// and for at least [`SETUP_MIN_S`], adding each set-up's seconds to
/// `samples` and returning the last trace.
fn timed_setups(w: &Workload, seed: u64, samples: &mut Vec<f64>) -> Trace {
    let mut trace = None;
    let mut count = 0;
    let started = Instant::now();
    while count < SETUPS || started.elapsed().as_secs_f64() < SETUP_MIN_S {
        let started = Instant::now();
        let t = w.trace(seed);
        let p = policy(w, Parallelism::sequential());
        samples.push(started.elapsed().as_secs_f64());
        std::hint::black_box(&p);
        trace = Some(t);
        count += 1;
    }
    trace.expect("at least one set-up")
}

/// A frame as the check worker receives it.
struct OwnedFrame {
    frame: u64,
    time: u64,
    idle: Vec<Taxi>,
    pending: Vec<Request>,
    out: Vec<FrameAssignment>,
}

/// Deals a copy of every frame to the check workers, round robin.
struct ToCheckers(Vec<SyncSender<OwnedFrame>>);

impl FrameHook for ToCheckers {
    fn on_frame(&mut self, ctx: &FrameContext<'_>, out: &[FrameAssignment], _: f64) {
        let worker = ctx.frame as usize % self.0.len();
        // A send fails only when the worker is gone (it panicked); the
        // join below reports that.
        let _ = self.0[worker].send(OwnedFrame {
            frame: ctx.frame,
            time: ctx.time,
            idle: ctx.idle_taxis.to_vec(),
            pending: ctx.pending.to_vec(),
            out: out.to_vec(),
        });
    }
}

/// Check worker threads, and the frames each may lag behind the engine.
const CHECK_WORKERS: usize = 2;
const CHECK_QUEUE: usize = 32;

/// Runs the day with policy and engine at `par` threads, recording into the
/// default in-memory recorder, while [`CHECK_WORKERS`] threads apply
/// `check` to every frame. Returns the day's report and the merged tally,
/// whose frames belong to dispatched day `day`.
fn checked_day<C: FrameCheck>(
    w: &Workload,
    trace: &Trace,
    day: u64,
    par: Parallelism,
    check: &C,
) -> (SimReport, FailTally) {
    std::thread::scope(|s| {
        let mut senders = Vec::with_capacity(CHECK_WORKERS);
        let mut workers = Vec::with_capacity(CHECK_WORKERS);
        for _ in 0..CHECK_WORKERS {
            let (tx, rx) = sync_channel::<OwnedFrame>(CHECK_QUEUE);
            let mut check = check.clone();
            senders.push(tx);
            workers.push(s.spawn(move || {
                let mut tally = FailTally::for_day(day);
                for f in rx {
                    let ctx = FrameContext::new(f.frame, f.time, &f.idle, &f.pending);
                    tally.frame(f.frame, check.check(&ctx, &f.out));
                }
                tally
            }));
        }
        let run = run_day(w, trace, par, Recorder::new(), ToCheckers(senders));
        drop(run.hook);
        let mut tally = FailTally::for_day(day);
        for worker in workers {
            match worker.join() {
                Ok(t) => tally.merge(t),
                Err(_) => tally.frame(0, vec!["check worker panicked".to_string()]),
            }
        }
        tally_dispatch_errors(&mut tally, &run.report);
        (run.report, tally)
    })
}

/// The check run: the first timed day again with policy and engine on two
/// threads and the default in-memory recorder, every frame checked on
/// worker threads (dense oracle for NSTD, structure and detour for
/// STD-P). Its frames count as dispatched day `day`. Returns the tally
/// and the day's digest.
fn check_run(w: &Workload, trace: &Trace, day: u64) -> (FailTally, u64) {
    let par = Parallelism::fixed(2);
    let (report, tally) = if w.boston {
        let check = SharingCheck::new(w.params.detour_threshold);
        checked_day(w, trace, day, par, &check)
    } else {
        let check = NstdOracle::new(w.params, w.taxi_optimal());
        checked_day(w, trace, day, par, &check)
    };
    (tally, report.deterministic_digest())
}

/// The frame of the day's last request arrival. Frames after it only
/// drain the queue; in most days that means re-offering a few requests no
/// taxi accepts until the engine's drain limit, which says nothing about
/// dispatch latency under arriving demand.
fn last_arrival_frame(trace: &Trace) -> u64 {
    let frame_s = SimConfig::default().frame_seconds;
    trace.requests.last().map_or(0, |r| r.time / frame_s)
}

/// The seed of the run's `day`-th trace: day 0 uses `seed` itself.
fn day_seed(seed: u64, day: u64) -> u64 {
    seed ^ day.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The paper's outcome metrics pooled over several days, accumulated one
/// report at a time so that no day's report outlives its day.
#[derive(Debug, Default)]
struct PooledOutcomes {
    served: usize,
    requests: usize,
    /// (sum, count) of delays, passenger and taxi dissatisfaction.
    sums: [(f64, usize); 3],
}

impl PooledOutcomes {
    fn add(&mut self, r: &SimReport) {
        self.served += r.served;
        self.requests += r.served + r.unserved_at_end;
        let series = [
            &r.delays_min,
            &r.passenger_dissatisfaction,
            &r.taxi_dissatisfaction,
        ];
        for (acc, values) in self.sums.iter_mut().zip(series) {
            acc.0 += values.iter().sum::<f64>();
            acc.1 += values.len();
        }
    }

    /// Served ratio, mean delay, mean passenger and mean taxi
    /// dissatisfaction.
    fn means(&self) -> [f64; 4] {
        let mean = |(sum, n): (f64, usize)| if n == 0 { 0.0 } else { sum / n as f64 };
        [
            self.served as f64 / self.requests.max(1) as f64,
            mean(self.sums[0]),
            mean(self.sums[1]),
            mean(self.sums[2]),
        ]
    }
}

/// Nearest-rank percentile `bp` of `samples` (sorted in place), or NaN
/// for none.
fn percentile(samples: &mut [f64], bp: u32) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_by(f64::total_cmp);
    percentile_sorted(samples, bp)
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// One timed run of a day, the gauge sampled between its frames.
struct Gauged {
    /// The gauge's factor over the run (see [`Gauge::factor`]).
    factor: f64,
    /// Wall-clock of the day without the gauge, seconds.
    wall_s: f64,
}

impl Gauged {
    fn of(day: &Day<Gauge>) -> Self {
        Gauged {
            factor: day.hook.factor(),
            wall_s: day.wall_s - day.hook.spent_ms() / 1e3,
        }
    }

    /// Engine self-time at the reference speed, seconds.
    fn engine_s(&self, day: &Day<Gauge>) -> f64 {
        (self.wall_s - day.dispatch_ms() / 1e3) * self.factor
    }
}

/// One day of the end-to-end run, folded over its repetitions.
struct Repeated {
    /// Frame index of every dispatched frame, the same in every repetition.
    frames: Vec<u64>,
    /// Each frame's fastest dispatch latency at the reference speed over
    /// the repetitions, ms.
    fastest_ms: Vec<f64>,
    /// Fastest engine self-time at the reference speed over the
    /// repetitions, seconds.
    engine_s: f64,
    /// The first repetition's digest.
    digest: u64,
    /// Frame of the day's last request arrival.
    last_arrival: u64,
}

impl Repeated {
    fn new(trace: &Trace, day: &Day<Gauge>) -> Self {
        let run = Gauged::of(day);
        Repeated {
            frames: day.frames.iter().map(|f| f.frame).collect(),
            fastest_ms: day
                .frames
                .iter()
                .map(|f| f.dispatch_ms * run.factor)
                .collect(),
            engine_s: run.engine_s(day),
            digest: day.report.deterministic_digest(),
            last_arrival: last_arrival_frame(trace),
        }
    }

    /// Folds in another repetition of the same day, or says how it differs
    /// from the first.
    fn fold(&mut self, day: &Day<Gauge>) -> Result<(), &'static str> {
        if day.report.deterministic_digest() != self.digest {
            return Err("digest differs from the day's first repetition");
        }
        if !day
            .frames
            .iter()
            .map(|f| f.frame)
            .eq(self.frames.iter().copied())
        {
            return Err("frames differ from the day's first repetition");
        }
        let run = Gauged::of(day);
        for (fastest, f) in self.fastest_ms.iter_mut().zip(&day.frames) {
            *fastest = fastest.min(f.dispatch_ms * run.factor);
        }
        self.engine_s = self.engine_s.min(run.engine_s(day));
        Ok(())
    }

    /// The day's wall-clock at the reference speed with every frame at its
    /// fastest repetition.
    fn wall_s(&self) -> f64 {
        self.fastest_ms.iter().sum::<f64>() / 1e3 + self.engine_s
    }

    /// Fastest latencies of the frames up to the last arrival.
    fn arrival_latencies(&self) -> Vec<f64> {
        self.frames
            .iter()
            .zip(&self.fastest_ms)
            .filter(|(&frame, _)| frame <= self.last_arrival)
            .map(|(_, &ms)| ms)
            .collect()
    }
}

/// The end-to-end run: [`Workload::days`] whole days of distinct traces
/// (day *d* from [`day_seed`]), each run [`Workload::reps`] times, the
/// repetitions interleaved (every day once, then every day again) and each
/// run after its repeated set-ups; then the check run on the first day.
/// Every dispatched frame of every run, the check run's included, counts
/// towards `attempted` and `failed_frac`.
#[must_use]
pub fn end_to_end(w: &Workload, seed: u64) -> Outcome {
    let mut setups = Vec::new();
    let mut raw_walls = Vec::new();
    let mut raw_pooled = Vec::new();
    let mut problems = Vec::new();
    let mut requests = 0;
    let mut outcomes = PooledOutcomes::default();
    let mut shape = Shape::default();
    let mut tally = FailTally::default();
    let mut days: Vec<Repeated> = Vec::with_capacity(w.days);
    let mut run_rss = Vec::new();
    let mut factors = Vec::new();
    let mut rss_reset = true;
    let runs = (w.days * w.reps) as u64;
    let mut timed_s = 0.0;
    for run in 0..runs {
        let d = (run % w.days as u64) as usize;
        let trace = &timed_setups(w, day_seed(seed, d as u64), &mut setups);
        rss_reset &= reset_peak_rss();
        let started = Instant::now();
        let day = run_day(
            w,
            trace,
            Parallelism::sequential(),
            Recorder::disabled(),
            Gauge::default(),
        );
        // Read while the day's trace and report are still alive.
        run_rss.push(peak_rss_mb().unwrap_or(f64::NAN));
        let gauged = Gauged::of(&day);
        factors.push(gauged.factor);
        raw_walls.push(gauged.wall_s);
        raw_pooled.extend(
            day.frames
                .iter()
                .filter(|f| f.frame <= last_arrival_frame(trace))
                .map(|f| f.dispatch_ms),
        );
        problems.extend(report_problems(trace, &day.report));
        let mut run_tally = FailTally::for_day(run);
        for f in &day.frames {
            run_tally.frame(f.frame, Vec::new());
        }
        tally_dispatch_errors(&mut run_tally, &day.report);
        tally.merge(run_tally);
        if let Some(first) = days.get_mut(d) {
            if let Err(why) = first.fold(&day) {
                problems.push(format!("day {d}, run {run}: {why}"));
            }
        } else {
            outcomes.add(&day.report);
            requests += trace.requests.len();
            shape.add(&day.frames);
            days.push(Repeated::new(trace, &day));
        }
        timed_s += started.elapsed().as_secs_f64();
    }
    let factor = mean(&factors);
    let setup_s = setups.iter().copied().fold(f64::INFINITY, f64::min) * factor;
    // The mean run, not the whole process: the process's peak is set by
    // its single heaviest frame, a pile-up that only some runs' days
    // contain.
    let rss = mean(&run_rss);

    let started = Instant::now();
    let (check_tally, check_digest) = check_run(w, &w.trace(seed), runs);
    let check_s = started.elapsed().as_secs_f64();
    tally.merge(check_tally);
    if Some(check_digest) != days.first().map(|d| d.digest) {
        problems.push(
            "digest at 2 threads with the in-memory recorder differs from the timed run"
                .to_string(),
        );
    }

    let walls: Vec<f64> = days.iter().map(Repeated::wall_s).collect();
    let mut pooled = Vec::new();
    let mut p50s = Vec::new();
    let mut p99s = Vec::new();
    for day in &days {
        let mut latencies = day.arrival_latencies();
        pooled.extend_from_slice(&latencies);
        p50s.push(percentile(&mut latencies, 5000));
        p99s.push(percentile(&mut latencies, 9900));
    }
    let n = pooled.len();
    let drain_frames: usize = days.iter().map(|d| d.frames.len()).sum::<usize>() - n;
    let [served_ratio, delay, passenger, taxi] = outcomes.means();
    let (pending, idle, carry) = shape.means();

    let mut out = Outcome {
        correct: problems.is_empty() && tally.failed() == 0 && n > 0,
        attempted: tally.attempted(),
        failed: tally.failed(),
        ..Outcome::default()
    };
    out.push("setup_s", setup_s, "s");
    // The median day: a Boston day with a rush-hour pile-up runs about
    // twice as long as one without, and a few such days would move a mean.
    out.push("day_wall_s", median(&mut walls.clone()), "s");
    out.push("frame_p50_ms", percentile(&mut pooled, 5000), "ms");
    out.push("frame_p99_ms", mean(&p99s), "ms");
    out.push("peak_rss_mb", rss, "MiB");
    out.push("served_ratio", served_ratio, "ratio");
    out.push("avg_delay_min", delay, "min");
    out.push("avg_passenger_dis_km", passenger, "km");

    let per_day = n / w.days;
    out.info("avg_taxi_dis_km", taxi, "km");
    out.info("failed_frac", tally.failed_frac(), "ratio");
    out.info("day_wall_raw_s", mean(&raw_walls), "s");
    out.info("frame_p50_raw_ms", percentile(&mut raw_pooled, 5000), "ms");
    out.info("gauge_factor", factor, "ratio");
    out.info("frame_samples", n as f64, "count");
    out.info(
        "frame_samples_beyond_p99",
        samples_beyond(per_day, 9900) as f64,
        "count/day",
    );
    out.info("frame_repetitions", w.reps as f64, "count");
    out.info("drain_frames", drain_frames as f64, "count");
    out.info("sim.pending_mean", pending, "requests");
    out.info("sim.idle_mean", idle, "taxis");
    out.info("sim.batch_carry_ratio", carry, "ratio");

    let tail = tail_percentile_bp(per_day).map_or("none".to_string(), |bp| {
        format!("p{}", f64::from(bp) / 100.0)
    });
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    out.notes.push(format!(
        "workload {} seed {seed}: {} days of distinct traces run {} times each, {requests} requests, \
         {} taxis a day; timed runs {timed_s:.1} s, check run {check_s:.1} s",
        w.name, w.days, w.reps, w.taxis
    ));
    out.notes.push(format!(
        "timings read at the reference speed: each run's scaled by the gauge's factor (reference \
         {} ms over its measured mean time); day_wall_s, frame_p50_ms and frame_p99_ms take each \
         frame at its fastest of the {} repetitions, and the engine's self-time at its fastest",
        crate::speed::REFERENCE_MS,
        w.reps
    ));
    out.notes.push(format!(
        "run walls without the gauge (s): {}",
        list(&raw_walls)
    ));
    out.notes
        .push(format!("run gauge factors: {}", list(&factors)));
    out.notes.push(format!(
        "days at their fastest frames (s): {}",
        list(&walls)
    ));
    out.notes
        .push(format!("run peak RSS (MiB): {}", list(&run_rss)));
    if !rss_reset {
        out.notes.push(
            "the kernel refused to reset the peak resident set: peak_rss_mb is the mean \
             of the peaks so far after each run"
                .to_string(),
        );
    }
    out.notes.push(format!(
        "frame_p50_ms pools the {n} frames up to each day's last arrival; frame_p99_ms is the \
         mean of the days' p99s (about {per_day} frames a day; highest percentile with ≥10 \
         beyond in a day: {tail})"
    ));
    out.notes.push(format!("day p50s (ms): {}", list(&p50s)));
    out.notes.push(format!("day p99s (ms): {}", list(&p99s)));
    out.notes.push(format!(
        "failed_frac counts {} failed of {} dispatched frames (timed runs and check run)",
        tally.failed(),
        tally.attempted()
    ));
    // Taxi dissatisfaction is a signed difference (pick-up leg minus α
    // times the trip) and is negative on both cities, so a share of its
    // median is no bound: it is printed, not reported in the JSON line.
    out.notes.push(
        "avg_taxi_dis_km is signed, failed_frac is 0 on correct code and the raw timings are \
         what the fastest-repetition ones filter: all are printed only"
            .to_string(),
    );
    out.notes.extend(problems);
    out.notes.extend(tally.notes().iter().cloned());
    out
}

/// The traced run: per-layer metrics from two untraced days and two days
/// with the default in-memory recorder, alternating, and a day with the
/// per-layer replay.
#[must_use]
pub fn traced(w: &Workload, seed: u64) -> Outcome {
    let mut generate_ms = Vec::with_capacity(TRACED_SETUPS);
    let mut trace = None;
    for _ in 0..TRACED_SETUPS {
        let started = Instant::now();
        let t = w.trace(seed);
        generate_ms.push(started.elapsed().as_secs_f64() * 1e3);
        trace = Some(t);
    }
    let trace = trace.expect("at least one generation");
    let seq = Parallelism::sequential();

    // Recorder off and on, twice each and alternating; the overhead
    // compares the faster day of each arm, which a slow moment of the
    // machine during one day does not decide.
    let plain = run_day(w, &trace, seq, Recorder::disabled(), ());
    let recorded = run_day(w, &trace, seq, Recorder::new(), ());
    let plain_wall_s = plain
        .wall_s
        .min(run_day(w, &trace, seq, Recorder::disabled(), ()).wall_s);
    let recorded_wall_s = recorded
        .wall_s
        .min(run_day(w, &trace, seq, Recorder::new(), ()).wall_s);
    let (replayed, spans, counts, mut tally) = if w.boston {
        let day = run_day(
            w,
            &trace,
            seq,
            Recorder::disabled(),
            SharingReplay::new(w.params),
        );
        let (spans, counts, tally) = day.hook.finish();
        ((day.report, day.frames, day.wall_s), spans, counts, tally)
    } else {
        let hook = NstdReplay::new(w.params, w.taxi_optimal());
        let day = run_day(w, &trace, seq, Recorder::disabled(), hook);
        let (spans, counts, tally) = day.hook.finish();
        ((day.report, day.frames, day.wall_s), spans, counts, tally)
    };
    let (replay_report, replay_frames, replay_wall_s) = replayed;

    let mut problems = report_problems(&trace, &plain.report);
    let digest = plain.report.deterministic_digest();
    if recorded.report.deterministic_digest() != digest {
        problems.push("digest with the in-memory recorder differs".to_string());
    }
    if replay_report.deterministic_digest() != digest {
        problems.push("digest of the replayed day differs".to_string());
    }
    tally_dispatch_errors(&mut tally, &plain.report);

    let totals = spans.totals();
    let total = |name: &str| totals.get(name).copied().unwrap_or(0.0);
    let frame_ms: f64 = replay_frames.iter().map(|f| f.dispatch_ms).sum();
    let (prefs_ms, da_ms, covered) = if w.boston {
        (0.0, counts.da_program_ms, total(span::SHARING_DISPATCH))
    } else {
        let (p, d) = (total(span::PREFS_BUILD), total(span::DA));
        (p, d, p + d)
    };
    let (feasible_ms, pack_ms, sharing_ms) = (
        total(span::FEASIBLE_GROUPS),
        total(span::PACK),
        total(span::SHARING_DISPATCH),
    );
    let mut shape = Shape::default();
    shape.add(&plain.frames);
    let (pending, idle, carry) = shape.means();
    let hits = recorded.report.total_cache_hits();
    let misses = recorded.report.total_cache_misses();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let mut out = Outcome {
        correct: problems.is_empty() && tally.failed() == 0,
        attempted: tally.attempted(),
        failed: tally.failed(),
        ..Outcome::default()
    };
    out.push("trace.generate_ms", median(&mut generate_ms), "ms");
    out.push("sim.frames", plain.frames.len() as f64, "count");
    out.push("sim.pending_mean", pending, "requests");
    out.push("sim.idle_mean", idle, "taxis");
    out.push("sim.batch_carry_ratio", carry, "ratio");
    out.push(
        "sim.engine_self_ms",
        plain.wall_s * 1e3 - plain.dispatch_ms(),
        "ms",
    );
    out.push("sim.dispatch_ms", plain.dispatch_ms(), "ms");
    out.push("geo.grid_build_ms", total(span::GRID_BUILD), "ms");
    out.push("geo.metric_calls", counts.metric_calls as f64, "count");
    out.push("geo.cache_hits", hits as f64, "count");
    out.push("geo.cache_misses", misses as f64, "count");
    out.push(
        "geo.cache_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
        "ratio",
    );
    out.push("core.prefs_build_ms", prefs_ms, "ms");
    out.push(
        "core.prefs_candidates",
        counts.prefs_candidates as f64,
        "count",
    );
    out.push(
        "core.candidates_per_request",
        ratio(counts.prefs_candidates as f64, counts.prefs_requests as f64),
        "count",
    );
    out.push("core.feasible_groups_ms", feasible_ms, "ms");
    out.push(
        "core.feasible_groups",
        counts.feasible_groups as f64,
        "count",
    );
    out.push("core.pack_self_ms", pack_ms - feasible_ms, "ms");
    out.push("core.sharing_match_self_ms", sharing_ms - pack_ms, "ms");
    out.push("matching.da_ms", da_ms, "ms");
    out.push("matching.proposals", counts.proposals as f64, "count");
    out.push(
        "matching.accept_ratio",
        1.0 - ratio(counts.rejections as f64, counts.proposals as f64),
        "ratio",
    );
    out.push("matching.set_packing_ms", counts.set_packing_ms, "ms");
    out.push(
        "obs.recorder_overhead_pct",
        100.0 * (recorded_wall_s - plain_wall_s) / plain_wall_s,
        "%",
    );
    out.push(
        "trace_unattributed_pct",
        100.0 * ratio(frame_ms - covered, frame_ms),
        "%",
    );
    out.push("trace.overhead_s", replay_wall_s - plain_wall_s, "s");

    out.notes.push(format!(
        "workload {} seed {seed} traced: faster untraced day {:.3} s, faster recorded day {:.3} s, \
         replayed day {:.3} s",
        w.name, plain_wall_s, recorded_wall_s, replay_wall_s
    ));
    out.notes.push(format!(
        "replay: {} spans over {} frames; Σ frame dispatch {frame_ms:.1} ms, covered {covered:.1} ms",
        spans.spans().len(),
        replay_frames.len()
    ));
    out.notes.extend(problems);
    out.notes.extend(tally.notes().iter().cloned());
    out
}
