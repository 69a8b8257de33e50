//! The per-layer replay of the traced run.
//!
//! After each frame's timed dispatch, the frame's input (idle taxis,
//! pending batch) is replayed through the layers' public entry points on
//! the same warm or cold path the policy takes, and each call is recorded
//! as a benchmark-side span whose parent is the frame. The replay checks
//! that it reproduces the policy's output, so its spans time the work the
//! policy really did. Where a layer runs only inside another entry point
//! (deferred acceptance and set packing inside sharing dispatch), its time
//! is read from the program's own span of that name.

use crate::adapter::FrameHook;
use crate::checks::{applied_matching, FailTally};
use crate::metric::CountingMetric;
use o2o_core::prefs::CandidateCarry;
use o2o_core::{build_taxi_grid, PreferenceParams, SharingDispatcher, SparsePreferenceModel};
use o2o_geo::DistanceCache;
use o2o_matching::MatchScratch;
use o2o_obs::{FrameStats, Recorder};
use o2o_par::Parallelism;
use o2o_sim::{FrameAssignment, FrameContext};
use o2o_trace::{RequestId, TaxiId};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// Span names of the replayed layers.
pub mod span {
    /// The policy's whole `dispatch` call (the parent of every other span).
    pub const FRAME: &str = "frame.dispatch";
    /// `build_taxi_grid` over the idle fleet (engine side, outside dispatch).
    pub const GRID_BUILD: &str = "geo.grid_build";
    /// Sparse preference rows and lists (NSTD).
    pub const PREFS_BUILD: &str = "core.prefs_build";
    /// Deferred acceptance on the frame's instance.
    pub const DA: &str = "matching.da";
    /// Stage 1 of sharing dispatch.
    pub const FEASIBLE_GROUPS: &str = "core.feasible_groups";
    /// Stages 1–2 of sharing dispatch (`SharingDispatcher::pack`).
    pub const PACK: &str = "core.pack";
    /// The whole of sharing dispatch (`dispatch_passenger_optimal`).
    pub const SHARING_DISPATCH: &str = "core.sharing_dispatch";
    /// The program's own span around stage 2 of sharing dispatch
    /// (candidate ordering, the set-packing solve and the singleton fill).
    pub const PROGRAM_SET_PACKING: &str = "set_packing";
    /// The program's own deferred-acceptance span.
    pub const PROGRAM_DA: &str = "deferred_acceptance";
}

/// One recorded span: a layer call made while replaying `frame`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer boundary (see [`span`]).
    pub name: &'static str,
    /// The frame that caused it.
    pub frame: u64,
    /// Start, in milliseconds since the replay began.
    pub start_ms: f64,
    /// Duration in milliseconds.
    pub ms: f64,
}

/// Spans kept in memory until the run ends.
#[derive(Debug, Clone)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl SpanLog {
    /// Records a span that started at `started` and ends now.
    pub fn close(&mut self, name: &'static str, frame: u64, started: Instant) {
        let start_ms = (started - self.origin).as_secs_f64() * 1e3;
        let ms = started.elapsed().as_secs_f64() * 1e3;
        self.record(name, frame, start_ms, ms);
    }

    /// Records a span with an externally measured duration.
    pub fn record(&mut self, name: &'static str, frame: u64, start_ms: f64, ms: f64) {
        self.spans.push(Span {
            name,
            frame,
            start_ms,
            ms,
        });
    }

    /// Every span, in recording order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total milliseconds per span name.
    #[must_use]
    pub fn totals(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0.0) += s.ms;
        }
        out
    }
}

/// What a replay measured beyond its spans.
#[derive(Debug, Clone, Default)]
pub struct ReplayCounts {
    /// Point pairs the layers evaluated through the metric.
    pub metric_calls: u64,
    /// Candidate (request, taxi) entries of the preference lists (NSTD).
    pub prefs_candidates: u64,
    /// Requests whose preference lists were built (NSTD).
    pub prefs_requests: u64,
    /// Feasible sharing groups produced by stage 1 (STD).
    pub feasible_groups: u64,
    /// Deferred-acceptance proposals.
    pub proposals: u64,
    /// Deferred-acceptance rejections.
    pub rejections: u64,
    /// Deferred-acceptance self-time from the program's own span where
    /// the benchmark cannot call it directly (inside sharing dispatch), in
    /// milliseconds.
    pub da_program_ms: f64,
    /// Stage-2 self-time of sharing dispatch from the program's own
    /// `set_packing` span, in milliseconds.
    pub set_packing_ms: f64,
}

impl ReplayCounts {
    /// Adds the deferred-acceptance counters of one frame's program stats.
    fn add_proposals(&mut self, stats: &FrameStats) {
        self.proposals += stats.counter("match.proposals");
        self.rejections += stats.counter("match.rejections");
    }
}

/// Runs `f` with `rec` installed as the current recorder inside a frame
/// window, returning its result and the frame's program stats (counters
/// and span self-times).
fn counted<T>(rec: &Recorder, frame: u64, f: impl FnOnce() -> T) -> (T, FrameStats) {
    rec.begin_frame(frame);
    let out = {
        let _scope = o2o_obs::scope(rec);
        f()
    };
    (out, rec.end_frame().expect("frame window opened above"))
}

/// Replays NSTD frames on the policy's warm path: carried candidate rows
/// (`SparsePreferenceModel::build_incremental`) and deferred acceptance
/// seeded with the previous frame's matching.
pub struct NstdReplay {
    params: PreferenceParams,
    taxi_optimal: bool,
    metric: CountingMetric,
    carry: CandidateCarry,
    scratch: MatchScratch,
    prev: Vec<(RequestId, TaxiId)>,
    counter: Recorder,
    spans: SpanLog,
    counts: ReplayCounts,
    tally: FailTally,
}

impl NstdReplay {
    /// A replay of NSTD-T (`taxi_optimal`) or NSTD-P under `params`.
    #[must_use]
    pub fn new(params: PreferenceParams, taxi_optimal: bool) -> Self {
        NstdReplay {
            params,
            taxi_optimal,
            metric: CountingMetric::new(),
            carry: CandidateCarry::new(),
            scratch: MatchScratch::new(),
            prev: Vec::new(),
            counter: Recorder::new(),
            spans: SpanLog::default(),
            counts: ReplayCounts::default(),
            tally: FailTally::default(),
        }
    }
}

impl FrameHook for NstdReplay {
    fn on_frame(&mut self, ctx: &FrameContext<'_>, out: &[FrameAssignment], dispatch_ms: f64) {
        let frame = ctx.frame;
        let (taxis, requests) = (ctx.idle_taxis, ctx.pending);
        let frame_start = Instant::now();
        let t = Instant::now();
        let grid = build_taxi_grid(taxis);
        self.spans.close(span::GRID_BUILD, frame, t);

        let t = Instant::now();
        let model = SparsePreferenceModel::build_incremental(
            &self.metric,
            &self.params,
            taxis,
            requests,
            Parallelism::sequential(),
            Some(&grid),
            &mut self.carry,
        );
        self.spans.close(span::PREFS_BUILD, frame, t);
        let instance = &model.instance;
        self.counts.prefs_candidates += (0..instance.proposers())
            .map(|p| instance.proposer_list(p).len() as u64)
            .sum::<u64>();
        self.counts.prefs_requests += requests.len() as u64;

        // The previous frame's matching, re-expressed in this frame's
        // indices (the policy's warm seed).
        let taxi_at: HashMap<_, _> = taxis.iter().enumerate().map(|(i, t)| (t.id, i)).collect();
        let request_at: HashMap<_, _> = requests
            .iter()
            .enumerate()
            .map(|(j, r)| (r.id, j))
            .collect();
        let seed: Vec<(usize, usize)> = self
            .prev
            .iter()
            .filter_map(|(r, t)| Some((*request_at.get(r)?, *taxi_at.get(t)?)))
            .collect();

        let t = Instant::now();
        let scratch = &mut self.scratch;
        let taxi_optimal = self.taxi_optimal;
        let (m, stats) = counted(&self.counter, frame, || {
            if taxi_optimal {
                instance.reviewer_optimal_seeded_with(&seed, scratch)
            } else {
                instance.propose_seeded_with(&seed, scratch)
            }
        });
        self.spans.close(span::DA, frame, t);
        self.counts.add_proposals(&stats);
        self.spans.record(
            span::FRAME,
            frame,
            (frame_start - self.spans.origin).as_secs_f64() * 1e3,
            dispatch_ms,
        );

        if applied_matching(ctx, out).as_ref() != Some(&m) {
            self.tally.frame(
                frame,
                vec!["replay differs from the policy's matching".into()],
            );
        } else {
            self.tally.frame(frame, Vec::new());
        }
        self.prev.clear();
        self.prev
            .extend(m.pairs().map(|(j, i)| (requests[j].id, taxis[i].id)));
        self.scratch.recycle(m);
    }
}

impl NstdReplay {
    /// Spans, counts and the fidelity tally (frames whose replay did not
    /// reproduce the policy).
    #[must_use]
    pub fn finish(mut self) -> (SpanLog, ReplayCounts, FailTally) {
        self.counts.metric_calls = self.metric.pairs();
        (self.spans, self.counts, self.tally)
    }
}

type CachedMetric = Arc<DistanceCache<CountingMetric>>;

/// Replays STD-P frames: stage 1 (`feasible_groups`), stages 1–2
/// (`pack`) and the whole dispatch, each from a cleared per-frame distance
/// cache exactly as the policy starts its frame. Deferred acceptance and
/// the set-packing stage are timed by the program's own spans inside the
/// replayed dispatch.
pub struct SharingReplay {
    cache: CachedMetric,
    dispatcher: SharingDispatcher<CachedMetric>,
    counter: Recorder,
    spans: SpanLog,
    counts: ReplayCounts,
    tally: FailTally,
}

impl SharingReplay {
    /// A replay of STD-P under `params` with the default sharing config.
    #[must_use]
    pub fn new(params: PreferenceParams) -> Self {
        let cache = Arc::new(DistanceCache::new(CountingMetric::new()));
        SharingReplay {
            dispatcher: SharingDispatcher::new(Arc::clone(&cache), params),
            cache,
            counter: Recorder::new(),
            spans: SpanLog::default(),
            counts: ReplayCounts::default(),
            tally: FailTally::default(),
        }
    }
}

impl FrameHook for SharingReplay {
    fn on_frame(&mut self, ctx: &FrameContext<'_>, out: &[FrameAssignment], dispatch_ms: f64) {
        let frame = ctx.frame;
        let (taxis, requests) = (ctx.idle_taxis, ctx.pending);
        let frame_start = Instant::now();

        self.cache.clear();
        let t = Instant::now();
        let groups = self.dispatcher.feasible_groups(requests);
        self.spans.close(span::FEASIBLE_GROUPS, frame, t);
        self.counts.feasible_groups += groups.len() as u64;

        self.cache.clear();
        let t = Instant::now();
        std::hint::black_box(self.dispatcher.pack(requests));
        self.spans.close(span::PACK, frame, t);

        self.cache.clear();
        let calls_before = self.cache.inner().pairs();
        let t = Instant::now();
        let dispatcher = &self.dispatcher;
        let (schedule, stats) = counted(&self.counter, frame, || {
            dispatcher.dispatch_passenger_optimal(taxis, requests)
        });
        self.spans.close(span::SHARING_DISPATCH, frame, t);
        self.counts.add_proposals(&stats);
        self.counts.da_program_ms += stats.stage_self_ms(span::PROGRAM_DA);
        self.counts.set_packing_ms += stats.stage_self_ms(span::PROGRAM_SET_PACKING);
        // Only the full dispatch is the policy's own metric work; the
        // stage replays above re-evaluate the same pairs.
        self.counts.metric_calls += self.cache.inner().pairs() - calls_before;
        self.spans.record(
            span::FRAME,
            frame,
            (frame_start - self.spans.origin).as_secs_f64() * 1e3,
            dispatch_ms,
        );

        let mut problems = Vec::new();
        let replayed: Vec<_> = schedule
            .assignments
            .iter()
            .map(|a| (a.taxi, &a.members))
            .collect();
        let applied: Vec<_> = out.iter().map(|a| (a.taxi, &a.members)).collect();
        if replayed != applied {
            problems.push("replay differs from the policy's groups".to_string());
        }
        self.tally.frame(frame, problems);
    }
}

impl SharingReplay {
    /// Spans, counts and the fidelity tally (frames whose replay did not
    /// reproduce the policy).
    #[must_use]
    pub fn finish(self) -> (SpanLog, ReplayCounts, FailTally) {
        (self.spans, self.counts, self.tally)
    }
}
