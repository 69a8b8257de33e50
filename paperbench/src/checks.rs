//! Per-frame correctness checks of the check run.
//!
//! NSTD frames are compared against the dense oracle
//! ([`NonSharingDispatcher::preferences`]): the applied assignment must
//! have no blocking pair and must equal dense deferred acceptance
//! (requests propose for NSTD-P, Theorem 1; taxis propose for NSTD-T).
//! Sharing frames are checked structurally, with every member's detour
//! recomputed from the assignment's stops.

use o2o_core::NonSharingDispatcher;
use o2o_geo::{Euclidean, Metric, Point};
use o2o_matching::Matching;
use o2o_sim::{FrameAssignment, FrameContext};
use o2o_trace::Request;
use std::collections::{BTreeSet, HashMap};

/// Slack for recomputed route distances, in km (float summation order may
/// differ from the dispatcher's own accounting).
const DISTANCE_SLACK_KM: f64 = 1e-6;

/// How many failure notes are kept for the report.
const MAX_NOTES: usize = 20;

/// Counts checked frames and the frames that failed any check. Frames
/// are keyed by day and frame index, so tallies of different days merge
/// without one day's failure hiding another's.
#[derive(Debug, Clone, Default)]
pub struct FailTally {
    day: u64,
    attempted: u64,
    failed: BTreeSet<(u64, u64)>,
    notes: Vec<String>,
}

impl FailTally {
    /// An empty tally whose frames belong to dispatched day `day`.
    #[must_use]
    pub fn for_day(day: u64) -> Self {
        FailTally {
            day,
            ..FailTally::default()
        }
    }

    /// Records one checked frame with the problems found in it (none for a
    /// good frame).
    pub fn frame(&mut self, frame: u64, problems: Vec<String>) {
        self.attempted += 1;
        for p in problems {
            self.fail(frame, p);
        }
    }

    /// Marks an already counted frame as failed, e.g. for a
    /// `SimReport::dispatch_errors` entry. A frame fails at most once.
    pub fn fail(&mut self, frame: u64, why: String) {
        self.failed.insert((self.day, frame));
        if self.notes.len() < MAX_NOTES {
            self.notes
                .push(format!("day {} frame {frame}: {why}", self.day));
        }
    }

    /// Adds another tally's frames and failures to this one.
    pub fn merge(&mut self, other: FailTally) {
        self.attempted += other.attempted;
        self.failed.extend(other.failed);
        let room = MAX_NOTES.saturating_sub(self.notes.len());
        self.notes.extend(other.notes.into_iter().take(room));
    }

    /// Frames counted.
    #[must_use]
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Distinct (day, frame) pairs that failed.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.failed.len() as u64
    }

    /// Failed frames over counted frames (0 when nothing was counted).
    #[must_use]
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    /// The first few failure descriptions.
    #[must_use]
    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}

/// Detour of `r` on a route visiting `stops` in order, or `None` if the
/// route does not pick `r` up and then drop it off. Stops already matched
/// to earlier members are skipped via `claimed`.
fn member_detour(stops: &[Point], claimed: &mut [bool], r: &Request) -> Option<f64> {
    let pu = (0..stops.len()).find(|&k| !claimed[k] && stops[k] == r.pickup)?;
    let off = (pu + 1..stops.len()).find(|&k| !claimed[k] && stops[k] == r.dropoff)?;
    claimed[pu] = true;
    claimed[off] = true;
    let ride = Euclidean.path_length(&stops[pu..=off]);
    Some(ride - Euclidean.distance(r.pickup, r.dropoff))
}

/// Structural problems of one frame's output: every taxi idle and used
/// once, every member pending and served once, `1..=max_group` members,
/// two stops and one finite cost per member, enough seats, and — when
/// `theta` is given — every member's detour within θ, recomputed from the
/// stops with [`Euclidean`].
#[must_use]
pub fn structural_problems(
    ctx: &FrameContext<'_>,
    out: &[FrameAssignment],
    max_group: usize,
    theta: Option<f64>,
) -> Vec<String> {
    let taxis: HashMap<_, _> = ctx.idle_taxis.iter().map(|t| (t.id, t)).collect();
    let requests: HashMap<_, _> = ctx.pending.iter().map(|r| (r.id, r)).collect();
    let mut used_taxis = BTreeSet::new();
    let mut served = BTreeSet::new();
    let mut problems = Vec::new();
    for a in out {
        let Some(taxi) = taxis.get(&a.taxi) else {
            problems.push(format!("taxi {} is not idle", a.taxi));
            continue;
        };
        if !used_taxis.insert(a.taxi) {
            problems.push(format!("taxi {} assigned twice", a.taxi));
        }
        let k = a.members.len();
        if k == 0 || k > max_group {
            problems.push(format!("taxi {} has a group of {k}", a.taxi));
        }
        if a.stops.len() != 2 * k || a.passenger_costs.len() != k {
            problems.push(format!(
                "taxi {}: stops/costs do not fit {k} members",
                a.taxi
            ));
            continue;
        }
        if !a.taxi_cost.is_finite() || a.passenger_costs.iter().any(|c| !c.is_finite()) {
            problems.push(format!("taxi {}: non-finite cost", a.taxi));
        }
        let mut claimed = vec![false; a.stops.len()];
        let mut seats = 0u32;
        for id in &a.members {
            if !served.insert(*id) {
                problems.push(format!("request {id} served twice"));
            }
            let Some(r) = requests.get(id) else {
                problems.push(format!("request {id} is not pending"));
                continue;
            };
            seats += u32::from(r.passengers);
            match member_detour(&a.stops, &mut claimed, r) {
                None => problems.push(format!("request {id}: route misses its stops")),
                Some(d) => {
                    if let Some(theta) = theta {
                        if d > theta + DISTANCE_SLACK_KM {
                            problems.push(format!("request {id}: detour {d} > θ {theta}"));
                        }
                    }
                }
            }
        }
        if seats > u32::from(taxi.seats) {
            problems.push(format!("taxi {}: {seats} passengers", a.taxi));
        }
    }
    problems
}

/// The frame's output as a request → taxi matching in frame indices, or
/// `None` when it names an unknown taxi or request.
#[must_use]
pub fn applied_matching(ctx: &FrameContext<'_>, out: &[FrameAssignment]) -> Option<Matching> {
    let taxi_at: HashMap<_, _> = ctx
        .idle_taxis
        .iter()
        .enumerate()
        .map(|(i, t)| (t.id, i))
        .collect();
    let request_at: HashMap<_, _> = ctx
        .pending
        .iter()
        .enumerate()
        .map(|(j, r)| (r.id, j))
        .collect();
    let mut m = Matching::empty(ctx.pending.len(), ctx.idle_taxis.len());
    for a in out {
        for id in &a.members {
            m.link(*request_at.get(id)?, *taxi_at.get(&a.taxi)?);
        }
    }
    Some(m)
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// A per-frame check. Runs on the check run's worker thread, so it owns
/// its state and sees owned copies of each frame.
pub trait FrameCheck: Send + Clone {
    /// The problems found in one frame's output (none for a good frame).
    fn check(&mut self, ctx: &FrameContext<'_>, out: &[FrameAssignment]) -> Vec<String>;
}

/// Checks NSTD frames against the dense oracle.
#[derive(Clone)]
pub struct NstdOracle {
    dense: NonSharingDispatcher<Euclidean>,
    taxi_optimal: bool,
}

impl NstdOracle {
    /// An oracle for NSTD-T (`taxi_optimal`) or NSTD-P with `params`.
    #[must_use]
    pub fn new(params: o2o_core::PreferenceParams, taxi_optimal: bool) -> Self {
        NstdOracle {
            dense: NonSharingDispatcher::new(Euclidean, params),
            taxi_optimal,
        }
    }
}

impl FrameCheck for NstdOracle {
    fn check(&mut self, ctx: &FrameContext<'_>, out: &[FrameAssignment]) -> Vec<String> {
        let mut problems = structural_problems(ctx, out, 1, None);
        let model = self.dense.preferences(ctx.idle_taxis, ctx.pending);
        let Some(applied) = applied_matching(ctx, out) else {
            problems.push("output names an unknown taxi or request".into());
            return problems;
        };
        let blocking = model.instance.blocking_pairs(&applied).len();
        if blocking > 0 {
            problems.push(format!("{blocking} blocking pairs"));
        }
        let oracle = if self.taxi_optimal {
            model.instance.reviewer_optimal()
        } else {
            model.instance.propose()
        };
        if oracle != applied {
            problems.push("assignment differs from dense deferred acceptance".into());
        }
        let by_request: HashMap<_, _> = out.iter().map(|a| (a.members[0], a)).collect();
        for (j, i) in applied.pairs() {
            let a = by_request[&ctx.pending[j].id];
            if !close(a.passenger_costs[0], model.pickup[j][i])
                || !close(a.taxi_cost, model.score[i][j])
            {
                problems.push(format!("request {}: costs differ from dense", a.members[0]));
            }
        }
        problems
    }
}

/// Checks sharing frames structurally (groups of at most three, detour
/// within θ).
#[derive(Clone)]
pub struct SharingCheck {
    theta: f64,
}

impl SharingCheck {
    /// A checker for detour threshold `theta`.
    #[must_use]
    pub fn new(theta: f64) -> Self {
        SharingCheck { theta }
    }
}

impl FrameCheck for SharingCheck {
    fn check(&mut self, ctx: &FrameContext<'_>, out: &[FrameAssignment]) -> Vec<String> {
        structural_problems(ctx, out, 3, Some(self.theta))
    }
}
