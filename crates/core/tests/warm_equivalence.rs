//! Warm ≡ cold: incremental dispatch must not change a single bit.
//!
//! The incremental NSTD path seeds deferred acceptance from the previous
//! frame's stable matching (carried across frames by `IncrementalState`).
//! Correctness never rests on the carried pairs still being valid: the
//! seeded proposal path revalidates the seed against the **current**
//! frame's preference lists (mutual acceptability, prefix justification,
//! acyclicity) and prunes whatever fails, so any frame delta — taxis
//! moving, leaving or joining the idle set, requests served, expired or
//! newly arrived — yields schedules bit-identical to a cold start, at
//! every threshold setting and thread count.

use o2o_core::{
    IncrementalState, NonSharingDispatcher, Objective, PreferenceParams, Schedule, TimeBudget,
};
use o2o_geo::{Euclidean, Point};
use o2o_par::Parallelism;
use o2o_trace::{Request, RequestId, Taxi, TaxiId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One rolling run: a sequence of frames where each frame is a random
/// delta of the previous one (taxi moves/leaves/joins, request
/// removals/arrivals), precomputed so every (params, threads) combination
/// replays the identical sequence.
fn rolling_frames(
    seed: u64,
    frames: usize,
    span: f64,
    churn: f64,
) -> Vec<(Vec<Taxi>, Vec<Request>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let point =
        |rng: &mut StdRng| Point::new(rng.gen_range(-span..span), rng.gen_range(-span..span));
    let nt = rng.gen_range(1..14);
    let nr = rng.gen_range(1..16);
    let mut taxis: Vec<Taxi> = (0..nt)
        .map(|i| {
            let mut t = Taxi::new(TaxiId(i as u64), point(&mut rng));
            t.seats = rng.gen_range(1..=4);
            t
        })
        .collect();
    let mut next_taxi_id = nt as u64;
    let mut next_request_id = 0u64;
    let new_request = |rng: &mut StdRng, id: &mut u64| {
        let mut r = Request::new(RequestId(*id), 0, point(rng), point(rng));
        *id += 1;
        r.passengers = rng.gen_range(1..=3);
        r
    };
    let mut requests: Vec<Request> = (0..nr)
        .map(|_| new_request(&mut rng, &mut next_request_id))
        .collect();

    let mut out = Vec::with_capacity(frames);
    for _ in 0..frames {
        out.push((taxis.clone(), requests.clone()));
        // Taxi delta: each idle taxi may move (drop-off elsewhere) or be
        // dispatched away; occasionally a taxi re-enters the idle set.
        let mut kept = Vec::with_capacity(taxis.len());
        for mut t in taxis.drain(..) {
            if rng.gen_bool(churn) {
                if rng.gen_bool(0.5) {
                    t.location = point(&mut rng);
                    kept.push(t);
                }
            } else {
                kept.push(t);
            }
        }
        if rng.gen_bool(churn.max(0.1)) {
            let mut t = Taxi::new(TaxiId(next_taxi_id), point(&mut rng));
            next_taxi_id += 1;
            t.seats = rng.gen_range(1..=4);
            kept.push(t);
        }
        taxis = kept;
        // Request delta: some are served/expired, some arrive.
        requests.retain(|_| !rng.gen_bool(churn));
        let arrivals = rng.gen_range(0..3);
        for _ in 0..arrivals {
            requests.push(new_request(&mut rng, &mut next_request_id));
        }
    }
    out
}

/// One unbudgeted dispatch: warm with a state, cold without.
fn dispatch(
    d: &NonSharingDispatcher<Euclidean>,
    (taxis, requests): (&[Taxi], &[Request]),
    objective: Objective,
    state: Option<&mut IncrementalState>,
) -> Schedule {
    d.dispatch(
        taxis,
        requests,
        objective,
        None,
        state,
        &TimeBudget::unlimited(),
    )
    .0
}

/// The dense reference schedule: deferred acceptance on
/// [`NonSharingDispatcher::preferences`].
fn oracle(
    d: &NonSharingDispatcher<Euclidean>,
    taxis: &[Taxi],
    requests: &[Request],
    objective: Objective,
) -> Schedule {
    let model = d.preferences(taxis, requests);
    let m = match objective {
        Objective::PassengerOptimal => model.instance.propose(),
        Objective::TaxiOptimal => model.instance.reviewer_optimal(),
    };
    model.to_schedule(taxis, requests, &m)
}

const P: Objective = Objective::PassengerOptimal;
const T: Objective = Objective::TaxiOptimal;

fn param_grid() -> Vec<PreferenceParams> {
    vec![
        PreferenceParams::paper(),
        PreferenceParams::paper()
            .with_passenger_threshold(3.0)
            .with_taxi_threshold(0.5),
        PreferenceParams::unbounded().with_taxi_threshold(1.0),
        PreferenceParams::unbounded(),
    ]
}

const THREAD_COUNTS: [usize; 3] = [2, 4, 7];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// NSTD-P and NSTD-T warm-started across randomized frame deltas are
    /// bit-identical to cold starts, for every threshold setting and
    /// thread count.
    #[test]
    fn warm_dispatch_matches_cold_across_frame_deltas(
        seed in any::<u64>(), churn_pct in 0u32..=60,
    ) {
        let frames = rolling_frames(seed, 6, 8.0, f64::from(churn_pct) / 100.0);
        for params in param_grid() {
            let parallelisms = std::iter::once(Parallelism::sequential())
                .chain(THREAD_COUNTS.iter().map(|&t| Parallelism::fixed(t)));
            for par in parallelisms {
                let d = NonSharingDispatcher::new(Euclidean, params).with_parallelism(par);
                let mut p_state = IncrementalState::new();
                let mut t_state = IncrementalState::new();
                for (taxis, requests) in &frames {
                    let frame = (&taxis[..], &requests[..]);
                    let warm_p = dispatch(&d, frame, P, Some(&mut p_state));
                    prop_assert_eq!(&warm_p, &dispatch(&d, frame, P, None));
                    let warm_t = dispatch(&d, frame, T, Some(&mut t_state));
                    prop_assert_eq!(&warm_t, &dispatch(&d, frame, T, None));
                }
            }
        }
    }

    /// The carried state matches the schedule it was recorded from, and
    /// clearing it (a cold restart mid-run) changes nothing.
    #[test]
    fn state_tracks_schedule_and_clear_is_harmless(seed in any::<u64>()) {
        let frames = rolling_frames(seed, 5, 8.0, 0.3);
        let d = NonSharingDispatcher::new(Euclidean, PreferenceParams::paper());
        let mut state = IncrementalState::new();
        for (k, (taxis, requests)) in frames.iter().enumerate() {
            if k == 2 {
                state.clear();
                prop_assert!(state.carried_pairs().is_empty());
            }
            let frame = (&taxis[..], &requests[..]);
            let s = dispatch(&d, frame, P, Some(&mut state));
            prop_assert_eq!(&s, &dispatch(&d, frame, P, None));
            let mut expected: Vec<(RequestId, TaxiId)> = requests
                .iter()
                .filter_map(|r| s.assignment_of(r.id).taxi().map(|t| (r.id, t)))
                .collect();
            expected.sort();
            let mut carried: Vec<(RequestId, TaxiId)> = state.carried_pairs().to_vec();
            carried.sort();
            prop_assert_eq!(carried, expected);
        }
    }

    /// The dense oracle as the cross-check: the warm sparse path agrees
    /// with cold deferred acceptance on the dense model frame by frame.
    #[test]
    fn warm_sparse_matches_dense_cold(seed in any::<u64>()) {
        let frames = rolling_frames(seed, 5, 8.0, 0.2);
        let d = NonSharingDispatcher::new(Euclidean, PreferenceParams::paper());
        let mut state = IncrementalState::new();
        for (taxis, requests) in &frames {
            prop_assert_eq!(
                &dispatch(&d, (taxis, requests), P, Some(&mut state)),
                &oracle(&d, taxis, requests, P)
            );
        }
    }
}

/// A stationary fleet re-seeds its full matching: the point of the warm
/// start. With no frame delta at all, every carried pair survives
/// validation, so the second frame's seed is the entire matching.
#[test]
fn stationary_frames_carry_the_full_matching() {
    let (taxis, requests) = {
        let frames = rolling_frames(0xF1F0, 1, 8.0, 0.0);
        frames.into_iter().next().unwrap()
    };
    let d = NonSharingDispatcher::new(Euclidean, PreferenceParams::paper());
    let mut state = IncrementalState::new();
    let first = dispatch(&d, (&taxis, &requests), P, Some(&mut state));
    let carried_before = state.carried_pairs().to_vec();
    let second = dispatch(&d, (&taxis, &requests), P, Some(&mut state));
    assert_eq!(first, second);
    assert_eq!(state.carried_pairs(), &carried_before[..]);
}

/// Rolling tie-heavy frames: lattice positions (equal pick-up distances),
/// whole-block trips (equal driver scores across requests), co-located
/// taxis, taxis hopping between lattice points, the taxi slice reordered
/// and requests replaced. Each frame the warm keyed path — carried rows
/// merged with re-admitted taxis, seeded deferred acceptance — equals the
/// dense oracle for both NSTD variants, at 1 and 4 threads.
#[test]
fn warm_keyed_path_matches_dense_oracle_on_tie_heavy_frames() {
    fn lattice(rng: &mut StdRng) -> Point {
        Point::new(
            f64::from(rng.gen_range(0u8..5)),
            f64::from(rng.gen_range(0u8..5)),
        )
    }
    fn request(rng: &mut StdRng, id: u64) -> Request {
        let pickup = lattice(rng);
        let blocks = f64::from(rng.gen_range(1u8..=3));
        Request::new(
            RequestId(id),
            0,
            pickup,
            Point::new(pickup.x + blocks, pickup.y),
        )
    }
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut taxis: Vec<Taxi> = Vec::new();
        for i in 0..12u64 {
            let at = if i % 3 == 2 {
                taxis[i as usize - 1].location
            } else {
                lattice(&mut rng)
            };
            taxis.push(Taxi::new(TaxiId(i), at));
        }
        let mut requests: Vec<Request> = (0..10).map(|j| request(&mut rng, j)).collect();
        let mut frames = Vec::new();
        for k in 0..6u64 {
            frames.push((taxis.clone(), requests.clone()));
            let hop = rng.gen_range(0..taxis.len());
            taxis[hop].location = lattice(&mut rng);
            if k % 2 == 0 {
                let last = taxis.len() - 1;
                taxis.swap(0, last);
            }
            let replaced = rng.gen_range(0..requests.len());
            requests[replaced] = request(&mut rng, 100 + k);
        }
        for params in param_grid() {
            let dense = NonSharingDispatcher::new(Euclidean, params);
            for threads in [1, 4] {
                let d = NonSharingDispatcher::new(Euclidean, params)
                    .with_parallelism(Parallelism::fixed(threads));
                let mut p_state = IncrementalState::new();
                let mut t_state = IncrementalState::new();
                for (f, (taxis, requests)) in frames.iter().enumerate() {
                    let ctx = format!("seed {seed} frame {f} threads {threads} params {params:?}");
                    let frame = (&taxis[..], &requests[..]);
                    assert_eq!(
                        dispatch(&d, frame, P, Some(&mut p_state)),
                        oracle(&dense, taxis, requests, P),
                        "{ctx}"
                    );
                    assert_eq!(
                        dispatch(&d, frame, T, Some(&mut t_state)),
                        oracle(&dense, taxis, requests, T),
                        "{ctx}"
                    );
                }
            }
        }
    }
}
