//! Sparse ≡ dense: threshold pruning must not change a single bit.
//!
//! The sparse candidate path (`SparsePreferenceModel`) enumerates only
//! taxis within `min(θ_p, θ_t + α·trip)` of each pick-up via the grid
//! index, instead of scoring the full |T|×|R| product. Every pair it
//! drops is *mutually unacceptable* — at least one side ranks the other
//! below its dummy partner — and such pairs are no-ops in deferred
//! acceptance and in BreakDispatch (Theorem 2, rural hospitals: the set
//! of matched agents is invariant across stable matchings, and an
//! unacceptable pair can never block). Costs on surviving pairs are
//! recomputed with the identical float expressions, so the dispatch
//! schedules must be **bit-identical**, at every thread count, for every
//! threshold setting.

use o2o_core::{
    build_taxi_grid, candidate_radius, IncrementalState, NonSharingDispatcher, Objective,
    PreferenceModel, PreferenceParams, Schedule, SparsePreferenceModel, TimeBudget,
};
use o2o_geo::{Euclidean, Point};
use o2o_par::Parallelism;
use o2o_trace::{Request, RequestId, Taxi, TaxiId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_frame(seed: u64, nt: usize, nr: usize, span: f64) -> (Vec<Taxi>, Vec<Request>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let taxis = (0..nt)
        .map(|i| {
            let mut t = Taxi::new(
                TaxiId(i as u64),
                Point::new(rng.gen_range(-span..span), rng.gen_range(-span..span)),
            );
            // Vary capacity so the seat filter participates too.
            t.seats = rng.gen_range(1..=4);
            t
        })
        .collect();
    let requests = (0..nr)
        .map(|j| {
            let mut r = Request::new(
                RequestId(j as u64),
                0,
                Point::new(rng.gen_range(-span..span), rng.gen_range(-span..span)),
                Point::new(rng.gen_range(-span..span), rng.gen_range(-span..span)),
            );
            r.passengers = rng.gen_range(1..=3);
            r
        })
        .collect();
    (taxis, requests)
}

/// Threshold settings swept by every test: the paper's calibration, a
/// tight pair that prunes aggressively, a taxi-side-only bound, and the
/// unbounded setting where the sparse path must degrade to dense.
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

/// The dense oracle of one frame: `(NSTD-P, NSTD-T)` from deferred
/// acceptance on [`NonSharingDispatcher::preferences`].
fn dense_pt(
    d: &NonSharingDispatcher<Euclidean>,
    taxis: &[Taxi],
    requests: &[Request],
) -> (Schedule, Schedule) {
    let model = d.preferences(taxis, requests);
    (
        model.to_schedule(taxis, requests, &model.instance.propose()),
        model.to_schedule(taxis, requests, &model.instance.reviewer_optimal()),
    )
}

/// Every stable schedule and the median one, enumerated on the dense
/// model (at most `limit` matchings).
fn dense_stable_set(
    model: &PreferenceModel,
    taxis: &[Taxi],
    requests: &[Request],
    limit: Option<usize>,
) -> (Vec<Schedule>, Schedule) {
    let all = model.instance.enumerate_all(limit);
    let median = model
        .instance
        .median_stable_matching(&all)
        .expect("at least one stable matching");
    (
        all.iter()
            .map(|m| model.to_schedule(taxis, requests, m))
            .collect(),
        model.to_schedule(taxis, requests, &median),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// NSTD-P and NSTD-T on the sparse model are bit-identical to the
    /// dense oracle, across thresholds and thread counts.
    #[test]
    fn sparse_dispatch_matches_dense(
        seed in any::<u64>(), nt in 1usize..14, nr in 1usize..16,
    ) {
        let (taxis, requests) = random_frame(seed, nt, nr, 8.0);
        for params in param_grid() {
            let sparse_seq = NonSharingDispatcher::new(Euclidean, params);
            let (p0, t0) = dense_pt(&sparse_seq, &taxis, &requests);
            prop_assert_eq!(&sparse_seq.passenger_optimal(&taxis, &requests), &p0);
            prop_assert_eq!(&sparse_seq.taxi_optimal(&taxis, &requests), &t0);
            for threads in THREAD_COUNTS {
                let sparse = NonSharingDispatcher::new(Euclidean, params)
                    .with_parallelism(Parallelism::fixed(threads));
                prop_assert_eq!(&sparse.passenger_optimal(&taxis, &requests), &p0);
                prop_assert_eq!(&sparse.taxi_optimal(&taxis, &requests), &t0);
            }
        }
    }

    /// A pre-built shared taxi grid (the simulator's per-frame reuse
    /// path) gives the same schedules as letting the dispatcher build
    /// its own.
    #[test]
    fn shared_grid_matches_owned_grid(
        seed in any::<u64>(), nt in 1usize..12, nr in 1usize..14,
    ) {
        let (taxis, requests) = random_frame(seed, nt, nr, 8.0);
        let grid = build_taxi_grid(&taxis);
        for params in param_grid() {
            let d = NonSharingDispatcher::new(Euclidean, params);
            let p0 = d.passenger_optimal(&taxis, &requests);
            let t0 = d.taxi_optimal(&taxis, &requests);
            let unlimited = TimeBudget::unlimited();
            for (objective, expected) in
                [(Objective::PassengerOptimal, &p0), (Objective::TaxiOptimal, &t0)]
            {
                let (s, _) =
                    d.dispatch(&taxis, &requests, objective, Some(&grid), None, &unlimited);
                prop_assert_eq!(&s, expected);
            }
        }
    }

    /// The full stable set and the median matching — both computed via
    /// BreakDispatch on the sparse instance — agree with dense.
    #[test]
    fn sparse_stable_set_matches_dense(
        seed in any::<u64>(), nt in 1usize..8, nr in 1usize..10,
    ) {
        let (taxis, requests) = random_frame(seed, nt, nr, 6.0);
        for params in param_grid() {
            let sparse = NonSharingDispatcher::new(Euclidean, params);
            let dense = sparse.preferences(&taxis, &requests);
            let (all, median) = dense_stable_set(&dense, &taxis, &requests, None);
            prop_assert_eq!(&sparse.all_schedules(&taxis, &requests, None), &all);
            prop_assert_eq!(&sparse.median(&taxis, &requests, None), &median);
        }
    }

    /// The sparse preference model's lists are exactly the dense lists
    /// restricted to mutually acceptable pairs, with identical costs
    /// — at every thread count.
    #[test]
    fn sparse_model_is_thread_count_invariant(
        seed in any::<u64>(), nt in 1usize..12, nr in 1usize..14,
    ) {
        let (taxis, requests) = random_frame(seed, nt, nr, 8.0);
        for params in param_grid() {
            let seq = SparsePreferenceModel::build_with(
                &Euclidean, &params, &taxis, &requests, Parallelism::sequential(), None,
            );
            for threads in THREAD_COUNTS {
                let par = SparsePreferenceModel::build_with(
                    &Euclidean, &params, &taxis, &requests,
                    Parallelism::fixed(threads), None,
                );
                prop_assert_eq!(
                    par.instance.proposers(), seq.instance.proposers()
                );
                prop_assert_eq!(
                    par.instance.reviewers(), seq.instance.reviewers()
                );
                for j in 0..seq.instance.proposers() {
                    prop_assert_eq!(
                        par.instance.proposer_list(j), seq.instance.proposer_list(j)
                    );
                }
                for i in 0..seq.instance.reviewers() {
                    prop_assert_eq!(
                        par.instance.reviewer_list(i), seq.instance.reviewer_list(i)
                    );
                }
                for j in 0..seq.instance.proposers() {
                    prop_assert_eq!(par.pickup_costs(j), seq.pickup_costs(j));
                    prop_assert_eq!(par.scores(j), seq.scores(j));
                }
            }
        }
    }
}

/// Paper-scale thresholds over a wide city: sparse prunes hard (the
/// point of the exercise) and still agrees with dense exactly.
#[test]
fn sparse_matches_dense_at_paper_thresholds_wide_city() {
    let (taxis, requests) = random_frame(2017, 60, 80, 40.0);
    let params = PreferenceParams::paper();
    let sparse =
        NonSharingDispatcher::new(Euclidean, params).with_parallelism(Parallelism::fixed(4));
    let (p0, t0) = dense_pt(&sparse, &taxis, &requests);
    assert_eq!(sparse.passenger_optimal(&taxis, &requests), p0);
    assert_eq!(sparse.taxi_optimal(&taxis, &requests), t0);
    // The sweep is only meaningful if the grid prefilter actually pruned
    // (the θ filters alone would drop pairs at these thresholds too).
    let grid = build_taxi_grid(&taxis);
    let prefiltered: usize = requests
        .iter()
        .map(|r| {
            let radius = candidate_radius(&params, r.trip_distance(&Euclidean));
            grid.within(r.pickup, radius).len()
        })
        .sum();
    assert!(
        prefiltered < taxis.len() * requests.len(),
        "expected pruning at paper thresholds over a 80×80 city"
    );
}

/// A tie-heavy frame: taxis and pick-ups on a small integer lattice (many
/// equal pick-up distances), trips of one to three whole blocks (equal
/// driver scores across requests), and every third taxi co-located with
/// the one before it.
fn lattice_frame(seed: u64, nt: usize, nr: usize) -> (Vec<Taxi>, Vec<Request>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let lattice = |rng: &mut StdRng| {
        Point::new(
            f64::from(rng.gen_range(0u8..5)),
            f64::from(rng.gen_range(0u8..5)),
        )
    };
    let mut taxis: Vec<Taxi> = Vec::with_capacity(nt);
    for i in 0..nt {
        let at = if i % 3 == 2 {
            taxis[i - 1].location
        } else {
            lattice(&mut rng)
        };
        let mut t = Taxi::new(TaxiId(i as u64), at);
        t.seats = rng.gen_range(1..=4);
        taxis.push(t);
    }
    let requests = (0..nr)
        .map(|j| {
            let pickup = lattice(&mut rng);
            let blocks = f64::from(rng.gen_range(1u8..=3));
            let dropoff = if rng.gen_bool(0.5) {
                Point::new(pickup.x + blocks, pickup.y)
            } else {
                Point::new(pickup.x, pickup.y - blocks)
            };
            let mut r = Request::new(RequestId(j as u64), 0, pickup, dropoff);
            r.passengers = rng.gen_range(1..=2);
            r
        })
        .collect();
    (taxis, requests)
}

/// Thresholds that cut through the lattice's tied distances and scores.
fn lattice_params() -> Vec<PreferenceParams> {
    vec![
        PreferenceParams::paper(),
        PreferenceParams::paper()
            .with_passenger_threshold(2.0)
            .with_taxi_threshold(0.0),
        PreferenceParams::unbounded().with_taxi_threshold(1.0),
        PreferenceParams::unbounded(),
    ]
}

/// Keyed sparse ≡ dense oracle on tie-heavy frames, for every algorithm
/// that reads the preference model: passenger-optimal (cold and seeded),
/// taxi-optimal, `dispatch` with an unlimited budget (cold and warm), and
/// the egalitarian and median compromises — at 1 and 4 threads.
#[test]
fn keyed_sparse_matches_dense_oracle_on_tie_heavy_frames() {
    let unlimited = TimeBudget::unlimited();
    for seed in 0..24u64 {
        let (taxis, requests) = lattice_frame(
            seed,
            3 + (seed as usize * 5) % 12,
            2 + (seed as usize * 7) % 13,
        );
        let grid = build_taxi_grid(&taxis);
        for params in lattice_params() {
            let oracle =
                NonSharingDispatcher::new(Euclidean, params).preferences(&taxis, &requests);
            let (p_opt, t_opt) = (
                oracle.instance.propose(),
                oracle.instance.reviewer_optimal(),
            );
            let p0 = oracle.to_schedule(&taxis, &requests, &p_opt);
            let t0 = oracle.to_schedule(&taxis, &requests, &t_opt);
            let egalitarian = {
                let all = oracle.instance.enumerate_all(Some(64));
                let best = oracle
                    .instance
                    .egalitarian(&all)
                    .expect("a stable matching");
                oracle.to_schedule(&taxis, &requests, best)
            };
            let (_, median) = dense_stable_set(&oracle, &taxis, &requests, Some(64));
            for threads in [1, 4] {
                let ctx = format!("seed {seed} threads {threads} params {params:?}");
                let par = Parallelism::fixed(threads);
                let sparse = NonSharingDispatcher::new(Euclidean, params).with_parallelism(par);
                assert_eq!(sparse.passenger_optimal(&taxis, &requests), p0, "{ctx}");
                assert_eq!(sparse.taxi_optimal(&taxis, &requests), t0, "{ctx}");

                // Seeded deferred acceptance on the keyed instance, from
                // the optimal pairs of either side and from garbage.
                let model = SparsePreferenceModel::build_with(
                    &Euclidean,
                    &params,
                    &taxis,
                    &requests,
                    par,
                    Some(&grid),
                );
                let garbage: Vec<(usize, usize)> = (0..requests.len())
                    .map(|j| (j, (j * 7 + 3) % (taxis.len() + 1)))
                    .collect();
                for seed_pairs in [
                    p_opt.pairs().collect::<Vec<_>>(),
                    t_opt.pairs().collect(),
                    garbage,
                ] {
                    assert_eq!(model.instance.propose_seeded(&seed_pairs), p_opt, "{ctx}");
                    assert_eq!(
                        model.instance.reviewer_optimal_seeded(&seed_pairs),
                        t_opt,
                        "{ctx}"
                    );
                }

                // `dispatch` with an unlimited budget, cold and warm
                // (twice, so the second call runs on a carry).
                for (objective, expected) in [
                    (Objective::PassengerOptimal, &p0),
                    (Objective::TaxiOptimal, &t0),
                ] {
                    let cold = sparse.dispatch(
                        &taxis,
                        &requests,
                        objective,
                        Some(&grid),
                        None,
                        &unlimited,
                    );
                    assert_eq!(cold, (expected.clone(), None), "{ctx} {objective:?}");
                    let mut warm = IncrementalState::new();
                    for _ in 0..2 {
                        let (s, d) = sparse.dispatch(
                            &taxis,
                            &requests,
                            objective,
                            Some(&grid),
                            Some(&mut warm),
                            &unlimited,
                        );
                        assert!(d.is_none());
                        assert_eq!(&s, expected, "{ctx} {objective:?} warm");
                    }
                }

                // Compromise schedules.
                assert_eq!(
                    sparse.egalitarian(&taxis, &requests, Some(64)),
                    egalitarian,
                    "{ctx}"
                );
                assert_eq!(sparse.median(&taxis, &requests, Some(64)), median, "{ctx}");
            }
        }
    }
}
