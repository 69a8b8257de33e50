//! Parallel ≡ sequential: the dispatch pipeline must produce
//! bit-identical results for every thread count.
//!
//! The parallel maps in `o2o-par` preserve input order and every cell of
//! the preference/eval matrices is an independent computation, so
//! nothing — not even float rounding — may differ between
//! `Parallelism::sequential()` and `Parallelism::fixed(n)`. These tests
//! pin that contract over random frames, for the non-sharing and the
//! sharing dispatcher, with and without a precomputed pick-up distance
//! matrix.

use o2o_core::{
    NonSharingDispatcher, PickupDistances, PreferenceModel, PreferenceParams, SharingDispatcher,
};
use o2o_geo::{DistanceCache, Euclidean, Metric, Point};
use o2o_par::Parallelism;
use o2o_trace::{Request, RequestId, Taxi, TaxiId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_frame(seed: u64, nt: usize, nr: usize) -> (Vec<Taxi>, Vec<Request>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let taxis = (0..nt)
        .map(|i| {
            Taxi::new(
                TaxiId(i as u64),
                Point::new(rng.gen_range(-6.0..6.0), rng.gen_range(-6.0..6.0)),
            )
        })
        .collect();
    let requests = (0..nr)
        .map(|j| {
            Request::new(
                RequestId(j as u64),
                0,
                Point::new(rng.gen_range(-6.0..6.0), rng.gen_range(-6.0..6.0)),
                Point::new(rng.gen_range(-6.0..6.0), rng.gen_range(-6.0..6.0)),
            )
        })
        .collect();
    (taxis, requests)
}

/// Field-by-field equality of two preference models (`PreferenceModel`
/// has no `PartialEq`; the instance is compared list by list).
fn assert_models_identical(a: &PreferenceModel, b: &PreferenceModel) {
    assert_eq!(a.pickup, b.pickup, "pickup matrices differ");
    assert_eq!(a.score, b.score, "score matrices differ");
    assert_eq!(a.instance.proposers(), b.instance.proposers());
    assert_eq!(a.instance.reviewers(), b.instance.reviewers());
    for j in 0..a.instance.proposers() {
        assert_eq!(
            a.instance.proposer_list(j),
            b.instance.proposer_list(j),
            "request {j} preference list differs"
        );
    }
    for i in 0..a.instance.reviewers() {
        assert_eq!(
            a.instance.reviewer_list(i),
            b.instance.reviewer_list(i),
            "taxi {i} preference list differs"
        );
    }
}

const THREAD_COUNTS: [usize; 3] = [2, 4, 7];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn preference_model_is_thread_count_invariant(
        seed in any::<u64>(), nt in 1usize..12, nr in 1usize..16,
    ) {
        let (taxis, requests) = random_frame(seed, nt, nr);
        let params = PreferenceParams::paper().with_passenger_threshold(9.0);
        let seq = PreferenceModel::build_with(
            &Euclidean, &params, &taxis, &requests, Parallelism::sequential(), None,
        );
        for threads in THREAD_COUNTS {
            let par = PreferenceModel::build_with(
                &Euclidean, &params, &taxis, &requests, Parallelism::fixed(threads), None,
            );
            assert_models_identical(&seq, &par);
        }
        // A precomputed pick-up matrix must not change anything either.
        let pd = PickupDistances::compute(&Euclidean, &taxis, &requests, Parallelism::fixed(4));
        let with_pd = PreferenceModel::build_with(
            &Euclidean, &params, &taxis, &requests, Parallelism::fixed(4), Some(&pd),
        );
        assert_models_identical(&seq, &with_pd);
    }

    #[test]
    fn non_sharing_schedules_are_thread_count_invariant(
        seed in any::<u64>(), nt in 1usize..10, nr in 1usize..12,
    ) {
        let (taxis, requests) = random_frame(seed, nt, nr);
        let params = PreferenceParams::paper().with_passenger_threshold(9.0);
        let seq = NonSharingDispatcher::new(Euclidean, params);
        let p0 = seq.passenger_optimal(&taxis, &requests);
        let t0 = seq.taxi_optimal(&taxis, &requests);
        for threads in THREAD_COUNTS {
            let par = NonSharingDispatcher::new(Euclidean, params)
                .with_parallelism(Parallelism::fixed(threads));
            prop_assert_eq!(&par.passenger_optimal(&taxis, &requests), &p0);
            prop_assert_eq!(&par.taxi_optimal(&taxis, &requests), &t0);
        }
        let pd = PickupDistances::compute(&Euclidean, &taxis, &requests, Parallelism::fixed(4));
        // The dense model over a precomputed pick-up matrix agrees too.
        let dense = PreferenceModel::build_with(
            &Euclidean, &params, &taxis, &requests, Parallelism::fixed(4), Some(&pd),
        );
        let p_dense = dense.to_schedule(&taxis, &requests, &dense.instance.propose());
        let t_dense = dense.to_schedule(&taxis, &requests, &dense.instance.reviewer_optimal());
        prop_assert_eq!(&p_dense, &p0);
        prop_assert_eq!(&t_dense, &t0);
    }

    #[test]
    fn sharing_pipeline_is_thread_count_invariant(
        seed in any::<u64>(), nt in 1usize..8, nr in 2usize..12,
    ) {
        let (taxis, requests) = random_frame(seed, nt, nr);
        let params = PreferenceParams::unbounded().with_detour_threshold(2.5);
        let seq = SharingDispatcher::new(Euclidean, params);
        let groups0 = seq.feasible_groups(&requests);
        let pack0 = seq.pack(&requests);
        let p0 = seq.dispatch_passenger_optimal(&taxis, &requests);
        let t0 = seq.dispatch_taxi_optimal(&taxis, &requests);
        for threads in THREAD_COUNTS {
            let par = SharingDispatcher::new(Euclidean, params)
                .with_parallelism(Parallelism::fixed(threads));
            prop_assert_eq!(&par.feasible_groups(&requests), &groups0);
            prop_assert_eq!(&par.pack(&requests), &pack0);
            prop_assert_eq!(&par.dispatch_passenger_optimal(&taxis, &requests), &p0);
            prop_assert_eq!(&par.dispatch_taxi_optimal(&taxis, &requests), &t0);
        }
    }

    #[test]
    fn distance_cache_changes_nothing(
        seed in any::<u64>(), nt in 1usize..8, nr in 2usize..10,
    ) {
        let (taxis, requests) = random_frame(seed, nt, nr);
        let params = PreferenceParams::unbounded().with_detour_threshold(2.5);
        let plain = SharingDispatcher::new(Euclidean, params);
        let cached = SharingDispatcher::new(DistanceCache::new(Euclidean), params)
            .with_parallelism(Parallelism::fixed(4));
        prop_assert_eq!(
            &cached.dispatch_passenger_optimal(&taxis, &requests),
            &plain.dispatch_passenger_optimal(&taxis, &requests)
        );
        // The cache really deduplicated queries (same pair asked twice).
        let stats = cached.metric().stats();
        prop_assert!(stats.hits > 0 || requests.len() < 2);
    }
}

/// The matrix the simulator precomputes is exactly the metric's answers.
#[test]
fn pickup_distances_match_metric() {
    let (taxis, requests) = random_frame(99, 7, 11);
    for threads in [1, 2, 4] {
        let pd =
            PickupDistances::compute(&Euclidean, &taxis, &requests, Parallelism::fixed(threads));
        assert_eq!(pd.shape(), (11, 7));
        for (j, r) in requests.iter().enumerate() {
            for (i, t) in taxis.iter().enumerate() {
                assert_eq!(pd.get(j, i), Euclidean.distance(t.location, r.pickup));
            }
        }
    }
}
