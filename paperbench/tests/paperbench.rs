//! Unit tests of the benchmark's own machinery plus a tiny-scale smoke run
//! of every workload. Run with `cargo test --release` from this directory.

use o2o_geo::{Euclidean, Metric, Point};
use o2o_paperbench::checks::{structural_problems, FailTally};
use o2o_paperbench::metric::CountingMetric;
use o2o_paperbench::run::{end_to_end, traced, Outcome};
use o2o_paperbench::speed::{Gauge, REFERENCE_MS};
use o2o_paperbench::stats::{median, percentile_sorted, samples_beyond, tail_percentile_bp};
use o2o_paperbench::workload::{Workload, ALL};
use o2o_sim::{FrameAssignment, FrameContext};
use o2o_trace::{Request, RequestId, Taxi, TaxiId};

#[test]
fn tail_percentile_is_highest_with_ten_samples_beyond() {
    // A whole NYC day dispatches 2,160 frames: p99 leaves 21 beyond it,
    // p99.9 only 2.
    assert_eq!(samples_beyond(2160, 9900), 21);
    assert_eq!(samples_beyond(2160, 9990), 2);
    assert_eq!(tail_percentile_bp(2160), Some(9900));
    assert_eq!(tail_percentile_bp(10_000), Some(9990));
    assert_eq!(tail_percentile_bp(100_000), Some(9999));
    // 100 samples: p90 leaves exactly 10.
    assert_eq!(tail_percentile_bp(100), Some(9000));
    assert_eq!(tail_percentile_bp(99), None);
    assert_eq!(tail_percentile_bp(0), None);
    // Integer rank arithmetic: 0.9 × 10 must not round up to rank 10.
    assert_eq!(samples_beyond(10, 9000), 1);
}

#[test]
fn percentiles_are_nearest_rank() {
    let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile_sorted(&sorted, 5000), 50.0);
    assert_eq!(percentile_sorted(&sorted, 9900), 99.0);
    assert_eq!(percentile_sorted(&sorted, 9999), 100.0);
    assert_eq!(percentile_sorted(&[7.0], 9900), 7.0);
    assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn failed_frac_counts_each_failed_frame_once() {
    let mut tally = FailTally::default();
    assert_eq!(tally.failed_frac(), 0.0);
    tally.frame(0, Vec::new());
    tally.frame(1, vec!["a".into(), "b".into()]);
    tally.frame(2, Vec::new());
    tally.frame(3, Vec::new());
    // A dispatch error on an already failed frame and one on a good frame.
    tally.fail(1, "dispatch error".into());
    tally.fail(3, "dispatch error".into());
    assert_eq!(tally.attempted(), 4);
    assert_eq!(tally.failed(), 2);
    assert_eq!(tally.failed_frac(), 0.5);
    assert_eq!(tally.notes().len(), 4);
}

#[test]
fn failed_frac_keys_failures_by_day_and_frame() {
    // The same frame index failing on two days is two failed frames.
    let mut tally = FailTally::default();
    for day in 0..3 {
        let mut day_tally = FailTally::for_day(day);
        for frame in 0..10 {
            day_tally.frame(frame, Vec::new());
        }
        if day != 1 {
            day_tally.fail(4, "dispatch error".into());
        }
        tally.merge(day_tally);
    }
    assert_eq!(tally.attempted(), 30);
    assert_eq!(tally.failed(), 2);
    assert!((tally.failed_frac() - 2.0 / 30.0).abs() < 1e-12);
}

#[test]
fn gauge_factor_is_reference_over_mean_kernel_time() {
    let mut gauge = Gauge::default();
    assert_eq!(gauge.factor(), 1.0);
    gauge.sample();
    gauge.sample();
    assert!(gauge.spent_ms() > 0.0);
    let expected = REFERENCE_MS * 2.0 / gauge.spent_ms();
    assert!((gauge.factor() - expected).abs() <= 1e-12 * expected);
}

#[test]
fn counting_metric_forwards_bit_identically() {
    let m = CountingMetric::new();
    let origin = Point::new(0.3, -1.7);
    let targets: Vec<Point> = (0..21)
        .map(|k| Point::new(f64::from(k) * 0.37 - 2.0, 1.0 / (f64::from(k) + 0.5)))
        .collect();
    for &t in &targets {
        assert_eq!(
            m.distance(origin, t).to_bits(),
            Euclidean.distance(origin, t).to_bits()
        );
    }
    assert_eq!(m.pairs(), 21);
    let mut counted = vec![0.0; targets.len()];
    let mut plain = vec![0.0; targets.len()];
    m.distances_into(origin, &targets, &mut counted);
    Euclidean.distances_into(origin, &targets, &mut plain);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&counted), bits(&plain));
    assert_eq!(m.pairs(), 42);
    assert_eq!(
        m.path_length(&targets[..3]),
        Euclidean.path_length(&targets[..3])
    );
    assert_eq!(m.pairs(), 44);
}

fn request(id: u64, pickup: (f64, f64), dropoff: (f64, f64)) -> Request {
    Request::new(
        RequestId(id),
        0,
        Point::new(pickup.0, pickup.1),
        Point::new(dropoff.0, dropoff.1),
    )
}

fn assignment(taxi: u64, members: &[&Request], stops: Vec<Point>) -> FrameAssignment {
    FrameAssignment {
        taxi: TaxiId(taxi),
        members: members.iter().map(|r| r.id).collect(),
        stops,
        passenger_costs: vec![1.0; members.len()],
        taxi_cost: 0.0,
    }
}

#[test]
fn structural_check_catches_broken_frames() {
    let taxis = vec![
        Taxi::new(TaxiId(0), Point::new(0.0, 0.0)),
        Taxi::new(TaxiId(1), Point::new(1.0, 0.0)),
    ];
    let a = request(0, (0.0, 0.0), (4.0, 0.0));
    let b = request(1, (1.0, 0.0), (3.0, 0.0));
    let c = request(2, (0.0, 5.0), (0.0, 6.0));
    let pending = vec![a, b, c];
    let ctx = FrameContext::new(0, 60, &taxis, &pending);
    // A pooled route where b rides inside a's trip: no detour for anyone.
    let good = vec![assignment(
        0,
        &[&a, &b],
        vec![a.pickup, b.pickup, b.dropoff, a.dropoff],
    )];
    assert!(structural_problems(&ctx, &good, 3, Some(0.5)).is_empty());
    // c's pick-up is 5 km off a's line: a's detour is about 10 km.
    let detour = vec![assignment(
        0,
        &[&a, &c],
        vec![a.pickup, c.pickup, c.dropoff, a.dropoff],
    )];
    assert!(!structural_problems(&ctx, &detour, 3, Some(0.5)).is_empty());
    // The same request twice, a taxi twice, an unknown taxi, too big a group.
    let twice = vec![
        assignment(0, &[&a], vec![a.pickup, a.dropoff]),
        assignment(1, &[&a], vec![a.pickup, a.dropoff]),
    ];
    assert!(!structural_problems(&ctx, &twice, 1, None).is_empty());
    let taxi_twice = vec![
        assignment(0, &[&a], vec![a.pickup, a.dropoff]),
        assignment(0, &[&b], vec![b.pickup, b.dropoff]),
    ];
    assert!(!structural_problems(&ctx, &taxi_twice, 1, None).is_empty());
    let unknown = vec![assignment(9, &[&a], vec![a.pickup, a.dropoff])];
    assert!(!structural_problems(&ctx, &unknown, 1, None).is_empty());
    let big = vec![assignment(
        0,
        &[&a, &b],
        vec![a.pickup, b.pickup, b.dropoff, a.dropoff],
    )];
    assert!(!structural_problems(&ctx, &big, 1, None).is_empty());
}

/// Metric names listed under `key` in the repository's `BENCHMARK.json`.
fn listed(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let start = text.find(&format!("\"{key}\"")).expect("key present");
    let section = &text[start..];
    let section = &section[..section.find(']').expect("list closes")];
    section
        .split("\"name\"")
        .skip(1)
        .map(|s| {
            let s = &s[s.find('"').expect("name value") + 1..];
            s[..s.find('"').expect("name ends")].to_string()
        })
        .collect()
}

fn names(out: &Outcome) -> Vec<String> {
    out.metrics.iter().map(|m| m.name.to_string()).collect()
}

#[test]
fn every_workload_passes_its_checks_at_tiny_scale() {
    let end_to_end_names = listed("end_to_end");
    let per_layer_names = listed("per_layer");
    for name in ALL {
        let mut w = Workload::by_name(name)
            .expect("known workload")
            .shrunk(0.03);
        // One day, run twice: the repetition path and its digest check.
        w.days = 1;
        w.reps = 2;
        let out = end_to_end(&w, 7);
        assert!(out.correct, "{name}: {:?}", out.notes);
        assert_eq!(out.failed, 0, "{name}");
        assert!(out.attempted > 0, "{name}");
        assert!(out.metrics.iter().all(|m| m.value.is_finite()), "{name}");
        assert_eq!(names(&out), end_to_end_names, "{name}");
        assert_eq!(
            out.info
                .iter()
                .find(|m| m.name == "failed_frac")
                .map(|m| m.value),
            Some(0.0)
        );
        assert!(out.passed(), "{name}");
        assert!(out.json().starts_with("{\"correct\": true, "), "{name}");

        let out = traced(&w, 7);
        assert!(out.correct, "{name} traced: {:?}", out.notes);
        assert!(out.metrics.iter().all(|m| m.value.is_finite()), "{name}");
        assert_eq!(names(&out), per_layer_names, "{name}");
        assert!(out.get("sim.frames").unwrap_or(0.0) > 0.0, "{name}");
    }
}
