//! The observability layer's core contract: enabling a recorder — with
//! or without sinks — never changes dispatch results, only produces
//! telemetry. These tests run the same trace through the engine with a
//! disabled recorder, the default collecting recorder, and a
//! sink-bearing recorder, and require the dispatch-facing report fields
//! to be bit-identical; the telemetry side is then checked for internal
//! consistency (stage self-times bounded by frame wall-clock, balanced
//! span events, counters matching the report's derived views).

use o2o_core::PreferenceParams;
use o2o_geo::Euclidean;
use o2o_obs::Event;
use o2o_sim::{policy, MemorySink, Recorder, SimConfig, SimReport, Simulator, SloMetric, SloSpec};
use o2o_trace::boston_september_2012;

/// Asserts every dispatch-facing field matches exactly. Telemetry
/// fields (`stage_breakdown`) are intentionally excluded — they are the
/// one thing allowed to differ.
fn assert_dispatch_identical(a: &SimReport, b: &SimReport) {
    assert_eq!(a.policy, b.policy);
    assert_eq!(a.served, b.served);
    assert_eq!(a.unserved_at_end, b.unserved_at_end);
    assert_eq!(a.frames, b.frames);
    assert_eq!(a.delays_min, b.delays_min);
    assert_eq!(a.passenger_dissatisfaction, b.passenger_dissatisfaction);
    assert_eq!(a.taxi_dissatisfaction, b.taxi_dissatisfaction);
    assert_eq!(a.shared_requests, b.shared_requests);
    assert_eq!(a.total_drive_km, b.total_drive_km);
    assert_eq!(a.queue_by_frame, b.queue_by_frame);
    assert_eq!(a.idle_by_frame, b.idle_by_frame);
    assert_eq!(a.dispatch_errors, b.dispatch_errors);
    assert_eq!(a.degradations.len(), b.degradations.len());
}

#[test]
fn recorder_configurations_are_bit_identical_across_policies() {
    let trace = boston_september_2012(0.002).generate(17);
    let params = PreferenceParams::default();
    type PolicyFactory = fn(Euclidean, PreferenceParams) -> Box<dyn o2o_sim::DispatchPolicy>;
    let factories: Vec<(&str, PolicyFactory)> = vec![
        ("NSTD-P", |m, p| Box::new(policy::nstd_p(m, p))),
        ("STD-P", |m, p| Box::new(policy::std_p(m, p))),
        ("Near", |m, p| Box::new(policy::near(m, p))),
        ("RAII", |m, p| Box::new(policy::raii(m, p))),
    ];
    for (name, make) in factories {
        let mut p_disabled = make(Euclidean, params);
        let mut p_default = make(Euclidean, params);
        let mut p_sink = make(Euclidean, params);

        let disabled = Simulator::new(SimConfig::default())
            .with_recorder(Recorder::disabled())
            .run(&trace, &mut p_disabled);
        let default = Simulator::new(SimConfig::default()).run(&trace, &mut p_default);
        let (sink, handle) = MemorySink::new();
        let streamed = Simulator::new(SimConfig::default())
            .with_recorder(Recorder::with_sink(Box::new(sink)))
            .run(&trace, &mut p_sink);

        assert_dispatch_identical(&disabled, &default);
        assert_dispatch_identical(&disabled, &streamed);

        // The disabled arm really recorded nothing; the enabled arms
        // recorded one FrameStats per dispatched frame.
        assert!(disabled.stage_breakdown.is_empty(), "{name}");
        assert!(!default.stage_breakdown.is_empty(), "{name}");
        assert_eq!(
            default.stage_breakdown.frames.len(),
            streamed.stage_breakdown.frames.len(),
            "{name}"
        );
        assert!(!handle.is_empty(), "{name}: sink saw events");
    }
}

#[test]
fn slo_monitoring_never_changes_dispatch_results() {
    // Specs chosen to actually fire on this workload: a p50 latency
    // ceiling of 0 ms breaches on the first window, and a served-ratio
    // floor of 1.0 breaches whenever any window leaves a request
    // waiting. The monitor must observe, never steer.
    let specs = || {
        vec![
            SloSpec::max("frame-p50", SloMetric::FrameP50Ms, 0.0, 8),
            SloSpec::min("served", SloMetric::ServedRatio, 1.0, 8),
            SloSpec::max("degrade", SloMetric::DegradationRate, 0.0, 8),
        ]
    };
    let trace = boston_september_2012(0.002).generate(29);
    let params = PreferenceParams::default();
    let mut p_plain = policy::nstd_p(Euclidean, params);
    let mut p_slo = policy::nstd_p(Euclidean, params);
    let mut p_slo_disabled = policy::nstd_p(Euclidean, params);

    let plain = Simulator::new(SimConfig::default()).run(&trace, &mut p_plain);
    let monitored = Simulator::new(SimConfig::default())
        .with_slo(specs())
        .run(&trace, &mut p_slo);
    // SLO specs with a *disabled* recorder still populate the report's
    // event list (the monitor is engine-side, not recorder-side).
    let monitored_dark = Simulator::new(SimConfig::default())
        .with_slo(specs())
        .with_recorder(Recorder::disabled())
        .run(&trace, &mut p_slo_disabled);

    assert_dispatch_identical(&plain, &monitored);
    assert_dispatch_identical(&plain, &monitored_dark);
    assert!(plain.slo_events.is_empty(), "no specs, no events");
    assert!(
        !monitored.slo_events.is_empty(),
        "a 0 ms p50 ceiling must breach"
    );
    assert_eq!(
        monitored.slo_events.len(),
        monitored_dark.slo_events.len(),
        "recorder enablement must not change what the monitor sees"
    );
    for (a, b) in monitored.slo_events.iter().zip(&monitored_dark.slo_events) {
        assert_eq!(a.spec(), b.spec());
        assert_eq!(a.frame(), b.frame());
        assert_eq!(a.is_breach(), b.is_breach());
    }
}

#[test]
fn stage_self_times_are_bounded_by_frame_wall_clock() {
    let trace = boston_september_2012(0.003).generate(5);
    let mut p = policy::nstd_p(Euclidean, PreferenceParams::default());
    let report = Simulator::new(SimConfig::default()).run(&trace, &mut p);
    assert!(!report.stage_breakdown.is_empty());
    for fs in &report.stage_breakdown.frames {
        let total = fs.total_stage_ms();
        // Self-times are exclusive (child time subtracted), so their sum
        // can never exceed the frame's wall-clock. Allow a whisker of
        // float/rounding slack.
        assert!(
            total <= fs.wall_ms * 1.01 + 0.5,
            "frame {}: stage self-times {total} ms exceed wall {} ms",
            fs.frame,
            fs.wall_ms
        );
        // The frame recorded at least the policy_dispatch stage.
        assert!(
            fs.stage_self_ms("policy_dispatch") >= 0.0
                && fs.stages.iter().any(|(name, _)| name == "policy_dispatch"),
            "frame {} missing policy_dispatch span",
            fs.frame
        );
    }
}

#[test]
fn span_events_balance_and_counters_match_the_report() {
    let trace = boston_september_2012(0.002).generate(23);
    let params = PreferenceParams::default();
    let mut wrapped = policy::cached(Euclidean, |metric| {
        policy::StdPPolicy::from_dispatcher(o2o_core::SharingDispatcher::new(metric, params))
    });
    let (sink, handle) = MemorySink::new();
    let recorder = Recorder::with_sink(Box::new(sink));
    let report = Simulator::new(SimConfig::default())
        .with_recorder(recorder.clone())
        .run(&trace, &mut wrapped);

    // Every span that opened also closed, in stack order per id.
    let events = handle.events();
    let mut open: Vec<u64> = Vec::new();
    let (mut frame_starts, mut frame_ends) = (0u64, 0u64);
    for e in &events {
        match e {
            Event::SpanStart { id, .. } => open.push(*id),
            Event::SpanEnd { id, .. } => {
                assert_eq!(open.pop(), Some(*id), "spans close innermost-first");
            }
            Event::FrameStart { .. } => frame_starts += 1,
            Event::FrameEnd { .. } => frame_ends += 1,
            _ => {}
        }
    }
    assert!(open.is_empty(), "all spans closed by the end of the run");
    assert_eq!(frame_starts, frame_ends);
    assert_eq!(frame_starts as usize, report.stage_breakdown.frames.len());

    // The recorder's cumulative counters agree with the report's
    // derived per-frame views.
    assert_eq!(recorder.counter("cache.hits"), report.total_cache_hits());
    assert_eq!(
        recorder.counter("cache.misses"),
        report.total_cache_misses()
    );
    assert!(report.total_cache_misses() > 0);
    // The matching substrate recorded through the engine's scope.
    assert!(recorder.counter("match.proposals") > 0);
    // Every counter increment happened inside a frame window, so the
    // cumulative totals equal the per-frame deltas summed.
    for (name, total) in recorder.counters() {
        assert_eq!(
            total,
            report.stage_breakdown.counter_total(&name),
            "counter {name} splits exactly across frames"
        );
    }
}

#[test]
fn passenger_optimal_day_never_builds_the_taxi_side() {
    // NSTD-P is deferred acceptance with requests proposing: taxis only
    // compare two proposers by score, so a whole day must run without
    // materialising a single taxi-side list. NSTD-T proposes from the
    // taxi side and has to build it.
    let trace = boston_september_2012(0.02).generate(17);
    let params = PreferenceParams::default();
    let sim_p = Simulator::new(SimConfig::default());
    let report = sim_p.run(&trace, &mut policy::nstd_p(Euclidean, params));
    assert!(report.served > 0);
    let rec = sim_p.recorder();
    assert_eq!(rec.counter("match.taxi_side_built"), 0);
    assert!(rec.counter("prefs.rows_fresh") > 0);
    assert!(rec.counter("prefs.rows_carried") > 0);

    let sim_t = Simulator::new(SimConfig::default());
    let _ = sim_t.run(&trace, &mut policy::nstd_t(Euclidean, params));
    assert!(sim_t.recorder().counter("match.taxi_side_built") > 0);
}
