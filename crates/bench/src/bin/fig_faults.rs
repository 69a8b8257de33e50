//! Fault tolerance and the deadline degradation ladder.
//!
//! Two arms over the synthetic Boston trace:
//!
//! * **fault sweep** (NSTD-P, unlimited budget): a seeded [`FaultPlan`]
//!   injects taxi dropouts, request cancellations, GPS jitter,
//!   duplicate/malformed records and mid-dispatch churn at a swept
//!   uniform rate. The engine must survive every rate, balance the
//!   request ledger exactly, and — at rate 0 — remain bit-identical to
//!   a run with no plan at all.
//! * **budget sweep** (NSTD-T, no faults): per-frame deadlines are
//!   calibrated from the unlimited run's median frame cost, then
//!   tightened until the ladder demonstrably steps down — first
//!   NSTD-T → NSTD-P (the taxi-optimal pass is abandoned after
//!   preference construction), ultimately → greedy-nearest at a zero
//!   deadline.
//!
//! Reported per row: served ratio, injected-fault and degradation
//! counts, and the recovery overhead (time spent screening arrivals and
//! absorbing mid-dispatch churn, relative to dispatch time).
//!
//! Output: `results/BENCH_faults.json`.

use o2o_bench::{bench_envelope, emit_bench_json, ExperimentOpts, Json};
use o2o_core::{DispatchTier, TimeBudgetSpec};
use o2o_geo::Euclidean;
use o2o_sim::{policy, FaultPlan, SimConfig, SimReport, Simulator};
use o2o_trace::{boston_september_2012, Trace};
use std::time::Duration;

/// Uniform per-event fault rates for the fault-sweep arm.
const FAULT_RATES: [f64; 5] = [0.0, 0.02, 0.05, 0.10, 0.20];

/// Deadline fractions of the unlimited run's median frame cost. The
/// sweep extends itself downward (halving) until at least one row
/// degrades NSTD-T → NSTD-P, so the ladder's middle rung is always
/// demonstrated.
const DEADLINE_FRACTIONS: [f64; 5] = [0.5, 0.3, 0.15, 0.08, 0.04];

/// The request ledger must balance exactly: every request in the trace
/// is served, still pending at the end, cancelled while waiting, or
/// cancelled mid-dispatch — nothing is lost, nothing counted twice.
fn assert_ledger_balances(trace: &Trace, r: &SimReport) {
    let accounted = r.served as u64
        + r.unserved_at_end as u64
        + r.faults.request_cancellations
        + r.faults.mid_dispatch_cancellations;
    assert_eq!(
        trace.requests.len() as u64,
        accounted,
        "request ledger out of balance"
    );
}

/// Recovery overhead as a percent of dispatch time (0 when no dispatch
/// time was recorded).
fn recovery_overhead_pct(r: &SimReport) -> f64 {
    let dispatch = r.total_dispatch_ms();
    if dispatch > 0.0 {
        100.0 * r.faults.recovery_ms / dispatch
    } else {
        0.0
    }
}

fn fault_row(rate: f64, r: &SimReport) -> Json {
    Json::obj(vec![
        ("arm", "faults".into()),
        ("fault_rate", rate.into()),
        ("served", r.served.into()),
        ("served_ratio", r.served_ratio().into()),
        ("taxi_dropouts", r.faults.taxi_dropouts.into()),
        (
            "request_cancellations",
            r.faults.request_cancellations.into(),
        ),
        ("gps_faults", r.faults.gps_faults.into()),
        ("quarantined_arrivals", r.faults.quarantined_arrivals.into()),
        (
            "mid_dispatch_cancellations",
            r.faults.mid_dispatch_cancellations.into(),
        ),
        (
            "mid_dispatch_dropouts",
            r.faults.mid_dispatch_dropouts.into(),
        ),
        ("total_injected", r.faults.total_injected().into()),
        (
            "recovered_dispatch_errors",
            r.faults.recovered_dispatch_errors.into(),
        ),
        ("degradations", r.degradations.len().into()),
        ("recovery_ms", r.faults.recovery_ms.into()),
        ("recovery_overhead_pct", recovery_overhead_pct(r).into()),
    ])
}

fn budget_row(deadline_us: u64, r: &SimReport) -> Json {
    Json::obj(vec![
        ("arm", "budget".into()),
        ("deadline_us", deadline_us.into()),
        ("served", r.served.into()),
        ("served_ratio", r.served_ratio().into()),
        (
            "degraded_to_nstd_p",
            r.degradations_to(DispatchTier::NstdP).into(),
        ),
        (
            "degraded_to_greedy",
            r.degradations_to(DispatchTier::GreedyNearest).into(),
        ),
        ("degradations", r.degradations.len().into()),
        ("avg_dispatch_ms", r.avg_dispatch_ms().into()),
        ("max_dispatch_ms", r.max_dispatch_ms().into()),
    ])
}

fn run_with_deadline(trace: &Trace, opts: &ExperimentOpts, deadline: Duration) -> SimReport {
    let mut p = policy::nstd_t(Euclidean, opts.params);
    let cfg = SimConfig {
        frame_budget: TimeBudgetSpec::default().with_deadline(deadline),
        ..SimConfig::default()
    };
    Simulator::new(cfg).run(trace, &mut p)
}

fn main() {
    let opts = ExperimentOpts::from_args(0.01);
    let trace = boston_september_2012(opts.scale).generate(opts.seed);
    println!(
        "trace {}: {} requests, {} taxis",
        trace.name,
        trace.requests.len(),
        trace.taxis.len()
    );
    let mut rows = Vec::new();

    // ---- Arm 1: fault-rate sweep, NSTD-P, unlimited budget ----------
    let baseline = {
        let mut p = policy::nstd_p(Euclidean, opts.params);
        Simulator::new(SimConfig::default()).run(&trace, &mut p)
    };
    println!(
        "\n{:>6} {:>12} {:>9} {:>9} {:>9} {:>10} {:>12}",
        "rate", "served_ratio", "injected", "recovered", "degraded", "recov_ms", "overhead_pct"
    );
    for (i, &rate) in FAULT_RATES.iter().enumerate() {
        let mut p = policy::nstd_p(Euclidean, opts.params);
        let report = Simulator::new(SimConfig::default())
            .with_fault_plan(FaultPlan::uniform(opts.seed.wrapping_add(i as u64), rate))
            .run(&trace, &mut p);
        assert_ledger_balances(&trace, &report);
        assert!(
            report.degradations.is_empty(),
            "unlimited budget must never degrade"
        );
        if rate == 0.0 {
            // The zero-rate plan must leave the engine on the exact code
            // path of a plain run: bit-identical outputs.
            assert_eq!(report.delays_min, baseline.delays_min);
            assert_eq!(
                report.passenger_dissatisfaction,
                baseline.passenger_dissatisfaction
            );
            assert_eq!(report.taxi_dissatisfaction, baseline.taxi_dissatisfaction);
            assert_eq!(report.total_drive_km, baseline.total_drive_km);
            assert_eq!(report.queue_by_frame, baseline.queue_by_frame);
            assert_eq!(report.faults.total_injected(), 0);
        }
        println!(
            "{rate:>6.2} {:>12.4} {:>9} {:>9} {:>9} {:>10.2} {:>12.3}",
            report.served_ratio(),
            report.faults.total_injected(),
            report.faults.recovered_dispatch_errors,
            report.degradations.len(),
            report.faults.recovery_ms,
            recovery_overhead_pct(&report),
        );
        rows.push(fault_row(rate, &report));
    }

    // ---- Arm 2: deadline sweep, NSTD-T, no faults -------------------
    // Calibrate against this machine: the unlimited run's median
    // non-trivial frame cost anchors the deadline fractions, so the
    // ladder engages regardless of host speed.
    let unlimited = {
        let mut p = policy::nstd_t(Euclidean, opts.params);
        Simulator::new(SimConfig::default()).run(&trace, &mut p)
    };
    let mut frame_ms: Vec<f64> = unlimited
        .dispatch_ms_by_frame
        .iter()
        .copied()
        .filter(|&m| m > 0.0)
        .collect();
    frame_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let median_ms = frame_ms.get(frame_ms.len() / 2).copied().unwrap_or(1.0);
    println!(
        "\ncalibration: median dispatched-frame cost {median_ms:.3} ms over {} frames",
        frame_ms.len()
    );

    println!(
        "{:>12} {:>12} {:>10} {:>10} {:>12}",
        "deadline_us", "served_ratio", "to_nstd_p", "to_greedy", "avg_disp_ms"
    );
    let mut fractions: Vec<f64> = DEADLINE_FRACTIONS.to_vec();
    let mut demonstrated_nstd_p = 0usize;
    let mut fi = 0;
    while fi < fractions.len() {
        let frac = fractions[fi];
        let deadline_us = (median_ms * frac * 1e3).max(1.0) as u64;
        let report = run_with_deadline(&trace, &opts, Duration::from_micros(deadline_us));
        assert_ledger_balances(&trace, &report);
        demonstrated_nstd_p += report.degradations_to(DispatchTier::NstdP);
        println!(
            "{deadline_us:>12} {:>12.4} {:>10} {:>10} {:>12.3}",
            report.served_ratio(),
            report.degradations_to(DispatchTier::NstdP),
            report.degradations_to(DispatchTier::GreedyNearest),
            report.avg_dispatch_ms(),
        );
        rows.push(budget_row(deadline_us, &report));
        // Extend the sweep downward until the middle rung fires (the
        // window between preference construction and the taxi-optimal
        // pass narrows on fast hosts), bounded so a degenerate trace
        // cannot loop forever.
        if fi + 1 == fractions.len()
            && demonstrated_nstd_p == 0
            && fractions.len() < DEADLINE_FRACTIONS.len() + 12
            && deadline_us > 1
        {
            fractions.push(frac / 2.0);
        }
        fi += 1;
    }
    assert!(
        demonstrated_nstd_p > 0,
        "no deadline demonstrated the NSTD-T -> NSTD-P rung; \
         re-run with a larger --scale"
    );

    // The floor of the ladder: a zero deadline degrades every dispatched
    // frame straight to greedy-nearest, and the run still completes.
    let zero = run_with_deadline(&trace, &opts, Duration::ZERO);
    assert_ledger_balances(&trace, &zero);
    assert!(
        zero.degradations_to(DispatchTier::GreedyNearest) > 0,
        "zero deadline must degrade to greedy"
    );
    println!(
        "{:>12} {:>12.4} {:>10} {:>10} {:>12.3}",
        0,
        zero.served_ratio(),
        zero.degradations_to(DispatchTier::NstdP),
        zero.degradations_to(DispatchTier::GreedyNearest),
        zero.avg_dispatch_ms(),
    );
    rows.push(budget_row(0, &zero));

    emit_bench_json(
        "faults",
        &bench_envelope(
            "faults",
            &opts,
            vec![
                ("median_frame_ms", median_ms.into()),
                ("rows", Json::Arr(rows)),
            ],
        ),
    );
}
