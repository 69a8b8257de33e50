//! The three whole-day workloads.

use o2o_bench::PolicyKind;
use o2o_core::PreferenceParams;
use o2o_trace::{boston_september_2012, nyc_january_2016, Trace};

/// One whole simulated paper day: a trace model at a fixed scale, a fleet
/// and the policy that dispatches it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name on the command line and in the output.
    pub name: &'static str,
    /// The dispatch policy under test.
    pub kind: PolicyKind,
    /// `true` for the Boston sharing day, `false` for the NYC day.
    pub boston: bool,
    /// Request-volume multiplier of the trace model.
    pub scale: f64,
    /// Fleet size.
    pub taxis: usize,
    /// Interest-model parameters.
    pub params: PreferenceParams,
    /// Days of distinct traces one end-to-end run times. Boston days
    /// differ far more from seed to seed than NYC days (a Boston day's
    /// wall by about 27% and its p99 frame by about 32%, machine noise
    /// included, against about 5% and 7% for an NYC day at its fastest
    /// frames: a day with a rush-hour pile-up runs much longer than one
    /// without), so Boston needs more of them for the same spread.
    pub days: usize,
    /// Times each day is run. A frame's latency is its fastest over the
    /// repetitions: the other tenants of a shared machine slow a run by up
    /// to half for seconds at a time, and repetitions spread over the run
    /// rarely all meet such a window. NYC days vary little by content, so
    /// NYC spends its run on repetitions; Boston spends it on days.
    pub reps: usize,
}

/// Every workload, in the order the benchmark documents them.
pub const ALL: [&str; 3] = ["nyc_nstd_p", "nyc_nstd_t", "boston_std_p"];

impl Workload {
    /// The named workload at its benchmark scale.
    #[must_use]
    pub fn by_name(name: &str) -> Option<Workload> {
        // Fig. 4 parameters: NYC pick-ups are farther, so the driver
        // threshold is widened to 4 km; Fig. 9 keeps 1 km.
        let nyc = |name, kind| Workload {
            name,
            kind,
            boston: false,
            scale: 1.0,
            taxis: 700,
            params: PreferenceParams::paper().with_taxi_threshold(4.0),
            days: 2,
            reps: 2,
        };
        match name {
            "nyc_nstd_p" => Some(nyc("nyc_nstd_p", PolicyKind::NstdP)),
            "nyc_nstd_t" => Some(nyc("nyc_nstd_t", PolicyKind::NstdT)),
            // Half the Boston day (and half its 200-taxi fleet) keeps one
            // sharing day about as long as one NYC day.
            "boston_std_p" => Some(Workload {
                name: "boston_std_p",
                kind: PolicyKind::StdP,
                boston: true,
                scale: 0.5,
                taxis: 100,
                params: PreferenceParams::paper().with_taxi_threshold(1.0),
                days: 10,
                reps: 1,
            }),
            _ => None,
        }
    }

    /// The same workload with request volume and fleet both multiplied by
    /// `factor` (the supply/demand ratio is kept; used by smoke tests).
    #[must_use]
    pub fn shrunk(mut self, factor: f64) -> Workload {
        self.scale *= factor;
        self.taxis = ((self.taxis as f64 * factor).round() as usize).max(1);
        self
    }

    /// Whether the policy is the taxi-optimal NSTD variant.
    #[must_use]
    pub fn taxi_optimal(&self) -> bool {
        self.kind == PolicyKind::NstdT
    }

    /// Generates the workload's trace for `seed`.
    #[must_use]
    pub fn trace(&self, seed: u64) -> Trace {
        let config = if self.boston {
            boston_september_2012(self.scale)
        } else {
            nyc_january_2016(self.scale)
        };
        config.taxis(self.taxis).generate(seed)
    }
}
