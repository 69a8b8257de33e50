//! Non-sharing dispatch schedules — the paper's `S`.

use o2o_matching::Matching;
use o2o_trace::{Request, RequestId, Taxi, TaxiId};
use std::collections::HashMap;

/// What a schedule decided for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchOutcome {
    /// The request was matched to this taxi.
    Assigned(TaxiId),
    /// The request was matched to its dummy (no dispatch this frame).
    Unserved,
}

impl DispatchOutcome {
    /// The assigned taxi, if any.
    #[must_use]
    pub fn taxi(self) -> Option<TaxiId> {
        match self {
            DispatchOutcome::Assigned(t) => Some(t),
            DispatchOutcome::Unserved => None,
        }
    }
}

/// A non-sharing taxi dispatch schedule: a one-to-one partial matching
/// between requests and taxis plus the dissatisfaction values realised by
/// each matched pair.
///
/// The paper's metrics are attached at construction time:
///
/// * **passenger dissatisfaction** of a matched request: `D(t, r^s)`,
/// * **taxi dissatisfaction** of a matched taxi:
///   `D(t, r^s) − α·D(r^s, r^d)`.
///
/// Smaller is better for both. Unmatched agents have no dissatisfaction
/// value (the paper's CDFs are over matched pairs).
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    request_ids: Vec<RequestId>,
    taxi_ids: Vec<TaxiId>,
    request_to_taxi: Vec<Option<usize>>,
    taxi_to_request: Vec<Option<usize>>,
    passenger_cost: Vec<Option<f64>>,
    taxi_cost: Vec<Option<f64>>,
    request_index: HashMap<RequestId, usize>,
    taxi_index: HashMap<TaxiId, usize>,
}

impl Schedule {
    /// Builds a schedule from parallel arrays.
    ///
    /// `request_to_taxi[i]` is the index into `taxi_ids` assigned to
    /// `request_ids[i]`. `passenger_cost` / `taxi_cost` carry the
    /// dissatisfaction of matched requests / taxis (`None` when unmatched).
    ///
    /// # Panics
    ///
    /// Panics if array lengths disagree, an index is out of range, or the
    /// matching is not one-to-one.
    #[must_use]
    pub fn from_parts(
        request_ids: Vec<RequestId>,
        taxi_ids: Vec<TaxiId>,
        request_to_taxi: Vec<Option<usize>>,
        passenger_cost: Vec<Option<f64>>,
        taxi_cost: Vec<Option<f64>>,
    ) -> Self {
        assert_eq!(request_ids.len(), request_to_taxi.len());
        assert_eq!(request_ids.len(), passenger_cost.len());
        assert_eq!(taxi_ids.len(), taxi_cost.len());
        let mut taxi_to_request = vec![None; taxi_ids.len()];
        for (ri, &ti) in request_to_taxi.iter().enumerate() {
            if let Some(ti) = ti {
                assert!(ti < taxi_ids.len(), "taxi index {ti} out of range");
                assert!(
                    taxi_to_request[ti].is_none(),
                    "taxi {ti} assigned to two requests"
                );
                taxi_to_request[ti] = Some(ri);
            }
        }
        let request_index = request_ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i))
            .collect::<HashMap<_, _>>();
        assert_eq!(
            request_index.len(),
            request_ids.len(),
            "duplicate request id"
        );
        let taxi_index = taxi_ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i))
            .collect::<HashMap<_, _>>();
        assert_eq!(taxi_index.len(), taxi_ids.len(), "duplicate taxi id");
        Schedule {
            request_ids,
            taxi_ids,
            request_to_taxi,
            taxi_to_request,
            passenger_cost,
            taxi_cost,
            request_index,
            taxi_index,
        }
    }

    /// The schedule of matching `m` (requests propose, taxis review) on
    /// one frame, with each matched pair's costs read through
    /// `pickup(request, taxi)` and `score(taxi, request)`.
    pub(crate) fn from_matching(
        taxis: &[Taxi],
        requests: &[Request],
        m: &Matching,
        pickup: impl Fn(usize, usize) -> f64,
        score: impl Fn(usize, usize) -> f64,
    ) -> Self {
        let request_to_taxi: Vec<Option<usize>> =
            (0..requests.len()).map(|j| m.proposer_partner(j)).collect();
        let passenger_cost = request_to_taxi
            .iter()
            .enumerate()
            .map(|(j, ti)| ti.map(|i| pickup(j, i)))
            .collect();
        let taxi_cost = (0..taxis.len())
            .map(|i| m.reviewer_partner(i).map(|j| score(i, j)))
            .collect();
        Schedule::from_parts(
            requests.iter().map(|r| r.id).collect(),
            taxis.iter().map(|t| t.id).collect(),
            request_to_taxi,
            passenger_cost,
            taxi_cost,
        )
    }

    /// The outcome for request `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` was not part of the dispatched batch.
    #[must_use]
    pub fn assignment_of(&self, r: RequestId) -> DispatchOutcome {
        let i = *self
            .request_index
            .get(&r)
            .unwrap_or_else(|| panic!("{r} was not in this dispatch batch"));
        match self.request_to_taxi[i] {
            Some(t) => DispatchOutcome::Assigned(self.taxi_ids[t]),
            None => DispatchOutcome::Unserved,
        }
    }

    /// The request dispatched to taxi `t`, or `None` if it stayed idle.
    ///
    /// # Panics
    ///
    /// Panics if `t` was not part of the dispatched batch.
    #[must_use]
    pub fn request_of(&self, t: TaxiId) -> Option<RequestId> {
        let i = *self
            .taxi_index
            .get(&t)
            .unwrap_or_else(|| panic!("{t} was not in this dispatch batch"));
        self.taxi_to_request[i].map(|r| self.request_ids[r])
    }

    /// Matched `(request, taxi)` pairs in request order.
    pub fn pairs(&self) -> impl Iterator<Item = (RequestId, TaxiId)> + '_ {
        self.request_to_taxi
            .iter()
            .enumerate()
            .filter_map(move |(ri, ti)| ti.map(|ti| (self.request_ids[ri], self.taxi_ids[ti])))
    }

    /// Number of matched pairs.
    #[must_use]
    pub fn served_count(&self) -> usize {
        self.request_to_taxi.iter().flatten().count()
    }

    /// Requests left unserved, in request order.
    #[must_use]
    pub fn unserved(&self) -> Vec<RequestId> {
        self.request_to_taxi
            .iter()
            .enumerate()
            .filter(|(_, ti)| ti.is_none())
            .map(|(ri, _)| self.request_ids[ri])
            .collect()
    }

    /// Passenger dissatisfaction `D(t, r^s)` of a matched request.
    ///
    /// # Panics
    ///
    /// Panics if `r` was not part of the dispatched batch.
    #[must_use]
    pub fn passenger_dissatisfaction(&self, r: RequestId) -> Option<f64> {
        let i = *self
            .request_index
            .get(&r)
            .unwrap_or_else(|| panic!("{r} was not in this dispatch batch"));
        self.passenger_cost[i]
    }

    /// Taxi dissatisfaction `D(t, r^s) − α·D(r^s, r^d)` of a matched taxi.
    ///
    /// # Panics
    ///
    /// Panics if `t` was not part of the dispatched batch.
    #[must_use]
    pub fn taxi_dissatisfaction(&self, t: TaxiId) -> Option<f64> {
        let i = *self
            .taxi_index
            .get(&t)
            .unwrap_or_else(|| panic!("{t} was not in this dispatch batch"));
        self.taxi_cost[i]
    }

    /// Sum of passenger dissatisfaction over matched requests.
    #[must_use]
    pub fn total_passenger_dissatisfaction(&self) -> f64 {
        self.passenger_cost.iter().flatten().sum()
    }

    /// Sum of taxi dissatisfaction over matched taxis.
    #[must_use]
    pub fn total_taxi_dissatisfaction(&self) -> f64 {
        self.taxi_cost.iter().flatten().sum()
    }

    /// Request ids in this batch, in dispatch order.
    #[must_use]
    pub fn request_ids(&self) -> &[RequestId] {
        &self.request_ids
    }

    /// Taxi ids in this batch.
    #[must_use]
    pub fn taxi_ids(&self) -> &[TaxiId] {
        &self.taxi_ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schedule {
        Schedule::from_parts(
            vec![RequestId(10), RequestId(11), RequestId(12)],
            vec![TaxiId(0), TaxiId(1)],
            vec![Some(1), None, Some(0)],
            vec![Some(2.0), None, Some(3.0)],
            vec![Some(1.5), Some(-0.5)],
        )
    }

    #[test]
    fn lookups_work_both_ways() {
        let s = sample();
        assert_eq!(
            s.assignment_of(RequestId(10)),
            DispatchOutcome::Assigned(TaxiId(1))
        );
        assert_eq!(s.assignment_of(RequestId(11)), DispatchOutcome::Unserved);
        assert_eq!(s.request_of(TaxiId(0)), Some(RequestId(12)));
        assert_eq!(s.request_of(TaxiId(1)), Some(RequestId(10)));
    }

    #[test]
    fn counts_and_unserved() {
        let s = sample();
        assert_eq!(s.served_count(), 2);
        assert_eq!(s.unserved(), vec![RequestId(11)]);
        assert_eq!(s.pairs().count(), 2);
    }

    #[test]
    fn dissatisfaction_accessors() {
        let s = sample();
        assert_eq!(s.passenger_dissatisfaction(RequestId(10)), Some(2.0));
        assert_eq!(s.passenger_dissatisfaction(RequestId(11)), None);
        assert_eq!(s.taxi_dissatisfaction(TaxiId(1)), Some(-0.5));
        assert_eq!(s.total_passenger_dissatisfaction(), 5.0);
        assert_eq!(s.total_taxi_dissatisfaction(), 1.0);
    }

    #[test]
    fn outcome_taxi_helper() {
        assert_eq!(DispatchOutcome::Assigned(TaxiId(3)).taxi(), Some(TaxiId(3)));
        assert_eq!(DispatchOutcome::Unserved.taxi(), None);
    }

    #[test]
    #[should_panic(expected = "not in this dispatch batch")]
    fn unknown_request_panics() {
        let _ = sample().assignment_of(RequestId(99));
    }

    #[test]
    #[should_panic(expected = "assigned to two requests")]
    fn double_assignment_panics() {
        let _ = Schedule::from_parts(
            vec![RequestId(0), RequestId(1)],
            vec![TaxiId(0)],
            vec![Some(0), Some(0)],
            vec![Some(1.0), Some(1.0)],
            vec![Some(1.0)],
        );
    }
}
