//! Preference-order construction — the paper's §IV.A interest models.
//!
//! * A **passenger** `r_j` "mainly cares about the taxi wait time", so it
//!   ranks taxis by `D(t_i, r_j^s)` ascending; taxis beyond the wait
//!   threshold, and taxis without enough seats, fall below the dummy entry
//!   (the passenger would rather stay unserved).
//! * A **driver** `t_i` weighs "(i) the idle taxi driving distance … and
//!   (ii) the taxi traveling distance" and ranks requests by
//!   `D(t_i, r_j^s) − α·D(r_j^s, r_j^d)` ascending; requests whose score
//!   exceeds the driver threshold, and parties that do not fit, fall below
//!   the dummy.
//!
//! The result is a [`StableInstance`] (requests propose, taxis review) plus
//! the raw cost matrices needed to report dissatisfaction afterwards.

use crate::{PreferenceParams, Schedule};
use o2o_geo::{heuristic_cell_size, BBox, BitsHasher, Disk, GridIndex, Metric, Point};
use o2o_matching::{KeyedRows, Matching, StableInstance};
use o2o_obs as obs;
use o2o_par::{par_map, par_map_ranges, try_par_map, Parallelism, WorkerPanic};
use o2o_trace::{Request, RequestId, Taxi, TaxiId};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::ops::Range;
use std::sync::Arc;

/// The idle-taxi × pending-request pick-up distance matrix of one frame.
///
/// `D(t_i, r_j^s)` is policy-independent: every dispatcher starts from
/// the same matrix, so the simulator can precompute it once per frame (in
/// parallel) and hand it to whichever policy runs. Sharing it changes
/// nothing numerically — the entries are exactly the metric's answers —
/// it only avoids recomputing them per policy stage.
#[derive(Debug, Clone, PartialEq)]
pub struct PickupDistances {
    n_requests: usize,
    n_taxis: usize,
    /// Row-major: `d[j * n_taxis + i]` = `D(t_i, r_j^s)`.
    d: Vec<f64>,
}

impl PickupDistances {
    /// Computes the full matrix, splitting request rows across threads.
    #[must_use]
    pub fn compute<M: Metric>(
        metric: &M,
        taxis: &[Taxi],
        requests: &[Request],
        par: Parallelism,
    ) -> Self {
        // One contiguous location array shared by every row lets each
        // request run the batched one-to-many kernel (the pickup as the
        // shared origin — metrics are symmetric by contract, and the
        // built-in kernels are bit-exact under the argument swap).
        let locations: Vec<Point> = taxis.iter().map(|t| t.location).collect();
        let rows = par_map(par, requests.to_vec(), |r| {
            let mut row = vec![0.0f64; locations.len()];
            metric.distances_into(r.pickup, &locations, &mut row);
            row
        });
        PickupDistances {
            n_requests: requests.len(),
            n_taxis: taxis.len(),
            d: rows.concat(),
        }
    }

    /// [`compute`](Self::compute) with panic isolation: metric workers
    /// run under `catch_unwind` ([`o2o_par::try_par_map`]), a panicking
    /// chunk is retried sequentially once, and a persistent panic comes
    /// back as a typed [`WorkerPanic`] instead of tearing down the frame
    /// loop. On success the matrix is bit-identical to
    /// [`compute`](Self::compute).
    ///
    /// # Errors
    ///
    /// Returns [`WorkerPanic`] (with the offending request row index)
    /// when a metric evaluation panics even on retry.
    pub fn try_compute<M: Metric>(
        metric: &M,
        taxis: &[Taxi],
        requests: &[Request],
        par: Parallelism,
    ) -> Result<Self, WorkerPanic> {
        let locations: Vec<Point> = taxis.iter().map(|t| t.location).collect();
        let out = try_par_map(par, requests.to_vec(), |r| {
            let mut row = vec![0.0f64; locations.len()];
            metric.distances_into(r.pickup, &locations, &mut row);
            row
        })?;
        Ok(PickupDistances {
            n_requests: requests.len(),
            n_taxis: taxis.len(),
            d: out.values.concat(),
        })
    }

    /// `D(t_i, r_j^s)` for request row `j` and taxi column `i`.
    #[must_use]
    pub fn get(&self, request: usize, taxi: usize) -> f64 {
        self.d[request * self.n_taxis + taxi]
    }

    /// `(requests, taxis)` dimensions of the matrix.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.n_requests, self.n_taxis)
    }
}

/// Preference orders of one dispatch frame, ready for matching.
///
/// Requests are proposers (index = position in the input slice), taxis are
/// reviewers.
#[derive(Debug, Clone)]
pub struct PreferenceModel {
    /// The stable-marriage instance (requests propose).
    pub instance: StableInstance,
    /// `pickup[j][i]` = `D(t_i, r_j^s)` — passenger `j`'s cost of taxi `i`.
    pub pickup: Vec<Vec<f64>>,
    /// `score[i][j]` = `D(t_i, r_j^s) − α·D(r_j^s, r_j^d)` — driver `i`'s
    /// cost of request `j`.
    pub score: Vec<Vec<f64>>,
}

impl PreferenceModel {
    /// Builds the paper's non-sharing preference orders.
    ///
    /// Complexity `O(|R|·|T|·(cost of the metric) + |R|·|T|·log|T|)`.
    ///
    /// # Panics
    ///
    /// Panics if `params` fail [`PreferenceParams::validate`].
    #[must_use]
    pub fn build<M: Metric>(
        metric: &M,
        params: &PreferenceParams,
        taxis: &[Taxi],
        requests: &[Request],
    ) -> Self {
        Self::build_with(
            metric,
            params,
            taxis,
            requests,
            Parallelism::sequential(),
            None,
        )
    }

    /// [`build`](Self::build) with an explicit thread budget and an
    /// optional precomputed pick-up distance matrix.
    ///
    /// The result is bit-identical for every `par`: rows are independent
    /// and the parallel map preserves input order, so every float is the
    /// same operation on the same inputs as the sequential pass. When
    /// `pickup_distances` is given (shape-checked against the inputs) the
    /// matrix pass reuses it instead of querying the metric — it must
    /// therefore have been computed with this same `metric` (a memoizing
    /// wrapper such as a distance cache over it is fine); debug builds
    /// assert a sampled entry agrees.
    ///
    /// # Panics
    ///
    /// Panics if `params` fail [`PreferenceParams::validate`] or
    /// `pickup_distances` has the wrong shape.
    #[must_use]
    pub fn build_with<M: Metric>(
        metric: &M,
        params: &PreferenceParams,
        taxis: &[Taxi],
        requests: &[Request],
        par: Parallelism,
        pickup_distances: Option<&PickupDistances>,
    ) -> Self {
        let _span = obs::span("preference_build");
        params.validate().expect("invalid preference parameters");
        let n_r = requests.len();
        let n_t = taxis.len();
        if let Some(pd) = pickup_distances {
            assert_eq!(
                pd.shape(),
                (n_r, n_t),
                "pickup-distance matrix shape mismatch: frame has {n_r} \
                 requests × {n_t} taxis (first request {:?}, first taxi {:?})",
                requests.first().map(|r| r.id),
                taxis.first().map(|t| t.id),
            );
            // The caller promises the matrix was computed with this same
            // `metric`; a mismatch (e.g. Euclidean precomputation fed to
            // a road-network policy) silently skews every preference, so
            // spot-check one entry in debug builds.
            if n_r > 0 && n_t > 0 {
                let expect = metric.distance(taxis[0].location, requests[0].pickup);
                debug_assert!(
                    (pd.get(0, 0) - expect).abs() <= 1e-9 * expect.abs().max(1.0),
                    "pickup-distance matrix disagrees with the policy metric \
                     for taxi {:?} → request {:?} (cached {} vs metric \
                     {expect}): was it computed with a different metric?",
                    taxis[0].id,
                    requests[0].id,
                    pd.get(0, 0),
                );
            }
        }

        // One row per request: costs against every taxi, plus the
        // passenger list — taxis with enough seats within the wait
        // threshold, nearest first (ties by taxi index for determinism).
        type Row = (Vec<f64>, Vec<f64>, Vec<usize>);
        let locations: Vec<Point> = taxis.iter().map(|t| t.location).collect();
        let rows: Vec<Row> = par_map(par, (0..n_r).collect(), |j| {
            let r = &requests[j];
            let trip = r.trip_distance(metric);
            let mut pickup_row = vec![0.0f64; n_t];
            match pickup_distances {
                Some(pd) => {
                    for (i, d) in pickup_row.iter_mut().enumerate() {
                        *d = pd.get(j, i);
                    }
                }
                // Batched one-to-many kernel (pickup as the shared
                // origin; see PickupDistances::compute).
                None => metric.distances_into(r.pickup, &locations, &mut pickup_row),
            }
            let mut score_row = Vec::with_capacity(n_t);
            for &d in &pickup_row {
                score_row.push(d - params.alpha * trip);
            }
            let mut list: Vec<usize> = (0..n_t)
                .filter(|&i| {
                    taxis[i].seats >= r.passengers && pickup_row[i] <= params.passenger_threshold
                })
                .collect();
            list.sort_by(|&a, &b| {
                pickup_row[a]
                    .partial_cmp(&pickup_row[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            (pickup_row, score_row, list)
        });
        let mut pickup = Vec::with_capacity(n_r);
        let mut score = Vec::with_capacity(n_r); // request-major; transposed below
        let mut request_lists = Vec::with_capacity(n_r);
        for (pickup_row, score_row, list) in rows {
            pickup.push(pickup_row);
            score.push(score_row);
            request_lists.push(list);
        }

        // One column per taxi: the driver list — fitting parties whose
        // score clears the threshold, lowest score first — and the
        // taxi-major score row for reporting.
        let score_ref = &score;
        let cols: Vec<(Vec<usize>, Vec<f64>)> = par_map(par, (0..n_t).collect(), |i| {
            let t = &taxis[i];
            let mut list: Vec<usize> = (0..n_r)
                .filter(|&j| {
                    t.seats >= requests[j].passengers && score_ref[j][i] <= params.taxi_threshold
                })
                .collect();
            list.sort_by(|&a, &b| {
                score_ref[a][i]
                    .partial_cmp(&score_ref[b][i])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            let score_t_row: Vec<f64> = (0..n_r).map(|j| score_ref[j][i]).collect();
            (list, score_t_row)
        });
        let mut taxi_lists = Vec::with_capacity(n_t);
        let mut score_t = Vec::with_capacity(n_t);
        for (list, score_t_row) in cols {
            taxi_lists.push(list);
            score_t.push(score_t_row);
        }

        let instance = StableInstance::new(request_lists, taxi_lists)
            .expect("generated lists are in range and duplicate-free");
        PreferenceModel {
            instance,
            pickup,
            score: score_t,
        }
    }

    /// The [`Schedule`] of matching `m` on this frame, with each matched
    /// pair's costs read from the dense matrices — how a matching computed
    /// on [`PreferenceModel::instance`] (the dense reference the sparse
    /// dispatch path is tested against) becomes a schedule.
    #[must_use]
    pub fn to_schedule(&self, taxis: &[Taxi], requests: &[Request], m: &Matching) -> Schedule {
        Schedule::from_matching(
            taxis,
            requests,
            m,
            |j, i| self.pickup[j][i],
            |i, j| self.score[i][j],
        )
    }
}

/// The inclusive Euclidean candidate radius around a request's pick-up:
/// any taxi that can be mutually acceptable lies within it.
///
/// Both acceptance filters bound the pick-up distance by
/// `min(θ_p, θ_t + α·trip)`; the bound is inflated by a relative `1e-9`
/// slack so the float rounding of `d − α·trip` can never exclude a taxi
/// the dense filter would admit (see [`SparsePreferenceModel`]). This is
/// the **single source of truth** for that radius — the sparse candidate
/// builder and the incremental row patcher must agree on it bit-for-bit,
/// or a carried row could miss a taxi a fresh row would admit.
///
/// Returns a negative value or `NaN` only when the thresholds themselves
/// are (callers treat that as "no candidates"); `+∞` means unbounded.
#[must_use]
pub fn candidate_radius(params: &PreferenceParams, trip: f64) -> f64 {
    let alpha_trip = params.alpha * trip;
    let bound = params
        .passenger_threshold
        .min(params.taxi_threshold + alpha_trip);
    bound + 1e-9 * (1.0 + bound.abs() + alpha_trip.abs())
}

/// Builds the per-frame spatial index over taxi positions: taxi *index*
/// payloads (positions in the input slice) in a grid sized by
/// [`heuristic_cell_size`].
///
/// Built once per frame and shared by the sparse preference builder and the
/// grid-based baselines. The bounding box covers only the taxis; queries
/// from pick-up points outside it are still exact (the grid clamps the
/// query cell, which only shrinks per-axis offsets to stored points, so
/// ring lower bounds remain valid).
#[must_use]
pub fn build_taxi_grid(taxis: &[Taxi]) -> GridIndex<usize> {
    let _span = obs::span("grid_build");
    let bbox = BBox::from_points(taxis.iter().map(|t| t.location))
        .unwrap_or_else(|| BBox::square(Point::ORIGIN, 1.0));
    GridIndex::bulk_build(
        bbox,
        heuristic_cell_size(bbox),
        taxis
            .iter()
            .enumerate()
            .map(|(i, t)| (i, t.location))
            .collect(),
    )
}

/// One frame's candidate arena: for every request, its mutually acceptable
/// taxis as one contiguous run of `(taxi, pick-up distance, driver score)`,
/// nearest first (ties by taxi index).
///
/// A pair `(t_i, r_j)` can appear in any preference list only when both
/// sides accept it: the taxi has the seats, `D(t_i, r_j^s) ≤ θ_p`
/// (passenger) **and** `D(t_i, r_j^s) − α·trip_j ≤ θ_t` (driver). Entries
/// failing either test are no-ops in every stable-matching algorithm, so
/// the arena holds only mutual pairs. Both tests bound the pick-up
/// distance by `min(θ_p, θ_t + α·trip_j)`, which the taxi grid answers in
/// `O(candidates)` per request (see [`candidate_radius`]); the grid only
/// prefilters, and every kept pair passes exactly the dense filters on the
/// true metric distance, so lists and costs are bit-for-bit the dense
/// model's restricted to mutual pairs. The grid measures Euclidean
/// distance, which must lower-bound the dispatch metric (true for
/// [`o2o_geo::Manhattan`] and for road networks whose edge weights are at
/// least the segment lengths — the contract [`GridIndex`] documents for
/// the baselines).
///
/// The taxis and scores are the keyed rows of the frame's
/// [`StableInstance`] — a driver prefers the lower score, ties to the
/// lower request index, exactly the dense model's taxi-list order — and
/// the pick-up distances sit alongside, entry for entry. Both halves are
/// shared by reference count between the model that owns the frame and
/// the [`CandidateCarry`] that patches the next frame from it; neither is
/// ever copied.
#[derive(Debug, Clone, Default)]
struct CandidateArena {
    /// Request rows: taxi indices keyed by driver score.
    rows: Arc<KeyedRows>,
    /// `pickup[e]` = `D(t_i, r_j^s)` for arena entry `e`.
    pickup: Arc<Vec<f64>>,
}

/// One candidate-row entry while a row is assembled.
#[derive(Debug, Clone, Copy)]
struct Entry {
    taxi: usize,
    /// `D(t_i, r_j^s)`.
    pickup: f64,
    /// `D(t_i, r_j^s) − α·trip_j`.
    score: f64,
}

/// The arena's row order as one integer: pick-up distance in the high
/// half, taxi index in the low — the dense passenger-list comparator
/// (`partial_cmp`, then index). Arena distances are never `NaN` (the
/// threshold filters reject it), and `−0.0` is folded onto `+0.0` so the
/// two zeros tie as they do under `partial_cmp`; on what remains, the
/// sign-magnitude flip below orders the bit patterns exactly like the
/// floats.
fn nearest_key(e: &Entry) -> u128 {
    let bits = (e.pickup + 0.0).to_bits();
    let ordered = bits ^ ((((bits as i64) >> 63) as u64) | (1 << 63));
    (u128::from(ordered) << 64) | e.taxi as u128
}

/// One worker's contiguous share of a frame's arena.
#[derive(Debug, Default)]
struct ArenaPart {
    rows: KeyedRows,
    pickup: Vec<f64>,
    trips: Vec<f64>,
    /// Rows built on the fresh grid path.
    fresh: u64,
}

/// Per-worker row buffers, reused across the requests of a part.
#[derive(Debug, Default)]
struct RowScratch {
    /// Candidate taxi indices awaiting their metric distance.
    taxis: Vec<usize>,
    /// Their locations (the batched kernel's targets).
    locations: Vec<Point>,
    /// Their metric distances.
    dists: Vec<f64>,
    /// Newly admitted entries of a carried row.
    admitted: Vec<Entry>,
    /// The row being assembled.
    row: Vec<Entry>,
}

impl RowScratch {
    /// Runs the batched one-to-many kernel from `pickup` over the queued
    /// candidates and puts those passing the thresholds into `admitted`
    /// (pickup as the shared origin — metrics are symmetric by contract,
    /// and the built-in kernels are bit-exact under the argument swap).
    fn admit<M: Metric>(
        &mut self,
        metric: &M,
        params: &PreferenceParams,
        pickup: Point,
        trip: f64,
    ) {
        self.dists.clear();
        self.dists.resize(self.locations.len(), 0.0);
        metric.distances_into(pickup, &self.locations, &mut self.dists);
        self.admitted.clear();
        for (&taxi, &d) in self.taxis.iter().zip(&self.dists) {
            let score = d - params.alpha * trip;
            if d <= params.passenger_threshold && score <= params.taxi_threshold {
                self.admitted.push(Entry {
                    taxi,
                    pickup: d,
                    score,
                });
            }
        }
    }
}

/// The frame's row pass: one fused pass per request from candidates to a
/// finished arena row.
struct RowPass<'a, M> {
    metric: &'a M,
    params: &'a PreferenceParams,
    taxis: &'a [Taxi],
    requests: &'a [Request],
    grid: &'a GridIndex<usize>,
    /// The previous frame, or `None` when nothing can be carried (first
    /// frame, changed params, ambiguous taxi ids).
    carry: Option<&'a CandidateCarry>,
    /// Expected entries per request (the previous frame's mean), to size
    /// a part's buffers once.
    entries_per_row: usize,
}

impl<M: Metric> RowPass<'_, M> {
    /// Builds the arena rows of `requests[range]`.
    fn build(&self, range: Range<usize>) -> ArenaPart {
        let entries = range.len() * self.entries_per_row;
        let mut part = ArenaPart {
            rows: KeyedRows::with_capacity(range.len(), entries),
            pickup: Vec::with_capacity(entries),
            trips: Vec::with_capacity(range.len()),
            fresh: 0,
        };
        let mut scratch = RowScratch::default();
        for j in range {
            let r = &self.requests[j];
            let trip = match self.carried(r) {
                Some((oj, trip)) => {
                    self.carried_row(r, oj, trip, &mut scratch);
                    trip
                }
                None => {
                    part.fresh += 1;
                    self.fresh_row(r, &mut scratch)
                }
            };
            for e in &scratch.row {
                part.rows.push(e.taxi, e.score);
                part.pickup.push(e.pickup);
            }
            part.rows.end_row();
            part.trips.push(trip);
        }
        part
    }

    /// The previous frame's index and trip distance of a request carried
    /// unchanged: same id, bit-identical pick-up and drop-off (hence the
    /// same trip and radius), same party size. Duplicate request ids are
    /// harmless: any old request passing this check carries the right row
    /// for this request.
    fn carried(&self, r: &Request) -> Option<(usize, f64)> {
        let prev = self.carry?;
        let &oj = prev.request_at.get(&r.id)?;
        let old = &prev.requests[oj];
        (same_bits(old.pickup, r.pickup)
            && same_bits(old.dropoff, r.dropoff)
            && old.passengers == r.passengers)
            .then(|| (oj, prev.trips[oj]))
    }

    /// A fresh row: the grid's inclusive Euclidean prefilter, the batched
    /// metric kernel, the fused seats/θ filters, one sort. Returns the
    /// request's trip distance.
    fn fresh_row(&self, r: &Request, scratch: &mut RowScratch) -> f64 {
        let trip = r.trip_distance(self.metric);
        // Inflated to absorb the rounding of `d − α·trip` vs
        // `θ_t + α·trip`; the exact filters run on metric distances.
        let radius = candidate_radius(self.params, trip);
        scratch.taxis.clear();
        scratch.locations.clear();
        let taxis = self.taxis;
        // The visitor yields candidates in grid discovery order, unsorted:
        // the row is ordered by metric distance below anyway.
        self.grid.for_each_within(r.pickup, radius, |&i, _| {
            if taxis[i].seats >= r.passengers {
                scratch.taxis.push(i);
                scratch.locations.push(taxis[i].location);
            }
        });
        scratch.admit(self.metric, self.params, r.pickup, trip);
        std::mem::swap(&mut scratch.row, &mut scratch.admitted);
        scratch.row.sort_unstable_by_key(nearest_key);
        trip
    }

    /// Patches old row `oj` into this frame's row for `r`.
    ///
    /// A row is a pure function of `(pickup, radius, taxi positions and
    /// seats)`: membership is the grid's inclusive Euclidean test
    /// `‖t_i − r_j^s‖ ≤ radius` plus the exact filters, costs are exact
    /// metric distances, and the order is `(distance, index)`. So the new
    /// row is the old one with the entries of departed, moved or
    /// re-seated taxis dropped, merged with every changed taxi that passes
    /// the same tests now — bit-identical to a fresh row at the cost of
    /// the changed taxis rather than the whole candidate set.
    fn carried_row(&self, r: &Request, oj: usize, trip: f64, scratch: &mut RowScratch) {
        let carry = self.carry.expect("only carried requests get here");
        let prev = &carry.arena;
        scratch.row.clear();
        let radius = candidate_radius(self.params, trip);
        if radius.is_nan() || radius < 0.0 {
            return;
        }
        // Survivors, already in (distance, old index) order.
        let span = prev.rows.span(oj);
        for ((&oi, &score), &d) in prev
            .rows
            .entries(oj)
            .iter()
            .zip(prev.rows.keys(oj))
            .zip(&prev.pickup[span])
        {
            let ni = carry.stable_new[oi];
            if ni != usize::MAX {
                scratch.row.push(Entry {
                    taxi: ni,
                    pickup: d,
                    score,
                });
            }
        }
        // Stationary taxis keep their relative order between frames when
        // the taxi slice only gains and loses members; re-sort only when
        // the re-indexing reordered two equidistant survivors.
        if !scratch.row.is_sorted_by_key(nearest_key) {
            scratch.row.sort_unstable_by_key(nearest_key);
        }
        // Changed taxis: the grid's inclusive membership test, then the
        // batched kernel with the same pickup-as-origin orientation as a
        // fresh row, so patched and fresh entries stay bit-identical.
        scratch.taxis.clear();
        scratch.locations.clear();
        let disk = Disk::new(r.pickup, radius);
        for &(ni, pos) in &carry.changed {
            if disk.contains(pos) && self.taxis[ni].seats >= r.passengers {
                scratch.taxis.push(ni);
                scratch.locations.push(pos);
            }
        }
        if scratch.taxis.is_empty() {
            return;
        }
        scratch.admit(self.metric, self.params, r.pickup, trip);
        scratch.admitted.sort_unstable_by_key(nearest_key);
        // Merge the two sorted runs (their taxis are disjoint, so the
        // order is strict).
        let survivors = std::mem::take(&mut scratch.row);
        let (mut a, mut b) = (0, 0);
        while a < survivors.len() && b < scratch.admitted.len() {
            if nearest_key(&scratch.admitted[b]) < nearest_key(&survivors[a]) {
                scratch.row.push(scratch.admitted[b]);
                b += 1;
            } else {
                scratch.row.push(survivors[a]);
                a += 1;
            }
        }
        scratch.row.extend_from_slice(&survivors[a..]);
        scratch.row.extend_from_slice(&scratch.admitted[b..]);
    }
}

/// `true` when two points are bit-identical on both coordinates — the
/// carry's notion of "did not move" (any representational change, `-0.0`
/// vs `0.0` included, conservatively counts as moved).
fn same_bits(a: Point, b: Point) -> bool {
    a.x.to_bits() == b.x.to_bits() && a.y.to_bits() == b.y.to_bits()
}

/// Id → frame-index map of the carry. The maps are only probed, never
/// iterated, so the Fx-style hash cannot change a result; it costs a
/// fraction of the default SipHash.
type IdMap<K> = HashMap<K, usize, BuildHasherDefault<BitsHasher>>;

/// Cross-frame carry for [`SparsePreferenceModel::build_incremental`]: the
/// previous frame's taxis, requests, candidate arena and trip distances,
/// keyed by stable identities so index churn between frames never
/// mis-maps an entry.
///
/// Owned by [`crate::IncrementalState`]; an empty carry (or one recorded
/// under different [`PreferenceParams`]) simply makes every request take
/// the fresh grid path. The id maps are built once per frame and kept for
/// the next one; exactness requires only that the carry is always fed
/// through the **same metric** (it revalidates params itself).
#[derive(Debug, Clone, Default)]
pub struct CandidateCarry {
    params: Option<PreferenceParams>,
    /// Previous frame's taxis, by index.
    taxis: Vec<Taxi>,
    /// Previous frame's requests, by index.
    requests: Vec<Request>,
    /// Previous frame's arena (shared with that frame's model).
    arena: CandidateArena,
    /// Previous frame's trip distances, by request index.
    trips: Vec<f64>,
    /// Previous frame's taxi id → index.
    taxi_at: IdMap<TaxiId>,
    /// Whether the previous frame's taxi ids were all distinct.
    taxis_unique: bool,
    /// Previous frame's request id → index (the last one, for duplicates).
    request_at: IdMap<RequestId>,
    /// This frame's taxi id → index, built while the previous frame's map
    /// is still read; swapped in at the end of the frame.
    next_taxi_at: IdMap<TaxiId>,
    /// This frame's request id → index (see `next_taxi_at`).
    next_request_at: IdMap<RequestId>,
    /// Working memory: old taxi index → current index, or `usize::MAX`.
    stable_new: Vec<usize>,
    /// Working memory: current taxis that are new, moved or re-seated.
    changed: Vec<(usize, Point)>,
}

impl CandidateCarry {
    /// An empty carry (the first frame takes the fresh grid path).
    #[must_use]
    pub fn new() -> Self {
        CandidateCarry::default()
    }

    /// Forgets the carried rows (the next frame takes the fresh path).
    pub fn clear(&mut self) {
        *self = CandidateCarry::default();
    }

    /// Maps the carried frame onto this one: fills `stable_new` and
    /// `changed`, builds this frame's id maps, and returns whether rows
    /// may be carried at all. Ambiguous (duplicate) taxi ids on either
    /// side disable reuse for the whole frame — a duplicate id could map
    /// one old row entry to the wrong taxi.
    fn map_frame(
        &mut self,
        params: &PreferenceParams,
        taxis: &[Taxi],
        requests: &[Request],
    ) -> bool {
        self.next_taxi_at.clear();
        let mut unique = true;
        for (i, t) in taxis.iter().enumerate() {
            if self.next_taxi_at.insert(t.id, i).is_some() {
                unique = false;
            }
        }
        self.next_request_at.clear();
        self.next_request_at
            .extend(requests.iter().enumerate().map(|(j, r)| (r.id, j)));
        let usable = unique && self.taxis_unique && self.params == Some(*params);
        self.taxis_unique = unique;
        self.stable_new.clear();
        self.changed.clear();
        if !usable {
            return false;
        }
        self.stable_new.resize(self.taxis.len(), usize::MAX);
        for (i, t) in taxis.iter().enumerate() {
            match self.taxi_at.get(&t.id) {
                Some(&oi)
                    if same_bits(self.taxis[oi].location, t.location)
                        && self.taxis[oi].seats == t.seats =>
                {
                    self.stable_new[oi] = i;
                }
                _ => self.changed.push((i, t.location)),
            }
        }
        true
    }

    /// Makes this frame the carried one.
    fn store(
        &mut self,
        params: &PreferenceParams,
        taxis: &[Taxi],
        requests: &[Request],
        arena: &CandidateArena,
        trips: Vec<f64>,
    ) {
        self.params = Some(*params);
        self.taxis.clear();
        self.taxis.extend_from_slice(taxis);
        self.requests.clear();
        self.requests.extend_from_slice(requests);
        self.arena = arena.clone();
        self.trips = trips;
        std::mem::swap(&mut self.taxi_at, &mut self.next_taxi_at);
        std::mem::swap(&mut self.request_at, &mut self.next_request_at);
    }

    /// The carried frame's index of taxi `id` (the last one, for
    /// duplicate ids). After [`SparsePreferenceModel::build_incremental`]
    /// the carried frame is the one just built.
    pub(crate) fn taxi_index(&self, id: TaxiId) -> Option<usize> {
        self.taxi_at.get(&id).copied()
    }

    /// The carried frame's index of request `id` (the last one, for
    /// duplicate ids); see [`CandidateCarry::taxi_index`].
    pub(crate) fn request_index(&self, id: RequestId) -> Option<usize> {
        self.request_at.get(&id).copied()
    }
}

/// Sparse preference orders of one dispatch frame.
///
/// Semantically the same frame as [`PreferenceModel`] restricted to
/// *mutually acceptable* pairs: every algorithm on
/// [`SparsePreferenceModel::instance`] yields the same matchings, and every
/// reported cost is the same float, as the dense model (property-tested in
/// `tests/sparse_equivalence.rs`). The costs live in the frame's candidate
/// arena, one entry per list entry, rather than in `|R|×|T|` matrices.
#[derive(Debug, Clone)]
pub struct SparsePreferenceModel {
    /// The stable-marriage instance (requests propose), built from keyed
    /// rows: each request's list of taxis, each entry keyed by that
    /// driver's score. Passenger-optimal deferred acceptance runs on the
    /// keys; the taxi lists are only built if an algorithm asks for them
    /// (see [`StableInstance::keyed`]).
    pub instance: StableInstance,
    arena: CandidateArena,
}

impl SparsePreferenceModel {
    /// Builds the sparse preference orders single-threaded, constructing a
    /// fresh taxi grid.
    ///
    /// # Panics
    ///
    /// Panics if `params` fail [`PreferenceParams::validate`].
    #[must_use]
    pub fn build<M: Metric>(
        metric: &M,
        params: &PreferenceParams,
        taxis: &[Taxi],
        requests: &[Request],
    ) -> Self {
        Self::build_with(
            metric,
            params,
            taxis,
            requests,
            Parallelism::sequential(),
            None,
        )
    }

    /// [`build`](Self::build) with a thread budget and an optional shared
    /// per-frame taxi grid (built once by the caller, e.g. the simulator,
    /// and reused across policies).
    ///
    /// Bit-identical for every `par` and for shared vs freshly-built grids
    /// (the grid only prefilters; all accepted/rejected decisions and all
    /// costs come from exact metric evaluations). The same code as
    /// [`build_incremental`](Self::build_incremental) with an empty carry.
    ///
    /// # Panics
    ///
    /// Panics if `params` fail [`PreferenceParams::validate`].
    #[must_use]
    pub fn build_with<M: Metric>(
        metric: &M,
        params: &PreferenceParams,
        taxis: &[Taxi],
        requests: &[Request],
        par: Parallelism,
        taxi_grid: Option<&GridIndex<usize>>,
    ) -> Self {
        Self::build_incremental(
            metric,
            params,
            taxis,
            requests,
            par,
            taxi_grid,
            &mut CandidateCarry::new(),
        )
    }

    /// [`build_with`](Self::build_with), patching the previous frame's
    /// candidate rows via `carry` instead of re-querying the grid and the
    /// metric for pairs that cannot have changed. Bit-identical to a
    /// carry-less build for every frame delta.
    ///
    /// A request carried unchanged (same id, bit-identical pick-up and
    /// drop-off, same party size) merges its old row's surviving entries
    /// with the changed taxis that qualify now; requests that are new or
    /// moved, and every request when the params changed or either frame's
    /// taxi ids are ambiguous (duplicates), take the fresh grid path.
    /// `carry` then holds this frame's arena for the next call. Records
    /// the `prefs.rows_fresh` / `prefs.rows_carried` counters and the
    /// `candidate_rows` / `list_filter` spans.
    ///
    /// # Panics
    ///
    /// Panics if `params` fail [`PreferenceParams::validate`]. Debug
    /// builds assert that `taxi_grid` holds one entry per taxi.
    #[must_use]
    pub fn build_incremental<M: Metric>(
        metric: &M,
        params: &PreferenceParams,
        taxis: &[Taxi],
        requests: &[Request],
        par: Parallelism,
        taxi_grid: Option<&GridIndex<usize>>,
        carry: &mut CandidateCarry,
    ) -> Self {
        let _span = obs::span("preference_build");
        params.validate().expect("invalid preference parameters");
        let owned;
        let grid = match taxi_grid {
            Some(g) => g,
            None => {
                owned = build_taxi_grid(taxis);
                &owned
            }
        };
        debug_assert_eq!(
            grid.len(),
            taxis.len(),
            "taxi grid does not match the taxi slice"
        );
        let n_r = requests.len();

        let part = {
            let _rows = obs::span("candidate_rows");
            let usable = carry.map_frame(params, taxis, requests);
            let pass = RowPass {
                metric,
                params,
                taxis,
                requests,
                grid,
                carry: usable.then_some(&*carry),
                entries_per_row: carry
                    .arena
                    .rows
                    .len()
                    .div_ceil(carry.arena.rows.rows().max(1)),
            };
            // Contiguous request ranges, one per worker; parts come back in
            // range order, so the arena is the same for every thread count.
            let mut parts = par_map_ranges(par, n_r, |range| pass.build(range)).into_iter();
            let mut all = parts.next().unwrap_or_default();
            for part in parts {
                all.rows.append(&part.rows);
                all.pickup.extend_from_slice(&part.pickup);
                all.trips.extend_from_slice(&part.trips);
                all.fresh += part.fresh;
            }
            all
        };
        obs::add_many(&[
            ("prefs.rows_fresh", part.fresh),
            ("prefs.rows_carried", n_r as u64 - part.fresh),
        ]);

        let _lists = obs::span("list_filter");
        let arena = CandidateArena {
            rows: Arc::new(part.rows),
            pickup: Arc::new(part.pickup),
        };
        let instance = StableInstance::keyed(Arc::clone(&arena.rows), taxis.len())
            .expect("arena rows are in range, duplicate-free and NaN-free");
        carry.store(params, taxis, requests, &arena, part.trips);
        SparsePreferenceModel { instance, arena }
    }

    /// Total number of candidate pairs — the sparse analogue of `|R|·|T|`;
    /// benchmark reports use the ratio as the pruning factor.
    #[must_use]
    pub fn candidate_count(&self) -> usize {
        self.arena.rows.len()
    }

    /// `D(t_i, r_j^s)` for each entry of request `j`'s list, in list
    /// order.
    #[must_use]
    pub fn pickup_costs(&self, request: usize) -> &[f64] {
        &self.arena.pickup[self.arena.rows.span(request)]
    }

    /// The driver score `D(t_i, r_j^s) − α·D(r_j^s, r_j^d)` for each entry
    /// of request `j`'s list, in list order.
    #[must_use]
    pub fn scores(&self, request: usize) -> &[f64] {
        self.arena.rows.keys(request)
    }

    /// `D(t_i, r_j^s)` for a pair on request `j`'s list, or `None` when
    /// the pair is not mutually acceptable.
    #[must_use]
    pub fn pickup(&self, request: usize, taxi: usize) -> Option<f64> {
        let k = self.instance.proposer_rank_of(request, taxi)?;
        Some(self.pickup_costs(request)[k as usize])
    }

    /// Driver score for a mutually acceptable pair, or `None` when the
    /// pair is not mutually acceptable.
    #[must_use]
    pub fn score(&self, taxi: usize, request: usize) -> Option<f64> {
        let k = self.instance.proposer_rank_of(request, taxi)?;
        Some(self.scores(request)[k as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use o2o_geo::{Euclidean, Point};
    use o2o_trace::{RequestId, TaxiId};
    use std::cmp::Ordering;

    fn taxi(id: u64, x: f64, y: f64) -> Taxi {
        Taxi::new(TaxiId(id), Point::new(x, y))
    }

    fn request(id: u64, sx: f64, sy: f64, dx: f64, dy: f64) -> Request {
        Request::new(RequestId(id), 0, Point::new(sx, sy), Point::new(dx, dy))
    }

    #[test]
    fn passenger_prefers_nearest_taxi() {
        let taxis = vec![taxi(0, 5.0, 0.0), taxi(1, 1.0, 0.0), taxi(2, 3.0, 0.0)];
        let requests = vec![request(0, 0.0, 0.0, 0.0, 10.0)];
        let m = PreferenceModel::build(
            &Euclidean,
            &PreferenceParams::unbounded(),
            &taxis,
            &requests,
        );
        assert_eq!(m.instance.proposer_list(0), &[1, 2, 0]);
    }

    #[test]
    fn driver_prefers_high_payoff() {
        // Two requests at the same pickup distance; the longer trip wins
        // (lower score = D − α·trip).
        let taxis = vec![taxi(0, 0.0, 0.0)];
        let requests = vec![
            request(0, 1.0, 0.0, 2.0, 0.0), // trip 1 km
            request(1, 0.0, 1.0, 0.0, 9.0), // trip 8 km
        ];
        let m = PreferenceModel::build(
            &Euclidean,
            &PreferenceParams::unbounded(),
            &taxis,
            &requests,
        );
        assert_eq!(m.instance.reviewer_list(0), &[1, 0]);
        assert_eq!(m.score[0][1], 1.0 - 8.0);
    }

    #[test]
    fn alpha_zero_makes_driver_rank_by_distance() {
        let taxis = vec![taxi(0, 0.0, 0.0)];
        let requests = vec![
            request(0, 2.0, 0.0, 2.0, 50.0), // nearer pickup, huge trip
            request(1, 1.0, 0.0, 1.0, 2.0),
        ];
        let params = PreferenceParams::unbounded().with_alpha(0.0);
        let m = PreferenceModel::build(&Euclidean, &params, &taxis, &requests);
        assert_eq!(m.instance.reviewer_list(0), &[1, 0]);
    }

    #[test]
    fn wait_threshold_truncates_passenger_list() {
        let taxis = vec![taxi(0, 1.0, 0.0), taxi(1, 20.0, 0.0)];
        let requests = vec![request(0, 0.0, 0.0, 5.0, 0.0)];
        let params = PreferenceParams::unbounded().with_passenger_threshold(10.0);
        let m = PreferenceModel::build(&Euclidean, &params, &taxis, &requests);
        assert_eq!(m.instance.proposer_list(0), &[0]);
    }

    #[test]
    fn taxi_threshold_truncates_driver_list() {
        let taxis = vec![taxi(0, 0.0, 0.0)];
        let requests = vec![
            request(0, 1.0, 0.0, 11.0, 0.0), // score 1 − 10 = −9
            request(1, 9.0, 0.0, 10.0, 0.0), // score 9 − 1 = 8
        ];
        let params = PreferenceParams::unbounded().with_taxi_threshold(0.0);
        let m = PreferenceModel::build(&Euclidean, &params, &taxis, &requests);
        assert_eq!(m.instance.reviewer_list(0), &[0]);
    }

    #[test]
    fn seat_constraint_excludes_both_sides() {
        let taxis = vec![Taxi::with_seats(TaxiId(0), Point::ORIGIN, 2)];
        let requests = vec![Request::with_party(
            RequestId(0),
            0,
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
            4,
        )];
        let m = PreferenceModel::build(
            &Euclidean,
            &PreferenceParams::unbounded(),
            &taxis,
            &requests,
        );
        assert!(m.instance.proposer_list(0).is_empty());
        assert!(m.instance.reviewer_list(0).is_empty());
    }

    #[test]
    fn empty_inputs_build() {
        let m = PreferenceModel::build(&Euclidean, &PreferenceParams::default(), &[], &[]);
        assert_eq!(m.instance.proposers(), 0);
        assert_eq!(m.instance.reviewers(), 0);
    }

    #[test]
    fn try_compute_matches_compute_on_clean_metrics() {
        let taxis: Vec<Taxi> = (0..8).map(|i| taxi(i, i as f64, 0.0)).collect();
        let requests: Vec<Request> = (0..30)
            .map(|j| request(j, j as f64 * 0.3, 1.0, 2.0, 5.0))
            .collect();
        for threads in [1, 4] {
            let par = Parallelism::fixed(threads);
            let plain = PickupDistances::compute(&Euclidean, &taxis, &requests, par);
            let tried = PickupDistances::try_compute(&Euclidean, &taxis, &requests, par).unwrap();
            assert_eq!(plain, tried, "threads = {threads}");
        }
    }

    #[test]
    fn try_compute_surfaces_metric_panics_as_errors() {
        #[derive(Debug)]
        struct Poisoned;
        impl Metric for Poisoned {
            fn distance(&self, a: Point, b: Point) -> f64 {
                // Poison on either argument: the batched kernel passes the
                // request pickup as the origin.
                assert!(
                    a.x < 100.0 && b.x < 100.0,
                    "metric poisoned at x = {}",
                    a.x.max(b.x)
                );
                Euclidean.distance(a, b)
            }
        }
        std::panic::set_hook(Box::new(|_| {}));
        let taxis = vec![taxi(0, 0.0, 0.0)];
        let requests: Vec<Request> = (0..40)
            .map(|j| request(j, if j == 25 { 200.0 } else { 1.0 }, 0.0, 2.0, 0.0))
            .collect();
        let err = PickupDistances::try_compute(&Poisoned, &taxis, &requests, Parallelism::fixed(4))
            .unwrap_err();
        let _ = std::panic::take_hook();
        assert_eq!(err.first_item, 25);
        assert!(err.message.contains("metric poisoned"));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "different metric")]
    fn mismatched_pickup_metric_is_caught_in_debug() {
        #[derive(Debug)]
        struct Doubled;
        impl Metric for Doubled {
            fn distance(&self, a: Point, b: Point) -> f64 {
                2.0 * Euclidean.distance(a, b)
            }
        }
        let taxis = vec![taxi(0, 3.0, 0.0)];
        let requests = vec![request(0, 0.0, 0.0, 0.0, 5.0)];
        let pd = PickupDistances::compute(&Euclidean, &taxis, &requests, Parallelism::sequential());
        let _ = PreferenceModel::build_with(
            &Doubled,
            &PreferenceParams::unbounded(),
            &taxis,
            &requests,
            Parallelism::sequential(),
            Some(&pd),
        );
    }

    #[test]
    fn sparse_lists_are_dense_lists_restricted_to_mutual_pairs() {
        let taxis: Vec<Taxi> = (0..12)
            .map(|i| {
                taxi(
                    i,
                    (i as f64 * 2.3) % 9.0 - 4.0,
                    (i as f64 * 1.7) % 8.0 - 4.0,
                )
            })
            .collect();
        let requests: Vec<Request> = (0..10)
            .map(|j| {
                request(
                    j,
                    (j as f64 * 3.1) % 8.0 - 4.0,
                    (j as f64 * 1.3) % 7.0 - 3.0,
                    (j as f64 * 2.9) % 9.0 - 4.5,
                    (j as f64 * 0.7) % 6.0 - 3.0,
                )
            })
            .collect();
        for params in [
            PreferenceParams::paper(),
            PreferenceParams::unbounded(),
            PreferenceParams::paper()
                .with_passenger_threshold(3.0)
                .with_taxi_threshold(0.5),
        ] {
            let dense = PreferenceModel::build(&Euclidean, &params, &taxis, &requests);
            let sparse = SparsePreferenceModel::build(&Euclidean, &params, &taxis, &requests);
            for j in 0..requests.len() {
                // Sparse passenger list = dense list minus entries the
                // taxi side rejects, order preserved; costs identical.
                let expect: Vec<usize> = dense
                    .instance
                    .proposer_list(j)
                    .iter()
                    .copied()
                    .filter(|&i| dense.instance.reviewer_rank_of(i, j).is_some())
                    .collect();
                assert_eq!(sparse.instance.proposer_list(j), expect.as_slice());
                for &i in sparse.instance.proposer_list(j) {
                    assert_eq!(sparse.pickup(j, i), Some(dense.pickup[j][i]));
                }
            }
            for i in 0..taxis.len() {
                let expect: Vec<usize> = dense
                    .instance
                    .reviewer_list(i)
                    .iter()
                    .copied()
                    .filter(|&j| dense.instance.proposer_rank_of(j, i).is_some())
                    .collect();
                assert_eq!(sparse.instance.reviewer_list(i), expect.as_slice());
                for &j in sparse.instance.reviewer_list(i) {
                    assert_eq!(sparse.score(i, j), Some(dense.score[i][j]));
                }
            }
            // And the headline algorithms agree exactly.
            assert_eq!(dense.instance.propose(), sparse.instance.propose());
            assert_eq!(
                dense.instance.reviewer_optimal(),
                sparse.instance.reviewer_optimal()
            );
        }
    }

    #[test]
    fn sparse_build_handles_empty_frames() {
        let params = PreferenceParams::paper();
        let m = SparsePreferenceModel::build(&Euclidean, &params, &[], &[]);
        assert_eq!(m.instance.proposers(), 0);
        assert_eq!(m.instance.reviewers(), 0);
        let taxis = vec![taxi(0, 0.0, 0.0)];
        let m = SparsePreferenceModel::build(&Euclidean, &params, &taxis, &[]);
        assert_eq!(m.instance.reviewers(), 1);
        assert!(m.instance.reviewer_list(0).is_empty());
        let requests = vec![request(0, 1.0, 0.0, 2.0, 0.0)];
        let m = SparsePreferenceModel::build(&Euclidean, &params, &[], &requests);
        assert_eq!(m.instance.proposers(), 1);
        assert!(m.instance.proposer_list(0).is_empty());
    }

    /// Asserts two sparse models hold the same lists and costs, bit for
    /// bit.
    fn assert_same_model(a: &SparsePreferenceModel, b: &SparsePreferenceModel, ctx: &str) {
        assert_eq!(a.instance.proposers(), b.instance.proposers(), "{ctx}");
        assert_eq!(a.instance.reviewers(), b.instance.reviewers(), "{ctx}");
        for j in 0..a.instance.proposers() {
            assert_eq!(
                a.instance.proposer_list(j),
                b.instance.proposer_list(j),
                "{ctx}: request {j}"
            );
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(a.pickup_costs(j)),
                bits(b.pickup_costs(j)),
                "{ctx}: request {j}"
            );
            assert_eq!(bits(a.scores(j)), bits(b.scores(j)), "{ctx}: request {j}");
        }
    }

    #[test]
    fn incremental_rows_match_fresh_compute_under_churn() {
        // Roll frames with every kind of delta — taxis moving, departing,
        // arriving, re-seating and swapping places in the slice; requests
        // replaced or re-partied — and pin the patched arena to a cold
        // build each frame.
        let params = PreferenceParams::paper();
        let mut taxis: Vec<Taxi> = (0..14)
            .map(|i| {
                taxi(
                    i,
                    (i as f64 * 2.3) % 9.0 - 4.0,
                    (i as f64 * 1.7) % 8.0 - 4.0,
                )
            })
            .collect();
        let mut requests: Vec<Request> = (0..10)
            .map(|j| {
                request(
                    j,
                    (j as f64 * 3.1) % 8.0 - 4.0,
                    (j as f64 * 1.3) % 7.0 - 3.0,
                    (j as f64 * 2.9) % 9.0 - 4.5,
                    (j as f64 * 0.7) % 6.0 - 3.0,
                )
            })
            .collect();
        let mut carry = CandidateCarry::new();
        for frame in 0..10 {
            let grid = build_taxi_grid(&taxis);
            let fresh = SparsePreferenceModel::build_with(
                &Euclidean,
                &params,
                &taxis,
                &requests,
                Parallelism::sequential(),
                Some(&grid),
            );
            let patched = SparsePreferenceModel::build_incremental(
                &Euclidean,
                &params,
                &taxis,
                &requests,
                Parallelism::sequential(),
                Some(&grid),
                &mut carry,
            );
            assert_same_model(&patched, &fresh, &format!("frame {frame}"));

            // Mutate for the next frame: move one taxi, drop one, add one,
            // replace one request.
            let k = frame % taxis.len();
            taxis[k].location = Point::new(frame as f64 - 2.0, 1.5 - frame as f64 * 0.5);
            taxis.remove((frame + 3) % taxis.len());
            taxis.push(taxi(
                14 + frame as u64,
                frame as f64 * 0.9 - 3.0,
                2.0 - frame as f64,
            ));
            let jr = frame % requests.len();
            requests[jr] = request(
                10 + frame as u64,
                frame as f64 * 1.1 - 3.0,
                2.5 - frame as f64 * 0.7,
                frame as f64 * 0.3,
                frame as f64 * 0.2 - 1.0,
            );
            match frame % 3 {
                // Reorder the slice: survivors change relative order.
                0 => taxis.swap(1, 5),
                // Same place, fewer seats; a bigger party.
                1 => {
                    taxis[2].seats = 1;
                    requests[3].passengers = 3;
                }
                _ => taxis.reverse(),
            }
        }
    }

    #[test]
    fn incremental_rows_handle_ties_and_co_located_taxis() {
        // Integer lattice: many equal pick-up distances, equal scores
        // across requests, and pairs of taxis at one point. The merge of
        // carried and admitted entries must order ties by taxi index
        // exactly like a cold build.
        let params = PreferenceParams::paper();
        let mut taxis: Vec<Taxi> = (0..16)
            .map(|i| taxi(i, f64::from((i % 4) as u8), f64::from((i / 4 % 2) as u8)))
            .collect();
        let requests: Vec<Request> = (0..8)
            .map(|j| {
                let x = f64::from((j % 3) as u8);
                request(j, x, 1.0, x + 2.0, 1.0)
            })
            .collect();
        let mut carry = CandidateCarry::new();
        for frame in 0..8usize {
            let grid = build_taxi_grid(&taxis);
            let fresh = SparsePreferenceModel::build(&Euclidean, &params, &taxis, &requests);
            let patched = SparsePreferenceModel::build_incremental(
                &Euclidean,
                &params,
                &taxis,
                &requests,
                Parallelism::sequential(),
                Some(&grid),
                &mut carry,
            );
            assert_same_model(&patched, &fresh, &format!("frame {frame}"));
            // Hop one taxi onto another lattice point each frame.
            let k = (frame * 5) % taxis.len();
            taxis[k].location = Point::new(f64::from((frame % 4) as u8), 0.0);
        }
    }

    #[test]
    fn incremental_rows_fall_back_on_param_change() {
        let taxis: Vec<Taxi> = (0..6).map(|i| taxi(i, i as f64 - 2.0, 0.5)).collect();
        let requests: Vec<Request> = (0..4)
            .map(|j| request(j, j as f64 - 1.0, -0.5, j as f64, 2.0))
            .collect();
        let grid = build_taxi_grid(&taxis);
        let mut carry = CandidateCarry::new();
        let a = PreferenceParams::paper();
        let b = PreferenceParams::paper().with_passenger_threshold(1.5);
        let _ = SparsePreferenceModel::build_incremental(
            &Euclidean,
            &a,
            &taxis,
            &requests,
            Parallelism::sequential(),
            Some(&grid),
            &mut carry,
        );
        // Same frame, different params: the carried rows (computed under
        // `a`'s radius and filters) must not leak into `b`'s rows.
        let rec = obs::Recorder::new();
        let patched = {
            let _scope = obs::scope(&rec);
            SparsePreferenceModel::build_incremental(
                &Euclidean,
                &b,
                &taxis,
                &requests,
                Parallelism::sequential(),
                Some(&grid),
                &mut carry,
            )
        };
        assert_eq!(rec.counter("prefs.rows_fresh"), 4);
        assert_eq!(rec.counter("prefs.rows_carried"), 0);
        let fresh = SparsePreferenceModel::build(&Euclidean, &b, &taxis, &requests);
        assert_same_model(&patched, &fresh, "param change");
    }

    /// The taxi lists as the pre-keyed builder made them: scatter each
    /// mutual `(request, score)` pair into its taxi's bucket in request
    /// order, then stable-sort each bucket by `(score, request)`.
    fn bucket_sorted_taxi_lists(m: &SparsePreferenceModel) -> Vec<Vec<usize>> {
        let mut buckets: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m.instance.reviewers()];
        for j in 0..m.instance.proposers() {
            for (&i, &score) in m.instance.proposer_list(j).iter().zip(m.scores(j)) {
                buckets[i].push((j, score));
            }
        }
        buckets
            .into_iter()
            .map(|mut bucket| {
                bucket.sort_by(|a, b| {
                    a.1.partial_cmp(&b.1)
                        .unwrap_or(Ordering::Equal)
                        .then(a.0.cmp(&b.0))
                });
                bucket.into_iter().map(|(j, _)| j).collect()
            })
            .collect()
    }

    #[test]
    fn lazy_taxi_lists_equal_bucket_sorted_lists() {
        // Lattice frame with equal scores across requests (same pick-up
        // distance, same trip), so ties must go to the lower request.
        let taxis: Vec<Taxi> = (0..9)
            .map(|i| taxi(i, f64::from((i % 3) as u8), f64::from((i / 3) as u8)))
            .chain((9..12).map(|i| taxi(i, 1.0, 1.0)))
            .collect();
        let requests: Vec<Request> = (0..10)
            .map(|j| {
                let (x, y) = (f64::from((j % 3) as u8), f64::from((j % 2) as u8));
                request(j, x, y, x, y + f64::from((j % 4) as u8))
            })
            .collect();
        for params in [
            PreferenceParams::paper(),
            PreferenceParams::unbounded(),
            PreferenceParams::paper().with_taxi_threshold(0.0),
        ] {
            let rec = obs::Recorder::new();
            let _scope = obs::scope(&rec);
            let m = SparsePreferenceModel::build(&Euclidean, &params, &taxis, &requests);
            // Passenger-optimal deferred acceptance never builds them.
            let _ = m.instance.propose();
            assert_eq!(rec.counter("match.taxi_side_built"), 0);
            let expect = bucket_sorted_taxi_lists(&m);
            for (i, list) in expect.iter().enumerate() {
                assert_eq!(m.instance.reviewer_list(i), list.as_slice(), "taxi {i}");
                for (k, &j) in list.iter().enumerate() {
                    assert_eq!(m.instance.reviewer_rank_of(i, j), Some(k as u32));
                }
            }
            // Built once, for the lists, the ranks and the role swap alike.
            let _ = m.instance.reviewer_optimal();
            let _ = m.instance.swapped();
            assert_eq!(rec.counter("match.taxi_side_built"), 1);
        }
    }

    #[test]
    fn matrices_have_expected_shapes() {
        let taxis = vec![taxi(0, 0.0, 0.0), taxi(1, 1.0, 1.0)];
        let requests = vec![request(0, 0.0, 1.0, 1.0, 1.0)];
        let m = PreferenceModel::build(&Euclidean, &PreferenceParams::default(), &taxis, &requests);
        assert_eq!(m.pickup.len(), 1);
        assert_eq!(m.pickup[0].len(), 2);
        assert_eq!(m.score.len(), 2);
        assert_eq!(m.score[0].len(), 1);
    }
}
