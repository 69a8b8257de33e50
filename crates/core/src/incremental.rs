//! Cross-frame incremental dispatch for the NSTD algorithms.
//!
//! A rolling frame loop re-solves almost the same stable-matching
//! instance every tick: most idle taxis did not move and most pending
//! requests carried over, so the previous frame's stable matching is an
//! excellent predictor of the next one. [`IncrementalState`] carries the
//! previous matching across frames as *stable identities*
//! (`RequestId`/`TaxiId`); each frame it is re-expressed in the current
//! frame's indices and handed to
//! [`StableInstance::propose_seeded`](o2o_matching::StableInstance::propose_seeded)
//! as a warm-start seed.
//!
//! Exactness does not depend on the carried pairs still being valid: the
//! seeded proposal path prunes the seed against the **current** frame's
//! preference lists (mutual acceptability, prefix justification,
//! acyclicity) before resuming deferred acceptance, so a stale pair —
//! a taxi that moved, a request whose candidates changed, anything — is
//! simply dropped and re-proposed cold. Warm and cold schedules are
//! bit-identical for every frame delta; the property suite in
//! `tests/warm_equivalence.rs` pins this the same way
//! `tests/sparse_equivalence.rs` pins sparse == dense.
//!
//! The state also carries the previous frame's sparse candidate rows
//! ([`crate::CandidateCarry`]): a request unchanged between frames patches
//! its row from the carry — dropping moved taxis, admitting moved-in ones
//! — instead of re-querying the grid and the metric for every stationary
//! taxi. The carry stores exact metric distances, so one
//! [`IncrementalState`] must stay with one dispatcher (one metric); the
//! params are revalidated per frame, and any id/position change falls back
//! to the fresh path.

use o2o_matching::{MatchScratch, Matching};
use o2o_trace::{Request, RequestId, Taxi, TaxiId};

/// Reusable per-frame working memory for the dispatch hot path.
///
/// Lives inside [`IncrementalState`] so it rides the same `&mut` channel
/// the warm-start seed already uses: the engine and the policies thread
/// one state per dispatcher across frames, and with it this arena. Once
/// its buffers have grown to the steady-state frame shape, the warm
/// dispatch path performs no heap allocation — the deferred-acceptance
/// buffers (proposal queues, partner arrays, matching pool) come from
/// `matcher`, the seed re-indexing from the carry's id maps, and the
/// sparse candidate rows from [`IncrementalState`]'s carry.
///
/// Purely a memory-placement concern: every result is bit-identical to
/// the allocating paths, pinned by `tests/warm_equivalence.rs`.
#[derive(Debug, Clone, Default)]
pub struct DispatchScratch {
    /// Pooled deferred-acceptance working memory (see
    /// [`o2o_matching::MatchScratch`]).
    pub(crate) matcher: MatchScratch,
    /// The current frame's warm seed, re-expressed in frame indices
    /// (refreshed by [`IncrementalState::refresh_seed`]).
    pub(crate) seed: Vec<(usize, usize)>,
}

/// Carries the previous frame's stable matching across frames as a
/// warm-start seed, keyed by stable identities so index churn between
/// frames (taxis leaving/entering the idle set, requests being served or
/// arriving) never mis-seeds a pair.
///
/// Also carries the previous frame's sparse candidate rows; because those
/// store exact metric distances, a state must only ever be fed to **one**
/// dispatcher (one metric). The seed pairs alone would tolerate a metric
/// change (they are revalidated), the rows would not.
#[derive(Debug, Clone, Default)]
pub struct IncrementalState {
    prev: Vec<(RequestId, TaxiId)>,
    /// Previous frame's sparse candidate rows (see
    /// [`crate::prefs::CandidateCarry`]): unchanged requests patch their
    /// candidate row from here instead of re-querying the grid and the
    /// metric for every stationary taxi.
    pub(crate) rows: crate::prefs::CandidateCarry,
    /// Reusable hot-path working memory (see [`DispatchScratch`]). Not
    /// cleared by [`IncrementalState::clear`]: it carries no matching
    /// *content*, only buffer capacity.
    pub(crate) scratch: DispatchScratch,
}

impl IncrementalState {
    /// An empty state (the first frame runs cold).
    #[must_use]
    pub fn new() -> Self {
        IncrementalState::default()
    }

    /// Forgets the carried matching and candidate rows (the next frame
    /// runs cold).
    pub fn clear(&mut self) {
        self.prev.clear();
        self.rows.clear();
    }

    /// The carried `(request, taxi)` pairs from the previous frame.
    #[must_use]
    pub fn carried_pairs(&self) -> &[(RequestId, TaxiId)] {
        &self.prev
    }

    /// Re-expresses the carried matching in the current frame's indices,
    /// into the scratch arena's seed buffer (`self.scratch.seed`), through
    /// the id maps the candidate carry built for this frame — so it must
    /// run after this frame's
    /// [`SparsePreferenceModel::build_incremental`](crate::SparsePreferenceModel::build_incremental)
    /// on `self.rows`. Pairs whose request or taxi is no longer in the
    /// frame are dropped here; pairs whose *preferences* changed are
    /// dropped later by the seeded proposal path's own validation.
    pub(crate) fn refresh_seed(&mut self) {
        let rows = &self.rows;
        let seed = &mut self.scratch.seed;
        seed.clear();
        seed.extend(
            self.prev
                .iter()
                .filter_map(|&(rid, tid)| Some((rows.request_index(rid)?, rows.taxi_index(tid)?))),
        );
    }

    /// Stores this frame's matching (in frame indices) for the next frame.
    pub(crate) fn record(&mut self, taxis: &[Taxi], requests: &[Request], m: &Matching) {
        self.prev.clear();
        self.prev
            .extend(m.pairs().map(|(j, i)| (requests[j].id, taxis[i].id)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PreferenceParams, SparsePreferenceModel};
    use o2o_geo::{Euclidean, Point};
    use o2o_par::Parallelism;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    /// The re-expression rule the warm seed must keep: fresh id → index
    /// maps of the current frame, the last index winning for duplicate
    /// ids.
    fn map_rule(
        prev: &[(RequestId, TaxiId)],
        taxis: &[Taxi],
        requests: &[Request],
    ) -> Vec<(usize, usize)> {
        let taxi_at: HashMap<TaxiId, usize> =
            taxis.iter().enumerate().map(|(i, t)| (t.id, i)).collect();
        let request_at: HashMap<RequestId, usize> = requests
            .iter()
            .enumerate()
            .map(|(j, r)| (r.id, j))
            .collect();
        prev.iter()
            .filter_map(|(r, t)| Some((*request_at.get(r)?, *taxi_at.get(t)?)))
            .collect()
    }

    #[test]
    fn seed_re_expression_matches_the_map_rule_under_churn_and_duplicate_ids() {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let params = PreferenceParams::unbounded();
        let mut state = IncrementalState::new();
        let (mut seeded, mut duplicated) = (0, 0);
        for frame in 0..60 {
            // Ids from a small pool: consecutive frames share some ids,
            // drop others, and repeat ids within one frame.
            let pt =
                |rng: &mut StdRng| Point::new(rng.gen_range(0.0..5.0), rng.gen_range(0.0..5.0));
            let taxis: Vec<Taxi> = (0..frame % 7 + 1)
                .map(|_| Taxi::new(TaxiId(rng.gen_range(0..9)), pt(&mut rng)))
                .collect();
            let requests: Vec<Request> = (0..frame % 5 + 1)
                .map(|_| {
                    let id = RequestId(rng.gen_range(0..9));
                    Request::new(id, 0, pt(&mut rng), pt(&mut rng))
                })
                .collect();
            let _ = SparsePreferenceModel::build_incremental(
                &Euclidean,
                &params,
                &taxis,
                &requests,
                Parallelism::sequential(),
                None,
                &mut state.rows,
            );
            state.refresh_seed();
            let expected = map_rule(&state.prev, &taxis, &requests);
            assert_eq!(state.scratch.seed, expected, "frame {frame}");
            seeded += usize::from(!expected.is_empty());
            let distinct: std::collections::HashSet<_> = taxis.iter().map(|t| t.id).collect();
            duplicated += usize::from(distinct.len() < taxis.len());
            // Carry an arbitrary one-to-one matching to the next frame.
            let (nr, nt) = (requests.len(), taxis.len());
            let mut m = Matching::empty(nr, nt);
            for j in 0..nr.min(nt) {
                m.link(j, (j + frame) % nt);
            }
            state.record(&taxis, &requests, &m);
        }
        assert!(
            seeded > 10 && duplicated > 10,
            "{seeded} seeded, {duplicated} duplicated"
        );
    }
}
