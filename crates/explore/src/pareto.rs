//! Pareto-front selection over exploration results.
//!
//! Architecture exploration rarely has a single winner: a crossbar may be
//! fastest but cost the most wires; TDMA bounds worst-case latency but
//! wastes bandwidth. [`pareto_front`] extracts the non-dominated subset of a
//! [`Report`] under caller-chosen objectives, and
//! [`ParetoSet`] maintains the same non-dominated subset *incrementally* —
//! the archive a pruning sweep streams candidate cost vectors into.
//!
//! # NaN policy
//!
//! A cost involving NaN (e.g. a mean over zero samples) must not silently
//! pollute a front: IEEE comparisons with NaN are false both ways, so under
//! naive dominance a NaN vector is never dominated and always "survives".
//! The policy here is **NaN loses**:
//!
//! * in [`dominates`], a NaN component is treated as *worse than every
//!   finite value* (and tied with another NaN), so a vector containing NaN
//!   never dominates anything through that component;
//! * [`pareto_front`] and [`ParetoSet`] additionally **filter** cost vectors
//!   containing NaN — they are never part of a front, even when nothing
//!   finite is around to dominate them.

use crate::metrics::{Report, RunMetrics};

/// A cost vector: every component is minimized.
pub type Costs = Vec<f64>;

fn has_nan(c: &[f64]) -> bool {
    c.iter().any(|v| v.is_nan())
}

/// `true` when `a` dominates `b`: no worse in every objective and strictly
/// better in at least one. NaN components lose: they are worse than every
/// finite value and tie with other NaNs (see the module-level NaN policy),
/// so a vector containing NaN can never dominate.
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    assert_eq!(a.len(), b.len(), "cost vectors must have equal arity");
    let mut strictly_better = false;
    for (x, y) in a.iter().zip(b) {
        match (x.is_nan(), y.is_nan()) {
            (true, true) => {}                       // equally bad
            (true, false) => return false,           // a is worse here
            (false, true) => strictly_better = true, // NaN loses
            (false, false) => {
                if x > y {
                    return false;
                }
                if x < y {
                    strictly_better = true;
                }
            }
        }
    }
    strictly_better
}

/// Returns the indices of the non-dominated rows under `objectives`
/// (each objective value is minimized). Indices preserve input order; rows
/// whose cost vector contains NaN are excluded (NaN loses).
///
/// Two-objective inputs take an `O(n log n)` sort-and-scan path; other
/// arities use an incremental archive that is `O(n · front_size)` — far
/// below the old all-pairs `O(n²)` scan whenever most rows are dominated,
/// which keeps [`report_front`] sub-second on 10k-row reports.
///
/// `objectives` may return any `AsRef<[f64]>` — a `[f64; 2]` avoids the
/// per-row `Vec` allocation that the `Costs` alias implies.
pub fn pareto_front<T, C, F>(rows: &[T], mut objectives: F) -> Vec<usize>
where
    C: AsRef<[f64]>,
    F: FnMut(&T) -> C,
{
    let costs: Vec<C> = rows.iter().map(&mut objectives).collect();
    if costs.iter().all(|c| c.as_ref().len() == 2) {
        return front_2d(&costs);
    }
    let mut front: Vec<usize> = Vec::new();
    for (i, c) in costs.iter().enumerate() {
        let c = c.as_ref();
        if has_nan(c) {
            continue;
        }
        if front.iter().any(|&j| dominates(costs[j].as_ref(), c)) {
            continue;
        }
        front.retain(|&j| !dominates(c, costs[j].as_ref()));
        front.push(i);
    }
    front
}

/// Exact two-objective front in `O(n log n)`: sort by `(x, y)` ascending,
/// then a point survives iff it has the minimal `y` of its `x` group and
/// that `y` undercuts every strictly-smaller `x`.
fn front_2d<C: AsRef<[f64]>>(costs: &[C]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..costs.len())
        .filter(|&i| !has_nan(costs[i].as_ref()))
        .collect();
    idx.sort_by(|&a, &b| {
        let (ca, cb) = (costs[a].as_ref(), costs[b].as_ref());
        ca[0]
            .total_cmp(&cb[0])
            .then(ca[1].total_cmp(&cb[1]))
            .then(a.cmp(&b))
    });
    let mut out = Vec::new();
    let mut best_y_before = f64::INFINITY; // min y over strictly smaller x
    let mut g = 0;
    while g < idx.len() {
        let x = costs[idx[g]].as_ref()[0];
        let mut h = g;
        while h < idx.len() && costs[idx[h]].as_ref()[0] == x {
            h += 1;
        }
        let y_min = costs[idx[g]].as_ref()[1]; // group is sorted by y
        if y_min < best_y_before {
            out.extend(idx[g..h].iter().filter(|&&i| costs[i].as_ref()[1] == y_min));
        }
        best_y_before = best_y_before.min(y_min);
        g = h;
    }
    out.sort_unstable(); // restore input order
    out
}

/// An incremental non-dominated archive: the streaming counterpart of
/// [`pareto_front`], used by pruning sweeps to decide whether a queued
/// candidate can still matter before paying for its simulation.
///
/// Inserting `n` vectors costs `O(n · front_size)` total; membership stays
/// exactly the non-dominated subset of everything inserted so far. Vectors
/// containing NaN are rejected (NaN loses; see the module NaN policy).
#[derive(Debug, Clone, Default)]
pub struct ParetoSet {
    points: Vec<Costs>,
}

impl ParetoSet {
    /// Creates an empty archive.
    pub fn new() -> Self {
        ParetoSet::default()
    }

    /// `true` when some archived vector dominates `c`.
    pub fn is_dominated(&self, c: &[f64]) -> bool {
        self.points.iter().any(|p| dominates(p, c))
    }

    /// Offers `c` to the archive. Returns `true` when `c` was admitted
    /// (it is currently non-dominated); admitted vectors evict any archived
    /// vectors they dominate. Vectors containing NaN are rejected outright.
    pub fn insert(&mut self, c: Costs) -> bool {
        if has_nan(&c) || self.is_dominated(&c) {
            return false;
        }
        self.points.retain(|p| !dominates(&c, p));
        self.points.push(c);
        true
    }

    /// The current non-dominated vectors, in admission order.
    pub fn points(&self) -> &[Costs] {
        &self.points
    }

    /// Number of archived vectors.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when nothing has been admitted yet.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// Convenience: the Pareto front of an exploration report under
/// (total simulated time, mean arbitration wait), the two costs a
/// communication architect usually trades. Rows without bus statistics
/// (untimed baselines) are excluded, as are rows with NaN costs.
///
/// Allocation-free per row (fixed-arity cost vectors) and `O(n log n)` in
/// the row count, so 10k-row reports stay well under a second.
pub fn report_front(report: &Report) -> Vec<&RunMetrics> {
    let timed: Vec<&RunMetrics> = report.rows().iter().filter(|r| r.bus.is_some()).collect();
    let idx = pareto_front(&timed, |r| {
        [
            r.sim_time.as_ps() as f64,
            r.bus.as_ref().map(|b| b.wait_cycles.mean()).unwrap_or(0.0),
        ]
    });
    idx.into_iter().map(|i| timed[i]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominates_is_strict() {
        assert!(dominates(&[1.0, 1.0], &[2.0, 1.0]));
        assert!(dominates(&[1.0, 0.5], &[2.0, 1.0]));
        assert!(!dominates(&[1.0, 1.0], &[1.0, 1.0])); // equal: no
        assert!(!dominates(&[1.0, 2.0], &[2.0, 1.0])); // trade-off
    }

    #[test]
    #[should_panic(expected = "equal arity")]
    fn mismatched_arity_panics() {
        let _ = dominates(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn front_of_tradeoff_keeps_both() {
        let rows = [(1.0, 9.0), (9.0, 1.0), (5.0, 5.0), (9.0, 9.0)];
        let front = pareto_front(&rows, |&(a, b)| vec![a, b]);
        assert_eq!(front, vec![0, 1, 2]);
    }

    #[test]
    fn front_of_dominated_chain_is_singleton() {
        let rows = [(3.0, 3.0), (2.0, 2.0), (1.0, 1.0)];
        let front = pareto_front(&rows, |&(a, b)| vec![a, b]);
        assert_eq!(front, vec![2]);
    }

    #[test]
    fn duplicates_all_survive() {
        // Equal points do not dominate each other; both stay.
        let rows = [(1.0, 1.0), (1.0, 1.0)];
        let front = pareto_front(&rows, |&(a, b)| vec![a, b]);
        assert_eq!(front, vec![0, 1]);
    }

    #[test]
    fn empty_input_is_empty_front() {
        let rows: [(f64, f64); 0] = [];
        assert!(pareto_front(&rows, |&(a, b)| vec![a, b]).is_empty());
    }

    // --- NaN policy -------------------------------------------------------

    #[test]
    fn nan_never_dominates() {
        assert!(!dominates(&[f64::NAN, 0.0], &[1.0, 1.0]));
        assert!(!dominates(&[f64::NAN], &[f64::NAN]));
    }

    #[test]
    fn finite_dominates_nan() {
        // NaN is worse than any finite value in that component.
        assert!(dominates(&[1.0, 1.0], &[1.0, f64::NAN]));
        assert!(dominates(&[5.0], &[f64::NAN]));
        // ...but not when `a` is worse elsewhere.
        assert!(!dominates(&[2.0, 1.0], &[1.0, f64::NAN]));
    }

    #[test]
    fn nan_rows_are_filtered_from_fronts() {
        // Regression: NaN compares false both ways, so a NaN row used to
        // survive every dominance check and pollute the front.
        let rows = [(1.0, 1.0), (f64::NAN, 0.0), (0.5, f64::NAN), (2.0, 2.0)];
        let front = pareto_front(&rows, |&(a, b)| vec![a, b]);
        assert_eq!(front, vec![0], "only the finite non-dominated row stays");
        // Even with no finite row at all, NaN rows never form a front.
        let rows = [(f64::NAN, 1.0), (f64::NAN, f64::NAN)];
        assert!(pareto_front(&rows, |&(a, b)| vec![a, b]).is_empty());
    }

    #[test]
    fn pareto_set_rejects_nan() {
        let mut set = ParetoSet::new();
        assert!(!set.insert(vec![f64::NAN, 1.0]));
        assert!(set.is_empty());
        assert!(set.insert(vec![1.0, 1.0]));
        assert!(!set.insert(vec![2.0, f64::NAN]));
        assert_eq!(set.len(), 1);
    }

    // --- incremental archive ---------------------------------------------

    #[test]
    fn pareto_set_tracks_the_front_incrementally() {
        let mut set = ParetoSet::new();
        assert!(set.insert(vec![5.0, 5.0]));
        assert!(set.insert(vec![1.0, 9.0]));
        assert!(!set.insert(vec![6.0, 6.0]), "dominated on arrival");
        assert!(set.is_dominated(&[5.5, 5.0]));
        assert!(!set.is_dominated(&[4.9, 5.0]));
        // A new point evicts what it dominates.
        assert!(set.insert(vec![4.0, 4.0]));
        assert_eq!(set.len(), 2, "(5,5) evicted, (1,9) stays");
        assert!(set.points().iter().all(|p| p != &vec![5.0, 5.0]));
    }

    #[test]
    fn pareto_set_matches_batch_front() {
        // The archive after streaming equals the batch front of the stream.
        let pts: Vec<(f64, f64)> = (0..500)
            .map(|i| {
                let x = ((i * 7919) % 101) as f64;
                let y = ((i * 104729) % 97) as f64;
                (x, y)
            })
            .collect();
        let mut set = ParetoSet::new();
        for &(x, y) in &pts {
            set.insert(vec![x, y]);
        }
        let batch: Vec<Costs> = pareto_front(&pts, |&(a, b)| vec![a, b])
            .into_iter()
            .map(|i| vec![pts[i].0, pts[i].1])
            .collect();
        let mut archived: Vec<Costs> = set.points().to_vec();
        let mut batch = batch;
        // Duplicate points: the batch front keeps all copies, the archive
        // keeps one; compare deduplicated sets.
        archived.sort_by(|a, b| a.partial_cmp(b).unwrap());
        archived.dedup();
        batch.sort_by(|a, b| a.partial_cmp(b).unwrap());
        batch.dedup();
        assert_eq!(archived, batch);
    }

    // --- scale ------------------------------------------------------------

    #[test]
    fn three_objective_front_uses_archive_path() {
        let rows = [
            (1.0, 9.0, 9.0),
            (9.0, 1.0, 9.0),
            (9.0, 9.0, 1.0),
            (9.0, 9.0, 9.0), // dominated by (1,9,9)
            (2.0, 2.0, 2.0),
        ];
        let front = pareto_front(&rows, |&(a, b, c)| vec![a, b, c]);
        assert_eq!(front, vec![0, 1, 2, 4]);
    }

    #[test]
    fn ten_thousand_row_front_is_fast_and_correct() {
        // Regression for the O(n²) all-pairs scan: 10k rows must complete
        // quickly (sub-second in release; the generous bound below only
        // catches a return to quadratic blowup in debug CI).
        let pts: Vec<(f64, f64)> = (0..10_000)
            .map(|i| {
                let x = ((i * 48271) % 65537) as f64;
                let y = ((i * 16807) % 65521) as f64;
                (x, y)
            })
            .collect();
        let t0 = std::time::Instant::now();
        let front = pareto_front(&pts, |&(a, b)| [a, b]);
        let elapsed = t0.elapsed();
        assert!(!front.is_empty());
        // Every front member must be non-dominated against the full input —
        // verifying the fast path against the definition.
        for &i in &front {
            let c = [pts[i].0, pts[i].1];
            assert!(
                !pts.iter().any(|&(a, b)| dominates(&[a, b], &c)),
                "front member {i} is dominated"
            );
        }
        // And spot-check completeness: no excluded row may be non-dominated.
        for (i, &(a, b)) in pts.iter().enumerate().step_by(97) {
            if front.binary_search(&i).is_ok() {
                continue;
            }
            assert!(
                pts.iter().any(|&(x, y)| dominates(&[x, y], &[a, b])),
                "row {i} was excluded but is non-dominated"
            );
        }
        assert!(
            elapsed < std::time::Duration::from_secs(5),
            "10k-point front took {elapsed:?} — quadratic scan is back"
        );
    }
}
