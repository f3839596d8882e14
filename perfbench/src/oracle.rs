//! Ground truth for the read-only workloads, computed with the
//! `common::brute_force` reference scans outside every timed section.

use crate::rung::Answer;
use bench::netload::NetOp;
use common::brute_force;
use geom::Point;

/// The brute-force answer to one read op.
pub enum Truth {
    /// Ids stored exactly at the queried location (any one is a hit).
    Point(Vec<u64>),
    /// Window or range ids, sorted.
    Ids(Vec<u64>),
    /// The true k nearest neighbours, closest first (ties by id).
    Knn(Vec<Point>),
    /// `(indexed id, probe id)` pairs, sorted.
    Pairs(Vec<(u64, u64)>),
}

/// The oracle's answer to `op` over `data` (read ops only).
pub fn truth(data: &[Point], op: &NetOp) -> Truth {
    let sorted_ids = |pts: Vec<Point>| {
        let mut ids: Vec<u64> = pts.iter().map(|p| p.id).collect();
        ids.sort_unstable();
        ids
    };
    match op {
        NetOp::Point(q) => Truth::Point(sorted_ids(brute_force::range_query(data, q, 0.0))),
        NetOp::Window(w) => Truth::Ids(sorted_ids(brute_force::window_query(data, w))),
        NetOp::Knn(q, k) => {
            // The k nearest lie within any radius that holds k points, so a
            // range scan narrows the full sort to a small candidate set.
            let k = *k as usize;
            let mut r = 0.004;
            let candidates = loop {
                let c = brute_force::range_query(data, q, r);
                if c.len() >= k || r > 2.0 {
                    break c;
                }
                r *= 2.0;
            };
            Truth::Knn(brute_force::knn_query(&candidates, q, k))
        }
        NetOp::Range(c, r) => Truth::Ids(sorted_ids(brute_force::range_query(data, c, *r))),
        NetOp::Join(probes, r) => {
            let mut pairs: Vec<(u64, u64)> = brute_force::distance_join(data, probes, *r)
                .iter()
                .map(|(p, q)| (p.id, q.id))
                .collect();
            pairs.sort_unstable();
            Truth::Pairs(pairs)
        }
        NetOp::Insert(_) | NetOp::Delete(_) => unreachable!("the oracle answers reads only"),
    }
}

/// The verdict on one answer.
pub struct Verdict {
    /// Whether the answer is acceptable.
    pub ok: bool,
    /// Oracle results the answer returned (window and kNN; for recall).
    pub found: usize,
    /// Oracle results (window and kNN; for recall).
    pub expected: usize,
}

/// Checks `answer` against `truth`.  With `exact`, window and kNN answers
/// must equal the oracle's; otherwise (the approximate RSMI) a window
/// answer must be a subset of the oracle's, and a kNN answer must hold k
/// distinct stored points, closest first.  Point, range and join answers
/// are exact for every kind.  `data[id]` must be the point with that id.
pub fn check(data: &[Point], op: &NetOp, answer: &Answer, truth: &Truth, exact: bool) -> Verdict {
    let mut v = Verdict {
        ok: false,
        found: 0,
        expected: 0,
    };
    match (answer, truth) {
        (Answer::Point(hit), Truth::Point(ids)) => {
            v.ok = match hit {
                Some(id) => ids.binary_search(id).is_ok(),
                None => ids.is_empty(),
            };
        }
        (Answer::Ids(got), Truth::Ids(want)) => {
            let mut got = got.clone();
            got.sort_unstable();
            if matches!(op, NetOp::Window(_)) {
                let distinct = got.windows(2).all(|w| w[0] < w[1]);
                let subset = got.iter().all(|id| want.binary_search(id).is_ok());
                v.ok = if exact {
                    got == *want
                } else {
                    distinct && subset
                };
                v.found = if v.ok { got.len() } else { 0 };
                v.expected = want.len();
            } else {
                v.ok = got == *want;
            }
        }
        (Answer::Knn(got), Truth::Knn(want)) => {
            let NetOp::Knn(q, _) = op else {
                return v;
            };
            v.expected = want.len();
            v.ok = if exact {
                got.iter().map(|p| p.id).eq(want.iter().map(|p| p.id))
            } else {
                let mut ids: Vec<u64> = got.iter().map(|p| p.id).collect();
                ids.sort_unstable();
                let distinct = ids.windows(2).all(|w| w[0] < w[1]);
                let stored = got.iter().all(|p| {
                    data.get(p.id as usize)
                        .is_some_and(|s| s.id == p.id && s.same_location(p))
                });
                let ordered = got.windows(2).all(|w| w[0].dist_sq(q) <= w[1].dist_sq(q));
                got.len() == want.len() && distinct && stored && ordered
            };
            if v.ok {
                let recall = common::metrics::knn_recall(got, want, q, want.len());
                v.found = (recall * want.len() as f64).round() as usize;
            }
        }
        (Answer::Pairs(got), Truth::Pairs(want)) => {
            let mut got = got.clone();
            got.sort_unstable();
            v.ok = got == *want;
        }
        _ => {}
    }
    v
}
