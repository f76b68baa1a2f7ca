//! The exactness check: served rows against `prj_core::naive_rank_join`
//! over the same generated data — tuple ids, score bits and order.

use crate::data::{self, Row};
use prj_api::ResultRow;
use prj_core::{naive_rank_join, EuclideanLogScore, ProblemBuilder};
use prj_engine::to_row;
use prj_geometry::Vector;

/// The exhaustive top-`k` of `relations` (catalog id, rows) at `point`.
pub fn naive_top_k(relations: &[(usize, &[Row])], point: [f64; 2], k: usize) -> Vec<ResultRow> {
    let mut builder = ProblemBuilder::new(Vector::from(point), EuclideanLogScore::default()).k(k);
    for (id, rows) in relations {
        builder = builder.relation_from_tuples(data::to_tuples(*id, rows));
    }
    let mut problem = builder.build().expect("oracle problem over generated data");
    naive_rank_join(&mut problem)
        .combinations
        .iter()
        .map(to_row)
        .collect()
}

/// `true` when both lists hold the same tuple ids with the same score bits
/// in the same order.
pub fn same_rows(served: &[ResultRow], expected: &[ResultRow]) -> bool {
    served.len() == expected.len()
        && served
            .iter()
            .zip(expected)
            .all(|(a, b)| a.score.to_bits() == b.score.to_bits() && a.tuples == b.tuples)
}

/// The cheap check every response gets, sampled or not: `k` rows in
/// non-increasing score order.
pub fn well_formed(rows: &[ResultRow], k: usize) -> bool {
    rows.len() == k && rows.windows(2).all(|w| w[0].score >= w[1].score)
}
