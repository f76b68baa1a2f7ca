//! Seeded inputs: relation pairs, query points and request sequences.
//!
//! The relation generator mirrors `prj_bench::macrobench`'s private
//! `generate` (same shapes, same RNG stream per `(seed, shape)`), so a seed
//! here names the same data the macrobench lanes use at that seed and size.
//! Everything a run sends is a pure function of `--seed` and a request
//! index, so both clients of a closed loop can draw from one shared counter
//! and any request can be regenerated later for the oracle check.

use prj_access::{Tuple, TupleId};
use prj_geometry::Vector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generator seed of the served relations (`MacroBenchConfig`'s default).
pub const DATA_SEED: u64 = 42;

/// Tuples per relation in every workload.
pub const RELATION_SIZE: usize = 1000;

/// The three data shapes, one relation pair each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Points uniform in `[-3, 3]^2`, scores uniform in `(0, 1]`.
    Uniform,
    /// Points around three cluster centres, uniform scores.
    Clustered,
    /// Uniform points, scores skewed towards 0 (`u^4`).
    ScoreSkewed,
}

impl Shape {
    /// Every shape, in pair order.
    pub const ALL: [Shape; 3] = [Shape::Uniform, Shape::Clustered, Shape::ScoreSkewed];

    fn salt(self) -> u64 {
        match self {
            Shape::Uniform => 0,
            Shape::Clustered => 1,
            Shape::ScoreSkewed => 2,
        }
    }
}

/// One generated row: coordinates and score.
pub type Row = ([f64; 2], f64);

/// The two relations of one shape's pair, `size` rows each.
pub fn generate_pair(seed: u64, shape: Shape, size: usize) -> [Vec<Row>; 2] {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(shape.salt()));
    let centres: Vec<[f64; 2]> = (0..3)
        .map(|_| [rng.random_range(-2.5..2.5), rng.random_range(-2.5..2.5)])
        .collect();
    let mut relation = |rel: usize| -> Vec<Row> {
        (0..size)
            .map(|i| {
                let point = match shape {
                    Shape::Uniform | Shape::ScoreSkewed => {
                        [rng.random_range(-3.0..3.0), rng.random_range(-3.0..3.0)]
                    }
                    Shape::Clustered => {
                        let c = centres[(i + rel) % centres.len()];
                        [
                            c[0] + rng.random_range(-0.3..0.3),
                            c[1] + rng.random_range(-0.3..0.3),
                        ]
                    }
                };
                let u: f64 = rng.random_range(0.0..1.0);
                let score = match shape {
                    Shape::ScoreSkewed => u * u * u * u + 1e-3,
                    _ => u + 1e-3,
                };
                (point, score)
            })
            .collect()
    };
    let first = relation(0);
    let second = relation(1);
    [first, second]
}

/// Rows as catalog tuples of relation `relation` (ids `0..rows.len()`, the
/// ids registration over the wire assigns).
pub fn to_tuples(relation: usize, rows: &[Row]) -> Vec<Tuple> {
    rows.iter()
        .enumerate()
        .map(|(i, (p, s))| Tuple::new(TupleId::new(relation, i), Vector::from(*p), *s))
        .collect()
}

/// An RNG for item `index` of stream `stream` under `seed`: every request,
/// point and batch is regenerable from its index alone.
pub fn item_rng(seed: u64, stream: u64, index: u64) -> StdRng {
    let mixed = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(index.wrapping_mul(0x94D0_49BB_1331_11EB));
    StdRng::seed_from_u64(mixed)
}

/// A query point uniform in `[-2, 2]^2`; distinct indices give distinct
/// points (with overwhelming probability), so cold requests never repeat.
pub fn point(seed: u64, stream: u64, index: u64) -> [f64; 2] {
    let mut rng = item_rng(seed, stream, index);
    [rng.random_range(-2.0..2.0), rng.random_range(-2.0..2.0)]
}

/// Requests per block of the read order; see [`read_order`].
pub const READ_BLOCK: u64 = 96;

/// The logical read behind request `i`: a seeded permutation within
/// consecutive blocks of [`READ_BLOCK`] requests. Every run therefore
/// issues the same reads block by block, only in a seed-dependent order.
/// Per-query cost varies by orders of magnitude across the plane on the
/// clustered pair, so with seed-dependent points the mean cost of a run
/// moved by about 14% between seeds; a shared point set removes that.
pub fn read_order(seed: u64, i: u64) -> u64 {
    // j -> (a*j + b) mod 96 is a bijection when a is coprime with 96.
    const UNITS: [u64; 8] = [1, 5, 7, 11, 13, 17, 19, 23];
    let block = i / READ_BLOCK;
    let mut rng = item_rng(seed, streams::READ, block);
    let a = UNITS[rng.random_range(0..UNITS.len())];
    let b = rng.random_range(0..READ_BLOCK);
    block * READ_BLOCK + (a * (i % READ_BLOCK) + b) % READ_BLOCK
}

/// Point of logical read `r`: the quasi-random R2 sequence over
/// `[-2, 2]^2`, which covers the square evenly in every block; distinct
/// reads get distinct points, so cold reads never repeat.
pub fn read_point(r: u64) -> [f64; 2] {
    const ALPHA: [f64; 2] = [0.754_877_666_246_692_7, 0.569_840_290_998_053_3];
    let n = r as f64 + 1.0;
    [
        -2.0 + 4.0 * (0.5 + n * ALPHA[0]).fract(),
        -2.0 + 4.0 * (0.5 + n * ALPHA[1]).fract(),
    ]
}

/// Stream ids keeping the point families of a run disjoint.
pub mod streams {
    /// `topk-cold` and `ingest-notify` read order.
    pub const READ: u64 = 1;
    /// `topk-hot` key points.
    pub const HOT_KEY: u64 = 3;
    /// `topk-hot` Zipf draws.
    pub const HOT_DRAW: u64 = 4;
    /// Append batches.
    pub const BATCH: u64 = 5;
}

/// A Zipf(1) sampler over `n` ranks by inverse-CDF lookup.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Ranks `0..n`, rank `r` drawn with weight `1 / (r + 1)`.
    pub fn new(n: usize) -> Zipf {
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                total += 1.0 / (r as f64 + 1.0);
                total
            })
            .collect();
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// The rank for a uniform draw `u` in `[0, 1)`.
    pub fn rank(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// A seeded permutation of `0..n` (Fisher-Yates).
pub fn permutation(seed: u64, stream: u64, n: usize) -> Vec<usize> {
    let mut rng = item_rng(seed, stream, u64::MAX);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0..i + 1);
        order.swap(i, j);
    }
    order
}

/// Append batch `m` of a writer: `size - 1` rows drawn like the uniform
/// shape plus, last, one row exactly at `target` with a score just under
/// 1.0 that grows with `m`. At the query point itself its best combination
/// enters that subscriber's top-K, and it outranks every earlier targeted
/// row there, however often the subscriber was targeted before. (Rows
/// nudged a little further off the point on each visit stopped entering
/// after a few visits; scores above 1.0 made every targeted row enter
/// more neighbours' top-K as a run went on.)
pub fn append_batch(seed: u64, m: u64, size: usize, target: [f64; 2]) -> Vec<Row> {
    let mut rng = item_rng(seed, streams::BATCH, m);
    let mut rows: Vec<Row> = (0..size.saturating_sub(1))
        .map(|_| {
            let p = [rng.random_range(-3.0..3.0), rng.random_range(-3.0..3.0)];
            (p, rng.random_range(0.0..1.0) + 1e-3)
        })
        .collect();
    rows.push((target, 1.0 - 1e-6 / (m as f64 + 1.0)));
    rows
}
