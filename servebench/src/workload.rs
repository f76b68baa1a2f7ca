//! The three workloads: what each registers, reads and writes.

use crate::data::{self, streams, Shape, Zipf};

/// Standing queries per run (all on the uniform pair, on the writer
/// connection).
pub const SUBSCRIPTIONS: usize = 32;
/// Tuples per `AppendTuples` batch; the last one is targeted.
pub const BATCH: usize = 8;
/// `k` of standing queries and of cold/ingest reads.
pub const READ_K: usize = 8;
/// `k` of `topk-hot` reads.
pub const HOT_K: usize = 64;
/// Hot keys per relation pair. 32 rather than 256: a clustered key at
/// k=64 costs about 300 ms to compute, so warming 768 keys took 46 s per
/// served run and a trace run warms four engines; 96 keys sit inside the
/// 1024-entry cache just the same, and a hit costs the same whatever the
/// key count.
pub const HOT_KEYS_PER_PAIR: usize = 32;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Distinct query points over three pairs; caches never hit.
    TopkCold,
    /// Zipf draws over 96 fixed keys; caches absorb every read.
    TopkHot,
    /// Targeted appends with standing queries, beside a reader.
    IngestNotify,
}

impl Workload {
    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "topk-cold" => Some(Workload::TopkCold),
            "topk-hot" => Some(Workload::TopkHot),
            "ingest-notify" => Some(Workload::IngestNotify),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TopkCold => "topk-cold",
            Workload::TopkHot => "topk-hot",
            Workload::IngestNotify => "ingest-notify",
        }
    }

    /// The relation pairs the server holds, in registration order: each
    /// pair's data shape and relation-name prefix. The read-only workloads
    /// keep their standing queries on a uniform pair of their own, so the
    /// write probe's appends never change the data their reads see.
    pub fn pairs(self) -> &'static [(Shape, &'static str)] {
        const READ_ONLY: [(Shape, &str); 4] = [
            (Shape::Uniform, "uniform"),
            (Shape::Clustered, "clustered"),
            (Shape::ScoreSkewed, "skewed"),
            (Shape::Uniform, "standing"),
        ];
        match self {
            Workload::TopkCold | Workload::TopkHot => &READ_ONLY,
            Workload::IngestNotify => &[(Shape::Uniform, "uniform")],
        }
    }

    /// The pair that carries the standing queries and takes the appends:
    /// the last one.
    pub fn standing_pair(self) -> usize {
        self.pairs().len() - 1
    }

    /// The engine's delta threshold: `prj-serve`'s default (0, every append
    /// rebuilds the touched shard) except on `ingest-notify`.
    pub fn delta_threshold(self) -> usize {
        match self {
            Workload::IngestNotify => 64,
            _ => 0,
        }
    }

    /// `true` when the whole process runs on one CPU while reads are
    /// timed (a different CPU each segment). A cache hit costs tens of
    /// microseconds; with the client and the server thread on different
    /// CPUs, each request also waited for a sleeping CPU to wake, which
    /// added 30-40 µs that varied with the load on the host.
    pub fn pinned_reads(self) -> bool {
        self == Workload::TopkHot
    }

    /// `true` when the writer runs beside the reader while reads are timed
    /// (connection 0 writes instead of reading).
    pub fn concurrent_writer(self) -> bool {
        self == Workload::IngestNotify
    }
}

/// One read request of a workload's sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Read {
    /// Index into the server's relation pairs.
    pub pair: usize,
    /// The query point.
    pub point: [f64; 2],
    /// Requested results.
    pub k: usize,
    /// `Stream` collected to the end instead of `TopK`.
    pub stream: bool,
}

impl Read {
    /// The request's class, its pair and kind: reads of one class cost
    /// alike, reads of different classes by up to an order of magnitude.
    pub fn class(&self) -> usize {
        self.pair * 2 + usize::from(self.stream)
    }
}

/// The seeded read sequence of one workload: request `i` is a pure
/// function of `(seed, i)`.
pub struct Reads {
    workload: Workload,
    seed: u64,
    hot_keys: Vec<(usize, [f64; 2])>,
    zipf: Zipf,
}

impl Reads {
    /// The read sequence of `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64) -> Reads {
        let pairs = Shape::ALL.len();
        let n = HOT_KEYS_PER_PAIR * pairs;
        // Zipf rank -> key through a seeded permutation, so the hottest
        // keys are spread over the pairs.
        let order = data::permutation(seed, streams::HOT_KEY, n);
        let hot_keys = if workload == Workload::TopkHot {
            order
                .into_iter()
                .map(|key| {
                    let pair = key / HOT_KEYS_PER_PAIR;
                    (pair, data::point(seed, streams::HOT_KEY, key as u64))
                })
                .collect()
        } else {
            Vec::new()
        };
        Reads {
            workload,
            seed,
            hot_keys,
            zipf: Zipf::new(n),
        }
    }

    /// Read request `i`.
    pub fn get(&self, i: u64) -> Read {
        match self.workload {
            Workload::TopkCold => {
                let r = data::read_order(self.seed, i);
                Read {
                    pair: (r % 3) as usize,
                    point: data::read_point(r),
                    k: READ_K,
                    stream: r % 4 == 3,
                }
            }
            Workload::TopkHot => {
                use rand::Rng;
                let u = data::item_rng(self.seed, streams::HOT_DRAW, i).random_f64();
                let (pair, point) = self.hot_keys[self.zipf.rank(u)];
                Read {
                    pair,
                    point,
                    k: HOT_K,
                    stream: false,
                }
            }
            Workload::IngestNotify => Read {
                pair: 0,
                point: data::read_point(data::read_order(self.seed, i)),
                k: READ_K,
                stream: false,
            },
        }
    }

    /// Every hot key once, as `TopK` reads (the untimed warm-up).
    pub fn warm_up(&self) -> Vec<Read> {
        if self.workload != Workload::TopkHot {
            return Vec::new();
        }
        self.hot_keys
            .iter()
            .map(|&(pair, point)| Read {
                pair,
                point,
                k: HOT_K,
                stream: false,
            })
            .collect()
    }
}

/// The point of standing query `s`: a fixed quasi-random set, the same
/// in every run, so the cost of a refresh round does not depend on where
/// a seed happened to put 32 points.
pub fn subscription_point(s: usize) -> [f64; 2] {
    data::read_point(1_000_000 + s as u64)
}
