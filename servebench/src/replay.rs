//! The traced replay: per-layer numbers from outside the program.
//!
//! The workload's seeded requests are replayed serially, in process, against
//! a fresh engine with the served configuration. Around each layer's public
//! call the benchmark records its own span (name, start, end, parent,
//! request id); spans stay in memory and are written out at the end. A
//! layer's self time is its span's duration minus the part of that interval
//! its child spans cover.
//!
//! Per read request the span tree is
//!
//! ```text
//! request
//! ├─ api.encode_req     wire::encode_request_at
//! ├─ api.decode_req     wire::decode_request_versioned
//! ├─ engine.session     Session::build_query_spec + row conversion
//! │  └─ engine.query    Engine::query (TopK) / Engine::stream drained (Stream)
//! ├─ api.encode_resp    wire::encode_response_at (one line per stream row)
//! └─ api.decode_resp    wire::decode_response
//! ```
//!
//! and, for a read the engine executed (no result-cache hit), a separate
//! `decompose` tree re-runs the same query through the engine's public
//! parts — `Engine::explain(spec, false)` (the planner only), the plan's
//! `Algorithm` over `shard_distance_view` / `distance_view` on one thread
//! per unit (as the engine fans out), and `merge_results` — reading
//! `RunMetrics` for the time inside `updateBound`. Its merged rows must equal
//! the served rows bit for bit. Per mutation the tree is `mutation` →
//! codec spans, `engine.session` → `engine.append` (`Engine::append_rows`),
//! and `sub.refresh` (`SubscriptionManager::quiesce`).
//!
//! The same script runs once with spans off; the ratio of the two is the
//! tracing overhead.

use crate::data::{self, Row, Shape};
use crate::served::{self, pair_names, Dataset, Pair};
use crate::stats::{median, ratio};
use crate::workload::{self, Reads, Workload, BATCH, READ_K, SUBSCRIPTIONS};
use crate::{Metric, Tally};
use prj_access::DeltaBuffer;
use prj_api::{apply_events, wire, Request, Response, ResultRow, TupleData, PROTOCOL_VERSION};
use prj_core::{merge_results, ProblemBuilder, RankJoinResult};
use prj_engine::{
    to_row, Dispatch, Engine, EngineStatsSnapshot, QuerySpec, RequestHandler, Session,
};
use prj_geometry::Vector;
use prj_index::{NearestCursor, RTree};
use prj_sub::{Subscribing, SubscriptionManager};
use std::collections::BTreeMap;
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Reads replayed per workload.
fn replay_reads(workload: Workload) -> u64 {
    match workload {
        Workload::TopkCold => 48,
        Workload::TopkHot => 2048,
        Workload::IngestNotify => 48,
    }
}

/// One step of the replay script.
#[derive(Debug, Clone, Copy)]
enum Step {
    Read(u64),
    Mutate(u64),
}

/// The workload's replay script: reads then the write probe on the
/// read-only workloads; one mutation per two reads on `ingest-notify`.
fn script(workload: Workload) -> Vec<Step> {
    let reads = replay_reads(workload);
    if workload.concurrent_writer() {
        (0..reads / 2)
            .flat_map(|m| [Step::Mutate(m), Step::Read(2 * m), Step::Read(2 * m + 1)])
            .collect()
    } else {
        let probe = 16;
        (0..reads)
            .map(Step::Read)
            .chain((0..probe).map(Step::Mutate))
            .collect()
    }
}

/// A finished span, in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
struct SpanRec {
    id: u64,
    parent: u64,
    request: u64,
    name: &'static str,
    start: u64,
    end: u64,
}

/// The benchmark's span recorder. Disabled, it records nothing and reads
/// no clock.
struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: u64,
    spans: Vec<SpanRec>,
}

impl Tracer {
    fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: 1,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn at(&self, instant: Instant) -> u64 {
        instant.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span; `f` gets the span id to parent children on.
    fn span<R>(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce(&mut Tracer, u64) -> R,
    ) -> R {
        if !self.enabled {
            return f(self, 0);
        }
        let id = self.next_id;
        self.next_id += 1;
        let start = self.now();
        let out = f(self, id);
        let end = self.now();
        self.spans.push(SpanRec {
            id,
            parent,
            request,
            name,
            start,
            end,
        });
        out
    }

    /// Records an already-timed span; returns its id.
    fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        start: u64,
        end: u64,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(SpanRec {
            id,
            parent,
            request,
            name,
            start,
            end,
        });
        id
    }
}

/// Self time per span: duration minus the union of its children's
/// intervals (children may overlap when they ran on parallel threads).
fn self_times(spans: &[SpanRec]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            let mut cursor = s.start;
            let mut intervals = children.get(&s.id).cloned().unwrap_or_default();
            intervals.sort_unstable();
            for (a, b) in intervals {
                let (a, b) = (a.max(cursor), b.min(s.end));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.id, (s.end - s.start).saturating_sub(covered))
        })
        .collect()
}

/// One standing query of a replica: its point, push feed and replayed view.
struct Feed {
    point: [f64; 2],
    feed: Receiver<Response>,
    view: Vec<ResultRow>,
}

/// A fresh in-process engine with the served configuration, the
/// workload's data registered through `Session::handle`, and the standing
/// queries subscribed through the `Subscribing` front-end.
struct Replica {
    engine: Arc<Engine>,
    session: Session,
    manager: Arc<SubscriptionManager>,
    pairs: Vec<Pair>,
    /// Index of the pair the standing queries are on.
    standing: usize,
    feeds: Vec<Feed>,
}

impl Replica {
    fn boot(workload: Workload, data: &Dataset, trace_capacity: usize) -> Result<Replica, String> {
        let engine = Arc::new(
            served::engine_builder(workload)
                .trace_capacity(trace_capacity)
                .build(),
        );
        let session = Session::new(Arc::clone(&engine));
        let manager = Arc::new(SubscriptionManager::new(
            Session::new(Arc::clone(&engine)),
            1024,
        ));
        let mut pairs = Vec::new();
        for (&(_, label), rows) in workload.pairs().iter().zip(data) {
            let names = pair_names(label);
            let mut ids = [0; 2];
            for r in 0..2 {
                let tuples = rows[r]
                    .iter()
                    .map(|(p, s)| TupleData::new(p.to_vec(), *s))
                    .collect();
                ids[r] = match session.handle(Request::RegisterRelation {
                    name: names[r].clone(),
                    tuples,
                }) {
                    Response::Registered { id, .. } => id,
                    other => return Err(format!("replay register: {other:?}")),
                };
            }
            pairs.push(Pair { names, ids });
        }
        let handler = Subscribing::new(
            Arc::new(Session::new(Arc::clone(&engine))),
            Arc::clone(&manager),
        );
        let standing = workload.standing_pair();
        let mut feeds = Vec::new();
        for s in 0..SUBSCRIPTIONS {
            let point = workload::subscription_point(s);
            let read = served::sub_read(point);
            match handler.dispatch_request(Request::Subscribe(served::query(
                &pairs[standing].names,
                &read,
            ))) {
                Dispatch::Subscribed {
                    ack: Response::Subscribed { rows, .. },
                    feed,
                } => feeds.push(Feed {
                    point,
                    feed,
                    view: rows,
                }),
                _ => return Err("replay subscribe failed".to_string()),
            }
        }
        Ok(Replica {
            engine,
            session,
            manager,
            pairs,
            standing,
            feeds,
        })
    }

    /// Touches every hot key once (untimed), as the timed run does.
    fn warm_up(&self, reads: &Reads) -> Result<(), String> {
        for read in reads.warm_up() {
            let spec = self
                .session
                .build_query_spec(served::query(&self.pairs[read.pair].names, &read))
                .map_err(|e| e.to_string())?;
            self.engine.query(spec).map_err(|e| e.to_string())?;
        }
        Ok(())
    }
}

/// What one pass over the script produced.
#[derive(Default)]
struct Pass {
    /// Wall time of every read request (root span or stopwatch).
    read_totals: Vec<Duration>,
    /// Encoded response bytes of every read.
    resp_bytes: u64,
    /// Reads answered from the result cache.
    cache_hits: u64,
    /// Decomposition counters (traced pass only).
    decomposed: Decomposed,
    /// Rows served, in script order (cross-pass exactness check).
    rows: Vec<Vec<ResultRow>>,
    /// Mutations whose targeted tuple never reached its subscriber.
    missed_targets: u64,
}

#[derive(Default)]
struct Decomposed {
    requests: u64,
    units: u64,
    bound_time: Duration,
    bound_updates: u64,
    combinations: u64,
    mismatches: u64,
}

/// One replica's replay: its span recorder, whether reads it executed are
/// decomposed, and what it produced.
struct Lane<'a> {
    replica: &'a mut Replica,
    tracer: Tracer,
    decompose: bool,
    out: Pass,
}

/// Runs the script on both lanes, alternating which lane runs each step
/// first, so drift over the run (warming caches, a neighbour's load) falls
/// on both alike.
fn interleaved(
    seed: u64,
    reads: &Reads,
    steps: &[Step],
    lanes: &mut [Lane; 2],
) -> Result<(), String> {
    for (rid, step) in steps.iter().enumerate() {
        let order = if rid % 2 == 0 { [0, 1] } else { [1, 0] };
        for lane in order {
            run_step(seed, reads, rid as u64 + 1, *step, &mut lanes[lane])?;
        }
    }
    Ok(())
}

/// Replays one step of the script on one lane.
fn run_step(
    seed: u64,
    reads: &Reads,
    rid: u64,
    step: Step,
    lane: &mut Lane<'_>,
) -> Result<(), String> {
    let Lane {
        replica,
        tracer,
        decompose,
        out,
    } = lane;
    match step {
        Step::Read(i) => {
            let read = reads.get(i);
            let query = served::query(&replica.pairs[read.pair].names, &read);
            let request = if read.stream {
                Request::Stream(query)
            } else {
                Request::TopK(query)
            };
            let started = Instant::now();
            let (rows, executed, bytes) = tracer.span("request", 0, rid, |t, root| {
                served_read(replica, t, root, rid, request)
            })?;
            out.read_totals.push(started.elapsed());
            out.resp_bytes += bytes;
            out.cache_hits += u64::from(executed.is_none());
            if let Some(spec) = executed.filter(|_| *decompose) {
                let merged = tracer.span("decompose", 0, rid, |t, root| {
                    decompose_read(&replica.engine, &spec, t, root, rid, &mut out.decomposed)
                })?;
                let merged: Vec<ResultRow> = merged.combinations.iter().map(to_row).collect();
                if !crate::oracle::same_rows(&merged, &rows) {
                    out.decomposed.mismatches += 1;
                }
            }
            out.rows.push(rows);
        }
        Step::Mutate(m) => {
            let target = ((m + seed) % SUBSCRIPTIONS as u64) as usize;
            let batch = data::append_batch(seed, m, BATCH, replica.feeds[target].point);
            let cardinality = tracer.span("mutation", 0, rid, |t, root| {
                served_mutation(replica, t, root, rid, &batch)
            })?;
            let targeted = (replica.pairs[replica.standing].ids[0], cardinality - 1);
            for (idx, Feed { feed, view, .. }) in replica.feeds.iter_mut().enumerate() {
                while let Ok(response) = feed.try_recv() {
                    let Response::Notify(n) = response else {
                        return Err(format!("unexpected push {response:?}"));
                    };
                    *view = apply_events(view, &n.events, n.total)?;
                }
                if idx == target && !view.iter().any(|r| r.tuples.contains(&targeted)) {
                    out.missed_targets += 1;
                }
            }
        }
    }
    Ok(())
}

/// One read through the codec and the session's query path. Returns the
/// rows, the executed spec when the engine ran the query (no result-cache
/// hit), and the encoded response size.
fn served_read(
    replica: &Replica,
    t: &mut Tracer,
    root: u64,
    rid: u64,
    request: Request,
) -> Result<(Vec<ResultRow>, Option<QuerySpec>, u64), String> {
    let line = t.span("api.encode_req", root, rid, |_, _| {
        wire::encode_request_at(&request, PROTOCOL_VERSION)
    });
    let line = line.map_err(|e| e.to_string())?;
    let (_, request) = t
        .span("api.decode_req", root, rid, |_, _| {
            wire::decode_request_versioned(&line)
        })
        .map_err(|e| e.to_string())?;
    let (response, executed, stream) = t.span("engine.session", root, rid, |t, session_span| {
        let (query, stream) = match request {
            Request::TopK(q) => (q, false),
            Request::Stream(q) => (q, true),
            other => return Err(format!("not a read: {other:?}")),
        };
        let spec = replica
            .session
            .build_query_spec(query)
            .map_err(|e| e.to_string())?;
        let (combos, from_cache, algorithm) = t.span(
            "engine.query",
            session_span,
            rid,
            |_, _| -> Result<_, String> {
                if stream {
                    let mut s = replica
                        .engine
                        .stream(spec.clone())
                        .map_err(|e| e.to_string())?;
                    let mut combos = Vec::new();
                    while let Some(c) = s.next_result() {
                        combos.push(c);
                    }
                    if let Some(e) = s.error() {
                        return Err(e.to_string());
                    }
                    Ok((combos, false, String::new()))
                } else {
                    let result = replica
                        .engine
                        .query(spec.clone())
                        .map_err(|e| e.to_string())?;
                    Ok((
                        result.combinations().to_vec(),
                        result.from_cache,
                        result.plan().algorithm.id().to_string(),
                    ))
                }
            },
        )?;
        let rows: Vec<ResultRow> = combos.iter().map(to_row).collect();
        let executed = (!from_cache).then_some(spec);
        Ok((
            Response::Results {
                rows,
                from_cache,
                algorithm,
            },
            executed,
            stream,
        ))
    })?;
    let Response::Results { rows, .. } = &response else {
        unreachable!("reads answer with results")
    };
    // A stream goes out as one item line per row plus an end marker.
    let responses: Vec<Response> = if stream {
        rows.iter()
            .cloned()
            .map(Response::StreamItem)
            .chain([Response::StreamEnd { count: rows.len() }])
            .collect()
    } else {
        vec![response.clone()]
    };
    let lines: Vec<String> = t.span("api.encode_resp", root, rid, |_, _| {
        responses
            .iter()
            .map(|r| wire::encode_response_at(r, PROTOCOL_VERSION))
            .collect()
    });
    let bytes = lines.iter().map(|l| l.len() as u64 + 1).sum();
    let decoded: Result<Vec<Response>, _> = t.span("api.decode_resp", root, rid, |_, _| {
        lines.iter().map(|l| wire::decode_response(l)).collect()
    });
    decoded.map_err(|e| e.to_string())?;
    let Response::Results { rows, .. } = response else {
        unreachable!("reads answer with results")
    };
    Ok((rows, executed, bytes))
}

/// One append through the codec, the session's lookup and
/// `Engine::append_rows`, then the subscription refresh it triggers.
/// Returns the relation's cardinality after the append.
fn served_mutation(
    replica: &Replica,
    t: &mut Tracer,
    root: u64,
    rid: u64,
    batch: &[Row],
) -> Result<usize, String> {
    let request = Request::AppendTuples {
        relation: replica.pairs[replica.standing].names[0].as_str().into(),
        tuples: batch
            .iter()
            .map(|(p, s)| TupleData::new(p.to_vec(), *s))
            .collect(),
    };
    let line = t
        .span("api.encode_req", root, rid, |_, _| {
            wire::encode_request_at(&request, PROTOCOL_VERSION)
        })
        .map_err(|e| e.to_string())?;
    let (_, request) = t
        .span("api.decode_req", root, rid, |_, _| {
            wire::decode_request_versioned(&line)
        })
        .map_err(|e| e.to_string())?;
    let response = t.span("engine.session", root, rid, |t, session_span| {
        let Request::AppendTuples { tuples, .. } = request else {
            return Err("not an append".to_string());
        };
        let id = replica
            .engine
            .catalog()
            .lookup(&replica.pairs[replica.standing].names[0])
            .ok_or("appended relation is gone")?;
        let rows: Vec<(Vector, f64)> = tuples
            .into_iter()
            .map(|t| (Vector::from(t.coords), t.score))
            .collect();
        let outcome = t
            .span("engine.append", session_span, rid, |_, _| {
                replica.engine.append_rows(id, rows)
            })
            .map_err(|e| e.to_string())?;
        Ok(Response::Appended {
            id: outcome.id.index(),
            epoch: outcome.epoch,
            cardinality: outcome.cardinality,
        })
    })?;
    let line = t.span("api.encode_resp", root, rid, |_, _| {
        wire::encode_response_at(&response, PROTOCOL_VERSION)
    });
    t.span("api.decode_resp", root, rid, |_, _| {
        wire::decode_response(&line)
    })
    .map_err(|e| e.to_string())?;
    t.span("sub.refresh", root, rid, |_, _| replica.manager.quiesce());
    match response {
        Response::Appended { cardinality, .. } => Ok(cardinality),
        other => Err(format!("append answered {other:?}")),
    }
}

/// Re-runs an executed query through the engine's public parts: the
/// planner, one thread per unit running the plan's algorithm over the
/// catalog's shard views, and the certified merge.
fn decompose_read(
    engine: &Engine,
    spec: &QuerySpec,
    t: &mut Tracer,
    root: u64,
    rid: u64,
    counts: &mut Decomposed,
) -> Result<RankJoinResult, String> {
    let explain = t
        .span("engine.plan", root, rid, |_, _| {
            engine.explain(spec.clone(), false)
        })
        .map_err(|e| e.to_string())?;
    let snapshot = engine
        .catalog()
        .snapshot(&spec.relations)
        .map_err(|e| e.to_string())?;
    let query = Arc::new(spec.query.clone());
    let drive = explain.drive;
    let fan_start = Instant::now();
    let runs: Vec<Result<(Instant, Instant, Instant, RankJoinResult), String>> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = explain
                .units
                .iter()
                .map(|unit| {
                    let (snapshot, query) = (&snapshot, &query);
                    scope.spawn(move || {
                        let t0 = Instant::now();
                        let mut builder =
                            ProblemBuilder::new(Arc::clone(query), Arc::clone(&spec.scoring))
                                .k(spec.k)
                                .access_kind(spec.access_kind)
                                .dominance_period(unit.plan.dominance_period);
                        for (idx, relation) in snapshot.iter().enumerate() {
                            let view = if idx == drive {
                                relation.shard_distance_view(unit.shard, Arc::clone(query))
                            } else {
                                relation.distance_view(Arc::clone(query))
                            };
                            builder = builder.relation(view);
                        }
                        let mut problem = builder.build().map_err(|e| e.to_string())?;
                        let t1 = Instant::now();
                        let result = unit
                            .plan
                            .algorithm
                            .run(&mut problem)
                            .map_err(|e| e.to_string())?;
                        Ok((t0, t1, Instant::now(), result))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("decomposition unit thread"))
                .collect()
        });
    let fan_end = Instant::now();
    let fan = t.record("engine.fanout", root, rid, t.at(fan_start), t.at(fan_end));
    let mut parts = Vec::new();
    for run in runs {
        let (t0, t1, t2, result) = run?;
        let unit = t.record("core.unit", fan, rid, t.at(t0), t.at(t2));
        t.record("access.views", unit, rid, t.at(t0), t.at(t1));
        let op = t.record("core.operator", unit, rid, t.at(t1), t.at(t2));
        let bound_end = t.at(t1) + result.metrics.bound_time.as_nanos() as u64;
        t.record("core.bound", op, rid, t.at(t1), bound_end.min(t.at(t2)));
        counts.units += 1;
        counts.bound_time += result.metrics.bound_time;
        counts.bound_updates += result.metrics.bound_updates as u64;
        counts.combinations += result.metrics.combinations_formed as u64;
        parts.push(result);
    }
    counts.requests += 1;
    let merged = t.span("core.merge", root, rid, |_, _| merge_results(spec.k, parts));
    Ok(merged)
}

/// Engine-side counters of a pass (deltas from the post-warm-up state).
#[derive(Debug, Clone, PartialEq)]
struct Counters {
    sum_depths: u64,
    bound_updates: u64,
    units: u64,
    executed: u64,
    resp_bytes: u64,
    notifications: u64,
    suppressed: u64,
}

fn counters(replica: &Replica, out: &Pass, before: &EngineStatsSnapshot) -> Counters {
    let stats = replica.engine.stats();
    let units = |s: &EngineStatsSnapshot| s.per_shard.iter().map(|l| l.units).sum::<u64>();
    Counters {
        sum_depths: stats.total_sum_depths - before.total_sum_depths,
        bound_updates: stats.total_bound_updates - before.total_bound_updates,
        units: units(&stats) - units(before),
        executed: stats.executed - before.executed,
        resp_bytes: out.resp_bytes,
        notifications: replica.manager.notifications_total(),
        suppressed: replica.manager.suppressed_total(),
    }
}

/// Whether the workload's engine counters repeat exactly under a fixed
/// seed. On `ingest-notify` the background compactor folds deltas at
/// timing-dependent moments, so depths and units vary; rows, bytes and
/// refresh counts do not.
fn engine_counters_exact(workload: Workload) -> bool {
    !workload.concurrent_writer()
}

/// Built-in recorder cost: the workload's reads on an engine with the
/// default trace ring against one with `trace_capacity(0)`, in interleaved
/// passes over fresh request slices. Returns the median per-pass ratio.
fn recorder_overhead(workload: Workload, data: &Dataset, reads: &Reads) -> Result<f64, String> {
    const PAIRS: usize = 7;
    let slice = match workload {
        Workload::TopkHot => 2048,
        _ => 6,
    };
    let on = Replica::boot(workload, data, 4096)?;
    let off = Replica::boot(workload, data, 0)?;
    on.warm_up(reads)?;
    off.warm_up(reads)?;
    let time = |replica: &Replica, p: usize| -> Result<f64, String> {
        // Offset past the replay script's reads so cold slices stay cold.
        let base = 1_000_000 + (p * slice) as u64;
        let started = Instant::now();
        for i in base..base + slice as u64 {
            let read = reads.get(i);
            let spec = replica
                .session
                .build_query_spec(served::query(&replica.pairs[read.pair].names, &read))
                .map_err(|e| e.to_string())?;
            replica.engine.query(spec).map_err(|e| e.to_string())?;
        }
        Ok(started.elapsed().as_secs_f64())
    };
    let mut ratios = Vec::new();
    for p in 0..PAIRS {
        let (a, b) = if p % 2 == 0 { (&on, &off) } else { (&off, &on) };
        let first = time(a, p)?;
        let second = time(b, p)?;
        let (t_on, t_off) = if p % 2 == 0 {
            (first, second)
        } else {
            (second, first)
        };
        ratios.push(ratio(t_on, t_off));
    }
    Ok(median(&ratios))
}

/// Mean time per call of `f`, repeated `n` times.
fn mean_time(n: usize, mut f: impl FnMut()) -> Duration {
    let started = Instant::now();
    for _ in 0..n {
        f();
    }
    started.elapsed() / n as u32
}

/// Index and access micro-measurements on the replica's catalog after the
/// traced pass: cursor pulls over one shard's R-tree, merged pulls over a
/// whole relation's view (base plus any unfolded delta), an R-tree bulk
/// load and a delta-buffer append.
fn access_layers(
    replica: &Replica,
    reads: &Reads,
    data: &Dataset,
    seed: u64,
) -> Result<[f64; 4], String> {
    const POINTS: u64 = 16;
    const DEPTH: usize = 64;
    let relation = replica
        .engine
        .catalog()
        .relation(prj_engine::RelationId::from_index(replica.pairs[0].ids[0]))
        .map_err(|e| e.to_string())?;
    let mut cursor_time = Duration::ZERO;
    let mut cursor_pulls = 0u64;
    let mut merged_time = Duration::ZERO;
    let mut merged_pulls = 0u64;
    for i in 0..POINTS {
        let q = Vector::from(reads.get(i).point);
        for j in 0..relation.num_shards() {
            let tree = relation.shard(j).rtree();
            let started = Instant::now();
            let mut cursor = NearestCursor::new(tree, &q);
            for _ in 0..DEPTH {
                if std::hint::black_box(cursor.next(tree, &q)).is_none() {
                    break;
                }
                cursor_pulls += 1;
            }
            cursor_time += started.elapsed();
        }
        let started = Instant::now();
        let mut view = relation.distance_view(q);
        for _ in 0..DEPTH {
            if std::hint::black_box(view.next_tuple()).is_none() {
                break;
            }
            merged_pulls += 1;
        }
        merged_time += started.elapsed();
    }
    let items: Vec<(Vector, (prj_access::TupleId, f64))> = data::to_tuples(0, &data[0][0])
        .into_iter()
        .map(|t| (t.vector.clone(), (t.id, t.score)))
        .collect();
    let bulk = mean_time(8, || {
        std::hint::black_box(RTree::bulk_load(2, items.clone()));
    });
    // Delta appends: batches of BATCH onto a buffer growing to the
    // ingest threshold, as the write path publishes them.
    let batches: Vec<Vec<prj_access::Tuple>> = (0..8u64)
        .map(|m| {
            let rows = data::append_batch(seed, m, BATCH, [0.0, 0.0]);
            data::to_tuples(0, &rows)
        })
        .collect();
    let mut delta_time = Duration::ZERO;
    let mut delta_calls = 0u32;
    for _ in 0..16 {
        let mut buffer = DeltaBuffer::empty();
        for batch in &batches {
            let started = Instant::now();
            buffer = buffer.appended(batch.clone());
            delta_time += started.elapsed();
            delta_calls += 1;
        }
        std::hint::black_box(&buffer);
    }
    Ok([
        cursor_time.as_nanos() as f64 / cursor_pulls.max(1) as f64,
        merged_time.as_nanos() as f64 / merged_pulls.max(1) as f64,
        bulk.as_secs_f64() * 1e3,
        (delta_time / delta_calls).as_secs_f64() * 1e6,
    ])
}

/// Bound cost per update on the clustered pair at S=4 and relation size
/// `n` (ROADMAP 1(e)): the plan's units run over the shard views, serially,
/// reading `RunMetrics`.
fn bound_sweep(workload: Workload, n: usize, queries: u64) -> Result<f64, String> {
    let rows = data::generate_pair(data::DATA_SEED, Shape::Clustered, n);
    let engine = served::engine_builder(workload).delta_threshold(0).build();
    let ids: Vec<prj_engine::RelationId> = rows
        .iter()
        .enumerate()
        .map(|(r, rows)| engine.register(format!("c{r}"), data::to_tuples(r, rows)))
        .collect();
    let mut untraced = Tracer::new(false);
    let mut counts = Decomposed::default();
    for i in 0..queries {
        // Fixed points, apart from every read and standing-query point.
        let point = data::read_point(2_000_000 + i);
        let spec = QuerySpec::top_k(ids.clone(), Vector::from(point), READ_K);
        decompose_read(&engine, &spec, &mut untraced, 0, 0, &mut counts)?;
    }
    Ok(counts.bound_time.as_nanos() as f64 / counts.bound_updates.max(1) as f64)
}

/// Writes the traced pass's spans as tab-separated rows.
fn write_spans(workload: Workload, seed: u64, spans: &[SpanRec], selfs: &BTreeMap<u64, u64>) {
    let dir = std::path::Path::new(".servebench");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let mut out = String::from("request\tid\tparent\tname\tstart_ns\tend_ns\tself_ns\n");
    for s in spans {
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
            s.request, s.id, s.parent, s.name, s.start, s.end, selfs[&s.id]
        ));
    }
    let path = dir.join(format!("spans-{}-seed{seed}.tsv", workload.name()));
    if let Err(e) = std::fs::write(&path, out) {
        eprintln!("servebench: cannot write {}: {e}", path.display());
    }
}

/// The traced run: every per-layer metric of the workload.
pub fn per_layer(
    workload: Workload,
    seed: u64,
    data: &Dataset,
    served_reads_ms: &[f64],
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let reads = Reads::new(workload, seed);
    let steps = script(workload);
    let mutations = steps
        .iter()
        .filter(|s| matches!(s, Step::Mutate(_)))
        .count() as f64;

    // The untraced and the traced replay, each on a fresh replica, step by
    // step in alternation.
    let mut plain = Replica::boot(workload, data, 4096)?;
    let mut traced = Replica::boot(workload, data, 4096)?;
    plain.warm_up(&reads)?;
    traced.warm_up(&reads)?;
    let unit_before = traced.engine.unit_cache_metrics();
    let stats_before = traced.engine.stats();
    let plain_stats_before = plain.engine.stats();
    let mut lanes = [
        Lane {
            replica: &mut plain,
            tracer: Tracer::new(false),
            decompose: false,
            out: Pass::default(),
        },
        Lane {
            replica: &mut traced,
            tracer: Tracer::new(true),
            decompose: true,
            out: Pass::default(),
        },
    ];
    interleaved(seed, &reads, &steps, &mut lanes)?;
    let [plain_lane, traced_lane] = lanes;
    let (plain_pass, traced_pass, tracer) = (plain_lane.out, traced_lane.out, traced_lane.tracer);
    let plain_counters = counters(&plain, &plain_pass, &plain_stats_before);
    let traced_counters = counters(&traced, &traced_pass, &stats_before);
    let unit = traced.engine.unit_cache_metrics();
    let compactions = traced.engine.obs().compactions_total().get();
    let access = access_layers(&traced, &reads, data, seed)?;

    // Exactness: the two passes must agree on rows and on every counter
    // the workload declares exact; the decomposition must reproduce every
    // served answer.
    let mut checks = 0;
    let mut failures = Vec::new();
    let mut expect = |ok: bool, what: &str| {
        checks += 1;
        if !ok {
            failures.push(format!("replay: {what}"));
        }
    };
    expect(
        plain_pass.rows == traced_pass.rows,
        "traced and untraced passes served different rows",
    );
    expect(
        plain_counters.resp_bytes == traced_counters.resp_bytes
            && plain_counters.notifications == traced_counters.notifications
            && plain_counters.suppressed == traced_counters.suppressed,
        "response bytes or refresh counts differ between passes",
    );
    if engine_counters_exact(workload) {
        expect(
            plain_counters == traced_counters,
            "engine work counters differ between passes",
        );
    }
    expect(
        traced_pass.decomposed.mismatches == 0,
        "decomposed execution disagrees with the served rows",
    );
    expect(
        plain_pass.missed_targets + traced_pass.missed_targets == 0,
        "a targeted append never reached its subscriber",
    );
    let failed = failures.len() as u64;
    tally.add(checks, failed, failures);

    // Self time per span name, over read requests and over mutations.
    let selfs = self_times(&tracer.spans);
    write_spans(workload, seed, &tracer.spans, &selfs);
    let mut kind_of: BTreeMap<u64, &'static str> = BTreeMap::new();
    for s in tracer.spans.iter().filter(|s| s.parent == 0) {
        kind_of.insert(s.request, s.name);
    }
    let mut total: BTreeMap<(&str, &str), (u64, u64, u64)> = BTreeMap::new(); // (dur, self, count)
    for s in &tracer.spans {
        let kind = match kind_of.get(&s.request) {
            Some(&"mutation") => "mutation",
            _ => "read",
        };
        let e = total.entry((kind, s.name)).or_default();
        e.0 += s.end - s.start;
        e.1 += selfs[&s.id];
        e.2 += 1;
    }
    let get = |kind: &str, name: &str| total.get(&(kind, name)).copied().unwrap_or_default();
    let mean_us = |kind: &str, name: &str, use_self: bool| {
        let (dur, own, n) = get(kind, name);
        ratio(if use_self { own } else { dur } as f64, n as f64) / 1e3
    };
    let read_total = get("read", "request").0 as f64;
    let share = |name: &str| ratio(get("read", name).1 as f64, read_total);
    let api_self: f64 = [
        "api.encode_req",
        "api.decode_req",
        "api.encode_resp",
        "api.decode_resp",
    ]
    .iter()
    .map(|n| get("read", n).1 as f64)
    .sum();
    // The decomposition's units run on parallel threads, so its self times
    // add up to busy time, not wall time: shares are of that sum.
    let decomp_total: f64 = [
        "decompose",
        "engine.plan",
        "engine.fanout",
        "core.unit",
        "access.views",
        "core.operator",
        "core.bound",
        "core.merge",
    ]
    .iter()
    .map(|n| get("read", n).1 as f64)
    .sum();
    let dshare = |name: &str| ratio(get("read", name).1 as f64, decomp_total);
    let d = &traced_pass.decomposed;

    let ms = |v: &[Duration]| median(&crate::stats::millis(v));
    let replay_p50 = ms(&plain_pass.read_totals);
    let traced_p50 = ms(&traced_pass.read_totals);
    let recorder = recorder_overhead(workload, data, &reads)?;
    let sweep = [
        bound_sweep(workload, 400, 8)?,
        bound_sweep(workload, 1000, 4)?,
        bound_sweep(workload, 4000, 2)?,
    ];
    let unit_hits = unit.hits - unit_before.hits;
    let unit_lookups = unit_hits + unit.misses - unit_before.misses;
    let refreshes = (traced_counters.notifications + traced_counters.suppressed) as f64;
    let n_reads = traced_pass.read_totals.len();

    Ok(vec![
        Metric::sampled(
            "api.encode_req_us",
            mean_us("read", "api.encode_req", false),
            "us",
            n_reads,
        ),
        Metric::sampled(
            "api.decode_req_us",
            mean_us("read", "api.decode_req", false),
            "us",
            n_reads,
        ),
        Metric::sampled(
            "api.encode_resp_us",
            mean_us("read", "api.encode_resp", false),
            "us",
            n_reads,
        ),
        Metric::sampled(
            "api.decode_resp_us",
            mean_us("read", "api.decode_resp", false),
            "us",
            n_reads,
        ),
        Metric::new("api.resp_bytes", traced_counters.resp_bytes as f64, "bytes"),
        Metric::sampled(
            "engine.session_us",
            mean_us("read", "engine.session", true),
            "us",
            n_reads,
        ),
        Metric::sampled(
            "engine.query_us",
            mean_us("read", "engine.query", false),
            "us",
            n_reads,
        ),
        Metric::sampled(
            "engine.plan_us",
            mean_us("read", "engine.plan", false),
            "us",
            d.requests as usize,
        ),
        Metric::new(
            "engine.cache_hit_ratio",
            ratio(traced_pass.cache_hits as f64, n_reads as f64),
            "ratio",
        ),
        Metric::new(
            "engine.unit_cache_hit_ratio",
            ratio(unit_hits as f64, unit_lookups as f64),
            "ratio",
        ),
        Metric::new(
            "engine.units_per_query",
            ratio(
                traced_counters.units as f64,
                traced_counters.executed as f64,
            ),
            "count",
        ),
        Metric::new(
            "engine.sum_depths",
            traced_counters.sum_depths as f64,
            "count",
        ),
        Metric::new(
            "engine.bound_updates",
            traced_counters.bound_updates as f64,
            "count",
        ),
        Metric::sampled(
            "engine.append_us",
            mean_us("mutation", "engine.append", false),
            "us",
            mutations as usize,
        ),
        Metric::new("engine.compactions", compactions as f64, "count"),
        Metric::sampled(
            "core.operator_us",
            mean_us("read", "core.operator", true),
            "us",
            d.units as usize,
        ),
        Metric::sampled(
            "core.bound_us",
            mean_us("read", "core.bound", false),
            "us",
            d.units as usize,
        ),
        Metric::new(
            "core.bound_update_ns",
            ratio(d.bound_time.as_nanos() as f64, d.bound_updates as f64),
            "ns",
        ),
        Metric::new("core.combinations", d.combinations as f64, "count"),
        Metric::sampled(
            "core.merge_us",
            mean_us("read", "core.merge", false),
            "us",
            d.requests as usize,
        ),
        Metric::new("core.bound_update_ns.n400", sweep[0], "ns"),
        Metric::new("core.bound_update_ns.n1000", sweep[1], "ns"),
        Metric::new("core.bound_update_ns.n4000", sweep[2], "ns"),
        Metric::new("index.cursor_pull_ns", access[0], "ns"),
        Metric::new("access.merged_pull_ns", access[1], "ns"),
        Metric::new("index.bulk_load_ms", access[2], "ms"),
        Metric::new("access.delta_append_us", access[3], "us"),
        Metric::new(
            "sub.refreshes_per_mutation",
            ratio(refreshes, mutations),
            "count",
        ),
        Metric::new(
            "sub.notifications_per_mutation",
            ratio(traced_counters.notifications as f64, mutations),
            "count",
        ),
        Metric::new(
            "sub.suppressed_ratio",
            ratio(traced_counters.suppressed as f64, refreshes),
            "ratio",
        ),
        Metric::sampled(
            "sub.refresh_us",
            mean_us("mutation", "sub.refresh", false),
            "us",
            mutations as usize,
        ),
        Metric::new("obs.recorder_overhead_ratio", recorder, "ratio"),
        Metric::new(
            "bench.trace_overhead_ratio",
            ratio(traced_p50, replay_p50),
            "ratio",
        ),
        Metric::sampled(
            "account.served_p50_ms",
            median(served_reads_ms),
            "ms",
            served_reads_ms.len(),
        ),
        Metric::sampled("account.replay_p50_ms", replay_p50, "ms", n_reads),
        Metric::sampled("account.traced_p50_ms", traced_p50, "ms", n_reads),
        Metric::new("share.api", ratio(api_self, read_total), "ratio"),
        Metric::new("share.engine_session", share("engine.session"), "ratio"),
        Metric::new("share.engine_query", share("engine.query"), "ratio"),
        Metric::new("share.bench", share("request"), "ratio"),
        Metric::new("decomp.plan", dshare("engine.plan"), "ratio"),
        Metric::new("decomp.fanout", dshare("engine.fanout"), "ratio"),
        Metric::new("decomp.views", dshare("access.views"), "ratio"),
        Metric::new("decomp.operator", dshare("core.operator"), "ratio"),
        Metric::new("decomp.bound", dshare("core.bound"), "ratio"),
        Metric::new("decomp.merge", dshare("core.merge"), "ratio"),
        Metric::new("decomp.rest", dshare("decompose"), "ratio"),
    ])
}
