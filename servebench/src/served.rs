//! The served stack and its closed-loop clients.
//!
//! The stack is what `prj-serve` runs — `Server` over
//! `Subscribing<Session>` over one `Engine` — bound to a loopback port
//! inside the benchmark process. Each client owns one connection and sends
//! its next request only after the previous reply (a closed loop).

use crate::data::{self, Row};
use crate::oracle;
use crate::workload::{self, Read, Reads, Workload, BATCH, READ_K, SUBSCRIPTIONS};
use prj_api::{
    apply_events, ApiClient, ClientConfig, QueryRequest, Request, Response, ResultRow, TupleData,
};
use prj_engine::{Engine, EngineBuilder, Server, Session};
use prj_sub::{Subscribing, SubscriptionManager};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a writer waits for its targeted notification before counting
/// the mutation as failed.
const NOTIFY_TIMEOUT: Duration = Duration::from_secs(10);
/// Read/write timeout of a client connection: a hung server surfaces as a
/// failed request, never a hung benchmark.
const IO_TIMEOUT: Duration = Duration::from_secs(60);
/// Pause between `Health` polls while the notifier works through a
/// refresh round (hundreds of milliseconds): coarse enough that polling
/// takes no noticeable CPU from the reader beside it.
const HEALTH_POLL: Duration = Duration::from_millis(5);
/// Sampled responses kept for the oracle, per segment.
const CHECKED_PER_SEGMENT: usize = 3;
/// Every this-many standing query's final view is oracle-checked.
const CHECKED_SUB_STRIDE: usize = 16;

/// The engine configuration of the served stack: `prj-serve`'s defaults
/// (result cache 1024, unit cache 4096, recorder on with a 4096-span ring)
/// except two worker threads and four shards.
pub fn engine_builder(workload: Workload) -> EngineBuilder {
    EngineBuilder::default()
        .threads(2)
        .shards(4)
        .cache_capacity(1024)
        .unit_cache_capacity(4096)
        .trace_capacity(4096)
        .delta_threshold(workload.delta_threshold())
}

/// The generated base data of a run: one `[first, second]` pair per shape.
pub type Dataset = Vec<[Vec<Row>; 2]>;

/// The base data of `workload`: the macrobench generator at its default
/// seed, the same relations in every run. `--seed` varies the request
/// stream, not the relations: with per-seed relations the clustered
/// pair's geometry alone moved cold p50 by up to 3x between seeds.
pub fn dataset(workload: Workload) -> Dataset {
    workload
        .pairs()
        .iter()
        .map(|&(shape, _)| data::generate_pair(data::DATA_SEED, shape, data::RELATION_SIZE))
        .collect()
}

/// The wire names of a pair's relations.
pub fn pair_names(label: &str) -> [String; 2] {
    [format!("{label}_a"), format!("{label}_b")]
}

/// A query over pair `names`.
pub fn query(names: &[String; 2], read: &Read) -> QueryRequest {
    QueryRequest::new(
        vec![names[0].as_str().into(), names[1].as_str().into()],
        read.point,
    )
    .k(read.k)
}

/// The standing query at `point`.
pub fn sub_read(point: [f64; 2]) -> Read {
    Read {
        pair: 0,
        point,
        k: READ_K,
        stream: false,
    }
}

/// One registered relation pair.
#[derive(Debug, Clone)]
pub struct Pair {
    /// Wire names.
    pub names: [String; 2],
    /// Catalog ids.
    pub ids: [usize; 2],
}

/// One standing query and the view its notifications replay to.
#[derive(Debug, Clone)]
pub struct Sub {
    /// Subscription id.
    pub id: u64,
    /// Query point.
    pub point: [f64; 2],
    /// The baseline with every delivered notification replayed over it.
    pub view: Vec<ResultRow>,
}

/// A booted server with its two client connections.
pub struct Stack {
    engine: Arc<Engine>,
    manager: Arc<SubscriptionManager>,
    server: Option<Server>,
    server_addr: SocketAddr,
    /// Connection 0 (writer; holds the subscriptions) and connection 1.
    pub clients: Vec<ApiClient>,
    /// Registered pairs, in `workload.pairs()` order.
    pub pairs: Vec<Pair>,
    /// Index of the pair the standing queries are on.
    pub standing: usize,
    /// Standing queries, registered on connection 0.
    pub subs: Vec<Sub>,
}

impl Stack {
    /// Boots the server, connects both clients, registers the data over
    /// the wire and takes the subscription baselines: the set-up `setup_s`
    /// times.
    pub fn boot(workload: Workload, data: &Dataset) -> Result<Stack, String> {
        let engine = Arc::new(engine_builder(workload).build());
        let session = Arc::new(Session::new(Arc::clone(&engine)));
        let manager = Arc::new(SubscriptionManager::new(
            Session::new(Arc::clone(&engine)),
            1024,
        ));
        let handler = Arc::new(Subscribing::new(session, Arc::clone(&manager)));
        let server = Server::bind("127.0.0.1:0", handler).map_err(|e| format!("bind: {e}"))?;
        let server_addr = server.local_addr();
        let mut clients = connect(server_addr)?;
        let mut pairs = Vec::new();
        for (&(_, label), rows) in workload.pairs().iter().zip(data) {
            let names = pair_names(label);
            let mut ids = [0; 2];
            for r in 0..2 {
                let tuples = rows[r]
                    .iter()
                    .map(|(p, s)| TupleData::new(p.to_vec(), *s))
                    .collect();
                ids[r] = match clients[0].call(&Request::RegisterRelation {
                    name: names[r].clone(),
                    tuples,
                }) {
                    Ok(Response::Registered { id, .. }) => id,
                    other => return Err(format!("register {}: {other:?}", names[r])),
                };
            }
            pairs.push(Pair { names, ids });
        }
        let standing = workload.standing_pair();
        let mut subs = Vec::new();
        for s in 0..SUBSCRIPTIONS {
            let point = workload::subscription_point(s);
            let (id, view, _) = clients[0]
                .subscribe(query(&pairs[standing].names, &sub_read(point)))
                .map_err(|e| format!("subscribe: {e}"))?;
            subs.push(Sub { id, point, view });
        }
        Ok(Stack {
            engine,
            manager,
            server: Some(server),
            server_addr,
            clients,
            pairs,
            standing,
            subs,
        })
    }

    /// Waits until the engine's trace drain has caught up with every
    /// query served so far.
    pub fn flush_traces(&self) {
        self.engine.obs().flush_traces();
    }

    /// Waits until every committed mutation has been re-evaluated, then
    /// drains the pushes still in flight on connection 0 into the views.
    pub fn settle(&mut self) -> Result<(), String> {
        self.manager.quiesce();
        while let Some(n) = self.clients[0]
            .wait_notification(Duration::from_millis(200))
            .map_err(|e| format!("drain notifications: {e}"))?
        {
            apply(&mut self.subs, &n)?;
        }
        Ok(())
    }

    /// Replaces the reader's connection (connection 1, which holds no
    /// standing query). A new connection gets a new server thread.
    pub fn reconnect_reader(&mut self) -> Result<(), String> {
        self.clients[1] = connect_one(self.server_addr)?;
        Ok(())
    }

    /// Unsubscribes, disconnects and stops the server. Unsubscribing first
    /// lets every connection thread finish.
    pub fn shutdown(mut self) {
        let ids: Vec<u64> = self.subs.iter().map(|s| s.id).collect();
        for id in ids {
            let _ = self.clients[0].unsubscribe(id);
        }
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

/// Opens the two client connections.
fn connect(addr: SocketAddr) -> Result<Vec<ApiClient>, String> {
    (0..2).map(|_| connect_one(addr)).collect()
}

/// Opens one client connection and negotiates prj/2 on it.
fn connect_one(addr: SocketAddr) -> Result<ApiClient, String> {
    let config = ClientConfig::with_timeouts(IO_TIMEOUT);
    let mut client = ApiClient::connect_with(addr, &config).map_err(|e| format!("connect: {e}"))?;
    client.negotiate().map_err(|e| format!("negotiate: {e}"))?;
    Ok(client)
}

/// Replays one notification over its subscription's view.
fn apply(subs: &mut [Sub], n: &prj_api::Notification) -> Result<usize, String> {
    let idx = subs
        .iter()
        .position(|s| s.id == n.id)
        .ok_or_else(|| format!("notification for unknown subscription {}", n.id))?;
    if n.fin.is_some() {
        return Err(format!("subscription {} closed: {:?}", n.id, n.fin));
    }
    subs[idx].view = apply_events(&subs[idx].view, &n.events, n.total)?;
    Ok(idx)
}

/// Mutations the writer has sent and had acknowledged, shared with the
/// reader so a racing read knows which appends it may have seen.
#[derive(Default)]
pub struct WriteProgress {
    sent: AtomicU64,
    acked: AtomicU64,
}

/// A sampled response, kept for the oracle.
#[derive(Debug, Clone)]
pub struct Checked {
    /// Request index in the workload's read sequence.
    pub index: u64,
    /// The served rows.
    pub rows: Vec<ResultRow>,
    /// Appends acknowledged before the request was sent.
    pub min_batches: u64,
    /// Appends sent before the response arrived.
    pub max_batches: u64,
}

/// What one reader saw.
#[derive(Debug, Default)]
pub struct ReadLog {
    /// Client-side latency of every completed read.
    pub latencies: Vec<Duration>,
    /// The [`Read::class`] of every completed read.
    pub classes: Vec<usize>,
    /// Time from each read's send to the next send (to the loop's end for
    /// the last): the closed loop's cycle, so reads per second of any run
    /// of consecutive reads is their count over their cycles' sum.
    pub cycles: Vec<Duration>,
    /// Sampled responses for the oracle.
    pub checked: Vec<Checked>,
    /// Reads sent.
    pub attempted: u64,
    /// Reads answered with an error, or malformed.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

/// Runs one closed-loop reader until `deadline`, drawing request indices
/// from `next`.
#[allow(clippy::too_many_arguments)]
pub fn read_loop(
    client: &mut ApiClient,
    pairs: &[Pair],
    reads: &Reads,
    next: &AtomicU64,
    deadline: Instant,
    progress: &WriteProgress,
    sample_stride: u64,
    seed: u64,
) -> ReadLog {
    let mut log = ReadLog::default();
    let mut previous: Option<Instant> = None;
    while Instant::now() < deadline {
        let index = next.fetch_add(1, Ordering::Relaxed);
        let read = reads.get(index);
        let names = &pairs[read.pair].names;
        let min_batches = progress.acked.load(Ordering::SeqCst);
        log.attempted += 1;
        let started = Instant::now();
        if let Some(previous) = previous.replace(started) {
            log.cycles.push(started - previous);
        }
        let outcome = if read.stream {
            client.stream_collect(query(names, &read))
        } else {
            client.top_k(query(names, &read)).map(|(rows, _)| rows)
        };
        let latency = started.elapsed();
        let max_batches = progress.sent.load(Ordering::SeqCst);
        match outcome {
            Ok(rows) if oracle::well_formed(&rows, read.k) => {
                log.latencies.push(latency);
                log.classes.push(read.class());
                if (index + seed).is_multiple_of(sample_stride)
                    && log.checked.len() < CHECKED_PER_SEGMENT
                {
                    log.checked.push(Checked {
                        index,
                        rows,
                        min_batches,
                        max_batches,
                    });
                }
            }
            Ok(rows) => fail(
                &mut log.failed,
                &mut log.errors,
                format!("read {index}: malformed {rows:?}"),
            ),
            Err(e) => fail(
                &mut log.failed,
                &mut log.errors,
                format!("read {index}: {e}"),
            ),
        }
    }
    if let Some(previous) = previous {
        log.cycles.push(previous.elapsed());
    }
    log
}

fn fail(failed: &mut u64, errors: &mut Vec<String>, message: String) {
    *failed += 1;
    if errors.len() < 4 {
        errors.push(message);
    }
}

/// What the writer saw.
#[derive(Debug, Default)]
pub struct WriteLog {
    /// Send → `Appended` latency of every acknowledged append.
    pub append: Vec<Duration>,
    /// Send → targeted notification latency of every mutation.
    pub notify: Vec<Duration>,
    /// Wall time of each mutation cycle: append, targeted notification,
    /// idle notifier.
    pub cycles: Vec<Duration>,
    /// Batches appended to the uniform pair's first relation, in order.
    pub batches: Vec<Vec<Row>>,
    /// Mutations sent.
    pub attempted: u64,
    /// Mutations that failed (error, timeout, or a notification that did
    /// not replay).
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

/// The writer, until `deadline`: appends batch `m` to the first relation
/// of the `standing` pair (its last tuple
/// targeted at standing query `(m + seed) % SUBSCRIPTIONS`; `m` counts on from the
/// mutations `progress` has seen), waits for that subscriber's
/// notification while replaying collateral pushes into the other views,
/// then waits until the notifier has re-evaluated every standing query.
pub fn write_loop(
    client: &mut ApiClient,
    standing: &Pair,
    subs: &mut [Sub],
    seed: u64,
    deadline: Instant,
    progress: &WriteProgress,
) -> WriteLog {
    let mut log = WriteLog::default();
    let relation = standing.names[0].clone();
    let relation_id = standing.ids[0];
    while Instant::now() < deadline {
        let m = progress.sent.load(Ordering::SeqCst);
        let target = ((m + seed) % subs.len() as u64) as usize;
        let batch = data::append_batch(seed, m, BATCH, subs[target].point);
        let tuples = batch
            .iter()
            .map(|(p, s)| TupleData::new(p.to_vec(), *s))
            .collect();
        log.attempted += 1;
        progress.sent.fetch_add(1, Ordering::SeqCst);
        let t0 = Instant::now();
        let appended = client.call(&Request::AppendTuples {
            relation: relation.as_str().into(),
            tuples,
        });
        let cardinality = match appended {
            Ok(Response::Appended { cardinality, .. }) => cardinality,
            other => {
                fail(
                    &mut log.failed,
                    &mut log.errors,
                    format!("append {m}: {other:?}"),
                );
                break;
            }
        };
        log.append.push(t0.elapsed());
        progress.acked.fetch_add(1, Ordering::SeqCst);
        log.batches.push(batch);
        let targeted = (relation_id, cardinality - 1);
        match await_targeted(client, subs, target, targeted, t0) {
            Ok(delay) => log.notify.push(delay),
            Err(e) => fail(
                &mut log.failed,
                &mut log.errors,
                format!("mutation {m}: {e}"),
            ),
        }
        if let Err(e) = await_idle_notifier(client) {
            fail(
                &mut log.failed,
                &mut log.errors,
                format!("mutation {m}: {e}"),
            );
            break;
        }
        log.cycles.push(t0.elapsed());
    }
    log
}

/// Polls the server's `Health` verb until its subscription queue is empty,
/// so every mutation cycle ends with all standing queries re-evaluated:
/// the next append meets an idle notifier, and a cycle's cost does not
/// depend on where the notifier's (per-process random) visiting order put
/// the targeted subscriber. Pushes read meanwhile stay buffered in the
/// client for the next wait.
fn await_idle_notifier(client: &mut ApiClient) -> Result<(), String> {
    loop {
        match client.call(&Request::Health) {
            Ok(Response::Health(h)) if h.sub_queue_depth == 0 => return Ok(()),
            Ok(Response::Health(_)) => std::thread::sleep(HEALTH_POLL),
            other => return Err(format!("health: {other:?}")),
        }
    }
}

/// Reads pushes until subscriber `target`'s view holds the `targeted`
/// tuple; returns the delay from `t0`.
fn await_targeted(
    client: &mut ApiClient,
    subs: &mut [Sub],
    target: usize,
    targeted: (usize, usize),
    t0: Instant,
) -> Result<Duration, String> {
    loop {
        let remaining = NOTIFY_TIMEOUT.saturating_sub(t0.elapsed());
        if remaining < Duration::from_millis(1) {
            return Err("targeted notification timed out".to_string());
        }
        let n = client
            .wait_notification(remaining)
            .map_err(|e| e.to_string())?
            .ok_or("targeted notification timed out")?;
        let idx = apply(subs, &n)?;
        if idx == target && subs[idx].view.iter().any(|r| r.tuples.contains(&targeted)) {
            return Ok(t0.elapsed());
        }
    }
}

/// One oracle comparison: served rows and the data they must match.
pub struct Case {
    what: String,
    rows: Vec<ResultRow>,
    /// Appended batches any of which counts may have been visible.
    batches: std::ops::RangeInclusive<usize>,
    pair: usize,
    ids: [usize; 2],
    point: [f64; 2],
    k: usize,
}

/// Sampled reads as oracle cases.
pub fn read_cases(reads: &Reads, pairs: &[Pair], checked: &[Checked]) -> Vec<Case> {
    checked
        .iter()
        .map(|c| {
            let read = reads.get(c.index);
            Case {
                what: format!("read {}", c.index),
                rows: c.rows.clone(),
                batches: c.min_batches as usize..=c.max_batches as usize,
                pair: read.pair,
                ids: pairs[read.pair].ids,
                point: read.point,
                k: read.k,
            }
        })
        .collect()
}

/// Every `CHECKED_SUB_STRIDE`-th standing query's current view as an
/// oracle case, `batches` appends after registration.
pub fn sub_cases(stack: &Stack, batches: usize) -> Vec<Case> {
    stack
        .subs
        .iter()
        .step_by(CHECKED_SUB_STRIDE)
        .map(|sub| Case {
            what: format!("subscription {}", sub.id),
            rows: sub.view.clone(),
            batches: batches..=batches,
            pair: stack.standing,
            ids: stack.pairs[stack.standing].ids,
            point: sub.point,
            k: READ_K,
        })
        .collect()
}

/// Checks every case against `naive_rank_join` over the generated data
/// plus the appended `batches` (which only ever extend the first relation
/// of pair `standing`), on two threads. Returns the checks made, the
/// mismatches and a description of the first few.
pub fn check(
    data: &Dataset,
    standing: usize,
    batches: &[Vec<Row>],
    cases: &[Case],
) -> (u64, u64, Vec<String>) {
    let appended: Vec<Row> = batches.iter().flatten().copied().collect();
    let holds = |case: &Case| -> bool {
        case.batches.clone().any(|m| {
            let mut first = data[case.pair][0].clone();
            if case.pair == standing {
                first.extend_from_slice(&appended[..(m * BATCH).min(appended.len())]);
            }
            let expected = oracle::naive_top_k(
                &[(case.ids[0], &first), (case.ids[1], &data[case.pair][1])],
                case.point,
                case.k,
            );
            oracle::same_rows(&case.rows, &expected)
        })
    };
    let half = cases.len().div_ceil(2).max(1);
    let verdicts: Vec<bool> = std::thread::scope(|scope| {
        let handles: Vec<_> = cases
            .chunks(half)
            .map(|chunk| scope.spawn(move || chunk.iter().map(holds).collect::<Vec<_>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread"))
            .collect()
    });
    let mut failed = 0;
    let mut errors = Vec::new();
    for (case, ok) in cases.iter().zip(verdicts) {
        if !ok {
            fail(
                &mut failed,
                &mut errors,
                format!("oracle mismatch on {}", case.what),
            );
        }
    }
    (cases.len() as u64, failed, errors)
}
