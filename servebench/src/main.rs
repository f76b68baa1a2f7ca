//! `servebench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload topk-cold|topk-hot|ingest-notify --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` boots the served stack, runs the workload's closed-loop
//! clients for `--seconds`, checks sampled responses against the naive
//! oracle and prints the end-to-end metrics. `--trace 1` runs the same
//! timed window, then replays the workload's seeded requests in process
//! with benchmark-side spans around each layer's public call and prints the
//! per-layer metrics. The last line of standard output is one JSON object;
//! a human-readable table goes to standard error. See `README.md` beside
//! this file for why each workload exists and what each metric should
//! move.

mod affinity;
mod data;
mod oracle;
mod replay;
mod served;
mod stats;
mod workload;

use served::{Dataset, Stack, WriteProgress};
use stats::{chunked, median, millis, quantile, rate};
use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};
use workload::{Reads, Workload};

/// Stack boots per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Segments of the timed window; see [`timed`].
const SEGMENTS: u32 = 4;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{arg} expects a value"))?;
        match arg.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed expects an integer")?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| "--seconds expects an integer")?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Samples behind a timing, shown in the table.
    samples: Option<usize>,
}

impl Metric {
    /// A metric without a sample count.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            samples: None,
        }
    }

    /// A metric with the number of samples behind it.
    pub fn sampled(name: impl Into<String>, value: f64, unit: &'static str, n: usize) -> Metric {
        Metric {
            samples: Some(n),
            ..Metric::new(name, value, unit)
        }
    }
}

/// Outcome counts: requests, mutations and oracle checks attempted, and
/// those that failed.
#[derive(Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn add(&mut self, attempted: u64, failed: u64, errors: Vec<String>) {
        self.attempted += attempted;
        self.failed += failed;
        for e in errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }
}

/// What the timed window measured.
struct Timed {
    setups: Vec<Duration>,
    /// Heap in use once the stack is ready to serve.
    ready_heap_mb: f64,
    reads: Vec<Duration>,
    read_classes: Vec<usize>,
    read_cycles: Vec<Duration>,
    append: Vec<Duration>,
    notify: Vec<Duration>,
    write_cycles: Vec<Duration>,
}

/// Boots the stack `SETUPS` times (each boot is one `setup_s` sample;
/// the last stack serves the run), warms the hot keys (untimed), then
/// runs the timed window as `SEGMENTS` equal segments, so every metric's
/// samples spread over the whole window. On ingest-notify the writer runs
/// beside the reader for the whole segment. The read-only workloads read
/// for the first two thirds of a segment and give the last third to the
/// writer alone (the write probe), on a pair of its own: no append changes
/// the data their reads see. Each segment reads on a fresh connection: a
/// new connection gets a new server thread, so one run averages over
/// several placements of it. The writer's connection and the standing
/// queries stay for the whole run: the plan of a standing query is frozen
/// when it subscribes, so subscribing again after some appends would
/// change what every later refresh costs. Sampled responses and the
/// standing queries' views are checked against the oracle after the
/// window.
fn timed(args: &Args, data: &Dataset, tally: &mut Tally) -> Result<Timed, String> {
    let workload = args.workload;
    let seed = args.seed;
    let mut setups = Vec::new();
    let mut stack = None;
    for _ in 0..SETUPS {
        if let Some(previous) = stack.take() {
            Stack::shutdown(previous);
        }
        let started = Instant::now();
        stack = Some(Stack::boot(workload, data)?);
        setups.push(started.elapsed());
    }
    let mut stack = stack.expect("at least one set-up");
    let reads = Reads::new(workload, seed);
    let warm = Instant::now();
    warm_up(&mut stack, &reads)?;
    let warm_time = warm.elapsed();

    let mut t = Timed {
        setups,
        ready_heap_mb: heap_in_use_mb(),
        reads: Vec::new(),
        read_classes: Vec::new(),
        read_cycles: Vec::new(),
        append: Vec::new(),
        notify: Vec::new(),
        write_cycles: Vec::new(),
    };
    let next = AtomicU64::new(0);
    let progress = WriteProgress::default();
    let mut batches = Vec::new();
    let mut cases = Vec::new();
    let window = Duration::from_secs(args.seconds);
    let read_window = if workload.concurrent_writer() {
        window
    } else {
        window * 2 / 3
    };
    let sample_stride = match workload {
        Workload::TopkCold => 4,
        Workload::TopkHot => 499,
        Workload::IngestNotify => 8,
    };
    let all_cpus = affinity::CpuSet::current();
    let standing = stack.standing;
    for s in 0..SEGMENTS {
        if s > 0 {
            stack.reconnect_reader()?;
        }
        if workload.pinned_reads() {
            if let Some(all) = all_cpus {
                let cpus = all.cpus();
                affinity::CpuSet::only(cpus[s as usize % cpus.len()]).apply_to_process();
            }
        }
        // The engine's trace drain runs behind the queries; let it catch
        // up so no segment inherits the previous one's backlog.
        stack.flush_traces();
        let deadline = Instant::now() + read_window / SEGMENTS;
        let Stack {
            clients,
            pairs,
            subs,
            ..
        } = &mut stack;
        let [writer, reader] = clients.as_mut_slice() else {
            unreachable!("a stack holds two connections")
        };
        let (read_log, write_log) = std::thread::scope(|scope| {
            let handle = {
                let (pairs, reads, next, progress) = (&*pairs, &reads, &next, &progress);
                scope.spawn(move || {
                    served::read_loop(
                        reader,
                        pairs,
                        reads,
                        next,
                        deadline,
                        progress,
                        sample_stride,
                        seed,
                    )
                })
            };
            let write_log = workload.concurrent_writer().then(|| {
                served::write_loop(writer, &pairs[standing], subs, seed, deadline, &progress)
            });
            (handle.join().expect("reader thread"), write_log)
        });
        if let Some(all) = all_cpus {
            all.apply_to_process();
        }
        tally.add(read_log.attempted, read_log.failed, read_log.errors);
        t.reads.extend(read_log.latencies);
        t.read_classes.extend(read_log.classes);
        t.read_cycles.extend(read_log.cycles);
        cases.extend(served::read_cases(&reads, &stack.pairs, &read_log.checked));
        let write_log = match write_log {
            Some(log) => log,
            None => {
                // The write probe, alone.
                stack.flush_traces();
                let deadline = Instant::now() + (window - read_window) / SEGMENTS;
                served::write_loop(
                    &mut stack.clients[0],
                    &stack.pairs[standing],
                    &mut stack.subs,
                    seed,
                    deadline,
                    &progress,
                )
            }
        };
        tally.add(write_log.attempted, write_log.failed, write_log.errors);
        batches.extend(write_log.batches);
        t.append.extend(write_log.append);
        t.notify.extend(write_log.notify);
        t.write_cycles.extend(write_log.cycles);
    }
    stack.settle()?;
    cases.extend(served::sub_cases(&stack, batches.len()));
    stack.shutdown();
    let oracle_start = Instant::now();
    let (attempted, failed, errors) = served::check(data, standing, &batches, &cases);
    tally.add(attempted, failed, errors);
    eprintln!(
        "  phases: set-up {:.1}s, warm-up {:.1}s, window {:.1}s, oracle {:.1}s ({attempted} checks)",
        t.setups.iter().sum::<Duration>().as_secs_f64(),
        warm_time.as_secs_f64(),
        args.seconds,
        oracle_start.elapsed().as_secs_f64()
    );
    Ok(t)
}

/// Touches every hot key once on both connections (untimed), so the
/// window reads from a full result cache.
fn warm_up(stack: &mut Stack, reads: &Reads) -> Result<(), String> {
    let keys = reads.warm_up();
    let pairs = &stack.pairs;
    let half = keys.len().div_ceil(2);
    std::thread::scope(|scope| {
        let handles: Vec<_> = stack
            .clients
            .iter_mut()
            .zip(keys.chunks(half.max(1)))
            .map(|(client, chunk)| {
                scope.spawn(move || -> Result<(), String> {
                    for read in chunk {
                        client
                            .top_k(served::query(&pairs[read.pair].names, read))
                            .map_err(|e| format!("warm-up: {e}"))?;
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("warm-up thread"))
    })
}

/// `struct mallinfo2` of glibc.
#[repr(C)]
struct MallInfo2 {
    arena: usize,
    ordblks: usize,
    smblks: usize,
    hblks: usize,
    hblkhd: usize,
    usmblks: usize,
    fsmblks: usize,
    uordblks: usize,
    fordblks: usize,
    keepcost: usize,
}

extern "C" {
    fn mallinfo2() -> MallInfo2;
}

/// Heap bytes the process has allocated and not freed, in all of the
/// allocator's arenas and its separately mapped blocks. The resident set
/// also counts freed memory the allocator keeps, which depends on how
/// threads' allocations interleaved: on `ingest-notify` it moved by 25%
/// between runs of identical stacks, even after `malloc_trim`.
fn heap_in_use_mb() -> f64 {
    // SAFETY: `mallinfo2` only reads the allocator's statistics.
    let info = unsafe { mallinfo2() };
    (info.uordblks + info.hblkhd) as f64 / (1024.0 * 1024.0)
}

/// The typical read latency: the median of each request class (pair and
/// kind; see [`workload::Read::class`]), and the geometric mean of those,
/// so a class that got twice as fast counts alike whatever its latency.
/// On `topk-cold` the classes' medians span 9 ms to 170 ms and barely
/// overlap, so one median over all reads sat in the thin gap between two
/// classes and moved by 20% with the few reads a run issues of each.
fn class_p50(t: &Timed) -> f64 {
    let mut by_class: Vec<Vec<f64>> = Vec::new();
    for (latency, &class) in t.reads.iter().zip(&t.read_classes) {
        if by_class.len() <= class {
            by_class.resize(class + 1, Vec::new());
        }
        by_class[class].push(latency.as_secs_f64() * 1e3);
    }
    let logs: Vec<f64> = by_class
        .iter()
        .filter(|c| !c.is_empty())
        .map(|c| chunked(c, median).ln())
        .collect();
    (logs.iter().sum::<f64>() / logs.len().max(1) as f64).exp()
}

fn end_to_end(t: &Timed) -> Vec<Metric> {
    let reads = millis(&t.reads);
    let cycles: Vec<f64> = t.read_cycles.iter().map(Duration::as_secs_f64).collect();
    let write_cycles: Vec<f64> = t.write_cycles.iter().map(Duration::as_secs_f64).collect();
    let setups: Vec<f64> = t.setups.iter().map(Duration::as_secs_f64).collect();
    vec![
        Metric::sampled("query_p50_ms", class_p50(t), "ms", reads.len()),
        Metric::sampled(
            "query_p99_ms",
            chunked(&reads, |c| quantile(c, 0.99)),
            "ms",
            reads.len(),
        ),
        Metric::sampled("query_qps", rate(&cycles), "1/s", cycles.len()),
        Metric::sampled(
            "mutations_per_s",
            rate(&write_cycles),
            "1/s",
            write_cycles.len(),
        ),
        Metric::sampled("setup_s", median(&setups), "s", setups.len()),
        Metric::new("ready_heap_mb", t.ready_heap_mb, "MB"),
    ]
}

/// Write-path latencies, shown in the table but not gated: with one
/// refresh round of 32 standing queries per mutation a run completes only
/// 40-130 mutations, and the notification delay depends on where the
/// notifier's per-process visiting order puts the targeted subscriber.
fn write_latencies(t: &Timed) -> Vec<Metric> {
    let append = millis(&t.append);
    let notify = millis(&t.notify);
    vec![
        Metric::sampled("append_p50_ms", median(&append), "ms", append.len()),
        Metric::sampled("append_p99_ms", quantile(&append, 0.99), "ms", append.len()),
        Metric::sampled("notify_p50_ms", median(&notify), "ms", notify.len()),
        Metric::sampled("notify_p95_ms", quantile(&notify, 0.95), "ms", notify.len()),
    ]
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn print_report(args: &Args, metrics: &[Metric], shown: &[Metric], tally: &Tally, correct: bool) {
    eprintln!(
        "servebench {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (m, note) in metrics
        .iter()
        .map(|m| (m, ""))
        .chain(shown.iter().map(|m| (m, "  (not gated)")))
    {
        let samples = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
        eprintln!(
            "  {:<34} {:>14.4} {:<6}{samples}{note}",
            m.name, m.value, m.unit
        );
    }
    eprintln!(
        "  error_rate {:.6} ({} failed / {} attempted)",
        stats::ratio(tally.failed as f64, tally.attempted as f64),
        tally.failed,
        tally.attempted
    );
    for e in &tally.errors {
        eprintln!("  error: {e}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_escape(&m.name),
                if m.value.is_finite() { m.value } else { 0.0 },
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
}

fn run(args: &Args) -> Result<bool, String> {
    let data = served::dataset(args.workload);
    let mut tally = Tally::default();
    let timed = timed(args, &data, &mut tally)?;
    let metrics = if args.trace {
        replay::per_layer(
            args.workload,
            args.seed,
            &data,
            &millis(&timed.reads),
            &mut tally,
        )?
    } else {
        end_to_end(&timed)
    };
    let correct = tally.failed == 0;
    print_report(args, &metrics, &write_latencies(&timed), &tally, correct);
    Ok(correct)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!(
                "usage: servebench --workload topk-cold|topk-hot|ingest-notify \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(1);
        }
    }
}
