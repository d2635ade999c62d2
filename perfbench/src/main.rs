//! The repository's end-to-end benchmark.
//!
//! ```sh
//! python3 perfbench/run.py --workload <ingest|train|query> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Every run sets up the same served dataset (written through the write
//! path into simulated S3, mounted on an in-process hub, reached through
//! one `RemoteProvider`) three times and reports the median set-up time.
//! It then measures `--seconds / ROUND_SECS` rounds, each running three
//! phases: `ingest` (fresh datasets written through the write path),
//! `train` (shuffled `DataLoader` epochs over the hub) and `query` (TQL
//! over the hub, open loop at a fixed rate, then closed loop). The
//! chosen workload's phase does twice the work of the other two. Every
//! workload runs every phase because every run prints every end-to-end
//! metric; interleaving the phases in rounds spreads each metric's
//! samples over the whole run. Every phase checks its outputs.
//!
//! `--trace 1` runs only the workload's phase, in three segments
//! (untraced, traced, untraced), and prints the per-layer metrics of the
//! traced segment plus the tracing overhead. Spans are written to
//! `.bench_out/spans-<workload>-<seed>.csv`.
//!
//! The last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod counting;
mod data;
mod gen;
mod query;
mod spans;
mod stats;
mod train;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use deeplake_obs::MetricsSnapshot;

use counting::{Counts, Method};
use data::{IngestOut, RowSamples, Served};
use gen::{OpClass, OpStream, Rows};
use query::{QueryOut, Truth};
use stats::{mean, median, quantile, ratio, Delta};
use train::{TrainOut, Trainer};

/// Rows of the served dataset (about 130 image chunks).
const SERVED_ROWS: u64 = 10_000;
/// Rows one ingest cycle writes, and the commit interval.
const INGEST_ROWS: u64 = 4_000;
const COMMIT_EVERY: u64 = 1_000;
/// Times the served dataset is set up per run (median reported).
const SETUP_REPS: usize = 3;
/// Fixed open-loop rate, ops/s: about a fifth of the closed-loop
/// capacity measured with `--seed 1` (76 ops/s on two cores). A `hot` op
/// that arrives while executed ops hold both cores waits for one; at
/// higher rates over half the `hot` ops of some runs did, and their
/// median jumped from 0.4 to 1.9 ms.
const QUERY_RATE: f64 = 16.0;
/// Per round (doubled for the workload's own phase): fresh datasets
/// ingested, timed epochs, epoch starts timed to their first batch.
const INGEST_CYCLES: usize = 1;
const EPOCHS: usize = 2;
const FIRST_BATCHES: usize = 12;
/// A round takes about 10 s on two cores; a run measures
/// `--seconds / ROUND_SECS` rounds (at least two).
const ROUND_SECS: u64 = 10;
/// Query time per round (doubled for the `query` workload): open loop,
/// then closed loop.
const ROUND_OPEN: Duration = Duration::from_secs(3);
const ROUND_CLOSED: Duration = Duration::from_millis(500);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    Ingest,
    Train,
    Query,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let v = it.next().ok_or(format!("{k} needs a value"))?;
        kv.insert(k, v);
    }
    let get = |k: &str| kv.get(k).ok_or(format!("missing {k}"));
    let num = |k: &str| -> Result<u64, String> { get(k)?.parse().map_err(|e| format!("{k}: {e}")) };
    let workload = match get("--workload")?.as_str() {
        "ingest" => Workload::Ingest,
        "train" => Workload::Train,
        "query" => Workload::Query,
        w => return Err(format!("unknown workload {w:?}")),
    };
    let trace = match num("--trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace {t}: want 0 or 1")),
    };
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds: num("--seconds")?.max(1),
        trace,
    })
}

/// Metric name → (value, unit), in output order.
#[derive(Default)]
struct Report(Vec<(&'static str, f64, &'static str)>);

impl Report {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .0
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

/// `VmRSS` and `VmHWM` (the resident high-water mark) of this process, MB.
fn rss_mb() -> (f64, f64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |name: &str| {
        status
            .lines()
            .find(|l| l.starts_with(name))
            .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
            .map_or(f64::NAN, |kb| kb / 1024.0)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

extern "C" {
    /// glibc: hand free heap pages of every arena back to the kernel.
    fn malloc_trim(pad: usize) -> std::os::raw::c_int;
}

/// Hand freed heap back to the kernel, so memory one phase freed is not
/// counted as resident in the next (glibc keeps it per thread arena).
fn release_free_heap() {
    // SAFETY: malloc_trim only releases pages the allocator holds free
    unsafe { malloc_trim(0) };
}

/// Release freed heap and restart the resident high-water mark at the
/// current resident size (`/proc/self/clear_refs`, value 5). Returns
/// that size, MB, or NaN if the mark cannot be reset.
fn reset_peak_rss() -> f64 {
    release_free_heap();
    match std::fs::write("/proc/self/clear_refs", "5") {
        Ok(()) => rss_mb().0,
        Err(_) => f64::NAN,
    }
}

fn pregenerate(gen: &Rows) -> Vec<RowSamples> {
    (0..INGEST_ROWS)
        .map(|r| RowSamples::generate(gen, r))
        .collect()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // load comes from at most two sender threads and two connections
    let nproc = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    let gen = Rows::new(args.seed);
    let (report, attempted, failed, extra_ok) = if args.trace {
        traced(&args, &gen, nproc)
    } else {
        end_to_end(&args, &gen, nproc)
    };
    let correct = failed == 0 && attempted > 0 && extra_ok;
    println!("{}", report.json(correct, attempted.max(1), failed));
}

/// Set up the served dataset `SETUP_REPS` times; keep the last.
fn setup(gen: &Rows, nproc: usize) -> (Served, Vec<f64>) {
    let mut secs = Vec::new();
    let mut served = None;
    for _ in 0..SETUP_REPS {
        drop(served.take());
        let t0 = Instant::now();
        served = Some(data::serve(gen, SERVED_ROWS, nproc));
        secs.push(t0.elapsed().as_secs_f64());
    }
    (served.expect("at least one set-up"), secs)
}

fn end_to_end(args: &Args, gen: &Rows, nproc: usize) -> (Report, u64, u64, bool) {
    let t0 = Instant::now();
    let (served, setup_secs) = setup(gen, nproc);
    eprintln!("perfbench: set-up {setup_secs:.3?} s");
    let rows = pregenerate(gen);
    let truth = Truth::new(gen, served.rows);
    let mut stream = OpStream::new(gen, served.rows, args.seed);
    let mut trainer = Trainer::new(&served, args.seed, nproc);
    let (mut ing, mut tr, mut q) = (
        IngestOut::default(),
        TrainOut::default(),
        QueryOut::default(),
    );
    query::warm(&served, &truth, &mut q);
    // peak memory is counted above the level here: the served dataset,
    // its bucket and the pre-generated ingest rows are the benchmark's
    let resident_mb = reset_peak_rss();

    // rounds of all three phases, so every metric samples the whole run;
    // the workload's own phase does twice the work in each round
    let own = |w: Workload| if w == args.workload { 2 } else { 1 };
    let rounds = (args.seconds / ROUND_SECS).max(2);
    for round in 1..=rounds {
        release_free_heap();
        let n = own(Workload::Ingest) * INGEST_CYCLES;
        data::ingest_phase(gen, &rows, COMMIT_EVERY, n, &mut ing);
        release_free_heap();
        trainer.warm_up(gen, &mut tr);
        trainer.epochs(gen, own(Workload::Train) * EPOCHS, &mut tr);
        trainer.first_batches(gen, own(Workload::Train) * FIRST_BATCHES, &mut tr);
        release_free_heap();
        let seed = args.seed ^ round << 32;
        query::open_loop(
            &served,
            &truth,
            &mut stream,
            seed,
            QUERY_RATE,
            nproc,
            ROUND_OPEN * own(Workload::Query) as u32,
            &mut q,
        );
        let closed = ROUND_CLOSED * own(Workload::Query) as u32;
        query::closed_loop(&served, &truth, &mut stream, nproc, closed, &mut q);
    }
    let peak_mb = rss_mb().1 - resident_mb;
    drop((trainer, served, rows));
    eprintln!("perfbench: {rounds} rounds, done at {:.1?}", t0.elapsed());

    let mut r = Report::default();
    r.put("setup_s", median(&setup_secs), "s");
    // the run's resident peak above the post-set-up level, with freed
    // heap released between phases
    r.put("peak_rss_mb", peak_mb, "MB");
    r.put("ingest.mb_per_s", median(&ing.mb_per_s), "MB/s");
    r.put(
        "ingest.stored_bytes_per_user_byte",
        median(&ing.stored_per_user),
        "ratio",
    );
    r.put("train.rows_per_s", median(&tr.rows_per_s), "rows/s");
    r.put("train.first_batch_ms", median(&tr.first_batch_ms), "ms");
    // how much longer a GPU waits in `next()` for a slow batch than for a
    // typical one: the p95 wait over the median wait, over every batch
    // of the run's timed epochs (156 an epoch; at 30 s a run has 936 or
    // more, so 47 or more lie beyond p95). A ratio, not the p95 in ms:
    // that moved with the host's speed, which shifts for minutes at a
    // time, by a quarter between runs of the same code, and `rows_per_s`
    // already carries the speed. Read the two together: a change that
    // speeds up only the typical batch raises this ratio.
    let wait_p95 = quantile(&tr.batch_wait_ms, 0.95);
    r.put(
        "train.batch_wait_p95_over_p50",
        ratio(wait_p95, median(&tr.batch_wait_ms)),
        "ratio",
    );
    // p95, not p99: a run sends 140 to 290 open-loop ops, so p99 rests
    // on one to three samples. The slowest class (`asof`, an eighth of
    // the mix) fills the top eighth of the distribution and p95 falls
    // inside its cluster; p90 sits near its lower edge, where the number
    // of `asof` ops a run happens to draw decides which cluster it reads.
    r.put("query.p95_ms", quantile(&q.all_latency_ms, 0.95), "ms");
    // no end-to-end p50 for `hot`: at 0.4 ms it moved with host CPU
    // steal, by 0.28 between runs in a noisy stretch, beyond the largest
    // bound a metric may have. The traced `query` run measures the cache
    // path (`hub.cache_hit_ratio`, `hub.cache_lookup_p50_ms`), and a
    // cache that stopped hitting would cut `query.capacity_qps` by almost
    // half.
    for (name, class) in [
        ("query.scan_p50_ms", "scan"),
        ("query.range_p50_ms", "range"),
        ("query.topk_p50_ms", "topk"),
        ("query.asof_p50_ms", "asof"),
    ] {
        let v = q.latency_ms.get(class).map_or(f64::NAN, |v| median(v));
        r.put(name, v, "ms");
    }
    r.put(
        "query.topk_recall_at_10",
        mean(q.recall.iter().copied()),
        "ratio",
    );
    r.put("query.capacity_qps", q.capacity_qps(nproc), "1/s");
    // every end-to-end metric is a positive measurement
    let all_positive = r.0.iter().all(|(_, v, _)| v.is_finite() && *v > 0.0);
    let attempted = ing.attempted + tr.attempted + q.attempted;
    let failed = ing.failed + tr.failed + q.failed;
    (r, attempted, failed, all_positive)
}

/// Hub and client registry snapshots around one segment. Taken hub
/// first, client second before, and the other way round after, so the
/// client delta holds no `Metrics` round trip.
struct Around {
    hub: MetricsSnapshot,
    client: MetricsSnapshot,
    counts: Counts,
}

fn snapshot(served: &Served, before: bool) -> Around {
    let hub_metrics = || served.client.hub_metrics().expect("hub metrics");
    let (hub, client) = if before {
        let hub = hub_metrics();
        (hub, served.client.metrics())
    } else {
        let client = served.client.metrics();
        (hub_metrics(), client)
    };
    Around {
        hub,
        client,
        counts: served.counting.counts(),
    }
}

/// Per-layer metric names and units, in output order. A metric a
/// workload's phase does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("storage.put.calls", "count"),
    ("storage.put.bytes", "B"),
    ("storage.put.meta_bytes", "B"),
    ("storage.put.busy_ms", "ms"),
    ("storage.read.round_trips", "count"),
    ("storage.read.logical_reads", "count"),
    ("storage.read.bytes", "B"),
    ("storage.read.busy_ms", "ms"),
    ("storage.read.bytes_per_delivered_byte", "ratio"),
    ("storage.read.round_trips_per_query", "count"),
    ("storage.read.meta_round_trips_per_query", "count"),
    ("core.append_row.self_ms", "ms"),
    ("core.flush.busy_ms", "ms"),
    ("core.commit.p50_ms", "ms"),
    ("index.build_ms", "ms"),
    ("index.clusters_probed_per_query", "count"),
    ("index.candidates_reranked_per_query", "count"),
    ("loader.fetch_ms", "ms"),
    ("loader.decode_ms", "ms"),
    ("loader.collate_ms", "ms"),
    ("loader.queue_wait_ms", "ms"),
    ("loader.fetch_p99_ms", "ms"),
    ("loader.worker_utilization", "ratio"),
    ("remote.round_trips", "count"),
    ("remote.round_trip_p50_ms", "ms"),
    ("remote.round_trip_p99_ms", "ms"),
    ("remote.bytes_received", "B"),
    ("remote.busy_retries", "count"),
    ("hub.queue_wait_p50_ms", "ms"),
    ("hub.queue_wait_p99_ms", "ms"),
    ("hub.execute_p50_ms", "ms"),
    ("hub.read_p50_ms", "ms"),
    ("hub.storage_sum_ms", "ms"),
    ("hub.flush_p99_ms", "ms"),
    ("hub.busy_rejections", "count"),
    ("hub.cache_hit_ratio", "ratio"),
    ("hub.cache_lookup_p50_ms", "ms"),
    ("hub.unaccounted_ms", "ms"),
    ("tql.scan.prune_ms", "ms"),
    ("tql.scan.fetch_ms", "ms"),
    ("tql.scan.decode_ms", "ms"),
    ("tql.scan.rerank_ms", "ms"),
    ("tql.scan.chunks_scanned_per_query", "count"),
    ("tql.scan.chunks_pruned_ratio", "ratio"),
    ("tql.range.prune_ms", "ms"),
    ("tql.range.fetch_ms", "ms"),
    ("tql.range.decode_ms", "ms"),
    ("tql.range.rerank_ms", "ms"),
    ("tql.range.chunks_scanned_per_query", "count"),
    ("tql.range.chunks_pruned_ratio", "ratio"),
    ("tql.topk.prune_ms", "ms"),
    ("tql.topk.fetch_ms", "ms"),
    ("tql.topk.decode_ms", "ms"),
    ("tql.topk.rerank_ms", "ms"),
    ("tql.topk.chunks_scanned_per_query", "count"),
    ("tql.topk.chunks_pruned_ratio", "ratio"),
    ("tql.asof.prune_ms", "ms"),
    ("tql.asof.fetch_ms", "ms"),
    ("tql.asof.decode_ms", "ms"),
    ("tql.asof.rerank_ms", "ms"),
    ("tql.asof.chunks_scanned_per_query", "count"),
    ("tql.asof.chunks_pruned_ratio", "ratio"),
    ("bench.gen_late_p99_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
];

fn traced(args: &Args, gen: &Rows, nproc: usize) -> (Report, u64, u64, bool) {
    let seg = Duration::from_secs(args.seconds).div_f64(3.0);
    let mut vals: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (mut attempted, mut failed) = (0, 0);
    // headline of each segment, higher is better: MB/s, rows/s, and the
    // inverse of the mix-weighted mean of each class's mean query latency
    // (not the median: half the ops are `hot`, so the median of all ops
    // sits between the cache and execution clusters; and not the plain
    // mean, which moves with how many ops of each class a segment drew)
    let mut headline = Vec::new();
    let mut kept = Vec::new();
    if args.workload == Workload::Ingest {
        let rows = pregenerate(gen);
        for traced in [false, true, false] {
            spans::set_enabled(traced);
            let mut out = IngestOut::default();
            let start = Instant::now();
            while out.cycles == 0 || start.elapsed() < seg {
                data::ingest_phase(gen, &rows, COMMIT_EVERY, 1, &mut out);
            }
            spans::set_enabled(false);
            headline.push(median(&out.mb_per_s));
            attempted += out.attempted;
            failed += out.failed;
            if traced {
                kept = spans::take();
                ingest_layers(&out, &kept, &mut vals);
            }
        }
    } else {
        let served = data::serve(gen, SERVED_ROWS, nproc);
        let truth = Truth::new(gen, served.rows);
        let mut stream = OpStream::new(gen, served.rows, args.seed);
        let mut trainer = Trainer::new(&served, args.seed, nproc);
        let mut warm = QueryOut::default();
        query::warm(&served, &truth, &mut warm);
        for (i, traced) in [false, true, false].into_iter().enumerate() {
            let (mut tr, mut q) = (TrainOut::default(), QueryOut::default());
            if args.workload == Workload::Train {
                trainer.warm_up(gen, &mut tr);
            }
            let before = snapshot(&served, true);
            spans::set_enabled(traced);
            if args.workload == Workload::Train {
                let start = Instant::now();
                while tr.rows_per_s.is_empty() || start.elapsed() < seg {
                    trainer.epochs(gen, 1, &mut tr);
                }
            } else {
                let seed = args.seed ^ (i as u64) << 32;
                query::open_loop(
                    &served,
                    &truth,
                    &mut stream,
                    seed,
                    QUERY_RATE,
                    nproc,
                    seg,
                    &mut q,
                );
            }
            spans::set_enabled(false);
            let after = snapshot(&served, false);
            attempted += tr.attempted + q.attempted;
            failed += tr.failed + q.failed;
            let units = if args.workload == Workload::Train {
                headline.push(median(&tr.rows_per_s));
                tr.rows_per_s.len() as f64
            } else {
                let mixed_ms: f64 = OpClass::ALL
                    .iter()
                    .map(|c| {
                        let v = q.latency_ms.get(c.name()).into_iter().flatten();
                        c.share() * mean(v.copied())
                    })
                    .sum();
                headline.push(1.0 / mixed_ms);
                q.attempted as f64
            };
            if traced {
                train_layers(&tr, &before, &after, &mut vals);
                query_layers(&q, &before, &after, &mut vals);
                wire_layers(units, &before, &after, &mut vals);
            }
        }
    }
    // traced against the mean of the untraced segments either side of
    // it (which cancels a linear drift)
    let untraced = (headline[0] + headline[2]) / 2.0;
    vals.insert("bench.trace_overhead", untraced / headline[1] - 1.0);
    kept.extend(spans::take());
    let path = std::path::PathBuf::from(".bench_out")
        .join(format!("spans-{:?}-{}.csv", args.workload, args.seed).to_lowercase());
    if let Err(e) = spans::write_csv(&path, &kept) {
        eprintln!("perfbench: writing {}: {e}", path.display());
    }
    let mut r = Report::default();
    for &(name, unit) in PER_LAYER {
        r.put(name, vals.get(name).copied().unwrap_or(0.0), unit);
    }
    (r, attempted, failed, true)
}

fn ingest_layers(out: &IngestOut, spans: &[spans::Span], vals: &mut BTreeMap<&'static str, f64>) {
    let cycles = out.cycles as f64;
    let put = out.counts.of(Method::Put);
    let per_cycle = |v: f64| ratio(v, cycles);
    vals.insert("storage.put.calls", per_cycle(put.calls as f64));
    vals.insert("storage.put.bytes", per_cycle(put.bytes() as f64));
    vals.insert("storage.put.meta_bytes", per_cycle(put.meta_bytes as f64));
    vals.insert("storage.put.busy_ms", per_cycle(put.busy_ns as f64 / 1e6));
    vals.insert(
        "core.append_row.self_ms",
        per_cycle(spans::self_ns(spans, "core.append_row") as f64 / 1e6),
    );
    vals.insert(
        "core.flush.busy_ms",
        per_cycle(spans::total_ns(spans, "core.flush") as f64 / 1e6),
    );
    let commits: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "core.commit")
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect();
    vals.insert("core.commit.p50_ms", median(&commits));
    vals.insert(
        "index.build_ms",
        per_cycle(spans::total_ns(spans, "index.build") as f64 / 1e6),
    );
}

fn train_layers(
    out: &TrainOut,
    before: &Around,
    after: &Around,
    vals: &mut BTreeMap<&'static str, f64>,
) {
    let epochs = out.rows_per_s.len() as f64;
    let reads = after.counts.since(&before.counts).reads();
    let per_epoch = |v: f64| ratio(v, epochs);
    vals.insert("storage.read.round_trips", per_epoch(reads.calls as f64));
    vals.insert("storage.read.logical_reads", per_epoch(reads.keys as f64));
    vals.insert("storage.read.bytes", per_epoch(reads.bytes() as f64));
    vals.insert(
        "storage.read.busy_ms",
        per_epoch(reads.busy_ns as f64 / 1e6),
    );
    vals.insert(
        "storage.read.bytes_per_delivered_byte",
        ratio(reads.bytes() as f64, out.delivered_bytes as f64),
    );
    let reps = &out.reports;
    let ms = |ns: u64| ns as f64 / 1e6;
    vals.insert(
        "loader.fetch_ms",
        mean(reps.iter().map(|r| r.fetch.total_ms())),
    );
    vals.insert(
        "loader.decode_ms",
        mean(reps.iter().map(|r| r.decode.total_ms())),
    );
    vals.insert(
        "loader.collate_ms",
        mean(reps.iter().map(|r| r.collate.total_ms())),
    );
    vals.insert(
        "loader.queue_wait_ms",
        mean(reps.iter().map(|r| r.queue_wait.total_ms())),
    );
    let p99s: Vec<f64> = reps.iter().map(|r| ms(r.fetch.p99_ns)).collect();
    vals.insert("loader.fetch_p99_ms", median(&p99s));
    vals.insert(
        "loader.worker_utilization",
        mean(reps.iter().map(|r| r.worker_utilization())),
    );
}

fn query_layers(
    out: &QueryOut,
    before: &Around,
    after: &Around,
    vals: &mut BTreeMap<&'static str, f64>,
) {
    let queries = out.attempted as f64;
    let reads = after.counts.since(&before.counts).reads();
    vals.insert(
        "storage.read.round_trips_per_query",
        ratio(reads.calls as f64, queries),
    );
    vals.insert(
        "storage.read.meta_round_trips_per_query",
        ratio(reads.meta_calls as f64, queries),
    );
    let empty = Vec::new();
    let topk = out.stats.get("topk").unwrap_or(&empty);
    vals.insert(
        "index.clusters_probed_per_query",
        mean(topk.iter().map(|s| s.clusters_probed as f64)),
    );
    vals.insert(
        "index.candidates_reranked_per_query",
        mean(topk.iter().map(|s| s.candidates_reranked as f64)),
    );
    let ms = |ns: u64| ns as f64 / 1e6;
    for class in ["scan", "range", "topk", "asof"] {
        let st = out.stats.get(class).unwrap_or(&empty);
        let name = |m: &str| -> &'static str {
            PER_LAYER
                .iter()
                .find(|(n, _)| *n == format!("tql.{class}.{m}"))
                .expect("declared metric")
                .0
        };
        vals.insert(name("prune_ms"), mean(st.iter().map(|s| ms(s.prune_ns))));
        vals.insert(name("fetch_ms"), mean(st.iter().map(|s| ms(s.fetch_ns))));
        vals.insert(name("decode_ms"), mean(st.iter().map(|s| ms(s.decode_ns))));
        vals.insert(name("rerank_ms"), mean(st.iter().map(|s| ms(s.rerank_ns))));
        vals.insert(
            name("chunks_scanned_per_query"),
            mean(st.iter().map(|s| s.chunks_scanned as f64)),
        );
        let pruned: u64 = st.iter().map(|s| s.chunks_pruned).sum();
        let spans: u64 = st
            .iter()
            .map(|s| s.chunks_scanned + s.chunks_pruned + s.chunks_matched)
            .sum();
        vals.insert(
            name("chunks_pruned_ratio"),
            ratio(pruned as f64, spans as f64),
        );
    }
    vals.insert("bench.gen_late_p99_ms", quantile(&out.late_ms, 0.99));
}

/// `remote.*` from the client's registry and `hub.*` from the hub's
/// `Metrics` opcode, over one segment; sums are per unit of work (epoch
/// or query).
fn wire_layers(
    units: f64,
    before: &Around,
    after: &Around,
    vals: &mut BTreeMap<&'static str, f64>,
) {
    let client = Delta {
        before: &before.client,
        after: &after.client,
    };
    let hub = Delta {
        before: &before.hub,
        after: &after.hub,
    };
    let per_unit = |v: f64| ratio(v, units);
    vals.insert(
        "remote.round_trips",
        per_unit(client.counter("client.wire.round_trips")),
    );
    vals.insert(
        "remote.round_trip_p50_ms",
        client.quantile_ms("client.round_trip_ns", 0.5),
    );
    vals.insert(
        "remote.round_trip_p99_ms",
        client.quantile_ms("client.round_trip_ns", 0.99),
    );
    vals.insert(
        "remote.bytes_received",
        per_unit(client.counter("client.wire.bytes_read")),
    );
    // the hub answers Busy only to this benchmark's one client, and the
    // client retries every Busy it gets
    let busy = hub.counter("hub.busy_rejections");
    vals.insert("remote.busy_retries", busy);
    vals.insert("hub.busy_rejections", busy);
    vals.insert(
        "hub.queue_wait_p50_ms",
        hub.quantile_ms("hub.queue_wait_ns", 0.5),
    );
    vals.insert(
        "hub.queue_wait_p99_ms",
        hub.quantile_ms("hub.queue_wait_ns", 0.99),
    );
    vals.insert("hub.execute_p50_ms", hub.quantile_ms("hub.execute_ns", 0.5));
    vals.insert("hub.read_p50_ms", hub.quantile_ms("hub.read_ns", 0.5));
    vals.insert("hub.storage_sum_ms", per_unit(hub.sum_ms("hub.storage_ns")));
    vals.insert("hub.flush_p99_ms", hub.quantile_ms("hub.flush_ns", 0.99));
    let hits = hub.counter("hub.cache.cache_hits");
    let misses = hub.counter("hub.cache.cache_misses");
    vals.insert("hub.cache_hit_ratio", ratio(hits, hits + misses));
    vals.insert(
        "hub.cache_lookup_p50_ms",
        hub.quantile_ms("hub.cache_lookup_ns", 0.5),
    );
    let hub_side: f64 = [
        "hub.queue_wait_ns",
        "hub.cache_lookup_ns",
        "hub.execute_ns",
        "hub.read_ns",
        "hub.flush_ns",
    ]
    .iter()
    .map(|h| hub.sum_ms(h))
    .sum();
    vals.insert(
        "hub.unaccounted_ms",
        per_unit(client.sum_ms("client.round_trip_ns") - hub_side),
    );
}
