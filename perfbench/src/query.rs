//! The serving path: TQL over the hub through `RemoteProvider::query`,
//! run open loop at a fixed rate, then closed loop for capacity.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use deeplake_tql::{QueryOptions, QueryStats};

use crate::data::{Served, NPROBE};
use crate::gen::{
    self, Op, OpClass, OpStream, Rows, CLASSES, DIM, HOT_LABELS, ID_BASE, RANGE_ROWS,
};
use crate::spans::span;

/// Neighbours a `topk` op asks for.
const K: usize = 10;

/// Expected answers, computed from the generator.
pub struct Truth {
    by_label_v1: Vec<Vec<u64>>,
    by_label_v2: Vec<Vec<u64>>,
    embs: Vec<[f32; DIM]>,
}

impl Truth {
    pub fn new(gen: &Rows, n: u64) -> Truth {
        let mut by_label_v1 = vec![Vec::new(); CLASSES as usize];
        let mut by_label_v2 = vec![Vec::new(); CLASSES as usize];
        for r in 0..n {
            by_label_v1[gen.label_v1(r) as usize].push(r);
            by_label_v2[gen.label_v2(r) as usize].push(r);
        }
        let embs = (0..n).map(|r| gen.emb(r)).collect();
        Truth {
            by_label_v1,
            by_label_v2,
            embs,
        }
    }

    fn l2(&self, row: u64, q: &[f64; DIM]) -> f64 {
        self.embs[row as usize]
            .iter()
            .zip(q)
            .map(|(&a, b)| (f64::from(a) - b).powi(2))
            .sum()
    }

    /// The exact top-K rows by L2 distance (ties by row).
    fn exact_topk(&self, q: &[f64; DIM]) -> Vec<u64> {
        let mut d: Vec<(f64, u64)> = (0..self.embs.len() as u64)
            .map(|r| (self.l2(r, q), r))
            .collect();
        d.select_nth_unstable_by(K, |a, b| a.partial_cmp(b).expect("finite distances"));
        let mut top: Vec<(f64, u64)> = d[..K].to_vec();
        top.sort_by(|a, b| a.partial_cmp(b).expect("finite distances"));
        top.into_iter().map(|(_, r)| r).collect()
    }
}

/// Render an op as TQL text.
pub fn text(op: &Op, old_commit: &str) -> String {
    match op {
        Op::Hot(l) | Op::Scan(l) => format!("SELECT * FROM d WHERE label = {l}"),
        Op::Range(lo) => format!(
            "SELECT * FROM d WHERE id >= {} AND id < {}",
            ID_BASE + lo,
            ID_BASE + lo + RANGE_ROWS
        ),
        Op::TopK(v) => {
            let parts: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
            format!(
                "SELECT * FROM d ORDER BY L2_DISTANCE(emb, [{}]) LIMIT {K}",
                parts.join(", ")
            )
        }
        Op::AsOf(l) => format!("SELECT * FROM d AT VERSION \"{old_commit}\" WHERE label = {l}"),
    }
}

/// The query vector as the server parses it back from the text.
fn sent_vector(v: &[f32; DIM]) -> [f64; DIM] {
    std::array::from_fn(|i| format!("{:.4}", v[i]).parse().expect("rendered float"))
}

/// What one executed op produced.
#[derive(Clone, Copy)]
pub struct Done {
    pub class: OpClass,
    pub ok: bool,
    /// Recall@K against the exact answer (`topk` only).
    pub recall: Option<f64>,
    pub stats: QueryStats,
}

fn options(op: &Op) -> QueryOptions {
    match op {
        Op::TopK(_) => QueryOptions {
            ann: true,
            nprobe: NPROBE,
            ..QueryOptions::default()
        },
        _ => QueryOptions::default(),
    }
}

/// Execute `op` against the hub and check the answer.
pub fn run_op(served: &Served, truth: &Truth, op: &Op, request: u64) -> Done {
    let class = op.class();
    let result = span(class.span_name(), request, || {
        served
            .client
            .query(&text(op, &served.old_commit), &options(op))
    });
    let result = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", class.name());
            return Done {
                class,
                ok: false,
                recall: None,
                stats: QueryStats::default(),
            };
        }
    };
    let mut got = result.indices.clone();
    let (ok, recall) = match op {
        Op::Hot(l) | Op::Scan(l) => {
            got.sort_unstable();
            (got == truth.by_label_v2[*l as usize], None)
        }
        Op::AsOf(l) => {
            got.sort_unstable();
            (got == truth.by_label_v1[*l as usize], None)
        }
        Op::Range(lo) => {
            got.sort_unstable();
            (got == (*lo..lo + RANGE_ROWS).collect::<Vec<_>>(), None)
        }
        Op::TopK(v) => {
            let q = sent_vector(v);
            let exact = truth.exact_topk(&q);
            let hits = got.iter().filter(|r| exact.contains(r)).count();
            let mut uniq = got.clone();
            uniq.sort_unstable();
            uniq.dedup();
            let in_range = got.iter().all(|&r| (r as usize) < truth.embs.len());
            // approximate, but always K distinct rows, nearest first
            let sorted = in_range
                && got
                    .windows(2)
                    .all(|w| truth.l2(w[0], &q) <= truth.l2(w[1], &q) + 1e-6);
            (
                got.len() == K && uniq.len() == K && sorted,
                Some(hits as f64 / K as f64),
            )
        }
    };
    if !ok {
        eprintln!(
            "perfbench: wrong answer to {}",
            text(op, &served.old_commit)
        );
    }
    Done {
        class,
        ok,
        recall,
        stats: result.stats,
    }
}

/// Results of one query phase.
#[derive(Default)]
pub struct QueryOut {
    /// Open-loop latency from due time, ms, per class.
    pub latency_ms: HashMap<&'static str, Vec<f64>>,
    pub all_latency_ms: Vec<f64>,
    pub late_ms: Vec<f64>,
    pub recall: Vec<f64>,
    /// Per-class executor stats of open-loop misses.
    pub stats: HashMap<&'static str, Vec<QueryStats>>,
    /// Closed-loop latency, ms, per class.
    pub closed_ms: HashMap<&'static str, Vec<f64>>,
    pub open_loop_ops: u64,
    pub attempted: u64,
    pub failed: u64,
}

impl QueryOut {
    fn count(&mut self, d: &Done) {
        self.attempted += 1;
        self.failed += u64::from(!d.ok);
    }
}

/// Send every `hot` text once, so later ones are answered from the cache.
pub fn warm(served: &Served, truth: &Truth, out: &mut QueryOut) {
    for l in HOT_LABELS {
        let d = run_op(served, truth, &Op::Hot(l), 0);
        out.count(&d);
    }
}

/// Run the op mix open loop at `rate` ops/s for `span` on `senders`
/// threads, with arrival times drawn from `seed`.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    served: &Served,
    truth: &Truth,
    stream: &mut OpStream<'_>,
    seed: u64,
    rate: f64,
    senders: usize,
    span: Duration,
    out: &mut QueryOut,
) {
    let due = gen::schedule(seed, rate, span);
    let ops: Vec<Op> = due
        .iter()
        .map(|_| stream.next_op().expect("op pools outlast the run"))
        .collect();
    let done: Vec<Mutex<Option<Done>>> = ops.iter().map(|_| Mutex::new(None)).collect();
    let first = out.open_loop_ops;
    let samples = gen::run_open_loop(&due, senders, |i| {
        let d = run_op(served, truth, &ops[i], first + i as u64 + 1);
        *done[i].lock().expect("done slot") = Some(d);
    });
    for s in &samples {
        let d = done[s.index].lock().expect("done slot").expect("op ran");
        out.count(&d);
        let ms = s.latency.as_secs_f64() * 1e3;
        out.all_latency_ms.push(ms);
        out.latency_ms.entry(d.class.name()).or_default().push(ms);
        out.late_ms.push(s.late.as_secs_f64() * 1e3);
        out.recall.extend(d.recall);
        if d.class != OpClass::Hot {
            out.stats.entry(d.class.name()).or_default().push(d.stats);
        }
    }
    out.open_loop_ops += samples.len() as u64;
}

/// Closed loop: `clients` threads each send their next op when the last
/// one returns, for `span`. Adds to the capacity totals.
pub fn closed_loop(
    served: &Served,
    truth: &Truth,
    stream: &mut OpStream<'_>,
    clients: usize,
    span: Duration,
    out: &mut QueryOut,
) {
    let stream = Mutex::new(stream);
    let results = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| {
                while start.elapsed() < span {
                    let op = stream
                        .lock()
                        .expect("stream lock")
                        .next_op()
                        .expect("op pools outlast the run");
                    let t = Instant::now();
                    let d = run_op(served, truth, &op, 0);
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    results.lock().expect("results lock").push((d, ms));
                }
            });
        }
    });
    for (d, ms) in results.into_inner().expect("results lock") {
        out.count(&d);
        out.recall.extend(d.recall);
        out.closed_ms.entry(d.class.name()).or_default().push(ms);
    }
}

impl QueryOut {
    /// Closed-loop capacity of `clients` clients on the op mix:
    /// `clients / E[latency]`, with `E[latency]` the mix-weighted mean
    /// of each class's closed-loop latency, so a run's capacity does not
    /// swing with how many slow classes its few hundred draws happened
    /// to contain.
    pub fn capacity_qps(&self, clients: usize) -> f64 {
        let mean_ms: f64 = OpClass::ALL
            .iter()
            .map(|c| {
                let v = self.closed_ms.get(c.name()).map_or(&[][..], |v| v);
                c.share() * v.iter().sum::<f64>() / v.len().max(1) as f64
            })
            .sum();
        clients as f64 * 1e3 / mean_ms
    }
}
