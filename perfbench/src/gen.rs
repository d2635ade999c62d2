//! Seeded inputs: dataset rows, query texts and the open-loop schedule.
//!
//! Every value is a pure function of `(seed, row)` or of the seeded op
//! stream, so the same `--seed` gives the same inputs and the checks can
//! recompute any expected answer without keeping the rows around.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Embedding width.
pub const DIM: usize = 32;
/// Image side (images are `SIDE × SIDE × 3` u8).
pub const SIDE: usize = 64;
/// Class count; labels are uniform over `0..CLASSES`.
pub const CLASSES: i32 = 1000;
/// `id` of row 0; ids are `ID_BASE + row`.
pub const ID_BASE: u64 = 1_000_000;
/// Embedding cluster centres.
const CENTRES: usize = 1024;
/// Width of the uniform noise around a centre: wide enough that an IVF
/// probe of a few lists misses some true neighbours.
const NOISE: f32 = 6.0;
/// One row in this many gets a new label between the two commits.
const UPDATE_EVERY: u64 = 20;
/// Labels reserved for the repeated `hot` texts (never drawn by `scan`).
pub const HOT_LABELS: [i32; 8] = [7, 77, 177, 277, 377, 477, 577, 677];
/// Rows a `range` op covers.
pub const RANGE_ROWS: u64 = 200;

/// SplitMix64: a tiny, well-mixed PRNG step.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A sequential PRNG for streams (schedules, op parameters).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(mix(seed ^ 0x5EED))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The row generator: columns `id`, `image`, `label`, `emb`.
pub struct Rows {
    seed: u64,
    centres: Vec<[f32; DIM]>,
}

impl Rows {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0xCE47);
        let centres = (0..CENTRES)
            .map(|_| std::array::from_fn(|_| (rng.unit() as f32 - 0.5) * 20.0))
            .collect();
        Rows { seed, centres }
    }

    fn h(&self, row: u64, stream: u64) -> u64 {
        mix(self.seed ^ mix(row.wrapping_mul(0x100) ^ stream))
    }

    pub fn id(&self, row: u64) -> u64 {
        ID_BASE + row
    }

    /// Label as first written (visible at the older commit).
    pub fn label_v1(&self, row: u64) -> i32 {
        (self.h(row, 1) % CLASSES as u64) as i32
    }

    /// Whether the update between the two commits rewrites this row's label.
    pub fn updated(&self, row: u64) -> bool {
        self.h(row, 2).is_multiple_of(UPDATE_EVERY)
    }

    /// Label at the head (after the update).
    pub fn label_v2(&self, row: u64) -> i32 {
        let v1 = self.label_v1(row);
        if self.updated(row) {
            (v1 + 1 + (self.h(row, 3) % (CLASSES as u64 - 1)) as i32) % CLASSES
        } else {
            v1
        }
    }

    /// A clustered embedding: one of the seeded centres plus noise.
    pub fn emb(&self, row: u64) -> [f32; DIM] {
        let centre = &self.centres[(self.h(row, 4) % self.centres.len() as u64) as usize];
        let mut rng = Rng::new(self.h(row, 5));
        std::array::from_fn(|i| centre[i] + (rng.unit() as f32 - 0.5) * NOISE)
    }

    /// A smooth, lightly textured image, so the lossy codec compresses it
    /// the way it compresses photographs.
    pub fn image(&self, row: u64) -> Vec<u8> {
        let h = self.h(row, 6);
        let (px, py, tint) = (
            (h & 63) as usize,
            ((h >> 8) & 63) as usize,
            (h >> 16) as usize,
        );
        let mut out = Vec::with_capacity(SIDE * SIDE * 3);
        for y in 0..SIDE {
            for x in 0..SIDE {
                for c in 0..3 {
                    let v = (x + px) / 3 + (y + py) / 4 + c * 37 + (x * y) % 7 + tint % 97;
                    out.push((v % 256) as u8);
                }
            }
        }
        out
    }

    /// A query vector near one of the centres.
    pub fn query_vector(&self, rng: &mut Rng) -> [f32; DIM] {
        let centre = &self.centres[rng.below(self.centres.len() as u64) as usize];
        std::array::from_fn(|i| centre[i] + (rng.unit() as f32 - 0.5) * NOISE)
    }
}

/// Query op classes, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// A repeated text, answered from the hub's result cache.
    Hot,
    /// Equality on `label`, which chunk statistics cannot prune.
    Scan,
    /// A range on `id`, which chunk statistics can prune.
    Range,
    /// Approximate top-10 by L2 distance on `emb`.
    TopK,
    /// `AT VERSION` on the older commit.
    AsOf,
}

impl OpClass {
    /// Every class, `hot` first.
    pub const ALL: [OpClass; 5] = [
        OpClass::Hot,
        OpClass::Scan,
        OpClass::Range,
        OpClass::TopK,
        OpClass::AsOf,
    ];

    pub fn name(self) -> &'static str {
        self.span_name().trim_start_matches("query.")
    }

    /// Name of the span around one op of this class.
    pub fn span_name(self) -> &'static str {
        match self {
            OpClass::Hot => "query.hot",
            OpClass::Scan => "query.scan",
            OpClass::Range => "query.range",
            OpClass::TopK => "query.topk",
            OpClass::AsOf => "query.asof",
        }
    }

    /// Share of the op mix: half the ops take the result-cache path
    /// (`hot`) and half are executed, split equally over the four
    /// executed classes. No measured traffic mix exists to copy; the
    /// rule gives both serving paths equal weight, and it gives the
    /// cheap `hot` class, whose median varies most, the most samples.
    pub fn share(self) -> f64 {
        match self {
            OpClass::Hot => 0.5,
            _ => 0.5 / (OpClass::ALL.len() - 1) as f64,
        }
    }
}

/// One query op: its class and parameters (the text is rendered by the
/// caller, which knows the commit ids).
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Hot(i32),
    Scan(i32),
    Range(u64),
    TopK([f32; DIM]),
    AsOf(i32),
}

impl Op {
    pub fn class(&self) -> OpClass {
        match self {
            Op::Hot(_) => OpClass::Hot,
            Op::Scan(_) => OpClass::Scan,
            Op::Range(_) => OpClass::Range,
            Op::TopK(_) => OpClass::TopK,
            Op::AsOf(_) => OpClass::AsOf,
        }
    }
}

/// The seeded op stream. Only `hot` ops repeat: `scan` and `asof` draw
/// labels from shuffled pools and `range` draws from a shuffled list of
/// start rows, so no other text is ever sent twice in one run.
pub struct OpStream<'a> {
    rows: &'a Rows,
    rng: Rng,
    scan_pool: Vec<i32>,
    asof_pool: Vec<i32>,
    range_pool: Vec<u64>,
}

impl<'a> OpStream<'a> {
    pub fn new(rows: &'a Rows, n_rows: u64, seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0x0905);
        let labels: Vec<i32> = (0..CLASSES).filter(|l| !HOT_LABELS.contains(l)).collect();
        let scan_pool = shuffled(labels.clone(), &mut rng);
        let asof_pool = shuffled(labels, &mut rng);
        let starts = n_rows.saturating_sub(RANGE_ROWS).max(1);
        let range_pool = shuffled((0..starts).collect(), &mut rng);
        OpStream {
            rows,
            rng,
            scan_pool,
            asof_pool,
            range_pool,
        }
    }

    /// The next op, or `None` once a pool of unique texts runs dry.
    pub fn next_op(&mut self) -> Option<Op> {
        let executed = &OpClass::ALL[1..];
        let class = if self.rng.below(2) == 0 {
            OpClass::Hot
        } else {
            executed[self.rng.below(executed.len() as u64) as usize]
        };
        Some(match class {
            OpClass::Hot => Op::Hot(HOT_LABELS[self.rng.below(HOT_LABELS.len() as u64) as usize]),
            OpClass::Scan => Op::Scan(self.scan_pool.pop()?),
            OpClass::Range => Op::Range(self.range_pool.pop()?),
            OpClass::TopK => Op::TopK(self.rows.query_vector(&mut self.rng)),
            OpClass::AsOf => Op::AsOf(self.asof_pool.pop()?),
        })
    }
}

fn shuffled<T>(mut v: Vec<T>, rng: &mut Rng) -> Vec<T> {
    for i in (1..v.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
    v
}

/// An open-loop schedule: op `i` is due at `due[i]` after the start,
/// with exponential inter-arrival gaps at `rate` ops/s (Poisson arrivals,
/// independent of how fast the system answers).
pub fn schedule(seed: u64, rate: f64, span: Duration) -> Vec<Duration> {
    let mut rng = Rng::new(seed ^ 0xA771);
    let mut t = 0.0f64;
    let mut due = Vec::new();
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= span.as_secs_f64() {
            return due;
        }
        due.push(Duration::from_secs_f64(t));
    }
}

/// What one open-loop op measured.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Index into the schedule.
    pub index: usize,
    /// Send time minus due time.
    pub late: Duration,
    /// Completion time minus due time: the latency a user arriving on
    /// schedule sees, queueing behind a stall included.
    pub latency: Duration,
}

/// How long before an op's due time its sender stops sleeping and spins.
const SPIN: Duration = Duration::from_micros(300);

/// Run `due` open loop on `senders` threads. Each thread takes the next
/// unsent op, sleeps until it is due (if it is not already late), calls
/// `exec(index)` and records latency from the due time. A slow op holds
/// its thread, so ops behind it are sent late and their latency shows it.
pub fn run_open_loop(due: &[Duration], senders: usize, exec: impl Fn(usize) + Sync) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::with_capacity(due.len()));
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..senders.max(1) {
            s.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(&at) = due.get(index) else { break };
                // sleep until just before the due time, then spin, so the
                // generator's own wake-up delay stays out of the latency
                let now = start.elapsed();
                if now + SPIN < at {
                    std::thread::sleep(at - now - SPIN);
                }
                while start.elapsed() < at {
                    std::hint::spin_loop();
                }
                let late = start.elapsed().saturating_sub(at);
                exec(index);
                let latency = start.elapsed().saturating_sub(at);
                out.lock().expect("sample lock").push(Sample {
                    index,
                    late,
                    latency,
                });
            });
        }
    });
    let mut out = out.into_inner().expect("sample lock");
    out.sort_by_key(|s| s.index);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_and_ops() {
        let rows = Rows::new(3);
        let a = schedule(3, 200.0, Duration::from_secs(2));
        let b = schedule(3, 200.0, Duration::from_secs(2));
        assert_eq!(a, b);
        assert!(a.len() > 300 && a.len() < 500, "{} arrivals", a.len());
        assert_ne!(a, schedule(4, 200.0, Duration::from_secs(2)));
        let ops = |seed| {
            let mut s = OpStream::new(&rows, 20_000, seed);
            (0..500).map(|_| s.next_op().unwrap()).collect::<Vec<_>>()
        };
        assert_eq!(ops(3), ops(3));
        assert_ne!(ops(3), ops(4));
    }

    #[test]
    fn only_hot_ops_repeat() {
        let rows = Rows::new(1);
        let mut s = OpStream::new(&rows, 20_000, 1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..2000 {
            let op = s.next_op().unwrap();
            let key = format!("{op:?}");
            if op.class() != OpClass::Hot {
                assert!(seen.insert(key), "{op:?} repeated");
            }
        }
    }

    #[test]
    fn injected_stall_raises_latency_of_ops_behind_it() {
        let due: Vec<Duration> = (0..40).map(|i| Duration::from_millis(2 * i)).collect();
        let run = |stall_at: Option<usize>| {
            run_open_loop(&due, 1, |i| {
                if Some(i) == stall_at {
                    std::thread::sleep(Duration::from_millis(60));
                }
            })
        };
        let calm = run(None);
        let stalled = run(Some(10));
        assert_eq!(stalled.len(), due.len());
        // ops due during the stall are sent late and measure the wait
        for i in 11..20 {
            assert!(stalled[i].late >= Duration::from_millis(20), "op {i}");
            assert!(
                stalled[i].latency > calm[i].latency + Duration::from_millis(20),
                "op {i}: {:?} vs {:?}",
                stalled[i].latency,
                calm[i].latency
            );
        }
        // ops before the stall are unaffected by it
        assert!(stalled[..10]
            .iter()
            .all(|s| s.latency < Duration::from_millis(20)));
    }

    #[test]
    fn labels_and_updates_are_seeded() {
        let rows = Rows::new(9);
        let again = Rows::new(9);
        let updated = (0..10_000).filter(|&r| rows.updated(r)).count();
        assert!((300..700).contains(&updated), "{updated} updated");
        for r in 0..1000 {
            assert_eq!(rows.label_v2(r), again.label_v2(r));
            assert_eq!(rows.emb(r), again.emb(r));
            assert!((0..CLASSES).contains(&rows.label_v2(r)));
            assert_eq!(rows.updated(r), rows.label_v1(r) != rows.label_v2(r));
        }
    }
}
