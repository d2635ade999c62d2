//! The training path: a shuffled `DataLoader` over the dataset the hub
//! serves, read through `RemoteProvider`. The consumer does no compute,
//! so the loader's throughput is the upper bound a training loop sees.

use std::sync::Arc;
use std::time::Instant;

use deeplake_core::Dataset;
use deeplake_loader::{BatchColumn, DataLoader, EpochReport};
use deeplake_storage::DynProvider;

use crate::data::Served;
use crate::gen::{Rows, SIDE};
use crate::spans::span;

pub const BATCH: usize = 64;

#[derive(Default)]
pub struct TrainOut {
    pub rows_per_s: Vec<f64>,
    /// Time from starting an epoch to its first batch.
    pub first_batch_ms: Vec<f64>,
    /// Time blocked in `next()`, ms, one value per batch of every timed
    /// epoch. An epoch's first batch is left out: `first_batch_ms`
    /// measures the start of an epoch.
    pub batch_wait_ms: Vec<f64>,
    /// Decoded bytes delivered to the consumer.
    pub delivered_bytes: u64,
    pub reports: Vec<EpochReport>,
    pub attempted: u64,
    pub failed: u64,
}

/// A shuffled loader over the served dataset.
pub struct Trainer {
    ds: Arc<Dataset>,
    loader: DataLoader,
    workers: usize,
    seed: u64,
    rows: u64,
    epochs: u64,
}

fn loader(ds: &Arc<Dataset>, workers: usize, seed: u64) -> DataLoader {
    DataLoader::builder(ds.clone())
        .batch_size(BATCH)
        .num_workers(workers)
        .shuffle(seed)
        .tensors(["image", "label", "id"])
        .build()
        .expect("build loader")
}

impl Trainer {
    pub fn new(served: &Served, seed: u64, workers: usize) -> Trainer {
        let store: DynProvider = served.client.clone();
        let ds = Arc::new(Dataset::open(store).expect("open served dataset"));
        Trainer {
            loader: loader(&ds, workers, seed),
            ds,
            workers,
            seed,
            rows: served.rows,
            epochs: 0,
        }
    }

    /// Start `n` epochs, each reshuffled with a fresh seed as a training
    /// loop reshuffles every epoch, and stop each after its first batch:
    /// the time to first batch, sampled far more often than whole epochs
    /// allow. The first batch is checked too.
    pub fn first_batches(&mut self, gen: &Rows, n: usize, out: &mut TrainOut) {
        for _ in 0..n {
            self.epochs += 1;
            let loader = loader(&self.ds, self.workers, self.seed ^ self.epochs << 32);
            let t0 = Instant::now();
            let mut it = loader.epoch();
            let first = it.next();
            out.first_batch_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            drop(it);
            let ok = match first {
                Some(Ok(b)) if b.len() == BATCH => {
                    let ids = column::<u64>(b.column("id")).unwrap_or_default();
                    let labels = column::<i32>(b.column("label")).unwrap_or_default();
                    ids.len() == BATCH
                        && ids
                            .iter()
                            .zip(&labels)
                            .all(|(&id, &label)| checked_row(gen, self.rows, id, label).is_some())
                }
                _ => false,
            };
            out.attempted += 1;
            out.failed += u64::from(!ok);
        }
    }

    /// One untimed epoch: timed epochs run right after it, back to back
    /// as a training loop runs them (a first epoch after other work
    /// starts measurably slower). Its rows are still checked.
    pub fn warm_up(&mut self, gen: &Rows, out: &mut TrainOut) {
        let mut warm = TrainOut::default();
        self.epochs += 1;
        epoch(&self.loader, gen, self.rows, self.epochs, &mut warm);
        out.attempted += warm.attempted;
        out.failed += warm.failed;
    }

    /// Run `n` timed epochs. Every epoch checks that each row's `id`
    /// arrives exactly once with its generated label.
    pub fn epochs(&mut self, gen: &Rows, n: usize, out: &mut TrainOut) {
        for _ in 0..n {
            self.epochs += 1;
            epoch(&self.loader, gen, self.rows, self.epochs, out);
        }
    }
}

fn epoch(loader: &DataLoader, gen: &Rows, rows: u64, request: u64, out: &mut TrainOut) {
    let mut seen = vec![false; rows as usize];
    let mut wrong = 0u64;
    let mut waits = Vec::with_capacity(rows as usize / BATCH + 1);
    let t0 = Instant::now();
    let mut it = loader.epoch();
    span("train.epoch", request, || loop {
        let t = Instant::now();
        let Some(batch) = span("loader.next", 0, || it.next()) else {
            break;
        };
        waits.push(t.elapsed().as_secs_f64() * 1e3);
        let Ok(batch) = batch else {
            wrong += 1;
            continue;
        };
        out.delivered_bytes += batch.nbytes() as u64;
        let ids = column::<u64>(batch.column("id"));
        let labels = column::<i32>(batch.column("label"));
        let images_ok = matches!(batch.column("image"), Some(BatchColumn::Stacked(s))
            if s.shape().dims() == [batch.len() as u64, SIDE as u64, SIDE as u64, 3]);
        match (ids, labels) {
            (Some(ids), Some(labels)) if images_ok && ids.len() == batch.len() => {
                for (id, label) in ids.into_iter().zip(labels) {
                    let slot = checked_row(gen, rows, id, label).map(|r| &mut seen[r as usize]);
                    match slot {
                        Some(s) if !*s => *s = true,
                        _ => wrong += 1,
                    }
                }
            }
            _ => wrong += batch.len() as u64,
        }
    });
    let secs = t0.elapsed().as_secs_f64();
    out.rows_per_s.push(rows as f64 / secs);
    out.batch_wait_ms.extend(waits.into_iter().skip(1));
    out.reports.push(it.report());
    // a row never delivered is a failure too; `wrong` already counts
    // duplicates and mislabelled rows
    let missing = seen.iter().filter(|s| !**s).count() as u64;
    out.attempted += rows;
    out.failed += (missing + wrong).min(rows);
}

/// The row an `id` names, if it is in range and arrived with the label
/// the row has at the head.
fn checked_row(gen: &Rows, rows: u64, id: u64, label: i32) -> Option<u64> {
    let row = id.wrapping_sub(crate::gen::ID_BASE);
    (row < rows && label == gen.label_v2(row)).then_some(row)
}

fn column<T: deeplake_tensor::dtype::Element>(c: Option<&BatchColumn>) -> Option<Vec<T>> {
    match c? {
        BatchColumn::Stacked(s) => s.to_vec::<T>().ok(),
        BatchColumn::List(v) => v
            .iter()
            .map(|s| s.to_vec::<T>().ok().and_then(|x| x.first().copied()))
            .collect(),
    }
}
