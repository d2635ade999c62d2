//! The write path and the served dataset: schema, ingest, and the
//! set-up that mounts a dataset on an in-process hub.

use std::sync::Arc;
use std::time::Instant;

use deeplake_codec::Compression;
use deeplake_core::dataset::TensorOptions;
use deeplake_core::{Dataset, IndexSpec};
use deeplake_hub::{Hub, HubHandle};
use deeplake_remote::{RemoteOptions, RemoteProvider};
use deeplake_storage::{DynProvider, MemoryProvider, NetworkProfile, SimulatedCloudProvider};
use deeplake_tensor::{Dtype, Htype, Sample, Shape};

use crate::counting::CountingProvider;
use crate::gen::{Rows, DIM, SIDE};
use crate::spans::span;

/// Delay scale on the S3 profile: 15 ms first byte becomes 0.75 ms.
pub const NET_SCALE: f64 = 0.05;
/// Image chunk target: the served dataset has about twice as many image
/// chunks as the 64-slot chunk memo holds.
pub const IMAGE_CHUNK: u64 = 256 << 10;
/// Small chunks for the scalar columns, so chunk statistics have
/// something to prune.
pub const SCALAR_CHUNK: u64 = 8 << 10;
pub const EMB_CHUNK: u64 = 64 << 10;
/// IVF cluster count and the clusters a top-k probes.
pub const NLIST: usize = 64;
pub const NPROBE: usize = 4;

/// Raw user bytes of one row: image pixels, label, id and embedding.
pub const USER_BYTES_PER_ROW: u64 = (SIDE * SIDE * 3 + 4 + 8 + DIM * 4) as u64;

/// One generated row, ready to append.
#[derive(Clone)]
pub struct RowSamples([Sample; 4]);

impl RowSamples {
    pub fn generate(rows: &Rows, row: u64) -> RowSamples {
        let side = SIDE as u64;
        RowSamples([
            Sample::scalar(rows.id(row)),
            Sample::from_bytes(
                Dtype::U8,
                Shape::from([side, side, 3]),
                rows.image(row).into(),
            )
            .expect("image shape matches its pixels"),
            Sample::scalar(rows.label_v1(row)),
            Sample::from_slice([DIM as u64], &rows.emb(row)).expect("emb shape matches"),
        ])
    }
}

/// Simulated S3 over memory, behind the counting decorator.
pub fn cloud() -> (Arc<CountingProvider>, DynProvider) {
    let sim: DynProvider = Arc::new(SimulatedCloudProvider::new(
        "s3",
        Arc::new(MemoryProvider::new()),
        NetworkProfile::s3().scaled(NET_SCALE),
    ));
    let counting = Arc::new(CountingProvider::new(sim));
    (counting.clone(), counting)
}

/// What writing one dataset produced.
pub struct Written {
    pub ds: Dataset,
    /// Commit ids, oldest first.
    pub commits: Vec<String>,
}

/// Create the dataset and append `n` rows, flushing and committing every
/// `commit_every` rows, then build the IVF index on `emb` and commit
/// once more. `row` yields the samples of row `r`.
pub fn write_dataset(
    store: DynProvider,
    n: u64,
    commit_every: u64,
    row: impl Fn(u64) -> RowSamples,
) -> Written {
    let mut ds = Dataset::create(store, "d").expect("create dataset");
    let opts = |htype: Htype, dtype: Option<Dtype>, chunk: u64| {
        let mut o = TensorOptions::new(htype);
        o.dtype = dtype;
        o.chunk_target_bytes = Some(chunk);
        o
    };
    let mut image = opts(Htype::Image, None, IMAGE_CHUNK);
    image.sample_compression = Some(Compression::JPEG_LIKE);
    for (name, o) in [
        ("id", opts(Htype::Generic, Some(Dtype::U64), SCALAR_CHUNK)),
        ("image", image),
        ("label", opts(Htype::ClassLabel, None, SCALAR_CHUNK)),
        ("emb", opts(Htype::Embedding, None, EMB_CHUNK)),
    ] {
        ds.create_tensor_opts(name, o).expect("create tensor");
    }
    let mut commits = Vec::new();
    for r in 0..n {
        let RowSamples([id, img, label, emb]) = row(r);
        span("core.append_row", r + 1, || {
            ds.append_row([("id", id), ("image", img), ("label", label), ("emb", emb)])
        })
        .expect("append row");
        if (r + 1) % commit_every == 0 {
            commits.push(flush_commit(&mut ds, "rows"));
        }
    }
    let spec = IndexSpec {
        nlist: Some(NLIST),
        ..IndexSpec::default()
    };
    span("index.build", 0, || ds.build_vector_index("emb", &spec)).expect("build index");
    commits.push(flush_commit(&mut ds, "index"));
    Written { ds, commits }
}

fn flush_commit(ds: &mut Dataset, message: &str) -> String {
    span("core.flush", 0, || ds.flush()).expect("flush");
    span("core.commit", 0, || ds.commit(message)).expect("commit")
}

/// Bytes held by the store (what a bucket would bill for).
pub fn stored_bytes(store: &DynProvider) -> u64 {
    store
        .list("")
        .expect("list store")
        .iter()
        .map(|k| store.len_of(k).expect("object length"))
        .sum()
}

/// A dataset with two commits and an update between them, mounted on an
/// in-process hub, plus the one client every load goes through.
pub struct Served {
    /// Held so the hub runs; dropping it shuts the hub down.
    _hub: HubHandle,
    pub client: Arc<RemoteProvider>,
    pub counting: Arc<CountingProvider>,
    /// The commit before the update, which `asof` ops query.
    pub old_commit: String,
    pub rows: u64,
}

/// Build, mount and connect: the benchmark's set-up.
pub fn serve(rows: &Rows, n: u64, clients: usize) -> Served {
    let (counting, store) = cloud();
    let Written { mut ds, commits } =
        write_dataset(store.clone(), n, n / 2, |r| RowSamples::generate(rows, r));
    let old_commit = commits.last().expect("at least one commit").clone();
    for r in (0..n).filter(|&r| rows.updated(r)) {
        ds.update("label", r, &Sample::scalar(rows.label_v2(r)))
            .expect("update label");
    }
    ds.commit("relabel").expect("commit update");
    drop(ds);
    let hub = Hub::builder()
        .default_mount(store)
        .bind("127.0.0.1:0")
        .expect("bind hub");
    let client = RemoteProvider::connect_with(
        hub.addr(),
        RemoteOptions {
            pool_size: clients,
            ..RemoteOptions::default()
        },
    )
    .expect("connect to hub");
    Served {
        _hub: hub,
        client: Arc::new(client),
        counting,
        old_commit,
        rows: n,
    }
}

/// Per-cycle results of the ingest phase.
#[derive(Default)]
pub struct IngestOut {
    pub mb_per_s: Vec<f64>,
    pub stored_per_user: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Per-cycle storage counts, summed.
    pub counts: crate::counting::Counts,
    pub cycles: u64,
}

/// Ingest `rows` (pre-generated, so generation is not timed) into fresh
/// simulated S3, `cycles` times. Each cycle is checked by reopening the
/// dataset.
pub fn ingest_phase(
    gen: &Rows,
    rows: &[RowSamples],
    commit_every: u64,
    cycles: usize,
    out: &mut IngestOut,
) {
    let n = rows.len() as u64;
    for _ in 0..cycles {
        let (counting, store) = cloud();
        let t0 = Instant::now();
        let written = span("ingest.cycle", 0, || {
            write_dataset(store.clone(), n, commit_every, |r| rows[r as usize].clone())
        });
        let secs = t0.elapsed().as_secs_f64();
        drop(written.ds);
        let user = (n * USER_BYTES_PER_ROW) as f64;
        out.mb_per_s.push(user / 1e6 / secs);
        out.stored_per_user.push(stored_bytes(&store) as f64 / user);
        out.counts = out.counts.plus(&counting.counts());
        out.cycles += 1;
        let (attempted, failed) = check_ingest(gen, &store, n, &written.commits);
        out.attempted += attempted;
        out.failed += failed;
    }
}

/// Reopen a freshly ingested dataset and check its row count, its commit
/// log and a sample of rows. Returns `(checks attempted, checks failed)`.
fn check_ingest(gen: &Rows, store: &DynProvider, n: u64, commits: &[String]) -> (u64, u64) {
    let ds = match Dataset::open(store.clone()) {
        Ok(ds) => ds,
        Err(_) => return (1, 1),
    };
    let mut logged: Vec<String> = ds
        .log()
        .map(|l| l.into_iter().map(|(id, _, _)| id).collect())
        .unwrap_or_default();
    logged.sort();
    let mut want = commits.to_vec();
    want.sort();
    if ds.len() != n || logged != want {
        eprintln!(
            "perfbench: ingest reopened {} of {n} rows, {} of {} commits",
            ds.len(),
            logged.len(),
            want.len()
        );
    }
    let mut failed = u64::from(ds.len() != n) + u64::from(logged != want);
    let sampled: Vec<u64> = (0..n).step_by(97).collect();
    for &r in &sampled {
        let ok = ds.get("id", r).ok().and_then(|s| s.to_vec::<u64>().ok()) == Some(vec![gen.id(r)])
            && ds.get("label", r).ok().and_then(|s| s.to_vec::<i32>().ok())
                == Some(vec![gen.label_v1(r)])
            && ds.get("emb", r).ok().and_then(|s| s.to_vec::<f32>().ok())
                == Some(gen.emb(r).to_vec());
        failed += u64::from(!ok);
    }
    (2 + sampled.len() as u64, failed)
}
