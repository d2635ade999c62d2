//! A `StorageProvider` decorator that counts what the layers above ask
//! of storage: calls, bytes and busy time per method, with chunk keys
//! (any key with a `chunks` path segment) split from metadata keys.
//!
//! Every call is forwarded to the same method of the wrapped provider,
//! so batched calls keep their batching (and a simulated cloud keeps
//! charging one latency per batch). Each call also records a
//! `storage.<method>` span when tracing is on.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use bytes::Bytes;
use deeplake_storage::{DynProvider, ReadPlan, ReadRequest, ReadResult, StorageProvider};

type Result<T> = std::result::Result<T, deeplake_storage::StorageError>;

/// Provider methods, in `Counts::methods` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    Get,
    GetRange,
    Put,
    Delete,
    Exists,
    LenOf,
    List,
    GetMany,
    Execute,
    DeletePrefix,
}

impl Method {
    pub const ALL: [Method; 10] = [
        Method::Get,
        Method::GetRange,
        Method::Put,
        Method::Delete,
        Method::Exists,
        Method::LenOf,
        Method::List,
        Method::GetMany,
        Method::Execute,
        Method::DeletePrefix,
    ];

    fn span_name(self) -> &'static str {
        match self {
            Method::Get => "storage.get",
            Method::GetRange => "storage.get_range",
            Method::Put => "storage.put",
            Method::Delete => "storage.delete",
            Method::Exists => "storage.exists",
            Method::LenOf => "storage.len_of",
            Method::List => "storage.list",
            Method::GetMany => "storage.get_many",
            Method::Execute => "storage.execute",
            Method::DeletePrefix => "storage.delete_prefix",
        }
    }

    /// Whether the method reads (one call = one storage round trip).
    pub fn is_read(self) -> bool {
        !matches!(self, Method::Put | Method::Delete | Method::DeletePrefix)
    }
}

/// Totals for one method.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub calls: u64,
    /// Calls that touched only metadata keys (`exists`, `len_of` and
    /// `list` always count here).
    pub meta_calls: u64,
    /// Keys requested: 1 per single-key call, the request count of a batch.
    pub keys: u64,
    pub chunk_bytes: u64,
    pub meta_bytes: u64,
    pub busy_ns: u64,
}

impl Tally {
    pub fn bytes(&self) -> u64 {
        self.chunk_bytes + self.meta_bytes
    }

    pub fn plus(&self, o: &Tally) -> Tally {
        Tally {
            calls: self.calls + o.calls,
            meta_calls: self.meta_calls + o.meta_calls,
            keys: self.keys + o.keys,
            chunk_bytes: self.chunk_bytes + o.chunk_bytes,
            meta_bytes: self.meta_bytes + o.meta_bytes,
            busy_ns: self.busy_ns + o.busy_ns,
        }
    }

    fn minus(&self, o: &Tally) -> Tally {
        Tally {
            calls: self.calls - o.calls,
            meta_calls: self.meta_calls - o.meta_calls,
            keys: self.keys - o.keys,
            chunk_bytes: self.chunk_bytes - o.chunk_bytes,
            meta_bytes: self.meta_bytes - o.meta_bytes,
            busy_ns: self.busy_ns - o.busy_ns,
        }
    }
}

#[derive(Default)]
struct AtomicTally([AtomicU64; 6]);

impl AtomicTally {
    fn get(&self) -> Tally {
        let v = |i: usize| self.0[i].load(Ordering::Relaxed);
        Tally {
            calls: v(0),
            meta_calls: v(1),
            keys: v(2),
            chunk_bytes: v(3),
            meta_bytes: v(4),
            busy_ns: v(5),
        }
    }
}

/// A point-in-time copy of every method's tally.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub methods: [Tally; 10],
}

impl Counts {
    pub fn of(&self, m: Method) -> Tally {
        self.methods[m as usize]
    }

    /// Per-method sum `self + other`.
    pub fn plus(&self, other: &Counts) -> Counts {
        Counts {
            methods: std::array::from_fn(|i| self.methods[i].plus(&other.methods[i])),
        }
    }

    /// Per-method difference `self - earlier`.
    pub fn since(&self, earlier: &Counts) -> Counts {
        Counts {
            methods: std::array::from_fn(|i| self.methods[i].minus(&earlier.methods[i])),
        }
    }

    /// The tallies of every read method, summed.
    pub fn reads(&self) -> Tally {
        Method::ALL
            .iter()
            .filter(|m| m.is_read())
            .map(|&m| self.of(m))
            .fold(Tally::default(), |a, t| a.plus(&t))
    }
}

/// Whether `key` names a chunk blob rather than metadata.
pub fn is_chunk_key(key: &str) -> bool {
    key.split('/').any(|seg| seg == "chunks")
}

/// The counting decorator.
pub struct CountingProvider {
    inner: DynProvider,
    tallies: [AtomicTally; 10],
}

impl CountingProvider {
    pub fn new(inner: DynProvider) -> Self {
        CountingProvider {
            inner,
            tallies: Default::default(),
        }
    }

    pub fn counts(&self) -> Counts {
        Counts {
            methods: std::array::from_fn(|i| self.tallies[i].get()),
        }
    }

    /// Time `f` as one call of `m` over `keys`; `sizes` reports the bytes
    /// moved per key once `f` has returned.
    fn call<R>(
        &self,
        m: Method,
        keys: &[&str],
        f: impl FnOnce() -> R,
        sizes: impl FnOnce(&R) -> Vec<u64>,
    ) -> R {
        let t0 = Instant::now();
        let out = crate::spans::span(m.span_name(), 0, f);
        let busy = t0.elapsed().as_nanos() as u64;
        let t = &self.tallies[m as usize].0;
        let add = |i: usize, v: u64| {
            t[i].fetch_add(v, Ordering::Relaxed);
        };
        let only_meta = !keys.iter().any(|k| is_chunk_key(k));
        add(0, 1);
        add(1, u64::from(only_meta));
        add(2, keys.len() as u64);
        for (key, n) in keys.iter().zip(sizes(&out)) {
            add(if is_chunk_key(key) { 3 } else { 4 }, n);
        }
        add(5, busy);
        out
    }
}

fn ok_len(r: &Result<Bytes>) -> u64 {
    r.as_ref().map(|b| b.len() as u64).unwrap_or(0)
}

impl StorageProvider for CountingProvider {
    fn get(&self, key: &str) -> Result<Bytes> {
        self.call(
            Method::Get,
            &[key],
            || self.inner.get(key),
            |r| vec![ok_len(r)],
        )
    }

    fn get_range(&self, key: &str, start: u64, end: u64) -> Result<Bytes> {
        self.call(
            Method::GetRange,
            &[key],
            || self.inner.get_range(key, start, end),
            |r| vec![ok_len(r)],
        )
    }

    fn put(&self, key: &str, value: Bytes) -> Result<()> {
        let n = value.len() as u64;
        self.call(
            Method::Put,
            &[key],
            || self.inner.put(key, value),
            |_| vec![n],
        )
    }

    fn delete(&self, key: &str) -> Result<()> {
        self.call(
            Method::Delete,
            &[key],
            || self.inner.delete(key),
            |_| vec![0],
        )
    }

    fn exists(&self, key: &str) -> Result<bool> {
        self.call(Method::Exists, &[], || self.inner.exists(key), |_| vec![])
    }

    fn len_of(&self, key: &str) -> Result<u64> {
        self.call(Method::LenOf, &[], || self.inner.len_of(key), |_| vec![])
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        self.call(Method::List, &[], || self.inner.list(prefix), |_| vec![])
    }

    fn describe(&self) -> String {
        format!("counting({})", self.inner.describe())
    }

    fn get_many(&self, requests: &[ReadRequest]) -> Vec<Result<Bytes>> {
        let keys: Vec<&str> = requests.iter().map(|r| r.key.as_str()).collect();
        self.call(
            Method::GetMany,
            &keys,
            || self.inner.get_many(requests),
            |rs| rs.iter().map(ok_len).collect(),
        )
    }

    fn execute(&self, plan: &ReadPlan) -> ReadResult {
        let keys: Vec<&str> = plan.requests().iter().map(|r| r.key.as_str()).collect();
        self.call(
            Method::Execute,
            &keys,
            || self.inner.execute(plan),
            |r| r.results.iter().map(ok_len).collect(),
        )
    }

    fn delete_prefix(&self, prefix: &str) -> Result<()> {
        self.call(
            Method::DeletePrefix,
            &[],
            || self.inner.delete_prefix(prefix),
            |_| vec![],
        )
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use deeplake_storage::MemoryProvider;

    use super::*;

    #[test]
    fn counts_are_exact_against_memory_provider() {
        let mem = Arc::new(MemoryProvider::new());
        let p = CountingProvider::new(mem.clone());
        let chunk = "v/t/chunks/0001";
        p.put(chunk, Bytes::from(vec![1u8; 1000])).unwrap();
        p.put("v/t/tensor_meta.json", Bytes::from(vec![2u8; 30]))
            .unwrap();
        assert_eq!(p.get(chunk).unwrap().len(), 1000);
        assert_eq!(p.get_range(chunk, 100, 350).unwrap().len(), 250);
        assert_eq!(p.get("v/t/tensor_meta.json").unwrap().len(), 30);
        assert!(p.get("missing").is_err());
        assert!(p.exists(chunk).unwrap());
        assert_eq!(p.len_of(chunk).unwrap(), 1000);
        assert_eq!(p.list("v/").unwrap().len(), 2);
        let many = p.get_many(&[
            ReadRequest::range(chunk, 0, 10),
            ReadRequest::whole("v/t/tensor_meta.json"),
        ]);
        assert_eq!(many.len(), 2);
        let mut plan = ReadPlan::new();
        plan.range(chunk, 0, 100);
        plan.range(chunk, 100, 300); // adjacent: coalesced below the decorator
        plan.whole("nope/chunks/9"); // a missing key moves no bytes
        let r = p.execute(&plan);
        assert_eq!(r.results.len(), 3);
        p.delete("v/t/tensor_meta.json").unwrap();

        let c = p.counts();
        let put = c.of(Method::Put);
        assert_eq!(
            (
                put.calls,
                put.meta_calls,
                put.keys,
                put.chunk_bytes,
                put.meta_bytes
            ),
            (2, 1, 2, 1000, 30)
        );
        let get = c.of(Method::Get);
        assert_eq!(
            (get.calls, get.meta_calls, get.chunk_bytes, get.meta_bytes),
            (3, 2, 1000, 30)
        );
        assert_eq!(c.of(Method::GetRange).chunk_bytes, 250);
        let gm = c.of(Method::GetMany);
        assert_eq!(
            (gm.calls, gm.keys, gm.chunk_bytes, gm.meta_bytes),
            (1, 2, 10, 30)
        );
        let ex = c.of(Method::Execute);
        assert_eq!(
            (ex.calls, ex.meta_calls, ex.keys, ex.chunk_bytes),
            (1, 0, 3, 300)
        );
        for m in [Method::Exists, Method::LenOf, Method::List] {
            assert_eq!((c.of(m).calls, c.of(m).meta_calls), (1, 1), "{m:?}");
        }
        assert_eq!(c.of(Method::Delete).calls, 1);
        assert_eq!(c.of(Method::DeletePrefix).calls, 0);
        let reads = c.reads();
        assert_eq!(reads.calls, 3 + 1 + 3 + 1 + 1);
        assert_eq!(reads.keys, 3 + 1 + 2 + 3);
        assert_eq!(reads.chunk_bytes, 1000 + 250 + 10 + 300);
        // the decorator changed nothing underneath
        assert_eq!(mem.len_of(chunk).unwrap(), 1000);
        assert!(!mem.exists("v/t/tensor_meta.json").unwrap());
        let later = p.counts();
        assert_eq!(later.since(&c), Counts::default());
    }

    #[test]
    fn chunk_keys_are_recognised() {
        assert!(is_chunk_key("versions/abc/image/chunks/00000000000000ff"));
        assert!(is_chunk_key("chunks/1"));
        assert!(!is_chunk_key("versions/abc/image/tensor_meta.json"));
        assert!(!is_chunk_key("versions/abc/image/chunks_index"));
    }
}
