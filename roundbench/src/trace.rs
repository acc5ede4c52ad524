//! The traced run: spans kept in memory, a timing `Transport` wrapper,
//! a counting allocator, and the per-layer replay.
//!
//! No span lives inside the program. A layer is timed either by wrapping
//! what the benchmark hands the daemon (the `Transport` given to
//! `poll_all`), or by replaying the round's own inputs through the
//! layer's public entry point on a shadow pipeline that sees exactly the
//! same sequence of inputs as the daemon: `Ingester::ingest`,
//! `Store::replace`, `Store::root_summary`, `archive_source`,
//! `ArchiveShards::commit_journals` / `checkpoint`, `Gmetad::gql_rows`
//! and `gql::diff(..).encode()`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ganglia_core::archive::{archive_source, ArchiveShards};
use ganglia_core::poller::build_state_prepared;
use ganglia_core::{Gmetad, Store, TreeMode};
use ganglia_metrics::Ingester;
use ganglia_net::transport::{FetchBuffer, RequestHandler, ServerGuard, Transport};
use ganglia_net::{Addr, NetError};
use ganglia_query::gql::diff;
use ganglia_query::{GqlQuery, RowSet};

// -------------------------------------------------------------------
// Counting allocator

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting allocations while [`count_allocs`]
/// runs. Outside those windows it costs one relaxed load per call.
pub struct CountingAlloc;

// SAFETY: every call forwards to `System` unchanged; counting only
// touches atomics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Run `f`, returning its result and the allocations made meanwhile.
/// Only meaningful while no other thread allocates (the replay runs on
/// the main thread between rounds).
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

// -------------------------------------------------------------------
// Spans

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub round: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// In-memory span log, written out once at the end of the run.
pub struct SpanLog {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(1 << 14)),
        }
    }

    /// Record a finished span; returns its id (for children's `parent`).
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        round: u64,
    ) -> usize {
        let mut spans = self.spans.lock().unwrap_or_else(|e| e.into_inner());
        spans.push(Span {
            name,
            start: start - self.origin,
            end: end - self.origin,
            parent,
            round,
        });
        spans.len() - 1
    }

    /// Reserve a span id now (a parent opened before its children) and
    /// fill in its end later with [`SpanLog::close`].
    pub fn open(&self, name: &'static str, start: Instant, round: u64) -> usize {
        self.record(name, start, start, None, round)
    }

    pub fn close(&self, id: usize, end: Instant) {
        let mut spans = self.spans.lock().unwrap_or_else(|e| e.into_inner());
        spans[id].end = end - self.origin;
    }

    /// Time `f` as one span.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        round: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent, round);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Write every span as TSV: id, name, round, parent, start and end
    /// in microseconds since the log opened.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tround\tparent\tstart_us\tend_us")?;
        for (id, span) in spans.iter().enumerate() {
            let parent = span
                .parent
                .map(|p| p.to_string())
                .unwrap_or_else(|| "-".into());
            writeln!(
                out,
                "{id}\t{}\t{}\t{parent}\t{:.3}\t{:.3}",
                span.name,
                span.round,
                span.start.as_secs_f64() * 1e6,
                span.end.as_secs_f64() * 1e6
            )?;
        }
        out.flush()
    }
}

/// Per-layer figures from a span log: for each span name, the median
/// over rounds of that round's summed span time (rounds in which the
/// layer did not run are skipped).
pub fn per_round_medians(spans: &[Span]) -> BTreeMap<&'static str, (f64, usize)> {
    let mut per_round: BTreeMap<(&'static str, u64), f64> = BTreeMap::new();
    for span in spans {
        *per_round.entry((span.name, span.round)).or_default() += span.ms();
    }
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for ((name, _), ms) in per_round {
        by_name.entry(name).or_default().push(ms);
    }
    by_name
        .into_iter()
        .map(|(name, values)| (name, (crate::measure::median(&values), values.len())))
        .collect()
}

// -------------------------------------------------------------------
// Transport wrapper

/// Times every `fetch_into` the daemon makes through it as a
/// `net.fetch` span under the current round.
pub struct TimedTransport<'a> {
    pub inner: &'a dyn Transport,
    pub log: &'a SpanLog,
    pub parent: usize,
    pub round: u64,
}

impl Transport for TimedTransport<'_> {
    fn serve(
        &self,
        addr: &Addr,
        handler: Arc<dyn RequestHandler>,
    ) -> Result<Box<dyn ServerGuard>, NetError> {
        self.inner.serve(addr, handler)
    }

    fn fetch(&self, addr: &Addr, request: &str, timeout: Duration) -> Result<String, NetError> {
        let start = Instant::now();
        let out = self.inner.fetch(addr, request, timeout);
        self.log.record(
            "net.fetch",
            start,
            Instant::now(),
            Some(self.parent),
            self.round,
        );
        out
    }

    fn fetch_into(
        &self,
        addr: &Addr,
        request: &str,
        timeout: Duration,
        buf: &mut FetchBuffer,
    ) -> Result<usize, NetError> {
        let start = Instant::now();
        let out = self.inner.fetch_into(addr, request, timeout, buf);
        self.log.record(
            "net.fetch",
            start,
            Instant::now(),
            Some(self.parent),
            self.round,
        );
        out
    }
}

// -------------------------------------------------------------------
// Replay

/// Counts one replayed round produced.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayCounts {
    pub hosts_reused: u64,
    pub hosts_rebuilt: u64,
    pub allocs: u64,
}

/// A shadow of the daemon's pipeline fed the same inputs in the same
/// order, so each layer's public entry point can be timed on real
/// inputs and real (warm) state.
pub struct Replay {
    mode: TreeMode,
    ingesters: HashMap<String, Ingester>,
    store: Store,
    archives: ArchiveShards,
    /// Distinct subscription expressions and the rows last diffed.
    subs: Vec<(GqlQuery, RowSet)>,
}

impl Replay {
    /// `shards` matches the daemon's store sharding; the shadow archive
    /// journals under `archive_dir` and, like the daemon's, commits
    /// every round.
    pub fn new(mode: TreeMode, shards: usize, archive_dir: PathBuf) -> Replay {
        Replay {
            mode,
            ingesters: HashMap::new(),
            store: Store::with_shards(shards, ganglia_core::store::DEFAULT_REBUILD_ROUNDS),
            archives: ArchiveShards::new(None, Some(archive_dir)).with_journal(true),
            subs: Vec::new(),
        }
    }

    /// Track one distinct subscription expression, starting from the
    /// rows its initial snapshot carried.
    pub fn add_subscription(&mut self, query: GqlQuery, initial: RowSet) {
        self.subs.push((query, initial));
    }

    /// Checkpoint the replayed archive once, as its own span outside
    /// every round (`round` = `u64::MAX`).
    pub fn final_checkpoint(&self, log: &SpanLog, now: u64) {
        let start = Instant::now();
        self.archives.checkpoint(now).expect("replayed checkpoint");
        log.record("archive.checkpoint", start, Instant::now(), None, u64::MAX);
    }

    /// Replay one round: `inputs` are `(source, report)` in
    /// configuration order, exactly the bytes the daemon fetched;
    /// `parent` is the round's span when the round was traced.
    pub fn round(
        &mut self,
        log: &SpanLog,
        parent: Option<usize>,
        round: u64,
        now: u64,
        inputs: &[(&str, &str)],
        daemon: &Gmetad,
    ) -> ReplayCounts {
        let mut counts = ReplayCounts::default();
        for &(source, xml) in inputs {
            let ingester = self.ingesters.entry(source.to_string()).or_default();
            let start = Instant::now();
            let (ingested, allocs) = count_allocs(|| ingester.ingest(xml));
            log.record("ingest.parse", start, Instant::now(), parent, round);
            let ingested = ingested.expect("replayed report parses");
            counts.allocs += allocs;
            counts.hosts_reused += ingested.stats.hosts_reused;
            counts.hosts_rebuilt += ingested.stats.hosts_rebuilt;
            let state =
                build_state_prepared(source, ingested.doc, ingested.summary, self.mode, now);
            let shard = self.archives.shard(source);
            log.time("archive.update", parent, round, || {
                archive_source(&mut shard.lock(), &state, self.mode, now)
            });
            log.time("store.replace", parent, round, || self.store.replace(state));
        }
        log.time("store.root_summary", parent, round, || {
            self.store.root_summary()
        });
        log.time("archive.commit", parent, round, || {
            self.archives.commit_journals()
        })
        .expect("replayed journal commit");
        for (query, prev) in &mut self.subs {
            let (rows, revision) = log.time("subs.eval", parent, round, || daemon.gql_rows(query));
            log.time("subs.encode", parent, round, || {
                diff(prev, &rows, revision).encode()
            });
            *prev = rows;
        }
        counts
    }
}
