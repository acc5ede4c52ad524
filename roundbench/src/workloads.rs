//! The three workloads. Each drives real `Gmetad`s through their public
//! API and times them from outside:
//!
//! * `leaf` — one gmetad polling 8 generated gmond clusters through an
//!   in-memory transport at 100% churn, group-committing its archive
//!   journal every round, with subscriptions and a viewer that refreshes
//!   its dashboard once per round;
//! * `root` — one gmetad polling 8 child gmetads over loopback TCP, each
//!   child a real daemon over 4 generated clusters at 10% churn;
//! * `query` — a leaf-shaped daemon at 10% churn under a closed-loop
//!   request mix, with one inline poll round every 100 requests.
//!
//! Work per run is fixed (rounds and requests scale with `--seconds`,
//! never with elapsed time), every cadence runs on the logical clock
//! (15 s per round), and at most two threads are runnable at once.

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use ganglia_core::{ArchiveMode, DataSourceCfg, Gmetad, GmetadConfig, TreeMode};
use ganglia_net::transport::{RequestHandler, ServerGuard, Transport};
use ganglia_net::{Addr, NetError, TcpTransport};
use ganglia_query::gql::render_xml;
use ganglia_query::{Delta, GqlQuery, Mirror};
use ganglia_serve::SubscriptionHandle;

use crate::client::{Class, Request, Viewer};
use crate::dump_server::{DumpServer, Slot};
use crate::gen::{host_name, ClusterGen, Rng};
use crate::measure::{Samples, Window};
use crate::trace::{Replay, SpanLog, TimedTransport};

/// Logical seconds per poll round (§3.3.1's polling interval).
pub const ROUND_SECS: u64 = 15;
/// Warm-up rounds inside set-up: the cold round (every archive
/// created) and enough warm rounds for the ingest and render size hints
/// to settle.
const WARMUP_ROUNDS: u64 = 10;
/// The daemon never checkpoints its archive inside a run. A checkpoint
/// rewrites every RRD atomically with two fsyncs per file (about 25k
/// fsyncs here, 3-7 s on an ext4 virtual disk): it would time the disk,
/// not the daemon. The traced run times one checkpoint of the replayed
/// archive at the end instead.
const CHECKPOINT_SECS: u64 = u64::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Leaf,
    Root,
    Query,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "leaf" => Some(Workload::Leaf),
            "root" => Some(Workload::Root),
            "query" => Some(Workload::Query),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Leaf => "leaf",
            Workload::Root => "root",
            Workload::Query => "query",
        }
    }
}

// -------------------------------------------------------------------
// Sources

/// In-memory gmond endpoints: one current report per address, set by
/// the benchmark before each round and served as-is.
#[derive(Default)]
pub struct MemTransport {
    docs: RwLock<HashMap<String, Arc<String>>>,
}

impl MemTransport {
    fn set(&self, addr: &str, xml: Arc<String>) {
        self.docs
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(addr.to_string(), xml);
    }
}

impl Transport for MemTransport {
    fn serve(
        &self,
        addr: &Addr,
        _: Arc<dyn RequestHandler>,
    ) -> Result<Box<dyn ServerGuard>, NetError> {
        Err(NetError::AddrInUse(addr.clone()))
    }

    fn fetch(&self, addr: &Addr, _request: &str, _timeout: Duration) -> Result<String, NetError> {
        let docs = self.docs.read().unwrap_or_else(|e| e.into_inner());
        docs.get(addr.as_str())
            .map(|xml| xml.as_str().to_string())
            .ok_or_else(|| NetError::Unreachable(addr.clone()))
    }
}

/// A set of generated clusters behind a [`MemTransport`].
struct GenFeed {
    gens: Vec<ClusterGen>,
    /// `(source, address, current report)` in configuration order.
    current: Vec<(String, String, Arc<String>)>,
    transport: MemTransport,
}

impl GenFeed {
    fn new(prefix: &str, clusters: usize, hosts: usize, churn: f64, rng: &mut Rng) -> GenFeed {
        let gens: Vec<ClusterGen> = (0..clusters)
            .map(|i| ClusterGen::new(&format!("{prefix}c{i}"), i, hosts, churn, rng))
            .collect();
        let current = gens
            .iter()
            .map(|g| {
                (
                    g.name().to_string(),
                    format!("{}.gmond:8649", g.name()),
                    Arc::new(String::new()),
                )
            })
            .collect();
        GenFeed {
            gens,
            current,
            transport: MemTransport::default(),
        }
    }

    fn sources(&self) -> Vec<DataSourceCfg> {
        self.current
            .iter()
            .map(|(name, addr, _)| {
                DataSourceCfg::new(name.clone(), vec![Addr::new(addr.clone())])
                    .expect("valid source")
            })
            .collect()
    }

    /// Render every cluster's next report and publish it.
    fn advance(&mut self, now: u64) {
        for (gen, (_, addr, current)) in self.gens.iter_mut().zip(&mut self.current) {
            let mut buf = String::with_capacity(current.len() + 4096);
            gen.next_report(now, &mut buf);
            *current = Arc::new(buf);
            self.transport.set(addr, Arc::clone(current));
        }
    }
}

/// A child gmetad for the `root` workload; its rendered dump sits in a
/// slot the [`DumpServer`] serves.
struct Child {
    daemon: Arc<Gmetad>,
    feed: GenFeed,
    served: Slot,
}

impl Child {
    fn new(index: usize, rng: &mut Rng) -> Child {
        let name = format!("g{index}");
        let feed = GenFeed::new(&name, 4, 64, 0.10, rng);
        let mut config = GmetadConfig::new(name.clone())
            .with_mode(TreeMode::NLevel)
            .with_archive(ArchiveMode::Off);
        config.poll_concurrency = 1;
        config.subscriptions = false;
        config.data_sources = feed.sources();
        Child {
            daemon: Gmetad::new(config),
            feed,
            served: Arc::new(RwLock::new(Arc::new(String::new()))),
        }
    }

    /// Poll the child's clusters (untimed) and publish its new dump.
    fn advance(&mut self, now: u64, tally: &mut Tally) {
        self.feed.advance(now);
        for result in self.daemon.poll_all(&self.feed.transport, now) {
            tally.poll(result.is_ok());
            if let Err(e) = result {
                tally.problem(format!(
                    "child {}: poll failed: {e}",
                    self.daemon.config().grid_name
                ));
            }
        }
        let dump = Arc::new(self.daemon.query("/"));
        *self.served.write().unwrap_or_else(|e| e.into_inner()) = dump;
    }

    fn dump(&self) -> Arc<String> {
        Arc::clone(&self.served.read().unwrap_or_else(|e| e.into_inner()))
    }
}

enum Feed {
    Generated(GenFeed),
    /// The server is held only so it stops with the feed.
    Children {
        children: Vec<Child>,
        _server: DumpServer,
    },
}

// -------------------------------------------------------------------
// Accounting

/// Attempts and failures across every operation of the run, plus the
/// correctness problems found.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    fn poll(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn problem(&mut self, what: String) {
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }
}

struct Subscription {
    expr: &'static str,
    query: GqlQuery,
    handle: SubscriptionHandle,
    mirror: Mirror,
}

/// Subscription expressions: none selects the daemon's own `self.*`
/// metrics, whose values are timings, so pushed bytes are a pure
/// function of the seed.
const LEAF_SUBSCRIPTIONS: [&str; 4] = [
    "metric == load_one | avg by cluster",
    "metric == cpu_user | val > 95",
    "summary | metric ~ ^mem_",
    "metric == bytes_in | top 16",
];
const ROOT_SUBSCRIPTIONS: [&str; 1] = ["summary | metric ~ ^load_"];

const LEAF_GQL: [&str; 4] = [
    "metric == load_one | avg by cluster",
    "metric == cpu_user | val > 90 | count by cluster",
    "metric ~ ^mem_ | sum by metric",
    "summary | metric ~ ^cpu_",
];
const ROOT_GQL: [&str; 2] = [
    "summary | metric ~ ^load_",
    "summary | metric ~ ^cpu_ | top 4",
];

// -------------------------------------------------------------------
// The system under test

/// One assembled deployment: the measured daemon, what feeds it, its
/// subscriptions and its viewer.
pub struct System {
    workload: Workload,
    pub daemon: Arc<Gmetad>,
    feed: Feed,
    subs: Vec<Subscription>,
    pub viewer: Viewer,
    pub replay: Option<Replay>,
    rng: Rng,
    round: u64,
    clusters: Vec<(String, usize)>,
}

/// What set-up cost, net of input generation.
pub struct Setup {
    pub system: System,
    pub elapsed: Duration,
}

/// Per-round measurements of the measured phase.
#[derive(Default)]
pub struct RoundStats {
    pub wall: Samples,
    pub cpu: Duration,
    pub rounds: u64,
    pub wire_bytes: u64,
    pub push_bytes: u64,
    pub push_frames: u64,
    /// Traced rounds (the wrapper and round span were active).
    pub traced_wall: Samples,
    pub untraced_wall: Samples,
    /// `(round id, round cpu ms)` of traced rounds.
    pub traced_rounds: Vec<(u64, f64)>,
    pub hosts_reused: u64,
    pub hosts_rebuilt: u64,
    pub allocs: Samples,
}

impl System {
    /// Build and warm a deployment. Input generation is excluded from
    /// the returned set-up time.
    pub fn setup(
        workload: Workload,
        seed: u64,
        dir: &Path,
        trace: bool,
        tally: &mut Tally,
    ) -> Setup {
        let mut gen_time = Duration::ZERO;
        let mut rng = Rng::new(seed);
        // Generator state is input, not set-up.
        let gen_start = Instant::now();
        let feed = match workload {
            Workload::Leaf => Some(GenFeed::new("", 8, 64, 1.0, &mut rng)),
            Workload::Query => Some(GenFeed::new("", 8, 64, 0.10, &mut rng)),
            Workload::Root => None,
        };
        gen_time += gen_start.elapsed();
        let start = Instant::now();
        std::fs::create_dir_all(dir).expect("create work dir");
        let mut config = GmetadConfig::new("bench")
            .with_mode(TreeMode::NLevel)
            .with_archive(ArchiveMode::Directory(dir.join("archive")));
        config.archive_journal = true;
        config.archive_flush_ms = 0;
        config.archive_checkpoint_secs = CHECKPOINT_SECS;
        config.self_telemetry = true;
        config.subscriptions = true;
        let (feed, clusters) = match feed {
            Some(feed) => {
                config.poll_concurrency = 2;
                config.data_sources = feed.sources();
                let clusters = feed
                    .gens
                    .iter()
                    .map(|g| (g.name().to_string(), g.hosts()))
                    .collect();
                (Feed::Generated(feed), clusters)
            }
            None => {
                config.poll_concurrency = 1;
                let children: Vec<Child> = (0..8).map(|i| Child::new(i, &mut rng)).collect();
                let server =
                    DumpServer::start(children.iter().map(|c| Arc::clone(&c.served)).collect());
                config.data_sources = children
                    .iter()
                    .enumerate()
                    .map(|(i, c)| {
                        let name = c.daemon.config().grid_name.clone();
                        DataSourceCfg::new(name, vec![server.addr(i)]).expect("valid source")
                    })
                    .collect();
                let grids = children
                    .iter()
                    .map(|c| (c.daemon.config().grid_name.clone(), 0))
                    .collect();
                (
                    Feed::Children {
                        children,
                        _server: server,
                    },
                    grids,
                )
            }
        };
        let shards = config.resolved_store_shards();
        let daemon = Gmetad::new(config);
        let recovery = daemon.recover_archives().expect("archive recovery");
        if recovery.errors > 0 {
            tally.problem(format!(
                "archive recovery reported {} errors",
                recovery.errors
            ));
        }
        // Every 5th request is verified: 5 is coprime with the seven
        // requests of a dashboard refresh, so every class gets checked.
        let viewer = Viewer::open(&daemon, 5);
        let replay =
            trace.then(|| Replay::new(TreeMode::NLevel, shards, dir.join("replay-archive")));
        let mut system = System {
            workload,
            daemon,
            feed,
            subs: Vec::new(),
            viewer,
            replay,
            rng: rng.fork(0x5eed),
            round: 0,
            clusters,
        };
        let exprs: &[&'static str] = match workload {
            Workload::Root => &ROOT_SUBSCRIPTIONS,
            _ => &LEAF_SUBSCRIPTIONS,
        };
        let registry = system.daemon.subscription_registry();
        for (i, &expr) in exprs.iter().enumerate() {
            let handle = registry
                .subscribe(&format!("sub{i}"), expr)
                .expect("subscription accepted");
            let mut mirror = Mirror::new();
            mirror.apply(&Delta::parse(&handle.initial).expect("initial frame parses"));
            let query = GqlQuery::parse(expr).expect("expression parses");
            if let Some(replay) = &mut system.replay {
                replay.add_subscription(query.clone(), mirror.rows());
            }
            system.subs.push(Subscription {
                expr,
                query,
                handle,
                mirror,
            });
        }
        let mut warm = RoundStats::default();
        for _ in 0..WARMUP_ROUNDS {
            gen_time += system.poll_round(&mut warm, None, tally);
        }
        for request in system.dashboard() {
            system.viewer.issue(&system.daemon, &request, None);
        }
        Setup {
            elapsed: start.elapsed().saturating_sub(gen_time),
            system,
        }
    }

    /// One poll round: generate (untimed), `poll_all` (timed), drain the
    /// subscriptions, and — traced — replay the round per layer.
    /// Returns the input-generation time it spent.
    pub fn poll_round(
        &mut self,
        stats: &mut RoundStats,
        log: Option<&SpanLog>,
        tally: &mut Tally,
    ) -> Duration {
        self.round += 1;
        let now = self.round * ROUND_SECS;
        let gen_start = Instant::now();
        match &mut self.feed {
            Feed::Generated(feed) => feed.advance(now),
            Feed::Children { children, .. } => {
                for child in children.iter_mut() {
                    child.advance(now, tally);
                }
            }
        }
        let gen_time = gen_start.elapsed();
        // Traced runs trace every third round (through the timing
        // wrapper, under a round span) and run the others bare, so the
        // two populations give the tracing overhead. Three is coprime
        // with every rotation of the viewer's mix.
        let traced = log.filter(|_| self.round.is_multiple_of(3));
        let tcp = TcpTransport::new();
        let transport: &dyn Transport = match &self.feed {
            Feed::Generated(feed) => &feed.transport,
            Feed::Children { .. } => &tcp,
        };
        let round_span = traced.map(|log| log.open("round", Instant::now(), self.round));
        let wrapped = traced.zip(round_span).map(|(log, parent)| TimedTransport {
            inner: transport,
            log,
            parent,
            round: self.round,
        });
        let window = Window::open();
        let results = match &wrapped {
            Some(timed) => self.daemon.poll_all(timed, now),
            None => self.daemon.poll_all(transport, now),
        };
        let (wall, cpu) = window.close();
        if let (Some(log), Some(id)) = (traced, round_span) {
            log.close(id, Instant::now());
            stats.traced_wall.push(wall);
            stats
                .traced_rounds
                .push((self.round, cpu.as_secs_f64() * 1e3));
        } else if log.is_some() {
            stats.untraced_wall.push(wall);
        }
        stats.wall.push(wall);
        stats.cpu += cpu;
        stats.rounds += 1;
        for (i, result) in results.iter().enumerate() {
            tally.poll(result.is_ok());
            if let Err(e) = result {
                tally.problem(format!("round {} source {i}: poll failed: {e}", self.round));
            }
        }
        let inputs: Vec<(String, Arc<String>)> = match &self.feed {
            Feed::Generated(feed) => feed
                .current
                .iter()
                .map(|(name, _, xml)| (name.clone(), Arc::clone(xml)))
                .collect(),
            Feed::Children { children, .. } => children
                .iter()
                .map(|c| (c.daemon.config().grid_name.clone(), c.dump()))
                .collect(),
        };
        // Each source is fetched once per round, so the bytes read are
        // exactly the reports this round served.
        stats.wire_bytes += inputs.iter().map(|(_, xml)| xml.len() as u64).sum::<u64>();
        self.drain_subscriptions(stats, tally);
        if let (Some(log), Some(replay)) = (log, &mut self.replay) {
            let borrowed: Vec<(&str, &str)> = inputs
                .iter()
                .map(|(n, x)| (n.as_str(), x.as_str()))
                .collect();
            let counts = replay.round(log, round_span, self.round, now, &borrowed, &self.daemon);
            if traced.is_some() {
                stats.hosts_reused += counts.hosts_reused;
                stats.hosts_rebuilt += counts.hosts_rebuilt;
                stats.allocs.push_ms(counts.allocs as f64);
            }
        }
        gen_time
    }

    /// Take every frame pushed this round, apply it to the subscriber's
    /// mirror, and (every 10th round) check the mirror against a fresh
    /// evaluation.
    fn drain_subscriptions(&mut self, stats: &mut RoundStats, tally: &mut Tally) {
        let check = self.round.is_multiple_of(10);
        for sub in &mut self.subs {
            tally.attempted += 1;
            let mut frames = 0;
            while let Ok(frame) = sub.handle.next(Duration::ZERO) {
                frames += 1;
                stats.push_bytes += frame.len() as u64;
                stats.push_frames += 1;
                match Delta::parse(&frame) {
                    Ok(delta) => sub.mirror.apply(&delta),
                    Err(e) => tally.problem(format!("{}: bad frame: {e}", sub.expr)),
                }
            }
            if frames > 1 {
                tally.problem(format!("{}: {frames} frames in one round", sub.expr));
            }
            if check {
                let (rows, _) = self.daemon.gql_rows(&sub.query);
                if render_xml(&rows, sub.mirror.revision()) != sub.mirror.render() {
                    tally.failed += 1;
                    tally.problem(format!(
                        "round {}: mirror of `{}` diverged from a fresh evaluation",
                        self.round, sub.expr
                    ));
                }
            }
        }
    }

    /// The per-round viewer refresh of `leaf` and `root`: seven requests
    /// — the meta view, source views (three grids on `root`; a cluster
    /// and two hosts on `leaf`), a GQL query, the full dump, and the meta
    /// view again for a second viewer (a cache hit). Sources and
    /// expressions rotate round-robin and the hosts are seeded, so every
    /// run refreshes the same mix. An odd count keeps the medians over
    /// the refresh inside one request class rather than on the edge
    /// between two.
    pub fn dashboard(&mut self) -> Vec<Request> {
        let r = self.round as usize;
        let n = self.clusters.len();
        let mut requests = vec![Request::new(Class::Meta, "/?filter=summary")];
        match self.workload {
            Workload::Root => {
                for k in [r, r + 3, r + 5] {
                    let grid = &self.clusters[k % n].0;
                    requests.push(Request::new(Class::Cluster, format!("/{grid}")));
                }
                let expr = ROOT_GQL[r % ROOT_GQL.len()];
                requests.push(Request::new(Class::Gql, format!("/?filter=gql:{expr}")));
            }
            _ => {
                let cluster = &self.clusters[r % n].0;
                requests.push(Request::new(Class::Cluster, format!("/{cluster}")));
                requests.push(self.host_request());
                requests.push(self.host_request());
                let expr = LEAF_GQL[r % LEAF_GQL.len()];
                requests.push(Request::new(Class::Gql, format!("/?filter=gql:{expr}")));
            }
        }
        requests.push(Request::new(Class::Dump, "/"));
        requests.push(Request::new(Class::Meta, "/?filter=summary"));
        requests
    }

    fn host_request(&mut self) -> Request {
        let c = self.rng.below(self.clusters.len() as u64) as usize;
        let (cluster, hosts) = &self.clusters[c];
        let h = self.rng.below(*hosts as u64) as usize;
        Request::new(Class::Host, format!("/{cluster}/{}", host_name(cluster, h)))
    }

    /// The `query` workload's mix: 40% host views over every host, 25%
    /// cluster views, 10% meta, 15% ad-hoc GQL one-shots, 10% full
    /// dumps.
    pub fn next_query(&mut self) -> Request {
        let roll = self.rng.below(100);
        match roll {
            0..=39 => self.host_request(),
            40..=64 => {
                let c = self.rng.below(self.clusters.len() as u64) as usize;
                Request::new(Class::Cluster, format!("/{}", self.clusters[c].0))
            }
            65..=74 => Request::new(Class::Meta, "/?filter=summary"),
            75..=89 => {
                // Ad-hoc one-shots: a seeded threshold makes nearly every
                // expression new to the cache, so this class times GQL
                // evaluation rather than cache hits.
                let threshold = self.rng.below(100);
                let expr = match self.rng.below(4) {
                    0 => format!("metric == load_one | val > {threshold} | avg by cluster"),
                    1 => format!("metric == cpu_user | val > {threshold} | count by cluster"),
                    2 => format!("metric ~ ^cpu_ | val > {threshold} | max by metric"),
                    _ => format!("summary | metric ~ ^cpu_ | val > {threshold}"),
                };
                Request::new(Class::Gql, format!("/?filter=gql:{expr}"))
            }
            _ => Request::new(Class::Dump, "/"),
        }
    }

    pub fn current_round(&self) -> u64 {
        self.round
    }

    /// End-of-run invariants: incremental root summary == full re-merge,
    /// and every subscription mirror matches a fresh evaluation.
    pub fn final_checks(&mut self, tally: &mut Tally) {
        let store = self.daemon.store();
        let incremental = store.root_summary();
        let (_, full) = store.root_summary_full();
        let same = incremental.hosts_up == full.hosts_up
            && incremental.hosts_down == full.hosts_down
            && incremental.metrics.len() == full.metrics.len()
            && incremental.metrics.iter().all(|m| {
                full.metric(m.name.as_str())
                    .is_some_and(|o| o.sum.to_bits() == m.sum.to_bits() && o.num == m.num)
            });
        tally.attempted += 1;
        if !same {
            tally.failed += 1;
            tally.problem("incremental root summary differs from the full re-merge".into());
        }
        for sub in &self.subs {
            let (rows, _) = self.daemon.gql_rows(&sub.query);
            if render_xml(&rows, sub.mirror.revision()) != sub.mirror.render() {
                tally.failed += 1;
                tally.problem(format!("final mirror of `{}` diverged", sub.expr));
            }
        }
        let evicted = self.daemon.registry().counter("sub.evicted_total").get();
        tally.failed += evicted;
        if evicted > 0 {
            tally.problem(format!("{evicted} subscriptions evicted"));
        }
    }
}
