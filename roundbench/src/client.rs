//! The viewer side: closed-loop keep-alive sessions on the query and
//! xml ports, per-class latency samples, and the sampled byte-identity
//! check of served responses against a fresh `Gmetad::query`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ganglia_core::telemetry::Registry;
use ganglia_core::Gmetad;
use ganglia_net::{Addr, ServerGuard};
use ganglia_serve::{FrontTier, PooledServer, ServeOptions};
use ganglia_web::{PersistentSession, ViewTiming};

use crate::measure::Samples;
use crate::trace::SpanLog;

/// Request classes of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `/?filter=summary`: the meta view.
    Meta,
    /// `/<cluster>` or `/<grid>`: one source's view.
    Cluster,
    /// `/<cluster>/<host>`: one host's view.
    Host,
    /// `/?filter=gql:<expr>`: a one-shot GQL query.
    Gql,
    /// The full dump on the xml port.
    Dump,
}

impl Class {
    pub const ALL: [Class; 5] = [
        Class::Meta,
        Class::Cluster,
        Class::Host,
        Class::Gql,
        Class::Dump,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Meta => "meta",
            Class::Cluster => "cluster",
            Class::Host => "host",
            Class::Gql => "gql",
            Class::Dump => "dump",
        }
    }

    /// Views are downloaded and parsed (Table 1); the rest are raw.
    pub fn is_view(self) -> bool {
        matches!(self, Class::Meta | Class::Cluster | Class::Host)
    }

    fn index(self) -> usize {
        self as usize
    }
}

pub struct Request {
    pub class: Class,
    pub line: String,
}

impl Request {
    pub fn new(class: Class, line: impl Into<String>) -> Request {
        Request {
            class,
            line: line.into(),
        }
    }
}

/// Serve-tier counters read around each request, so checks and replays
/// made by the benchmark itself never count toward the hit ratio.
struct TierCounters {
    requests: ganglia_core::telemetry::Counter,
    hits: ganglia_core::telemetry::Counter,
    shed: ganglia_core::telemetry::Counter,
    ratelimited: ganglia_core::telemetry::Counter,
}

impl TierCounters {
    fn new(registry: &Registry) -> TierCounters {
        TierCounters {
            requests: registry.counter("serve.requests_total"),
            hits: registry.counter("serve.cache_hits_total"),
            shed: registry.counter("serve.shed_total"),
            ratelimited: registry.counter("serve.ratelimited_total"),
        }
    }
}

/// Everything the viewer measured.
#[derive(Default)]
pub struct ViewerStats {
    /// Client round trip (download, plus parse for views) per class.
    pub by_class: [Samples; 5],
    pub all: Samples,
    /// `parse_document` time of view responses (the web layer).
    pub parse: Samples,
    /// Client-side exchange time of requests the tier answered from its
    /// cache.
    pub hit_rtt: Samples,
    /// `FrontTier::handle_from` time replayed on those cache hits.
    pub hit_handler: Samples,
    /// Uncached `Gmetad::query` render time per class (sampled).
    pub render: [Samples; 5],
    pub completed: u64,
    pub failed: u64,
    pub requests_counted: u64,
    pub hits_counted: u64,
    pub checked: u64,
    pub mismatches: u64,
    pub response_bytes: u64,
}

pub struct Viewer {
    // Field order is drop order: the sessions close before the guards
    // drain their workers, so shutdown never waits on an open session.
    query: PersistentSession,
    xml: PersistentSession,
    _query_guard: Box<dyn ServerGuard>,
    _xml_guard: Box<dyn ServerGuard>,
    query_tier: Arc<FrontTier>,
    dump_tier: Arc<FrontTier>,
    counters: TierCounters,
    check_every: u64,
    issued: u64,
    pub stats: ViewerStats,
}

const SESSION_TIMEOUT: Duration = Duration::from_secs(30);

impl Viewer {
    /// Serve `daemon`'s query and xml ports on loopback through pooled
    /// front tiers (one worker each, cache on, no rate limit) and open
    /// one keep-alive session per port. Every `check_every`-th request
    /// is re-checked against a fresh render.
    pub fn open(daemon: &Arc<Gmetad>, check_every: u64) -> Viewer {
        let options = ServeOptions::new()
            .with_workers(1)
            .with_cache(true)
            .with_rate_limit(0, 0);
        let query_tier = daemon.query_tier(options.clone());
        let dump_tier = daemon.dump_tier(options);
        let loopback = Addr::new("127.0.0.1:0");
        let query_guard =
            PooledServer::bind(&loopback, Arc::clone(&query_tier)).expect("bind query port");
        let xml_guard =
            PooledServer::bind(&loopback, Arc::clone(&dump_tier)).expect("bind xml port");
        let query = PersistentSession::connect(&query_guard.addr(), "viewer", SESSION_TIMEOUT)
            .expect("connect query session");
        let xml = PersistentSession::connect(&xml_guard.addr(), "poller", SESSION_TIMEOUT)
            .expect("connect xml session");
        Viewer {
            counters: TierCounters::new(daemon.registry()),
            query_tier,
            dump_tier,
            _query_guard: query_guard,
            _xml_guard: xml_guard,
            query,
            xml,
            check_every: check_every.max(1),
            issued: 0,
            stats: ViewerStats::default(),
        }
    }

    /// Issue one request, timed, then (every `check_every`-th) verify it
    /// outside the timed window. With a span log, the verification's
    /// fresh render and a replay of cache hits through the tier are
    /// recorded as layer spans.
    pub fn issue(&mut self, daemon: &Gmetad, request: &Request, log: Option<(&SpanLog, u64)>) {
        self.issued += 1;
        let requests_before = self.counters.requests.get();
        let hits_before = self.counters.hits.get();
        let rejected_before = self.counters.shed.get() + self.counters.ratelimited.get();
        let mut timing = ViewTiming::default();
        let start = Instant::now();
        let ok = if request.class.is_view() {
            self.query.fetch_parsed(&request.line, &mut timing).is_ok()
        } else {
            let session = if request.class == Class::Dump {
                &mut self.xml
            } else {
                &mut self.query
            };
            match session.query(&request.line) {
                Ok(body) => {
                    timing.xml_bytes = body.len();
                    !body.contains("<ERROR")
                }
                Err(_) => false,
            }
        };
        let rtt = start.elapsed();
        let hit = self.counters.hits.get() - hits_before == 1;
        let rejected = self.counters.shed.get() + self.counters.ratelimited.get() - rejected_before;
        self.stats.requests_counted += self.counters.requests.get() - requests_before;
        self.stats.hits_counted += u64::from(hit);
        if !ok || rejected > 0 {
            self.stats.failed += 1;
            return;
        }
        self.stats.completed += 1;
        self.stats.response_bytes += timing.xml_bytes as u64;
        self.stats.by_class[request.class.index()].push(rtt);
        self.stats.all.push(rtt);
        if request.class.is_view() {
            self.stats.parse.push(timing.parse);
        }
        if hit {
            // The socket exchange only: a view's client-side parse is
            // the web layer's cost, not the serve tier's.
            let exchange = if request.class.is_view() {
                timing.download
            } else {
                rtt
            };
            self.stats.hit_rtt.push(exchange);
            if let Some((log, round)) = log {
                // Replay the hit through the tier in-process: the
                // handler time on a hit, without socket or framing.
                let start = Instant::now();
                let tier = if request.class == Class::Dump {
                    &self.dump_tier
                } else {
                    &self.query_tier
                };
                let _ = tier.handle_from("replay", &request.line);
                let end = Instant::now();
                log.record("serve.handle_hit", start, end, None, round);
                self.stats.hit_handler.push(end - start);
            }
        }
        if self.issued.is_multiple_of(self.check_every) {
            self.verify(daemon, request, log);
        }
    }

    /// The served bytes must equal a fresh render at the same revision.
    /// Requests and polls share this thread, so the revision cannot
    /// move between the served response and the fresh render.
    fn verify(&mut self, daemon: &Gmetad, request: &Request, log: Option<(&SpanLog, u64)>) {
        let served = if request.class == Class::Dump {
            self.xml.query(&request.line)
        } else {
            self.query.query(&request.line)
        };
        let start = Instant::now();
        let fresh = if request.class == Class::Dump {
            daemon.query("/")
        } else {
            daemon.query(&request.line)
        };
        let end = Instant::now();
        self.stats.render[request.class.index()].push(end - start);
        if let Some((log, round)) = log {
            log.record("query.render", start, end, None, round);
        }
        self.stats.checked += 1;
        if served.as_deref().ok() != Some(fresh.as_str()) {
            self.stats.mismatches += 1;
        }
    }

    /// Checks and hit replays also pass through the tier; exclude them
    /// from the tier's hit ratio by using the counts taken around the
    /// timed requests only.
    pub fn hit_ratio(&self) -> f64 {
        if self.stats.requests_counted == 0 {
            0.0
        } else {
            self.stats.hits_counted as f64 / self.stats.requests_counted as f64
        }
    }
}
