//! Hierarchical tracing spans.
//!
//! A span times a region of work with `Instant` and, when it drops,
//! records the elapsed microseconds into the registry histogram named
//! `<path>_us`, where the path is the dot-joined chain of span names
//! (`round` → `round.fetch` → `round.fetch_us`). Children are created
//! explicitly from their parent so the hierarchy is in the type flow,
//! not thread-local magic — this code runs inside a simulator that
//! multiplexes many daemons on one thread, where implicit context would
//! cross-contaminate.
//!
//! Optionally the tracer keeps a bounded ring of [`SpanEvent`]s stamped
//! with the injectable [`LogicalClock`], giving a structured "what
//! happened when" log that is deterministic under the sim's virtual
//! time even though the durations inside it are real measurements.
//!
//! Events are *round-correlated*: [`Tracer::begin_round`] bumps a
//! monotone round counter once per poll round and returns a [`Round`]
//! handle. Spans opened from the handle carry its id explicitly, so a
//! round's spans keep their id even while another round begins on a
//! different thread. Spans opened outside a round ([`Tracer::span`],
//! e.g. queries) capture whichever round is current. Spans can also be
//! labelled with the data source they work on and the outcome they
//! finished with, so the ring doubles as a structured trace log — one
//! slow root render can be chased down to the exact poll/ingest/
//! archive/serve stages of the round that produced it. The whole ring
//! exports as JSON ([`Tracer::events_json`]) for the `/?filter=trace`
//! query channel.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::clock::LogicalClock;
use crate::registry::Registry;
use crate::snapshot::json_string;

/// One closed span, as remembered by the event log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Dotted span path, e.g. `round.poll`.
    pub path: String,
    /// Poll round the span opened in (0 = outside any round).
    pub round: u64,
    /// Data source the span worked on ("" when not source-scoped).
    pub source: String,
    /// How the work ended: "ok" unless the span said otherwise.
    pub outcome: String,
    /// Logical-clock timestamp (seconds) when the span opened.
    pub opened_at: u64,
    /// Logical-clock timestamp (seconds) when the span closed.
    pub closed_at: u64,
    /// Real elapsed microseconds.
    pub micros: u64,
}

impl SpanEvent {
    /// The last path segment — the stage name (`round.poll` → `poll`).
    pub fn stage(&self) -> &str {
        self.path.rsplit('.').next().unwrap_or(&self.path)
    }

    /// One JSON object, e.g.
    /// `{"round":3,"source":"sdsc","stage":"poll",...}`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"round\":{},\"source\":{},\"stage\":{},\"path\":{},\
             \"opened_at\":{},\"closed_at\":{},\"us\":{},\"outcome\":{}}}",
            self.round,
            json_string(&self.source),
            json_string(self.stage()),
            json_string(&self.path),
            self.opened_at,
            self.closed_at,
            self.micros,
            json_string(&self.outcome),
        )
    }
}

/// Factory for root spans; owns the optional event log and the round
/// counter.
#[derive(Debug, Clone)]
pub struct Tracer {
    registry: Arc<Registry>,
    clock: LogicalClock,
    events: Option<Arc<Mutex<VecDeque<SpanEvent>>>>,
    capacity: usize,
    /// Monotone poll-round id, shared across clones so every span in
    /// the process agrees which round is current.
    round: Arc<AtomicU64>,
}

impl Tracer {
    /// A tracer that only feeds histograms (no event log).
    pub fn new(registry: Arc<Registry>, clock: LogicalClock) -> Self {
        Tracer {
            registry,
            clock,
            events: None,
            capacity: 0,
            round: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Keep the last `capacity` closed spans as structured events.
    pub fn with_event_log(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self.events = Some(Arc::new(Mutex::new(VecDeque::with_capacity(capacity))));
        self
    }

    /// Start a new poll round with the next id (1-based). Spans opened
    /// from the returned handle carry that id; spans opened through
    /// [`Tracer::span`] carry it until the next call.
    pub fn begin_round(&self) -> Round<'_> {
        Round {
            tracer: self,
            id: self.round.fetch_add(1, Ordering::SeqCst) + 1,
        }
    }

    /// The id of the round currently in progress (0 before the first).
    pub fn current_round(&self) -> u64 {
        self.round.load(Ordering::SeqCst)
    }

    /// Open a root span stamped with the round currently in progress.
    pub fn span(&self, name: &str) -> Span<'_> {
        self.open(name, self.current_round())
    }

    fn open(&self, name: &str, round: u64) -> Span<'_> {
        Span {
            tracer: self,
            path: name.to_string(),
            start: Instant::now(),
            round,
            opened_at: self.clock.now(),
            source: String::new(),
            outcome: String::new(),
        }
    }

    /// Snapshot of the event log, oldest first. Empty when the log is
    /// disabled.
    pub fn events(&self) -> Vec<SpanEvent> {
        match &self.events {
            Some(log) => log.lock().iter().cloned().collect(),
            None => Vec::new(),
        }
    }

    /// The event log as a JSON array, oldest first.
    pub fn events_json(&self) -> String {
        let events = self.events();
        let mut out = String::with_capacity(64 + events.len() * 96);
        out.push('[');
        for (i, event) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&event.to_json());
        }
        out.push(']');
        out
    }

    fn close(&self, event: SpanEvent) {
        self.registry
            .histogram(&format!("{}_us", event.path))
            .record(event.micros);
        if let Some(log) = &self.events {
            let mut log = log.lock();
            if log.len() == self.capacity {
                log.pop_front();
            }
            log.push_back(event);
        }
    }
}

/// A poll round in progress (see [`Tracer::begin_round`]).
#[derive(Debug)]
pub struct Round<'t> {
    tracer: &'t Tracer,
    id: u64,
}

impl<'t> Round<'t> {
    /// This round's id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Open a root span stamped with this round's id.
    pub fn span(&self, name: &str) -> Span<'t> {
        self.tracer.open(name, self.id)
    }
}

/// A live timed region. Records itself on drop.
#[derive(Debug)]
pub struct Span<'t> {
    tracer: &'t Tracer,
    path: String,
    start: Instant,
    round: u64,
    opened_at: u64,
    source: String,
    outcome: String,
}

impl Span<'_> {
    /// Open a child span; its path is `parent.child`. The child
    /// inherits the parent's round id and source label.
    pub fn child(&self, name: &str) -> Span<'_> {
        Span {
            tracer: self.tracer,
            path: format!("{}.{name}", self.path),
            start: Instant::now(),
            round: self.round,
            opened_at: self.tracer.clock.now(),
            source: self.source.clone(),
            outcome: String::new(),
        }
    }

    /// Label the span with the data source it works on.
    pub fn set_source(&mut self, source: &str) {
        self.source = source.to_string();
    }

    /// Reclassify the span under a different path — e.g. a poll that
    /// turned out to be an idle backoff probe records as
    /// `round.poll_idle` so it doesn't dilute the real poll quantiles.
    pub fn set_path(&mut self, path: &str) {
        self.path = path.to_string();
    }

    /// Record how the work ended (defaults to "ok").
    pub fn set_outcome(&mut self, outcome: &str) {
        self.outcome = outcome.to_string();
    }

    /// The round id captured when the span opened.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Elapsed time so far.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// The dotted path this span records under (without the `_us`
    /// histogram suffix).
    pub fn path(&self) -> &str {
        &self.path
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let micros = self.start.elapsed().as_micros().min(u64::MAX as u128) as u64;
        self.tracer.close(SpanEvent {
            path: std::mem::take(&mut self.path),
            round: self.round,
            source: std::mem::take(&mut self.source),
            outcome: match self.outcome.is_empty() {
                true => "ok".to_string(),
                false => std::mem::take(&mut self.outcome),
            },
            opened_at: self.opened_at,
            closed_at: self.tracer.clock.now(),
            micros,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn spans_feed_path_named_histograms() {
        let registry = Arc::new(Registry::new());
        let tracer = Tracer::new(Arc::clone(&registry), LogicalClock::new());
        {
            let round = tracer.span("round");
            {
                let _fetch = round.child("fetch");
            }
            {
                let _fetch = round.child("fetch");
            }
        }
        assert_eq!(registry.histogram("round_us").count(), 1);
        assert_eq!(registry.histogram("round.fetch_us").count(), 2);
    }

    #[test]
    fn event_log_is_bounded_and_clock_stamped() {
        let clock = LogicalClock::new();
        let registry = Arc::new(Registry::new());
        let tracer = Tracer::new(Arc::clone(&registry), clock.clone()).with_event_log(2);
        clock.set(10);
        let _ = tracer.span("a");
        clock.set(20);
        let _ = tracer.span("b");
        clock.set(30);
        let _ = tracer.span("c");
        let events = tracer.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].path, "b");
        assert_eq!(events[0].closed_at, 20);
        assert_eq!(events[1].path, "c");
        assert_eq!(events[1].closed_at, 30);
    }

    #[test]
    fn rounds_sources_and_outcomes_ride_the_events() {
        let clock = LogicalClock::new();
        let registry = Arc::new(Registry::new());
        let tracer = Tracer::new(Arc::clone(&registry), clock.clone()).with_event_log(8);
        clock.set(100);
        assert_eq!(tracer.begin_round().id(), 1);
        {
            let round = tracer.span("round");
            let mut poll = round.child("poll");
            poll.set_source("sdsc");
            poll.set_outcome("failed");
            let ingest = poll.child("ingest");
            assert_eq!(ingest.round(), 1);
            drop(ingest);
        }
        assert_eq!(tracer.begin_round().id(), 2);
        let _ = tracer.span("round");
        let events = tracer.events();
        // Drop order: ingest, poll, round (round 1), then round 2.
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].path, "round.poll.ingest");
        assert_eq!(events[0].stage(), "ingest");
        assert_eq!(events[0].source, "sdsc", "child inherits the source");
        assert_eq!(events[0].outcome, "ok");
        assert_eq!(events[1].stage(), "poll");
        assert_eq!(events[1].outcome, "failed");
        assert_eq!(events[2].round, 1);
        assert_eq!(events[3].round, 2);
        assert!(events.iter().all(|e| e.opened_at == 100));
    }

    #[test]
    fn events_json_parses_and_round_trips_fields() {
        let clock = LogicalClock::new();
        let registry = Arc::new(Registry::new());
        let tracer = Tracer::new(Arc::clone(&registry), clock.clone()).with_event_log(4);
        clock.set(7);
        tracer.begin_round();
        {
            let mut span = tracer.span("round.poll");
            span.set_source("a \"quoted\" source");
        }
        let parsed = json::parse(&tracer.events_json()).expect("valid JSON");
        let event = parsed.index(0).expect("one event");
        assert!(parsed.index(1).is_none());
        assert_eq!(event.get("round").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(
            event.get("source").and_then(|v| v.as_str()),
            Some("a \"quoted\" source")
        );
        assert_eq!(event.get("stage").and_then(|v| v.as_str()), Some("poll"));
        assert_eq!(event.get("outcome").and_then(|v| v.as_str()), Some("ok"));
        assert_eq!(event.get("closed_at").and_then(|v| v.as_u64()), Some(7));
    }

    // Satellite: the ring under concurrent writers. Bounded size holds,
    // no torn events (every field belongs to the same logical write),
    // and round ids are monotone per source.
    #[test]
    fn event_ring_survives_concurrent_writers() {
        const WRITERS: usize = 8;
        const ROUNDS: usize = 200;
        const CAPACITY: usize = 64;
        let registry = Arc::new(Registry::new());
        let tracer =
            Tracer::new(Arc::clone(&registry), LogicalClock::new()).with_event_log(CAPACITY);
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let tracer = tracer.clone();
                scope.spawn(move || {
                    let source = format!("src-{w}");
                    for i in 0..ROUNDS {
                        // Each writer drives its own rounds off the
                        // shared counter, as concurrent daemons would,
                        // and opens its span from its own round.
                        let handle = tracer.begin_round();
                        let round = handle.id();
                        let mut span = handle.span("round.poll");
                        span.set_source(&source);
                        span.set_outcome(if i % 3 == 0 { "failed" } else { "ok" });
                        assert_eq!(span.round(), round);
                        drop(span);
                    }
                });
            }
        });
        let events = tracer.events();
        assert!(events.len() <= CAPACITY, "ring exceeded capacity");
        assert_eq!(
            events.len(),
            CAPACITY,
            "ring should be full after 1600 spans"
        );
        let mut last_round_per_source = std::collections::HashMap::new();
        for event in &events {
            // Torn-write check: every field is from one writer's span.
            assert_eq!(event.path, "round.poll");
            assert!(event.source.starts_with("src-"), "{:?}", event.source);
            assert!(event.outcome == "ok" || event.outcome == "failed");
            assert!(event.round >= 1 && event.round <= (WRITERS * ROUNDS) as u64);
            // Monotonicity: a writer begins a fresh (strictly larger)
            // round before each span, so per-source ids must increase.
            if let Some(prev) = last_round_per_source.insert(&event.source, event.round) {
                assert!(
                    event.round > prev,
                    "round ids regressed for {}",
                    event.source
                );
            }
        }
    }
}
