//! Evaluate alarm rules as GQL continuous queries.
//!
//! Every [`Rule`] compiles to one GQL expression ([`rule_expr`]). The
//! query's result rows map back to `(rule, subject, value)`
//! observations ([`rule_observations`]), which drive the hysteresis
//! state machine via
//! [`AlarmEngine::apply_observations`](crate::engine::AlarmEngine::apply_observations).
//! A consumer states what it watches as queries over the monitoring
//! tree, so the same rule runs over a document in hand or over a
//! subscription pushed by a gmetad after each poll round.
//!
//! [`AlarmFeed`] bundles the compiled queries with an engine. It has
//! two entry points: [`AlarmFeed::evaluate_doc`] for callers that hold
//! a document, and [`AlarmFeed::apply_rows`] for subscription clients,
//! which pull [`AlarmFeed::expressions`], subscribe each one and hand
//! the mirrored rows back. Rows are keyed `grid|cluster|host|metric`
//! and the last row for a key wins, so a duplicated host or metric
//! name is observed once per round.

use ganglia_metrics::model::GangliaDoc;
use ganglia_query::gql::{GqlQuery, Row, HOSTS_DOWN};

use crate::engine::{AlarmEngine, AlarmEvent};
use crate::rule::{Matcher, Rule, Signal};
use crate::sink::AlarmSink;

/// Quote a literal for embedding in a GQL expression.
fn quote(lit: &str) -> String {
    let mut out = String::with_capacity(lit.len() + 2);
    out.push('"');
    for c in lit.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            other => out.push(other),
        }
    }
    out.push('"');
    out
}

fn matcher_stage(field: &str, matcher: &Matcher) -> Option<String> {
    match matcher {
        Matcher::Any => None,
        Matcher::Exact(name) => Some(format!("{field} == {}", quote(name))),
        Matcher::Pattern(re) => Some(format!("{field} ~ {}", quote(re.pattern()))),
    }
}

/// The GQL expression equivalent to one alarm rule, or `None` for the
/// one unrepresentable (and meaningless) combination: a per-host rule
/// watching the summary-only `HostsDown` signal.
pub fn rule_expr(rule: &Rule) -> Option<String> {
    let mut stages: Vec<String> = Vec::new();
    match &rule.host {
        None => {
            stages.push("summary".to_string());
            stages.extend(matcher_stage("cluster", &rule.cluster));
            let metric = match &rule.signal {
                Signal::Metric(name) => name.as_str(),
                Signal::HostsDown => HOSTS_DOWN,
            };
            stages.push(format!("metric == {}", quote(metric)));
        }
        Some(host) => {
            let Signal::Metric(metric) = &rule.signal else {
                return None; // HostsDown is summary-only
            };
            stages.extend(matcher_stage("cluster", &rule.cluster));
            stages.extend(matcher_stage("host", host));
            stages.push(format!("metric == {}", quote(metric)));
        }
    }
    Some(stages.join(" | "))
}

/// Map one rule's GQL result rows back to engine observations. Summary
/// rules subject on the cluster/grid name (the summary row's CLUSTER
/// column carries both); per-host rules subject on `cluster/host`.
/// Rows without a numeric value observe nothing.
pub fn rule_observations(rule: &Rule, rows: &[Row]) -> Vec<(String, String, f64)> {
    let mut out = Vec::new();
    for row in rows {
        let Some(value) = row.value else { continue };
        let subject = if rule.host.is_none() {
            row.cluster.clone()
        } else {
            format!("{}/{}", row.cluster, row.host)
        };
        out.push((rule.name.clone(), subject, value));
    }
    out
}

/// One rule with its compiled continuous query.
struct CompiledRule {
    rule: Rule,
    query: GqlQuery,
}

/// An alarm engine fed by GQL queries.
pub struct AlarmFeed {
    engine: AlarmEngine,
    compiled: Vec<CompiledRule>,
}

impl AlarmFeed {
    /// Compile each rule to its GQL expression. Rules that compile to
    /// nothing (per-host `HostsDown`) are carried by the engine but
    /// never observe anything.
    pub fn new(rules: Vec<Rule>) -> AlarmFeed {
        let compiled = rules
            .iter()
            .filter_map(|rule| {
                let source = rule_expr(rule)?;
                let query = GqlQuery::parse(&source)
                    .unwrap_or_else(|e| panic!("generated GQL {source:?} must parse: {e:?}"));
                Some(CompiledRule {
                    rule: rule.clone(),
                    query,
                })
            })
            .collect();
        AlarmFeed {
            engine: AlarmEngine::new(rules),
            compiled,
        }
    }

    /// The underlying engine (status queries).
    pub fn engine(&self) -> &AlarmEngine {
        &self.engine
    }

    /// `(rule name, GQL source)` pairs — what a subscription client
    /// sends as `#subscribe` expressions, one per rule.
    pub fn expressions(&self) -> Vec<(&str, &str)> {
        self.compiled
            .iter()
            .map(|c| (c.rule.name.as_str(), c.query.source()))
            .collect()
    }

    /// Evaluate every rule's query against a full document (full
    /// detail or summary form) at time `now` and drive the state
    /// machine, delivering transitions to `sink` and returning them.
    pub fn evaluate_doc(
        &mut self,
        doc: &GangliaDoc,
        now: u64,
        sink: &dyn AlarmSink,
    ) -> Vec<AlarmEvent> {
        let mut observations = Vec::new();
        for c in &self.compiled {
            let rows = c.query.evaluate_doc(doc);
            observations.extend(rule_observations(&c.rule, &rows));
        }
        self.engine.apply_observations(observations, now, sink)
    }

    /// Drive the state machine with externally evaluated rows (e.g. a
    /// subscription mirror), keyed by rule name. Rules without an entry
    /// observe nothing this round.
    pub fn apply_rows(
        &mut self,
        rows_by_rule: &[(&str, &[Row])],
        now: u64,
        sink: &dyn AlarmSink,
    ) -> Vec<AlarmEvent> {
        let mut observations = Vec::new();
        for c in &self.compiled {
            if let Some((_, rows)) = rows_by_rule.iter().find(|(name, _)| *name == c.rule.name) {
                observations.extend(rule_observations(&c.rule, rows));
            }
        }
        self.engine.apply_observations(observations, now, sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{AlarmKind, AlarmStatus};
    use crate::rule::Comparison;
    use crate::sink::MemorySink;
    use ganglia_metrics::model::{
        ClusterNode, GridBody, GridItem, GridNode, HostNode, MetricEntry, SummaryBody,
    };
    use ganglia_metrics::MetricValue;
    use ganglia_query::RegexLite;

    fn test_doc() -> GangliaDoc {
        // Two clusters with hosts plus a summary-only remote grid, so
        // every observation path (cluster summary, grid summary,
        // per-host) is exercised.
        let mk_cluster = |name: &str, loads: &[f64], down: usize| {
            let hosts: Vec<HostNode> = loads
                .iter()
                .enumerate()
                .map(|(i, load)| {
                    let mut h = HostNode::new(format!("n{i}"), "10.0.0.1");
                    if i < down {
                        h.tn = 10_000;
                    }
                    h.metrics
                        .push(MetricEntry::new("load_one", MetricValue::Double(*load)));
                    h
                })
                .collect();
            ClusterNode::with_hosts(name, hosts)
        };
        let meteor = mk_cluster("meteor", &[6.0, 1.0, 0.5, 9.0], 1);
        let nashi = mk_cluster("nashi", &[0.1, 0.2], 0);
        let attic = GridNode {
            name: "attic".into(),
            authority: String::new(),
            localtime: None,
            body: GridBody::Summary(meteor.summary()),
        };
        GangliaDoc {
            version: "2.5.4".into(),
            source: "gmetad".into(),
            items: vec![
                GridItem::Cluster(meteor),
                GridItem::Cluster(nashi),
                GridItem::Grid(attic),
            ],
        }
    }

    fn test_rules() -> Vec<Rule> {
        vec![
            Rule::summary(
                "load-high",
                Matcher::Any,
                Signal::Metric("load_one".into()),
                Comparison::Above(2.0),
            ),
            Rule::summary(
                "dead-hosts",
                Matcher::Pattern(RegexLite::new("^(meteor|attic)$").unwrap()),
                Signal::HostsDown,
                Comparison::Above(0.0),
            ),
            Rule::per_host(
                "hot",
                Matcher::Exact("meteor".into()),
                Matcher::Pattern(RegexLite::new("^n[03]$").unwrap()),
                "load_one",
                Comparison::Above(5.0),
            )
            .hold_for(30),
        ]
    }

    fn doc_with_load(load: f64, hosts_down: usize) -> GangliaDoc {
        let hosts: Vec<HostNode> = (0..4)
            .map(|i| {
                let mut h = HostNode::new(format!("n{i}"), "10.0.0.1");
                if i < hosts_down {
                    h.tn = 10_000;
                }
                h.metrics
                    .push(MetricEntry::new("load_one", MetricValue::Double(load)));
                h
            })
            .collect();
        let cluster = ClusterNode::with_hosts("meteor", hosts);
        GangliaDoc::gmond(cluster)
    }

    #[test]
    fn rule_exprs_compile() {
        for rule in test_rules() {
            let source = rule_expr(&rule).unwrap();
            GqlQuery::parse(&source)
                .unwrap_or_else(|e| panic!("{source:?} failed to parse: {e:?}"));
        }
        // The summary-only signal on a per-host rule is unrepresentable.
        let bogus = Rule {
            name: "bogus".into(),
            cluster: Matcher::Any,
            host: Some(Matcher::Any),
            signal: Signal::HostsDown,
            comparison: Comparison::Above(0.0),
            hold_secs: 0,
        };
        assert_eq!(rule_expr(&bogus), None);
    }

    #[test]
    fn literals_are_quoted() {
        let rule = Rule::summary(
            "odd",
            Matcher::Exact("we\"ird\\name".into()),
            Signal::Metric("load one".into()),
            Comparison::Above(0.0),
        );
        let source = rule_expr(&rule).unwrap();
        let query = GqlQuery::parse(&source).unwrap();
        assert_eq!(query.source(), source);
    }

    #[test]
    fn every_observation_path_raises_and_holds() {
        // Cluster summaries, the remote grid's summary and per-host
        // values all feed the state machine; the held per-host rule
        // fires only once its 30 s have passed.
        let doc = test_doc();
        let mut feed = AlarmFeed::new(test_rules());
        let sink = MemorySink::new();
        let raised = |events: Vec<AlarmEvent>| -> Vec<(String, String, f64)> {
            assert!(events.iter().all(|e| e.kind == AlarmKind::Raised));
            let mut out: Vec<_> = events
                .into_iter()
                .map(|e| (e.rule, e.subject, e.value))
                .collect();
            out.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
            out
        };
        let pair = |rule: &str, subject: &str, value: f64| (rule.into(), subject.into(), value);
        assert_eq!(
            raised(feed.evaluate_doc(&doc, 0, &sink)),
            vec![
                pair("dead-hosts", "attic", 1.0),
                pair("dead-hosts", "meteor", 1.0),
                pair("load-high", "attic", 3.5),
                pair("load-high", "meteor", 3.5),
            ]
        );
        assert!(feed.evaluate_doc(&doc, 15, &sink).is_empty());
        assert_eq!(
            raised(feed.evaluate_doc(&doc, 30, &sink)),
            vec![pair("hot", "meteor/n0", 6.0), pair("hot", "meteor/n3", 9.0)]
        );
        assert!(feed.evaluate_doc(&doc, 45, &sink).is_empty());
        assert_eq!(feed.engine().firing().len(), 6);
        assert_eq!(sink.events().len(), 6);
    }

    #[test]
    fn immediate_rule_raises_and_clears() {
        let rules = vec![Rule::summary(
            "load-high",
            Matcher::Exact("meteor".into()),
            Signal::Metric("load_one".into()),
            Comparison::Above(2.0),
        )];
        let mut feed = AlarmFeed::new(rules);
        let sink = MemorySink::new();

        let events = feed.evaluate_doc(&doc_with_load(3.0, 0), 10, &sink);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, AlarmKind::Raised);
        assert_eq!(events[0].subject, "meteor");
        assert_eq!(feed.engine().firing().len(), 1);

        // Still violated: no new events.
        assert!(feed
            .evaluate_doc(&doc_with_load(3.5, 0), 25, &sink)
            .is_empty());

        // Recovered: cleared.
        let events = feed.evaluate_doc(&doc_with_load(0.5, 0), 40, &sink);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, AlarmKind::Cleared);
        assert!(feed.engine().firing().is_empty());
        assert_eq!(sink.events().len(), 2);
    }

    #[test]
    fn hold_secs_requires_persistence() {
        let rules = vec![Rule::summary(
            "load-high",
            Matcher::Any,
            Signal::Metric("load_one".into()),
            Comparison::Above(2.0),
        )
        .hold_for(30)];
        let mut feed = AlarmFeed::new(rules);
        let sink = MemorySink::new();

        assert!(feed
            .evaluate_doc(&doc_with_load(3.0, 0), 0, &sink)
            .is_empty());
        assert_eq!(
            feed.engine().status("load-high", "meteor"),
            AlarmStatus::Pending { since: 0 }
        );
        // A dip resets the pending state.
        assert!(feed
            .evaluate_doc(&doc_with_load(1.0, 0), 15, &sink)
            .is_empty());
        assert_eq!(feed.engine().status("load-high", "meteor"), AlarmStatus::Ok);
        // Violation must persist the full hold time.
        assert!(feed
            .evaluate_doc(&doc_with_load(3.0, 0), 30, &sink)
            .is_empty());
        assert!(feed
            .evaluate_doc(&doc_with_load(3.0, 0), 45, &sink)
            .is_empty());
        let events = feed.evaluate_doc(&doc_with_load(3.0, 0), 60, &sink);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, AlarmKind::Raised);
    }

    #[test]
    fn hosts_down_rule() {
        let rules = vec![Rule::summary(
            "dead-hosts",
            Matcher::Any,
            Signal::HostsDown,
            Comparison::Above(0.0),
        )];
        let mut feed = AlarmFeed::new(rules);
        let sink = MemorySink::new();
        assert!(feed
            .evaluate_doc(&doc_with_load(1.0, 0), 0, &sink)
            .is_empty());
        let events = feed.evaluate_doc(&doc_with_load(1.0, 2), 15, &sink);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].value, 2.0);
    }

    #[test]
    fn per_host_rule_tracks_each_host() {
        let rules = vec![Rule::per_host(
            "hot",
            Matcher::Any,
            Matcher::Pattern(RegexLite::new("^n[01]$").unwrap()),
            "load_one",
            Comparison::Above(2.0),
        )];
        let mut feed = AlarmFeed::new(rules);
        let sink = MemorySink::new();
        let events = feed.evaluate_doc(&doc_with_load(5.0, 0), 0, &sink);
        // Only n0 and n1 match the host pattern.
        assert_eq!(events.len(), 2);
        let subjects: Vec<&str> = events.iter().map(|e| e.subject.as_str()).collect();
        assert_eq!(subjects, vec!["meteor/n0", "meteor/n1"]);
    }

    #[test]
    fn summary_rules_work_on_grid_summaries() {
        // An N-level parent only has the grid's summary — rules still
        // evaluate (on the mean).
        let summary = SummaryBody {
            hosts_up: 10,
            hosts_down: 3,
            metrics: vec![ganglia_metrics::MetricSummary {
                name: "load_one".into(),
                sum: 50.0,
                num: 10,
                ty: ganglia_metrics::MetricType::Float,
                units: Default::default(),
                slope: ganglia_metrics::Slope::Both,
                source: "gmond".into(),
            }],
        };
        let grid = GridNode {
            name: "attic".into(),
            authority: String::new(),
            localtime: None,
            body: GridBody::Summary(summary),
        };
        let doc = GangliaDoc {
            version: "2.5.4".into(),
            source: "gmetad".into(),
            items: vec![GridItem::Grid(grid)],
        };
        let rules = vec![
            Rule::summary(
                "grid-load",
                Matcher::Any,
                Signal::Metric("load_one".into()),
                Comparison::Above(4.0),
            ),
            Rule::summary(
                "grid-dead",
                Matcher::Any,
                Signal::HostsDown,
                Comparison::Above(2.0),
            ),
        ];
        let mut feed = AlarmFeed::new(rules);
        let sink = MemorySink::new();
        let events = feed.evaluate_doc(&doc, 0, &sink);
        assert_eq!(events.len(), 2, "{events:?}");
    }

    #[test]
    fn duplicate_names_observe_the_last_row() {
        // A host that reports one metric twice, and a cluster that
        // lists one host twice, are observed once per round through the
        // GQL row key (`grid|cluster|host|metric`), whose last row wins:
        // hot-then-calm reads calm, and a duplicated host cannot raise
        // and clear within a single round.
        let mut dup_metric = HostNode::new("n0", "10.0.0.1");
        for load in [9.0, 1.0] {
            dup_metric
                .metrics
                .push(MetricEntry::new("load_one", MetricValue::Double(load)));
        }
        let host = |load: f64| {
            let mut h = HostNode::new("n1", "10.0.0.2");
            h.metrics
                .push(MetricEntry::new("load_one", MetricValue::Double(load)));
            h
        };
        let calm_last = GangliaDoc::gmond(ClusterNode::with_hosts(
            "meteor",
            vec![dup_metric.clone(), host(9.0), host(1.0)],
        ));
        let hot_last = GangliaDoc::gmond(ClusterNode::with_hosts(
            "meteor",
            vec![dup_metric, host(1.0), host(9.0)],
        ));
        let mut feed = AlarmFeed::new(vec![Rule::per_host(
            "hot",
            Matcher::Any,
            Matcher::Pattern(RegexLite::new("^n[01]$").unwrap()),
            "load_one",
            Comparison::Above(2.0),
        )]);
        let sink = MemorySink::new();
        assert!(feed.evaluate_doc(&calm_last, 0, &sink).is_empty());
        let events = feed.evaluate_doc(&hot_last, 15, &sink);
        assert_eq!(events.len(), 1, "{events:?}");
        assert_eq!(events[0].subject, "meteor/n1");
        assert_eq!(events[0].value, 9.0);
        assert_eq!(
            feed.engine().firing(),
            vec![("hot".to_string(), "meteor/n1".to_string())]
        );
    }

    #[test]
    fn apply_rows_drives_the_engine() {
        let mut feed = AlarmFeed::new(vec![Rule::summary(
            "load-high",
            Matcher::Any,
            Signal::Metric("load_one".into()),
            Comparison::Above(2.0),
        )]);
        let exprs = feed.expressions();
        assert_eq!(exprs.len(), 1);
        assert_eq!(exprs[0].0, "load-high");
        // Rows as a subscription mirror would hold them.
        let query = GqlQuery::parse(exprs[0].1).unwrap();
        let rows = query.evaluate_doc(&test_doc());
        let sink = MemorySink::new();
        // Both the meteor cluster and the attic grid (whose summary
        // mirrors meteor's) breach the threshold; nashi does not.
        let mut events = feed.apply_rows(&[("load-high", &rows)], 0, &sink);
        events.sort_by(|a, b| a.subject.cmp(&b.subject));
        let subjects: Vec<&str> = events.iter().map(|e| e.subject.as_str()).collect();
        assert_eq!(subjects, vec!["attic", "meteor"], "{events:?}");
    }
}
