//! End-to-end continuous queries over real sockets: a gmetad polling
//! simulated clusters, its query tier behind a pooled TCP server, and a
//! framed client that subscribes to a GQL expression. The contract
//! under test is the delta-consistency invariant: replaying the pushed
//! delta frames into a mirror reconstructs, byte-for-byte, what a fresh
//! one-shot evaluation of the same query returns at the same revision —
//! across every churn round.

use std::sync::Arc;
use std::time::Duration;

use ganglia::alarm::{AlarmFeed, AlarmKind, Comparison, Matcher, MemorySink, Rule, Signal};
use ganglia::core::{DataSourceCfg, Gmetad, GmetadConfig};
use ganglia::gmond::pseudo::ServedPseudoCluster;
use ganglia::gmond::PseudoGmond;
use ganglia::net::transport::Transport;
use ganglia::net::{Addr, SimNet, TcpTransport};
use ganglia::query::gql::{Delta, Mirror};
use ganglia::serve::{KeepAliveClient, PooledServer, ServeOptions};

/// Two pseudo-clusters monitored by one gmetad, polled once at t=15.
fn deployment() -> (Arc<SimNet>, Vec<ServedPseudoCluster>, Arc<Gmetad>) {
    let net = SimNet::new(1);
    let served: Vec<ServedPseudoCluster> = (0..2)
        .map(|c| {
            ServedPseudoCluster::serve(&net, PseudoGmond::new(format!("c{c}"), 8, 42 + c, 0), 1)
        })
        .collect();
    let mut config = GmetadConfig::new("gqltest");
    for (c, cluster) in served.iter().enumerate() {
        config = config
            .with_source(DataSourceCfg::new(format!("c{c}"), cluster.addrs().to_vec()).unwrap());
    }
    let gmetad = Gmetad::new(config);
    for result in gmetad.poll_all(&net, 15) {
        result.expect("initial poll");
    }
    (net, served, gmetad)
}

#[test]
fn subscription_deltas_reconstruct_the_full_result_across_churn() {
    let (net, served, gmetad) = deployment();
    let tier = gmetad.query_tier(ServeOptions::default());
    let guard = PooledServer::bind(&Addr::new("127.0.0.1:0"), tier).expect("bind");
    let mut client =
        KeepAliveClient::connect(&guard.addr(), "watcher", Duration::from_secs(5)).expect("dial");

    let expr = "metric == load_one";
    let one_shot = format!("/?filter=gql:{expr}");
    let initial = client.subscribe(expr).expect("subscribe");
    let mut mirror = Mirror::new();
    mirror.apply(&Delta::parse(&initial).expect("initial frame parses"));
    assert_eq!(mirror.len(), 16, "8 hosts x 2 clusters");
    assert_eq!(
        mirror.render(),
        gmetad.query(&one_shot),
        "snapshot matches a fresh one-shot evaluation"
    );

    // Every churn round rerolls readings; the pushed delta must bring
    // the mirror to exactly the one-shot result at the new revision.
    for round in 2u64..=6 {
        let now = round * 15;
        for cluster in &served {
            cluster.advance(now);
        }
        for result in gmetad.poll_all(&net, now) {
            result.expect("poll round");
        }
        let frame = client.next_frame().expect("pushed delta");
        let delta = Delta::parse(&frame).expect("delta frame parses");
        assert!(!delta.full, "rounds push diffs, not snapshots");
        mirror.apply(&delta);
        assert_eq!(
            mirror.render(),
            gmetad.query(&one_shot),
            "round {round}: replayed mirror diverged from a fresh evaluation"
        );
    }
}

#[test]
fn refused_subscriptions_answer_with_error_docs_and_keep_the_session() {
    let (_net, _served, gmetad) = deployment();
    let tier = gmetad.query_tier(ServeOptions::default());
    let guard = PooledServer::bind(&Addr::new("127.0.0.1:0"), tier).expect("bind");
    let mut client =
        KeepAliveClient::connect(&guard.addr(), "fumbler", Duration::from_secs(5)).expect("dial");

    // A malformed expression is refused with a complete, well-formed
    // <ERROR> document carrying a byte-offset diagnostic...
    let refusal = client.subscribe("metric =").expect("refusal is a frame");
    assert!(refusal.starts_with("<?xml version=\"1.0\"?>"), "{refusal}");
    assert!(refusal.contains("<ERROR SOURCE=\"gmetad\""), "{refusal}");
    assert!(refusal.contains("OFFSET=\"7\""), "{refusal}");

    // ...and the session stays in request mode: one-shot path and GQL
    // queries keep working on the same connection.
    let doc = client.query("/c0").expect("path query after refusal");
    assert!(doc.contains("c0"), "{doc}");
    let rows = client
        .query("/?filter=gql:summary | metric == #hosts_up")
        .expect("gql one-shot after refusal");
    assert!(rows.contains("<GQL"), "{rows}");
}

#[test]
fn legacy_one_shot_clients_get_well_formed_error_documents() {
    let (_net, _served, gmetad) = deployment();
    let tier = gmetad.query_tier(ServeOptions::default());
    let guard = PooledServer::bind(&Addr::new("127.0.0.1:0"), tier).expect("bind");

    // A plain request/response client (no #keepalive hello) sending a
    // malformed filter still receives a parseable XML document, with
    // the error located by byte offset into its request.
    let raw = TcpTransport::new()
        .fetch(
            &guard.addr(),
            "/?filter=gql:metric ~ (",
            Duration::from_secs(2),
        )
        .expect("one-shot fetch");
    assert!(raw.starts_with("<?xml version=\"1.0\"?>"), "{raw}");
    assert!(raw.contains("<ERROR SOURCE=\"gmetad\""), "{raw}");
    assert!(raw.contains("OFFSET="), "{raw}");
}

#[test]
fn alarm_feed_rides_subscriptions_over_the_wire() {
    let (net, served, gmetad) = deployment();
    let tier = gmetad.query_tier(ServeOptions::default());
    let guard = PooledServer::bind(&Addr::new("127.0.0.1:0"), tier).expect("bind");

    // Compile one alarm rule to its continuous query and subscribe it.
    let mut feed = AlarmFeed::new(vec![Rule::summary(
        "hosts-present",
        Matcher::Any,
        Signal::Metric("load_one".into()),
        Comparison::Above(-1.0), // any observation violates: fires at once
    )]);
    let exprs: Vec<(String, String)> = feed
        .expressions()
        .into_iter()
        .map(|(name, source)| (name.to_string(), source.to_string()))
        .collect();
    assert_eq!(exprs.len(), 1);
    let mut client =
        KeepAliveClient::connect(&guard.addr(), "alarmd", Duration::from_secs(5)).expect("dial");
    let initial = client.subscribe(&exprs[0].1).expect("subscribe rule");
    let mut mirror = Mirror::new();
    mirror.apply(&Delta::parse(&initial).expect("snapshot"));

    // Drive the engine from the mirrored rows: the rule fires for every
    // summary the subscription carries — both clusters plus the root
    // grid's own roll-up.
    let sink = MemorySink::new();
    let rows = mirror.rows();
    let events = feed.apply_rows(&[(exprs[0].0.as_str(), &rows)], 15, &sink);
    assert_eq!(events.len(), 3, "c0, c1 and the root grid: {events:?}");
    assert!(events.iter().all(|e| e.kind == AlarmKind::Raised));

    // Later rounds keep the alarm held without new events — same
    // hysteresis as `AlarmFeed::evaluate_doc`.
    for cluster in &served {
        cluster.advance(30);
    }
    for result in gmetad.poll_all(&net, 30) {
        result.expect("poll round");
    }
    let frame = client.next_frame().expect("delta");
    mirror.apply(&Delta::parse(&frame).expect("delta parses"));
    let rows = mirror.rows();
    let events = feed.apply_rows(&[(exprs[0].0.as_str(), &rows)], 30, &sink);
    assert!(
        events.is_empty(),
        "still violated, no transition: {events:?}"
    );
    assert_eq!(feed.engine().firing().len(), 3);
}
