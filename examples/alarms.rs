//! Alarms (paper §5 future work): watch the monitoring tree and relay
//! situations to a human.
//!
//! A summary-level rule watches every cluster's mean load; a
//! hosts-down rule pages when a cluster loses nodes. The alarm feed
//! compiles each rule to a GQL query and runs it over what the same
//! query port the web frontend uses returns, so it works at any
//! resolution of the tree.
//!
//! ```sh
//! cargo run --example alarms
//! ```

use ganglia::alarm::{AlarmFeed, Comparison, Matcher, MemorySink, Rule, Signal};
use ganglia::metrics::parse_document;
use ganglia::sim::{fig2_tree, Deployment, DeploymentParams};

fn main() {
    let mut deployment = Deployment::build(fig2_tree(8), DeploymentParams::default());
    deployment.run_rounds(1);

    let rules = vec![
        Rule::summary(
            "cluster-load-high",
            Matcher::Any,
            Signal::Metric("load_one".into()),
            Comparison::Above(3.5),
        )
        .hold_for(30),
        Rule::summary(
            "hosts-down",
            Matcher::Any,
            Signal::HostsDown,
            Comparison::Above(0.0),
        ),
    ];
    let mut feed = AlarmFeed::new(rules);
    let sink = MemorySink::new();

    // Evaluate against the sdsc gmeta's meta view every round.
    let evaluate = |deployment: &Deployment, feed: &mut AlarmFeed, sink: &MemorySink| {
        let xml = deployment.monitor("sdsc").query("/?filter=summary");
        let doc = parse_document(&xml).expect("well-formed");
        feed.evaluate_doc(&doc, deployment.now(), sink)
    };

    println!("steady state:");
    let events = evaluate(&deployment, &mut feed, &sink);
    println!("  {} alarm transition(s)", events.len());

    // Partition one cluster; its hosts vanish from the UP count once the
    // source goes stale... but the more direct signal is a kill of a
    // serving node plus the summary's DOWN count. Partition the whole
    // cluster and let the stale summary persist; then kill gmond state:
    println!("\npartitioning sdsc-c0 (its summary goes stale, hosts unchanged)...");
    deployment.partition_cluster("sdsc-c0", true);
    deployment.run_rounds(1);
    let events = evaluate(&deployment, &mut feed, &sink);
    println!("  {} alarm transition(s)", events.len());

    // A cluster with genuinely down hosts: replace the summary by
    // injecting host failures via the pseudo cluster is not supported,
    // so demonstrate the hosts-down rule against a crafted document.
    println!("\ninjecting a report with 2 hosts down...");
    let xml = r#"<GANGLIA_XML VERSION="2.5.4" SOURCE="gmetad">
      <GRID NAME="sdsc" AUTHORITY="http://sdsc/" LOCALTIME="90">
        <CLUSTER NAME="sdsc-c0" LOCALTIME="90">
          <HOSTS UP="6" DOWN="2"/>
          <METRICS NAME="load_one" SUM="4.2" NUM="6" TYPE="float"/>
        </CLUSTER>
      </GRID></GANGLIA_XML>"#;
    let doc = parse_document(xml).expect("well-formed");
    let events = feed.evaluate_doc(&doc, deployment.now() + 15, &MemorySink::new());
    for event in &events {
        println!(
            "  {:?}: rule {} on {} (value {:.1})",
            event.kind, event.rule, event.subject, event.value
        );
    }
    assert!(events
        .iter()
        .any(|e| e.rule == "hosts-down" && e.subject == "sdsc-c0"));

    println!("\ncurrently firing: {:?}", feed.engine().firing());
    println!(
        "total transitions delivered to the sink: {}",
        sink.events().len()
    );
}
