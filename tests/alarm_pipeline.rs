//! Alarms driven by live monitoring data: the alarm feed watches the
//! sdsc gmeta's meta view across poll rounds and pages on real
//! transitions.

use ganglia::alarm::{AlarmFeed, AlarmKind, Comparison, Matcher, MemorySink, Rule, Signal};
use ganglia::metrics::parse_document;
use ganglia::sim::{fig2_tree, Deployment, DeploymentParams};

fn evaluate(deployment: &Deployment, feed: &mut AlarmFeed, sink: &MemorySink) -> usize {
    let xml = deployment.monitor("sdsc").query("/?filter=summary");
    let doc = parse_document(&xml).expect("well-formed");
    feed.evaluate_doc(&doc, deployment.now(), sink).len()
}

#[test]
fn stale_summaries_keep_alarms_quiet_but_host_loss_pages() {
    let mut deployment = Deployment::build(fig2_tree(6), DeploymentParams::default());
    deployment.run_rounds(1);

    let mut feed = AlarmFeed::new(vec![Rule::summary(
        "hosts-down",
        Matcher::Any,
        Signal::HostsDown,
        Comparison::Above(0.0),
    )]);
    let sink = MemorySink::new();

    // Healthy tree: no alarms.
    assert_eq!(evaluate(&deployment, &mut feed, &sink), 0);
    assert!(feed.engine().firing().is_empty());

    // A partition makes the source stale but does NOT invent down hosts:
    // the last-good summary still reports everyone up.
    deployment.partition_cluster("sdsc-c0", true);
    deployment.run_rounds(2);
    assert_eq!(evaluate(&deployment, &mut feed, &sink), 0);

    deployment.partition_cluster("sdsc-c0", false);
    deployment.run_rounds(1);
    assert_eq!(evaluate(&deployment, &mut feed, &sink), 0);
    assert!(sink.events().is_empty());
}

#[test]
fn load_alarm_fires_on_injected_hot_cluster_and_clears() {
    // Rules over the real deployment, with one synthetic hot report
    // spliced into the evaluation stream (pseudo-gmond loads are bounded
    // walks, so a genuine overload cannot be forced deterministically).
    let mut deployment = Deployment::build(fig2_tree(4), DeploymentParams::default());
    deployment.run_rounds(1);
    let mut feed = AlarmFeed::new(vec![Rule::summary(
        "load-high",
        Matcher::Exact("sdsc-c0".into()),
        Signal::Metric("load_one".into()),
        Comparison::Above(8.5), // live walks are bounded by 8.0
    )]);
    let sink = MemorySink::new();
    assert_eq!(evaluate(&deployment, &mut feed, &sink), 0);

    let hot = r#"<GANGLIA_XML VERSION="2.5.4" SOURCE="gmetad">
      <GRID NAME="sdsc" AUTHORITY="http://sdsc/" LOCALTIME="60">
        <CLUSTER NAME="sdsc-c0" LOCALTIME="60">
          <HOSTS UP="4" DOWN="0"/>
          <METRICS NAME="load_one" SUM="60.0" NUM="4" TYPE="float"/>
        </CLUSTER>
      </GRID></GANGLIA_XML>"#;
    let events = feed.evaluate_doc(&parse_document(hot).unwrap(), 60, &sink);
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].kind, AlarmKind::Raised);
    assert_eq!(
        feed.engine().firing(),
        vec![("load-high".into(), "sdsc-c0".into())]
    );

    // Back to live (calm) data: the alarm clears.
    deployment.run_rounds(1);
    assert_eq!(evaluate(&deployment, &mut feed, &sink), 1);
    assert!(feed.engine().firing().is_empty());
    let kinds: Vec<AlarmKind> = sink.events().iter().map(|e| e.kind).collect();
    assert_eq!(kinds, vec![AlarmKind::Raised, AlarmKind::Cleared]);
}
