//! One gmond agent: collect, broadcast, listen, expire, report.
//!
//! Every agent keeps **redundant global knowledge of the cluster**, "so
//! that any node can supply a complete report containing the state of
//! itself and all its neighbors" (paper §1). Metrics are rebroadcast when
//! they change by more than their value threshold or when their time
//! threshold (`TMAX`) expires; silent hosts age out by soft state.

use std::collections::HashMap;
use std::sync::Arc;

use ganglia_metrics::model::{ClusterNode, GangliaDoc, HostNode, MetricEntry};
use ganglia_metrics::{MetricValue, Slope};
use ganglia_telemetry::{Counter, Registry};

use crate::channel::MetricChannel;
use crate::config::GmondConfig;
use crate::packet::MetricPacket;
use crate::source::MetricSource;

/// Broadcast bookkeeping for one of the agent's own metrics.
#[derive(Debug, Clone, Default)]
struct SendState {
    last_collect: Option<u64>,
    last_sent: Option<u64>,
    last_sent_value: Option<MetricValue>,
}

/// What an agent knows about one metric of one host.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricState {
    pub value: MetricValue,
    pub units: String,
    pub slope: Slope,
    pub tmax: u32,
    pub dmax: u32,
    /// When the last packet for this metric arrived.
    pub last_update: u64,
}

/// What an agent knows about one host (possibly itself).
#[derive(Debug, Clone)]
pub struct HostView {
    pub ip: String,
    pub gmond_started: u64,
    /// When the last packet from this host arrived.
    pub last_heard: u64,
    pub metrics: HashMap<String, MetricState>,
}

/// A gmond daemon on one cluster node.
pub struct GmondAgent {
    node_name: String,
    ip: String,
    config: Arc<GmondConfig>,
    started: u64,
    source: Box<dyn MetricSource>,
    channel: Box<dyn MetricChannel>,
    send_state: HashMap<&'static str, SendState>,
    cluster: HashMap<String, HostView>,
    /// Packets sent over the agent's lifetime (traffic accounting).
    packets_sent: u64,
    registry: Arc<Registry>,
    packets_tx: Counter,
    packets_rx: Counter,
    decode_errors: Counter,
    /// Output-size predictor for the TCP report (per-agent, not global:
    /// cluster sizes differ wildly between agents in one process).
    render_hint: ganglia_metrics::RenderHint,
}

impl GmondAgent {
    /// Start an agent at time `now` on a metric channel (a multicast
    /// subscription or a UDP mesh endpoint).
    pub fn new(
        node_name: impl Into<String>,
        ip: impl Into<String>,
        config: Arc<GmondConfig>,
        source: Box<dyn MetricSource>,
        channel: impl MetricChannel + 'static,
        now: u64,
    ) -> Self {
        let registry = Arc::new(Registry::new());
        let packets_tx = registry.counter("packets_tx_total");
        let packets_rx = registry.counter("packets_rx_total");
        let decode_errors = registry.counter("decode_errors_total");
        GmondAgent {
            node_name: node_name.into(),
            ip: ip.into(),
            config,
            started: now,
            source,
            channel: Box::new(channel),
            send_state: HashMap::new(),
            cluster: HashMap::new(),
            packets_sent: 0,
            registry,
            packets_tx,
            packets_rx,
            decode_errors,
            render_hint: ganglia_metrics::RenderHint::new(),
        }
    }

    /// This agent's node name.
    pub fn node_name(&self) -> &str {
        &self.node_name
    }

    /// Packets this agent has multicast.
    pub fn packets_sent(&self) -> u64 {
        self.packets_sent
    }

    /// The agent's telemetry registry (packet and decode counters).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Number of hosts currently in this agent's cluster state.
    pub fn known_hosts(&self) -> usize {
        self.cluster.len()
    }

    /// One scheduling pass at time `now`: collect due metrics and
    /// broadcast the ones whose value or time thresholds fire.
    pub fn tick(&mut self, now: u64) {
        let config = Arc::clone(&self.config);
        for def in config.registry.iter() {
            let state = self.send_state.entry(def.name).or_default();
            let due = match state.last_collect {
                None => true,
                Some(last) => now.saturating_sub(last) >= u64::from(def.collect_every),
            };
            if !due {
                continue;
            }
            state.last_collect = Some(now);
            let value = self.source.collect(def);
            let time_expired = match state.last_sent {
                None => true,
                Some(last) => now.saturating_sub(last) >= u64::from(def.tmax),
            };
            let value_changed = !def.slope.is_constant()
                && def.value_threshold > 0.0
                && state
                    .last_sent_value
                    .as_ref()
                    .and_then(|prev| prev.relative_change(&value))
                    .is_some_and(|change| change > def.value_threshold);
            if !(time_expired || value_changed) {
                continue;
            }
            let state = self.send_state.get_mut(def.name).expect("just inserted");
            state.last_sent = Some(now);
            state.last_sent_value = Some(value.clone());
            let packet = MetricPacket {
                host: self.node_name.clone(),
                ip: self.ip.clone(),
                gmond_started: self.started,
                name: def.name.to_string(),
                value,
                units: def.units.to_string(),
                slope: def.slope,
                tmax: def.tmax,
                dmax: def.dmax,
            };
            // Multicast to neighbors, and apply locally: the sender's own
            // state must include itself (a report covers "itself and all
            // its neighbors").
            self.channel.publish(packet.encode().into());
            self.packets_sent += 1;
            self.packets_tx.inc();
            self.apply_packet(&packet, now);
        }
    }

    /// Announce a user-defined key/value metric, `gmetric`-style: the
    /// value is multicast to the cluster exactly like a built-in metric
    /// ("user-defined key-value pairs", paper §1). `dmax` gives the
    /// soft-state lifetime after which a silent user metric disappears.
    pub fn announce_user_metric(
        &mut self,
        now: u64,
        name: impl Into<String>,
        value: MetricValue,
        units: impl Into<String>,
        tmax: u32,
        dmax: u32,
    ) {
        let packet = MetricPacket {
            host: self.node_name.clone(),
            ip: self.ip.clone(),
            gmond_started: self.started,
            name: name.into(),
            value,
            units: units.into(),
            slope: Slope::Both,
            tmax,
            dmax,
        };
        self.channel.publish(packet.encode().into());
        self.packets_sent += 1;
        self.packets_tx.inc();
        self.apply_packet(&packet, now);
    }

    /// Drain the multicast inbox, merging neighbor packets.
    /// Undecodable packets are dropped, as a UDP listener would, but the
    /// drop is counted so the loss is visible in self-telemetry.
    pub fn receive(&mut self, now: u64) {
        while let Some(raw) = self.channel.poll() {
            self.packets_rx.inc();
            match MetricPacket::decode(&raw) {
                Ok(packet) => self.apply_packet(&packet, now),
                Err(_) => self.decode_errors.inc(),
            }
        }
    }

    fn apply_packet(&mut self, packet: &MetricPacket, now: u64) {
        let host = self
            .cluster
            .entry(packet.host.clone())
            .or_insert_with(|| HostView {
                ip: packet.ip.clone(),
                gmond_started: packet.gmond_started,
                last_heard: now,
                metrics: HashMap::new(),
            });
        host.last_heard = now;
        // A restarted gmond announces a new start time; adopt it.
        host.gmond_started = packet.gmond_started;
        host.metrics.insert(
            packet.name.clone(),
            MetricState {
                value: packet.value.clone(),
                units: packet.units.clone(),
                slope: packet.slope,
                tmax: packet.tmax,
                dmax: packet.dmax,
                last_update: now,
            },
        );
    }

    /// Soft-state expiry: purge hosts silent past the cluster's host
    /// lifetime and metrics past their own `DMAX`.
    pub fn expire(&mut self, now: u64) {
        let host_dmax = u64::from(self.config.host_dmax);
        // The agent's own entry never expires: a live gmond always counts
        // itself (it would re-announce on its next heartbeat anyway).
        let own = &self.node_name;
        self.cluster
            .retain(|name, host| name == own || now.saturating_sub(host.last_heard) <= host_dmax);
        for host in self.cluster.values_mut() {
            host.metrics.retain(|_, m| {
                m.dmax == 0 || now.saturating_sub(m.last_update) <= u64::from(m.dmax)
            });
        }
    }

    /// The complete cluster report from this agent's state.
    pub fn report(&self, now: u64) -> GangliaDoc {
        let mut hosts: Vec<HostNode> = self
            .cluster
            .iter()
            .map(|(name, view)| {
                let mut metrics: Vec<MetricEntry> = view
                    .metrics
                    .iter()
                    .map(|(metric_name, m)| MetricEntry {
                        name: metric_name.into(),
                        value: m.value.clone(),
                        units: m.units.as_str().into(),
                        tn: now.saturating_sub(m.last_update) as u32,
                        tmax: m.tmax,
                        dmax: m.dmax,
                        slope: m.slope,
                        source: "gmond".into(),
                    })
                    .collect();
                if self.config.self_telemetry && name == &self.node_name {
                    metrics.extend(self.self_metrics());
                }
                metrics.sort_by(|a, b| a.name.cmp(&b.name));
                HostNode {
                    name: name.into(),
                    ip: view.ip.clone(),
                    reported: Some(view.last_heard),
                    tn: now.saturating_sub(view.last_heard) as u32,
                    tmax: self.config.heartbeat_interval,
                    dmax: self.config.host_dmax,
                    location: String::new(),
                    gmond_started: view.gmond_started,
                    metrics,
                }
            })
            .collect();
        hosts.sort_by(|a, b| a.name.cmp(&b.name));
        let mut cluster = ClusterNode::with_hosts(self.config.cluster_name.clone(), hosts);
        cluster.owner = self.config.owner.clone();
        cluster.latlong = self.config.latlong.clone();
        cluster.url = self.config.url.clone();
        cluster.localtime = Some(now);
        GangliaDoc::gmond(cluster)
    }

    /// The cluster report serialized to Ganglia XML (what the TCP port
    /// serves).
    pub fn xml_report(&mut self, now: u64) -> String {
        ganglia_metrics::codec::write_document_hinted(&self.report(now), &mut self.render_hint)
    }

    /// The agent's own telemetry as `self.*` metric entries ("monitor
    /// the monitor"): appended to its own host in [`report`] when
    /// `self_telemetry` is on, so the counters ride the normal
    /// monitoring channel up to gmetad and into the archives.
    fn self_metrics(&self) -> Vec<MetricEntry> {
        let metric = |metric_name: &str, value: u64, units: &str| {
            let mut entry = MetricEntry::new(metric_name, MetricValue::Double(value as f64));
            entry.units = units.into();
            entry.source = "gmond".into();
            entry.tmax = self.config.heartbeat_interval;
            entry
        };
        vec![
            metric("self.packets_tx_total", self.packets_tx.get(), "packets"),
            metric("self.packets_rx_total", self.packets_rx.get(), "packets"),
            metric(
                "self.decode_errors_total",
                self.decode_errors.get(),
                "packets",
            ),
            metric("self.known_hosts", self.cluster.len() as u64, "hosts"),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SimulatedHost;
    use ganglia_net::McastBus;

    fn agent_pair() -> (GmondAgent, GmondAgent) {
        let bus = McastBus::new(1);
        let config = Arc::new(GmondConfig::new("alpha"));
        let a = GmondAgent::new(
            "node-0",
            "10.0.0.10",
            Arc::clone(&config),
            Box::new(SimulatedHost::new(10)),
            bus.subscribe(),
            0,
        );
        let b = GmondAgent::new(
            "node-1",
            "10.0.0.11",
            config,
            Box::new(SimulatedHost::new(11)),
            bus.subscribe(),
            0,
        );
        (a, b)
    }

    #[test]
    fn first_tick_broadcasts_everything() {
        let (mut a, mut b) = agent_pair();
        a.tick(0);
        assert_eq!(a.packets_sent(), 34);
        b.receive(0);
        assert_eq!(b.known_hosts(), 1);
        let doc = b.report(0);
        assert_eq!(doc.host_count(), 1);
    }

    #[test]
    fn agents_learn_each_other_without_polling() {
        let (mut a, mut b) = agent_pair();
        a.tick(0);
        b.tick(0);
        a.receive(0);
        b.receive(0);
        assert_eq!(a.known_hosts(), 2);
        assert_eq!(b.known_hosts(), 2);
        // Reports are complete from either node (redundant global state).
        assert_eq!(a.report(0).host_count(), 2);
        assert_eq!(b.report(0).host_count(), 2);
    }

    #[test]
    fn constant_metrics_are_not_rebroadcast_early() {
        let (mut a, _b) = agent_pair();
        a.tick(0);
        let initial = a.packets_sent();
        // 20 s later only short-interval metrics fire; cpu_num (tmax
        // 1200) must not.
        a.tick(20);
        let second = a.packets_sent() - initial;
        assert!(second < 34, "resent everything: {second}");
        assert!(second >= 1, "heartbeat must fire");
    }

    #[test]
    fn soft_state_expires_silent_hosts() {
        let (mut a, mut b) = agent_pair();
        a.tick(0);
        b.tick(0);
        a.receive(0);
        // node-1 goes silent; its entry survives until host_dmax.
        a.expire(3600);
        assert_eq!(a.known_hosts(), 2);
        a.expire(3601);
        assert_eq!(a.known_hosts(), 1);
        let doc = a.report(3601);
        let ganglia_metrics::GridItem::Cluster(c) = &doc.items[0] else {
            panic!()
        };
        assert!(c.host("node-1").is_none());
    }

    #[test]
    fn report_tn_reflects_staleness() {
        let (mut a, mut b) = agent_pair();
        b.tick(0);
        a.receive(0);
        let doc = a.report(100);
        let ganglia_metrics::GridItem::Cluster(c) = &doc.items[0] else {
            panic!()
        };
        let host = c.host("node-1").unwrap();
        assert_eq!(host.tn, 100);
        assert!(!host.is_up(), "tn=100 > 4*tmax=80 means down");
    }

    #[test]
    fn xml_report_parses_and_matches_dtd() {
        let (mut a, mut b) = agent_pair();
        a.tick(5);
        b.tick(5);
        a.receive(5);
        let xml = a.xml_report(5);
        let doc = ganglia_metrics::parse_document(&xml).unwrap();
        assert_eq!(doc.source, "gmond");
        assert_eq!(doc.host_count(), 2);
        let ganglia_metrics::GridItem::Cluster(c) = &doc.items[0] else {
            panic!()
        };
        assert_eq!(c.name, "alpha");
        let host = c.host("node-0").unwrap();
        assert_eq!(host.metrics.len(), 34);
        assert!(host.metric("load_one").is_some());
        assert!(host.metric("os_name").is_some());
    }

    #[test]
    fn value_threshold_triggers_rebroadcast() {
        // A source that jumps wildly forces value-threshold sends for
        // load_one (threshold 5%).
        struct Jumpy(f64);
        impl MetricSource for Jumpy {
            fn collect(&mut self, def: &ganglia_metrics::MetricDefinition) -> MetricValue {
                self.0 += 1.0;
                MetricValue::from_f64(def.ty, self.0)
            }
        }
        let bus = McastBus::new(1);
        let config = Arc::new(GmondConfig::new("alpha"));
        let mut agent = GmondAgent::new(
            "n",
            "1.1.1.1",
            config,
            Box::new(Jumpy(0.0)),
            bus.subscribe(),
            0,
        );
        agent.tick(0);
        let initial = agent.packets_sent();
        // 20 s later: load_one collects (interval 20), value doubled, so
        // it must be resent even though tmax (70) has not expired.
        agent.tick(20);
        let resent = agent.packets_sent() - initial;
        assert!(resent > 1, "expected value-threshold rebroadcasts");
    }

    #[test]
    fn self_telemetry_publishes_packet_counters() {
        let bus = McastBus::new(1);
        let mut config = GmondConfig::new("alpha");
        config.self_telemetry = true;
        let mut a = GmondAgent::new(
            "node-0",
            "10.0.0.10",
            Arc::new(config),
            Box::new(SimulatedHost::new(10)),
            bus.subscribe(),
            0,
        );
        a.tick(0);
        let xml = a.xml_report(0);
        let doc = ganglia_metrics::parse_document(&xml).unwrap();
        let ganglia_metrics::GridItem::Cluster(c) = &doc.items[0] else {
            panic!()
        };
        let host = c.host("node-0").unwrap();
        // 34 builtin metrics + 4 self.* entries, only on the own host.
        assert_eq!(host.metrics.len(), 38);
        let tx = host.metric("self.packets_tx_total").unwrap();
        assert_eq!(tx.value.as_f64(), Some(34.0));
        assert!(host.metric("self.known_hosts").is_some());
        // The counters never ride the multicast channel: a neighbor's
        // view of node-0 stays telemetry-free.
        let bus2 = McastBus::new(1);
        let plain = Arc::new(GmondConfig::new("alpha"));
        let mut b = GmondAgent::new(
            "node-1",
            "10.0.0.11",
            plain,
            Box::new(SimulatedHost::new(11)),
            bus2.subscribe(),
            0,
        );
        b.receive(0);
        assert_eq!(b.known_hosts(), 0);
        assert_eq!(b.registry().counter("packets_rx_total").get(), 0);
    }

    #[test]
    fn decode_errors_are_counted_not_fatal() {
        let bus = McastBus::new(1);
        let config = Arc::new(GmondConfig::new("alpha"));
        let mut a = GmondAgent::new(
            "node-0",
            "10.0.0.10",
            Arc::clone(&config),
            Box::new(SimulatedHost::new(10)),
            bus.subscribe(),
            0,
        );
        let mut b = GmondAgent::new(
            "node-1",
            "10.0.0.11",
            config,
            Box::new(SimulatedHost::new(11)),
            bus.subscribe(),
            0,
        );
        let injector = bus.subscribe();
        a.tick(0);
        // Garbage alongside the real packets: dropped, counted, not fatal.
        injector.publish(std::sync::Arc::from(&b"\xff\xff\xffnot-xdr"[..]));
        b.receive(0);
        assert_eq!(b.known_hosts(), 1);
        let reg = b.registry();
        assert_eq!(reg.counter("decode_errors_total").get(), 1);
        assert_eq!(reg.counter("packets_rx_total").get(), 35);
        assert_eq!(reg.counter("packets_tx_total").get(), 0);
    }

    #[test]
    fn metric_dmax_expires_user_metrics() {
        use ganglia_metrics::definition::{MetricDefinition, Synth};
        use ganglia_metrics::{MetricType, Slope};
        let bus = McastBus::new(1);
        let mut config = GmondConfig::new("alpha");
        config.registry.register(MetricDefinition {
            name: "job_temp",
            ty: MetricType::Float,
            units: "C",
            slope: Slope::Both,
            collect_every: 10,
            value_threshold: 0.0,
            tmax: 20,
            dmax: 60,
            synth: Synth::Uniform { min: 0.0, max: 1.0 },
        });
        let config = Arc::new(config);
        let mut a = GmondAgent::new(
            "n0",
            "1.1.1.1",
            Arc::clone(&config),
            Box::new(SimulatedHost::new(1)),
            bus.subscribe(),
            0,
        );
        let mut b = GmondAgent::new(
            "n1",
            "1.1.1.2",
            config,
            Box::new(SimulatedHost::new(2)),
            bus.subscribe(),
            0,
        );
        a.tick(0);
        b.receive(0);
        let has_metric = |agent: &GmondAgent, now: u64| {
            let doc = agent.report(now);
            let ganglia_metrics::GridItem::Cluster(c) = &doc.items[0] else {
                panic!()
            };
            c.host("n0").unwrap().metric("job_temp").is_some()
        };
        assert!(has_metric(&b, 0));
        // n0 keeps heartbeating but stops sending job_temp (we simulate by
        // simply expiring b's state at a time past dmax).
        b.expire(61);
        assert!(!has_metric(&b, 61));
    }
}
