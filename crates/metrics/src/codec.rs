//! Streaming conversion of the typed model to Ganglia XML, and the
//! [`ParseError`] the reading direction reports.
//!
//! `write_document` streams a model out through the XML writer;
//! [`crate::stream::parse_document`] reads it back without a DOM.
//! Together they implement the wire format of figure 3 in the paper,
//! including nested grids in summary form.

use std::fmt;

use ganglia_xml::names::{self, attr};
use ganglia_xml::{XmlError, XmlWriter};

use crate::model::{
    ClusterBody, ClusterNode, GangliaDoc, GridBody, GridItem, GridNode, HostNode, MetricEntry,
    SummaryBody,
};

/// Error produced while mapping XML onto the model.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// The underlying XML was malformed.
    Xml(XmlError),
    /// An element was missing a required attribute.
    MissingAttr {
        element: &'static str,
        attr: &'static str,
    },
    /// An attribute failed to parse (wrong number format, unknown type...).
    BadAttr {
        element: &'static str,
        attr: String,
        value: String,
    },
    /// A tag appeared somewhere the DTD does not allow it.
    UnexpectedTag { parent: String, tag: String },
    /// The document root was not `GANGLIA_XML`.
    BadRoot(String),
    /// A cluster mixed full host detail with summary tags.
    MixedClusterBody(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Xml(e) => write!(f, "{e}"),
            ParseError::MissingAttr { element, attr } => {
                write!(f, "<{element}> is missing required attribute {attr}")
            }
            ParseError::BadAttr {
                element,
                attr,
                value,
            } => write!(f, "<{element}> attribute {attr}={value:?} failed to parse"),
            ParseError::UnexpectedTag { parent, tag } => {
                write!(f, "unexpected <{tag}> inside <{parent}>")
            }
            ParseError::BadRoot(root) => write!(f, "expected GANGLIA_XML root, found <{root}>"),
            ParseError::MixedClusterBody(name) => {
                write!(f, "cluster {name:?} mixes HOST detail with summary tags")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl From<XmlError> for ParseError {
    fn from(e: XmlError) -> Self {
        ParseError::Xml(e)
    }
}

// ---------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------

/// Per-call-site output-size predictor for repeated renders.
///
/// Successive renders of the same monitoring tree are nearly the same
/// size, so sizing the output from the previous round avoids the
/// grow-and-copy cascade a fixed capacity forces on every full dump.
/// The hint is a high watermark with decay: it jumps to a larger render
/// immediately, but after a one-off spike (a temporarily huge roster, a
/// burst of string metrics) it drifts back down by 1/8 of the gap each
/// render, so one outlier cannot pin an oversized allocation forever.
///
/// Unlike a process-global hint, each call site owns its own — the
/// gmond TCP report and a gmetad grid dump have wildly different sizes
/// and must not fight over one predictor.
#[derive(Debug, Clone, Copy)]
pub struct RenderHint {
    watermark: usize,
}

impl Default for RenderHint {
    fn default() -> RenderHint {
        RenderHint { watermark: 4096 }
    }
}

impl RenderHint {
    pub fn new() -> RenderHint {
        RenderHint::default()
    }

    /// Capacity to pre-reserve for the next render.
    pub fn capacity(&self) -> usize {
        self.watermark + self.watermark / 8 + 64
    }

    /// Record a completed render of `len` bytes: jump up immediately,
    /// decay down geometrically.
    pub fn observe(&mut self, len: usize) {
        if len >= self.watermark {
            self.watermark = len;
        } else {
            self.watermark -= (self.watermark - len) / 8;
        }
    }
}

/// Serialize a document to Ganglia XML (with the standard declaration).
///
/// One-shot form: starts from a fixed capacity. Call sites that render
/// repeatedly should hold a [`RenderHint`] and use
/// [`write_document_hinted`], or reuse a buffer with
/// [`render_document_into`].
pub fn write_document(doc: &GangliaDoc) -> String {
    let mut out = String::with_capacity(4096);
    render_document_into(doc, &mut out);
    out
}

/// Serialize with a caller-owned size predictor: the output is
/// pre-sized to the hint's capacity and the hint learns the result.
pub fn write_document_hinted(doc: &GangliaDoc, hint: &mut RenderHint) -> String {
    let mut out = String::with_capacity(hint.capacity());
    render_document_into(doc, &mut out);
    hint.observe(out.len());
    out
}

/// Serialize into a reusable buffer (cleared first, declaration
/// included). The buffer keeps its allocation across renders, which is
/// the strongest form of per-call-site sizing: no predictor needed.
pub fn render_document_into(doc: &GangliaDoc, out: &mut String) {
    out.clear();
    let mut writer = XmlWriter::new(out);
    writer.declaration();
    write_doc_into(doc, &mut writer);
    writer.finish().expect("writing to String cannot fail");
}

/// Serialize a document into an existing writer (no declaration).
pub fn write_doc_into<W: fmt::Write>(doc: &GangliaDoc, writer: &mut XmlWriter<W>) {
    writer.start_element(
        names::GANGLIA_XML,
        &[(attr::VERSION, &doc.version), (attr::SOURCE, &doc.source)],
    );
    for item in &doc.items {
        write_item(item, writer);
    }
    writer.end_element();
}

/// Serialize one grid item (cluster or nested grid).
pub fn write_item<W: fmt::Write>(item: &GridItem, writer: &mut XmlWriter<W>) {
    match item {
        GridItem::Cluster(c) => write_cluster(c, writer),
        GridItem::Grid(g) => write_grid(g, writer),
    }
}

/// Open a `GRID` start tag with full attributes; the caller writes the
/// body and must call `end_element`.
pub fn open_grid<W: fmt::Write>(grid: &GridNode, writer: &mut XmlWriter<W>) {
    // LOCALTIME is #IMPLIED: an absent timestamp stays absent on the
    // wire so downstream freshness accounting sees the truth.
    let localtime = grid.localtime.map(|t| t.to_string());
    let mut attrs: Vec<(&str, &str)> =
        vec![(attr::NAME, &grid.name), (attr::AUTHORITY, &grid.authority)];
    if let Some(localtime) = &localtime {
        attrs.push((attr::LOCALTIME, localtime));
    }
    writer.start_element(names::GRID, &attrs);
}

/// Serialize a grid element.
pub fn write_grid<W: fmt::Write>(grid: &GridNode, writer: &mut XmlWriter<W>) {
    open_grid(grid, writer);
    match &grid.body {
        GridBody::Items(items) => {
            for item in items {
                write_item(item, writer);
            }
        }
        GridBody::Summary(summary) => write_summary(summary, writer),
    }
    writer.end_element();
}

/// Open a `CLUSTER` start tag with full attributes; the caller writes
/// the body and must call `end_element`.
pub fn open_cluster<W: fmt::Write>(cluster: &ClusterNode, writer: &mut XmlWriter<W>) {
    let localtime = cluster.localtime.map(|t| t.to_string());
    let mut attrs: Vec<(&str, &str)> = Vec::with_capacity(5);
    attrs.push((attr::NAME, &cluster.name));
    if let Some(localtime) = &localtime {
        attrs.push((attr::LOCALTIME, localtime));
    }
    attrs.push((attr::OWNER, &cluster.owner));
    attrs.push((attr::LATLONG, &cluster.latlong));
    attrs.push((attr::URL, &cluster.url));
    writer.start_element(names::CLUSTER, &attrs);
}

/// Serialize a cluster element.
pub fn write_cluster<W: fmt::Write>(cluster: &ClusterNode, writer: &mut XmlWriter<W>) {
    open_cluster(cluster, writer);
    match &cluster.body {
        ClusterBody::Hosts(hosts) => {
            for host in hosts {
                write_host(host, writer);
            }
        }
        ClusterBody::Summary(summary) => write_summary(summary, writer),
    }
    writer.end_element();
}

/// Open a `HOST` start tag with full attributes; the caller writes the
/// body and must call `end_element`.
pub fn open_host<W: fmt::Write>(host: &HostNode, writer: &mut XmlWriter<W>) {
    let reported = host.reported.map(|t| t.to_string());
    let tn = host.tn.to_string();
    let tmax = host.tmax.to_string();
    let dmax = host.dmax.to_string();
    let started = host.gmond_started.to_string();
    let mut attrs: Vec<(&str, &str)> = Vec::with_capacity(8);
    attrs.push((attr::NAME, &host.name));
    attrs.push((attr::IP, &host.ip));
    if let Some(reported) = &reported {
        attrs.push((attr::REPORTED, reported));
    }
    attrs.push((attr::TN, &tn));
    attrs.push((attr::TMAX, &tmax));
    attrs.push((attr::DMAX, &dmax));
    attrs.push((attr::LOCATION, &host.location));
    attrs.push((attr::STARTED, &started));
    writer.start_element(names::HOST, &attrs);
}

/// Serialize a host element with its metrics.
pub fn write_host<W: fmt::Write>(host: &HostNode, writer: &mut XmlWriter<W>) {
    open_host(host, writer);
    for metric in &host.metrics {
        write_metric(metric, writer);
    }
    writer.end_element();
}

/// Serialize one metric element.
pub fn write_metric<W: fmt::Write>(metric: &MetricEntry, writer: &mut XmlWriter<W>) {
    let val = metric.value.to_string();
    let ty = metric.value.metric_type().name();
    let tn = metric.tn.to_string();
    let tmax = metric.tmax.to_string();
    let dmax = metric.dmax.to_string();
    writer.empty_element(
        names::METRIC,
        &[
            (attr::NAME, &metric.name),
            (attr::VAL, &val),
            (attr::TYPE, ty),
            (attr::UNITS, &metric.units),
            (attr::TN, &tn),
            (attr::TMAX, &tmax),
            (attr::DMAX, &dmax),
            (attr::SLOPE, metric.slope.name()),
            (attr::SOURCE, &metric.source),
        ],
    );
}

/// Serialize a summary body (`HOSTS` + `METRICS` entries).
pub fn write_summary<W: fmt::Write>(summary: &SummaryBody, writer: &mut XmlWriter<W>) {
    let up = summary.hosts_up.to_string();
    let down = summary.hosts_down.to_string();
    writer.empty_element(names::HOSTS, &[(attr::UP, &up), (attr::DOWN, &down)]);
    for metric in &summary.metrics {
        let sum = format_sum(metric.sum);
        let num = metric.num.to_string();
        writer.empty_element(
            names::METRICS,
            &[
                (attr::NAME, &metric.name),
                (attr::SUM, &sum),
                (attr::NUM, &num),
                (attr::TYPE, metric.ty.name()),
                (attr::UNITS, &metric.units),
                (attr::SLOPE, metric.slope.name()),
                (attr::SOURCE, &metric.source),
            ],
        );
    }
}

/// Format a summary SUM: integer-valued sums print without a fraction so
/// the output matches the paper's `SUM="20"` style.
fn format_sum(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::parse_document;
    use crate::value::MetricValue;

    /// The paper's figure 3 document, transcribed.
    const FIG3: &str = r#"<GANGLIA_XML VERSION="2.5.4" SOURCE="gmetad">
<GRID NAME="SDSC" AUTHORITY="http://sdsc/ganglia/">
 <CLUSTER NAME="Meteor" LOCALTIME="1058918400">
  <HOST NAME="compute-0-0" IP="10.255.255.254" REPORTED="1058918395" TN="5" TMAX="20" DMAX="0">
   <METRIC NAME="cpu_num" VAL="2" TYPE="int32" UNITS="CPUs" TN="10" TMAX="1200" DMAX="0" SLOPE="zero" SOURCE="gmond"/>
   <METRIC NAME="load_one" VAL="0.89" TYPE="float" UNITS="" TN="10" TMAX="70" DMAX="0" SLOPE="both" SOURCE="gmond"/>
  </HOST>
  <HOST NAME="compute-0-1" IP="10.255.255.253" REPORTED="1058918396" TN="4" TMAX="20" DMAX="0">
   <METRIC NAME="cpu_num" VAL="2" TYPE="int32" UNITS="CPUs" TN="10" TMAX="1200" DMAX="0" SLOPE="zero" SOURCE="gmond"/>
   <METRIC NAME="load_one" VAL="0.89" TYPE="float" UNITS="" TN="10" TMAX="70" DMAX="0" SLOPE="both" SOURCE="gmond"/>
  </HOST>
 </CLUSTER>
 <GRID NAME="ATTIC" AUTHORITY="http://attic/ganglia/">
  <HOSTS UP="10" DOWN="1"/>
  <METRICS NAME="cpu_num" SUM="20" NUM="10" TYPE="int32"/>
  <METRICS NAME="load_one" SUM="17.56" NUM="10" TYPE="float"/>
 </GRID>
</GRID>
</GANGLIA_XML>"#;

    #[test]
    fn fig3_document_parses() {
        let doc = parse_document(FIG3).unwrap();
        assert_eq!(doc.source, "gmetad");
        assert_eq!(doc.items.len(), 1);
        let GridItem::Grid(sdsc) = &doc.items[0] else {
            panic!("expected grid")
        };
        assert_eq!(sdsc.name, "SDSC");
        assert_eq!(sdsc.authority, "http://sdsc/ganglia/");
        let GridBody::Items(items) = &sdsc.body else {
            panic!("expected expanded grid")
        };
        assert_eq!(items.len(), 2);
        // Local cluster at full resolution.
        let GridItem::Cluster(meteor) = &items[0] else {
            panic!()
        };
        assert_eq!(meteor.host_count(), 2);
        let host = meteor.host("compute-0-0").unwrap();
        assert_eq!(host.metric("cpu_num").unwrap().value, MetricValue::Int32(2));
        // Remote grid in summary form.
        let GridItem::Grid(attic) = &items[1] else {
            panic!()
        };
        let GridBody::Summary(summary) = &attic.body else {
            panic!("expected summary grid")
        };
        assert_eq!(summary.hosts_up, 10);
        assert_eq!(summary.hosts_down, 1);
        let load = summary.metric("load_one").unwrap();
        assert!((load.sum - 17.56).abs() < 1e-9);
        assert_eq!(load.num, 10);
        // Mean derivable from SUM and NUM (paper §3.2).
        assert!((load.mean().unwrap() - 1.756).abs() < 1e-9);
    }

    #[test]
    fn fig3_roundtrips() {
        let doc = parse_document(FIG3).unwrap();
        let xml = write_document(&doc);
        let again = parse_document(&xml).unwrap();
        assert_eq!(doc, again);
    }

    #[test]
    fn render_hint_learns_and_decays() {
        let mut hint = RenderHint::new();
        let doc = parse_document(FIG3).unwrap();
        let first = write_document_hinted(&doc, &mut hint);
        // The hint learned the render size: the next render fits its
        // suggested capacity without growing.
        assert!(hint.capacity() >= first.len());
        let second = write_document_hinted(&doc, &mut hint);
        assert_eq!(first, second);
        assert_eq!(first, write_document(&doc));
        // A spike raises the watermark immediately; steady observations
        // of a small size decay it back down.
        hint.observe(1_000_000);
        assert!(hint.capacity() >= 1_000_000);
        for _ in 0..64 {
            hint.observe(first.len());
        }
        assert!(
            hint.capacity() < 4 * first.len().max(4096),
            "watermark should decay toward the steady-state render size"
        );
    }

    #[test]
    fn render_into_reuses_buffer_and_matches() {
        let doc = parse_document(FIG3).unwrap();
        let mut buf = String::new();
        render_document_into(&doc, &mut buf);
        assert_eq!(buf, write_document(&doc));
        let cap = buf.capacity();
        render_document_into(&doc, &mut buf);
        assert_eq!(buf, write_document(&doc));
        assert_eq!(buf.capacity(), cap, "re-render must not reallocate");
    }

    #[test]
    fn gmond_style_doc_roundtrips() {
        let mut host = HostNode::new("n0", "10.0.0.1");
        host.metrics
            .push(MetricEntry::new("load_one", MetricValue::Float(0.25)));
        host.metrics.push(MetricEntry::new(
            "os_name",
            MetricValue::String("Linux".into()),
        ));
        let doc = GangliaDoc::gmond(crate::model::ClusterNode::with_hosts("alpha", vec![host]));
        let xml = write_document(&doc);
        assert!(xml.starts_with("<?xml"));
        let again = parse_document(&xml).unwrap();
        assert_eq!(doc, again);
    }

    #[test]
    fn missing_required_attr_is_an_error() {
        let xml = r#"<GANGLIA_XML><CLUSTER><HOST NAME="x"/></CLUSTER></GANGLIA_XML>"#;
        let err = parse_document(xml).unwrap_err();
        assert_eq!(
            err,
            ParseError::MissingAttr {
                element: "CLUSTER",
                attr: "NAME"
            }
        );
    }

    #[test]
    fn bad_metric_value_is_an_error() {
        let xml = r#"<GANGLIA_XML><CLUSTER NAME="c"><HOST NAME="h">
            <METRIC NAME="cpu_num" VAL="two" TYPE="int32"/>
        </HOST></CLUSTER></GANGLIA_XML>"#;
        assert!(matches!(
            parse_document(xml).unwrap_err(),
            ParseError::BadAttr { .. }
        ));
    }

    #[test]
    fn wrong_root_is_an_error() {
        assert_eq!(
            parse_document("<HTML/>").unwrap_err(),
            ParseError::BadRoot("HTML".into())
        );
    }

    #[test]
    fn unexpected_tag_is_an_error() {
        let xml = r#"<GANGLIA_XML><CLUSTER NAME="c"><GRID NAME="g"/></CLUSTER></GANGLIA_XML>"#;
        assert!(matches!(
            parse_document(xml).unwrap_err(),
            ParseError::UnexpectedTag { .. }
        ));
    }

    #[test]
    fn mixed_cluster_body_is_an_error() {
        let xml = r#"<GANGLIA_XML><CLUSTER NAME="c">
            <HOST NAME="h" IP="1.1.1.1"/>
            <HOSTS UP="3" DOWN="0"/>
        </CLUSTER></GANGLIA_XML>"#;
        assert_eq!(
            parse_document(xml).unwrap_err(),
            ParseError::MixedClusterBody("c".into())
        );
    }

    #[test]
    fn prolog_is_tolerated() {
        let xml = format!(
            "<?xml version=\"1.0\"?><!DOCTYPE GANGLIA_XML [ <!-- dtd --> ]>{}",
            r#"<GANGLIA_XML VERSION="2.5.4" SOURCE="gmond"><CLUSTER NAME="c"/></GANGLIA_XML>"#
        );
        let doc = parse_document(&xml).unwrap();
        assert_eq!(doc.items.len(), 1);
    }

    #[test]
    fn empty_cluster_parses_as_no_hosts() {
        let doc = parse_document(r#"<GANGLIA_XML><CLUSTER NAME="c"/></GANGLIA_XML>"#).unwrap();
        let GridItem::Cluster(c) = &doc.items[0] else {
            panic!()
        };
        assert_eq!(c.host_count(), 0);
    }

    #[test]
    fn cluster_summary_form_parses() {
        let xml = r#"<GANGLIA_XML><CLUSTER NAME="big">
            <HOSTS UP="500" DOWN="2"/>
            <METRICS NAME="load_one" SUM="215.5" NUM="500" TYPE="float"/>
        </CLUSTER></GANGLIA_XML>"#;
        let doc = parse_document(xml).unwrap();
        let GridItem::Cluster(c) = &doc.items[0] else {
            panic!()
        };
        let ClusterBody::Summary(s) = &c.body else {
            panic!("expected summary body")
        };
        assert_eq!(s.hosts_up, 500);
        assert_eq!(c.host_count(), 502);
    }

    #[test]
    fn missing_timestamps_stay_absent_through_a_roundtrip() {
        // REPORTED/LOCALTIME are #IMPLIED in the DTD: absence must not
        // collapse into epoch 0 (which would read as ~56 years of lag).
        let xml = r#"<GANGLIA_XML><CLUSTER NAME="c"><HOST NAME="h" IP="1.1.1.1"/></CLUSTER></GANGLIA_XML>"#;
        let doc = parse_document(xml).unwrap();
        let GridItem::Cluster(c) = &doc.items[0] else {
            panic!()
        };
        assert_eq!(c.localtime, None);
        assert_eq!(c.host("h").unwrap().reported, None);
        let rendered = write_document(&doc);
        assert!(!rendered.contains("LOCALTIME"), "{rendered}");
        assert!(!rendered.contains("REPORTED"), "{rendered}");
        assert_eq!(parse_document(&rendered).unwrap(), doc);
        // Present timestamps still round-trip as values.
        let doc = parse_document(FIG3).unwrap();
        let GridItem::Grid(sdsc) = &doc.items[0] else {
            panic!()
        };
        let GridBody::Items(items) = &sdsc.body else {
            panic!()
        };
        let GridItem::Cluster(meteor) = &items[0] else {
            panic!()
        };
        assert_eq!(meteor.localtime, Some(1058918400));
        assert_eq!(
            meteor.host("compute-0-0").unwrap().reported,
            Some(1058918395)
        );
    }

    #[test]
    fn malformed_timestamp_is_still_a_hard_error() {
        let xml = r#"<GANGLIA_XML><CLUSTER NAME="c" LOCALTIME="yesterday"/></GANGLIA_XML>"#;
        assert!(matches!(
            parse_document(xml).unwrap_err(),
            ParseError::BadAttr { .. }
        ));
    }

    #[test]
    fn summary_sum_formatting_matches_paper_style() {
        assert_eq!(format_sum(20.0), "20");
        assert_eq!(format_sum(17.56), "17.56");
    }
}
