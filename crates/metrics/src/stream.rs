//! The document builder: Ganglia XML to the typed model, with no DOM.
//!
//! An event-driven state machine over [`PullParser::next_event_into`]:
//! attribute spans and expanded entities land in one reusable
//! [`AttrScratch`], and `HostNode` / `SummaryBody` values are built
//! directly from the scratch — no attribute vectors, no intermediate
//! tree. The only allocations a parse performs are the ones the
//! *result* needs (the nodes' own strings and vectors).
//!
//! [`parse_document`] is the one-shot entry point. The delta-aware
//! [`crate::ingest::Ingester`] walks documents itself but builds every
//! host, summary and header through the element parsers here, so both
//! paths accept the same documents, build the same values and report
//! the same [`ParseError`]s. `tests/proptest_stream.rs` holds the two
//! to that on adversarial input.
//!
//! Scratch ownership rule (see also [`AttrScratch`]): spans handed out
//! for one event die at the next `next_event_into` call. Every helper
//! here therefore copies what it keeps (into an interned `Atom` or an
//! owned `String`) before the parser advances.

use std::sync::Arc;

use ganglia_xml::names::{self, attr};
use ganglia_xml::{AttrScratch, PullParser, StreamEvent};

use crate::atom::Atom;
use crate::codec::ParseError;
use crate::model::{
    ClusterBody, ClusterNode, GangliaDoc, GridBody, GridItem, GridNode, HostNode, MetricEntry,
    MetricSummary, SummaryBody,
};
use crate::slope::Slope;
use crate::value::{MetricType, MetricValue};

type Result<T> = std::result::Result<T, ParseError>;

// ---------------------------------------------------------------------
// Attribute helpers over the current start tag's scratch
// ---------------------------------------------------------------------

pub(crate) fn find<'s>(input: &'s str, scratch: &'s AttrScratch, name: &str) -> Option<&'s str> {
    scratch.get(input, name)
}

pub(crate) fn required<'s>(
    input: &'s str,
    scratch: &'s AttrScratch,
    element: &'static str,
    name: &'static str,
) -> Result<&'s str> {
    find(input, scratch, name).ok_or(ParseError::MissingAttr {
        element,
        attr: name,
    })
}

pub(crate) fn optional_string(input: &str, scratch: &AttrScratch, name: &str) -> String {
    find(input, scratch, name).unwrap_or("").to_string()
}

/// Intern an optional attribute straight from the scratch — no
/// intermediate `String` even when the attribute is present.
pub(crate) fn optional_atom(input: &str, scratch: &AttrScratch, name: &str) -> Atom {
    match find(input, scratch, name) {
        Some(value) => Atom::new(value),
        None => Atom::empty(),
    }
}

pub(crate) fn parse_num<T: std::str::FromStr>(
    input: &str,
    scratch: &AttrScratch,
    element: &'static str,
    name: &'static str,
    default: T,
) -> Result<T> {
    match find(input, scratch, name) {
        None => Ok(default),
        Some(raw) => raw.parse().map_err(|_| ParseError::BadAttr {
            element,
            attr: name.to_string(),
            value: raw.to_string(),
        }),
    }
}

/// Like [`parse_num`] but absence stays absent (`None`) instead of
/// collapsing into a default. Used for the `#IMPLIED` timestamp
/// attributes (`REPORTED`, `LOCALTIME`), where a default of 0 would
/// read as epoch 1970 — ~56 years of data age. Malformed values are
/// still hard errors.
pub(crate) fn parse_opt_num<T: std::str::FromStr>(
    input: &str,
    scratch: &AttrScratch,
    element: &'static str,
    name: &'static str,
) -> Result<Option<T>> {
    match find(input, scratch, name) {
        None => Ok(None),
        Some(raw) => raw.parse().map(Some).map_err(|_| ParseError::BadAttr {
            element,
            attr: name.to_string(),
            value: raw.to_string(),
        }),
    }
}

// ---------------------------------------------------------------------
// Element parsers
// ---------------------------------------------------------------------

/// Header attributes of a `GRID` start tag, copied out of the scratch
/// before the parser advances past it.
pub(crate) struct GridHeader {
    pub name: String,
    pub authority: String,
    pub localtime: Option<u64>,
}

pub(crate) fn grid_header(input: &str, scratch: &AttrScratch) -> Result<GridHeader> {
    Ok(GridHeader {
        name: required(input, scratch, names::GRID, attr::NAME)?.to_string(),
        authority: optional_string(input, scratch, attr::AUTHORITY),
        localtime: parse_opt_num::<u64>(input, scratch, names::GRID, attr::LOCALTIME)?,
    })
}

/// Header attributes of a `CLUSTER` start tag.
pub(crate) struct ClusterHeader {
    pub name: String,
    pub owner: String,
    pub latlong: String,
    pub url: String,
    pub localtime: Option<u64>,
}

pub(crate) fn cluster_header(input: &str, scratch: &AttrScratch) -> Result<ClusterHeader> {
    Ok(ClusterHeader {
        name: required(input, scratch, names::CLUSTER, attr::NAME)?.to_string(),
        owner: optional_string(input, scratch, attr::OWNER),
        latlong: optional_string(input, scratch, attr::LATLONG),
        url: optional_string(input, scratch, attr::URL),
        localtime: parse_opt_num::<u64>(input, scratch, names::CLUSTER, attr::LOCALTIME)?,
    })
}

/// Parse one `METRIC` start tag's attributes from the scratch.
pub(crate) fn parse_metric_scratch(input: &str, scratch: &AttrScratch) -> Result<MetricEntry> {
    let name = Atom::new(required(input, scratch, names::METRIC, attr::NAME)?);
    let ty_raw = required(input, scratch, names::METRIC, attr::TYPE)?;
    let ty: MetricType = ty_raw.parse().map_err(|_| ParseError::BadAttr {
        element: names::METRIC,
        attr: attr::TYPE.to_string(),
        value: ty_raw.to_string(),
    })?;
    let val_raw = required(input, scratch, names::METRIC, attr::VAL)?;
    let value = MetricValue::parse(ty, val_raw).map_err(|_| ParseError::BadAttr {
        element: names::METRIC,
        attr: attr::VAL.to_string(),
        value: val_raw.to_string(),
    })?;
    let slope = match find(input, scratch, attr::SLOPE) {
        None => Slope::Unspecified,
        Some(raw) => raw.parse().map_err(|_| ParseError::BadAttr {
            element: names::METRIC,
            attr: attr::SLOPE.to_string(),
            value: raw.to_string(),
        })?,
    };
    Ok(MetricEntry {
        name,
        value,
        units: optional_atom(input, scratch, attr::UNITS),
        tn: parse_num(input, scratch, names::METRIC, attr::TN, 0u32)?,
        tmax: parse_num(input, scratch, names::METRIC, attr::TMAX, 60u32)?,
        dmax: parse_num(input, scratch, names::METRIC, attr::DMAX, 0u32)?,
        slope,
        source: optional_atom(input, scratch, attr::SOURCE),
    })
}

/// Parse one `METRICS` summary tag's attributes from the scratch.
pub(crate) fn parse_metric_summary_scratch(
    input: &str,
    scratch: &AttrScratch,
) -> Result<MetricSummary> {
    let name = Atom::new(required(input, scratch, names::METRICS, attr::NAME)?);
    let ty = match find(input, scratch, attr::TYPE) {
        None => MetricType::Double,
        Some(raw) => raw.parse().map_err(|_| ParseError::BadAttr {
            element: names::METRICS,
            attr: attr::TYPE.to_string(),
            value: raw.to_string(),
        })?,
    };
    let slope = match find(input, scratch, attr::SLOPE) {
        None => Slope::Unspecified,
        Some(raw) => raw.parse().map_err(|_| ParseError::BadAttr {
            element: names::METRICS,
            attr: attr::SLOPE.to_string(),
            value: raw.to_string(),
        })?,
    };
    Ok(MetricSummary {
        name,
        sum: parse_num(input, scratch, names::METRICS, attr::SUM, 0.0f64)?,
        num: parse_num(input, scratch, names::METRICS, attr::NUM, 0u32)?,
        ty,
        units: optional_atom(input, scratch, attr::UNITS),
        slope,
        source: optional_atom(input, scratch, attr::SOURCE),
    })
}

/// Parse a `HOST` element body whose start event was just returned (its
/// attributes are still in the scratch). `metrics_hint` pre-sizes the
/// metric vector from the previous round's observation so a steady-state
/// host parse does not grow-and-copy.
pub(crate) fn parse_host_streaming(
    parser: &mut PullParser<'_>,
    input: &str,
    scratch: &mut AttrScratch,
    metrics_hint: usize,
) -> Result<HostNode> {
    let mut host = HostNode {
        name: Atom::new(required(input, scratch, names::HOST, attr::NAME)?),
        ip: optional_string(input, scratch, attr::IP),
        reported: parse_opt_num::<u64>(input, scratch, names::HOST, attr::REPORTED)?,
        tn: parse_num(input, scratch, names::HOST, attr::TN, 0u32)?,
        tmax: parse_num(input, scratch, names::HOST, attr::TMAX, 20u32)?,
        dmax: parse_num(input, scratch, names::HOST, attr::DMAX, 0u32)?,
        location: optional_string(input, scratch, attr::LOCATION),
        gmond_started: parse_num(input, scratch, names::HOST, attr::STARTED, 0u64)?,
        metrics: Vec::with_capacity(metrics_hint),
    };
    loop {
        match parser.next_event_into(scratch)? {
            Some(StreamEvent::Start { name: tag, .. }) => match tag {
                names::METRIC => {
                    host.metrics.push(parse_metric_scratch(input, scratch)?);
                    parser.skip_subtree_into(scratch)?;
                }
                // Later gmond versions attach EXTRA_DATA; tolerated.
                names::EXTRA_DATA | names::EXTRA_ELEMENT => parser.skip_subtree_into(scratch)?,
                other => {
                    return Err(ParseError::UnexpectedTag {
                        parent: names::HOST.into(),
                        tag: other.to_string(),
                    })
                }
            },
            Some(StreamEvent::End { .. }) => break,
            Some(_) => continue,
            None => break,
        }
    }
    Ok(host)
}

/// Parse one `<HOST>...</HOST>` byte span that starts at byte
/// `span_start` of its document. This is the Ingester's span-miss path:
/// full well-formedness checks apply, errors carry document offsets, and
/// the only allocations are the node's own.
pub(crate) fn parse_host_span_streaming(
    span: &str,
    span_start: usize,
    scratch: &mut AttrScratch,
    metrics_hint: usize,
) -> Result<HostNode> {
    let mut parser = PullParser::new(span);
    let parsed = match parser.next_event_into(scratch) {
        Ok(Some(StreamEvent::Start {
            name: names::HOST, ..
        })) => parse_host_streaming(&mut parser, span, scratch, metrics_hint),
        Ok(_) => Err(ParseError::UnexpectedTag {
            parent: names::CLUSTER.into(),
            tag: "(host span)".into(),
        }),
        Err(e) => Err(e.into()),
    };
    parsed.map_err(|e| match e {
        ParseError::Xml(mut e) => {
            e.offset += span_start;
            ParseError::Xml(e)
        }
        other => other,
    })
}

fn parse_grid_streaming(
    parser: &mut PullParser<'_>,
    input: &str,
    scratch: &mut AttrScratch,
    header: GridHeader,
) -> Result<GridNode> {
    let mut items: Vec<GridItem> = Vec::new();
    let mut summary: Option<SummaryBody> = None;
    loop {
        match parser.next_event_into(scratch)? {
            Some(StreamEvent::Start { name: tag, .. }) => match tag {
                names::GRID => {
                    let hdr = grid_header(input, scratch)?;
                    items.push(GridItem::Grid(parse_grid_streaming(
                        parser, input, scratch, hdr,
                    )?));
                }
                names::CLUSTER => {
                    let hdr = cluster_header(input, scratch)?;
                    items.push(GridItem::Cluster(parse_cluster_streaming(
                        parser, input, scratch, hdr,
                    )?));
                }
                names::HOSTS => {
                    let body = summary.get_or_insert_with(SummaryBody::default);
                    body.hosts_up = parse_num(input, scratch, names::HOSTS, attr::UP, 0u32)?;
                    body.hosts_down = parse_num(input, scratch, names::HOSTS, attr::DOWN, 0u32)?;
                    parser.skip_subtree_into(scratch)?;
                }
                names::METRICS => {
                    let body = summary.get_or_insert_with(SummaryBody::default);
                    body.metrics
                        .push(parse_metric_summary_scratch(input, scratch)?);
                    parser.skip_subtree_into(scratch)?;
                }
                other => {
                    return Err(ParseError::UnexpectedTag {
                        parent: names::GRID.into(),
                        tag: other.to_string(),
                    })
                }
            },
            Some(StreamEvent::End { .. }) => break,
            Some(_) => continue,
            None => break,
        }
    }
    let body = match summary {
        Some(s) if items.is_empty() => GridBody::Summary(s),
        // A grid reporting both nested items and its own rolled-up summary
        // keeps the expanded form; summaries are recomputable.
        Some(_) | None => GridBody::Items(items),
    };
    Ok(GridNode {
        name: header.name,
        authority: header.authority,
        localtime: header.localtime,
        body,
    })
}

fn parse_cluster_streaming(
    parser: &mut PullParser<'_>,
    input: &str,
    scratch: &mut AttrScratch,
    header: ClusterHeader,
) -> Result<ClusterNode> {
    let mut hosts: Vec<Arc<HostNode>> = Vec::new();
    let mut summary: Option<SummaryBody> = None;
    loop {
        match parser.next_event_into(scratch)? {
            Some(StreamEvent::Start { name: tag, .. }) => match tag {
                names::HOST => {
                    hosts.push(Arc::new(parse_host_streaming(parser, input, scratch, 0)?))
                }
                names::HOSTS => {
                    let body = summary.get_or_insert_with(SummaryBody::default);
                    body.hosts_up = parse_num(input, scratch, names::HOSTS, attr::UP, 0u32)?;
                    body.hosts_down = parse_num(input, scratch, names::HOSTS, attr::DOWN, 0u32)?;
                    parser.skip_subtree_into(scratch)?;
                }
                names::METRICS => {
                    let body = summary.get_or_insert_with(SummaryBody::default);
                    body.metrics
                        .push(parse_metric_summary_scratch(input, scratch)?);
                    parser.skip_subtree_into(scratch)?;
                }
                other => {
                    return Err(ParseError::UnexpectedTag {
                        parent: names::CLUSTER.into(),
                        tag: other.to_string(),
                    })
                }
            },
            Some(StreamEvent::End { .. }) => break,
            Some(_) => continue,
            None => break,
        }
    }
    let body = match (hosts.is_empty(), summary) {
        (false, None) => ClusterBody::Hosts(hosts),
        (true, Some(s)) => ClusterBody::Summary(s),
        (true, None) => ClusterBody::Hosts(Vec::new()),
        (false, Some(_)) => return Err(ParseError::MixedClusterBody(header.name)),
    };
    Ok(ClusterNode {
        name: header.name,
        owner: header.owner,
        latlong: header.latlong,
        url: header.url,
        localtime: header.localtime,
        body,
    })
}

/// Parse a complete Ganglia XML report into the typed model.
pub fn parse_document(input: &str) -> Result<GangliaDoc> {
    let mut scratch = AttrScratch::new();
    let scratch = &mut scratch;
    let mut parser = PullParser::new(input);
    // Skip prolog (declaration, DOCTYPE, comments) to the root element.
    let root_name = loop {
        match parser.next_event_into(scratch)? {
            Some(StreamEvent::Start { name, .. }) => break name,
            Some(StreamEvent::Decl(_) | StreamEvent::Comment(_)) => continue,
            // Text / End before the root never reach here: the parser
            // itself rejects them (TrailingContent / UnmatchedClose).
            Some(other) => {
                return Err(ParseError::UnexpectedTag {
                    parent: "(document)".into(),
                    tag: format!("{other:?}"),
                })
            }
            None => return Err(ParseError::BadRoot("(empty)".into())),
        }
    };
    if root_name != names::GANGLIA_XML {
        return Err(ParseError::BadRoot(root_name.to_string()));
    }
    // The root's attributes are still live in the scratch here.
    let mut doc = GangliaDoc {
        version: optional_string(input, scratch, attr::VERSION),
        source: optional_string(input, scratch, attr::SOURCE),
        items: Vec::new(),
    };
    loop {
        match parser.next_event_into(scratch)? {
            Some(StreamEvent::Start { name, .. }) => match name {
                names::GRID => {
                    let hdr = grid_header(input, scratch)?;
                    doc.items.push(GridItem::Grid(parse_grid_streaming(
                        &mut parser,
                        input,
                        scratch,
                        hdr,
                    )?));
                }
                names::CLUSTER => {
                    let hdr = cluster_header(input, scratch)?;
                    doc.items.push(GridItem::Cluster(parse_cluster_streaming(
                        &mut parser,
                        input,
                        scratch,
                        hdr,
                    )?));
                }
                other => {
                    return Err(ParseError::UnexpectedTag {
                        parent: names::GANGLIA_XML.into(),
                        tag: other.to_string(),
                    })
                }
            },
            Some(StreamEvent::End { .. }) => break,
            Some(_) => continue,
            None => break,
        }
    }
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::write_document;
    use crate::ingest::Ingester;
    use ganglia_xml::error::XmlErrorKind;
    use ganglia_xml::XmlError;

    /// Parse `input` with [`parse_document`] and with a cold
    /// [`Ingester`], require both to agree, and return the outcome.
    fn parse_both(input: &str) -> Result<GangliaDoc> {
        let direct = parse_document(input);
        let ingested = Ingester::new().ingest(input).map(|i| i.doc);
        match (&direct, &ingested) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a, b, "documents diverged on {input:?}");
                assert_eq!(write_document(a), write_document(b));
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "errors diverged on {input:?}"),
            (a, b) => panic!("outcome diverged on {input:?}: parse={a:?} ingest={b:?}"),
        }
        direct
    }

    #[test]
    fn representative_docs_parse_and_roundtrip() {
        for doc in [
            r#"<GANGLIA_XML VERSION="2.5.4" SOURCE="gmond"><CLUSTER NAME="c" LOCALTIME="9">
<HOST NAME="n0" IP="10.0.0.1" REPORTED="7" TN="5" TMAX="20" DMAX="0">
<METRIC NAME="load_one" VAL="0.89" TYPE="float" UNITS="" TN="10" TMAX="70" DMAX="0" SLOPE="both" SOURCE="gmond"/>
</HOST></CLUSTER></GANGLIA_XML>"#,
            r#"<GANGLIA_XML><GRID NAME="top" AUTHORITY="http://x/"><GRID NAME="sub">
<HOSTS UP="10" DOWN="1"/><METRICS NAME="cpu_num" SUM="20" NUM="10" TYPE="int32"/>
</GRID></GRID></GANGLIA_XML>"#,
            r#"<GANGLIA_XML><CLUSTER NAME="big"><HOSTS UP="500" DOWN="2"/>
<METRICS NAME="load_one" SUM="215.5" NUM="500" TYPE="float"/></CLUSTER></GANGLIA_XML>"#,
            r#"<GANGLIA_XML><CLUSTER NAME="c"/></GANGLIA_XML>"#,
            "<?xml version=\"1.0\"?><!-- p --><GANGLIA_XML/>",
            // Entity-escaped and numeric-char-ref attribute values.
            r#"<GANGLIA_XML><CLUSTER NAME="a &amp; b" OWNER="&#65;&#x42;"><HOST NAME="h &lt;1&gt;" IP="1.1.1.1"/></CLUSTER></GANGLIA_XML>"#,
        ] {
            let parsed = parse_both(doc).unwrap();
            let rendered = write_document(&parsed);
            assert_eq!(parse_document(&rendered).unwrap(), parsed);
        }
        let doc = parse_both(
            r#"<GANGLIA_XML><CLUSTER NAME="a &amp; b" OWNER="&#65;&#x42;"><HOST NAME="h &lt;1&gt;" IP="1.1.1.1"/></CLUSTER></GANGLIA_XML>"#,
        )
        .unwrap();
        let GridItem::Cluster(c) = &doc.items[0] else {
            panic!("expected cluster")
        };
        assert_eq!((c.name.as_str(), c.owner.as_str()), ("a & b", "AB"));
        assert!(c.host("h <1>").is_some());
    }

    #[test]
    fn malformed_docs_fail_with_exact_errors() {
        let xml = |offset, kind| ParseError::Xml(XmlError { offset, kind });
        let cases = [
            ("", xml(0, XmlErrorKind::NoRootElement)),
            ("   ", xml(3, XmlErrorKind::NoRootElement)),
            ("<HTML/>", ParseError::BadRoot("HTML".into())),
            (
                "<GANGLIA_XML><BOGUS/></GANGLIA_XML>",
                ParseError::UnexpectedTag {
                    parent: "GANGLIA_XML".into(),
                    tag: "BOGUS".into(),
                },
            ),
            (
                r#"<GANGLIA_XML><CLUSTER><HOST NAME="x"/></CLUSTER></GANGLIA_XML>"#,
                ParseError::MissingAttr {
                    element: "CLUSTER",
                    attr: "NAME",
                },
            ),
            (
                r#"<GANGLIA_XML><CLUSTER NAME="c"><HOST NAME="h"><METRIC NAME="m" VAL="x" TYPE="int32"/></HOST></CLUSTER></GANGLIA_XML>"#,
                ParseError::BadAttr {
                    element: "METRIC",
                    attr: "VAL".into(),
                    value: "x".into(),
                },
            ),
            (
                r#"<GANGLIA_XML><CLUSTER NAME="c"><HOST NAME="h" IP="1.1.1.1"/><HOSTS UP="1" DOWN="0"/></CLUSTER></GANGLIA_XML>"#,
                ParseError::MixedClusterBody("c".into()),
            ),
            (
                r#"<GANGLIA_XML><CLUSTER NAME="c"><GRID NAME="g"/></CLUSTER></GANGLIA_XML>"#,
                ParseError::UnexpectedTag {
                    parent: "CLUSTER".into(),
                    tag: "GRID".into(),
                },
            ),
            (
                r#"<GANGLIA_XML><CLUSTER NAME="c" LOCALTIME="yesterday"/></GANGLIA_XML>"#,
                ParseError::BadAttr {
                    element: "CLUSTER",
                    attr: "LOCALTIME".into(),
                    value: "yesterday".into(),
                },
            ),
            (
                r#"<GANGLIA_XML><CLUSTER NAME="c&bad;"/></GANGLIA_XML>"#,
                xml(29, XmlErrorKind::BadEntity("bad".into())),
            ),
            (
                "<GANGLIA_XML><CLUSTER NAME=\"c\">",
                xml(31, XmlErrorKind::UnclosedElements(2)),
            ),
        ];
        for (doc, expected) in cases {
            assert_eq!(parse_both(doc).unwrap_err(), expected, "on {doc:?}");
        }
        // The builder stops reading at the root's close tag, so content
        // after it is never tokenized.
        assert!(parse_both("<GANGLIA_XML></GANGLIA_XML>junk").is_ok());
    }

    #[test]
    fn host_span_parses_like_a_document_host() {
        let span = r#"<HOST NAME="n0" IP="10.0.0.1" REPORTED="7" TN="5" TMAX="20" DMAX="0" LOCATION="r1,u2" STARTED="3">
<METRIC NAME="load_one" VAL="0.89" TYPE="float" SLOPE="both"/>
<EXTRA_DATA><EXTRA_ELEMENT NAME="x"/></EXTRA_DATA>
</HOST>"#;
        let mut scratch = AttrScratch::new();
        let node = parse_host_span_streaming(span, 0, &mut scratch, 4).unwrap();
        assert_eq!(node.name.as_str(), "n0");
        assert_eq!(node.ip, "10.0.0.1");
        assert_eq!(node.reported, Some(7));
        assert_eq!(node.location, "r1,u2");
        assert_eq!(node.gmond_started, 3);
        assert_eq!(node.metrics.len(), 1);
        assert_eq!(node.metrics[0].name.as_str(), "load_one");
        // Non-HOST spans are rejected.
        assert!(matches!(
            parse_host_span_streaming(
                "<METRIC NAME=\"x\" VAL=\"1\" TYPE=\"int32\"/>",
                0,
                &mut scratch,
                0
            ),
            Err(ParseError::UnexpectedTag { .. })
        ));
    }
}
