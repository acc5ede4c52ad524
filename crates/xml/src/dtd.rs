//! The Ganglia DTD, and a structural validator for it.
//!
//! Pseudo-gmond output "conforms to the Ganglia DTD, and therefore
//! requires the same processing effort by the gmeta system under study"
//! (paper §4) — this module is how the test suite holds every producer
//! in the workspace to that bar. [`validate`] checks element nesting and
//! required attributes against the DTD below (the 2.5.x DTD extended
//! with the paper's `GRID` and summary tags).

use crate::error::XmlResult;
use crate::names::{self, attr};
use crate::pull::{AttrScratch, PullParser, StreamEvent};

/// The document type definition, as served by gmond/gmetad.
pub const GANGLIA_DTD: &str = r#"<!DOCTYPE GANGLIA_XML [
<!ELEMENT GANGLIA_XML (GRID|CLUSTER|HOST)*>
  <!ATTLIST GANGLIA_XML VERSION CDATA #REQUIRED>
  <!ATTLIST GANGLIA_XML SOURCE CDATA #REQUIRED>
<!ELEMENT GRID (CLUSTER|GRID|HOSTS|METRICS)*>
  <!ATTLIST GRID NAME CDATA #REQUIRED>
  <!ATTLIST GRID AUTHORITY CDATA #IMPLIED>
  <!ATTLIST GRID LOCALTIME CDATA #IMPLIED>
<!ELEMENT CLUSTER (HOST|HOSTS|METRICS)*>
  <!ATTLIST CLUSTER NAME CDATA #REQUIRED>
  <!ATTLIST CLUSTER OWNER CDATA #IMPLIED>
  <!ATTLIST CLUSTER LATLONG CDATA #IMPLIED>
  <!ATTLIST CLUSTER URL CDATA #IMPLIED>
  <!ATTLIST CLUSTER LOCALTIME CDATA #IMPLIED>
<!ELEMENT HOST (METRIC|EXTRA_DATA)*>
  <!ATTLIST HOST NAME CDATA #REQUIRED>
  <!ATTLIST HOST IP CDATA #IMPLIED>
  <!ATTLIST HOST REPORTED CDATA #IMPLIED>
  <!ATTLIST HOST TN CDATA #IMPLIED>
  <!ATTLIST HOST TMAX CDATA #IMPLIED>
  <!ATTLIST HOST DMAX CDATA #IMPLIED>
  <!ATTLIST HOST LOCATION CDATA #IMPLIED>
  <!ATTLIST HOST STARTED CDATA #IMPLIED>
<!ELEMENT METRIC (EXTRA_DATA*)>
  <!ATTLIST METRIC NAME CDATA #REQUIRED>
  <!ATTLIST METRIC VAL CDATA #REQUIRED>
  <!ATTLIST METRIC TYPE CDATA #REQUIRED>
  <!ATTLIST METRIC UNITS CDATA #IMPLIED>
  <!ATTLIST METRIC TN CDATA #IMPLIED>
  <!ATTLIST METRIC TMAX CDATA #IMPLIED>
  <!ATTLIST METRIC DMAX CDATA #IMPLIED>
  <!ATTLIST METRIC SLOPE CDATA #IMPLIED>
  <!ATTLIST METRIC SOURCE CDATA #IMPLIED>
<!ELEMENT HOSTS EMPTY>
  <!ATTLIST HOSTS UP CDATA #REQUIRED>
  <!ATTLIST HOSTS DOWN CDATA #REQUIRED>
<!ELEMENT METRICS EMPTY>
  <!ATTLIST METRICS NAME CDATA #REQUIRED>
  <!ATTLIST METRICS SUM CDATA #REQUIRED>
  <!ATTLIST METRICS NUM CDATA #REQUIRED>
  <!ATTLIST METRICS TYPE CDATA #IMPLIED>
  <!ATTLIST METRICS UNITS CDATA #IMPLIED>
  <!ATTLIST METRICS SLOPE CDATA #IMPLIED>
  <!ATTLIST METRICS SOURCE CDATA #IMPLIED>
<!ELEMENT EXTRA_DATA (EXTRA_ELEMENT*)>
<!ELEMENT EXTRA_ELEMENT EMPTY>
  <!ATTLIST EXTRA_ELEMENT NAME CDATA #REQUIRED>
  <!ATTLIST EXTRA_ELEMENT VAL CDATA #REQUIRED>
]>"#;

/// A structural violation of the DTD.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DtdViolation {
    /// The root element is not `GANGLIA_XML`.
    BadRoot(String),
    /// `child` appeared directly inside `parent`, which the DTD forbids.
    BadNesting { parent: String, child: String },
    /// A required attribute is missing.
    MissingAttribute { element: String, attribute: String },
    /// An element the DTD does not define at all.
    UnknownElement(String),
    /// The underlying XML failed to parse.
    Malformed(String),
}

impl std::fmt::Display for DtdViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DtdViolation::BadRoot(root) => write!(f, "root element <{root}> is not GANGLIA_XML"),
            DtdViolation::BadNesting { parent, child } => {
                write!(f, "<{child}> may not appear inside <{parent}>")
            }
            DtdViolation::MissingAttribute { element, attribute } => {
                write!(f, "<{element}> is missing required attribute {attribute}")
            }
            DtdViolation::UnknownElement(name) => write!(f, "unknown element <{name}>"),
            DtdViolation::Malformed(e) => write!(f, "malformed XML: {e}"),
        }
    }
}

/// Allowed children per element.
fn allowed_children(parent: &str) -> Option<&'static [&'static str]> {
    Some(match parent {
        names::GANGLIA_XML => &[names::GRID, names::CLUSTER, names::HOST],
        names::GRID => &[names::CLUSTER, names::GRID, names::HOSTS, names::METRICS],
        names::CLUSTER => &[names::HOST, names::HOSTS, names::METRICS],
        names::HOST => &[names::METRIC, names::EXTRA_DATA],
        names::METRIC => &[names::EXTRA_DATA],
        names::EXTRA_DATA => &[names::EXTRA_ELEMENT],
        names::HOSTS | names::METRICS | names::EXTRA_ELEMENT => &[],
        _ => return None,
    })
}

/// Required attributes per element.
fn required_attributes(element: &str) -> &'static [&'static str] {
    match element {
        names::GANGLIA_XML => &[attr::VERSION, attr::SOURCE],
        names::GRID | names::CLUSTER | names::HOST => &[attr::NAME],
        names::METRIC => &[attr::NAME, attr::VAL, attr::TYPE],
        names::HOSTS => &[attr::UP, attr::DOWN],
        names::METRICS => &[attr::NAME, attr::SUM, attr::NUM],
        names::EXTRA_ELEMENT => &[attr::NAME, attr::VAL],
        _ => &[],
    }
}

/// Validate a document against the Ganglia DTD. Returns every violation
/// found (empty = conformant).
pub fn validate(input: &str) -> Vec<DtdViolation> {
    let mut violations = Vec::new();
    match validate_inner(input, &mut violations) {
        Ok(()) => {}
        Err(e) => violations.push(DtdViolation::Malformed(e.to_string())),
    }
    violations
}

fn validate_inner(input: &str, violations: &mut Vec<DtdViolation>) -> XmlResult<()> {
    let mut parser = PullParser::new(input);
    let mut scratch = AttrScratch::new();
    let mut stack: Vec<&str> = Vec::new();
    while let Some(event) = parser.next_event_into(&mut scratch)? {
        match event {
            StreamEvent::Start { name, .. } => {
                if allowed_children(name).is_none() {
                    violations.push(DtdViolation::UnknownElement(name.to_string()));
                } else {
                    match stack.last() {
                        None => {
                            if name != names::GANGLIA_XML {
                                violations.push(DtdViolation::BadRoot(name.to_string()));
                            }
                        }
                        Some(parent) => {
                            let allowed = allowed_children(parent).unwrap_or(&[]);
                            if !allowed.contains(&name) {
                                violations.push(DtdViolation::BadNesting {
                                    parent: parent.to_string(),
                                    child: name.to_string(),
                                });
                            }
                        }
                    }
                    for required in required_attributes(name) {
                        if scratch.get(input, required).is_none() {
                            violations.push(DtdViolation::MissingAttribute {
                                element: name.to_string(),
                                attribute: (*required).to_string(),
                            });
                        }
                    }
                }
                stack.push(name);
            }
            StreamEvent::End { .. } => {
                stack.pop();
            }
            _ => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"<GANGLIA_XML VERSION="2.5.4" SOURCE="gmetad">
      <GRID NAME="SDSC" AUTHORITY="http://sdsc/">
        <CLUSTER NAME="Meteor">
          <HOST NAME="n0"><METRIC NAME="load_one" VAL="0.5" TYPE="float"/></HOST>
        </CLUSTER>
        <GRID NAME="ATTIC">
          <HOSTS UP="10" DOWN="1"/>
          <METRICS NAME="cpu_num" SUM="20" NUM="10"/>
        </GRID>
      </GRID></GANGLIA_XML>"#;

    #[test]
    fn conformant_document_passes() {
        assert_eq!(validate(GOOD), vec![]);
    }

    #[test]
    fn dtd_text_is_parseable_prolog() {
        let doc = format!("{GANGLIA_DTD}{GOOD}");
        assert_eq!(validate(&doc), vec![]);
    }

    #[test]
    fn bad_root_is_flagged() {
        let violations = validate(r#"<HTML VERSION="1" SOURCE="x"/>"#);
        assert!(violations.contains(&DtdViolation::UnknownElement("HTML".into())));
    }

    #[test]
    fn bad_nesting_is_flagged() {
        let violations = validate(
            r#"<GANGLIA_XML VERSION="1" SOURCE="x"><HOST NAME="h"><CLUSTER NAME="c"/></HOST></GANGLIA_XML>"#,
        );
        assert_eq!(
            violations,
            vec![DtdViolation::BadNesting {
                parent: "HOST".into(),
                child: "CLUSTER".into()
            }]
        );
    }

    #[test]
    fn missing_required_attributes_are_flagged() {
        let violations = validate(
            r#"<GANGLIA_XML VERSION="1" SOURCE="x"><CLUSTER NAME="c"><HOST NAME="h"><METRIC NAME="m" VAL="1"/></HOST></CLUSTER></GANGLIA_XML>"#,
        );
        assert_eq!(
            violations,
            vec![DtdViolation::MissingAttribute {
                element: "METRIC".into(),
                attribute: "TYPE".into()
            }]
        );
    }

    #[test]
    fn malformed_xml_is_one_violation() {
        let violations = validate("<GANGLIA_XML VERSION='1' SOURCE='x'><oops");
        assert!(matches!(
            violations.last(),
            Some(DtdViolation::Malformed(_))
        ));
    }

    #[test]
    fn summary_tags_only_inside_grid_or_cluster() {
        let violations = validate(
            r#"<GANGLIA_XML VERSION="1" SOURCE="x"><HOSTS UP="1" DOWN="0"/></GANGLIA_XML>"#,
        );
        assert_eq!(
            violations,
            vec![DtdViolation::BadNesting {
                parent: "GANGLIA_XML".into(),
                child: "HOSTS".into()
            }]
        );
    }
}
