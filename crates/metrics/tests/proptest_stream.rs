//! Adversarial property tests for the document builder: on every
//! input — well-formed, entity-laden, attribute-mangled, truncated, or
//! garbage — `parse_document` must be indistinguishable from the
//! delta-aware `Ingester`, a separately written walker over the same
//! tokenizer: the same document (and byte-identical render) on
//! success, the identical error on failure, and never a panic. The
//! gmetad ingests through the `Ingester` while every other reader calls
//! `parse_document`, so the two must never disagree about a report.
//!
//! Each input is checked against a cold `Ingester` and against warm
//! ones primed with related documents, so the fingerprint-reuse and
//! raw-skip paths run on adversarial input too.

use ganglia_metrics::{parse_document, write_document, Ingester};
use proptest::prelude::*;

/// The invariant under test. Panics (caught and shrunk by proptest)
/// when the builder and an ingester diverge in any observable way.
/// `primers` are documents a warm ingester sees first; each primes a
/// fresh ingester twice (the second time with a changed root attribute,
/// so the report misses the whole-document cache while every host span
/// hits) — which leaves its clusters in skip mode, raw-skipping and
/// fingerprinting host spans before parsing any.
fn assert_parsers_agree(input: &str, primers: &[&str]) {
    let expected = parse_document(input);
    let mut ingesters = vec![("cold", Ingester::new())];
    for primer in primers {
        let mut warm = Ingester::new();
        let _ = warm.ingest(primer);
        let _ = warm.ingest(&primer.replacen("VERSION=\"2.5.4\"", "VERSION=\"2.5.5\"", 1));
        ingesters.push(("warm", warm));
    }
    for (label, mut ingester) in ingesters {
        match (&expected, ingester.ingest(input).map(|i| i.doc)) {
            (Ok(e), Ok(i)) => {
                assert_eq!(e, &i, "{label} ingester's model diverges");
                assert_eq!(
                    write_document(e),
                    write_document(&i),
                    "renders diverge despite equal models"
                );
            }
            (Err(e), Err(i)) => assert_eq!(e, &i, "{label} ingester's error diverges on {input:?}"),
            (e, i) => panic!(
                "one parser succeeded where the other failed:\n parse_document: {e:?}\n {label} ingester: {i:?}\n input: {input:?}"
            ),
        }
    }
}

/// Attribute-value payloads mixing plain text with every escape the
/// parser knows: the five predefined entities plus decimal and hex
/// numeric character references (including multi-byte codepoints).
fn attr_value() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            4 => "[A-Za-z0-9 _./%-]{1,6}".prop_map(|s| s),
            1 => Just("&amp;".to_string()),
            1 => Just("&lt;".to_string()),
            1 => Just("&gt;".to_string()),
            1 => Just("&quot;".to_string()),
            1 => Just("&apos;".to_string()),
            1 => (32u32..127).prop_map(|c| format!("&#{c};")),
            1 => (32u32..127).prop_map(|c| format!("&#x{c:X};")),
            1 => Just("&#955;".to_string()), // λ — multi-byte on decode
        ],
        0..5,
    )
    .prop_map(|pieces| pieces.concat())
}

/// What to do to one metric's attribute list: leave it alone, drop a
/// required attribute, or state one twice with conflicting values.
#[derive(Debug, Clone, Copy)]
enum AttrMutation {
    Intact,
    DropName,
    DropVal,
    DropType,
    DuplicateName,
    DuplicateVal,
}

fn mutation() -> impl Strategy<Value = AttrMutation> {
    prop_oneof![
        5 => Just(AttrMutation::Intact),
        1 => Just(AttrMutation::DropName),
        1 => Just(AttrMutation::DropVal),
        1 => Just(AttrMutation::DropType),
        1 => Just(AttrMutation::DuplicateName),
        1 => Just(AttrMutation::DuplicateVal),
    ]
}

/// One `<METRIC .../>` element with an adversarial value and an
/// optional attribute mutation.
fn metric_xml() -> impl Strategy<Value = String> {
    ("[a-z_]{1,8}", attr_value(), attr_value(), mutation()).prop_map(
        |(name, val, units, mutation)| {
            let name_attr = match mutation {
                AttrMutation::DropName => String::new(),
                AttrMutation::DuplicateName => format!(" NAME=\"{name}\" NAME=\"shadow\""),
                _ => format!(" NAME=\"{name}\""),
            };
            let val_attr = match mutation {
                AttrMutation::DropVal => String::new(),
                AttrMutation::DuplicateVal => format!(" VAL=\"{val}\" VAL=\"0\""),
                _ => format!(" VAL=\"{val}\""),
            };
            let type_attr = match mutation {
                AttrMutation::DropType => "",
                _ => " TYPE=\"string\"",
            };
            format!(
                "<METRIC{name_attr}{val_attr}{type_attr} SLOPE=\"both\" UNITS=\"{units}\" \
                 TN=\"1\" TMAX=\"70\" DMAX=\"0\" SOURCE=\"gmond\"/>"
            )
        },
    )
}

/// One `<HOST>...</HOST>` with adversarial metrics; occasionally the
/// host itself loses its REPORTED stamp or IP (both optional).
fn host_xml() -> impl Strategy<Value = String> {
    (
        "[a-z][a-z0-9]{0,6}",
        proptest::collection::vec(metric_xml(), 0..4),
        prop_oneof![3 => Just(0), 1 => Just(1), 1 => Just(2)],
    )
        .prop_map(|(name, metrics, drop)| {
            let ip = if drop == 1 { "" } else { " IP=\"10.0.0.9\"" };
            let reported = if drop == 2 { "" } else { " REPORTED=\"100\"" };
            format!(
                "<HOST NAME=\"{name}\"{ip}{reported} TN=\"2\" TMAX=\"20\" DMAX=\"0\">{}</HOST>",
                metrics.concat()
            )
        })
}

/// A full document: a gmond-style cluster of hosts, sometimes wrapped
/// in a gmetad-style grid, sometimes carrying a summary body instead.
fn doc_xml() -> impl Strategy<Value = String> {
    (
        "[a-z]{1,6}",
        proptest::collection::vec(host_xml(), 0..4),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(name, hosts, grid, summary)| {
            let cluster = if summary {
                format!(
                    "<CLUSTER NAME=\"{name}\" LOCALTIME=\"10\">\
                     <HOSTS UP=\"3\" DOWN=\"1\" SOURCE=\"gmetad\"/>\
                     <METRICS NAME=\"load_one\" SUM=\"1.5\" NUM=\"3\" TYPE=\"double\" \
                     UNITS=\"\" SLOPE=\"both\" SOURCE=\"gmond\"/></CLUSTER>"
                )
            } else {
                format!(
                    "<CLUSTER NAME=\"{name}\" LOCALTIME=\"10\">{}</CLUSTER>",
                    hosts.concat()
                )
            };
            let body = if grid {
                format!(
                    "<GRID NAME=\"top\" AUTHORITY=\"http://a/\" LOCALTIME=\"5\">{cluster}</GRID>"
                )
            } else {
                cluster
            };
            format!("<GANGLIA_XML VERSION=\"2.5.4\" SOURCE=\"gmond\">{body}</GANGLIA_XML>")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Well-formed and attribute-mangled documents: entity-escaped and
    /// numeric-char-ref values, missing required attributes, duplicate
    /// attributes — every path lands on the same document or the same
    /// error, whether the ingester has seen this report before or an
    /// unrelated one.
    #[test]
    fn adversarial_documents_agree(doc in doc_xml(), other in doc_xml()) {
        assert_parsers_agree(&doc, &[&doc, &other]);
    }

    /// Every truncation point of a valid document: mid-tag, mid-entity,
    /// mid-attribute-value. All paths must fail (or, for a cut at the
    /// very end, succeed) identically — including an ingester that has
    /// the full document's host spans cached.
    #[test]
    fn truncated_documents_agree(doc in doc_xml(), cut in 0usize..4096) {
        let cut = cut % (doc.len() + 1);
        let cut = (0..=cut).rev().find(|&i| doc.is_char_boundary(i)).unwrap_or(0);
        assert_parsers_agree(&doc[..cut], &[&doc]);
    }

    /// Partial churn: one host's bytes change since the round a warm
    /// ingester cached, the rest are reused — the merged document must
    /// still be exactly what a fresh parse builds.
    #[test]
    fn churned_documents_agree(doc in doc_xml()) {
        assert_parsers_agree(&doc.replacen("TN=\"2\"", "TN=\"3\"", 1), &[&doc]);
    }

    /// Garbage appended after the closing root tag — trailing junk must
    /// be rejected (or tolerated) the same way on every path.
    #[test]
    fn garbage_tails_agree(doc in doc_xml(), tail in "[ -~]{0,24}") {
        assert_parsers_agree(&format!("{doc}{tail}"), &[&doc]);
    }

    /// Raw printable-ASCII noise, heavy on XML metacharacters: no path
    /// may panic, and their verdicts must match byte for byte.
    #[test]
    fn arbitrary_noise_agrees(junk in r#"[ -~]{0,64}"#, other in doc_xml()) {
        assert_parsers_agree(&junk, &[&other]);
    }

    /// Entity-rewrite equivalence: take a valid document, force the
    /// escape-decoding slow path everywhere by rewriting `e` as a
    /// numeric reference, and check every path agrees through the
    /// arena-decode path too — for a warm ingester, every cached host
    /// span now misses and is re-parsed.
    #[test]
    fn numeric_ref_rewrite_agrees(doc in doc_xml()) {
        assert_parsers_agree(&doc.replace('e', "&#101;"), &[&doc]);
    }
}

/// A valid report whose cluster and host share names with the
/// deterministic cases below, so a warm ingester has their spans cached.
const PRIMER: &str =
    "<GANGLIA_XML VERSION=\"2.5.4\" SOURCE=\"g\"><CLUSTER NAME=\"c\" LOCALTIME=\"1\">\
     <HOST NAME=\"h\" IP=\"1.1.1.1\" REPORTED=\"1\" TN=\"1\" TMAX=\"20\" DMAX=\"0\"></HOST>\
     <HOST NAME=\"a\" IP=\"1.1.1.2\" REPORTED=\"1\" TN=\"1\" TMAX=\"20\" DMAX=\"0\"></HOST>\
     </CLUSTER></GANGLIA_XML>";

/// Deterministic corner cases worth pinning outside the generator's
/// reach: bad numeric references, unknown entities, and cuts inside an
/// escape sequence.
#[test]
fn known_adversarial_inputs_agree() {
    const CASES: &[&str] = &[
        "",
        "<",
        "&amp;",
        "<GANGLIA_XML",
        "<GANGLIA_XML VERSION=\"2.5.4\" SOURCE=\"gmond\">",
        "<GANGLIA_XML VERSION=\"2.5.4\" SOURCE=\"gmond\"></GANGLIA_XML>",
        // Unknown entity and out-of-range / malformed numeric refs.
        "<GANGLIA_XML VERSION=\"&bogus;\" SOURCE=\"g\"></GANGLIA_XML>",
        "<GANGLIA_XML VERSION=\"&#xD800;\" SOURCE=\"g\"></GANGLIA_XML>",
        "<GANGLIA_XML VERSION=\"&#;\" SOURCE=\"g\"></GANGLIA_XML>",
        "<GANGLIA_XML VERSION=\"&#999999999;\" SOURCE=\"g\"></GANGLIA_XML>",
        "<GANGLIA_XML VERSION=\"&amp\" SOURCE=\"g\"></GANGLIA_XML>",
        // Truncated inside an entity, a tag name, and an attr value.
        "<GANGLIA_XML VERSION=\"2.5.4\" SOURCE=\"gmond\"><CLUSTER NAME=\"c\" LOCALTIME=\"1\"><HOST NAME=\"a&#1",
        "<GANGLIA_XML VERSION=\"2.5.4\" SOURCE=\"gmond\"><CLUS",
        "<GANGLIA_XML VERSION=\"2.5.4\" SOURCE=\"gmond\"><CLUSTER NAME=\"c",
        // Wrong root, nested wrong tags, mixed cluster body.
        "<NOT_GANGLIA></NOT_GANGLIA>",
        "<GANGLIA_XML VERSION=\"2.5.4\" SOURCE=\"g\"><BOGUS/></GANGLIA_XML>",
        "<GANGLIA_XML VERSION=\"2.5.4\" SOURCE=\"g\"><CLUSTER NAME=\"c\" LOCALTIME=\"1\">\
         <HOST NAME=\"h\" IP=\"1.1.1.1\" REPORTED=\"1\" TN=\"1\" TMAX=\"20\" DMAX=\"0\"></HOST>\
         <HOSTS UP=\"1\" DOWN=\"0\" SOURCE=\"gmetad\"/></CLUSTER></GANGLIA_XML>",
        // A cached host span followed by a truncated one, and a cached
        // span closed by a mismatched tag.
        "<GANGLIA_XML VERSION=\"2.5.4\" SOURCE=\"g\"><CLUSTER NAME=\"c\" LOCALTIME=\"1\">\
         <HOST NAME=\"h\" IP=\"1.1.1.1\" REPORTED=\"1\" TN=\"1\" TMAX=\"20\" DMAX=\"0\"></HOST>\
         <HOST NAME=\"a\" IP=\"1.1.1.2\" REPORTED=\"1\" TN=\"1\"",
        "<GANGLIA_XML VERSION=\"2.5.4\" SOURCE=\"g\"><CLUSTER NAME=\"c\" LOCALTIME=\"1\">\
         <HOST NAME=\"h\" IP=\"1.1.1.1\" REPORTED=\"1\" TN=\"1\" TMAX=\"20\" DMAX=\"0\"></HOSTX>\
         </CLUSTER></GANGLIA_XML>",
    ];
    for case in CASES {
        assert_parsers_agree(case, &[PRIMER]);
    }
}
