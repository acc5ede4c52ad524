//! Property tests: any sequence of starts, attributes, text and ends
//! written through the `XmlWriter` reads back through the pull parser as
//! exactly that event sequence, and the pull parser never panics on
//! arbitrary input.

use ganglia_xml::{AttrScratch, PullParser, StreamEvent, XmlWriter};
use proptest::prelude::*;

/// Strategy for plausible XML names (ASCII, Ganglia-style).
fn name_strategy() -> impl Strategy<Value = String> {
    "[A-Za-z_][A-Za-z0-9_.:-]{0,12}"
}

/// Attribute values and text: arbitrary printable text including
/// reserved chars.
fn value_strategy() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ -~]{0,24}").unwrap()
}

/// One event as the parser reports it, with attributes and text
/// resolved to owned strings.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Ev {
    Start {
        name: String,
        attrs: Vec<(String, String)>,
        empty: bool,
    },
    Text(String),
    End(String),
}

/// An element to write: attributes, optional text before and after its
/// children, and — for a childless, textless element — whether to write
/// it in the `<X/>` form.
#[derive(Debug, Clone)]
struct Node {
    name: String,
    attrs: Vec<(String, String)>,
    text: String,
    tail: String,
    children: Vec<Node>,
    empty: bool,
}

/// Attribute lists with unique names, as a start tag requires.
fn attrs_strategy() -> impl Strategy<Value = Vec<(String, String)>> {
    proptest::collection::vec((name_strategy(), value_strategy()), 0..4).prop_map(|raw| {
        let mut attrs: Vec<(String, String)> = Vec::new();
        for (n, v) in raw {
            if !attrs.iter().any(|(seen, _)| *seen == n) {
                attrs.push((n, v));
            }
        }
        attrs
    })
}

fn node_strategy() -> impl Strategy<Value = Node> {
    let leaf = (
        name_strategy(),
        attrs_strategy(),
        value_strategy(),
        any::<bool>(),
    )
        .prop_map(|(name, attrs, text, empty)| Node {
            name,
            attrs,
            text,
            tail: String::new(),
            children: Vec::new(),
            empty,
        });
    leaf.prop_recursive(3, 24, 4, |inner| {
        (
            name_strategy(),
            attrs_strategy(),
            proptest::collection::vec(inner, 0..4),
            value_strategy(),
            value_strategy(),
        )
            .prop_map(|(name, attrs, children, text, tail)| Node {
                name,
                attrs,
                text,
                tail,
                children,
                empty: false,
            })
    })
}

/// Text the parser reports: whitespace-only runs carry no information
/// and produce no event, so they are not written at all.
fn meaningful(text: &str) -> bool {
    !text.bytes().all(|b| b.is_ascii_whitespace())
}

/// Write `node` and record the events a reader must see.
fn write_node(node: &Node, w: &mut XmlWriter<'_, String>, expected: &mut Vec<Ev>) {
    let attrs: Vec<(&str, &str)> = node
        .attrs
        .iter()
        .map(|(n, v)| (n.as_str(), v.as_str()))
        .collect();
    let has_text = meaningful(&node.text);
    let empty = node.empty && node.children.is_empty() && !has_text;
    expected.push(Ev::Start {
        name: node.name.clone(),
        attrs: node.attrs.clone(),
        empty,
    });
    if empty {
        w.empty_element(&node.name, &attrs);
    } else {
        w.start_element(&node.name, &attrs);
        if has_text {
            w.text(&node.text);
            expected.push(Ev::Text(node.text.clone()));
        }
        for child in &node.children {
            write_node(child, w, expected);
        }
        // A tail directly after the leading text would merge with it.
        if !node.children.is_empty() && meaningful(&node.tail) {
            w.text(&node.tail);
            expected.push(Ev::Text(node.tail.clone()));
        }
        w.end_element();
    }
    expected.push(Ev::End(node.name.clone()));
}

fn read_events(input: &str) -> Vec<Ev> {
    let mut parser = PullParser::new(input);
    let mut scratch = AttrScratch::new();
    let mut out = Vec::new();
    while let Some(ev) = parser.next_event_into(&mut scratch).unwrap() {
        out.push(match ev {
            StreamEvent::Start { name, empty } => Ev::Start {
                name: name.to_string(),
                attrs: (0..scratch.len())
                    .map(|i| {
                        (
                            scratch.name(input, i).to_string(),
                            scratch.value(input, i).to_string(),
                        )
                    })
                    .collect(),
                empty,
            },
            StreamEvent::Text => Ev::Text(scratch.text(input).unwrap().to_string()),
            StreamEvent::End { name } => Ev::End(name.to_string()),
            other => panic!("writer produced unexpected event {other:?}"),
        });
    }
    out
}

/// Drain `input` through the parser; errors are fine, panics are not.
fn drain(input: &str) {
    let mut parser = PullParser::new(input);
    let mut scratch = AttrScratch::new();
    for _ in 0..1024 {
        match parser.next_event_into(&mut scratch) {
            Ok(Some(StreamEvent::Start { .. })) => {
                // Resolve every attribute so span bookkeeping is exercised.
                for i in 0..scratch.len() {
                    let _ = (scratch.name(input, i), scratch.value(input, i));
                }
            }
            Ok(Some(StreamEvent::Text)) => {
                let _ = scratch.text(input);
            }
            Ok(Some(_)) => continue,
            Ok(None) | Err(_) => break,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn event_sequence_roundtrips_through_writer(root in node_strategy()) {
        let mut xml = String::new();
        let mut expected = Vec::new();
        let mut w = XmlWriter::new(&mut xml);
        write_node(&root, &mut w, &mut expected);
        w.finish().unwrap();
        prop_assert_eq!(read_events(&xml), expected);
    }

    #[test]
    fn parser_never_panics_on_arbitrary_input(input in "[ -~<>&\"']{0,256}") {
        drain(&input);
    }

    #[test]
    fn parser_never_panics_on_arbitrary_unicode(input in "\\PC{0,128}") {
        drain(&input);
    }
}
