//! Streaming XML writer.
//!
//! Every Ganglia component that produces reports — gmond serving its
//! cluster state, gmetad answering a query — streams tags directly into an
//! output buffer with this writer. It tracks the open-element stack so the
//! output is well-formed by construction, and escapes attribute values and
//! character data.

use std::fmt::{self, Write};

use crate::escape::{escape, write_escaped};

/// The standard header Ganglia puts in front of every report.
pub const XML_DECLARATION: &str =
    "<?xml version=\"1.0\" encoding=\"ISO-8859-1\" standalone=\"yes\"?>";

/// A streaming writer over any [`fmt::Write`] sink (typically `String`).
///
/// Open-element names live in one shared scratch buffer (`names`) with a
/// stack of start offsets, so deep documents never allocate a `String`
/// per element on the render hot path.
pub struct XmlWriter<'w, W: Write> {
    sink: &'w mut W,
    /// Start offsets of open-element names within `names`.
    stack: Vec<usize>,
    /// Concatenated open-element names; `stack` delimits them.
    names: String,
    /// Pretty-print with 2-space indentation when set.
    indent: bool,
    /// Writer is positioned at the start of a fresh line.
    at_line_start: bool,
    error: Option<fmt::Error>,
}

impl<'w, W: Write> XmlWriter<'w, W> {
    /// Create a compact (non-indented) writer.
    pub fn new(sink: &'w mut W) -> Self {
        XmlWriter {
            sink,
            stack: Vec::new(),
            names: String::new(),
            indent: false,
            at_line_start: true,
            error: None,
        }
    }

    /// Create a pretty-printing writer (one element per line, 2-space
    /// indent). Used for human-facing output; the wire format is compact.
    pub fn pretty(sink: &'w mut W) -> Self {
        XmlWriter {
            indent: true,
            ..XmlWriter::new(sink)
        }
    }

    fn put(&mut self, s: &str) {
        if self.error.is_none() {
            if let Err(e) = self.sink.write_str(s) {
                self.error = Some(e);
            }
        }
    }

    fn newline_and_indent(&mut self) {
        if self.indent && !self.at_line_start {
            self.put("\n");
            for _ in 0..self.stack.len() {
                self.put("  ");
            }
        }
        self.at_line_start = false;
    }

    /// Emit the standard XML declaration.
    pub fn declaration(&mut self) {
        self.put(XML_DECLARATION);
        if self.indent {
            self.put("\n");
            self.at_line_start = true;
        }
    }

    /// Open `<name attr...>`.
    pub fn start_element(&mut self, name: &str, attrs: &[(&str, &str)]) {
        self.newline_and_indent();
        self.put("<");
        self.put(name);
        self.write_attrs(attrs);
        self.put(">");
        self.stack.push(self.names.len());
        self.names.push_str(name);
    }

    /// Emit `<name attr.../>`.
    pub fn empty_element(&mut self, name: &str, attrs: &[(&str, &str)]) {
        self.newline_and_indent();
        self.put("<");
        self.put(name);
        self.write_attrs(attrs);
        self.put("/>");
    }

    fn write_attrs(&mut self, attrs: &[(&str, &str)]) {
        for (name, value) in attrs {
            self.put(" ");
            self.put(name);
            self.put("=\"");
            if self.error.is_none() {
                // Streamed escaping: no intermediate String even when a
                // value does contain reserved characters.
                if let Err(e) = write_escaped(self.sink, value) {
                    self.error = Some(e);
                }
            }
            self.put("\"");
        }
    }

    /// Close the most recently opened element.
    ///
    /// # Panics
    /// Panics if no element is open — that is a bug in the caller, not a
    /// runtime condition.
    pub fn end_element(&mut self) {
        let start = self
            .stack
            .pop()
            .expect("end_element called with no element open");
        self.newline_and_indent();
        if self.error.is_none() {
            let write = self
                .sink
                .write_str("</")
                .and_then(|()| self.sink.write_str(&self.names[start..]))
                .and_then(|()| self.sink.write_str(">"));
            if let Err(e) = write {
                self.error = Some(e);
            }
        }
        self.names.truncate(start);
    }

    /// Emit escaped character data inside the current element.
    pub fn text(&mut self, text: &str) {
        let escaped = escape(text);
        self.newline_and_indent();
        self.put(&escaped);
    }

    /// Emit a comment. The body must not contain `--`.
    pub fn comment(&mut self, body: &str) {
        debug_assert!(!body.contains("--"), "comment body must not contain --");
        self.newline_and_indent();
        self.put("<!--");
        self.put(body);
        self.put("-->");
    }

    /// Number of currently open elements.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Finish writing: closes any still-open elements and reports any
    /// deferred I/O error from the sink.
    pub fn finish(mut self) -> Result<(), fmt::Error> {
        while !self.stack.is_empty() {
            self.end_element();
        }
        if self.indent {
            self.put("\n");
        }
        match self.error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pull::{AttrScratch, PullParser, StreamEvent};

    #[test]
    fn writes_nested_document() {
        let mut out = String::new();
        let mut w = XmlWriter::new(&mut out);
        w.start_element("GANGLIA_XML", &[("VERSION", "2.5.4")]);
        w.start_element("CLUSTER", &[("NAME", "Meteor")]);
        w.empty_element("HOST", &[("NAME", "compute-0-0")]);
        w.end_element();
        w.end_element();
        w.finish().unwrap();
        assert_eq!(
            out,
            "<GANGLIA_XML VERSION=\"2.5.4\"><CLUSTER NAME=\"Meteor\">\
             <HOST NAME=\"compute-0-0\"/></CLUSTER></GANGLIA_XML>"
        );
    }

    #[test]
    fn finish_closes_open_elements() {
        let mut out = String::new();
        let mut w = XmlWriter::new(&mut out);
        w.start_element("A", &[]);
        w.start_element("B", &[]);
        w.finish().unwrap();
        assert_eq!(out, "<A><B></B></A>");
    }

    #[test]
    fn escapes_attribute_values_and_text() {
        let mut out = String::new();
        let mut w = XmlWriter::new(&mut out);
        w.start_element("A", &[("X", "a&b<c")]);
        w.text("1 < 2");
        w.finish().unwrap();
        assert_eq!(out, "<A X=\"a&amp;b&lt;c\">1 &lt; 2</A>");
    }

    #[test]
    fn pretty_output_is_parseable_and_equivalent() {
        let mut out = String::new();
        let mut w = XmlWriter::pretty(&mut out);
        w.declaration();
        w.start_element("GRID", &[("NAME", "SDSC")]);
        w.start_element("CLUSTER", &[("NAME", "Meteor")]);
        w.empty_element("HOST", &[("NAME", "n0")]);
        w.finish().unwrap();
        assert!(out.contains('\n'));
        // Parse it back: the indentation carries no events, and the
        // element path and attribute survive.
        let mut parser = PullParser::new(&out);
        let mut scratch = AttrScratch::new();
        let mut path = Vec::new();
        let mut host_name = None;
        while let Some(ev) = parser.next_event_into(&mut scratch).unwrap() {
            match ev {
                StreamEvent::Start { name, .. } => {
                    path.push(name);
                    if name == "HOST" {
                        assert_eq!(path, ["GRID", "CLUSTER", "HOST"]);
                        host_name = scratch.get(&out, "NAME").map(str::to_string);
                    }
                }
                StreamEvent::End { .. } => {
                    path.pop();
                }
                StreamEvent::Decl(_) => {}
                other => panic!("unexpected event {other:?}"),
            }
        }
        assert_eq!(host_name.as_deref(), Some("n0"));
    }

    #[test]
    fn declaration_starts_document() {
        let mut out = String::new();
        let mut w = XmlWriter::new(&mut out);
        w.declaration();
        w.empty_element("GANGLIA_XML", &[]);
        w.finish().unwrap();
        assert!(out.starts_with("<?xml"));
    }

    #[test]
    #[should_panic(expected = "no element open")]
    fn end_without_start_panics() {
        let mut out = String::new();
        let mut w = XmlWriter::new(&mut out);
        w.end_element();
    }
}
