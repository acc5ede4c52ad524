//! Escaping and unescaping of XML character data and attribute values.
//!
//! Both directions are written to avoid allocation in the common case:
//! Ganglia metric names and values are almost always plain ASCII with no
//! reserved characters, so `escape` returns `Cow::Borrowed` unless a
//! substitution is actually required, and `unescape_into` appends into a
//! caller-owned buffer that is reused across values.

use std::borrow::Cow;

use crate::error::{XmlError, XmlErrorKind, XmlResult};

/// Escape `&`, `<`, `>`, `"`, and `'` for use in character data or
/// attribute values.
///
/// Returns the input unchanged (borrowed) when no escaping is needed.
pub fn escape(raw: &str) -> Cow<'_, str> {
    let first = raw.bytes().position(needs_escape);
    let Some(first) = first else {
        return Cow::Borrowed(raw);
    };
    let mut out = String::with_capacity(raw.len() + 8);
    out.push_str(&raw[..first]);
    for ch in raw[first..].chars() {
        match ch {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            other => out.push(other),
        }
    }
    Cow::Owned(out)
}

fn needs_escape(b: u8) -> bool {
    matches!(b, b'&' | b'<' | b'>' | b'"' | b'\'')
}

/// Stream `raw` into `sink` with reserved characters escaped, without
/// building an intermediate `String`. Writes the longest clean run
/// between reserved characters in one call, so plain input is a single
/// `write_str`.
pub fn write_escaped<W: std::fmt::Write>(sink: &mut W, raw: &str) -> std::fmt::Result {
    let mut rest = raw;
    while let Some(hit) = rest.bytes().position(needs_escape) {
        sink.write_str(&rest[..hit])?;
        sink.write_str(match rest.as_bytes()[hit] {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' => "&quot;",
            _ => "&apos;",
        })?;
        rest = &rest[hit + 1..];
    }
    sink.write_str(rest)
}

/// Expand entity and numeric character references in `raw`, appending the
/// result to `out`.
///
/// Supports the five predefined entities (`amp`, `lt`, `gt`, `quot`,
/// `apos`) and decimal/hex character references (`&#NN;`, `&#xNN;`).
/// `offset` is the position of `raw` in the original document, used to
/// report errors against the full input. The caller owns `out` and
/// reuses its allocation across values, so a steady stream of escaped
/// attribute values costs no per-value allocation once the buffer has
/// grown to its working size.
pub fn unescape_into(raw: &str, offset: usize, out: &mut String) -> XmlResult<()> {
    let mut rest = raw;
    let mut pos = 0usize;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        pos += amp;
        let after = &rest[amp + 1..];
        let Some(semi) = after.find(';') else {
            return Err(XmlError::new(
                offset + pos,
                XmlErrorKind::BadEntity(truncate_for_error(after)),
            ));
        };
        let entity = &after[..semi];
        let expanded = expand_entity(entity)
            .ok_or_else(|| XmlError::new(offset + pos, XmlErrorKind::BadEntity(entity.into())))?;
        out.push(expanded);
        rest = &after[semi + 1..];
        pos += 1 + semi + 1;
    }
    out.push_str(rest);
    Ok(())
}

fn truncate_for_error(s: &str) -> String {
    s.chars().take(12).collect()
}

fn expand_entity(entity: &str) -> Option<char> {
    match entity {
        "amp" => Some('&'),
        "lt" => Some('<'),
        "gt" => Some('>'),
        "quot" => Some('"'),
        "apos" => Some('\''),
        _ => {
            let body = entity.strip_prefix('#')?;
            let code = if let Some(hex) = body.strip_prefix('x').or_else(|| body.strip_prefix('X'))
            {
                u32::from_str_radix(hex, 16).ok()?
            } else {
                body.parse::<u32>().ok()?
            };
            char::from_u32(code)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unescape(raw: &str, offset: usize) -> XmlResult<String> {
        let mut out = String::new();
        unescape_into(raw, offset, &mut out)?;
        Ok(out)
    }

    #[test]
    fn plain_text_passes_through() {
        assert!(matches!(escape("cpu_num"), Cow::Borrowed(_)));
        assert_eq!(unescape("cpu_num", 0).unwrap(), "cpu_num");
    }

    #[test]
    fn unescape_into_appends() {
        let mut out = String::from("x=");
        unescape_into("a&amp;b", 0, &mut out).unwrap();
        assert_eq!(out, "x=a&b");
    }

    #[test]
    fn escapes_all_reserved_characters() {
        assert_eq!(
            escape(r#"a<b>&"c'"#),
            "a&lt;b&gt;&amp;&quot;c&apos;".to_string()
        );
    }

    #[test]
    fn unescape_expands_predefined_entities() {
        assert_eq!(
            unescape("a&lt;b&gt;&amp;&quot;c&apos;", 0).unwrap(),
            r#"a<b>&"c'"#
        );
    }

    #[test]
    fn unescape_numeric_references() {
        assert_eq!(unescape("&#65;&#x42;&#x63;", 0).unwrap(), "ABc");
    }

    #[test]
    fn unescape_rejects_unknown_entity() {
        let err = unescape("x&bogus;y", 3).unwrap_err();
        assert_eq!(err.offset, 4);
        assert_eq!(err.kind, XmlErrorKind::BadEntity("bogus".into()));
    }

    #[test]
    fn unescape_rejects_unterminated_entity() {
        assert!(unescape("x&ampy", 0).is_err());
    }

    #[test]
    fn unescape_rejects_out_of_range_codepoint() {
        assert!(unescape("&#x110000;", 0).is_err());
        assert!(unescape("&#xD800;", 0).is_err()); // surrogate
    }

    #[test]
    fn write_escaped_matches_escape() {
        for raw in ["", "plain", "a&b", "<GRID>", "tick ' tock \" done", "üñí"] {
            let mut out = String::new();
            write_escaped(&mut out, raw).unwrap();
            assert_eq!(out, escape(raw));
        }
    }

    #[test]
    fn roundtrip_preserves_text() {
        for raw in ["", "plain", "a&b", "<GRID>", "tick ' tock \" done", "üñí"] {
            let escaped = escape(raw);
            let back = unescape(&escaped, 0).unwrap();
            assert_eq!(back, raw);
        }
    }
}
