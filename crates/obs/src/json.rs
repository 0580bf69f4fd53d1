//! The JSON writer: every document the system emits — query responses,
//! errors, stats, `/healthz`, profiles, Perfetto traces, the slow-query
//! ledger, access-log lines and the bench results — is formed here and
//! nowhere else.
//!
//! Layout is chosen per container, and there are two: [`Layout::Block`]
//! puts one member per line, indented two spaces past the line that
//! opened the container; [`Layout::Inline`] keeps every member on one
//! line, separated by `", "`. An empty container is `{}` or `[]` in
//! either layout. Nothing else is configurable.
//!
//! ```
//! use kdap_obs::{JsonWriter, Layout};
//!
//! let mut out = String::new();
//! JsonWriter::new(&mut out).object(Layout::Block, |w| {
//!     w.key("name").str("a\"b");
//!     w.key("xs").array(Layout::Inline, |w| {
//!         w.int(1u64).f64(f64::NAN);
//!     });
//!     w.key("none").array(Layout::Block, |_| {});
//! });
//! assert_eq!(out, "{\n  \"name\": \"a\\\"b\",\n  \"xs\": [1, null],\n  \"none\": []\n}");
//! ```

use std::fmt::Write as _;

/// How a container lays out its members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// One member per line, two spaces deeper than the opening line.
    Block,
    /// Every member on the opening line, separated by `", "`.
    Inline,
}

/// An integer the writer formats with `Display`.
pub trait Int: std::fmt::Display {}

macro_rules! int {
    ($($t:ty)*) => { $(impl Int for $t {})* };
}
int!(u16 u32 u64 usize i64);

/// Appends JSON values to a `String` the caller owns, so a caller that
/// reuses its buffer allocates nothing per document.
pub struct JsonWriter<'a> {
    out: &'a mut String,
    /// Indentation of the line being written.
    indent: usize,
    /// The innermost open container is a block.
    block: bool,
    /// The innermost open container has no member yet.
    first: bool,
    /// A key was just written; the next value completes its member.
    keyed: bool,
}

impl<'a> JsonWriter<'a> {
    /// A writer appending to `out`, at column 0.
    pub fn new(out: &'a mut String) -> Self {
        JsonWriter {
            out,
            indent: 0,
            block: false,
            first: true,
            keyed: false,
        }
    }

    /// Writes the separator and line break that precede a member.
    fn member(&mut self) {
        if std::mem::take(&mut self.keyed) {
            return;
        }
        if !std::mem::take(&mut self.first) {
            self.out.push_str(if self.block { "," } else { ", " });
        }
        if self.block {
            self.newline();
        }
    }

    fn newline(&mut self) {
        self.out.push('\n');
        self.out.extend(std::iter::repeat_n(' ', self.indent));
    }

    /// Starts an object member; the next call writes its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.member();
        escape(self.out, key);
        self.out.push_str(": ");
        self.keyed = true;
        self
    }

    /// A string, escaped.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.member();
        escape(self.out, s);
        self
    }

    /// A number in its shortest round-trip form (`Display`); NaN and ±∞,
    /// which JSON cannot represent, are `null`.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        if v.is_finite() {
            self.token(format_args!("{v}"))
        } else {
            self.null()
        }
    }

    /// A number with `decimals` digits after the point, for the
    /// fixed-precision fields (trace timestamps, bench timings); NaN and
    /// ±∞ are `null`.
    pub fn fixed(&mut self, v: f64, decimals: usize) -> &mut Self {
        if v.is_finite() {
            self.token(format_args!("{v:.decimals$}"))
        } else {
            self.null()
        }
    }

    /// An integer.
    pub fn int(&mut self, v: impl Int) -> &mut Self {
        self.token(format_args!("{v}"))
    }

    /// `true` or `false`.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.token(format_args!("{v}"))
    }

    /// `null`.
    pub fn null(&mut self) -> &mut Self {
        self.token(format_args!("null"))
    }

    fn token(&mut self, text: std::fmt::Arguments) -> &mut Self {
        self.member();
        let _ = self.out.write_fmt(text);
        self
    }

    /// An object whose members `body` writes as `key(…)` + value pairs.
    pub fn object(&mut self, layout: Layout, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.container(layout, ('{', '}'), body)
    }

    /// An array whose elements `body` writes.
    pub fn array(&mut self, layout: Layout, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.container(layout, ('[', ']'), body)
    }

    fn container(
        &mut self,
        layout: Layout,
        (open, close): (char, char),
        body: impl FnOnce(&mut Self),
    ) -> &mut Self {
        self.member();
        self.out.push(open);
        let outer = (self.indent, self.block, self.first);
        self.block = layout == Layout::Block;
        self.first = true;
        if self.block {
            self.indent += 2;
        }
        body(self);
        let empty = self.first;
        (self.indent, self.block, self.first) = outer;
        if layout == Layout::Block && !empty {
            self.newline();
        }
        self.out.push(close);
        self
    }
}

/// Escapes `s` as a JSON string literal, quotes included.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape(&mut out, s);
    out
}

/// Appends `s` quoted, copying each stretch that needs no escape with one
/// `push_str`: only `"`, `\` and the control characters are escaped, all
/// ASCII, so every cut falls on a character boundary. The search for the
/// next byte to escape reads eight bytes at a time ([`escapes`]);
/// `tests/json_roundtrip.rs` holds it to a byte-at-a-time oracle.
fn escape(out: &mut String, s: &str) {
    out.reserve(s.len() + 2);
    out.push('"');
    let bytes = s.as_bytes();
    let mut start = 0;
    let mut i = 0;
    while i < bytes.len() {
        let word = match bytes[i..].first_chunk::<8>() {
            Some(word) => *word,
            None => {
                // The tail, padded with spaces, which need no escape.
                let mut word = [b' '; 8];
                word[..bytes.len() - i].copy_from_slice(&bytes[i..]);
                word
            }
        };
        let found = escapes(u64::from_le_bytes(word));
        if found == 0 {
            i += 8;
            continue;
        }
        // The lowest flagged byte is the first in the string.
        let at = i + (found.trailing_zeros() / 8) as usize;
        out.push_str(&s[start..at]);
        let b = bytes[at];
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        start = at + 1;
        i = start;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// The high bit of each byte of `word` that JSON requires escaped — `"`,
/// `\` or below 0x20 — and no other bit. Exact per byte: no sum carries
/// into the next byte, as each adds two 7-bit values.
fn escapes(word: u64) -> u64 {
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    const fn splat(b: u8) -> u64 {
        u64::from_le_bytes([b; 8])
    }
    // A byte is zero when neither it nor its low seven bits plus 0x7f
    // has the high bit set.
    let zero = |v: u64| !(((v & LOW7) + LOW7) | v) & HIGH;
    // Likewise below 0x20: its low seven bits plus 0x60 stay below 0x80.
    let control = !(((word & LOW7) + splat(0x60)) | word) & HIGH;
    control | zero(word ^ splat(b'"')) | zero(word ^ splat(b'\\'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(body: impl FnOnce(&mut JsonWriter)) -> String {
        let mut out = String::new();
        body(&mut JsonWriter::new(&mut out));
        out
    }

    #[test]
    fn escapes_in_runs_exactly_what_json_requires() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}\r\t\u{1f}"), "\"\\u0001\\r\\t\\u001f\"");
        assert_eq!(json_string("é→\u{2028}𝄞\u{7f}"), "\"é→\u{2028}𝄞\u{7f}\"");
        assert_eq!(json_string(""), "\"\"");
    }

    #[test]
    fn numbers_scalars_and_non_finite() {
        let out = doc(|w| {
            w.array(Layout::Inline, |w| {
                w.f64(0.5).f64(-0.0).f64(f64::INFINITY).fixed(1.0 / 3.0, 3);
                w.fixed(f64::NAN, 3)
                    .int(7usize)
                    .int(-3i64)
                    .bool(true)
                    .null();
            });
        });
        assert_eq!(out, "[0.5, -0, null, 0.333, null, 7, -3, true, null]");
    }

    #[test]
    fn block_indents_two_past_the_opening_line() {
        let out = doc(|w| {
            w.object(Layout::Block, |w| {
                w.key("rows").array(Layout::Block, |w| {
                    w.object(Layout::Inline, |w| {
                        w.key("n").int(1u64).key("kids").array(Layout::Block, |w| {
                            w.object(Layout::Inline, |w| {
                                w.key("e").object(Layout::Inline, |_| {});
                            });
                        });
                    });
                });
                w.key("empty").object(Layout::Block, |_| {});
            });
        });
        assert_eq!(
            out,
            "{\n  \"rows\": [\n    {\"n\": 1, \"kids\": [\n      {\"e\": {}}\n    ]}\n  ],\n  \
             \"empty\": {}\n}"
        );
    }
}
