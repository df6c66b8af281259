//! The workspace's dependency-free JSON: the flat-row writer, its reader,
//! and the FNV-1a content hash.
//!
//! The workspace is fully offline, so there is no serde. The writer covers
//! objects of strings, numbers, nulls, and (for the Chrome trace-event
//! `args` field) one level of nested objects, collected into arrays — all
//! the `BENCH_*.json` trajectories and trace exporters need. [`RowReader`]
//! is its inverse over flat rows, visiting them in order through one
//! reused row buffer: the serving snapshot reads checkpoints through it,
//! and the tests read result files through [`read_rows`], which collects
//! it. It lives in `ouro-trace` so every schema shares one writer and one
//! reader; `ouro-serve` and `ouro-bench` re-export this module.
//!
//! The reader never panics on input: every malformed document is a
//! [`JsonError`] naming its byte offset, and clippy enforces that here.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use std::borrow::Cow;

/// A flat JSON object under construction.
#[derive(Debug, Clone, Default)]
pub struct JsonObject {
    fields: Vec<(String, String)>,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> JsonObject {
        JsonObject::default()
    }

    /// Adds a string field (escaping quotes, backslashes, and control
    /// characters — JSON strings must not contain raw controls).
    pub fn str(mut self, key: &str, value: &str) -> JsonObject {
        let mut escaped = String::with_capacity(value.len());
        for c in value.chars() {
            match c {
                '\\' => escaped.push_str("\\\\"),
                '"' => escaped.push_str("\\\""),
                '\n' => escaped.push_str("\\n"),
                '\r' => escaped.push_str("\\r"),
                '\t' => escaped.push_str("\\t"),
                c if (c as u32) < 0x20 => escaped.push_str(&format!("\\u{:04x}", c as u32)),
                c => escaped.push(c),
            }
        }
        self.fields.push((key.to_string(), format!("\"{escaped}\"")));
        self
    }

    /// Adds a numeric field; non-finite values become `null` (JSON has no
    /// NaN/Infinity).
    pub fn num(mut self, key: &str, value: f64) -> JsonObject {
        let rendered = if value.is_finite() { format!("{value}") } else { "null".to_string() };
        self.fields.push((key.to_string(), rendered));
        self
    }

    /// Adds an integer field.
    pub fn int(mut self, key: &str, value: u64) -> JsonObject {
        self.fields.push((key.to_string(), format!("{value}")));
        self
    }

    /// Adds an explicit `null` field — sections that do not apply to a run
    /// (no faults, no migration) keep their keys so every row of a dump
    /// shares one schema.
    pub fn null(mut self, key: &str) -> JsonObject {
        self.fields.push((key.to_string(), "null".to_string()));
        self
    }

    /// Adds a nested object field — the Chrome trace-event format carries
    /// per-event metadata in an `args` object, the one place the flat
    /// schema is not enough.
    pub(crate) fn obj(mut self, key: &str, value: &JsonObject) -> JsonObject {
        self.fields.push((key.to_string(), value.render()));
        self
    }

    /// Appends every field of `other` after this object's fields, so
    /// callers can prefix report rows with their own labels.
    pub fn extend(mut self, other: JsonObject) -> JsonObject {
        self.fields.extend(other.fields);
        self
    }

    /// The field keys, in insertion order (the schema of the row).
    pub fn keys(&self) -> Vec<&str> {
        self.fields.iter().map(|(k, _)| k.as_str()).collect()
    }

    /// Renders the object as one JSON line.
    pub fn render(&self) -> String {
        let body: Vec<String> = self.fields.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Renders a slice of objects as a pretty-enough JSON array.
pub fn render_array(objects: &[JsonObject]) -> String {
    let rows: Vec<String> = objects.iter().map(|o| format!("  {}", o.render())).collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

/// Writes the array to `path`, creating parent directories as needed.
///
/// # Errors
///
/// Propagates I/O errors from directory creation or the write.
pub fn write_array(path: &str, objects: &[JsonObject]) -> std::io::Result<()> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, render_array(objects))
}

/// FNV-1a offset basis: the state [`fnv1a_extend`] starts from.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into a running FNV-1a state, so a stream can be hashed
/// piece by piece without first being joined: start from
/// [`FNV1A_OFFSET`] and pass each piece in order.
pub fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a over `bytes` — the workspace's one content hash (trace digests,
/// snapshot config hashes).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV1A_OFFSET, bytes)
}

/// One scalar value of a flat row. `S` is the string storage:
/// `Cow<str>` borrowing from the input for [`read_rows`], `String` where
/// rows outlive the text they were read from.
#[derive(Debug, Clone, PartialEq)]
pub enum Value<S> {
    /// `null` (also what the writer renders for non-finite numbers).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, as `f64`. The writer renders `f64` shortest
    /// round-trip, so `num` reads back exactly; `int` does up to 2^53.
    Num(f64),
    /// A string, unescaped.
    Str(S),
}

impl<S: AsRef<str>> Value<S> {
    /// The value as a number, when it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string, when it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_ref()),
            _ => None,
        }
    }
}

impl Value<Cow<'_, str>> {
    /// Detaches the value from the text it was read from.
    pub fn into_owned(self) -> Value<String> {
        match self {
            Value::Null => Value::Null,
            Value::Bool(b) => Value::Bool(b),
            Value::Num(n) => Value::Num(n),
            Value::Str(s) => Value::Str(s.into_owned()),
        }
    }
}

/// One flat object as read: its fields in document order. Escape-free
/// keys and strings borrow from the input.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Row<'a> {
    /// `(key, value)` pairs in document order.
    pub fields: Vec<(Cow<'a, str>, Value<Cow<'a, str>>)>,
}

impl<'a> Row<'a> {
    /// The first value under `key`.
    pub fn get(&self, key: &str) -> Option<&Value<Cow<'a, str>>> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The string value under `key`.
    ///
    /// # Errors
    ///
    /// Names the key when it is missing or its value is not a string.
    pub fn get_str(&self, key: &str) -> Result<&str, String> {
        self.get(key).and_then(Value::as_str).ok_or_else(|| format!("row has no string field {key:?}"))
    }
}

/// Why a document is not a JSON array of flat objects, and the byte
/// offset where the reader found out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the text.
    pub offset: usize,
    /// What is wrong there.
    pub kind: JsonErrorKind,
}

/// What [`JsonError`] found wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// Not the byte the grammar requires here: `[`, `{`, `:` or `"`.
    Expected(char),
    /// Neither `,` nor the container's closing bracket, given here.
    ExpectedCommaOr(char),
    /// An object or array as a value: rows are flat.
    Nested,
    /// The text ends where a value should start.
    UnexpectedEnd,
    /// A bare word other than `null`, `true` or `false`.
    BadLiteral,
    /// A number that does not parse, or does not fit a finite `f64`.
    BadNumber,
    /// A raw control character inside a string.
    ControlCharacter,
    /// A string with no closing quote; the offset is its first byte.
    UnterminatedString,
    /// An escape JSON does not define, or `\u` without four hex digits.
    BadEscape,
    /// Text after the array's closing bracket.
    TrailingInput,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            JsonErrorKind::Expected(c) => write!(f, "expected '{c}'"),
            JsonErrorKind::ExpectedCommaOr(c) => write!(f, "expected ',' or '{c}'"),
            JsonErrorKind::Nested => write!(f, "nested container (flat rows only)"),
            JsonErrorKind::UnexpectedEnd => write!(f, "unexpected end of input"),
            JsonErrorKind::BadLiteral => write!(f, "bad literal"),
            JsonErrorKind::BadNumber => write!(f, "bad number"),
            JsonErrorKind::ControlCharacter => write!(f, "raw control character in string"),
            JsonErrorKind::UnterminatedString => write!(f, "unterminated string"),
            JsonErrorKind::BadEscape => write!(f, "bad escape"),
            JsonErrorKind::TrailingInput => write!(f, "trailing input"),
        }?;
        write!(f, " at byte {}", self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Reads a JSON array of flat objects — the shape [`render_array`] writes.
/// Nested containers are an error: every reader in the workspace wants
/// flat rows, and anything else means the input is not one of ours.
/// Total over any input: malformed text is an `Err`, never a panic. This
/// collects a [`RowReader`]; read large documents through it directly.
///
/// # Errors
///
/// Returns the first [`JsonError`].
pub fn read_rows(text: &str) -> Result<Vec<Row<'_>>, JsonError> {
    let mut reader = RowReader::new(text)?;
    let mut rows = Vec::new();
    while let Some(row) = reader.next_row()? {
        rows.push(row.clone());
    }
    Ok(rows)
}

/// The workspace's one flat-row parser: visits the rows of a JSON array of
/// flat objects in document order, refilling one [`Row`] buffer per row,
/// so a caller that consumes each row as it is read never holds the whole
/// document's rows at once.
pub struct RowReader<'a> {
    r: Reader<'a>,
    row: Row<'a>,
    state: State,
}

/// Where a [`RowReader`] stands in the array.
enum State {
    /// After the `[`: a row or the closing `]`.
    First,
    /// After a `,`: a row.
    Next,
    /// After the closing `]` and the trailing whitespace.
    Done,
}

impl<'a> RowReader<'a> {
    /// A reader positioned after the array's opening bracket.
    ///
    /// # Errors
    ///
    /// Returns [`JsonErrorKind::Expected`] when `text` does not open an
    /// array.
    pub fn new(text: &'a str) -> Result<RowReader<'a>, JsonError> {
        let mut r = Reader { text, pos: 0 };
        r.ws();
        r.expect(b'[')?;
        Ok(RowReader { r, row: Row::default(), state: State::First })
    }

    /// The next row, or `None` after the closing bracket. The row borrows
    /// the reader's buffer, which the next call overwrites.
    ///
    /// # Errors
    ///
    /// Returns the first [`JsonError`]. After an error the reader yields
    /// no more rows.
    pub fn next_row(&mut self) -> Result<Option<&Row<'a>>, JsonError> {
        match self.advance() {
            Ok(read) => Ok(read.then_some(&self.row)),
            Err(e) => {
                self.state = State::Done;
                Err(e)
            }
        }
    }

    /// The row [`RowReader::next_row`] last returned, for a caller that
    /// looks at a row before it reads it. Empty before the first row.
    pub fn row(&self) -> &Row<'a> {
        &self.row
    }

    /// Reads the next row into the buffer; `false` at the end.
    fn advance(&mut self) -> Result<bool, JsonError> {
        self.r.ws();
        match self.state {
            State::Done => return Ok(false),
            State::First if self.r.eat(b']') => return self.close().map(|()| false),
            State::First | State::Next => {}
        }
        self.r.object(&mut self.row.fields)?;
        self.r.ws();
        if self.r.eat(b']') {
            self.close()?;
        } else {
            self.r.separator(b']')?;
            self.state = State::Next;
        }
        Ok(true)
    }

    /// Ends the array: only whitespace may follow the closing bracket.
    fn close(&mut self) -> Result<(), JsonError> {
        self.r.ws();
        if self.r.pos != self.r.text.len() {
            return Err(self.r.error(JsonErrorKind::TrailingInput));
        }
        self.state = State::Done;
        Ok(())
    }
}

struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    /// `kind` at the current offset.
    fn error(&self, kind: JsonErrorKind) -> JsonError {
        JsonError { offset: self.pos, kind }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn ws(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.error(JsonErrorKind::Expected(char::from(b))))
        }
    }

    /// The `,` between container items, or an error naming the `close`
    /// that would also have been accepted.
    fn separator(&mut self, close: u8) -> Result<(), JsonError> {
        if self.eat(b',') {
            Ok(())
        } else {
            Err(self.error(JsonErrorKind::ExpectedCommaOr(char::from(close))))
        }
    }

    /// One object's fields, into `fields` (cleared first).
    fn object(&mut self, fields: &mut Vec<(Cow<'a, str>, Value<Cow<'a, str>>)>) -> Result<(), JsonError> {
        self.expect(b'{')?;
        fields.clear();
        self.ws();
        if !self.eat(b'}') {
            loop {
                self.ws();
                let key = self.string()?;
                self.ws();
                self.expect(b':')?;
                self.ws();
                fields.push((key, self.scalar()?));
                self.ws();
                if self.eat(b'}') {
                    break;
                }
                self.separator(b'}')?;
            }
        }
        Ok(())
    }

    fn scalar(&mut self) -> Result<Value<Cow<'a, str>>, JsonError> {
        match self.peek() {
            Some(b'"') => self.string().map(Value::Str),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'{' | b'[') => Err(self.error(JsonErrorKind::Nested)),
            Some(_) => self.number(),
            None => Err(self.error(JsonErrorKind::UnexpectedEnd)),
        }
    }

    fn literal(&mut self, word: &str, value: Value<Cow<'a, str>>) -> Result<Value<Cow<'a, str>>, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(JsonErrorKind::BadLiteral))
        }
    }

    fn number(&mut self) -> Result<Value<Cow<'a, str>>, JsonError> {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Value::Num(n)),
            _ => Err(JsonError { offset: start, kind: JsonErrorKind::BadNumber }),
        }
    }

    /// A string, borrowed from the input unless it holds an escape.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let start = self.pos;
        while let Some(b) = self.peek() {
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
                }
                b'\\' => return self.unescape(start).map(Cow::Owned),
                0..=0x1f => return Err(self.error(JsonErrorKind::ControlCharacter)),
                _ => self.pos += 1,
            }
        }
        Err(JsonError { offset: start, kind: JsonErrorKind::UnterminatedString })
    }

    /// The rest of a string whose first escape is at `self.pos`; `start`
    /// is its first byte. Every stop is at an ASCII byte, so the slices
    /// below always fall on char boundaries.
    fn unescape(&mut self, start: usize) -> Result<String, JsonError> {
        let mut out = self.text[start..self.pos].to_string();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let at = self.pos;
                    self.pos += 2;
                    let bad_escape = JsonError { offset: at, kind: JsonErrorKind::BadEscape };
                    out.push(match self.text.as_bytes().get(at + 1) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            let hex = self
                                .text
                                .get(self.pos..self.pos + 4)
                                .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                                .ok_or(bad_escape)?;
                            self.pos += 4;
                            // Lone surrogates have no char; the writer never emits them.
                            u32::from_str_radix(hex, 16).ok().and_then(char::from_u32).unwrap_or('\u{fffd}')
                        }
                        _ => return Err(bad_escape),
                    });
                }
                Some(0..=0x1f) => return Err(self.error(JsonErrorKind::ControlCharacter)),
                Some(_) => {
                    let run = self.pos;
                    while self.peek().is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[run..self.pos]);
                }
                None => return Err(JsonError { offset: start, kind: JsonErrorKind::UnterminatedString }),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_objects_render_flat_and_escaped() {
        let o = JsonObject::new()
            .str("name", "a \"quoted\" label")
            .num("rate", 2.5)
            .num("missing", f64::NAN)
            .int("count", 7);
        assert_eq!(
            o.render(),
            "{\"name\": \"a \\\"quoted\\\" label\", \"rate\": 2.5, \"missing\": null, \"count\": 7}"
        );
        let arr = render_array(&[o.clone(), o]);
        assert!(arr.starts_with("[\n") && arr.ends_with("\n]\n"));
        assert_eq!(arr.matches("\"count\": 7").count(), 2);
    }

    #[test]
    fn json_strings_escape_control_characters() {
        let o = JsonObject::new().str("label", "a\nb\tc\rd\u{1}e");
        assert_eq!(o.render(), "{\"label\": \"a\\nb\\tc\\rd\\u0001e\"}");
    }

    #[test]
    fn null_extend_and_keys_compose_rows() {
        let prefix = JsonObject::new().str("experiment", "serving");
        let row = prefix.extend(JsonObject::new().null("placement").int("wafers", 4));
        assert_eq!(row.render(), "{\"experiment\": \"serving\", \"placement\": null, \"wafers\": 4}");
        assert_eq!(row.keys(), vec!["experiment", "placement", "wafers"]);
    }

    #[test]
    fn reader_borrows_plain_strings_and_unescapes_the_rest() {
        let text =
            render_array(&[JsonObject::new().str("plain", "abc").str("esc", "a\"b\nc\u{1}").num("x", 0.5)]);
        let rows = read_rows(&text).unwrap();
        assert_eq!(rows.len(), 1);
        assert!(matches!(rows[0].get("plain"), Some(Value::Str(Cow::Borrowed("abc")))));
        assert!(matches!(rows[0].get("esc"), Some(Value::Str(Cow::Owned(s))) if s == "a\"b\nc\u{1}"));
        assert_eq!(rows[0].get("x").and_then(Value::as_num), Some(0.5));
        assert_eq!(rows[0].get_str("plain"), Ok("abc"));
        assert!(rows[0].get_str("x").unwrap_err().contains("\"x\""));
        assert!(rows[0].get_str("missing").is_err());
    }

    #[test]
    fn reader_rejects_what_the_writer_never_emits() {
        assert_eq!(read_rows("[]").unwrap(), Vec::new());
        assert_eq!(read_rows(" [ {} , {\"a\": true} ]\n").unwrap().len(), 2);
        use JsonErrorKind::*;
        for (bad, offset, kind) in [
            ("", 0, Expected('[')),
            ("[", 1, Expected('{')),
            ("[{}", 3, ExpectedCommaOr(']')),
            ("[{},]", 4, Expected('{')),
            ("[{\"a\" 1}]", 6, Expected(':')),
            ("[{\"a\": 1,}]", 9, Expected('"')),
            ("[{\"a\": {\"b\": 1}}]", 7, Nested),
            ("[{\"a\": [1]}]", 7, Nested),
            ("[{\"a\": 1e999}]", 7, BadNumber),
            ("[{\"a\": nul}]", 7, BadLiteral),
            ("[{\"a\": \"x\\q\"}]", 9, BadEscape),
            ("[{\"a\": \"\\u12\"}]", 8, BadEscape),
            ("[{\"a\": \"raw\ncontrol\"}]", 11, ControlCharacter),
            ("[{\"a\": \"open}]", 8, UnterminatedString),
            ("[{\"a\": ", 7, UnexpectedEnd),
            ("[] trailing", 3, TrailingInput),
        ] {
            assert_eq!(read_rows(bad), Err(JsonError { offset, kind }), "{bad:?} must not parse");
        }
    }

    #[test]
    fn the_row_reader_visits_rows_in_order_through_one_buffer() {
        let text = "[{\"a\": \"x\", \"b\": 1}, {}, {\"c\": null}]";
        let mut reader = RowReader::new(text).unwrap();
        let mut seen = Vec::new();
        while let Some(row) = reader.next_row().unwrap() {
            seen.push(row.fields.iter().map(|(k, _)| k.to_string()).collect::<Vec<_>>());
            assert_eq!(reader.row().fields.len(), seen[seen.len() - 1].len(), "row() is the row just read");
        }
        assert_eq!(seen, [vec!["a", "b"], vec![], vec!["c"]]);
        assert_eq!(reader.next_row(), Ok(None), "the reader stays at the end");
        // An error ends the rows; the rows before it were read.
        let mut reader = RowReader::new("[{\"a\": 1}, {\"b\": nul}, {}]").unwrap();
        assert!(reader.next_row().unwrap().is_some());
        assert!(reader.next_row().is_err());
        assert_eq!(reader.next_row(), Ok(None));
        assert_eq!(
            RowReader::new("{}").err(),
            Some(JsonError { offset: 0, kind: JsonErrorKind::Expected('[') }),
            "a document is an array"
        );
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors_and_streams() {
        assert_eq!(fnv1a(b""), FNV1A_OFFSET);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a_extend(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
    }

    #[test]
    fn nested_objects_render_inline() {
        let args = JsonObject::new().int("tokens", 64).str("phase", "prefill");
        let o = JsonObject::new().str("ph", "X").obj("args", &args);
        assert_eq!(o.render(), "{\"ph\": \"X\", \"args\": {\"tokens\": 64, \"phase\": \"prefill\"}}");
    }
}
