//! The workspace's one JSON layer (it is hermetic: no serde). Every
//! document it publishes — trace bundles, `BENCH_*.json`, lint/SARIF, every
//! `serve` wire line and persisted `spec.json`/`result.json` — is written by
//! [`Writer`]; everything it reads back enters through [`parse`], into a
//! [`Value`] whose object keys keep insertion order. It lives in `gpu-types`
//! because every crate already depends on that; `gpu_trace::json` is a
//! re-export.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Appends `s` to `out` as a JSON string literal (quotes included).
pub fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// How a [`Writer`] lays its document out: fixed per document by the
/// constructor the call site picks, never an option.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layout {
    Compact,
    Indented,
    Rows,
}

/// A streaming JSON writer over one `String`.
///
/// Separators, indentation, string escaping and bracket matching are the
/// writer's; call sites name keys and hand over values ([`ToJson`]).
/// Several top-level values in one writer come out one per line (JSON
/// Lines). The writer does not check that object members have keys — the
/// round-trip tests of each emitter do.
#[derive(Debug)]
pub struct Writer {
    out: String,
    layout: Layout,
    /// Open containers, innermost in bit 0; a set bit is an array. Its
    /// width is why documents nest at most [`MAX_DEPTH`] deep.
    open: u128,
    depth: usize,
    pos: Pos,
}

/// Where the next item lands relative to what was written last.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pos {
    /// First in its container (or in the output): no separator.
    First,
    /// Right after its key: nothing at all.
    AfterKey,
    /// After a sibling: a comma (a newline between top-level documents).
    Next,
}

impl Writer {
    fn new(layout: Layout) -> Self {
        Writer {
            out: String::new(),
            layout,
            open: 0,
            depth: 0,
            pos: Pos::First,
        }
    }

    /// No whitespace at all: wire lines, persisted `spec.json`/`result.json`,
    /// JSONL rows, `lint --json` and SARIF. These bytes are compared and
    /// re-read across builds, so this layout never changes.
    pub fn compact() -> Self {
        Writer::new(Layout::Compact)
    }

    /// One member per line, two-space indentation, a trailing newline: the
    /// documents people read and commit (`BENCH_*.json`, `profile.json`).
    pub fn indented() -> Self {
        Writer::new(Layout::Indented)
    }

    /// Compact, except that each element of a container directly inside
    /// the root starts on its own line, and the document ends with a
    /// newline — the Chrome trace-event framing (`{"traceEvents":[` + one
    /// event per line + `]}`), so a large trace still diffs by line.
    pub fn rows() -> Self {
        Writer::new(Layout::Rows)
    }

    /// Writes whatever separates the next item from the previous one.
    fn item(&mut self) {
        match std::mem::replace(&mut self.pos, Pos::Next) {
            Pos::AfterKey => return,
            Pos::First => {}
            Pos::Next => self.out.push(if self.depth == 0 { '\n' } else { ',' }),
        }
        match self.layout {
            Layout::Indented if self.depth > 0 => self.newline(),
            Layout::Rows if self.depth == 2 => self.out.push('\n'),
            _ => {}
        }
    }

    fn newline(&mut self) {
        self.out.push('\n');
        for _ in 0..self.depth {
            self.out.push_str("  ");
        }
    }

    fn begin(&mut self, array: bool) -> &mut Self {
        assert!(self.depth < MAX_DEPTH, "JSON nested past MAX_DEPTH");
        self.item();
        self.out.push(if array { '[' } else { '{' });
        self.open = self.open << 1 | u128::from(array);
        self.depth += 1;
        self.pos = Pos::First;
        self
    }

    /// Opens an object (as a value, an array element or a document).
    pub fn object(&mut self) -> &mut Self {
        self.begin(false)
    }

    /// Opens an array.
    pub fn array(&mut self) -> &mut Self {
        self.begin(true)
    }

    /// Closes the innermost open object or array.
    pub fn end(&mut self) -> &mut Self {
        self.depth = self.depth.checked_sub(1).expect("end() with nothing open");
        match self.layout {
            Layout::Indented if self.pos != Pos::First => self.newline(),
            Layout::Rows if self.depth == 1 => self.out.push('\n'),
            _ => {}
        }
        self.out.push(if self.open & 1 == 1 { ']' } else { '}' });
        self.open >>= 1;
        self.pos = Pos::Next;
        self
    }

    /// Writes an object key; the next value written belongs to it.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.item();
        escape_into(&mut self.out, key);
        self.out.push(':');
        if self.layout == Layout::Indented {
            self.out.push(' ');
        }
        self.pos = Pos::AfterKey;
        self
    }

    /// Writes one value: an array element, a key's value or a document.
    pub fn value<T: ToJson>(&mut self, value: T) -> &mut Self {
        value.write_json(self);
        self
    }

    /// Writes one object member.
    pub fn field<T: ToJson>(&mut self, key: &str, value: T) -> &mut Self {
        self.key(key).value(value)
    }

    /// Moves the text written so far into `out` and goes on with an empty
    /// buffer: what is open stays open, so everything drained and then
    /// [`Writer::finish`]'s text concatenate to the document. A large
    /// document streams to a file this way instead of being held whole.
    ///
    /// # Errors
    ///
    /// Propagates `out`'s write error; the drained text is then lost.
    pub fn drain_into(&mut self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        let written = out.write_all(self.out.as_bytes());
        self.out.clear();
        written
    }

    /// Closes whatever is still open and returns the text. The file
    /// layouts end with a newline; compact text does not (line-oriented
    /// callers add their own).
    pub fn finish(mut self) -> String {
        while self.depth > 0 {
            self.end();
        }
        if self.layout != Layout::Compact {
            self.out.push('\n');
        }
        self.out
    }
}

/// A value a [`Writer`] can emit. Scalars are implemented here; a struct
/// with one JSON shape (`CacheStats`, say) implements it once, over the
/// writer's public methods, and is then a `field` like any other.
pub trait ToJson {
    /// Writes `self` as exactly one JSON value.
    fn write_json(&self, w: &mut Writer);
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, w: &mut Writer) {
        (**self).write_json(w);
    }
}

macro_rules! display_to_json {
    ($($t:ty)*) => {$(
        impl ToJson for $t {
            fn write_json(&self, w: &mut Writer) {
                w.item();
                let _ = write!(w.out, "{self}");
            }
        }
    )*};
}
display_to_json!(bool u32 u64 usize i64);

impl ToJson for str {
    fn write_json(&self, w: &mut Writer) {
        w.item();
        escape_into(&mut w.out, self);
    }
}

impl ToJson for String {
    fn write_json(&self, w: &mut Writer) {
        self.as_str().write_json(w);
    }
}

/// `None` is `null`.
impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, w: &mut Writer) {
        match self {
            Some(v) => v.write_json(w),
            None => Raw("null").write_json(w),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, w: &mut Writer) {
        w.array();
        for v in self {
            v.write_json(w);
        }
        w.end();
    }
}

/// JSON has no spelling for NaN or the infinities; they become `null`.
fn number(w: &mut Writer, x: f64, decimals: Option<usize>) {
    w.item();
    let _ = match decimals {
        _ if !x.is_finite() => write!(w.out, "null"),
        Some(d) => write!(w.out, "{x:.d$}"),
        None => write!(w.out, "{x}"),
    };
}

/// Shortest text that reads back as the same `f64` (Rust's `Display`).
impl ToJson for f64 {
    fn write_json(&self, w: &mut Writer) {
        number(w, *self, None);
    }
}

/// An `f64` with a fixed number of decimals (`Fixed(x, 6)` is `{x:.6}`),
/// for host timings where the digits past the resolution are noise.
#[derive(Debug, Clone, Copy)]
pub struct Fixed(pub f64, pub usize);

impl ToJson for Fixed {
    fn write_json(&self, w: &mut Writer) {
        number(w, self.0, Some(self.1));
    }
}

/// Text spliced in verbatim as one value: JSON the caller already holds
/// (a client's own `--spec` text, a finished sub-document). The writer
/// does not look inside it.
#[derive(Debug, Clone, Copy)]
pub struct Raw<'a>(pub &'a str);

impl ToJson for Raw<'_> {
    fn write_json(&self, w: &mut Writer) {
        w.item();
        w.out.push_str(self.0);
    }
}

/// Deepest container nesting [`parse`] accepts and [`Writer`] emits. The
/// parser recurses once per level, so without a bound a 10 KB line of `[`
/// overflows the stack of whichever thread read it; the deepest document
/// the workspace itself emits (SARIF) nests 9 levels.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document. Trailing whitespace is allowed;
/// trailing garbage, and nesting deeper than [`MAX_DEPTH`], is an error.
pub fn parse(input: &str) -> Result<Value, String> {
    let bytes = input.as_bytes();
    let mut p = Parser {
        bytes,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = match open {
                    b'{' => self.object(),
                    _ => self.array(),
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a \uXXXX low half must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err("lone high surrogate".into());
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err("lone high surrogate".into());
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("invalid low surrogate".into());
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp).ok_or("invalid surrogate pair")?
                            } else {
                                char::from_u32(hi).ok_or("invalid \\u escape")?
                            };
                            out.push(c);
                            // hex4 leaves pos past the digits; skip the
                            // shared `pos += 1` below.
                            continue;
                        }
                        other => {
                            return Err(format!("bad escape {:?}", other.map(|c| c as char)));
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume the whole run of plain characters up to the
                    // next quote or escape in one slice (input is a &str,
                    // so the run is valid UTF-8).
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|e| e.to_string())?;
                    out.push_str(s);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".into());
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end]).map_err(|e| e.to_string())?;
        let v = u32::from_str_radix(s, 16).map_err(|e| e.to_string())?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        s.parse::<f64>()
            .map(Value::Num)
            .map_err(|e| format!("bad number {s:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn parses_nested_document() {
        let v =
            parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": true, "d": null}, "e": "x\ny"}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_num(),
            Some(-300.0)
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Value::Bool(true)));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x\ny"));
    }

    #[test]
    fn escape_round_trips() {
        let original = "a\"b\\c\nd\te\u{1}f → 🚀";
        let mut doc = String::from("{\"k\": ");
        escape_into(&mut doc, original);
        doc.push('}');
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some(original));
    }

    #[test]
    fn surrogate_pairs_decode() {
        let raw = parse(r#""😀""#).unwrap();
        assert_eq!(raw.as_str(), Some("😀"));
        let escaped = parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(escaped.as_str(), Some("😀"));
        assert!(parse("\"\\ud83d\"").is_err());
    }

    /// Test-only: a parsed value written back out, for round trips.
    impl ToJson for Value {
        fn write_json(&self, w: &mut Writer) {
            match self {
                Value::Null => w.value(None::<bool>),
                Value::Bool(b) => w.value(*b),
                Value::Num(n) => w.value(*n),
                Value::Str(s) => w.value(s),
                Value::Arr(items) => w.value(&items[..]),
                Value::Obj(pairs) => {
                    w.object();
                    for (k, v) in pairs {
                        w.field(k, v);
                    }
                    w.end()
                }
            };
        }
    }

    /// Strings that stress the escaper: controls, quotes, backslashes,
    /// the JS line separators, astral characters.
    fn random_string(rng: &mut Rng) -> String {
        const SPECIAL: [char; 10] = [
            '"', '\\', '\n', '\t', '\u{0}', '\u{1f}', '\u{7f}', '\u{2028}', '\u{2029}', '🚀',
        ];
        (0..rng.gen_range_usize(0, 12))
            .map(|_| match rng.gen_range_u32(0, 4) {
                0 => SPECIAL[rng.gen_range_usize(0, SPECIAL.len())],
                1 => char::from_u32(rng.gen_range_u32(0, 0x20)).unwrap(),
                2 => char::from_u32(rng.gen_range_u32(0x1_0000, 0x1_1000)).unwrap(),
                _ => char::from_u32(rng.gen_range_u32(0x20, 0x7f)).unwrap(),
            })
            .collect()
    }

    fn random_value(rng: &mut Rng, depth: usize) -> Value {
        match rng.gen_range_u32(0, if depth == 0 { 5 } else { 7 }) {
            0 => Value::Null,
            1 => Value::Bool(rng.gen_bool()),
            2 => Value::Num(rng.gen_range_i64(-1 << 53, 1 << 53) as f64),
            3 => Value::Num((rng.gen_f64() - 0.5) * 1e6),
            4 => Value::Str(random_string(rng)),
            5 => Value::Arr(
                (0..rng.gen_range_usize(0, 4))
                    .map(|_| random_value(rng, depth - 1))
                    .collect(),
            ),
            _ => Value::Obj(
                (0..rng.gen_range_usize(0, 4))
                    .map(|_| (random_string(rng), random_value(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    #[test]
    fn writer_output_parses_back_in_every_layout() {
        let mut rng = Rng::seed_from_u64(0x6a50_4e21);
        for _ in 0..300 {
            let doc = random_value(&mut rng, 4);
            for mut w in [Writer::compact(), Writer::indented(), Writer::rows()] {
                w.value(&doc);
                let text = w.finish();
                assert_eq!(parse(&text).as_ref(), Ok(&doc), "{text}");
            }
        }
    }

    fn sample(mut w: Writer) -> String {
        w.object().field("a", 1u32).key("b").array();
        w.object().field("c", "x\"y").field("d", None::<u64>).end();
        w.value(-2i64).value(true).end();
        w.key("e").object().end().key("f").array();
        w.finish()
    }

    #[test]
    fn layouts_are_pinned_byte_for_byte() {
        assert_eq!(
            sample(Writer::compact()),
            r#"{"a":1,"b":[{"c":"x\"y","d":null},-2,true],"e":{},"f":[]}"#
        );
        assert_eq!(
            sample(Writer::rows()),
            "{\"a\":1,\"b\":[\n{\"c\":\"x\\\"y\",\"d\":null},\n-2,\ntrue\n],\"e\":{\n},\"f\":[\n]}\n"
        );
        assert_eq!(
            sample(Writer::indented()),
            "{\n  \"a\": 1,\n  \"b\": [\n    {\n      \"c\": \"x\\\"y\",\n      \"d\": null\n    },\n    -2,\n    true\n  ],\n  \"e\": {},\n  \"f\": []\n}\n"
        );
    }

    #[test]
    fn top_level_values_are_json_lines_and_finish_closes_what_is_open() {
        let mut w = Writer::compact();
        w.object().field("n", 1u64).end();
        w.object().key("open").array().value("left");
        assert_eq!(w.finish(), "{\"n\":1}\n{\"open\":[\"left\"]}");
        assert_eq!(Writer::compact().finish(), "");
    }

    #[test]
    fn floats_are_shortest_fixed_or_null() {
        let mut w = Writer::compact();
        w.array()
            .value(45.0)
            .value(0.1 + 0.2)
            .value(1e21)
            .value(-0.0);
        w.value(Fixed(1.0 / 3.0, 6)).value(Fixed(103_832.4, 0));
        w.value(f64::NAN).value(Fixed(f64::INFINITY, 2));
        w.value(Raw("{\"spliced\":true}"));
        let text = w.finish();
        assert_eq!(
            text,
            "[45,0.30000000000000004,1000000000000000000000,-0,\
             0.333333,103832,null,null,{\"spliced\":true}]"
        );
        parse(&text).unwrap();
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1);
        assert!(parse(&objects).unwrap_err().contains("nesting deeper"));
        // The writer can produce, and the parser read back, exactly the
        // deepest document the pair agrees on.
        let mut w = Writer::compact();
        for _ in 0..MAX_DEPTH {
            w.array();
        }
        assert_eq!(w.finish(), nested(MAX_DEPTH));
    }

    #[test]
    fn a_megabyte_of_open_brackets_is_an_error_not_a_stack_overflow() {
        // The daemon reads request lines on threads with the default 2 MiB
        // stack; before the bound this recursion overflowed it at ~10 KB.
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                assert!(parse(&"[".repeat(1 << 20)).is_err());
                assert!(parse(&"{\"a\":".repeat(1 << 20)).is_err());
            })
            .unwrap()
            .join()
            .expect("parser overflowed its stack");
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("{} x").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse(r#"{"a"}"#).is_err());
    }
}
