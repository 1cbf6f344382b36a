//! A minimal, dependency-free JSON document model, writer and parser.
//!
//! The build environment of this repository cannot reach crates.io, so the
//! spec layer carries its own JSON reader/writer instead of `serde_json`.
//! The surface is deliberately serde-shaped — [`Json`] mirrors
//! `serde_json::Value`, and spec types implement [`ToJson`] / [`FromJson`]
//! the way they would derive `Serialize` / `Deserialize` — so a future PR
//! that restores the real dependency only swaps trait impls, not call
//! sites.
//!
//! Numbers round-trip exactly: floats are written with Rust's
//! shortest-round-trip formatting (`{:?}`; `null` for NaN, `±1e999` for
//! the infinities) and read back with `str::parse::<f64>`, and integers
//! are kept in a separate lossless variant, which is what makes
//! "serialize → deserialize → run" bit-identical for every spec in this
//! workspace.
//!
//! # Writing
//!
//! A type describes its document once, in [`ToJson::write_json`], as a
//! sequence of calls on a [`JsonWriter`]: open an object, write each field,
//! close it. The writer has two sinks behind one concrete type:
//!
//! * the **text sink** appends the pretty form (two-space indentation,
//!   `"key": value`, `[]`/`{}` for empty containers) straight into a
//!   `String` — what [`ToJson::to_json_string`] returns, and what every
//!   report, grid document, emitted spec and store entry is written with;
//! * the **tree sink** assembles a [`Json`] value — what
//!   [`ToJson::to_json`] returns, for callers that edit or inspect a
//!   document before writing it.
//!
//! [`Json`] itself implements [`ToJson`] by walking its tree, so
//! [`Json::pretty`] and the text sink are one formatter and give the same
//! bytes for the same document. The text sink formats numbers in place
//! (`fmt::Write` into the output), copies strings that need no escaping in
//! one piece, and slices indentation from a static run of spaces: it makes
//! no allocation of its own beyond growing the output.
//!
//! # Parsing
//!
//! [`Json::parse`] is the only parser. It gathers the children of every
//! open array and object on two stacks reused for the whole document and
//! moves each finished container's children into a `Vec` of exactly their
//! number, so a container costs one allocation; a string without escapes
//! is copied out of the input in one exact-size allocation.
//!
//! A key repeated within one object is a parse error naming the key, line
//! and column: a document that says two things about one field has no
//! single meaning, and silently keeping either would run something other
//! than what was written. Objects of up to 16 members look for a repeat by
//! scanning their keys; larger ones keep a sorted set of them, so an object
//! of `n` keys costs `O(n log n)` rather than `O(n²)`.
//!
//! The parser caps nesting at [`MAX_DEPTH`] arrays/objects. Deeper input
//! is rejected with a parse error (line and column) instead of recursing
//! until the stack overflows; nothing this workspace writes nests deeper
//! than about ten levels.

use crate::error::SpecError;
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// The deepest array/object nesting [`Json::parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// Objects with more members than this find repeated keys in a sorted set
/// instead of by a scan.
const SCANNED_MEMBERS: usize = 16;

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written with a fraction or exponent (`1.5`, `2e-3`).
    Float(f64),
    /// A number written as a plain integer literal (lossless up to i128).
    Int(i128),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Json)>),
}

/// Types that can serialize themselves as a JSON document.
pub trait ToJson {
    /// Describes `self` to `w`: one value, usually an object written field
    /// by field.
    fn write_json(&self, w: &mut JsonWriter<'_>);

    /// The document as a tree.
    fn to_json(&self) -> Json {
        let mut tree = TreeSink::default();
        self.write_json(&mut JsonWriter {
            sink: Sink::Tree(&mut tree),
        });
        tree.root.unwrap_or(Json::Null)
    }

    /// The document pretty-printed with two-space indentation and a
    /// trailing newline — the bytes `self.to_json().pretty()` gives,
    /// written without building the tree.
    fn to_json_string(&self) -> String {
        pretty(|w| self.write_json(w))
    }
}

/// Types that can deserialize themselves from a [`Json`] document.
pub trait FromJson: Sized {
    /// Deserializes a value, validating as it goes.
    fn from_json(json: &Json) -> Result<Self, SpecError>;
}

/// The pretty text of whatever `body` writes (one value), with the
/// trailing newline: how a document that is not one [`ToJson`] value,
/// such as an array of reports, is written without a tree.
pub fn pretty(body: impl FnOnce(&mut JsonWriter<'_>)) -> String {
    let mut out = String::with_capacity(1024);
    let mut w = JsonWriter {
        sink: Sink::Text(TextSink {
            out: &mut out,
            depth: 0,
            empty: false,
            keyed: false,
        }),
    };
    body(&mut w);
    out.push('\n');
    out
}

/// The one JSON writer: every [`ToJson`] impl describes its document
/// through it, and its sink either appends pretty text or builds a [`Json`]
/// tree (see the module docs).
///
/// A value is a scalar call ([`JsonWriter::float`], [`JsonWriter::str`],
/// ...), a container ([`JsonWriter::object`], [`JsonWriter::array`]) or
/// another [`ToJson`] value's `write_json`. Inside an object each value is
/// preceded by its [`JsonWriter::key`]; [`JsonWriter::field`] writes both.
pub struct JsonWriter<'a> {
    sink: Sink<'a>,
}

enum Sink<'a> {
    Text(TextSink<'a>),
    Tree(&'a mut TreeSink),
}

/// Pretty text appended to a caller's buffer.
struct TextSink<'a> {
    out: &'a mut String,
    /// Containers open around the next value.
    depth: usize,
    /// The innermost open container has no member yet.
    empty: bool,
    /// A key was just written: its value follows on the same line.
    keyed: bool,
}

impl TextSink<'_> {
    /// What precedes a value: nothing after a key or at the top level,
    /// otherwise the separator, a newline and the indentation.
    fn member(&mut self) {
        if self.keyed {
            self.keyed = false;
        } else if self.depth > 0 {
            self.out.push_str(if self.empty { "\n" } else { ",\n" });
            self.empty = false;
            push_indent(self.out, self.depth);
        }
    }

    fn open(&mut self, bracket: char) {
        self.member();
        self.out.push(bracket);
        self.depth += 1;
        self.empty = true;
    }

    fn close(&mut self, bracket: char) {
        self.depth -= 1;
        if !self.empty {
            self.out.push('\n');
            push_indent(self.out, self.depth);
        }
        self.out.push(bracket);
        self.empty = false;
    }
}

/// A tree under construction. Like the parser, it gathers the children
/// of every open container on two shared stacks and moves them into an
/// exact-size `Vec` when the container closes.
#[derive(Default)]
struct TreeSink {
    /// The open containers, innermost last.
    open: Vec<Open>,
    /// The items of every open array, innermost array's last.
    items: Vec<Json>,
    /// The members of every open object, innermost object's last; the
    /// newest member's value is a placeholder from its key until the value
    /// is written.
    members: Vec<(String, Json)>,
    root: Option<Json>,
}

/// An open container of a [`TreeSink`], with where its children start.
enum Open {
    Array(usize),
    Object(usize),
}

impl TreeSink {
    /// Places a finished value into the innermost open container.
    fn put(&mut self, value: Json) {
        match self.open.last() {
            None => self.root = Some(value),
            Some(Open::Array(_)) => self.items.push(value),
            Some(Open::Object(start)) => match self.members.get_mut(*start..) {
                Some([.., (_, slot)]) => *slot = value,
                _ => debug_assert!(false, "an object member written without its key"),
            },
        }
    }
}

impl JsonWriter<'_> {
    /// `null`.
    pub fn null(&mut self) {
        match &mut self.sink {
            Sink::Text(t) => {
                t.member();
                t.out.push_str("null");
            }
            Sink::Tree(t) => t.put(Json::Null),
        }
    }

    /// `true` / `false`.
    pub fn bool(&mut self, b: bool) {
        match &mut self.sink {
            Sink::Text(t) => {
                t.member();
                t.out.push_str(if b { "true" } else { "false" });
            }
            Sink::Tree(t) => t.put(Json::Bool(b)),
        }
    }

    /// A float, written losslessly (see [`Json::Float`]).
    pub fn float(&mut self, x: f64) {
        match &mut self.sink {
            Sink::Text(t) => {
                t.member();
                write_float(t.out, x);
            }
            Sink::Tree(t) => t.put(Json::Float(x)),
        }
    }

    /// An unsigned integer.
    pub fn uint(&mut self, x: u64) {
        match &mut self.sink {
            Sink::Text(t) => {
                t.member();
                // Writing into a `String` cannot fail.
                let _ = write!(t.out, "{x}");
            }
            Sink::Tree(t) => t.put(Json::Int(i128::from(x))),
        }
    }

    /// An integer of the lossless [`Json::Int`] range.
    pub fn int(&mut self, i: i128) {
        match &mut self.sink {
            Sink::Text(t) => {
                t.member();
                write_int(t.out, i);
            }
            Sink::Tree(t) => t.put(Json::Int(i)),
        }
    }

    /// A string.
    pub fn str(&mut self, s: &str) {
        match &mut self.sink {
            Sink::Text(t) => {
                t.member();
                write_string(t.out, s);
            }
            Sink::Tree(t) => t.put(Json::Str(s.to_owned())),
        }
    }

    /// The key of the next value, inside an object.
    pub fn key(&mut self, key: &str) {
        match &mut self.sink {
            Sink::Text(t) => {
                t.member();
                write_string(t.out, key);
                t.out.push_str(": ");
                t.keyed = true;
            }
            Sink::Tree(t) => match t.open.last() {
                Some(Open::Object(_)) => t.members.push((key.to_owned(), Json::Null)),
                _ => debug_assert!(false, "a key written outside an object"),
            },
        }
    }

    /// One object member: `key`, then `value`.
    pub fn field<T: ToJson + ?Sized>(&mut self, key: &str, value: &T) {
        self.key(key);
        value.write_json(self);
    }

    /// An object whose members `body` writes.
    pub fn object(&mut self, body: impl FnOnce(&mut Self)) {
        match &mut self.sink {
            Sink::Text(t) => t.open('{'),
            Sink::Tree(t) => t.open.push(Open::Object(t.members.len())),
        }
        body(self);
        self.close('}');
    }

    /// An array whose items `body` writes.
    pub fn array(&mut self, body: impl FnOnce(&mut Self)) {
        match &mut self.sink {
            Sink::Text(t) => t.open('['),
            Sink::Tree(t) => t.open.push(Open::Array(t.items.len())),
        }
        body(self);
        self.close(']');
    }

    fn close(&mut self, bracket: char) {
        match &mut self.sink {
            Sink::Text(t) => t.close(bracket),
            Sink::Tree(t) => match t.open.pop() {
                Some(Open::Array(start)) => {
                    let items = t.items.drain(start..).collect();
                    t.put(Json::Array(items));
                }
                Some(Open::Object(start)) => {
                    let members = t.members.drain(start..).collect();
                    t.put(Json::Object(members));
                }
                None => debug_assert!(false, "a container closed that was never opened"),
            },
        }
    }
}

/// A tree writes itself node by node, which makes [`Json::pretty`] the
/// text sink's output for the same document.
impl ToJson for Json {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        match self {
            Json::Null => w.null(),
            Json::Bool(b) => w.bool(*b),
            Json::Float(x) => w.float(*x),
            Json::Int(i) => w.int(*i),
            Json::Str(s) => w.str(s),
            Json::Array(items) => w.array(|w| items.iter().for_each(|item| item.write_json(w))),
            Json::Object(fields) => w.object(|w| {
                for (k, v) in fields {
                    w.field(k, v);
                }
            }),
        }
    }
}

impl ToJson for f64 {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.float(*self);
    }
}

impl ToJson for u64 {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.uint(*self);
    }
}

impl ToJson for u32 {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.uint(u64::from(*self));
    }
}

impl ToJson for usize {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.uint(*self as u64);
    }
}

impl ToJson for bool {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.bool(*self);
    }
}

impl ToJson for str {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.str(self);
    }
}

impl ToJson for String {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.str(self);
    }
}

/// A slice is an array of its items.
impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.array(|w| self.iter().for_each(|item| item.write_json(w)));
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        self.as_slice().write_json(w);
    }
}

impl Json {
    /// Parses a JSON text.
    pub fn parse(text: &str) -> Result<Json, SpecError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
            items: Vec::new(),
            members: Vec::new(),
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON document"));
        }
        Ok(v)
    }

    /// Pretty-prints with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        self.to_json_string()
    }

    /// The value of `key` in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Required object field.
    pub fn req(&self, key: &str) -> Result<&Json, SpecError> {
        self.get(key)
            .ok_or_else(|| SpecError::missing_field(key, self.type_name()))
    }

    /// Moves a required object field's value out, leaving `null` in its
    /// place: how a reader keeps a large sub-document without copying it.
    pub fn take(&mut self, key: &str) -> Result<Json, SpecError> {
        let in_type = self.type_name();
        let slot = match self {
            Json::Object(fields) => fields.iter_mut().find(|(k, _)| k == key),
            _ => None,
        };
        slot.map(|(_, v)| std::mem::replace(v, Json::Null))
            .ok_or_else(|| SpecError::missing_field(key, in_type))
    }

    /// The numeric value, accepting either numeric variant. `null` reads
    /// as NaN — the write path emits NaN as `null` (JSON has no NaN), so
    /// this keeps numeric round-trips closed.
    pub fn as_f64(&self) -> Result<f64, SpecError> {
        match self {
            Json::Float(x) => Ok(*x),
            Json::Int(i) => Ok(*i as f64),
            Json::Null => Ok(f64::NAN),
            other => Err(SpecError::type_mismatch("number", other.type_name())),
        }
    }

    /// An unsigned integer (rejects fractions and negatives).
    pub fn as_u64(&self) -> Result<u64, SpecError> {
        match self {
            Json::Int(i) => u64::try_from(*i)
                .map_err(|_| SpecError::invalid(format!("integer {i} out of u64 range"))),
            other => Err(SpecError::type_mismatch(
                "unsigned integer",
                other.type_name(),
            )),
        }
    }

    /// A u32 (rejects fractions and negatives).
    pub fn as_u32(&self) -> Result<u32, SpecError> {
        let v = self.as_u64()?;
        u32::try_from(v).map_err(|_| SpecError::invalid(format!("integer {v} out of u32 range")))
    }

    /// A usize.
    pub fn as_usize(&self) -> Result<usize, SpecError> {
        let v = self.as_u64()?;
        usize::try_from(v).map_err(|_| SpecError::invalid(format!("integer {v} out of range")))
    }

    /// A string.
    pub fn as_str(&self) -> Result<&str, SpecError> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(SpecError::type_mismatch("string", other.type_name())),
        }
    }

    /// A boolean.
    pub fn as_bool(&self) -> Result<bool, SpecError> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(SpecError::type_mismatch("bool", other.type_name())),
        }
    }

    /// An array's items.
    pub fn as_array(&self) -> Result<&[Json], SpecError> {
        match self {
            Json::Array(items) => Ok(items),
            other => Err(SpecError::type_mismatch("array", other.type_name())),
        }
    }

    /// The JSON type name, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Float(_) | Json::Int(_) => "number",
            Json::Str(_) => "string",
            Json::Array(_) => "array",
            Json::Object(_) => "object",
        }
    }

    /// Builds an object from `(key, value)` pairs.
    pub fn obj<I: IntoIterator<Item = (&'static str, Json)>>(fields: I) -> Json {
        Json::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Self {
        Json::Float(x)
    }
}

impl From<u64> for Json {
    fn from(x: u64) -> Self {
        Json::Int(x as i128)
    }
}

impl From<u32> for Json {
    fn from(x: u32) -> Self {
        Json::Int(x as i128)
    }
}

impl From<usize> for Json {
    fn from(x: usize) -> Self {
        Json::Int(x as i128)
    }
}

impl From<bool> for Json {
    fn from(x: bool) -> Self {
        Json::Bool(x)
    }
}

impl From<&str> for Json {
    fn from(x: &str) -> Self {
        Json::Str(x.to_owned())
    }
}

impl From<String> for Json {
    fn from(x: String) -> Self {
        Json::Str(x)
    }
}

/// Two spaces per level; deeper levels take it in several slices.
const SPACES: &str = "                                                                ";

fn push_indent(out: &mut String, n: usize) {
    let mut width = 2 * n;
    while width > 0 {
        let run = width.min(SPACES.len());
        out.push_str(&SPACES[..run]);
        width -= run;
    }
}

/// Shortest representation that parses back to the same f64 (Rust's `{:?}`),
/// with JSON-isms for the values JSON cannot express.
pub(crate) fn write_float(out: &mut String, x: f64) {
    if x.is_nan() {
        // JSON has no NaN; the spec layer writes null and readers of report
        // documents treat null as NaN (the paper's empty table cells).
        out.push_str("null");
    } else if x.is_infinite() {
        out.push_str(if x > 0.0 { "1e999" } else { "-1e999" });
    } else {
        // `{:?}` prints integral floats as `1.0`, which is already valid
        // JSON and keeps the float/int distinction on re-parse. Writing
        // into a `String` cannot fail.
        let _ = write!(out, "{x:?}");
    }
}

fn write_int(out: &mut String, i: i128) {
    // Same digits either way; the i64 formatter is the cheaper one.
    let _ = match i64::try_from(i) {
        Ok(small) => write!(out, "{small}"),
        Err(_) => write!(out, "{i}"),
    };
}

fn needs_escape(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < 0x20
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    // Every byte that needs escaping is ASCII, so the runs between them
    // fall on char boundaries.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !needs_escape(b) {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
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
    }
    out.push_str(&s[run..]);
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open around `pos`.
    depth: usize,
    /// The items of every open array, innermost array's last.
    items: Vec<Json>,
    /// The members of every open object, innermost object's last.
    members: Vec<(String, Json)>,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> SpecError {
        self.err_at(self.pos, msg)
    }

    /// A parse error at byte offset `pos`, with its line and column.
    fn err_at(&self, pos: usize, msg: &str) -> SpecError {
        let consumed = &self.bytes[..pos.min(self.bytes.len())];
        let line = consumed.iter().filter(|&&b| b == b'\n').count() + 1;
        let col = consumed.len()
            - consumed
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |p| p + 1)
            + 1;
        SpecError::parse(format!("{msg} (line {line}, column {col})"))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        let rest = &self.bytes[self.pos..];
        self.pos += rest
            .iter()
            .position(|b| !matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
            .unwrap_or(rest.len());
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), SpecError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    /// Enters one array/object level, refusing to go past [`MAX_DEPTH`].
    fn descend(&mut self) -> Result<(), SpecError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("JSON nests deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, SpecError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, SpecError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?.into_owned())),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, SpecError> {
        self.descend()?;
        self.expect_byte(b'{')?;
        let start = self.members.len();
        // Every key of the object, once it outgrows a scan for repeats.
        let mut keys: Option<BTreeSet<Cow<'a, str>>> = None;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Object(Vec::new()));
        }
        loop {
            self.skip_ws();
            let at = self.pos;
            let key = self.string()?;
            let members = &self.members[start..];
            let repeated = if members.len() < SCANNED_MEMBERS {
                members.iter().any(|(k, _)| *k == key)
            } else {
                let keys = keys.get_or_insert_with(|| {
                    members.iter().map(|(k, _)| Cow::Owned(k.clone())).collect()
                });
                !keys.insert(key.clone())
            };
            if repeated {
                return Err(self.err_at(
                    at,
                    &format!("duplicate key {key:?}: one object sets it twice"),
                ));
            }
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value()?;
            self.members.push((key.into_owned(), value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => {
                    self.depth -= 1;
                    return Ok(Json::Object(self.members.drain(start..).collect()));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, SpecError> {
        self.descend()?;
        self.expect_byte(b'[')?;
        let start = self.items.len();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Array(Vec::new()));
        }
        loop {
            self.skip_ws();
            let item = self.value()?;
            self.items.push(item);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => {
                    self.depth -= 1;
                    return Ok(Json::Array(self.items.drain(start..).collect()));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    /// A string's contents: borrowed from the input when it has no escape,
    /// so the caller's copy is one exact-size allocation.
    fn string(&mut self) -> Result<Cow<'a, str>, SpecError> {
        self.expect_byte(b'"')?;
        let mut s = String::new();
        loop {
            // Take everything up to the next quote, backslash or control
            // byte as one run. Those stop bytes are ASCII, so the run ends
            // on a char boundary of the (already valid UTF-8) input.
            let run = self.pos;
            let rest = &self.bytes[run..];
            self.pos += rest
                .iter()
                .position(|&b| needs_escape(b))
                .unwrap_or(rest.len());
            let chunk = self
                .text
                .get(run..self.pos)
                .ok_or_else(|| self.err("invalid UTF-8 in string"))?;
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') if s.is_empty() => return Ok(Cow::Borrowed(chunk)),
                Some(b'"') => {
                    s.push_str(chunk);
                    return Ok(Cow::Owned(s));
                }
                Some(b'\\') => {
                    s.push_str(chunk);
                    match self.bump() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let mut code = 0u32;
                            for _ in 0..4 {
                                let d = self
                                    .bump()
                                    .and_then(|b| (b as char).to_digit(16))
                                    .ok_or_else(|| self.err("bad \\u escape"))?;
                                code = code * 16 + d;
                            }
                            // Surrogate pairs are not needed by spec files;
                            // reject them rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("unsupported \\u escape (surrogate)"))?;
                            s.push(c);
                        }
                        _ => return Err(self.err("bad escape sequence")),
                    }
                }
                Some(_) => return Err(self.err("control character in string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, SpecError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = self
            .text
            .get(start..self.pos)
            .ok_or_else(|| self.err("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.err("invalid number"))
        } else {
            // Up to 18 characters always fit an i64, whose parser is
            // cheaper; longer literals take the lossless i128 path.
            let int = if text.len() <= 18 {
                text.parse::<i64>().map(i128::from)
            } else {
                text.parse::<i128>()
            };
            int.map(Json::Int).map_err(|_| self.err("invalid integer"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse(" 42 ").unwrap(), Json::Int(42));
        assert_eq!(Json::parse("-3").unwrap(), Json::Int(-3));
        assert_eq!(Json::parse("1.5e-3").unwrap(), Json::Float(1.5e-3));
        assert_eq!(Json::parse("\"hi\\n\"").unwrap(), Json::Str("hi\n".into()));
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert!(Json::parse("null").unwrap().as_f64().unwrap().is_nan());
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a": [1, 2.0, {"b": "c"}], "d": false}"#).unwrap();
        assert_eq!(v.req("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("d"), Some(&Json::Bool(false)));
        assert_eq!(
            v.req("a").unwrap().as_array().unwrap()[2]
                .req("b")
                .unwrap()
                .as_str()
                .unwrap(),
            "c"
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn error_reports_line_and_column() {
        let err = Json::parse("{\n  \"a\": ?\n}").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 2"), "{msg}");
    }

    #[test]
    fn floats_round_trip_exactly() {
        for &x in &[1.4e-3, 0.76, 1.0 / 3.0, f64::MIN_POSITIVE, 1e308, -0.0] {
            let text = Json::Float(x).pretty();
            let back = Json::parse(text.trim()).unwrap();
            match back {
                Json::Float(y) => assert_eq!(x.to_bits(), y.to_bits(), "{x}"),
                other => panic!("expected float, got {other:?}"),
            }
        }
    }

    #[test]
    fn integers_round_trip_exactly() {
        for &x in &[0u64, 1, u64::MAX, 0xEAC9_2006] {
            let text = Json::Int(x as i128).pretty();
            let back = Json::parse(text.trim()).unwrap();
            assert_eq!(back.as_u64().unwrap(), x);
        }
    }

    #[test]
    fn pretty_output_is_stable() {
        let text = r#"{"name": "x", "xs": [1, 2], "empty": {}, "e2": []}"#;
        let v = Json::parse(text).unwrap();
        let p1 = v.pretty();
        let p2 = Json::parse(&p1).unwrap().pretty();
        assert_eq!(p1, p2);
    }

    #[test]
    fn unicode_strings_survive() {
        let v = Json::parse("\"λ ≈ 1.4×10⁻³\"").unwrap();
        assert_eq!(v.as_str().unwrap(), "λ ≈ 1.4×10⁻³");
        let round = Json::parse(v.pretty().trim()).unwrap();
        assert_eq!(round, v);
    }

    #[test]
    fn integers_take_the_i64_or_i128_path_losslessly() {
        for text in [
            "999999999999999999",
            "-99999999999999999",
            "1000000000000000000",
            "-999999999999999999",
            "170141183460469231731687303715884105727",
            "-170141183460469231731687303715884105728",
        ] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v, Json::Int(text.parse().unwrap()));
            assert_eq!(v.pretty().trim_end(), text);
        }
        assert!(Json::parse("170141183460469231731687303715884105728").is_err());
        assert!(Json::parse("-").is_err());
    }
}
