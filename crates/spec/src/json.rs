//! A minimal, dependency-free JSON document model, writer, reader and
//! parser.
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
//! close it. The writer appends the pretty form (two-space indentation,
//! `"key": value`, `[]`/`{}` for empty containers) straight into a
//! `String` — what [`ToJson::to_json_string`] returns, and what every
//! report, grid document, emitted spec and store entry is written with. It
//! formats numbers in place (`fmt::Write` into the output), copies strings
//! that need no escaping in one piece, and slices indentation from a static
//! run of spaces: it makes no allocation of its own beyond growing the
//! output. [`ToJson::to_json`] is that text parsed back into a [`Json`]
//! tree, for tests and tools that inspect a document.
//!
//! [`Json`] itself implements [`ToJson`] by walking its tree, so
//! [`Json::pretty`] and every other document are printed by the one writer
//! and give the same bytes for the same document.
//!
//! [`pretty_omitting`] is the writer with a member filter: it leaves out
//! the members at the dotted key paths it is given (`"name"`,
//! `"executor.queue"`), which is how the result store writes a spec's
//! canonical text without the fields that cannot change a result.
//! [`JsonWriter::pretty`] writes a value given as its pretty text,
//! indented to where it lands.
//!
//! # Reading
//!
//! A type decodes its document once, in [`FromJson::read_json`], as calls
//! on a [`JsonReader`]: [`JsonReader::object`] hands it each member it
//! names, in whatever order they come, to decode in place (unknown members
//! are skipped), and the [`Members`] it returns then checks them in field
//! order. The reader reads JSON text token by token. `from_json` of such a
//! type prints its tree and reads that text
//! (`JsonReader::text(&json.pretty()).read()`), so a store entry's text and
//! a shard document's tree go through the one body and give the same value
//! and the same error. Types without a body read their value as a tree and
//! decode that.
//!
//! The reader raises the errors decoding a parsed tree raises, each in one
//! place: a missing member ([`Members::check`], the text [`Json::req`]
//! gives), a type mismatch and a number out of range (the [`Json`]
//! accessors, on the scalar read), and the parser's own errors — a
//! repeated key with its line and column, nesting past [`MAX_DEPTH`],
//! truncation, trailing characters. A syntax error anywhere in the text
//! wins over any decoding error, as it does when the text is parsed first:
//! the read goes on past a value that does not decode, and
//! [`JsonReader::document`] reports the syntax error first.
//!
//! # Parsing
//!
//! [`Json::parse`] builds a tree from the same tokenizer the reader uses.
//! It gathers the children of every open array and object on two stacks
//! reused for the whole document and moves each finished container's
//! children into a `Vec` of exactly their number, so a container costs one
//! allocation; a string without escapes is copied out of the input in one
//! exact-size allocation.
//!
//! A key repeated within one object is a parse error naming the key, line
//! and column: a document that says two things about one field has no
//! single meaning, and silently keeping either would run something other
//! than what was written. Objects of up to 16 members look for a repeat by
//! scanning their keys; larger ones keep a sorted set of them, so an object
//! of `n` keys costs `O(n log n)` rather than `O(n²)`.
//!
//! The tokenizer caps nesting at [`MAX_DEPTH`] arrays/objects. Deeper
//! input is rejected with a parse error (line and column) instead of
//! recursing until the stack overflows; nothing this workspace writes nests
//! deeper than about ten levels.

use crate::error::SpecError;
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// The deepest array/object nesting [`Json::parse`] and [`JsonReader`]
/// accept.
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

    /// The document as a tree: its text, parsed back. For tests and tools
    /// that inspect a document; programs write [`ToJson::to_json_string`].
    /// A NaN reads back as [`Json::Null`], which [`Json::as_f64`] reads as
    /// NaN.
    fn to_json(&self) -> Json {
        // audit:allow(panic): the writer writes JSON, and
        // `JsonWriter::pretty` embeds only spec text that is itself JSON.
        Json::parse(&self.to_json_string()).expect("the writer writes JSON")
    }

    /// The document pretty-printed with two-space indentation and a
    /// trailing newline, written straight into a `String`.
    fn to_json_string(&self) -> String {
        pretty(|w| self.write_json(w))
    }
}

/// Types that can deserialize themselves from a [`Json`] document.
pub trait FromJson: Sized {
    /// Deserializes a value, validating as it goes.
    fn from_json(json: &Json) -> Result<Self, SpecError>;

    /// Reads the reader's next value. A type decoded on a hot path
    /// overrides this with its one decoding body and defines `from_json`
    /// through it (`JsonReader::text(&json.pretty()).read()`); the default
    /// reads the value as a tree and hands it to `from_json`.
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, SpecError> {
        Self::from_json(&r.value()?)
    }
}

/// The pretty text of whatever `body` writes (one value), with the
/// trailing newline: how a document that is not one [`ToJson`] value,
/// such as an array of reports, is written.
pub fn pretty(body: impl FnOnce(&mut JsonWriter<'_>)) -> String {
    pretty_omitting(&[], body)
}

/// [`pretty`] without the members at `omit`, each a dotted path of keys
/// from the document's root (`"name"`, `"executor.queue"`): the text of
/// the document with those members removed.
pub fn pretty_omitting(omit: &[&str], body: impl FnOnce(&mut JsonWriter<'_>)) -> String {
    let mut out = String::with_capacity(1024);
    let mut w = JsonWriter {
        out: &mut out,
        depth: 0,
        empty: false,
        keyed: false,
        omit: (!omit.is_empty()).then(|| Omit {
            paths: omit,
            path: String::new(),
            marks: Vec::new(),
            muted: None,
        }),
    };
    body(&mut w);
    out.push('\n');
    out
}

/// The one JSON writer: every [`ToJson`] impl describes its document
/// through it, and it appends the pretty text to a caller's buffer (see
/// the module docs).
///
/// A value is a scalar call ([`JsonWriter::float`], [`JsonWriter::str`],
/// ...), a container ([`JsonWriter::object`], [`JsonWriter::array`]) or
/// another [`ToJson`] value's `write_json`. Inside an object each value is
/// preceded by its [`JsonWriter::key`]; [`JsonWriter::field`] writes both.
pub struct JsonWriter<'a> {
    out: &'a mut String,
    /// Containers open around the next value.
    depth: usize,
    /// The innermost open container has no member yet.
    empty: bool,
    /// A key was just written: its value follows on the same line.
    keyed: bool,
    /// The members left out, when there are any.
    omit: Option<Omit<'a>>,
}

/// The members a writer leaves out, and where the writer is relative to
/// them.
struct Omit<'a> {
    /// Dotted key paths from the document's root.
    paths: &'a [&'a str],
    /// The dotted key path of the member being written.
    path: String,
    /// For each open container, the length of `path` at the container's
    /// own path.
    marks: Vec<usize>,
    /// While a left-out member's value is written: the depth of the
    /// object holding it.
    muted: Option<usize>,
}

impl JsonWriter<'_> {
    /// `null`.
    pub fn null(&mut self) {
        if self.scalar() {
            self.out.push_str("null");
        }
    }

    /// `true` / `false`.
    pub fn bool(&mut self, b: bool) {
        if self.scalar() {
            self.out.push_str(if b { "true" } else { "false" });
        }
    }

    /// A float, written losslessly (see [`Json::Float`]).
    pub fn float(&mut self, x: f64) {
        if self.scalar() {
            write_float(self.out, x);
        }
    }

    /// An unsigned integer.
    pub fn uint(&mut self, x: u64) {
        if self.scalar() {
            // Writing into a `String` cannot fail.
            let _ = write!(self.out, "{x}");
        }
    }

    /// An integer of the lossless [`Json::Int`] range.
    pub fn int(&mut self, i: i128) {
        if self.scalar() {
            write_int(self.out, i);
        }
    }

    /// A string.
    pub fn str(&mut self, s: &str) {
        if self.scalar() {
            write_string(self.out, s);
        }
    }

    /// The key of the next value, inside an object.
    pub fn key(&mut self, key: &str) {
        if self.omits_member(key) {
            return;
        }
        self.member();
        write_string(self.out, key);
        self.out.push_str(": ");
        self.keyed = true;
    }

    /// A value given as the pretty text [`Json::pretty`] prints for it (a
    /// trailing newline is dropped), indented to where it lands. The text
    /// must be JSON: it is copied, not checked.
    pub fn pretty(&mut self, text: &str) {
        if !self.scalar() {
            return;
        }
        let text = text.strip_suffix('\n').unwrap_or(text);
        for (i, line) in text.split('\n').enumerate() {
            if i > 0 {
                self.out.push('\n');
                push_indent(self.out, self.depth);
            }
            self.out.push_str(line);
        }
    }

    /// One object member: `key`, then `value`.
    pub fn field<T: ToJson + ?Sized>(&mut self, key: &str, value: &T) {
        self.key(key);
        value.write_json(self);
    }

    /// An object whose members `body` writes.
    pub fn object(&mut self, body: impl FnOnce(&mut Self)) {
        self.open('{');
        body(self);
        self.close('}');
    }

    /// An array whose items `body` writes.
    pub fn array(&mut self, body: impl FnOnce(&mut Self)) {
        self.open('[');
        body(self);
        self.close(']');
    }

    /// Whether a scalar about to be written is kept, with what precedes it
    /// written; a left-out member ends when the scalar is its whole value.
    fn scalar(&mut self) -> bool {
        if let Some(omit) = &mut self.omit {
            if let Some(at) = omit.muted {
                if self.depth == at {
                    omit.muted = None;
                }
                return false;
            }
        }
        self.member();
        true
    }

    /// Whether the member `key` opens is left out.
    fn omits_member(&mut self, key: &str) -> bool {
        let Some(omit) = &mut self.omit else {
            return false;
        };
        if omit.muted.is_some() {
            return true;
        }
        omit.path.truncate(omit.marks.last().copied().unwrap_or(0));
        if !omit.path.is_empty() {
            omit.path.push('.');
        }
        omit.path.push_str(key);
        if omit.paths.contains(&omit.path.as_str()) {
            omit.muted = Some(self.depth);
        }
        omit.muted.is_some()
    }

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
        if let Some(omit) = &mut self.omit {
            if omit.muted.is_some() {
                self.depth += 1;
                return;
            }
            omit.marks.push(omit.path.len());
        }
        self.member();
        self.out.push(bracket);
        self.depth += 1;
        self.empty = true;
    }

    fn close(&mut self, bracket: char) {
        self.depth -= 1;
        if let Some(omit) = &mut self.omit {
            if let Some(at) = omit.muted {
                if self.depth == at {
                    omit.muted = None;
                }
                return;
            }
            omit.marks.pop();
            omit.path.truncate(omit.marks.last().copied().unwrap_or(0));
        }
        if !self.empty {
            self.out.push('\n');
            push_indent(self.out, self.depth);
        }
        self.out.push(bracket);
        self.empty = false;
    }
}

/// A tree writes itself node by node, which makes [`Json::pretty`] the
/// writer's output for the same document.
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
        let mut lex = Lexer::new(text);
        lex.skip_ws();
        let value = TreeBuilder::new(&mut lex).value()?;
        lex.finish()?;
        Ok(value)
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

/// The one JSON tokenizer: positions, whitespace, scalars, container
/// brackets, the depth cap and repeated keys. [`Json::parse`] builds a tree
/// from its tokens, and a [`JsonReader`] over text decodes from them.
struct Lexer<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open around `pos`.
    depth: usize,
    /// The keys of every open object, innermost object's last.
    keys: Vec<Cow<'a, str>>,
}

/// An object a [`Lexer`] is inside: where its keys start on the key stack
/// and, once it outgrows a scan for repeats, the set of them.
struct OpenObject<'a> {
    start: usize,
    set: Option<BTreeSet<Cow<'a, str>>>,
    first: bool,
}

impl<'a> Lexer<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
            keys: Vec::new(),
        }
    }

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

    /// The end of a document: nothing but whitespace may follow its value.
    fn finish(&mut self) -> Result<(), SpecError> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after JSON document"));
        }
        Ok(())
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

    /// Opens the object at `pos`.
    fn open_object(&mut self) -> Result<OpenObject<'a>, SpecError> {
        self.descend()?;
        self.expect_byte(b'{')?;
        self.skip_ws();
        Ok(OpenObject {
            start: self.keys.len(),
            set: None,
            first: true,
        })
    }

    /// The next member's key, with the `:` after it consumed, or `None`
    /// once `object` closes. A key the object already has is an error at
    /// the repeat.
    fn next_key(&mut self, object: &mut OpenObject<'a>) -> Result<Option<Cow<'a, str>>, SpecError> {
        if std::mem::take(&mut object.first) {
            if self.peek() == Some(b'}') {
                self.pos += 1;
                self.depth -= 1;
                return Ok(None);
            }
        } else {
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b'}') => {
                    self.depth -= 1;
                    self.keys.truncate(object.start);
                    return Ok(None);
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
        self.skip_ws();
        let at = self.pos;
        let key = self.string()?;
        let keys = &self.keys[object.start..];
        let repeated = match &mut object.set {
            None if keys.len() < SCANNED_MEMBERS => {
                let repeated = keys.contains(&key);
                self.keys.push(key.clone());
                repeated
            }
            set => {
                let set = set.get_or_insert_with(|| self.keys.drain(object.start..).collect());
                !set.insert(key.clone())
            }
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
        Ok(Some(key))
    }

    /// Opens the array at `pos`.
    fn open_array(&mut self) -> Result<(), SpecError> {
        self.descend()?;
        self.expect_byte(b'[')?;
        self.skip_ws();
        Ok(())
    }

    /// Whether the open array has another item (at `pos`); `first` is set
    /// before its first item is asked for.
    fn next_item(&mut self, first: &mut bool) -> Result<bool, SpecError> {
        if std::mem::take(first) {
            if self.peek() == Some(b']') {
                self.pos += 1;
                self.depth -= 1;
                return Ok(false);
            }
        } else {
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b']') => {
                    self.depth -= 1;
                    return Ok(false);
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
        self.skip_ws();
        Ok(true)
    }

    /// The value at `pos` when it is a scalar.
    fn scalar(&mut self) -> Result<Json, SpecError> {
        match self.peek() {
            Some(b'"') => Ok(Json::Str(self.string()?.into_owned())),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// The value at `pos`, with any container read through and returned
    /// empty: all a reader of a scalar needs to name what it found.
    fn shallow(&mut self) -> Result<Json, SpecError> {
        match self.peek() {
            Some(b'{') => {
                let mut object = self.open_object()?;
                while self.next_key(&mut object)?.is_some() {
                    self.shallow()?;
                }
                Ok(Json::Object(Vec::new()))
            }
            Some(b'[') => {
                self.open_array()?;
                let mut first = true;
                while self.next_item(&mut first)? {
                    self.shallow()?;
                }
                Ok(Json::Array(Vec::new()))
            }
            _ => self.scalar(),
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, SpecError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
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

/// Builds a [`Json`] tree from a [`Lexer`]'s tokens. It gathers the
/// children of every open container on two stacks and moves each finished
/// container's into an exact-size `Vec`.
struct TreeBuilder<'l, 'a> {
    lex: &'l mut Lexer<'a>,
    /// The items of every open array, innermost array's last.
    items: Vec<Json>,
    /// The members of every open object, innermost object's last.
    members: Vec<(String, Json)>,
}

impl<'l, 'a> TreeBuilder<'l, 'a> {
    fn new(lex: &'l mut Lexer<'a>) -> Self {
        Self {
            lex,
            items: Vec::new(),
            members: Vec::new(),
        }
    }

    fn value(&mut self) -> Result<Json, SpecError> {
        match self.lex.peek() {
            Some(b'{') => {
                let mut object = self.lex.open_object()?;
                let start = self.members.len();
                while let Some(key) = self.lex.next_key(&mut object)? {
                    let value = self.value()?;
                    self.members.push((key.into_owned(), value));
                }
                Ok(Json::Object(self.members.drain(start..).collect()))
            }
            Some(b'[') => {
                self.lex.open_array()?;
                let start = self.items.len();
                let mut first = true;
                while self.lex.next_item(&mut first)? {
                    let item = self.value()?;
                    self.items.push(item);
                }
                Ok(Json::Array(self.items.drain(start..).collect()))
            }
            _ => self.lex.scalar(),
        }
    }
}

/// The one JSON reader, the mirror of [`JsonWriter`]: a [`FromJson`] body
/// reads its value through it from JSON text, token by token (see the
/// module docs).
///
/// Each read takes one value. A value that does not decode (a missing
/// member, a wrong type, a number out of range) is the read's `Err`, and
/// the reader reads on. Malformed text ends the read at the first fault;
/// [`JsonReader::document`] reports that fault over anything the body
/// found, as parsing the text first would have.
pub struct JsonReader<'a> {
    lex: Lexer<'a>,
    /// The first syntax error.
    failed: Option<SpecError>,
}

/// What a [`JsonReader::object`] read found: which members came, and the
/// first, in field order, whose value did not decode.
#[derive(Debug)]
pub struct Members<'f> {
    fields: &'f [&'f str],
    /// The JSON type of the value read (`"object"`, unless it was not one).
    in_type: &'static str,
    /// Bit `i` is set once `fields[i]` was read.
    seen: u64,
    fault: Option<(usize, SpecError)>,
}

impl Members<'_> {
    /// Records that `fields[i]` was read, and whether it decoded.
    pub fn record(&mut self, i: usize, read: Result<(), SpecError>) {
        self.seen |= bit(i);
        if let Err(e) = read {
            if self.fault.as_ref().is_none_or(|(at, _)| i < *at) {
                self.fault = Some((i, e));
            }
        }
    }

    fn has(&self, i: usize) -> bool {
        self.seen & bit(i) != 0
    }

    /// The error decoding a tree field by field gives, with every field
    /// required: [`Members::check_required`] over all of them.
    pub fn check(self) -> Result<(), SpecError> {
        let all = self.fields.len();
        self.check_required(all)
    }

    /// The error decoding a tree field by field gives: in field order, the
    /// first field whose value did not decode, or that is missing and
    /// among the first `required` (the error [`Json::req`] gives).
    pub fn check_required(self, required: usize) -> Result<(), SpecError> {
        let missing = (0..required.min(self.fields.len())).find(|&i| !self.has(i));
        match (missing, self.fault) {
            (Some(i), fault) if fault.as_ref().is_none_or(|(at, _)| i < *at) => {
                Err(SpecError::missing_field(self.fields[i], self.in_type))
            }
            (_, Some((_, e))) => Err(e),
            _ => Ok(()),
        }
    }
}

/// The [`Members::seen`] bit of field `i` (fields past 64 are not
/// tracked).
fn bit(i: usize) -> u64 {
    u32::try_from(i)
        .ok()
        .and_then(|i| 1u64.checked_shl(i))
        .unwrap_or(0)
}

impl<'a> JsonReader<'a> {
    /// A reader of JSON text.
    pub fn text(text: &'a str) -> Self {
        Self {
            lex: Lexer::new(text),
            failed: None,
        }
    }

    /// Reads the text as one document of `T`, flattening
    /// [`JsonReader::document`]'s two errors into one.
    pub fn read<T: FromJson>(self) -> Result<T, SpecError> {
        self.document(T::read_json)?
    }

    /// Reads the text as one document whose value `body` reads. The outer
    /// error is what [`Json::parse`] raises for the text: a syntax error
    /// anywhere, or trailing characters. It wins over `body`'s result,
    /// which is the inner one.
    pub fn document<T>(
        mut self,
        body: impl FnOnce(&mut Self) -> Result<T, SpecError>,
    ) -> Result<Result<T, SpecError>, SpecError> {
        self.lex.skip_ws();
        let value = body(&mut self);
        match self.failed {
            Some(syntax) => Err(syntax),
            None => self.lex.finish().map(|()| value),
        }
    }

    /// The lexer while it is still reading, or the error that stands in
    /// for its syntax error once it has one.
    fn lexer(&mut self) -> Result<&mut Lexer<'a>, SpecError> {
        match self.failed {
            Some(_) => Err(stand_in()),
            None => Ok(&mut self.lex),
        }
    }

    /// Keeps the first syntax error; what the read returns instead only
    /// has to fail.
    fn syntax<T>(&mut self, read: Result<T, SpecError>) -> Result<T, SpecError> {
        read.map_err(|e| {
            self.failed.get_or_insert(e);
            stand_in()
        })
    }

    /// The next value, with any container read through and left empty:
    /// scalars whole, and for a container just enough to name its type.
    pub fn shallow(&mut self) -> Result<Json, SpecError> {
        let read = self.lexer()?.shallow();
        self.syntax(read)
    }

    /// Reads past the next value.
    pub fn skip(&mut self) {
        let _ = self.shallow();
    }

    /// The next value as a tree.
    pub fn value(&mut self) -> Result<Json, SpecError> {
        let read = TreeBuilder::new(self.lexer()?).value();
        self.syntax(read)
    }

    /// An unsigned integer, as [`Json::as_u64`] reads it.
    pub fn u64(&mut self) -> Result<u64, SpecError> {
        self.shallow()?.as_u64()
    }

    /// A `u32`, as [`Json::as_u32`] reads it.
    pub fn u32(&mut self) -> Result<u32, SpecError> {
        self.shallow()?.as_u32()
    }

    /// A number, as [`Json::as_f64`] reads it (`null` is NaN).
    pub fn f64(&mut self) -> Result<f64, SpecError> {
        self.shallow()?.as_f64()
    }

    /// A boolean.
    pub fn bool(&mut self) -> Result<bool, SpecError> {
        self.shallow()?.as_bool()
    }

    /// A string.
    pub fn string(&mut self) -> Result<String, SpecError> {
        match self.shallow()? {
            Json::Str(s) => Ok(s),
            other => Err(SpecError::type_mismatch("string", other.type_name())),
        }
    }

    /// The next value's pretty text, as [`Json::pretty`] prints it.
    ///
    /// `known` is the pretty text of some document that parses (or
    /// empty). When the next bytes are `known` indented to the value's
    /// depth — how the writer writes a member whose pretty text is
    /// `known` — the value is that document, found by comparing bytes
    /// without reading it token by token. Any other value is read as a
    /// tree and printed.
    pub fn pretty(&mut self, known: &str) -> Result<String, SpecError> {
        let lex = self.lexer()?;
        match embedded(&lex.bytes[lex.pos..], known, lex.depth) {
            Some(len) => {
                lex.pos += len;
                Ok(known.to_owned())
            }
            None => self.value().map(|tree| tree.pretty()),
        }
    }

    /// Reads an object: `member(reader, i)` reads the value of each member
    /// whose key is `fields[i]` (exactly one value; at most 64 fields) and
    /// says whether it decoded; members under other keys are skipped. A
    /// key read twice is a syntax error. The result tells which members
    /// came and what a missing one is reported against, including when
    /// the value was not an object at all.
    pub fn object<'f>(
        &mut self,
        fields: &'f [&'f str],
        member: &mut dyn FnMut(&mut Self, usize) -> Result<(), SpecError>,
    ) -> Members<'f> {
        let mut members = Members {
            fields,
            in_type: "object",
            seen: 0,
            fault: None,
        };
        let mut object = match self.shallow_unless(b'{') {
            Ok(Some(in_type)) => {
                members.in_type = in_type;
                None
            }
            Ok(None) => {
                let opened = self.lex.open_object();
                self.syntax(opened).ok()
            }
            Err(_) => None,
        };
        while let Some(open) = &mut object {
            let key = match self.lexer() {
                Ok(lex) => lex.next_key(open),
                Err(_) => break,
            };
            match self.syntax(key) {
                Ok(Some(key)) => match fields.iter().position(|f| *f == key) {
                    Some(i) => {
                        let read = member(self, i);
                        members.record(i, read);
                    }
                    None => self.skip(),
                },
                _ => break,
            }
        }
        members
    }

    /// When the next value is not a container opened by `bracket`, reads
    /// past it and gives its type name; `None` when it is one (left
    /// unread).
    fn shallow_unless(&mut self, bracket: u8) -> Result<Option<&'static str>, SpecError> {
        if self.lexer()?.peek() == Some(bracket) {
            return Ok(None);
        }
        self.shallow().map(|value| Some(value.type_name()))
    }

    /// Reads an array: `item(reader, i)` reads the `i`-th item (exactly
    /// one value) and says whether it decoded. Returns how many items
    /// there were and the first item, in order, that did not decode; a
    /// value that is not an array is read past and is the error
    /// [`Json::as_array`] gives.
    pub fn array(
        &mut self,
        item: &mut dyn FnMut(&mut Self, usize) -> Result<(), SpecError>,
    ) -> Result<(usize, Result<(), SpecError>), SpecError> {
        if let Some(found) = self.shallow_unless(b'[')? {
            return Err(SpecError::type_mismatch("array", found));
        }
        let opened = self.lex.open_array();
        self.syntax(opened)?;
        let (mut count, mut first, mut fault) = (0, true, Ok(()));
        loop {
            let next = self.lexer()?.next_item(&mut first);
            if !self.syntax(next)? {
                return Ok((count, fault));
            }
            if let (Err(e), Ok(())) = (item(self, count), &fault) {
                fault = Err(e);
            }
            count += 1;
        }
    }

    /// Reads an array of `T`s, each item by `item`: the first item that
    /// does not decode is the error, as collecting decoded items is.
    pub fn list<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, SpecError>,
    ) -> Result<Vec<T>, SpecError> {
        let mut items = Vec::new();
        let (_, read) = self.array(&mut |r, _| {
            items.push(item(r)?);
            Ok(())
        })?;
        read.map(|()| items)
    }
}

/// What a read returns once the text has a syntax error: the
/// document's error is reported instead, so this only has to fail.
fn stand_in() -> SpecError {
    SpecError::parse("the document did not parse")
}

/// How many bytes of `rest` are `known` — the pretty text of a container
/// that parses, with its trailing newline — with every line after the
/// first indented by `depth` more levels: `None` unless `rest` starts so.
/// A container's text ends at its closing bracket, so those bytes are
/// exactly the value the tokenizer would read there; `None` too when the
/// container would nest past [`MAX_DEPTH`] at `depth`, bounded by the
/// deepest indentation of `known`.
fn embedded(rest: &[u8], known: &str, depth: usize) -> Option<usize> {
    let known = known.strip_suffix('\n')?;
    if !known.starts_with(['{', '[']) {
        return None;
    }
    let (pad, mut at, mut deepest) = (2 * depth, 0, 0);
    for (i, line) in known.split('\n').enumerate() {
        if i > 0 {
            let newline = rest.get(at..at + 1 + pad)?;
            if newline[0] != b'\n' || newline[1..].iter().any(|&b| b != b' ') {
                return None;
            }
            at += 1 + pad;
            deepest = deepest.max(line.len() - line.trim_start_matches(' ').len());
        }
        if !rest.get(at..)?.starts_with(line.as_bytes()) {
            return None;
        }
        at += line.len();
    }
    // A line indented `2k` lies inside `k` containers, and a container
    // nests at most one level past its members' lines: at most
    // `deepest / 2 + 1` levels open here.
    (depth + deepest / 2 < MAX_DEPTH).then_some(at)
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
    fn omitted_members_leave_the_text_a_tree_edit_would() {
        let doc = Json::parse(
            r#"{"a": 1, "b": {"c": [1, {"c": 2}], "d": 3}, "e": [{"f": 1}], "g": {"c": 4}}"#,
        )
        .unwrap();
        let text = pretty_omitting(&["a", "b.c", "e", "g.c"], |w| doc.write_json(w));
        let edited = Json::parse(r#"{"b": {"d": 3}, "g": {}}"#).unwrap();
        assert_eq!(text, edited.pretty());
        // The last member, and every member.
        let text = pretty_omitting(&["g"], |w| doc.write_json(w));
        assert!(text.ends_with("  ]\n}\n"), "{text}");
        let all = pretty_omitting(&["a", "b", "e", "g"], |w| doc.write_json(w));
        assert_eq!(all, "{}\n");
    }

    #[test]
    fn pretty_text_embeds_at_any_depth_and_reads_back_by_bytes() {
        let inner = Json::parse(r#"{"x": [1, 2], "y": {"z": null}}"#).unwrap();
        let known = inner.pretty();
        let outer = pretty(|w| {
            w.object(|w| {
                w.key("list");
                w.array(|w| w.pretty(&known));
                w.key("spec");
                w.pretty(&known);
            })
        });
        let nested = Json::obj([
            ("list", Json::Array(vec![inner.clone()])),
            ("spec", inner.clone()),
        ]);
        assert_eq!(outer, nested.pretty());
        // Read back: byte-equal text is `known` itself; anything else is
        // parsed and printed.
        for (text, expect) in [
            (outer.as_str(), known.clone()),
            (
                r#"{"list": [], "spec": {"y": {"z": null}, "x": [1, 2]}}"#,
                {
                    Json::parse(r#"{"y": {"z": null}, "x": [1, 2]}"#)
                        .unwrap()
                        .pretty()
                },
            ),
        ] {
            let spec = JsonReader::text(text)
                .document(|r| {
                    let mut spec = None;
                    r.object(&["spec"], &mut |r, _| {
                        spec = Some(r.pretty(&known)?);
                        Ok(())
                    })
                    .check()?;
                    Ok(spec)
                })
                .unwrap()
                .unwrap();
            assert_eq!(spec.as_deref(), Some(expect.as_str()));
        }
    }

    #[test]
    fn the_reader_reports_what_parsing_then_decoding_reports() {
        let read = |text: &str| {
            JsonReader::text(text).document(|r| {
                let (mut a, mut b) = (0, 0.0);
                r.object(&["a", "b"], &mut |r, i| {
                    match i {
                        0 => a = r.u64()?,
                        _ => b = r.f64()?,
                    }
                    Ok(())
                })
                .check()?;
                Ok((a, b))
            })
        };
        assert_eq!(read(r#"{"b": 2.5, "z": [{}], "a": 7}"#), Ok(Ok((7, 2.5))));
        // Decoding errors in field order, whatever the member order.
        let err = read(r#"{"b": "x"}"#).unwrap().unwrap_err().to_string();
        assert!(
            err.contains("missing field \"a\" (in a JSON object)"),
            "{err}"
        );
        let err = read(r#"{"b": "x", "a": -1}"#).unwrap().unwrap_err();
        assert!(err.to_string().contains("out of u64 range"), "{err}");
        let err = read("[1]").unwrap().unwrap_err().to_string();
        assert!(err.contains("(in a JSON array)"), "{err}");
        // A syntax error anywhere wins, as parsing first makes it.
        for text in [
            r#"{"a": "x", "b": 1, "b": 2}"#,
            r#"{"a": "x", "z": 1, "z": 2}"#,
            r#"{"a": "x", "b": 1} x"#,
            r#"{"a": "x", "b": [1"#,
        ] {
            let err = read(text).unwrap_err();
            assert_eq!(Err(err), Json::parse(text).map(drop), "{text}");
        }
        let deep = format!(r#"{{"a": 1, "z": {}}}"#, "[".repeat(MAX_DEPTH));
        let err = read(&deep).unwrap_err().to_string();
        assert!(err.contains("deeper than"), "{err}");
        // Only a hand-built tree can repeat a key (`Json::parse` rejects
        // one). `from_json` of a type with a reader body reads the tree's
        // printed text, so the repeat is the parse error.
        let tree = Json::obj([
            ("count", Json::Int(1)),
            ("count", Json::Int(2)),
            ("mean", Json::Null),
            ("m2", Json::Null),
            ("min", Json::Null),
            ("max", Json::Null),
        ]);
        let err = eacp_numerics::OnlineStats::from_json(&tree).unwrap_err();
        assert!(err.to_string().contains("duplicate key \"count\""), "{err}");
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
