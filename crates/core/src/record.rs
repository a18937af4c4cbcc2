//! One-line text records, `tag v1 key=value …`: the codec of both
//! persisted text formats, the design text ([`crate::serialize`]) and the
//! conformance corpus case.
//!
//! A record is whitespace-separated tokens: bare words (a tag, a version,
//! an id) and `key=value` fields, whose values hold no whitespace. Each
//! writer emits its fields in one fixed order, so the [`Reader`] is
//! positional: it asks for the next field by key and refuses any other.
//!
//! ```
//! use dhdl_core::record::{Join, Reader, Writer};
//!
//! let mut w = Writer::default();
//! w.word("pipe v1").field("par", 4).flag("mp", true).field("ids", Join(',', [3, 5]));
//! let line = w.finish();
//! assert_eq!(line, "pipe v1 par=4 mp=1 ids=3,5");
//! let mut r = Reader::open(&line, "pipe").unwrap();
//! assert_eq!((r.num("par"), r.flag("mp")), (Ok(4), Ok(true)));
//! assert_eq!(r.list("ids", |s| s.parse().ok()), Ok(vec![3, 5]));
//! assert_eq!(r.end(), Ok(()));
//! ```

use std::fmt::{self, Display, Write as _};
use std::str::{FromStr, SplitWhitespace};

use crate::error::DhdlError;

/// Why a record did not read. It names the key or word expected and the
/// token found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordError(String);

impl Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for RecordError {}

impl From<RecordError> for DhdlError {
    fn from(e: RecordError) -> Self {
        DhdlError::Validation(format!("deserialize: {e}"))
    }
}

impl From<RecordError> for String {
    fn from(e: RecordError) -> Self {
        e.0
    }
}

/// Reads a record's tokens in the order its writer put them. What it
/// returns borrows from the line; it allocates only for an error.
#[derive(Debug)]
pub struct Reader<'a> {
    tokens: SplitWhitespace<'a>,
}

impl<'a> Reader<'a> {
    /// A reader over every token of `line`.
    pub fn new(line: &'a str) -> Self {
        Reader {
            tokens: line.split_whitespace(),
        }
    }

    /// A reader past the `tag v1` that must start `line`.
    pub fn open(line: &'a str, tag: &str) -> Result<Self, RecordError> {
        let mut r = Reader::new(line);
        r.expect(tag)?;
        r.expect("v1")?;
        Ok(r)
    }

    fn next(&mut self, expected: fmt::Arguments<'_>) -> Result<&'a str, RecordError> {
        self.tokens
            .next()
            .ok_or_else(|| RecordError(format!("expected {expected}, found end of line")))
    }

    /// The next bare word, which `read` must accept; `what` names it.
    pub fn word<T>(
        &mut self,
        what: &str,
        read: impl FnOnce(&'a str) -> Option<T>,
    ) -> Result<T, RecordError> {
        let tok = self.next(format_args!("{what}"))?;
        read(tok).ok_or_else(|| RecordError(format!("expected {what}, found `{tok}`")))
    }

    /// Consume the bare word `word`.
    pub fn expect(&mut self, word: &str) -> Result<(), RecordError> {
        match self.next(format_args!("`{word}`"))? {
            tok if tok == word => Ok(()),
            tok => Err(RecordError(format!("expected `{word}`, found `{tok}`"))),
        }
    }

    /// The value of the next field, which must be keyed `key` and which
    /// `read` must accept.
    pub fn value<T>(
        &mut self,
        key: &str,
        read: impl FnOnce(&'a str) -> Option<T>,
    ) -> Result<T, RecordError> {
        let tok = self.next(format_args!("`{key}=`"))?;
        let value = tok
            .strip_prefix(key)
            .and_then(|v| v.strip_prefix('='))
            .ok_or_else(|| RecordError(format!("expected `{key}=`, found `{tok}`")))?;
        read(value).ok_or_else(|| RecordError(format!("bad value in `{tok}`")))
    }

    /// The next field `key` as a number (any [`FromStr`] type).
    pub fn num<T: FromStr>(&mut self, key: &str) -> Result<T, RecordError> {
        self.value(key, |s| s.parse().ok())
    }

    /// The next field `key` as a flag, `0` or `1`.
    pub fn flag(&mut self, key: &str) -> Result<bool, RecordError> {
        self.value(key, |s| match s {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        })
    }

    /// The next field `key` as a comma-separated list whose every item
    /// `item` must accept; the empty value is the empty list.
    pub fn list<T, C: FromIterator<T>>(
        &mut self,
        key: &str,
        item: impl FnMut(&'a str) -> Option<T>,
    ) -> Result<C, RecordError> {
        self.value(key, |s| match s {
            "" => Some(C::from_iter(None)),
            s => s.split(',').map(item).collect(),
        })
    }

    /// Every token left, each a bare word `read` must accept.
    pub fn rest<T, C: FromIterator<T>>(
        self,
        what: &str,
        mut read: impl FnMut(&'a str) -> Option<T>,
    ) -> Result<C, RecordError> {
        self.tokens
            .map(|tok| read(tok).ok_or_else(|| RecordError(format!("bad {what} `{tok}`"))))
            .collect()
    }

    /// Check that no token is left.
    pub fn end(mut self) -> Result<(), RecordError> {
        match self.tokens.next() {
            None => Ok(()),
            Some(tok) => Err(RecordError(format!(
                "unexpected `{tok}` after the last field"
            ))),
        }
    }
}

/// Appends records to one `String`: a space between the tokens of a line,
/// a newline at each [`Writer::end`].
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
}

impl Writer {
    /// Append a bare word.
    pub fn word(&mut self, word: impl Display) -> &mut Self {
        if !(self.out.is_empty() || self.out.ends_with('\n')) {
            self.out.push(' ');
        }
        write!(self.out, "{word}").expect("writing to a String cannot fail");
        self
    }

    /// Append `key=value`.
    pub fn field(&mut self, key: &str, value: impl Display) -> &mut Self {
        self.word(format_args!("{key}={value}"))
    }

    /// Append `key=1` or `key=0`.
    pub fn flag(&mut self, key: &str, on: bool) -> &mut Self {
        self.field(key, u8::from(on))
    }

    /// End the line.
    pub fn end(&mut self) -> &mut Self {
        self.out.push('\n');
        self
    }

    /// The text written.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Displays the items of `.1` separated by `.0`, with no buffer of its
/// own: a list value for [`Writer::field`].
#[derive(Debug)]
pub struct Join<I>(pub char, pub I);

impl<I: IntoIterator + Clone> Display for Join<I>
where
    I::Item: Display,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, item) in self.1.clone().into_iter().enumerate() {
            if k > 0 {
                f.write_char(self.0)?;
            }
            item.fmt(f)?;
        }
        Ok(())
    }
}
