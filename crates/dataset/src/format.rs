//! Shared on-disk format plumbing for every `remedy-*` artifact family.
//!
//! Five line-oriented text formats — dataset text (`remedy-dataset v1`,
//! [`crate::persist`]), identification output (`remedy-ibs v1`) and
//! shard counts (`remedy-counts v1`, `core::persist`), models
//! (`remedy-model v1`, `classifiers::persist`) and audit metrics
//! (`remedy-metrics v1`, `fairness::summary`) — and three binary
//! formats — the columnar store (`remedy-columnar v1`, [`crate::store`]),
//! and serve's WAL segments (`remedy-wal v1`) and snapshots
//! (`remedy-snapshot v1`) — all open with an ASCII [`Magic`] line naming
//! the format family and version. The text formats decode through one
//! reader, [`Lines`]: it checks the magic line, hands out space-separated
//! records ([`Fields`]) with typed field parsers, caps every declared
//! count at the bytes left in the input, and reports each failure as a
//! [`DecodeError`] with its line number. The binary formats decode
//! through its byte twin, [`Bytes`]: the same magic check, little-endian
//! fields, length-prefixed strings and raw slices, the same capped
//! counts, and failures that name the section and byte offset. Either
//! way each decoder only states its record shapes. This module also owns
//! the percent-escaping of names and the FNV-1a/128 content digest stored
//! in binary headers.
//!
//! This crate sits at the bottom of the workspace graph, so the one
//! FNV-1a/128 implementation, [`ContentHasher`], lives here and
//! `remedy_core::hash::StableHasher` delegates to it.

/// A format family plus the version this build reads and writes.
///
/// Rendered as the artifact's first line, e.g. `remedy-dataset v1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Magic {
    family: &'static str,
    version: u32,
}

/// Why an artifact was rejected: its magic line (every format), a record
/// of a line-oriented one, or a field of a binary one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the `expected` magic line.
    MissingHeader { expected: String },
    /// The first line (`found`) belongs to another format family.
    WrongFamily { expected: String, found: String },
    /// The family matched but its version tag (`found`) is not the one
    /// this build reads (`supported`).
    WrongVersion {
        family: String,
        supported: u32,
        found: String,
    },
    /// A record is missing or malformed. `line` is 1-based, one past the
    /// last line when the input ended early.
    Malformed { line: usize, message: String },
    /// A binary field is missing or malformed: `offset` is how far into
    /// the input the reader had got, inside the named `section`.
    Corrupt {
        section: &'static str,
        offset: usize,
        message: String,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::MissingHeader { expected } => write!(f, "missing `{expected}` header"),
            DecodeError::WrongFamily { expected, found } => {
                write!(f, "expected `{expected}` header, found `{found}`")
            }
            DecodeError::WrongVersion {
                family,
                supported,
                found,
            } => write!(
                f,
                "`{family}` version `{found}` is not supported (this build reads v{supported})"
            ),
            DecodeError::Malformed { line, message } => write!(f, "line {line}: {message}"),
            DecodeError::Corrupt {
                section,
                offset,
                message,
            } => write!(f, "{section} section, byte {offset}: {message}"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn malformed(line: usize, message: impl Into<String>) -> DecodeError {
    let message = message.into();
    DecodeError::Malformed { line, message }
}

impl Magic {
    /// A magic for `family` at `version`.
    pub const fn new(family: &'static str, version: u32) -> Self {
        Magic { family, version }
    }

    /// The header line, without a trailing newline.
    pub fn line(&self) -> String {
        format!("{} v{}", self.family, self.version)
    }

    /// Checks an artifact's first line (as produced by `str::lines`),
    /// distinguishing a foreign format from an unsupported version of
    /// this one.
    pub fn expect(&self, first: Option<&str>) -> Result<(), DecodeError> {
        let line = first.ok_or_else(|| DecodeError::MissingHeader {
            expected: self.line(),
        })?;
        if line == self.line() {
            return Ok(());
        }
        if let Some(tag) = line
            .strip_prefix(self.family)
            .and_then(|r| r.strip_prefix(" v"))
        {
            return Err(DecodeError::WrongVersion {
                family: self.family.to_string(),
                supported: self.version,
                found: tag.to_string(),
            });
        }
        Err(DecodeError::WrongFamily {
            expected: self.line(),
            found: line.chars().take(64).collect(),
        })
    }

    /// Whether a raw buffer starts with this magic line. Used to sniff a
    /// file's format before committing to a decoder; safe on non-UTF-8
    /// input.
    pub fn sniff(&self, bytes: &[u8]) -> bool {
        let line = self.line();
        let head = line.as_bytes();
        bytes.len() > head.len() && &bytes[..head.len()] == head && bytes[head.len()] == b'\n'
    }
}

/// The one reader behind every line-oriented artifact decoder: `rest`
/// is the input not read yet, `line` the 1-based number of the last line
/// read. Lines end at `\n` (a `\r` before it is dropped) and hold records
/// of fields separated by single spaces, the exact inverse of the writers.
#[derive(Debug)]
pub struct Lines<'a> {
    rest: &'a str,
    line: usize,
}

impl<'a> Lines<'a> {
    /// Checks `text`'s magic line and positions the reader after it.
    pub fn open(text: &'a str, magic: Magic) -> Result<Lines<'a>, DecodeError> {
        let mut lines = Lines {
            rest: text,
            line: 0,
        };
        magic.expect(lines.next_line())?;
        Ok(lines)
    }

    fn next_line(&mut self) -> Option<&'a str> {
        if self.rest.is_empty() {
            return None;
        }
        self.line += 1;
        Some(match self.rest.split_once('\n') {
            Some((line, rest)) => {
                self.rest = rest;
                line.strip_suffix('\r').unwrap_or(line)
            }
            None => std::mem::take(&mut self.rest),
        })
    }

    /// An error at the last line read.
    pub fn error(&self, message: impl Into<String>) -> DecodeError {
        malformed(self.line, message)
    }

    /// The next record; `what` names it when the input has ended.
    pub fn record(&mut self, what: &str) -> Result<Fields<'a>, DecodeError> {
        let Some(line) = self.next_line() else {
            return Err(malformed(self.line + 1, format!("missing {what} line")));
        };
        let budget = self.rest.len();
        Ok(Fields {
            rest: Some(line),
            line: self.line,
            budget,
        })
    }

    /// The fields after the `tag` that must open the next record.
    pub fn tagged(&mut self, tag: &str) -> Result<Fields<'a>, DecodeError> {
        let mut fields = self.record(tag)?;
        match fields.field(tag)? {
            found if found == tag => Ok(fields),
            found => Err(fields.error(format!("expected `{tag}`, found `{found}`"))),
        }
    }

    /// The one value of a `<tag> <value>` record, read by `read` (e.g.
    /// [`Fields::parse`]) with `tag` as its name.
    pub fn value<T>(
        &mut self,
        tag: &str,
        read: impl FnOnce(&mut Fields<'a>, &str) -> Result<T, DecodeError>,
    ) -> Result<T, DecodeError> {
        let mut fields = self.tagged(tag)?;
        let value = read(&mut fields, tag)?;
        fields.end().map(|()| value)
    }

    /// A `<tag> <count>` record counting the lines after it, capped as
    /// [`Fields::records`] caps it.
    pub fn count(&mut self, tag: &str) -> Result<usize, DecodeError> {
        self.tagged(tag)?.records(tag, 1)
    }
}

/// The space-separated fields of one record at 1-based `line`: `rest`
/// holds those not read yet (`None` once the last is taken), `budget`
/// the bytes of input after the record. Every error names the line.
#[derive(Debug)]
pub struct Fields<'a> {
    rest: Option<&'a str>,
    line: usize,
    budget: usize,
}

impl<'a> Fields<'a> {
    /// An error at this record's line.
    pub fn error(&self, message: impl Into<String>) -> DecodeError {
        malformed(self.line, message)
    }

    /// The next raw field; `what` names it when the record has ended.
    pub fn field(&mut self, what: &str) -> Result<&'a str, DecodeError> {
        let rest = self
            .rest
            .ok_or_else(|| self.error(format!("missing {what}")))?;
        let (field, tail) = match rest.bytes().position(|b| b == b' ') {
            Some(i) => (&rest[..i], Some(&rest[i + 1..])),
            None => (rest, None),
        };
        self.rest = tail;
        Ok(field)
    }

    /// The raw fields not read yet.
    pub fn remaining(&mut self) -> impl Iterator<Item = &'a str> {
        self.rest.take().into_iter().flat_map(|r| r.split(' '))
    }

    fn typed<T>(
        &mut self,
        what: &str,
        read: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, DecodeError> {
        let s = self.field(what)?;
        read(s).ok_or_else(|| self.error(format!("bad {what} `{s}`")))
    }

    /// The next field, parsed by its [`std::str::FromStr`].
    pub fn parse<T: std::str::FromStr>(&mut self, what: &str) -> Result<T, DecodeError> {
        self.typed(what, |s| s.parse().ok())
    }

    /// The next field, [`unescape`]d.
    pub fn escaped(&mut self, what: &str) -> Result<String, DecodeError> {
        self.typed(what, |s| unescape(s).ok())
    }

    /// The next field as a hex `u128` (a packed region key).
    pub fn hex(&mut self, what: &str) -> Result<u128, DecodeError> {
        self.typed(what, |s| u128::from_str_radix(s, 16).ok())
    }

    /// The next field as an `f64` stored as `to_bits` hex, so a round
    /// trip is exact.
    pub fn bits(&mut self, what: &str) -> Result<f64, DecodeError> {
        self.typed(what, |s| {
            Some(f64::from_bits(u64::from_str_radix(s, 16).ok()?))
        })
    }

    /// The last field, as the number of records still to come, each at
    /// least `record_bytes` long. A count that cannot fit in the rest of
    /// the input is an error, so what this returns is safe to allocate.
    pub fn records(mut self, what: &str, record_bytes: usize) -> Result<usize, DecodeError> {
        let n: usize = self.parse(what)?;
        if n.saturating_mul(record_bytes) > self.budget {
            let budget = self.budget;
            return Err(self.error(format!("{what} {n} cannot fit in the {budget} bytes left")));
        }
        self.end().map(|()| n)
    }

    /// Every remaining field, parsed. An empty remainder (the trailing
    /// space a writer leaves after joining an empty list) is an empty list.
    pub fn list<T: std::str::FromStr>(mut self, what: &str) -> Result<Vec<T>, DecodeError> {
        self.rest = self.rest.filter(|r| !r.is_empty());
        let mut out = Vec::new();
        while self.rest.is_some() {
            out.push(self.parse(what)?);
        }
        Ok(out)
    }

    /// Checks that no field is left.
    pub fn end(&self) -> Result<(), DecodeError> {
        match self.rest {
            None => Ok(()),
            Some(extra) => Err(self.error(format!("unexpected trailing `{extra}`"))),
        }
    }
}

/// The one reader behind every binary artifact decoder, the byte twin of
/// [`Lines`]: `pos` is the offset of the next byte to read and `section`
/// names the part being decoded, and both go into every error.
#[derive(Debug)]
pub struct Bytes<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> Bytes<'a> {
    /// Checks `bytes`' magic line and positions the reader after it, in
    /// the `header` section. A foreign, unsupported or truncated magic
    /// line is an error at offset 0 of that section, like every other.
    pub fn open(bytes: &'a [u8], magic: Magic) -> Result<Bytes<'a>, DecodeError> {
        let mut reader = Bytes::new(bytes, "header");
        if !magic.sniff(bytes) {
            let first = bytes.split(|&b| b == b'\n').next().unwrap_or(&[]);
            let message = match magic.expect(std::str::from_utf8(first).ok()) {
                Ok(()) => "truncated magic line".to_string(),
                Err(e) => e.to_string(),
            };
            return Err(reader.error(message));
        }
        reader.pos = magic.line().len() + 1;
        Ok(reader)
    }

    /// A reader over a buffer with no magic line (a digest-framed
    /// payload), starting in `section`.
    pub fn new(bytes: &'a [u8], section: &'static str) -> Bytes<'a> {
        Bytes {
            buf: bytes,
            pos: 0,
            section,
        }
    }

    /// Names the section the next reads belong to.
    pub fn section(&mut self, section: &'static str) {
        self.section = section;
    }

    /// Bytes read so far (magic line included).
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes not read yet.
    fn left(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// An error at the current offset of the current section.
    pub fn error(&self, message: impl Into<String>) -> DecodeError {
        DecodeError::Corrupt {
            section: self.section,
            offset: self.pos,
            message: message.into(),
        }
    }

    /// The next `n` raw bytes (a bulk section, or a field to widen).
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.left() {
            let left = self.left();
            return Err(self.error(format!("need {n} bytes, {left} left")));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// The next byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        self.array::<1>().map(|[b]| b)
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        self.array().map(u32::from_le_bytes)
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_le_bytes)
    }

    /// The next little-endian `u128`.
    pub fn u128(&mut self) -> Result<u128, DecodeError> {
        self.array().map(u128::from_le_bytes)
    }

    /// The next `len:u32`-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, DecodeError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| self.error("non-UTF8 string"))
    }

    /// A declared count `n` of records still to come, each at least
    /// `record_bytes` long. A count that cannot fit in the bytes left is
    /// an error, so what this returns is safe to allocate.
    pub fn fits(&self, what: &str, n: u64, record_bytes: usize) -> Result<usize, DecodeError> {
        let left = self.left();
        usize::try_from(n)
            .ok()
            .filter(|n| n.saturating_mul(record_bytes) <= left)
            .ok_or_else(|| self.error(format!("{what} {n} cannot fit in the {left} bytes left")))
    }

    /// The next `u32` as a count of records, capped as [`Bytes::fits`]
    /// caps it.
    pub fn count(&mut self, what: &str, record_bytes: usize) -> Result<usize, DecodeError> {
        let n = self.u32()?;
        self.fits(what, n.into(), record_bytes)
    }

    /// Checks that every byte was read.
    pub fn end(&self) -> Result<(), DecodeError> {
        match self.left() {
            0 => Ok(()),
            n => Err(self.error(format!("{n} unexpected trailing bytes"))),
        }
    }
}

/// Percent-encodes `%`, ASCII whitespace, ASCII control characters, and
/// every non-ASCII byte, so the result is a single space-free ASCII
/// token that can sit in a line-oriented format.
///
/// Non-ASCII bytes must be escaped: pushing a `u8 >= 0x80` through
/// `char` re-encodes it as a two-byte UTF-8 sequence, so unescaping
/// (which reconstructs raw bytes) would yield mojibake instead of the
/// original string.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        if b == b'%' || b.is_ascii_whitespace() || b.is_ascii_control() || !b.is_ascii() {
            out.push_str(&format!("%{b:02x}"));
        } else {
            out.push(b as char);
        }
    }
    out
}

/// Why [`unescape`] rejected its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EscapeError {
    /// A `%` escape ran off the end of the token.
    Truncated(String),
    /// A `%` escape held non-hex digits.
    BadHex(String),
    /// The unescaped bytes were not valid UTF-8.
    NotUtf8(String),
}

impl std::fmt::Display for EscapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EscapeError::Truncated(s) => write!(f, "truncated escape in `{s}`"),
            EscapeError::BadHex(s) => write!(f, "bad escape in `{s}`"),
            EscapeError::NotUtf8(s) => write!(f, "non-UTF8 data in `{s}`"),
        }
    }
}

impl std::error::Error for EscapeError {}

/// Reverses [`escape`].
pub fn unescape(s: &str) -> Result<String, EscapeError> {
    let mut bytes = Vec::with_capacity(s.len());
    let raw = s.as_bytes();
    let mut i = 0;
    while i < raw.len() {
        if raw[i] == b'%' {
            let hex = raw
                .get(i + 1..i + 3)
                .ok_or_else(|| EscapeError::Truncated(s.to_string()))?;
            let code = u8::from_str_radix(std::str::from_utf8(hex).unwrap_or("zz"), 16)
                .map_err(|_| EscapeError::BadHex(s.to_string()))?;
            bytes.push(code);
            i += 3;
        } else {
            bytes.push(raw[i]);
            i += 1;
        }
    }
    String::from_utf8(bytes).map_err(|_| EscapeError::NotUtf8(s.to_string()))
}

/// FNV-1a offset basis, 128-bit variant.
pub const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// FNV-1a prime, 128-bit variant.
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;

/// Incremental FNV-1a/128: feeding a byte stream in any number of
/// [`ContentHasher::write`] calls gives the digest of the whole stream.
/// The one implementation of the function: [`content_digest`] is its
/// one-shot form, `core::hash::StableHasher` (pipeline cache keys and
/// artifact hashes) wraps it, and the dataset text writer feeds it the
/// canonical text chunk by chunk when only the digest is wanted.
#[derive(Debug, Clone)]
pub struct ContentHasher {
    state: u128,
}

impl Default for ContentHasher {
    fn default() -> Self {
        ContentHasher {
            state: FNV128_OFFSET,
        }
    }
}

impl ContentHasher {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        ContentHasher::default()
    }

    /// Absorbs the next bytes of the stream.
    pub fn write(&mut self, bytes: &[u8]) {
        let mut state = self.state;
        for &b in bytes {
            state ^= u128::from(b);
            state = state.wrapping_mul(FNV128_PRIME);
        }
        self.state = state;
    }

    /// The digest of every byte written so far.
    pub fn finish(&self) -> u128 {
        self.state
    }
}

/// FNV-1a/128 digest of a byte stream — the same function the pipeline
/// cache uses for artifact hashes (`core::hash::stable_hash`). The
/// binary columnar header stores this digest of the canonical text form,
/// which is what makes a converted file replay against caches keyed on
/// the text bytes.
pub fn content_digest(bytes: &[u8]) -> u128 {
    let mut h = ContentHasher::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    const M: Magic = Magic::new("remedy-test", 3);

    #[test]
    fn magic_line_renders() {
        assert_eq!(M.line(), "remedy-test v3");
    }

    #[test]
    fn expect_accepts_exact_header() {
        assert_eq!(M.expect(Some("remedy-test v3")), Ok(()));
    }

    #[test]
    fn expect_distinguishes_version_from_family() {
        assert!(matches!(
            M.expect(None),
            Err(DecodeError::MissingHeader { .. })
        ));
        match M.expect(Some("remedy-test v4")) {
            Err(DecodeError::WrongVersion {
                supported, found, ..
            }) => {
                assert_eq!(supported, 3);
                assert_eq!(found, "4");
            }
            other => panic!("expected WrongVersion, got {other:?}"),
        }
        assert!(matches!(
            M.expect(Some("remedy-other v3")),
            Err(DecodeError::WrongFamily { .. })
        ));
        let err = M.expect(Some("junk")).unwrap_err();
        assert!(err.to_string().contains("remedy-test v3"), "{err}");
    }

    #[test]
    fn sniff_requires_full_magic_line() {
        assert!(M.sniff(b"remedy-test v3\nrest"));
        assert!(!M.sniff(b"remedy-test v3"));
        assert!(!M.sniff(b"remedy-test v30\n"));
        assert!(!M.sniff(b"\x00\x01\x02"));
    }

    #[test]
    fn bytes_open_checks_the_magic_line() {
        let header = |bytes: &[u8]| match Bytes::open(bytes, M) {
            Err(DecodeError::Corrupt {
                section: "header",
                offset: 0,
                message,
            }) => message,
            other => panic!("expected a header error, got {other:?}"),
        };
        assert!(header(b"remedy-test v4\n").contains("not supported"));
        assert!(header(b"remedy-other v3\n").contains("remedy-test v3"));
        assert_eq!(header(b"remedy-test v3"), "truncated magic line");
        let r = Bytes::open(b"remedy-test v3\nrest", M).unwrap();
        assert_eq!((r.offset(), r.left()), (15, 4));
    }

    #[test]
    fn bytes_reads_little_endian_fields_strings_and_counts() {
        let mut input = vec![7u8];
        input.extend_from_slice(&0x0102_0304u32.to_le_bytes());
        input.extend_from_slice(&u64::MAX.to_le_bytes());
        input.extend_from_slice(&3u128.to_le_bytes());
        input.extend_from_slice(&2u32.to_le_bytes());
        input.extend_from_slice("é".as_bytes());
        input.extend_from_slice(&2u32.to_le_bytes());
        input.extend_from_slice(b"xy");
        let mut r = Bytes::new(&input, "body");
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u32(), Ok(0x0102_0304));
        assert_eq!(r.u64(), Ok(u64::MAX));
        assert_eq!(r.u128(), Ok(3));
        assert_eq!(r.str(), Ok("é"));
        // six bytes are left: three two-byte records fit, four do not
        assert_eq!(r.fits("pairs", 3, 2), Ok(3));
        let err = r.fits("pairs", 4, 2).unwrap_err();
        assert_eq!(
            err.to_string(),
            "body section, byte 35: pairs 4 cannot fit in the 6 bytes left"
        );
        assert_eq!(r.count("bytes", 1), Ok(2));
        r.section("tail");
        assert!(r.end().is_err());
        assert_eq!(r.take(2), Ok(&b"xy"[..]));
        assert_eq!(r.end(), Ok(()));
        let err = r.u8().unwrap_err();
        assert_eq!(
            err.to_string(),
            "tail section, byte 41: need 1 bytes, 0 left"
        );
    }

    #[test]
    fn bytes_rejects_non_utf8_strings() {
        let mut input = 1u32.to_le_bytes().to_vec();
        input.push(0xff);
        let err = Bytes::new(&input, "schema").str().unwrap_err();
        assert!(err.to_string().contains("non-UTF8"), "{err}");
    }

    #[test]
    fn escape_covers_non_ascii_bytes() {
        // "é" is 0xc3 0xa9 in UTF-8: both bytes must be escaped, or the
        // byte-level unescape would reconstruct a double-encoded string.
        assert_eq!(escape("é"), "%c3%a9");
        assert_eq!(escape("a b%c\td\n"), "a%20b%25c%09d%0a");
        assert_eq!(escape("plain"), "plain");
        assert!(escape("日本語").is_ascii());
    }

    #[test]
    fn unescape_reverses_escape() {
        for s in ["é", "日本語", "a b%c\td\n", "plain", "mixé ça"] {
            assert_eq!(unescape(&escape(s)).unwrap(), s, "round trip of {s:?}");
        }
    }

    #[test]
    fn unescape_rejects_malformed_tokens() {
        assert!(matches!(unescape("abc%2"), Err(EscapeError::Truncated(_))));
        assert!(matches!(unescape("abc%zz"), Err(EscapeError::BadHex(_))));
        // 0xff alone is not valid UTF-8
        assert!(matches!(unescape("%ff"), Err(EscapeError::NotUtf8(_))));
    }

    #[test]
    fn digest_matches_fnv_reference_vectors() {
        // same spec vectors pinned in core::hash
        assert_eq!(content_digest(b""), FNV128_OFFSET);
        assert_eq!(
            content_digest(b"a"),
            0xd228_cb69_6f1a_8caf_7891_2b70_4e4a_8964
        );
    }

    #[test]
    fn incremental_digest_matches_one_shot_at_every_split() {
        let input: Vec<u8> = (0..=255u8)
            .chain(*b"remedy-dataset v1\n0 1 3ff0\n")
            .collect();
        let whole = content_digest(&input);
        for split in 0..=input.len() {
            let mut h = ContentHasher::new();
            h.write(&input[..split]);
            h.write(&input[split..]);
            assert_eq!(h.finish(), whole, "split at {split}");
        }
        // and byte by byte
        let mut h = ContentHasher::new();
        input.iter().for_each(|b| h.write(std::slice::from_ref(b)));
        assert_eq!(h.finish(), whole);
    }
}
