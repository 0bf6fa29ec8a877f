//! Error, source-position and span types for the XML parser.
//!
//! Every error carries the byte offset where it was detected (via
//! [`Position::offset`]) so downstream diagnostics engines can point at
//! the exact source location; [`Span`] is the half-open byte range used
//! to annotate parsed elements and attributes.

use std::fmt;

/// A half-open byte range `[start, end)` into the source text.
///
/// The empty span `0..0` marks nodes built programmatically rather than
/// parsed from a document; such spans render as "no location".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    pub start: usize,
    pub end: usize,
}

impl Span {
    /// The "no location" span used by builder-constructed nodes.
    pub const EMPTY: Span = Span { start: 0, end: 0 };

    pub fn new(start: usize, end: usize) -> Span {
        Span { start, end }
    }

    /// True for the builder placeholder (`0..0`).
    pub fn is_empty(&self) -> bool {
        self.start == 0 && self.end == 0
    }

    pub fn len(&self) -> usize {
        self.end.saturating_sub(self.start)
    }

    /// Smallest span covering both `self` and `other`. An empty operand
    /// yields the other one, so builders can fold spans safely.
    pub fn to(self, other: Span) -> Span {
        if self.is_empty() {
            return other;
        }
        if other.is_empty() {
            return self;
        }
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// 1-based (line, column) of `start` within `source`, counting
    /// columns in characters. Returns (1, 1) when out of range.
    pub fn line_col(&self, source: &str) -> (u32, u32) {
        let upto = &source[..self.start.min(source.len())];
        let line = upto.bytes().filter(|&b| b == b'\n').count() as u32 + 1;
        let col = upto
            .rsplit_once('\n')
            .map_or(upto, |(_, tail)| tail)
            .chars()
            .count() as u32
            + 1;
        (line, col)
    }
}

/// A 1-based line/column position in the source text, plus the byte
/// offset it corresponds to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Position {
    pub line: u32,
    pub column: u32,
    /// Byte offset into the source text.
    pub offset: usize,
}

impl Position {
    pub const START: Position = Position {
        line: 1,
        column: 1,
        offset: 0,
    };

    /// A zero-length span at this position.
    pub fn span(&self) -> Span {
        Span {
            start: self.offset,
            end: self.offset,
        }
    }
}

impl fmt::Display for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.column)
    }
}

/// What went wrong, as a typed variant (rather than a free-form string)
/// so callers can match on the failure class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlErrorKind {
    /// A specific token was required (`<`, `>`, `=`, `</`…).
    Expected { what: String },
    /// A name (element or attribute) was required.
    ExpectedName,
    /// An attribute, `>` or `/>` was required inside a start tag.
    ExpectedAttribute,
    /// A quoted attribute value was required.
    ExpectedAttrValue,
    /// The input ended inside an attribute value.
    UnterminatedAttrValue,
    /// `<` appeared inside an attribute value.
    AngleInAttrValue,
    /// The same attribute name appeared twice on one element.
    DuplicateAttribute { name: String },
    /// `</b>` closed an element opened as `<a>`.
    MismatchedEndTag { expected: String, found: String },
    /// The input ended before the element was closed.
    UnclosedElement { name: String },
    /// A comment, CDATA section or processing instruction never ended.
    Unterminated { construct: &'static str },
    /// `&name;` with an unknown entity name.
    UnknownEntity { name: String },
    /// `&...` without a closing `;`.
    UnterminatedReference,
    /// `&#...;` that is not a valid character number.
    BadCharacterReference { body: String },
    /// A character reference naming a code point outside Unicode scalar
    /// values (e.g. a surrogate).
    CharacterOutOfRange { code: u32 },
    /// Non-whitespace content after the root element.
    ContentAfterRoot,
    /// Elements nested deeper than the parser's limit.
    TooDeep { limit: usize },
}

impl fmt::Display for XmlErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XmlErrorKind::Expected { what } => write!(f, "expected `{what}`"),
            XmlErrorKind::ExpectedName => write!(f, "expected a name"),
            XmlErrorKind::ExpectedAttribute => write!(f, "expected attribute, `>` or `/>`"),
            XmlErrorKind::ExpectedAttrValue => write!(f, "expected a quoted attribute value"),
            XmlErrorKind::UnterminatedAttrValue => write!(f, "unterminated attribute value"),
            XmlErrorKind::AngleInAttrValue => write!(f, "`<` not allowed in attribute value"),
            XmlErrorKind::DuplicateAttribute { name } => {
                write!(f, "duplicate attribute `{name}`")
            }
            XmlErrorKind::MismatchedEndTag { expected, found } => write!(
                f,
                "mismatched end tag: expected `</{expected}>`, found `</{found}>`"
            ),
            XmlErrorKind::UnclosedElement { name } => write!(f, "unclosed element `{name}`"),
            XmlErrorKind::Unterminated { construct } => write!(f, "unterminated {construct}"),
            XmlErrorKind::UnknownEntity { name } => write!(f, "unknown entity `&{name};`"),
            XmlErrorKind::UnterminatedReference => write!(f, "unterminated entity reference"),
            XmlErrorKind::BadCharacterReference { body } => {
                write!(f, "bad character reference `&{body};`")
            }
            XmlErrorKind::CharacterOutOfRange { code } => {
                write!(f, "character reference out of range (#{code})")
            }
            XmlErrorKind::ContentAfterRoot => write!(f, "content after the root element"),
            XmlErrorKind::TooDeep { limit } => {
                write!(f, "elements nested deeper than {limit}")
            }
        }
    }
}

/// Parse error: a typed kind plus the position (line/column *and* byte
/// offset) where it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    pub position: Position,
    pub kind: XmlErrorKind,
}

impl XmlError {
    pub fn new(position: Position, kind: XmlErrorKind) -> Self {
        XmlError { position, kind }
    }

    /// The rendered message, without the position prefix.
    pub fn message(&self) -> String {
        self.kind.to_string()
    }

    /// Byte offset of the error in the source text.
    pub fn offset(&self) -> usize {
        self.position.offset
    }

    /// A zero-length span at the error location, for diagnostics.
    pub fn span(&self) -> Span {
        self.position.span()
    }
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML error at {}: {}", self.position, self.kind)
    }
}

impl std::error::Error for XmlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn position_displays_line_colon_column() {
        let p = Position {
            line: 3,
            column: 17,
            offset: 42,
        };
        assert_eq!(p.to_string(), "3:17");
        assert_eq!(p.span(), Span::new(42, 42));
    }

    #[test]
    fn error_display_includes_position_and_message() {
        let e = XmlError::new(
            Position {
                line: 2,
                column: 5,
                offset: 9,
            },
            XmlErrorKind::Expected { what: "<".into() },
        );
        assert_eq!(e.to_string(), "XML error at 2:5: expected `<`");
        assert_eq!(e.offset(), 9);
        assert_eq!(e.message(), "expected `<`");
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&XmlError::new(Position::START, XmlErrorKind::ExpectedName));
    }

    #[test]
    fn span_union_and_emptiness() {
        assert!(Span::EMPTY.is_empty());
        assert!(!Span::new(0, 1).is_empty());
        assert_eq!(Span::new(3, 5).to(Span::new(8, 10)), Span::new(3, 10));
        assert_eq!(Span::EMPTY.to(Span::new(2, 4)), Span::new(2, 4));
        assert_eq!(Span::new(2, 4).to(Span::EMPTY), Span::new(2, 4));
        assert_eq!(Span::new(2, 7).len(), 5);
    }

    #[test]
    fn line_col_counts_from_one() {
        let src = "ab\ncde\nf";
        assert_eq!(Span::new(0, 1).line_col(src), (1, 1));
        assert_eq!(Span::new(4, 5).line_col(src), (2, 2));
        assert_eq!(Span::new(7, 8).line_col(src), (3, 1));
        assert_eq!(Span::new(999, 999).line_col(src), (3, 2));
    }
}
