//! Single-pass parser over a position-tracking cursor.
//!
//! Every parse failure is a typed [`XmlErrorKind`] carrying the byte
//! offset where it was detected, and every parsed element/attribute is
//! annotated with its byte [`Span`] — the raw material for the lint
//! engine's source-anchored diagnostics. The parser is iterative and
//! caps element nesting at [`MAX_DEPTH`], so no input can overflow the
//! stack of the parser or of code that walks the tree it returns.

use crate::ast::{Element, Node};
use crate::error::{Position, Span, XmlError, XmlErrorKind};

/// Deepest element nesting [`parse`] accepts. The parser itself keeps
/// open elements on the heap, but whoever walks or drops the tree
/// recurses once per level. SCUFL and descriptor documents nest fewer
/// than ten levels; a provenance history nests one level per
/// derivation step, so the limit leaves room for long chains.
pub const MAX_DEPTH: usize = 1024;

/// Parse a complete document and return its root element.
///
/// Leading XML declarations, processing instructions and comments are
/// skipped; trailing content other than whitespace/comments is an error.
pub fn parse(input: &str) -> Result<Element, XmlError> {
    let mut cur = Cursor::new(input);
    cur.skip_misc();
    let root = cur.parse_element()?;
    cur.skip_misc();
    if !cur.at_end() {
        return Err(cur.error(XmlErrorKind::ContentAfterRoot));
    }
    Ok(root)
}

struct Cursor<'a> {
    input: &'a str,
    /// Byte offset into `input`.
    pos: usize,
    line: u32,
    column: u32,
}

impl<'a> Cursor<'a> {
    fn new(input: &'a str) -> Self {
        Cursor {
            input,
            pos: 0,
            line: 1,
            column: 1,
        }
    }

    fn position(&self) -> Position {
        Position {
            line: self.line,
            column: self.column,
            offset: self.pos,
        }
    }

    fn error(&self, kind: XmlErrorKind) -> XmlError {
        XmlError::new(self.position(), kind)
    }

    fn at_end(&self) -> bool {
        self.pos >= self.input.len()
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn peek(&self) -> Option<char> {
        self.rest().chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        if c == '\n' {
            self.line += 1;
            self.column = 1;
        } else {
            self.column += 1;
        }
        Some(c)
    }

    fn starts_with(&self, s: &str) -> bool {
        self.rest().starts_with(s)
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.starts_with(s) {
            for _ in s.chars() {
                self.bump();
            }
            true
        } else {
            false
        }
    }

    fn expect(&mut self, s: &str) -> Result<(), XmlError> {
        if self.eat(s) {
            Ok(())
        } else {
            Err(self.error(XmlErrorKind::Expected { what: s.into() }))
        }
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.bump();
        }
    }

    /// Skip whitespace, comments, XML declarations and processing
    /// instructions — the "misc" productions allowed around the root.
    fn skip_misc(&mut self) {
        loop {
            self.skip_whitespace();
            if self.starts_with("<!--") {
                // A comment may legally contain anything except `--`.
                if self.skip_until("-->").is_err() {
                    return; // unterminated; the element parser will report it
                }
            } else if self.starts_with("<?") {
                if self.skip_until("?>").is_err() {
                    return;
                }
            } else {
                return;
            }
        }
    }

    fn skip_until(&mut self, end: &str) -> Result<(), ()> {
        while !self.at_end() {
            if self.eat(end) {
                return Ok(());
            }
            self.bump();
        }
        Err(())
    }

    fn parse_name(&mut self) -> Result<String, XmlError> {
        let start = self.pos;
        match self.peek() {
            Some(c) if is_name_start(c) => {
                self.bump();
            }
            _ => return Err(self.error(XmlErrorKind::ExpectedName)),
        }
        while matches!(self.peek(), Some(c) if is_name_char(c)) {
            self.bump();
        }
        Ok(self.input[start..self.pos].to_string())
    }

    /// Parse one element and everything inside it. Iterative: open
    /// elements live on an explicit stack, so nesting costs heap, not
    /// call stack, and stops at [`MAX_DEPTH`].
    fn parse_element(&mut self) -> Result<Element, XmlError> {
        let (root, closed) = self.parse_start_tag()?;
        if closed {
            return Ok(root);
        }
        // Open elements, innermost last, each with its pending text.
        let mut open = vec![(root, String::new())];
        loop {
            let (element, text) = open.last_mut().expect("an element is open");
            if self.at_end() {
                return Err(self.error(XmlErrorKind::UnclosedElement {
                    name: element.name.clone(),
                }));
            }
            if self.starts_with("</") {
                flush_text(text, element);
                self.expect("</")?;
                let close_pos = self.position();
                let close = self.parse_name()?;
                if close != element.name {
                    return Err(XmlError::new(
                        close_pos,
                        XmlErrorKind::MismatchedEndTag {
                            expected: element.name.clone(),
                            found: close,
                        },
                    ));
                }
                self.skip_whitespace();
                self.expect(">")?;
                let (mut done, _) = open.pop().expect("an element is open");
                done.span = Span::new(done.span.start, self.pos);
                match open.last_mut() {
                    Some((parent, _)) => parent.children.push(Node::Element(done)),
                    None => return Ok(done),
                }
                continue;
            }
            if self.starts_with("<!--") {
                self.expect("<!--")?;
                if self.skip_until("-->").is_err() {
                    return Err(self.error(XmlErrorKind::Unterminated {
                        construct: "comment",
                    }));
                }
                continue;
            }
            if self.starts_with("<![CDATA[") {
                self.expect("<![CDATA[")?;
                let start = self.pos;
                loop {
                    if self.at_end() {
                        return Err(self.error(XmlErrorKind::Unterminated {
                            construct: "CDATA section",
                        }));
                    }
                    if self.starts_with("]]>") {
                        text.push_str(&self.input[start..self.pos]);
                        self.expect("]]>")?;
                        break;
                    }
                    self.bump();
                }
                continue;
            }
            if self.starts_with("<?") {
                self.expect("<?")?;
                if self.skip_until("?>").is_err() {
                    return Err(self.error(XmlErrorKind::Unterminated {
                        construct: "processing instruction",
                    }));
                }
                continue;
            }
            if self.starts_with("<") {
                flush_text(text, element);
                if open.len() == MAX_DEPTH {
                    return Err(self.error(XmlErrorKind::TooDeep { limit: MAX_DEPTH }));
                }
                let (child, closed) = self.parse_start_tag()?;
                if closed {
                    let (parent, _) = open.last_mut().expect("an element is open");
                    parent.children.push(Node::Element(child));
                } else {
                    open.push((child, String::new()));
                }
                continue;
            }
            match self.peek() {
                Some('&') => text.push(self.parse_reference()?),
                Some(c) => {
                    text.push(c);
                    self.bump();
                }
                None => unreachable!("at_end checked above"),
            }
        }
    }

    /// Parse a start tag with its attributes. Returns the element and
    /// whether it closed itself (`/>`); an element left open carries
    /// its start offset in its span until its end tag is parsed.
    fn parse_start_tag(&mut self) -> Result<(Element, bool), XmlError> {
        let open_start = self.pos;
        self.expect("<")?;
        let name = self.parse_name()?;
        let mut element = Element::new(name);

        // Attributes.
        loop {
            self.skip_whitespace();
            match self.peek() {
                Some('>') | Some('/') => break,
                Some(c) if is_name_start(c) => {
                    let attr_pos = self.position();
                    let attr = self.parse_name()?;
                    self.skip_whitespace();
                    self.expect("=")?;
                    self.skip_whitespace();
                    let value = self.parse_attr_value()?;
                    if element.attr(&attr).is_some() {
                        return Err(XmlError::new(
                            attr_pos,
                            XmlErrorKind::DuplicateAttribute { name: attr },
                        ));
                    }
                    element.attributes.push((attr, value));
                    element
                        .attr_spans
                        .push(Span::new(attr_pos.offset, self.pos));
                }
                _ => return Err(self.error(XmlErrorKind::ExpectedAttribute)),
            }
        }

        if self.eat("/>") {
            element.span = Span::new(open_start, self.pos);
            return Ok((element, true));
        }
        self.expect(">")?;
        element.span = Span::new(open_start, open_start);
        Ok((element, false))
    }

    fn parse_attr_value(&mut self) -> Result<String, XmlError> {
        let Some(quote @ ('"' | '\'')) = self.peek() else {
            return Err(self.error(XmlErrorKind::ExpectedAttrValue));
        };
        self.bump();
        let mut value = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error(XmlErrorKind::UnterminatedAttrValue)),
                Some(c) if c == quote => {
                    self.bump();
                    return Ok(value);
                }
                Some('<') => return Err(self.error(XmlErrorKind::AngleInAttrValue)),
                Some('&') => value.push(self.parse_reference()?),
                Some(c) => {
                    value.push(c);
                    self.bump();
                }
            }
        }
    }

    /// Parse `&...;` — predefined entity or character reference.
    fn parse_reference(&mut self) -> Result<char, XmlError> {
        let start_pos = self.position();
        self.expect("&")?;
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c != ';' && !c.is_whitespace()) {
            self.bump();
        }
        let body = &self.input[start..self.pos];
        if !self.eat(";") {
            return Err(XmlError::new(
                start_pos,
                XmlErrorKind::UnterminatedReference,
            ));
        }
        match body {
            "lt" => Ok('<'),
            "gt" => Ok('>'),
            "amp" => Ok('&'),
            "apos" => Ok('\''),
            "quot" => Ok('"'),
            _ if body.starts_with("#x") || body.starts_with("#X") => {
                let code = u32::from_str_radix(&body[2..], 16).map_err(|_| {
                    XmlError::new(
                        start_pos,
                        XmlErrorKind::BadCharacterReference { body: body.into() },
                    )
                })?;
                char::from_u32(code).ok_or(XmlError::new(
                    start_pos,
                    XmlErrorKind::CharacterOutOfRange { code },
                ))
            }
            _ if body.starts_with('#') => {
                let code = body[1..].parse::<u32>().map_err(|_| {
                    XmlError::new(
                        start_pos,
                        XmlErrorKind::BadCharacterReference { body: body.into() },
                    )
                })?;
                char::from_u32(code).ok_or(XmlError::new(
                    start_pos,
                    XmlErrorKind::CharacterOutOfRange { code },
                ))
            }
            other => Err(XmlError::new(
                start_pos,
                XmlErrorKind::UnknownEntity { name: other.into() },
            )),
        }
    }
}

/// Append accumulated text as a child node unless it is pure
/// inter-element whitespace.
fn flush_text(text: &mut String, element: &mut Element) {
    if !text.is_empty() {
        if !text.chars().all(char::is_whitespace) {
            element.children.push(Node::Text(std::mem::take(text)));
        } else {
            text.clear();
        }
    }
}

fn is_name_start(c: char) -> bool {
    c.is_alphabetic() || c == '_' || c == ':'
}

fn is_name_char(c: char) -> bool {
    is_name_start(c) || c.is_ascii_digit() || c == '-' || c == '.'
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_empty_element() {
        let e = parse("<a/>").unwrap();
        assert_eq!(e, Element::new("a"));
    }

    #[test]
    fn parses_attributes_both_quote_styles() {
        let e = parse(r#"<a x="1" y='two'/>"#).unwrap();
        assert_eq!(e.attr("x"), Some("1"));
        assert_eq!(e.attr("y"), Some("two"));
    }

    #[test]
    fn parses_nested_elements_and_text() {
        let e = parse("<a><b>hello</b><c/></a>").unwrap();
        assert_eq!(e.child("b").unwrap().text(), "hello");
        assert!(e.child("c").is_some());
    }

    #[test]
    fn interelement_whitespace_is_dropped() {
        let e = parse("<a>\n  <b/>\n  <c/>\n</a>").unwrap();
        assert_eq!(e.children.len(), 2);
    }

    #[test]
    fn significant_text_is_kept() {
        let e = parse("<a> x <b/> y </a>").unwrap();
        assert_eq!(e.children.len(), 3);
        assert_eq!(e.children[0].as_text(), Some(" x "));
    }

    #[test]
    fn decodes_predefined_entities_in_text_and_attrs() {
        let e = parse(r#"<a v="&lt;&amp;&gt;">&quot;&apos;</a>"#).unwrap();
        assert_eq!(e.attr("v"), Some("<&>"));
        assert_eq!(e.text(), "\"'");
    }

    #[test]
    fn decodes_character_references() {
        let e = parse("<a>&#65;&#x42;</a>").unwrap();
        assert_eq!(e.text(), "AB");
    }

    #[test]
    fn skips_xml_declaration_and_comments() {
        let e =
            parse("<?xml version=\"1.0\"?>\n<!-- hi -->\n<a><!-- inner --><b/></a>\n<!-- bye -->")
                .unwrap();
        assert_eq!(e.children.len(), 1);
    }

    #[test]
    fn cdata_is_literal_text() {
        let e = parse("<a><![CDATA[<not> & parsed]]></a>").unwrap();
        assert_eq!(e.text(), "<not> & parsed");
    }

    #[test]
    fn rejects_mismatched_end_tag() {
        let err = parse("<a><b></a></b>").unwrap_err();
        assert!(
            matches!(
                &err.kind,
                XmlErrorKind::MismatchedEndTag { expected, found }
                    if expected == "b" && found == "a"
            ),
            "{err}"
        );
    }

    #[test]
    fn rejects_unclosed_element() {
        let err = parse("<a><b/>").unwrap_err();
        assert!(
            matches!(&err.kind, XmlErrorKind::UnclosedElement { name } if name == "a"),
            "{err}"
        );
        assert_eq!(err.offset(), 7, "error points at end of input");
    }

    #[test]
    fn rejects_duplicate_attribute() {
        let err = parse(r#"<a x="1" x="2"/>"#).unwrap_err();
        assert!(
            matches!(&err.kind, XmlErrorKind::DuplicateAttribute { name } if name == "x"),
            "{err}"
        );
        assert_eq!(err.offset(), 9, "error points at the second `x`");
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert_eq!(
            parse("<a/><b/>").unwrap_err().kind,
            XmlErrorKind::ContentAfterRoot
        );
        assert_eq!(
            parse("<a/>text").unwrap_err().kind,
            XmlErrorKind::ContentAfterRoot
        );
    }

    #[test]
    fn rejects_unknown_entity() {
        let err = parse("<a>&nbsp;</a>").unwrap_err();
        assert!(
            matches!(&err.kind, XmlErrorKind::UnknownEntity { name } if name == "nbsp"),
            "{err}"
        );
        assert_eq!(err.offset(), 3, "error points at the `&`");
    }

    #[test]
    fn rejects_bad_character_reference() {
        // Surrogate code point: numerically valid, not a scalar value.
        let err = parse("<a>&#xD800;</a>").unwrap_err();
        assert!(matches!(
            err.kind,
            XmlErrorKind::CharacterOutOfRange { code: 0xD800 }
        ));
        let err = parse("<a>&#zz;</a>").unwrap_err();
        assert!(matches!(
            err.kind,
            XmlErrorKind::BadCharacterReference { .. }
        ));
    }

    #[test]
    fn error_positions_are_tracked() {
        let err = parse("<a>\n  <b x=></b>\n</a>").unwrap_err();
        assert_eq!(err.position.line, 2);
        assert!(err.position.column > 1);
        // Byte offset points inside line 2 (after the "<a>\n" prefix).
        assert!(err.offset() > 4);
        assert_eq!(&"<a>\n  <b x=></b>\n</a>"[err.offset()..=err.offset()], ">");
    }

    #[test]
    fn names_allow_colon_dash_dot_underscore() {
        let e = parse(r#"<ns:el-em.ent _a-b.c="1"/>"#).unwrap();
        assert_eq!(e.name, "ns:el-em.ent");
        assert_eq!(e.attr("_a-b.c"), Some("1"));
    }

    #[test]
    fn rejects_lt_in_attribute_value() {
        assert_eq!(
            parse(r#"<a v="<"/>"#).unwrap_err().kind,
            XmlErrorKind::AngleInAttrValue
        );
    }

    #[test]
    fn whitespace_allowed_in_end_tag_and_around_eq() {
        let e = parse("<a  x = \"1\" ></a >").unwrap();
        assert_eq!(e.attr("x"), Some("1"));
    }

    #[test]
    fn element_spans_cover_the_source_text() {
        let src = "<a>\n  <b x=\"1\"/>\n  <c>t</c>\n</a>";
        let e = parse(src).unwrap();
        assert_eq!(&src[e.span.start..e.span.end], src, "root spans everything");
        let b = e.child("b").unwrap();
        assert_eq!(&src[b.span.start..b.span.end], "<b x=\"1\"/>");
        let c = e.child("c").unwrap();
        assert_eq!(&src[c.span.start..c.span.end], "<c>t</c>");
    }

    #[test]
    fn attribute_spans_cover_name_and_value() {
        let src = r#"<a first="1" second='two'/>"#;
        let e = parse(src).unwrap();
        let s1 = e.attr_span("first").unwrap();
        assert_eq!(&src[s1.start..s1.end], r#"first="1""#);
        let s2 = e.attr_span("second").unwrap();
        assert_eq!(&src[s2.start..s2.end], "second='two'");
        assert_eq!(e.attr_span("missing"), None);
    }

    #[test]
    fn builder_elements_have_empty_spans() {
        let e = Element::new("a").with_attr("x", "1");
        assert!(e.span.is_empty());
        assert_eq!(e.attr_span("x"), Some(Span::EMPTY));
    }

    #[test]
    fn spans_survive_nesting_depth() {
        let src = "<w><p><q><r/></q></p></w>";
        let e = parse(src).unwrap();
        let r = e.path(&["p", "q", "r"]).unwrap();
        assert_eq!(&src[r.span.start..r.span.end], "<r/>");
        assert_eq!(r.span.line_col(src), (1, 10));
    }

    // Malformed-input regression battery: every failure class returns a
    // typed error with a byte offset inside the input — never a panic.
    #[test]
    fn malformed_inputs_error_with_in_bounds_offsets() {
        let cases: &[&str] = &[
            "",
            "   ",
            "<",
            "<a",
            "<a ",
            "<a x",
            "<a x=",
            "<a x=1/>",
            "<a x=\"1/>",
            "<a x='1/>",
            "<a><b>",
            "<a></b>",
            "<a/><a/>",
            "<a>&",
            "<a>&amp</a>",
            "<a>&#;</a>",
            "<a>&#x;</a>",
            "<a>&#x110000;</a>",
            "<a><!-- never closed",
            "<a><![CDATA[ never closed",
            "<a><? never closed",
            "<a v=\"<\"/>",
            "<1bad/>",
            "<a 1bad=\"x\"/>",
            "<a></a  x>",
            "<a x=\"1\" x=\"2\"/>",
        ];
        for case in cases {
            let err = parse(case).unwrap_err();
            assert!(
                err.offset() <= case.len(),
                "offset {} out of bounds for {case:?}",
                err.offset()
            );
            // The rendered message and position agree with the kind.
            assert!(err.to_string().contains("XML error at"), "{err}");
        }
    }

    #[test]
    fn nesting_is_capped_with_a_typed_error() {
        let nested = |n: usize| format!("{}{}", "<a>".repeat(n), "</a>".repeat(n));
        let at_limit = parse(&nested(MAX_DEPTH)).unwrap();
        assert_eq!(at_limit.name, "a");
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.kind, XmlErrorKind::TooDeep { limit: MAX_DEPTH });
        assert_eq!(
            err.offset(),
            3 * MAX_DEPTH,
            "error points at the opening `<`"
        );
        // Far past the limit the parser stops at the limit, in linear
        // time and bounded stack.
        let err = parse(&"<a>".repeat(200_000)).unwrap_err();
        assert_eq!(err.kind, XmlErrorKind::TooDeep { limit: MAX_DEPTH });
        assert!(err.to_string().contains("nested deeper than 1024"), "{err}");
    }

    #[test]
    fn parses_figure8_descriptor_shape() {
        // Abbreviated version of the paper's Fig. 8 example.
        let doc = parse(
            r#"<description>
                 <executable name="CrestLines.pl">
                   <access type="URL"><path value="http://colors.unice.fr"/></access>
                   <value value="CrestLines.pl"/>
                   <input name="floating_image" option="-im1"><access type="GFN"/></input>
                   <input name="scale" option="-s"/>
                   <output name="crest_reference" option="-c1"><access type="GFN"/></output>
                   <sandbox name="convert8bits">
                     <access type="URL"><path value="http://colors.unice.fr"/></access>
                     <value value="Convert8bits.pl"/>
                   </sandbox>
                 </executable>
               </description>"#,
        )
        .unwrap();
        let exe = doc.child("executable").unwrap();
        assert_eq!(exe.attr("name"), Some("CrestLines.pl"));
        assert_eq!(exe.children_named("input").count(), 2);
        assert_eq!(exe.path(&["access"]).unwrap().attr("type"), Some("URL"));
    }
}
