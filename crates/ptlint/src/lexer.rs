//! A minimal Rust lexer: the token stream the lock-order check walks.
//!
//! This is deliberately *not* a full parser. The check needs exactly
//! two things a grep cannot provide:
//!
//! 1. **String/comment awareness** — `.lock()` inside a doc comment or a
//!    string literal is not an acquisition. The lexer strips comments
//!    and keeps literals as single tokens, so the check never matches
//!    inside them.
//! 2. **Brace structure** — function bodies, guard scopes and
//!    `#[cfg(test)]`-gated regions are brace-balanced token ranges,
//!    which is all the scoping the check needs.
//!
//! The lexer handles the full literal syntax that appears in this
//! workspace: nested block comments, raw strings with arbitrary `#`
//! fences, byte/char literals vs. lifetimes, and raw identifiers. It
//! never panics on malformed input; an unterminated literal simply runs
//! to end-of-file (the compiler, not the linter, owns that diagnosis).

/// What a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fs`, `use`, `unwrap`, ...).
    Ident,
    /// One punctuation character (`.`, `[`, `::` is two tokens).
    Punct,
    /// String literal (`"..."`, `r#"..."#`, `b"..."`); `text` holds the
    /// raw inner bytes without quotes or fences.
    Str,
    /// Character or byte literal (`'x'`, `b'\n'`).
    Char,
    /// Numeric literal.
    Num,
    /// Lifetime (`'a`), including the tick.
    Lifetime,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    /// Classification.
    pub kind: TokenKind,
    /// Token text (see [`TokenKind`] for what each kind stores).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Token {
    /// True when this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    /// True when this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.starts_with(c)
    }
}

/// A lexed source file: tokens plus per-token test-region
/// classification.
#[derive(Debug)]
pub struct LexedFile {
    /// All non-comment tokens in source order.
    pub tokens: Vec<Token>,
    /// Parallel to `tokens`: true when the token sits inside a
    /// `#[cfg(test)]` / `#[test]`-gated item.
    pub in_test: Vec<bool>,
}

impl LexedFile {
    /// Lex `src` and classify test regions.
    pub fn lex(src: &str) -> LexedFile {
        let tokens = tokenize(src);
        let in_test = mark_test_regions(&tokens);
        LexedFile { tokens, in_test }
    }

    /// The token index range `[open+1, close)` for the brace block whose
    /// opening `{` is at `open`; `close` points at the matching `}` (or
    /// `tokens.len()` when unbalanced).
    pub fn brace_span(&self, open: usize) -> (usize, usize) {
        debug_assert!(self.tokens[open].is_punct('{'));
        let mut depth = 0usize;
        for (i, t) in self.tokens.iter().enumerate().skip(open) {
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    return (open + 1, i);
                }
            }
        }
        (open + 1, self.tokens.len())
    }
}

fn tokenize(src: &str) -> Vec<Token> {
    let bytes = src.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '/' if bytes.get(i + 1) == Some(&b'*') => {
                let mut depth = 1usize;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            '"' => {
                let tl = line;
                let (inner, ni, nl) = scan_string(src, i, line);
                tokens.push(Token {
                    kind: TokenKind::Str,
                    text: inner,
                    line: tl,
                });
                i = ni;
                line = nl;
            }
            '\'' => {
                // Char literal vs lifetime. A lifetime is `'` + ident not
                // closed by another `'`.
                let tl = line;
                if let Some((text, ni, nl)) = scan_char(src, i, line) {
                    tokens.push(Token {
                        kind: TokenKind::Char,
                        text,
                        line: tl,
                    });
                    i = ni;
                    line = nl;
                } else {
                    let start = i + 1;
                    i += 1;
                    while i < bytes.len() && is_ident_char(bytes[i]) {
                        i += 1;
                    }
                    tokens.push(Token {
                        kind: TokenKind::Lifetime,
                        text: format!("'{}", &src[start..i]),
                        line: tl,
                    });
                }
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len()
                    && (is_ident_char(bytes[i])
                        || (bytes[i] == b'.'
                            && bytes.get(i + 1).is_some_and(u8::is_ascii_digit)
                            && !src[start..i].contains('.')))
                {
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Num,
                    text: src[start..i].to_string(),
                    line,
                });
            }
            c if c.is_alphabetic() || c == '_' => {
                // Raw strings / byte strings start with an ident-looking
                // prefix: r", r#", br", b", b'.
                if let Some((inner, ni, nl)) = scan_raw_or_byte(src, i, line) {
                    let tl = line;
                    tokens.push(Token {
                        kind: TokenKind::Str,
                        text: inner,
                        line: tl,
                    });
                    i = ni;
                    line = nl;
                    continue;
                }
                if c == 'b' && bytes.get(i + 1) == Some(&b'\'') {
                    let tl = line;
                    if let Some((text, ni, nl)) = scan_char(src, i + 1, line) {
                        tokens.push(Token {
                            kind: TokenKind::Char,
                            text,
                            line: tl,
                        });
                        i = ni;
                        line = nl;
                        continue;
                    }
                }
                let start = i;
                while i < bytes.len() && is_ident_char(bytes[i]) {
                    i += 1;
                }
                let mut text = &src[start..i];
                // Raw identifier `r#ident`: keep the bare name.
                if text == "r" && bytes.get(i) == Some(&b'#') && {
                    bytes.get(i + 1).is_some_and(|b| is_ident_char(*b))
                } {
                    let rstart = i + 1;
                    i += 1;
                    while i < bytes.len() && is_ident_char(bytes[i]) {
                        i += 1;
                    }
                    text = &src[rstart..i];
                }
                tokens.push(Token {
                    kind: TokenKind::Ident,
                    text: text.to_string(),
                    line,
                });
            }
            _ => {
                tokens.push(Token {
                    kind: TokenKind::Punct,
                    text: c.to_string(),
                    line,
                });
                i += c.len_utf8();
            }
        }
    }
    tokens
}

fn is_ident_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Scan a plain `"..."` string starting at the opening quote. Returns
/// (inner text, index past the closing quote, updated line).
fn scan_string(src: &str, start: usize, mut line: u32) -> (String, usize, u32) {
    let bytes = src.as_bytes();
    let mut i = start + 1;
    let inner_start = i;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'\n' => {
                line += 1;
                i += 1;
            }
            b'"' => {
                return (src[inner_start..i].to_string(), i + 1, line);
            }
            _ => i += 1,
        }
    }
    (src[inner_start..i.min(src.len())].to_string(), i, line)
}

/// Try to scan a char/byte literal at the opening `'`. Returns `None`
/// when the tick starts a lifetime instead.
fn scan_char(src: &str, start: usize, line: u32) -> Option<(String, usize, u32)> {
    let bytes = src.as_bytes();
    let mut i = start + 1;
    if i >= bytes.len() {
        return None;
    }
    if bytes[i] == b'\\' {
        i += 2;
        // Escapes may be multi-byte (\u{..}, \x41).
        while i < bytes.len() && bytes[i] != b'\'' && bytes[i] != b'\n' {
            i += 1;
        }
    } else {
        // One UTF-8 character.
        let ch = src[i..].chars().next()?;
        i += ch.len_utf8();
    }
    if bytes.get(i) == Some(&b'\'') {
        Some((src[start + 1..i].to_string(), i + 1, line))
    } else {
        None
    }
}

/// Try to scan `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#` starting at the
/// prefix. Returns `None` when the text is an ordinary identifier.
fn scan_raw_or_byte(src: &str, start: usize, mut line: u32) -> Option<(String, usize, u32)> {
    let bytes = src.as_bytes();
    let mut i = start;
    if bytes[i] == b'b' {
        i += 1;
    }
    let raw = bytes.get(i) == Some(&b'r');
    if raw {
        i += 1;
    }
    if i == start {
        return None;
    }
    let mut fence = 0usize;
    while raw && bytes.get(i) == Some(&b'#') {
        fence += 1;
        i += 1;
    }
    if bytes.get(i) != Some(&b'"') {
        return None;
    }
    if !raw {
        let (inner, ni, nl) = scan_string(src, i, line);
        return Some((inner, ni, nl));
    }
    i += 1;
    let inner_start = i;
    while i < bytes.len() {
        if bytes[i] == b'\n' {
            line += 1;
            i += 1;
        } else if bytes[i] == b'"'
            && src.as_bytes()[i + 1..]
                .iter()
                .take(fence)
                .all(|b| *b == b'#')
        {
            let inner = src[inner_start..i].to_string();
            return Some((inner, i + 1 + fence, line));
        } else {
            i += 1;
        }
    }
    Some((src[inner_start..].to_string(), i, line))
}

/// Mark every token inside a `#[cfg(test)]` / `#[test]` item as test
/// code. The gated item is the attribute's following item: its body is
/// the next brace block (or the range up to `;` for body-less items).
fn mark_test_regions(tokens: &[Token]) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            let (attr_start, attr_end) = bracket_span(tokens, i + 1);
            if attr_is_test(&tokens[attr_start..attr_end]) {
                // Skip over any further attributes between this one and
                // the item they decorate.
                let mut j = attr_end + 1; // token after `]`
                while j < tokens.len()
                    && tokens[j].is_punct('#')
                    && tokens.get(j + 1).is_some_and(|t| t.is_punct('['))
                {
                    j = bracket_span(tokens, j + 1).1 + 1;
                }
                // The item body: the first `{` before a top-level `;`.
                let mut depth_paren = 0i32;
                while j < tokens.len() {
                    let t = &tokens[j];
                    if t.is_punct('(') || t.is_punct('[') {
                        depth_paren += 1;
                    } else if t.is_punct(')') || t.is_punct(']') {
                        depth_paren -= 1;
                    } else if t.is_punct(';') && depth_paren == 0 {
                        break; // body-less item (e.g. a use decl)
                    } else if t.is_punct('{') && depth_paren == 0 {
                        let mut depth = 0usize;
                        while j < tokens.len() {
                            if tokens[j].is_punct('{') {
                                depth += 1;
                            } else if tokens[j].is_punct('}') {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            in_test[j] = true;
                            j += 1;
                        }
                        if j < tokens.len() {
                            in_test[j] = true; // closing brace
                        }
                        break;
                    }
                    in_test[j] = true;
                    j += 1;
                }
                i = j + 1;
                continue;
            }
            i = attr_end + 1;
            continue;
        }
        i += 1;
    }
    in_test
}

/// Token index range `(open+1, close)` for the bracket block opening at
/// `open` (`[`), where `close` is the matching `]`.
fn bracket_span(tokens: &[Token], open: usize) -> (usize, usize) {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return (open + 1, i);
            }
        }
    }
    (open + 1, tokens.len())
}

/// Does an attribute token slice (`cfg ( test )`, `test`,
/// `cfg ( all ( test , … ) )`) gate test-only code?
fn attr_is_test(attr: &[Token]) -> bool {
    match attr.first() {
        Some(t) if t.is_ident("test") => true,
        Some(t) if t.is_ident("cfg") => attr.iter().any(|t| t.is_ident("test")),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_do_not_produce_code_tokens() {
        let f = LexedFile::lex(
            "// self.a.lock() in a comment\nlet s = \"self.b.lock()\"; /* self.c.lock() */\n",
        );
        let lock_idents = f.tokens.iter().filter(|t| t.is_ident("lock")).count();
        assert_eq!(lock_idents, 0);
        // The string literal is one Str token holding the inner text.
        assert!(f
            .tokens
            .iter()
            .any(|t| t.kind == TokenKind::Str && t.text == "self.b.lock()"));
    }

    #[test]
    fn raw_strings_and_lifetimes_lex_cleanly() {
        let f = LexedFile::lex(
            "fn f<'a>(x: &'a str) -> char { let _r = r#\"raw \"quoted\" text\"#; 'q' }",
        );
        assert!(f
            .tokens
            .iter()
            .any(|t| t.kind == TokenKind::Lifetime && t.text == "'a"));
        assert!(f
            .tokens
            .iter()
            .any(|t| t.kind == TokenKind::Str && t.text == "raw \"quoted\" text"));
        assert!(f
            .tokens
            .iter()
            .any(|t| t.kind == TokenKind::Char && t.text == "q"));
    }

    #[test]
    fn nested_block_comments_are_skipped() {
        let f = LexedFile::lex("/* a /* nested */ still comment */ fn g() {}");
        assert!(f.tokens.first().is_some_and(|t| t.is_ident("fn")));
    }

    #[test]
    fn cfg_test_region_marks_the_following_block() {
        let src = "fn hot() { x.unwrap(); }\n#[cfg(test)]\nmod tests { fn t() { y.unwrap(); } }\n";
        let f = LexedFile::lex(src);
        let unwraps: Vec<bool> = f
            .tokens
            .iter()
            .zip(&f.in_test)
            .filter(|(t, _)| t.is_ident("unwrap"))
            .map(|(_, in_test)| *in_test)
            .collect();
        assert_eq!(unwraps, vec![false, true]);
    }

    #[test]
    fn test_attribute_marks_one_function() {
        let src = "#[test]\nfn t() { a.unwrap(); }\nfn hot() { b.unwrap(); }\n";
        let f = LexedFile::lex(src);
        let unwraps: Vec<bool> = f
            .tokens
            .iter()
            .zip(&f.in_test)
            .filter(|(t, _)| t.is_ident("unwrap"))
            .map(|(_, in_test)| *in_test)
            .collect();
        assert_eq!(unwraps, vec![true, false]);
    }

    #[test]
    fn multiline_string_advances_line_numbers() {
        let f = LexedFile::lex("let a = \"x\ny\";\nlet b = 1;");
        let b = f.tokens.iter().find(|t| t.is_ident("b")).unwrap();
        assert_eq!(b.line, 3);
    }

    #[test]
    fn byte_char_literal_is_not_a_lifetime() {
        let f = LexedFile::lex("let x = b'\\n'; let y: &'static str = \"s\";");
        assert!(f.tokens.iter().any(|t| t.kind == TokenKind::Char));
        assert!(f
            .tokens
            .iter()
            .any(|t| t.kind == TokenKind::Lifetime && t.text == "'static"));
    }
}
