//! Line tokenizer for the PTdf format.
//!
//! PTdf is line-oriented: one statement per line, whitespace-separated
//! tokens, `#` comments, blank lines ignored. Tokens containing
//! whitespace, quotes, `#`, or that are empty are written double-quoted
//! with `\"` and `\\` escapes (metric names like `"CPU time"` need this).

use crate::PtdfError;

/// Split one line into tokens. Returns an empty vector for blank/comment
/// lines.
///
/// An unquoted token runs to the next whitespace character or `#` and is
/// copied out of the line as one slice; a quoted token is read character
/// by character to undo its escapes.
pub fn tokenize(line: &str, line_no: usize) -> Result<Vec<String>, PtdfError> {
    // Room for a `PerfResult`, the most common statement: seven tokens.
    let mut tokens = Vec::with_capacity(8);
    let mut rest = line;
    loop {
        rest = rest.trim_start();
        if rest.is_empty() || rest.starts_with('#') {
            break; // end of line, or a comment to end of line
        }
        if let Some(quoted) = rest.strip_prefix('"') {
            let mut chars = quoted.chars();
            let mut tok = String::new();
            loop {
                match chars.next() {
                    Some('"') => break,
                    Some('\\') => match chars.next() {
                        Some('"') => tok.push('"'),
                        Some('\\') => tok.push('\\'),
                        Some(other) => {
                            return Err(PtdfError::new(
                                line_no,
                                format!("bad escape \\{other} in quoted token"),
                            ));
                        }
                        None => {
                            return Err(PtdfError::new(
                                line_no,
                                "dangling backslash in quoted token".to_string(),
                            ));
                        }
                    },
                    Some(other) => tok.push(other),
                    None => {
                        return Err(PtdfError::new(line_no, "unterminated quote".to_string()));
                    }
                }
            }
            tokens.push(tok);
            rest = chars.as_str();
        } else {
            let end = rest
                .find(|c: char| c.is_whitespace() || c == '#')
                .unwrap_or(rest.len());
            let (tok, tail) = rest.split_at(end);
            tokens.push(tok.to_string());
            rest = tail;
        }
    }
    Ok(tokens)
}

/// Quote a token for output if it needs quoting.
pub fn quote(token: &str) -> String {
    let needs = token.is_empty()
        || token
            .chars()
            .any(|c| c.is_whitespace() || c == '"' || c == '#' || c == '\\');
    if !needs {
        return token.to_string();
    }
    let mut out = String::with_capacity(token.len() + 2);
    out.push('"');
    for c in token.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            other => out.push(other),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_tokens() {
        assert_eq!(
            tokenize("Application IRS", 1).unwrap(),
            vec!["Application", "IRS"]
        );
        assert_eq!(
            tokenize("   spaced   out  ", 1).unwrap(),
            vec!["spaced", "out"]
        );
    }

    #[test]
    fn blank_and_comment_lines() {
        assert!(tokenize("", 1).unwrap().is_empty());
        assert!(tokenize("   ", 1).unwrap().is_empty());
        assert!(tokenize("# a comment", 1).unwrap().is_empty());
        assert_eq!(tokenize("tok # trailing", 1).unwrap(), vec!["tok"]);
    }

    #[test]
    fn quoted_tokens_with_escapes() {
        assert_eq!(
            tokenize(r#"Metric "CPU time" "say \"hi\"" "back\\slash""#, 1).unwrap(),
            vec!["Metric", "CPU time", "say \"hi\"", "back\\slash"]
        );
        // Empty quoted token.
        assert_eq!(tokenize(r#"a "" b"#, 1).unwrap(), vec!["a", "", "b"]);
    }

    #[test]
    fn quote_errors() {
        assert!(tokenize("\"unterminated", 3)
            .unwrap_err()
            .to_string()
            .contains("line 3"));
        assert!(tokenize(r#""bad \x escape""#, 1).is_err());
        assert!(tokenize("\"dangling \\", 1).is_err());
    }

    #[test]
    fn token_boundaries() {
        // Unicode whitespace separates tokens, as ASCII whitespace does.
        assert_eq!(tokenize("a\u{3000}b", 1).unwrap(), vec!["a", "b"]);
        assert_eq!(tokenize("\u{a0}é\u{2003}ß€ ", 1).unwrap(), vec!["é", "ß€"]);
        // A comment may start inside an unquoted token.
        assert_eq!(tokenize("ab#c", 1).unwrap(), vec!["ab"]);
        // A closing quote ends a token even with no space after it.
        assert_eq!(tokenize(r#""x"y"#, 1).unwrap(), vec!["x", "y"]);
        assert!(tokenize("ok \"open é", 7)
            .unwrap_err()
            .to_string()
            .contains("line 7"));
    }

    #[test]
    fn quote_roundtrip() {
        for tok in ["plain", "has space", "has\"quote", "", "ends\\", "#hash"] {
            let q = quote(tok);
            let parsed = tokenize(&q, 1).unwrap();
            assert_eq!(parsed, vec![tok.to_string()], "token {tok:?} via {q:?}");
        }
        assert_eq!(quote("plain"), "plain", "no needless quoting");
    }
}
