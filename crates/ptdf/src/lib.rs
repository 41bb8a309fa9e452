//! # perftrack-ptdf
//!
//! The PerfTrack data format (PTdf, Figure 6 of the SC|05 paper): the
//! line-oriented interchange format every tool converter emits and the
//! data-loading interface consumes. This crate provides the tokenizer,
//! statement parser, canonical writer, and a streaming reader for large
//! files.
//!
//! ```
//! use perftrack_ptdf::{parse_str, PtdfStatement};
//!
//! let text = r#"
//! Application IRS
//! Execution irs-001 IRS
//! Resource /MCRGrid grid
//! PerfResult irs-001 /MCRGrid(primary) IRS "wall time" 12.5 seconds
//! "#;
//! let stmts = parse_str(text).unwrap();
//! assert_eq!(stmts.len(), 4);
//! assert!(matches!(stmts[0], PtdfStatement::Application { .. }));
//! ```

#![deny(missing_docs)]

pub mod lexer;
pub mod stmt;

pub use stmt::{
    format_resource_sets, parse_resource_sets, AttrType, PtdfResourceSet, PtdfStatement,
};

use std::fmt;
use std::io::{BufRead, Write};

/// A PTdf parse error with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PtdfError {
    /// 1-based line number where parsing failed.
    pub line: usize,
    /// What went wrong, phrased for the person fixing the file.
    pub message: String,
}

impl PtdfError {
    /// Construct an error at `line`.
    pub fn new(line: usize, message: String) -> Self {
        PtdfError { line, message }
    }
}

impl fmt::Display for PtdfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PTdf line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for PtdfError {}

/// Parse a whole PTdf document from a string.
pub fn parse_str(text: &str) -> Result<Vec<PtdfStatement>, PtdfError> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if let Some(stmt) = PtdfStatement::parse_line(line, i + 1)? {
            out.push(stmt);
        }
    }
    Ok(out)
}

/// Render statements as a PTdf document.
pub fn to_string(stmts: &[PtdfStatement]) -> String {
    let mut out = String::new();
    for s in stmts {
        out.push_str(&s.to_string());
        out.push('\n');
    }
    out
}

/// Write statements to an `io::Write` (buffer it for large documents).
pub fn write_all<W: Write>(w: &mut W, stmts: &[PtdfStatement]) -> std::io::Result<()> {
    for s in stmts {
        writeln!(w, "{s}")?;
    }
    Ok(())
}

/// Streaming PTdf reader over any `BufRead`; yields one statement at a
/// time without materializing the document.
pub struct PtdfReader<R: BufRead> {
    reader: R,
    line_no: usize,
    buf: String,
}

impl<R: BufRead> PtdfReader<R> {
    /// Wrap a buffered reader.
    pub fn new(reader: R) -> Self {
        PtdfReader {
            reader,
            line_no: 0,
            buf: String::new(),
        }
    }
}

/// Errors from streaming reads: I/O or parse.
#[derive(Debug)]
pub enum ReadError {
    /// The underlying reader failed.
    Io(std::io::Error),
    /// A line was read but did not parse as a PTdf statement.
    Parse(PtdfError),
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "i/o error: {e}"),
            ReadError::Parse(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ReadError {}

impl<R: BufRead> Iterator for PtdfReader<R> {
    type Item = Result<PtdfStatement, ReadError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            self.buf.clear();
            match self.reader.read_line(&mut self.buf) {
                Ok(0) => return None,
                Ok(_) => {
                    self.line_no += 1;
                    match PtdfStatement::parse_line(self.buf.trim_end_matches('\n'), self.line_no) {
                        Ok(Some(stmt)) => return Some(Ok(stmt)),
                        // A blank or comment line: read the next one.
                        Ok(None) => {}
                        Err(e) => return Some(Err(ReadError::Parse(e))),
                    }
                }
                Err(e) => return Some(Err(ReadError::Io(e))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_document_with_mixed_lines() {
        let doc = "\n# header comment\nApplication IRS\n\nExecution e1 IRS\n";
        let stmts = parse_str(doc).unwrap();
        assert_eq!(stmts.len(), 2);
    }

    #[test]
    fn document_roundtrip() {
        let doc = parse_str(
            r#"Application IRS
ResourceType syncObject
Execution e1 IRS
Resource /g grid
ResourceAttribute /g "os name" Linux string
PerfResult e1 /g(primary) IRS "wall time" 1.25 seconds
ResourceConstraint /g /g
"#,
        )
        .unwrap();
        let text = to_string(&doc);
        let reparsed = parse_str(&text).unwrap();
        assert_eq!(doc, reparsed);
    }

    #[test]
    fn error_includes_line_number() {
        let doc = "Application IRS\nBadStatement x\n";
        let err = parse_str(doc).unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn streaming_reader_matches_parse_str() {
        let doc = "Application A\n# skip\nExecution e A\nPerfResult e /r(primary) t m 1 u\n";
        let streamed: Vec<PtdfStatement> = PtdfReader::new(doc.as_bytes())
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(streamed, parse_str(doc).unwrap());
    }

    #[test]
    fn streaming_reader_reports_parse_error() {
        let doc = "Application A\nNope\n";
        let results: Vec<_> = PtdfReader::new(doc.as_bytes()).collect();
        assert!(results[0].is_ok());
        assert!(matches!(&results[1], Err(ReadError::Parse(e)) if e.line == 2));
    }

    #[test]
    fn write_all_to_vec() {
        let stmts = parse_str("Application A\n").unwrap();
        let mut buf = Vec::new();
        write_all(&mut buf, &stmts).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), "Application A\n");
    }
}
