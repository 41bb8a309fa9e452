//! Typed values, column types, the binary row codec, and the
//! order-preserving key encoding used by indexes.
//!
//! Rows are stored on pages as a compact, self-describing binary encoding:
//! a `u16` column count followed by one tagged value per column. Keys for
//! B+tree indexes use a *different* encoding whose byte order matches the
//! logical order of the values (memcmp-comparable), so that range scans on
//! the index visit keys in value order.

use crate::error::{Result, StoreError};
use std::cmp::Ordering;
use std::fmt;

/// The type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE-754 float.
    Real,
    /// UTF-8 string.
    Text,
    /// Boolean.
    Bool,
}

impl ColumnType {
    /// Single-byte tag used in serialized schemas.
    pub fn tag(self) -> u8 {
        match self {
            ColumnType::Int => 1,
            ColumnType::Real => 2,
            ColumnType::Text => 3,
            ColumnType::Bool => 4,
        }
    }

    /// Inverse of [`ColumnType::tag`].
    pub fn from_tag(t: u8) -> Result<Self> {
        Ok(match t {
            1 => ColumnType::Int,
            2 => ColumnType::Real,
            3 => ColumnType::Text,
            4 => ColumnType::Bool,
            other => return Err(StoreError::Corrupt(format!("bad column type tag {other}"))),
        })
    }
}

impl fmt::Display for ColumnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ColumnType::Int => "INT",
            ColumnType::Real => "REAL",
            ColumnType::Text => "TEXT",
            ColumnType::Bool => "BOOL",
        };
        f.write_str(s)
    }
}

/// A dynamically-typed value stored in a table cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL-style NULL; allowed in any nullable column.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE-754 float.
    Real(f64),
    /// UTF-8 string.
    Text(String),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// The column type this value conforms to, or `None` for `Null`.
    pub fn column_type(&self) -> Option<ColumnType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(ColumnType::Int),
            Value::Real(_) => Some(ColumnType::Real),
            Value::Text(_) => Some(ColumnType::Text),
            Value::Bool(_) => Some(ColumnType::Bool),
        }
    }

    /// True if this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Extract an integer, or error.
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(StoreError::QueryError(format!("expected Int, got {other}"))),
        }
    }

    /// Extract a float (Int widens to Real), or error.
    pub fn as_real(&self) -> Result<f64> {
        match self {
            Value::Real(r) => Ok(*r),
            Value::Int(i) => Ok(*i as f64),
            other => Err(StoreError::QueryError(format!(
                "expected Real, got {other}"
            ))),
        }
    }

    /// Extract a string slice, or error.
    pub fn as_text(&self) -> Result<&str> {
        match self {
            Value::Text(s) => Ok(s),
            other => Err(StoreError::QueryError(format!(
                "expected Text, got {other}"
            ))),
        }
    }

    /// Extract a boolean, or error.
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(StoreError::QueryError(format!(
                "expected Bool, got {other}"
            ))),
        }
    }

    /// Total order over values, used by ORDER BY and index comparisons.
    ///
    /// `Null` sorts before everything; values of different types sort by
    /// type tag (Int < Real < Text < Bool) except that Int/Real compare
    /// numerically, matching the key encoding. NaN sorts after all other
    /// reals and equal to itself so the order stays total.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Real(a), Real(b)) => a.total_cmp(b),
            (Int(a), Real(b)) => (*a as f64).total_cmp(b),
            (Real(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (a, b) => type_rank(a).cmp(&type_rank(b)).then_with(|| match (a, b) {
                (Text(x), Text(y)) => x.cmp(y),
                (Bool(x), Bool(y)) => x.cmp(y),
                _ => Ordering::Equal,
            }),
        }
    }
}

fn type_rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Int(_) | Value::Real(_) => 1,
        Value::Text(_) => 2,
        Value::Bool(_) => 3,
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Real(r) => write!(f, "{r}"),
            Value::Text(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Real(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// A row is simply an owned vector of values.
pub type Row = Vec<Value>;

// ---------------------------------------------------------------------------
// Row codec
// ---------------------------------------------------------------------------

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_REAL: u8 = 2;
const TAG_TEXT: u8 = 3;
const TAG_BOOL: u8 = 4;

/// Append the binary encoding of `row` to `out`.
pub fn encode_row(row: &[Value], out: &mut Vec<u8>) {
    out.extend_from_slice(&(row.len() as u16).to_be_bytes());
    for v in row {
        match v {
            Value::Null => out.push(TAG_NULL),
            Value::Int(i) => {
                out.push(TAG_INT);
                out.extend_from_slice(&i.to_be_bytes());
            }
            Value::Real(r) => {
                out.push(TAG_REAL);
                out.extend_from_slice(&r.to_bits().to_be_bytes());
            }
            Value::Text(s) => {
                out.push(TAG_TEXT);
                out.extend_from_slice(&(s.len() as u32).to_be_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Value::Bool(b) => {
                out.push(TAG_BOOL);
                out.push(u8::from(*b));
            }
        }
    }
}

/// Encode a row into a fresh buffer.
pub fn encode_row_vec(row: &[Value]) -> Vec<u8> {
    // Rough capacity guess: tag + 8 bytes per value plus string payloads.
    let cap = 2 + row
        .iter()
        .map(|v| match v {
            Value::Text(s) => 5 + s.len(),
            _ => 9,
        })
        .sum::<usize>();
    let mut out = Vec::with_capacity(cap);
    encode_row(row, &mut out);
    out
}

/// Decode a row previously produced by [`encode_row`].
pub fn decode_row(bytes: &[u8]) -> Result<Row> {
    let mut row = Vec::new();
    decode_row_into(bytes, &mut row)?;
    Ok(row)
}

/// [`decode_row`] into `row`, replacing what it held and keeping its
/// allocation, so a pass that looks at each row once and keeps none
/// decodes a whole table into one buffer.
pub(crate) fn decode_row_into(bytes: &[u8], row: &mut Row) -> Result<()> {
    row.clear();
    let mut cur = Cursor { bytes, pos: 0 };
    let n = cur.read_u16()? as usize;
    row.reserve(n);
    for _ in 0..n {
        let tag = cur.read_u8()?;
        let v = match tag {
            TAG_NULL => Value::Null,
            TAG_INT => Value::Int(i64::from_be_bytes(cur.read_array::<8>()?)),
            TAG_REAL => Value::Real(f64::from_bits(u64::from_be_bytes(cur.read_array::<8>()?))),
            TAG_TEXT => {
                let len = cur.read_u32()? as usize;
                let raw = cur.read_slice(len)?;
                let s = std::str::from_utf8(raw)
                    .map_err(|_| StoreError::Corrupt("row text is not UTF-8".into()))?;
                Value::Text(s.to_string())
            }
            TAG_BOOL => Value::Bool(cur.read_u8()? != 0),
            other => {
                return Err(StoreError::Corrupt(format!("bad value tag {other}")));
            }
        };
        row.push(v);
    }
    if cur.pos != bytes.len() {
        return Err(StoreError::Corrupt(format!(
            "trailing {} bytes after row",
            bytes.len() - cur.pos
        )));
    }
    Ok(())
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn read_slice(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.bytes.len() {
            return Err(StoreError::Corrupt("row truncated".into()));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn read_array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let s = self.read_slice(N)?;
        let mut a = [0u8; N];
        a.copy_from_slice(s);
        Ok(a)
    }
    fn read_u8(&mut self) -> Result<u8> {
        Ok(self.read_array::<1>()?[0])
    }
    fn read_u16(&mut self) -> Result<u16> {
        Ok(u16::from_be_bytes(self.read_array::<2>()?))
    }
    fn read_u32(&mut self) -> Result<u32> {
        Ok(u32::from_be_bytes(self.read_array::<4>()?))
    }
}

// ---------------------------------------------------------------------------
// Order-preserving key encoding
// ---------------------------------------------------------------------------

/// Encode `values` as a memcmp-comparable key.
///
/// Properties (checked by property tests):
/// for rows `a`, `b` of the same shape,
/// `encode_key(a) < encode_key(b)` (byte order) iff `a < b` in the
/// lexicographic order induced by [`Value::total_cmp`] per column.
///
/// Encoding per value:
/// * a type-rank byte (Null=0, numeric=1, Text=2, Bool=3), then
/// * Int: `1` then sign-flipped big-endian `u64` of the value *as f64 bits*
///   is **not** used — Ints and Reals share the numeric rank and are both
///   encoded via the f64 order-preserving trick so that mixed-type numeric
///   columns still order correctly. Doubles cover all i64 magnitudes used
///   by the engine's id sequences (< 2^53).
/// * Text: bytes with `0x00` escaped as `0x00 0xFF`, terminated `0x00 0x00`.
/// * Bool: one byte.
pub fn encode_key(values: &[Value], out: &mut Vec<u8>) {
    for v in values {
        match v {
            Value::Null => out.push(0),
            Value::Int(i) => {
                out.push(1);
                out.extend_from_slice(&f64_order_bits(*i as f64).to_be_bytes());
            }
            Value::Real(r) => {
                out.push(1);
                out.extend_from_slice(&f64_order_bits(*r).to_be_bytes());
            }
            Value::Text(s) => {
                out.push(2);
                for &b in s.as_bytes() {
                    if b == 0 {
                        out.push(0);
                        out.push(0xFF);
                    } else {
                        out.push(b);
                    }
                }
                out.push(0);
                out.push(0);
            }
            Value::Bool(b) => {
                out.push(3);
                out.push(u8::from(*b));
            }
        }
    }
}

/// Encode into a fresh buffer; see [`encode_key`].
pub fn encode_key_vec(values: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 9);
    encode_key(values, &mut out);
    out
}

/// Map f64 bits to a u64 whose unsigned order matches `f64::total_cmp`.
fn f64_order_bits(f: f64) -> u64 {
    let bits = f.to_bits();
    if bits & 0x8000_0000_0000_0000 != 0 {
        !bits
    } else {
        bits ^ 0x8000_0000_0000_0000
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(row: Row) {
        let enc = encode_row_vec(&row);
        let dec = decode_row(&enc).unwrap();
        assert_eq!(row, dec);
    }

    #[test]
    fn row_roundtrip_basic() {
        roundtrip(vec![]);
        roundtrip(vec![Value::Null]);
        roundtrip(vec![
            Value::Int(-42),
            Value::Real(3.25),
            Value::Text("héllo \"world\"".into()),
            Value::Bool(true),
            Value::Null,
        ]);
        roundtrip(vec![Value::Int(i64::MIN), Value::Int(i64::MAX)]);
        roundtrip(vec![
            Value::Real(f64::NEG_INFINITY),
            Value::Real(f64::INFINITY),
        ]);
    }

    #[test]
    fn nan_roundtrips_bit_exactly() {
        // NaN != NaN under PartialEq, so compare the bit pattern instead.
        let enc = encode_row_vec(&[Value::Real(f64::NAN)]);
        match decode_row(&enc).unwrap().as_slice() {
            [Value::Real(r)] => assert_eq!(r.to_bits(), f64::NAN.to_bits()),
            other => panic!("unexpected row {other:?}"),
        }
    }

    #[test]
    fn decode_rejects_truncation_and_trailing() {
        let enc = encode_row_vec(&[Value::Text("abcdef".into())]);
        assert!(decode_row(&enc[..enc.len() - 1]).is_err());
        let mut extra = enc;
        extra.push(7);
        assert!(decode_row(&extra).is_err());
    }

    #[test]
    fn decode_rejects_bad_tag() {
        let mut enc = encode_row_vec(&[Value::Int(1)]);
        enc[2] = 99; // corrupt the value tag
        assert!(decode_row(&enc).is_err());
    }

    #[test]
    fn key_encoding_orders_ints() {
        let vals = [i64::MIN, -5, -1, 0, 1, 5, 1 << 40, (1 << 53) - 1];
        for w in vals.windows(2) {
            let a = encode_key_vec(&[Value::Int(w[0])]);
            let b = encode_key_vec(&[Value::Int(w[1])]);
            assert!(a < b, "{} !< {}", w[0], w[1]);
        }
    }

    #[test]
    fn key_encoding_orders_reals_and_mixed() {
        let a = encode_key_vec(&[Value::Real(-1.5)]);
        let b = encode_key_vec(&[Value::Int(0)]);
        let c = encode_key_vec(&[Value::Real(0.5)]);
        let d = encode_key_vec(&[Value::Int(1)]);
        assert!(a < b && b < c && c < d);
    }

    #[test]
    fn key_encoding_orders_text_with_embedded_nul_and_prefixes() {
        let a = encode_key_vec(&[Value::Text("ab".into())]);
        let b = encode_key_vec(&[Value::Text("ab\u{0}".into())]);
        let c = encode_key_vec(&[Value::Text("abc".into())]);
        assert!(a < b, "prefix must sort first");
        assert!(b < c, "NUL sorts below any other byte");
    }

    #[test]
    fn key_encoding_composite_column_order() {
        // ("a", 2) < ("a", 10) < ("b", 1)
        let k1 = encode_key_vec(&[Value::Text("a".into()), Value::Int(2)]);
        let k2 = encode_key_vec(&[Value::Text("a".into()), Value::Int(10)]);
        let k3 = encode_key_vec(&[Value::Text("b".into()), Value::Int(1)]);
        assert!(k1 < k2 && k2 < k3);
    }

    #[test]
    fn null_sorts_first() {
        let n = encode_key_vec(&[Value::Null]);
        let i = encode_key_vec(&[Value::Int(i64::MIN)]);
        let t = encode_key_vec(&[Value::Text(String::new())]);
        assert!(n < i && n < t);
    }

    #[test]
    fn total_cmp_is_consistent_with_keys() {
        let samples = vec![
            Value::Null,
            Value::Int(-3),
            Value::Int(7),
            Value::Real(-0.5),
            Value::Real(2.25),
            Value::Text("a".into()),
            Value::Text("b".into()),
            Value::Bool(false),
            Value::Bool(true),
        ];
        for a in &samples {
            for b in &samples {
                let byte_ord = encode_key_vec(std::slice::from_ref(a))
                    .cmp(&encode_key_vec(std::slice::from_ref(b)));
                assert_eq!(a.total_cmp(b), byte_ord, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Int(3).as_int().unwrap(), 3);
        assert_eq!(Value::Int(3).as_real().unwrap(), 3.0);
        assert_eq!(Value::Real(1.5).as_real().unwrap(), 1.5);
        assert_eq!(Value::Text("x".into()).as_text().unwrap(), "x");
        assert!(Value::Bool(true).as_bool().unwrap());
        assert!(Value::Text("x".into()).as_int().is_err());
        assert!(Value::Null.is_null());
    }

    #[test]
    fn column_type_tags_roundtrip() {
        for t in [
            ColumnType::Int,
            ColumnType::Real,
            ColumnType::Text,
            ColumnType::Bool,
        ] {
            assert_eq!(ColumnType::from_tag(t.tag()).unwrap(), t);
        }
        assert!(ColumnType::from_tag(0).is_err());
    }
}
