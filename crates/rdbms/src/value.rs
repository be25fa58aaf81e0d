//! Runtime values, their total order, and order-preserving key encoding.
//!
//! Two encodings live here:
//!
//! * **Row encoding** ([`encode_row`] / [`decode_row`]) — a compact,
//!   self-describing serialization used for heap records. Not
//!   order-preserving; optimized for size and decode speed.
//! * **Key encoding** ([`encode_key`]) — an order-preserving serialization
//!   used for B+tree keys: `memcmp` order of the encoded bytes equals the
//!   tuple order of the values. This is what lets an index deliver rows in
//!   `ORDER BY` order and serve range predicates with byte-range scans.

use crate::error::{DbError, DbResult};
use std::cmp::Ordering;
use std::fmt;

/// Column data types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataType {
    /// `BOOLEAN`.
    Bool,
    /// `INTEGER` (64-bit signed).
    Int,
    /// `DOUBLE` (64-bit IEEE).
    Float,
    /// `TEXT` (UTF-8).
    Text,
    /// `BLOB` (raw bytes; used for Dewey keys).
    Bytes,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "BOOLEAN",
            DataType::Int => "INTEGER",
            DataType::Float => "DOUBLE",
            DataType::Text => "TEXT",
            DataType::Bytes => "BLOB",
        };
        f.write_str(s)
    }
}

/// A runtime value. `Null` is a member of every type.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL `NULL`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A 64-bit signed integer.
    Int(i64),
    /// A 64-bit float.
    Float(f64),
    /// A UTF-8 string.
    Text(String),
    /// Raw bytes.
    Bytes(Vec<u8>),
}

impl Value {
    /// Convenience constructor for text values.
    pub fn text(s: impl Into<String>) -> Value {
        Value::Text(s.into())
    }

    /// `true` if the value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The value's type, or `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
            Value::Bytes(_) => Some(DataType::Bytes),
        }
    }

    /// `true` if the value can be stored in a column of type `ty`
    /// (ints widen to floats; `Null` fits everywhere).
    pub fn fits(&self, ty: DataType) -> bool {
        match (self, ty) {
            (Value::Null, _) => true,
            (Value::Int(_), DataType::Float) => true,
            (v, t) => v.data_type() == Some(t),
        }
    }

    /// Coerces the value for storage in a column of type `ty`.
    pub fn coerce(self, ty: DataType) -> DbResult<Value> {
        match (self, ty) {
            (Value::Null, _) => Ok(Value::Null),
            (Value::Int(i), DataType::Float) => Ok(Value::Float(i as f64)),
            (v, t) if v.data_type() == Some(t) => Ok(v),
            (v, t) => Err(DbError::Schema(format!(
                "cannot store {v:?} in a {t} column"
            ))),
        }
    }

    /// Extracts an `i64`, coercing exact floats.
    pub fn as_int(&self) -> DbResult<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            Value::Float(f) if f.fract() == 0.0 => Ok(*f as i64),
            v => Err(DbError::Eval(format!("expected an integer, got {v:?}"))),
        }
    }

    /// Extracts an `f64` from numeric values.
    pub fn as_float(&self) -> DbResult<f64> {
        match self {
            Value::Int(i) => Ok(*i as f64),
            Value::Float(f) => Ok(*f),
            v => Err(DbError::Eval(format!("expected a number, got {v:?}"))),
        }
    }

    /// Extracts a string slice.
    pub fn as_text(&self) -> DbResult<&str> {
        match self {
            Value::Text(s) => Ok(s),
            v => Err(DbError::Eval(format!("expected text, got {v:?}"))),
        }
    }

    /// Extracts a byte slice.
    pub fn as_bytes(&self) -> DbResult<&[u8]> {
        match self {
            Value::Bytes(b) => Ok(b),
            v => Err(DbError::Eval(format!("expected bytes, got {v:?}"))),
        }
    }

    /// SQL truthiness: `Null` and everything non-boolean other than nonzero
    /// numbers is an error; boolean values map to themselves. Three-valued
    /// logic treats `Null` as "unknown" (not true).
    pub fn is_true(&self) -> bool {
        matches!(self, Value::Bool(true))
    }

    /// SQL comparison: `None` when either side is `Null` (unknown),
    /// numeric cross-type comparison between `Int` and `Float`.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Float(b)) => (*a as f64).partial_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.partial_cmp(&(*b as f64)),
            (a, b) => a.total_cmp_same_kind(b),
        }
    }

    fn total_cmp_same_kind(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => Some(a.total_cmp(b)),
            (Value::Text(a), Value::Text(b)) => Some(a.cmp(b)),
            (Value::Bytes(a), Value::Bytes(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// A total order over all values, used for sorting and grouping:
    /// `Null` sorts first, then by type (bool < numbers < text < bytes),
    /// then by value; `Int` and `Float` compare numerically.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Float(_) => 2,
                Value::Text(_) => 3,
                Value::Bytes(_) => 4,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Int(a), Value::Float(b)) => (*a as f64).total_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.total_cmp(&(*b as f64)),
            (a, b) if rank(a) == rank(b) => a.total_cmp_same_kind(b).unwrap_or(Ordering::Equal),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Text(s) => write!(f, "'{s}'"),
            Value::Bytes(b) => {
                f.write_str("X'")?;
                for byte in b {
                    write!(f, "{byte:02X}")?;
                }
                f.write_str("'")
            }
        }
    }
}

/// A materialized row.
pub type Row = Vec<Value>;

// ---------------------------------------------------------------------
// Row (record) encoding — compact, not order-preserving.
// ---------------------------------------------------------------------

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn get_varint(buf: &[u8], pos: &mut usize) -> DbResult<u64> {
    let mut v: u64 = 0;
    let mut shift = 0;
    loop {
        let byte = *buf
            .get(*pos)
            .ok_or_else(|| DbError::Storage("truncated varint".into()))?;
        *pos += 1;
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift >= 64 {
            return Err(DbError::Storage("varint overflow".into()));
        }
    }
}

/// Serializes a row into `out`.
pub fn encode_row(row: &[Value], out: &mut Vec<u8>) {
    put_varint(out, row.len() as u64);
    for v in row {
        match v {
            Value::Null => out.push(0),
            Value::Bool(b) => {
                out.push(1);
                out.push(u8::from(*b));
            }
            Value::Int(i) => {
                out.push(2);
                // Zig-zag so small magnitudes stay short.
                put_varint(out, ((i << 1) ^ (i >> 63)) as u64);
            }
            Value::Float(x) => {
                out.push(3);
                out.extend_from_slice(&x.to_bits().to_le_bytes());
            }
            Value::Text(s) => {
                out.push(4);
                put_varint(out, s.len() as u64);
                out.extend_from_slice(s.as_bytes());
            }
            Value::Bytes(b) => {
                out.push(5);
                put_varint(out, b.len() as u64);
                out.extend_from_slice(b);
            }
        }
    }
}

/// A borrowed view of one value inside an encoded record: what the
/// executor compares a predicate against before, or instead of, decoding
/// the row. Text and bytes point into the record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueRef<'a> {
    /// SQL `NULL`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A 64-bit signed integer.
    Int(i64),
    /// A 64-bit float.
    Float(f64),
    /// A UTF-8 string.
    Text(&'a str),
    /// Raw bytes.
    Bytes(&'a [u8]),
}

impl ValueRef<'_> {
    /// `true` if the value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, ValueRef::Null)
    }

    /// [`Value::sql_cmp`] of this value with `other`, without materializing
    /// it: `None` when either side is `Null` or the kinds do not compare.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (*self, other) {
            (ValueRef::Null, _) | (_, Value::Null) => None,
            (ValueRef::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (ValueRef::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (ValueRef::Int(a), Value::Float(b)) => (a as f64).partial_cmp(b),
            (ValueRef::Float(a), Value::Int(b)) => a.partial_cmp(&(*b as f64)),
            (ValueRef::Float(a), Value::Float(b)) => Some(a.total_cmp(b)),
            (ValueRef::Text(a), Value::Text(b)) => Some(a.cmp(b.as_str())),
            (ValueRef::Bytes(a), Value::Bytes(b)) => Some(a.cmp(b.as_slice())),
            _ => None,
        }
    }

    /// The owned value.
    pub fn to_value(self) -> Value {
        match self {
            ValueRef::Null => Value::Null,
            ValueRef::Bool(b) => Value::Bool(b),
            ValueRef::Int(i) => Value::Int(i),
            ValueRef::Float(x) => Value::Float(x),
            ValueRef::Text(s) => Value::Text(s.to_string()),
            ValueRef::Bytes(b) => Value::Bytes(b.to_vec()),
        }
    }
}

/// The `len` bytes at `*pos`, advancing past them.
fn take<'a>(buf: &'a [u8], pos: &mut usize, len: usize, what: &str) -> DbResult<&'a [u8]> {
    let bytes = buf
        .get(*pos..pos.saturating_add(len))
        .ok_or_else(|| DbError::Storage(format!("truncated {what}")))?;
    *pos += len;
    Ok(bytes)
}

/// Reads the value at `*pos` of an encoded record, advancing past it.
fn read_value<'a>(buf: &'a [u8], pos: &mut usize) -> DbResult<ValueRef<'a>> {
    let tag = take(buf, pos, 1, "row")?[0];
    Ok(match tag {
        0 => ValueRef::Null,
        1 => ValueRef::Bool(take(buf, pos, 1, "bool")?[0] != 0),
        2 => {
            let z = get_varint(buf, pos)?;
            ValueRef::Int(((z >> 1) as i64) ^ -((z & 1) as i64))
        }
        3 => {
            let bytes: [u8; 8] = take(buf, pos, 8, "float")?
                .try_into()
                .expect("slice of length 8");
            ValueRef::Float(f64::from_bits(u64::from_le_bytes(bytes)))
        }
        4 => {
            let len = get_varint(buf, pos)? as usize;
            let bytes = take(buf, pos, len, "text")?;
            ValueRef::Text(
                std::str::from_utf8(bytes)
                    .map_err(|_| DbError::Storage("non-UTF-8 text in row".into()))?,
            )
        }
        5 => {
            let len = get_varint(buf, pos)? as usize;
            ValueRef::Bytes(take(buf, pos, len, "bytes")?)
        }
        t => return Err(DbError::Storage(format!("bad value tag {t}"))),
    })
}

/// Deserializes a row previously produced by [`encode_row`].
pub fn decode_row(buf: &[u8]) -> DbResult<Row> {
    let mut pos = 0;
    let n = get_varint(buf, &mut pos)? as usize;
    let mut row = Vec::with_capacity(n);
    for _ in 0..n {
        row.push(read_value(buf, &mut pos)?.to_value());
    }
    Ok(row)
}

/// Column `i` of an encoded record, borrowed from the record: the values
/// before it are stepped over, nothing is copied. `None` when the record
/// has fewer than `i + 1` columns.
pub fn record_column(buf: &[u8], i: usize) -> DbResult<Option<ValueRef<'_>>> {
    let mut pos = 0;
    let n = get_varint(buf, &mut pos)? as usize;
    if i >= n {
        return Ok(None);
    }
    for _ in 0..i {
        read_value(buf, &mut pos)?;
    }
    read_value(buf, &mut pos).map(Some)
}

// ---------------------------------------------------------------------
// Range batches — the parameter format of the multi-range scan.
// ---------------------------------------------------------------------

/// One `(lo, hi)` key range of a multi-range scan batch. A `Value::Null`
/// bound means "unbounded on that side" (within the scan's equality
/// prefix). `lo == hi` with both sides inclusive is a point lookup.
#[derive(Debug, Clone, PartialEq)]
pub struct RangeSpec {
    /// Lower bound (`Value::Null` = open start).
    pub lo: Value,
    /// Whether `lo` itself is included.
    pub lo_inclusive: bool,
    /// Upper bound (`Value::Null` = open end).
    pub hi: Value,
    /// Whether `hi` itself is included.
    pub hi_inclusive: bool,
}

impl RangeSpec {
    /// An inclusive point range (`col = v`).
    pub fn point(v: Value) -> RangeSpec {
        RangeSpec {
            lo: v.clone(),
            lo_inclusive: true,
            hi: v,
            hi_inclusive: true,
        }
    }

    /// A half-open range `[lo, hi)`.
    pub fn half_open(lo: Value, hi: Value) -> RangeSpec {
        RangeSpec {
            lo,
            lo_inclusive: true,
            hi,
            hi_inclusive: false,
        }
    }
}

/// Packs a range batch into a single [`Value::Bytes`] parameter for a
/// `MULTIRANGE(col, ?)` predicate. The batch is serialized with the row
/// codec: four values per range (`lo`, `lo_inclusive`, `hi`,
/// `hi_inclusive`).
pub fn encode_range_batch(ranges: &[RangeSpec]) -> Value {
    let mut flat = Vec::with_capacity(ranges.len() * 4);
    for r in ranges {
        flat.push(r.lo.clone());
        flat.push(Value::Bool(r.lo_inclusive));
        flat.push(r.hi.clone());
        flat.push(Value::Bool(r.hi_inclusive));
    }
    let mut buf = Vec::new();
    encode_row(&flat, &mut buf);
    Value::Bytes(buf)
}

/// Decodes a range batch produced by [`encode_range_batch`].
pub fn decode_range_batch(buf: &[u8]) -> DbResult<Vec<RangeSpec>> {
    let flat = decode_row(buf)?;
    if !flat.len().is_multiple_of(4) {
        return Err(DbError::Storage(format!(
            "range batch arity {} is not a multiple of 4",
            flat.len()
        )));
    }
    let flag = |v: &Value| match v {
        Value::Bool(b) => Ok(*b),
        v => Err(DbError::Storage(format!(
            "bad inclusivity flag {v:?} in range batch"
        ))),
    };
    let mut fields = flat.into_iter();
    std::iter::from_fn(|| {
        Some([
            fields.next()?,
            fields.next()?,
            fields.next()?,
            fields.next()?,
        ])
    })
    .map(|[lo, lo_inclusive, hi, hi_inclusive]| {
        Ok(RangeSpec {
            lo,
            lo_inclusive: flag(&lo_inclusive)?,
            hi,
            hi_inclusive: flag(&hi_inclusive)?,
        })
    })
    .collect()
}

// ---------------------------------------------------------------------
// Key encoding — order-preserving.
// ---------------------------------------------------------------------

/// Appends the order-preserving encoding of `v` to `out`.
///
/// Guarantee: for rows `a`, `b` of equal arity,
/// `encode_key(a) < encode_key(b)` (memcmp) iff `a < b` under
/// [`Value::total_cmp`] applied lexicographically.
pub fn encode_key_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(0x00),
        Value::Bool(b) => {
            out.push(0x01);
            out.push(u8::from(*b));
        }
        // Int and Float share tag 0x02 and are both encoded through the f64
        // order-preserving transform when they need to inter-compare; to keep
        // integers exact we use a dual encoding: tag 0x02 + sortable i64 for
        // Int, tag 0x03 + sortable f64 for Float. Columns are homogeneous, so
        // cross-type key comparison never happens inside one index.
        Value::Int(i) => {
            out.push(0x02);
            out.extend_from_slice(&((*i as u64) ^ (1u64 << 63)).to_be_bytes());
        }
        Value::Float(x) => {
            out.push(0x03);
            let bits = x.to_bits();
            // Standard total-order transform: flip all bits of negatives,
            // flip only the sign bit of non-negatives.
            let sortable = if bits & (1 << 63) != 0 {
                !bits
            } else {
                bits ^ (1 << 63)
            };
            out.extend_from_slice(&sortable.to_be_bytes());
        }
        Value::Text(s) => {
            out.push(0x04);
            escape_bytes(s.as_bytes(), out);
        }
        Value::Bytes(b) => {
            out.push(0x05);
            escape_bytes(b, out);
        }
    }
}

/// Appends the key encoding of `v` as a column of type `ty` stores it (see
/// [`Value::coerce`]). Returns `false`, appending nothing, when `v` is
/// `Null` or cannot be stored there: such a bound matches no key.
pub fn encode_key_as(v: &Value, ty: DataType, out: &mut Vec<u8>) -> bool {
    match (v, ty) {
        (Value::Null, _) => false,
        (Value::Int(i), DataType::Float) => {
            encode_key_value(&Value::Float(*i as f64), out);
            true
        }
        (v, t) if v.data_type() == Some(t) => {
            encode_key_value(v, out);
            true
        }
        _ => false,
    }
}

/// Variable-length byte strings are escaped so that the terminator sorts
/// below any content: `0x00` → `0x00 0xFF`, terminated by `0x00 0x00`.
fn escape_bytes(data: &[u8], out: &mut Vec<u8>) {
    for &b in data {
        if b == 0x00 {
            out.push(0x00);
            out.push(0xFF);
        } else {
            out.push(b);
        }
    }
    out.push(0x00);
    out.push(0x00);
}

/// Encodes a composite key.
pub fn encode_key(values: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 9);
    for v in values {
        encode_key_value(v, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(row: Row) {
        let mut buf = Vec::new();
        encode_row(&row, &mut buf);
        assert_eq!(decode_row(&buf).unwrap(), row);
    }

    #[test]
    fn row_roundtrip_all_types() {
        roundtrip(vec![]);
        roundtrip(vec![
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(0),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Int(-12345),
            Value::Float(0.0),
            Value::Float(-1.5e300),
            Value::Text(String::new()),
            Value::Text("héllo\0world".into()),
            Value::Bytes(vec![]),
            Value::Bytes(vec![0, 255, 1, 0, 0]),
        ]);
    }

    #[test]
    fn record_columns_borrow_what_decode_row_copies() {
        let row = vec![
            Value::Int(-7),
            Value::Null,
            Value::text("héllo"),
            Value::Bytes(vec![0, 255]),
            Value::Float(2.5),
            Value::Bool(true),
        ];
        let mut buf = Vec::new();
        encode_row(&row, &mut buf);
        for (i, v) in row.iter().enumerate() {
            let col = record_column(&buf, i).unwrap().unwrap();
            assert_eq!(col.to_value(), *v);
            assert_eq!(col.sql_cmp(v), v.sql_cmp(v), "column {i}");
        }
        assert_eq!(record_column(&buf, row.len()).unwrap(), None);
        assert!(record_column(&buf[..buf.len() - 3], 4).is_err());
        // Cross-kind comparisons agree with `Value::sql_cmp`.
        let int = ValueRef::Int(2);
        for other in [Value::Float(2.5), Value::text("2"), Value::Null] {
            assert_eq!(int.sql_cmp(&other), Value::Int(2).sql_cmp(&other));
        }
    }

    #[test]
    fn row_roundtrip_nan_stays_nan() {
        let mut buf = Vec::new();
        encode_row(&[Value::Float(f64::NAN)], &mut buf);
        match &decode_row(&buf).unwrap()[0] {
            Value::Float(f) => assert!(f.is_nan()),
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn key_order_matches_int_order() {
        let ints = [i64::MIN, -1_000_000, -1, 0, 1, 7, 1_000_000, i64::MAX];
        for a in ints {
            for b in ints {
                let ka = encode_key(&[Value::Int(a)]);
                let kb = encode_key(&[Value::Int(b)]);
                assert_eq!(ka.cmp(&kb), a.cmp(&b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn key_order_matches_float_order() {
        let floats = [
            f64::NEG_INFINITY,
            -1e300,
            -1.0,
            -0.0,
            0.0,
            1e-10,
            1.0,
            1e300,
            f64::INFINITY,
        ];
        for a in floats {
            for b in floats {
                let ka = encode_key(&[Value::Float(a)]);
                let kb = encode_key(&[Value::Float(b)]);
                assert_eq!(ka.cmp(&kb), a.total_cmp(&b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn key_order_matches_text_order_with_zero_bytes() {
        let texts = ["", "a", "a\0", "a\0b", "ab", "b", "ba"];
        for a in texts {
            for b in texts {
                let ka = encode_key(&[Value::text(a)]);
                let kb = encode_key(&[Value::text(b)]);
                assert_eq!(ka.cmp(&kb), a.cmp(b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn composite_key_prefix_property() {
        // (1, "a") < (1, "b") < (2, "") and a one-column prefix of (1,*) sorts
        // between keys for doc 0 and doc 2.
        let k1a = encode_key(&[Value::Int(1), Value::text("a")]);
        let k1b = encode_key(&[Value::Int(1), Value::text("b")]);
        let k2 = encode_key(&[Value::Int(2), Value::text("")]);
        let prefix1 = encode_key(&[Value::Int(1)]);
        assert!(k1a < k1b);
        assert!(k1b < k2);
        assert!(prefix1 < k1a, "prefix sorts before any extension");
        assert!(prefix1 < k2);
    }

    #[test]
    fn null_sorts_first_in_keys() {
        let kn = encode_key(&[Value::Null]);
        let ki = encode_key(&[Value::Int(i64::MIN)]);
        assert!(kn < ki);
    }

    #[test]
    fn sql_cmp_three_valued() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(
            Value::Int(1).sql_cmp(&Value::Float(1.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::text("a").sql_cmp(&Value::text("a")),
            Some(Ordering::Equal)
        );
        assert_eq!(Value::text("a").sql_cmp(&Value::Int(1)), None); // incomparable types
    }

    #[test]
    fn range_batch_roundtrip() {
        let ranges = vec![
            RangeSpec::point(Value::Int(7)),
            RangeSpec::half_open(Value::Bytes(vec![1, 2]), Value::Bytes(vec![1, 3])),
            RangeSpec {
                lo: Value::Null,
                lo_inclusive: true,
                hi: Value::text("zz"),
                hi_inclusive: true,
            },
        ];
        let encoded = encode_range_batch(&ranges);
        let Value::Bytes(buf) = &encoded else {
            panic!("expected a bytes parameter");
        };
        assert_eq!(decode_range_batch(buf).unwrap(), ranges);
        // An empty batch round-trips too (a scan over it returns no rows).
        let Value::Bytes(empty) = encode_range_batch(&[]) else {
            panic!("expected bytes");
        };
        assert!(decode_range_batch(&empty).unwrap().is_empty());
    }

    #[test]
    fn range_batch_rejects_garbage() {
        assert!(decode_range_batch(&[7]).is_err());
        // Arity not a multiple of four.
        let mut buf = Vec::new();
        encode_row(&[Value::Int(1), Value::Bool(true)], &mut buf);
        assert!(decode_range_batch(&buf).is_err());
        // Non-boolean inclusivity flag.
        let mut buf = Vec::new();
        encode_row(
            &[
                Value::Int(1),
                Value::Int(0),
                Value::Int(2),
                Value::Bool(true),
            ],
            &mut buf,
        );
        assert!(decode_range_batch(&buf).is_err());
    }

    #[test]
    fn coercion_rules() {
        assert_eq!(
            Value::Int(2).coerce(DataType::Float).unwrap(),
            Value::Float(2.0)
        );
        assert!(Value::text("x").coerce(DataType::Int).is_err());
        assert_eq!(Value::Null.coerce(DataType::Text).unwrap(), Value::Null);
    }
}
