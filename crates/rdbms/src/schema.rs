//! Relation schemas and tuples.

use crate::value::{ColType, Value};
use std::fmt;

/// A single column: name plus type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    pub name: String,
    pub ty: ColType,
}

impl Column {
    pub fn new(name: impl Into<String>, ty: ColType) -> Column {
        Column {
            name: name.into(),
            ty,
        }
    }
}

/// An ordered list of columns describing a relation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    pub fn new(columns: Vec<Column>) -> Schema {
        Schema { columns }
    }

    /// Convenience constructor from `(name, type)` pairs.
    pub fn from_pairs(pairs: &[(&str, ColType)]) -> Schema {
        Schema {
            columns: pairs.iter().map(|(n, t)| Column::new(*n, *t)).collect(),
        }
    }

    /// A schema of `n` integer columns named `c0..c{n-1}` — the shape of
    /// every derived-predicate temporary the runtime creates.
    pub fn ints(n: usize) -> Schema {
        Schema {
            columns: (0..n)
                .map(|i| Column::new(format!("c{i}"), ColType::Int))
                .collect(),
        }
    }

    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Index of the column named `name` (case-insensitive), if any.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Whether `tuple` matches this schema's arity and column types.
    pub fn admits(&self, tuple: &[Value]) -> bool {
        tuple.len() == self.arity()
            && tuple
                .iter()
                .zip(&self.columns)
                .all(|(v, c)| v.col_type() == c.ty)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {}", c.name, c.ty)?;
        }
        write!(f, ")")
    }
}

/// A materialized row.
pub type Tuple = Vec<Value>;

/// Serialize a tuple to the on-page byte format: `u16` column count followed
/// by each value's tagged encoding.
pub fn serialize_tuple(tuple: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(serialized_len(tuple));
    serialize_tuple_into(tuple, &mut out);
    out
}

/// Bytes [`serialize_tuple`] produces for `tuple`.
pub fn serialized_len(tuple: &[Value]) -> usize {
    2 + tuple.iter().map(Value::serialized_len).sum::<usize>()
}

/// Append the [`serialize_tuple`] form of `tuple` to `out` — the bulk
/// paths serialize every row of a batch into one reused buffer.
pub fn serialize_tuple_into(tuple: &[Value], out: &mut Vec<u8>) {
    out.extend_from_slice(&(tuple.len() as u16).to_le_bytes());
    for v in tuple {
        v.serialize_into(out);
    }
}

/// Decode a tuple previously produced by [`serialize_tuple`].
pub fn deserialize_tuple(buf: &[u8]) -> Option<Tuple> {
    let mut tuple = Vec::new();
    deserialize_tuple_into(buf, &mut tuple).then_some(tuple)
}

/// [`deserialize_tuple`] into a reused row: `row` is emptied and refilled,
/// so decoding integer rows one after another allocates nothing. Returns
/// whether `buf` was well formed; `row` is unspecified when it was not.
pub(crate) fn deserialize_tuple_into(buf: &[u8], row: &mut Vec<Value>) -> bool {
    row.clear();
    let Some(count_bytes) = buf.get(0..2) else {
        return false;
    };
    let count = u16::from_le_bytes([count_bytes[0], count_bytes[1]]) as usize;
    let mut pos = 2;
    row.reserve(count);
    for _ in 0..count {
        match Value::deserialize_from(buf, &mut pos) {
            Some(v) => row.push(v),
            None => return false,
        }
    }
    pos == buf.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_schema() -> Schema {
        Schema::from_pairs(&[("id", ColType::Int), ("name", ColType::Str)])
    }

    #[test]
    fn index_of_is_case_insensitive() {
        let s = sample_schema();
        assert_eq!(s.index_of("id"), Some(0));
        assert_eq!(s.index_of("NAME"), Some(1));
        assert_eq!(s.index_of("missing"), None);
    }

    #[test]
    fn admits_checks_arity_and_types() {
        let s = sample_schema();
        assert!(s.admits(&[Value::Int(1), Value::from("a")]));
        assert!(!s.admits(&[Value::Int(1)]));
        assert!(!s.admits(&[Value::from("a"), Value::Int(1)]));
    }

    #[test]
    fn ints_schema_names_and_types() {
        let s = Schema::ints(3);
        assert_eq!(s.arity(), 3);
        assert_eq!(s.column(0).name, "c0");
        assert_eq!(s.column(2).name, "c2");
        assert!(s.columns().iter().all(|c| c.ty == ColType::Int));
    }

    #[test]
    fn tuple_serialization_roundtrip() {
        let t = vec![Value::Int(5), Value::from("parent"), Value::Int(-9)];
        let buf = serialize_tuple(&t);
        assert_eq!(deserialize_tuple(&buf), Some(t));
    }

    #[test]
    fn tuple_deserialize_rejects_trailing_garbage() {
        let t = vec![Value::Int(5)];
        let mut buf = serialize_tuple(&t);
        buf.push(0xAB);
        assert_eq!(deserialize_tuple(&buf), None);
    }

    #[test]
    fn empty_tuple_roundtrip() {
        let t: Tuple = vec![];
        let buf = serialize_tuple(&t);
        assert_eq!(deserialize_tuple(&buf), Some(t));
    }

    #[test]
    fn schema_display() {
        assert_eq!(sample_schema().to_string(), "(id integer, name char)");
    }
}
