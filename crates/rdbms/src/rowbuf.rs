//! The executor's row currency: every row an operator produces, in one
//! flat allocation.

use crate::sym::{Datum, Symbols};
use crate::value::Value;

/// `len` rows of `arity` datums each, stored back to back. Operators hand
/// these to one another instead of a `Vec` of row vectors, so producing a
/// row is a push onto the tail, not a heap allocation, and dropping a row
/// set is one `free`: a [`Datum`] owns nothing.
#[derive(Debug, Clone)]
pub(crate) struct RowBuf {
    arity: usize,
    /// Kept beside `vals` because rows may have no columns at all
    /// (`COUNT(*)` asks its source for none).
    len: usize,
    vals: Vec<Datum>,
}

impl RowBuf {
    pub(crate) fn new(arity: usize) -> RowBuf {
        RowBuf {
            arity,
            len: 0,
            vals: Vec::new(),
        }
    }

    pub(crate) fn with_capacity(arity: usize, rows: usize) -> RowBuf {
        RowBuf {
            arity,
            len: 0,
            vals: Vec::with_capacity(arity * rows),
        }
    }

    pub(crate) fn arity(&self) -> usize {
        self.arity
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[Datum] {
        &self.vals[i * self.arity..(i + 1) * self.arity]
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &[Datum]> + '_ {
        (0..self.len).map(|i| self.row(i))
    }

    /// `len` rows of no columns: a row count no buffer with columns could
    /// be allocated for.
    #[cfg(test)]
    pub(crate) fn columnless(len: usize) -> RowBuf {
        RowBuf {
            arity: 0,
            len,
            vals: Vec::new(),
        }
    }

    /// Drop every row, keeping the allocation.
    pub(crate) fn clear(&mut self) {
        self.vals.clear();
        self.len = 0;
    }

    pub(crate) fn reserve(&mut self, rows: usize) {
        self.vals.reserve(rows * self.arity);
    }

    /// Append the row `vals` yields; it must yield exactly `arity` values.
    #[inline]
    pub(crate) fn push(&mut self, vals: impl IntoIterator<Item = Datum>) {
        self.vals.extend(vals);
        self.len += 1;
        debug_assert_eq!(self.vals.len(), self.len * self.arity);
    }

    /// Append the row `left ++ right`.
    #[inline]
    pub(crate) fn push_joined(&mut self, left: &[Datum], right: &[Datum]) {
        debug_assert_eq!(left.len() + right.len(), self.arity);
        self.vals.extend_from_slice(left);
        self.vals.extend_from_slice(right);
        self.len += 1;
    }

    /// Move every row of `other` (same arity) onto the end.
    pub(crate) fn append(&mut self, mut other: RowBuf) {
        debug_assert_eq!(other.arity, self.arity);
        self.vals.append(&mut other.vals);
        self.len += other.len;
    }

    /// Keep the rows marked in `keep` (one flag per row), in order, closing
    /// the gaps in place.
    pub(crate) fn retain_marked(&mut self, keep: &[bool]) {
        debug_assert_eq!(keep.len(), self.len);
        let arity = self.arity;
        let mut kept = 0;
        for (i, _) in keep.iter().enumerate().filter(|(_, k)| **k) {
            if kept != i {
                self.vals
                    .copy_within(i * arity..(i + 1) * arity, kept * arity);
            }
            kept += 1;
        }
        self.vals.truncate(kept * arity);
        self.len = kept;
    }

    /// The rows `order` names, in that order (a sort permutation, or a
    /// selection).
    pub(crate) fn reordered(&self, order: &[usize]) -> RowBuf {
        let mut out = RowBuf::with_capacity(self.arity, order.len());
        for &i in order {
            out.vals.extend_from_slice(self.row(i));
        }
        out.len = order.len();
        out
    }

    /// Leave the buffer: one vector per row, the shape of
    /// [`crate::engine::ResultSet::rows`], each symbol resolved to its
    /// string.
    pub(crate) fn into_rows(self, syms: &Symbols) -> Vec<Vec<Value>> {
        self.iter()
            .map(|row| row.iter().map(|&d| syms.value(d)).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf(rows: &[[i64; 2]]) -> RowBuf {
        let mut b = RowBuf::new(2);
        for r in rows {
            b.push(r.iter().map(|&v| Datum::Int(v)));
        }
        b
    }

    fn ints(b: RowBuf) -> Vec<Vec<i64>> {
        b.into_rows(&Symbols::default())
            .into_iter()
            .map(|r| r.iter().map(|v| v.as_int().unwrap()).collect())
            .collect()
    }

    #[test]
    fn rows_round_trip_in_order() {
        let b = buf(&[[1, 2], [3, 4], [5, 6]]);
        assert_eq!((b.len(), b.arity()), (3, 2));
        assert_eq!(b.row(1), &[Datum::Int(3), Datum::Int(4)]);
        assert_eq!(b.iter().count(), 3);
        assert_eq!(ints(b), vec![vec![1, 2], vec![3, 4], vec![5, 6]]);
    }

    #[test]
    fn zero_column_rows_are_counted() {
        let mut b = RowBuf::new(0);
        b.push([]);
        b.push_joined(&[], &[]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.row(1), &[] as &[Datum]);
        b.retain_marked(&[false, true]);
        assert_eq!(b.into_rows(&Symbols::default()), vec![Vec::<Value>::new()]);
    }

    #[test]
    fn retain_marked_compacts_in_place() {
        let mut b = buf(&[[1, 1], [2, 2], [3, 3], [4, 4]]);
        b.retain_marked(&[false, true, false, true]);
        assert_eq!(ints(b), vec![vec![2, 2], vec![4, 4]]);
        let mut all = buf(&[[1, 1], [2, 2]]);
        all.retain_marked(&[true, true]);
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn append_and_reorder() {
        let mut b = buf(&[[1, 1], [2, 2]]);
        b.append(buf(&[[3, 3]]));
        assert_eq!(b.len(), 3);
        assert_eq!(
            ints(b.reordered(&[2, 0, 1])),
            vec![vec![3, 3], vec![1, 1], vec![2, 2]]
        );
    }

    #[test]
    fn symbols_leave_as_strings() {
        let syms = Symbols::default();
        let mut b = RowBuf::new(2);
        b.push([syms.datum(&Value::from("x")), Datum::Int(1)]);
        assert_eq!(
            b.into_rows(&syms),
            vec![vec![Value::from("x"), Value::Int(1)]]
        );
    }
}
