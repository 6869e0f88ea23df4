//! Table and index catalog.

use crate::buffer::BufferPool;
use crate::disk::{Disk, PageId};
use crate::exec::{decode_datums, decode_tuple};
use crate::heap::{HeapFile, RecordId};
use crate::index::TableIndex;
use crate::rowbuf::RowBuf;
use crate::schema::{Schema, Tuple};
use crate::sym::{Datum, Symbols};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Everything the engine knows about one table.
#[derive(Debug, Clone)]
pub struct Table {
    pub name: String,
    pub schema: Schema,
    pub(crate) rows: Rows,
    pub indexes: Vec<TableIndex>,
}

/// Where a table's rows live.
#[derive(Debug, Clone)]
pub(crate) enum Rows {
    /// A base or dictionary relation: slotted pages behind the buffer pool,
    /// logged by the WAL, saved by snapshots.
    Heap(HeapFile),
    /// A temporary — runtime scratch such as the LFP loop's per-iteration
    /// deltas, listed separately in stats and dropped wholesale by
    /// `drop_temp_tables` — holds its rows as the executor produced them,
    /// in insertion order. Nothing of it is encoded, paged or logged.
    Relation(RowBuf),
}

/// The address of row `i` of a relation: the row number split as a heap
/// splits page and slot, so one directory type files both kinds of table.
pub(crate) fn relation_rid(i: usize) -> RecordId {
    RecordId {
        page: PageId((i >> 16) as u32),
        slot: i as u16,
    }
}

/// The row number [`relation_rid`] gave `rid`.
pub(crate) fn relation_row(rid: RecordId) -> usize {
    ((rid.page.0 as usize) << 16) | usize::from(rid.slot)
}

impl Table {
    /// A temporary's rows: what its hash indexes' lookups read keys from.
    pub(crate) fn relation(&self) -> Option<&RowBuf> {
        match &self.rows {
            Rows::Heap(_) => None,
            Rows::Relation(rel) => Some(rel),
        }
    }

    /// Whether this is a `TEMP` table.
    pub fn is_temp(&self) -> bool {
        matches!(self.rows, Rows::Relation(_))
    }

    /// Number of live rows.
    pub(crate) fn len(&self) -> u64 {
        match &self.rows {
            Rows::Heap(heap) => heap.tuple_count(),
            Rows::Relation(rel) => rel.len() as u64,
        }
    }

    /// Visit every live row in storage order, as the executor's datums.
    /// A heap record is decoded into one reused row; a relation hands out
    /// its own rows.
    pub(crate) fn for_each_row(
        &self,
        disk: &mut Disk,
        pool: &mut BufferPool,
        syms: &Symbols,
        mut f: impl FnMut(RecordId, &[Datum]) -> Result<(), DbError>,
    ) -> Result<(), DbError> {
        match &self.rows {
            Rows::Heap(heap) => {
                let mut row = Vec::new();
                heap.scan().for_each(disk, pool, |rid, payload| {
                    decode_datums(&self.name, rid, payload, &mut row, &mut syms.reader())?;
                    f(rid, &row)
                })?;
                Ok(())
            }
            Rows::Relation(rel) => rel
                .iter()
                .enumerate()
                .try_for_each(|(i, row)| f(relation_rid(i), row)),
        }
    }

    /// [`Table::for_each_row`] as a caller's values: a heap record is
    /// decoded straight to values, a relation row's symbols are resolved.
    pub(crate) fn for_each_tuple(
        &self,
        disk: &mut Disk,
        pool: &mut BufferPool,
        syms: &Symbols,
        mut f: impl FnMut(RecordId, Tuple) -> Result<(), DbError>,
    ) -> Result<(), DbError> {
        match &self.rows {
            Rows::Heap(heap) => {
                heap.scan().for_each(disk, pool, |rid, payload| {
                    f(rid, decode_tuple(&self.name, rid, payload)?)
                })?;
                Ok(())
            }
            Rows::Relation(rel) => rel.iter().enumerate().try_for_each(|(i, row)| {
                f(
                    relation_rid(i),
                    row.iter().map(|&d| syms.value(d)).collect(),
                )
            }),
        }
    }
}

/// Errors surfaced by catalog operations (and re-used by the SQL layer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    TableExists(String),
    NoSuchTable(String),
    NoSuchColumn(String),
    NoSuchIndex(String),
    IndexExists(String),
    TypeMismatch(String),
    /// A row whose serialized form does not fit on one page. Rejected
    /// before anything is written, like a type mismatch.
    RowTooLarge {
        bytes: usize,
        max: usize,
    },
    Parse(String),
    Plan(String),
    Io(String),
    /// A stored page or tuple failed to decode: the database is damaged
    /// (or a fault-injection test tore a write). Surfaced as an error so
    /// callers can attempt recovery instead of aborting the process.
    Corruption(String),
    /// Transaction-protocol misuse (nested begin, commit without begin).
    Txn(String),
    /// The statement's execution governor tripped: canceled, past its
    /// deadline, or over a row/memory budget. The engine itself is
    /// healthy; the statement was abandoned cooperatively.
    Budget(crate::governor::BudgetBreach),
    /// First-committer-wins validation failed: another session committed
    /// a change to a table in this transaction's read/write set after
    /// the transaction took its snapshot. The transaction was rolled
    /// back; the caller should retry it on a fresh snapshot.
    WriteConflict(String),
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::TableExists(t) => write!(f, "table already exists: {t}"),
            DbError::NoSuchTable(t) => write!(f, "no such table: {t}"),
            DbError::NoSuchColumn(c) => write!(f, "no such column: {c}"),
            DbError::NoSuchIndex(i) => write!(f, "no such index: {i}"),
            DbError::IndexExists(i) => write!(f, "index already exists: {i}"),
            DbError::TypeMismatch(m) => write!(f, "type mismatch: {m}"),
            DbError::RowTooLarge { bytes, max } => {
                write!(f, "row of {bytes} bytes exceeds the page capacity of {max}")
            }
            DbError::Parse(m) => write!(f, "parse error: {m}"),
            DbError::Plan(m) => write!(f, "planning error: {m}"),
            DbError::Io(m) => write!(f, "I/O error: {m}"),
            DbError::Corruption(m) => write!(f, "corruption detected: {m}"),
            DbError::Txn(m) => write!(f, "transaction error: {m}"),
            DbError::Budget(b) => write!(f, "budget exceeded: {b}"),
            DbError::WriteConflict(m) => write!(f, "write conflict: {m}"),
        }
    }
}

impl std::error::Error for DbError {}

/// The catalog maps lower-cased table names to [`Table`] entries. A
/// `BTreeMap` keeps listing deterministic.
///
/// Entries are `Arc`-shared so cloning the catalog for an MVCC snapshot
/// ([`crate::engine::Engine::fork`]) costs O(#tables) pointer copies;
/// mutating a table on either side copies just that entry on write. The
/// engine lineage's symbol table rides along: a clone shares it, so every
/// index directory either side can see files a string under one id.
#[derive(Default, Clone)]
pub struct Catalog {
    tables: BTreeMap<String, Arc<Table>>,
    syms: Arc<Symbols>,
}

fn norm(name: &str) -> String {
    name.to_ascii_lowercase()
}

impl Catalog {
    pub fn new() -> Catalog {
        Catalog::default()
    }

    pub fn create_table(
        &mut self,
        disk: &mut Disk,
        name: &str,
        schema: Schema,
        is_temp: bool,
    ) -> Result<(), DbError> {
        let key = norm(name);
        if self.tables.contains_key(&key) {
            return Err(DbError::TableExists(name.to_string()));
        }
        let rows = if is_temp {
            Rows::Relation(RowBuf::new(schema.arity()))
        } else {
            Rows::Heap(HeapFile::create(disk))
        };
        self.tables.insert(
            key,
            Arc::new(Table {
                name: name.to_string(),
                schema,
                rows,
                indexes: Vec::new(),
            }),
        );
        Ok(())
    }

    pub fn drop_table(
        &mut self,
        disk: &mut Disk,
        pool: &mut BufferPool,
        name: &str,
    ) -> Result<(), DbError> {
        match self.tables.remove(&norm(name)) {
            Some(table) => {
                if let Rows::Heap(heap) = &table.rows {
                    heap.clone().destroy(disk, pool);
                }
                Ok(())
            }
            None => Err(DbError::NoSuchTable(name.to_string())),
        }
    }

    pub fn table(&self, name: &str) -> Result<&Table, DbError> {
        self.tables
            .get(&norm(name))
            .map(|t| &**t)
            .ok_or_else(|| DbError::NoSuchTable(name.to_string()))
    }

    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table, DbError> {
        self.table_mut_and_syms(name).map(|(t, _)| t)
    }

    /// [`Catalog::table_mut`], and beside it the symbol table.
    pub(crate) fn table_mut_and_syms(
        &mut self,
        name: &str,
    ) -> Result<(&mut Table, &Symbols), DbError> {
        let table = self
            .tables
            .get_mut(&norm(name))
            .map(Arc::make_mut)
            .ok_or_else(|| DbError::NoSuchTable(name.to_string()))?;
        Ok((table, &self.syms))
    }

    /// The engine lineage's symbol table.
    pub(crate) fn syms(&self) -> &Symbols {
        &self.syms
    }

    /// Remove a table entry *without* destroying its heap file. Used by
    /// the transaction layer: a `DROP TABLE` inside a transaction keeps
    /// the `Table` alive so rollback can put it back.
    pub fn take_table(&mut self, name: &str) -> Result<Table, DbError> {
        self.tables
            .remove(&norm(name))
            .map(|t| Arc::try_unwrap(t).unwrap_or_else(|t| (*t).clone()))
            .ok_or_else(|| DbError::NoSuchTable(name.to_string()))
    }

    /// Re-insert a table previously removed with [`Catalog::take_table`].
    pub fn restore_table(&mut self, table: Table) {
        self.tables.insert(norm(&table.name), Arc::new(table));
    }

    /// Mutable iteration over the tables kept in heap files (used to
    /// rebuild volatile state after recovery).
    pub(crate) fn heap_tables_mut(&mut self) -> impl Iterator<Item = &mut Table> {
        self.tables
            .values_mut()
            .filter(|t| !t.is_temp())
            .map(Arc::make_mut)
    }

    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(&norm(name))
    }

    /// Create an index on `table` over `columns` and backfill it from the
    /// current table contents. `ordered` selects the range-capable
    /// directory.
    pub fn create_index(
        &mut self,
        disk: &mut Disk,
        pool: &mut BufferPool,
        index_name: &str,
        table_name: &str,
        columns: &[String],
        ordered: bool,
    ) -> Result<(), DbError> {
        if self.find_index(index_name).is_some() {
            return Err(DbError::IndexExists(index_name.to_string()));
        }
        let syms = Arc::clone(&self.syms);
        let table = self.table_mut(table_name)?;
        let mut key_cols = Vec::with_capacity(columns.len());
        for c in columns {
            key_cols.push(
                table
                    .schema
                    .index_of(c)
                    .ok_or_else(|| DbError::NoSuchColumn(c.clone()))?,
            );
        }
        let name = index_name.to_ascii_lowercase();
        let index = match &table.rows {
            Rows::Heap(heap) => {
                let mut index = TableIndex::with_symbols(name, key_cols, ordered, syms);
                let mut row = Vec::new();
                heap.scan().for_each(disk, pool, |rid, payload| {
                    crate::exec::decode_into(table_name, rid, payload, &mut row)?;
                    index.insert(&row, rid);
                    Ok(())
                })?;
                index
            }
            Rows::Relation(rel) => TableIndex::over_relation(name, key_cols, ordered, syms, rel),
        };
        table.indexes.push(index);
        Ok(())
    }

    pub fn drop_index(&mut self, index_name: &str) -> Result<(), DbError> {
        let key = index_name.to_ascii_lowercase();
        for table in self.tables.values_mut() {
            if let Some(pos) = table.indexes.iter().position(|i| i.name() == key) {
                Arc::make_mut(table).indexes.remove(pos);
                return Ok(());
            }
        }
        Err(DbError::NoSuchIndex(index_name.to_string()))
    }

    /// The table owning the named index, if any.
    pub fn find_index(&self, index_name: &str) -> Option<&Table> {
        let key = index_name.to_ascii_lowercase();
        self.tables
            .values()
            .find(|t| t.indexes.iter().any(|i| i.name() == key))
            .map(|t| &**t)
    }

    /// Names of all tables (deterministic order).
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.values().map(|t| t.name.as_str()).collect()
    }

    /// Drop every temp table, returning how many were dropped.
    pub fn drop_temp_tables(&mut self) -> usize {
        let before = self.tables.len();
        self.tables.retain(|_, t| !t.is_temp());
        before - self.tables.len()
    }

    /// The temp tables, shared: what a transaction hands back to the
    /// catalog if it is rolled back ([`Catalog::restore_temp_tables`]).
    pub(crate) fn temp_tables(&self) -> Vec<Arc<Table>> {
        self.tables
            .values()
            .filter(|t| t.is_temp())
            .cloned()
            .collect()
    }

    /// Put back temp tables saved by [`Catalog::temp_tables`], each
    /// replacing whatever now has its name.
    pub(crate) fn restore_temp_tables(&mut self, temps: Vec<Arc<Table>>) {
        for t in temps {
            self.tables.insert(norm(&t.name), t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::serialize_tuple;
    use crate::value::{ColType, Value};

    fn setup() -> (Disk, BufferPool, Catalog) {
        (Disk::new(), BufferPool::new(8), Catalog::new())
    }

    fn two_col_schema() -> Schema {
        Schema::from_pairs(&[("a", ColType::Int), ("b", ColType::Str)])
    }

    #[test]
    fn create_and_lookup_table() {
        let (mut disk, _pool, mut cat) = setup();
        cat.create_table(&mut disk, "Parent", two_col_schema(), false)
            .unwrap();
        assert!(cat.has_table("parent"));
        assert!(cat.has_table("PARENT"));
        assert_eq!(cat.table("parent").unwrap().name, "Parent");
        assert_eq!(
            cat.create_table(&mut disk, "parent", two_col_schema(), false),
            Err(DbError::TableExists("parent".to_string()))
        );
    }

    #[test]
    fn drop_table_removes_and_errors_when_missing() {
        let (mut disk, mut pool, mut cat) = setup();
        cat.create_table(&mut disk, "t", two_col_schema(), false)
            .unwrap();
        cat.drop_table(&mut disk, &mut pool, "T").unwrap();
        assert!(!cat.has_table("t"));
        assert!(matches!(
            cat.drop_table(&mut disk, &mut pool, "t"),
            Err(DbError::NoSuchTable(_))
        ));
    }

    #[test]
    fn create_index_backfills_existing_rows() {
        let (mut disk, mut pool, mut cat) = setup();
        cat.create_table(&mut disk, "t", two_col_schema(), false)
            .unwrap();
        {
            let t = cat.table_mut("t").unwrap();
            let Rows::Heap(heap) = &mut t.rows else {
                unreachable!("a base table is a heap")
            };
            let rows = [
                vec![Value::Int(1), Value::from("x")],
                vec![Value::Int(1), Value::from("y")],
                vec![Value::Int(2), Value::from("z")],
            ];
            for row in &rows {
                let payload = serialize_tuple(row);
                heap.insert(&mut disk, &mut pool, &payload).unwrap();
            }
        }
        cat.create_index(&mut disk, &mut pool, "t_a", "t", &["a".to_string()], false)
            .unwrap();
        let t = cat.table_mut("t").unwrap();
        assert_eq!(t.indexes.len(), 1);
        let key = |v| crate::index::PackedKey::from_values(&[Value::Int(v)]);
        assert_eq!(t.indexes[0].lookup(&key(1)).len(), 2);
        assert_eq!(t.indexes[0].lookup(&key(2)).len(), 1);
    }

    #[test]
    fn duplicate_or_bad_index_rejected() {
        let (mut disk, mut pool, mut cat) = setup();
        cat.create_table(&mut disk, "t", two_col_schema(), false)
            .unwrap();
        cat.create_index(&mut disk, &mut pool, "i", "t", &["a".to_string()], false)
            .unwrap();
        assert!(matches!(
            cat.create_index(&mut disk, &mut pool, "i", "t", &["b".to_string()], false),
            Err(DbError::IndexExists(_))
        ));
        assert!(matches!(
            cat.create_index(&mut disk, &mut pool, "j", "t", &["zz".to_string()], false),
            Err(DbError::NoSuchColumn(_))
        ));
    }

    #[test]
    fn drop_index_by_name() {
        let (mut disk, mut pool, mut cat) = setup();
        cat.create_table(&mut disk, "t", two_col_schema(), false)
            .unwrap();
        cat.create_index(&mut disk, &mut pool, "i", "t", &["a".to_string()], false)
            .unwrap();
        assert!(cat.find_index("I").is_some());
        cat.drop_index("i").unwrap();
        assert!(cat.find_index("i").is_none());
        assert!(matches!(cat.drop_index("i"), Err(DbError::NoSuchIndex(_))));
    }

    #[test]
    fn drop_temp_tables_only_touches_temps() {
        let (mut disk, _pool, mut cat) = setup();
        cat.create_table(&mut disk, "base", two_col_schema(), false)
            .unwrap();
        cat.create_table(&mut disk, "tmp1", two_col_schema(), true)
            .unwrap();
        cat.create_table(&mut disk, "tmp2", two_col_schema(), true)
            .unwrap();
        assert_eq!(cat.drop_temp_tables(), 2);
        assert!(cat.has_table("base"));
        assert!(!cat.has_table("tmp1"));
    }
}
