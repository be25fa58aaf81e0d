//! The catalog: tables, their storage, and their indexes.
//!
//! A [`Table`] ties a [`TableSchema`] to a [`HeapFile`] plus B+tree indexes
//! (the primary-key index and any secondary indexes). All row mutations go
//! through `Table` methods so that every index stays consistent with the
//! heap. Secondary non-unique indexes append the packed row id to the
//! encoded key, the standard way to make duplicate keys unique in a B+tree.
//!
//! The catalog can serialize itself to a byte blob (schemas + heap page
//! lists) for file-backed databases; indexes are rebuilt by scanning heaps
//! on reopen.

use crate::btree::{BTree, Range, RangeRev};
use crate::error::{DbError, DbResult};
use crate::schema::{ColumnDef, IndexDef, TableSchema};
use crate::storage::{HeapFile, PageId, PageSource, Pager, RowId};
use crate::value::{decode_row, encode_key, encode_key_value, encode_row, DataType, Row, Value};
use std::collections::HashMap;
use std::ops::Bound;
use std::sync::Arc;

/// One `[lower, upper)`-style encoded-key range, as produced by the
/// executor's multi-range batching (see [`Table::index_ranges`]).
pub type KeyRange = (Bound<Vec<u8>>, Bound<Vec<u8>>);

/// The order-preserving key of `row`'s `cols` (see [`encode_key`]),
/// encoded straight from the row without copying its values.
fn encode_columns(row: &[Value], cols: &[usize]) -> Vec<u8> {
    let mut key = Vec::with_capacity(cols.len() * 9 + 8);
    for &i in cols {
        encode_key_value(&row[i], &mut key);
    }
    key
}

/// A table: schema + heap + indexes.
///
/// `Clone` copies the schema and the heap's page list and shares every
/// index: a [`BTree`] clone is one root pointer, and later writes path-copy
/// only the nodes they touch. The catalog shares tables behind `Arc`, so a
/// clone happens copy-on-write, when a writer first touches a table that a
/// published snapshot still references.
#[derive(Debug, Clone)]
pub struct Table {
    /// The logical schema.
    pub schema: TableSchema,
    /// Row storage.
    pub heap: HeapFile,
    /// Primary-key index (`encode_key(pk columns) -> RowId`); `None` when the
    /// table has no primary key.
    pub pk_index: Option<BTree>,
    /// Secondary indexes.
    pub indexes: Vec<(IndexDef, BTree)>,
}

impl Table {
    fn new(schema: TableSchema) -> Self {
        let pk_index = if schema.primary_key.is_empty() {
            None
        } else {
            Some(BTree::new())
        };
        Table {
            schema,
            heap: HeapFile::new(),
            pk_index,
            indexes: Vec::new(),
        }
    }

    /// Number of live rows.
    pub fn row_count(&self) -> u64 {
        self.heap.len()
    }

    fn pk_key(&self, row: &[Value]) -> Vec<u8> {
        encode_columns(row, &self.schema.primary_key)
    }

    fn index_key(def: &IndexDef, row: &[Value], rowid: RowId) -> Vec<u8> {
        let mut key = encode_columns(row, &def.columns);
        if !def.unique {
            key.extend_from_slice(&rowid.pack().to_be_bytes());
        }
        key
    }

    /// Fails if `row` would collide in a unique secondary index. `old` is
    /// the row being replaced, whose own keys do not count as collisions.
    fn check_unique_indexes(&self, row: &[Value], old: Option<&[Value]>) -> DbResult<()> {
        for (def, tree) in self.indexes.iter().filter(|(def, _)| def.unique) {
            let key = encode_columns(row, &def.columns);
            let own = old.is_some_and(|old| encode_columns(old, &def.columns) == key);
            if !own && tree.contains(&key) {
                return Err(DbError::Constraint(format!(
                    "duplicate key in unique index `{}`",
                    def.name
                )));
            }
        }
        Ok(())
    }

    fn duplicate_pk(&self) -> DbError {
        DbError::Constraint(format!(
            "duplicate primary key in table `{}`",
            self.schema.name
        ))
    }

    /// Inserts a validated row, maintaining every index. Returns the row id.
    /// A constraint violation leaves the heap and every index unchanged.
    pub fn insert_row(&mut self, pager: &Pager, row: Row) -> DbResult<RowId> {
        let row = self.schema.check_row(row)?;
        self.check_unique_indexes(&row, None)?;
        let mut buf = Vec::new();
        encode_row(&row, &mut buf);
        let rowid = self.heap.insert(pager, &buf)?;
        // The primary key is checked by the insert itself (one descent);
        // a duplicate takes the just-written heap row back out.
        let pk_key = self.pk_index.is_some().then(|| self.pk_key(&row));
        if let (Some(pk), Some(key)) = (&mut self.pk_index, pk_key) {
            if !pk.insert_new(&key, rowid.pack()) {
                self.heap.delete(pager, rowid)?;
                return Err(self.duplicate_pk());
            }
        }
        for (def, tree) in &mut self.indexes {
            tree.insert(&Table::index_key(def, &row, rowid), rowid.pack());
        }
        Ok(rowid)
    }

    /// Reads and decodes the row at `rowid`.
    pub fn get_row<'p>(&self, pages: impl Into<PageSource<'p>>, rowid: RowId) -> DbResult<Row> {
        decode_row(&self.heap.get(pages, rowid)?)
    }

    /// Deletes the row at `rowid`, maintaining every index.
    pub fn delete_row(&mut self, pager: &Pager, rowid: RowId) -> DbResult<()> {
        let row = self.get_row(pager, rowid)?;
        let pk_key = self.pk_index.is_some().then(|| self.pk_key(&row));
        if let (Some(pk), Some(key)) = (&mut self.pk_index, pk_key) {
            pk.remove(&key);
        }
        for (def, tree) in &mut self.indexes {
            tree.remove(&Table::index_key(def, &row, rowid));
        }
        self.heap.delete(pager, rowid)?;
        Ok(())
    }

    /// Replaces the row at `rowid` with `new_row`, maintaining every index.
    /// Returns the (possibly relocated) row id. Every constraint is checked
    /// before the first write, so a violation leaves the row as it was.
    pub fn update_row(&mut self, pager: &Pager, rowid: RowId, new_row: Row) -> DbResult<RowId> {
        let new_row = self.schema.check_row(new_row)?;
        let old_row = self.get_row(pager, rowid)?;
        // Primary-key change: check uniqueness against the *other* rows.
        let pk_keys = self
            .pk_index
            .is_some()
            .then(|| (self.pk_key(&old_row), self.pk_key(&new_row)));
        if let (Some(pk), Some((old_key, new_key))) = (&self.pk_index, &pk_keys) {
            if old_key != new_key && pk.contains(new_key) {
                return Err(self.duplicate_pk());
            }
        }
        self.check_unique_indexes(&new_row, Some(&old_row))?;
        let mut buf = Vec::new();
        encode_row(&new_row, &mut buf);
        let new_rowid = self.heap.update(pager, rowid, &buf)?;
        if let (Some(pk), Some((old_key, new_key))) = (&mut self.pk_index, pk_keys) {
            if old_key != new_key {
                pk.remove(&old_key);
            }
            pk.insert(&new_key, new_rowid.pack());
        }
        for (def, tree) in &mut self.indexes {
            let old_key = Table::index_key(def, &old_row, rowid);
            let new_key = Table::index_key(def, &new_row, new_rowid);
            if old_key != new_key {
                tree.remove(&old_key);
                tree.insert(&new_key, new_rowid.pack());
            } else if new_rowid != rowid {
                tree.insert(&new_key, new_rowid.pack());
            }
        }
        Ok(new_rowid)
    }

    /// Point lookup by primary key values.
    pub fn pk_lookup(&self, values: &[Value]) -> Option<RowId> {
        let pk = self.pk_index.as_ref()?;
        pk.get(&encode_key(values)).map(RowId::unpack)
    }

    /// The PK index (`None`) or `indexes[i]` (`Some(i)`).
    fn tree(&self, index: Option<usize>) -> &BTree {
        // Invariant, not user-reachable: the planner only emits a PK scan
        // for tables whose schema has a primary key, and index ordinals are
        // positions it read out of this same catalog.
        match index {
            None => self
                .pk_index
                .as_ref()
                .expect("planner picked PK scan on PK-less table"),
            Some(i) => &self.indexes[i].1,
        }
    }

    /// Row ids whose index/PK key falls in `[lower, upper)`-style bounds.
    /// `index` is `None` for the PK index or `Some(i)` for `indexes[i]`.
    /// Results arrive in key order (`reverse` flips the direction). The walk
    /// is lazy: each `next` reads one index entry and no heap row, so a
    /// caller that stops early never visits the rest of the range.
    pub fn index_range(
        &self,
        index: Option<usize>,
        lower: Bound<&[u8]>,
        upper: Bound<&[u8]>,
        reverse: bool,
    ) -> IndexRange<'_> {
        let tree = self.tree(index);
        if reverse {
            IndexRange::Desc(tree.range_rev(lower, upper))
        } else {
            IndexRange::Asc(tree.range(lower, upper))
        }
    }

    /// Like [`Table::index_range`] (ascending), but each row id comes with
    /// its index key, borrowed from the index. The executor's range-count
    /// memo copies the keys it keeps to answer later counts over the same
    /// stretch of the index.
    pub fn index_range_keyed(
        &self,
        index: Option<usize>,
        lower: Bound<&[u8]>,
        upper: Bound<&[u8]>,
    ) -> impl Iterator<Item = (&[u8], RowId)> + '_ {
        self.tree(index)
            .range(lower, upper)
            .map(|(k, v)| (k, RowId::unpack(v)))
    }

    /// Row ids for a *batch* of ranges over one index, walked lazily in
    /// order with descent-finger reuse: each range after the first resumes
    /// from where the previous scan stopped (a short leaf-to-leaf walk)
    /// instead of descending from the root — see [`BTree::range_from`].
    /// The executor's multi-range scans pass their ascending disjoint range
    /// list here, which is what turns `btree_descents` from "one per range"
    /// into "one per statement" on batched workloads. Ranges that are not
    /// ascending are still answered correctly (the finger fails validation
    /// and the scan descends), just without the saving.
    pub fn index_ranges<'a>(
        &'a self,
        index: Option<usize>,
        ranges: &'a [KeyRange],
    ) -> IndexRanges<'a> {
        IndexRanges {
            tree: self.tree(index),
            ranges: ranges.iter(),
            scan: None,
        }
    }

    /// Rebuilds every index from the heap (used on reopen).
    fn rebuild_indexes(&mut self, pager: &Pager) -> DbResult<()> {
        if let Some(pk) = &mut self.pk_index {
            pk.clear();
        }
        for (_, tree) in &mut self.indexes {
            tree.clear();
        }
        for idx in 0..self.heap.page_count() {
            self.heap.for_each_record(pager, idx, |rowid, rec| {
                let row = decode_row(rec)?;
                if let Some(pk) = &mut self.pk_index {
                    let key = encode_columns(&row, &self.schema.primary_key);
                    pk.insert(&key, rowid.pack());
                }
                for (def, tree) in &mut self.indexes {
                    tree.insert(&Table::index_key(def, &row, rowid), rowid.pack());
                }
                Ok(())
            })?;
        }
        Ok(())
    }
}

/// A lazy walk over one index range, in either direction. See
/// [`Table::index_range`].
pub enum IndexRange<'a> {
    /// Ascending key order.
    Asc(Range<'a>),
    /// Descending key order.
    Desc(RangeRev<'a>),
}

impl Iterator for IndexRange<'_> {
    type Item = RowId;

    fn next(&mut self) -> Option<RowId> {
        let (_, v) = match self {
            IndexRange::Asc(r) => r.next()?,
            IndexRange::Desc(r) => r.next()?,
        };
        Some(RowId::unpack(v))
    }
}

/// A lazy walk over a batch of index ranges. See [`Table::index_ranges`].
pub struct IndexRanges<'a> {
    tree: &'a BTree,
    ranges: std::slice::Iter<'a, KeyRange>,
    /// The range being walked; `None` before the first.
    scan: Option<Range<'a>>,
}

impl Iterator for IndexRanges<'_> {
    type Item = RowId;

    fn next(&mut self) -> Option<RowId> {
        fn as_ref(b: &Bound<Vec<u8>>) -> Bound<&[u8]> {
            match b {
                Bound::Included(k) => Bound::Included(k.as_slice()),
                Bound::Excluded(k) => Bound::Excluded(k.as_slice()),
                Bound::Unbounded => Bound::Unbounded,
            }
        }
        loop {
            if let Some((_, v)) = self.scan.as_mut().and_then(Iterator::next) {
                return Some(RowId::unpack(v));
            }
            let (lower, upper) = self.ranges.next()?;
            let finger = self.scan.as_ref().and_then(Range::finger);
            self.scan = Some(self.tree.range_from(finger, as_ref(lower), as_ref(upper)));
        }
    }
}

/// The set of tables in a database.
///
/// Tables live behind `Arc` so that `Catalog::clone` (used to publish MVCC
/// snapshots and to keep a transaction's rollback image) is cheap: it copies
/// the name map and bumps refcounts. Writers mutate through
/// [`Catalog::table_mut`], which copy-on-writes a table the first time it is
/// touched while a snapshot still shares it — a copy whose indexes share all
/// their nodes with the snapshot's (see [`Table`]).
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    tables: Vec<Arc<Table>>,
    by_name: HashMap<String, usize>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Creates a table. Fails if the name is taken.
    pub fn create_table(&mut self, schema: TableSchema) -> DbResult<()> {
        let name = schema.name.to_ascii_lowercase();
        if self.by_name.contains_key(&name) {
            return Err(DbError::Schema(format!("table `{name}` already exists")));
        }
        // Check column-name uniqueness.
        for (i, c) in schema.columns.iter().enumerate() {
            if schema.columns[..i]
                .iter()
                .any(|o| o.name.eq_ignore_ascii_case(&c.name))
            {
                return Err(DbError::Schema(format!(
                    "duplicate column `{}` in table `{name}`",
                    c.name
                )));
            }
        }
        self.by_name.insert(name, self.tables.len());
        self.tables.push(Arc::new(Table::new(schema)));
        Ok(())
    }

    /// Drops a table (its pages are not reclaimed from the pager; page
    /// recycling is out of scope for this engine).
    pub fn drop_table(&mut self, name: &str) -> DbResult<()> {
        let name = name.to_ascii_lowercase();
        let idx = self
            .by_name
            .remove(&name)
            .ok_or_else(|| DbError::Unknown(format!("table `{name}`")))?;
        self.tables.remove(idx);
        // Reindex the name map.
        for v in self.by_name.values_mut() {
            if *v > idx {
                *v -= 1;
            }
        }
        Ok(())
    }

    /// Adds a secondary index to a table and builds it from existing rows.
    pub fn create_index(&mut self, pager: &Pager, table: &str, def: IndexDef) -> DbResult<()> {
        // Index names are unique across the database.
        let dup = self
            .tables
            .iter()
            .flat_map(|t| &t.indexes)
            .any(|(d, _)| d.name.eq_ignore_ascii_case(&def.name));
        if dup {
            return Err(DbError::Schema(format!(
                "index `{}` already exists",
                def.name
            )));
        }
        let t = self.table_mut(table)?;
        let mut tree = BTree::new();
        for idx in 0..t.heap.page_count() {
            t.heap.for_each_record(pager, idx, |rowid, rec| {
                let row = decode_row(rec)?;
                // Non-unique keys carry the row id, so only a unique index
                // can refuse an entry.
                if !tree.insert_new(&Table::index_key(&def, &row, rowid), rowid.pack()) {
                    return Err(DbError::Constraint(format!(
                        "existing rows violate unique index `{}`",
                        def.name
                    )));
                }
                Ok(())
            })?;
        }
        t.indexes.push((def, tree));
        Ok(())
    }

    /// The position of table `name`, matched case-insensitively. Plans
    /// carry lower-cased names, so the executor's lookups never allocate;
    /// only a name with an upper-case letter is lower-cased first.
    fn position(&self, name: &str) -> Option<usize> {
        match self.by_name.get(name) {
            Some(&i) => Some(i),
            None if name.bytes().any(|b| b.is_ascii_uppercase()) => {
                self.by_name.get(&name.to_ascii_lowercase()).copied()
            }
            None => None,
        }
    }

    /// Looks up a table by name.
    pub fn table(&self, name: &str) -> DbResult<&Table> {
        self.position(name)
            .map(|i| &*self.tables[i])
            .ok_or_else(|| DbError::Unknown(format!("table `{name}`")))
    }

    /// Mutable lookup.
    pub fn table_mut(&mut self, name: &str) -> DbResult<&mut Table> {
        let idx = self
            .position(name)
            .ok_or_else(|| DbError::Unknown(format!("table `{name}`")))?;
        Ok(Arc::make_mut(&mut self.tables[idx]))
    }

    /// `true` if the table exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.position(name).is_some()
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.by_name.keys().cloned().collect();
        names.sort();
        names
    }

    // -----------------------------------------------------------------
    // Persistence
    // -----------------------------------------------------------------

    /// Serializes the catalog (schemas, index definitions, heap page lists)
    /// into a byte blob.
    pub fn encode(&self) -> Vec<u8> {
        fn put_str(out: &mut Vec<u8>, s: &str) {
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        let mut out = Vec::new();
        out.extend_from_slice(&(self.tables.len() as u32).to_le_bytes());
        for t in &self.tables {
            put_str(&mut out, &t.schema.name);
            out.extend_from_slice(&(t.schema.columns.len() as u32).to_le_bytes());
            for c in &t.schema.columns {
                put_str(&mut out, &c.name);
                out.push(match c.ty {
                    DataType::Bool => 0,
                    DataType::Int => 1,
                    DataType::Float => 2,
                    DataType::Text => 3,
                    DataType::Bytes => 4,
                });
                out.push(u8::from(c.nullable));
            }
            out.extend_from_slice(&(t.schema.primary_key.len() as u32).to_le_bytes());
            for &pk in &t.schema.primary_key {
                out.extend_from_slice(&(pk as u32).to_le_bytes());
            }
            out.extend_from_slice(&(t.heap.pages().len() as u32).to_le_bytes());
            for &p in t.heap.pages() {
                out.extend_from_slice(&p.to_le_bytes());
            }
            out.extend_from_slice(&(t.indexes.len() as u32).to_le_bytes());
            for (def, _) in &t.indexes {
                put_str(&mut out, &def.name);
                out.extend_from_slice(&(def.columns.len() as u32).to_le_bytes());
                for &c in &def.columns {
                    out.extend_from_slice(&(c as u32).to_le_bytes());
                }
                out.push(u8::from(def.unique));
            }
        }
        out
    }

    /// Reconstructs a catalog from [`Catalog::encode`] output, rebuilding
    /// heap metadata and every index from the pager's pages.
    pub fn decode(blob: &[u8], pager: &Pager) -> DbResult<Catalog> {
        struct Reader<'a>(&'a [u8], usize);
        impl Reader<'_> {
            fn u32(&mut self) -> DbResult<u32> {
                let b = self
                    .0
                    .get(self.1..self.1 + 4)
                    .ok_or_else(|| DbError::Storage("truncated catalog".into()))?;
                self.1 += 4;
                Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
            }
            fn byte(&mut self) -> DbResult<u8> {
                let b = *self
                    .0
                    .get(self.1)
                    .ok_or_else(|| DbError::Storage("truncated catalog".into()))?;
                self.1 += 1;
                Ok(b)
            }
            fn str(&mut self) -> DbResult<String> {
                let len = self.u32()? as usize;
                let b = self
                    .0
                    .get(self.1..self.1 + len)
                    .ok_or_else(|| DbError::Storage("truncated catalog".into()))?;
                self.1 += len;
                String::from_utf8(b.to_vec())
                    .map_err(|_| DbError::Storage("catalog string is not UTF-8".into()))
            }
        }
        let mut r = Reader(blob, 0);
        let mut catalog = Catalog::new();
        let n_tables = r.u32()?;
        for _ in 0..n_tables {
            let name = r.str()?;
            let n_cols = r.u32()?;
            let mut columns = Vec::with_capacity(n_cols as usize);
            for _ in 0..n_cols {
                let cname = r.str()?;
                let ty = match r.byte()? {
                    0 => DataType::Bool,
                    1 => DataType::Int,
                    2 => DataType::Float,
                    3 => DataType::Text,
                    4 => DataType::Bytes,
                    t => return Err(DbError::Storage(format!("bad type tag {t}"))),
                };
                let nullable = r.byte()? != 0;
                columns.push(ColumnDef {
                    name: cname,
                    ty,
                    nullable,
                });
            }
            // Column ordinals come off disk: validate them here so a
            // corrupt catalog surfaces as a storage error at open instead
            // of an out-of-bounds panic in the index rebuild below.
            let n_pk = r.u32()?;
            let mut primary_key = Vec::with_capacity(n_pk as usize);
            for _ in 0..n_pk {
                let c = r.u32()? as usize;
                if c >= columns.len() {
                    return Err(DbError::Storage(format!(
                        "catalog: primary-key column {c} out of range for table {name}"
                    )));
                }
                primary_key.push(c);
            }
            let n_pages = r.u32()?;
            let mut pages: Vec<PageId> = Vec::with_capacity(n_pages as usize);
            for _ in 0..n_pages {
                pages.push(r.u32()?);
            }
            let n_indexes = r.u32()?;
            let mut index_defs = Vec::with_capacity(n_indexes as usize);
            for _ in 0..n_indexes {
                let iname = r.str()?;
                let n_ic = r.u32()?;
                let mut cols = Vec::with_capacity(n_ic as usize);
                for _ in 0..n_ic {
                    let c = r.u32()? as usize;
                    if c >= columns.len() {
                        return Err(DbError::Storage(format!(
                            "catalog: index {iname} column {c} out of range for table {name}"
                        )));
                    }
                    cols.push(c);
                }
                let unique = r.byte()? != 0;
                index_defs.push(IndexDef {
                    name: iname,
                    columns: cols,
                    unique,
                });
            }
            catalog.create_table(TableSchema {
                name: name.clone(),
                columns,
                primary_key,
            })?;
            let t = catalog.table_mut(&name)?;
            t.heap = HeapFile::from_pages(pages, pager)?;
            t.indexes = index_defs.into_iter().map(|d| (d, BTree::new())).collect();
            t.rebuild_indexes(pager)?;
        }
        Ok(catalog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node_schema() -> TableSchema {
        TableSchema {
            name: "node".into(),
            columns: vec![
                ColumnDef {
                    name: "doc".into(),
                    ty: DataType::Int,
                    nullable: false,
                },
                ColumnDef {
                    name: "pos".into(),
                    ty: DataType::Int,
                    nullable: false,
                },
                ColumnDef {
                    name: "tag".into(),
                    ty: DataType::Text,
                    nullable: true,
                },
            ],
            primary_key: vec![0, 1],
        }
    }

    fn setup() -> (Pager, Catalog) {
        let pager = Pager::in_memory();
        let mut catalog = Catalog::new();
        catalog.create_table(node_schema()).unwrap();
        (pager, catalog)
    }

    #[test]
    fn insert_and_pk_lookup() {
        let (pager, mut catalog) = setup();
        let t = catalog.table_mut("node").unwrap();
        for i in 0..100 {
            t.insert_row(&pager, vec![Value::Int(1), Value::Int(i), Value::text("x")])
                .unwrap();
        }
        let rid = t.pk_lookup(&[Value::Int(1), Value::Int(42)]).unwrap();
        let row = t.get_row(&pager, rid).unwrap();
        assert_eq!(row[1], Value::Int(42));
        assert!(t.pk_lookup(&[Value::Int(2), Value::Int(42)]).is_none());
    }

    #[test]
    fn duplicate_pk_rejected() {
        let (pager, mut catalog) = setup();
        let t = catalog.table_mut("node").unwrap();
        t.insert_row(&pager, vec![Value::Int(1), Value::Int(1), Value::Null])
            .unwrap();
        let err = t
            .insert_row(&pager, vec![Value::Int(1), Value::Int(1), Value::Null])
            .unwrap_err();
        assert!(matches!(err, DbError::Constraint(_)));
        assert_eq!(t.row_count(), 1);
    }

    #[test]
    fn secondary_index_tracks_updates_and_deletes() {
        let (pager, mut catalog) = setup();
        catalog
            .create_index(
                &pager,
                "node",
                IndexDef {
                    name: "node_tag".into(),
                    columns: vec![2],
                    unique: false,
                },
            )
            .unwrap();
        let t = catalog.table_mut("node").unwrap();
        let mut rids = Vec::new();
        for i in 0..10 {
            rids.push(
                t.insert_row(
                    &pager,
                    vec![
                        Value::Int(1),
                        Value::Int(i),
                        Value::text(if i % 2 == 0 { "even" } else { "odd" }),
                    ],
                )
                .unwrap(),
            );
        }
        let key = |s: &str| encode_key(&[Value::text(s)]);
        let evens = t.index_range(
            Some(0),
            Bound::Included(key("even").as_slice()),
            Bound::Included([key("even"), vec![0xFF; 9]].concat().as_slice()),
            false,
        );
        assert_eq!(evens.count(), 5);
        // Update row 0's tag; the index must follow.
        t.update_row(
            &pager,
            rids[0],
            vec![Value::Int(1), Value::Int(0), Value::text("odd")],
        )
        .unwrap();
        let evens = t.index_range(
            Some(0),
            Bound::Included(key("even").as_slice()),
            Bound::Included([key("even"), vec![0xFF; 9]].concat().as_slice()),
            false,
        );
        assert_eq!(evens.count(), 4);
        // Delete an odd row.
        t.delete_row(&pager, rids[1]).unwrap();
        let odds = t.index_range(
            Some(0),
            Bound::Included(key("odd").as_slice()),
            Bound::Included([key("odd"), vec![0xFF; 9]].concat().as_slice()),
            false,
        );
        assert_eq!(odds.count(), 5, "4 original odds - 1 deleted + 1 updated");
    }

    #[test]
    fn pk_range_scan_is_ordered() {
        let (pager, mut catalog) = setup();
        let t = catalog.table_mut("node").unwrap();
        for i in (0..50).rev() {
            t.insert_row(&pager, vec![Value::Int(1), Value::Int(i), Value::Null])
                .unwrap();
        }
        let lower = encode_key(&[Value::Int(1), Value::Int(10)]);
        let upper = encode_key(&[Value::Int(1), Value::Int(20)]);
        let rids = t.index_range(
            None,
            Bound::Included(lower.as_slice()),
            Bound::Excluded(upper.as_slice()),
            false,
        );
        let got: Vec<i64> = rids
            .map(|rid| match &t.get_row(&pager, rid).unwrap()[1] {
                Value::Int(i) => *i,
                _ => panic!(),
            })
            .collect();
        assert_eq!(got, (10..20).collect::<Vec<i64>>());
    }

    #[test]
    fn unique_secondary_index_enforced() {
        let (pager, mut catalog) = setup();
        catalog
            .create_index(
                &pager,
                "node",
                IndexDef {
                    name: "uniq_tag".into(),
                    columns: vec![2],
                    unique: true,
                },
            )
            .unwrap();
        let t = catalog.table_mut("node").unwrap();
        let first = t
            .insert_row(&pager, vec![Value::Int(1), Value::Int(1), Value::text("a")])
            .unwrap();
        let second = t
            .insert_row(&pager, vec![Value::Int(1), Value::Int(2), Value::text("b")])
            .unwrap();
        let err = t
            .insert_row(&pager, vec![Value::Int(1), Value::Int(3), Value::text("a")])
            .unwrap_err();
        assert!(matches!(err, DbError::Constraint(_)));
        // The refused row left no trace: no heap row, no PK entry, and the
        // unique index still maps "a" to the first row.
        let by_tag = |t: &Table, tag: &str| {
            let k = encode_key(&[Value::text(tag)]);
            t.index_range(
                Some(0),
                Bound::Included(k.as_slice()),
                Bound::Included(k.as_slice()),
                false,
            )
            .collect::<Vec<_>>()
        };
        assert_eq!(t.row_count(), 2);
        assert!(t.pk_lookup(&[Value::Int(1), Value::Int(3)]).is_none());
        assert_eq!(by_tag(t, "a"), vec![first]);
        // An update into a taken key is refused the same way.
        let err = t
            .update_row(
                &pager,
                second,
                vec![Value::Int(1), Value::Int(2), Value::text("a")],
            )
            .unwrap_err();
        assert!(matches!(err, DbError::Constraint(_)));
        assert_eq!(t.row_count(), 2);
        assert_eq!(by_tag(t, "a"), vec![first]);
        assert_eq!(by_tag(t, "b"), vec![second]);
        assert_eq!(t.get_row(&pager, second).unwrap()[2], Value::text("b"));
        // Rewriting a row with its own unique key is not a collision.
        t.update_row(
            &pager,
            first,
            vec![Value::Int(1), Value::Int(1), Value::text("a")],
        )
        .unwrap();
    }

    #[test]
    fn a_write_copies_one_path_per_touched_index() {
        let pager = Arc::new(Pager::in_memory());
        let mut catalog = Catalog::new();
        catalog.create_table(node_schema()).unwrap();
        for (name, col) in [("node_pos", 1), ("node_tag", 2)] {
            let def = IndexDef {
                name: name.into(),
                columns: vec![col],
                unique: false,
            };
            catalog.create_index(&pager, "node", def).unwrap();
        }
        let tag = |i: i64| Value::text(format!("t{i:06}"));
        let t = catalog.table_mut("node").unwrap();
        let mut target = None;
        for i in 0..20_000 {
            let rid = t
                .insert_row(&pager, vec![Value::Int(1), Value::Int(i), tag(2 * i)])
                .unwrap();
            if i == 7_777 {
                target = Some(rid);
            }
        }
        let rid = target.unwrap();
        // Hold the table as a published snapshot does, then update one row
        // through the copy-on-write path.
        let snapshot = catalog.clone();
        let view = Pager::view(&pager);
        let new_row = vec![Value::Int(1), Value::Int(7_777), tag(2 * 7_777 + 1)];
        let t = catalog.table_mut("node").unwrap();
        assert_eq!(t.update_row(&pager, rid, new_row.clone()).unwrap(), rid);
        let (live, old) = (
            catalog.table("node").unwrap(),
            snapshot.table("node").unwrap(),
        );
        let trees = [(
            live.pk_index.as_ref().unwrap(),
            old.pk_index.as_ref().unwrap(),
        )]
        .into_iter()
        .chain(
            live.indexes
                .iter()
                .map(|(_, t)| t)
                .zip(old.indexes.iter().map(|(_, t)| t)),
        );
        for (new_tree, old_tree) in trees {
            let (nodes, shared) = new_tree.node_sharing(old_tree);
            assert!(new_tree.height() >= 3, "a path worth copying");
            assert!(
                nodes - shared <= new_tree.height() + 1,
                "{} of {nodes} nodes unshared at height {}",
                nodes - shared,
                new_tree.height()
            );
        }
        // The snapshot still returns the old row, through its own index.
        let key = |v: &Value| {
            let mut k = encode_key(std::slice::from_ref(v));
            k.extend_from_slice(&rid.pack().to_be_bytes());
            k
        };
        let find = |t: &Table, v: &Value| {
            let k = key(v);
            let k = Bound::Included(k.as_slice());
            t.index_range(Some(1), k, k, false).collect::<Vec<_>>()
        };
        assert_eq!(find(old, &tag(2 * 7_777)), vec![rid]);
        assert!(find(old, &new_row[2]).is_empty());
        assert_eq!(find(live, &new_row[2]), vec![rid]);
        assert!(find(live, &tag(2 * 7_777)).is_empty());
        let old_row = old.get_row(PageSource::View(&view), rid).unwrap();
        assert_eq!(old_row[2], tag(2 * 7_777));
    }

    #[test]
    fn create_drop_table_and_name_lookup() {
        let (_pager, mut catalog) = setup();
        assert!(catalog.has_table("NODE"), "case-insensitive");
        assert!(catalog.create_table(node_schema()).is_err(), "duplicate");
        catalog.drop_table("node").unwrap();
        assert!(!catalog.has_table("node"));
        assert!(catalog.drop_table("node").is_err());
    }

    #[test]
    fn catalog_encode_decode_roundtrip_with_index_rebuild() {
        let (pager, mut catalog) = setup();
        catalog
            .create_index(
                &pager,
                "node",
                IndexDef {
                    name: "node_tag".into(),
                    columns: vec![2],
                    unique: false,
                },
            )
            .unwrap();
        let t = catalog.table_mut("node").unwrap();
        for i in 0..200 {
            t.insert_row(
                &pager,
                vec![
                    Value::Int(1),
                    Value::Int(i),
                    Value::text(format!("tag{}", i % 5)),
                ],
            )
            .unwrap();
        }
        let blob = catalog.encode();
        let restored = Catalog::decode(&blob, &pager).unwrap();
        let rt = restored.table("node").unwrap();
        assert_eq!(rt.row_count(), 200);
        assert_eq!(rt.schema, catalog.table("node").unwrap().schema);
        assert_eq!(rt.indexes.len(), 1);
        assert_eq!(rt.indexes[0].1.len(), 200, "index rebuilt");
        let rid = rt.pk_lookup(&[Value::Int(1), Value::Int(77)]).unwrap();
        assert_eq!(rt.get_row(&pager, rid).unwrap()[1], Value::Int(77));
    }
}
