//! The catalog: table schemas, index definitions, and each table's heap
//! page list.
//!
//! The catalog is persisted as a small CRC-framed binary file, rewritten
//! whenever DDL runs and at every checkpoint. Page-list growth between
//! checkpoints is recovered from `AllocPage` WAL records, so the on-disk
//! catalog only ever needs to be as fresh as the last checkpoint.

use crate::error::{Result, StoreError};
use crate::page::PageId;
use crate::stats::StatsCatalog;
use crate::value::{encode_key, ColumnType, Value};
use crate::wal::crc32;
use std::collections::HashMap;
use std::path::Path;

/// Identifier of a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub u32);

/// Identifier of an index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IndexId(pub u32);

/// One column of a table schema.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// Column name, unique within its table.
    pub name: String,
    /// Declared value type.
    pub ty: ColumnType,
    /// Whether `Value::Null` is accepted.
    pub nullable: bool,
}

impl Column {
    /// A NOT NULL column.
    pub fn new(name: &str, ty: ColumnType) -> Self {
        Column {
            name: name.to_string(),
            ty,
            nullable: false,
        }
    }

    /// A nullable column.
    pub fn nullable(name: &str, ty: ColumnType) -> Self {
        Column {
            name: name.to_string(),
            ty,
            nullable: true,
        }
    }

    /// Check a single value against this column's type and nullability.
    pub fn check(&self, v: &Value) -> Result<()> {
        match v.column_type() {
            None if self.nullable => Ok(()),
            None => Err(StoreError::SchemaMismatch(format!(
                "column {} is NOT NULL",
                self.name
            ))),
            Some(t) if t == self.ty => Ok(()),
            Some(t) => Err(StoreError::SchemaMismatch(format!(
                "column {} expects {}, got {}",
                self.name, self.ty, t
            ))),
        }
    }
}

/// A table: schema plus the ordered list of heap pages it owns.
#[derive(Debug, Clone)]
pub struct TableMeta {
    /// The table's id.
    pub id: TableId,
    /// The table's name, unique within the catalog.
    pub name: String,
    /// Schema columns in declaration order.
    pub columns: Vec<Column>,
    /// Heap pages in allocation order; inserts go to the last page.
    pub pages: Vec<PageId>,
}

impl TableMeta {
    /// Index of the column named `name`.
    pub fn column_index(&self, name: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| {
                StoreError::SchemaMismatch(format!("table {} has no column {name}", self.name))
            })
    }

    /// Validate a full row against the schema.
    pub fn check_row(&self, row: &[Value]) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(StoreError::SchemaMismatch(format!(
                "table {} expects {} columns, got {}",
                self.name,
                self.columns.len(),
                row.len()
            )));
        }
        for (col, v) in self.columns.iter().zip(row) {
            col.check(v)?;
        }
        Ok(())
    }
}

/// An index definition over a table's columns.
#[derive(Debug, Clone)]
pub struct IndexMeta {
    /// The index's id.
    pub id: IndexId,
    /// The index's name, unique within the catalog.
    pub name: String,
    /// The table this index covers.
    pub table: TableId,
    /// Column ordinals forming the key, in key order.
    pub columns: Vec<usize>,
    /// Whether duplicate keys are rejected.
    pub unique: bool,
}

impl IndexMeta {
    /// Append this index's key for `row` to `out`, encoding each key
    /// column straight from the row: the bytes are exactly
    /// [`crate::value::encode_key`] of the key columns' values. A row with
    /// no value at a key column is [`StoreError::Corrupt`]; inserts check
    /// the schema first, so only a damaged heap or log can hand one in.
    pub fn encode_key(&self, row: &[Value], out: &mut Vec<u8>) -> Result<()> {
        for &c in &self.columns {
            let v = row.get(c).ok_or_else(|| {
                StoreError::Corrupt(format!(
                    "index {}: row of {} columns has no key column {c}",
                    self.name,
                    row.len()
                ))
            })?;
            encode_key(std::slice::from_ref(v), out);
        }
        Ok(())
    }
}

/// The whole catalog.
#[derive(Debug, Default)]
pub struct Catalog {
    /// All tables, by id.
    pub tables: HashMap<TableId, TableMeta>,
    /// All indexes, by id.
    pub indexes: HashMap<IndexId, IndexMeta>,
    by_table_name: HashMap<String, TableId>,
    by_index_name: HashMap<String, IndexId>,
    /// Derived page → owning table map (not serialized; rebuilt on load).
    /// Makes the per-get "does this page belong to this table" check O(1)
    /// instead of a linear walk of the table's page list. Kept in sync by
    /// [`Catalog::attach_page`] — the only way the engine grows a page
    /// list.
    page_owner: HashMap<PageId, TableId>,
    next_table: u32,
    next_index: u32,
    /// Optimizer statistics from the last ANALYZE pass (see
    /// [`crate::stats`]). Persisted as a versioned trailing `PTST`
    /// section of the catalog file, so catalogs written before
    /// statistics existed load with an empty [`StatsCatalog`].
    pub stats: StatsCatalog,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Define a new table.
    pub fn create_table(&mut self, name: &str, columns: Vec<Column>) -> Result<TableId> {
        if self.by_table_name.contains_key(name) {
            return Err(StoreError::AlreadyExists(name.to_string()));
        }
        if columns.is_empty() {
            return Err(StoreError::SchemaMismatch(
                "a table needs at least one column".into(),
            ));
        }
        let id = TableId(self.next_table);
        self.next_table += 1;
        self.tables.insert(
            id,
            TableMeta {
                id,
                name: name.to_string(),
                columns,
                pages: Vec::new(),
            },
        );
        self.by_table_name.insert(name.to_string(), id);
        Ok(id)
    }

    /// Define a new index over existing columns of `table`.
    pub fn create_index(
        &mut self,
        name: &str,
        table: TableId,
        columns: Vec<usize>,
        unique: bool,
    ) -> Result<IndexId> {
        if self.by_index_name.contains_key(name) {
            return Err(StoreError::AlreadyExists(name.to_string()));
        }
        let tmeta = self
            .tables
            .get(&table)
            .ok_or_else(|| StoreError::NoSuchTable(format!("table id {}", table.0)))?;
        if columns.is_empty() || columns.iter().any(|&c| c >= tmeta.columns.len()) {
            return Err(StoreError::SchemaMismatch(format!(
                "bad index column list for table {}",
                tmeta.name
            )));
        }
        let id = IndexId(self.next_index);
        self.next_index += 1;
        self.indexes.insert(
            id,
            IndexMeta {
                id,
                name: name.to_string(),
                table,
                columns,
                unique,
            },
        );
        self.by_index_name.insert(name.to_string(), id);
        Ok(id)
    }

    /// Remove an index definition (used to roll back a failed
    /// `CREATE INDEX`; there is no user-facing DROP INDEX).
    pub fn drop_index(&mut self, id: IndexId) -> Result<()> {
        let meta = self
            .indexes
            .remove(&id)
            .ok_or_else(|| StoreError::NoSuchIndex(format!("index id {}", id.0)))?;
        self.by_index_name.remove(&meta.name);
        Ok(())
    }

    /// Look up a table id by name.
    pub fn table_id(&self, name: &str) -> Result<TableId> {
        self.by_table_name
            .get(name)
            .copied()
            .ok_or_else(|| StoreError::NoSuchTable(name.to_string()))
    }

    /// Look up an index id by name.
    pub fn index_id(&self, name: &str) -> Result<IndexId> {
        self.by_index_name
            .get(name)
            .copied()
            .ok_or_else(|| StoreError::NoSuchIndex(name.to_string()))
    }

    /// Table metadata by id.
    pub fn table(&self, id: TableId) -> Result<&TableMeta> {
        self.tables
            .get(&id)
            .ok_or_else(|| StoreError::NoSuchTable(format!("table id {}", id.0)))
    }

    /// Mutable table metadata by id.
    pub fn table_mut(&mut self, id: TableId) -> Result<&mut TableMeta> {
        self.tables
            .get_mut(&id)
            .ok_or_else(|| StoreError::NoSuchTable(format!("table id {}", id.0)))
    }

    /// Index metadata by id.
    pub fn index(&self, id: IndexId) -> Result<&IndexMeta> {
        self.indexes
            .get(&id)
            .ok_or_else(|| StoreError::NoSuchIndex(format!("index id {}", id.0)))
    }

    /// Append `page` to `table`'s heap page list (idempotent) and record
    /// its ownership in the O(1) page → table map. All engine-side page
    /// list growth goes through here so the map never desyncs.
    pub fn attach_page(&mut self, table: TableId, page: PageId) -> Result<()> {
        let meta = self.table_mut(table)?;
        if !meta.pages.contains(&page) {
            meta.pages.push(page);
        }
        self.page_owner.insert(page, table);
        Ok(())
    }

    /// The table owning `page`, if any (O(1)).
    pub fn page_owner(&self, page: PageId) -> Option<TableId> {
        self.page_owner.get(&page).copied()
    }

    /// Ids of all indexes defined on `table`.
    pub fn indexes_on(&self, table: TableId) -> Vec<IndexId> {
        let mut v: Vec<IndexId> = self
            .indexes
            .values()
            .filter(|m| m.table == table)
            .map(|m| m.id)
            .collect();
        v.sort();
        v
    }

    /// All tables, sorted by id.
    pub fn all_tables(&self) -> Vec<&TableMeta> {
        let mut v: Vec<&TableMeta> = self.tables.values().collect();
        v.sort_by_key(|t| t.id);
        v
    }

    // -- serialization ------------------------------------------------------

    /// Serialize to the on-disk catalog format (CRC-framed).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(1024);
        body.extend_from_slice(&self.next_table.to_be_bytes());
        body.extend_from_slice(&self.next_index.to_be_bytes());
        let tables = self.all_tables();
        body.extend_from_slice(&(tables.len() as u32).to_be_bytes());
        for t in tables {
            body.extend_from_slice(&t.id.0.to_be_bytes());
            put_str(&mut body, &t.name);
            body.extend_from_slice(&(t.columns.len() as u32).to_be_bytes());
            for c in &t.columns {
                put_str(&mut body, &c.name);
                body.push(c.ty.tag());
                body.push(u8::from(c.nullable));
            }
            body.extend_from_slice(&(t.pages.len() as u32).to_be_bytes());
            for p in &t.pages {
                body.extend_from_slice(&p.0.to_be_bytes());
            }
        }
        let mut idxs: Vec<&IndexMeta> = self.indexes.values().collect();
        idxs.sort_by_key(|m| m.id);
        body.extend_from_slice(&(idxs.len() as u32).to_be_bytes());
        for m in idxs {
            body.extend_from_slice(&m.id.0.to_be_bytes());
            put_str(&mut body, &m.name);
            body.extend_from_slice(&m.table.0.to_be_bytes());
            body.extend_from_slice(&(m.columns.len() as u32).to_be_bytes());
            for &c in &m.columns {
                body.extend_from_slice(&(c as u32).to_be_bytes());
            }
            body.push(u8::from(m.unique));
        }
        let mut out = Vec::with_capacity(body.len() + 12);
        out.extend_from_slice(b"PTCT");
        out.extend_from_slice(&(body.len() as u32).to_be_bytes());
        out.extend_from_slice(&crc32(&body).to_be_bytes());
        out.extend_from_slice(&body);
        // Optimizer statistics ride behind the schema body as their own
        // CRC-framed section; readers that predate statistics never look
        // past the first frame, so the file stays backward compatible.
        if !self.stats.is_empty() {
            let stats_body = self.stats.to_bytes();
            out.extend_from_slice(b"PTST");
            out.extend_from_slice(&(stats_body.len() as u32).to_be_bytes());
            out.extend_from_slice(&crc32(&stats_body).to_be_bytes());
            out.extend_from_slice(&stats_body);
        }
        out
    }

    /// Parse the on-disk catalog format.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        if bytes.len() < 12 || &bytes[0..4] != b"PTCT" {
            return Err(StoreError::Corrupt("bad catalog magic".into()));
        }
        let len = u32::from_be_bytes(bytes[4..8].try_into().unwrap()) as usize;
        let crc = u32::from_be_bytes(bytes[8..12].try_into().unwrap());
        if bytes.len() < 12 + len {
            return Err(StoreError::Corrupt("catalog truncated".into()));
        }
        let body = &bytes[12..12 + len];
        if crc32(body) != crc {
            return Err(StoreError::Corrupt("catalog checksum mismatch".into()));
        }
        let mut d = Dec { buf: body, pos: 0 };
        let mut cat = Catalog::new();
        cat.next_table = d.u32()?;
        cat.next_index = d.u32()?;
        let ntables = d.u32()? as usize;
        for _ in 0..ntables {
            let id = TableId(d.u32()?);
            let name = d.string()?;
            let ncols = d.u32()? as usize;
            let mut columns = Vec::with_capacity(ncols);
            for _ in 0..ncols {
                let cname = d.string()?;
                let ty = ColumnType::from_tag(d.u8()?)?;
                let nullable = d.u8()? != 0;
                columns.push(Column {
                    name: cname,
                    ty,
                    nullable,
                });
            }
            let npages = d.u32()? as usize;
            let mut pages = Vec::with_capacity(npages);
            for _ in 0..npages {
                let p = PageId(d.u32()?);
                cat.page_owner.insert(p, id);
                pages.push(p);
            }
            cat.by_table_name.insert(name.clone(), id);
            cat.tables.insert(
                id,
                TableMeta {
                    id,
                    name,
                    columns,
                    pages,
                },
            );
        }
        let nidx = d.u32()? as usize;
        for _ in 0..nidx {
            let id = IndexId(d.u32()?);
            let name = d.string()?;
            let table = TableId(d.u32()?);
            let ncols = d.u32()? as usize;
            let mut columns = Vec::with_capacity(ncols);
            for _ in 0..ncols {
                columns.push(d.u32()? as usize);
            }
            let unique = d.u8()? != 0;
            cat.by_index_name.insert(name.clone(), id);
            cat.indexes.insert(
                id,
                IndexMeta {
                    id,
                    name,
                    table,
                    columns,
                    unique,
                },
            );
        }
        // Optional trailing statistics section (absent in catalogs
        // written before ANALYZE existed).
        let rest = &bytes[12 + len..];
        if !rest.is_empty() {
            if rest.len() < 12 || &rest[0..4] != b"PTST" {
                return Err(StoreError::Corrupt("bad statistics magic".into()));
            }
            let slen = u32::from_be_bytes(rest[4..8].try_into().unwrap()) as usize;
            let scrc = u32::from_be_bytes(rest[8..12].try_into().unwrap());
            if rest.len() < 12 + slen {
                return Err(StoreError::Corrupt("statistics truncated".into()));
            }
            let sbody = &rest[12..12 + slen];
            if crc32(sbody) != scrc {
                return Err(StoreError::Corrupt("statistics checksum mismatch".into()));
            }
            cat.stats = StatsCatalog::from_bytes(sbody)?;
        }
        Ok(cat)
    }

    /// Write the catalog to `path` atomically (write temp + rename).
    ///
    /// The catalog snapshot is a small host-side metadata file outside
    /// the paged store; its durability comes from the filesystem's
    /// atomic rename, which the page-oriented [`crate::vfs::Vfs`] seam
    /// deliberately does not model.
    pub fn save(&self, path: &Path) -> Result<()> {
        let tmp = path.with_extension("tmp");
        // ptlint: allow(io) -- catalog snapshot uses host atomic rename, outside the paged Vfs seam
        std::fs::write(&tmp, self.to_bytes())?;
        // ptlint: allow(io) -- second half of the write-temp-then-rename pair above
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Load a catalog from `path`.
    pub fn load(path: &Path) -> Result<Self> {
        // ptlint: allow(io) -- catalog snapshot lives outside the paged Vfs seam (see save)
        let bytes = std::fs::read(path)?;
        Catalog::from_bytes(&bytes)
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_be_bytes());
    out.extend_from_slice(s.as_bytes());
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(StoreError::Corrupt("catalog body truncated".into()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn string(&mut self) -> Result<String> {
        let n = self.u32()? as usize;
        let raw = self.take(n)?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| StoreError::Corrupt("catalog string not UTF-8".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Catalog {
        let mut c = Catalog::new();
        let t = c
            .create_table(
                "resource_item",
                vec![
                    Column::new("id", ColumnType::Int),
                    Column::new("name", ColumnType::Text),
                    Column::nullable("parent_id", ColumnType::Int),
                ],
            )
            .unwrap();
        c.create_index("resource_item_name", t, vec![1], true)
            .unwrap();
        c.table_mut(t).unwrap().pages.push(PageId(3));
        c.table_mut(t).unwrap().pages.push(PageId(7));
        c
    }

    #[test]
    fn create_and_lookup() {
        let c = sample();
        let t = c.table_id("resource_item").unwrap();
        let meta = c.table(t).unwrap();
        assert_eq!(meta.columns.len(), 3);
        assert_eq!(meta.column_index("name").unwrap(), 1);
        assert!(meta.column_index("nope").is_err());
        let i = c.index_id("resource_item_name").unwrap();
        assert!(c.index(i).unwrap().unique);
        assert_eq!(c.indexes_on(t), vec![i]);
        assert!(c.table_id("missing").is_err());
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut c = sample();
        assert!(matches!(
            c.create_table("resource_item", vec![Column::new("x", ColumnType::Int)]),
            Err(StoreError::AlreadyExists(_))
        ));
        let t = c.table_id("resource_item").unwrap();
        assert!(matches!(
            c.create_index("resource_item_name", t, vec![0], false),
            Err(StoreError::AlreadyExists(_))
        ));
    }

    #[test]
    fn schema_validation() {
        let c = sample();
        let meta = c.table(c.table_id("resource_item").unwrap()).unwrap();
        meta.check_row(&[Value::Int(1), Value::Text("x".into()), Value::Null])
            .unwrap();
        // Wrong arity.
        assert!(meta.check_row(&[Value::Int(1)]).is_err());
        // NOT NULL violation.
        assert!(meta
            .check_row(&[Value::Null, Value::Text("x".into()), Value::Null])
            .is_err());
        // Type mismatch.
        assert!(meta
            .check_row(&[Value::Int(1), Value::Int(2), Value::Null])
            .is_err());
    }

    #[test]
    fn bad_index_columns_rejected() {
        let mut c = sample();
        let t = c.table_id("resource_item").unwrap();
        assert!(c.create_index("i1", t, vec![], false).is_err());
        assert!(c.create_index("i2", t, vec![9], false).is_err());
        assert!(c.create_index("i3", TableId(99), vec![0], false).is_err());
    }

    #[test]
    fn drop_index_removes_both_maps() {
        let mut c = sample();
        let i = c.index_id("resource_item_name").unwrap();
        c.drop_index(i).unwrap();
        assert!(c.index_id("resource_item_name").is_err());
        assert!(c.index(i).is_err());
        assert!(c.drop_index(i).is_err(), "double drop fails");
        // The name is reusable afterwards.
        let t = c.table_id("resource_item").unwrap();
        c.create_index("resource_item_name", t, vec![1], true)
            .unwrap();
    }

    #[test]
    fn serialization_roundtrip() {
        let c = sample();
        let bytes = c.to_bytes();
        let c2 = Catalog::from_bytes(&bytes).unwrap();
        let t = c2.table_id("resource_item").unwrap();
        let meta = c2.table(t).unwrap();
        assert_eq!(meta.pages, vec![PageId(3), PageId(7)]);
        assert!(meta.columns[2].nullable);
        assert_eq!(meta.columns[1].ty, ColumnType::Text);
        let i = c2.index_id("resource_item_name").unwrap();
        assert_eq!(c2.index(i).unwrap().columns, vec![1]);
        // Ids continue where they left off.
        let mut c3 = c2;
        let t2 = c3
            .create_table("next", vec![Column::new("x", ColumnType::Int)])
            .unwrap();
        assert_eq!(t2.0, t.0 + 1);
    }

    #[test]
    fn attach_page_maintains_owner_map() {
        let mut c = sample();
        let t = c.table_id("resource_item").unwrap();
        let t2 = c
            .create_table("other", vec![Column::new("x", ColumnType::Int)])
            .unwrap();
        c.attach_page(t, PageId(11)).unwrap();
        c.attach_page(t2, PageId(12)).unwrap();
        c.attach_page(t, PageId(11)).unwrap(); // idempotent
        assert_eq!(c.page_owner(PageId(11)), Some(t));
        assert_eq!(c.page_owner(PageId(12)), Some(t2));
        assert_eq!(c.page_owner(PageId(99)), None);
        assert_eq!(
            c.table(t)
                .unwrap()
                .pages
                .iter()
                .filter(|p| p.0 == 11)
                .count(),
            1
        );
        // The map survives a serialization round trip (rebuilt on load).
        let c2 = Catalog::from_bytes(&c.to_bytes()).unwrap();
        assert_eq!(c2.page_owner(PageId(11)), Some(t));
        assert_eq!(c2.page_owner(PageId(12)), Some(t2));
        assert_eq!(c2.page_owner(PageId(3)), Some(t), "pre-existing pages too");
    }

    #[test]
    fn corrupt_catalog_detected() {
        let c = sample();
        let mut bytes = c.to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(Catalog::from_bytes(&bytes).is_err());
        assert!(Catalog::from_bytes(b"JUNK").is_err());
        assert!(Catalog::from_bytes(&bytes[..5]).is_err());
    }

    #[test]
    fn stats_section_roundtrips_and_old_catalogs_load() {
        use crate::stats::{Bucket, IndexStats, TableStats};
        let mut c = sample();
        let t = c.table_id("resource_item").unwrap();
        let i = c.index_id("resource_item_name").unwrap();
        c.stats.tables.insert(t, TableStats { row_count: 42 });
        c.stats.indexes.insert(
            i,
            IndexStats {
                entries: 42,
                distinct_keys: 7,
                buckets: vec![Bucket {
                    upper: vec![9, 9],
                    rows: 42,
                    distinct: 7,
                }],
            },
        );
        let bytes = c.to_bytes();
        let back = Catalog::from_bytes(&bytes).unwrap();
        assert_eq!(back.stats, c.stats);
        // A flipped byte in the statistics frame is caught by its CRC.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert!(Catalog::from_bytes(&bad).is_err());
        // A pre-statistics catalog (no trailing section) loads clean.
        let plain = sample().to_bytes();
        assert!(Catalog::from_bytes(&plain).unwrap().stats.is_empty());
    }

    #[test]
    fn encode_key_matches_encoding_the_key_columns() {
        use crate::value::encode_key_vec;
        let mut c = sample();
        let t = c.table_id("resource_item").unwrap();
        let two = c
            .create_index("by_parent_name", t, vec![2, 1], false)
            .unwrap();
        let row = vec![Value::Int(4), Value::Text("a\0b".into()), Value::Int(-9)];
        let mut out = b"prefix".to_vec();
        c.index(two).unwrap().encode_key(&row, &mut out).unwrap();
        let expect = encode_key_vec(&[row[2].clone(), row[1].clone()]);
        assert_eq!(&out[6..], expect.as_slice(), "appends after what is there");
        // A row with no value at a key column is corruption, not a panic.
        let one = c.index_id("resource_item_name").unwrap();
        let err = c
            .index(one)
            .unwrap()
            .encode_key(&[Value::Int(1)], &mut Vec::new())
            .unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "{err}");
    }

    #[test]
    fn empty_table_schema_rejected() {
        let mut c = Catalog::new();
        assert!(c.create_table("empty", vec![]).is_err());
    }
}
