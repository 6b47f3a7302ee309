//! **fb-collab** — collaborative analytics over relational datasets on
//! ForkBase (§5.3).
//!
//! Two physical layouts implement the same table abstraction:
//!
//! * [`Layout::Row`] — each record is stored under its primary key in a
//!   `Map` ("a record is stored as a Tuple, embedded in a Map keyed by its
//!   primary key");
//! * [`Layout::Column`] — each column's values are a `List`, referenced
//!   from a `Map` keyed by column name ("column values are stored as a
//!   List, embedded in a Map keyed by the column name").
//!
//! Checkout is O(1) (a handle; chunks are fetched lazily), commits write
//! only changed chunks, version diff uses the POS-Tree, and analytical
//! queries pick whichever layout serves them (Fig. 17(b): column layout
//! is ~10× faster for aggregation).

use bytes::Bytes;
use fb_workload::Record;
use forkbase_core::{FbError, ForkBase, Result, Value};
use forkbase_crypto::parallel::ASYNC_BATCH_BYTES;
use forkbase_crypto::Digest;
use forkbase_pos::{sorted_diff, List, Map, TreeType};
use std::io::Write;

/// Physical layout of a dataset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// pk → encoded record, one Map.
    Row,
    /// column name → List of values, one Map of Lists.
    Column,
}

/// The five columns of the benchmark schema, in order.
pub const COLUMNS: [&str; 5] = ["pk", "qty", "price", "descr", "region"];

/// Append `rec`'s value of column `c` (an index into [`COLUMNS`]) to `out`.
fn column_into(rec: &Record, c: usize, out: &mut Vec<u8>) {
    // `Write` for a `Vec` cannot fail.
    let _ = match c {
        0 => out.write_all(rec.pk.as_bytes()),
        1 => write!(out, "{}", rec.qty),
        2 => write!(out, "{}", rec.price),
        3 => out.write_all(rec.descr.as_bytes()),
        _ => out.write_all(rec.region.as_bytes()),
    };
}

/// Values written back to back into one buffer, handed out as slices of
/// a few large `Bytes` instead of one allocation each. Each time the
/// buffer passes [`ASYNC_BATCH_BYTES`] it is frozen into one `Bytes` —
/// one copy, while its bytes are still in cache — and cleared, keeping
/// its capacity for the next batch.
#[derive(Default)]
struct Values {
    buf: Vec<u8>,
    /// Where each value written since the last freeze ends in `buf`.
    ends: Vec<usize>,
    frozen: Vec<Bytes>,
}

impl Values {
    /// Write one value with `write`, which appends its bytes.
    fn push(&mut self, write: impl FnOnce(&mut Vec<u8>)) {
        write(&mut self.buf);
        self.ends.push(self.buf.len());
        if self.buf.len() >= ASYNC_BATCH_BYTES {
            self.freeze();
        }
    }

    /// Hand out the values written since the last freeze.
    fn freeze(&mut self) {
        let batch = Bytes::copy_from_slice(&self.buf);
        let mut start = 0;
        for end in self.ends.drain(..) {
            self.frozen.push(batch.slice(start..end));
            start = end;
        }
        self.buf.clear();
    }

    /// Every value pushed since the last take, in order.
    fn take(&mut self) -> Vec<Bytes> {
        self.freeze();
        std::mem::take(&mut self.frozen)
    }

    /// `(pk, row)` of each record, as Row-layout map entries.
    fn rows<'r>(
        &mut self,
        records: impl IntoIterator<Item = &'r Record>,
    ) -> impl Iterator<Item = (Bytes, Bytes)> {
        for rec in records {
            self.push(|b| b.extend_from_slice(rec.pk.as_bytes()));
            self.push(|b| rec.encode_into(b));
        }
        let mut values = self.take().into_iter();
        std::iter::from_fn(move || Some((values.next()?, values.next()?)))
    }

    /// Column `c` of each record.
    fn column<'r>(
        &mut self,
        records: impl IntoIterator<Item = &'r Record>,
        c: usize,
    ) -> Vec<Bytes> {
        for rec in records {
            self.push(|b| column_into(rec, c, b));
        }
        self.take()
    }
}

/// A named, versioned dataset inside a ForkBase instance.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// The ForkBase key the dataset lives under.
    pub key: Bytes,
    /// Physical layout.
    pub layout: Layout,
}

impl Dataset {
    /// Import records as version 0 on the default branch.
    pub fn import(
        db: &ForkBase,
        name: &str,
        layout: Layout,
        records: &[Record],
    ) -> Result<Dataset> {
        let ds = Dataset {
            key: Bytes::from(name.to_string()),
            layout,
        };
        let value = ds.build_value(db, records);
        db.put(ds.key.clone(), None, value)?;
        Ok(ds)
    }

    fn build_value(&self, db: &ForkBase, records: &[Record]) -> Value {
        let mut values = Values::default();
        match self.layout {
            Layout::Row => Value::Map(db.new_map(values.rows(records))),
            Layout::Column => {
                let mut cols: Vec<(Bytes, Bytes)> = Vec::with_capacity(COLUMNS.len());
                for (c, name) in COLUMNS.iter().enumerate() {
                    let list = db.new_list(values.column(records, c));
                    cols.push((
                        Bytes::from(name.to_string()),
                        Bytes::copy_from_slice(list.root().as_bytes()),
                    ));
                }
                Value::Map(db.new_map(cols))
            }
        }
    }

    fn head_map(&self, db: &ForkBase) -> Result<Map> {
        db.get_value(self.key.clone(), None)?.as_map()
    }

    fn column_list(&self, db: &ForkBase, map: &Map, column: &str) -> Result<List> {
        let root_bytes = map
            .get(db.store(), column.as_bytes())
            .ok_or(FbError::KeyNotFound)?;
        let root = Digest::from_slice(&root_bytes)
            .ok_or_else(|| FbError::Corrupt("bad column root".into()))?;
        Ok(List::from_root(root))
    }

    /// Number of records in the head version.
    pub fn row_count(&self, db: &ForkBase) -> Result<u64> {
        let map = self.head_map(db)?;
        match self.layout {
            Layout::Row => Ok(map.len(db.store())),
            Layout::Column => Ok(self.column_list(db, &map, "pk")?.len(db.store())),
        }
    }

    /// Apply record modifications `(row index, new record)` as one commit;
    /// returns the new version uid.
    pub fn update(&self, db: &ForkBase, mods: &[(usize, Record)]) -> Result<Digest> {
        let map = self.head_map(db)?;
        let mut values = Values::default();
        let records = mods.iter().map(|(_, rec)| rec);
        let value = match self.layout {
            Layout::Row => {
                let edits = values.rows(records).map(|(pk, row)| (pk, Some(row)));
                let map = map.update(db.store(), db.cfg(), edits)?;
                Value::Map(map)
            }
            Layout::Column => {
                let mut col_edits: Vec<(Bytes, Option<Bytes>)> = Vec::new();
                for (c, name) in COLUMNS.iter().enumerate() {
                    let mut list = self.column_list(db, &map, name)?;
                    for ((idx, _), value) in mods.iter().zip(values.column(records.clone(), c)) {
                        list = list.splice(db.store(), db.cfg(), *idx as u64, 1, [value])?;
                    }
                    col_edits.push((
                        Bytes::from(name.to_string()),
                        Some(Bytes::copy_from_slice(list.root().as_bytes())),
                    ));
                }
                let map = map.update(db.store(), db.cfg(), col_edits)?;
                Value::Map(map)
            }
        };
        db.put(self.key.clone(), None, value)
    }

    /// Read one record by primary key (and row index for column layout).
    pub fn get_record(&self, db: &ForkBase, pk: &str, idx: usize) -> Result<Option<Record>> {
        let map = self.head_map(db)?;
        match self.layout {
            Layout::Row => Ok(map
                .get(db.store(), pk.as_bytes())
                .and_then(|bytes| Record::from_csv(std::str::from_utf8(&bytes).ok()?))),
            Layout::Column => {
                let mut fields = Vec::with_capacity(COLUMNS.len());
                for name in COLUMNS {
                    let list = self.column_list(db, &map, name)?;
                    match list.get(db.store(), idx as u64) {
                        Some(v) => fields.push(String::from_utf8(v.to_vec()).unwrap_or_default()),
                        None => return Ok(None),
                    }
                }
                Ok(Record::from_csv(&fields.join(",")))
            }
        }
    }

    /// Sum an integer column over the head version — the Fig. 17(b)
    /// aggregation. Row layout parses every record; column layout streams
    /// one List.
    pub fn aggregate_sum(&self, db: &ForkBase, column: &str) -> Result<i64> {
        let col_idx = COLUMNS
            .iter()
            .position(|c| *c == column)
            .ok_or(FbError::KeyNotFound)?;
        let map = self.head_map(db)?;
        match self.layout {
            Layout::Row => {
                let mut sum = 0i64;
                for (_, rec_bytes) in map.iter(db.store()) {
                    let text = std::str::from_utf8(&rec_bytes)
                        .map_err(|_| FbError::Corrupt("non-utf8 record".into()))?;
                    let field = text
                        .splitn(COLUMNS.len(), ',')
                        .nth(col_idx)
                        .ok_or_else(|| FbError::Corrupt("short record".into()))?;
                    sum += field.parse::<i64>().unwrap_or(0);
                }
                Ok(sum)
            }
            Layout::Column => {
                let list = self.column_list(db, &map, column)?;
                let mut sum = 0i64;
                for v in list.iter(db.store()) {
                    sum += std::str::from_utf8(&v)
                        .ok()
                        .and_then(|s| s.parse::<i64>().ok())
                        .unwrap_or(0);
                }
                Ok(sum)
            }
        }
    }

    /// Count differing records between two committed versions (row layout
    /// only — the layout the paper's Fig. 17(a) diff experiment uses).
    pub fn diff_versions(&self, db: &ForkBase, a: Digest, b: Digest) -> Result<usize> {
        assert_eq!(
            self.layout,
            Layout::Row,
            "diff is defined on the row layout"
        );
        let root_of = |uid: Digest| -> Result<Digest> {
            let obj = db.get_version(self.key.clone(), uid)?;
            let map = obj.value(db.store())?.as_map()?;
            Ok(map.root())
        };
        let ra = root_of(a)?;
        let rb = root_of(b)?;
        let entries = sorted_diff(db.store(), TreeType::Map, ra, rb)
            .ok_or_else(|| FbError::Corrupt("diff walk".into()))?;
        Ok(entries.len())
    }

    /// Export the head version as CSV (with header).
    pub fn export_csv(&self, db: &ForkBase) -> Result<String> {
        let map = self.head_map(db)?;
        let mut out = String::from("pk,qty,price,descr,region\n");
        match self.layout {
            Layout::Row => {
                for (_, rec) in map.iter(db.store()) {
                    out.push_str(
                        std::str::from_utf8(&rec)
                            .map_err(|_| FbError::Corrupt("non-utf8 record".into()))?,
                    );
                    out.push('\n');
                }
            }
            Layout::Column => {
                let lists = COLUMNS
                    .iter()
                    .map(|c| self.column_list(db, &map, c))
                    .collect::<Result<Vec<_>>>()?;
                let n = lists[0].len(db.store());
                let cols: Vec<Vec<Bytes>> =
                    lists.iter().map(|l| l.iter(db.store()).collect()).collect();
                for i in 0..n as usize {
                    let row: Vec<&str> = cols
                        .iter()
                        .map(|c| std::str::from_utf8(&c[i]).unwrap_or(""))
                        .collect();
                    out.push_str(&row.join(","));
                    out.push('\n');
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fb_workload::DatasetGen;

    fn setup(layout: Layout, n: usize) -> (ForkBase, Dataset, Vec<Record>) {
        let db = ForkBase::in_memory();
        let mut gen = DatasetGen::new(42);
        let records = gen.records(n);
        let ds = Dataset::import(&db, "sales", layout, &records).expect("import");
        (db, ds, records)
    }

    #[test]
    fn import_and_count_row() {
        let (db, ds, _) = setup(Layout::Row, 500);
        assert_eq!(ds.row_count(&db).expect("count"), 500);
    }

    #[test]
    fn import_and_count_column() {
        let (db, ds, _) = setup(Layout::Column, 500);
        assert_eq!(ds.row_count(&db).expect("count"), 500);
    }

    #[test]
    fn get_record_round_trip_both_layouts() {
        for layout in [Layout::Row, Layout::Column] {
            let (db, ds, records) = setup(layout, 200);
            for idx in [0usize, 99, 199] {
                let rec = ds
                    .get_record(&db, &records[idx].pk, idx)
                    .expect("io")
                    .expect("present");
                assert_eq!(rec, records[idx], "{layout:?} idx {idx}");
            }
            assert_eq!(
                ds.get_record(&db, "pk-999999999", 99_999).expect("io"),
                None
            );
        }
    }

    #[test]
    fn aggregation_matches_reference_both_layouts() {
        let expected: i64 = {
            let mut g = DatasetGen::new(42);
            g.records(300).iter().map(|r| r.price).sum()
        };
        for layout in [Layout::Row, Layout::Column] {
            let (db, ds, _) = setup(layout, 300);
            assert_eq!(
                ds.aggregate_sum(&db, "price").expect("aggregate"),
                expected,
                "{layout:?}"
            );
        }
    }

    #[test]
    fn update_creates_new_version_row() {
        let (db, ds, records) = setup(Layout::Row, 1000);
        let v0 = db.head("sales", None).expect("head");
        let mut gen = DatasetGen::new(7);
        let mods = gen.modifications(1000, 20);
        let v1 = ds.update(&db, &mods).expect("update");
        assert_ne!(v0, v1);

        // New values visible, untouched records unchanged.
        let (idx, rec) = &mods[0];
        let got = ds
            .get_record(&db, &rec.pk, *idx)
            .expect("io")
            .expect("present");
        assert_eq!(&got, rec);
        let untouched = (0..1000)
            .find(|i| mods.iter().all(|(mi, _)| mi != i))
            .expect("some untouched row");
        let got = ds
            .get_record(&db, &records[untouched].pk, untouched)
            .expect("io")
            .expect("present");
        assert_eq!(got, records[untouched]);
    }

    #[test]
    fn update_creates_new_version_column() {
        let (db, ds, _) = setup(Layout::Column, 300);
        let mut gen = DatasetGen::new(8);
        let mods = gen.modifications(300, 5);
        ds.update(&db, &mods).expect("update");
        for (idx, rec) in &mods {
            let got = ds
                .get_record(&db, &rec.pk, *idx)
                .expect("io")
                .expect("present");
            assert_eq!(&got, rec);
        }
    }

    #[test]
    fn diff_counts_changed_records() {
        let (db, ds, _) = setup(Layout::Row, 2000);
        let v0 = db.head("sales", None).expect("head");
        let mut gen = DatasetGen::new(9);
        let mods = gen.modifications(2000, 37);
        let v1 = ds.update(&db, &mods).expect("update");
        assert_eq!(ds.diff_versions(&db, v0, v1).expect("diff"), 37);
        assert_eq!(ds.diff_versions(&db, v0, v0).expect("diff"), 0);
    }

    #[test]
    fn csv_export_round_trips() {
        let (db, ds, records) = setup(Layout::Row, 100);
        let csv = ds.export_csv(&db).expect("export");
        let parsed = DatasetGen::from_csv(&csv);
        assert_eq!(parsed.len(), 100);
        // Row layout sorts by pk, which matches generation order.
        assert_eq!(parsed, records);
    }

    #[test]
    fn updates_share_unchanged_chunks() {
        // Large enough that per-edit write amplification (a whole ~4KB
        // leaf per touched record, ~27 records/leaf) is small relative to
        // the dataset.
        let (db, ds, _) = setup(Layout::Row, 20_000);
        let before = db.store().stats().stored_bytes;
        let mut gen = DatasetGen::new(10);
        let mods = gen.modifications(20_000, 10);
        ds.update(&db, &mods).expect("update");
        let added = db.store().stats().stored_bytes - before;
        assert!(
            added < before / 10,
            "10 modified records of 20000 must not rewrite the dataset: {added}B added to {before}B"
        );
    }

    #[test]
    fn branching_datasets() {
        // The collaborative workflow: analysts fork the dataset, transform
        // their branch, and the original stays intact.
        let (db, ds, _) = setup(Layout::Row, 200);
        db.fork("sales", "master", "cleaning").expect("fork");
        let mut gen = DatasetGen::new(11);
        let mods = gen.modifications(200, 50);

        // Commit the transformation on the branch only.
        let map = db
            .get_value("sales", Some("cleaning"))
            .expect("branch")
            .as_map()
            .expect("map");
        let edits = mods
            .iter()
            .map(|(_, rec)| (Bytes::from(rec.pk.clone()), Some(rec.encode())));
        let map = map.update(db.store(), db.cfg(), edits).expect("update");
        db.put("sales", Some("cleaning"), Value::Map(map))
            .expect("put");

        let main_sum = ds.aggregate_sum(&db, "price").expect("sum");
        let mut g2 = DatasetGen::new(42);
        let original_sum: i64 = g2.records(200).iter().map(|r| r.price).sum();
        assert_eq!(main_sum, original_sum, "master unaffected by branch work");
    }
}
