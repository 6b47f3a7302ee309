//! Synthetic relational dataset generation (§6.4).
//!
//! The paper's collaborative-analytics dataset: 5M records of ~180 bytes
//! loaded from CSV — a 12-byte primary key, two integer fields, and
//! textual fields of variable length. We generate the same shape at a
//! configurable scale.

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Write;

/// One generated record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// 12-byte primary key, e.g. `pk-00001234`.
    pub pk: String,
    /// First integer field.
    pub qty: i64,
    /// Second integer field.
    pub price: i64,
    /// Variable-length textual field.
    pub descr: String,
    /// Second textual field.
    pub region: String,
}

impl Record {
    /// Append the CSV line (no trailing newline) to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.pk.as_bytes());
        // `Write` for a `Vec` cannot fail.
        let _ = write!(out, ",{},{},", self.qty, self.price);
        out.extend_from_slice(self.descr.as_bytes());
        out.push(b',');
        out.extend_from_slice(self.region.as_bytes());
    }

    /// The CSV line's bytes, in a buffer sized for them.
    fn csv_bytes(&self) -> Vec<u8> {
        // Four commas and two integers of at most 20 characters each.
        let len = self.pk.len() + self.descr.len() + self.region.len() + 44;
        let mut out = Vec::with_capacity(len);
        self.encode_into(&mut out);
        out
    }

    /// CSV line (no trailing newline).
    pub fn to_csv(&self) -> String {
        String::from_utf8(self.csv_bytes()).expect("the fields are UTF-8")
    }

    /// Parse a CSV line produced by [`to_csv`](Self::to_csv).
    pub fn from_csv(line: &str) -> Option<Record> {
        let mut parts = line.splitn(5, ',');
        Some(Record {
            pk: parts.next()?.to_string(),
            qty: parts.next()?.parse().ok()?,
            price: parts.next()?.parse().ok()?,
            descr: parts.next()?.to_string(),
            region: parts.next()?.to_string(),
        })
    }

    /// Row encoding used by the storage layers: the CSV body as bytes.
    pub fn encode(&self) -> Bytes {
        Bytes::copy_from_slice(&self.csv_bytes())
    }
}

/// Deterministic dataset generator.
pub struct DatasetGen {
    rng: StdRng,
}

impl DatasetGen {
    /// A generator with the given seed.
    pub fn new(seed: u64) -> DatasetGen {
        DatasetGen {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn text(&mut self, min: usize, max: usize) -> String {
        const FRAGMENTS: &[&str] = &[
            "acme", "widget", "gadget", "prime", "ultra", "mega", "eco", "smart", "pro", "basic",
            "deluxe", "classic",
        ];
        let target = self.rng.gen_range(min..=max);
        let mut s = String::with_capacity(target + 8);
        while s.len() < target {
            s.push_str(FRAGMENTS[self.rng.gen_range(0..FRAGMENTS.len())]);
            s.push('-');
        }
        s.truncate(target);
        s
    }

    /// The primary key for row index `i` (12 bytes, zero padded, sorted
    /// order == row order).
    pub fn pk(i: usize) -> String {
        format!("pk-{i:09}")
    }

    /// Generate record `i`.
    pub fn record(&mut self, i: usize) -> Record {
        Record {
            pk: Self::pk(i),
            qty: self.rng.gen_range(0..1000),
            price: self.rng.gen_range(1..100_000),
            descr: self.text(60, 120),
            region: self.text(10, 30),
        }
    }

    /// Generate `n` records in primary-key order.
    pub fn records(&mut self, n: usize) -> Vec<Record> {
        (0..n).map(|i| self.record(i)).collect()
    }

    /// Whole dataset as a CSV string with a header line.
    pub fn to_csv(records: &[Record]) -> String {
        let mut out = b"pk,qty,price,descr,region\n".to_vec();
        for r in records {
            r.encode_into(&mut out);
            out.push(b'\n');
        }
        String::from_utf8(out).expect("the fields are UTF-8")
    }

    /// Parse a CSV produced by [`to_csv`](Self::to_csv).
    pub fn from_csv(csv: &str) -> Vec<Record> {
        csv.lines().skip(1).filter_map(Record::from_csv).collect()
    }

    /// Pick `count` distinct record indices to modify, and a mutation for
    /// each (changes the price field and the description).
    /// Modify a contiguous run of `count` records starting at a random
    /// offset — the update pattern of a batch transformation (data
    /// cleansing / enrichment passes touch ranges, not random points).
    /// Contiguous updates are also the pattern where chunk-level
    /// deduplication shines: the space increment approaches the raw size
    /// of the changed records instead of a whole chunk per record.
    pub fn modifications_range(&mut self, n_records: usize, count: usize) -> Vec<(usize, Record)> {
        let count = count.min(n_records);
        let start = if count == n_records {
            0
        } else {
            self.rng.gen_range(0..n_records - count)
        };
        (start..start + count)
            .map(|i| {
                let mut rec = self.record(i);
                rec.price = self.rng.gen_range(100_000..200_000);
                rec.descr = self.text(60, 120);
                (i, rec)
            })
            .collect()
    }

    pub fn modifications(&mut self, n_records: usize, count: usize) -> Vec<(usize, Record)> {
        let mut indices: Vec<usize> = (0..n_records).collect();
        // Partial Fisher–Yates for the first `count` positions.
        for i in 0..count.min(n_records) {
            let j = self.rng.gen_range(i..n_records);
            indices.swap(i, j);
        }
        indices.truncate(count.min(n_records));
        indices
            .into_iter()
            .map(|i| {
                let mut rec = self.record(i);
                rec.price = self.rng.gen_range(100_000..200_000);
                rec.descr = self.text(60, 120);
                (i, rec)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_shape_matches_paper() {
        let mut g = DatasetGen::new(1);
        let recs = g.records(200);
        let avg: usize = recs.iter().map(|r| r.to_csv().len()).sum::<usize>() / recs.len();
        assert!(
            (120..240).contains(&avg),
            "average record ~180 bytes, got {avg}"
        );
        assert_eq!(recs[5].pk.len(), 12, "12-byte primary key");
    }

    #[test]
    fn csv_round_trip() {
        let mut g = DatasetGen::new(2);
        let recs = g.records(50);
        let csv = DatasetGen::to_csv(&recs);
        let back = DatasetGen::from_csv(&csv);
        assert_eq!(back, recs);
    }

    /// The CSV line as `format!` writes it: the reference the encoders
    /// are held to.
    fn csv_reference(r: &Record) -> String {
        format!("{},{},{},{},{}", r.pk, r.qty, r.price, r.descr, r.region)
    }

    /// Negative and extreme integers, empty and non-ASCII text.
    fn edge_records() -> Vec<Record> {
        let rec = |qty, price, descr: &str, region: &str| Record {
            pk: DatasetGen::pk(7),
            qty,
            price,
            descr: descr.into(),
            region: region.into(),
        };
        vec![
            rec(-1, -99_999, "negative", "west"),
            rec(i64::MIN, i64::MAX, "extremes", "north"),
            rec(i64::MAX, i64::MIN, "", ""),
            rec(0, 0, "", "east"),
            rec(12, 345, "crème brûlée – 東京 ✓", "région-ü"),
        ]
    }

    #[test]
    fn csv_matches_the_format_reference() {
        let mut recs = DatasetGen::new(4).records(1000);
        recs.extend(edge_records());
        for r in &recs {
            let reference = csv_reference(r);
            assert_eq!(r.to_csv(), reference);
            assert_eq!(&r.encode()[..], reference.as_bytes());
            assert_eq!(Record::from_csv(&reference).as_ref(), Some(r));
            let mut out = b"prefix,".to_vec();
            r.encode_into(&mut out);
            assert_eq!(out, [b"prefix,", reference.as_bytes()].concat());
        }
    }

    #[test]
    fn pks_are_sorted() {
        let pks: Vec<String> = (0..1000).map(DatasetGen::pk).collect();
        let mut sorted = pks.clone();
        sorted.sort();
        assert_eq!(pks, sorted);
    }

    #[test]
    fn modifications_touch_distinct_records() {
        let mut g = DatasetGen::new(3);
        let mods = g.modifications(1000, 100);
        assert_eq!(mods.len(), 100);
        let idx: std::collections::HashSet<_> = mods.iter().map(|(i, _)| *i).collect();
        assert_eq!(idx.len(), 100, "no duplicates");
        for (i, rec) in &mods {
            assert_eq!(rec.pk, DatasetGen::pk(*i), "pk preserved");
            assert!(rec.price >= 100_000, "modification visible");
        }
    }

    #[test]
    fn deterministic() {
        let a = DatasetGen::new(9).records(20);
        let b = DatasetGen::new(9).records(20);
        assert_eq!(a, b);
    }
}
