//! Property tests for the relational engine: the B+tree against the
//! standard-library ordered map, key-encoding order preservation, and
//! SQL-level CRUD against a simple model.

use ordxml_rdbms::btree::BTree;
use ordxml_rdbms::governance::{Ledger, Work};
use ordxml_rdbms::value::{decode_row, encode_key, encode_row, Value};
use ordxml_rdbms::Database;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::ops::Bound;

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<u8>, u64),
    Remove(Vec<u8>),
    Get(Vec<u8>),
    Range(Vec<u8>, Vec<u8>),
    RangeRev(Vec<u8>, Vec<u8>),
    /// Ascending disjoint ranges (bounds sorted, then paired) scanned in
    /// one `range_from` chain.
    Fingered(Vec<Vec<u8>>),
    /// Keep a clone of the tree with a copy of the model; it must never
    /// change, whatever the tree does next.
    Snapshot,
    /// Insert (or remove) `n` consecutive keys from `from`: enough to grow
    /// the tree to depth 3 and to drive merges there.
    Bulk {
        from: u16,
        n: u16,
        remove: bool,
    },
}

fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..8, 1..5)
}

/// The `i`-th four-digit key of [`key_strategy`]'s space (base 8), so bulk
/// keys interleave with the random ones.
fn bulk_key(i: u16) -> Vec<u8> {
    let i = i % 4096;
    vec![
        (i >> 9) as u8,
        (i >> 6 & 7) as u8,
        (i >> 3 & 7) as u8,
        (i & 7) as u8,
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        30 => (key_strategy(), any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
        20 => key_strategy().prop_map(Op::Remove),
        10 => key_strategy().prop_map(Op::Get),
        10 => (key_strategy(), key_strategy()).prop_map(|(a, b)| Op::Range(a, b)),
        10 => (key_strategy(), key_strategy()).prop_map(|(a, b)| Op::RangeRev(a, b)),
        10 => proptest::collection::vec(key_strategy(), 2..12).prop_map(Op::Fingered),
        5 => Just(Op::Snapshot),
        1 => (0u16..4096, 500u16..4096, any::<bool>())
            .prop_map(|(from, n, remove)| Op::Bulk { from, n, remove }),
    ]
}

type Entries = Vec<(Vec<u8>, u64)>;

fn model_range(model: &BTreeMap<Vec<u8>, u64>, lo: Bound<&[u8]>, hi: Bound<&[u8]>) -> Entries {
    model
        .range::<[u8], _>((lo, hi))
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn btree_matches_btreemap(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        let mut tree = BTree::new();
        let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        let mut snapshots = Vec::new();
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    prop_assert_eq!(tree.insert(&k, v), model.insert(k, v));
                }
                Op::Remove(k) => {
                    prop_assert_eq!(tree.remove(&k), model.remove(&k));
                }
                Op::Get(k) => {
                    prop_assert_eq!(tree.get(&k), model.get(&k).copied());
                }
                Op::Range(a, b) => {
                    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                    let (lo, hi) = (Bound::Included(&lo[..]), Bound::Excluded(&hi[..]));
                    let got: Entries = tree.range(lo, hi).map(|(k, v)| (k.to_vec(), v)).collect();
                    prop_assert_eq!(got, model_range(&model, lo, hi));
                }
                Op::RangeRev(a, b) => {
                    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                    let (lo, hi) = (Bound::Excluded(&lo[..]), Bound::Included(&hi[..]));
                    let mut got: Entries =
                        tree.range_rev(lo, hi).map(|(k, v)| (k.to_vec(), v)).collect();
                    got.reverse();
                    prop_assert_eq!(got, model_range(&model, lo, hi));
                }
                Op::Fingered(mut bounds) => {
                    bounds.sort();
                    bounds.dedup();
                    let before = Ledger::read();
                    let mut finger = None;
                    let mut ranges = 0;
                    for (i, pair) in bounds.chunks_exact(2).enumerate() {
                        // Alternate the lower bound's kind to exercise both
                        // predecessor proofs.
                        let lo = if i % 2 == 0 {
                            Bound::Included(&pair[0][..])
                        } else {
                            Bound::Excluded(&pair[0][..])
                        };
                        let hi = Bound::Excluded(&pair[1][..]);
                        let mut scan = tree.range_from(finger.take(), lo, hi);
                        let got: Entries = scan.by_ref().map(|(k, v)| (k.to_vec(), v)).collect();
                        finger = scan.finger();
                        prop_assert_eq!(got, model_range(&model, lo, hi));
                        ranges += 1;
                    }
                    let after = Ledger::read();
                    prop_assert_eq!(
                        after[Work::Descent] + after[Work::DescentReuse],
                        before[Work::Descent] + before[Work::DescentReuse] + ranges,
                        "each range positions exactly once"
                    );
                }
                Op::Snapshot => snapshots.push((tree.clone(), model.clone())),
                Op::Bulk { from, n, remove } => {
                    for i in from..from.saturating_add(n) {
                        let k = bulk_key(i);
                        if remove {
                            prop_assert_eq!(tree.remove(&k), model.remove(&k));
                        } else {
                            prop_assert_eq!(tree.insert(&k, u64::from(i)), model.insert(k, u64::from(i)));
                        }
                    }
                }
            }
        }
        prop_assert_eq!(tree.len(), model.len() as u64);
        let all: Vec<Vec<u8>> = tree.iter().map(|(k, _)| k.to_vec()).collect();
        let want: Vec<Vec<u8>> = model.keys().cloned().collect();
        prop_assert_eq!(all, want);
        for (snap, want) in &snapshots {
            prop_assert_eq!(snap.len(), want.len() as u64);
            let got: Entries = snap.iter().map(|(k, v)| (k.to_vec(), v)).collect();
            prop_assert_eq!(got, model_range(want, Bound::Unbounded, Bound::Unbounded));
        }
    }
}

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        // Finite floats only: key order uses total_cmp, sql NaN is separate.
        (-1e15f64..1e15).prop_map(Value::Float),
        "[a-zA-Z0-9 \u{0}-\u{7f}]{0,12}".prop_map(Value::Text),
        proptest::collection::vec(any::<u8>(), 0..12).prop_map(Value::Bytes),
    ]
}

/// Values of one type (index columns are homogeneous).
fn homogeneous_pair() -> impl Strategy<Value = (Value, Value)> {
    prop_oneof![
        (any::<i64>(), any::<i64>()).prop_map(|(a, b)| (Value::Int(a), Value::Int(b))),
        ((-1e15f64..1e15), (-1e15f64..1e15)).prop_map(|(a, b)| (Value::Float(a), Value::Float(b))),
        ("[a-z]{0,10}", "[a-z]{0,10}").prop_map(|(a, b)| (Value::Text(a), Value::Text(b))),
        (
            proptest::collection::vec(any::<u8>(), 0..10),
            proptest::collection::vec(any::<u8>(), 0..10)
        )
            .prop_map(|(a, b)| (Value::Bytes(a), Value::Bytes(b))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn row_encoding_roundtrips(row in proptest::collection::vec(value_strategy(), 0..8)) {
        let mut buf = Vec::new();
        encode_row(&row, &mut buf);
        prop_assert_eq!(decode_row(&buf).unwrap(), row);
    }

    #[test]
    fn key_encoding_preserves_order((a, b) in homogeneous_pair()) {
        let ka = encode_key(std::slice::from_ref(&a));
        let kb = encode_key(std::slice::from_ref(&b));
        prop_assert_eq!(ka.cmp(&kb), a.total_cmp(&b), "{:?} vs {:?}", a, b);
    }

    #[test]
    fn composite_key_order_is_lexicographic(
        (a1, b1) in homogeneous_pair(),
        (a2, b2) in homogeneous_pair(),
    ) {
        let ka = encode_key(&[a1.clone(), a2.clone()]);
        let kb = encode_key(&[b1.clone(), b2.clone()]);
        let want = a1.total_cmp(&b1).then_with(|| a2.total_cmp(&b2));
        prop_assert_eq!(ka.cmp(&kb), want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// SQL-level CRUD against an in-memory model of (pk -> payload).
    #[test]
    fn sql_crud_matches_model(
        ops in proptest::collection::vec(
            (0i64..60, any::<bool>(), 0i64..1000), 1..120)
    ) {
        let mut db = Database::in_memory();
        db.execute(
            "CREATE TABLE t (k INTEGER NOT NULL, v INTEGER, PRIMARY KEY (k))",
            &[],
        )
        .unwrap();
        db.execute("CREATE INDEX t_v ON t (v)", &[]).unwrap();
        let mut model: BTreeMap<i64, i64> = BTreeMap::new();
        for (k, insert, v) in ops {
            if insert {
                if model.contains_key(&k) {
                    db.execute(
                        "UPDATE t SET v = ? WHERE k = ?",
                        &[Value::Int(v), Value::Int(k)],
                    )
                    .unwrap();
                } else {
                    db.execute(
                        "INSERT INTO t VALUES (?, ?)",
                        &[Value::Int(k), Value::Int(v)],
                    )
                    .unwrap();
                }
                model.insert(k, v);
            } else {
                let n = db
                    .execute("DELETE FROM t WHERE k = ?", &[Value::Int(k)])
                    .unwrap();
                prop_assert_eq!(n, u64::from(model.remove(&k).is_some()));
            }
        }
        // Full contents must match, in primary-key order.
        let rows = db.query("SELECT k, v FROM t ORDER BY k", &[]).unwrap();
        let got: Vec<(i64, i64)> = rows
            .iter()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
            .collect();
        let want: Vec<(i64, i64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(got, want);
        // Secondary-index lookups agree with a model filter.
        if let Some((_, &v0)) = model.iter().next() {
            let rows = db
                .query("SELECT k FROM t WHERE v = ? ORDER BY k", &[Value::Int(v0)])
                .unwrap();
            let got: Vec<i64> = rows.iter().map(|r| r[0].as_int().unwrap()).collect();
            let want: Vec<i64> = model
                .iter()
                .filter(|(_, &v)| v == v0)
                .map(|(k, _)| *k)
                .collect();
            prop_assert_eq!(got, want);
        }
    }
}
