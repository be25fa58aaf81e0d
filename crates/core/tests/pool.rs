//! [`DocumentPool`] integration tests: per-shard fault isolation, routing
//! stability, and catalog reconstruction across close/reopen.
//!
//! The load-bearing guarantee under test: shards share *nothing* — one
//! shard losing its disk (injected ENOSPC on its WAL) degrades that shard
//! to read-only while every sibling keeps serving reads **and writes**,
//! and `try_restore(victim)` heals only the victim.

use ordxml::{DocumentPool, Encoding, StoreError};
use ordxml_rdbms::{DbError, StoreHealth};
use ordxml_xml::generate::sample_catalog;
use ordxml_xml::{parse as parse_xml, Document, NodePath};

fn doc(i: usize) -> Document {
    parse_xml(&format!(
        "<doc><item id=\"x{i}\"><name>Item {i}</name></item></doc>"
    ))
    .unwrap()
}

fn fragment() -> Document {
    parse_xml("<extra>e</extra>").unwrap()
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ordxml-pool-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Loads enough documents that every shard of a 4-shard pool holds at
/// least one, returning (pool_id, home_shard) pairs.
fn load_across_shards(pool: &DocumentPool, n: usize) -> Vec<(u64, usize)> {
    let mut docs = Vec::new();
    for i in 0..n {
        let id = pool.load(&doc(i), &format!("doc{i}")).unwrap();
        docs.push((id, pool.shard_of(id)));
    }
    let mut covered = vec![false; pool.shard_count()];
    for &(_, s) in &docs {
        covered[s] = true;
    }
    assert!(
        covered.iter().all(|&c| c),
        "{n} documents must cover all {} shards",
        pool.shard_count()
    );
    docs
}

#[test]
fn enospc_on_one_shard_never_blocks_siblings() {
    let dir = temp_dir("isolation");
    let pool = DocumentPool::open(&dir, 4, Encoding::Dewey, 64).unwrap();
    let docs = load_across_shards(&pool, 16);

    // Poison shard holding docs[0]: its next write hits injected ENOSPC
    // and degrades that shard (and only it) to read-only.
    let (victim_doc, victim_shard) = docs[0];
    pool.shard(victim_shard)
        .db()
        .faults()
        .fail_writes_with_enospc();
    let err = pool
        .insert_fragment(victim_doc, &NodePath(vec![]), 0, &fragment())
        .unwrap_err();
    // The write that *trips* the fault surfaces as a storage error; the
    // shard is degraded afterwards.
    assert!(
        !matches!(err, StoreError::Db(DbError::Degraded(_))),
        "first failure is the I/O error itself, got {err}"
    );

    // The degraded shard: reads fine, writes refused with a typed error
    // that names the shard.
    for &(id, shard) in &docs {
        if shard != victim_shard {
            continue;
        }
        let hits = pool.xpath(id, "/doc/item/name").unwrap();
        assert_eq!(hits.len(), 1, "degraded shard must keep serving reads");
        let err = pool
            .insert_fragment(id, &NodePath(vec![]), 0, &fragment())
            .unwrap_err();
        match &err {
            StoreError::Db(DbError::Degraded(reason)) => assert!(
                reason.contains(&format!("[shard-{victim_shard}]")),
                "degraded reason must name the shard: {reason}"
            ),
            other => panic!("expected Degraded, got {other}"),
        }
    }

    // Every sibling shard: reads AND writes keep working.
    for &(id, shard) in &docs {
        if shard == victim_shard {
            continue;
        }
        let hits = pool.xpath(id, "/doc/item/name").unwrap();
        assert_eq!(hits.len(), 1);
        pool.insert_fragment(id, &NodePath(vec![]), 0, &fragment())
            .unwrap_or_else(|e| panic!("sibling shard-{shard} write failed: {e}"));
    }
    let health = pool.health();
    for (i, h) in health.iter().enumerate() {
        if i == victim_shard {
            assert!(matches!(h, StoreHealth::Degraded(_)), "shard-{i}");
        } else {
            assert!(matches!(h, StoreHealth::Healthy), "shard-{i}");
        }
    }
    assert_eq!(pool.stats().degraded_shards(), 1);

    // Restore with the fault still live must fail and leave the shard
    // degraded; after clearing the fault it heals — and only the victim
    // was ever touched.
    assert!(pool.try_restore(victim_shard).is_err());
    pool.shard(victim_shard).db().faults().reset();
    pool.try_restore(victim_shard).unwrap();
    assert!(pool
        .health()
        .iter()
        .all(|h| matches!(h, StoreHealth::Healthy)));
    pool.insert_fragment(victim_doc, &NodePath(vec![]), 0, &fragment())
        .unwrap();

    drop(pool);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The fault-isolation gate on catalog documents: with one shard degraded,
/// every sibling read AND write must succeed — a shared lock, WAL, or
/// health flag between shards would fail this instantly.
#[test]
fn degraded_shard_never_blocks_siblings() {
    let dir = temp_dir("gate");
    let pool = DocumentPool::open(&dir, 4, Encoding::Global, 64).unwrap();
    let ids: Vec<u64> = (0..12)
        .map(|i| pool.load(&sample_catalog(10), &format!("d{i}")).unwrap())
        .collect();
    let victim = pool.shard_of(ids[0]);
    pool.shard(victim).db().faults().fail_writes_with_enospc();
    let _ = pool.insert_fragment(ids[0], &NodePath(vec![]), 0, &fragment());
    for &id in &ids {
        assert!(!pool.xpath(id, "/catalog/item[1]").unwrap().is_empty());
        if pool.shard_of(id) != victim {
            pool.insert_fragment(id, &NodePath(vec![]), 0, &fragment())
                .expect("sibling writes must keep working");
        }
    }
    pool.shard(victim).db().faults().reset();
    pool.try_restore(victim).unwrap();
    pool.insert_fragment(ids[0], &NodePath(vec![]), 0, &fragment())
        .expect("victim heals after restore");
    drop(pool);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reopen_rebuilds_catalog_and_routing() {
    let dir = temp_dir("reopen");
    let mut loaded = Vec::new();
    {
        let pool = DocumentPool::open(&dir, 4, Encoding::Global, 64).unwrap();
        for (id, shard) in load_across_shards(&pool, 12) {
            let name = pool
                .documents()
                .into_iter()
                .find(|&(d, _, _)| d == id)
                .unwrap()
                .2;
            loaded.push((id, shard, name));
        }
    }
    // Reopen: each shard recovers from its own WAL, the catalog is rebuilt
    // by scanning the shards, and ids/names/routing all survive.
    let pool = DocumentPool::open(&dir, 4, Encoding::Global, 64).unwrap();
    let docs = pool.documents();
    assert_eq!(docs.len(), loaded.len());
    for (id, shard, name) in &loaded {
        assert!(docs.contains(&(*id, *shard, name.clone())), "{id} {name}");
        let hits = pool.xpath(*id, "/doc/item/name").unwrap();
        assert_eq!(hits.len(), 1);
    }
    // New loads continue the id sequence instead of reusing ids.
    let max_id = loaded.iter().map(|&(id, _, _)| id).max().unwrap();
    let fresh = pool.load(&doc(99), "fresh").unwrap();
    assert!(fresh > max_id, "fresh id {fresh} must be > {max_id}");

    drop(pool);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_clients_on_disjoint_shards() {
    use std::sync::Arc;
    let pool = Arc::new(DocumentPool::in_memory(4, Encoding::Dewey));
    let docs: Vec<u64> = (0..8)
        .map(|i| pool.load(&doc(i), &format!("doc{i}")).unwrap())
        .collect();
    let handles: Vec<_> = docs
        .iter()
        .map(|&id| {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                for _ in 0..50 {
                    let hits = pool.xpath(id, "/doc/item/name").unwrap();
                    assert_eq!(hits.len(), 1);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}
