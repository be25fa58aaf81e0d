//! [`DocumentPool`] — many documents, many shards, one id space.
//!
//! The paper (and the rest of this crate) stores documents in **one**
//! relational database; the serving workload XML engines actually face is a
//! *collection* of documents queried by concurrent clients. The pool scales
//! that out horizontally: pool-level document ids are hashed onto N shards,
//! each shard an independent [`XmlStore`] with its own database, WAL, and
//! recovery/degraded state. One shard losing its disk degrades *that shard*
//! to read-only; its siblings keep serving reads **and writes** untouched
//! — there is no shared lock, file, or WAL between shards.
//!
//! Routing is pure: `shard(id) = fnv1a64(id) % N`, so a document's home
//! shard is derivable from its id alone, with no catalog lookup on the hot
//! path and no rebalancing state. The pool keeps an in-memory catalog
//! (pool id → shard, per-shard document id, name) that is rebuilt on
//! [`DocumentPool::open`] by scanning each shard's `docs` table: documents
//! are stored under the name `"{MARKER}{pool_id}:{name}"` (the marker is a
//! control-character prefix no ordinary name starts with), which makes the
//! pool id durable without any extra table while keeping documents loaded
//! directly through a shard's [`XmlStore`] out of the pool catalog.

use crate::diag::QueryDiagnostics;
use crate::encoding::{Encoding, OrderConfig};
use crate::store::{StoreError, StoreResult, StoreSnapshot, XNode, XmlStore};
use crate::update::UpdateCost;
use crate::xpath;
use ordxml_rdbms::obs::WaitSite;
use ordxml_rdbms::{latch, trace, Database, ExecStats, QueryResult, StoreHealth, Value};
use ordxml_xml::{Document, NodePath};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Pool-level document id. Distinct from the per-shard `i64` document id:
/// two documents on different shards may share an inner id, but never a
/// pool id.
pub type DocId = u64;

/// Durable marker prefixing pool-managed document names inside each
/// shard's docs table (`"{MARKER}{pool_id}:{name}"`). The `\u{1}` control
/// characters never start an ordinary caller-supplied name, so a document
/// loaded directly through a shard's [`XmlStore`] — even one named
/// `"7:something"` — is never mistaken for (or collides with) a pool
/// catalog entry on [`DocumentPool::open`].
const POOL_NAME_MARKER: &str = "\u{1}pool\u{1}";

/// Where a pool document lives.
#[derive(Debug, Clone)]
struct DocEntry {
    /// Index into `DocumentPool::shards` (always `shard_of(id)`; cached so
    /// the catalog alone answers `.docs`).
    shard: usize,
    /// The document's id inside its shard's store.
    inner: i64,
    /// Caller-facing name (without the `"{MARKER}{id}:"` durability
    /// prefix).
    name: String,
}

/// Per-shard slice of a [`PoolStats`] snapshot.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Operator-facing shard label (`"shard-3"`).
    pub identity: String,
    /// Documents currently routed to this shard.
    pub documents: u64,
    /// Shard health (degraded shards serve reads only).
    pub health: StoreHealth,
    /// Cumulative engine counters for this shard's database.
    pub stats: ExecStats,
}

/// Aggregate + per-shard counters for a pool (the `.stats` surface of the
/// serving layer).
#[derive(Debug, Clone)]
pub struct PoolStats {
    /// One entry per shard, in shard order.
    pub shards: Vec<ShardStats>,
}

impl PoolStats {
    /// Total documents across every shard.
    pub fn documents(&self) -> u64 {
        self.shards.iter().map(|s| s.documents).sum()
    }

    /// Number of shards currently degraded to read-only.
    pub fn degraded_shards(&self) -> usize {
        self.shards
            .iter()
            .filter(|s| !matches!(s.health, StoreHealth::Healthy))
            .count()
    }
}

/// 64-bit FNV-1a over a document id (shard routing). The same hash the
/// storage layer uses for page checksums: cheap, stable, and good enough
/// dispersion over small `N` that sequential ids don't all land on one
/// shard.
fn fnv1a64(id: DocId) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in id.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A sharded collection of [`XmlStore`]s behind one document-id space.
///
/// Every method takes `&self`; the pool is `Send + Sync` and meant to be
/// shared across serving threads in an `Arc`.
pub struct DocumentPool {
    shards: Vec<Arc<XmlStore>>,
    catalog: RwLock<HashMap<DocId, DocEntry>>,
    next_id: AtomicU64,
    encoding: Encoding,
}

impl DocumentPool {
    /// A fresh, fully in-memory pool with `shards` independent stores.
    pub fn in_memory(shards: usize, encoding: Encoding) -> DocumentPool {
        let shards = shards.max(1);
        let stores = (0..shards)
            .map(|i| {
                let store = XmlStore::new(Database::in_memory(), encoding);
                store.set_identity(&format!("shard-{i}"));
                Arc::new(store)
            })
            .collect();
        DocumentPool {
            shards: stores,
            catalog: RwLock::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            encoding,
        }
    }

    /// Opens (or creates) a file-backed pool under `dir`: shard `i` lives at
    /// `dir/shard-i.db` with its own WAL. Each shard recovers
    /// *independently* — a torn WAL on one shard cannot delay or fail its
    /// siblings — and the pool catalog is rebuilt by scanning every shard's
    /// documents table.
    pub fn open(
        dir: &Path,
        shards: usize,
        encoding: Encoding,
        cache_pages: usize,
    ) -> StoreResult<DocumentPool> {
        let shards = shards.max(1);
        std::fs::create_dir_all(dir)
            .map_err(|e| StoreError::Db(ordxml_rdbms::DbError::Storage(e.to_string())))?;
        let mut stores = Vec::with_capacity(shards);
        for i in 0..shards {
            let db = Database::open(&dir.join(format!("shard-{i}.db")), cache_pages)?;
            let store = XmlStore::new(db, encoding);
            store.set_identity(&format!("shard-{i}"));
            stores.push(Arc::new(store));
        }
        let pool = DocumentPool {
            shards: stores,
            catalog: RwLock::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            encoding,
        };
        pool.rebuild_catalog()?;
        Ok(pool)
    }

    /// Rescans every shard's documents table into the in-memory catalog and
    /// advances `next_id` past the largest durable pool id.
    fn rebuild_catalog(&self) -> StoreResult<()> {
        let mut catalog = HashMap::new();
        let mut max_id = 0;
        for (shard, store) in self.shards.iter().enumerate() {
            for (inner, stored_name) in store.documents()? {
                let Some((id, name)) = stored_name
                    .strip_prefix(POOL_NAME_MARKER)
                    .and_then(|tagged| tagged.split_once(':'))
                    .and_then(|(id, name)| Some((id.parse::<DocId>().ok()?, name)))
                else {
                    // A document loaded through the shard's store directly
                    // (not via the pool) lacks the marker and has no pool
                    // id; skip it rather than guess one.
                    continue;
                };
                max_id = max_id.max(id);
                catalog.insert(
                    id,
                    DocEntry {
                        shard,
                        inner,
                        name: name.to_string(),
                    },
                );
            }
        }
        self.next_id.store(max_id + 1, Ordering::Relaxed);
        *latch::write(&self.catalog, WaitSite::Store) = catalog;
        Ok(())
    }

    /// The pool's order encoding (every shard shares it).
    pub fn encoding(&self) -> Encoding {
        self.encoding
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a document id routes to.
    pub fn shard_of(&self, id: DocId) -> usize {
        (fnv1a64(id) % self.shards.len() as u64) as usize
    }

    /// Direct access to shard `i`'s store (diagnostics, fault injection in
    /// tests, per-shard counter collection).
    pub fn shard(&self, i: usize) -> &Arc<XmlStore> {
        &self.shards[i]
    }

    /// Resolves a pool id to `(store, inner_doc_id)`.
    fn route(&self, id: DocId) -> StoreResult<(Arc<XmlStore>, i64)> {
        let _span = trace::span_with("pool.route", || format!("doc={id}"));
        let catalog = latch::read(&self.catalog, WaitSite::Store);
        let entry = catalog
            .get(&id)
            .ok_or_else(|| StoreError::BadNode(format!("no document with pool id {id}")))?;
        Ok((Arc::clone(&self.shards[entry.shard]), entry.inner))
    }

    /// The committed version of pool document `id`'s shard, with the
    /// document's id inside that shard: one route plus one snapshot load.
    /// Every read made on the pair sees that one version, however many
    /// updates commit meanwhile — the serving layer pins one per request.
    pub fn snapshot(&self, id: DocId) -> StoreResult<(Arc<StoreSnapshot>, i64)> {
        let (store, doc) = self.route(id)?;
        Ok((store.snapshot()?, doc))
    }

    /// Whether `id` names a pool document (one catalog read).
    pub fn contains(&self, id: DocId) -> bool {
        latch::read(&self.catalog, WaitSite::Store).contains_key(&id)
    }

    /// Loads (shreds) a document into its home shard and returns its pool
    /// id. Concurrent loads to different shards proceed in parallel; a
    /// degraded home shard rejects the load with a typed
    /// [`ordxml_rdbms::DbError::Degraded`] naming the shard.
    pub fn load(&self, document: &Document, name: &str) -> StoreResult<DocId> {
        self.load_with(document, name, OrderConfig::default())
    }

    /// [`DocumentPool::load`] with an explicit [`OrderConfig`].
    pub fn load_with(
        &self,
        document: &Document,
        name: &str,
        cfg: OrderConfig,
    ) -> StoreResult<DocId> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let shard = self.shard_of(id);
        let inner = self.shards[shard].load_document_with(
            document,
            &format!("{POOL_NAME_MARKER}{id}:{name}"),
            cfg,
        )?;
        latch::write(&self.catalog, WaitSite::Store).insert(
            id,
            DocEntry {
                shard,
                inner,
                name: name.to_string(),
            },
        );
        Ok(id)
    }

    /// `(pool id, shard, name)` of every pool document, in id order.
    pub fn documents(&self) -> Vec<(DocId, usize, String)> {
        let catalog = latch::read(&self.catalog, WaitSite::Store);
        let mut docs: Vec<(DocId, usize, String)> = catalog
            .iter()
            .map(|(&id, e)| (id, e.shard, e.name.clone()))
            .collect();
        docs.sort_unstable_by_key(|&(id, _, _)| id);
        docs
    }

    /// Evaluates an XPath expression against a pool document.
    pub fn xpath(&self, id: DocId, expr: &str) -> StoreResult<Vec<XNode>> {
        let (store, doc) = self.route(id)?;
        store.xpath(doc, expr)
    }

    /// [`DocumentPool::xpath`] with a pre-parsed path (the serving layer's
    /// per-session prepared-statement cache reuses parses across requests).
    pub fn xpath_parsed(&self, id: DocId, path: &xpath::Path) -> StoreResult<Vec<XNode>> {
        let (snap, doc) = self.snapshot(id)?;
        snap.xpath_parsed(doc, path)
    }

    /// [`DocumentPool::xpath`] with full per-statement diagnostics.
    pub fn xpath_diagnostics(
        &self,
        id: DocId,
        expr: &str,
    ) -> StoreResult<(Vec<XNode>, QueryDiagnostics)> {
        let (store, doc) = self.route(id)?;
        store.xpath_diagnostics(doc, expr)
    }

    /// Runs raw SQL against the shard holding document `id` (the serving
    /// layer's SQL surface; the pool has no cross-shard query planner).
    pub fn sql(&self, id: DocId, sql: &str, params: &[Value]) -> StoreResult<QueryResult> {
        let (store, _) = self.route(id)?;
        store.sql(sql, params)
    }

    /// Serializes the subtree at `node` of pool document `id`.
    pub fn serialize(&self, id: DocId, node: &XNode) -> StoreResult<String> {
        let (snap, doc) = self.snapshot(id)?;
        snap.serialize(doc, node)
    }

    /// Reconstructs a pool document from its relational image.
    pub fn reconstruct_document(&self, id: DocId) -> StoreResult<Document> {
        let (store, doc) = self.route(id)?;
        store.reconstruct_document(doc)
    }

    /// Number of stored node rows for a pool document.
    pub fn node_count(&self, id: DocId) -> StoreResult<u64> {
        let (store, doc) = self.route(id)?;
        store.node_count(doc)
    }

    /// Ordered insert into a pool document (routed to its home shard).
    pub fn insert_fragment(
        &self,
        id: DocId,
        parent: &NodePath,
        index: usize,
        fragment: &Document,
    ) -> StoreResult<UpdateCost> {
        let (store, doc) = self.route(id)?;
        store.insert_fragment(doc, parent, index, fragment)
    }

    /// Deletes a subtree of a pool document.
    pub fn delete_subtree(&self, id: DocId, target: &NodePath) -> StoreResult<UpdateCost> {
        let (store, doc) = self.route(id)?;
        store.delete_subtree(doc, target)
    }

    /// Moves a subtree within a pool document.
    pub fn move_subtree(
        &self,
        id: DocId,
        target: &NodePath,
        new_parent: &NodePath,
        index: usize,
    ) -> StoreResult<UpdateCost> {
        let (store, doc) = self.route(id)?;
        store.move_subtree(doc, target, new_parent, index)
    }

    /// Replaces the value of a text node of a pool document.
    pub fn update_text(&self, id: DocId, target: &NodePath, text: &str) -> StoreResult<UpdateCost> {
        let (store, doc) = self.route(id)?;
        store.update_text(doc, target, text)
    }

    /// Per-shard health, in shard order. Degraded entries carry the shard
    /// identity in their reason (`"[shard-2] ..."`), so an operator can go
    /// straight to [`DocumentPool::try_restore`].
    pub fn health(&self) -> Vec<StoreHealth> {
        self.shards.iter().map(|s| s.health()).collect()
    }

    /// Attempts to restore shard `i` from degraded read-only mode. Only
    /// that shard is touched; healthy siblings never stop serving.
    pub fn try_restore(&self, i: usize) -> StoreResult<()> {
        self.shards[i].try_restore()
    }

    /// Snapshot of per-shard counters, health, and document counts.
    pub fn stats(&self) -> PoolStats {
        let mut per_shard_docs = vec![0u64; self.shards.len()];
        for (_, e) in latch::read(&self.catalog, WaitSite::Store).iter() {
            per_shard_docs[e.shard] += 1;
        }
        PoolStats {
            shards: self
                .shards
                .iter()
                .enumerate()
                .map(|(i, store)| ShardStats {
                    identity: format!("shard-{i}"),
                    documents: per_shard_docs[i],
                    // Both served lock-free from the shard's published
                    // snapshot — `.stats`/`.health` answer even while a
                    // writer holds the shard's write latch mid-transaction.
                    health: store.health(),
                    stats: store.total_stats(),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(body: &str) -> Document {
        ordxml_xml::parse(body).unwrap()
    }

    #[test]
    fn routing_is_stable_and_covers_shards() {
        let pool = DocumentPool::in_memory(4, Encoding::Global);
        let mut seen = [false; 4];
        for id in 1..64u64 {
            let s = pool.shard_of(id);
            assert_eq!(s, pool.shard_of(id), "routing must be deterministic");
            seen[s] = true;
        }
        assert!(seen.iter().all(|&s| s), "64 ids should touch all 4 shards");
    }

    #[test]
    fn load_query_update_roundtrip_across_shards() {
        let pool = DocumentPool::in_memory(3, Encoding::Dewey);
        let mut ids = Vec::new();
        for i in 0..9 {
            let d = doc(&format!("<d><v>{i}</v></d>"));
            ids.push((i, pool.load(&d, &format!("doc{i}")).unwrap()));
        }
        for (i, id) in &ids {
            let hits = pool.xpath(*id, "/d/v").unwrap();
            assert_eq!(
                pool.serialize(*id, &hits[0]).unwrap(),
                format!("<v>{i}</v>")
            );
        }
        let (_, id0) = ids[0];
        pool.insert_fragment(id0, &NodePath(vec![]), 1, &doc("<w>x</w>"))
            .unwrap();
        let hits = pool.xpath(id0, "/d/w").unwrap();
        assert_eq!(pool.serialize(id0, &hits[0]).unwrap(), "<w>x</w>");
        assert!(matches!(pool.xpath(999, "/d"), Err(StoreError::BadNode(_))));
    }

    #[test]
    fn direct_shard_documents_are_not_adopted_as_pool_entries() {
        let pool = DocumentPool::in_memory(2, Encoding::Global);
        let real = pool.load(&doc("<real/>"), "real").unwrap();
        // Documents loaded behind the pool's back — even with names that
        // look like `"{id}:{name}"` — lack the pool marker, so a catalog
        // rebuild must skip them instead of adopting them (or letting
        // them collide with a genuine pool id).
        pool.shard(0)
            .load_document(&doc("<evil/>"), &format!("{real}:interloper"))
            .unwrap();
        pool.shard(1)
            .load_document(&doc("<evil/>"), "7:other")
            .unwrap();
        pool.rebuild_catalog().unwrap();
        let docs = pool.documents();
        assert_eq!(docs.len(), 1);
        assert_eq!(docs[0], (real, pool.shard_of(real), "real".to_string()));
        // The id sequence resumed past the genuine entry only.
        assert_eq!(pool.load(&doc("<n/>"), "next").unwrap(), real + 1);
    }

    #[test]
    fn documents_lists_all_names() {
        let pool = DocumentPool::in_memory(2, Encoding::Local);
        let a = pool.load(&doc("<a/>"), "alpha").unwrap();
        let b = pool.load(&doc("<b/>"), "beta").unwrap();
        let docs = pool.documents();
        assert_eq!(docs.len(), 2);
        assert_eq!(docs[0], (a, pool.shard_of(a), "alpha".to_string()));
        assert_eq!(docs[1], (b, pool.shard_of(b), "beta".to_string()));
        assert_eq!(pool.stats().documents(), 2);
    }
}
