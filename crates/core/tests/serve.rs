//! Serving-layer integration tests: the session protocol over in-memory
//! buffers (framing, typed errors, `.timeout 0` disarm regression, hostile
//! input), a real TCP round-trip against the accept loop, the torn-reply
//! regression (every `xpath` reply is one committed version of its
//! document, however many updates commit while it is being served), and
//! `.stats` shard totals that stay exact under concurrent sessions.

use ordxml::naive::{DomNode, NaiveEvaluator};
use ordxml::{
    run_session, serve, DocumentPool, Encoding, OrderConfig, Session, Status, UpdateCost,
};
use ordxml_xml::{Document, NodePath};
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

fn pool_with_docs(n: usize) -> Arc<DocumentPool> {
    let pool = Arc::new(DocumentPool::in_memory(2, Encoding::Global));
    for i in 0..n {
        let doc = ordxml_xml::parse(&format!(
            "<doc><item><name>Item {i}</name></item><item><name>Other {i}</name></item></doc>"
        ))
        .unwrap();
        pool.load(&doc, &format!("doc{i}")).unwrap();
    }
    pool
}

/// Runs a scripted session over in-memory buffers, returning the raw wire
/// output.
fn drive(pool: Arc<DocumentPool>, script: &str) -> String {
    let mut out = Vec::new();
    run_session(pool, script.as_bytes(), &mut out).unwrap();
    String::from_utf8(out).unwrap()
}

#[test]
fn protocol_framing_and_round_trip() {
    let out = drive(
        pool_with_docs(2),
        ".docs\n.use 1\nxpath /doc/item[2]/name\nSELECT COUNT(*) FROM global_node\n.quit\n",
    );
    // .docs lists both documents with their shard.
    assert!(out.contains("ok 2 doc(s)"), "{out}");
    // XPath payload is framed with the "| " prefix.
    assert!(out.contains("| <name>Other 0</name>"), "{out}");
    assert!(out.contains("ok 1 node(s)"), "{out}");
    // SQL result row comes back framed too.
    assert!(out.contains("ok 1 row(s)"), "{out}");
    assert!(out.ends_with("ok bye\n"), "{out}");
}

#[test]
fn errors_are_framed_and_typed_never_fatal() {
    let out = drive(
        pool_with_docs(1),
        "xpath /doc\n.use 42\n.use 1\nxpath ///\nSELECT FROM\n.frobnicate\nxpath /doc/item[1]\n",
    );
    // Query before .use → usage error.
    assert!(out.contains("err usage: no document selected"), "{out}");
    // Unknown id, bad xpath, bad SQL, unknown meta: all typed.
    assert!(out.contains("err bad-node:"), "{out}");
    assert!(out.contains("err xpath:"), "{out}");
    assert!(out.contains("err sql:"), "{out}");
    assert!(out.contains("err usage: unknown command"), "{out}");
    // The session survived all of it and still serves.
    assert!(out.contains("| <item><name>Item 0</name></item>"), "{out}");
}

#[test]
fn invalid_utf8_degrades_lossily_instead_of_killing_the_session() {
    let pool = pool_with_docs(1);
    let mut script: Vec<u8> = Vec::new();
    script.extend_from_slice(b".use 1\n");
    script.extend_from_slice(b"\xff\xfe garbage \xff\n"); // invalid UTF-8
    script.extend_from_slice(b"xpath /doc/item[1]/name\n");
    let mut out = Vec::new();
    run_session(pool, &script[..], &mut out).unwrap();
    let out = String::from_utf8(out).unwrap();
    // The garbage line became a (failed) SQL statement, not a crash...
    assert!(out.contains("err "), "{out}");
    // ...and the session kept serving afterwards.
    assert!(out.contains("| <name>Item 0</name>"), "{out}");
}

/// Regression test for the `.timeout 0` bug class: after disarming, no
/// statement may time out — a 0 value must mean "no deadline", not "a 0 ms
/// deadline that fails every statement instantly".
#[test]
fn timeout_zero_disarms_the_deadline() {
    let pool = pool_with_docs(1);
    let mut s = Session::new(pool);
    assert!(matches!(s.handle(".use 1").status, Status::Ok(_)));
    // Arm an impossible deadline: the statement must fail typed.
    s.handle(".timeout 1");
    std::thread::sleep(std::time::Duration::from_millis(5));
    let mut timed_out = false;
    for _ in 0..50 {
        let r = s.handle(
            "SELECT COUNT(*) FROM global_node a, global_node b, global_node c, \
             global_node d, global_node e, global_node f",
        );
        if let Status::Err { code, .. } = r.status {
            assert_eq!(code, "timeout");
            timed_out = true;
            break;
        }
    }
    assert!(timed_out, "a 1ms deadline must eventually trip");
    // Disarm with 0: the same statement must now succeed.
    let r = s.handle(".timeout 0");
    match &r.status {
        Status::Ok(m) => assert!(m.contains("disarmed"), "{m}"),
        other => panic!("{other:?}"),
    }
    let r = s.handle(
        "SELECT COUNT(*) FROM global_node a, global_node b, global_node c, \
         global_node d, global_node e, global_node f",
    );
    assert!(
        matches!(r.status, Status::Ok(_)),
        "after .timeout 0 nothing may time out: {:?}",
        r.status
    );
}

#[test]
fn per_session_limits_do_not_leak_across_sessions() {
    let pool = pool_with_docs(1);
    let mut a = Session::new(Arc::clone(&pool));
    let mut b = Session::new(pool);
    a.handle(".use 1");
    b.handle(".use 1");
    // Session A arms a brutal work budget; session B must be unaffected.
    a.handle(".budget 1");
    let r = a.handle("SELECT COUNT(*) FROM global_node a, global_node b");
    assert!(
        matches!(r.status, Status::Err { code: "budget", .. }),
        "{:?}",
        r.status
    );
    let r = b.handle("SELECT COUNT(*) FROM global_node a, global_node b");
    assert!(matches!(r.status, Status::Ok(_)), "{:?}", r.status);
}

#[test]
fn tcp_round_trip_with_concurrent_clients() {
    let pool = pool_with_docs(4);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let _ = serve(listener, pool);
    });

    let client = move |doc: usize| {
        let mut stream = TcpStream::connect(addr).unwrap();
        writeln!(stream, ".use {}", doc + 1).unwrap();
        writeln!(stream, "xpath /doc/item[1]/name").unwrap();
        writeln!(stream, ".quit").unwrap();
        let mut out = String::new();
        for line in BufReader::new(stream).lines() {
            out.push_str(&line.unwrap());
            out.push('\n');
        }
        out
    };
    let handles: Vec<_> = (0..4)
        .map(|i| std::thread::spawn(move || (i, client(i))))
        .collect();
    for h in handles {
        let (i, out) = h.join().unwrap();
        assert!(out.contains(&format!("| <name>Item {i}</name>")), "{out}");
        assert!(out.contains("ok 1 node(s)"), "{out}");
        assert!(out.contains("ok bye"), "{out}");
    }
}

// ---------------------------------------------------------------------
// Torn replies: one committed version per reply
// ---------------------------------------------------------------------

/// A catalog of `items` top-level `<item>`s; every third one nests another
/// `<item>`, so `//item` has nested hits.
fn catalog(items: usize) -> Document {
    let mut xml = String::from("<catalog>");
    for i in 0..items {
        if i % 3 == 2 {
            xml.push_str(&format!(
                "<item id=\"i{i}\"><name>n{i}</name>\
                 <parts><item id=\"p{i}\"><name>part {i}</name></item></parts></item>"
            ));
        } else {
            xml.push_str(&format!(
                "<item id=\"i{i}\"><name>n{i}</name><price>{i}</price></item>"
            ));
        }
    }
    xml.push_str("</catalog>");
    ordxml_xml::parse(&xml).unwrap()
}

/// Sparse-numbering gap the catalogs are loaded with: small enough that a
/// few inserts at the front of the item list exhaust it and renumber.
const TIGHT_GAP: u64 = 4;

/// The `//item` reply the DOM oracle gives for `dom`.
fn expected_items(dom: &Document) -> Vec<String> {
    let path = ordxml::xpath::parse("//item").unwrap();
    NaiveEvaluator::new(dom)
        .eval(&path)
        .into_iter()
        .map(|v| match v {
            DomNode::Node(id) => dom.subtree_to_xml(id),
            DomNode::Attr(..) => unreachable!("//item selects elements"),
        })
        .collect()
}

/// An ordered update of the top-level item list.
#[derive(Debug, Clone, Copy)]
enum Update {
    /// Insert a fresh item (numbered by the payload) in front of the list.
    FrontInsert(u64),
    /// Delete the item at this index.
    Delete(usize),
    /// Move the item at `.0` so that it becomes the `.1`-th.
    Move(usize, usize),
}

/// Applies `update` through the pool, then to the DOM mirror.
fn apply(pool: &DocumentPool, id: u64, dom: &mut Document, update: Update) -> UpdateCost {
    let root = dom.root();
    match update {
        Update::FrontInsert(n) => {
            let fragment =
                ordxml_xml::parse(&format!("<item id=\"f{n}\"><name>new {n}</name></item>"))
                    .unwrap();
            let cost = pool
                .insert_fragment(id, &NodePath(vec![]), 0, &fragment)
                .unwrap();
            dom.graft(root, 0, &fragment, fragment.root());
            cost
        }
        Update::Delete(index) => {
            let cost = pool.delete_subtree(id, &NodePath(vec![index])).unwrap();
            dom.remove_subtree(dom.children(root)[index]);
            cost
        }
        Update::Move(from, to) => {
            let cost = pool
                .move_subtree(id, &NodePath(vec![from]), &NodePath(vec![]), to)
                .unwrap();
            let src = dom.children(root)[from];
            let mut copy = Document::new("tmp");
            let tmp = copy.root();
            copy.graft(tmp, 0, dom, src);
            dom.remove_subtree(src);
            dom.graft(root, to, &copy, copy.children(tmp)[0]);
            cost
        }
    }
}

/// Runs `body` on a fresh two-shard pool for every encoding, on both
/// backends: in memory, and file-backed with WAL durability.
fn for_each_backend(tag: &str, body: impl Fn(&str, Arc<DocumentPool>)) {
    for enc in Encoding::all() {
        body(
            &format!("mem/{enc}"),
            Arc::new(DocumentPool::in_memory(2, enc)),
        );
        let dir = std::env::temp_dir().join(format!(
            "ordxml-serve-{tag}-{enc}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let pool = Arc::new(DocumentPool::open(&dir, 2, enc, 64).unwrap());
        body(&format!("file/{enc}"), pool);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_pinned_snapshot_serializes_its_own_version_across_updates() {
    for_each_backend("pinned", |label, pool| {
        let mut dom = catalog(9);
        let id = pool
            .load_with(&dom, "c", OrderConfig::with_gap(TIGHT_GAP))
            .unwrap();
        let before = expected_items(&dom);
        let (snap, inner) = pool.snapshot(id).unwrap();
        let hits = snap.xpath(inner, "//item").unwrap();
        // A delete, a move, then front inserts until one renumbers.
        apply(&pool, id, &mut dom, Update::Delete(1));
        apply(&pool, id, &mut dom, Update::Move(0, 5));
        let relabeled: u64 = (0..4)
            .map(|n| apply(&pool, id, &mut dom, Update::FrontInsert(n)).relabeled)
            .sum();
        assert!(relabeled > 0, "{label}: the front inserts never renumbered");
        // The document moved on...
        let mut session = Session::new(Arc::clone(&pool));
        session.handle(&format!(".use {id}"));
        let live = session.handle("xpath //item").lines;
        assert_eq!(live, expected_items(&dom), "{label}");
        assert_ne!(live, before, "{label}");
        // ...and the pinned version did not.
        assert_eq!(
            snap.serialize_many(inner, &hits).unwrap(),
            before,
            "{label}"
        );
    });
}

#[test]
fn concurrent_replies_are_each_one_committed_version() {
    const UPDATES: u64 = 60;
    for_each_backend("torn", |label, pool| {
        let mut dom = catalog(9);
        let id = pool
            .load_with(&dom, "c", OrderConfig::with_gap(TIGHT_GAP))
            .unwrap();
        let mut versions: HashSet<Vec<String>> = HashSet::from([expected_items(&dom)]);
        let done = Arc::new(AtomicBool::new(false));
        let served = Arc::new(AtomicU64::new(0));
        let reader = {
            let (pool, done, served) = (Arc::clone(&pool), Arc::clone(&done), Arc::clone(&served));
            std::thread::spawn(move || {
                let mut session = Session::new(pool);
                session.handle(&format!(".use {id}"));
                // Distinct replies (payload, or error text), with counts.
                let mut replies: HashMap<Result<Vec<String>, String>, u64> = HashMap::new();
                loop {
                    let last = done.load(Ordering::Acquire);
                    let reply = session.handle("xpath //item");
                    let key = match reply.status {
                        Status::Ok(_) => Ok(reply.lines),
                        Status::Err { code, message } => Err(format!("{code}: {message}")),
                    };
                    *replies.entry(key).or_default() += 1;
                    served.fetch_add(1, Ordering::Release);
                    if last {
                        return replies;
                    }
                }
            })
        };
        // Update only once the reader is serving, so the two overlap.
        while served.load(Ordering::Acquire) == 0 && !reader.is_finished() {
            std::thread::yield_now();
        }
        for n in 0..UPDATES {
            let items = dom.children(dom.root()).len();
            let update = match n % 3 {
                0 => Update::FrontInsert(n),
                1 => Update::Delete((n as usize * 5) % items),
                _ => Update::Move((n as usize * 7) % items, (n as usize * 3) % (items - 1)),
            };
            apply(&pool, id, &mut dom, update);
            versions.insert(expected_items(&dom));
        }
        done.store(true, Ordering::Release);
        let replies = reader.join().unwrap();
        let total: u64 = replies.values().sum();
        let torn: Vec<_> = replies
            .iter()
            .filter(|(reply, _)| !matches!(reply, Ok(lines) if versions.contains(lines)))
            .collect();
        assert!(
            torn.is_empty(),
            "{label}: {} of {total} replies match no committed version, e.g. {:?}",
            torn.iter().map(|(_, n)| **n).sum::<u64>(),
            torn[0]
        );
    });
}

// ---------------------------------------------------------------------
// `.stats` under concurrent sessions
// ---------------------------------------------------------------------

/// The `pages_read` totals of every shard line of a `.stats` reply, summed.
fn stats_pages_read(session: &mut Session) -> u64 {
    session
        .handle(".stats")
        .lines
        .iter()
        .filter_map(|l| l.split_once(" pages_read=").map(|(_, n)| n))
        .map(|n| n.parse::<u64>().unwrap())
        .sum()
}

#[test]
fn stats_shard_totals_are_exact_under_concurrent_sessions() {
    const SESSIONS: usize = 4;
    const REQUESTS: u64 = 50;
    let pool = Arc::new(DocumentPool::in_memory(2, Encoding::Dewey));
    let id = pool.load(&catalog(60), "c").unwrap();
    let request = "xpath //item[name]";
    let mut observer = Session::new(Arc::clone(&pool));
    observer.handle(&format!(".use {id}"));
    // Warm the plan cache, then measure one request alone.
    assert!(matches!(observer.handle(request).status, Status::Ok(_)));
    let before = stats_pages_read(&mut observer);
    assert!(matches!(observer.handle(request).status, Status::Ok(_)));
    let solo = stats_pages_read(&mut observer) - before;
    assert!(solo > 0);

    let start = Barrier::new(SESSIONS + 1);
    let finish = Barrier::new(SESSIONS + 1);
    let before = std::thread::scope(|s| {
        for _ in 0..SESSIONS {
            s.spawn(|| {
                let mut session = Session::new(Arc::clone(&pool));
                session.handle(&format!(".use {id}"));
                assert!(matches!(session.handle(request).status, Status::Ok(_)));
                start.wait();
                finish.wait();
                for _ in 0..REQUESTS {
                    assert!(matches!(session.handle(request).status, Status::Ok(_)));
                }
            });
        }
        // Every session is warm before the totals are read.
        start.wait();
        let before = stats_pages_read(&mut observer);
        finish.wait();
        before
    });
    assert_eq!(
        stats_pages_read(&mut observer) - before,
        SESSIONS as u64 * REQUESTS * solo,
        "{SESSIONS} sessions x {REQUESTS} requests of {solo} pages each"
    );
}
