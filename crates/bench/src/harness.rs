//! Measurement and reporting utilities shared by all experiments.

use ordxml::{Encoding, OrderConfig, XmlStore};
use ordxml_rdbms::Database;
use ordxml_xml::{Document, NodePath};
use rand::rngs::StdRng;
use rand::Rng;
use std::time::{Duration, Instant};

/// A printable result table (fixed-width, like the paper's tables).
pub struct Table {
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row. A row with the wrong arity would silently misalign
    /// every column after it (and corrupt the recorded report), so this
    /// checks in release builds too.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "table `{}`: row arity does not match header arity",
            self.title
        );
        self.rows.push(cells);
    }

    /// Prints the table with aligned columns and records it into the
    /// machine-readable run report (see [`crate::report`]).
    pub fn print(&self) {
        crate::report::record_table(&self.title, &self.headers, &self.rows);
        println!("\n== {} ==", self.title);
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let joined: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:>w$}", w = widths[i]))
                .collect();
            println!("  {}", joined.join("  "));
        };
        line(&self.headers);
        println!(
            "  {}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            line(row);
        }
    }
}

/// Summary of repeated timings of one routine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeStats {
    /// Fastest run.
    pub min: Duration,
    /// Median run.
    pub median: Duration,
    /// 95th-percentile run (nearest-rank; the max for small rep counts).
    pub p95: Duration,
}

/// Runs `f` `reps` times and returns min/median/p95 (plus the result of the
/// final run).
pub fn time_stats<R>(reps: usize, mut f: impl FnMut() -> R) -> (TimeStats, R) {
    assert!(reps >= 1);
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = f();
        times.push(t0.elapsed());
        last = Some(r);
    }
    times.sort();
    let rank95 = ((times.len() as f64) * 0.95).ceil() as usize;
    let stats = TimeStats {
        min: times[0],
        median: times[times.len() / 2],
        p95: times[rank95.clamp(1, times.len()) - 1],
    };
    (stats, last.expect("reps >= 1"))
}

/// Runs `f` `reps` times and returns the median duration (plus the result of
/// the final run). Shorthand for [`time_stats`] when only the median matters.
pub fn time_median<R>(reps: usize, f: impl FnMut() -> R) -> (Duration, R) {
    let (stats, r) = time_stats(reps, f);
    (stats.median, r)
}

/// Human-friendly duration: `12.3µs`, `4.56ms`, `1.23s`.
pub fn fmt_dur(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

/// Formats a count with thousands separators.
pub fn fmt_count(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// A loaded store for one encoding.
pub struct Loaded {
    pub enc: Encoding,
    pub store: XmlStore,
    pub doc: i64,
}

/// Loads `document` into a fresh in-memory store per encoding.
pub fn load_all(document: &Document, cfg: OrderConfig) -> Vec<Loaded> {
    Encoding::all()
        .into_iter()
        .map(|enc| {
            let store = XmlStore::new(Database::in_memory(), enc);
            let doc = store
                .load_document_with(document, "bench", cfg)
                .expect("load");
            Loaded { enc, store, doc }
        })
        .collect()
}

/// Picks a random *element* path in `dom` (walking down from the root a
/// random number of levels). Used to choose insertion targets.
pub fn random_element_path(dom: &Document, rng: &mut StdRng, max_depth: usize) -> NodePath {
    let mut path = Vec::new();
    let mut cur = dom.root();
    let levels = rng.gen_range(0..=max_depth);
    for _ in 0..levels {
        let elems: Vec<(usize, ordxml_xml::NodeId)> = dom
            .children(cur)
            .iter()
            .copied()
            .enumerate()
            .filter(|(_, c)| dom.node(*c).kind().is_element())
            .collect();
        if elems.is_empty() {
            break;
        }
        let (idx, child) = elems[rng.gen_range(0..elems.len())];
        path.push(idx);
        cur = child;
    }
    NodePath(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn table_prints_without_panicking() {
        let mut t = Table::new("demo", &["a", "longer-header", "x"]);
        t.row(vec!["1".into(), "2".into(), "3".into()]);
        t.row(vec!["wide-cell".into(), "2".into(), "3".into()]);
        t.print();
    }

    #[test]
    fn time_median_returns_result() {
        let (d, r) = time_median(5, || 40 + 2);
        assert_eq!(r, 42);
        assert!(d.as_nanos() < 1_000_000_000);
    }

    #[test]
    fn time_stats_orders_quantiles() {
        let (s, _) = time_stats(20, || std::hint::black_box((0..100).sum::<u64>()));
        assert!(s.min <= s.median);
        assert!(s.median <= s.p95);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn table_rejects_misaligned_rows() {
        let mut t = Table::new("bad", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_dur(Duration::from_nanos(500)), "500ns");
        assert_eq!(fmt_dur(Duration::from_micros(1500)), "1.50ms");
        assert_eq!(fmt_count(1234567), "1,234,567");
        assert_eq!(fmt_count(12), "12");
    }

    #[test]
    fn load_all_gives_three_equivalent_stores() {
        let doc = crate::datagen::catalog(20, 7);
        let mut loaded = load_all(&doc, OrderConfig::default());
        assert_eq!(loaded.len(), 3);
        let counts: Vec<u64> = loaded
            .iter_mut()
            .map(|l| l.store.node_count(l.doc).unwrap())
            .collect();
        assert_eq!(counts[0], counts[1]);
        assert_eq!(counts[1], counts[2]);
    }

    #[test]
    fn random_paths_resolve() {
        let doc = crate::datagen::catalog(10, 3);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let p = random_element_path(&doc, &mut rng, 3);
            let n = p.resolve(&doc).expect("path resolves");
            assert!(doc.node(n).kind().is_element());
        }
    }
}
