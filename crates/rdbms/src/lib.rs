#![warn(missing_docs)]
//! `ordxml-rdbms` — an embedded relational database engine.
//!
//! This crate is the relational substrate of the `ordxml` workspace: the
//! paper ("Storing and Querying Ordered XML Using a Relational Database
//! System", SIGMOD 2002) shreds XML into relations and runs translated SQL
//! over a relational database system, so the workspace ships one.
//!
//! Feature set (what the XPath-to-SQL translation layer needs, built
//! properly):
//!
//! * slotted-page storage with an in-memory or file-backed pager and a
//!   clock-replacement buffer pool ([`storage`]);
//! * B+tree indexes over order-preserving composite keys ([`btree`],
//!   [`value::encode_key`]) — primary keys and secondary indexes, range and
//!   prefix scans in both directions;
//! * a SQL subset ([`sql`]): `CREATE TABLE` / `CREATE INDEX` / `DROP TABLE`,
//!   `INSERT`, `UPDATE`, `DELETE`, and `SELECT` with multi-table joins,
//!   `WHERE`, correlated scalar subqueries, aggregates, `GROUP BY`,
//!   `ORDER BY`, `LIMIT`/`OFFSET`, `DISTINCT`, and `?` parameters;
//! * a planner ([`plan`]) that pushes predicates down, picks index scans for
//!   sargable conjuncts, chooses index-nested-loop vs hash joins, and
//!   removes sorts an index already satisfies;
//! * an operator-at-a-time executor ([`exec`]) with per-query statistics (rows
//!   read, index lookups, pages touched) that the benchmark harness reports.
//!
//! # Quickstart
//!
//! ```
//! use ordxml_rdbms::{Database, Value};
//!
//! let mut db = Database::in_memory();
//! db.execute("CREATE TABLE t (a INTEGER, b TEXT, PRIMARY KEY (a))", &[]).unwrap();
//! db.execute("INSERT INTO t VALUES (?, ?)", &[Value::Int(1), Value::text("one")]).unwrap();
//! db.execute("INSERT INTO t VALUES (2, 'two')", &[]).unwrap();
//! let rows = db.query("SELECT b FROM t WHERE a >= ? ORDER BY a", &[Value::Int(1)]).unwrap();
//! assert_eq!(rows.len(), 2);
//! assert_eq!(rows[0][0], Value::text("one"));
//! ```

pub mod btree;
pub mod catalog;
pub mod db;
pub mod error;
pub mod exec;
pub mod expr;
pub mod governance;
pub mod latch;
pub mod obs;
pub mod plan;
pub mod schema;
pub mod sql;
pub mod storage;
pub mod trace;
pub mod value;

pub use db::{Database, DbSnapshot, QueryResult, SqlRead, StatementTrace, StoreHealth};
pub use error::{DbError, DbResult};
pub use exec::{ExecStats, OpProfile, Profiler};
pub use schema::{ColumnDef, IndexDef, TableSchema};
pub use storage::{FaultInjector, RecoveryReport};
pub use value::{decode_range_batch, encode_range_batch, DataType, RangeSpec, Row, Value};
