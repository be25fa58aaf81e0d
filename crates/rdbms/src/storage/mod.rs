//! Physical storage: slotted pages, the pager/buffer pool, heap files, the
//! write-ahead log, and the fault-injection shim underneath them.

pub mod fault;
pub mod heap;
pub mod page;
pub mod pager;
pub mod wal;

pub use fault::{is_enospc, is_injected, FaultInjector};
pub use heap::{HeapFile, RowId};
pub use page::{Page, SlotId, PAGE_SIZE};
pub use pager::{PageId, PageSource, PageView, Pager, PagerStats};
pub use wal::{wal_path, RecoveryReport, Wal};
