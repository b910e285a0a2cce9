//! Host-time benchmark of the MuonTrap reproduction.
//!
//! The `hostbench` binary (see `src/main.rs`) times three workloads through
//! the simulator's public API: two figure grids simulated store-less, and the
//! whole evaluation document regenerated from a warm result store. This
//! library holds the pieces the binary and its tests share:
//!
//! * [`grid`] — figure plans, the seed permutation of their units, and the
//!   in-memory event sink that timestamps each resolved unit;
//! * [`golden`] — the read-only comparison against the committed goldens;
//! * [`timed`] — the timing decorators of the traced run: a `MemoryModel`
//!   around `DefenseKind::build(..)` and a `StoreBackend` around `FsBackend`;
//! * [`traced`] — the traced simulation path (`DefenseKind::build` →
//!   `System::{new,load_workload,run}`), bit-identical to
//!   `simsys::session::simulate`;
//! * [`trace`] — in-memory spans with parents and unit ids, written out when
//!   the run ends;
//! * [`alloc`] — the counting global allocator behind `system.allocs`;
//! * [`stats`] — medians and tail percentiles.

pub mod alloc;
pub mod golden;
pub mod grid;
pub mod stats;
pub mod timed;
pub mod trace;
pub mod traced;
