//! Pluggable storage primitives under [`ResultStore`](super::ResultStore).
//!
//! The lease/entry protocol — claim by atomic create-new, publish by
//! temp-file + rename, steal by atomic replace, GC in modified-time order —
//! never actually needed a filesystem, only a handful of primitives with the
//! right atomicity. [`StoreBackend`] names those primitives, and three
//! implementations ship with it:
//!
//! * [`FsBackend`] — the original on-disk layout, bit-for-bit.
//!   [`ResultStore::open`](super::ResultStore::open) uses it, so every
//!   existing store directory keeps working unchanged.
//! * [`MemBackend`] — a process-local map. Fast and deterministic: its
//!   modified stamps are a logical counter, so GC eviction order never
//!   depends on filesystem timestamp resolution. This is the substrate the
//!   lease-protocol property tests and the chaos suite run on.
//! * [`FaultBackend`] — a decorator injecting seeded faults (torn writes,
//!   create-new races, stale reads, transient I/O errors, latency) into any
//!   inner backend, with a scripted mode that replays an exact interleaving
//!   once a chaos run finds a failing one.
//!
//! Object names are root-relative paths with `/` separators — entries at
//! `"ab/cdef….json"`, leases at `".leases/<fp>.lease"`. The naming scheme is
//! owned by [`ResultStore`](super::ResultStore); backends only store bytes
//! under opaque names.
//!
//! # What each primitive must guarantee
//!
//! | primitive | protocol use | atomicity required |
//! |---|---|---|
//! | [`read`](StoreBackend::read) | entry lookups, lease inspection | none (a torn value must merely *parse* as garbage) |
//! | [`put_atomic`](StoreBackend::put_atomic) | entry publish, lease steal, done marker, heartbeat | readers see the old value or the new, never a prefix |
//! | [`create_new`](StoreBackend::create_new) | lease acquisition | exactly one of N racing creators wins; readers never see the object before its bytes |
//! | [`remove`](StoreBackend::remove) | lease release, GC eviction | missing is success |
//! | [`list`](StoreBackend::list) | entry census ([`len`](super::ResultStore::len)), GC order | none |

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use simkit::rng::SimRng;

/// Metadata of one stored object, as returned by [`StoreBackend::list`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectMeta {
    /// The object's backend-relative name (`/`-separated).
    pub name: String,
    /// Content length in bytes.
    pub len: u64,
    /// Last-modified time, milliseconds since the Unix epoch. [`MemBackend`]
    /// substitutes a logical counter: only the *order* is meaningful, which
    /// is all GC consumes.
    pub modified_unix_ms: u64,
}

/// The storage primitives [`ResultStore`](super::ResultStore) drives its
/// entry/lease protocol over. See the [module docs](self) for the atomicity
/// contract of each method.
pub trait StoreBackend: Send + Sync + fmt::Debug {
    /// A short human-readable identity for diagnostics (`"fs:<root>"`,
    /// `"mem"`, `"fault(mem)"`).
    fn label(&self) -> String;

    /// Reads the complete contents of `name`; `Ok(None)` when absent.
    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>>;

    /// Atomically replaces `name` with `bytes`: a concurrent
    /// [`read`](Self::read) sees the previous value or the new one in full,
    /// never a prefix. Creates the object (and any parent namespace) if
    /// absent.
    fn put_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()>;

    /// Creates `name` with `bytes` only if it does not already exist:
    /// `Ok(true)` when this call created it, `Ok(false)` when somebody else
    /// got there first. Exactly one of any number of racing creators wins,
    /// and a concurrent [`read`](Self::read) never sees the object without
    /// its full contents.
    fn create_new(&self, name: &str, bytes: &[u8]) -> io::Result<bool>;

    /// Removes `name`. A missing object is not an error.
    fn remove(&self, name: &str) -> io::Result<()>;

    /// Metadata of every object whose name starts with `prefix` (pass `""`
    /// for everything). Writer temp litter is excluded.
    fn list(&self, prefix: &str) -> io::Result<Vec<ObjectMeta>>;

    /// Sweeps abandoned writer temp files older than `grace`. A no-op for
    /// backends whose [`put_atomic`](Self::put_atomic) leaves no litter.
    fn sweep_temp(&self, grace: Duration) -> io::Result<()> {
        let _ = grace;
        Ok(())
    }
}

/// Sequence numbers making writer temp-file names unique within a process.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// The filesystem backend: [`ResultStore::open`](super::ResultStore::open)'s
/// default, bit-compatible with every store directory written before the
/// backend trait existed. Objects are files under `root` (names map to
/// relative paths), `put_atomic` is the classic temp-file + `rename`, and
/// `create_new` hard-links a fully written temp file into place (a link
/// fails if the name exists).
#[derive(Debug)]
pub struct FsBackend {
    root: PathBuf,
}

impl FsBackend {
    /// A backend rooted at `root`. The directory is not created here —
    /// [`ResultStore::open`](super::ResultStore::open) creates it, while
    /// read-only handles deliberately never do.
    pub fn new(root: impl Into<PathBuf>) -> FsBackend {
        FsBackend { root: root.into() }
    }

    /// The backing directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn path_of(&self, name: &str) -> PathBuf {
        let mut path = self.root.clone();
        for part in name.split('/') {
            path.push(part);
        }
        path
    }

    fn temp_name() -> String {
        format!(
            ".tmp-{}-{}",
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
        )
    }

    fn unix_ms_of(time: std::time::SystemTime) -> u64 {
        time.duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0)
    }
}

impl StoreBackend for FsBackend {
    fn label(&self) -> String {
        format!("fs:{}", self.root.display())
    }

    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        match std::fs::read(self.path_of(name)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn put_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let path = self.path_of(name);
        let dir = path.parent().expect("object paths always have a parent");
        std::fs::create_dir_all(dir)?;
        let temp = dir.join(Self::temp_name());
        std::fs::write(&temp, bytes)?;
        std::fs::rename(&temp, &path).inspect_err(|_| {
            // Don't leave temp droppings behind on a failed rename.
            let _ = std::fs::remove_file(&temp);
        })
    }

    fn create_new(&self, name: &str, bytes: &[u8]) -> io::Result<bool> {
        let path = self.path_of(name);
        let dir = path.parent().expect("object paths always have a parent");
        std::fs::create_dir_all(dir)?;
        // Write the bytes under a temp name, then hard-link them into place:
        // the link is an atomic create-if-absent, so no reader ever sees the
        // object before its contents. (An exclusive open followed by a write
        // exposes an empty file in between, which a lease reader takes for
        // an abandoned lease and steals.)
        let temp = dir.join(Self::temp_name());
        std::fs::write(&temp, bytes)?;
        let linked = std::fs::hard_link(&temp, &path);
        let _ = std::fs::remove_file(&temp);
        match linked {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => Ok(false),
            Err(e) => Err(e),
        }
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        match std::fs::remove_file(self.path_of(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn list(&self, prefix: &str) -> io::Result<Vec<ObjectMeta>> {
        let mut objects = Vec::new();
        let dirs = match std::fs::read_dir(&self.root) {
            Ok(dirs) => dirs,
            // A store that was never written to holds no objects.
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(objects),
            Err(e) => return Err(e),
        };
        for dir in dirs.flatten() {
            let dir_path = dir.path();
            if !dir_path.is_dir() {
                continue;
            }
            let dir_name = dir.file_name();
            let dir_name = dir_name.to_string_lossy();
            let Ok(files) = std::fs::read_dir(&dir_path) else {
                continue;
            };
            for file in files.flatten() {
                let file_name = file.file_name();
                let file_name = file_name.to_string_lossy();
                if file_name.starts_with(".tmp-") {
                    continue;
                }
                let name = format!("{dir_name}/{file_name}");
                if !name.starts_with(prefix) {
                    continue;
                }
                let Ok(meta) = file.metadata() else { continue };
                objects.push(ObjectMeta {
                    name,
                    len: meta.len(),
                    modified_unix_ms: meta.modified().map(Self::unix_ms_of).unwrap_or(0),
                });
            }
        }
        objects.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(objects)
    }

    fn sweep_temp(&self, grace: Duration) -> io::Result<()> {
        let Ok(dirs) = std::fs::read_dir(&self.root) else {
            return Ok(());
        };
        for dir in dirs.flatten() {
            let dir_path = dir.path();
            // Lease-directory litter is left alone, exactly as the
            // pre-backend GC did: a lease temp is racing a steal or a done
            // marker, and those writers clean up after themselves.
            if !dir_path.is_dir() || dir_path.ends_with(".leases") {
                continue;
            }
            let Ok(files) = std::fs::read_dir(&dir_path) else {
                continue;
            };
            for file in files.flatten() {
                if !file.file_name().to_string_lossy().starts_with(".tmp-") {
                    continue;
                }
                // Crashed-writer litter; live writers rename theirs away
                // within moments, so age gates the sweep.
                let abandoned =
                    file.metadata()
                        .ok()
                        .and_then(|m| m.modified().ok())
                        .map(|modified| {
                            std::time::SystemTime::now()
                                .duration_since(modified)
                                .is_ok_and(|age| age >= grace)
                        });
                if abandoned.unwrap_or(false) {
                    let _ = std::fs::remove_file(file.path());
                }
            }
        }
        Ok(())
    }
}

/// A process-local, in-memory backend for fast deterministic tests.
///
/// Every primitive is a map operation under one mutex, so the atomicity
/// contract holds trivially. Modified stamps are a logical counter rather
/// than wall-clock time: two objects written back-to-back always have
/// distinct, ordered stamps, which makes GC eviction order exactly the write
/// order with no timestamp-resolution flakiness.
#[derive(Debug, Default)]
pub struct MemBackend {
    objects: Mutex<BTreeMap<String, MemObject>>,
    tick: AtomicU64,
}

#[derive(Debug)]
struct MemObject {
    bytes: Vec<u8>,
    modified: u64,
}

impl MemBackend {
    /// An empty in-memory backend.
    pub fn new() -> MemBackend {
        MemBackend::default()
    }

    fn stamp(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }
}

impl StoreBackend for MemBackend {
    fn label(&self) -> String {
        "mem".to_string()
    }

    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        let objects = self.objects.lock().expect("mem backend lock");
        Ok(objects.get(name).map(|o| o.bytes.clone()))
    }

    fn put_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let modified = self.stamp();
        let mut objects = self.objects.lock().expect("mem backend lock");
        objects.insert(
            name.to_string(),
            MemObject {
                bytes: bytes.to_vec(),
                modified,
            },
        );
        Ok(())
    }

    fn create_new(&self, name: &str, bytes: &[u8]) -> io::Result<bool> {
        let modified = self.stamp();
        let mut objects = self.objects.lock().expect("mem backend lock");
        match objects.entry(name.to_string()) {
            std::collections::btree_map::Entry::Occupied(_) => Ok(false),
            std::collections::btree_map::Entry::Vacant(slot) => {
                slot.insert(MemObject {
                    bytes: bytes.to_vec(),
                    modified,
                });
                Ok(true)
            }
        }
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        let mut objects = self.objects.lock().expect("mem backend lock");
        objects.remove(name);
        Ok(())
    }

    fn list(&self, prefix: &str) -> io::Result<Vec<ObjectMeta>> {
        let objects = self.objects.lock().expect("mem backend lock");
        Ok(objects
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(name, o)| ObjectMeta {
                name: name.clone(),
                len: o.bytes.len() as u64,
                modified_unix_ms: o.modified,
            })
            .collect())
    }
}

/// One kind of injected storage fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// A [`put_atomic`](StoreBackend::put_atomic) that persists only a
    /// prefix of its bytes yet reports success — the crash-between-write-
    /// and-rename the protocol must survive (torn entries read as misses,
    /// torn leases as abandoned).
    TornWrite,
    /// A [`create_new`](StoreBackend::create_new) that loses a race which
    /// isn't there: it reports `already exists` without creating anything,
    /// pushing the caller down the inspect-then-steal path.
    CreateRace,
    /// A [`read`](StoreBackend::read) served from the past: the value the
    /// object held *before* its most recent overwrite or removal, as a
    /// lagging network filesystem would.
    StaleRead,
    /// The operation fails with [`io::ErrorKind::Interrupted`] and performs
    /// nothing.
    TransientError,
    /// The operation sleeps this many milliseconds before proceeding
    /// normally.
    Latency(u64),
}

impl Fault {
    fn applies_to(self, op: OpKind) -> bool {
        match self {
            Fault::TornWrite => op == OpKind::Put,
            Fault::CreateRace => op == OpKind::Create,
            Fault::StaleRead => op == OpKind::Read,
            Fault::TransientError | Fault::Latency(_) => true,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Read,
    Put,
    Create,
    Remove,
    List,
}

impl OpKind {
    fn verb(self) -> &'static str {
        match self {
            OpKind::Read => "read",
            OpKind::Put => "put",
            OpKind::Create => "create",
            OpKind::Remove => "remove",
            OpKind::List => "list",
        }
    }
}

/// Per-operation fault probabilities for a seeded [`FaultBackend`], in
/// chances per thousand operations. At most one fault fires per operation;
/// categories are rolled in a fixed order so one seed always injects one
/// interleaving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultConfig {
    /// Chance of [`Fault::TornWrite`] per `put_atomic`.
    pub torn_write_per_mille: u32,
    /// Chance of [`Fault::CreateRace`] per `create_new`.
    pub create_race_per_mille: u32,
    /// Chance of [`Fault::StaleRead`] per `read`.
    pub stale_read_per_mille: u32,
    /// Chance of [`Fault::TransientError`] per operation.
    pub transient_error_per_mille: u32,
    /// Chance of [`Fault::Latency`] per operation.
    pub latency_per_mille: u32,
    /// Upper bound (inclusive) of an injected latency, in milliseconds.
    pub max_latency_ms: u64,
}

impl FaultConfig {
    /// No faults: the decorator becomes a transparent (but op-counting)
    /// wrapper. Useful for pinning operation indices before scripting.
    pub fn none() -> FaultConfig {
        FaultConfig {
            torn_write_per_mille: 0,
            create_race_per_mille: 0,
            stale_read_per_mille: 0,
            transient_error_per_mille: 0,
            latency_per_mille: 0,
            max_latency_ms: 0,
        }
    }

    /// The chaos suite's default mix: every category enabled, aggressively
    /// enough that a hundred-seed sweep exercises each protocol recovery
    /// path many times, with latency kept to a millisecond so the sweep
    /// stays fast.
    pub fn chaos() -> FaultConfig {
        FaultConfig {
            torn_write_per_mille: 40,
            create_race_per_mille: 40,
            stale_read_per_mille: 40,
            transient_error_per_mille: 30,
            latency_per_mille: 10,
            max_latency_ms: 1,
        }
    }
}

/// One fault that actually altered an operation, with enough context to
/// replay it: feed `(op, fault)` pairs back to [`FaultBackend::scripted`]
/// and the exact interleaving reproduces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// The zero-based operation index the fault fired on.
    pub op: u64,
    /// What was injected.
    pub fault: Fault,
    /// `"<verb> <object name>"`, for humans reading a failure report.
    pub action: String,
}

/// A fault-injecting decorator over any [`StoreBackend`].
///
/// In *seeded* mode ([`FaultBackend::seeded`]) a [`SimRng`] rolls the
/// [`FaultConfig`] probabilities on every operation; in *scripted* mode
/// ([`FaultBackend::scripted`]) only the listed `(operation index, fault)`
/// pairs fire, which replays an interleaving a seeded run discovered (the
/// discovery is [`injected`](FaultBackend::injected)). Operations are
/// serialized through one lock, so with a single-threaded caller the
/// operation sequence — and therefore the injection points — is exactly
/// reproducible.
///
/// Faults only ever *lose or delay* information (a torn suffix, a spurious
/// `already exists`, a stale or failed read); they never invent bytes. That
/// matches the failure model the store protocol claims to survive, which is
/// exactly what the chaos suite asserts.
pub struct FaultBackend {
    inner: Arc<dyn StoreBackend>,
    state: Mutex<FaultState>,
}

struct FaultState {
    rng: SimRng,
    config: FaultConfig,
    script: BTreeMap<u64, Fault>,
    scripted: bool,
    op: u64,
    log: Vec<FaultRecord>,
    /// The superseded value of each overwritten or removed object, served by
    /// [`Fault::StaleRead`].
    shadows: HashMap<String, Vec<u8>>,
}

impl fmt::Debug for FaultBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultBackend")
            .field("inner", &self.inner)
            .finish_non_exhaustive()
    }
}

impl FaultBackend {
    /// A decorator rolling `config`'s probabilities with a [`SimRng`] seeded
    /// from `seed`.
    pub fn seeded(inner: Arc<dyn StoreBackend>, seed: u64, config: FaultConfig) -> FaultBackend {
        FaultBackend {
            inner,
            state: Mutex::new(FaultState {
                rng: SimRng::seed_from(seed),
                config,
                script: BTreeMap::new(),
                scripted: false,
                op: 0,
                log: Vec::new(),
                shadows: HashMap::new(),
            }),
        }
    }

    /// A decorator injecting exactly the scripted faults: `fault` fires on
    /// the zero-based operation with index `op` (when it applies to that
    /// operation's kind), and no others. This is the replay half of the
    /// chaos suite's regression mode.
    pub fn scripted(
        inner: Arc<dyn StoreBackend>,
        script: impl IntoIterator<Item = (u64, Fault)>,
    ) -> FaultBackend {
        FaultBackend {
            inner,
            state: Mutex::new(FaultState {
                rng: SimRng::seed_from(0),
                config: FaultConfig::none(),
                script: script.into_iter().collect(),
                scripted: true,
                op: 0,
                log: Vec::new(),
                shadows: HashMap::new(),
            }),
        }
    }

    /// Every fault that altered an operation so far, in firing order. A
    /// failing seeded run's log *is* the regression script: pass the
    /// `(op, fault)` pairs to [`scripted`](Self::scripted).
    pub fn injected(&self) -> Vec<FaultRecord> {
        self.state.lock().expect("fault backend lock").log.clone()
    }

    /// Operations observed so far (fault decisions consumed).
    pub fn ops(&self) -> u64 {
        self.state.lock().expect("fault backend lock").op
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FaultState> {
        self.state.lock().expect("fault backend lock")
    }
}

impl FaultState {
    /// Consumes one operation slot and decides its fault, if any.
    fn decide(&mut self, op_kind: OpKind) -> Option<Fault> {
        let index = self.op;
        self.op += 1;
        if self.scripted {
            return self
                .script
                .get(&index)
                .copied()
                .filter(|fault| fault.applies_to(op_kind));
        }
        // Roll every category every time, in a fixed order, so the RNG
        // stream (and with it every later decision) is independent of which
        // categories are enabled or applicable.
        let rolls = [
            (Fault::TornWrite, self.config.torn_write_per_mille),
            (Fault::CreateRace, self.config.create_race_per_mille),
            (Fault::StaleRead, self.config.stale_read_per_mille),
            (Fault::TransientError, self.config.transient_error_per_mille),
        ];
        let mut chosen = None;
        for (fault, per_mille) in rolls {
            let hit = self.rng.below(1000) < per_mille as u64;
            if hit && chosen.is_none() && fault.applies_to(op_kind) {
                chosen = Some(fault);
            }
        }
        let latency_hit = self.rng.below(1000) < self.config.latency_per_mille as u64;
        let latency_ms = self.rng.below(self.config.max_latency_ms + 1);
        if chosen.is_none() && latency_hit {
            chosen = Some(Fault::Latency(latency_ms));
        }
        chosen
    }

    fn record(&mut self, fault: Fault, op_kind: OpKind, name: &str) {
        self.log.push(FaultRecord {
            op: self.op - 1,
            fault,
            action: format!("{} {name}", op_kind.verb()),
        });
    }

    fn shadow(&mut self, name: &str, previous: Option<Vec<u8>>) {
        if let Some(previous) = previous {
            self.shadows.insert(name.to_string(), previous);
        }
    }
}

fn injected_error() -> io::Error {
    io::Error::new(io::ErrorKind::Interrupted, "injected transient I/O error")
}

impl StoreBackend for FaultBackend {
    fn label(&self) -> String {
        format!("fault({})", self.inner.label())
    }

    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        let mut state = self.lock();
        match state.decide(OpKind::Read) {
            Some(Fault::TransientError) => {
                state.record(Fault::TransientError, OpKind::Read, name);
                Err(injected_error())
            }
            Some(Fault::StaleRead) => {
                // Only a value that really was superseded can be served
                // stale; with no history the read passes through unlogged.
                match state.shadows.get(name).cloned() {
                    Some(stale) => {
                        state.record(Fault::StaleRead, OpKind::Read, name);
                        Ok(Some(stale))
                    }
                    None => self.inner.read(name),
                }
            }
            Some(Fault::Latency(ms)) => {
                state.record(Fault::Latency(ms), OpKind::Read, name);
                std::thread::sleep(Duration::from_millis(ms));
                self.inner.read(name)
            }
            _ => self.inner.read(name),
        }
    }

    fn put_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let mut state = self.lock();
        let previous = self.inner.read(name).ok().flatten();
        match state.decide(OpKind::Put) {
            Some(Fault::TransientError) => {
                state.record(Fault::TransientError, OpKind::Put, name);
                Err(injected_error())
            }
            Some(Fault::TornWrite) => {
                state.record(Fault::TornWrite, OpKind::Put, name);
                self.inner.put_atomic(name, &bytes[..bytes.len() / 2])?;
                state.shadow(name, previous);
                Ok(())
            }
            Some(Fault::Latency(ms)) => {
                state.record(Fault::Latency(ms), OpKind::Put, name);
                std::thread::sleep(Duration::from_millis(ms));
                self.inner.put_atomic(name, bytes)?;
                state.shadow(name, previous);
                Ok(())
            }
            _ => {
                self.inner.put_atomic(name, bytes)?;
                state.shadow(name, previous);
                Ok(())
            }
        }
    }

    fn create_new(&self, name: &str, bytes: &[u8]) -> io::Result<bool> {
        let mut state = self.lock();
        match state.decide(OpKind::Create) {
            Some(Fault::TransientError) => {
                state.record(Fault::TransientError, OpKind::Create, name);
                Err(injected_error())
            }
            Some(Fault::CreateRace) => {
                state.record(Fault::CreateRace, OpKind::Create, name);
                Ok(false)
            }
            Some(Fault::Latency(ms)) => {
                state.record(Fault::Latency(ms), OpKind::Create, name);
                std::thread::sleep(Duration::from_millis(ms));
                self.inner.create_new(name, bytes)
            }
            _ => self.inner.create_new(name, bytes),
        }
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        let mut state = self.lock();
        match state.decide(OpKind::Remove) {
            Some(Fault::TransientError) => {
                state.record(Fault::TransientError, OpKind::Remove, name);
                Err(injected_error())
            }
            fault => {
                if let Some(Fault::Latency(ms)) = fault {
                    state.record(Fault::Latency(ms), OpKind::Remove, name);
                    std::thread::sleep(Duration::from_millis(ms));
                }
                let previous = self.inner.read(name).ok().flatten();
                self.inner.remove(name)?;
                state.shadow(name, previous);
                Ok(())
            }
        }
    }

    fn list(&self, prefix: &str) -> io::Result<Vec<ObjectMeta>> {
        let mut state = self.lock();
        match state.decide(OpKind::List) {
            Some(Fault::TransientError) => {
                state.record(Fault::TransientError, OpKind::List, prefix);
                Err(injected_error())
            }
            fault => {
                if let Some(Fault::Latency(ms)) = fault {
                    state.record(Fault::Latency(ms), OpKind::List, prefix);
                    std::thread::sleep(Duration::from_millis(ms));
                }
                self.inner.list(prefix)
            }
        }
    }

    fn sweep_temp(&self, grace: Duration) -> io::Result<()> {
        self.inner.sweep_temp(grace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos();
        std::env::temp_dir().join(format!(
            "muontrap-backend-test-{tag}-{}-{nanos}",
            std::process::id()
        ))
    }

    /// Both concrete backends satisfy the same primitive contract.
    fn exercise_contract(backend: &dyn StoreBackend) {
        assert_eq!(backend.read("ab/x.json").unwrap(), None);
        assert!(backend.create_new("ab/x.json", b"one").unwrap());
        assert!(!backend.create_new("ab/x.json", b"two").unwrap());
        assert_eq!(backend.read("ab/x.json").unwrap().unwrap(), b"one");
        backend.put_atomic("ab/x.json", b"three").unwrap();
        assert_eq!(backend.read("ab/x.json").unwrap().unwrap(), b"three");
        backend.put_atomic(".leases/x.lease", b"lease").unwrap();
        let all = backend.list("").unwrap();
        assert_eq!(all.len(), 2);
        let leases = backend.list(".leases/").unwrap();
        assert_eq!(leases.len(), 1);
        assert_eq!(leases[0].name, ".leases/x.lease");
        assert_eq!(leases[0].len, 5);
        backend.remove("ab/x.json").unwrap();
        backend.remove("ab/x.json").unwrap(); // missing is not an error
        assert_eq!(backend.read("ab/x.json").unwrap(), None);
        assert_eq!(backend.list("ab/").unwrap().len(), 0);
    }

    #[test]
    fn fs_backend_satisfies_the_contract() {
        let root = temp_root("contract-fs");
        exercise_contract(&FsBackend::new(&root));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn fs_create_new_is_never_seen_empty() {
        // A lease reader that caught a created-but-unwritten object would
        // take it for abandoned and steal it.
        let root = temp_root("create-new-fs");
        let backend = FsBackend::new(&root);
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for _ in 0..2_000 {
                    assert!(backend.create_new(".leases/r.lease", b"held").unwrap());
                    backend.remove(".leases/r.lease").unwrap();
                }
                stop.store(true, Ordering::Relaxed);
            });
            while !stop.load(Ordering::Relaxed) {
                if let Some(bytes) = backend.read(".leases/r.lease").unwrap() {
                    assert_eq!(bytes, b"held", "read a partially created object");
                }
            }
        });
        assert!(
            backend.list("").unwrap().is_empty(),
            "no temp litter listed"
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn mem_backend_satisfies_the_contract() {
        exercise_contract(&MemBackend::new());
    }

    #[test]
    fn mem_backend_modified_stamps_order_writes() {
        let backend = MemBackend::new();
        backend.put_atomic("aa/1.json", b"first").unwrap();
        backend.put_atomic("aa/2.json", b"second").unwrap();
        backend.put_atomic("aa/1.json", b"rewritten").unwrap();
        let list = backend.list("").unwrap();
        let stamp = |name: &str| {
            list.iter()
                .find(|o| o.name == name)
                .map(|o| o.modified_unix_ms)
                .unwrap()
        };
        assert!(
            stamp("aa/1.json") > stamp("aa/2.json"),
            "a rewrite must refresh the modified stamp"
        );
    }

    #[test]
    fn fault_backend_same_seed_same_injections() {
        let run = || {
            let fault = FaultBackend::seeded(
                Arc::new(MemBackend::new()),
                0xC0FFEE,
                FaultConfig {
                    max_latency_ms: 0,
                    ..FaultConfig::chaos()
                },
            );
            for i in 0..200u32 {
                let name = format!("ab/{i}.json");
                let _ = fault.create_new(&name, b"payload-bytes");
                let _ = fault.put_atomic(&name, b"payload-bytes-longer");
                let _ = fault.read(&name);
                let _ = fault.remove(&name);
            }
            fault.injected()
        };
        let first = run();
        let second = run();
        assert!(!first.is_empty(), "the chaos mix must actually fire");
        assert_eq!(first, second, "one seed must give one interleaving");
    }

    #[test]
    fn scripted_faults_fire_exactly_where_told() {
        let inner = Arc::new(MemBackend::new());
        // Op 0: create -> raced. Op 1: put -> torn. Op 2: read -> stale
        // (no-op here: nothing was ever overwritten). Op 3: read -> error.
        let fault = FaultBackend::scripted(
            inner.clone(),
            [
                (0, Fault::CreateRace),
                (1, Fault::TornWrite),
                (3, Fault::TransientError),
            ],
        );
        assert!(
            !fault.create_new("ab/x.json", b"hello").unwrap(),
            "scripted create race reports already-exists"
        );
        assert_eq!(inner.read("ab/x.json").unwrap(), None, "nothing created");
        fault.put_atomic("ab/x.json", b"0123456789").unwrap();
        assert_eq!(
            fault.read("ab/x.json").unwrap().unwrap(),
            b"01234",
            "torn write persisted only a prefix"
        );
        assert!(fault.read("ab/x.json").is_err(), "scripted transient error");
        assert_eq!(
            fault.read("ab/x.json").unwrap().unwrap(),
            b"01234",
            "off-script operations pass through"
        );
        assert_eq!(fault.injected().len(), 3);
    }

    #[test]
    fn stale_reads_serve_the_superseded_value() {
        let fault = FaultBackend::scripted(
            Arc::new(MemBackend::new()),
            [(2, Fault::StaleRead), (4, Fault::StaleRead)],
        );
        fault.put_atomic("ab/x.json", b"old").unwrap(); // op 0
        fault.put_atomic("ab/x.json", b"new").unwrap(); // op 1
        assert_eq!(
            fault.read("ab/x.json").unwrap().unwrap(), // op 2: stale
            b"old"
        );
        fault.remove("ab/x.json").unwrap(); // op 3
        assert_eq!(
            fault.read("ab/x.json").unwrap().unwrap(), // op 4: stale after remove
            b"new"
        );
        assert_eq!(fault.read("ab/x.json").unwrap(), None, "truth catches up");
    }

    #[test]
    fn a_seeded_log_replays_as_a_script() {
        let config = FaultConfig {
            max_latency_ms: 0,
            ..FaultConfig::chaos()
        };
        let drive = |fault: &FaultBackend| {
            for i in 0..100u32 {
                let name = format!("ab/{i}.json");
                let _ = fault.create_new(&name, b"0123456789abcdef");
                let _ = fault.put_atomic(&name, b"fedcba9876543210");
                let _ = fault.read(&name);
            }
        };
        let seeded = FaultBackend::seeded(Arc::new(MemBackend::new()), 7, config);
        drive(&seeded);
        let log = seeded.injected();
        assert!(!log.is_empty());

        let replay = FaultBackend::scripted(
            Arc::new(MemBackend::new()),
            log.iter().map(|r| (r.op, r.fault)),
        );
        drive(&replay);
        assert_eq!(
            replay.injected(),
            log,
            "replaying a seeded log must reproduce it fault-for-fault"
        );
    }
}
