//! The warm-state snapshot cache: run each distinct warm-up once, fork
//! every dependent cell from the captured snapshot.
//!
//! Sweep grids repeat the same expensive warm-up (prefill + aging +
//! refresh churn) for every cell that differs only in a *post*-warm-up
//! axis — fault level, aging level, offered load. The cache keys warm
//! states by a caller-computed fingerprint of everything that *does*
//! influence the warm-up and hands back the serialized simulator bytes,
//! so N sibling cells cost one warm-up instead of N.
//!
//! Guarantees:
//!
//! - **Single-flight**: when two workers need the same stage-2 key
//!   concurrently, exactly one runs the build closure; the other blocks
//!   on a condvar until the snapshot is ready. A build that panics wakes
//!   the waiters and lets the next claimant rebuild — no deadlock, no
//!   poisoned key.
//! - **Determinism-neutral**: the cache stores exactly the bytes the
//!   build closure produced, and [`ida_snap`]'s differential invariant
//!   (restore → run ≡ keep running) means a cache hit is byte-for-byte
//!   indistinguishable from re-running the warm-up. The sweep's
//!   any-worker-count byte-identical aggregate guarantee is preserved.
//! - **Spill/resume**: with a spill directory (the journal directory, in
//!   practice), snapshots are persisted as `{key:016x}.snap` and
//!   revalidated by their [`ida_snap::frame`] header on reload, so a
//!   killed-and-resumed sweep skips even the first warm-up per key.
//!   Corrupt or truncated spill files are ignored and rebuilt.
//! - **Two stages**: an image is either a complete warm state
//!   ([`Stage::Two`], what a cell forks) or the shared first stage of
//!   several of them ([`Stage::One`]), which callers fork to build a
//!   stage-2 image. Stage-1 images never spill, because a resumed run
//!   finds the stage-2 images it needs on disk, and a stage-1 lookup
//!   never waits: one that finds its key being built builds its own
//!   copy, uncaptured. Waiting would idle the worker for the rest of the
//!   build and then cost a fork, about what its own build costs.
//! - **Capture plan**: a lookup may say how many planned reads its key
//!   has in all (the first such count per key sticks). An image is then
//!   captured only while a later read is planned, or when a spill
//!   directory or peer wants it, and leaves memory after its last planned
//!   read. Without a count the cache captures and keeps everything. The
//!   plan is a hint: a wrong count costs a rebuild, never different bytes.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// A remote peer that can serve and accept warm snapshots — in
/// practice the distributed-sweep coordinator, reached over a dedicated
/// fabric connection (see `ida_sweep::net::WarmPort`). Both calls are
/// best-effort: a lost or empty peer degrades to building locally,
/// never to an error, and fetched images are revalidated by their
/// [`ida_snap::frame`] header exactly like spill files.
pub trait WarmRemote: Send {
    /// The snapshot bytes for `key`, if the peer holds them.
    fn fetch(&mut self, key: u64) -> Option<Vec<u8>>;
    /// Offer a freshly built snapshot for `key` to the peer.
    fn publish(&mut self, key: u64, bytes: &[u8]);
}

/// One key's state in the in-memory table.
#[derive(Debug)]
enum Slot {
    /// Some worker is building (or loading) the image right now.
    Building,
    /// The snapshot bytes, shared by every forker.
    Ready(Arc<Vec<u8>>),
}

/// Which warm-up stage an image holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// The shared first stage of several warm-ups; forked only to build
    /// stage-2 images. Never spilled.
    One,
    /// A complete warm state, forked by cells.
    Two,
}

/// The in-memory table: images by key, plus the capture plan.
#[derive(Debug, Default)]
struct Table {
    slots: HashMap<u64, Slot>,
    /// Planned reads still to come, per key that has a plan.
    reads_left: HashMap<u64, u64>,
}

impl Table {
    /// Count one served read of `key`, installing `planned` as its total
    /// on the first sight of a count. Returns the planned reads left
    /// after this one, or `None` when the key has no plan.
    fn read(&mut self, key: u64, planned: Option<u64>) -> Option<u64> {
        let left = match (self.reads_left.get_mut(&key), planned) {
            (Some(left), _) => left,
            (None, Some(n)) => self.reads_left.entry(key).or_insert(n),
            (None, None) => return None,
        };
        *left = left.saturating_sub(1);
        Some(*left)
    }

    /// Whether a later read of `key` is planned (or it has no plan).
    fn reads_remain(&self, key: u64) -> bool {
        self.reads_left.get(&key).is_none_or(|&left| left > 0)
    }
}

/// Hit/miss counters, snapshotted by [`WarmCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmStats {
    /// Served from memory (includes waits on an in-flight build).
    pub hits: u64,
    /// Served by revalidating a spill file from a previous run.
    pub disk_hits: u64,
    /// Served by a remote peer (the sweep coordinator's image store).
    pub remote_hits: u64,
    /// The build closure ran.
    pub misses: u64,
}

impl WarmStats {
    /// Total snapshots served without running a warm-up.
    pub fn total_hits(&self) -> u64 {
        self.hits + self.disk_hits + self.remote_hits
    }
}

/// Stage-1 and capture counters, snapshotted by
/// [`WarmCache::stage_stats`]. [`WarmStats`] counts stage-2 lookups only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageStats {
    /// Stage-1 images built.
    pub stage1_builds: u64,
    /// Stage-1 lookups served from memory, disk or a peer.
    pub stage1_forks: u64,
    /// Built images handed to the cache (either stage).
    pub captured: u64,
    /// Images evicted from memory after their last planned read.
    pub dropped: u64,
}

/// A keyed, single-flight cache of serialized warm simulator states.
pub struct WarmCache {
    table: Mutex<Table>,
    ready: Condvar,
    spill: Option<PathBuf>,
    remote: Mutex<Option<Box<dyn WarmRemote>>>,
    hits: AtomicU64,
    disk_hits: AtomicU64,
    remote_hits: AtomicU64,
    misses: AtomicU64,
    stage1_builds: AtomicU64,
    stage1_forks: AtomicU64,
    captured: AtomicU64,
    dropped: AtomicU64,
}

impl std::fmt::Debug for WarmCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WarmCache")
            .field("spill", &self.spill)
            .field("remote", &self.remote.lock().unwrap().is_some())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

/// What [`WarmCache::lookup`] found.
#[derive(Debug)]
pub enum Lookup<'a> {
    /// The image, from memory, a spill file or a peer.
    Hit(Arc<Vec<u8>>),
    /// No one holds the image: the caller builds it and reports through
    /// the claim. Concurrent stage-2 lookups of the key wait until it
    /// settles.
    Build(BuildClaim<'a>),
}

/// The right to build one key's image, returned by [`WarmCache::lookup`].
/// Usually exclusive: dropping it unfinished (a build that panics) frees
/// the key and wakes every waiter, so one of them can re-claim it. A
/// stage-1 lookup that finds its key being built gets a claim on a
/// private copy instead, which never touches the key.
#[derive(Debug)]
pub struct BuildClaim<'a> {
    cache: &'a WarmCache,
    key: u64,
    stage: Stage,
    /// Whether this claim holds the key's `Building` slot.
    owner: bool,
    armed: bool,
}

impl BuildClaim<'_> {
    /// Whether the cache wants the built image: a later read is planned
    /// (or there is no plan), or a spill directory or peer takes it.
    /// When this is `false` the builder can skip capturing altogether.
    pub fn wants_image(&self) -> bool {
        (self.owner && self.cache.table().reads_remain(self.key))
            || (self.stage == Stage::Two && self.cache.spill.is_some())
            || self
                .cache
                .remote
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .is_some()
    }

    /// Record a finished build and hand over its image, if captured:
    /// it is offered to the peer, spilled (stage 2) and, by the key's
    /// owner, kept in memory while later reads are planned. Returns the
    /// shared image.
    pub fn finish(mut self, image: Option<Vec<u8>>) -> Option<Arc<Vec<u8>>> {
        let builds = match self.stage {
            Stage::One => &self.cache.stage1_builds,
            Stage::Two => &self.cache.misses,
        };
        builds.fetch_add(1, Ordering::Relaxed);
        let image = image.map(Arc::new);
        if let Some(bytes) = &image {
            self.cache.captured.fetch_add(1, Ordering::Relaxed);
            // Only a locally built image is offered to the peer — a
            // fetched one is already there by definition.
            self.cache.publish_remote(self.key, bytes);
            if self.stage == Stage::Two {
                self.cache.store_spill(self.key, bytes);
            }
        }
        self.settle(image.clone());
        image
    }

    /// Leave an owned key `Ready` with `image` while later reads are
    /// planned, or free it, and wake the waiters.
    fn settle(&mut self, image: Option<Arc<Vec<u8>>>) {
        if !self.owner {
            return;
        }
        let mut table = self.cache.table();
        match image.filter(|_| table.reads_remain(self.key)) {
            Some(bytes) => table.slots.insert(self.key, Slot::Ready(bytes)),
            None => table.slots.remove(&self.key),
        };
        self.armed = false;
        self.cache.ready.notify_all();
    }
}

impl Drop for BuildClaim<'_> {
    fn drop(&mut self) {
        if self.armed {
            let mut table = self.cache.table();
            table.slots.remove(&self.key);
            self.cache.ready.notify_all();
        }
    }
}

/// Keep freed multi-megabyte blocks inside the process instead of
/// returning them to the kernel.
///
/// A warm-cached sweep allocates and frees a decoded simulator image
/// (tens of MB of page map, OOB store and block table) once per cell.
/// glibc serves blocks that big from dedicated `mmap` regions and
/// `munmap`s them on free, so every cell re-faults its whole working
/// set; under a virtualized kernel (where a minor fault costs tens of
/// microseconds, not one) that page churn was costing more system time
/// than the cache saved in user time. Raising `M_MMAP_THRESHOLD` routes
/// the blocks through the ordinary heap and raising `M_TRIM_THRESHOLD`
/// stops `free` from shrinking the heap top between cells — after the
/// first few cells the whole per-cell working set is recycled without a
/// single fault. Both are best-effort process-wide hints: sizing is
/// unchanged, only *where* the bytes come from, so this is invisible to
/// results. No-op off glibc.
fn retain_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        // Values from glibc's malloc.h; the libc crate is not a
        // dependency, so declare mallopt directly.
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        // SAFETY: mallopt only adjusts allocator tuning parameters; it
        // touches no caller-owned memory and is safe at any point.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 64 << 20);
            mallopt(M_TRIM_THRESHOLD, 512 << 20);
        }
    }
}

impl WarmCache {
    /// A cache, optionally spilling snapshots under `spill` (created if
    /// absent; spill failures degrade to memory-only, never to errors).
    pub fn new(spill: Option<PathBuf>) -> Self {
        retain_freed_memory();
        let spill = spill.filter(|dir| std::fs::create_dir_all(dir).is_ok());
        WarmCache {
            table: Mutex::new(Table::default()),
            ready: Condvar::new(),
            spill,
            remote: Mutex::new(None),
            hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            remote_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stage1_builds: AtomicU64::new(0),
            stage1_forks: AtomicU64::new(0),
            captured: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Attach a remote snapshot peer (builder-style, before the cache is
    /// shared). Once attached, a local miss consults the peer before
    /// running the build closure, and locally built snapshots are
    /// offered back so other workers on the fabric can fork them.
    pub fn with_remote(self, remote: Box<dyn WarmRemote>) -> Self {
        *self.remote.lock().unwrap() = Some(remote);
        self
    }

    /// The snapshot for `key`, building it with `build` exactly once per
    /// key no matter how many workers ask concurrently. The image is
    /// always captured; it stays in memory unless the key's plan says
    /// this was its last read.
    pub fn get_or_build(&self, key: u64, build: impl FnOnce() -> Vec<u8>) -> Arc<Vec<u8>> {
        match self.lookup(key, Stage::Two, None) {
            Lookup::Hit(bytes) => bytes,
            Lookup::Build(claim) => claim
                .finish(Some(build()))
                .expect("a handed-over image is returned"),
        }
    }

    /// Look `key` up as one read of a `stage` image, with `planned` the
    /// key's total planned reads (`None`: no plan). Single-flight for
    /// stage 2: while one caller holds the [`BuildClaim`], other lookups
    /// of the key wait. A miss tries the spill file (stage 2) and then
    /// the peer, outside the table lock, before handing the caller a
    /// claim.
    pub fn lookup(&self, key: u64, stage: Stage, planned: Option<u64>) -> Lookup<'_> {
        let owner = {
            let mut table = self.table();
            loop {
                match table.slots.get(&key) {
                    Some(Slot::Ready(bytes)) => {
                        let bytes = bytes.clone();
                        if table.read(key, planned) == Some(0) {
                            table.slots.remove(&key);
                            self.dropped.fetch_add(1, Ordering::Relaxed);
                        }
                        self.count_hit(stage, &self.hits);
                        return Lookup::Hit(bytes);
                    }
                    Some(Slot::Building) if stage == Stage::Two => {
                        table = self
                            .ready
                            .wait(table)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                    Some(Slot::Building) => {
                        table.read(key, planned);
                        break false;
                    }
                    None => {
                        table.read(key, planned);
                        table.slots.insert(key, Slot::Building);
                        break true;
                    }
                }
            }
        };
        let mut claim = BuildClaim {
            cache: self,
            key,
            stage,
            owner,
            armed: owner,
        };
        if !owner {
            return Lookup::Build(claim);
        }
        // Disk, then peer: dearer than memory, far cheaper than a build.
        let from_disk = match stage {
            Stage::One => None,
            Stage::Two => self.load_spill(key),
        };
        let loaded = match from_disk {
            Some(bytes) => Some((bytes, &self.disk_hits)),
            None => self.fetch_remote(key).map(|bytes| {
                if stage == Stage::Two {
                    self.store_spill(key, &bytes);
                }
                (bytes, &self.remote_hits)
            }),
        };
        match loaded {
            Some((bytes, counter)) => {
                self.count_hit(stage, counter);
                let bytes = Arc::new(bytes);
                claim.settle(Some(bytes.clone()));
                Lookup::Hit(bytes)
            }
            None => Lookup::Build(claim),
        }
    }

    /// The table. Every update is a single insert or remove, so a table
    /// whose lock a panicking thread poisoned is still consistent.
    fn table(&self) -> MutexGuard<'_, Table> {
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Count a stage-2 hit on `counter`, or any stage-1 hit as a fork.
    fn count_hit(&self, stage: Stage, counter: &AtomicU64) {
        let counter = match stage {
            Stage::One => &self.stage1_forks,
            Stage::Two => counter,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> WarmStats {
        WarmStats {
            hits: self.hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            remote_hits: self.remote_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Stage-1 and capture counter snapshot.
    pub fn stage_stats(&self) -> StageStats {
        StageStats {
            stage1_builds: self.stage1_builds.load(Ordering::Relaxed),
            stage1_forks: self.stage1_forks.load(Ordering::Relaxed),
            captured: self.captured.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
        }
    }

    /// Images held in memory right now.
    pub fn images_held(&self) -> usize {
        self.table()
            .slots
            .values()
            .filter(|s| matches!(s, Slot::Ready(_)))
            .count()
    }

    /// A one-line human/CI-greppable summary, e.g.
    /// `warm-cache: 66 hits (0 from disk, 0 from peers), 22 misses (22 warm-ups for 88 cells)`,
    /// followed, once stage-1 images were looked up, by
    /// `; stage 1: 11 builds for 88 cells (11 forks), 33 images captured, 33 dropped`.
    pub fn stats_line(&self, cells: usize) -> String {
        let s = self.stats();
        let mut line = format!(
            "warm-cache: {} hits ({} from disk, {} from peers), {} misses ({} warm-ups for {} cells)",
            s.total_hits(),
            s.disk_hits,
            s.remote_hits,
            s.misses,
            s.misses,
            cells
        );
        let st = self.stage_stats();
        if st.stage1_builds + st.stage1_forks > 0 {
            line.push_str(&format!(
                "; stage 1: {} builds for {} cells ({} forks), {} images captured, {} dropped",
                st.stage1_builds, cells, st.stage1_forks, st.captured, st.dropped
            ));
        }
        line
    }

    /// A frame-valid snapshot from the remote peer, if one is attached
    /// and holds the key. Invalid bytes are dropped, same as corrupt
    /// spill files.
    fn fetch_remote(&self, key: u64) -> Option<Vec<u8>> {
        let mut remote = self.remote.lock().unwrap();
        let bytes = remote.as_mut()?.fetch(key)?;
        ida_snap::frame::open(&bytes).ok()?;
        Some(bytes)
    }

    /// Best-effort offer of a locally built snapshot to the peer.
    fn publish_remote(&self, key: u64, bytes: &[u8]) {
        if let Some(remote) = self.remote.lock().unwrap().as_mut() {
            remote.publish(key, bytes);
        }
    }

    fn spill_path(&self, key: u64) -> Option<PathBuf> {
        self.spill
            .as_ref()
            .map(|d| d.join(format!("{key:016x}.snap")))
    }

    /// A spilled snapshot, if present and frame-valid (magic, version,
    /// length and content hash all check out). Anything else — missing,
    /// torn write, corruption — means "rebuild".
    fn load_spill(&self, key: u64) -> Option<Vec<u8>> {
        let path = self.spill_path(key)?;
        let bytes = std::fs::read(&path).ok()?;
        ida_snap::frame::open(&bytes).ok()?;
        Some(bytes)
    }

    /// Persist via temp-file + rename so resumed runs never see a torn
    /// spill file. Failures are silently tolerated (memory still works).
    fn store_spill(&self, key: u64, bytes: &[u8]) {
        let Some(path) = self.spill_path(key) else {
            return;
        };
        let tmp = path.with_extension("snap.tmp");
        if std::fs::write(&tmp, bytes).is_ok() && std::fs::rename(&tmp, &path).is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
    }
}

/// Spill directory for a sweep journal at `journal`: a `warm/` sibling
/// next to the journal file, so `--resume` runs find their snapshots.
pub fn spill_dir_for_journal(journal: &Path) -> PathBuf {
    journal
        .parent()
        .unwrap_or_else(|| Path::new("."))
        .join("warm")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn payload(tag: u8) -> Vec<u8> {
        ida_snap::frame::seal(&[tag; 64])
    }

    #[test]
    fn second_lookup_hits() {
        let cache = WarmCache::new(None);
        let built = AtomicU32::new(0);
        let make = || {
            built.fetch_add(1, Ordering::SeqCst);
            payload(7)
        };
        let a = cache.get_or_build(42, make);
        let b = cache.get_or_build(42, || unreachable!("second lookup must hit"));
        assert_eq!(a, b);
        assert_eq!(built.load(Ordering::SeqCst), 1);
        assert_eq!(
            cache.stats(),
            WarmStats {
                hits: 1,
                disk_hits: 0,
                remote_hits: 0,
                misses: 1
            }
        );
    }

    #[test]
    fn concurrent_same_key_builds_once() {
        let cache = Arc::new(WarmCache::new(None));
        let built = Arc::new(AtomicU32::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = cache.clone();
            let built = built.clone();
            handles.push(std::thread::spawn(move || {
                cache.get_or_build(9, || {
                    built.fetch_add(1, Ordering::SeqCst);
                    // Widen the race window so waiters really block.
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    payload(9)
                })
            }));
        }
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(built.load(Ordering::SeqCst), 1, "single-flight violated");
        assert!(results.windows(2).all(|w| w[0] == w[1]));
        let s = cache.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 7);
    }

    #[test]
    fn panicking_build_releases_the_key() {
        let cache = Arc::new(WarmCache::new(None));
        let crash = {
            let cache = cache.clone();
            std::thread::spawn(move || {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    cache.get_or_build(5, || panic!("builder died"));
                }));
            })
        };
        crash.join().unwrap();
        // The key is free again: the next claimant rebuilds, no deadlock.
        let bytes = cache.get_or_build(5, || payload(5));
        assert_eq!(*bytes, payload(5));
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn spill_survives_a_new_cache_and_rejects_corruption() {
        let dir = std::env::temp_dir().join(format!("ida-warm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let first = WarmCache::new(Some(dir.clone()));
        let bytes = first.get_or_build(0xAB, || payload(1));
        assert_eq!(first.stats().misses, 1);

        // A fresh cache (resumed run) finds the spill file.
        let resumed = WarmCache::new(Some(dir.clone()));
        let reloaded = resumed.get_or_build(0xAB, || unreachable!("spill must hit"));
        assert_eq!(bytes, reloaded);
        assert_eq!(
            resumed.stats(),
            WarmStats {
                hits: 0,
                disk_hits: 1,
                remote_hits: 0,
                misses: 0
            }
        );

        // Corrupt the spill file: the next fresh cache rebuilds.
        let path = dir.join(format!("{:016x}.snap", 0xAB_u64));
        let mut raw = std::fs::read(&path).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();
        let rebuilt = WarmCache::new(Some(dir.clone()));
        let again = rebuilt.get_or_build(0xAB, || payload(2));
        assert_eq!(*again, payload(2));
        assert_eq!(rebuilt.stats().misses, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_line_is_greppable() {
        let cache = WarmCache::new(None);
        cache.get_or_build(1, || payload(1));
        cache.get_or_build(1, || unreachable!());
        cache.get_or_build(2, || payload(2));
        assert_eq!(
            cache.stats_line(3),
            "warm-cache: 1 hits (0 from disk, 0 from peers), 2 misses (2 warm-ups for 3 cells)"
        );
    }

    #[test]
    fn two_threads_share_one_spill_load() {
        let dir = std::env::temp_dir().join(format!("ida-warm-2t-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        WarmCache::new(Some(dir.clone())).get_or_build(0xCD, || payload(4));

        let resumed = Arc::new(WarmCache::new(Some(dir.clone())));
        let start = Arc::new(std::sync::Barrier::new(2));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let (cache, start) = (resumed.clone(), start.clone());
                std::thread::spawn(move || {
                    start.wait();
                    cache.get_or_build(0xCD, || unreachable!("spill must serve both"))
                })
            })
            .collect();
        for h in handles {
            assert_eq!(*h.join().unwrap(), payload(4));
        }
        // One thread read the file; the other waited on its claim and
        // found the image in memory.
        assert_eq!(
            resumed.stats(),
            WarmStats {
                hits: 1,
                disk_hits: 1,
                remote_hits: 0,
                misses: 0
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn planned_reads_decide_capture_and_eviction() {
        let cache = WarmCache::new(None);
        // One planned read: the builder is the only reader.
        let Lookup::Build(claim) = cache.lookup(1, Stage::Two, Some(1)) else {
            panic!("empty cache must miss");
        };
        assert!(!claim.wants_image());
        assert_eq!(claim.finish(None), None);
        assert_eq!(cache.images_held(), 0);

        // Three planned reads: captured, forked twice, then evicted.
        let Lookup::Build(claim) = cache.lookup(2, Stage::One, Some(3)) else {
            panic!("empty cache must miss");
        };
        assert!(claim.wants_image());
        claim.finish(Some(payload(2)));
        assert_eq!(cache.images_held(), 1);
        for _ in 0..2 {
            assert!(matches!(
                cache.lookup(2, Stage::One, Some(3)),
                Lookup::Hit(_)
            ));
        }
        assert_eq!(cache.images_held(), 0);
        // A read beyond the plan (a retried cell) rebuilds, uncaptured.
        let Lookup::Build(claim) = cache.lookup(2, Stage::One, Some(3)) else {
            panic!("evicted key must miss");
        };
        assert!(!claim.wants_image());
        claim.finish(None);

        assert_eq!(cache.stats().misses, 1);
        assert_eq!(
            cache.stage_stats(),
            StageStats {
                stage1_builds: 2,
                stage1_forks: 2,
                captured: 1,
                dropped: 1
            }
        );
        assert_eq!(
            cache.stats_line(4),
            "warm-cache: 0 hits (0 from disk, 0 from peers), 1 misses (1 warm-ups for 4 cells); \
             stage 1: 2 builds for 4 cells (2 forks), 1 images captured, 1 dropped"
        );
    }

    #[test]
    fn stage1_lookups_never_wait_for_a_build() {
        let cache = WarmCache::new(None);
        let Lookup::Build(owner) = cache.lookup(7, Stage::One, Some(2)) else {
            panic!("empty cache must miss");
        };
        // A second reader arrives mid-build (waiting here would hang the
        // test): it gets a claim on a private copy at once.
        let Lookup::Build(private) = cache.lookup(7, Stage::One, Some(2)) else {
            panic!("a key being built must not hit");
        };
        assert!(!private.wants_image());
        assert_eq!(private.finish(None), None);
        // Both planned reads are served, so the owner need not capture.
        assert!(!owner.wants_image());
        owner.finish(None);
        assert_eq!(cache.images_held(), 0);
        assert_eq!(cache.stage_stats().stage1_builds, 2);
    }

    #[test]
    fn spill_forces_stage_two_capture_and_no_plan_captures_all() {
        let dir = std::env::temp_dir().join(format!("ida-warm-plan-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spilling = WarmCache::new(Some(dir.clone()));
        let Lookup::Build(two) = spilling.lookup(1, Stage::Two, Some(1)) else {
            panic!("empty cache must miss");
        };
        assert!(two.wants_image(), "stage-2 images spill");
        two.finish(Some(payload(1)));
        assert_eq!(spilling.images_held(), 0, "spilled, not kept");
        let Lookup::Build(one) = spilling.lookup(2, Stage::One, Some(1)) else {
            panic!("empty cache must miss");
        };
        assert!(!one.wants_image(), "stage-1 images never spill");
        drop(one);

        let unplanned = WarmCache::new(None);
        let Lookup::Build(claim) = unplanned.lookup(3, Stage::Two, None) else {
            panic!("empty cache must miss");
        };
        assert!(claim.wants_image());
        claim.finish(Some(payload(3)));
        assert_eq!(unplanned.images_held(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An in-memory [`WarmRemote`] stand-in recording the traffic.
    struct FakePeer {
        images: HashMap<u64, Vec<u8>>,
        published: Vec<u64>,
    }

    impl WarmRemote for FakePeer {
        fn fetch(&mut self, key: u64) -> Option<Vec<u8>> {
            self.images.get(&key).cloned()
        }
        fn publish(&mut self, key: u64, bytes: &[u8]) {
            self.published.push(key);
            self.images.insert(key, bytes.to_vec());
        }
    }

    #[test]
    fn remote_peer_is_consulted_before_building_and_offered_local_builds() {
        let peer = FakePeer {
            // Key 1 is on the peer; key 3 is on the peer but corrupt.
            images: HashMap::from([(1, payload(11)), (3, b"garbage".to_vec())]),
            published: Vec::new(),
        };
        let cache = WarmCache::new(None).with_remote(Box::new(peer));

        // Peer hit: the build closure must not run.
        let fetched = cache.get_or_build(1, || unreachable!("peer must serve key 1"));
        assert_eq!(*fetched, payload(11));

        // Peer miss: build locally, then offer the image back.
        let built = cache.get_or_build(2, || payload(22));
        assert_eq!(*built, payload(22));

        // Corrupt peer image: rejected by frame validation, rebuilt.
        let rebuilt = cache.get_or_build(3, || payload(33));
        assert_eq!(*rebuilt, payload(33));

        assert_eq!(
            cache.stats(),
            WarmStats {
                hits: 0,
                disk_hits: 0,
                remote_hits: 1,
                misses: 2
            }
        );
    }

    #[test]
    fn journal_spill_dir_is_a_sibling() {
        assert_eq!(
            spill_dir_for_journal(Path::new("/tmp/run/journal.jsonl")),
            PathBuf::from("/tmp/run/warm")
        );
        assert_eq!(
            spill_dir_for_journal(Path::new("j.jsonl")),
            PathBuf::from("warm")
        );
    }
}
