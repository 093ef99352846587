//! Injectable file I/O for the durable index, plus the CRC32 kernel.
//!
//! Everything the save/append path does to the file system goes through
//! the [`PersistIo`] trait: creating and appending to files, fsync,
//! rename, directory sync, unlink. Production uses [`RealIo`]; the
//! crash-recovery tests swap in [`FaultyIo`], which spends one unit of a
//! shared [`FaultBudget`] per byte written and per metadata operation and
//! fails — mid-write, leaving a torn prefix — the moment the budget runs
//! out. Iterating the budget over every event boundary simulates a crash
//! at every byte of the save/append path.

use crate::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use crate::sync::Arc;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

/// CRC-32 (IEEE 802.3, polynomial `0xEDB88320`), table-driven. Matches
/// the ubiquitous zlib/`crc32fast` checksum so segments are inspectable
/// with standard tools. One-shot form of [`Crc32`].
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// Incremental [`crc32`]: feeding the input in any number of pieces
/// yields the one-shot checksum of their concatenation, so a reader can
/// check a block it streams through a small buffer.
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// The checksum state of the empty input.
    pub fn new() -> Self {
        Self(!0)
    }

    /// Extends the checksummed input by `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        static TABLE: crate::sync::OnceLock<[u32; 256]> = crate::sync::OnceLock::new();
        let table = TABLE.get_or_init(|| {
            let mut table = [0u32; 256];
            for (i, slot) in table.iter_mut().enumerate() {
                let mut c = i as u32;
                for _ in 0..8 {
                    c = if c & 1 != 0 {
                        0xEDB8_8320 ^ (c >> 1)
                    } else {
                        c >> 1
                    };
                }
                *slot = c;
            }
            table
        });
        for &b in bytes {
            self.0 = table[((self.0 ^ b as u32) & 0xff) as usize] ^ (self.0 >> 8);
        }
    }

    /// The CRC-32 of everything fed so far.
    pub fn finish(self) -> u32 {
        !self.0
    }
}

/// A writable file that can be forced to stable storage.
pub trait WriteSync: Write + Send {
    /// Flushes userspace buffers and fsyncs the file.
    fn sync(&mut self) -> io::Result<()>;
}

impl WriteSync for File {
    fn sync(&mut self) -> io::Result<()> {
        self.sync_all()
    }
}

/// The file-system surface of the save/append path. Implementations
/// must be usable from multiple threads (`POST /snapshot` runs on a
/// connection worker).
pub trait PersistIo: Send + Sync {
    /// Creates (truncating) a file for writing.
    fn create(&self, path: &Path) -> io::Result<Box<dyn WriteSync>>;
    /// Opens a file for appending, creating it if absent.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn WriteSync>>;
    /// Truncates an existing file to `len` bytes and fsyncs it (open()
    /// clips a torn WAL tail this way before appending again).
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()>;
    /// Atomically renames `from` over `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Fsyncs a directory so a prior rename/create/unlink is durable.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Removes a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
}

/// The production [`PersistIo`]: plain `std::fs`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealIo;

impl PersistIo for RealIo {
    fn create(&self, path: &Path) -> io::Result<Box<dyn WriteSync>> {
        Ok(Box::new(File::create(path)?))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn WriteSync>> {
        Ok(Box::new(
            OpenOptions::new().append(true).create(true).open(path)?,
        ))
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let f = OpenOptions::new().write(true).open(path)?;
        f.set_len(len)?;
        f.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // Windows cannot open directories as files; rename durability is
        // best-effort there. On Unix this is the real dir fsync.
        match File::open(dir) {
            Ok(f) => f.sync_all(),
            Err(_) => Ok(()),
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
}

/// A shared budget of I/O events: each written byte and each metadata
/// operation (create, fsync, rename, unlink) costs one unit. When the
/// budget is exhausted every further operation fails with an "injected
/// fault" error — the moment the simulated machine loses power.
#[derive(Debug)]
pub struct FaultBudget {
    /// Units left; negative once exhausted.
    remaining: AtomicI64,
    /// Units consumed so far (read this from an unlimited run to learn
    /// how many crash points a scenario has).
    consumed: AtomicU64,
}

impl FaultBudget {
    /// A budget that never runs out (counts events only).
    pub fn unlimited() -> Arc<Self> {
        Arc::new(Self {
            remaining: AtomicI64::new(i64::MAX),
            consumed: AtomicU64::new(0),
        })
    }

    /// A budget that fails every operation after `n` units.
    pub fn with_limit(n: u64) -> Arc<Self> {
        Arc::new(Self {
            remaining: AtomicI64::new(n as i64),
            consumed: AtomicU64::new(0),
        })
    }

    /// Total units consumed so far.
    pub fn consumed(&self) -> u64 {
        // relaxed: monotonic test-telemetry counter; readers only need
        // an eventually-consistent total, never cross-thread ordering.
        self.consumed.load(Ordering::Relaxed)
    }

    /// Resets the remaining budget to `n` (`consumed` keeps counting).
    /// Tests use this to model a *transient* I/O failure: exhaust the
    /// budget mid-operation, then refill and prove the writer recovers.
    pub fn refill(&self, n: u64) {
        // relaxed: the budget is a fault-injection knob, not a
        // synchronization point — tests refill from the same thread
        // that drives the writer, so program order already suffices.
        self.remaining.store(n as i64, Ordering::Relaxed);
    }

    /// Tries to spend `n` units; on failure returns how many of them were
    /// still affordable (the torn-write prefix length).
    fn spend(&self, n: u64) -> Result<(), u64> {
        // relaxed: both counters are independent tallies; the return
        // value is derived from the RMW's own atomic result, and no
        // other memory is published through either counter.
        self.consumed.fetch_add(n, Ordering::Relaxed);
        let before = self.remaining.fetch_sub(n as i64, Ordering::Relaxed); // relaxed: ditto
        if before >= n as i64 {
            Ok(())
        } else {
            Err(before.max(0) as u64)
        }
    }
}

fn injected_fault() -> io::Error {
    io::Error::other("injected fault: simulated crash")
}

/// A [`PersistIo`] that debits a [`FaultBudget`] on every operation; file
/// writes go through [`FailpointFile`], which tears the write that
/// crosses the budget boundary.
#[derive(Clone)]
pub struct FaultyIo {
    budget: Arc<FaultBudget>,
}

impl FaultyIo {
    /// Wraps the real file system with `budget`.
    pub fn new(budget: Arc<FaultBudget>) -> Self {
        Self { budget }
    }
}

impl PersistIo for FaultyIo {
    fn create(&self, path: &Path) -> io::Result<Box<dyn WriteSync>> {
        self.budget.spend(1).map_err(|_| injected_fault())?;
        Ok(Box::new(FailpointFile {
            inner: File::create(path)?,
            budget: Arc::clone(&self.budget),
        }))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn WriteSync>> {
        self.budget.spend(1).map_err(|_| injected_fault())?;
        Ok(Box::new(FailpointFile {
            inner: OpenOptions::new().append(true).create(true).open(path)?,
            budget: Arc::clone(&self.budget),
        }))
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        self.budget.spend(1).map_err(|_| injected_fault())?;
        RealIo.truncate(path, len)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.budget.spend(1).map_err(|_| injected_fault())?;
        std::fs::rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.budget.spend(1).map_err(|_| injected_fault())?;
        RealIo.sync_dir(dir)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.budget.spend(1).map_err(|_| injected_fault())?;
        std::fs::remove_file(path)
    }
}

/// A file wrapper that kills the write path at an arbitrary byte
/// boundary: a write crossing the budget boundary persists only its
/// affordable prefix (a torn write), then errors; syncs cost one unit.
pub struct FailpointFile {
    inner: File,
    budget: Arc<FaultBudget>,
}

impl Write for FailpointFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.budget.spend(buf.len() as u64) {
            Ok(()) => self.inner.write(buf),
            Err(affordable) => {
                // Torn write: the prefix reaches the disk, the rest never
                // does, and the caller sees the crash.
                if affordable > 0 {
                    self.inner.write_all(&buf[..affordable as usize])?;
                }
                Err(injected_fault())
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl WriteSync for FailpointFile {
    fn sync(&mut self) -> io::Result<()> {
        self.budget.spend(1).map_err(|_| injected_fault())?;
        self.inner.sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard test vectors for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn incremental_crc_equals_one_shot_over_every_split() {
        let input: Vec<u8> = (0..300u32).map(|i| (i * 37 + i / 7) as u8).collect();
        for len in [0, 1, 2, 9, 64, input.len()] {
            let bytes = &input[..len];
            let want = crc32(bytes);
            // Every two-way split, including the empty prefix and suffix.
            for cut in 0..=len {
                let mut crc = Crc32::new();
                crc.update(&bytes[..cut]);
                crc.update(&bytes[cut..]);
                assert_eq!(crc.finish(), want, "len {len}, cut at {cut}");
            }
            // Fixed-size pieces, as a streaming reader feeds them.
            for piece in 1..=7 {
                let mut crc = Crc32::default();
                for chunk in bytes.chunks(piece) {
                    crc.update(chunk);
                }
                assert_eq!(crc.finish(), want, "len {len}, pieces of {piece}");
            }
        }
    }

    #[test]
    fn fault_budget_tears_writes_at_the_boundary() {
        let dir = std::env::temp_dir().join(format!("les3-io-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn");
        // Budget: 1 (create) + 4 (bytes) → a 10-byte write tears at 4.
        let budget = FaultBudget::with_limit(5);
        let io = FaultyIo::new(budget);
        let mut f = io.create(&path).unwrap();
        let err = f.write(b"0123456789").unwrap_err();
        assert!(err.to_string().contains("injected fault"));
        drop(f);
        assert_eq!(std::fs::read(&path).unwrap(), b"0123");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unlimited_budget_counts_events() {
        let dir = std::env::temp_dir().join(format!("les3-io-count-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("counted");
        let budget = FaultBudget::unlimited();
        let io = FaultyIo::new(Arc::clone(&budget));
        let mut f = io.create(&path).unwrap();
        f.write_all(b"abc").unwrap();
        f.sync().unwrap();
        drop(f);
        io.remove_file(&path).unwrap();
        // create (1) + bytes (3) + sync (1) + unlink (1).
        assert_eq!(budget.consumed(), 6);
        std::fs::remove_dir_all(&dir).ok();
    }
}
