//! A power-loss crash model (after ALICE: Pillai et al., "All File
//! Systems Are Not Created Equal", OSDI 2014). A process kill keeps
//! every written byte; a power loss may lose, tear or reorder any write
//! no fsync covered, and lose a new file whose directory was never
//! fsync'd. [`PowerLossFile`] records one file's history and
//! [`crash_state`](PowerLossFile::crash_state) samples, from a seed,
//! one state the model allows at any point of it:
//!
//! * every synced byte survives;
//! * each write after the last sync independently survives whole, is
//!   torn (a seeded prefix survives) or is lost — a later write can
//!   outlive an earlier one, leaving a hole that reads as zeros;
//! * a file with no directory fsync since its creation may be missing.

use std::io::{self, Write};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use durable::retry::splitmix64;
use durable::{SyncHandle, SyncWrite};

/// One operation a [`PowerLossFile`] recorded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Bytes appended by one `write` call.
    Write(Vec<u8>),
    /// An fsync of the file, through `sync` or the file's sync handle.
    Sync,
    /// An fsync of the file's directory.
    DirSync,
}

/// A recording sink standing for one newly created file: every write,
/// `sync` and directory fsync is logged in order. Clones share the log,
/// so a harness keeps a handle while a writer owns another — and the
/// file's [`SyncHandle`] logs into it from the writer's sync helper.
#[derive(Debug, Clone, Default)]
pub struct PowerLossFile {
    log: Arc<Mutex<Vec<Op>>>,
}

impl PowerLossFile {
    /// A file just created, its directory not yet fsync'd.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an fsync of the file, what a call of its [`SyncHandle`]
    /// does.
    pub fn sync(&self) {
        self.ops().push(Op::Sync);
    }

    /// Records an fsync of the file's directory, where a real writer
    /// calls [`durable::fsync_dir`].
    pub fn sync_dir(&self) {
        self.ops().push(Op::DirSync);
    }

    /// Operations recorded so far: the crash points are
    /// `0..=operations()`.
    #[must_use]
    pub fn operations(&self) -> usize {
        self.ops().len()
    }

    /// Every operation recorded so far, in order.
    #[must_use]
    pub fn history(&self) -> Vec<Op> {
        self.ops().clone()
    }

    /// Every byte written, in order: the file after a clean shutdown.
    #[must_use]
    pub fn contents(&self) -> Vec<u8> {
        self.crash_state_with(usize::MAX, || 0).unwrap_or_default()
    }

    /// One post-crash state after the first `at` operations, drawn from
    /// `seed`: the file's bytes, or `None` when its directory entry was
    /// lost.
    #[must_use]
    pub fn crash_state(&self, at: usize, seed: u64) -> Option<Vec<u8>> {
        let mut state = seed;
        self.crash_state_with(at, move || {
            state = splitmix64(state);
            state
        })
    }

    /// The state after `at` operations where `draw` makes each seeded
    /// choice: 0 keeps everything.
    fn crash_state_with(&self, at: usize, mut draw: impl FnMut() -> u64) -> Option<Vec<u8>> {
        let ops = self.ops();
        let ops = &ops[..at.min(ops.len())];
        if !ops.iter().any(|op| matches!(op, Op::DirSync)) && draw() % 2 == 1 {
            return None;
        }
        let synced = ops.iter().rposition(|op| matches!(op, Op::Sync)).unwrap_or(0);
        let (mut file, mut offset) = (Vec::new(), 0usize);
        for (i, op) in ops.iter().enumerate() {
            let Op::Write(bytes) = op else { continue };
            let keep = match if i < synced { 0 } else { draw() % 3 } {
                0 => bytes.len(),                                     // survives
                1 => (draw() % bytes.len().max(1) as u64) as usize, // torn
                _ => 0,                                               // lost
            };
            if keep > 0 {
                file.resize(file.len().max(offset + keep), 0);
                file[offset..offset + keep].copy_from_slice(&bytes[..keep]);
            }
            offset += bytes.len();
        }
        Some(file)
    }

    fn ops(&self) -> MutexGuard<'_, Vec<Op>> {
        self.log.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Write for PowerLossFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.ops().push(Op::Write(buf.to_vec()));
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl SyncWrite for PowerLossFile {
    fn sync_handle(&self) -> io::Result<SyncHandle> {
        let file = self.clone();
        Ok(Box::new(move || {
            file.sync();
            Ok(())
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synced_bytes_survive_and_unsynced_writes_are_drawn_per_write() {
        let mut f = PowerLossFile::new();
        f.write_all(b"head").unwrap();
        f.sync_dir();
        f.write_all(b"0123").unwrap();
        f.sync();
        f.write_all(b"aaaa").unwrap();
        f.write_all(b"bbbb").unwrap();
        assert_eq!(f.contents(), b"head0123aaaabbbb");
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..200 {
            let state = f.crash_state(f.operations(), seed).expect("the directory was fsync'd");
            assert!(state.starts_with(b"head0123"), "synced bytes lost: {state:?}");
            assert!(state.len() <= 16);
            seen.insert(state);
        }
        // Whole, torn and lost writes, holes included.
        assert!(seen.contains(b"head0123".as_slice()));
        assert!(seen.contains(b"head0123aaaabbbb".as_slice()));
        assert!(seen.contains(b"head0123\0\0\0\0bbbb".as_slice()));
        assert!(seen.iter().any(|s| s.len() > 8 && s.len() < 12));
    }

    #[test]
    fn a_file_without_a_directory_fsync_may_be_missing() {
        let mut f = PowerLossFile::new();
        f.write_all(b"data").unwrap();
        f.sync();
        let missing = (0..64).filter(|&seed| f.crash_state(f.operations(), seed).is_none()).count();
        assert!(missing > 0 && missing < 64, "{missing} of 64");
        f.sync_dir();
        assert!((0..64).all(|seed| f.crash_state(f.operations(), seed) == Some(b"data".to_vec())));
    }

    #[test]
    fn the_sync_handle_logs_into_the_same_history_from_any_thread() {
        let mut f = PowerLossFile::new();
        let mut handle = f.sync_handle().unwrap();
        f.write_all(b"ab").unwrap();
        std::thread::spawn(move || handle().unwrap()).join().unwrap();
        f.write_all(b"cd").unwrap();
        f.sync();
        let ab = Op::Write(b"ab".to_vec());
        assert_eq!(f.history(), [ab, Op::Sync, Op::Write(b"cd".to_vec()), Op::Sync]);
    }
}
