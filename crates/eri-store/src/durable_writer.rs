//! The store's append path as a crash sees it: a durable [`StoreWriter`]
//! fed whole-block chunks of any size through
//! [`StoreWriter::append_blocks`], cut mid-write, torn inside a commit
//! record, or damaged before a commit that still verifies. The writer
//! tests in the crate root append one block at a time; these feed the
//! way `pastri compress … .eristore` does, resuming from
//! `checkpoint.values` — and a commit sync that fails on the writer's
//! sync helper.

#[cfg(test)]
mod tests {
    use std::fs::File;
    use std::io::{self, Write};
    use std::path::{Path, PathBuf};

    use durable::{Checkpoint, SyncHandle, SyncWrite};
    use pastri::BlockGeometry;

    use crate::tests::{memory_store, patterned_block, tmp};
    use crate::{committed_index, StoreError, StoreWriter, HEADER_LEN};

    const EB: f64 = 1e-9;

    fn geom() -> BlockGeometry {
        BlockGeometry::new(4, 4)
    }

    fn blocks(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|b| patterned_block(geom(), b)).collect()
    }

    /// A store file at `name` fed the first `fed` of `blocks`, `chunk`
    /// blocks per `append_blocks` call, and dropped without `finish` —
    /// the "crash".
    fn interrupted(
        name: &str,
        blocks: &[Vec<f64>],
        fed: usize,
        chunk: usize,
        every: usize,
    ) -> PathBuf {
        let path = tmp(name);
        let mut w = StoreWriter::create_durable(&path, geom(), EB, every).unwrap();
        for batch in blocks[..fed].chunks(chunk) {
            w.append_blocks(&batch.concat()).unwrap();
        }
        path
    }

    /// Files in `path`'s directory whose names extend its own.
    fn sidecars(path: &Path) -> Vec<String> {
        let stem = path.file_name().unwrap().to_string_lossy().into_owned();
        std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with(&stem) && n.len() > stem.len())
            .collect()
    }

    #[test]
    fn durable_output_is_byte_identical_to_plain_writer() {
        // Batching never moves a byte, and a file holds what memory holds.
        let blocks = blocks(23);
        let flat = blocks.concat();
        let bs = geom().block_size();
        for every in [1usize, 3, 100] {
            let path = tmp(&format!("stream-identical-{every}"));
            let mut w = StoreWriter::create_durable(&path, geom(), EB, every).unwrap();
            for chunk in flat.chunks(5 * bs) {
                w.append_blocks(chunk).unwrap();
            }
            assert_eq!(w.finish().unwrap(), 23);
            let bytes = std::fs::read(&path).unwrap();
            let _ = std::fs::remove_file(&path);
            assert_eq!(
                bytes,
                memory_store(geom(), EB, &blocks, every),
                "checkpoint_every={every}"
            );
            let (cp, index) = committed_index(&bytes.as_slice()).unwrap();
            assert_eq!((cp.segments, cp.values), (23, flat.len() as u64));
            assert_eq!(index.blocks.len(), 23);
        }
    }

    #[test]
    fn checkpoints_land_on_batch_boundaries() {
        // Commits fall every 4 blocks whatever the call boundaries (3 per
        // call here): after 9 blocks, two whole batches are committed.
        let blocks = blocks(9);
        let path = interrupted("batch-boundaries", &blocks, 9, 3, 4);
        let bytes = std::fs::read(&path).unwrap();
        let (cp, _) = committed_index(&bytes.as_slice()).unwrap();
        assert_eq!(cp.segments, 8);
        assert_eq!(cp.values, 8 * geom().block_size() as u64);
        let (w, resumed) = StoreWriter::open_for_append(&path, geom(), EB, 4).unwrap();
        assert_eq!(resumed, cp);
        drop(w);
        let mut w = StoreWriter::create_durable(&path, geom(), EB, 4).unwrap();
        w.append_blocks(&blocks.concat()).unwrap();
        assert_eq!(w.finish().unwrap(), 9);
        let (cp, _) = committed_index(&std::fs::read(&path).unwrap().as_slice()).unwrap();
        assert_eq!(cp.segments, 9, "finish commits the pending block");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_writer_lifecycle_leaves_no_sidecar() {
        // No sidecar is ever created, mid-write or after finish: the file
        // alone carries the commits.
        let blocks = blocks(7);
        let path = tmp("stream-lifecycle");
        let mut w = StoreWriter::create_durable(&path, geom(), EB, 2).unwrap();
        w.append_blocks(&blocks[..5].concat()).unwrap();
        assert!(
            sidecars(&path).is_empty(),
            "mid-write: {:?}",
            sidecars(&path)
        );
        w.append_blocks(&blocks[5..].concat()).unwrap();
        w.finish().unwrap();
        assert!(
            sidecars(&path).is_empty(),
            "finished: {:?}",
            sidecars(&path)
        );
        assert_eq!(
            std::fs::read(&path).unwrap(),
            memory_store(geom(), EB, &blocks, 2)
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn interrupted_write_resumes_byte_identical() {
        // The producer skips `checkpoint.values` source values and feeds
        // the rest in chunks of its own; the result is the uninterrupted
        // store.
        let blocks = blocks(31);
        let flat = blocks.concat();
        let bs = geom().block_size();
        let path = interrupted("stream-resume", &blocks, 20, 3, 3);
        let (mut w, cp) = StoreWriter::open_for_append(&path, geom(), EB, 3).unwrap();
        assert!(cp.values > 0, "some batches must have committed");
        assert!(cp.values <= (20 * bs) as u64);
        assert_eq!(cp.values, cp.segments * bs as u64);
        for chunk in flat[cp.values as usize..].chunks(4 * bs) {
            w.append_blocks(chunk).unwrap();
        }
        assert_eq!(w.finish().unwrap(), 31);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            memory_store(geom(), EB, &blocks, 3)
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_with_torn_commit_record_recovers() {
        // The crash tore the last commit record: resume falls back to the
        // commit before it.
        let blocks = blocks(12);
        let path = interrupted("stream-torn-commit", &blocks, 7, 7, 2);
        let mut bytes = std::fs::read(&path).unwrap();
        let (last, _) = committed_index(&bytes.as_slice()).unwrap();
        assert_eq!(last.segments, 6);
        bytes.truncate(last.bytes as usize - 11);
        bytes.extend_from_slice(&[0xEE; 4]); // plus some garbage
        std::fs::write(&path, &bytes).unwrap();

        let (mut w, cp) = StoreWriter::open_for_append(&path, geom(), EB, 2).unwrap();
        assert_eq!(cp.segments, 4, "the previous whole batch");
        w.append_blocks(&blocks[cp.segments as usize..].concat())
            .unwrap();
        w.finish().unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            memory_store(geom(), EB, &blocks, 2)
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_without_a_commit_restarts_from_scratch() {
        // Killed before the first commit, or left with a torn header or
        // garbage: nothing to keep, and the restart writes the store an
        // uninterrupted run writes.
        let blocks = blocks(5);
        let expected = memory_store(geom(), EB, &blocks, 2);
        let path = interrupted("stream-no-commit", &blocks, 1, 1, 2);
        let leftovers = [
            std::fs::read(&path).unwrap(),
            expected[..HEADER_LEN as usize - 3].to_vec(),
            b"ERISTOR5garbage".to_vec(),
        ];
        for leftover in leftovers {
            std::fs::write(&path, &leftover).unwrap();
            let (mut w, cp) = StoreWriter::open_for_append(&path, geom(), EB, 2).unwrap();
            assert_eq!(
                cp,
                Checkpoint::default(),
                "{} leftover bytes",
                leftover.len()
            );
            w.append_blocks(&blocks.concat()).unwrap();
            w.finish().unwrap();
            assert_eq!(
                std::fs::read(&path).unwrap(),
                expected,
                "{} leftover bytes",
                leftover.len()
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn block_damage_before_a_verified_commit_is_invalid_data() {
        // A flipped bit inside a committed block, with a verified commit
        // after it: the commits claim bytes the file no longer holds
        // intact. Corruption, refused, and the file left as it was.
        let blocks = blocks(6);
        let path = interrupted("stream-flipped", &blocks, 6, 2, 1);
        let clean = std::fs::read(&path).unwrap();
        let (_, index) = committed_index(&clean.as_slice()).unwrap();
        assert_eq!(index.blocks.len(), 6);
        for (i, entry) in index.blocks[..5].iter().enumerate() {
            let mut bytes = clean.clone();
            bytes[(entry.offset + entry.len / 2) as usize] ^= 0x10;
            std::fs::write(&path, &bytes).unwrap();
            assert!(
                matches!(
                    StoreWriter::open_for_append(&path, geom(), EB, 1),
                    Err(StoreError::Corrupt { .. })
                ),
                "flip in block {i}"
            );
            assert_eq!(
                std::fs::read(&path).unwrap(),
                bytes,
                "block {i}: nothing trimmed"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn framing_damage_before_a_verified_commit_is_invalid_data() {
        // A flipped header byte — magic, error bound, geometry, striping
        // or its CRC — or a flipped byte in a block's frame (its length,
        // CRC or payload) stops or misleads the walk early; the commits past it still
        // verify, so the file is refused and left as it was.
        let blocks = blocks(6);
        let path = interrupted("stream-framing", &blocks, 6, 6, 2);
        let clean = std::fs::read(&path).unwrap();
        let (_, index) = committed_index(&clean.as_slice()).unwrap();
        let header = [0usize, 7, 8, 16, 24, 32, 36, HEADER_LEN as usize - 1].map(|at| (at, 0x01));
        let frames = index.blocks[..4]
            .iter()
            .flat_map(|e| [0usize, 4, 8].map(|k| (e.offset as usize + k, 0x02)));
        for (at, mask) in header.into_iter().chain(frames) {
            let mut bytes = clean.clone();
            bytes[at] ^= mask;
            std::fs::write(&path, &bytes).unwrap();
            assert!(
                matches!(
                    StoreWriter::open_for_append(&path, geom(), EB, 2),
                    Err(StoreError::Corrupt { .. })
                ),
                "byte {at}, mask {mask:#x}: damage must be refused"
            );
            assert_eq!(
                std::fs::read(&path).unwrap(),
                bytes,
                "byte {at}: nothing trimmed"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    /// A store file whose `fail_at`-th handle sync (from 1) fails the
    /// way a dying disk's does: the bytes written since the last good
    /// sync are gone, and the error comes back.
    struct FailingDisk {
        file: File,
        fail_at: usize,
    }

    impl Write for FailingDisk {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.file.write(buf)
        }

        fn flush(&mut self) -> io::Result<()> {
            self.file.flush()
        }
    }

    impl SyncWrite for FailingDisk {
        fn sync_handle(&self) -> io::Result<SyncHandle> {
            let file = self.file.try_clone()?;
            let (fail_at, mut calls, mut synced) = (self.fail_at, 0, 0);
            Ok(Box::new(move || {
                calls += 1;
                if calls == fail_at {
                    file.set_len(synced)?;
                    return Err(io::Error::other("injected sync failure"));
                }
                file.sync_all()?;
                synced = file.metadata()?.len();
                Ok(())
            }))
        }
    }

    #[test]
    fn a_failed_commit_sync_fails_the_writer_and_resume_keeps_the_last_good_commit() {
        // 12 blocks, 4 per call, a commit every 4: commit k's sync is
        // settled by the call after the one that sealed it — the next
        // `append_blocks` for commits 1 and 2, `finish` for commit 3.
        let blocks = blocks(12);
        let expected = memory_store(geom(), EB, &blocks, 4);
        for fail_at in [2usize, 3] {
            let path = tmp(&format!("failed-sync-{fail_at}"));
            let file = File::create(&path).unwrap();
            let disk = FailingDisk { file, fail_at };
            let mut w = StoreWriter::new(disk, geom(), EB, 4).unwrap();
            let mut calls = blocks.chunks(4).map(<[Vec<f64>]>::concat);
            for batch in calls.by_ref().take(fail_at) {
                w.append_blocks(&batch).unwrap();
            }
            let err = match calls.next() {
                Some(batch) => {
                    let err = w.append_blocks(&batch).unwrap_err();
                    // Every later call fails too, without writing a byte.
                    let len = std::fs::metadata(&path).unwrap().len();
                    assert!(w.append_blocks(&blocks[0]).is_err());
                    assert!(w.finish().is_err());
                    assert_eq!(std::fs::metadata(&path).unwrap().len(), len);
                    err
                }
                None => w.finish().unwrap_err(),
            };
            assert!(err.to_string().contains("injected sync failure"), "{err}");

            let (mut w, cp) = StoreWriter::open_for_append(&path, geom(), EB, 4).unwrap();
            assert_eq!(cp.segments, 4 * (fail_at as u64 - 1), "fail_at {fail_at}");
            w.append_blocks(&blocks[cp.segments as usize..].concat()).unwrap();
            w.finish().unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), expected, "fail_at {fail_at}");
            let _ = std::fs::remove_file(&path);
        }
    }
}
