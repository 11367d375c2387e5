//! End-to-end telemetry: a full compress → decompress round trip with
//! the recorder enabled must produce the documented span taxonomy, the
//! unified counters must mirror what the subsystems report, and — the
//! contract that matters most — telemetry must never change a single
//! output byte.

use std::sync::{Mutex, MutexGuard};

use pastri::{BlockGeometry, Compressor};
use qchem::basis::BfConfig;
use qchem::dataset::EriDataset;

/// Telemetry state is process-global: every test that enables or resets
/// the recorder serializes on this lock.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn dd_dataset(blocks: usize) -> (BlockGeometry, Vec<f64>) {
    let config = BfConfig::parse("(dd|dd)").expect("(dd|dd) parses");
    let ds = EriDataset::generate_model(config, blocks, 42);
    (BlockGeometry::from_dims(config.dims()), ds.values)
}

#[test]
fn round_trip_emits_the_documented_span_taxonomy() {
    let _guard = lock();
    let (geom, data) = dd_dataset(12);
    let compressor = Compressor::new(geom, 1e-10);

    telemetry::reset();
    telemetry::set_enabled(true);
    let bytes = compressor.compress(&data);
    let decoded = pastri::decompress(&bytes).expect("round trip");
    telemetry::set_enabled(false);
    let snap = telemetry::snapshot();

    for (v, d) in data.iter().zip(&decoded) {
        assert!((v - d).abs() <= 1e-10);
    }

    // The stable span contract: every stage of the documented taxonomy
    // shows up, with sane counts and parentage.
    for name in [
        "compress.container",
        "compress.block",
        "compress.pattern_select",
        "compress.quantize",
        "compress.ecq_encode",
        "container.assemble",
        "decompress.container",
    ] {
        assert!(
            snap.spans_named(name).count() > 0,
            "span `{name}` missing from round-trip capture"
        );
    }
    assert_eq!(snap.spans_named("compress.container").count(), 1);
    assert_eq!(snap.spans_named("decompress.container").count(), 1);
    assert_eq!(snap.spans_named("compress.block").count(), 12);
    // Stage spans nest inside a compress.block span on the same thread.
    let blocks: Vec<_> = snap.spans_named("compress.block").collect();
    for stage in snap.spans_named("compress.ecq_encode") {
        assert!(
            blocks.iter().any(|b| b.id == stage.parent),
            "ecq_encode span must be parented to a compress.block span"
        );
    }
    // Durations are concrete: the container span covers its blocks.
    let container = snap.spans_named("compress.container").next().unwrap();
    for b in &blocks {
        assert!(b.dur_ns <= container.dur_ns);
    }
}

#[test]
fn telemetry_never_changes_the_output_bytes() {
    let _guard = lock();
    let (geom, data) = dd_dataset(10);
    let compressor = Compressor::new(geom, 1e-10);

    telemetry::set_enabled(false);
    let disabled = compressor.compress(&data);

    telemetry::reset();
    telemetry::set_enabled(true);
    let enabled = compressor.compress(&data);
    telemetry::set_enabled(false);

    assert_eq!(disabled, enabled, "recorder state must not affect output");
}

#[test]
fn durable_stream_writer_publishes_one_span_per_batch() {
    let _guard = lock();
    let (geom, data) = dd_dataset(8);
    let compressor = Compressor::new(geom, 1e-10);

    telemetry::reset();
    telemetry::set_enabled(true);
    let mut w = pastri::stream::StreamWriter::new(Vec::new(), compressor, 2, 2).expect("writer");
    w.write_values(&data).expect("write");
    let (sink, cp) = w.finish().expect("finish");
    telemetry::set_enabled(false);
    let snap = telemetry::snapshot();

    assert!(!sink.is_empty());
    assert_eq!(cp.segments, 4);
    // 8 blocks at 2 blocks/segment and 2 segments/checkpoint: two full
    // batches, each one span and one commit record; `finish` has no
    // tail left to commit.
    assert_eq!(snap.spans_named("durable.commit_batch").count(), 2);
    assert_eq!(snap.counter("durable.checkpoints"), 2);
}

#[test]
fn fault_injection_is_observable_through_telemetry() {
    let _guard = lock();
    use std::io::Write as _;

    telemetry::reset();
    telemetry::set_enabled(true);

    // Planned SDC: exactly 5 bit flips, observed as exactly 5.
    let mut buf = vec![0u8; 256];
    faults::BitFlipper::new(0, 256, 5, 0xfeed).apply(&mut buf);

    // Crash-budget exhaustion: the kill fires once and is recorded both
    // as a counter and as an instant event.
    let mut w = faults::FaultyWriter::new(
        Vec::new(),
        7,
        faults::WriteFaultConfig {
            kill_after: Some(10),
            torn_kill: true,
            ..Default::default()
        },
    );
    let err = w.write_all(&[0u8; 64]).expect_err("budget must exhaust");
    assert!(faults::is_injected_crash(&err));

    telemetry::set_enabled(false);
    let snap = telemetry::snapshot();
    assert_eq!(snap.counter("faults.bit_flips"), 5);
    assert_eq!(snap.counter("faults.crashes_injected"), 1);
    assert_eq!(snap.counter("faults.crash_budget_exhausted"), 1);
    let event = snap
        .spans_named("faults.crash_budget_exhausted")
        .next()
        .expect("crash event recorded");
    assert_eq!(event.kind, telemetry::RecKind::Event);
}

#[test]
fn durable_fsyncs_are_counted_and_timed() {
    let _guard = lock();
    let dir = std::env::temp_dir().join(format!("telemetry-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fsync-probe.bin");

    telemetry::reset();
    telemetry::set_enabled(true);
    durable::atomic_write(&path, b"payload").expect("atomic write");
    let after_atomic = telemetry::snapshot().counter("durable.fsyncs");
    // A fresh durable stream fsyncs its directory before any write, so
    // the new artifact's entry survives a power loss.
    let stream_path = dir.join("fsync-probe.pstrs");
    let w = pastri::stream::StreamWriter::create(
        &stream_path,
        Compressor::new(BlockGeometry::new(4, 9), 1e-10),
        1,
        1,
    )
    .expect("create durable stream");
    let after_create = telemetry::snapshot().counter("durable.fsyncs");
    drop(w);
    telemetry::set_enabled(false);
    let snap = telemetry::snapshot();
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&stream_path);

    // atomic_write fsyncs the file and its directory.
    assert!(after_atomic >= 2, "{:?}", snap.counters);
    assert!(
        after_create > after_atomic,
        "StreamWriter::create must fsync the parent directory"
    );
    let hist = snap
        .histograms
        .iter()
        .find(|h| h.name == "durable.fsync_us")
        .expect("fsync latency histogram");
    assert_eq!(hist.count, snap.counter("durable.fsyncs"));
    assert!(hist.buckets.iter().sum::<u64>() == hist.count);
}

/// A durable store write's every fsync is counted: the directory at
/// create, one data fsync per checkpoint (its commit record rides in the
/// same file), and the final data fsync after the index and trailer.
#[test]
fn durable_store_counts_its_data_and_journal_fsyncs() {
    let _guard = lock();
    let dir = std::env::temp_dir().join(format!("telemetry-e2e-store-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fsyncs.eristore");
    let (geom, data) = dd_dataset(12);
    let (every, checkpoints) = (4usize, 3u64);

    telemetry::reset();
    telemetry::set_enabled(true);
    let mut w = eri_store::StoreWriter::create_durable(&path, geom, 1e-10, every).unwrap();
    w.append_blocks(&data).unwrap();
    w.finish().unwrap();
    telemetry::set_enabled(false);
    let snap = telemetry::snapshot();
    let _ = std::fs::remove_file(&path);

    assert_eq!(snap.counter("durable.checkpoints"), checkpoints);
    assert_eq!(
        snap.counter("durable.fsyncs"),
        1 + checkpoints + 1,
        "{:?}",
        snap.counters
    );
}

/// Resuming a store whose tail outran its last checkpoint trims the tail
/// and counts it.
#[test]
fn store_resume_over_a_torn_tail_counts_a_truncation() {
    let _guard = lock();
    let dir = std::env::temp_dir().join(format!("telemetry-e2e-store-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("torn.eristore");
    let (geom, data) = dd_dataset(6);
    {
        let mut w = eri_store::StoreWriter::create_durable(&path, geom, 1e-10, 4).unwrap();
        w.append_blocks(&data).unwrap();
        // Dropped unfinished: blocks 4 and 5 are past the checkpoint.
    }

    telemetry::reset();
    telemetry::set_enabled(true);
    let (w, cp) = eri_store::StoreWriter::open_for_append(&path, geom, 1e-10, 4).unwrap();
    telemetry::set_enabled(false);
    let snap = telemetry::snapshot();
    drop(w);
    let _ = std::fs::remove_file(&path);

    assert_eq!(cp.segments, 4);
    assert_eq!(snap.counter("durable.resume_truncations"), 1);
}
