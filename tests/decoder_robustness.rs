//! Fuzz-style robustness: every decoder in the workspace must return an
//! error (never panic, hang, or blow up memory) on arbitrary byte soup —
//! with and without valid-looking magic prefixes. Length fields are
//! attacker-controlled input: decoders must validate them against the
//! bytes actually present *before* allocating.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::OnceLock;

use proptest::prelude::*;
use pastri::{BlockGeometry, Compressor};

/// The system allocator, noting the largest single request each thread
/// makes, so a case can bound what a decoder allocates.
struct Largest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; `note` only updates a thread-local counter and never
// allocates.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Largest = Largest;

/// The largest single allocation `f` makes on this thread.
fn largest_allocation(f: impl FnOnce()) -> usize {
    LARGEST.with(|l| l.set(0));
    f();
    LARGEST.with(Cell::get)
}

/// A valid stream (commit frames every 2 segments, no terminator yet)
/// and a finished store (commits every 3 blocks), built once.
fn valid_artifacts() -> &'static (Vec<u8>, Vec<u8>) {
    static ARTIFACTS: OnceLock<(Vec<u8>, Vec<u8>)> = OnceLock::new();
    ARTIFACTS.get_or_init(|| {
        let geometry = BlockGeometry::new(4, 9);
        let values: Vec<f64> = (0..36 * 8).map(|i| (f64::from(i % 53) * 0.23).sin() * 4e-6).collect();
        let mut stream = Vec::new();
        let mut w = pastri::stream::StreamWriter::new(&mut stream, Compressor::new(geometry, 1e-9), 1, 2)
            .unwrap();
        w.write_values(&values).unwrap();
        drop(w);
        let mut store = Vec::new();
        let mut w = eri_store::StoreWriter::new(&mut store, geometry, 1e-9, 3).unwrap();
        w.append_blocks(&values).unwrap();
        w.finish().unwrap();
        (stream, store)
    })
}

/// One damage `kind` at `seed` applied to a copy of `valid`: a bit flip,
/// a truncation, an inflated length field (eight 0xFF bytes), or a
/// stream whose first segment claims about 2^35 bytes.
fn mutated(valid: &[u8], kind: u8, seed: usize) -> Vec<u8> {
    let mut bytes = valid.to_vec();
    let at = seed % bytes.len();
    match kind {
        0 => bytes[at] ^= 1 << (seed % 8),
        1 => bytes.truncate(at),
        2 => {
            let end = (at + 8).min(bytes.len());
            bytes[at..end].fill(0xFF);
        }
        _ => bytes.splice(6..7, [0xFF, 0xFF, 0xFF, 0xFF, 0x7F]).for_each(drop),
    }
    bytes
}

fn soup() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..4096)
}

/// A valid `json_lines` export carrying every record type (meta,
/// span, counter, gauge, histogram, journal event), recorded once.
fn telemetry_export() -> &'static str {
    static EXPORT: OnceLock<String> = OnceLock::new();
    EXPORT.get_or_init(|| {
        telemetry::reset();
        telemetry::set_enabled(true);
        {
            let _span = telemetry::span("fuzz.span");
            telemetry::counter_add("fuzz.counter", 3);
            telemetry::gauge_set("fuzz.gauge", -2);
            telemetry::observe_us("fuzz.us", 17);
            telemetry::journal("fuzz.event", 1, 2);
        }
        let snap = telemetry::snapshot();
        telemetry::set_enabled(false);
        telemetry::export::json_lines(&snap)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pastri_decoder_never_panics(mut bytes in soup(), with_magic in any::<bool>()) {
        if with_magic && bytes.len() >= 4 {
            bytes[..4].copy_from_slice(b"PSTR");
        }
        let _ = pastri::decompress(&bytes);
        let _ = pastri::inspect(&bytes);
        let _ = pastri::inspect_prefix(&bytes);
        let _ = pastri::container_bit_stats(&bytes);
    }

    #[test]
    fn pastri_stream_decoder_never_panics(mut bytes in soup(), with_magic in any::<bool>()) {
        if with_magic && bytes.len() >= 6 {
            bytes[..6].copy_from_slice(b"PSTRS\x01");
        }
        if let Ok(mut r) = pastri::stream::StreamReader::new(bytes.as_slice()) {
            // Bounded iteration: corrupted streams must terminate.
            for _ in 0..64 {
                match r.next_segment() {
                    Ok(Some(_)) => {}
                    _ => break,
                }
            }
        }
    }

    #[test]
    fn pastri_lossy_decoder_never_panics(mut bytes in soup(), version in 1u8..3) {
        if bytes.len() >= 5 {
            bytes[..4].copy_from_slice(b"PSTR");
            bytes[4] = version; // exercise both the v1 and v2 paths
        }
        if let Ok(lossy) = pastri::decompress_lossy(&bytes) {
            // Whatever survives must be internally consistent.
            assert_eq!(
                lossy.damaged(),
                lossy.outcomes.iter().filter(|o| o.error.is_some()).count()
            );
        }
    }

    #[test]
    fn stream_skip_and_salvage_never_panic(mut bytes in soup(), with_magic in any::<bool>()) {
        if with_magic && bytes.len() >= 6 {
            bytes[..6].copy_from_slice(b"PSTRS\x02");
        }
        if let Ok(mut r) = pastri::stream::StreamReader::new(bytes.as_slice()) {
            for _ in 0..64 {
                match r.next_segment_or_skip() {
                    Ok(Some(_)) => {}
                    _ => break,
                }
            }
        }
        // Salvage of soup must never panic, and when it succeeds its
        // output must be a valid stream.
        let mut sink = Vec::new();
        if pastri::stream::salvage(bytes.as_slice(), &mut sink).is_ok() {
            let mut r = pastri::stream::StreamReader::new(sink.as_slice()).unwrap();
            while let Ok(Some(_)) = r.next_segment() {}
        }
    }

    #[test]
    fn eri_store_reader_never_panics(mut bytes in soup(), with_magic in any::<bool>()) {
        if with_magic && bytes.len() >= 8 {
            bytes[..8].copy_from_slice(b"ERISTOR2");
        }
        if let Ok(store) = eri_store::StoreReader::from_source(
            &bytes[..],
            eri_store::RetryPolicy::none(),
        ) {
            let _ = store.scrub();
        }
    }

    #[test]
    fn sz_decoder_never_panics(mut bytes in soup(), with_magic in any::<bool>()) {
        if with_magic && bytes.len() >= 4 {
            bytes[..4].copy_from_slice(b"SZ1D");
        }
        let _ = sz_lossy::decompress(&bytes);
    }

    #[test]
    fn zfp_decoder_never_panics(mut bytes in soup(), with_magic in any::<bool>()) {
        if with_magic && bytes.len() >= 4 {
            bytes[..4].copy_from_slice(b"ZFP1");
        }
        let _ = zfp_lossy::decompress(&bytes);
    }

    #[test]
    fn lossless_decoders_never_panic(mut bytes in soup(), kind in 0u8..2) {
        match kind {
            0 => {
                if bytes.len() >= 4 {
                    bytes[..4].copy_from_slice(b"FPC0");
                }
                let _ = lossless::fpc::decompress(&bytes);
            }
            _ => {
                if bytes.len() >= 4 {
                    bytes[..4].copy_from_slice(b"DFL0");
                }
                let _ = lossless::deflate_like::decompress(&bytes);
            }
        }
    }

    #[test]
    fn huffman_table_reader_never_panics(bytes in soup()) {
        let mut pos = 0;
        let _ = codecs::huffman::HuffmanCode::read_table(&bytes, &mut pos);
        let _ = codecs::huffman::decode_stream(&bytes);
    }

    #[test]
    fn checkpoint_journal_scan_never_panics(
        soup in soup(),
        source in 0u8..3,
        kind in 0u8..4,
        seed in any::<usize>(),
    ) {
        // Stream and store recovery — the walks `resume` and
        // `open_for_append` run before cutting a file — over byte soup
        // and over damaged valid artifacts: never a panic, and never an
        // allocation larger than twice the input plus one 64 KiB chunk.
        let (stream, store) = valid_artifacts();
        let bytes = match source {
            0 => soup,
            1 => mutated(stream, kind, seed),
            _ => mutated(store, kind, seed),
        };
        let largest = largest_allocation(|| {
            let _ = pastri::durable_stream::committed(&bytes.as_slice());
            let _ = eri_store::committed_index(&bytes.as_slice());
        });
        prop_assert!(
            largest <= 2 * bytes.len() + (64 << 10),
            "{largest} bytes allocated for a {}-byte input",
            bytes.len()
        );
    }

    #[test]
    fn telemetry_json_reader_never_panics(bytes in soup()) {
        let _ = telemetry::export::from_json_lines(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn telemetry_json_reader_survives_a_damaged_export(
        at in any::<usize>(),
        byte in any::<u8>(),
        cut in any::<usize>(),
    ) {
        let mut bytes = telemetry_export().as_bytes().to_vec();
        let at = at % bytes.len();
        bytes[at] = byte;
        let _ = telemetry::export::from_json_lines(&String::from_utf8_lossy(&bytes));
        bytes.truncate(cut % bytes.len());
        let _ = telemetry::export::from_json_lines(&String::from_utf8_lossy(&bytes));
    }
}
