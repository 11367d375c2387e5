//! Fuzz-style robustness: every decoder in the workspace must return an
//! error (never panic, hang, or blow up memory) on arbitrary byte soup —
//! with and without valid-looking magic prefixes. Length fields are
//! attacker-controlled input: decoders must validate them against the
//! bytes actually present *before* allocating.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::OnceLock;

mod common;

use common::golden;
use proptest::prelude::*;
use pastri::BlockGeometry;

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

/// A valid stream (the golden `v3_stream.pstrs`) and a finished store
/// (commits every 3 blocks), built once.
fn valid_artifacts() -> &'static (Vec<u8>, Vec<u8>) {
    static ARTIFACTS: OnceLock<(Vec<u8>, Vec<u8>)> = OnceLock::new();
    ARTIFACTS.get_or_init(|| {
        let geometry = BlockGeometry::new(4, 9);
        let values: Vec<f64> = (0..36 * 8).map(|i| (f64::from(i % 53) * 0.23).sin() * 4e-6).collect();
        let mut store = Vec::new();
        let mut w = eri_store::StoreWriter::new(&mut store, geometry, 1e-9, 3).unwrap();
        w.append_blocks(&values).unwrap();
        w.finish().unwrap();
        (golden("v3_stream.pstrs"), store)
    })
}

/// The decode-only artifacts nothing writes any more, read once: the
/// golden v1 and v3 containers, then the golden v1 and v3 streams.
fn legacy_artifacts() -> &'static [Vec<u8>; 4] {
    static LEGACY: OnceLock<[Vec<u8>; 4]> = OnceLock::new();
    LEGACY.get_or_init(|| {
        ["v1_container.pastri", "v3_container.pastri", "v1_stream.pstrs", "v3_stream.pstrs"]
            .map(golden)
    })
}

/// One damage `kind` at `seed` applied to a copy of `valid`: a bit flip,
/// a truncation, an inflated length field (eight 0xFF bytes), a stream
/// whose first segment claims about 2^35 bytes, one to eight trailing
/// bytes, a leading length varint (a frame's) replaced by one declaring
/// `u64::MAX` bytes, or a splice: up to 64 bytes of a golden artifact,
/// taken from anywhere in it, copied over `valid` from a seeded offset
/// on.
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
        3 => bytes.splice(6..7, [0xFF, 0xFF, 0xFF, 0xFF, 0x7F]).for_each(drop),
        5 => bytes.extend((0..1 + seed % 8).map(|i| (seed >> (8 * i)) as u8)),
        6 => {
            let varint_len = bytes.iter().position(|&b| b < 0x80).unwrap() + 1;
            bytes.splice(..varint_len, [0xFF; 9].into_iter().chain([0x01])).for_each(drop);
        }
        _ => {
            let donor = &legacy_artifacts()[(seed / 7) % 4];
            let from = (seed / 29) % donor.len();
            let len = (1 + (seed / 31) % 64).min(donor.len() - from).min(bytes.len() - at);
            bytes[at..at + len].copy_from_slice(&donor[from..from + len]);
        }
    }
    bytes
}

/// The values a container header at the start of `bytes` declares
/// (blocks × block size), read field by field as the decoder reads them;
/// 0 when there is no such header. The strict decoder may allocate what
/// a header declares, and nothing larger than the input besides.
fn declared_values(bytes: &[u8]) -> usize {
    fn varint(bytes: &[u8], pos: &mut usize) -> Option<usize> {
        let mut v = 0usize;
        for shift in (0..64).step_by(7) {
            let byte = *bytes.get(*pos)?;
            *pos += 1;
            v |= usize::from(byte & 0x7f).checked_shl(shift).unwrap_or(0);
            if byte & 0x80 == 0 {
                return Some(v);
            }
        }
        None
    }
    // Magic, version, metric, tree and EB, then subblocks, subblock
    // size, values and blocks.
    let mut pos = 15;
    let mut fields = [0; 4];
    for field in &mut fields {
        let Some(v) = varint(bytes, &mut pos) else { return 0 };
        *field = v;
    }
    let [num_subblocks, subblock_size, _, blocks] = fields;
    blocks.saturating_mul(num_subblocks.saturating_mul(subblock_size))
}

/// The `mutated` kinds that damage a block's frame: a bit flip, a
/// truncation, trailing bytes and a `u64::MAX` length. A frame claims no
/// geometry or bound, so these are all the ways it can lie.
const FRAME_DAMAGE: [u8; 4] = [0, 1, 5, 6];

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
        let _ = pastri::container_bit_stats(&bytes);
    }

    #[test]
    fn pastri_stream_decoder_never_panics(mut bytes in soup(), with_magic in any::<bool>()) {
        if with_magic && bytes.len() >= 6 {
            bytes[..6].copy_from_slice(b"PSTRS\x01");
        }
        let _ = common::read_stream(&bytes);
    }

    #[test]
    fn pastri_strict_legacy_decoder_never_panics(
        mut bytes in soup(),
        version in 1u8..=3,
        source in 0u8..3,
        kind in 0u8..5,
        seed in any::<usize>(),
    ) {
        // The decode-only container versions, strictly decoded and
        // inspected: byte soup behind a v1/v2/v3 header, or a damaged or
        // spliced golden v1 or v3 container. Never a panic, and never
        // an allocation larger than the values the header declares plus
        // 32 bytes per input byte and 64 KiB. The readers agree:
        // `inspect` and `container_bit_stats` accept the same inputs,
        // and so does `decompress` where every frame carries a CRC (v2
        // and v3); a v1 frame has none, so there `inspect`, which walks
        // each block's layout without decoding values, accepts at least
        // what `decompress` accepts.
        if source > 0 {
            bytes = mutated(&legacy_artifacts()[usize::from(source) - 1], kind, seed);
        } else if bytes.len() >= 5 {
            bytes[..4].copy_from_slice(b"PSTR");
            bytes[4] = version;
        }
        let mut accepted = (false, false, false);
        let largest = largest_allocation(|| {
            accepted = (
                pastri::decompress(&bytes).is_ok(),
                pastri::inspect(&bytes).is_ok(),
                pastri::container_bit_stats(&bytes).is_ok(),
            );
        });
        let bound = declared_values(&bytes).saturating_mul(8).saturating_add(32 * bytes.len() + (64 << 10));
        prop_assert!(largest <= bound, "{largest} bytes allocated, bound {bound}");
        let (decoded, inspected, counted) = accepted;
        prop_assert_eq!(inspected, counted, "inspect and container_bit_stats disagree");
        if matches!(bytes.get(4), Some(2 | 3)) {
            prop_assert_eq!(decoded, inspected, "decompress and inspect disagree");
        } else {
            prop_assert!(!decoded || inspected, "decompress accepted what inspect refused");
        }
    }

    #[test]
    fn pastri_strict_legacy_stream_reader_never_panics(
        source in 0u8..2,
        kind in 0u8..5,
        seed in any::<usize>(),
    ) {
        // The golden v1 and v3 streams, damaged or spliced, read
        // strictly and walked frame by frame with each segment decoded
        // on its own: never a panic, and never an allocation larger than
        // the input plus what one segment's header declares.
        let bytes = mutated(&legacy_artifacts()[2 + usize::from(source)], kind, seed);
        let mut declared = 0;
        let largest = largest_allocation(|| {
            let _ = common::read_stream(&bytes);
            if let Ok(frames) = pastri::stream::Frames::new(bytes.as_slice()) {
                for segment in frames.flatten() {
                    declared = declared.max(declared_values(&segment.container));
                    let _ = pastri::decompress(&segment.container);
                }
            }
        });
        let bound = declared.saturating_mul(8).saturating_add(32 * bytes.len() + (64 << 10));
        prop_assert!(largest <= bound, "{largest} bytes allocated, bound {bound}");
    }

    #[test]
    fn eri_store_reader_never_panics(mut bytes in soup(), with_magic in any::<bool>()) {
        if with_magic && bytes.len() >= 8 {
            bytes[..8].copy_from_slice(b"ERISTOR5");
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
        // Store recovery — the walk `open_for_append` runs before
        // cutting a file — over byte soup and over damaged valid
        // artifacts (a stream is foreign bytes to it): never a panic, and
        // never an allocation larger than twice the input plus one
        // 64 KiB chunk.
        let (stream, store) = valid_artifacts();
        let bytes = match source {
            0 => soup,
            1 => mutated(stream, kind, seed),
            _ => mutated(store, kind, seed),
        };
        let largest = largest_allocation(|| {
            let _ = eri_store::committed_index(&bytes.as_slice());
        });
        prop_assert!(
            largest <= 2 * bytes.len() + (64 << 10),
            "{largest} bytes allocated for a {}-byte input",
            bytes.len()
        );
    }

    #[test]
    fn store_reads_and_stripe_repairs_allocate_within_the_input(
        kind in 0u8..5,
        seed in any::<usize>(),
    ) {
        // A finished store with a bit flip, a truncation or eight 0xFF
        // bytes anywhere, or with one stripe's parity record claiming a
        // 0xFF-inflated piece length or member count (plus a flip in the
        // stripe's first block, so reading it repairs from that stripe):
        // opening it, reading every block, scrubbing and walking its
        // commits never allocate more than twice the input plus 64 KiB.
        let (_, store) = valid_artifacts();
        let mut bytes = mutated(store, kind.min(2), seed);
        let mut repairable = None;
        if kind >= 3 {
            let (_, index) = eri_store::committed_index(&store.as_slice()).unwrap();
            let stripe = index.stripes[seed % index.stripes.len()];
            let field = if kind == 3 { 8..16 } else { 4..8 };
            let at = stripe.record as usize;
            bytes = store.clone();
            bytes[at + field.start..at + field.end].fill(0xFF);
            let block = index.blocks[stripe.first];
            bytes[(block.offset + block.len / 2) as usize] ^= 0x10;
            repairable = Some(stripe.first);
        }
        let (mut read, mut scrubbed) = (None, None);
        let largest = largest_allocation(|| {
            if let Ok(r) = eri_store::StoreReader::from_source(&bytes[..], eri_store::RetryPolicy::none()) {
                read = Some((0..r.num_blocks()).map(|i| r.read_block(i).is_ok()).collect::<Vec<_>>());
                scrubbed = r.scrub().ok();
            }
            let _ = eri_store::committed_index(&bytes.as_slice());
        });
        prop_assert!(
            largest <= 2 * bytes.len() + (64 << 10),
            "{largest} bytes allocated for a {}-byte input",
            bytes.len()
        );
        // Reads and scrub certify frames alike: the blocks whose read
        // fails are exactly those scrub finds damaged and cannot repair.
        if let (Some(read), Some(report)) = (&read, &scrubbed) {
            let failed: Vec<usize> = (0..read.len()).filter(|&i| !read[i]).collect();
            let lost: Vec<usize> =
                report.damaged.iter().filter(|d| d.repaired.is_none()).map(|d| d.block).collect();
            prop_assert_eq!(failed, lost);
        }
        // A damaged record header costs no data: the index knows the
        // stripe's geometry, and the piece CRCs locate the flip.
        if let Some(block) = repairable {
            prop_assert!(read.is_some_and(|ok| ok.iter().all(|&ok| ok)), "block {block} must repair");
        }
    }

    #[test]
    fn block_decoder_allocates_at_most_one_block(
        kind in 0u8..4,
        seed in any::<usize>(),
    ) {
        // One of the store's frames with a bit flip, a truncation,
        // trailing bytes, or a length varint inflated to u64::MAX.
        // Decoding it through the guarded entry point at the store's
        // geometry and EB — as a remote client decodes what a server
        // sent — refuses it and never allocates more than one block's
        // values plus 64 KiB. Spliced into the store in the clean
        // frame's place, it stops the recovery walk before the commits
        // that seal it, which then refuse the store, and the walk
        // allocates within the input.
        let (_, store) = valid_artifacts();
        let (_, index) = eri_store::committed_index(&store.as_slice()).unwrap();
        let entry = index.blocks[seed % index.blocks.len()];
        let (at, end) = (entry.offset as usize, (entry.offset + entry.len) as usize);
        let geometry = BlockGeometry::new(4, 9);
        let bytes = mutated(&store[at..end], FRAME_DAMAGE[usize::from(kind)], seed);
        let mut result = None;
        let largest = largest_allocation(|| {
            result = Some(pastri::decompress_block(&bytes, geometry, 1e-9));
        });
        prop_assert!(
            largest <= geometry.block_size() * 8 + (64 << 10),
            "{largest} bytes allocated for a {}-byte frame",
            bytes.len()
        );
        prop_assert!(result.is_some_and(|r| r.is_err()), "a damaged frame must be refused");
        let damaged = [&store[..at], &bytes, &store[end..]].concat();
        let mut walked = None;
        let largest = largest_allocation(|| {
            walked = Some(eri_store::committed_index(&damaged.as_slice()));
        });
        prop_assert!(
            largest <= 2 * damaged.len() + (64 << 10),
            "{largest} bytes allocated walking a {}-byte store",
            damaged.len()
        );
        prop_assert!(
            matches!(walked, Some(Err(eri_store::StoreError::Corrupt { .. }))),
            "{walked:?}"
        );
    }

    #[test]
    fn block_batch_decoder_allocates_at_most_one_block_per_container(
        k in 1usize..12,
        seed in any::<usize>(),
    ) {
        // `k` of the store's frames, each intact or given one of the
        // damages above, decoded in one batch through the guarded
        // entry point: no single allocation exceeds `k` blocks' values
        // plus 64 KiB, and every slot gets what decoding it alone gives.
        let (_, store) = valid_artifacts();
        let (_, index) = eri_store::committed_index(&store.as_slice()).unwrap();
        let geometry = BlockGeometry::new(4, 9);
        let frames: Vec<Vec<u8>> = (0..k)
            .map(|i| {
                let s = seed.wrapping_add(i.wrapping_mul(0x9E37_79B9));
                let entry = index.blocks[s % index.blocks.len()];
                let frame = &store[entry.offset as usize..(entry.offset + entry.len) as usize];
                match s % 5 {
                    4 => frame.to_vec(),
                    kind => mutated(frame, FRAME_DAMAGE[kind], s / 5),
                }
            })
            .collect();
        let slices: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
        let mut batched = None;
        let largest = largest_allocation(|| {
            batched = Some(pastri::decompress_blocks(&slices, geometry, 1e-9));
        });
        prop_assert!(
            largest <= k * geometry.block_size() * 8 + (64 << 10),
            "{largest} bytes allocated for {k} frames"
        );
        let alone: Vec<_> = slices.iter().map(|f| pastri::decompress_block(f, geometry, 1e-9)).collect();
        prop_assert_eq!(batched, Some(alone));
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

/// Every truncation prefix of every golden container and stream, the
/// shape a torn copy leaves, is a strict error: never `Ok`, never a
/// panic.
#[test]
fn every_truncation_prefix_of_a_golden_artifact_is_an_error() {
    let [v1, v3, v1_stream, v3_stream] = legacy_artifacts();
    for (name, full) in [("v1 container", v1), ("v3 container", v3)] {
        for t in 0..full.len() {
            assert!(pastri::decompress(&full[..t]).is_err(), "{name} cut at {t} decoded");
        }
    }
    for (name, full) in [("v1 stream", v1_stream), ("v3 stream", v3_stream)] {
        for t in 0..full.len() {
            assert!(common::read_stream(&full[..t]).is_err(), "{name} cut at {t} decoded");
        }
    }
}
