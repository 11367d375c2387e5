//! Fuzz-style robustness: every decoder in the workspace must return an
//! error (never panic, hang, or blow up memory) on arbitrary byte soup —
//! with and without valid-looking magic prefixes. Length fields are
//! attacker-controlled input: decoders must validate them against the
//! bytes actually present *before* allocating.

use std::sync::OnceLock;

use proptest::prelude::*;

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
            bytes[..6].copy_from_slice(b"PSTRS\x01");
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
        let cursor = std::io::Cursor::new(bytes);
        if let Ok(mut store) = eri_store::StoreReader::from_source(
            cursor,
            eri_store::RetryPolicy::none(),
        ) {
            let _ = store.verify();
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
    fn checkpoint_journal_scan_never_panics(mut bytes in soup(), with_magic in any::<bool>()) {
        let magic = durable::JOURNAL_MAGIC;
        if with_magic && bytes.len() >= magic.len() {
            bytes[..magic.len()].copy_from_slice(&magic);
        }
        let (last, valid) = durable::scan_journal(&bytes);
        prop_assert!(valid <= bytes.len());
        prop_assert!(last.is_none() || valid > magic.len());
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
