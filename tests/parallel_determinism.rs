//! Parallel determinism: the same data compressed or decompressed under
//! 1, 2, and 8 threads is *byte-identical* — containers, streams, and
//! decoded values, for the current v2 format and the legacy v1 golden
//! fixtures. This is the contract that makes the thread count a pure
//! throughput knob: no reproducibility surface, no format divergence.
//! Streams go through `StreamWriter`, whose batches compress on the
//! pool — the path `pastri compress --stream` runs.

use std::path::Path;

use pastri::stream::{StreamReader, StreamWriter};
use pastri::Compressor;
use qchem::basis::BfConfig;
use qchem::dataset::EriDataset;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];
const EB: f64 = 1e-10;

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
}

/// A deterministic model dataset with a partial tail block.
fn dataset(config: BfConfig, blocks: usize) -> Vec<f64> {
    let mut values = EriDataset::generate_model(config, blocks, 0xD17E).values;
    values.truncate(values.len() - config.block_size() / 3);
    values
}

fn compressor(config: BfConfig) -> Compressor {
    Compressor::new(bench_geometry(config), EB)
}

fn bench_geometry(config: BfConfig) -> pastri::BlockGeometry {
    pastri::BlockGeometry::from_dims(config.dims())
}

fn golden(name: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("missing golden fixture {name}: {e}"))
}

#[test]
fn containers_byte_identical_across_thread_counts() {
    for config in [BfConfig::dd_dd(), BfConfig::ff_ff()] {
        let data = dataset(config, 12);
        let c = compressor(config);
        let baseline = pool(1).install(|| c.compress(&data));
        for threads in THREAD_COUNTS {
            let bytes = pool(threads).install(|| c.compress(&data));
            assert_eq!(bytes, baseline, "{} threads={threads}", config.label());
        }
    }
}

#[test]
fn streams_byte_identical_across_thread_counts() {
    let config = BfConfig::dd_dd();
    let c = compressor(config);
    // One block per segment gives the most segments and batches for the
    // pool to reorder; the empty input is a header and terminator only.
    for data in [dataset(config, 21), Vec::new()] {
        for blocks_per_segment in [1usize, 4] {
            let mut baseline = Vec::new();
            let mut w = StreamWriter::new(&mut baseline, c, blocks_per_segment, 3).unwrap();
            for chunk in data.chunks(997) {
                w.write_values(chunk).unwrap();
            }
            w.finish().unwrap();

            for threads in THREAD_COUNTS {
                let (sink, cp) = pool(threads).install(|| {
                    let mut w = StreamWriter::new(Vec::new(), c, blocks_per_segment, 3).unwrap();
                    for chunk in data.chunks(997) {
                        w.write_values(chunk).unwrap();
                    }
                    w.finish().unwrap()
                });
                let what = format!(
                    "values={} blocks_per_segment={blocks_per_segment} threads={threads}",
                    data.len()
                );
                assert_eq!(sink, baseline, "{what}");
                assert_eq!(cp.values, data.len() as u64, "{what}");
            }
        }
    }
}

#[test]
fn v2_decode_identical_across_thread_counts() {
    let config = BfConfig::ff_ff();
    let data = dataset(config, 8);
    let bytes = compressor(config).compress(&data);
    let baseline = pool(1).install(|| pastri::decompress(&bytes).unwrap());
    for threads in THREAD_COUNTS {
        let values = pool(threads).install(|| pastri::decompress(&bytes).unwrap());
        assert_eq!(
            values, baseline,
            "decoded values must be bit-exact at {threads} threads"
        );
    }
    for (a, b) in data.iter().zip(&baseline) {
        assert!((a - b).abs() <= EB);
    }
}

#[test]
fn golden_v1_decode_identical_across_thread_counts() {
    // The legacy format goes through the same parallel fan-out; it must
    // be just as scheduling-independent as v2.
    let container = golden("v1_container.pastri");
    assert_eq!(pastri::inspect(&container).unwrap().version, 1);
    let baseline = pool(1).install(|| pastri::decompress(&container).unwrap());
    for threads in THREAD_COUNTS {
        let values = pool(threads).install(|| pastri::decompress(&container).unwrap());
        assert_eq!(values, baseline, "v1 container at {threads} threads");
    }

    let stream = golden("v1_stream.pstrs");
    let stream_baseline = pool(1).install(|| {
        StreamReader::new(stream.as_slice())
            .unwrap()
            .read_to_vec()
            .unwrap()
    });
    for threads in THREAD_COUNTS {
        let values = pool(threads).install(|| {
            StreamReader::new(stream.as_slice())
                .unwrap()
                .read_to_vec()
                .unwrap()
        });
        assert_eq!(values, stream_baseline, "v1 stream at {threads} threads");
    }
}
