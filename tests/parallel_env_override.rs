//! `RAYON_NUM_THREADS` is as inert for output as the programmatic
//! thread count.
//!
//! A test binary of its own (one process, one test): the runtime reads
//! the variable once per process, at the first parallel region that
//! needs a default width, so it must be set before any region runs —
//! including the ones that generate the dataset.

use pastri::Compressor;
use qchem::basis::BfConfig;
use qchem::dataset::EriDataset;

#[test]
fn env_thread_override_does_not_change_bytes() {
    std::env::set_var("RAYON_NUM_THREADS", "5");
    assert_eq!(rayon::current_num_threads(), 5);

    let config = BfConfig::dd_dd();
    let mut data = EriDataset::generate_model(config, 6, 0xD17E).values;
    data.truncate(data.len() - config.block_size() / 3);
    let c = Compressor::new(pastri::BlockGeometry::from_dims(config.dims()), 1e-10);
    let via_env = c.compress(&data);
    let via_pool = rayon::ThreadPoolBuilder::new()
        .num_threads(3)
        .build()
        .unwrap()
        .install(|| c.compress(&data));
    assert_eq!(via_env, via_pool);
}
