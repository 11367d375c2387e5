//! Domain scenario: PaSTRI beyond quantum chemistry.
//!
//! The paper closes with "it can be used for compressing any data with
//! pattern features". This example compresses two non-ERI datasets that
//! have the sub-block-scaling structure — a bank of exponentially damped
//! sensor channels and a synthetic multi-antenna beamforming snapshot —
//! plus one that does NOT (white noise), showing where PaSTRI helps and
//! where it degrades gracefully to its verbatim/dense fallbacks.
//!
//! ```sh
//! cargo run --release --example generic_patterned_data
//! ```

use pastri::{BlockGeometry, Compressor};

fn report(name: &str, geom: BlockGeometry, data: &[f64], eb: f64) -> f64 {
    let compressor = Compressor::new(geom, eb);
    let bytes = compressor.compress(data);
    let stats = pastri::container_bit_stats(&bytes).unwrap();
    let back = compressor.decompress(&bytes).unwrap();
    let max_err = data
        .iter()
        .zip(&back)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(max_err <= eb, "{name}: bound violated");
    let cr = (data.len() * 8) as f64 / bytes.len() as f64;
    let t = stats.block_types();
    println!(
        "{name:<28} CR {cr:6.2}   max err {max_err:.1e}   type mix [{:.0}%,{:.0}%,{:.0}%,{:.0}%]",
        t[0].fraction * 100.0,
        t[1].fraction * 100.0,
        t[2].fraction * 100.0,
        t[3].fraction * 100.0
    );
    cr
}

fn main() {
    let eb = 1e-9;
    println!("PaSTRI on generic pattern-structured data (EB = {eb:.0e})\n");

    // 1. Damped-oscillator sensor bank: 32 channels × 64 samples per
    //    frame; every channel is the same ring-down shape at a different
    //    amplitude (gain mismatch). Blocks = frames, sub-blocks = channels.
    let geom = BlockGeometry::new(32, 64);
    let mut sensor = Vec::new();
    for frame in 0..300 {
        let phase = frame as f64 * 0.21;
        for ch in 0..32 {
            let gain = 0.2 + 0.8 * ((ch * 7 + frame) % 32) as f64 / 32.0;
            for t in 0..64 {
                let x = t as f64 / 64.0;
                sensor.push(
                    gain * (-(3.0 * x)).exp() * (20.0 * x + phase).sin() * 1e-3
                        + 1e-12 * ((t * ch) % 7) as f64,
                );
            }
        }
    }
    let cr_sensor = report("sensor ring-down bank", geom, &sensor, eb);

    // 2. Beamforming snapshot: 24 antennas × 48 frequency bins; antenna
    //    weights scale a common spectral shape.
    let geom2 = BlockGeometry::new(24, 48);
    let mut beam = Vec::new();
    for snap in 0..300 {
        for ant in 0..24 {
            let w = ((ant as f64 * 0.4 + snap as f64 * 0.05).cos()) * 0.9;
            for f in 0..48 {
                let x = f as f64 / 48.0;
                beam.push(w * ((6.0 * x).sin() + 0.3 * (17.0 * x).cos()) * 1e-2);
            }
        }
    }
    let cr_beam = report("beamforming snapshots", geom2, &beam, eb);

    // 3. White noise: no pattern to exploit. PaSTRI must stay correct and
    //    not blow up the size (worst case ~64 bits/value + headers).
    let mut x = 0x853c_49e6_748f_ea9bu64;
    let noise: Vec<f64> = (0..geom.block_size() * 100)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((x >> 11) as f64 / 2f64.powi(53) - 0.5) * 2e-2
        })
        .collect();
    let cr_noise = report("white noise (no pattern)", geom, &noise, eb);

    println!(
        "\npatterned data compresses {:.0}-{:.0}x; unpatterned stays near the\n\
         entropy floor ({cr_noise:.2}x) without ever breaking the error bound —\n\
         the \"any data with pattern features\" claim, with its limits.",
        cr_beam.min(cr_sensor),
        cr_beam.max(cr_sensor)
    );
    assert!(cr_sensor > 8.0 && cr_beam > 8.0);
    assert!(cr_noise > 0.9);
}
