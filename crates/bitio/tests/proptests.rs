//! Property tests: arbitrary sequences of field writes round-trip exactly.

use bitio::{bits_for, signed_width, BitReader, BitWriter};
use proptest::prelude::*;

/// One field in a random write schedule.
#[derive(Debug, Clone)]
enum Field {
    Bit(bool),
    Unsigned { value: u64, width: u32 },
    Signed { value: i64, width: u32 },
    Align,
}

fn field_strategy() -> impl Strategy<Value = Field> {
    prop_oneof![
        any::<bool>().prop_map(Field::Bit),
        (1u32..=64).prop_flat_map(|width| {
            let max = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
            (0..=max).prop_map(move |value| Field::Unsigned { value, width })
        }),
        (1u32..=64).prop_flat_map(|width| {
            let hi = if width == 64 {
                i64::MAX
            } else {
                (1i64 << (width - 1)) - 1
            };
            let lo = if width == 64 {
                i64::MIN
            } else {
                -(1i64 << (width - 1))
            };
            (lo..=hi).prop_map(move |value| Field::Signed { value, width })
        }),
        Just(Field::Align),
    ]
}

/// The byte-at-a-time writer the word-at-a-time [`BitWriter`] must
/// reproduce: one bit per step, a byte pushed whenever eight are ready.
#[derive(Default)]
struct ReferenceWriter {
    bytes: Vec<u8>,
    cur: u8,
    filled: u32,
}

impl ReferenceWriter {
    fn write_bits(&mut self, value: u64, width: u32) {
        for i in (0..width).rev() {
            self.cur = (self.cur << 1) | ((value >> i) & 1) as u8;
            self.filled += 1;
            if self.filled == 8 {
                self.bytes.push(self.cur);
                self.cur = 0;
                self.filled = 0;
            }
        }
    }

    fn align(&mut self) {
        if self.filled > 0 {
            self.write_bits(0, 8 - self.filled);
        }
    }

    fn bit_len(&self) -> u64 {
        self.bytes.len() as u64 * 8 + u64::from(self.filled)
    }
}

/// One step of a writer schedule: a field, or (`None`) an alignment.
fn step_strategy() -> impl Strategy<Value = Option<(u64, u32)>> {
    prop_oneof![
        (any::<u64>(), 0u32..=64).prop_map(Some),
        (any::<u64>(), 0u32..=8).prop_map(Some),
        Just(None),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn writer_matches_per_bit_reference(
        schedules in proptest::collection::vec(
            proptest::collection::vec(step_strategy(), 0..120),
            1..4,
        ),
    ) {
        // A fresh writer per schedule must equal the reference bytes, and
        // `bit_len` must agree after every step.
        for steps in &schedules {
            let mut fresh = BitWriter::new();
            let mut reference = ReferenceWriter::default();
            for step in steps {
                match *step {
                    Some((value, width)) => {
                        fresh.write_bits(value, width);
                        reference.write_bits(value, width);
                    }
                    None => {
                        fresh.align_to_byte();
                        reference.align();
                    }
                }
                prop_assert_eq!(fresh.bit_len(), reference.bit_len());
            }
            reference.align();
            prop_assert_eq!(fresh.into_bytes(), reference.bytes);
        }
    }

    #[test]
    fn roundtrip_field_schedule(fields in proptest::collection::vec(field_strategy(), 0..200)) {
        let mut w = BitWriter::new();
        for f in &fields {
            match *f {
                Field::Bit(b) => w.write_bit(b),
                Field::Unsigned { value, width } => w.write_bits(value, width),
                Field::Signed { value, width } => w.write_signed(value, width),
                Field::Align => w.align_to_byte(),
            }
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for f in &fields {
            match *f {
                Field::Bit(b) => prop_assert_eq!(r.read_bit().unwrap(), b),
                Field::Unsigned { value, width } => {
                    prop_assert_eq!(r.read_bits(width).unwrap(), value)
                }
                Field::Signed { value, width } => {
                    prop_assert_eq!(r.read_signed(width).unwrap(), value)
                }
                Field::Align => r.align_to_byte(),
            }
        }
    }

    #[test]
    fn bits_for_is_tight(v in 2u64..) {
        let b = bits_for(v);
        // b bits can index v values...
        prop_assert!(b == 64 || (1u128 << b) >= u128::from(v));
        // ...and b-1 bits cannot.
        prop_assert!((1u128 << (b - 1)) < u128::from(v));
    }

    #[test]
    fn signed_width_is_tight(v in any::<i64>()) {
        let w = signed_width(v);
        prop_assert!((1..=64).contains(&w));
        if w < 64 {
            let lo = -(1i64 << (w - 1));
            let hi = (1i64 << (w - 1)) - 1;
            prop_assert!(v >= lo && v <= hi);
        }
        if w > 1 {
            // One fewer bit must not fit.
            let wm = w - 1;
            let lo = -(1i64 << (wm - 1));
            let hi = (1i64 << (wm - 1)) - 1;
            prop_assert!(v < lo || v > hi);
        }
    }

    #[test]
    fn bit_len_matches_written(widths in proptest::collection::vec(0u32..=64, 0..50)) {
        let mut w = BitWriter::new();
        let mut expected = 0u64;
        for &width in &widths {
            w.write_bits(0, width);
            expected += u64::from(width);
        }
        prop_assert_eq!(w.bit_len(), expected);
        let bytes = w.into_bytes();
        prop_assert_eq!(bytes.len() as u64, expected.div_ceil(8));
    }
}
