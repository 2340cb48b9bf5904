//! The persisted form of a weight tensor.
//!
//! Every `f32` tensor of an [`crate::MlpLm`] — the embedding, the trunk
//! weight and bias, and each head's residual block, projection and
//! bias — is stored as **one string of the values' [`f32::to_bits`]**,
//! eight lowercase hex digits per value, in storage order (row-major for
//! a [`crate::matrix::Matrix`]). Bits are exact by construction: a
//! decimal form would pay a decimal → binary conversion per value on
//! every load, and its round trip through `f64` and back to `f32` rounds
//! twice. A JSON string is also one slice for the parser to find, where
//! an array of numbers is one token per value.
//!
//! A value's eight digits are read as one big-endian `u64`, first digit
//! in the top byte, and checked and converted there as eight byte lanes
//! of one integer register (SWAR, "SIMD within a register"): a few adds,
//! masks and shifts per value, not a table load per digit. A value that
//! holds a bad digit is quoted whole in its error.
//!
//! A stored value is always finite: the writer never meets a non-finite
//! weight in a trained model, and the reader refuses one, so a file
//! cannot smuggle a NaN or an infinity into the kernels.

use serde::{Error, Value};

/// Hex digits per stored value: one per nibble of the 32 bits.
const DIGITS: usize = 8;

/// The lowercase hex digits, indexed by nibble.
const HEX: &[u8; 16] = b"0123456789abcdef";

/// `1` in every byte lane of a `u64`.
const ONES: u64 = 0x0101_0101_0101_0101;

/// The top bit of every byte lane.
const TOPS: u64 = 0x80 * ONES;

/// The bits of the value whose eight digits are `digits`' bytes, first
/// digit in the top byte; `None` when a byte is not a lowercase hex
/// digit.
fn bits_of(digits: u64) -> Option<u32> {
    // Once every byte is below 0x80, adding 0x80 - c to each lane
    // carries into no other lane, and sets a lane's top bit exactly when
    // its byte is at least c.
    let at_least = |c: u8| digits.wrapping_add((0x80 - u64::from(c)) * ONES);
    let decimal = at_least(b'0') & !at_least(b'9' + 1);
    let letter = at_least(b'a') & !at_least(b'f' + 1);
    if digits & TOPS != 0 || (decimal | letter) & TOPS != TOPS {
        return None;
    }
    // A digit's nibble is its low four bits, plus 9 for a letter: the
    // letters are the digits with bit 6 set.
    let nibbles = (digits & (0x0f * ONES)) + (digits >> 6 & ONES) * 9;
    // Two nibbles to a byte, two bytes to a half, two halves to the bits.
    let bytes = (nibbles >> 4 | nibbles) & 0x00ff_00ff_00ff_00ff;
    let halves = (bytes >> 8 | bytes) & 0x0000_ffff_0000_ffff;
    Some((halves >> 16 | halves) as u32)
}

/// `values` in their persisted form.
pub(crate) fn encode(values: &[f32]) -> Value {
    let mut hex = Vec::with_capacity(DIGITS * values.len());
    for v in values {
        let bits = v.to_bits();
        hex.extend(
            (0..DIGITS)
                .rev()
                .map(|i| HEX[(bits >> (4 * i)) as usize & 0xf]),
        );
    }
    Value::Str(String::from_utf8(hex).expect("hex digits are ASCII"))
}

/// The `len` values stored in `v` by [`encode`]. An error — never a
/// panic — when `v` is not a string, holds other than `8 × len` bytes,
/// holds a byte that is not a lowercase hex digit, or decodes to a
/// non-finite value.
pub(crate) fn decode(v: &Value, len: usize) -> Result<Vec<f32>, Error> {
    let hex = v.as_str().ok_or_else(|| {
        Error::new(format!(
            "expected a string of hex-coded f32 bits, found {}",
            v.kind()
        ))
    })?;
    if len.checked_mul(DIGITS) != Some(hex.len()) {
        return Err(Error::new(format!(
            "{} hex digits, expected {DIGITS} for each of {len} values",
            hex.len()
        )));
    }
    let mut out = Vec::with_capacity(len);
    for (i, digits) in hex.as_bytes().chunks_exact(DIGITS).enumerate() {
        let word = u64::from_be_bytes(digits.try_into().expect("eight digits"));
        let Some(bits) = bits_of(word) else {
            return Err(Error::new(format!(
                "value {i} is not {DIGITS} lowercase hex digits: {:?}",
                String::from_utf8_lossy(digits)
            )));
        };
        let x = f32::from_bits(bits);
        if !x.is_finite() {
            return Err(Error::new(format!(
                "value {i} is non-finite (bits {bits:08x})"
            )));
        }
        out.push(x);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// The oracle for [`bits_of`]: a digit at a time, through a table
    /// from byte to nibble.
    fn bits_by_table(digits: [u8; DIGITS]) -> Option<u32> {
        digits.iter().try_fold(0u32, |bits, &b| {
            let nibble = HEX.iter().position(|&h| h == b)?;
            Some(bits << 4 | nibble as u32)
        })
    }

    #[test]
    fn eight_digits_at_once_equal_a_digit_at_a_time() {
        let swar = |digits: [u8; DIGITS]| bits_of(u64::from_be_bytes(digits));
        // Every byte value at every digit position, among digits that
        // are all good, and among digits of the extreme classes.
        for base in [*b"3f800000", *b"00000000", *b"ffffffff", *b"a09f6b15"] {
            for at in 0..DIGITS {
                for b in 0..=255u8 {
                    let mut digits = base;
                    digits[at] = b;
                    assert_eq!(swar(digits), bits_by_table(digits), "{digits:?}");
                }
            }
        }
        // Random words: any bits, and bytes drawn near the digit ranges'
        // edges (a lane just past `9` or `f`, or with its top bit set).
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            state >> 16
        };
        let edges = b"0189:@`afgAF/\x7f\x80\xb0\xe6\xff";
        for _ in 0..20_000 {
            let bits = next() as u32;
            let digits: [u8; DIGITS] = format!("{bits:08x}").into_bytes().try_into().unwrap();
            assert_eq!(swar(digits), Some(bits));
            let mut mixed = digits;
            for d in &mut mixed {
                if next() % 4 == 0 {
                    *d = edges[next() as usize % edges.len()];
                }
            }
            assert_eq!(swar(mixed), bits_by_table(mixed), "{mixed:?}");
        }
    }

    #[test]
    fn values_are_stored_as_their_bits_in_lowercase_hex() {
        let xs = [
            1.0f32,
            -0.0,
            f32::MIN_POSITIVE,
            -f32::MAX,
            f32::from_bits(1),
        ];
        let stored = encode(&xs);
        assert_eq!(
            stored.as_str(),
            Some("3f8000008000000000800000ff7fffff00000001")
        );
        assert_eq!(bits(&decode(&stored, xs.len()).unwrap()), bits(&xs));
        assert_eq!(encode(&[]), Value::Str(String::new()));
        assert!(decode(&encode(&[]), 0).unwrap().is_empty());
    }

    #[test]
    fn a_payload_of_the_wrong_length_is_an_error() {
        let stored = encode(&[0.5, 1.5]);
        for len in [0, 1, 3, usize::MAX] {
            let err = decode(&stored, len).unwrap_err().to_string();
            assert!(err.contains("16 hex digits"), "{err}");
        }
        // Half a value short, and half a value over.
        for hex in ["3f000000", "3f0000003f80", "3f0000003fc000003f80"] {
            assert!(decode(&Value::Str(hex.into()), 2).is_err(), "{hex}");
        }
    }

    #[test]
    fn a_byte_that_is_not_a_lowercase_hex_digit_is_an_error() {
        for hex in ["3f80000g", "3F800000", "3f80000 ", "-3f80000", "3f8000é"] {
            let err = decode(&Value::Str(hex.into()), 1);
            // "é" is two bytes: the length is right, a digit is not.
            assert!(err.is_err(), "{hex}");
        }
        let err = decode(&Value::Str("3f800000zz000000".into()), 2).unwrap_err();
        assert_eq!(
            err.to_string(),
            r#"value 1 is not 8 lowercase hex digits: "zz000000""#
        );
        let err = decode(&Value::Str("3f800000".repeat(2) + "3f8000é"), 3).unwrap_err();
        assert_eq!(
            err.to_string(),
            r#"value 2 is not 8 lowercase hex digits: "3f8000é""#
        );
    }

    #[test]
    fn a_non_finite_value_is_an_error() {
        for x in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -f32::NAN] {
            let hex = format!("{:08x}", x.to_bits());
            let err = decode(&Value::Str(hex.clone()), 1).unwrap_err();
            assert!(err.to_string().contains("non-finite"), "{hex}: {err}");
        }
    }

    #[test]
    fn the_decimal_form_is_not_read() {
        // An array of numbers — the form a model file had before it held
        // bits — is refused, so an older file is a miss, not a model.
        let decimals = Value::Seq(vec![Value::Float(0.5), Value::Float(-1.25)]);
        let err = decode(&decimals, 2).unwrap_err();
        assert!(err.to_string().contains("found sequence"), "{err}");
        assert!(decode(&Value::Null, 0).is_err());
    }
}
