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
//! A stored value is always finite: the writer never meets a non-finite
//! weight in a trained model, and the reader refuses one, so a file
//! cannot smuggle a NaN or an infinity into the kernels.

use serde::{Error, Value};

/// Hex digits per stored value: one per nibble of the 32 bits.
const DIGITS: usize = 8;

/// The lowercase hex digits, indexed by nibble.
const HEX: &[u8; 16] = b"0123456789abcdef";

/// A digit's nibble, or [`BAD`] for any byte that is not a lowercase
/// hex digit.
const NIBBLE: [u8; 256] = {
    let mut table = [BAD; 256];
    let mut i = 0;
    while i < 16 {
        table[HEX[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// [`NIBBLE`]'s mark for a byte that is not a digit: a bit no nibble
/// has, so one `|` over a value's digits says whether any was bad.
const BAD: u8 = 0x80;

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
        let (bits, bad) = digits.iter().fold((0u32, 0u8), |(bits, bad), &b| {
            let nibble = NIBBLE[b as usize];
            (bits << 4 | u32::from(nibble & 0xf), bad | nibble)
        });
        if bad & BAD != 0 {
            return Err(Error::new(format!(
                "value {i} is not {DIGITS} lowercase hex digits: {:?}",
                String::from_utf8_lossy(digits)
            )));
        }
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
        assert!(err.to_string().starts_with("value 1 "), "{err}");
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
