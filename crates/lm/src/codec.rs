//! The persisted form of a weight tensor.
//!
//! Every `f32` tensor of an [`crate::MlpLm`] — the embedding, the trunk
//! weight and bias, and each head's residual block, projection and
//! bias — is stored as **one string of the values' [`f32::to_bits`] in
//! Z85** (ZeroMQ RFC 32), five characters per value, in storage order
//! (row-major for a [`crate::matrix::Matrix`]). Bits are exact by
//! construction: a decimal form would pay a decimal → binary conversion
//! per value on every load, and its round trip through `f64` and back to
//! `f32` rounds twice. A JSON string is also one slice for the parser to
//! find, where an array of numbers is one token per value.
//!
//! A value's bits, read as one big-endian `u32`, are five base-85
//! digits, most significant first, each written as one character of an
//! 85-symbol alphabet that holds no `"`, `\`, space or control
//! character, so JSON writes it unescaped. Five characters for four
//! bytes is 37.5 % less text than eight hex digits, and a model file's
//! text is what its load holds twice: once as the file and once as the
//! parsed strings. A value is read back through one 256-entry table from
//! byte to digit and a Horner sum; a byte outside the alphabet, or five
//! digits above `u32::MAX`, is an error that quotes the value's five
//! bytes.
//!
//! A stored value is always finite: the writer never meets a non-finite
//! weight in a trained model, and the reader refuses one, so a file
//! cannot smuggle a NaN or an infinity into the kernels.

use serde::{Error, Value};

/// Characters per stored value: `85⁴ < 2³² ≤ 85⁵`.
const DIGITS: usize = 5;

/// The Z85 alphabet, indexed by digit.
const ALPHABET: &[u8; 85] =
    b"0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ.-:+=^!/*?&<>()[]{}@%$#";

/// A byte outside the alphabet, in [`DIGIT`].
const BAD: u8 = u8::MAX;

/// The digit each byte stands for; [`BAD`] for a byte outside the
/// alphabet.
const DIGIT: [u8; 256] = {
    let mut table = [BAD; 256];
    let mut d = 0;
    while d < ALPHABET.len() {
        table[ALPHABET[d] as usize] = d as u8;
        d += 1;
    }
    table
};

/// The bits whose five digits are `chars`, most significant first; an
/// error saying why when a byte is outside the alphabet or the digits
/// exceed `u32::MAX`.
fn bits_of(chars: &[u8; DIGITS]) -> Result<u32, &'static str> {
    let n = chars
        .iter()
        .try_fold(0u64, |n, &c| {
            let d = DIGIT[usize::from(c)];
            (d != BAD).then(|| n * 85 + u64::from(d))
        })
        .ok_or("is not 5 Z85 characters")?;
    u32::try_from(n).map_err(|_| "is above u32::MAX")
}

/// `values` in their persisted form.
pub(crate) fn encode(values: &[f32]) -> Value {
    let mut text = Vec::with_capacity(DIGITS * values.len());
    for v in values {
        let mut n = v.to_bits();
        let mut chars = [0u8; DIGITS];
        for c in chars.iter_mut().rev() {
            *c = ALPHABET[(n % 85) as usize];
            n /= 85;
        }
        text.extend_from_slice(&chars);
    }
    Value::Str(String::from_utf8(text).expect("the alphabet is ASCII"))
}

/// The `len` values stored in `v` by [`encode`]. An error — never a
/// panic — when `v` is not a string, holds other than `5 × len` bytes,
/// holds a byte outside the alphabet or five digits above `u32::MAX`,
/// or decodes to a non-finite value.
pub(crate) fn decode(v: &Value, len: usize) -> Result<Vec<f32>, Error> {
    let text = v.as_str().ok_or_else(|| {
        Error::new(format!(
            "expected a string of Z85-coded f32 bits, found {}",
            v.kind()
        ))
    })?;
    if len.checked_mul(DIGITS) != Some(text.len()) {
        return Err(Error::new(format!(
            "{} Z85 characters, expected {DIGITS} for each of {len} values",
            text.len()
        )));
    }
    let mut out = Vec::with_capacity(len);
    for (i, chars) in text.as_bytes().chunks_exact(DIGITS).enumerate() {
        let chars: &[u8; DIGITS] = chars.try_into().expect("five characters");
        let refuse = |why: String| {
            Error::new(format!(
                "value {i} {why}: {:?}",
                String::from_utf8_lossy(chars)
            ))
        };
        let bits = bits_of(chars).map_err(|why| refuse(why.into()))?;
        let x = f32::from_bits(bits);
        if !x.is_finite() {
            return Err(refuse(format!("is non-finite (bits {bits:08x})")));
        }
        out.push(x);
    }
    Ok(out)
}

/// Finite values of every class, in a fixed order: both zeros,
/// subnormals of both signs, the smallest normals, the extremes, then
/// `random` finite bit patterns.
#[cfg(test)]
pub(crate) fn every_class(random: usize) -> Vec<f32> {
    let mut values: Vec<f32> = [
        0x0000_0000u32,
        0x8000_0000,
        0x0000_0001,
        0x8000_0001,
        0x007f_ffff,
        0x807f_ffff,
        0x0080_0000,
        0x8080_0000,
        0x7f7f_ffff,
        0xff7f_ffff,
        0x3f80_0000,
    ]
    .into_iter()
    .map(f32::from_bits)
    .collect();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    while values.len() < 11 + random {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        let x = f32::from_bits((state >> 32) as u32);
        if x.is_finite() {
            values.push(x);
        }
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    fn z85(text: &str) -> Value {
        Value::Str(text.into())
    }

    /// The oracle for [`bits_of`]: each byte's digit is its position in
    /// the alphabet, and the sum is taken in `u128`.
    fn bits_by_search(chars: &[u8; DIGITS]) -> Option<u32> {
        let n = chars.iter().try_fold(0u128, |n, &c| {
            let d = ALPHABET.iter().position(|&a| a == c)?;
            Some(n * 85 + d as u128)
        })?;
        u32::try_from(n).ok()
    }

    #[test]
    fn values_are_stored_as_their_bits_in_z85() {
        // RFC 32's test vector: the eight bytes 86 4F D2 6F B5 59 F7 5B
        // are "HelloWorld".
        let xs = [0x864f_d26f, 0xb559_f75b].map(f32::from_bits);
        assert_eq!(encode(&xs).as_str(), Some("HelloWorld"));
        let xs = [
            1.0f32,
            -0.0,
            f32::MIN_POSITIVE,
            -f32::MAX,
            f32::from_bits(1),
        ];
        let stored = encode(&xs);
        assert_eq!(stored.as_str(), Some("ky-.lFb/MH0dU4H%9$7G00001"));
        assert_eq!(bits(&decode(&stored, xs.len()).unwrap()), bits(&xs));
        // The extremes of the 32 bits.
        assert_eq!(encode(&[f32::from_bits(0)]).as_str(), Some("00000"));
        assert_eq!(encode(&[f32::from_bits(u32::MAX)]).as_str(), Some("%nSc0"));
        assert_eq!(encode(&[]), Value::Str(String::new()));
        assert!(decode(&encode(&[]), 0).unwrap().is_empty());
    }

    #[test]
    fn every_value_class_round_trips_bit_for_bit() {
        let xs = every_class(20_000);
        let stored = encode(&xs);
        assert_eq!(stored.as_str().map(str::len), Some(DIGITS * xs.len()));
        assert_eq!(bits(&decode(&stored, xs.len()).unwrap()), bits(&xs));
    }

    #[test]
    fn the_digit_table_reads_as_the_alphabet() {
        // Every byte value at every position, on the least group, the
        // greatest (`u32::MAX`), RFC 32's first word and the largest
        // digits (above the ceiling).
        for base in [*b"00000", *b"%nSc0", *b"Hello", *b"#####"] {
            for at in 0..DIGITS {
                for b in 0..=255u8 {
                    let mut chars = base;
                    chars[at] = b;
                    assert_eq!(bits_of(&chars).ok(), bits_by_search(&chars), "{chars:?}");
                }
            }
        }
        // Every digit pair at the top two positions, where the ceiling is.
        for &hi in ALPHABET {
            for &next in ALPHABET {
                let chars = [hi, next, b'#', b'#', b'#'];
                assert_eq!(bits_of(&chars).ok(), bits_by_search(&chars), "{chars:?}");
            }
        }
    }

    #[test]
    fn every_alphabet_character_is_written_unescaped() {
        let alphabet = std::str::from_utf8(ALPHABET).unwrap();
        let json = serde_json::to_string(&z85(alphabet)).unwrap();
        assert_eq!(json, format!("\"{alphabet}\""));
        let mut seen = [false; 256];
        for &c in ALPHABET {
            assert!(c.is_ascii_graphic() && c != b'"' && c != b'\\', "{c}");
            assert!(!seen[usize::from(c)], "{} twice", c as char);
            seen[usize::from(c)] = true;
        }
    }

    #[test]
    fn a_payload_of_the_wrong_length_is_an_error() {
        let stored = encode(&[0.5, 1.5]);
        for len in [0, 1, 3, usize::MAX] {
            let err = decode(&stored, len).unwrap_err().to_string();
            assert!(err.contains("10 Z85 characters"), "{err}");
        }
        // A value short, a character short and a character over; the
        // hex form of the same two values.
        for text in ["ky-.l", "ky-.lky-.", "ky-.lky-.l0", "3f0000003fc00000"] {
            assert!(decode(&z85(text), 2).is_err(), "{text}");
        }
    }

    #[test]
    fn a_byte_outside_the_alphabet_is_an_error() {
        // The ten printable ASCII characters Z85 leaves out, a control
        // character, DEL and a two-byte character, at each position of
        // the second value.
        for bad in [
            " ", "\"", "'", ",", ";", "\\", "_", "`", "|", "~", "\u{1}", "\u{7f}", "é",
        ] {
            for at in 0..=DIGITS - bad.len() {
                let mut value = String::from("ky-.l");
                value.replace_range(at..at + bad.len(), bad);
                let err = decode(&z85(&format!("00000{value}")), 2).unwrap_err();
                assert_eq!(
                    err.to_string(),
                    format!("value 1 is not 5 Z85 characters: {value:?}")
                );
            }
        }
        // A character cut by a value's end is quoted lossily.
        let err = decode(&z85("0000éy-.l"), 2).unwrap_err();
        assert_eq!(
            err.to_string(),
            "value 0 is not 5 Z85 characters: \"0000\u{fffd}\""
        );
    }

    #[test]
    fn five_digits_above_u32_max_are_an_error() {
        assert_eq!(bits_of(b"%nSc0"), Ok(u32::MAX));
        for text in ["%nSc1", "%nSd0", "%nTc0", "%oSc0", "#####"] {
            let err = decode(&z85(text), 1).unwrap_err().to_string();
            assert_eq!(err, format!("value 0 is above u32::MAX: {text:?}"));
        }
    }

    #[test]
    fn a_non_finite_value_is_an_error() {
        for x in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -f32::NAN] {
            let stored = encode(&[1.0, x]);
            let text = stored.as_str().unwrap();
            let err = decode(&stored, 2).unwrap_err().to_string();
            assert_eq!(
                err,
                format!(
                    "value 1 is non-finite (bits {:08x}): {:?}",
                    x.to_bits(),
                    &text[DIGITS..]
                )
            );
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
