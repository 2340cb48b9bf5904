//! The persisted form of an [`MlpLm`]: its config, then every weight
//! tensor in the codec's form (one string of the values' bits, see
//! `crate::codec`), in the field order `cfg`, `emb`, `w1`, `b1`,
//! `heads` (each `p`, `u`, `c`).
//!
//! Reading a model back checks each tensor against the config before
//! any kernel sees it, so a file that disagrees with its own config is
//! an `Err` naming the tensor, not a model that panics at its first
//! inference.

use super::{Head, MlpLm, MlpLmConfig};
use crate::codec;
use crate::matrix::Matrix;
use serde::{Deserialize, Error, Serialize, Value};
use std::fmt::Display;
use std::sync::OnceLock;

fn entry(key: &str, value: Value) -> (Value, Value) {
    (Value::Str(key.into()), value)
}

impl Serialize for MlpLm {
    fn to_value(&self) -> Value {
        let heads = self
            .heads
            .iter()
            .map(|h| {
                Value::Map(vec![
                    entry("p", h.p.to_value()),
                    entry("u", h.u.to_value()),
                    entry("c", codec::encode(&h.c)),
                ])
            })
            .collect();
        Value::Map(vec![
            entry("cfg", self.cfg.to_value()),
            entry("emb", self.emb.to_value()),
            entry("w1", self.w1.to_value()),
            entry("b1", codec::encode(&self.b1)),
            entry("heads", Value::Seq(heads)),
        ])
    }
}

impl Deserialize for MlpLm {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let cfg = MlpLmConfig::from_value(v.field("cfg")?)?;
        let MlpLmConfig {
            vocab,
            d_emb,
            d_hidden,
            context,
            n_heads,
            ..
        } = cfg;
        // What `MlpLm::new` asserts of a config, as an error.
        if vocab < 2 || d_emb == 0 || d_hidden == 0 || context == 0 {
            return Err(Error::new(format!(
                "config {cfg:?} needs a vocabulary of at least 2 and non-zero widths"
            )));
        }
        let overflow = || Error::new(format!("config {cfg:?} overflows a tensor's size"));
        let d_in = context.checked_mul(d_emb).ok_or_else(overflow)?;
        let n_rows = n_heads.checked_add(1).ok_or_else(overflow)?;

        let emb = matrix(v, "emb", "emb", (vocab, d_emb))?;
        let w1 = matrix(v, "w1", "w1", (d_hidden, d_in))?;
        let b1 = vector(v, "b1", "b1", d_hidden)?;
        let stored = v
            .field("heads")?
            .seq_items(n_rows)
            .map_err(|e| named("heads", e))?;
        let mut heads = Vec::with_capacity(n_rows);
        for (k, head) in stored.iter().enumerate() {
            let name = |t: &str| format!("heads[{k}].{t}");
            let p = match (k, field(head, "p", &name("p"))?) {
                (0, Value::Null) => None,
                (0, _) => return Err(named(&name("p"), "the base head has no residual block")),
                (_, Value::Null) => {
                    return Err(named(&name("p"), "a Medusa head needs its residual block"))
                }
                (_, _) => Some(matrix(head, "p", &name("p"), (d_hidden, d_hidden))?),
            };
            heads.push(Head {
                p,
                u: matrix(head, "u", &name("u"), (vocab, d_hidden))?,
                c: vector(head, "c", &name("c"), vocab)?,
            });
        }
        Ok(MlpLm {
            cfg,
            emb,
            w1,
            b1,
            heads,
            packed: OnceLock::new(),
        })
    }
}

fn named(tensor: &str, why: impl Display) -> Error {
    Error::new(format!("tensor `{tensor}`: {why}"))
}

/// Field `key` of the map `v`, which holds the tensor named `tensor`.
fn field<'v>(v: &'v Value, key: &str, tensor: &str) -> Result<&'v Value, Error> {
    v.field(key).map_err(|e| named(tensor, e))
}

/// The matrix in field `key` of `v`, which must be `rows × cols`.
fn matrix(
    v: &Value,
    key: &str,
    tensor: &str,
    (rows, cols): (usize, usize),
) -> Result<Matrix, Error> {
    let m = Matrix::from_value(field(v, key, tensor)?).map_err(|e| named(tensor, e))?;
    if (m.rows(), m.cols()) != (rows, cols) {
        return Err(named(
            tensor,
            format!(
                "{} × {}, where the config makes it {rows} × {cols}",
                m.rows(),
                m.cols()
            ),
        ));
    }
    Ok(m)
}

/// The `len` values in field `key` of `v`.
fn vector(v: &Value, key: &str, tensor: &str, len: usize) -> Result<Vec<f32>, Error> {
    codec::decode(field(v, key, tensor)?, len).map_err(|e| named(tensor, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tiny() -> MlpLm {
        MlpLm::new(MlpLmConfig::tiny(12))
    }

    /// Every weight tensor, in storage order.
    fn tensors(m: &MlpLm) -> Vec<&[f32]> {
        let mut out = vec![m.emb.as_slice(), m.w1.as_slice(), &m.b1];
        for h in &m.heads {
            out.extend(h.p.as_ref().map(Matrix::as_slice));
            out.extend([h.u.as_slice(), &h.c]);
        }
        out
    }

    fn tensors_mut(m: &mut MlpLm) -> Vec<&mut [f32]> {
        let mut out = vec![m.emb.as_mut_slice(), m.w1.as_mut_slice(), &mut m.b1];
        for h in &mut m.heads {
            out.extend(h.p.as_mut().map(Matrix::as_mut_slice));
            out.extend([h.u.as_mut_slice(), &mut h.c]);
        }
        out
    }

    fn bits(m: &MlpLm) -> Vec<Vec<u32>> {
        tensors(m)
            .iter()
            .map(|t| t.iter().map(|x| x.to_bits()).collect())
            .collect()
    }

    /// Finite `f32`s of every class: both zeros, subnormals of both
    /// signs, the smallest normal, the extremes and random finite bit
    /// patterns.
    fn any_finite_f32() -> impl Strategy<Value = f32> {
        prop_oneof![
            Just(0.0f32),
            Just(-0.0f32),
            (1u32..0x0080_0000).prop_map(f32::from_bits),
            (0x8000_0001u32..0x8080_0000).prop_map(f32::from_bits),
            Just(f32::MIN_POSITIVE),
            Just(f32::MAX),
            Just(f32::MIN),
            any::<u32>().prop_map(|b| {
                let x = f32::from_bits(b);
                if x.is_finite() {
                    x
                } else {
                    f32::from_bits(b & !0x0080_0000)
                }
            }),
        ]
    }

    proptest! {
        #[test]
        fn weights_of_every_class_round_trip_bit_for_bit(
            values in prop::collection::vec(any_finite_f32(), 1..48),
            offset in 0usize..48,
        ) {
            let want: Vec<u32> = values.iter().map(|x| x.to_bits()).collect();
            let back = codec::decode(&codec::encode(&values), values.len()).expect("decodes");
            prop_assert_eq!(back.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), want);
            // Every weight of a whole model drawn from `values`, through
            // the JSON text and back.
            let mut model = tiny();
            for (i, w) in (offset..).zip(tensors_mut(&mut model).into_iter().flatten()) {
                *w = values[i % values.len()];
            }
            let json = serde_json::to_string(&model).expect("serializes");
            let back: MlpLm = serde_json::from_str(&json).expect("deserializes");
            prop_assert_eq!(bits(&back), bits(&model));
            prop_assert_eq!(back.cfg, model.cfg);
        }
    }

    #[test]
    fn every_value_class_round_trips_through_a_whole_model() {
        // The classes and 20,000 random finite bit patterns, a model's
        // worth at a time, through the JSON text and back.
        let values = codec::every_class(20_000);
        let mut model = tiny();
        for chunk in values.chunks(tensors(&model).iter().map(|t| t.len()).sum()) {
            for (w, &x) in tensors_mut(&mut model).into_iter().flatten().zip(chunk) {
                *w = x;
            }
            let json = serde_json::to_string(&model).expect("serializes");
            let back: MlpLm = serde_json::from_str(&json).expect("deserializes");
            assert_eq!(bits(&back), bits(&model));
        }
    }

    /// Field `path` (keys of maps and indices of sequences, joined by
    /// `.`) of a value tree.
    fn at<'v>(mut v: &'v mut Value, path: &str) -> &'v mut Value {
        for key in path.split('.') {
            v = match v {
                Value::Map(entries) => {
                    let found = entries.iter_mut().find(|(k, _)| k.as_str() == Some(key));
                    &mut found.unwrap_or_else(|| panic!("no field {key}")).1
                }
                Value::Seq(items) => &mut items[key.parse::<usize>().expect("an index")],
                other => panic!("{key} inside a {}", other.kind()),
            };
        }
        v
    }

    /// The tiny model's file with `edit` applied, read back: its error.
    fn refusal(edit: impl FnOnce(&mut Value)) -> String {
        let mut v = tiny().to_value();
        edit(&mut v);
        let json = serde_json::to_string(&v).expect("serializes");
        match serde_json::from_str::<MlpLm>(&json) {
            Ok(_) => panic!("an edited file loaded"),
            Err(e) => e.to_string(),
        }
    }

    /// Asserts that `err` names `tensor` and says `why`.
    fn assert_names(err: &str, tensor: &str, why: &str) {
        assert!(err.starts_with(&format!("tensor `{tensor}`: ")), "{err}");
        assert!(err.contains(why), "{err}");
    }

    /// Replaces the Z85 payload at `path` by `f` of it.
    fn edit_payload(v: &mut Value, path: &str, f: impl FnOnce(&str) -> String) {
        let slot = at(v, path);
        let z85 = slot.as_str().expect("a payload").to_string();
        *slot = Value::Str(f(&z85));
    }

    /// Sets the matrix at `path` to `rows × cols` with as many values,
    /// so that only its shape is wrong.
    fn reshape(v: &mut Value, path: &str, rows: usize, cols: usize) {
        *at(v, path) = Matrix::zeros(rows, cols).to_value();
    }

    #[test]
    fn an_embedding_one_value_short_is_an_error() {
        // The file the old reader accepted and the first inference then
        // panicked on.
        let err = refusal(|v| edit_payload(v, "emb.data", |z| z[..z.len() - 5].into()));
        assert_names(
            &err,
            "emb",
            "475 Z85 characters, expected 5 for each of 96 values",
        );
    }

    #[test]
    fn an_embedding_of_another_shape_is_an_error() {
        let err = refusal(|v| reshape(v, "emb", 11, 8));
        assert_names(&err, "emb", "11 × 8, where the config makes it 12 × 8");
    }

    #[test]
    fn a_trunk_weight_of_another_shape_is_an_error() {
        // Transposed: as many values, the wrong way round.
        let err = refusal(|v| reshape(v, "w1", 32, 16));
        assert_names(&err, "w1", "32 × 16, where the config makes it 16 × 32");
    }

    #[test]
    fn a_trunk_bias_of_another_length_is_an_error() {
        let err = refusal(|v| *at(v, "b1") = codec::encode(&[0.0; 15]));
        assert_names(
            &err,
            "b1",
            "75 Z85 characters, expected 5 for each of 16 values",
        );
    }

    #[test]
    fn a_missing_head_is_an_error() {
        let err = refusal(|v| {
            let Value::Seq(heads) = at(v, "heads") else {
                panic!("heads are a sequence")
            };
            heads.pop();
        });
        assert_names(&err, "heads", "expected sequence of 4 items, found 3");
    }

    #[test]
    fn a_base_head_with_a_residual_block_is_an_error() {
        let err = refusal(|v| reshape(v, "heads.0.p", 16, 16));
        assert_names(&err, "heads[0].p", "the base head has no residual block");
    }

    #[test]
    fn a_medusa_head_without_its_residual_block_is_an_error() {
        let err = refusal(|v| *at(v, "heads.2.p") = Value::Null);
        assert_names(&err, "heads[2].p", "a Medusa head needs its residual block");
    }

    #[test]
    fn a_residual_block_of_another_shape_is_an_error() {
        let err = refusal(|v| reshape(v, "heads.1.p", 16, 12));
        assert_names(
            &err,
            "heads[1].p",
            "16 × 12, where the config makes it 16 × 16",
        );
    }

    #[test]
    fn an_output_projection_of_another_shape_is_an_error() {
        let err = refusal(|v| reshape(v, "heads.3.u", 16, 12));
        assert_names(
            &err,
            "heads[3].u",
            "16 × 12, where the config makes it 12 × 16",
        );
    }

    #[test]
    fn an_output_bias_of_another_length_is_an_error() {
        let err = refusal(|v| *at(v, "heads.0.c") = codec::encode(&[0.0; 13]));
        assert_names(
            &err,
            "heads[0].c",
            "65 Z85 characters, expected 5 for each of 12 values",
        );
    }

    #[test]
    fn a_payload_that_is_not_whole_values_is_an_error() {
        let err = refusal(|v| edit_payload(v, "w1.data", |z| format!("{z}3f8")));
        assert_names(
            &err,
            "w1",
            "2563 Z85 characters, expected 5 for each of 512 values",
        );
    }

    /// The payload at `path` with value `i` replaced by `value`.
    fn with_value<'a>(path: &'a str, i: usize, value: &'a str) -> impl FnOnce(&mut Value) + 'a {
        move |v| {
            edit_payload(v, path, |z| {
                format!("{}{value}{}", &z[..5 * i], &z[5 * i + 5..])
            })
        }
    }

    #[test]
    fn a_payload_with_a_byte_outside_the_alphabet_is_an_error() {
        // A printable character Z85 leaves out, a control character and
        // a two-byte character, at each position of value 1.
        for bad in [" ", "\"", "~", "\u{1}", "é"] {
            for at in 0..=5 - bad.len() {
                let mut value = String::from("ky-.l");
                value.replace_range(at..at + bad.len(), bad);
                let err = refusal(with_value("heads.2.u.data", 1, &value));
                assert_eq!(
                    err,
                    format!("tensor `heads[2].u`: value 1 is not 5 Z85 characters: {value:?}")
                );
            }
        }
    }

    #[test]
    fn a_payload_above_u32_max_is_an_error() {
        // `%nSc0` is u32::MAX; one more does not fit 32 bits.
        let err = refusal(with_value("b1", 2, "%nSc1"));
        assert_eq!(err, r#"tensor `b1`: value 2 is above u32::MAX: "%nSc1""#);
    }

    #[test]
    fn a_payload_with_a_non_finite_value_is_an_error() {
        let nan = codec::encode(&[f32::NAN]);
        let err = refusal(with_value("b1", 2, nan.as_str().unwrap()));
        assert_eq!(
            err,
            r#"tensor `b1`: value 2 is non-finite (bits 7fc00000): "F4#3:""#
        );
        let minus_inf = codec::encode(&[f32::NEG_INFINITY]);
        let err = refusal(with_value("heads.1.c", 0, minus_inf.as_str().unwrap()));
        assert_names(&err, "heads[1].c", "value 0 is non-finite (bits ff800000)");
    }

    #[test]
    fn a_hex_model_file_is_refused_on_its_length() {
        // The form model files had before Z85: eight hex digits a value.
        // A cache holding one reads it as a miss and retrains.
        let err = refusal(|v| {
            let hex: String = tiny()
                .emb
                .as_slice()
                .iter()
                .map(|x| format!("{:08x}", x.to_bits()))
                .collect();
            *at(v, "emb.data") = Value::Str(hex);
        });
        assert_names(
            &err,
            "emb",
            "768 Z85 characters, expected 5 for each of 96 values",
        );
    }

    #[test]
    fn a_config_no_model_can_have_is_an_error() {
        for (key, value) in [
            ("vocab", 1u64),
            ("d_emb", 0),
            ("d_hidden", 0),
            ("context", 0),
        ] {
            let err = refusal(|v| *at(v, &format!("cfg.{key}")) = Value::UInt(value));
            assert!(err.contains("non-zero widths"), "{key}: {err}");
        }
        let err = refusal(|v| *at(v, "cfg.n_heads") = Value::UInt(u64::MAX));
        assert!(err.contains("overflows"), "{err}");
        let err = refusal(|v| *at(v, "cfg.context") = Value::UInt(u64::MAX));
        assert!(err.contains("overflows"), "{err}");
    }
}
