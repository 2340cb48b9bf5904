//! Two-state bit-vector values (widths 1..=64) with Verilog semantics:
//! width masking on every operation, optional signedness, reductions,
//! shifts, concatenation, and part selects.
//!
//! The simulator is two-state (0/1): registers initialize to zero and
//! `x`/`z` literal digits participate only as wildcards in `casez`/`casex`
//! matching. This is enough for the simulator's job as the iverilog
//! substitute: pass/fail functional comparison against a golden model
//! does not require four-state simulation.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A sized two-state value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BitVec {
    width: u32,
    value: u64,
    signed: bool,
}

impl BitVec {
    /// Creates a value of `width` bits, masking `value` accordingly.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64.
    pub fn new(width: u32, value: u64) -> Self {
        assert!(
            (1..=64).contains(&width),
            "width {width} out of range 1..=64"
        );
        Self {
            width,
            value: value & Self::mask_for(width),
            signed: false,
        }
    }

    /// Creates a signed value (affects comparisons, `>>>`, and widening).
    pub fn new_signed(width: u32, value: u64) -> Self {
        let mut v = Self::new(width, value);
        v.signed = true;
        v
    }

    /// A 1-bit value from a boolean.
    pub fn from_bool(b: bool) -> Self {
        Self::new(1, b as u64)
    }

    /// A zero of the given width.
    pub fn zero(width: u32) -> Self {
        Self::new(width, 0)
    }

    fn mask_for(width: u32) -> u64 {
        if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        }
    }

    /// The width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The raw (masked, unsigned) value.
    pub fn value(&self) -> u64 {
        self.value
    }

    /// The value interpreted according to the signed flag.
    pub fn as_i64(&self) -> i64 {
        if self.signed && self.msb() {
            // Sign-extend.
            (self.value | !Self::mask_for(self.width)) as i64
        } else {
            self.value as i64
        }
    }

    /// The most significant bit.
    pub fn msb(&self) -> bool {
        (self.value >> (self.width - 1)) & 1 == 1
    }

    /// Truthiness: any bit set.
    pub fn is_true(&self) -> bool {
        self.value != 0
    }

    /// Returns this value with the signed flag set/cleared.
    pub fn with_signed(mut self, signed: bool) -> Self {
        self.signed = signed;
        self
    }

    /// Resizes to `width`, zero- or sign-extending per the signed flag,
    /// truncating high bits when narrowing.
    pub fn resize(&self, width: u32) -> Self {
        let extended = if self.signed && self.msb() && width > self.width {
            self.value | !Self::mask_for(self.width)
        } else {
            self.value
        };
        Self {
            width,
            value: extended & Self::mask_for(width),
            signed: self.signed,
        }
    }

    /// Extracts bit `idx` (0 = LSB); out-of-range reads yield 0, matching
    /// the two-state treatment of x.
    pub fn bit(&self, idx: u32) -> Self {
        let b = if idx < self.width {
            (self.value >> idx) & 1
        } else {
            0
        };
        Self::new(1, b)
    }

    /// Extracts bits `[msb:lsb]` (inclusive); out-of-range bits read 0.
    ///
    /// # Panics
    ///
    /// Panics if `msb < lsb`.
    pub fn slice(&self, msb: u32, lsb: u32) -> Self {
        assert!(msb >= lsb, "slice [{msb}:{lsb}] reversed");
        let width = msb - lsb + 1;
        assert!(width <= 64, "slice width {width} too wide");
        let shifted = if lsb >= 64 { 0 } else { self.value >> lsb };
        Self::new(width, shifted)
    }

    /// Writes `src` into bits `[msb:lsb]`, leaving other bits unchanged.
    pub fn splice(&self, msb: u32, lsb: u32, src: BitVec) -> Self {
        assert!(msb >= lsb, "splice [{msb}:{lsb}] reversed");
        let w = (msb - lsb + 1).min(64);
        let field_mask = Self::mask_for(w) << lsb;
        let new_bits = (src.value & Self::mask_for(w)) << lsb;
        Self {
            width: self.width,
            value: ((self.value & !field_mask) | new_bits) & Self::mask_for(self.width),
            signed: self.signed,
        }
    }

    /// Concatenation `{self, rhs}` (self in the high bits).
    ///
    /// # Panics
    ///
    /// Panics if the combined width exceeds 64.
    pub fn concat(&self, rhs: BitVec) -> Self {
        let width = self.width + rhs.width;
        assert!(width <= 64, "concat width {width} exceeds 64");
        Self::new(width, (self.value << rhs.width) | rhs.value)
    }

    // -- Arithmetic (result width = max of operand widths, Verilog's
    //    context rule approximated self-determined) ---------------------

    fn arith_width(&self, rhs: &BitVec) -> u32 {
        self.width.max(rhs.width)
    }

    fn both_signed(&self, rhs: &BitVec) -> bool {
        self.signed && rhs.signed
    }

    /// Wrapping addition.
    pub fn add(&self, rhs: BitVec) -> Self {
        let w = self.arith_width(&rhs);
        Self::new(w, self.resize(w).value.wrapping_add(rhs.resize(w).value))
            .with_signed(self.both_signed(&rhs))
    }

    /// Wrapping subtraction.
    pub fn sub(&self, rhs: BitVec) -> Self {
        let w = self.arith_width(&rhs);
        Self::new(w, self.resize(w).value.wrapping_sub(rhs.resize(w).value))
            .with_signed(self.both_signed(&rhs))
    }

    /// Wrapping multiplication.
    pub fn mul(&self, rhs: BitVec) -> Self {
        let w = self.arith_width(&rhs);
        Self::new(w, self.resize(w).value.wrapping_mul(rhs.resize(w).value))
            .with_signed(self.both_signed(&rhs))
    }

    /// Division; division by zero yields 0 (two-state stand-in for `x`).
    pub fn div(&self, rhs: BitVec) -> Self {
        let w = self.arith_width(&rhs);
        let signed = self.both_signed(&rhs);
        if rhs.value == 0 {
            return Self::zero(w).with_signed(signed);
        }
        let v = if signed {
            (self.resize(w).as_i64().wrapping_div(rhs.resize(w).as_i64())) as u64
        } else {
            self.resize(w).value / rhs.resize(w).value
        };
        Self::new(w, v).with_signed(signed)
    }

    /// Remainder; modulo zero yields 0.
    pub fn rem(&self, rhs: BitVec) -> Self {
        let w = self.arith_width(&rhs);
        let signed = self.both_signed(&rhs);
        if rhs.value == 0 {
            return Self::zero(w).with_signed(signed);
        }
        let v = if signed {
            (self.resize(w).as_i64().wrapping_rem(rhs.resize(w).as_i64())) as u64
        } else {
            self.resize(w).value % rhs.resize(w).value
        };
        Self::new(w, v).with_signed(signed)
    }

    /// Power with wrapping semantics.
    pub fn pow(&self, rhs: BitVec) -> Self {
        let w = self.width;
        let mut acc = Self::new(w, 1);
        for _ in 0..rhs.value.min(256) {
            acc = acc.mul(*self);
        }
        // Exponents beyond 256 on a <=64-bit base are saturated by the
        // wrap-around anyway (base^256 already cycles).
        acc.with_signed(self.signed)
    }

    // -- Shifts ---------------------------------------------------------

    /// Logical shift left (width preserved).
    pub fn shl(&self, amount: BitVec) -> Self {
        let sh = amount.value;
        let v = if sh >= 64 { 0 } else { self.value << sh };
        Self::new(self.width, v).with_signed(self.signed)
    }

    /// Logical shift right.
    pub fn shr(&self, amount: BitVec) -> Self {
        let sh = amount.value;
        let v = if sh >= 64 { 0 } else { self.value >> sh };
        Self::new(self.width, v).with_signed(self.signed)
    }

    /// Arithmetic shift right: sign-fills only when the value is signed.
    pub fn ashr(&self, amount: BitVec) -> Self {
        if !self.signed || !self.msb() {
            return self.shr(amount).with_signed(self.signed);
        }
        let sh = amount.value.min(64) as u32;
        if sh >= self.width {
            return Self::new(self.width, Self::mask_for(self.width)).with_signed(true);
        }
        let fill = (Self::mask_for(sh)) << (self.width - sh);
        Self::new(self.width, (self.value >> sh) | fill).with_signed(true)
    }

    // -- Comparisons (1-bit results) -------------------------------------

    /// Equality.
    pub fn eq(&self, rhs: BitVec) -> Self {
        let w = self.arith_width(&rhs);
        Self::from_bool(self.resize(w).value == rhs.resize(w).value)
    }

    /// Less-than, signed if both operands are signed.
    pub fn lt(&self, rhs: BitVec) -> Self {
        let w = self.arith_width(&rhs);
        let r = if self.both_signed(&rhs) {
            self.resize(w).as_i64() < rhs.resize(w).as_i64()
        } else {
            self.resize(w).value < rhs.resize(w).value
        };
        Self::from_bool(r)
    }

    // -- Bitwise ----------------------------------------------------------

    /// Bitwise AND.
    pub fn and(&self, rhs: BitVec) -> Self {
        let w = self.arith_width(&rhs);
        Self::new(w, self.resize(w).value & rhs.resize(w).value)
    }

    /// Bitwise OR.
    pub fn or(&self, rhs: BitVec) -> Self {
        let w = self.arith_width(&rhs);
        Self::new(w, self.resize(w).value | rhs.resize(w).value)
    }

    /// Bitwise XOR.
    pub fn xor(&self, rhs: BitVec) -> Self {
        let w = self.arith_width(&rhs);
        Self::new(w, self.resize(w).value ^ rhs.resize(w).value)
    }

    /// Bitwise NOT.
    pub fn not(&self) -> Self {
        Self::new(self.width, !self.value)
    }

    /// Arithmetic negation.
    pub fn neg(&self) -> Self {
        Self::new(self.width, self.value.wrapping_neg()).with_signed(self.signed)
    }

    // -- Reductions (1-bit results) ---------------------------------------

    /// AND of all bits.
    pub fn reduce_and(&self) -> Self {
        Self::from_bool(self.value == Self::mask_for(self.width))
    }

    /// OR of all bits.
    pub fn reduce_or(&self) -> Self {
        Self::from_bool(self.value != 0)
    }

    /// XOR of all bits (parity).
    pub fn reduce_xor(&self) -> Self {
        Self::from_bool(self.value.count_ones() % 2 == 1)
    }
}

impl fmt::Display for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}'h{:x}", self.width, self.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masking_on_construction() {
        assert_eq!(BitVec::new(4, 0xFF).value(), 0xF);
        assert_eq!(BitVec::new(64, u64::MAX).value(), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "width 0 out of range")]
    fn zero_width_panics() {
        let _ = BitVec::new(0, 0);
    }

    #[test]
    fn wrapping_arithmetic() {
        let a = BitVec::new(4, 0xF);
        let b = BitVec::new(4, 1);
        assert_eq!(a.add(b).value(), 0);
        assert_eq!(b.sub(a).value(), 2); // 1 - 15 = -14 ≡ 2 (mod 16)
        assert_eq!(a.mul(a).value(), 1); // 225 & 0xF
    }

    #[test]
    fn mixed_width_takes_max() {
        let a = BitVec::new(8, 200);
        let b = BitVec::new(4, 10);
        let s = a.add(b);
        assert_eq!(s.width(), 8);
        assert_eq!(s.value(), 210);
    }

    #[test]
    fn signed_extension_on_resize() {
        let a = BitVec::new_signed(4, 0b1000); // -8
        assert_eq!(a.as_i64(), -8);
        let wide = a.resize(8);
        assert_eq!(wide.value(), 0xF8);
        assert_eq!(wide.as_i64(), -8);
        // Unsigned resize zero-extends.
        let u = BitVec::new(4, 0b1000).resize(8);
        assert_eq!(u.value(), 0x08);
    }

    #[test]
    fn division_semantics() {
        let a = BitVec::new(8, 100);
        assert_eq!(a.div(BitVec::new(8, 7)).value(), 14);
        assert_eq!(a.rem(BitVec::new(8, 7)).value(), 2);
        assert_eq!(a.div(BitVec::zero(8)).value(), 0, "div by zero is 0");
        let neg = BitVec::new_signed(8, 0xF8); // -8
        assert_eq!(neg.div(BitVec::new_signed(8, 2)).as_i64(), -4);
    }

    #[test]
    fn shifts() {
        let a = BitVec::new(8, 0b1001_0000);
        assert_eq!(a.shl(BitVec::new(4, 1)).value(), 0b0010_0000);
        assert_eq!(a.shr(BitVec::new(4, 4)).value(), 0b0000_1001);
        // Arithmetic shift on signed negative fills with ones.
        let s = BitVec::new_signed(8, 0b1001_0000);
        assert_eq!(s.ashr(BitVec::new(4, 2)).value(), 0b1110_0100);
        // On unsigned it behaves as logical.
        assert_eq!(a.ashr(BitVec::new(4, 2)).value(), 0b0010_0100);
        // Oversized shift clears.
        assert_eq!(a.shl(BitVec::new(8, 70)).value(), 0);
    }

    #[test]
    fn comparisons_signed_and_unsigned() {
        let a = BitVec::new(4, 0xF);
        let b = BitVec::new(4, 1);
        assert!(b.lt(a).is_true());
        let sa = BitVec::new_signed(4, 0xF); // -1
        let sb = BitVec::new_signed(4, 1);
        assert!(sa.lt(sb).is_true(), "-1 < 1 signed");
        assert!(a.eq(BitVec::new(8, 0xF)).is_true());
    }

    #[test]
    fn reductions() {
        assert!(BitVec::new(4, 0xF).reduce_and().is_true());
        assert!(!BitVec::new(4, 0x7).reduce_and().is_true());
        assert!(BitVec::new(4, 0x8).reduce_or().is_true());
        assert!(!BitVec::zero(4).reduce_or().is_true());
        assert!(BitVec::new(4, 0b0111).reduce_xor().is_true());
        assert!(!BitVec::new(4, 0b0110).reduce_xor().is_true());
    }

    #[test]
    fn concat_and_slice() {
        let hi = BitVec::new(4, 0xA);
        let lo = BitVec::new(4, 0x5);
        let c = hi.concat(lo);
        assert_eq!(c.width(), 8);
        assert_eq!(c.value(), 0xA5);
        assert_eq!(c.slice(7, 4).value(), 0xA);
        assert_eq!(c.slice(3, 0).value(), 0x5);
        assert_eq!(c.bit(0).value(), 1);
        assert_eq!(c.bit(100).value(), 0, "out of range reads 0");
    }

    #[test]
    fn splice_writes_field() {
        let v = BitVec::new(8, 0xFF);
        let w = v.splice(5, 2, BitVec::new(4, 0b0000));
        assert_eq!(w.value(), 0b1100_0011);
        assert_eq!(w.width(), 8);
    }

    #[test]
    fn negation_wraps() {
        assert_eq!(BitVec::new(4, 3).neg().value(), 13);
        assert_eq!(BitVec::zero(4).neg().value(), 0);
    }

    #[test]
    fn pow_wraps() {
        let b = BitVec::new(8, 3);
        assert_eq!(b.pow(BitVec::new(8, 4)).value(), 81);
        assert_eq!(BitVec::new(4, 2).pow(BitVec::new(4, 10)).value(), 0); // 1024 & 0xF
    }

    #[test]
    fn display_format() {
        assert_eq!(BitVec::new(8, 0xAB).to_string(), "8'hab");
    }
}
