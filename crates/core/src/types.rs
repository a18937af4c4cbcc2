//! Scalar data types supported by DHDL.
//!
//! DHDL supports variable bit-width fixed-point types, floating point types,
//! and booleans (paper §III-B). Every node that produces or stores data has
//! an associated [`DType`].

use std::fmt;
use std::str::FromStr;

use crate::error::DhdlError;

/// A DHDL scalar element type.
///
/// # Examples
///
/// ```
/// use dhdl_core::DType;
///
/// let f = DType::F32;
/// assert_eq!(f.bits(), 32);
/// let q = DType::fixed(true, 15, 16);
/// assert_eq!(q.bits(), 32);
/// assert!(!q.is_float());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum DType {
    /// Fixed-point number with a sign bit flag, integer bits and fraction bits.
    Fix {
        /// Whether the value is signed (adds one sign bit to the width).
        sign: bool,
        /// Number of integer bits.
        int: u16,
        /// Number of fractional bits.
        frac: u16,
    },
    /// IEEE-754 single-precision floating point.
    #[default]
    F32,
    /// IEEE-754 double-precision floating point.
    F64,
    /// Single-bit boolean.
    Bool,
}

impl DType {
    /// Convenience constructor for a fixed-point type.
    ///
    /// # Examples
    ///
    /// ```
    /// use dhdl_core::DType;
    /// assert_eq!(DType::fixed(false, 32, 0).bits(), 32);
    /// ```
    pub fn fixed(sign: bool, int: u16, frac: u16) -> Self {
        DType::Fix { sign, int, frac }
    }

    /// A signed 32-bit integer, represented as `Fix{sign, 31, 0}`.
    pub fn i32() -> Self {
        DType::Fix {
            sign: true,
            int: 31,
            frac: 0,
        }
    }

    /// An unsigned 32-bit index type.
    pub fn index() -> Self {
        DType::Fix {
            sign: false,
            int: 32,
            frac: 0,
        }
    }

    /// Total storage width of the type in bits.
    pub fn bits(&self) -> u32 {
        match *self {
            DType::Fix { sign, int, frac } => u32::from(sign) + u32::from(int) + u32::from(frac),
            DType::F32 => 32,
            DType::F64 => 64,
            DType::Bool => 1,
        }
    }

    /// Whether this type is a floating point type.
    pub fn is_float(&self) -> bool {
        matches!(self, DType::F32 | DType::F64)
    }

    /// `2^k`, the scale of a fixed-point format with `k` fraction bits,
    /// built from its exponent bits: the bits of `2.0f64.powi(k)`
    /// (`+inf` past `k = 1023`) at a constant cost.
    #[inline]
    pub fn pow2(k: u32) -> f64 {
        if k > 1023 {
            f64::INFINITY
        } else {
            f64::from_bits(u64::from(k + 1023) << 52)
        }
    }

    /// Quantize an `f64` working value to this type's representable set.
    ///
    /// The functional simulator computes in `f64` and calls this after every
    /// operation so results match what the generated hardware would produce
    /// (to within the fidelity of the model).
    #[inline]
    pub fn quantize(&self, x: f64) -> f64 {
        match *self {
            DType::F32 => x as f32 as f64,
            DType::F64 => x,
            DType::Bool => {
                if x != 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            DType::Fix { sign, int, frac } => {
                let scale = DType::pow2(u32::from(frac));
                let scaled = (x * scale).round();
                let max = DType::pow2(u32::from(int) + u32::from(frac)) - 1.0;
                let min = if sign { -max - 1.0 } else { 0.0 };
                scaled.clamp(min, max) / scale
            }
        }
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DType::Fix { sign, int, frac } => {
                write!(f, "{}fix{}.{}", if sign { "s" } else { "u" }, int, frac)
            }
            DType::F32 => write!(f, "f32"),
            DType::F64 => write!(f, "f64"),
            DType::Bool => write!(f, "bool"),
        }
    }
}

/// The inverse of `Display`: `f32`, `f64`, `bool`, `sfixI.F`, `ufixI.F`.
impl FromStr for DType {
    type Err = DhdlError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let fixed = |sign: bool, bits: &str| {
            let (int, frac) = bits.split_once('.')?;
            Some(DType::fixed(sign, int.parse().ok()?, frac.parse().ok()?))
        };
        match s {
            "f32" => Some(DType::F32),
            "f64" => Some(DType::F64),
            "bool" => Some(DType::Bool),
            _ => match (s.strip_prefix("sfix"), s.strip_prefix("ufix")) {
                (Some(bits), _) => fixed(true, bits),
                (_, Some(bits)) => fixed(false, bits),
                _ => None,
            },
        }
        .ok_or_else(|| DhdlError::Type(format!("unknown type `{s}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow2_is_powi_bit_for_bit() {
        // `int` and `frac` are `u16`s, so a format's exponents reach
        // 2 * 65 535.
        for k in 0..=131_070u32 {
            assert_eq!(
                DType::pow2(k).to_bits(),
                2.0f64.powi(k as i32).to_bits(),
                "2^{k}"
            );
        }
    }

    #[test]
    fn bit_widths() {
        assert_eq!(DType::F32.bits(), 32);
        assert_eq!(DType::F64.bits(), 64);
        assert_eq!(DType::Bool.bits(), 1);
        assert_eq!(DType::fixed(true, 15, 16).bits(), 32);
        assert_eq!(DType::fixed(false, 8, 8).bits(), 16);
    }

    #[test]
    fn quantize_f32_rounds() {
        let x = 1.000000001234567_f64;
        assert_eq!(DType::F32.quantize(x), x as f32 as f64);
        assert_eq!(DType::F64.quantize(x), x);
    }

    #[test]
    fn quantize_bool() {
        assert_eq!(DType::Bool.quantize(3.5), 1.0);
        assert_eq!(DType::Bool.quantize(0.0), 0.0);
        assert_eq!(DType::Bool.quantize(-1.0), 1.0);
    }

    #[test]
    fn quantize_fixed_saturates() {
        let q = DType::fixed(false, 4, 0); // range [0, 15]
        assert_eq!(q.quantize(20.0), 15.0);
        assert_eq!(q.quantize(-3.0), 0.0);
        assert_eq!(q.quantize(7.4), 7.0);
    }

    #[test]
    fn quantize_fixed_fraction() {
        let q = DType::fixed(true, 3, 2); // step 0.25
        assert_eq!(q.quantize(1.13), 1.25);
        assert_eq!(q.quantize(-1.13), -1.25);
    }

    #[test]
    fn display_forms() {
        assert_eq!(DType::F32.to_string(), "f32");
        assert_eq!(DType::fixed(true, 15, 16).to_string(), "sfix15.16");
        assert_eq!(DType::Bool.to_string(), "bool");
        let types = [DType::F64, DType::i32(), DType::fixed(false, 3, 9)];
        assert!(types.iter().all(|&ty| ty.to_string().parse() == Ok(ty)));
        let bad = ["f16", "sfix3", "ufix3.", "xfix3.2", "sfix70000.0"];
        assert!(bad.iter().all(|s| s.parse::<DType>().is_err()));
    }
}
