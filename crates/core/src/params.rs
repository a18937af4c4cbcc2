//! Design parameters and parameter spaces.
//!
//! A DHDL program is a metaprogram: concrete parameter values are passed as
//! arguments to instantiate a design (§III). The paper's design space is
//! spanned by three kinds of parameters (§III-C): **tile sizes** controlling
//! on-chip buffer extents, **parallelization factors** controlling the
//! number of parallel iterations, and **MetaPipe toggles** controlling
//! whether an outer loop is implemented as a `Sequential` or a `MetaPipe`.

use std::fmt;

use crate::error::{DhdlError, Result};
use crate::small::{ShortStr, SmallList};

/// The kind and legal range of one design parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamKind {
    /// A tile size. Legal values are divisors of `divides` (the annotated
    /// data dimension), bounded by `min..=max` (§IV-C pruning heuristics).
    Tile {
        /// The data dimension the tile must divide.
        divides: u64,
        /// Minimum tile size considered.
        min: u64,
        /// Maximum tile size considered.
        max: u64,
    },
    /// A parallelization factor. Legal values are divisors of `divides`
    /// (the loop trip count) up to `max`.
    Par {
        /// The iteration count the factor must divide.
        divides: u64,
        /// Maximum factor considered.
        max: u64,
    },
    /// A MetaPipe toggle: 0 (Sequential) or 1 (MetaPipe).
    Toggle,
    /// A device-count parameter for multi-FPGA partitioning. Legal
    /// values are the powers of two `1..=max` (1 means single-chip).
    Devices {
        /// Maximum number of devices considered.
        max: u64,
    },
}

/// The conventional name of the device-count parameter a multi-FPGA
/// design space carries (see [`ParamSpace::devices`]).
pub const NUM_FPGAS: &str = "num_fpgas";

impl ParamKind {
    /// Enumerate the legal values of this parameter, applying the divisor
    /// pruning heuristics of §IV-C.
    pub fn legal_values(&self) -> Vec<u64> {
        match *self {
            ParamKind::Tile { divides, min, max } => divisors_in(divides, min, max),
            ParamKind::Par { divides, max } => divisors_in(divides, 1, max),
            ParamKind::Toggle => vec![0, 1],
            ParamKind::Devices { max } => {
                let mut out = vec![];
                let mut k = 1u64;
                while k <= max {
                    out.push(k);
                    k *= 2;
                }
                out
            }
        }
    }
}

fn divisors_in(n: u64, min: u64, max: u64) -> Vec<u64> {
    if n == 0 {
        return vec![];
    }
    let mut out: Vec<u64> = (1..=n)
        .take_while(|d| d * d <= n)
        .filter(|d| n % d == 0)
        .flat_map(|d| [d, n / d])
        .filter(|&d| d >= min && d <= max)
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// A named design parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamDef {
    /// Parameter name, unique within a [`ParamSpace`].
    pub name: String,
    /// Kind and legal range.
    pub kind: ParamKind,
}

/// The declared parameter space of a benchmark. Each name is declared
/// once; declaring it again panics.
///
/// # Examples
///
/// ```
/// use dhdl_core::{ParamSpace, ParamValues};
///
/// let mut space = ParamSpace::new();
/// space.tile("ts", 96, 8, 96);
/// space.par("p", 16, 8);
/// space.toggle("mp");
/// assert_eq!(space.len(), 3);
/// let defaults = space.defaults();
/// assert!(space.is_legal(&defaults));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ParamSpace {
    defs: Vec<ParamDef>,
}

impl ParamSpace {
    /// An empty parameter space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a tile-size parameter dividing `divides`, in `min..=max`.
    pub fn tile(&mut self, name: &str, divides: u64, min: u64, max: u64) -> &mut Self {
        self.declare(name, ParamKind::Tile { divides, min, max })
    }

    /// Add a parallelization-factor parameter dividing `divides`, `<= max`.
    pub fn par(&mut self, name: &str, divides: u64, max: u64) -> &mut Self {
        self.declare(name, ParamKind::Par { divides, max })
    }

    /// Add a MetaPipe toggle parameter.
    pub fn toggle(&mut self, name: &str) -> &mut Self {
        self.declare(name, ParamKind::Toggle)
    }

    /// Add the device-count parameter [`NUM_FPGAS`] with up to `max`
    /// devices (legal values: powers of two `1..=max`).
    pub fn devices(&mut self, max: u64) -> &mut Self {
        self.declare(NUM_FPGAS, ParamKind::Devices { max })
    }

    /// Append one definition. A name is declared once: an assignment
    /// holds one value per name, so a second definition could only be
    /// ignored or overwrite the first.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already declared.
    fn declare(&mut self, name: &str, kind: ParamKind) -> &mut Self {
        assert!(
            self.defs.iter().all(|d| d.name != name),
            "parameter `{name}` is declared twice"
        );
        self.defs.push(ParamDef {
            name: name.to_string(),
            kind,
        });
        self
    }

    /// The parameter definitions, in declaration order.
    pub fn defs(&self) -> &[ParamDef] {
        &self.defs
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// Whether the space has no parameters.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// Total number of legal points (product of per-parameter counts).
    pub fn size(&self) -> u128 {
        self.defs
            .iter()
            .map(|d| d.kind.legal_values().len() as u128)
            .product()
    }

    /// A default (smallest-legal-value, toggles on) assignment.
    pub fn defaults(&self) -> ParamValues {
        let mut v = ParamValues::new();
        for d in &self.defs {
            let val = match &d.kind {
                ParamKind::Toggle => 1,
                k => *k.legal_values().first().unwrap_or(&1),
            };
            v.set(&d.name, val);
        }
        v
    }

    /// Whether `values` assigns a legal value to every parameter.
    pub fn is_legal(&self, values: &ParamValues) -> bool {
        self.defs.iter().all(|d| {
            values
                .get(&d.name)
                .is_some_and(|v| d.kind.legal_values().contains(&v))
        })
    }
}

/// A concrete assignment of values to parameters.
///
/// A name-sorted list of `(name, value)` entries held in place (up to
/// eight parameters of up to 22-byte names — every benchmark's space):
/// creating, cloning and dropping an assignment touches no heap, which a
/// sweep does once per point.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct ParamValues {
    /// Sorted by name; one entry per name.
    entries: SmallList<(ShortStr, u64), 8>,
}

impl ParamValues {
    /// An empty assignment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Where `name` is, or where it would be inserted.
    fn position(&self, name: &str) -> std::result::Result<usize, usize> {
        self.entries
            .binary_search_by(|(n, _)| n.as_bytes().cmp(name.as_bytes()))
    }

    /// Set a parameter value, returning `self` for chaining.
    pub fn set(&mut self, name: &str, value: u64) -> &mut Self {
        match self.position(name) {
            Ok(i) => self.entries[i].1 = value,
            Err(i) => self.entries.insert(i, (name.into(), value)),
        }
        self
    }

    /// Set the value of the `index`-th name in name order (the one
    /// [`ParamValues::iter`] yields `index`-th), comparing no names: an
    /// assignment whose names are known fills its values by position.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not below the number of names.
    pub fn set_nth(&mut self, index: usize, value: u64) {
        self.entries[index].1 = value;
    }

    /// Builder-style `set`.
    pub fn with(mut self, name: &str, value: u64) -> Self {
        self.set(name, value);
        self
    }

    /// Get a parameter value if present.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.position(name).ok().map(|i| self.entries[i].1)
    }

    /// Get a required tile-size/index parameter.
    ///
    /// # Errors
    ///
    /// Returns [`DhdlError::Parameter`] if the parameter is missing.
    pub fn dim(&self, name: &str) -> Result<u64> {
        self.get(name)
            .ok_or_else(|| DhdlError::Parameter(format!("missing parameter `{name}`")))
    }

    /// Get a required parallelization factor as `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`DhdlError::Parameter`] if missing or zero.
    pub fn par(&self, name: &str) -> Result<u32> {
        let v = self.dim(name)?;
        if v == 0 || v > u64::from(u32::MAX) {
            return Err(DhdlError::Parameter(format!(
                "parallelization factor `{name}` = {v} out of range"
            )));
        }
        Ok(v as u32)
    }

    /// Get a required toggle as `bool`.
    ///
    /// # Errors
    ///
    /// Returns [`DhdlError::Parameter`] if the parameter is missing.
    pub fn toggle(&self, name: &str) -> Result<bool> {
        Ok(self.dim(name)? != 0)
    }

    /// Iterate over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// [`ParamValues::iter`] with each name as its bytes, without the
    /// UTF-8 check that reading an in-place name as `&str` costs.
    pub fn iter_bytes(&self) -> impl Iterator<Item = (&[u8], u64)> {
        self.entries.iter().map(|(k, v)| (k.as_bytes(), *v))
    }
}

impl fmt::Display for ParamValues {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.iter().map(|(k, v)| format!("{k}={v}")).collect();
        write!(f, "{{{}}}", parts.join(", "))
    }
}

impl fmt::Debug for ParamValues {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl FromIterator<(String, u64)> for ParamValues {
    /// The last value given for a name wins.
    fn from_iter<T: IntoIterator<Item = (String, u64)>>(iter: T) -> Self {
        let mut values = ParamValues::new();
        for (name, value) in iter {
            values.set(&name, value);
        }
        values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divisor_enumeration() {
        assert_eq!(
            divisors_in(96, 1, 96),
            vec![1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 96]
        );
        assert_eq!(divisors_in(96, 8, 48), vec![8, 12, 16, 24, 32, 48]);
        assert_eq!(divisors_in(7, 1, 7), vec![1, 7]);
        assert!(divisors_in(0, 1, 10).is_empty());
    }

    #[test]
    fn legal_values_by_kind() {
        let t = ParamKind::Tile {
            divides: 64,
            min: 4,
            max: 32,
        };
        assert_eq!(t.legal_values(), vec![4, 8, 16, 32]);
        let p = ParamKind::Par {
            divides: 12,
            max: 6,
        };
        assert_eq!(p.legal_values(), vec![1, 2, 3, 4, 6]);
        assert_eq!(ParamKind::Toggle.legal_values(), vec![0, 1]);
    }

    #[test]
    fn space_size_and_defaults() {
        let mut s = ParamSpace::new();
        s.tile("ts", 64, 4, 64).par("p", 16, 16).toggle("m");
        assert_eq!(s.size(), 5 * 5 * 2);
        let d = s.defaults();
        assert_eq!(d.get("ts"), Some(4));
        assert_eq!(d.get("m"), Some(1));
        assert!(s.is_legal(&d));
        let bad = ParamValues::new().with("ts", 5).with("p", 1).with("m", 0);
        assert!(!s.is_legal(&bad));
    }

    #[test]
    #[should_panic(expected = "parameter `q` is declared twice")]
    fn a_second_declaration_of_a_name_is_refused() {
        ParamSpace::new().par("q", 16, 8).tile("q", 64, 16, 64);
    }

    #[test]
    fn devices_legal_values_are_powers_of_two() {
        assert_eq!(ParamKind::Devices { max: 1 }.legal_values(), vec![1]);
        assert_eq!(ParamKind::Devices { max: 4 }.legal_values(), vec![1, 2, 4]);
        assert_eq!(
            ParamKind::Devices { max: 6 }.legal_values(),
            vec![1, 2, 4],
            "non-power-of-two maxima round down"
        );
        let mut s = ParamSpace::new();
        s.devices(8);
        assert_eq!(s.defs()[0].name, NUM_FPGAS);
        // Single-chip is the default: partitioning is strictly opt-in.
        assert_eq!(s.defaults().get(NUM_FPGAS), Some(1));
        assert!(s.is_legal(&s.defaults()));
    }

    #[test]
    fn value_accessors() {
        let v = ParamValues::new().with("a", 8).with("t", 0);
        assert_eq!(v.dim("a").unwrap(), 8);
        assert_eq!(v.par("a").unwrap(), 8);
        assert!(!v.toggle("t").unwrap());
        assert!(v.dim("missing").is_err());
        assert_eq!(v.to_string(), "{a=8, t=0}");
    }
}
