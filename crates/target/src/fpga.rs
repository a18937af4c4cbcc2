//! FPGA fabric model: device capacities, raw resource vectors and
//! post-place-and-route area reports.
//!
//! The paper's experiments target the Altera Stratix V GS D8 on a Maxeler
//! MAIA board (§V). The estimator, the synthesis model and the design
//! space pruner all reason about the same four capacity axes — ALMs, DSP
//! blocks, M20K block RAMs and registers — so they live here, in the one
//! crate every layer depends on.

/// Raw (pre-packing) resource counts of a netlist fragment.
///
/// LUTs are split by packability (§IV-A): "about 80% of functions pack in
/// pairs" — the remainder (carry chains, wide functions) must occupy a
/// whole ALM each. All counts are `f64` because characterized template
/// costs are fractional averages.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Resources {
    /// LUTs that the placer may pack two-per-ALM.
    pub lut_packable: f64,
    /// LUTs that need a full ALM (carry chains, wide functions).
    pub lut_unpackable: f64,
    /// Flip-flops.
    pub regs: f64,
    /// Hard multiplier (DSP) blocks.
    pub dsps: f64,
    /// Physical block RAMs (M20Ks).
    pub brams: f64,
}

impl Resources {
    /// The empty resource vector.
    pub fn zero() -> Self {
        Self::default()
    }

    /// Total LUTs, packable or not.
    pub fn luts(&self) -> f64 {
        self.lut_packable + self.lut_unpackable
    }

    /// Every component scaled by `k` (e.g. lane replication).
    pub fn times(&self, k: f64) -> Self {
        Resources {
            lut_packable: self.lut_packable * k,
            lut_unpackable: self.lut_unpackable * k,
            regs: self.regs * k,
            dsps: self.dsps * k,
            brams: self.brams * k,
        }
    }

    /// Component-wise sum, by reference.
    pub fn plus(&self, other: &Resources) -> Self {
        *self + *other
    }
}

impl std::ops::Add for Resources {
    type Output = Resources;

    fn add(self, other: Resources) -> Resources {
        Resources {
            lut_packable: self.lut_packable + other.lut_packable,
            lut_unpackable: self.lut_unpackable + other.lut_unpackable,
            regs: self.regs + other.regs,
            dsps: self.dsps + other.dsps,
            brams: self.brams + other.brams,
        }
    }
}

impl std::ops::AddAssign for Resources {
    fn add_assign(&mut self, other: Resources) {
        *self = *self + other;
    }
}

impl std::iter::Sum for Resources {
    fn sum<I: Iterator<Item = Resources>>(iter: I) -> Resources {
        iter.fold(Resources::zero(), |a, b| a + b)
    }
}

/// Post-place-and-route area in device units: the quantities Table III
/// compares between the estimator, the synthesis model and the device.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AreaReport {
    /// Adaptive logic modules.
    pub alms: f64,
    /// Flip-flops (each ALM carries its own; reported for completeness).
    pub regs: f64,
    /// DSP blocks.
    pub dsps: f64,
    /// M20K block RAMs.
    pub brams: f64,
}

impl AreaReport {
    /// Does this design fit on `target`? Registers are not checked
    /// separately: the packing closure already charges excess registers
    /// as ALMs.
    pub fn fits(&self, target: &FpgaTarget) -> bool {
        self.alms <= target.alms as f64
            && self.dsps <= target.dsps as f64
            && self.brams <= target.brams as f64
    }

    /// Fractional utilization of each capacity axis: `(alm, dsp, bram)`.
    pub fn utilization(&self, target: &FpgaTarget) -> (f64, f64, f64) {
        (
            self.alms / target.alms as f64,
            self.dsps / target.dsps as f64,
            self.brams / target.brams as f64,
        )
    }
}

/// An FPGA device preset: capacities, packing geometry and fabric clock.
#[derive(Debug, Clone, PartialEq)]
pub struct FpgaTarget {
    /// Device name.
    pub name: String,
    /// Adaptive logic modules (each holds one fracturable 8-input LUT).
    pub alms: u64,
    /// Registers the packing model assumes per ALM before spilling
    /// registers into their own ALMs (the two "loose" ALM registers).
    pub regs_per_alm: u32,
    /// ALMs per logic array block — the granularity at which the placer
    /// wastes resources ("unavailable" LUTs, §IV-A).
    pub alms_per_lab: u32,
    /// Hard 27×27 multiplier (DSP) blocks.
    pub dsps: u64,
    /// M20K block RAMs.
    pub brams: u64,
    /// Bits per block RAM (M20K = 20 kbit).
    pub bram_bits: u64,
    /// Widest supported block-RAM port in bits (M20K = 512×40).
    pub bram_max_width: u32,
    /// Fabric (kernel) clock in Hz.
    pub fabric_clock_hz: f64,
}

impl FpgaTarget {
    /// The Stratix V GS D8 class device on the Maxeler MAIA board used for
    /// all of the paper's experiments (§V): 262K ALMs, 1963 27×27 DSPs,
    /// 2567 M20Ks, 150 MHz fabric clock.
    pub fn stratix_v() -> Self {
        FpgaTarget {
            name: "Stratix V (MAIA)".to_string(),
            alms: 262_400,
            regs_per_alm: 2,
            alms_per_lab: 10,
            dsps: 1_963,
            brams: 2_567,
            bram_bits: 20 * 1024,
            bram_max_width: 40,
            fabric_clock_hz: 150e6,
        }
    }

    /// A midrange (Arria-V-class) device: same architecture, roughly a
    /// third of the capacity. Used to study how device size constrains
    /// the valid design space.
    pub fn midrange() -> Self {
        FpgaTarget {
            name: "Midrange (Arria V class)".to_string(),
            alms: 76_800,
            regs_per_alm: 2,
            alms_per_lab: 10,
            dsps: 342,
            brams: 557,
            bram_bits: 20 * 1024,
            bram_max_width: 40,
            fabric_clock_hz: 150e6,
        }
    }

    /// Deepest native block-RAM configuration whose port is at least
    /// `word_bits` wide. M20K geometry: 512×40, 1K×20, 2K×10, 4K×5,
    /// 8K×2, 16K×1 (depth caps at 16K — the 8K×2 and 16K×1 modes waste
    /// capacity, as on the real device).
    fn bram_depth_for(&self, word_bits: u32) -> u64 {
        match word_bits {
            1 => 16_384,
            2 => 8_192,
            3..=5 => 4_096,
            6..=10 => 2_048,
            11..=20 => 1_024,
            _ => self.bram_bits / u64::from(self.bram_max_width.max(1)),
        }
    }

    /// Number of physical block RAMs needed for one logical memory of
    /// `depth` words of `word_bits` bits, following the native port
    /// configurations: words wider than the widest port are split across
    /// side-by-side BRAMs at the shallowest depth.
    pub fn brams_for(&self, depth: u64, word_bits: u32) -> u64 {
        if depth == 0 || word_bits == 0 {
            return 0;
        }
        if word_bits > self.bram_max_width {
            let columns = u64::from(word_bits.div_ceil(self.bram_max_width));
            let min_depth = self.bram_bits / u64::from(self.bram_max_width);
            columns * depth.div_ceil(min_depth)
        } else {
            depth.div_ceil(self.bram_depth_for(word_bits))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stratix_v_capacities() {
        let t = FpgaTarget::stratix_v();
        assert_eq!(t.alms, 262_400);
        assert_eq!(t.dsps, 1_963);
        assert_eq!(t.brams, 2_567);
        assert_eq!(t.regs_per_alm, 2);
        assert_eq!(t.fabric_clock_hz, 150e6);
        assert_eq!(t.name, "Stratix V (MAIA)");
    }

    #[test]
    fn midrange_is_smaller_on_every_axis() {
        let big = FpgaTarget::stratix_v();
        let mid = FpgaTarget::midrange();
        assert!(mid.alms < big.alms);
        assert!(mid.dsps < big.dsps);
        assert!(mid.brams < big.brams);
    }

    #[test]
    fn brams_for_boundary_widths() {
        let t = FpgaTarget::stratix_v();
        // One M20K in each native configuration (widths 1, 20, 40).
        assert_eq!(t.brams_for(16_384, 1), 1);
        assert_eq!(t.brams_for(1_024, 20), 1);
        assert_eq!(t.brams_for(512, 40), 1);
        // One word past the native depth spills into a second block.
        assert_eq!(t.brams_for(16_385, 1), 2);
        assert_eq!(t.brams_for(1_025, 20), 2);
        assert_eq!(t.brams_for(513, 40), 2);
        // Intermediate widths round up to the next native port.
        assert_eq!(t.brams_for(1_024, 11), 1);
        assert_eq!(t.brams_for(2_048, 10), 1);
        assert_eq!(t.brams_for(512, 21), 1);
    }

    #[test]
    fn brams_for_typical_tiles() {
        let t = FpgaTarget::stratix_v();
        // A 512-deep 32-bit tile buffer is exactly one M20K (512×40 port).
        assert_eq!(t.brams_for(512, 32), 1);
        assert_eq!(t.brams_for(128, 32), 1);
        assert_eq!(t.brams_for(1_024, 32), 2);
        assert_eq!(t.brams_for(4_096, 32), 8);
    }

    #[test]
    fn wide_words_split_across_columns() {
        let t = FpgaTarget::stratix_v();
        // 64-bit words need two side-by-side M20Ks.
        assert_eq!(t.brams_for(512, 64), 2);
        assert_eq!(t.brams_for(513, 64), 4);
        assert_eq!(t.brams_for(512, 41), 2);
    }

    #[test]
    fn brams_for_degenerate_inputs() {
        let t = FpgaTarget::stratix_v();
        assert_eq!(t.brams_for(0, 32), 0);
        assert_eq!(t.brams_for(512, 0), 0);
        assert_eq!(t.brams_for(1, 1), 1);
    }

    #[test]
    fn resources_helpers() {
        let r = Resources {
            lut_packable: 10.0,
            lut_unpackable: 5.0,
            regs: 20.0,
            dsps: 1.0,
            brams: 2.0,
        };
        assert_eq!(r.luts(), 15.0);
        assert_eq!(r.times(2.0).regs, 40.0);
        assert_eq!(r.plus(&r), r.times(2.0));
        let mut acc = Resources::zero();
        acc += r;
        acc += r;
        assert_eq!(acc, r.times(2.0));
        assert_eq!(vec![r, r, r].into_iter().sum::<Resources>(), r.times(3.0));
    }

    #[test]
    fn fits_and_utilization() {
        let t = FpgaTarget::stratix_v();
        let half = AreaReport {
            alms: t.alms as f64 / 2.0,
            regs: 1000.0,
            dsps: t.dsps as f64 / 2.0,
            brams: t.brams as f64 / 2.0,
        };
        assert!(half.fits(&t));
        let (a, d, b) = half.utilization(&t);
        assert!((a - 0.5).abs() < 1e-12);
        assert!((d - 0.5).abs() < 1e-12);
        assert!((b - 0.5).abs() < 1e-12);
        let over = AreaReport {
            brams: t.brams as f64 + 1.0,
            ..half
        };
        assert!(!over.fits(&t));
    }
}
