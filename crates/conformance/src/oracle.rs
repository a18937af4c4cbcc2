//! The differential oracle: layered invariant checks over one design.
//!
//! Each generated [`DesignSpec`] is pushed through every toolchain layer
//! and cross-checked against independent references:
//!
//! | invariant            | what it pins                                       |
//! |----------------------|----------------------------------------------------|
//! | `build`              | the spec instantiates through `DesignBuilder`      |
//! | `rebuild-hash`       | rebuilding yields the same `structural_hash`       |
//! | `serialize-roundtrip`| `to_text`/`from_text` is a stable fixpoint         |
//! | `finish-analyses`    | banks, interleaving and double-buffering as `finish()` set them == the set-based definitions (`finish.rs`) |
//! | `sim-vs-reference`   | simulator output == plain-Rust reference, bitwise  |
//! | `sim-determinism`    | two simulator runs are bit-identical               |
//! | `backend-differential`| tape-compiled backend == interpreter, bitwise, on every design the tape compiles (counted: [`Conformance::backend_coverage`]) |
//! | `estimate-finite`    | estimator cycles/area are finite and sane          |
//! | `skeleton-recost`    | full elaborate == skeleton + recost netlist        |
//! | `latency-plan`       | planned `estimate_cycles_net` == `estimate_cycles`, bitwise, also through a skeleton built from another parameterization of the same shape |
//! | `par-monotonic`      | more parallelism never shrinks raw area / adds time|
//! | `synth-capacity`     | synthesized resources are sane and bound the model |
//! | `cache-transparency` | `EstimateCache` hit == miss == uncached, bitwise   |
//! | `paramspace-legal`   | the sampled parameters are legal in their space    |
//! | `partition-identity` | K=1 partitioning == unpartitioned path, bitwise    |
//! | `partition-sim`      | a forced cut is structurally sound, and its tape-side run is the interpreter's run plus exactly the plan's link cycles (cuts counted: [`Conformance::cut_coverage`]) |

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use dhdl_core::{serialize, shape_hash, structural_hash, Design, ParamSpace, ParamValues};
use dhdl_dse::{model_fingerprint, CachedModel, CostModel, EstimateCache};
use dhdl_estimate::{estimate_cycles, estimate_cycles_net, Estimate, Estimator};
use dhdl_sim::{compile, simulate, Bindings, CompileError, Compiled, SimResult};
use dhdl_synth::partition::{util_proxy, FIT_MARGIN};
use dhdl_synth::{elaborate, elaborate_with, partition, synthesize, Skeleton};
use dhdl_target::{AreaReport, FpgaTarget, MultiFpgaPlatform, Platform};

use crate::finish::FinishCoverage;
use crate::gen::DesignSpec;

/// Calibration sample count for the shared estimator. Small enough to
/// keep harness start-up fast, large enough that the hybrid area model
/// is exercised for real (not a degenerate fit).
const CALIBRATION_SAMPLES: usize = 40;

/// Calibration seed — fixed and *independent* of the fuzz seed, so the
/// model under test is identical across fuzzing campaigns.
const CALIBRATION_SEED: u64 = 7;

/// One invariant violation observed for a design.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Stable invariant name (see the module table).
    pub invariant: &'static str,
    /// Human-readable detail: what diverged and by how much.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.detail)
    }
}

/// Shared context for conformance checks: the target platform, one
/// calibrated estimator, and one estimate cache reused across designs
/// (so cache transparency is checked under realistic shared state).
pub struct Conformance {
    platform: Platform,
    estimator: Estimator,
    cache: EstimateCache,
    /// Designs through `latency-plan`.
    planned: AtomicU64,
    /// Of those, designs in which at least two transfers compete for the
    /// channel.
    contended: AtomicU64,
    /// Designs through `backend-differential` that the tape compiled.
    compiled: AtomicU64,
    /// Designs it rejected, where the oracle had nothing to compare.
    fell_back: AtomicU64,
    /// Pipe kernels of the compiled designs, by the block width the
    /// tape's hazard analysis chose: `[blocked, serial]`.
    kernels: [AtomicU64; 2],
    /// Designs whose forced cut in `partition-sim` spans more than one
    /// device, and the channels of those cuts.
    cut: AtomicU64,
    channels: AtomicU64,
    /// What `finish-analyses` compared.
    pub(crate) finish: Mutex<FinishCoverage>,
}

impl Default for Conformance {
    fn default() -> Self {
        Self::new()
    }
}

impl Conformance {
    /// Build the shared context (calibrates the estimator once).
    pub fn new() -> Self {
        let platform = Platform::maia();
        let (estimator, _report) =
            Estimator::calibrate_with(&platform, CALIBRATION_SAMPLES, CALIBRATION_SEED);
        let cache = EstimateCache::new(model_fingerprint(&estimator));
        Conformance {
            platform,
            estimator,
            cache,
            planned: AtomicU64::new(0),
            contended: AtomicU64::new(0),
            compiled: AtomicU64::new(0),
            fell_back: AtomicU64::new(0),
            kernels: Default::default(),
            cut: AtomicU64::new(0),
            channels: AtomicU64::new(0),
            finish: Mutex::default(),
        }
    }

    /// `(planned, contended)`: designs the `latency-plan` oracle walked,
    /// and how many of them held at least two competing transfers — at 0
    /// the oracle never exercised a competitor list.
    pub fn latency_plan_coverage(&self) -> (u64, u64) {
        (
            self.planned.load(Ordering::Relaxed),
            self.contended.load(Ordering::Relaxed),
        )
    }

    /// `(compiled, fell_back)`: designs `backend-differential` ran on
    /// the tape, and designs the tape compiler rejected — at 0 compiled
    /// the oracle never compared two backends.
    pub fn backend_coverage(&self) -> (u64, u64) {
        (
            self.compiled.load(Ordering::Relaxed),
            self.fell_back.load(Ordering::Relaxed),
        )
    }

    /// `(blocked, serial)`: pipe kernels of the designs
    /// `backend-differential` compiled that ran in lane-major blocks,
    /// and kernels held at width 1 — at 0 blocked the oracle never
    /// exercised the tape's fast path.
    pub fn kernel_coverage(&self) -> (u64, u64) {
        let [blocked, serial] = &self.kernels;
        (
            blocked.load(Ordering::Relaxed),
            serial.load(Ordering::Relaxed),
        )
    }

    /// `(cut, channels)`: designs whose forced cut in `partition-sim`
    /// placed them on more than one device, and the channels those cuts
    /// carry — at 0 cut the invariant compared single-device plans only.
    pub fn cut_coverage(&self) -> (u64, u64) {
        (
            self.cut.load(Ordering::Relaxed),
            self.channels.load(Ordering::Relaxed),
        )
    }

    /// The platform the checks run against.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Run every invariant against one generated design spec.
    ///
    /// Returns the full list of violations (empty = conforming). Checks
    /// are layered: if the design does not even build, later layers are
    /// skipped rather than reported as cascading noise.
    pub fn check_design(&self, spec: &DesignSpec) -> Vec<Violation> {
        let mut v = Vec::new();
        let design = match spec.build() {
            Ok(d) => d,
            Err(e) => {
                v.push(Violation {
                    invariant: "build",
                    detail: format!("builder rejected generated spec: {e}"),
                });
                return v;
            }
        };
        self.check_structure(&design, spec.build(), &mut v);
        let (x, y) = spec.inputs();
        let expected = spec.reference(&x, &y);
        let mut bindings = Bindings::new().bind("x", x);
        if spec.uses_second() {
            bindings = bindings.bind("y", y);
        }
        let base = self.check_backends(&design, &bindings, Some(&expected), &mut v);
        if let Some((base, _)) = &base {
            self.check_determinism(&design, &bindings, base, &mut v);
        }
        self.check_estimator(spec, &design, &mut v);
        self.check_synth(&design, &mut v);
        self.check_cache(&design, &mut v);
        self.check_params(&spec.param_space(), &spec.param_values(), &mut v);
        let base = base.as_ref().map(|(run, tape)| (run, tape.as_ref()));
        self.check_partition(&design, &bindings, base, &mut v);
        v
    }

    pub(crate) fn check_structure(
        &self,
        design: &Design,
        rebuilt: dhdl_core::Result<Design>,
        v: &mut Vec<Violation>,
    ) {
        self.check_finish_analyses(design, v);
        let h1 = structural_hash(design);
        match rebuilt {
            Ok(again) => {
                let h2 = structural_hash(&again);
                if h1 != h2 {
                    v.push(Violation {
                        invariant: "rebuild-hash",
                        detail: format!("rebuild changed structural hash: {h1:#x} vs {h2:#x}"),
                    });
                }
            }
            Err(e) => v.push(Violation {
                invariant: "rebuild-hash",
                detail: format!("second build failed: {e}"),
            }),
        }
        let text = serialize::to_text(design);
        match serialize::from_text(&text) {
            Ok(parsed) => {
                let h2 = structural_hash(&parsed);
                if h1 != h2 {
                    v.push(Violation {
                        invariant: "serialize-roundtrip",
                        detail: format!("round-trip changed structural hash: {h1:#x} vs {h2:#x}"),
                    });
                }
                let text2 = serialize::to_text(&parsed);
                if text != text2 {
                    v.push(Violation {
                        invariant: "serialize-roundtrip",
                        detail: "to_text(from_text(t)) != t (serialization not a fixpoint)"
                            .to_string(),
                    });
                }
            }
            Err(e) => v.push(Violation {
                invariant: "serialize-roundtrip",
                detail: format!("from_text failed on serialized design: {e}"),
            }),
        }
    }

    /// The simulation layer of every simulated kind: one interpreter
    /// run, compared bit for bit with `reference` where the kind has an
    /// exact one, and one tape compile-and-run held to the interpreter
    /// through [`SimResult::bit_diff`] — outputs, cycles, transfers,
    /// profile and trace alike. Returns the interpreter's result, the
    /// base every later simulation check compares against, and the tape
    /// (`None` where the design fell back), so later checks run it
    /// without compiling again.
    pub(crate) fn check_backends(
        &self,
        design: &Design,
        bindings: &Bindings,
        reference: Option<&[f64]>,
        v: &mut Vec<Violation>,
    ) -> Option<(SimResult, Option<Compiled>)> {
        let interp = match simulate(design, &self.platform, bindings) {
            Ok(r) => r,
            Err(e) => {
                v.push(Violation {
                    invariant: "sim-vs-reference",
                    detail: format!("simulation failed on a legal design: {e}"),
                });
                return None;
            }
        };
        if let Some(expected) = reference {
            compare_bits(&interp, expected, v);
        }
        if interp.cycles <= 0.0 || !interp.cycles.is_finite() {
            v.push(Violation {
                invariant: "sim-vs-reference",
                detail: format!("non-positive simulated cycle count: {}", interp.cycles),
            });
        }
        let compiled = match compile(design, &self.platform) {
            Ok(compiled) => compiled,
            // Outside the tape subset there is no second backend to
            // compare; the count keeps that from going unnoticed.
            Err(CompileError::Unsupported(_)) => {
                self.fell_back.fetch_add(1, Ordering::Relaxed);
                return Some((interp, None));
            }
        };
        self.compiled.fetch_add(1, Ordering::Relaxed);
        let (blocked, serial) = compiled.kernels();
        self.kernels[0].fetch_add(blocked as u64, Ordering::Relaxed);
        self.kernels[1].fetch_add(serial as u64, Ordering::Relaxed);
        match compiled.run(bindings) {
            Ok(tape) => {
                if let Some(diff) = interp.bit_diff(&tape) {
                    v.push(Violation {
                        invariant: "backend-differential",
                        detail: format!("tape backend diverged from interpreter: {diff}"),
                    });
                }
            }
            Err(e) => v.push(Violation {
                invariant: "backend-differential",
                detail: format!("tape backend failed where the interpreter succeeded: {e}"),
            }),
        }
        Some((interp, Some(compiled)))
    }

    /// A second interpreter run on the same inputs is `first`, bit for
    /// bit.
    pub(crate) fn check_determinism(
        &self,
        design: &Design,
        bindings: &Bindings,
        first: &SimResult,
        v: &mut Vec<Violation>,
    ) {
        match simulate(design, &self.platform, bindings) {
            Ok(second) => {
                if let Some(diff) = first.bit_diff(&second) {
                    v.push(Violation {
                        invariant: "sim-determinism",
                        detail: format!("re-running the simulator changed the result: {diff}"),
                    });
                }
            }
            Err(e) => v.push(Violation {
                invariant: "sim-determinism",
                detail: format!("second simulation failed: {e}"),
            }),
        }
    }

    fn check_estimator(&self, spec: &DesignSpec, design: &Design, v: &mut Vec<Violation>) {
        self.check_estimate_sane(design, v);
        // Twice the data is another parameterization of the same shape.
        let mut longer = spec.clone();
        longer.n *= 2;
        self.check_latency_plan(design, longer.build().ok().as_ref(), v);
        if spec.par > 1 {
            let mut serial = spec.clone();
            serial.par = 1;
            if let Ok(sd) = serial.build() {
                self.check_par_monotonic(design, &sd, spec.par, v);
            }
        }
    }

    pub(crate) fn check_estimate_sane(&self, design: &Design, v: &mut Vec<Violation>) {
        let est = self.estimator.estimate(design);
        if !estimate_is_sane(&est) {
            v.push(Violation {
                invariant: "estimate-finite",
                detail: format!(
                    "non-finite or negative estimate: cycles={} alms={} regs={} dsps={} brams={}",
                    est.cycles, est.area.alms, est.area.regs, est.area.dsps, est.area.brams
                ),
            });
        }
        // Elaborate-once equivalence: costing a pre-built netlist must
        // be bit-identical to the all-in-one entry point (the DSE hot
        // path depends on this).
        let net = self.estimator.elaborate(design);
        let via_net = self.estimator.estimate_net(design, &net);
        if est.to_bits() != via_net.to_bits() {
            v.push(Violation {
                invariant: "skeleton-recost",
                detail: "estimate(d) != estimate_net(d, elaborate(d)) bitwise".to_string(),
            });
        }
    }

    /// The latency fast path: the walk over the skeleton's plan equals
    /// the reference walk bit for bit, and so does a walk over a plan
    /// built from `sibling` — another parameterization of the same shape
    /// (skipped, and reported, if it is not one).
    pub(crate) fn check_latency_plan(
        &self,
        design: &Design,
        sibling: Option<&Design>,
        v: &mut Vec<Violation>,
    ) {
        let fpga = &self.platform.fpga;
        let reference = estimate_cycles(design, &self.platform);
        let own = elaborate(design, fpga);
        let mut nets = vec![("its own skeleton", own)];
        match sibling {
            Some(s) if shape_hash(s) == shape_hash(design) => nets.push((
                "a sibling's skeleton",
                elaborate_with(design, fpga, &Skeleton::of(s)),
            )),
            _ => v.push(Violation {
                invariant: "latency-plan",
                detail: "no second parameterization of the same shape to plan from".to_string(),
            }),
        }
        for (via, net) in &nets {
            let planned = estimate_cycles_net(design, &self.platform, net);
            if net.latency.is_none() || planned.to_bits() != reference.to_bits() {
                v.push(Violation {
                    invariant: "latency-plan",
                    detail: format!(
                        "planned walk through {via} gives {planned} cycles, reference {reference}"
                    ),
                });
            }
        }
        let plan = nets[0].1.latency.as_deref();
        let contended = plan.is_some_and(|p| !p.competitors.is_empty());
        self.planned.fetch_add(1, Ordering::Relaxed);
        self.contended
            .fetch_add(u64::from(contended), Ordering::Relaxed);
    }

    /// Monotonicity in parallelism: serializing the inner pipes (par=1)
    /// must not *increase* raw datapath area, nor can it be faster than
    /// the parallel version under the analytic model.
    pub(crate) fn check_par_monotonic(
        &self,
        design: &Design,
        serial: &Design,
        par: u32,
        v: &mut Vec<Violation>,
    ) {
        let wide = self.estimator.raw_area(design);
        let narrow = self.estimator.raw_area(serial);
        // Small absolute slack: control/banking overhead is not
        // perfectly linear, but duplicated compute dominates.
        let slack = 1.0 + narrow.alms * 0.01;
        if wide.alms + slack < narrow.alms || wide.dsps + 0.5 < narrow.dsps {
            v.push(Violation {
                invariant: "par-monotonic",
                detail: format!(
                    "par={par} raw area (alms {:.1}, dsps {:.1}) below par=1 \
                     (alms {:.1}, dsps {:.1})",
                    wide.alms, wide.dsps, narrow.alms, narrow.dsps
                ),
            });
        }
        let fast = self.estimator.cycles(design);
        let slow = self.estimator.cycles(serial);
        if fast > slow * 1.05 + 16.0 {
            v.push(Violation {
                invariant: "par-monotonic",
                detail: format!(
                    "par={par} estimated {fast:.0} cycles, slower than par=1 ({slow:.0})"
                ),
            });
        }
    }

    pub(crate) fn check_synth(&self, design: &Design, v: &mut Vec<Violation>) {
        let fpga = &self.platform.fpga;
        let full = elaborate(design, fpga);
        let skel = Skeleton::of(design);
        let recost = elaborate_with(design, fpga, &skel);
        if full != recost {
            v.push(Violation {
                invariant: "skeleton-recost",
                detail: "elaborate(d) != elaborate_with(d, Skeleton::of(d))".to_string(),
            });
        }
        let rep = synthesize(design, fpga);
        let fields = [
            ("alms", rep.alms),
            ("regs", rep.regs),
            ("dsps", rep.dsps),
            ("brams", rep.brams),
        ];
        for (name, val) in fields {
            if !val.is_finite() || val < 0.0 {
                v.push(Violation {
                    invariant: "synth-capacity",
                    detail: format!("synthesized {name} is not a sane resource count: {val}"),
                });
            }
        }
        // Generated designs are small; they must land on the device and
        // the calibrated model must bound them to the same order of
        // magnitude as the synthesis ground truth.
        let area = AreaReport {
            alms: rep.alms,
            regs: rep.regs,
            dsps: rep.dsps,
            brams: rep.brams,
        };
        if !area.fits(fpga) {
            v.push(Violation {
                invariant: "synth-capacity",
                detail: format!(
                    "small generated design does not fit the target: alms {:.0}/{} dsps \
                     {:.0}/{} brams {:.0}/{}",
                    rep.alms, fpga.alms, rep.dsps, fpga.dsps, rep.brams, fpga.brams
                ),
            });
        }
        let est = self.estimator.area(design);
        let (bound, abs) = (8.0, 4_000.0);
        if est.alms > rep.alms * bound + abs || rep.alms > est.alms * bound + abs {
            v.push(Violation {
                invariant: "synth-capacity",
                detail: format!(
                    "model alms {:.0} and synthesized alms {:.0} disagree beyond {bound}x",
                    est.alms, rep.alms
                ),
            });
        }
    }

    pub(crate) fn check_cache(&self, design: &Design, v: &mut Vec<Violation>) {
        let direct = self.estimator.estimate(design);
        let cm = CachedModel::new(&self.estimator, &self.cache);
        // The first call may hit (a structurally identical design was
        // cached earlier in the campaign) or miss; the second call is a
        // guaranteed hit. All paths must be bit-identical to uncached.
        let first = cm.estimate(design);
        let second = cm.estimate(design);
        if direct.to_bits() != first.to_bits() || direct.to_bits() != second.to_bits() {
            v.push(Violation {
                invariant: "cache-transparency",
                detail: format!(
                    "cached estimate diverged from uncached: direct cycles={}, miss={}, hit={}",
                    direct.cycles, first.cycles, second.cycles
                ),
            });
        }
        if self.cache.get(structural_hash(design)).is_none() && estimate_is_sane(&direct) {
            v.push(Violation {
                invariant: "cache-transparency",
                detail: "finite estimate was not retained by the cache".to_string(),
            });
        }
    }

    /// The multi-FPGA layer: K=1 partitioning is the unpartitioned path
    /// bit for bit, and a forced cut (against a deliberately shrunken
    /// device, since generated designs fit a real Stratix V whole) is a
    /// pure scheduling transform. A plan never changes the executed run,
    /// so what is independent here is the plan's structure, and one more
    /// run of `tape` (the interpreter where `check_backends` fell back)
    /// serves both plans: under each it is the interpreter's `base` run
    /// plus exactly the plan's link cycles.
    pub(crate) fn check_partition(
        &self,
        design: &Design,
        bindings: &Bindings,
        base: Option<(&SimResult, Option<&Compiled>)>,
        v: &mut Vec<Violation>,
    ) {
        let fpga = &self.platform.fpga;
        let mp = MultiFpgaPlatform::from_platform(&self.platform, 4);

        let whole = elaborate(design, fpga);
        let p1 = partition(design, fpga, &mp.link, 1);
        if !p1.is_single() || !p1.channels.is_empty() || p1.partitions[0].net != whole {
            v.push(Violation {
                invariant: "partition-identity",
                detail: format!(
                    "K=1 plan is not the unpartitioned elaboration \
                     (single={}, channels={})",
                    p1.is_single(),
                    p1.channels.len()
                ),
            });
        }

        // An unsimulatable design is already pinned by
        // `sim-vs-reference`; partitioned runs would only cascade.
        let Some((base, tape)) = base else { return };
        let mut run = match tape {
            Some(tape) => tape.run(bindings),
            None => simulate(design, &mp.base, bindings),
        };
        match &mut run {
            Ok(run) => {
                // The run under the K=1 plan: the shared run plus its link
                // cycles, which must be none.
                let link = p1.link_cycles(&mp.link);
                if p1.devices_used() != 1 || link != 0.0 {
                    v.push(Violation {
                        invariant: "partition-identity",
                        detail: format!(
                            "K=1 run reports {} devices and {link} link cycles",
                            p1.devices_used()
                        ),
                    });
                }
                let cycles = run.cycles;
                run.cycles = cycles + link;
                if let Some(diff) = base.bit_diff(run) {
                    v.push(Violation {
                        invariant: "partition-identity",
                        detail: format!("K=1 multi-device run diverged from simulate: {diff}"),
                    });
                }
                run.cycles = cycles;
            }
            Err(e) => v.push(Violation {
                invariant: "partition-identity",
                detail: format!("K=1 multi-device simulation failed: {e}"),
            }),
        }

        // Force a real cut: shrink every capacity axis so the whole
        // design sits at ~2x the fit margin of one "device", then check
        // the partitioned run against the single-device reference.
        let u = util_proxy(&whole.raw, fpga);
        if !u.is_finite() || u <= 0.0 {
            return;
        }
        let scale = u / (2.0 * FIT_MARGIN);
        let shrink = |cap: u64| ((cap as f64 * scale).ceil() as u64).max(1);
        let tiny = FpgaTarget {
            alms: shrink(fpga.alms),
            dsps: shrink(fpga.dsps),
            brams: shrink(fpga.brams),
            ..fpga.clone()
        };
        let parts = partition(design, &tiny, &mp.link, mp.num_devices);
        let used = parts.devices_used();
        if used > 1 {
            self.cut.fetch_add(1, Ordering::Relaxed);
            self.channels
                .fetch_add(parts.channels.len() as u64, Ordering::Relaxed);
        }
        if used < 1 || used > mp.num_devices {
            v.push(Violation {
                invariant: "partition-sim",
                detail: format!("forced cut uses {used} of {} devices", mp.num_devices),
            });
        }
        for ch in &parts.channels {
            if ch.src == ch.dst || ch.src >= used || ch.dst >= used {
                v.push(Violation {
                    invariant: "partition-sim",
                    detail: format!(
                        "channel {} -> {} is not between distinct placed devices",
                        ch.src, ch.dst
                    ),
                });
            }
            if ch.words == 0 || ch.word_bits == 0 || ch.transfers == 0 {
                v.push(Violation {
                    invariant: "partition-sim",
                    detail: format!(
                        "channel {} -> {} carries no traffic (words={}, bits={}, transfers={})",
                        ch.src, ch.dst, ch.words, ch.word_bits, ch.transfers
                    ),
                });
            }
        }
        let link_cycles = parts.link_cycles(&mp.link);
        if !link_cycles.is_finite() || link_cycles < 0.0 {
            v.push(Violation {
                invariant: "partition-sim",
                detail: format!("plan link cycles are not sane: {link_cycles}"),
            });
        }
        let mut cut = match run {
            Ok(run) => run,
            Err(e) => {
                v.push(Violation {
                    invariant: "partition-sim",
                    detail: format!("partitioned simulation failed: {e}"),
                });
                return;
            }
        };
        // The run under the cut: the shared run plus the plan's link
        // cycles, priced again — the oracle composes the run itself, so
        // the link term must be a function of plan and link alone.
        let reported = parts.link_cycles(&mp.link);
        cut.cycles += reported;
        if reported.to_bits() != link_cycles.to_bits()
            || cut.cycles.to_bits() != (base.cycles + link_cycles).to_bits()
        {
            v.push(Violation {
                invariant: "partition-sim",
                detail: format!(
                    "cycle accounting: base {} + link {} != partitioned {} (reported link {})",
                    base.cycles, link_cycles, cut.cycles, reported
                ),
            });
        }
        // Apart from the cycle count just checked, the cut run is the
        // base run: outputs, transfers, profile and trace.
        cut.cycles = base.cycles;
        if let Some(diff) = base.bit_diff(&cut) {
            v.push(Violation {
                invariant: "partition-sim",
                detail: format!(
                    "a cut changed the run (must be a pure scheduling transform): {diff}"
                ),
            });
        }
    }

    pub(crate) fn check_params(
        &self,
        space: &ParamSpace,
        values: &ParamValues,
        v: &mut Vec<Violation>,
    ) {
        if !space.is_legal(values) {
            v.push(Violation {
                invariant: "paramspace-legal",
                detail: format!("sampled values {values} are illegal in their own space"),
            });
        }
        for def in space.defs() {
            let Some(val) = values.get(&def.name) else {
                v.push(Violation {
                    invariant: "paramspace-legal",
                    detail: format!("parameter `{}` was never sampled", def.name),
                });
                continue;
            };
            if !def.kind.legal_values().contains(&val) {
                v.push(Violation {
                    invariant: "paramspace-legal",
                    detail: format!("`{}` = {val} is not among the legal values", def.name),
                });
            }
        }
    }
}

fn compare_bits(result: &SimResult, expected: &[f64], v: &mut Vec<Violation>) {
    let got = match result.output("out") {
        Ok(g) => g,
        Err(e) => {
            v.push(Violation {
                invariant: "sim-vs-reference",
                detail: format!("missing `out` array: {e}"),
            });
            return;
        }
    };
    if got.len() != expected.len() {
        v.push(Violation {
            invariant: "sim-vs-reference",
            detail: format!("`out` length {} != reference {}", got.len(), expected.len()),
        });
        return;
    }
    for (i, (g, e)) in got.iter().zip(expected).enumerate() {
        if g.to_bits() != e.to_bits() {
            v.push(Violation {
                invariant: "sim-vs-reference",
                detail: format!(
                    "`out`[{i}] = {g} ({:#x}), reference {e} ({:#x})",
                    g.to_bits(),
                    e.to_bits()
                ),
            });
            return; // one mismatch pins the case; the rest is noise
        }
    }
}

fn estimate_is_sane(est: &Estimate) -> bool {
    let a = &est.area;
    est.is_finite()
        && est.cycles > 0.0
        && [a.alms, a.regs, a.dsps, a.brams].iter().all(|x| *x >= 0.0)
}
