//! Unit and property tests for the conformance harness itself: generator
//! determinism and diversity, corpus serialization round-trips, shrinker
//! invariant preservation, and a mini fuzz campaign (the full campaign
//! is the `dhdl-fuzz` binary; CI replays `tests/corpus/` on top).

use dhdl_conformance::corpus::{
    design_from_line, design_to_line, dnn_from_line, dnn_to_line, pattern_from_line,
    pattern_to_line, CorpusCase,
};
use dhdl_conformance::{
    generate, generate_dnn, generate_pattern, shrink, shrink_dnn, CaseKind, Conformance, DnnKind,
};
use proptest::prelude::*;

#[test]
fn generator_is_deterministic_and_diverse() {
    for id in 0..20 {
        assert_eq!(generate(42, id), generate(42, id));
        assert_eq!(generate_pattern(42, id), generate_pattern(42, id));
    }
    // Different case ids under one seed yield different specs (the spec
    // embeds its case id, so compare the structural payload).
    let mut shapes = std::collections::BTreeSet::new();
    for id in 0..20 {
        let s = generate(7, id);
        shapes.insert(format!(
            "{:?}|{}|{}|{}|{:?}|{:?}|{:?}",
            s.ty, s.n, s.tile, s.par, s.stage1, s.stage2, s.reduce
        ));
    }
    assert!(
        shapes.len() > 10,
        "generator collapsed: {} shapes",
        shapes.len()
    );
    // Different master seeds change the stream.
    assert_ne!(generate(0, 3).param_values(), generate(1, 3).param_values());
}

#[test]
fn generated_designs_build_and_have_legal_params() {
    for id in 0..40 {
        let spec = generate(99, id);
        let design = spec.build().unwrap_or_else(|e| panic!("case {id}: {e}"));
        assert!(design.offchips().len() >= 2, "case {id}: missing offchips");
        assert!(
            spec.param_space().is_legal(&spec.param_values()),
            "case {id}: illegal params"
        );
        assert_eq!(spec.n % spec.tile, 0, "case {id}: tile does not divide n");
        assert_eq!(
            spec.tile % u64::from(spec.par),
            0,
            "case {id}: par does not divide tile"
        );
    }
}

#[test]
fn dnn_generator_is_deterministic_and_covers_both_kinds() {
    let mut kinds = std::collections::BTreeSet::new();
    let mut shapes = std::collections::BTreeSet::new();
    for id in 0..24 {
        let spec = generate_dnn(42, id);
        assert_eq!(spec, generate_dnn(42, id));
        kinds.insert(format!("{:?}", spec.kind));
        shapes.insert(format!(
            "{:?}|{}|{}|{}|{}|{}",
            spec.kind, spec.size, spec.cout, spec.tile, spec.par, spec.par2
        ));
        // Every sampled point must be legal in the benchmark's own space
        // and instantiate through the builder.
        assert!(
            spec.param_space().is_legal(&spec.param_values()),
            "dnn case {id}: illegal params"
        );
        spec.build()
            .unwrap_or_else(|e| panic!("dnn case {id}: {e}"));
    }
    assert_eq!(kinds.len(), 2, "generator never drew one of the kinds");
    assert!(shapes.len() > 10, "dnn generator collapsed: {shapes:?}");
}

#[test]
fn corpus_case_files_roundtrip() {
    let design = CorpusCase {
        invariant: "sim-vs-reference".to_string(),
        kind: CaseKind::Design(generate(3, 17)),
    };
    let pattern = CorpusCase {
        invariant: "none".to_string(),
        kind: CaseKind::Pattern(generate_pattern(3, 17)),
    };
    let dnn = CorpusCase {
        invariant: "backend-differential".to_string(),
        kind: CaseKind::Dnn(generate_dnn(3, 17)),
    };
    for case in [design, pattern, dnn] {
        let text = case.to_text();
        let back = CorpusCase::from_text(&text).expect("case file parses");
        assert_eq!(back, case);
        // File names are stable and distinguish the two spec kinds.
        assert!(case.file_name().ends_with(".case"));
    }
}

#[test]
fn corpus_rejects_malformed_input() {
    assert!(CorpusCase::from_text("").is_err());
    assert!(CorpusCase::from_text("dhdl-fuzz case v1\n").is_err());
    assert!(CorpusCase::from_text("dhdl-fuzz case v1\ninvariant=x\njunk line\n").is_err());
    assert!(design_from_line("design v1 case=zz").is_err());
    assert!(design_from_line("pattern v1 case=0").is_err());
    assert!(dnn_from_line("dnn v1 case=0 kind=rnn size=8").is_err());
    assert!(dnn_from_line("dnn v1 case=0 kind=conv size=8").is_err());
    assert!(pattern_from_line("pattern v1 case=0 len=64 two=0 steps=Wat:in0 red=-").is_err());
    let good = design_to_line(&generate(0, 0));
    assert!(design_from_line(&good.replace("ty=", "ty=q")).is_err());
}

proptest! {
    /// Every generated spec survives the one-line corpus encoding
    /// exactly, including float literals (stored as IEEE-754 bits).
    #[test]
    fn corpus_lines_roundtrip_exactly(seed in 0u64..10_000, id in 0u64..128) {
        let spec = generate(seed, id);
        prop_assert_eq!(design_from_line(&design_to_line(&spec)).unwrap(), spec);
        let pat = generate_pattern(seed, id);
        prop_assert_eq!(pattern_from_line(&pattern_to_line(&pat)).unwrap(), pat);
        let dnn = generate_dnn(seed, id);
        prop_assert_eq!(dnn_from_line(&dnn_to_line(&dnn)).unwrap(), dnn);
    }
}

#[test]
fn mini_design_campaign_is_clean() {
    let conf = Conformance::new();
    for id in 0..15 {
        let spec = generate(0, id);
        let violations = conf.check_design(&spec);
        assert!(
            violations.is_empty(),
            "case {id} violated: {:?}",
            violations
        );
    }
    // The `latency-plan` oracle must not pass vacuously: it ran on every
    // design, and some design had transfers competing for the channel.
    let (planned, contended) = conf.latency_plan_coverage();
    assert_eq!(planned, 15);
    assert!(contended >= 1, "no competitor list was ever walked");
    // Nor `backend-differential`: the tape compiled some design, so two
    // backends were compared.
    let (compiled, fell_back) = conf.backend_coverage();
    assert_eq!(compiled + fell_back, 15);
    assert!(compiled > 0, "every design fell back to the interpreter");
    let (blocked, _serial) = conf.kernel_coverage();
    assert!(blocked > 0, "no kernel ran in lane-major blocks");
    // Nor `partition-sim`: some forced cut spanned devices.
    let (cut, _channels) = conf.cut_coverage();
    assert!(cut > 0, "no forced cut spanned two devices");
    // Nor `finish-analyses`: every verdict was compared.
    let finish = conf.finish_coverage();
    assert_eq!(finish.designs, 15);
    assert!(finish.is_complete(), "{finish}");
}

/// `finish()`'s banking and double-buffering equal the set-based
/// definitions on every legal point of the nine applications — the
/// designs every sweep builds.
#[test]
fn finish_analyses_match_the_set_definitions_on_every_legal_point() {
    let conf = Conformance::new();
    let mut v = Vec::new();
    let mut points = 0u64;
    for bench in dhdl_apps::all().into_iter().chain(dhdl_apps::dnn()) {
        for p in dhdl_dse::LegalSpace::new(&bench.param_space()).enumerate() {
            if let Ok(design) = bench.build(&p) {
                conf.check_finish_analyses(&design, &mut v);
            }
            points += 1;
        }
        assert!(v.is_empty(), "{}: {:?}", bench.name(), &v[..v.len().min(3)]);
    }
    let finish = conf.finish_coverage();
    assert!(finish.designs * 2 > points, "few of {points} points build");
    assert!(finish.designs > 50_000 && finish.is_complete(), "{finish}");
}

#[test]
fn mini_pattern_campaign_is_clean() {
    let conf = Conformance::new();
    for id in 0..8 {
        let spec = generate_pattern(0, id);
        let violations = conf.check_pattern(&spec);
        assert!(
            violations.is_empty(),
            "pattern {id} violated: {:?}",
            violations
        );
    }
}

#[test]
fn mini_dnn_campaign_is_clean() {
    let conf = Conformance::new();
    for id in 0..6 {
        let spec = generate_dnn(0, id);
        let violations = conf.check_dnn(&spec);
        assert!(
            violations.is_empty(),
            "dnn case {id} violated: {violations:?}"
        );
    }
}

#[test]
fn dnn_shrinker_preserves_the_violated_invariant() {
    let conf = Conformance::new();
    // A tile below the space's minimum of 2 is buildable but violates
    // `paramspace-legal` (mirrors the design-spec shrink test).
    let mut spec = generate_dnn(0, 0);
    while spec.kind != DnnKind::Attn {
        spec = generate_dnn(0, spec.case_id + 1);
    }
    spec.size = 12;
    spec.tile = 1;
    spec.par = 1;
    spec.par2 = 1;
    let violations = conf.check_dnn(&spec);
    assert!(
        violations.iter().any(|v| v.invariant == "paramspace-legal"),
        "expected a paramspace violation, got {violations:?}"
    );
    let small = shrink_dnn(&conf, &spec, "paramspace-legal");
    let still = conf.check_dnn(&small);
    assert!(
        still.iter().any(|v| v.invariant == "paramspace-legal"),
        "shrinking lost the violated invariant"
    );
}

#[test]
fn dnn_reference_matches_simulator_bitwise_on_both_kinds() {
    use dhdl_sim::{simulate_compiled, Bindings};
    use dhdl_target::Platform;
    let platform = Platform::maia();
    let mut kinds = std::collections::BTreeSet::new();
    let mut id = 0;
    while kinds.len() < 2 && id < 32 {
        let spec = generate_dnn(5, id);
        id += 1;
        if !kinds.insert(format!("{:?}", spec.kind)) {
            continue;
        }
        let design = spec.build().expect("builds");
        let inputs = spec.inputs();
        let mut b = Bindings::new();
        for (name, data) in &inputs {
            b = b.bind(name, data.clone());
        }
        // The tape-backend entry point (falls back if unsupported).
        let result = simulate_compiled(&design, &platform, &b).expect("simulates");
        let got = result.output("out").expect("has out");
        let expected = spec.reference(&inputs);
        assert_eq!(got.len(), expected.len(), "{:?} length", spec.kind);
        for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
            assert_eq!(
                g.to_bits(),
                e.to_bits(),
                "{:?}: out[{i}] = {g} vs reference {e}",
                spec.kind
            );
        }
    }
    assert_eq!(kinds.len(), 2, "never drew both kinds in 32 cases");
}

#[test]
fn shrinker_preserves_the_violated_invariant() {
    let conf = Conformance::new();
    // A tile that does not divide its own parameter space's `divides`
    // bound is structurally buildable but violates `paramspace-legal`.
    let mut spec = generate(0, 5);
    spec.n = 64;
    spec.tile = 24;
    spec.par = 1;
    spec.load_par = 1;
    let violations = conf.check_design(&spec);
    assert!(
        violations.iter().any(|v| v.invariant == "paramspace-legal"),
        "expected a paramspace violation, got {violations:?}"
    );
    let small = shrink(&conf, &spec, "paramspace-legal");
    let still = conf.check_design(&small);
    assert!(
        still.iter().any(|v| v.invariant == "paramspace-legal"),
        "shrinking lost the violated invariant"
    );
}

#[test]
fn reference_evaluator_matches_simulator_bitwise() {
    use dhdl_sim::{simulate, Bindings};
    use dhdl_target::Platform;
    let platform = Platform::maia();
    for id in [0, 3, 9, 14] {
        let spec = generate(11, id);
        let design = spec.build().expect("builds");
        let (x, y) = spec.inputs();
        let mut b = Bindings::new().bind("x", x.clone());
        if spec.uses_second() {
            b = b.bind("y", y.clone());
        }
        let result = simulate(&design, &platform, &b).expect("simulates");
        let got = result.output("out").expect("has out");
        let expected = spec.reference(&x, &y);
        assert_eq!(got.len(), expected.len(), "case {id} length");
        for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
            assert_eq!(
                g.to_bits(),
                e.to_bits(),
                "case {id}: out[{i}] = {g} vs reference {e}"
            );
        }
    }
}

#[test]
fn partition_oracle_forced_cuts_are_not_vacuous() {
    // The `partition-sim` invariant forces a cut by shrinking the device
    // until the whole design overflows it; if the placer still returned
    // single-device plans the invariant would hold vacuously. Replicate
    // the oracle's shrink rule and confirm generated specs really split.
    // The plans themselves are pinned too: every forced-cut plan at
    // K = 2, 3 and 4 folds into one FNV-64 digest — units, every channel
    // field and each partition's raw resource bits.
    use dhdl_core::Fnv64;
    use dhdl_synth::partition::{util_proxy, Partitioning, FIT_MARGIN};
    use dhdl_synth::{elaborate, partition};
    use dhdl_target::{FpgaTarget, MultiFpgaPlatform, Platform};
    fn fold(h: &mut Fnv64, plan: &Partitioning) {
        h.write_u64(plan.partitions.len() as u64);
        for part in &plan.partitions {
            h.write_u64(part.units.len() as u64);
            for u in &part.units {
                h.write_u64(u.index() as u64);
            }
            let r = &part.net.raw;
            for x in [r.lut_packable, r.lut_unpackable, r.regs, r.dsps, r.brams] {
                h.write_u64(x.to_bits());
            }
        }
        h.write_u64(plan.channels.len() as u64);
        for ch in &plan.channels {
            for x in [
                u64::from(ch.src),
                u64::from(ch.dst),
                ch.mem.index() as u64,
                ch.words,
                u64::from(ch.word_bits),
                ch.transfers,
                u64::from(ch.overlapped),
            ] {
                h.write_u64(x);
            }
        }
    }
    let platform = Platform::maia();
    let fpga = &platform.fpga;
    let mp = MultiFpgaPlatform::from_platform(&platform, 4);
    let mut cut = 0;
    let mut digest = Fnv64::new();
    for id in 0..200u64 {
        let design = generate(0, id).build().expect("builds");
        let u = util_proxy(&elaborate(&design, fpga).raw, fpga);
        assert!(
            u.is_finite() && u > 0.0,
            "case {id}: degenerate utilization"
        );
        let scale = u / (2.0 * FIT_MARGIN);
        let shrink = |cap: u64| ((cap as f64 * scale).ceil() as u64).max(1);
        let tiny = FpgaTarget {
            alms: shrink(fpga.alms),
            dsps: shrink(fpga.dsps),
            brams: shrink(fpga.brams),
            ..fpga.clone()
        };
        for k in 2..=mp.num_devices {
            let plan = partition(&design, &tiny, &mp.link, k);
            if k == mp.num_devices && plan.devices_used() > 1 {
                cut += 1;
            }
            fold(&mut digest, &plan);
        }
    }
    assert!(
        cut >= 100,
        "only {cut}/200 specs were cut; the oracle barely fires"
    );
    assert_eq!(
        format!("{:016x}", digest.finish()),
        "428c58b78abbe7cb",
        "forced-cut plans changed"
    );
}
