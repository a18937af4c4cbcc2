//! The malformed-payload generator, shared by the live protocol fuzz
//! (`tests/protocol_fuzz.rs`) and the codec-equivalence unit tests
//! (`src/codec_tests.rs`), which include this file by path.

use rand::rngs::StdRng;
use rand::Rng;

/// One malformed payload, drawn from a seeded generator in the style of
/// the conformance harness: structured mutations of `valid` (a rendered
/// `estimate` request) plus raw garbage, so the fuzz walks both
/// near-misses and noise.
pub fn hostile_payload(rng: &mut StdRng, valid: &[u8]) -> Vec<u8> {
    match rng.gen_range(0..10u32) {
        // Raw bytes, possibly invalid UTF-8.
        0 => (0..rng.gen_range(0..200usize))
            .map(|_| rng.gen_range(0..=255u32) as u8)
            .collect(),
        // Truncated valid request.
        1 => {
            let cut = rng.gen_range(0..valid.len());
            valid[..cut].to_vec()
        }
        // Valid JSON, wrong shape.
        2 => b"[1,2,3]".to_vec(),
        3 => b"42".to_vec(),
        4 => br#"{"not_op":"health"}"#.to_vec(),
        // Unknown / mistyped ops and fields.
        5 => br#"{"op":"warp_drive"}"#.to_vec(),
        6 => br#"{"op":"sweep","bench":"dotproduct","points":"many"}"#.to_vec(),
        7 => br#"{"op":"estimate","bench":"no-such-bench","params":{}}"#.to_vec(),
        // Deep nesting (must hit the parser's depth guard, not the stack).
        8 => {
            let depth = rng.gen_range(100..2000usize);
            let mut v = vec![b'['; depth];
            v.extend(vec![b']'; depth]);
            v
        }
        // A huge (but in-limit) string body.
        _ => {
            let mut v = br#"{"op":""#.to_vec();
            v.extend(vec![b'x'; rng.gen_range(0..8192usize)]);
            v.extend(br#""}"#);
            v
        }
    }
}
