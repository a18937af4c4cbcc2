//! Streaming sweep checkpoints: an interrupted exploration resumes
//! without re-evaluating completed points.
//!
//! The checkpoint is a line-oriented text file. A header pins the sweep
//! configuration (sampling seed, point budget, memory cap, legal-space
//! size and parameter names); one record per completed point follows,
//! appended and flushed as workers finish so a kill at any moment loses
//! at most the points in flight. Floating-point fields are stored as IEEE
//! bit patterns in hex, so a resumed sweep reconstructs *bit-identical*
//! [`DesignPoint`]s and the final result equals an uninterrupted run's.
//!
//! A checkpoint whose header does not match the current sweep (different
//! seed, budget, cap or parameter space) is considered stale and
//! overwritten; a torn trailing record (from a mid-write kill) is
//! ignored. Completed sweeps delete their checkpoint, so only
//! interrupted runs leave one behind.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use dhdl_core::{ParamSpace, ParamValues};
use dhdl_estimate::Estimate;

use crate::runner::{DseError, PointOutcome};
use crate::search::{DesignPoint, DseOptions};

const MAGIC: &str = "dhdl-dse-checkpoint v2";

/// One surrogate acquisition round's bookkeeping, recorded in the
/// checkpoint so a resumed run can verify its deterministic replay: the
/// acquisition RNG state at the start of the round and the size of the
/// training set the round's surrogates were fitted on. A mismatch on
/// resume means the replay diverged (different code or data), which is
/// warned about and counted rather than trusted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SurrogateRound {
    /// Acquisition RNG state (SplitMix64) before the round's batch was
    /// selected.
    pub rng_state: u64,
    /// Number of evaluated training samples the round's surrogates saw.
    pub train_len: usize,
}

/// An open sweep checkpoint: previously completed outcomes plus an
/// append handle for streaming new ones.
#[derive(Debug)]
pub struct Checkpoint {
    path: PathBuf,
    param_names: Vec<String>,
    done: BTreeMap<usize, PointOutcome>,
    rounds: BTreeMap<u64, SurrogateRound>,
    file: Mutex<File>,
}

impl Checkpoint {
    /// Open (resuming) or create (fresh) the checkpoint at `path` for a
    /// sweep over `space` with `opts`. An existing file with a matching
    /// header yields its completed outcomes; a stale or unreadable file
    /// is replaced.
    ///
    /// # Errors
    ///
    /// Returns an error if the file (or its parent directory) cannot be
    /// created or opened.
    pub fn open(
        path: &Path,
        space: &ParamSpace,
        opts: &DseOptions,
        space_size: u128,
    ) -> io::Result<Checkpoint> {
        let param_names: Vec<String> = space.defs().iter().map(|d| d.name.clone()).collect();
        let header = header_lines(opts, space_size, &param_names);
        if let Some((done, rounds)) = try_resume(path, &header, &param_names) {
            let file = OpenOptions::new().append(true).open(path)?;
            return Ok(Checkpoint {
                path: path.to_path_buf(),
                param_names,
                done,
                rounds,
                file: Mutex::new(file),
            });
        }
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        // Write the fresh header to a temp file and rename it into
        // place, so a kill during creation can never leave a file that
        // *starts* like a checkpoint but has a torn header — the next
        // open sees either the old file or a complete header.
        let tmp = path.with_extension("ckpt.tmp");
        {
            let mut file = File::create(&tmp)?;
            file.write_all(header.join("\n").as_bytes())?;
            file.write_all(b"\n")?;
            file.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(Checkpoint {
            path: path.to_path_buf(),
            param_names,
            done: BTreeMap::new(),
            rounds: BTreeMap::new(),
            file: Mutex::new(file),
        })
    }

    /// Outcomes restored from a previous interrupted run, keyed by
    /// sample index.
    pub fn completed(&self) -> &BTreeMap<usize, PointOutcome> {
        &self.done
    }

    /// Number of restored outcomes.
    pub fn restored(&self) -> usize {
        self.done.len()
    }

    /// The surrogate round record restored for `round`, if any.
    pub(crate) fn surrogate_round(&self, round: u64) -> Option<&SurrogateRound> {
        self.rounds.get(&round)
    }

    /// Append one surrogate round record. Like [`Checkpoint::append`],
    /// failures warn but never interrupt the sweep.
    pub(crate) fn append_surrogate_round(&self, round: u64, rec: &SurrogateRound) {
        let line = format!("S {round} {:016x} {}\n", rec.rng_state, rec.train_len);
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        if let Err(e) = file.write_all(line.as_bytes()) {
            eprintln!(
                "warning: checkpoint append to {} failed: {e}",
                self.path.display()
            );
        }
    }

    /// Append one finished outcome. Failures are reported to stderr but
    /// never interrupt the sweep: a broken checkpoint only costs resume
    /// coverage, not results.
    pub(crate) fn append(&self, index: usize, outcome: &PointOutcome) {
        let Some(line) = record_line(index, outcome, &self.param_names) else {
            return; // Skipped points are re-claimed by the resumed run.
        };
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        if let Err(e) = file.write_all(line.as_bytes()) {
            eprintln!(
                "warning: checkpoint append to {} failed: {e}",
                self.path.display()
            );
        }
    }

    /// Delete the checkpoint file (called after a complete, untruncated
    /// sweep).
    pub fn remove(self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

fn header_lines(opts: &DseOptions, space_size: u128, param_names: &[String]) -> Vec<String> {
    vec![
        MAGIC.to_string(),
        format!(
            "seed={:x} max_points={} mem_cap_bits={} space_size={}",
            opts.seed, opts.max_points, opts.mem_cap_bits, space_size
        ),
        // The full strategy descriptor, not just its name: a surrogate
        // checkpoint written under different tuning selects different
        // batches, so resuming it would silently change results.
        format!("strategy={}", opts.strategy.descriptor()),
        format!("params={}", param_names.join(" ")),
    ]
}

/// Parse an existing checkpoint, returning its completed outcomes if the
/// header matches the current sweep configuration.
///
/// Every way an existing file can disappoint is handled without a
/// panic and *with a warning*: a missing file is simply fresh (silent),
/// but a stale or corrupt header, an unreadable file, or torn/corrupt
/// records are each reported to stderr and counted on the
/// `checkpoint.stale` / `checkpoint.dropped_records` obs counters, then
/// the sweep proceeds — a bad checkpoint only ever costs resume
/// coverage, never the sweep itself.
type Restored = (BTreeMap<usize, PointOutcome>, BTreeMap<u64, SurrogateRound>);

fn try_resume(path: &Path, header: &[String], param_names: &[String]) -> Option<Restored> {
    let mut text = String::new();
    match File::open(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => return None,
        Err(e) => {
            eprintln!(
                "warning: checkpoint {} unreadable ({e}); starting a fresh sweep",
                path.display()
            );
            dhdl_obs::counter!("checkpoint.stale").incr();
            return None;
        }
        Ok(mut f) => {
            if let Err(e) = f.read_to_string(&mut text) {
                eprintln!(
                    "warning: checkpoint {} unreadable ({e}); starting a fresh sweep",
                    path.display()
                );
                dhdl_obs::counter!("checkpoint.stale").incr();
                return None;
            }
        }
    }
    let mut lines = text.lines();
    for expected in header {
        if lines.next() != Some(expected.as_str()) {
            eprintln!(
                "warning: checkpoint {} has a stale or corrupt header; starting a fresh sweep",
                path.display()
            );
            dhdl_obs::counter!("checkpoint.stale").incr();
            return None;
        }
    }
    let mut done = BTreeMap::new();
    let mut rounds = BTreeMap::new();
    let mut dropped = 0usize;
    while let Some(line) = lines.next() {
        // A torn trailing record (kill mid-write) parses as None; stop
        // there and let the resumed run redo that point. Anything after
        // the tear is untrustworthy (the format is append-only), so it
        // is dropped too — but loudly, never silently.
        match parse_record(line, param_names) {
            Some(Record::Outcome(idx, outcome)) => {
                done.insert(idx, outcome);
            }
            Some(Record::Round(round, rec)) => {
                rounds.insert(round, rec);
            }
            None => {
                dropped = lines.count() + 1;
                break;
            }
        }
    }
    if dropped > 0 {
        eprintln!(
            "warning: checkpoint {} is torn after {} records; dropping {dropped} trailing line(s) and re-evaluating those points",
            path.display(),
            done.len()
        );
        dhdl_obs::counter!("checkpoint.dropped_records").add(dropped as u64);
    }
    Some((done, rounds))
}

/// Serialize one outcome as a checkpoint record line (with trailing
/// newline). Skipped points produce no record.
fn record_line(index: usize, outcome: &PointOutcome, param_names: &[String]) -> Option<String> {
    let line = match outcome {
        PointOutcome::Evaluated { point, attempts } => {
            let values: Vec<String> = param_names
                .iter()
                .map(|n| {
                    point
                        .params
                        .get(n)
                        .map_or("-".to_string(), |v| v.to_string())
                })
                .collect();
            let [cycles, alms, regs, dsps, brams] = Estimate {
                cycles: point.cycles,
                area: point.area,
            }
            .to_bits();
            format!(
                "P {index} {attempts} {} {cycles:016x} {alms:016x} {regs:016x} {dsps:016x} \
                 {brams:016x} {}\n",
                u8::from(point.valid),
                values.join(" ")
            )
        }
        PointOutcome::Discarded(DseError::Build(msg)) => {
            format!("D {index} build {}\n", flatten(msg))
        }
        PointOutcome::Discarded(DseError::MemCap { bits, cap_bits }) => {
            format!("D {index} memcap {bits} {cap_bits}\n")
        }
        PointOutcome::Discarded(DseError::Panic { attempts, message }) => {
            format!("D {index} panic {attempts} {}\n", flatten(message))
        }
        PointOutcome::Discarded(DseError::NonFinite { attempts }) => {
            format!("D {index} nonfinite {attempts}\n")
        }
        PointOutcome::Skipped => return None,
    };
    Some(line)
}

/// A parsed checkpoint record: a point outcome (`P`/`D` lines) or a
/// surrogate round (`S` lines).
#[derive(Debug, PartialEq)]
#[allow(clippy::large_enum_variant)] // outcomes outnumber rounds; see `PointOutcome`
enum Record {
    Outcome(usize, PointOutcome),
    Round(u64, SurrogateRound),
}

/// Parse one record line; `None` on any malformation.
fn parse_record(line: &str, param_names: &[String]) -> Option<Record> {
    let mut fields = line.split(' ');
    let tag = fields.next()?;
    if tag == "S" {
        let round: u64 = fields.next()?.parse().ok()?;
        let rng_state = u64::from_str_radix(fields.next()?, 16).ok()?;
        let train_len: usize = fields.next()?.parse().ok()?;
        if fields.next().is_some() {
            return None;
        }
        return Some(Record::Round(
            round,
            SurrogateRound {
                rng_state,
                train_len,
            },
        ));
    }
    let index: usize = fields.next()?.parse().ok()?;
    match tag {
        "P" => {
            let attempts: u32 = fields.next()?.parse().ok()?;
            let valid = match fields.next()? {
                "0" => false,
                "1" => true,
                _ => return None,
            };
            let mut bits = [0u64; 5];
            for b in &mut bits {
                *b = u64::from_str_radix(fields.next()?, 16).ok()?;
            }
            let Estimate { cycles, area } = Estimate::from_bits(bits);
            let mut params = ParamValues::new();
            for name in param_names {
                let raw = fields.next()?;
                if raw != "-" {
                    params.set(name, raw.parse().ok()?);
                }
            }
            if fields.next().is_some() {
                return None;
            }
            Some(Record::Outcome(
                index,
                PointOutcome::Evaluated {
                    point: DesignPoint {
                        params,
                        cycles,
                        area,
                        valid,
                    },
                    attempts,
                },
            ))
        }
        "D" => {
            let kind = fields.next()?;
            let rest = |fields: std::str::Split<'_, char>| -> String {
                fields.collect::<Vec<_>>().join(" ")
            };
            let error = match kind {
                "build" => DseError::Build(rest(fields)),
                "memcap" => DseError::MemCap {
                    bits: fields.next()?.parse().ok()?,
                    cap_bits: fields.next()?.parse().ok()?,
                },
                "panic" => {
                    let attempts: u32 = fields.next()?.parse().ok()?;
                    DseError::Panic {
                        attempts,
                        message: rest(fields),
                    }
                }
                "nonfinite" => DseError::NonFinite {
                    attempts: fields.next()?.parse().ok()?,
                },
                _ => return None,
            };
            Some(Record::Outcome(index, PointOutcome::Discarded(error)))
        }
        _ => None,
    }
}

/// Newlines would tear the line-oriented format; spaces are fine because
/// messages are always the trailing field.
fn flatten(msg: &str) -> String {
    msg.replace(['\n', '\r'], " ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhdl_target::AreaReport;

    fn names() -> Vec<String> {
        vec!["par".to_string(), "tile".to_string()]
    }

    fn sample_point() -> PointOutcome {
        PointOutcome::Evaluated {
            point: DesignPoint {
                params: ParamValues::new().with("par", 4).with("tile", 64),
                cycles: 123456.75,
                area: AreaReport {
                    alms: 1.5,
                    regs: 2.25,
                    dsps: 0.0,
                    brams: 7.125,
                },
                valid: true,
            },
            attempts: 2,
        }
    }

    #[test]
    fn records_roundtrip_bit_exactly() {
        let outcomes = [
            sample_point(),
            PointOutcome::Discarded(DseError::Build("missing parameter `p`".into())),
            PointOutcome::Discarded(DseError::MemCap {
                bits: 9000,
                cap_bits: 8192,
            }),
            PointOutcome::Discarded(DseError::Panic {
                attempts: 3,
                message: "index out of\nbounds".into(),
            }),
            PointOutcome::Discarded(DseError::NonFinite { attempts: 3 }),
        ];
        for (i, outcome) in outcomes.iter().enumerate() {
            let line = record_line(i, outcome, &names()).unwrap();
            let Some(Record::Outcome(idx, parsed)) = parse_record(line.trim_end(), &names()) else {
                panic!("record did not parse as an outcome: {line}");
            };
            assert_eq!(idx, i);
            match (&parsed, outcome) {
                // Newlines are flattened; everything else is exact.
                (
                    PointOutcome::Discarded(DseError::Panic { message, .. }),
                    PointOutcome::Discarded(DseError::Panic { .. }),
                ) => assert_eq!(message, "index out of bounds"),
                _ => assert_eq!(&parsed, outcome),
            }
        }
    }

    #[test]
    fn skipped_points_have_no_record() {
        assert!(record_line(0, &PointOutcome::Skipped, &names()).is_none());
    }

    #[test]
    fn torn_and_malformed_records_are_rejected() {
        let good = record_line(3, &sample_point(), &names()).unwrap();
        let torn = &good[..good.len() / 2];
        assert!(parse_record(torn.trim_end(), &names()).is_none());
        assert!(parse_record("X 1 nonsense", &names()).is_none());
        assert!(parse_record("", &names()).is_none());
        assert!(parse_record("S 1 zz 4", &names()).is_none());
        assert!(parse_record("S 1 00000000000000aa 4 extra", &names()).is_none());
    }

    #[test]
    fn surrogate_round_records_roundtrip() {
        let rec = SurrogateRound {
            rng_state: 0xDEAD_BEEF_0123_4567,
            train_len: 48,
        };
        let line = format!("S 7 {:016x} {}", rec.rng_state, rec.train_len);
        assert_eq!(parse_record(&line, &names()), Some(Record::Round(7, rec)));
    }

    #[test]
    fn torn_and_corrupt_files_fall_back_without_panicking() {
        let dir = std::env::temp_dir().join(format!("dhdl-ckpt-torn-{}", std::process::id()));
        let path = dir.join("torn.ckpt");
        let mut space = ParamSpace::new();
        space.tile("tile", 64, 4, 64);
        space.par("par", 8, 8);
        let opts = DseOptions {
            max_points: 10,
            ..DseOptions::default()
        };
        // Two good records, then a mid-write kill leaves a torn third.
        let ckpt = Checkpoint::open(&path, &space, &opts, 99).unwrap();
        ckpt.append(0, &sample_point());
        ckpt.append(1, &sample_point());
        drop(ckpt);
        let good = record_line(2, &sample_point(), &names()).unwrap();
        let mut raw = std::fs::read_to_string(&path).unwrap();
        raw.push_str(&good[..good.len() / 2]);
        std::fs::write(&path, &raw).unwrap();
        let resumed = Checkpoint::open(&path, &space, &opts, 99).unwrap();
        assert_eq!(resumed.restored(), 2, "torn record dropped, rest kept");
        drop(resumed);
        // Outright garbage (binary noise) → fresh sweep, no panic.
        std::fs::write(&path, [0u8, 159, 146, 150, b'\n', 0xFF]).unwrap();
        let fresh = Checkpoint::open(&path, &space, &opts, 99).unwrap();
        assert_eq!(fresh.restored(), 0);
        drop(fresh);
        // A truncated header (kill during creation before the rename
        // discipline existed) → fresh sweep.
        std::fs::write(&path, MAGIC.as_bytes()).unwrap();
        let fresh = Checkpoint::open(&path, &space, &opts, 99).unwrap();
        assert_eq!(fresh.restored(), 0);
        fresh.remove();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn surrogate_rounds_survive_resume_and_pin_the_strategy() {
        use crate::search::{SearchStrategy, SurrogateConfig};
        let dir = std::env::temp_dir().join(format!("dhdl-ckpt-sur-{}", std::process::id()));
        let path = dir.join("sur.ckpt");
        let mut space = ParamSpace::new();
        space.tile("tile", 64, 4, 64);
        space.par("par", 8, 8);
        let opts = DseOptions {
            max_points: 10,
            strategy: SearchStrategy::Surrogate(SurrogateConfig::default()),
            ..DseOptions::default()
        };
        let rec = SurrogateRound {
            rng_state: 0xABCD,
            train_len: 3,
        };
        let ckpt = Checkpoint::open(&path, &space, &opts, 99).unwrap();
        ckpt.append(0, &sample_point());
        ckpt.append_surrogate_round(0, &rec);
        drop(ckpt);
        let resumed = Checkpoint::open(&path, &space, &opts, 99).unwrap();
        assert_eq!(resumed.restored(), 1);
        assert_eq!(resumed.surrogate_round(0), Some(&rec));
        assert_eq!(resumed.surrogate_round(1), None);
        drop(resumed);
        // A checkpoint written under one strategy must not resume under
        // another: the point indices mean different things.
        let random = DseOptions {
            strategy: SearchStrategy::Random,
            ..opts.clone()
        };
        let fresh = Checkpoint::open(&path, &space, &random, 99).unwrap();
        assert_eq!(fresh.restored(), 0);
        // And different surrogate tuning is stale too.
        let retuned = DseOptions {
            strategy: SearchStrategy::Surrogate(SurrogateConfig {
                batch: 99,
                ..SurrogateConfig::default()
            }),
            ..opts
        };
        drop(fresh);
        let fresh = Checkpoint::open(&path, &space, &retuned, 99).unwrap();
        assert_eq!(fresh.restored(), 0);
        fresh.remove();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_header_is_not_resumed() {
        let dir = std::env::temp_dir().join(format!("dhdl-ckpt-test-{}", std::process::id()));
        let path = dir.join("stale.ckpt");
        let mut space = ParamSpace::new();
        space.tile("tile", 64, 4, 64);
        space.par("par", 8, 8);
        let opts = DseOptions {
            max_points: 10,
            ..DseOptions::default()
        };
        let ckpt = Checkpoint::open(&path, &space, &opts, 99).unwrap();
        ckpt.append(0, &sample_point());
        drop(ckpt);
        // Same config resumes; different seed does not.
        let resumed = Checkpoint::open(&path, &space, &opts, 99).unwrap();
        assert_eq!(resumed.restored(), 1);
        drop(resumed);
        let other = DseOptions {
            seed: opts.seed + 1,
            ..opts
        };
        let fresh = Checkpoint::open(&path, &space, &other, 99).unwrap();
        assert_eq!(fresh.restored(), 0);
        fresh.remove();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
