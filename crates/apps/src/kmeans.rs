//! k-means clustering (Table II: 960,000 points, k = 8, dim = 384).
//!
//! One Lloyd iteration: assign every point to its nearest centroid and
//! produce the new centroids. The paper finds kmeans ALM-bound — the
//! distance computation needs `K × D` floating point operations per point
//! to keep up with memory bandwidth — and BRAM-limited from banking
//! under-utilization (§V-C1).

use dhdl_core::{by, DType, Design, DesignBuilder, ParamSpace, ParamValues, ReduceOp, Result};
use dhdl_hls::{HlsKernel, HlsLoop, HlsOp, HlsOpKind};

use crate::{data, Arrays, Benchmark, WorkProfile};

/// The k-means benchmark at configurable sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KMeans {
    /// Number of points.
    pub points: u64,
    /// Number of clusters.
    pub k: u64,
    /// Point dimensionality.
    pub dim: u64,
}

impl Default for KMeans {
    /// The scaled default: 6144 points, k = 8, dim = 32 (paper: 960,000
    /// points, k = 8, dim = 384).
    fn default() -> Self {
        KMeans {
            points: 6_144,
            k: 8,
            dim: 32,
        }
    }
}

impl KMeans {
    /// A k-means instance.
    ///
    /// # Panics
    ///
    /// Panics if any size is zero.
    pub fn new(points: u64, k: u64, dim: u64) -> Self {
        assert!(points > 0 && k > 0 && dim > 0, "sizes must be nonzero");
        KMeans { points, k, dim }
    }

    fn assign(&self, x: &[f64], cents: &[f64], p: usize) -> usize {
        let (k, d) = (self.k as usize, self.dim as usize);
        let mut best = 0usize;
        let mut best_dist = f64::INFINITY;
        for c in 0..k {
            let mut dist = 0.0;
            for j in 0..d {
                let diff = ((x[p * d + j] - cents[c * d + j]) as f32) as f64;
                dist += ((diff * diff) as f32) as f64;
            }
            if dist < best_dist {
                best_dist = dist;
                best = c;
            }
        }
        best
    }
}

impl Benchmark for KMeans {
    fn name(&self) -> &'static str {
        "kmeans"
    }

    fn description(&self) -> &'static str {
        "k-means clustering"
    }

    fn paper_dataset(&self) -> &'static str {
        "#points=960,000 k=8 dim=384"
    }

    fn dataset_desc(&self) -> String {
        format!("#points={} k={} dim={}", self.points, self.k, self.dim)
    }

    fn param_space(&self) -> ParamSpace {
        let mut s = ParamSpace::new();
        s.tile("pts", self.points, 8, 384.min(self.points));
        s.par("dp", self.dim, 16.min(self.dim)); // distance-lane parallelism
        s.par("pp", 24, 24); // concurrent points in flight
        s.toggle("mp");
        s.toggle("mp2"); // pipeline the per-point stages
        s
    }

    fn default_params(&self) -> ParamValues {
        ParamValues::new()
            .with(
                "pts",
                if self.points % 96 == 0 {
                    96
                } else {
                    8.min(self.points)
                },
            )
            .with("dp", 4.min(self.dim))
            .with("pp", 2)
            .with("mp", 1)
            .with("mp2", 1)
    }

    fn build(&self, p: &ParamValues) -> Result<Design> {
        let (n, k, d) = (self.points, self.k, self.dim);
        let pts = p.dim("pts")?;
        let dp = p.par("dp")?;
        let pp = p.par("pp")?;
        let mp = p.toggle("mp")?;
        let mp2 = p.toggle("mp2")?;
        let mut b = DesignBuilder::new("kmeans");
        let x = b.off_chip("points", DType::F32, &[n, d]);
        let cin = b.off_chip("centroids", DType::F32, &[k, d]);
        let cout = b.off_chip("newCentroids", DType::F32, &[k, d]);
        b.sequential(|b| {
            let ct = b.bram("centT", DType::F32, &[k, d]);
            let z = b.index_const(0);
            b.tile_load(cin, ct, &[z, z], &[k, d], dp);
            // acc[c][0..d] = coordinate sums; acc[c][d] = count.
            let acc = b.bram("accT", DType::F32, &[k, d + 1]);
            b.outer_fold(mp, &[by(n, pts)], 1, acc, ReduceOp::Add, |b, oi| {
                let tile0 = oi[0];
                let xt = b.bram("xT", DType::F32, &[pts, d]);
                let z2 = b.index_const(0);
                b.tile_load(x, xt, &[tile0, z2], &[pts, d], dp);
                let partial = b.bram("partial", DType::F32, &[k, d + 1]);
                // Zero the partial accumulator.
                b.pipe(&[by(k, 1), by(d + 1, 1)], 1, |b, it| {
                    let zero = b.constant(0.0, DType::F32);
                    b.store(partial, &[it[0], it[1]], zero);
                });
                // Per point: distances, argmin, scatter-accumulate.
                b.outer(mp2, &[by(pts, 1)], pp, |b, pi| {
                    let pp = pi[0];
                    let dist = b.bram("dist", DType::F32, &[k]);
                    // dist[c] = sum_j (x - cent)^2, reset at j == 0.
                    b.pipe(&[by(k, 1), by(d, 1)], dp, |b, it| {
                        let (c, j) = (it[0], it[1]);
                        let xv = b.load(xt, &[pp, j]);
                        let cv = b.load(ct, &[c, j]);
                        let diff = b.sub(xv, cv);
                        let sq = b.mul(diff, diff);
                        let zero_idx = b.index_const(0);
                        let first = b.eq(j, zero_idx);
                        let zero = b.constant(0.0, DType::F32);
                        let prev_raw = b.load(dist, &[c]);
                        let prev = b.mux(first, zero, prev_raw);
                        let sum = b.add(prev, sq);
                        b.store(dist, &[c], sum);
                    });
                    // Sequential argmin over the k distances.
                    let best_d = b.reg("bestDist", DType::F32, 0.0);
                    let best_i = b.reg("bestIdx", DType::F32, 0.0);
                    b.pipe(&[by(k, 1)], 1, |b, it| {
                        let c = it[0];
                        let dv = b.load(dist, &[c]);
                        let zero_idx = b.index_const(0);
                        let first = b.eq(c, zero_idx);
                        let huge = b.constant(f64::MAX / 2.0, DType::F32);
                        let prev_raw = b.load_reg(best_d);
                        let prev = b.mux(first, huge, prev_raw);
                        let better = b.lt(dv, prev);
                        let new_d = b.mux(better, dv, prev);
                        let prev_i_raw = b.load_reg(best_i);
                        let ci = b.prim(dhdl_core::PrimOp::Add, &[c, zero_idx]);
                        let prev_i = b.mux(first, ci, prev_i_raw);
                        let new_i = b.mux(better, ci, prev_i);
                        b.store_reg(best_d, new_d);
                        b.store_reg(best_i, new_i);
                    });
                    // Scatter the point into partial[best][*] (+1 count).
                    b.pipe(&[by(d + 1, 1)], 1, |b, it| {
                        let j = it[0];
                        let dlim = b.index_const(d);
                        let is_coord = b.lt(j, dlim);
                        // Clamp the coordinate address so the count column
                        // (j == d) reads a valid (ignored) location.
                        let zero_idx = b.index_const(0);
                        let jc = b.mux(is_coord, j, zero_idx);
                        let xv = b.load(xt, &[pp, jc]);
                        let one = b.constant(1.0, DType::F32);
                        let v = b.mux(is_coord, xv, one);
                        let c = b.load_reg(best_i);
                        let prev = b.load(partial, &[c, j]);
                        let sum = b.add(prev, v);
                        b.store(partial, &[c, j], sum);
                    });
                });
                partial
            });
            // New centroids: sums / counts.
            let newc = b.bram("newC", DType::F32, &[k, d]);
            b.pipe(&[by(k, 1), by(d, 1)], dp, |b, it| {
                let (c, j) = (it[0], it[1]);
                let s = b.load(acc, &[c, j]);
                let didx = b.index_const(d);
                let cnt = b.load(acc, &[c, didx]);
                let one = b.constant(1.0, DType::F32);
                let zero = b.constant(0.0, DType::F32);
                let empty = b.eq(cnt, zero);
                let denom = b.mux(empty, one, cnt);
                let mean = b.div(s, denom);
                b.store(newc, &[c, j], mean);
            });
            let z4 = b.index_const(0);
            b.tile_store(cout, newc, &[z4, z4], &[k, d], dp);
        });
        b.finish()
    }

    fn inputs(&self) -> Arrays {
        let (n, k, d) = (self.points as usize, self.k as usize, self.dim as usize);
        let mut m = Arrays::new();
        m.insert("points".into(), data::uniform(701, n * d, -5.0, 5.0));
        m.insert("centroids".into(), data::uniform(702, k * d, -5.0, 5.0));
        m
    }

    fn reference(&self) -> Arrays {
        let inputs = self.inputs();
        let (n, k, d) = (self.points as usize, self.k as usize, self.dim as usize);
        let (x, cents) = (&inputs["points"], &inputs["centroids"]);
        let mut sums = vec![0.0f64; k * d];
        let mut counts = vec![0.0f64; k];
        for p in 0..n {
            let c = self.assign(x, cents, p);
            for j in 0..d {
                sums[c * d + j] += x[p * d + j];
            }
            counts[c] += 1.0;
        }
        let mut newc = vec![0.0f64; k * d];
        for c in 0..k {
            let denom = if counts[c] == 0.0 { 1.0 } else { counts[c] };
            for j in 0..d {
                newc[c * d + j] = sums[c * d + j] / denom;
            }
        }
        let mut m = Arrays::new();
        m.insert("newCentroids".into(), newc);
        m
    }

    fn work(&self) -> WorkProfile {
        let (n, k, d) = (self.points as f64, self.k as f64, self.dim as f64);
        WorkProfile {
            flops: 3.0 * n * k * d + n * (d + 1.0) + k * d,
            divs: k * d,
            bytes_read: 4.0 * (n * d + k * d),
            bytes_written: 4.0 * k * d,
            ..WorkProfile::default()
        }
    }

    fn hls_kernel(&self) -> Option<HlsKernel> {
        let dist = HlsLoop::new("L3", self.dim)
            .with_body(vec![
                HlsOp::new(HlsOpKind::Load, &[]),
                HlsOp::new(HlsOpKind::Load, &[]),
                HlsOp::new(HlsOpKind::Add, &[0, 1]),
                HlsOp::new(HlsOpKind::Mul, &[2, 2]),
                HlsOp::new(HlsOpKind::Add, &[3]).accumulating(),
            ])
            .pipelined(true);
        let per_cluster = HlsLoop::new("L2", self.k).with_child(dist);
        Some(
            HlsKernel::new("kmeans")
                .with_loop(HlsLoop::new("L1", self.points).with_child(per_cluster)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_counts_all_points() {
        let km = KMeans::new(128, 4, 8);
        let inputs = km.inputs();
        let mut counts = [0usize; 4];
        for p in 0..128 {
            counts[km.assign(&inputs["points"], &inputs["centroids"], p)] += 1;
        }
        assert_eq!(counts.iter().sum::<usize>(), 128);
    }

    #[test]
    fn design_builds_with_toggles() {
        let km = KMeans::new(96, 4, 8);
        for mp in [0, 1] {
            let p = ParamValues::new()
                .with("pts", 12)
                .with("dp", 2)
                .with("pp", 2)
                .with("mp", mp)
                .with("mp2", 1);
            assert!(km.build(&p).is_ok(), "mp={mp}");
        }
    }

    #[test]
    fn centroid_means_are_bounded_by_data() {
        let km = KMeans::new(256, 4, 4);
        let r = km.reference();
        for &v in &r["newCentroids"] {
            assert!((-5.0..=5.0).contains(&v), "{v}");
        }
    }
}
