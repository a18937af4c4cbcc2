//! Pareto frontier extraction over (runtime, area).

/// Indices of the Pareto-optimal points minimizing both objectives
/// `(cycles, area)`. Invalid points never appear on the frontier.
///
/// Matches the paper's Figure 5, which highlights "Pareto-optimal designs
/// along the dimensions of execution time and ALM utilization".
pub fn pareto_front(points: &[(f64, f64, bool)]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..points.len()).filter(|&i| points[i].2).collect();
    // Sort by cycles ascending, then area ascending, then input index:
    // points with exactly equal objectives tie-break to the earliest
    // index *explicitly* (not by leaning on sort stability), so the
    // frontier is a deterministic function of the point list however it
    // was assembled — a requirement for comparing strategies bit-exactly
    // across thread counts and truncated re-runs.
    idx.sort_by(|&a, &b| {
        points[a]
            .0
            .total_cmp(&points[b].0)
            .then(points[a].1.total_cmp(&points[b].1))
            .then(a.cmp(&b))
    });
    let mut front = Vec::new();
    let mut best_area = f64::INFINITY;
    for i in idx {
        if points[i].1 < best_area {
            front.push(i);
            best_area = points[i].1;
        }
    }
    front
}

/// Select up to `n` representative points from a frontier, spread evenly
/// (used to pick the "five Pareto points per benchmark" of Table III).
pub fn spread(front: &[usize], n: usize) -> Vec<usize> {
    if front.len() <= n || n == 0 {
        return front.to_vec();
    }
    (0..n)
        .map(|k| front[k * (front.len() - 1) / (n - 1).max(1)])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_excludes_dominated_and_invalid() {
        let pts = vec![
            (10.0, 5.0, true), // 0: on front
            (10.0, 6.0, true), // 1: dominated by 0
            (5.0, 10.0, true), // 2: on front (faster)
            (4.0, 1.0, false), // 3: invalid, excluded
            (20.0, 1.0, true), // 4: on front (smallest)
        ];
        let f = pareto_front(&pts);
        assert_eq!(f, vec![2, 0, 4]);
    }

    #[test]
    fn single_point_front() {
        let pts = vec![(1.0, 1.0, true)];
        assert_eq!(pareto_front(&pts), vec![0]);
        assert!(pareto_front(&[]).is_empty());
        assert!(pareto_front(&[(1.0, 1.0, false)]).is_empty());
    }

    #[test]
    fn equal_cycles_takes_smaller_area() {
        let pts = vec![(10.0, 7.0, true), (10.0, 5.0, true)];
        assert_eq!(pareto_front(&pts), vec![1]);
    }

    #[test]
    fn duplicate_objectives_tie_break_to_earliest_index() {
        // Exactly-equal (cycles, area) points: the earliest index wins
        // the frontier slot, deterministically.
        let pts = vec![
            (10.0, 5.0, true), // 0: duplicate of 2 — earliest wins
            (5.0, 9.0, true),  // 1: on front
            (10.0, 5.0, true), // 2: duplicate of 0
            (10.0, 5.0, true), // 3: duplicate of 0
            (20.0, 2.0, true), // 4: on front
        ];
        assert_eq!(pareto_front(&pts), vec![1, 0, 4]);
        // A fully degenerate set keeps exactly one representative.
        let same = vec![(3.0, 3.0, true); 5];
        assert_eq!(pareto_front(&same), vec![0]);
        // Equal cycles with equal area at the front boundary: still one
        // representative, still the earliest.
        let pts = vec![(1.0, 4.0, true), (1.0, 4.0, true), (1.0, 3.0, true)];
        assert_eq!(pareto_front(&pts), vec![2]);
    }

    #[test]
    fn spread_picks_endpoints() {
        let front: Vec<usize> = (0..20).collect();
        let s = spread(&front, 5);
        assert_eq!(s.len(), 5);
        assert_eq!(s[0], 0);
        assert_eq!(*s.last().unwrap(), 19);
        // Short fronts pass through unchanged.
        assert_eq!(spread(&[3, 4], 5), vec![3, 4]);
    }
}
