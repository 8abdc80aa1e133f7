//! Ranking construction and rank-movement analysis.
//!
//! The paper's thesis is about *rankings*, not raw scores: "Google puts
//! a page at the top in a search result ... when the page is linked to
//! by the most other pages". This module turns score vectors into
//! rankings and quantifies how a ranking change (e.g. replacing current
//! PageRank with the quality estimate) moves specific pages — the
//! "young high-quality page" cohort above all.

/// Items sorted by descending score; ties broken by ascending index so
/// rankings are deterministic.
pub fn ranking(scores: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .expect("scores must not contain NaN")
            .then(a.cmp(&b))
    });
    order
}

/// `rank[i]` = 0-based position of item `i` under descending-score
/// order.
pub fn ranks(scores: &[f64]) -> Vec<usize> {
    let order = ranking(scores);
    let mut rank = vec![0usize; scores.len()];
    for (pos, &item) in order.iter().enumerate() {
        rank[item] = pos;
    }
    rank
}

/// Comparison of two rankings over the same item set.
#[derive(Debug, Clone, PartialEq)]
pub struct RankShift {
    /// `delta[i]` = rank under `from` minus rank under `to`; positive
    /// means item `i` *improved* (moved toward the top).
    pub delta: Vec<i64>,
    /// Mean absolute rank displacement.
    pub mean_abs_shift: f64,
    /// Jaccard overlap of the top-`k` sets.
    pub top_k_jaccard: f64,
    /// The `k` used for the overlap.
    pub k: usize,
}

/// Compare the ranking induced by `from` with the one induced by `to`.
///
/// # Panics
/// Panics on length mismatch, empty input, or `k` out of range.
pub fn rank_shift(from: &[f64], to: &[f64], k: usize) -> RankShift {
    assert_eq!(from.len(), to.len(), "score vectors must have equal length");
    assert!(!from.is_empty(), "need at least one item");
    assert!(k >= 1 && k <= from.len(), "k must be in 1..=len");
    let rf = ranks(from);
    let rt = ranks(to);
    let delta: Vec<i64> = rf
        .iter()
        .zip(&rt)
        .map(|(&a, &b)| a as i64 - b as i64)
        .collect();
    let mean_abs_shift =
        delta.iter().map(|d| d.unsigned_abs() as f64).sum::<f64>() / delta.len() as f64;
    let top = |r: &[usize]| -> std::collections::HashSet<usize> {
        r.iter()
            .enumerate()
            .filter(|&(_, &pos)| pos < k)
            .map(|(i, _)| i)
            .collect()
    };
    let a = top(&rf);
    let b = top(&rt);
    let inter = a.intersection(&b).count();
    let union = a.union(&b).count();
    RankShift {
        delta,
        mean_abs_shift,
        top_k_jaccard: inter as f64 / union as f64,
        k,
    }
}

/// Mean rank (0 = top) of the given item subset under `scores`.
///
/// # Panics
/// Panics if `members` is empty or contains an out-of-range index.
pub fn mean_rank_of(scores: &[f64], members: &[usize]) -> f64 {
    assert!(!members.is_empty(), "need at least one member");
    let r = ranks(scores);
    members.iter().map(|&i| r[i] as f64).sum::<f64>() / members.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranking_descending_with_stable_ties() {
        let scores = [1.0, 3.0, 2.0, 3.0];
        assert_eq!(ranking(&scores), vec![1, 3, 2, 0]);
        assert_eq!(ranks(&scores), vec![3, 0, 2, 1]);
    }

    #[test]
    fn ranking_empty() {
        assert!(ranking(&[]).is_empty());
        assert!(ranks(&[]).is_empty());
    }

    #[test]
    fn rank_shift_identity() {
        let s = [5.0, 4.0, 3.0, 2.0];
        let shift = rank_shift(&s, &s, 2);
        assert!(shift.delta.iter().all(|&d| d == 0));
        assert_eq!(shift.mean_abs_shift, 0.0);
        assert_eq!(shift.top_k_jaccard, 1.0);
    }

    #[test]
    fn rank_shift_full_reversal() {
        let from = [4.0, 3.0, 2.0, 1.0];
        let to = [1.0, 2.0, 3.0, 4.0];
        let shift = rank_shift(&from, &to, 2);
        // item 0: rank 0 -> 3 = delta -3 (demoted)
        assert_eq!(shift.delta, vec![-3, -1, 1, 3]);
        assert_eq!(shift.mean_abs_shift, 2.0);
        assert_eq!(shift.top_k_jaccard, 0.0);
    }

    #[test]
    fn positive_delta_means_promotion() {
        let from = [1.0, 5.0, 4.0]; // item 0 last
        let to = [9.0, 5.0, 4.0]; // item 0 first
        let shift = rank_shift(&from, &to, 1);
        assert!(shift.delta[0] > 0, "item 0 was promoted");
    }

    #[test]
    #[should_panic(expected = "k must be")]
    fn rank_shift_k_bounds() {
        let _ = rank_shift(&[1.0], &[1.0], 2);
    }

    #[test]
    fn mean_rank_of_subset() {
        let scores = [10.0, 9.0, 1.0, 2.0];
        assert_eq!(mean_rank_of(&scores, &[0, 1]), 0.5);
        assert_eq!(mean_rank_of(&scores, &[2]), 3.0);
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn mean_rank_requires_members() {
        let _ = mean_rank_of(&[1.0], &[]);
    }
}
