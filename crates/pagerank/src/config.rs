//! PageRank configuration.

/// Output scale of the scores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScoreScale {
    /// Scores form a probability distribution (sum to 1) — the
    /// random-surfer stationary distribution.
    #[default]
    Probability,
    /// Scores sum to `N` (mean 1), matching the paper's experimental
    /// setup: "we used 1 as the initial PageRank value of each page."
    /// Ratios such as `ΔPR/PR` are identical under either scale.
    PerPage,
}

/// Configuration for all PageRank solvers in this crate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageRankConfig {
    /// Probability `α` of following a link (the paper's damping constant
    /// is `d = 1 − α`). Must lie in `[0, 1)`.
    pub follow_prob: f64,
    /// Stop when the L1 difference between successive iterates (in
    /// probability scale) drops below this.
    pub tolerance: f64,
    /// Hard iteration cap.
    pub max_iterations: usize,
    /// Output scale.
    pub scale: ScoreScale,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        PageRankConfig {
            follow_prob: 0.85,
            tolerance: 1e-10,
            max_iterations: 200,
            scale: ScoreScale::default(),
        }
    }
}

impl PageRankConfig {
    /// A configuration mirroring the paper's setup: the paper-style
    /// damping constant `d` (teleport probability) is supplied directly
    /// and scores are reported on the per-page scale.
    pub fn paper_style(d: f64) -> Self {
        PageRankConfig {
            follow_prob: 1.0 - d,
            scale: ScoreScale::PerPage,
            ..Default::default()
        }
    }

    /// Panic with a clear message if the configuration is unusable.
    pub fn validate(&self) {
        assert!(
            (0.0..1.0).contains(&self.follow_prob),
            "follow_prob must be in [0, 1), got {}",
            self.follow_prob
        );
        assert!(self.tolerance > 0.0, "tolerance must be positive");
        assert!(self.max_iterations >= 1, "need at least one iteration");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_standard() {
        let c = PageRankConfig::default();
        assert_eq!(c.follow_prob, 0.85);
        assert_eq!(c.scale, ScoreScale::Probability);
        c.validate();
    }

    #[test]
    fn paper_style_inverts_damping() {
        let c = PageRankConfig::paper_style(0.15);
        assert!((c.follow_prob - 0.85).abs() < 1e-12);
        assert_eq!(c.scale, ScoreScale::PerPage);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "follow_prob")]
    fn rejects_alpha_one() {
        PageRankConfig {
            follow_prob: 1.0,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "tolerance")]
    fn rejects_zero_tolerance() {
        PageRankConfig {
            tolerance: 0.0,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "iteration")]
    fn rejects_zero_iterations() {
        PageRankConfig {
            max_iterations: 0,
            ..Default::default()
        }
        .validate();
    }
}
