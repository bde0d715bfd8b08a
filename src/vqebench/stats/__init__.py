"""Statistical battery: normality and homogeneity checks, permutation tests
with post-hocs, rank comparisons, bootstrap ellipses, distance metrics."""
from .. import _exports

__getattr__, __all__ = _exports(__name__, {
    "ellipse": ("bootstrap_ellipse",),
    "metrics": ("CellMetrics", "OptimizerMetrics", "distance_metrics"),
    "normality": ("anova_oneway", "box_m_test", "levene_like_test", "mardia_test"),
    "permutation": ("pairwise_posthoc", "permanova", "permdisp"),
    "ranks": (
        "friedman_test",
        "holm_wilcoxon_matrix",
        "p_adjust",
        "rankdata",
        "tied_rank_groups",
        "wilcoxon_signed_rank",
    ),
    "types": ("Ellipse", "PairwiseMatrix", "Sample2D", "TestResult"),
})
