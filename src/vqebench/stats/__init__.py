"""Statistical battery: normality and homogeneity checks, permutation tests
with post-hocs, rank comparisons, bootstrap ellipses, distance metrics."""
from .ellipse import bootstrap_ellipse
from .metrics import CellMetrics, OptimizerMetrics, distance_metrics
from .normality import anova_oneway, box_m_test, levene_like_test, mardia_test
from .permutation import pairwise_posthoc, permanova, permdisp
from .ranks import (
    friedman_test,
    holm_wilcoxon_matrix,
    p_adjust,
    rankdata,
    tied_rank_groups,
    wilcoxon_signed_rank,
)
from .types import Ellipse, PairwiseMatrix, Sample2D, TestResult

__all__ = [
    "CellMetrics",
    "Ellipse",
    "OptimizerMetrics",
    "PairwiseMatrix",
    "Sample2D",
    "TestResult",
    "anova_oneway",
    "bootstrap_ellipse",
    "box_m_test",
    "distance_metrics",
    "friedman_test",
    "holm_wilcoxon_matrix",
    "levene_like_test",
    "mardia_test",
    "p_adjust",
    "pairwise_posthoc",
    "permanova",
    "permdisp",
    "rankdata",
    "tied_rank_groups",
    "wilcoxon_signed_rank",
]
