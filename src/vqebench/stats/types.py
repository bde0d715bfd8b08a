"""Result containers for the statistical battery."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import DegenerateSampleError


@dataclass(frozen=True)
class Sample2D:
    """A cluster of (ground energy, excited energy) observations."""

    points: np.ndarray  # shape (n, 2)
    family: str = ""

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise DegenerateSampleError(f"expected an (n, 2) array, got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise DegenerateSampleError("sample contains non-finite entries")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]


@dataclass
class TestResult:
    statistic: float
    df: object  # int, tuple, or None
    p: float
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p-value {self.p} outside [0, 1]")

    def to_dict(self) -> dict:
        df = list(self.df) if isinstance(self.df, tuple) else self.df
        return {"statistic": self.statistic, "df": df, "p": self.p, **self.extras}


@dataclass
class PairwiseMatrix:
    """Symmetric grids of raw and adjusted p-values with a masked diagonal."""

    labels: list[str]
    p_raw: np.ndarray
    p_adjusted: np.ndarray


@dataclass(frozen=True)
class Ellipse:
    """95% prediction ellipse: mean, covariance, squared Mahalanobis cutoff."""

    mu: np.ndarray
    sigma: np.ndarray
    d95_sq: float
