"""Mixed work distribution: a point mass at W = 0 plus a sampled density.

The distribution produced by a localized unitary on a thermal field is
genuinely mixed: with probability (1 - p) nothing happens and W = 0 exactly,
while the remaining mass is absolutely continuous.  Storing the atom as a
separate weight (instead of a narrow gridded spike) keeps moment quadrature
and normalization checks honest.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError

__all__ = ["WorkDistribution"]


@dataclass
class WorkDistribution:
    """Atom weight at W = 0 plus density samples P(W) on a uniform W grid."""

    atom_weight: float
    w_grid: np.ndarray
    density: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.w_grid = np.asarray(self.w_grid, dtype=float)
        self.density = np.asarray(self.density, dtype=float)
        if self.w_grid.shape != self.density.shape or self.w_grid.ndim != 1:
            raise InvalidArgumentError("WorkDistribution: grid/density shape mismatch")
        if not -1e-6 <= self.atom_weight <= 1.0 + 1e-6:
            raise InvalidArgumentError(
                f"WorkDistribution: atom weight {self.atom_weight} outside [0, 1]"
            )

    def density_mass(self) -> float:
        return float(np.trapezoid(self.density, self.w_grid))

    def total_mass(self) -> float:
        return self.atom_weight + self.density_mass()

    def positive_mass(self) -> float:
        m = self.w_grid > 0
        return float(np.trapezoid(np.where(m, self.density, 0.0), self.w_grid))

    def negative_mass(self) -> float:
        m = self.w_grid < 0
        return float(np.trapezoid(np.where(m, self.density, 0.0), self.w_grid))

    def mean(self) -> float:
        return float(np.trapezoid(self.w_grid * self.density, self.w_grid))

    def second_moment(self) -> float:
        return float(np.trapezoid(self.w_grid**2 * self.density, self.w_grid))
