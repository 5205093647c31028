"""Gauss-Legendre quadrature on the unit segment."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["EdgeRule", "gauss_edge_rule"]


@dataclass(frozen=True)
class EdgeRule:
    """Quadrature nodes in the unit parameter [0, 1] with weights summing to 1."""

    nodes: np.ndarray
    weights: np.ndarray


def gauss_edge_rule(n_points: int = 2) -> EdgeRule:
    """Gauss-Legendre rule mapped to [0, 1]; exact for degree 2*n_points - 1."""
    if n_points < 1:
        raise ValueError("need at least one quadrature point")
    x, w = np.polynomial.legendre.leggauss(n_points)
    nodes = 0.5 * (x + 1.0)
    weights = 0.5 * w
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return EdgeRule(nodes=nodes, weights=weights)
