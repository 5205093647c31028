"""Generalized eigensolver for the assembled stiffness/boundary-mass pencil.

The boundary mass matrix M is singular (it only touches spectral-boundary
dofs), so K w = lambda M w is solved through the shifted pencil

    M x = mu (K + M) x,        mu = 1 / (lambda + 1) in (0, 1].

K + M is symmetric positive definite on connected meshes, which
``build_topology`` guarantees, and is factorized once; the smallest positive
lambda are the largest mu below 1.  The factorization works on K + M
renumbered by reverse Cuthill-McKee, with a minimum-degree column ordering
of A^T + A and diagonal pivots (George & Liu, Computer Solution of Large
Sparse Positive Definite Systems, 1981; Liu, ACM TOMS 1985): the refiners'
vertex numbering is far from banded, and minimum degree alone is slow on
it.  The constant vector (mu = 1, lambda = 0) is deflated by using
M - m m^T / (1^T m), m = M 1, in place of M: it maps the constants to zero,
so round-off cannot bring the zero mode back.  ARPACK's implicitly restarted Lanczos in
generalized mode (Lehoucq, Sorensen & Yang, ARPACK Users' Guide, SIAM 1998)
finds the largest mu of this deflated pencil with one LU column solve per
step, to machine precision; the residual contract is checked on its result.
A start vector close to the wanted eigenvector, such as the previous
step's solution prolonged to a refined mesh, cuts the number of steps.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .vem import GlobalSystem

__all__ = [
    "EigensolverError",
    "ConvergenceError",
    "SpectralPair",
    "residual_norm",
    "solve_smallest_positive",
]

_SIGN_THRESHOLD = 1e-8  # smallest boundary value trusted to fix the sign
_MAX_ITERATIONS = 500  # ARPACK restarts


class EigensolverError(Exception):
    """Raised on structurally invalid eigenproblems or factorization failure."""


class ConvergenceError(EigensolverError):
    """Raised when the iteration cannot reach the residual tolerance."""

    def __init__(self, message: str, best_residual: float):
        super().__init__(message)
        self.best_residual = best_residual


@dataclass(frozen=True)
class SpectralPair:
    """One eigenpair with its relative algebraic residual."""

    value: float
    vector: np.ndarray
    residual: float


def residual_norm(system: GlobalSystem, value: float, vector: np.ndarray) -> float:
    """Scale-invariant residual |K w - lambda M w| / (|K w| + lambda |M w|)."""
    kw = system.stiffness @ vector
    mw = system.boundary_mass @ vector
    denom = float(np.linalg.norm(kw)) + value * float(np.linalg.norm(mw))
    if denom == 0.0:
        return np.inf
    return float(np.linalg.norm(kw - value * mw)) / denom


def _normalize(system: GlobalSystem, w: np.ndarray) -> np.ndarray:
    """Scale to unit boundary mass and fix the sign convention: the first
    spectral-boundary dof (ascending index) whose magnitude exceeds 1e-8 is
    positive."""
    m_norm2 = float(w @ (system.boundary_mass @ w))
    if m_norm2 <= 0.0:
        raise EigensolverError("eigenvector has zero boundary mass norm: deflation failure")
    w = w / np.sqrt(m_norm2)
    for dof in system.gamma0_dofs:
        if abs(w[dof]) > _SIGN_THRESHOLD:
            if w[dof] < 0.0:
                w = -w
            break
    return w


def _deflate(x: np.ndarray, m_ones: np.ndarray, scale: float) -> np.ndarray:
    """Project x onto the M-orthogonal complement of the constant vector."""
    return x - (m_ones @ x) / scale


def solve_smallest_positive(
    system: GlobalSystem, *, count: int = 1, tol: float = 1e-10, seed: int = 0,
    start: np.ndarray | None = None,
) -> list[SpectralPair]:
    """Compute the ``count`` smallest positive eigenvalues, ascending.

    The Lanczos iteration starts from ``start`` (a dof vector, e.g. a coarse
    eigenvector prolonged to this mesh) when given, otherwise from a random
    vector seeded by ``seed``.  Returned pairs are normalized (unit boundary
    mass, sign convention) and each satisfies the residual tolerance ``tol``
    within 500 restarts; otherwise :class:`ConvergenceError` reports the
    best residual reached.  A seed that is not a non-negative integer, or a
    start vector that has the wrong shape, is not finite or is constant
    (zero once the constant mode is deflated), raises
    :class:`EigensolverError` before any work.
    """
    if count < 1:
        raise EigensolverError("count must be at least 1")
    if not tol > 0.0:
        raise EigensolverError(f"tol must be positive, got {tol:g}")
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
        raise EigensolverError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise EigensolverError(f"seed must be non-negative, got {seed}")
    n = system.n_dofs
    n_positive = len(system.gamma0_dofs) - 1
    if count > n_positive:
        raise EigensolverError(
            f"requested {count} eigenvalues but the pencil has only "
            f"{n_positive} finite positive ones"
        )
    M = system.boundary_mass.tocsc()
    ones_vec = np.ones(n)
    m_ones = M @ ones_vec
    scale = float(ones_vec @ m_ones)
    if scale <= 0.0:
        raise EigensolverError("boundary mass matrix has no positive mass")
    if start is None:
        start = np.random.default_rng(seed).standard_normal(n)
    elif np.shape(start) != (n,):
        raise EigensolverError(f"start vector must have shape ({n},), got {np.shape(start)}")
    start = np.asarray(start, dtype=float)
    if not np.all(np.isfinite(start)):
        raise EigensolverError("start vector must be finite")
    v0 = _deflate(start, m_ones, scale)
    if not np.linalg.norm(v0) > 1e-12 * np.linalg.norm(start):
        raise EigensolverError("start vector is zero once the constant mode is deflated")

    shifted = (system.stiffness.tocsc() + M).tocsc()
    # the iteration runs in the RCM numbering: dof perm[i] is unknown i
    perm = reverse_cuthill_mckee(shifted, symmetric_mode=True)
    shifted = shifted[perm][:, perm]
    try:
        lu = spla.splu(
            shifted, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
            options=dict(SymmetricMode=True),
        )
    except RuntimeError as err:
        raise EigensolverError(
            f"factorization of the shifted matrix failed ({err}); "
            "the assembly may be broken"
        ) from None

    Mp = M[perm][:, perm]
    mp_ones = m_ones[perm]
    deflated_mass = spla.LinearOperator(
        (n, n), matvec=lambda x: Mp @ x - mp_ones * ((mp_ones @ x) / scale), dtype=float
    )
    converged = True
    try:
        mus, Xp = spla.eigsh(
            deflated_mass, k=count, M=shifted,
            Minv=spla.LinearOperator((n, n), matvec=lu.solve, dtype=float),
            which="LA", v0=v0[perm], ncv=min(n, max(2 * count + 1, 10)),
            tol=0.0, maxiter=_MAX_ITERATIONS,
        )
    except spla.ArpackNoConvergence as err:
        mus, Xp, converged = err.eigenvalues, err.eigenvectors, False
    X = np.empty_like(Xp)
    X[perm] = Xp
    if np.any(mus >= 1.0 - 1e-12):
        raise EigensolverError(
            "found an eigenvalue at mu = 1: the constant mode escaped deflation"
        )
    positive = mus > 0.0
    converged = converged and bool(np.all(positive))
    values = 1.0 / mus[positive] - 1.0
    residuals = [residual_norm(system, lam, w) for lam, w in zip(values, X[:, positive].T)]
    worst = max(residuals, default=np.inf)
    if not converged or worst > tol:
        raise ConvergenceError(
            f"eigensolver did not reach tol={tol:g} within "
            f"{_MAX_ITERATIONS} restarts ({len(values)} of {count} "
            f"positive pairs found, best residual {worst:.3e})",
            best_residual=worst,
        )
    return [
        SpectralPair(float(values[j]), _normalize(system, _deflate(X[:, j], m_ones, scale)), float(residuals[j]))
        for j in np.argsort(values)
    ]
