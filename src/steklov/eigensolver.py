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
it.  ``_factorize`` is the one place that knows this numbering and
SuperLU's factor: it returns a solve in dof order, so ARPACK runs in dof
order.  The constant vector (mu = 1, lambda = 0) is deflated by using
M - m m^T / (1^T m), m = M 1, in place of M: it maps the constants to zero,
so round-off cannot bring the zero mode back.  ARPACK's implicitly restarted
Lanczos in generalized mode (Lehoucq, Sorensen & Yang, ARPACK Users' Guide,
SIAM 1998) finds the largest mu of this deflated pencil with one LU column
solve per step, to machine precision; the residual contract is checked on
its result.

A warm solve of one pair, from a start vector close to the wanted
eigenvector (the previous step's solution prolonged to a refined mesh),
runs inverse iteration instead, shifted at the start's Rayleigh quotient
sigma (Parlett, The Symmetric Eigenvalue Problem, SIAM 1998): K - sigma M
is factorized by the same ``_factorize``, and x <- deflate((K - sigma M)^-1 M x)
is repeated until the Rayleigh quotient lambda of x meets the residual
contract, at most ``_WARM_SOLVES`` times.  The start is M-orthogonal to the
constants, so sigma >= lambda_1.  When the factor's row and column orders
are equal, diag(U) has the inertia of K - sigma M, and by Sylvester's law
its negative entries count the eigenvalues below sigma (Ericsson & Ruhe,
Math. Comp. 35, 1980); this certificate alone reads the factor itself.
The result is accepted only with exactly two of them (the zero mode and
lambda_1) and 0 < lambda < sigma; otherwise, when the cap is reached or the
factorization fails, ARPACK solves from the same start.  On the adaptive
runs a warm solve takes 2-6 column solves from the second warm step on (12
at the first on the notched test), where ARPACK took 11-16.

Dot products and norms are summed by numpy (``_dot``), not by BLAS, whose
order of summation follows its thread count: the results are the same to
the last bit however many threads BLAS runs.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import csgraph

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
_WARM_SOLVES = 16  # inverse-iteration solves before a warm start falls back to ARPACK


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


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """The dot product of two vectors, summed by numpy rather than by BLAS,
    whose order of summation, and so the last bits, follows its thread count."""
    return float(np.add.reduce(a * b))


def _norm(a: np.ndarray) -> float:
    return float(np.sqrt(_dot(a, a)))


def residual_norm(system: GlobalSystem, value: float, vector: np.ndarray) -> float:
    """Scale-invariant residual |K w - lambda M w| / (|K w| + lambda |M w|)."""
    kw = system.stiffness @ vector
    mw = system.boundary_mass @ vector
    denom = _norm(kw) + value * _norm(mw)
    if denom == 0.0:
        return np.inf
    return _norm(kw - value * mw) / denom


def _normalize(system: GlobalSystem, w: np.ndarray) -> np.ndarray:
    """Scale to unit boundary mass and fix the sign convention: the first
    spectral-boundary dof (ascending index) whose magnitude exceeds 1e-8 is
    positive."""
    m_norm2 = _dot(w, system.boundary_mass @ w)
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
    return x - _dot(m_ones, x) / scale


def solve_smallest_positive(
    system: GlobalSystem, *, count: int = 1, tol: float = 1e-10, seed: int = 0,
    start: np.ndarray | None = None,
) -> list[SpectralPair]:
    """Compute the ``count`` smallest positive eigenvalues, ascending.

    The Lanczos iteration starts from ``start`` (a dof vector, e.g. a coarse
    eigenvector prolonged to this mesh) when given, otherwise from a random
    vector seeded by ``seed``.  With a ``start`` and ``count == 1``, shifted
    inverse iteration runs first and its pair is returned when the inertia
    certificate of the module docstring holds; otherwise Lanczos runs as
    above.  Returned pairs are normalized (unit boundary mass, sign
    convention) and each satisfies the residual tolerance ``tol`` within 500
    Lanczos restarts; otherwise :class:`ConvergenceError` reports the best
    residual reached.  A ``count`` or ``seed`` that is a bool or not an
    integer, a ``count`` below 1, a negative seed, a ``tol`` that is a bool
    or not a positive number, or a start vector that has the wrong shape, is
    not finite, is constant (zero once the constant mode is deflated) or
    vanishes on the spectral boundary, raises :class:`EigensolverError`
    before any work.
    """
    for name, value in (("count", count), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise EigensolverError(f"{name} must be an integer, got {value!r}")
    if count < 1:
        raise EigensolverError(f"count must be at least 1, got {count}")
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real):
        raise EigensolverError(f"tol must be a number, got {tol!r}")
    if not tol > 0.0:
        raise EigensolverError(f"tol must be positive, got {tol:g}")
    if seed < 0:
        raise EigensolverError(f"seed must be non-negative, got {seed}")
    n = system.n_dofs
    n_positive = len(system.gamma0_dofs) - 1
    if count > n_positive:
        raise EigensolverError(
            f"requested {count} eigenvalues but the pencil has only "
            f"{n_positive} finite positive ones"
        )
    M = system.boundary_mass
    ones_vec = np.ones(n)
    m_ones = M @ ones_vec
    scale = _dot(ones_vec, m_ones)
    if scale <= 0.0:
        raise EigensolverError("boundary mass matrix has no positive mass")
    warm = start is not None
    if start is None:
        start = np.random.default_rng(seed).standard_normal(n)
    elif np.shape(start) != (n,):
        raise EigensolverError(f"start vector must have shape ({n},), got {np.shape(start)}")
    start = np.asarray(start, dtype=float)
    if not np.all(np.isfinite(start)):
        raise EigensolverError("start vector must be finite")
    v0 = _deflate(start, m_ones, scale)
    if not _norm(v0) > 1e-12 * _norm(start):
        raise EigensolverError("start vector is zero once the constant mode is deflated")
    # the iteration sees a vector through its trace on gamma0 only
    if not _dot(v0, M @ v0) > 0.0:
        raise EigensolverError("start vector vanishes on the spectral boundary")
    if warm and count == 1:
        pair = _inverse_iteration(system, M, v0, m_ones, scale, tol)
        if pair is not None:
            return [pair]

    shifted = system.stiffness + M
    solve, _ = _factorize(shifted)
    deflated_mass = spla.LinearOperator(
        (n, n), matvec=lambda x: M @ x - m_ones * (_dot(m_ones, x) / scale), dtype=float
    )
    converged = True
    try:
        mus, X = spla.eigsh(
            deflated_mass, k=count, M=shifted,
            Minv=spla.LinearOperator((n, n), matvec=solve, dtype=float),
            which="LA", v0=v0, ncv=min(n, max(2 * count + 1, 10)),
            tol=0.0, maxiter=_MAX_ITERATIONS,
        )
    except spla.ArpackNoConvergence as err:
        mus, X, converged = err.eigenvalues, err.eigenvectors, False
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


def _factorize(matrix: sp.csr_matrix) -> tuple[Callable[[np.ndarray], np.ndarray], spla.SuperLU]:
    """Factorize the exactly symmetric CSR ``matrix`` and return a solve in
    dof order with the factor.

    The factor is of ``matrix`` renumbered by reverse Cuthill-McKee (its
    unknown i is dof ``perm[i]``); ``solve(b)`` gathers b into that
    numbering and scatters the result back, so no caller sees it.  SuperLU
    is handed the renumbered matrix in canonical CSC form, which it need not
    sort: its rows gathered, their column ids relabelled, and converted to
    CSC by a counting sort.
    """
    perm = csgraph.reverse_cuthill_mckee(matrix, symmetric_mode=True)
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(len(perm), dtype=perm.dtype)
    rows = matrix[perm]
    renumbered = sp.csr_matrix((rows.data, inverse[rows.indices], rows.indptr), shape=matrix.shape).tocsc()
    try:
        lu = spla.splu(
            renumbered, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options=dict(SymmetricMode=True),
        )
    except RuntimeError as err:
        raise EigensolverError(
            f"factorization of the shifted matrix failed ({err}); "
            "the assembly may be broken"
        ) from None
    return lambda b: lu.solve(b[perm])[inverse], lu


def _inverse_iteration(
    system: GlobalSystem, M: sp.csr_matrix, v0: np.ndarray, m_ones: np.ndarray,
    scale: float, tol: float,
) -> SpectralPair | None:
    """The smallest positive pair by inverse iteration shifted at the Rayleigh
    quotient of ``v0`` (deflated), or None when it is not certified within
    ``_WARM_SOLVES`` solves."""
    K = system.stiffness
    sigma = _dot(v0, K @ v0) / _dot(v0, M @ v0)
    try:
        solve, lu = _factorize(K - sigma * M)
    except EigensolverError:
        return None
    # with equal row and column orders, P (K - sigma M) P^T = L D L^T and
    # diag(U) = D: its negative entries count the eigenvalues below sigma
    if not np.array_equal(lu.perm_r, lu.perm_c) or np.count_nonzero(lu.U.diagonal() < 0.0) != 2:
        return None
    x = v0
    for _ in range(_WARM_SOLVES):
        x = _deflate(solve(M @ x), m_ones, scale)
        x = x / np.sqrt(_dot(x, M @ x))
        value = _dot(x, K @ x)
        residual = residual_norm(system, value, x)
        if residual <= tol:
            if 0.0 < value < sigma:
                return SpectralPair(value, _normalize(system, x), residual)
            return None
    return None
