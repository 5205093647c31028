"""Generalized eigensolver for the assembled stiffness/boundary-mass pencil.

The boundary mass matrix M is singular (it only touches spectral-boundary
dofs), so K w = lambda M w is solved through the shifted pencil

    M x = mu (K + M) x,        mu = 1 / (lambda + 1) in (0, 1].

K + M is symmetric positive definite on connected meshes and is factorized
once; the smallest positive lambda correspond to the largest mu below 1.  The
constant vector (mu = 1, lambda = 0) is deflated explicitly by M-orthogonal
projection inside the iteration, which keeps round-off from re-introducing
the zero mode.  Iteration is blocked subspace iteration with Rayleigh-Ritz
extraction in the (K + M) inner product; because the deflated operator has
rank equal to the number of spectral-boundary dofs minus one, the block often
spans the full nonzero eigenspace and converges in a handful of sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .vem import GlobalSystem

__all__ = [
    "EigensolverError",
    "ConvergenceError",
    "SolverOptions",
    "SpectralPair",
    "residual_norm",
    "normalize_pair",
    "solve_smallest_positive",
    "dense_reference_solve",
]

_SIGN_THRESHOLD = 1e-8  # smallest boundary value trusted to fix the sign


class EigensolverError(Exception):
    """Raised on structurally invalid eigenproblems or factorization failure."""


class ConvergenceError(EigensolverError):
    """Raised when the iteration cannot reach the residual tolerance."""

    def __init__(self, message: str, best_residual: float):
        super().__init__(message)
        self.best_residual = best_residual


@dataclass(frozen=True)
class SolverOptions:
    count: int = 1
    tol: float = 1e-10
    max_iterations: int = 500
    seed: int = 0


@dataclass(frozen=True)
class SpectralPair:
    """One eigenpair with its relative algebraic residual."""

    value: float
    vector: np.ndarray
    residual: float
    normalized: bool


def residual_norm(system: GlobalSystem, value: float, vector: np.ndarray) -> float:
    """Scale-invariant residual |K w - lambda M w| / (|K w| + lambda |M w|)."""
    kw = system.stiffness @ vector
    mw = system.boundary_mass @ vector
    denom = float(np.linalg.norm(kw)) + value * float(np.linalg.norm(mw))
    if denom == 0.0:
        return np.inf
    return float(np.linalg.norm(kw - value * mw)) / denom


def normalize_pair(system: GlobalSystem, pair: SpectralPair) -> SpectralPair:
    """Scale to unit boundary mass and fix the sign convention.

    The sign is chosen so that the first spectral-boundary dof (ascending
    index) whose magnitude exceeds 1e-8 is positive.  Idempotent.
    """
    w = np.asarray(pair.vector, dtype=float)
    m_norm2 = float(w @ (system.boundary_mass @ w))
    if m_norm2 <= 0.0:
        raise EigensolverError(
            "eigenvector has zero boundary mass norm: deflation failure"
        )
    w = w / np.sqrt(m_norm2)
    for dof in system.gamma0_dofs:
        if abs(w[dof]) > _SIGN_THRESHOLD:
            if w[dof] < 0.0:
                w = -w
            break
    return replace(pair, vector=w, normalized=True)


def _deflate(columns: np.ndarray, ones_vec: np.ndarray, m_ones: np.ndarray, scale: float) -> np.ndarray:
    """Project columns onto the M-orthogonal complement of the constant vector."""
    coef = (m_ones @ columns) / scale
    if columns.ndim == 1:
        return columns - coef * ones_vec
    return columns - np.outer(ones_vec, coef)


def solve_smallest_positive(system: GlobalSystem, options: SolverOptions = SolverOptions()) -> list[SpectralPair]:
    """Compute the ``options.count`` smallest positive eigenvalues, ascending.

    Returned pairs are normalized (unit boundary mass, sign convention) and
    each satisfies the residual tolerance; otherwise :class:`ConvergenceError`
    reports the best residual reached.
    """
    if options.count < 1:
        raise EigensolverError("count must be at least 1")
    n = system.n_dofs
    n_positive = len(system.gamma0_dofs) - 1
    if options.count > n_positive:
        raise EigensolverError(
            f"requested {options.count} eigenvalues but the pencil has only "
            f"{n_positive} finite positive ones"
        )

    K = system.stiffness.tocsc()
    M = system.boundary_mass.tocsc()
    shifted = (K + M).tocsc()
    try:
        lu = spla.splu(shifted)
    except RuntimeError as err:
        raise EigensolverError(
            f"factorization of the shifted matrix failed ({err}); "
            "the mesh may be disconnected or the assembly broken"
        ) from None

    ones_vec = np.ones(n)
    m_ones = M @ ones_vec
    scale = float(ones_vec @ m_ones)
    if scale <= 0.0:
        raise EigensolverError("boundary mass matrix has no positive mass")

    block = min(n_positive, options.count + 4)
    rng = np.random.default_rng(options.seed)
    X = _deflate(rng.standard_normal((n, block)), ones_vec, m_ones, scale)

    def apply_deflated_mass(cols: np.ndarray) -> np.ndarray:
        out = M @ cols
        return out - np.outer(m_ones, (m_ones @ cols) / scale)

    best_residual = np.inf
    for _ in range(options.max_iterations):
        X = lu.solve(apply_deflated_mass(X))
        X = _deflate(X, ones_vec, m_ones, scale)

        # orthonormalize in the (K + M) inner product, refreshing any
        # direction that collapsed numerically
        CX = shifted @ X
        gram = X.T @ CX
        evals, evecs = scipy.linalg.eigh(0.5 * (gram + gram.T))
        keep = evals > 1e-24 * max(float(evals[-1]), 0.0)
        if not np.all(keep):
            X[:, ~keep] = _deflate(
                rng.standard_normal((n, int(np.sum(~keep)))), ones_vec, m_ones, scale
            )
            continue
        X = X @ (evecs / np.sqrt(evals))

        # Rayleigh-Ritz on the deflated mass form
        projected = X.T @ apply_deflated_mass(X)
        mu, U = scipy.linalg.eigh(0.5 * (projected + projected.T))
        take = np.argsort(mu)[::-1][: options.count]
        candidates = X @ U[:, take]
        mus = mu[take]
        if np.any(mus <= 0.0):
            continue
        if np.any(mus >= 1.0 - 1e-12):
            raise EigensolverError(
                "found an eigenvalue at mu = 1: the constant mode escaped deflation"
            )
        values = 1.0 / mus - 1.0
        residuals = np.array(
            [residual_norm(system, lam, candidates[:, j]) for j, lam in enumerate(values)]
        )
        best_residual = min(best_residual, float(np.max(residuals)))
        if np.all(residuals <= options.tol):
            pairs = []
            for j in np.argsort(values):
                w = _deflate(candidates[:, j].copy(), ones_vec, m_ones, scale)
                pair = SpectralPair(
                    value=float(values[j]),
                    vector=w,
                    residual=float(residuals[j]),
                    normalized=False,
                )
                pairs.append(normalize_pair(system, pair))
            return pairs

    raise ConvergenceError(
        f"eigensolver did not reach tol={options.tol:g} within "
        f"{options.max_iterations} iterations (best residual {best_residual:.3e})",
        best_residual=best_residual,
    )


def dense_reference_solve(system: GlobalSystem, n_limit: int = 2000) -> np.ndarray:
    """All finite eigenvalues (ascending) by a dense solve of the shifted pencil.

    Validation tool for small problems; refuses systems above ``n_limit`` dofs.
    Eigenvalues with mu below 1e-10 are reported as infinite and dropped.  A
    connected mesh yields exactly one numerically-zero eigenvalue.
    """
    n = system.n_dofs
    if n > n_limit:
        raise EigensolverError(
            f"dense reference solve limited to {n_limit} dofs (got {n})"
        )
    M = system.boundary_mass.toarray()
    C = (system.stiffness + system.boundary_mass).toarray()
    mu = scipy.linalg.eigh(M, C, eigvals_only=True)
    finite = mu[mu > 1e-10]
    return np.sort(1.0 / finite - 1.0)
