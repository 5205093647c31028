"""Independent P1 finite element oracle used to cross-check the solver.

Everything here is built directly from raw vertex/triangle arrays with the
textbook formulas: stiffness from the (b b^T + c c^T) / (4 A) element matrix,
its own edge adjacency table, exact closed forms for the segment integrals,
and a dense LAPACK eigensolve.  No assembly or estimator code from the
package is reused; ``dense_reference_solve`` takes the package's assembled
matrices and checks the sparse eigensolver on them.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg


def _ccw(vertices: np.ndarray, tri: np.ndarray) -> np.ndarray:
    a, b, c = vertices[tri]
    cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return tri if cross > 0 else tri[::-1]


def triangle_area(vertices: np.ndarray, tri: np.ndarray) -> float:
    a, b, c = vertices[tri]
    return 0.5 * abs((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))


def p1_stiffness(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Dense P1 stiffness matrix of the Laplacian."""
    n = len(vertices)
    K = np.zeros((n, n))
    for tri in triangles:
        tri = _ccw(vertices, np.asarray(tri, dtype=int))
        x = vertices[tri, 0]
        y = vertices[tri, 1]
        area = triangle_area(vertices, tri)
        b = np.array([y[1] - y[2], y[2] - y[0], y[0] - y[1]])
        c = np.array([x[2] - x[1], x[0] - x[2], x[1] - x[0]])
        K[np.ix_(tri, tri)] += (np.outer(b, b) + np.outer(c, c)) / (4.0 * area)
    return K


def p1_gradient(vertices: np.ndarray, tri: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Constant gradient of the P1 interpolant of w on one triangle."""
    tri = _ccw(vertices, np.asarray(tri, dtype=int))
    x = vertices[tri, 0]
    y = vertices[tri, 1]
    area = triangle_area(vertices, tri)
    b = np.array([y[1] - y[2], y[2] - y[0], y[0] - y[1]])
    c = np.array([x[2] - x[1], x[0] - x[2], x[1] - x[0]])
    return np.array([w[tri] @ b, w[tri] @ c]) / (2.0 * area)


def boundary_mass(vertices: np.ndarray, edges: list[tuple[int, int]]) -> np.ndarray:
    """Dense mass matrix of the P1 traces on the given boundary segments."""
    n = len(vertices)
    M = np.zeros((n, n))
    for a, b in edges:
        length = float(np.hypot(*(vertices[b] - vertices[a])))
        M[a, a] += length / 3.0
        M[b, b] += length / 3.0
        M[a, b] += length / 6.0
        M[b, a] += length / 6.0
    return M


def edge_table(triangles: np.ndarray) -> dict[tuple[int, int], list[int]]:
    """Undirected edge -> incident triangle indices, built from scratch."""
    table: dict[tuple[int, int], list[int]] = {}
    for t, tri in enumerate(triangles):
        for k in range(3):
            a, b = int(tri[k]), int(tri[(k + 1) % 3])
            table.setdefault((min(a, b), max(a, b)), []).append(t)
    return table


def segment_sq_integral(length: float, j0: float, j1: float) -> float:
    """Exact integral of the squared affine function with endpoint values j0, j1."""
    return length * (j0 * j0 + j0 * j1 + j1 * j1) / 3.0


def classical_indicators(
    vertices: np.ndarray,
    triangles: np.ndarray,
    gamma0_edges: set[tuple[int, int]],
    lam: float,
    w: np.ndarray,
) -> np.ndarray:
    """Classical edge-residual indicators of a P1 Steklov eigenpair.

    Per triangle: eta2 = diam * sum over its three edges of the exact squared
    residual integral; interior edges carry half the normal-flux jump (and
    contribute to both triangles), spectral edges carry lam*w - flux, the
    remaining boundary edges the spurious flux.
    """
    triangles = np.array([_ccw(vertices, np.asarray(t, dtype=int)) for t in triangles])
    table = edge_table(triangles)
    grads = np.array([p1_gradient(vertices, tri, w) for tri in triangles])
    diam = np.array(
        [max(np.hypot(*(vertices[t[(k + 1) % 3]] - vertices[t[k]])) for k in range(3)) for t in triangles]
    )

    norm2: dict[tuple[int, int], float] = {}
    for (a, b), tris in table.items():
        pa, pb = vertices[a], vertices[b]
        length = float(np.hypot(*(pb - pa)))
        # outward normal of the first incident triangle: find its cycle direction
        t0 = tris[0]
        cyc = triangles[t0]
        k = next(i for i in range(3) if {int(cyc[i]), int(cyc[(i + 1) % 3])} == {a, b})
        p, q = vertices[cyc[k]], vertices[cyc[(k + 1) % 3]]
        tangent = (q - p) / length
        normal = np.array([tangent[1], -tangent[0]])
        flux = float(grads[t0] @ normal)
        if len(tris) == 2:
            jump = 0.5 * (flux - float(grads[tris[1]] @ normal))
            norm2[(a, b)] = segment_sq_integral(length, jump, jump)
        elif (a, b) in gamma0_edges:
            j_p = lam * w[cyc[k]] - flux
            j_q = lam * w[cyc[(k + 1) % 3]] - flux
            norm2[(a, b)] = segment_sq_integral(length, j_p, j_q)
        else:
            norm2[(a, b)] = segment_sq_integral(length, -flux, -flux)

    eta2 = np.zeros(len(triangles))
    for (a, b), tris in table.items():
        for t in tris:
            eta2[t] += diam[t] * norm2[(a, b)]
    return eta2


def dense_steklov_solve(
    K: np.ndarray, M: np.ndarray, count: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Smallest positive Steklov eigenpairs via the (M, K+M) pencil (LAPACK).

    Returns eigenvalues ascending and M-normalized eigenvectors as columns.
    """
    mu, vecs = scipy.linalg.eigh(M, K + M)
    keep = mu > 1e-10
    lam = 1.0 / mu[keep] - 1.0
    vecs = vecs[:, keep]
    order = np.argsort(lam)
    positive = [k for k in order if lam[k] > 1e-10][:count]
    values = lam[positive]
    out = []
    for k in positive:
        v = vecs[:, k]
        out.append(v / np.sqrt(v @ M @ v))
    return values, np.column_stack(out)


def dense_reference_solve(system, n_limit: int = 2000) -> np.ndarray:
    """All finite eigenvalues (ascending) of an assembled system's pencil by a
    dense solve of the shifted pencil (M, K + M).

    Refuses systems above ``n_limit`` dofs.  Eigenvalues with mu below 1e-10
    are reported as infinite and dropped.  A connected mesh yields exactly one
    numerically-zero eigenvalue.
    """
    assert system.n_dofs <= n_limit, f"dense reference solve limited to {n_limit} dofs"
    M = system.boundary_mass.toarray()
    C = (system.stiffness + system.boundary_mass).toarray()
    mu = scipy.linalg.eigh(M, C, eigvals_only=True)
    finite = mu[mu > 1e-10]
    return np.sort(1.0 / finite - 1.0)
