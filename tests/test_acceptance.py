"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The square benchmark checks run against the closed-form eigenvalue
pi * tanh(pi); the notched benchmark uses the package's own extrapolated
reference.  Each criterion prints one summary line (visible with -rA) and
asserts the stated tolerances.
"""

import time

import numpy as np
import pytest

from steklov.adaptivity import refine_fem, refine_uniform, refine_vem
from steklov.eigensolver import solve_smallest_positive
from steklov.estimator import element_indicators
from steklov.experiments import (
    ExperimentConfig,
    emit_outputs,
    exact_eigenvalue_square,
    initial_mesh,
    notched_reference_eigenvalue,
    rate_from_records,
    run_experiment,
)
from steklov.mesh import BoundaryTag, build_topology, quality_report
from steklov.vem import assemble

from fem_oracle import boundary_mass as oracle_boundary_mass
from fem_oracle import classical_indicators, dense_reference_solve
from fem_oracle import p1_stiffness as oracle_stiffness
from vem_oracle import local_operators


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def square_adaptive_run():
    config = ExperimentConfig(test="square", method="adaptive-vem", steps=8)
    start = time.perf_counter()
    result = run_experiment(config)
    return result, time.perf_counter() - start


# ---------------------------------------------------------------------------
# criterion 1: the projected gradient reproduces affine fields, whose
# projection complement vanishes, and the discrete form is k-consistent
# against exact boundary integrals with the constants in its kernel, on 200
# random convex polygons spanning diameters from 1e-3 to 1e3


def _random_convex_polygon(rng):
    n = int(rng.integers(3, 11))
    while True:
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
        gaps = np.diff(np.concatenate([angles, [angles[0] + 2.0 * np.pi]]))
        if gaps.min() > 0.05:
            break
    circle = np.column_stack([np.cos(angles), np.sin(angles)])
    theta = rng.uniform(0.0, 2.0 * np.pi)
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    aspect = rng.uniform(0.4, 1.0)
    scale = 10.0 ** rng.uniform(-3.0, 3.0)
    pts = scale * (circle * [1.0, aspect]) @ rot.T
    pts = pts + rng.uniform(-2.0, 2.0, 2) * scale
    # guard the fixture itself: strict convexity
    m = len(pts)
    for k in range(m):
        u = pts[(k + 1) % m] - pts[k]
        v = pts[(k + 2) % m] - pts[(k + 1) % m]
        assert u[0] * v[1] - u[1] * v[0] > 0.0
    return pts


def test_criterion_1_projector_and_consistency():
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    worst_grad = 0.0
    worst_comp = 0.0
    worst_cons = 0.0
    worst_kernel = 0.0
    for _ in range(200):
        pts = _random_convex_polygon(rng)
        n = len(pts)
        ops = local_operators(pts)
        scale = ops.group.diameter[0]
        a = rng.uniform(-1.0, 1.0)
        b, c = rng.uniform(0.2, 1.0, 2) * rng.choice([-1.0, 1.0], 2) / scale
        w = a + b * pts[:, 0] + c * pts[:, 1]

        gradient, theta2 = ops.project(w)
        worst_grad = max(worst_grad, np.linalg.norm(gradient - [b, c]) / np.hypot(b, c))
        worst_comp = max(worst_comp, np.sqrt(theta2) / np.linalg.norm(w))

        # exact boundary integral of grad(p) . n against each vertex hat
        # function: the trace is linear, so each incident edge contributes
        # (grad p . n_e) * len_e / 2
        g = np.array([b, c])
        exact = np.zeros(n)
        for k in range(n):
            p, q = pts[k], pts[(k + 1) % n]
            t = q - p
            flux = g @ np.array([t[1], -t[0]])  # n * len
            exact[k] += 0.5 * flux
            exact[(k + 1) % n] += 0.5 * flux
        got = ops.stiffness @ w
        worst_cons = max(
            worst_cons, np.linalg.norm(got - exact) / np.linalg.norm(exact)
        )
        kernel = np.max(np.abs(ops.stiffness @ np.ones(n))) / np.max(np.abs(ops.stiffness))
        worst_kernel = max(worst_kernel, kernel)
    elapsed = time.perf_counter() - start
    ok = max(worst_grad, worst_comp, worst_cons, worst_kernel) <= 1e-12 and elapsed < 5.0
    report(
        1,
        ok,
        f"200 polygons: gradient rel err {worst_grad:.2e}, complement rel err {worst_comp:.2e}, "
        f"consistency rel err {worst_cons:.2e}, kernel {worst_kernel:.2e}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# criterion 2: on triangular meshes the method reduces to P1 FEM and the
# indicator to the classical edge-residual estimator


def test_criterion_2_fem_equivalence():
    meshes = [
        initial_mesh("square"),
        initial_mesh("notched"),
        refine_fem(initial_mesh("square"), range(0, 20)),
    ]
    worst_k = 0.0
    worst_theta = 0.0
    worst_ind = 0.0
    for mesh in meshes:
        system = assemble(mesh)
        triangles = mesh.cell_vertices.reshape(-1, 3)
        K_ref = oracle_stiffness(mesh.vertices, triangles)
        worst_k = max(worst_k, np.max(np.abs(system.stiffness.toarray() - K_ref)))

        (pair,) = solve_smallest_positive(system, count=1)
        theta2, jump2 = element_indicators(system, pair)
        worst_theta = max(worst_theta, float(np.max(theta2)))

        g = mesh.gamma0_edge_ids()
        gamma0 = {(min(a, b), max(a, b)) for a, b in zip(mesh.edge_a[g].tolist(), mesh.edge_b[g].tolist())}
        ref = classical_indicators(mesh.vertices, triangles, gamma0, pair.value, pair.vector)
        mine = theta2 + jump2
        worst_ind = max(worst_ind, np.max(np.abs(mine - ref) / np.maximum(ref, 1e-30)))
    ok = worst_k <= 1e-12 and worst_theta == 0.0 and worst_ind <= 1e-12
    report(
        2,
        ok,
        f"3 triangle meshes: stiffness diff {worst_k:.2e}, max theta2 {worst_theta:.2e}, "
        f"indicator rel diff {worst_ind:.2e}",
    )


# ---------------------------------------------------------------------------
# criterion 3: sparse eigensolver against the dense reference on ten small
# meshes, plus the deflation and normalization invariants


def _ten_small_meshes():
    square = initial_mesh("square")
    notched = initial_mesh("notched")
    meshes = [
        square,
        notched,
        refine_uniform(square),
        refine_uniform(notched),
        refine_vem(square, range(16)),
        refine_vem(notched, range(notched.n_cells)),
        refine_fem(square, range(10)),
        refine_fem(notched, range(8)),
        build_topology(
            [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
            [[0, 1, 2, 3]],
            lambda a, b: BoundaryTag.GAMMA0,
        ),
        refine_vem(refine_vem(notched, range(5)), range(5)),
    ]
    return meshes


def test_criterion_3_eigensolver_oracle():
    meshes = _ten_small_meshes()
    assert len(meshes) == 10
    worst_val = 0.0
    worst_mean = 0.0
    worst_norm = 0.0
    for mesh in meshes:
        system = assemble(mesh)
        assert system.n_dofs <= 200
        dense = dense_reference_solve(system)
        count = min(2, len(system.gamma0_dofs) - 1)
        pairs = solve_smallest_positive(system, count=count)
        for j, pair in enumerate(pairs):
            worst_val = max(worst_val, abs(pair.value - dense[1 + j]) / dense[1 + j])
            mw = system.boundary_mass @ pair.vector
            worst_mean = max(
                worst_mean,
                abs(float(np.ones_like(pair.vector) @ mw)) / np.linalg.norm(mw),
            )
            worst_norm = max(worst_norm, abs(float(pair.vector @ mw) - 1.0))
    ok = worst_val <= 1e-8 and worst_mean <= 1e-8 and worst_norm <= 1e-10
    report(
        3,
        ok,
        f"10 meshes <= 200 dofs: eigenvalue rel err {worst_val:.2e}, "
        f"deflation {worst_mean:.2e}, mass norm err {worst_norm:.2e}",
    )


# ---------------------------------------------------------------------------
# criterion 4: square benchmark converges at the optimal adaptive rate


def test_criterion_4_square_convergence(square_adaptive_run):
    result, elapsed = square_adaptive_run
    exact = exact_eigenvalue_square(1)
    fit = rate_from_records(result.records, last=5)
    final = result.records[-1]
    ok = (
        -1.25 <= fit.slope <= -0.75
        and final.error <= 2e-3
        and final.n_dofs >= 5000
        and elapsed < 120.0
    )
    report(
        4,
        ok,
        f"8 adaptive steps to N={final.n_dofs}: slope {fit.slope:.4f} "
        f"(band [-1.25, -0.75]), final error {final.error:.3e} vs "
        f"{exact:.7f}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 5: effectivity indices stay inside a stable band


def test_criterion_5_square_effectivity(square_adaptive_run):
    result, _ = square_adaptive_run
    effs = [r.effectivity for r in result.records]
    lo, hi = min(effs), max(effs)
    ok = lo >= 0.03 and hi <= 0.6 and hi / lo <= 4.0
    report(
        5,
        ok,
        f"effectivity in [{lo:.4f}, {hi:.4f}] (band [0.03, 0.6]), "
        f"max/min {hi / lo:.3f} (limit 4)",
    )


# ---------------------------------------------------------------------------
# criterion 6: notched benchmark rates against the extrapolated reference


def test_criterion_6_notched_rates(tmp_path):
    start = time.perf_counter()
    reference = notched_reference_eigenvalue()

    adaptive_cfg = ExperimentConfig(
        test="notched",
        method="adaptive-vem",
        steps=13,
        reference=reference,
        out_dir=str(tmp_path / "notched_adaptive"),
    )
    adaptive = run_experiment(adaptive_cfg)
    emit_outputs(adaptive)
    slope_a = rate_from_records(adaptive.records, last=5).slope

    # automated proxy for the visual check: the adaptive meshes concentrate
    # cells near the reentrant corner at (0.5, sqrt(3)/6)
    apex = np.array([0.5, np.sqrt(3.0) / 6.0])
    final_mesh = adaptive.meshes[len(adaptive.records) - 1]
    centers = np.array(
        [final_mesh.vertices[cyc].mean(axis=0) for cyc in final_mesh.cycles()]
    )
    near = float(np.mean(np.linalg.norm(centers - apex, axis=1) < 0.1))

    uniform_cfg = ExperimentConfig(
        test="notched", method="uniform-fem", steps=8, reference=reference
    )
    uniform = run_experiment(uniform_cfg)
    slope_u = rate_from_records(uniform.records, last=5).slope

    elapsed = time.perf_counter() - start
    ok_a = -1.3 <= slope_a <= -0.85
    ok_u = -0.8 <= slope_u <= -0.5
    ok = ok_a and ok_u and elapsed < 300.0
    report(
        6,
        ok,
        f"reference {reference:.10f}; adaptive slope {slope_a:.4f} "
        f"(band [-1.3, -0.85]) {'ok' if ok_a else 'OUT'}, uniform slope {slope_u:.4f} "
        f"(band [-0.8, -0.5]) {'ok' if ok_u else 'OUT'}; {near:.0%} of final adaptive "
        f"cells within 0.1 of the corner, SVGs in {tmp_path / 'notched_adaptive'}; "
        f"{elapsed:.0f}s. Note: at these sizes the uniform rate is still in the "
        f"first-order pre-asymptotic regime; the corner-limited band would only "
        f"be reached around 1e7 dofs.",
    )


# ---------------------------------------------------------------------------
# criterion 7: refinement invariants over ten adaptive steps


def _check_conforming(mesh):
    """Independent conformity predicate built from the raw cycles."""
    directed = {}
    for cyc in mesh.cycles():
        n = len(cyc)
        for k in range(n):
            a, b = cyc[k], cyc[(k + 1) % n]
            key = (min(a, b), max(a, b))
            directed.setdefault(key, []).append((a, b))
    for key, halves in directed.items():
        if len(halves) > 2:
            return False
        if len(halves) == 2 and halves[0] != (halves[1][1], halves[1][0]):
            return False
    return True


def _all_cells_convex(mesh):
    for cyc, diam in zip(mesh.cycles(), quality_report(mesh).diameters):
        pts = mesh.vertices[cyc]
        n = len(pts)
        diam2 = diam**2
        for k in range(n):
            u = pts[(k + 1) % n] - pts[k]
            v = pts[(k + 2) % n] - pts[(k + 1) % n]
            # hanging vertices sit on straight edges: allow zero turns
            if u[0] * v[1] - u[1] * v[0] < -1e-12 * diam2:
                return False
    return True


def _gamma0_length(mesh):
    g = mesh.gamma0_edge_ids()
    return sum(
        float(np.hypot(*(mesh.vertices[b] - mesh.vertices[a])))
        for a, b in zip(mesh.edge_a[g], mesh.edge_b[g])
    )


def _min_angle(mesh):
    worst = np.inf
    for pts in mesh.vertices[mesh.cell_vertices.reshape(-1, 3)]:
        for k in range(3):
            u = pts[(k + 1) % 3] - pts[k]
            v = pts[(k + 2) % 3] - pts[k]
            cosang = (u @ v) / (np.hypot(*u) * np.hypot(*v))
            worst = min(worst, np.arccos(np.clip(cosang, -1.0, 1.0)))
    return worst


def test_criterion_7_refinement_invariants():
    vem = run_experiment(
        ExperimentConfig(test="square", method="adaptive-vem", steps=11)
    )
    worst_area = 0.0
    for mesh in vem.meshes:
        total = float(np.sum(quality_report(mesh).areas))
        worst_area = max(worst_area, abs(total - 1.0))
        assert _check_conforming(mesh)
        assert _all_cells_convex(mesh)
        assert abs(_gamma0_length(mesh) - 1.0) < 1e-10

    fem = run_experiment(
        ExperimentConfig(test="square", method="adaptive-fem", steps=11)
    )
    base_angle = _min_angle(fem.meshes[0])
    min_ratio = min(_min_angle(mesh) / base_angle for mesh in fem.meshes)

    ok = worst_area <= 1e-10 and min_ratio >= 0.5
    report(
        7,
        ok,
        f"10 polygon steps (final N={vem.meshes[-1].n_vertices}): area error "
        f"{worst_area:.2e}, conforming, convex, spectral boundary covered; "
        f"10 bisection steps: min angle ratio {min_ratio:.3f} (floor 0.5)",
    )


# ---------------------------------------------------------------------------
# criterion 8: determinism of the full pipeline


def test_criterion_8_determinism(tmp_path):
    runs = []
    for name in ("a", "b"):
        out = tmp_path / name
        config = ExperimentConfig(
            test="square", method="adaptive-vem", steps=8, out_dir=str(out)
        )
        written = emit_outputs(run_experiment(config))
        runs.append({path.name: path.read_bytes() for path in written})
    # results.csv, curves.csv and the JSON and SVG file of each of the 8 meshes
    expected = {"results.csv", "curves.csv"} | {f"mesh_step_{k}.{ext}" for k in range(8) for ext in ("json", "svg")}
    differing = sorted(name for name in runs[0] if runs[0][name] != runs[1].get(name))
    ok = set(runs[0]) == set(runs[1]) == expected and not differing
    report(8, ok, f"two 8-step runs: all {len(expected)} files byte-identical = {ok}; differing: {differing}")
