"""Benchmark problems, the adaptive solve loop, and convergence reporting.

Two sloshing-type benchmarks are built in.  On the unit square with the
spectral boundary on the top edge the eigenvalues are known in closed form,
lambda_n = n*pi*tanh(n*pi).  On the square with an equilateral notch cut into
the bottom edge (one reentrant corner of interior angle 5*pi/3) there is no
closed form; the reference value is a constant that every conforming P1
eigenvalue must lie above (a Rayleigh-Ritz upper bound) and that a uniform-fem
extrapolation matches to 2e-7.
A run writes its tables row by row as the steps end, so Ctrl-C or an error
keeps every finished row; ``emit_outputs`` adds the mesh snapshots.
"""

from __future__ import annotations

import csv
import itertools
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .adaptivity import mark, prolong, refine_fem, refine_uniform, refine_vem
from .eigensolver import solve_smallest_positive
from .estimator import element_indicators
from .mesh import PolygonalMesh, _snapshot_texts, build_topology
from .vem import assemble

__all__ = [
    "TESTS",
    "METHODS",
    "NOTCHED_REFERENCE",
    "ExperimentConfig",
    "ConvergenceRecord",
    "ExperimentResult",
    "RateFit",
    "exact_eigenvalue_square",
    "initial_mesh",
    "run_experiment",
    "emit_outputs",
    "fit_rate",
    "read_results_csv",
    "RESULTS_HEADER",
]

TESTS = ("square", "notched")
METHODS = ("uniform-fem", "adaptive-fem", "adaptive-vem")

RESULTS_HEADER = ["step", "N", "lambda_h", "error", "theta2", "jump2", "eta2", "effectivity"]

# Reference eigenvalue of the notched benchmark, bit for bit as commit 4ff9280
# extrapolated it from an 18-step adaptive-vem ladder (tol 1e-11, up to
# 181,036 dofs).  Two checks that do not use adaptive-vem hold it: every
# conforming adaptive-fem eigenvalue lies above it, as a Rayleigh-Ritz upper
# bound must (test_experiments.py checks 30 steps, and that their errors decay
# at the optimal rate), and an Aitken extrapolation of uniform-fem at 39,329,
# 156,481 and 624,257 dofs (tol 1e-11) lies 2.0e-7 above it (test_experiments.py
# checks the coarser 7-step extrapolation to 5e-5).
NOTCHED_REFERENCE = 3.1006226620879023

# The files step k may leave in out_dir, snapshots first: a run deletes them
# all before it starts, and emit_outputs lists those that exist in this order
_STEP_FILES = ("mesh_step_{}.json", "mesh_step_{}.svg", "indicators_step_{}.csv",
               "stiffness_step_{}.mtx", "boundary_mass_step_{}.mtx")


def exact_eigenvalue_square(n: int = 1) -> float:
    """Closed-form sloshing eigenvalues of the unit square, spectral side on top."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"mode index must be a positive integer, got {n!r}")
    return n * math.pi * math.tanh(n * math.pi)


def _top_edge_rule(p0: np.ndarray, p1: np.ndarray) -> str:
    on_top = abs(p0[1] - 1.0) <= 1e-12 and abs(p1[1] - 1.0) <= 1e-12
    return "gamma0" if on_top else "gamma1"


def _grid(n: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The (n + 1)**2 vertices of the n x n grid on the unit square and the
    corner ids (a, b, c, d) of its n**2 squares, counterclockwise from the
    lower left; vertices and squares are numbered row by row from the bottom."""
    rows, cols = np.divmod(np.arange((n + 1) ** 2), n + 1)
    grid = np.column_stack([cols, rows]) / n
    a = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    return grid, (a, a + 1, a + n + 2, a + n + 1)


def _square_mesh() -> PolygonalMesh:
    """4 x 4 grid squares, each crossed into four triangles at its center; the
    centers are numbered after the grid, square by square.  Each triangle
    lists its grid side, its longest edge, first."""
    grid, (a, b, c, d) = _grid(4)
    center = len(grid) + np.arange(len(a))
    cells = np.stack([a, b, center, b, c, center, c, d, center, d, a, center], axis=1).reshape(-1, 3)
    return build_topology(np.vstack([grid, grid[a] + 0.125]), cells.tolist(), _top_edge_rule)


def _notched_mesh() -> PolygonalMesh:
    """Unit square minus an equilateral notch on the bottom edge: base
    (1/3, 0)-(2/3, 0), apex (1/2, sqrt(3)/6), the single reentrant corner
    (interior angle 5*pi/3).  Of the 3 x 3 grid squares, square 1 holds the
    notch: the rest of it is fanned around the apex, and every other square is
    split on its a-c diagonal.  Each triangle lists its longest edge first.
    The first and third fan triangles each have two sides of length 1/3 that
    differ only by round-off; they start at apex-b1 and at d1-a1, the sides
    whose computed lengths came out longest."""
    grid, corners = _grid(3)
    a, b, c, d = (np.delete(k, 1) for k in corners)
    apex = len(grid)
    a1, b1, c1, d1 = (int(k[1]) for k in corners)
    cells = np.stack([c, a, b, a, c, d], axis=1).reshape(-1, 3).tolist()
    cells += [[apex, b1, c1], [c1, d1, apex], [d1, a1, apex]]
    return build_topology(np.vstack([grid, [0.5, math.sqrt(3.0) / 6.0]]), cells, _top_edge_rule)


def initial_mesh(test: str) -> PolygonalMesh:
    """Starting triangulation of one benchmark: ``"square"`` has 41 vertices
    and 64 cells, ``"notched"`` 17 and 19; any other name raises ValueError.

    Both are stored bisection edge first, as :func:`~steklov.adaptivity.refine_fem`
    needs: each triangle's cycle starts at its longest edge.
    """
    if test == "square":
        return _square_mesh()
    if test == "notched":
        return _notched_mesh()
    raise ValueError(f"unknown test {test!r}; expected one of {TESTS}")


@dataclass(frozen=True)
class ExperimentConfig:
    test: str = "square"
    method: str = "adaptive-vem"
    steps: int = 8
    mark_fraction: float = 0.5
    tol: float = 1e-10
    seed: int = 0
    reference: float | None = None
    out_dir: str | None = None
    dump_indicators: bool = False
    dump_matrices: bool = False


@dataclass(frozen=True)
class ConvergenceRecord:
    step: int
    n_dofs: int
    lambda_h: float
    error: float
    theta2: float
    jump2: float
    eta2: float
    effectivity: float


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    reference: float
    records: list[ConvergenceRecord]
    meshes: list[PolygonalMesh]
    marks: list[np.ndarray | None]  # marked cell ids of each mesh; None for uniform-fem


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log(error) against log(N)."""

    slope: float
    points: int


def fit_rate(n_dofs: Sequence[float], errors: Sequence[float], last: int = 5) -> RateFit:
    """Fit the convergence order over the trailing ``last`` usable data points.

    Points with non-finite or non-positive error are skipped; ``n_dofs`` and
    ``errors`` of different lengths, a window ``last`` that is a bool, not an
    integer or below three, or fewer than three usable points, raise
    ValueError.
    """
    if len(n_dofs) != len(errors):
        raise ValueError(
            f"rate fit needs one error per dof count, got {len(n_dofs)} dof counts and {len(errors)} errors"
        )
    if isinstance(last, bool) or not isinstance(last, numbers.Integral):
        raise ValueError(f"rate fit window must be an integer, got last={last!r}")
    if last < 3:
        raise ValueError(f"rate fit window must cover at least 3 points, got last={last}")
    usable = [
        (float(n), float(e))
        for n, e in zip(n_dofs, errors)
        if 0.0 < e < math.inf and n > 0
    ]
    usable = usable[-last:]
    if len(usable) < 3:
        raise ValueError(f"rate fit needs at least 3 usable points, got {len(usable)}")
    log_n = np.log([n for n, _ in usable])
    log_e = np.log([e for _, e in usable])
    slope = float(np.polyfit(log_n, log_e, 1)[0])
    return RateFit(slope=slope, points=len(usable))


def _resolve_reference(config: ExperimentConfig) -> float:
    if config.reference is not None:
        return float(config.reference)
    if config.test == "square":
        return exact_eigenvalue_square(1)
    return NOTCHED_REFERENCE


def run_experiment(
    config: ExperimentConfig,
    progress: Callable[[ConvergenceRecord], None] | None = None,
) -> ExperimentResult:
    """Run the solve/estimate/mark/refine loop for one configuration.

    Returns per-step convergence records together with the mesh solved at
    each step (initial mesh first) and the ids of the cells marked on it;
    nothing is refined after the last solve.  Every solve after the first
    starts from the previous eigenvector prolonged to the refined mesh.  A
    zero estimate raises ``ValueError``.  Given ``out_dir``, each step
    appends its row to ``results.csv`` and ``curves.csv`` before ``progress``
    sees its record, so a run stopped midway keeps every finished row; the
    step files an earlier run left in ``out_dir`` are deleted first.  The
    dump flags add each step's indicator CSV and Matrix Market matrices.
    """
    if config.method not in METHODS:
        raise ValueError(f"unknown method {config.method!r}; expected one of {METHODS}")
    for name, value in (("steps", config.steps), ("seed", config.seed)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    for name in ("mark_fraction", "tol", "reference"):
        if isinstance(value := getattr(config, name), bool):
            raise ValueError(f"{name} must be a number, not {value!r}")
    if config.steps < 1:
        raise ValueError("need at least one step")
    if not 0.0 < config.mark_fraction <= 1.0:
        raise ValueError(f"mark fraction must lie in (0, 1], got {config.mark_fraction}")
    if not config.tol > 0.0:
        raise ValueError(f"solver tolerance must be positive, got {config.tol}")
    if config.seed < 0:
        raise ValueError(f"solver seed must be non-negative, got {config.seed}")
    if config.reference is not None and not 0.0 < config.reference < math.inf:
        raise ValueError(f"reference eigenvalue must be finite and positive, got {config.reference}")

    reference = _resolve_reference(config)
    mesh = initial_mesh(config.test)
    out_dir = Path(config.out_dir) if config.out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        # a shorter rerun must not leave a longer run's step files behind
        for name in _STEP_FILES:
            for path in out_dir.glob(name.format("*")):
                path.unlink()
        _write_rows(out_dir / "results.csv", [RESULTS_HEADER], "w")
        _write_rows(out_dir / "curves.csv", [["N", "error", "eta2"]], "w")

    result = ExperimentResult(
        config=config, reference=reference, records=[], meshes=[mesh], marks=[]
    )
    start = None  # the previous eigenvector, prolonged to the current mesh
    for step in range(config.steps):
        system = assemble(mesh)
        pair = solve_smallest_positive(system, tol=config.tol, seed=config.seed, start=start)[0]
        theta2, jump2 = element_indicators(system, pair)
        eta2 = theta2 + jump2
        theta2_total = float(np.sum(theta2))
        jump2_total = float(np.sum(jump2))
        eta2_total = theta2_total + jump2_total
        # mark returns no cells only for a zero estimate, which stops here
        if eta2_total <= 0.0:
            raise ValueError("effectivity is undefined for a zero estimate")
        error = abs(pair.value - reference)
        record = ConvergenceRecord(
            step=step,
            n_dofs=system.n_dofs,
            lambda_h=pair.value,
            error=error,
            theta2=theta2_total,
            jump2=jump2_total,
            eta2=eta2_total,
            effectivity=error / eta2_total,
        )
        result.records.append(record)
        if out_dir is not None:
            values = (pair.value, error, theta2_total, jump2_total, eta2_total, record.effectivity)
            _write_rows(out_dir / "results.csv", [[step, system.n_dofs, *map(repr, values)]])
            _write_rows(out_dir / "curves.csv", [[system.n_dofs, repr(error), repr(eta2_total)]])
        if progress is not None:
            progress(record)

        if out_dir is not None and config.dump_indicators:
            columns = (map(repr, column.tolist()) for column in (theta2, jump2, eta2))
            rows = itertools.chain([["cell", "theta2", "jump2", "eta2"]], zip(range(len(eta2)), *columns))
            _write_rows(out_dir / f"indicators_step_{step}.csv", rows, "w")
        if out_dir is not None and config.dump_matrices:
            import scipy.io  # not at the top: it adds about 22 ms to every process

            # "general" keeps every stored entry, explicit zeros included
            scipy.io.mmwrite(out_dir / f"stiffness_step_{step}.mtx", system.stiffness, symmetry="general")
            scipy.io.mmwrite(out_dir / f"boundary_mass_step_{step}.mtx", system.boundary_mass, symmetry="general")

        marks = None if config.method == "uniform-fem" else mark(eta2, config.mark_fraction)
        result.marks.append(marks)
        # meshes[k] is the mesh solved at step k: nothing is refined after
        # the last solve
        if step == config.steps - 1:
            break
        if marks is None:
            fine = refine_uniform(mesh)
        elif config.method == "adaptive-fem":
            fine = refine_fem(mesh, marks)
        else:
            fine = refine_vem(mesh, marks)
        start = prolong(mesh, fine, pair.vector)
        mesh = fine
        result.meshes.append(mesh)
    return result


def _write_rows(path: Path, rows: Iterable[Sequence[object]], mode: str = "a") -> None:
    """Write (mode "w") or append CSV rows; each call closes the file."""
    with open(path, mode, newline="") as fh:
        csv.writer(fh).writerows(rows)


def read_results_csv(path: str | Path) -> tuple[list[int], list[float], list[float]]:
    """Read back (N, lambda_h, error) columns of a results.csv file; a
    malformed row, or a last row cut short, raises ValueError naming its line."""
    ns: list[int] = []
    lams: list[float] = []
    errs: list[float] = []
    with open(path, newline="") as fh:
        lines = fh.readlines()
    reader = csv.DictReader(lines)
    if reader.fieldnames != RESULTS_HEADER:
        raise ValueError(f"{path} does not look like a results.csv file")
    for row in reader:
        try:
            if None in row or None in row.values() or not lines[reader.line_num - 1].endswith("\n"):
                raise ValueError("malformed or incomplete row; a run stopped mid-write can leave one")
            ns.append(int(row["N"]))
            lams.append(float(row["lambda_h"]))
            errs.append(float(row["error"]))
        except ValueError as err:
            raise ValueError(f"{path}, line {reader.line_num}: {err}") from None
    return ns, lams, errs


def emit_outputs(result: ExperimentResult) -> list[Path]:
    """Write the per-step mesh JSON/SVG files of a run, whose tables and dumps
    the run wrote, and return the paths of the tables that exist, then, step
    by step, of that step's snapshots and of the dumps that exist."""
    if result.config.out_dir is None:
        raise ValueError("config.out_dir is not set")
    lengths = (len(result.meshes), len(result.marks), len(result.records))
    if len(set(lengths)) != 1:
        raise ValueError(f"a run needs one mesh, marks entry and record per step; got {lengths}")
    out_dir = Path(result.config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = [path for path in (out_dir / "results.csv", out_dir / "curves.csv") if path.is_file()]

    # each vertex is formatted once per run: every mesh file reuses the text of
    # the vertices its mesh shares with the one before
    frames = ((mesh, () if marks is None else marks) for mesh, marks in zip(result.meshes, result.marks))
    for k, snapshots in enumerate(_snapshot_texts(frames)):
        paths = [out_dir / name.format(k) for name in _STEP_FILES]
        for path, text in zip(paths, snapshots):  # the JSON and SVG names lead
            path.write_text(text)
        written.extend(path for path in paths if path.is_file())
    return written
