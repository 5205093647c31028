"""Outside-in span tracer for the steklov pipeline, and the per-layer metrics
computed from its spans.

The tracer never edits the package. It replaces module attributes through
which the pipeline calls its layers (``steklov.experiments.assemble``,
``steklov.adaptivity.build_topology``, ``scipy.sparse.linalg.splu`` ...) with
wrappers that record one span per call: name, start, end, parent span and a
few counts read from the arguments and the result. Spans stay in memory and
are written out once, after the timed work has ended.

A layer's self time is its span's duration minus the part covered by its
child spans. Self time is split between the phases of a run:

* ``setup``: process spawn to the first convergence record,
* ``loop``: first record to the return of the last ``run_experiment`` (a
  workload of several experiments starts the later ones in this phase),
* ``emit``: that return to the return of the last public call.

This module imports nothing from steklov at module level, so the parent
process can use the analysis half without loading the package.
"""

from __future__ import annotations

import os
import sys
import time

clock = time.monotonic  # CLOCK_MONOTONIC: comparable between parent and child

# (module, attribute, span name).  The pipeline looks each of these up on the
# module at call time, so replacing the attribute routes the call through a
# span.  Names a later change removes are reported as absent.
TARGETS = (
    ("steklov.cli", "run_experiment", "experiments.run_experiment"),
    ("steklov.cli", "emit_outputs", "experiments.emit_outputs"),
    ("steklov.experiments", "run_experiment", "experiments.run_experiment"),
    ("steklov.experiments", "emit_outputs", "experiments.emit_outputs"),
    ("steklov.experiments", "notched_reference_eigenvalue", "experiments.notched_reference_eigenvalue"),
    ("steklov.experiments", "initial_mesh", "experiments.initial_mesh"),
    ("steklov.experiments", "build_topology", "mesh.build_topology"),
    ("steklov.experiments", "normalize_refinement_edges", "adaptivity.normalize_refinement_edges"),
    ("steklov.experiments", "assemble", "vem.assemble"),
    ("steklov.experiments", "solve_smallest_positive", "eigensolver.solve"),
    ("steklov.experiments", "element_indicators", "estimator.element_indicators"),
    ("steklov.experiments", "global_estimate", "estimator.global_estimate"),
    ("steklov.experiments", "mark", "adaptivity.mark"),
    ("steklov.experiments", "refine_vem", "adaptivity.refine_vem"),
    ("steklov.experiments", "refine_fem", "adaptivity.refine_fem"),
    ("steklov.experiments", "refine_uniform", "adaptivity.refine_uniform"),
    ("steklov.experiments", "save_mesh", "mesh.save_mesh"),
    ("steklov.experiments", "mesh_to_svg", "render.mesh_to_svg"),
    ("steklov.adaptivity", "build_topology", "mesh.build_topology"),
    ("scipy.sparse.linalg", "splu", "eigensolver.factorize"),
)


def _cells(mesh) -> int:
    return mesh.n_cells


def _refined(result) -> dict:
    mesh = result[0] if isinstance(result, tuple) else result  # refine_vem returns (mesh, record)
    return {"cells_built": _cells(mesh)}


def _file_bytes(args) -> dict:
    return {"bytes": os.path.getsize(args[1])}


# span name -> counts taken from (args, result) after the call returns
COUNTERS = {
    "mesh.build_topology": lambda args, result: {"cells": _cells(result)},
    "adaptivity.refine_vem": lambda args, result: _refined(result),
    "adaptivity.refine_fem": lambda args, result: _refined(result),
    "adaptivity.refine_uniform": lambda args, result: _refined(result),
    "vem.assemble": lambda args, result: {"cells": _cells(args[0]), "groups": len(result.groups)},
    "eigensolver.solve": lambda args, result: {"residual": max(p.residual for p in result)},
    "adaptivity.mark": lambda args, result: {"marked": len(result.cells), "considered": len(args[0])},
    "mesh.save_mesh": lambda args, result: _file_bytes(args),
    "render.mesh_to_svg": lambda args, result: _file_bytes(args),
    "eigensolver.factorize": lambda args, result: {"nnz": int(result.nnz)},
}


class Tracer:
    """Records spans in memory; ``install`` routes the pipeline through it."""

    def __init__(self) -> None:
        # each span: [name, start, end, parent index or -1, counts]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.overhead_s = 0.0  # time spent in wrapper bookkeeping
        self.absent: list[str] = []

    def span(self, name: str, fn, args: tuple = (), kwargs: dict | None = None, counter=None):
        t_in = clock()
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0.0, 0.0, parent, {}]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = start = clock()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            record[2] = end = clock()
            self._stack.pop()
        if counter is not None:
            try:
                record[4] = counter(args, result)
            except (AttributeError, TypeError, ValueError, IndexError, OSError):
                record[4] = {}  # the program changed shape; the span still counts
        self.overhead_s += (start - t_in) + (clock() - end)
        return result

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            result = tracer.span(name, fn, args, kwargs, counter)
            return _LUProxy(tracer, result) if name == "eigensolver.factorize" else result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target of the modules the run has imported."""
        for module_name, attr, name in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(name, original))


class _LUProxy:
    """Stands in for the SuperLU object so that every ``solve`` is a span."""

    def __init__(self, tracer: Tracer, lu) -> None:
        self._tracer = tracer
        self._lu = lu

    def solve(self, *args, **kwargs):
        return self._tracer.span("eigensolver.lu_solve", self._lu.solve, args, kwargs)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


# ---------------------------------------------------------------------------
# analysis (parent side)

# spans whose self time each phase reports as "<phase>.<span>.self_s"
_SELF_LAYERS = {
    "setup": (
        "experiments.run_experiment", "experiments.notched_reference_eigenvalue",
        "experiments.initial_mesh", "adaptivity.normalize_refinement_edges",
        "mesh.build_topology", "adaptivity.refine_vem", "adaptivity.mark",
        "vem.assemble", "eigensolver.solve", "estimator.element_indicators",
        "estimator.global_estimate", "cli.main",
    ),
    "loop": (
        "experiments.run_experiment", "experiments.initial_mesh",
        "adaptivity.normalize_refinement_edges", "mesh.build_topology", "adaptivity.refine_vem",
        "adaptivity.refine_fem", "adaptivity.refine_uniform", "adaptivity.mark",
        "vem.assemble", "eigensolver.solve", "estimator.element_indicators",
        "estimator.global_estimate",
    ),
    "emit": (
        "experiments.emit_outputs", "mesh.save_mesh", "render.mesh_to_svg", "cli.main",
    ),
}
# self times whose name does not end in ".self_s"
SELF_TIMES = {
    "setup.process.start_s": "process.start",
    "setup.process.import_s": "process.import",
    "setup.eigensolver.factorize_s": "eigensolver.factorize",
    "setup.eigensolver.lu_solve_s": "eigensolver.lu_solve",
    "loop.eigensolver.factorize_s": "eigensolver.factorize",
    "loop.eigensolver.lu_solve_s": "eigensolver.lu_solve",
}


def _metric_units() -> dict[str, str]:
    """Every per-layer metric with its unit; a traced run reports all of them,
    0 for a layer that did not run."""
    units: dict[str, str] = {}
    for phase, layers in _SELF_LAYERS.items():
        for layer in layers:
            units[f"{phase}.{layer}.self_s"] = "s"
    units.update({name: "s" for name in SELF_TIMES})
    units["setup.experiments.notched_reference_eigenvalue.incl_s"] = "s"
    for phase in ("setup", "loop"):
        units.update({
            f"{phase}.mesh.build_topology.calls": "count",
            f"{phase}.mesh.build_topology.cells_per_s": "1/s",
            f"{phase}.adaptivity.marked_share": "ratio",
            f"{phase}.vem.assemble.cells_per_s": "1/s",
            f"{phase}.vem.assemble.groups": "count",
            f"{phase}.eigensolver.lu_nnz": "count",
            f"{phase}.eigensolver.lu_solves": "count",
            f"{phase}.eigensolver.max_residual": "1",
        })
    units.update({
        "loop.adaptivity.useful_cell_share": "ratio",
        "emit.mesh.save_mesh.bytes": "B",
        "emit.render.mesh_to_svg.bytes": "B",
        "trace.wall_s": "s",
        "trace.overhead_s": "s",
        "trace.unattributed_s": "s",
        "trace.spans": "count",
    })
    return units


METRIC_UNITS = _metric_units()


def _self_intervals(spans: list[list]) -> list[list[tuple[float, float]]]:
    """Per span, the parts of [start, end] not covered by a direct child.

    Spans come from one thread's call stack, so siblings never overlap and
    appear in start order.
    """
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        gaps, cursor = [], start
        for c in children[i]:
            gaps.append((cursor, spans[c][1]))
            cursor = spans[c][2]
        gaps.append((cursor, end))
        out.append([(a, b) for a, b in gaps if b > a])
    return out


def _overlap(a: float, b: float, lo: float, hi: float) -> float:
    return max(0.0, min(b, hi) - max(a, lo))


def layer_metrics(spans: list[list], bounds: dict[str, float], overhead_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    ``bounds`` holds the clock readings ``spawn``, ``first`` (first record),
    ``run_return`` and ``end`` (return of the last public call).
    """
    phase_range = {
        "setup": (bounds["spawn"], bounds["first"]),
        "loop": (bounds["first"], bounds["run_return"]),
        "emit": (bounds["run_return"], bounds["end"]),
    }

    def phase_of(t: float) -> str:
        if t < bounds["first"]:
            return "setup"
        return "loop" if t < bounds["run_return"] else "emit"

    self_s: dict[tuple[str, str], float] = {}
    totals: dict[tuple[str, str, str], float] = {}
    calls: dict[tuple[str, str], int] = {}
    for span, gaps in zip(spans, _self_intervals(spans)):
        name, start, end, _, counts = span
        for phase, (lo, hi) in phase_range.items():
            share = sum(_overlap(a, b, lo, hi) for a, b in gaps)
            if share:
                self_s[phase, name] = self_s.get((phase, name), 0.0) + share
        phase = phase_of(start)
        calls[phase, name] = calls.get((phase, name), 0) + 1
        totals[phase, name, "incl_s"] = totals.get((phase, name, "incl_s"), 0.0) + (end - start)
        for key, value in counts.items():
            slot = (phase, name, key)
            if key in ("residual", "nnz"):
                totals[slot] = max(totals.get(slot, 0.0), float(value))
            else:
                totals[slot] = totals.get(slot, 0.0) + float(value)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {name: 0.0 for name in METRIC_UNITS}
    for phase, layers in _SELF_LAYERS.items():
        for layer in layers:
            metrics[f"{phase}.{layer}.self_s"] = self_s.get((phase, layer), 0.0)
    for metric, layer in SELF_TIMES.items():
        metrics[metric] = self_s.get((metric.split(".", 1)[0], layer), 0.0)
    metrics["setup.experiments.notched_reference_eigenvalue.incl_s"] = totals.get(
        ("setup", "experiments.notched_reference_eigenvalue", "incl_s"), 0.0
    )
    for phase in ("setup", "loop"):
        def total(layer: str, key: str) -> float:
            return totals.get((phase, layer, key), 0.0)

        metrics[f"{phase}.mesh.build_topology.calls"] = float(calls.get((phase, "mesh.build_topology"), 0))
        metrics[f"{phase}.mesh.build_topology.cells_per_s"] = ratio(
            total("mesh.build_topology", "cells"), self_s.get((phase, "mesh.build_topology"), 0.0)
        )
        metrics[f"{phase}.adaptivity.marked_share"] = ratio(
            total("adaptivity.mark", "marked"), total("adaptivity.mark", "considered")
        )
        metrics[f"{phase}.vem.assemble.cells_per_s"] = ratio(
            total("vem.assemble", "cells"), self_s.get((phase, "vem.assemble"), 0.0)
        )
        metrics[f"{phase}.vem.assemble.groups"] = ratio(
            total("vem.assemble", "groups"), calls.get((phase, "vem.assemble"), 0)
        )
        metrics[f"{phase}.eigensolver.lu_nnz"] = total("eigensolver.factorize", "nnz")
        metrics[f"{phase}.eigensolver.lu_solves"] = float(calls.get((phase, "eigensolver.lu_solve"), 0))
        metrics[f"{phase}.eigensolver.max_residual"] = total("eigensolver.solve", "residual")
    built = sum(
        totals.get(("loop", layer, "cells_built"), 0.0)
        for layer in ("adaptivity.refine_vem", "adaptivity.refine_fem", "adaptivity.refine_uniform")
    )
    metrics["loop.adaptivity.useful_cell_share"] = ratio(totals.get(("loop", "vem.assemble", "cells"), 0.0), built)
    metrics["emit.mesh.save_mesh.bytes"] = totals.get(("emit", "mesh.save_mesh", "bytes"), 0.0)
    metrics["emit.render.mesh_to_svg.bytes"] = totals.get(("emit", "render.mesh_to_svg", "bytes"), 0.0)

    wall = bounds["end"] - bounds["spawn"]
    attributed = sum(v for k, v in metrics.items() if k.endswith("self_s") or k in SELF_TIMES)
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_s"] = overhead_s
    metrics["trace.unattributed_s"] = wall - attributed
    metrics["trace.spans"] = float(len(spans))
    return metrics
