"""The benchmark's workloads and the golden outputs every run is checked against."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

GOLDENS_PATH = Path(__file__).with_name("goldens.json")

REFERENCE_TOL = 1e-5
LAMBDA_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    """Fixed experiments run one after another in one process.  ``cli`` runs
    its single experiment through ``steklov.cli.main`` (run_experiment then
    emit_outputs into a fresh directory); otherwise each experiment is one
    ``run_experiment`` call with no output directory."""

    name: str
    test: str
    runs: tuple[tuple[str, int], ...]  # (method, steps) of each experiment, in order
    cli: bool = False
    reference: float | None = None  # passed as --reference / config.reference


WORKLOADS = {
    w.name: w
    for w in (
        # the README's main use: reference ladder, polygonal cells with hanging
        # nodes, refine_vem and output emission
        Workload("notched-vem-cli", "notched", (("adaptive-vem", 13),), cli=True),
        # the paper's uniform-versus-adaptive comparison on the square, with
        # FEM meshes: whole-mesh refinement in one triangle group (the last
        # refine builds 65,536 cells nobody solves), then the newest-vertex
        # bisection closure (26,913 dofs at the last step)
        Workload("square-fem", "square", (("uniform-fem", 5), ("adaptive-fem", 13))),
    )
}


def load_goldens() -> dict:
    with open(GOLDENS_PATH) as fh:
        return json.load(fh)


def shortened(workload: Workload, steps: int, goldens: dict) -> tuple[Workload, dict]:
    """The first ``steps`` steps of each experiment of a workload, with its
    goldens cut to match.

    A golden list holds the records of all experiments in order.  A shortened
    CLI workload is given the golden reference, so that it skips the
    reference ladder.
    """
    golden = dict(goldens[workload.name])
    for key in ("n_dofs", "lambda_h", "error"):
        if key in golden:
            cut, offset = [], 0
            for _, run_steps in workload.runs:
                cut += golden[key][offset:offset + min(steps, run_steps)]
                offset += run_steps
            golden[key] = cut
    runs = tuple((method, min(steps, run_steps)) for method, run_steps in workload.runs)
    reference = golden.get("reference") if workload.cli else workload.reference
    return replace(workload, runs=runs, reference=reference), golden


def check(golden: dict, report: dict, setup_only: bool) -> str | None:
    """Why a run's outputs miss the golden, or None when they match.

    A setup-only run stops after its first record, so only step 0 is checked.
    """
    records = report.get("records") or []
    want_dofs = golden["n_dofs"][:1] if setup_only else golden["n_dofs"]
    got_dofs = [r["n_dofs"] for r in records]
    if got_dofs != want_dofs:
        return f"n_dofs {got_dofs} != golden {want_dofs}"
    for step, (rec, lam) in enumerate(zip(records, golden["lambda_h"])):
        if not math.isclose(rec["lambda_h"], lam, rel_tol=LAMBDA_RTOL, abs_tol=0.0):
            return f"step {step}: lambda_h {rec['lambda_h']!r} != golden {lam!r}"
    for step, (rec, err) in enumerate(zip(records, golden.get("error", []))):
        # the error moves with lambda_h, so it gets lambda_h's absolute tolerance
        if rec["error"] is None or abs(rec["error"] - err) > LAMBDA_RTOL * golden["lambda_h"][step]:
            return f"step {step}: error {rec['error']!r} != golden {err!r}"
    if not setup_only and "reference" in golden:
        ref = report.get("reference")
        if ref is None or abs(ref - golden["reference"]) > REFERENCE_TOL:
            return f"reference {ref!r} is not within {REFERENCE_TOL} of {golden['reference']}"
    if not setup_only and report.get("outputs_error"):
        return report["outputs_error"]
    return None
