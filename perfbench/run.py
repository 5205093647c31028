"""The steklov benchmark: fixed `steklov run` workloads, each run in fresh processes.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout; the package is imported from
``src/`` there.  Every repetition is a new Python process, because a user pays
the per-process cost (imports, the reference ladder of ``notched``) on every
``steklov run``.  One run repeats the full workload while another repetition
fits in ``--seconds`` (at least once).  Untraced, it then fills the rest of
``--seconds`` with cheaper repetitions: loop repetitions of the CLI workload,
given the golden reference so that they skip the ladder, for more ``loop_s``
samples, and setup-only repetitions that stop at the first convergence
record, for more ``setup_s`` samples.  Each metric is the median of its
samples in the run.

Each repetition is checked against ``goldens.json``; one that raises or misses
its golden counts as failed.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, with the
end-to-end metrics untraced and the per-layer metrics (see tracer.py) with
``--trace 1``.  The line before it carries the raw samples, their medians and
percentiles, and the machine and library versions.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from tracer import METRIC_UNITS, clock, layer_metrics
from workloads import WORKLOADS, Workload, check, load_goldens

HERE = Path(__file__).resolve().parent
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "loop_s": "s", "peak_rss_mb": "MB"}
THREAD_ENV = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
MAX_SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 170.0


@dataclass
class Rep:
    kind: str  # "full", "loop" (skips the reference ladder) or "setup" (stops at the first record)
    duration_s: float  # spawn to process exit
    failure: str | None = None
    report: dict = field(default_factory=dict)
    spawn: float = 0.0

    def elapsed(self, mark: str) -> float:
        return self.report["marks"][mark] - self.spawn


def spawn_rep(workload: Workload, golden: dict, seed: int, trace: bool, kind: str,
              checkout: Path, scratch: Path) -> Rep:
    """Run the workload once in a fresh process and check it against its golden."""
    if kind == "loop":
        # the same loop as one run_experiment call given the golden reference:
        # no reference ladder and no output files
        workload = replace(workload, cli=False, reference=golden["reference"])
    setup_only = kind == "setup"
    rep_dir = Path(tempfile.mkdtemp(dir=scratch))
    report_path = rep_dir / "report.json"
    spec = asdict(workload) | {
        "seed": seed, "trace": trace, "setup_only": setup_only,
        "out": str(rep_dir / "out"), "src": str(checkout / "src"),
    }
    env = os.environ | THREAD_ENV
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(checkout / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "child.py"), json.dumps(spec), str(report_path)]
    try:
        spawn = clock()
        proc = subprocess.Popen(cmd, cwd=checkout, env=env, stdout=subprocess.DEVNULL)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return Rep(kind, clock() - spawn, f"timed out after {CHILD_TIMEOUT_S} s")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        rep = Rep(kind, clock() - spawn, spawn=spawn)
        if code != 0 or not report_path.is_file():
            rep.failure = f"child exited with code {code}"
            return rep
        with open(report_path) as fh:
            rep.report = json.load(fh)
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)
    rep.failure = rep.report.get("error") or check(golden, rep.report, setup_only)
    return rep


def percentile_summary(values: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"n": n, "median": statistics.median(ordered) if n else None}
    if n > 10:
        out[f"p{100.0 * (n - 10) / n:.1f}"] = ordered[n - 11]
    return out


@contextlib.contextmanager
def scratch_dir(checkout: Path):
    """A fresh directory below ``.perfbench_tmp/`` in the checkout, removed on exit."""
    root = checkout / ".perfbench_tmp"
    root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=root))
    try:
        yield scratch
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            root.rmdir()  # fails while another run still uses it


def run_workload(workload: Workload, golden: dict, seed: int, seconds: float, trace: bool,
                 checkout: Path) -> tuple[dict, dict]:
    """Repeat the workload for ``seconds``; returns (result line, detail line)."""
    reps: list[Rep] = []
    with scratch_dir(checkout) as scratch:
        deadline = clock() + seconds

        def fill(kind: str, cost: float, enough=lambda: False) -> None:
            """Add ``kind`` reps while the next, costing about the last one, fits."""
            while not enough() and clock() + cost <= deadline:
                reps.append(spawn_rep(workload, golden, seed, trace, kind, checkout, scratch))
                cost = reps[-1].duration_s

        reps.append(spawn_rep(workload, golden, seed, trace, "full", checkout, scratch))
        fill("full", reps[-1].duration_s)
        ok = [r for r in reps if not r.failure]
        if not trace and workload.cli and "reference" in golden and ok:
            # the ladder leaves room for one full rep only, so loop_s gets more
            # samples here; a loop rep costs about a full one's imports and loop
            fill("loop", min(r.elapsed("imported") + r.elapsed("run_return") - r.elapsed("first") for r in ok))
        if not trace and ok:
            # a setup-only rep costs about the set-up of a full one
            fill("setup", min(r.elapsed("first") for r in ok),
                 lambda: sum(1 for r in reps if r.kind != "loop" and not r.failure) >= MAX_SETUP_SAMPLES)

    ok_full = [r for r in reps if not r.failure and r.kind == "full"]
    if trace:
        units = METRIC_UNITS
        per_rep = [traced_metrics(r) for r in ok_full]
        samples = {name: [m[name] for m in per_rep] for name in units}
    else:
        units = END_TO_END_UNITS
        samples = {
            "wall_s": [r.elapsed("end") for r in ok_full],
            "setup_s": [r.elapsed("first") for r in reps if not r.failure and r.kind != "loop"],
            "loop_s": [r.report["marks"]["run_return"] - r.report["marks"]["first"]
                       for r in reps if not r.failure and r.kind != "setup"],
            "peak_rss_mb": [r.report["maxrss_kb"] / 1024.0 for r in ok_full],
        }
    failed = sum(1 for r in reps if r.failure)
    result = {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {
            name: {"value": statistics.median(values) if values else 0.0, "unit": units[name]}
            for name, values in samples.items()
        },
    }
    first = next((r.report for r in reps if r.report.get("versions")), {})
    detail = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "failed_share": failed / len(reps),
        "failures": [r.failure for r in reps if r.failure],
        "reps": {kind: sum(r.kind == kind for r in reps) for kind in ("full", "loop", "setup")},
        "summary": {name: percentile_summary(values) for name, values in samples.items()},
        "samples": samples,
        "absent": first.get("absent", []),
        "machine": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "versions": first.get("versions"),
            "threads": THREAD_ENV,
        },
    }
    return result, detail


def traced_metrics(rep: Rep) -> dict[str, float]:
    marks = rep.report["marks"]
    spans = [["process.start", rep.spawn, rep.report["t_start"], -1, {}]]
    offset = len(spans)
    for name, start, end, parent, counts in rep.report["spans"]:
        spans.append([name, start, end, parent + offset if parent >= 0 else -1, counts])
    bounds = {"spawn": rep.spawn, "first": marks["first"], "run_return": marks["run_return"], "end": marks["end"]}
    return layer_metrics(spans, bounds, rep.report["overhead_s"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    checkout = Path.cwd()
    if not (checkout / "src" / "steklov" / "__init__.py").is_file():
        print(f"error: {checkout} holds no src/steklov package to benchmark", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    golden = load_goldens()[workload.name]
    result, detail = run_workload(workload, golden, args.seed, args.seconds, bool(args.trace), checkout)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
