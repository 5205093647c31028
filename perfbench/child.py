"""One benchmark run of one workload, in a fresh process.

    python3 perfbench/child.py '<json spec>' <report path>

The spec carries the workload fields plus ``seed``, ``trace``, ``setup_only``,
``out`` (a fresh output directory) and ``src`` (the package sources that must
be imported).  The report is a JSON file with clock readings, the convergence
records, peak RSS and, when traced, the spans.  A setup-only run stops at the
first convergence record.
"""

import json
import os
import resource
import sys
import traceback

from tracer import Tracer, clock

T_START = clock()


class SetupDone(Exception):
    """Raised from the progress callback to end a setup-only run."""


def _import_package(src: str):
    import numpy
    import scipy
    import scipy.sparse.linalg  # noqa: F401  (the tracer wraps splu here)

    import steklov.cli
    import steklov.experiments

    origin = os.path.realpath(steklov.__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise RuntimeError(f"imported steklov from {origin}, not from {src}")
    versions = {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__}
    return steklov.cli, steklov.experiments, versions


def _check_outputs(experiments, result, paths) -> str | None:
    """The emitted files exist and results.csv reads back as the records."""
    for path in paths:
        if not os.path.isfile(path) or os.path.getsize(path) == 0:
            return f"missing or empty output {path}"
    csv_path = os.path.join(result.config.out_dir, "results.csv")
    ns, lams, _ = experiments.read_results_csv(csv_path)
    if ns != [r.n_dofs for r in result.records] or lams != [r.lambda_h for r in result.records]:
        return "results.csv does not match the convergence records"
    return None


def main(spec: dict, report_path: str) -> None:
    report: dict = {"t_start": T_START}
    marks = report.setdefault("marks", {})
    tracer = Tracer() if spec["trace"] else None
    try:
        cli, experiments, report["versions"] = _import_package(spec["src"])
        marks["imported"] = clock()
        if tracer is not None:
            tracer.spans.append(["process.import", T_START, marks["imported"], -1, {}])
            tracer.install()

        def on_record(record) -> None:
            if "first" not in marks:
                marks["first"] = clock()
                if spec["setup_only"]:
                    report["records"] = [_record(record)]
                    raise SetupDone

        if spec["cli"]:
            result, paths = _run_cli(spec, cli, on_record, marks, tracer)
            results = [result]
        else:
            results = []
            for method, steps in spec["runs"]:
                config = experiments.ExperimentConfig(
                    test=spec["test"], method=method, steps=steps,
                    seed=spec["seed"], reference=spec["reference"],
                )
                results.append(experiments.run_experiment(config, progress=on_record))
            marks["run_return"] = marks["end"] = clock()
            paths = []

        report["records"] = [_record(r) for result in results for r in result.records]
        report["reference"] = results[-1].reference
        if spec["cli"]:
            report["outputs_error"] = _check_outputs(experiments, result, paths)
            report["outputs"] = {"files": len(paths)}
    except SetupDone:
        marks["end"] = marks["first"]
    except Exception:  # the report carries the failure to the parent
        report["error"] = traceback.format_exc(limit=8)
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        report["spans"] = tracer.spans
        report["overhead_s"] = tracer.overhead_s
        report["absent"] = tracer.absent
    with open(report_path, "w") as fh:
        json.dump(report, fh)


def _record(record) -> dict:
    return {"n_dofs": record.n_dofs, "lambda_h": record.lambda_h, "error": record.error}


def _run_cli(spec, cli, on_record, marks, tracer):
    """``steklov run ...`` in this process: cli.main with its two public calls timed."""
    inner_run, inner_emit = cli.run_experiment, cli.emit_outputs
    captured = {}

    def timed_run(config, progress=None):
        def chained(record):
            on_record(record)
            if progress is not None:
                progress(record)

        captured["result"] = inner_run(config, progress=chained)
        marks["run_return"] = clock()
        return captured["result"]

    def timed_emit(result):
        captured["paths"] = inner_emit(result)
        marks["end"] = clock()
        return captured["paths"]

    (method, steps), = spec["runs"]
    argv = ["run", "--test", spec["test"], "--method", method, "--steps", str(steps),
            "--seed", str(spec["seed"]), "--out", spec["out"]]
    if spec["reference"] is not None:
        argv += ["--reference", repr(spec["reference"])]
    cli.run_experiment, cli.emit_outputs = timed_run, timed_emit
    code = tracer.span("cli.main", cli.main, (argv,)) if tracer else cli.main(argv)
    if code != 0:
        raise RuntimeError(f"steklov run exited with code {code}")
    return captured["result"], captured["paths"]


if __name__ == "__main__":
    main(json.loads(sys.argv[1]), sys.argv[2])
