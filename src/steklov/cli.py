"""Command line front end.

Subcommands:

* ``steklov run`` -- execute one convergence experiment; results.csv and
  curves.csv get each step's row as it ends (Ctrl-C keeps them and exits
  with status 130), and so do the dumps asked for; then the per-step mesh
  JSON/SVG files are written, and the closing line counts every file.
* ``steklov rate`` -- fit a convergence slope to an existing results.csv.
* ``steklov mesh validate`` -- load a JSON mesh file, run the full topology
  validation and print a short quality summary.
"""

from __future__ import annotations

import argparse
import sys

from .eigensolver import EigensolverError
from .experiments import (
    METHODS,
    TESTS,
    ExperimentConfig,
    emit_outputs,
    fit_rate,
    read_results_csv,
    run_experiment,
)
from .mesh import MeshError, load_mesh, quality_report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steklov",
        description="Adaptive virtual element solver for the Steklov eigenvalue problem.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # every flag but --quiet is the ExperimentConfig field of its dest, and
    # one left out is absent, so the config's own default applies
    run = sub.add_parser("run", help="run a convergence experiment",
                         argument_default=argparse.SUPPRESS)
    run.add_argument("--test", choices=TESTS)
    run.add_argument("--method", choices=METHODS)
    run.add_argument("--steps", type=int)
    run.add_argument("--mark-frac", dest="mark_fraction", metavar="MARK_FRAC", type=float,
                     help="marking threshold as a fraction of the peak indicator")
    run.add_argument("--tol", type=float)
    run.add_argument("--seed", type=int)
    run.add_argument("--out", dest="out_dir", metavar="OUT", required=True, help="output directory")
    run.add_argument("--reference", type=float,
                     help="override the reference eigenvalue used for error columns")
    run.add_argument("--dump-indicators", action="store_true",
                     help="write per-cell indicator CSVs for every step")
    run.add_argument("--dump-matrices", action="store_true",
                     help="write each step's assembled matrices in Matrix Market format (.mtx)")
    run.add_argument("--quiet", action="store_true", default=False,
                     help="suppress per-step progress lines")

    rate = sub.add_parser("rate", help="fit a convergence rate to a results.csv")
    rate.add_argument("--csv", required=True)
    # left out, --last is absent and fit_rate's own window applies
    rate.add_argument("--last", type=int, default=argparse.SUPPRESS,
                      help="number of trailing points to fit")

    mesh = sub.add_parser("mesh", help="mesh file utilities")
    mesh_sub = mesh.add_subparsers(dest="mesh_command", required=True)
    validate = mesh_sub.add_parser("validate", help="validate a JSON mesh file")
    validate.add_argument("path")

    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    config = ExperimentConfig(**{k: v for k, v in vars(args).items() if k not in ("command", "quiet")})

    def progress(record) -> None:
        print(
            f"step {record.step}  N {record.n_dofs}  lambda_h {record.lambda_h:.10f}"
            f"  error {record.error:.6e}  eta2 {record.eta2:.6e}",
            flush=True,
        )

    result = run_experiment(config, progress=None if args.quiet else progress)
    paths = emit_outputs(result)
    if not args.quiet:
        print(f"wrote {len(paths)} files to {args.out_dir}")
    return 0


def _cmd_rate(args: argparse.Namespace) -> int:
    ns, _, errs = read_results_csv(args.csv)
    fit = fit_rate(ns, errs, **({"last": args.last} if "last" in args else {}))
    print(f"slope {fit.slope:.6f} over {fit.points} points")
    return 0


def _cmd_mesh_validate(args: argparse.Namespace) -> int:
    mesh = load_mesh(args.path)
    report = quality_report(mesh)
    boundary = int((mesh.edge_right < 0).sum())
    print(f"{args.path}: OK")
    print(f"  vertices {mesh.n_vertices}  cells {mesh.n_cells}  edges {mesh.n_edges} "
          f"({boundary} boundary, {len(mesh.gamma0_edge_ids())} gamma0)")
    print(f"  gamma estimate {report.gamma_estimate:.4f}  "
          f"gamma_hat estimate {report.gamma_hat_estimate:.4f}")
    if len(report.star_flags):
        print(f"  note: {len(report.star_flags)} cells below the gamma threshold")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "rate":
            return _cmd_rate(args)
        return _cmd_mesh_validate(args)
    except (MeshError, EigensolverError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        kept = f"; the tables in {args.out_dir} keep every finished step" if args.command == "run" else ""
        print(f"interrupted{kept}", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
