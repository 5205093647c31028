"""Smoke test of the benchmark harness on shortened step counts.

    python3 perfbench/selftest.py      # from the checkout root, about ten seconds

For every workload, cut to its first few steps, it checks that an untraced run
emits every end-to-end metric of BENCHMARK.json with its unit, that a
set-up-only repetition and, on the CLI workload, a loop repetition pass, that
a traced run emits every per-layer metric with its unit and that its self
times plus ``trace.unattributed_s`` add up to the traced wall time, and that a
corrupted golden makes every repetition, full, set-up-only or loop, count as
failed.  The shortened CLI workload is given the golden reference, so it skips
the reference ladder.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from pathlib import Path

import run
from tracer import SELF_TIMES
from workloads import WORKLOADS, load_goldens, shortened

SHORT_STEPS = {"notched-vem-cli": 3, "square-fem": 3}  # per experiment
SEED = 3


class SelfTestFailure(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestFailure(message)


def check_metrics(result: dict, units: dict[str, str], label: str) -> None:
    metrics = result["metrics"]
    expect(set(metrics) == set(units), f"{label}: metrics {sorted(set(metrics) ^ set(units))} differ")
    for name, unit in units.items():
        expect(metrics[name]["unit"] == unit, f"{label}: {name} has unit {metrics[name]['unit']}, not {unit}")
        expect(math.isfinite(metrics[name]["value"]), f"{label}: {name} is not finite")


def main() -> int:
    checkout = Path.cwd()
    bench = json.loads((checkout / "BENCHMARK.json").read_text())
    expect({w["name"] for w in bench["workloads"]} == set(WORKLOADS), "BENCHMARK.json workloads differ")
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    goldens = load_goldens()

    for name, workload in WORKLOADS.items():
        short, golden = shortened(workload, SHORT_STEPS[name], goldens)

        result, detail = run.run_workload(short, golden, SEED, 1, False, checkout)
        expect(result["correct"] and result["failed"] == 0, f"{name}: untraced run failed: {detail['failures']}")
        check_metrics(result, end_to_end, f"{name} untraced")
        expect(all(m["value"] > 0 for m in result["metrics"].values()), f"{name}: an end-to-end metric is 0")
        corrupted = copy.deepcopy(golden)
        corrupted["lambda_h"][0] *= 1.0 + 1e-6
        with run.scratch_dir(checkout) as scratch:
            setup_rep = run.spawn_rep(short, golden, SEED, False, "setup", checkout, scratch)
            expect(setup_rep.failure is None and 0 < setup_rep.elapsed("first"),
                   f"{name}: set-up-only repetition failed: {setup_rep.failure}")
            setup_rep = run.spawn_rep(short, corrupted, SEED, False, "setup", checkout, scratch)
            expect(setup_rep.failure is not None, f"{name}: a corrupted golden passed a set-up-only repetition")
            if workload.cli:
                loop_rep = run.spawn_rep(short, golden, SEED, False, "loop", checkout, scratch)
                expect(loop_rep.failure is None and loop_rep.elapsed("first") < loop_rep.elapsed("run_return"),
                       f"{name}: loop repetition failed: {loop_rep.failure}")
                loop_rep = run.spawn_rep(short, corrupted, SEED, False, "loop", checkout, scratch)
                expect(loop_rep.failure is not None, f"{name}: a corrupted golden passed a loop repetition")

        result, detail = run.run_workload(short, golden, SEED, 1, True, checkout)
        expect(result["correct"], f"{name}: traced run failed: {detail['failures']}")
        check_metrics(result, per_layer, f"{name} traced")
        values = {k: v["value"] for k, v in result["metrics"].items()}
        self_times = sum(v for k, v in values.items() if k.endswith("self_s") or k in SELF_TIMES)
        wall = values["trace.wall_s"]
        expect(abs(self_times + values["trace.unattributed_s"] - wall) <= 1e-9 * wall,
               f"{name}: self times do not add up to the traced wall time")
        expect(0.0 <= values["trace.unattributed_s"] <= 0.05 * wall,
               f"{name}: {values['trace.unattributed_s']:.3f} s of {wall:.3f} s is outside every span")

        result, detail = run.run_workload(short, corrupted, SEED, 1, False, checkout)
        expect(not result["correct"] and result["failed"] == result["attempted"],
               f"{name}: a corrupted golden did not fail the run")
        print(f"{name}: ok", flush=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SelfTestFailure as err:
        print(f"selftest FAILED: {err}", file=sys.stderr)
        sys.exit(1)
